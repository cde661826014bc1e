//! Afforest EquiTruss SpNode — sampling-based edge-entity CC (§3.3).
//!
//! The Afforest driver of the shared edge-CC engine with the
//! [`crate::engine::CsrTriangleView`] resolution policy — adapting Afforest
//! (Sutton et al., reference \[43\]) to the edge-induced graph of one Φ_k
//! group, on top of the C-Optimal data layout:
//!
//! 1. **neighbor rounds** — each edge lock-free-links to its first `r`
//!    same-trussness triangle partners and stops enumerating there, so this
//!    pass touches only a subgraph;
//! 2. **sampling** — the most frequent component among a random sample of
//!    Φ_k estimates the giant component;
//! 3. **finish** — only edges outside the giant component enumerate their
//!    full triangle-partner lists.
//!
//! Against SV, which re-enumerates every triangle once *per hooking round*,
//! Afforest enumerates non-giant edges once and giant edges barely at all —
//! the Fig. 5 speedup. How much the giant skip saves depends on the group: a
//! Φ_k made of many small supernodes has no giant component to speak of, and
//! the finish phase then enumerates nearly every edge (on the skewed R-MAT
//! of `bench_e2e`'s `social-build`, the sampled giants cover 8.4 % of the
//! indexed edges). The `afforest.giant_skips` / `afforest.finish_edges`
//! counters report the split per build.
//!
//! The pipeline runs this on a decomposition that carries no supernode
//! forest (`decompose_serial`, `TrussDecomposition::new`). One that comes
//! from the parallel peel does: the peel linked every same-k partner it
//! walked past, which is this algorithm with the sample complete and the
//! finish left nothing to do, so [`crate::pipeline::Variant::Afforest`]
//! borrows that Π instead ([`crate::build_index_with_decomposition`]).

use crate::engine::CsrTriangleView;
use et_cc::engine::{afforest_edge_components, AfforestPolicy};
use et_graph::{EdgeId, RowView};
use std::sync::atomic::AtomicU32;

/// Tuning knobs of the edge-entity Afforest.
#[derive(Clone, Copy, Debug)]
pub struct AfforestSpNodeConfig {
    /// Triangle-partner rounds linked eagerly (Afforest's `r`; default 2).
    pub neighbor_rounds: usize,
    /// Sample size used to estimate the giant component per Φ_k group.
    pub sample_size: usize,
    /// Sampling seed (affects only how much work phase 3 skips, never the
    /// resulting components).
    pub seed: u64,
}

impl Default for AfforestSpNodeConfig {
    fn default() -> Self {
        AfforestSpNodeConfig {
            neighbor_rounds: 2,
            sample_size: 1024,
            seed: 0xAFF0,
        }
    }
}

/// Runs Afforest supernode construction for one Φ_k group over the shared
/// atomic Π array.
pub fn spnode_group_afforest(
    rows: &RowView<'_>,
    trussness: &[u32],
    k: u32,
    phi_k: &[EdgeId],
    parent: &[AtomicU32],
    config: AfforestSpNodeConfig,
) {
    let view = CsrTriangleView::new(rows, trussness, k);
    afforest_edge_components(
        &view,
        phi_k,
        parent,
        AfforestPolicy {
            neighbor_rounds: config.neighbor_rounds,
            sample_size: config.sample_size,
            // Per-group seed so every Φ_k samples independently.
            seed: config.seed ^ k as u64,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coptimal::tests::run_coptimal;
    use crate::phi::PhiGroups;
    use et_graph::EdgeIndexedGraph;
    use et_truss::decompose_serial;

    fn run_afforest(eg: &EdgeIndexedGraph, tau: &[u32], cfg: AfforestSpNodeConfig) -> Vec<u32> {
        let phi = PhiGroups::build(tau);
        let parent: Vec<AtomicU32> = (0..eg.num_edges() as u32).map(AtomicU32::new).collect();
        for (k, group) in phi.iter() {
            spnode_group_afforest(&RowView::of(eg), tau, k, group, &parent, cfg);
        }
        parent.into_iter().map(|a| a.into_inner()).collect()
    }

    #[test]
    fn matches_coptimal_on_fixtures() {
        for f in et_gen::fixtures::all_fixtures() {
            let eg = EdgeIndexedGraph::new(f.graph.clone());
            let tau = decompose_serial(&eg).trussness;
            let a = run_afforest(&eg, &tau, AfforestSpNodeConfig::default());
            let b = run_coptimal(&eg, &tau);
            assert!(et_cc::same_partition(&a, &b), "fixture {}", f.name);
        }
    }

    #[test]
    fn config_sweep_agrees() {
        let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(200, 40, (3, 7), 80, 7));
        let tau = decompose_serial(&g).trussness;
        let reference = run_coptimal(&g, &tau);
        for rounds in [1, 2, 3] {
            for sample in [1, 64, 4096] {
                let cfg = AfforestSpNodeConfig {
                    neighbor_rounds: rounds,
                    sample_size: sample,
                    seed: 99,
                };
                assert!(
                    et_cc::same_partition(&run_afforest(&g, &tau, cfg), &reference),
                    "rounds={rounds} sample={sample}"
                );
            }
        }
    }

    #[test]
    fn random_graphs_agree() {
        for seed in 0..5 {
            let g = EdgeIndexedGraph::new(et_gen::gnm(120, 800, seed));
            let tau = decompose_serial(&g).trussness;
            assert!(
                et_cc::same_partition(
                    &run_afforest(&g, &tau, AfforestSpNodeConfig::default()),
                    &run_coptimal(&g, &tau)
                ),
                "seed {seed}"
            );
        }
    }
}
