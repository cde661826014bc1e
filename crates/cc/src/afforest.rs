//! Afforest: subgraph-sampling connected components (reference [43]).
//!
//! Three phases (Sutton, Ben-Nun & Barak, IPDPS 2018):
//!
//! 1. **Neighbor rounds** — link every node to its first `r` neighbors
//!    (cheap, touches a linear-size subgraph), then compress.
//! 2. **Component sampling** — estimate the largest intermediate component
//!    from a small random sample of nodes.
//! 3. **Finish** — process the *remaining* neighbors only for nodes outside
//!    that giant component, then compress. On skewed graphs almost every node
//!    is already inside, so phase 3 touches a tiny fraction of the arcs —
//!    this is why Afforest beats SV in Fig. 5. The skip is only as good as
//!    the giant: on an input of many small components (the edge-entity
//!    driver in [`crate::engine`] meets such Φ_k groups) phase 3 visits
//!    nearly every node.

use crate::{Adjacency, AtomicDsu};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Tuning knobs for [`afforest`].
#[derive(Clone, Copy, Debug)]
pub struct AfforestConfig {
    /// Neighbor rounds `r` (paper default: 2).
    pub neighbor_rounds: usize,
    /// Number of nodes sampled to estimate the giant component.
    pub sample_size: usize,
    /// Seed of the sampling RNG (result is exact regardless; the seed only
    /// affects how much of phase 3 can be skipped).
    pub seed: u64,
}

impl Default for AfforestConfig {
    fn default() -> Self {
        AfforestConfig {
            neighbor_rounds: 2,
            sample_size: 1024,
            seed: 0x5eed,
        }
    }
}

/// Runs Afforest over any [`Adjacency`]; returns fully compressed labels.
pub fn afforest<A: Adjacency + ?Sized>(adj: &A, config: AfforestConfig) -> Vec<u32> {
    let n = adj.num_nodes();
    let dsu = AtomicDsu::new(n);
    if n == 0 {
        return Vec::new();
    }

    // Phase 1: link the first r neighbors of every node.
    for round in 0..config.neighbor_rounds {
        (0..n).into_par_iter().for_each(|u| {
            if round < adj.degree(u) {
                dsu.link(u as u32, adj.neighbor(u, round) as u32);
            }
        });
        dsu.compress();
    }

    // Phase 2: sample to find the most frequent component.
    let giant = sample_frequent_component(&dsu, n, config.sample_size, config.seed);

    // Phase 3: finish the remaining neighbors of nodes outside the giant
    // component.
    let tracing = et_obs::enabled();
    let giant_skips = std::sync::atomic::AtomicU64::new(0);
    (0..n).into_par_iter().for_each(|u| {
        if dsu.find(u as u32) == giant {
            if tracing {
                giant_skips.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            return;
        }
        adj.for_each_neighbor_from(u, config.neighbor_rounds, &mut |v| {
            dsu.link(u as u32, v as u32);
        });
    });
    et_obs::counter_add("afforest.giant_skips", giant_skips.into_inner());
    dsu.compress();
    dsu.labels()
}

/// Most frequent root among `sample_size` randomly sampled nodes.
pub(crate) fn sample_frequent_component(
    dsu: &AtomicDsu,
    n: usize,
    sample_size: usize,
    seed: u64,
) -> u32 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for _ in 0..sample_size.max(1) {
        let x = rng.gen_range(0..n) as u32;
        *counts.entry(dsu.find(x)).or_default() += 1;
    }
    let (root, hits) = counts
        .into_iter()
        .max_by_key(|&(root, c)| (c, std::cmp::Reverse(root)))
        .unwrap_or((0, 0));
    // hits / sample_size estimates how much of phase 3 the giant-component
    // skip will save.
    et_obs::counter_add("afforest.sample_hits", hits as u64);
    et_obs::counter_add("afforest.sample_size", sample_size.max(1) as u64);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs_cc, same_partition, shiloach_vishkin};
    use et_graph::GraphBuilder;

    #[test]
    fn matches_bfs_and_sv_on_random() {
        for seed in 0..6 {
            let g = et_gen::gnm(200, 220, seed);
            let a = afforest(&g, AfforestConfig::default());
            assert!(same_partition(&a, &bfs_cc(&g)), "vs bfs, seed {seed}");
            assert!(
                same_partition(&a, &shiloach_vishkin(&g)),
                "vs sv, seed {seed}"
            );
        }
    }

    #[test]
    fn giant_component_graph() {
        // One big R-MAT blob plus isolated vertices: the sampling fast path.
        let g = et_gen::rmat::rmat_small(10, 8, 3);
        let a = afforest(&g, AfforestConfig::default());
        assert!(same_partition(&a, &bfs_cc(&g)));
    }

    #[test]
    fn config_variations_agree() {
        let g = et_gen::gnm(300, 500, 42);
        let reference = bfs_cc(&g);
        for rounds in [1, 2, 4] {
            for sample in [1, 16, 4096] {
                let cfg = AfforestConfig {
                    neighbor_rounds: rounds,
                    sample_size: sample,
                    seed: 1,
                };
                assert!(
                    same_partition(&afforest(&g, cfg), &reference),
                    "rounds={rounds} sample={sample}"
                );
            }
        }
    }

    #[test]
    fn empty_and_isolated() {
        let g = GraphBuilder::new(0).build();
        assert!(afforest(&g, AfforestConfig::default()).is_empty());
        let g5 = GraphBuilder::new(5).build();
        let labels = afforest(&g5, AfforestConfig::default());
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
