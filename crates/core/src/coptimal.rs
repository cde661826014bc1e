//! C-Optimal EquiTruss SpNode — the cache/computation-optimized SV (§3.3).
//!
//! The SV driver of the shared edge-CC engine with the
//! [`crate::engine::CsrTriangleView`] resolution policy. Differences from
//! the Baseline, exactly as the paper describes:
//!
//! * GAP-style CSR storage: trussness of a triangle edge is found via the
//!   per-arc edge-id array riding along the neighborhood merge — "the search
//!   space is reduced to only the neighborhood list" — instead of a global
//!   dictionary probe;
//! * Π lives in a contiguous buffer indexed by edge id (no keyed lookups);
//! * the skip rule (`SvPolicy { skip_equal: true }`): if Π(e) = Π(e₁) the
//!   pair is already merged and all further processing for that candidate
//!   is skipped before any root check.

use crate::engine::CsrTriangleView;
use et_cc::engine::{sv_edge_components, SvPolicy};
use et_graph::{EdgeId, RowView};
use std::sync::atomic::AtomicU32;

/// Runs C-Optimal SV hooking/shortcut rounds for one Φ_k group.
pub fn spnode_group_coptimal(
    rows: &RowView<'_>,
    trussness: &[u32],
    k: u32,
    phi_k: &[EdgeId],
    parent: &[AtomicU32],
) {
    let view = CsrTriangleView::new(rows, trussness, k);
    sv_edge_components(&view, phi_k, parent, SvPolicy { skip_equal: true });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baseline::{spnode_group_baseline, EdgeDict};
    use crate::phi::PhiGroups;
    use et_graph::EdgeIndexedGraph;
    use et_truss::decompose_serial;

    /// Π after C-Optimal SpNode over every Φ_k group, frozen — the
    /// partition the other constructions' tests compare with.
    pub(crate) fn run_coptimal(eg: &EdgeIndexedGraph, tau: &[u32]) -> Vec<u32> {
        let phi = PhiGroups::build(tau);
        let parent: Vec<AtomicU32> = (0..eg.num_edges() as u32).map(AtomicU32::new).collect();
        for (k, group) in phi.iter() {
            spnode_group_coptimal(&RowView::of(eg), tau, k, group, &parent);
        }
        parent.into_iter().map(|a| a.into_inner()).collect()
    }

    fn run_baseline(eg: &EdgeIndexedGraph, tau: &[u32]) -> Vec<u32> {
        let phi = PhiGroups::build(tau);
        let dict = EdgeDict::build(eg);
        let parent: Vec<AtomicU32> = (0..eg.num_edges() as u32).map(AtomicU32::new).collect();
        for (k, group) in phi.iter() {
            spnode_group_baseline(eg, &dict, tau, k, group, &parent);
        }
        parent.into_iter().map(|a| a.into_inner()).collect()
    }

    #[test]
    fn same_partition_as_baseline_on_fixtures() {
        for f in et_gen::fixtures::all_fixtures() {
            let eg = EdgeIndexedGraph::new(f.graph.clone());
            let tau = decompose_serial(&eg).trussness;
            let a = run_coptimal(&eg, &tau);
            let b = run_baseline(&eg, &tau);
            assert!(
                et_cc::same_partition(&a, &b),
                "fixture {} partition mismatch",
                f.name
            );
        }
    }

    #[test]
    fn same_partition_as_baseline_on_random() {
        for seed in 0..5 {
            let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(150, 25, (3, 7), 60, seed));
            let tau = decompose_serial(&g).trussness;
            assert!(
                et_cc::same_partition(&run_coptimal(&g, &tau), &run_baseline(&g, &tau)),
                "seed {seed}"
            );
        }
    }
}
