//! EquiTruss index over a [`DynamicGraph`], rebuilt per update.

use crate::DynamicGraph;
use et_core::{build_index_with_decomposition, KernelTimings, SuperGraph, Variant};

/// What one update did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateStats {
    /// Trussness levels whose SpNode groups were rebuilt: every level ≥ 3
    /// present after the update, ascending.
    pub rebuilt_levels: Vec<u32>,
    /// Trussness levels reused from before the update. Always empty: every
    /// update runs the whole static pipeline. The field stays for the day a
    /// repair design beats that baseline.
    pub reused_levels: Vec<u32>,
    /// Number of edges whose trussness changed (including the updated edge).
    pub tau_changes: usize,
}

/// An EquiTruss index that follows edge insertions/deletions.
///
/// Arrays are indexed by the graph's *stable* edge ids (capacity-sized; dead
/// slots carry trussness 0 and `NO_SUPERNODE`).
pub struct DynamicIndex {
    graph: DynamicGraph,
    trussness: Vec<u32>,
    index: SuperGraph,
}

impl DynamicIndex {
    /// Builds the index for the current state of `graph`.
    pub fn build(graph: DynamicGraph) -> Self {
        let (trussness, index) = build_stable(&graph);
        DynamicIndex {
            graph,
            trussness,
            index,
        }
    }

    /// The underlying graph (read-only; mutate through
    /// [`DynamicIndex::insert_edge`] / [`DynamicIndex::remove_edge`]).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The current trussness dictionary (stable-id indexed).
    pub fn trussness(&self) -> &[u32] {
        &self.trussness
    }

    /// The current summary graph (stable-id indexed members).
    pub fn index(&self) -> &SuperGraph {
        &self.index
    }

    /// Inserts `{u, v}` and rebuilds the index. Returns `None` if the edge
    /// already exists (no change).
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Option<UpdateStats> {
        self.graph.insert_edge(u, v)?;
        Some(self.refresh())
    }

    /// Removes `{u, v}` and rebuilds the index. Returns `None` if the edge
    /// was absent.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> Option<UpdateStats> {
        self.graph.remove_edge(u, v)?;
        Some(self.refresh())
    }

    /// Rebuilds trussness and index for the graph as it now stands and
    /// reports the difference to what they replace.
    fn refresh(&mut self) -> UpdateStats {
        let (trussness, index) = build_stable(&self.graph);
        let old = std::mem::replace(&mut self.trussness, trussness);
        self.index = index;
        let tau_changes = (0..self.trussness.len())
            .filter(|&e| old.get(e).copied().unwrap_or(0) != self.trussness[e])
            .count();
        // SpNodeRemap numbers supernodes in ascending k, so this is sorted.
        let mut rebuilt_levels: Vec<u32> = self.index.sn_trussness.to_vec();
        rebuilt_levels.dedup();
        UpdateStats {
            rebuilt_levels,
            reused_levels: Vec::new(),
            tau_changes,
        }
    }
}

/// The static pipeline on `graph`'s CSR — the peel, then the construction
/// `equitruss build` runs by default — carried back to stable edge ids.
fn build_stable(graph: &DynamicGraph) -> (Vec<u32>, SuperGraph) {
    let (indexed, stable) = graph.to_indexed();
    let decomposition = et_truss::decompose_parallel(&indexed);
    let index = build_index_with_decomposition(
        &indexed,
        &decomposition,
        Variant::Afforest,
        &mut KernelTimings::default(),
    );
    let capacity = graph.edge_capacity();
    let mut trussness = vec![0u32; capacity];
    for (&tau, &e) in decomposition.trussness.iter().zip(&stable) {
        trussness[e as usize] = tau;
    }
    (trussness, index.relabel_edges(&stable, capacity))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use et_core::NO_SUPERNODE;
    use et_graph::{EdgeId, EdgeIndexedGraph};

    /// Supernodes as (trussness, sorted member endpoint pairs).
    type CanonicalSupernodes = Vec<(u32, Vec<(u32, u32)>)>;
    /// Superedges as sorted endpoint-pair representatives.
    type CanonicalSuperedges = Vec<Vec<(u32, u32)>>;

    /// Canonical form keyed by endpoint pairs, so indexes over different
    /// edge-id spaces compare.
    fn canonical_by_endpoints(
        index: &SuperGraph,
        endpoints: impl Fn(EdgeId) -> (u32, u32),
    ) -> (CanonicalSupernodes, CanonicalSuperedges) {
        let mut sns: Vec<(u32, Vec<(u32, u32)>)> = (0..index.num_supernodes() as u32)
            .map(|sn| {
                let mut members: Vec<(u32, u32)> =
                    index.members(sn).iter().map(|&e| endpoints(e)).collect();
                members.sort_unstable();
                (index.trussness(sn), members)
            })
            .collect();
        let order: Vec<usize> = {
            let mut o: Vec<usize> = (0..sns.len()).collect();
            o.sort_by(|&a, &b| sns[a].1.cmp(&sns[b].1));
            o
        };
        let mut rename = vec![0usize; sns.len()];
        for (new, &old) in order.iter().enumerate() {
            rename[old] = new;
        }
        let mut ses: Vec<Vec<(u32, u32)>> = Vec::new();
        {
            // Represent superedges as the sorted pair of each endpoint
            // supernode's first member edge (post-rename order).
            let mut pairs: Vec<(usize, usize)> = index
                .superedges
                .iter()
                .map(|&(a, b)| {
                    let (x, y) = (rename[a as usize], rename[b as usize]);
                    (x.min(y), x.max(y))
                })
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let ordered: Vec<&(u32, Vec<(u32, u32)>)> = order.iter().map(|&o| &sns[o]).collect();
            for (a, b) in pairs {
                ses.push(vec![ordered[a].1[0], ordered[b].1[0]]);
            }
        }
        sns.sort_by(|a, b| a.1.cmp(&b.1));
        (sns, ses)
    }

    /// The maintained index equals serial Algorithm 1 on a fresh CSR of the
    /// same graph, and its arrays span the stable id space with nothing in
    /// the dead slots.
    pub(crate) fn assert_matches_static(di: &DynamicIndex, label: &str) {
        let (indexed, map) = di.graph().to_indexed();
        let d = et_truss::decompose_serial(&indexed);
        let fresh = et_core::build_original(&indexed, &d.trussness);
        let a = canonical_by_endpoints(di.index(), |e| di.graph().endpoints(e));
        let b = canonical_by_endpoints(&fresh, |e| indexed.endpoints(e));
        assert_eq!(a, b, "{label}");

        let capacity = di.graph().edge_capacity();
        assert_eq!(di.trussness().len(), capacity, "{label}");
        assert_eq!(di.index().edge_supernode.len(), capacity, "{label}");
        for (csr_eid, &stable) in map.iter().enumerate() {
            assert_eq!(
                di.trussness()[stable as usize],
                d.trussness[csr_eid],
                "{label}: τ of stable edge {stable}"
            );
        }
        for e in (0..capacity as EdgeId).filter(|&e| !di.graph().is_live(e)) {
            assert_eq!(di.trussness()[e as usize], 0, "{label}: dead slot {e}");
            assert_eq!(
                di.index().edge_supernode[e as usize],
                NO_SUPERNODE,
                "{label}: dead slot {e}"
            );
        }
    }

    fn dyn_from_static(g: et_graph::CsrGraph) -> DynamicIndex {
        DynamicIndex::build(DynamicGraph::from_indexed(&EdgeIndexedGraph::new(g)))
    }

    #[test]
    fn initial_build_matches_static() {
        let di = dyn_from_static(et_gen::fixtures::paper_example().graph.clone());
        assert_eq!(di.index().num_supernodes(), 5);
        assert_eq!(di.index().num_superedges(), 6);
        assert_matches_static(&di, "initial");
    }

    #[test]
    fn insertions_maintain_index() {
        let mut di = dyn_from_static(et_gen::fixtures::paper_example().graph.clone());
        // Close the triangle (0,4,5): insert (0,5) then strengthen with (4,10).
        for (u, v) in [(0u32, 5u32), (4, 10), (1, 4), (2, 4)] {
            let stats = di.insert_edge(u, v).expect("insert applies");
            assert!(!stats.rebuilt_levels.is_empty() || stats.tau_changes == 0);
            assert_matches_static(&di, &format!("after insert ({u},{v})"));
        }
    }

    #[test]
    fn deletions_maintain_index() {
        let mut di = dyn_from_static(et_gen::fixtures::paper_example().graph.clone());
        for (u, v) in [(9u32, 10u32), (0, 4), (3, 5)] {
            di.remove_edge(u, v).expect("edge exists");
            assert_matches_static(&di, &format!("after remove ({u},{v})"));
        }
        // Removing a non-edge is a no-op.
        assert!(di.remove_edge(0, 10).is_none());
    }

    #[test]
    fn random_churn_matches_static() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut di = dyn_from_static(et_gen::gnm(30, 140, 5));
        for step in 0..60 {
            let u = rng.gen_range(0..30u32);
            let v = rng.gen_range(0..30u32);
            if u == v {
                continue;
            }
            if di.graph().edge_id(u, v).is_some() {
                di.remove_edge(u, v);
            } else {
                di.insert_edge(u, v);
            }
            assert_matches_static(&di, &format!("churn step {step}"));
        }
    }

    #[test]
    fn update_stats_report_a_full_rebuild() {
        let mut g = DynamicGraph::from_indexed(&EdgeIndexedGraph::new(
            et_gen::fixtures::clique(4).graph.clone(),
        ));
        g.ensure_vertices(5);
        let mut di = DynamicIndex::build(g);
        // K4 → K5 one spoke at a time: a pendant edge (τ 2), a triangle on
        // the K4 (two edges reach 3), a second K4 (three reach 4), the K5
        // (all ten reach 5).
        let expected: [(usize, &[u32]); 4] = [(1, &[4]), (2, &[3, 4]), (3, &[4]), (10, &[5])];
        for (v, (tau_changes, levels)) in expected.into_iter().enumerate() {
            let stats = di.insert_edge(v as u32, 4).expect("insert applies");
            assert_eq!(stats.tau_changes, tau_changes, "spoke {v}");
            assert_eq!(stats.rebuilt_levels, levels, "spoke {v}");
            assert!(stats.reused_levels.is_empty(), "spoke {v}");
            assert_matches_static(&di, &format!("after spoke {v}"));
        }
        assert_eq!(di.index().num_supernodes(), 1);
        assert_eq!(di.index().members(0).len(), 10);
        // Dropping a K5 edge leaves two K4s sharing a triangle: 9 edges 5 → 4
        // and the removed slot 5 → 0.
        let stats = di.remove_edge(0, 1).expect("edge exists");
        assert_eq!(stats.tau_changes, 10);
        assert_eq!(stats.rebuilt_levels, [4]);
        assert!(stats.reused_levels.is_empty());
    }
}
