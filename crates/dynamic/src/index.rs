//! Incrementally-maintained EquiTruss index over a [`DynamicGraph`].

use crate::DynamicGraph;
use et_cc::engine::{sv_edge_components, SvPolicy, TriangleAdjacency};
use et_core::engine::same_k_partners;
use et_core::phi::PhiGroups;
use et_core::remap::remap_and_assemble;
use et_core::smgraph::merge_supergraph;
use et_core::spedge::{spedge_group_with, RootPair};
use et_core::SuperGraph;
use et_graph::EdgeId;
use rayon::prelude::*;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, Ordering};

/// What one update did — lets callers (and tests) observe the reuse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateStats {
    /// Trussness levels whose SpNode groups were rebuilt.
    pub rebuilt_levels: Vec<u32>,
    /// Trussness levels whose parent forests were reused verbatim.
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
    parent: Vec<AtomicU32>,
    index: SuperGraph,
}

impl DynamicIndex {
    /// Builds the index for the current state of `graph`.
    pub fn build(graph: DynamicGraph) -> Self {
        let mut idx = DynamicIndex {
            graph,
            trussness: Vec::new(),
            parent: Vec::new(),
            index: SuperGraph::assemble(0, Vec::new(), Vec::new(), Vec::new()),
        };
        idx.trussness = idx.recompute_trussness();
        idx.grow_parent();
        let levels: BTreeSet<u32> = idx.trussness.iter().copied().filter(|&t| t >= 3).collect();
        idx.rebuild(&levels);
        idx
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

    /// Inserts `{u, v}` and maintains the index. Returns `None` if the edge
    /// already exists (no change).
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Option<UpdateStats> {
        let e = self.graph.insert_edge(u, v)?;
        self.grow_parent();
        let old_tau = std::mem::take(&mut self.trussness);
        self.trussness = self.recompute_trussness();
        // New triangles all contain e: connectivity changes only at levels
        // ≤ τ_new(e), plus membership/filter crossings of changed edges.
        let mut affected = self.crossed_levels(&old_tau);
        for k in 3..=self.trussness[e as usize] {
            affected.insert(k);
        }
        Some(self.apply(affected, &old_tau))
    }

    /// Removes `{u, v}` and maintains the index. Returns `None` if the edge
    /// was absent.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> Option<UpdateStats> {
        let e = self.graph.edge_id(u, v)?;
        let tau_e_old = self.trussness[e as usize];
        self.graph.remove_edge(u, v);
        let old_tau = std::mem::take(&mut self.trussness);
        self.trussness = self.recompute_trussness();
        // Destroyed triangles all contained e: levels ≤ τ_old(e).
        let mut affected = self.crossed_levels(&old_tau);
        for k in 3..=tau_e_old {
            affected.insert(k);
        }
        Some(self.apply(affected, &old_tau))
    }

    // ---- internals ---------------------------------------------------------

    /// Full trussness recomputation mapped back onto stable ids. (τ is the
    /// *input* dictionary of index construction; see crate docs.)
    fn recompute_trussness(&self) -> Vec<u32> {
        let (indexed, map) = self.graph.to_indexed();
        let d = et_truss::decompose_parallel(&indexed);
        let mut tau = vec![0u32; self.graph.edge_capacity()];
        for (csr_eid, &stable) in map.iter().enumerate() {
            tau[stable as usize] = d.trussness[csr_eid];
        }
        tau
    }

    fn grow_parent(&mut self) {
        while self.parent.len() < self.graph.edge_capacity() {
            // The id space is guarded at insertion (`DynamicGraph` refuses
            // ids reaching u32::MAX), so this conversion cannot truncate —
            // keep it checked so a future capacity change fails loudly.
            let id = u32::try_from(self.parent.len())
                .expect("edge id space exceeds u32 (guarded by DynamicGraph)");
            self.parent.push(AtomicU32::new(id));
        }
    }

    /// Levels at which some edge's membership or ≥-filter eligibility
    /// changed between `old` and the current trussness.
    fn crossed_levels(&self, old: &[u32]) -> BTreeSet<u32> {
        let mut levels = BTreeSet::new();
        for e in 0..self.trussness.len() {
            let a = old.get(e).copied().unwrap_or(0);
            let b = self.trussness[e];
            if a == b {
                continue;
            }
            for k in [a, b] {
                if k >= 3 {
                    levels.insert(k);
                }
            }
            let (lo, hi) = (a.min(b), a.max(b));
            for k in (lo + 1).max(3)..=hi {
                levels.insert(k);
            }
        }
        levels
    }

    fn apply(&mut self, affected: BTreeSet<u32>, old_tau: &[u32]) -> UpdateStats {
        let tau_changes = (0..self.trussness.len())
            .filter(|&e| old_tau.get(e).copied().unwrap_or(0) != self.trussness[e])
            .count();
        self.rebuild(&affected);
        let all_levels: BTreeSet<u32> =
            self.trussness.iter().copied().filter(|&t| t >= 3).collect();
        UpdateStats {
            rebuilt_levels: affected.iter().copied().filter(|k| *k >= 3).collect(),
            reused_levels: all_levels.difference(&affected).copied().collect(),
            tau_changes,
        }
    }

    /// Re-runs SpNode for the affected levels only — dispatched as one
    /// parallel wave, like the static pipeline's wave schedule — then
    /// SpEdge / SmGraph / SpNodeRemap over everything (cheap relative to
    /// SpNode, Fig. 4).
    fn rebuild(&mut self, affected: &BTreeSet<u32>) {
        let phi = PhiGroups::build(&self.trussness);

        // Reset Π for every affected group, then run their SpNode kernels
        // concurrently: Φ_k groups are mutually independent (hooking only
        // links same-k edges), so one wave suffices.
        let groups: Vec<(u32, &[EdgeId])> =
            phi.iter().filter(|(k, _)| affected.contains(k)).collect();
        for &(_, group) in &groups {
            for &e in group {
                self.parent[e as usize].store(e, Ordering::Relaxed);
            }
        }
        let parent = &self.parent;
        let tau = &self.trussness;
        let graph = &self.graph;
        groups.par_iter().for_each(|&(k, group)| {
            let view = DynTriangleView {
                graph,
                trussness: tau,
                k,
            };
            // C-Optimal policies: Π-equality skip, SV hooking/shortcut.
            sv_edge_components(&view, group, parent, SvPolicy { skip_equal: true });
        });

        // Superedges from scratch (they reference Π roots of many levels),
        // through the shared Algorithm 3 kernel over dynamic adjacency.
        let mut subsets: Vec<Vec<RootPair>> = Vec::new();
        for (k, group) in phi.iter() {
            spedge_group_with(
                &|e, f: &mut dyn FnMut(EdgeId, EdgeId)| {
                    graph.for_each_triangle_of_edge(e, |_, e1, e2| f(e1, e2));
                },
                tau,
                k,
                group,
                parent,
                &mut subsets,
            );
        }
        let partitions = rayon::current_num_threads().min(subsets.len()).max(1);
        let merged = merge_supergraph(&subsets, partitions);
        self.index = remap_and_assemble(self.graph.edge_capacity(), &self.parent, &merged, &phi);
    }
}

/// [`TriangleAdjacency`] over the dynamic hash-set adjacency: yields the
/// same-trussness triangle partners of an edge, restricted to triangles
/// inside the maximal k-truss — the dynamic analog of
/// `et_core::engine::CsrTriangleView`.
struct DynTriangleView<'a> {
    graph: &'a DynamicGraph,
    trussness: &'a [u32],
    k: u32,
}

impl TriangleAdjacency for DynTriangleView<'_> {
    fn try_for_each_partner<F>(&self, e: u32, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(u32) -> ControlFlow<()>,
    {
        self.graph.try_for_each_triangle_of_edge(e, |_, e1, e2| {
            same_k_partners(self.trussness, self.k, e1, e2, &mut f)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_graph::EdgeIndexedGraph;

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

    fn assert_matches_static(di: &DynamicIndex, label: &str) {
        let (indexed, _map) = di.graph().to_indexed();
        let d = et_truss::decompose_parallel(&indexed);
        let fresh = et_core::build_original(&indexed, &d.trussness);
        let a = canonical_by_endpoints(di.index(), |e| di.graph().endpoints(e));
        let b = canonical_by_endpoints(&fresh, |e| indexed.endpoints(e));
        assert_eq!(a, b, "{label}");
    }

    fn dyn_from_static(g: et_graph::CsrGraph) -> DynamicIndex {
        DynamicIndex::build(DynamicGraph::from_indexed(&EdgeIndexedGraph::new(g)))
    }

    /// Breaking the dynamic view's enumeration visits exactly a prefix of
    /// what `for_each_partner` yields, and the view agrees with the static
    /// `CsrTriangleView` partner for partner.
    #[test]
    fn dyn_view_breaks_on_a_prefix_of_the_static_sequence() {
        let base = EdgeIndexedGraph::new(et_gen::overlapping_cliques(120, 25, (3, 7), 40, 3));
        let tau = et_truss::decompose_parallel(&base).trussness;
        let graph = DynamicGraph::from_indexed(&base);
        let rows = et_graph::RowView::of(&base);
        for e in 0..base.num_edges() as u32 {
            let k = tau[e as usize];
            if k < 3 {
                continue;
            }
            let view = DynTriangleView {
                graph: &graph,
                trussness: &tau,
                k,
            };
            let mut all = Vec::new();
            view.for_each_partner(e, |p| all.push(p));
            let mut stat = Vec::new();
            et_core::engine::CsrTriangleView::new(&rows, &tau, k)
                .for_each_partner(e, |p| stat.push(p));
            assert_eq!(all, stat, "edge {e}");
            for stop in 1..=all.len() {
                let mut seen = Vec::new();
                let flow = view.try_for_each_partner(e, |p| {
                    seen.push(p);
                    if seen.len() == stop {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert!(flow.is_break(), "edge {e} stop {stop}");
                assert_eq!(seen, all[..stop], "edge {e} stop {stop}");
            }
        }
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
            if step % 5 == 0 {
                assert_matches_static(&di, &format!("churn step {step}"));
            }
        }
        assert_matches_static(&di, "final churn state");
    }

    #[test]
    fn untouched_levels_are_reused() {
        // Two far-apart structures: a K6 (levels up to 6) and a separate
        // triangle. Adding an edge to the triangle must not rebuild the K6's
        // levels 5..6 groups.
        let mut b = et_graph::GraphBuilder::new(12);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(6, 7);
        b.add_edge(7, 8);
        b.add_edge(6, 8);
        let mut di = dyn_from_static(b.build());
        // New pendant triangle vertex: creates trussness-3 structure only.
        let s1 = di.insert_edge(6, 9).unwrap();
        assert!(s1.rebuilt_levels.iter().all(|&k| k <= 3));
        let s2 = di.insert_edge(9, 7).unwrap(); // closes triangle (6,7,9)
        assert!(
            s2.rebuilt_levels.iter().all(|&k| k <= 3),
            "rebuilt {:?}",
            s2.rebuilt_levels
        );
        assert!(s2.reused_levels.contains(&6), "K6 level must be reused");
        assert_matches_static(&di, "after pendant triangle");
    }

    #[test]
    fn queries_work_on_dynamic_index() {
        let mut g = DynamicGraph::from_indexed(&EdgeIndexedGraph::new(
            et_gen::fixtures::clique(4).graph.clone(),
        ));
        g.ensure_vertices(5);
        let mut di = DynamicIndex::build(g);
        // Grow the K4 to K5 one edge at a time; community should follow.
        for v in 0..4u32 {
            di.insert_edge(v, 4);
        }
        let (indexed, map) = di.graph().to_indexed();
        // Map the dynamic index members onto the static view for querying:
        // simpler — rebuild supernode lookup through endpoints.
        let d = et_truss::decompose_parallel(&indexed);
        assert_eq!(d.max_trussness, 5);
        assert_eq!(di.index().num_supernodes(), 1);
        assert_eq!(di.index().members(0).len(), 10);
        let _ = map;
    }
}
