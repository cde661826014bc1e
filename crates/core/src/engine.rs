//! [`TriangleAdjacency`] views over [`EdgeIndexedGraph`] — the per-variant
//! *edge-id resolution policies* of the shared edge-CC engine.
//!
//! The engine itself (SV hooking/shortcut, Afforest link/sample/finish)
//! lives in [`et_cc::engine`]; this module supplies the two ways the paper's
//! variants find "the other two edges of a triangle through e":
//!
//! * [`DictTriangleView`] — the Baseline's **global edge dictionary**: raw
//!   neighbor-list intersection, then one binary search over all m edges per
//!   triangle edge (the deliberately kept inefficiency of Algorithm 2);
//! * [`CsrTriangleView`] — C-Optimal's **per-arc CSR edge-id arrays**: ids
//!   ride along the neighborhood merge for free, reducing the search space
//!   to the adjacency list (§3.3). Afforest shares this layout. Its rows are
//!   a [`RowView`]; [`TrussRowViews`] hands each Φ_k group rows filtered to
//!   the edges that can still form a k-triangle.
//!
//! [`spnode_group`] is the variant dispatcher the pipeline's SpNode wave
//! runs once per Φ_k group.

use crate::baseline::EdgeDict;
use crate::pipeline::Variant;
use et_cc::engine::TriangleAdjacency;
use et_graph::{EdgeId, EdgeIndexedGraph, RowView, VertexId};
use et_triangle::intersect::merge_intersect_into;
use et_triangle::try_for_each_triangle_in_rows;
use std::cell::RefCell;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicU32;

/// Baseline edge-id resolution: intersect the raw neighbor lists of `e`'s
/// endpoints, then resolve each triangle edge with a global dictionary
/// binary search, filtering to the maximal k-truss afterwards.
pub struct DictTriangleView<'a> {
    graph: &'a EdgeIndexedGraph,
    dict: &'a EdgeDict,
    trussness: &'a [u32],
    k: u32,
}

impl<'a> DictTriangleView<'a> {
    /// A view of the Φ_k edge-induced graph through `dict`.
    pub fn new(
        graph: &'a EdgeIndexedGraph,
        dict: &'a EdgeDict,
        trussness: &'a [u32],
        k: u32,
    ) -> Self {
        DictTriangleView {
            graph,
            dict,
            trussness,
            k,
        }
    }
}

thread_local! {
    /// Common-neighbor scratch, reused across edges on each worker thread
    /// (the `W` list of Algorithm 2 ln. 11).
    static COMMON: RefCell<Vec<VertexId>> = const { RefCell::new(Vec::new()) };
}

impl TriangleAdjacency for DictTriangleView<'_> {
    fn try_for_each_partner<F>(&self, e: u32, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(u32) -> ControlFlow<()>,
    {
        let (u, v) = self.graph.endpoints(e);
        COMMON.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            ws.clear();
            merge_intersect_into(self.graph.neighbors(u), self.graph.neighbors(v), ws);
            for &w in ws.iter() {
                let e1 = self.dict.lookup(u, w).expect("triangle edge must exist");
                let e2 = self.dict.lookup(v, w).expect("triangle edge must exist");
                same_k_partners(self.trussness, self.k, e1, e2, &mut f)?;
            }
            ControlFlow::Continue(())
        })
    }
}

/// Yields the edges of `{e1, e2}` that are same-k partners through this
/// triangle: none unless the triangle lies inside the k-truss, then each
/// of the two with trussness exactly `k`, `e1` first.
#[inline]
fn same_k_partners(
    trussness: &[u32],
    k: u32,
    e1: EdgeId,
    e2: EdgeId,
    f: &mut impl FnMut(u32) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (k1, k2) = (trussness[e1 as usize], trussness[e2 as usize]);
    if k1 < k || k2 < k {
        return ControlFlow::Continue(()); // triangle not inside the k-truss
    }
    if k1 == k {
        f(e1)?;
    }
    if k2 == k {
        f(e2)?;
    }
    ControlFlow::Continue(())
}

/// C-Optimal edge-id resolution: the trussness-filtered triangle enumeration
/// whose edge ids come from the per-arc CSR arrays in lockstep with the
/// neighborhood merge.
///
/// `rows` may be the graph's rows or any view filtered to `τ ≥ t` with
/// `t ≤ k`: `same_k_partners` rejects every triangle with an edge below
/// `k`, so the arcs such a view drops never contributed a partner and the
/// partner sequence of every edge is the same over either.
pub struct CsrTriangleView<'a> {
    rows: &'a RowView<'a>,
    trussness: &'a [u32],
    k: u32,
}

impl<'a> CsrTriangleView<'a> {
    /// A view of the Φ_k edge-induced graph over the arc-eid arrays of `rows`.
    pub fn new(rows: &'a RowView<'a>, trussness: &'a [u32], k: u32) -> Self {
        CsrTriangleView { rows, trussness, k }
    }
}

impl TriangleAdjacency for CsrTriangleView<'_> {
    fn try_for_each_partner<F>(&self, e: u32, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(u32) -> ControlFlow<()>,
    {
        try_for_each_triangle_in_rows(self.rows, e, |_, e1, e2| {
            same_k_partners(self.trussness, self.k, e1, e2, &mut f)
        })
    }
}

/// A new τ ≥ k view is built once 1/this of the edges the newest view kept
/// lie below `k`: each view is at most ¾ of the one before, so all of them
/// together copy less than 4× the CSR. Swept on `social-build`
/// (EXPERIMENTS.md "PR 14"): `core.spnode_ms` 65 at ½, 57 at ¼, 61 at ⅛.
const VIEW_SHRINK_DEN: usize = 4;

/// The row views SpNode's Φ_k groups read, for ascending `k`: the graph's
/// rows first, then one view filtered to `τ ≥ k` each time the edges at or
/// above `k` have shrunk by a quarter since the newest view. A group reads
/// the newest view whose threshold is at most its `k`
/// ([`CsrTriangleView`] says why that changes no partner sequence). A graph
/// with one group keeps the graph's rows only.
pub struct TrussRowViews<'a> {
    graph: &'a EdgeIndexedGraph,
    trussness: &'a [u32],
    /// `(threshold, rows)` in ascending threshold; entry 0 is `(0, graph rows)`.
    views: Vec<(u32, RowView<'a>)>,
    /// Edges the newest view keeps.
    newest_alive: usize,
    /// Edges with trussness at or above the next `k` to be offered.
    alive: usize,
}

impl<'a> TrussRowViews<'a> {
    /// The graph's rows alone; [`TrussRowViews::advance`] adds the rest.
    /// `indexed` is the number of edges in all Φ_k groups together.
    pub fn new(graph: &'a EdgeIndexedGraph, trussness: &'a [u32], indexed: usize) -> Self {
        TrussRowViews {
            graph,
            trussness,
            views: vec![(0, RowView::of(graph))],
            newest_alive: graph.num_edges(),
            alive: indexed,
        }
    }

    /// Offers the next non-empty group, in ascending `k`, before it runs:
    /// builds the `τ ≥ k` view when enough of the newest view lies below `k`.
    pub fn advance(&mut self, k: u32, group_len: usize) {
        let alive = self.alive;
        self.alive -= group_len;
        if (self.newest_alive - alive) * VIEW_SHRINK_DEN < self.newest_alive {
            return;
        }
        let _span = et_obs::span("SpNodeViews").arg("k", u64::from(k));
        let tau = self.trussness;
        let (_, newest) = self.views.last().expect("entry 0 is never removed");
        let view = newest.filtered(|e| tau[e as usize] >= k);
        et_obs::counter_add("spnode.views", 1);
        et_obs::record_value("spnode.view_arcs", view.num_arcs() as u64);
        self.views.push((k, view));
        self.newest_alive = alive;
    }

    /// The graph the views filter.
    pub fn graph(&self) -> &'a EdgeIndexedGraph {
        self.graph
    }

    /// The trussness the views filter by.
    pub fn trussness(&self) -> &'a [u32] {
        self.trussness
    }

    /// Filtered views built so far.
    pub fn built(&self) -> usize {
        self.views.len() - 1
    }

    /// The rows group `k` reads: the newest view with threshold ≤ `k`.
    pub fn for_k(&self, k: u32) -> &RowView<'a> {
        let newer = self.views.partition_point(|&(threshold, _)| threshold <= k);
        &self.views[newer - 1].1
    }
}

/// Runs supernode construction for one Φ_k group with the chosen variant's
/// policies (`dict` must be `Some` for [`Variant::Baseline`], which reads the
/// graph's rows through it; the CSR variants read `rows.for_k(k)`).
pub fn spnode_group(
    rows: &TrussRowViews<'_>,
    dict: Option<&EdgeDict>,
    k: u32,
    phi_k: &[EdgeId],
    parent: &[AtomicU32],
    variant: Variant,
) {
    let trussness = rows.trussness();
    match variant {
        Variant::Baseline => {
            let dict = dict.expect("dictionary built for Baseline");
            let graph = rows.graph();
            crate::baseline::spnode_group_baseline(graph, dict, trussness, k, phi_k, parent);
        }
        Variant::COptimal => {
            crate::coptimal::spnode_group_coptimal(rows.for_k(k), trussness, k, phi_k, parent);
        }
        Variant::Afforest => crate::afforest::spnode_group_afforest(
            rows.for_k(k),
            trussness,
            k,
            phi_k,
            parent,
            crate::afforest::AfforestSpNodeConfig::default(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_truss::decompose_serial;
    use std::sync::atomic::Ordering;

    /// Both views must yield identical partner multisets (in the same
    /// order) for every edge — the resolution policy changes *cost*, never
    /// the enumerated k-triangle adjacency.
    #[test]
    fn dict_and_csr_views_enumerate_identically() {
        for f in et_gen::fixtures::all_fixtures() {
            let eg = EdgeIndexedGraph::new(f.graph.clone());
            let tau = decompose_serial(&eg).trussness;
            let dict = EdgeDict::build(&eg);
            let rows = RowView::of(&eg);
            let kmax = tau.iter().copied().max().unwrap_or(0);
            for k in 3..=kmax {
                let dv = DictTriangleView::new(&eg, &dict, &tau, k);
                let cv = CsrTriangleView::new(&rows, &tau, k);
                for e in 0..eg.num_edges() as u32 {
                    if tau[e as usize] != k {
                        continue;
                    }
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    dv.for_each_partner(e, |p| a.push(p));
                    cv.for_each_partner(e, |p| b.push(p));
                    assert_eq!(a, b, "{}: k={k} e={e}", f.name);
                }
            }
        }
    }

    fn partners<V: TriangleAdjacency>(view: &V, e: u32) -> Vec<u32> {
        let mut all = Vec::new();
        view.for_each_partner(e, |p| all.push(p));
        all
    }

    /// Breaks `view`'s enumeration of `e` after 1, 2, 3, half and all of its
    /// partners; each time exactly that prefix of `for_each_partner`'s
    /// sequence must have been visited.
    fn assert_breaks_visit_prefixes<V: TriangleAdjacency>(view: &V, e: u32) {
        let all = partners(view, e);
        for stop in [1, 2, 3, all.len() / 2, all.len()] {
            if stop == 0 || stop > all.len() {
                continue;
            }
            let mut seen = Vec::new();
            let flow = view.try_for_each_partner(e, |p| {
                seen.push(p);
                if seen.len() == stop {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert!(flow.is_break(), "e={e} stop={stop}");
            assert_eq!(seen, all[..stop], "e={e} stop={stop}");
        }
    }

    /// The same-k partners of `e` in ascending third vertex, found by
    /// probing every vertex: no intersection kernel, no dictionary.
    fn brute_force_partners(eg: &EdgeIndexedGraph, tau: &[u32], k: u32, e: u32) -> Vec<u32> {
        let (u, v) = eg.endpoints(e);
        let mut all = Vec::new();
        for w in 0..eg.num_vertices() as VertexId {
            if let (Some(e1), Some(e2)) = (eg.edge_id(u, w), eg.edge_id(v, w)) {
                let _ = same_k_partners(tau, k, e1, e2, &mut |p| {
                    all.push(p);
                    ControlFlow::Continue(())
                });
            }
        }
        all
    }

    /// Both views — the CSR one over the graph's rows and over rows filtered
    /// to τ ≥ k — against the brute-force sequence, on edges whose endpoint
    /// degrees sit on either side of `GALLOP_RATIO` and whose shorter row
    /// sits on either side of `SIMD_MIN_LEN`, so each of the dispatcher's
    /// four kernels runs: a K_c on {0..c-1} whose vertex 0 is also a hub.
    /// The clique edges at 0 intersect the hub row with a (c-1)-list
    /// (gallop), the others two (c-1)-lists (merge); every clique edge has
    /// 2(c-2) same-k partners. A triangulated grid keeps every row short.
    #[test]
    fn breaking_visits_a_prefix_whichever_kernel_runs() {
        use et_triangle::intersect::{GALLOP_RATIO, SIMD_MIN_LEN};
        for (c, spokes) in [(5u32, 200u32), (SIMD_MIN_LEN as u32 + 4, 400)] {
            let mut b = et_graph::GraphBuilder::new((c + spokes) as usize);
            for u in 0..c {
                for v in (u + 1)..c {
                    b.add_edge(u, v);
                }
            }
            for v in c..c + spokes {
                b.add_edge(0, v);
            }
            let eg = EdgeIndexedGraph::new(b.build());
            let tau = decompose_serial(&eg).trussness;
            let dict = EdgeDict::build(&eg);
            let rows = RowView::of(&eg);
            let (mut merged, mut galloped) = (0u32, 0u32);
            // Every edge with a triangle is a clique edge: one τ ≥ c view serves all.
            let live = rows.filtered(|x| tau[x as usize] >= c);
            for e in (0..eg.num_edges() as u32).filter(|&e| tau[e as usize] >= 3) {
                let k = tau[e as usize];
                assert_eq!(k, c);
                let cv = CsrTriangleView::new(&rows, &tau, k);
                let lv = CsrTriangleView::new(&live, &tau, k);
                let dv = DictTriangleView::new(&eg, &dict, &tau, k);
                let expect = brute_force_partners(&eg, &tau, k, e);
                assert_eq!(expect.len() as u32, 2 * (c - 2));
                assert_breaks_visit_prefixes(&cv, e);
                assert_breaks_visit_prefixes(&lv, e);
                assert_breaks_visit_prefixes(&dv, e);
                assert_eq!(partners(&cv, e), expect, "c={c} e={e}");
                assert_eq!(partners(&lv, e), expect, "c={c} e={e}");
                assert_eq!(partners(&dv, e), expect, "c={c} e={e}");
                let (u, v) = eg.endpoints(e);
                let (du, dv) = (eg.degree(u), eg.degree(v));
                assert_eq!(du.min(dv) >= SIMD_MIN_LEN, c > 5);
                if du.max(dv) / du.min(dv) >= GALLOP_RATIO {
                    galloped += 1;
                } else {
                    merged += 1;
                }
            }
            assert_eq!((merged, galloped), ((c - 1) * (c - 2) / 2, c - 1));
        }

        let eg = EdgeIndexedGraph::new(et_gen::triangulated_grid(9));
        let tau = decompose_serial(&eg).trussness;
        let rows = RowView::of(&eg);
        for e in 0..eg.num_edges() as u32 {
            let (u, v) = eg.endpoints(e);
            assert!(eg.degree(u).max(eg.degree(v)) < SIMD_MIN_LEN);
            let cv = CsrTriangleView::new(&rows, &tau, tau[e as usize]);
            assert_breaks_visit_prefixes(&cv, e);
            let expect = brute_force_partners(&eg, &tau, tau[e as usize], e);
            assert_eq!(partners(&cv, e), expect, "grid e={e}");
        }
    }

    /// The dispatcher and the per-variant entry points agree.
    #[test]
    fn dispatch_matches_direct_calls() {
        let eg = EdgeIndexedGraph::new(et_gen::overlapping_cliques(120, 25, (3, 6), 50, 3));
        let tau = decompose_serial(&eg).trussness;
        let dict = EdgeDict::build(&eg);
        let phi = crate::phi::PhiGroups::build(&tau);
        for variant in Variant::ALL {
            let m = eg.num_edges() as u32;
            let a: Vec<AtomicU32> = (0..m).map(AtomicU32::new).collect();
            let b: Vec<AtomicU32> = (0..m).map(AtomicU32::new).collect();
            let rows = TrussRowViews::new(&eg, &tau, phi.indexed_edges());
            for (k, group) in phi.iter() {
                spnode_group(&rows, Some(&dict), k, group, &a, variant);
                spnode_group(&rows, Some(&dict), k, group, &b, variant);
            }
            let la: Vec<u32> = a.iter().map(|x| x.load(Ordering::Relaxed)).collect();
            let lb: Vec<u32> = b.iter().map(|x| x.load(Ordering::Relaxed)).collect();
            assert!(et_cc::same_partition(&la, &lb), "{}", variant.name());
        }
    }

    /// On every fixture and every k, each Φ_k edge has the same partner
    /// sequence over the graph's rows, over rows filtered to τ ≥ k, and over
    /// whatever view [`TrussRowViews`] hands group k.
    #[test]
    fn truss_filtered_rows_keep_every_partner_sequence() {
        for f in et_gen::fixtures::all_fixtures() {
            let eg = EdgeIndexedGraph::new(f.graph.clone());
            let tau = decompose_serial(&eg).trussness;
            let phi = crate::phi::PhiGroups::build(&tau);
            let graph_rows = RowView::of(&eg);
            let mut ladder = TrussRowViews::new(&eg, &tau, phi.indexed_edges());
            for (k, group) in phi.iter() {
                ladder.advance(k, group.len());
                let live = graph_rows.filtered(|e| tau[e as usize] >= k);
                let over_graph = CsrTriangleView::new(&graph_rows, &tau, k);
                let over_live = CsrTriangleView::new(&live, &tau, k);
                let over_ladder = CsrTriangleView::new(ladder.for_k(k), &tau, k);
                for &e in group {
                    let expect = partners(&over_graph, e);
                    assert_eq!(partners(&over_live, e), expect, "{}: k={k} e={e}", f.name);
                    assert_eq!(partners(&over_ladder, e), expect, "{}: k={k} e={e}", f.name);
                }
            }
        }
    }

    /// Nested cliques thin the groups out fast enough for several views; a
    /// group always reads the newest view at or below its k, and a
    /// single-group graph never gets one.
    #[test]
    fn row_views_follow_the_shrinking_groups() {
        let f = et_gen::fixtures::nested_cliques(16, &[(50, 2), (20, 4), (10, 8)]);
        let eg = EdgeIndexedGraph::new(f.graph);
        let tau = decompose_serial(&eg).trussness;
        let phi = crate::phi::PhiGroups::build(&tau);
        let mut ladder = TrussRowViews::new(&eg, &tau, phi.indexed_edges());
        let mut alive = phi.indexed_edges();
        for (k, group) in phi.iter() {
            ladder.advance(k, group.len());
            // The view group k reads still holds every τ ≥ k arc.
            assert!(ladder.for_k(k).num_arcs() >= 2 * alive, "k={k}");
            alive -= group.len();
        }
        assert!(ladder.built() >= 3, "built {}", ladder.built());
        assert!(!ladder.for_k(3).is_filtered());
        let kmax = phi.max_trussness();
        assert_eq!(ladder.for_k(kmax).num_arcs(), 2 * phi.phi(kmax).len());

        let eg = EdgeIndexedGraph::new(et_gen::triangulated_grid(12));
        let tau = decompose_serial(&eg).trussness;
        let phi = crate::phi::PhiGroups::build(&tau);
        let mut ladder = TrussRowViews::new(&eg, &tau, phi.indexed_edges());
        for (k, group) in phi.iter() {
            ladder.advance(k, group.len());
        }
        assert_eq!(ladder.built(), 0);
    }
}
