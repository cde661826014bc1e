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
//!   to the adjacency list (§3.3). Afforest shares this layout.
//!
//! [`spnode_group`] is the variant dispatcher the pipeline schedules — under
//! either the sequential per-k loop or the wave scheduler.

use crate::baseline::EdgeDict;
use crate::pipeline::Variant;
use et_cc::engine::TriangleAdjacency;
use et_graph::{EdgeId, EdgeIndexedGraph, VertexId};
use et_triangle::intersect::merge_intersect_into;
use et_triangle::try_for_each_triangle_of_edge;
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
pub fn same_k_partners(
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
pub struct CsrTriangleView<'a> {
    graph: &'a EdgeIndexedGraph,
    trussness: &'a [u32],
    k: u32,
}

impl<'a> CsrTriangleView<'a> {
    /// A view of the Φ_k edge-induced graph over the CSR arc-eid arrays.
    pub fn new(graph: &'a EdgeIndexedGraph, trussness: &'a [u32], k: u32) -> Self {
        CsrTriangleView {
            graph,
            trussness,
            k,
        }
    }
}

impl TriangleAdjacency for CsrTriangleView<'_> {
    fn try_for_each_partner<F>(&self, e: u32, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(u32) -> ControlFlow<()>,
    {
        try_for_each_triangle_of_edge(self.graph, e, |_, e1, e2| {
            same_k_partners(self.trussness, self.k, e1, e2, &mut f)
        })
    }
}

/// Runs supernode construction for one Φ_k group with the chosen variant's
/// policies (`dict` must be `Some` for [`Variant::Baseline`]).
pub fn spnode_group(
    graph: &EdgeIndexedGraph,
    dict: Option<&EdgeDict>,
    trussness: &[u32],
    k: u32,
    phi_k: &[EdgeId],
    parent: &[AtomicU32],
    variant: Variant,
) {
    match variant {
        Variant::Baseline => {
            let dict = dict.expect("dictionary built for Baseline");
            crate::baseline::spnode_group_baseline(graph, dict, trussness, k, phi_k, parent);
        }
        Variant::COptimal => {
            crate::coptimal::spnode_group_coptimal(graph, trussness, k, phi_k, parent);
        }
        Variant::Afforest => crate::afforest::spnode_group_afforest(
            graph,
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
            let kmax = tau.iter().copied().max().unwrap_or(0);
            for k in 3..=kmax {
                let dv = DictTriangleView::new(&eg, &dict, &tau, k);
                let cv = CsrTriangleView::new(&eg, &tau, k);
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

    /// Breaks `view`'s enumeration of `e` after 1, 2, 3, half and all of its
    /// partners; each time exactly that prefix of `for_each_partner`'s
    /// sequence must have been visited. Returns the partner count.
    fn assert_breaks_visit_prefixes<V: TriangleAdjacency>(view: &V, e: u32) -> usize {
        let mut all = Vec::new();
        view.for_each_partner(e, |p| all.push(p));
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
        all.len()
    }

    /// Both views, on edges whose endpoint degrees sit on either side of
    /// `GALLOP_RATIO` (so the merge and the gallop kernels both run), with
    /// the SIMD kernels off and — in a `--features simd` build — on.
    #[test]
    fn breaking_visits_a_prefix_on_merge_and_gallop_sides() {
        use et_triangle::intersect::GALLOP_RATIO;
        // A K5 on {0..4} whose vertex 0 is also a 200-spoke hub: the clique
        // edges at 0 intersect a 200-list with a 4-list (gallop), the others
        // two 4-lists (merge); every clique edge has six same-k partners.
        let mut b = et_graph::GraphBuilder::new(201);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v);
            }
        }
        for v in 5..=200u32 {
            b.add_edge(0, v);
        }
        let eg = EdgeIndexedGraph::new(b.build());
        let tau = decompose_serial(&eg).trussness;
        let dict = EdgeDict::build(&eg);
        for simd_on in [false, true] {
            et_triangle::set_simd_enabled(simd_on);
            let (mut merged, mut galloped) = (0usize, 0usize);
            for e in (0..eg.num_edges() as u32).filter(|&e| tau[e as usize] >= 3) {
                let k = tau[e as usize];
                let cv = CsrTriangleView::new(&eg, &tau, k);
                let dv = DictTriangleView::new(&eg, &dict, &tau, k);
                assert_eq!(assert_breaks_visit_prefixes(&cv, e), 6);
                assert_eq!(assert_breaks_visit_prefixes(&dv, e), 6);
                let (u, v) = eg.endpoints(e);
                let (du, dv) = (eg.degree(u), eg.degree(v));
                if du.max(dv) / du.min(dv) >= GALLOP_RATIO {
                    galloped += 1;
                } else {
                    merged += 1;
                }
            }
            assert_eq!((merged, galloped), (6, 4));
        }
        et_triangle::set_simd_enabled(true);
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
            for (k, group) in phi.iter() {
                spnode_group(&eg, Some(&dict), &tau, k, group, &a, variant);
                spnode_group(&eg, Some(&dict), &tau, k, group, &b, variant);
            }
            let la: Vec<u32> = a.iter().map(|x| x.load(Ordering::Relaxed)).collect();
            let lb: Vec<u32> = b.iter().map(|x| x.load(Ordering::Relaxed)).collect();
            assert!(et_cc::same_partition(&la, &lb), "{}", variant.name());
        }
    }
}
