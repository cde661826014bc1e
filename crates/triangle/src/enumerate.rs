//! Per-edge triangle enumeration with edge ids.
//!
//! SpNode hooking (Algorithm 2, ln. 11-14) and SpEdge creation (Algorithm 3)
//! both need, for an edge `e = (u, v)`, the list of common neighbors `w`
//! *together with the edge ids* of `(u, w)` and `(v, w)`. The C-Optimal
//! variant gets those ids for free by merging the two CSR rows and their
//! aligned per-arc edge-id arrays in lockstep — this module is that kernel.

use et_graph::{EdgeId, EdgeIndexedGraph, RowView, VertexId};
use std::ops::ControlFlow;

/// Invokes `f(w, e1, e2)` for every triangle `{e, (u,w), (v,w)}` of edge
/// `e = (u, v)` whose arcs are all in `rows`, where `e1 = id(u, w)` and
/// `e2 = id(v, w)`, in ascending `w` order until `f` breaks: the triangles
/// seen before a break are a prefix of the unbroken enumeration. Over a
/// filtered view that is the parent view's sequence with the triangles
/// touching a dropped edge removed.
///
/// Cost: one adaptive intersection of the two rows — merge or gallop, scalar
/// or vector, per [`crate::intersect::try_intersect_matches`]; no
/// hashing, no per-match binary search; the per-arc edge ids ride along via
/// the reported index pairs.
#[inline]
pub fn try_for_each_triangle_in_rows<F>(rows: &RowView<'_>, e: EdgeId, mut f: F) -> ControlFlow<()>
where
    F: FnMut(VertexId, EdgeId, EdgeId) -> ControlFlow<()>,
{
    let (u, v) = rows.endpoints(e);
    let (nu, eu) = rows.row(u);
    let (nv, ev) = rows.row(v);
    crate::intersect::try_intersect_matches(nu, nv, |i, j| f(nu[i], eu[i], ev[j]))
}

/// [`try_for_each_triangle_in_rows`] over the graph's own rows: every
/// triangle containing edge `e`.
#[inline]
pub fn try_for_each_triangle_of_edge<F>(
    graph: &EdgeIndexedGraph,
    e: EdgeId,
    f: F,
) -> ControlFlow<()>
where
    F: FnMut(VertexId, EdgeId, EdgeId) -> ControlFlow<()>,
{
    try_for_each_triangle_in_rows(&RowView::of(graph), e, f)
}

/// [`try_for_each_triangle_of_edge`] to exhaustion.
#[inline]
pub fn for_each_triangle_of_edge<F>(graph: &EdgeIndexedGraph, e: EdgeId, mut f: F)
where
    F: FnMut(VertexId, EdgeId, EdgeId),
{
    let _ = try_for_each_triangle_of_edge(graph, e, |w, e1, e2| {
        f(w, e1, e2);
        ControlFlow::Continue(())
    });
}

/// Invokes `f(w, e1, e2)` for the triangles edge `e = (u, v)`, `u < v`, is
/// the *pivot* of: those whose third vertex `w` exceeds `v`, with
/// `e1 = id(u, w)` and `e2 = id(v, w)`. A triangle `u < v < w` has exactly one
/// pivot — its edge between the two smallest vertices — so running this over
/// every edge visits every triangle once, with all three edge ids in hand.
///
/// Only the suffixes of `N(u)` and `N(v)` above `v` are intersected (two
/// binary searches find them), so the merge is strictly shorter than
/// [`for_each_triangle_of_edge`]'s full-list intersection and needs nothing
/// beyond the id-ordered CSR.
#[inline]
pub fn for_each_pivot_triangle_of_edge<F>(graph: &EdgeIndexedGraph, e: EdgeId, mut f: F)
where
    F: FnMut(VertexId, EdgeId, EdgeId),
{
    let (u, v) = graph.endpoints(e);
    let (nu, nv) = (graph.neighbors(u), graph.neighbors(v));
    let su = nu.partition_point(|&x| x <= v);
    let sv = nv.partition_point(|&x| x <= v);
    let (nu, nv) = (&nu[su..], &nv[sv..]);
    let eu = &graph.arc_eids(u)[su..];
    let ev = &graph.arc_eids(v)[sv..];
    crate::intersect::intersect_matches(nu, nv, |i, j| f(nu[i], eu[i], ev[j]));
}

/// Trussness-filtered triangle enumeration: invokes `f` only for triangles
/// whose other two edges both have trussness ≥ `k` — i.e. triangles lying in
/// the maximal k-truss, the building block of k-triangle connectivity
/// (Definition 6; the `τ(u,w) ≥ k ∧ τ(v,w) ≥ k` test of Algorithm 1 ln. 21).
#[inline]
pub fn for_each_truss_triangle_of_edge<F>(
    graph: &EdgeIndexedGraph,
    trussness: &[u32],
    k: u32,
    e: EdgeId,
    mut f: F,
) where
    F: FnMut(VertexId, EdgeId, EdgeId),
{
    for_each_triangle_of_edge(graph, e, |w, e1, e2| {
        if trussness[e1 as usize] >= k && trussness[e2 as usize] >= k {
            f(w, e1, e2);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_graph::{EdgeIndexedGraph, GraphBuilder};

    fn k4() -> EdgeIndexedGraph {
        EdgeIndexedGraph::new(
            GraphBuilder::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).build(),
        )
    }

    #[test]
    fn enumerates_all_triangles_of_edge() {
        let g = k4();
        let e = g.edge_id(0, 1).unwrap();
        let mut seen = Vec::new();
        for_each_triangle_of_edge(&g, e, |w, e1, e2| {
            seen.push((w, e1, e2));
        });
        // Edge (0,1) in K4 is in triangles with w = 2 and w = 3.
        assert_eq!(seen.len(), 2);
        let ws: Vec<_> = seen.iter().map(|&(w, _, _)| w).collect();
        assert_eq!(ws, vec![2, 3]);
        for &(w, e1, e2) in &seen {
            assert_eq!(g.endpoints(e1), (0, w));
            assert_eq!(g.endpoints(e2), (1.min(w), 1.max(w)));
        }
    }

    #[test]
    fn matches_support_everywhere() {
        let g = EdgeIndexedGraph::new(et_gen::gnm(70, 500, 33));
        let support = crate::support::compute_support(&g);
        for e in 0..g.num_edges() as EdgeId {
            let mut c = 0;
            for_each_triangle_of_edge(&g, e, |_, _, _| c += 1);
            assert_eq!(c, support[e as usize], "edge {e}");
        }
    }

    #[test]
    fn breaking_visits_a_prefix() {
        let g = EdgeIndexedGraph::new(et_gen::gnm(70, 500, 33));
        for e in 0..g.num_edges() as EdgeId {
            let mut all = Vec::new();
            for_each_triangle_of_edge(&g, e, |w, e1, e2| all.push((w, e1, e2)));
            for stop in 1..=all.len() {
                let mut seen = Vec::new();
                let flow = try_for_each_triangle_of_edge(&g, e, |w, e1, e2| {
                    seen.push((w, e1, e2));
                    if seen.len() == stop {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert!(flow.is_break());
                assert_eq!(seen, all[..stop], "edge {e} stop {stop}");
            }
        }
    }

    /// A repeatable pseudo-random edge predicate keeping about `keep_pct` %.
    fn keeps(seed: u64, keep_pct: u64) -> impl Fn(EdgeId) -> bool + Sync {
        move |e| {
            // SplitMix64 finaliser over (seed, e).
            let mut x = (seed << 32 | u64::from(e)).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (x ^ (x >> 31)) % 100 < keep_pct
        }
    }

    /// Every triangle of `e = (u, v)` as `(w, id(u, w), id(v, w))` in
    /// ascending `w`, found by probing every vertex: no intersection kernel.
    fn brute_force_triangles(g: &EdgeIndexedGraph, e: EdgeId) -> Vec<(VertexId, EdgeId, EdgeId)> {
        let (u, v) = g.endpoints(e);
        (0..g.num_vertices() as VertexId)
            .filter_map(|w| Some((w, g.edge_id(u, w)?, g.edge_id(v, w)?)))
            .collect()
    }

    /// Over random graphs and random edge predicates, a filtered view
    /// enumerates, for every edge, the brute-force triangles minus those
    /// touching a dropped edge, in the same order; breaking after 1, 2 and
    /// half of them visits exactly that prefix; and a view filtered from a
    /// view is the view filtered from the graph. The grid keeps every row
    /// below the vector cutoff, the dense G(n, m) puts both rows of most
    /// edges above it, the R-MAT hubs add the lopsided pairs.
    #[test]
    fn filtered_rows_enumerate_the_surviving_triangles_in_order() {
        use crate::intersect::SIMD_MIN_LEN;
        let graphs = [
            et_gen::gnm(70, 500, 33),
            et_gen::gnm(40, 600, 5),
            et_gen::rmat_small(8, 8, 5),
            et_gen::overlapping_cliques(120, 25, (3, 7), 40, 3),
            et_gen::triangulated_grid(9),
        ];
        let shorter_row = |g: &EdgeIndexedGraph, e: EdgeId| {
            let (u, v) = g.endpoints(e);
            g.degree(u).min(g.degree(v))
        };
        for (seed, g) in graphs.iter().enumerate() {
            let g = EdgeIndexedGraph::new(g.clone());
            let edges = 0..g.num_edges() as EdgeId;
            match seed {
                1 => assert!(edges.clone().any(|e| shorter_row(&g, e) >= SIMD_MIN_LEN)),
                4 => assert!(edges.clone().all(|e| shorter_row(&g, e) < SIMD_MIN_LEN)),
                _ => {}
            }
            let graph_rows = RowView::of(&g);
            for keep_pct in [0, 30, 75, 100] {
                let keep = keeps(seed as u64, keep_pct);
                let coarse = keeps(seed as u64 + 100, 80);
                let live = graph_rows.filtered(&keep);
                let via_view = graph_rows.filtered(&coarse).filtered(&keep);
                let direct = graph_rows.filtered(|e| coarse(e) && keep(e));
                for e in edges.clone() {
                    let mut expect = brute_force_triangles(&g, e);
                    expect.retain(|&(_, e1, e2)| keep(e1) && keep(e2));
                    let collect = |rows: &RowView<'_>, stop: usize| {
                        let mut seen = Vec::new();
                        let flow = try_for_each_triangle_in_rows(rows, e, |w, e1, e2| {
                            seen.push((w, e1, e2));
                            if seen.len() == stop {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        });
                        (seen, flow)
                    };
                    let (all, flow) = collect(&live, usize::MAX);
                    assert!(flow.is_continue());
                    assert_eq!(all, expect, "seed {seed} keep {keep_pct} edge {e}");
                    for stop in [1, 2, all.len() / 2] {
                        if stop == 0 || stop > all.len() {
                            continue;
                        }
                        let (seen, flow) = collect(&live, stop);
                        assert!(flow.is_break());
                        assert_eq!(seen, all[..stop], "edge {e} stop {stop}");
                    }
                    assert_eq!(
                        collect(&via_view, usize::MAX).0,
                        collect(&direct, usize::MAX).0,
                        "seed {seed} keep {keep_pct} edge {e}: view of a view"
                    );
                }
            }
        }
    }

    #[test]
    fn pivot_enumeration_sees_every_triangle_once() {
        for g in [
            et_gen::gnm(70, 500, 33),
            et_gen::rmat_small(8, 8, 5),
            et_gen::overlapping_cliques(120, 25, (3, 7), 40, 3),
        ] {
            let g = EdgeIndexedGraph::new(g);
            // Every (edge, triangle) incidence, from the per-edge enumeration…
            let mut per_edge = Vec::new();
            for e in 0..g.num_edges() as EdgeId {
                for_each_triangle_of_edge(&g, e, |_, e1, e2| {
                    let mut t = [e, e1, e2];
                    t.sort_unstable();
                    per_edge.push(t);
                });
            }
            per_edge.sort_unstable();
            // …is each pivot triangle three times over.
            let mut pivots = Vec::new();
            for e in 0..g.num_edges() as EdgeId {
                let (u, v) = g.endpoints(e);
                for_each_pivot_triangle_of_edge(&g, e, |w, e1, e2| {
                    assert!(u < v && v < w);
                    assert_eq!(g.endpoints(e1), (u, w));
                    assert_eq!(g.endpoints(e2), (v, w));
                    let mut t = [e, e1, e2];
                    t.sort_unstable();
                    pivots.push(t);
                });
            }
            pivots.sort_unstable();
            assert_eq!(pivots.len() as u64, crate::count::count_triangles(&g));
            let thrice: Vec<[EdgeId; 3]> = pivots.iter().flat_map(|&t| [t, t, t]).collect();
            assert_eq!(thrice, per_edge);
        }
    }

    #[test]
    fn truss_filter_applies() {
        let g = k4();
        let e = g.edge_id(0, 1).unwrap();
        // Give edges touching vertex 3 trussness 3, everything else 4.
        let tau: Vec<u32> = (0..g.num_edges() as EdgeId)
            .map(|e| {
                let (u, v) = g.endpoints(e);
                if u == 3 || v == 3 {
                    3
                } else {
                    4
                }
            })
            .collect();
        let mut seen = Vec::new();
        for_each_truss_triangle_of_edge(&g, &tau, 4, e, |w, _, _| seen.push(w));
        assert_eq!(seen, vec![2]); // triangle through 3 is filtered out

        seen.clear();
        for_each_truss_triangle_of_edge(&g, &tau, 3, e, |w, _, _| seen.push(w));
        assert_eq!(seen, vec![2, 3]); // at k=3 both qualify
    }

    #[test]
    fn no_triangles_on_path() {
        let g = EdgeIndexedGraph::new(GraphBuilder::from_edges(3, &[(0, 1), (1, 2)]).build());
        let mut c = 0;
        for_each_triangle_of_edge(&g, 0, |_, _, _| c += 1);
        assert_eq!(c, 0);
    }
}
