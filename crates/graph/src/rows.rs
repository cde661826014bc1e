//! Row views: the adjacency rows a per-edge triangle enumeration intersects.
//!
//! Every triangle of an edge `(u, v)` is found by intersecting the rows of
//! `u` and `v`. Two hot callers only ever *count* a triangle whose other two
//! edges pass a test the caller already knows — the peel drops triangles with
//! a peeled edge, SpNode drops triangles with an edge below the group's
//! trussness — so arcs of failing edges are dead weight in every later
//! intersection. A [`RowView`] is the row source both callers read: either
//! the graph's own CSR arrays, or an owned copy with the dead arcs filtered
//! out ([`RowView::filtered`]). Filtering keeps the order inside each row, so
//! an enumeration over a filtered view reports exactly the parent view's
//! triangles minus those touching a dropped edge, in the same ascending-`w`
//! order.

use crate::{schedule, EdgeId, EdgeIndexedGraph, VertexId};
use rayon::prelude::*;
use std::borrow::Cow;

/// Row-range tasks per worker of a [`RowView::filtered`] build.
const FILTER_TASKS_PER_THREAD: usize = 4;

/// Sorted neighbor rows with their aligned per-arc edge ids, plus the
/// graph's endpoint table. Vertex and edge ids are the graph's; only the
/// rows may be shorter than the graph's.
#[derive(Debug)]
pub struct RowView<'a> {
    endpoints: &'a [(VertexId, VertexId)],
    offsets: Cow<'a, [usize]>,
    neighbors: Cow<'a, [VertexId]>,
    arc_eids: Cow<'a, [EdgeId]>,
}

impl<'a> RowView<'a> {
    /// The graph's own rows (borrowed, nothing copied).
    pub fn of(graph: &'a EdgeIndexedGraph) -> Self {
        RowView {
            endpoints: graph.endpoint_table(),
            offsets: Cow::Borrowed(graph.graph().offsets()),
            neighbors: Cow::Borrowed(graph.graph().raw_neighbors()),
            arc_eids: Cow::Borrowed(graph.raw_arc_eids()),
        }
    }

    /// Endpoints `(u, v)`, `u < v`, of edge `e` (kept or dropped).
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e as usize]
    }

    /// Row `u`: its sorted neighbors and the edge id of each arc.
    #[inline]
    pub fn row(&self, u: VertexId) -> (&[VertexId], &[EdgeId]) {
        let u = u as usize;
        let range = self.offsets[u]..self.offsets[u + 1];
        (&self.neighbors[range.clone()], &self.arc_eids[range])
    }

    /// Length of row `u` in this view.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Arcs in this view (twice the kept edges).
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether this view owns a filtered copy (false: the graph's arrays).
    pub fn is_filtered(&self) -> bool {
        matches!(self.neighbors, Cow::Owned(_))
    }

    /// An owned view keeping exactly the arcs of this one whose edge passes
    /// `keep`, rows in the same order. Built in parallel over row ranges of
    /// about equal arc counts; `keep` must not change while the build runs.
    pub fn filtered(&self, keep: impl Fn(EdgeId) -> bool + Sync) -> RowView<'a> {
        let (offsets, neighbors, arc_eids) = (&*self.offsets, &*self.neighbors, &*self.arc_eids);
        let tasks = schedule::balanced_ranges(
            offsets.len() - 1,
            rayon::current_num_threads() * FILTER_TASKS_PER_THREAD,
            |u| (offsets[u + 1] - offsets[u]) as u64,
        );
        let parts: Vec<(Vec<usize>, Vec<VertexId>, Vec<EdgeId>)> = tasks
            .par_iter()
            .map(|rows| {
                let mut degrees = Vec::with_capacity(rows.len());
                let (mut kept_neighbors, mut kept_eids) = (Vec::new(), Vec::new());
                for u in rows.clone() {
                    let before = kept_eids.len();
                    for arc in offsets[u]..offsets[u + 1] {
                        if keep(arc_eids[arc]) {
                            kept_neighbors.push(neighbors[arc]);
                            kept_eids.push(arc_eids[arc]);
                        }
                    }
                    degrees.push(kept_eids.len() - before);
                }
                (degrees, kept_neighbors, kept_eids)
            })
            .collect();

        let kept: usize = parts.iter().map(|p| p.2.len()).sum();
        let mut new_offsets = Vec::with_capacity(offsets.len());
        let mut new_neighbors = Vec::with_capacity(kept);
        let mut new_eids = Vec::with_capacity(kept);
        new_offsets.push(0);
        let mut end = 0usize;
        for (degrees, part_neighbors, part_eids) in parts {
            for d in degrees {
                end += d;
                new_offsets.push(end);
            }
            new_neighbors.extend_from_slice(&part_neighbors);
            new_eids.extend_from_slice(&part_eids);
        }
        RowView {
            endpoints: self.endpoints,
            offsets: Cow::Owned(new_offsets),
            neighbors: Cow::Owned(new_neighbors),
            arc_eids: Cow::Owned(new_eids),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Two triangles sharing vertex 2, a pendant, and an isolated vertex.
    fn sample() -> EdgeIndexedGraph {
        let g =
            GraphBuilder::from_edges(7, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
                .build();
        EdgeIndexedGraph::new(g)
    }

    #[test]
    fn graph_view_is_the_graphs_rows() {
        let eg = sample();
        let rows = RowView::of(&eg);
        assert!(!rows.is_filtered());
        assert_eq!(rows.num_arcs(), 2 * eg.num_edges());
        for u in 0..eg.num_vertices() as VertexId {
            assert_eq!(rows.row(u), (eg.neighbors(u), eg.arc_eids(u)));
            assert_eq!(rows.degree(u), eg.degree(u));
        }
        for (e, u, v) in eg.edges() {
            assert_eq!(rows.endpoints(e), (u, v));
        }
    }

    #[test]
    fn filtering_drops_both_arcs_and_keeps_row_order() {
        let eg = sample();
        let dropped = [eg.edge_id(0, 2).unwrap(), eg.edge_id(2, 4).unwrap()];
        let live = RowView::of(&eg).filtered(|e| !dropped.contains(&e));
        assert!(live.is_filtered());
        assert_eq!(live.num_arcs(), 2 * (eg.num_edges() - 2));
        for u in 0..eg.num_vertices() as VertexId {
            let expect: Vec<(VertexId, EdgeId)> = eg
                .neighbors_with_eids(u)
                .filter(|(_, e)| !dropped.contains(e))
                .collect();
            let (nbrs, eids) = live.row(u);
            let got: Vec<(VertexId, EdgeId)> =
                nbrs.iter().copied().zip(eids.iter().copied()).collect();
            assert_eq!(got, expect, "row {u}");
        }
        // Endpoints stay the graph's, dropped edges included.
        assert_eq!(live.endpoints(dropped[0]), (0, 2));
    }

    #[test]
    fn filter_of_a_filter_equals_one_filter() {
        let eg = EdgeIndexedGraph::new(
            GraphBuilder::from_edges(
                40,
                &(0..40u32)
                    .flat_map(|u| [(u, (u + 1) % 40), (u, (u + 7) % 40), (u, (u + 13) % 40)])
                    .collect::<Vec<_>>(),
            )
            .build(),
        );
        let graph_rows = RowView::of(&eg);
        let once = graph_rows.filtered(|e| e % 3 != 0 && e % 5 != 0);
        let twice = graph_rows.filtered(|e| e % 3 != 0).filtered(|e| e % 5 != 0);
        for u in 0..40 {
            assert_eq!(once.row(u), twice.row(u), "row {u}");
        }
    }

    #[test]
    fn empty_graph_and_keep_nothing() {
        let eg = EdgeIndexedGraph::new(crate::CsrGraph::empty(3));
        let live = RowView::of(&eg).filtered(|_| true);
        assert_eq!(live.num_arcs(), 0);
        assert_eq!(live.degree(2), 0);

        let eg = sample();
        let none = RowView::of(&eg).filtered(|_| false);
        assert_eq!(none.num_arcs(), 0);
        for u in 0..eg.num_vertices() as VertexId {
            assert_eq!(none.degree(u), 0);
        }
    }
}
