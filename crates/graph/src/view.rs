//! Subgraph extraction.
//!
//! Community search ultimately returns *subgraphs* (the k-truss communities
//! of a query vertex), so the workspace needs edge-induced subgraph
//! extraction with the id mapping back to the parent graph.

use crate::{CsrGraph, EdgeId, EdgeIndexedGraph, GraphBuilder, VertexId};

/// A subgraph together with the mapping from its compact vertex ids back to
/// the parent graph's ids.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The extracted graph with compact vertex ids `0..k`.
    pub graph: CsrGraph,
    /// `local_to_global[local] = global` vertex id in the parent graph.
    pub local_to_global: Vec<VertexId>,
}

/// Extracts the subgraph spanned by a set of edge ids of an indexed graph.
/// Only vertices incident to a selected edge appear; ids are compacted in
/// sorted order.
pub fn edge_subgraph(graph: &EdgeIndexedGraph, edges: &[EdgeId]) -> Subgraph {
    let mut verts: Vec<VertexId> = Vec::with_capacity(edges.len().saturating_mul(2));
    for &e in edges {
        let (u, v) = graph.endpoints(e);
        verts.push(u);
        verts.push(v);
    }
    verts.sort_unstable();
    verts.dedup();
    let mut b = GraphBuilder::new(verts.len());
    for &e in edges {
        let (u, v) = graph.endpoints(e);
        let lu = verts.binary_search(&u).unwrap() as VertexId;
        let lv = verts.binary_search(&v).unwrap() as VertexId;
        b.add_edge(lu, lv);
    }
    Subgraph {
        graph: b.build(),
        local_to_global: verts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]).build()
    }

    #[test]
    fn edge_subgraph_spans_selected_edges() {
        let eg = EdgeIndexedGraph::new(sample());
        let e01 = eg.edge_id(0, 1).unwrap();
        let e45 = eg.edge_id(4, 5).unwrap();
        let s = edge_subgraph(&eg, &[e01, e45]);
        assert_eq!(s.graph.num_vertices(), 4); // {0,1,4,5}
        assert_eq!(s.graph.num_edges(), 2);
        assert_eq!(s.local_to_global, vec![0, 1, 4, 5]);
    }
}
