//! The merge-based Support kernel: per-edge triangle counts (Definition 2).
//!
//! `support(e = (u, v)) = |N(u) ∩ N(v)|`. This is the first kernel of every
//! EquiTruss pipeline (Fig. 2 and Fig. 4), parallelized flatly over edge ids
//! with rayon. Because adjacency lists are sorted and the edge table is
//! dense, each edge's support is computed independently — embarrassingly
//! parallel, deterministic regardless of thread count. The cost is that each
//! triangle is intersected three times, once per edge, which the
//! triangle-once [`crate::oriented`] kernel avoids at the price of building a
//! DAG first: that trade wins on skewed graphs and loses on degree-balanced
//! ones, so the pipeline picks between the two per graph. This kernel is also
//! the oracle and the "Original" breakdown's timing reference.

use crate::intersect::intersect_count;
use et_graph::{EdgeId, EdgeIndexedGraph};
use rayon::prelude::*;

/// Computes `support(e)` for every edge id, in parallel.
///
/// Returns a vector indexed by [`EdgeId`].
pub fn compute_support(graph: &EdgeIndexedGraph) -> Vec<u32> {
    (0..graph.num_edges() as EdgeId)
        .into_par_iter()
        .map(|e| {
            let (u, v) = graph.endpoints(e);
            intersect_count(graph.neighbors(u), graph.neighbors(v)) as u32
        })
        .collect()
}

/// Serial reference implementation of the Support kernel (used by the
/// Original-EquiTruss timing breakdown of Fig. 2 and as a test oracle).
pub fn compute_support_serial(graph: &EdgeIndexedGraph) -> Vec<u32> {
    (0..graph.num_edges() as EdgeId)
        .map(|e| {
            let (u, v) = graph.endpoints(e);
            intersect_count(graph.neighbors(u), graph.neighbors(v)) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_graph::{EdgeIndexedGraph, GraphBuilder};

    fn indexed(edges: &[(u32, u32)], n: usize) -> EdgeIndexedGraph {
        EdgeIndexedGraph::new(GraphBuilder::from_edges(n, edges).build())
    }

    #[test]
    fn triangle_supports() {
        let g = indexed(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(compute_support(&g), vec![1, 1, 1]);
    }

    #[test]
    fn k4_supports() {
        let g = indexed(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(compute_support(&g), vec![2; 6]);
    }

    #[test]
    fn path_has_no_support() {
        let g = indexed(&[(0, 1), (1, 2), (2, 3)], 4);
        assert_eq!(compute_support(&g), vec![0, 0, 0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let g = EdgeIndexedGraph::new(et_gen::gnm(120, 900, 5));
        assert_eq!(compute_support(&g), compute_support_serial(&g));
    }

    #[test]
    fn support_sums_to_three_triangle_count() {
        // Each triangle contributes 1 to the support of each of its 3 edges.
        let g = EdgeIndexedGraph::new(et_gen::gnm(60, 400, 8));
        let total: u64 = compute_support(&g).iter().map(|&s| s as u64).sum();
        let triangles = crate::count::count_triangles(&g);
        assert_eq!(total, 3 * triangles);
    }

    #[test]
    fn empty_graph() {
        let g = indexed(&[], 5);
        assert!(compute_support(&g).is_empty());
    }
}
