//! Descriptive statistics for graphs (Table 3-style dataset summaries).

use crate::{CsrGraph, EdgeId, EdgeIndexedGraph, VertexId};

/// Summary statistics of a graph, mirroring the dataset columns the paper
/// reports in Table 3 plus skew indicators that drive kernel behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree (2m / n).
    pub avg_degree: f64,
    /// Number of isolated (degree-0) vertices.
    pub isolated_vertices: usize,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        let mut max_degree = 0usize;
        let mut isolated = 0usize;
        for u in 0..n {
            let d = graph.degree(u as VertexId);
            max_degree = max_degree.max(d);
            if d == 0 {
                isolated += 1;
            }
        }
        GraphStats {
            num_vertices: n,
            num_edges: m,
            max_degree,
            avg_degree: if n == 0 {
                0.0
            } else {
                2.0 * m as f64 / n as f64
            },
            isolated_vertices: isolated,
        }
    }
}

/// Cap on edges sampled for the balance estimate.
const SKETCH_EDGE_CAP: usize = 50_000;

/// The cheap shape statistic that picks the Support kernel
/// (`SupportKernel::Default`, see DESIGN.md "Support selection"), computed in
/// O(sample) work: skewed graphs favor the oriented kernel (short
/// out-lists under degree ordering), balanced ones the per-edge merge
/// (productive full-list intersections, no DAG to build).
#[derive(Clone, Debug, PartialEq)]
pub struct ShapeStats {
    /// Mean of `min(deg u, deg v) / max(deg u, deg v)` over sampled edges:
    /// close to 1 when endpoints have similar degrees (meshes, regular
    /// graphs, intra-clique edges), small on hub-leaf edges.
    pub adj_balance: f64,
    /// Edges inspected for the estimate (capped).
    pub sketch_edges: usize,
}

impl ShapeStats {
    /// Computes the shape sketch for `graph` in O(sample) work. Deterministic
    /// for a given graph: every stride-th edge id.
    pub fn compute(graph: &EdgeIndexedGraph) -> Self {
        let m = graph.num_edges();
        let stride = m.div_ceil(SKETCH_EDGE_CAP).max(1);
        let sampled = m.div_ceil(stride);
        let balance_sum: f64 = (0..m)
            .step_by(stride)
            .map(|e| {
                let (u, v) = graph.endpoints(e as EdgeId);
                let (du, dv) = (graph.degree(u), graph.degree(v));
                du.min(dv) as f64 / du.max(dv) as f64
            })
            .sum();
        ShapeStats {
            adj_balance: if sampled == 0 {
                0.0
            } else {
                balance_sum / sampled as f64
            },
            sketch_edges: sampled,
        }
    }
}

/// Degree histogram: `hist[d]` = number of vertices with degree `d`.
pub fn degree_histogram(graph: &CsrGraph) -> Vec<usize> {
    let mut hist = vec![0usize; graph.max_degree() + 1];
    for u in 0..graph.num_vertices() {
        hist[graph.degree(u as VertexId)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn stats_of_star() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4)]).build();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_vertices, 6);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.isolated_vertices, 1);
        assert!((s.avg_degree - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).build();
        let h = degree_histogram(&g);
        assert_eq!(h.iter().sum::<usize>(), 5);
        assert_eq!(h[0], 1); // vertex 4
        assert_eq!(h[1], 2); // vertices 0, 3
        assert_eq!(h[2], 2); // vertices 1, 2
    }

    #[test]
    fn stats_empty() {
        let s = GraphStats::compute(&CsrGraph::empty(0));
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn shape_stats_empty_and_isolated() {
        let s = ShapeStats::compute(&EdgeIndexedGraph::new(CsrGraph::empty(0)));
        assert_eq!(s.adj_balance, 0.0);
        assert_eq!(s.sketch_edges, 0);
        let s = ShapeStats::compute(&EdgeIndexedGraph::new(CsrGraph::empty(10)));
        assert_eq!(s.sketch_edges, 0);
    }

    #[test]
    fn shape_stats_clique_is_balanced() {
        let edges: Vec<(u32, u32)> = (0..5u32)
            .flat_map(|u| ((u + 1)..5).map(move |v| (u, v)))
            .collect();
        let g = EdgeIndexedGraph::new(GraphBuilder::from_edges(5, &edges).build());
        let s = ShapeStats::compute(&g);
        assert!((s.adj_balance - 1.0).abs() < 1e-12);
        assert_eq!(s.sketch_edges, 10);
    }

    #[test]
    fn shape_stats_star_is_unbalanced() {
        let edges: Vec<(u32, u32)> = (1..40u32).map(|v| (0, v)).collect();
        let g = EdgeIndexedGraph::new(GraphBuilder::from_edges(40, &edges).build());
        let s = ShapeStats::compute(&g);
        assert!(s.adj_balance < 0.1, "star balance {}", s.adj_balance);
    }

    #[test]
    fn shape_stats_deterministic() {
        let edges: Vec<(u32, u32)> = (0..200u32).map(|i| (i, (i * 7 + 1) % 200)).collect();
        let g = EdgeIndexedGraph::new(GraphBuilder::from_edges(200, &edges).build());
        assert_eq!(ShapeStats::compute(&g), ShapeStats::compute(&g));
    }
}
