//! Parallel batch queries.
//!
//! Online community search serves many concurrent queries; the index and its
//! truss hierarchy are read-only after construction, so queries parallelize
//! embarrassingly with rayon — one more payoff of building the index up
//! front. Each rayon worker reuses its own thread-local
//! [`crate::scratch::QueryScratch`], so a batch of any size performs at most
//! one visited-set and one bitmap allocation per worker thread.

use crate::query::{
    community_stats, count_communities, query_communities, Community, CommunityStats,
};
use et_core::{SuperGraph, TrussHierarchy};
use et_graph::{EdgeIndexedGraph, VertexId};
use rayon::prelude::*;

/// Answers `(vertex, k)` queries in parallel; `results[i]` corresponds to
/// `queries[i]`.
pub fn batch_query_communities(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    queries: &[(VertexId, u32)],
) -> Vec<Vec<Community>> {
    queries
        .par_iter()
        .map(|&(q, k)| query_communities(graph, index, hierarchy, q, k))
        .collect()
}

/// [`community_stats`] of every `(vertex, k)` pair in parallel — what
/// [`batch_query_communities`] would return, as sizes: for a caller that
/// reports counts, no community is materialized.
pub fn batch_community_stats(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    queries: &[(VertexId, u32)],
) -> Vec<Vec<CommunityStats>> {
    queries
        .par_iter()
        .map(|&(q, k)| community_stats(graph, index, hierarchy, q, k))
        .collect()
}

/// Parallel membership histogram: for every vertex, the number of distinct
/// k-truss communities it belongs to at level `k`. The overlap statistic of
/// Figure 1 (right) — vertices with count ≥ 2 sit in overlapping
/// communities.
///
/// Count-only fast path: each vertex costs its degree in hierarchy climbs —
/// no community is ever materialized.
pub fn membership_counts(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    k: u32,
) -> Vec<usize> {
    (0..graph.num_vertices() as VertexId)
        .into_par_iter()
        .map(|q| count_communities(graph, index, hierarchy, q, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_core::{build_index, Variant};
    use et_gen::fixtures;

    fn setup(graph: et_graph::CsrGraph) -> (EdgeIndexedGraph, SuperGraph, TrussHierarchy) {
        let eg = EdgeIndexedGraph::new(graph);
        let b = build_index(&eg, Variant::Afforest);
        (eg, b.index, b.hierarchy)
    }

    #[test]
    fn batch_matches_individual() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        let queries: Vec<(u32, u32)> = (0..11).flat_map(|q| [(q, 3), (q, 4), (q, 5)]).collect();
        let batch = batch_query_communities(&eg, &idx, &h, &queries);
        assert_eq!(batch.len(), queries.len());
        for (i, &(q, k)) in queries.iter().enumerate() {
            assert_eq!(
                batch[i],
                query_communities(&eg, &idx, &h, q, k),
                "q={q} k={k}"
            );
        }
    }

    #[test]
    fn overlap_histogram() {
        // Two K4s sharing vertex 0: only vertex 0 has two communities at 4.
        let mut edges = Vec::new();
        for c in [[0u32, 1, 2, 3], [0, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((c[i].min(c[j]), c[i].max(c[j])));
                }
            }
        }
        let (eg, idx, h) = setup(et_graph::GraphBuilder::from_edges(7, &edges).build());
        let counts = membership_counts(&eg, &idx, &h, 4);
        assert_eq!(counts[0], 2);
        assert!(counts[1..].iter().all(|&c| c == 1));
    }

    #[test]
    fn counts_match_materialized_queries() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        for k in 3..=6 {
            let counts = membership_counts(&eg, &idx, &h, k);
            for q in 0..eg.num_vertices() as u32 {
                assert_eq!(
                    counts[q as usize],
                    query_communities(&eg, &idx, &h, q, k).len(),
                    "q={q} k={k}"
                );
            }
        }
    }

    #[test]
    fn stats_batch_matches_materialized_batch() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        let queries: Vec<(u32, u32)> = (0..11).flat_map(|q| [(q, 3), (q, 4), (q, 6)]).collect();
        let answers = batch_query_communities(&eg, &idx, &h, &queries);
        let stats = batch_community_stats(&eg, &idx, &h, &queries);
        for ((answer, stats), &(q, k)) in answers.iter().zip(&stats).zip(&queries) {
            let mut sizes: Vec<_> = answer.iter().map(|c| c.edges.len() as u64).collect();
            let mut edges: Vec<_> = stats.iter().map(|s| s.edges).collect();
            sizes.sort_unstable();
            edges.sort_unstable();
            assert_eq!(sizes, edges, "q={q} k={k}");
        }
    }

    /// `vertices()` borrows the worker's scratch; a query's own borrow must
    /// be over by then, whether the worker ran the query itself or a whole
    /// batch of them.
    #[test]
    fn vertices_and_subgraph_of_every_answer_inside_a_rayon_worker() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        let queries: Vec<(u32, u32)> = (0..11).flat_map(|q| [(q, 3), (q, 4), (q, 5)]).collect();
        let check = |c: &Community| {
            let vertices = c.vertices(&eg);
            assert!(vertices.windows(2).all(|w| w[0] < w[1]));
            let sub = c.subgraph(&eg);
            assert_eq!(sub.graph.num_vertices(), vertices.len());
            assert_eq!(sub.graph.num_edges(), c.edges.len());
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        pool.install(|| {
            queries.par_iter().for_each(|&(q, k)| {
                query_communities(&eg, &idx, &h, q, k)
                    .iter()
                    .for_each(check);
                let batch = batch_query_communities(&eg, &idx, &h, &queries);
                batch.iter().flatten().for_each(check);
            });
        });
    }

    #[test]
    fn empty_batch() {
        let (eg, idx, h) = setup(fixtures::clique(4).graph.clone());
        assert!(batch_query_communities(&eg, &idx, &h, &[]).is_empty());
    }
}
