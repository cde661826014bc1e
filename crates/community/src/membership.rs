//! High-level community-search façade.
//!
//! [`CommunityIndex`] bundles the graph, its trussness dictionary, the
//! EquiTruss supergraph and the truss hierarchy into a single queryable
//! object — the "index for online community search" a downstream
//! application would hold in memory.

use crate::query::{max_query_level, query_communities, Community};
use et_core::{build_index_with_decomposition, KernelTimings, SuperGraph, TrussHierarchy, Variant};
use et_graph::{EdgeIndexedGraph, VertexId};
use et_truss::TrussDecomposition;

/// A ready-to-query local community index.
pub struct CommunityIndex {
    graph: EdgeIndexedGraph,
    decomposition: TrussDecomposition,
    supergraph: SuperGraph,
    hierarchy: TrussHierarchy,
}

impl CommunityIndex {
    /// Builds the full pipeline (support → truss decomposition → parallel
    /// EquiTruss with the given variant → truss hierarchy) over `graph`.
    pub fn build(graph: EdgeIndexedGraph, variant: Variant) -> Self {
        let decomposition = et_truss::decompose_parallel(&graph);
        let mut timings = KernelTimings::default();
        let supergraph =
            build_index_with_decomposition(&graph, &decomposition, variant, &mut timings);
        let hierarchy = et_core::timings::timed(&mut timings.hierarchy, || {
            TrussHierarchy::build(&supergraph)
        });
        CommunityIndex {
            graph,
            // The index is built: the peel's forest has served.
            decomposition: TrussDecomposition::new(decomposition.trussness),
            supergraph,
            hierarchy,
        }
    }

    /// Wraps precomputed parts; only the (cheap) hierarchy is derived.
    pub fn from_parts(
        graph: EdgeIndexedGraph,
        decomposition: TrussDecomposition,
        supergraph: SuperGraph,
    ) -> Self {
        let hierarchy = TrussHierarchy::build(&supergraph);
        CommunityIndex {
            graph,
            decomposition,
            supergraph,
            hierarchy,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &EdgeIndexedGraph {
        &self.graph
    }

    /// The trussness dictionary.
    pub fn decomposition(&self) -> &TrussDecomposition {
        &self.decomposition
    }

    /// The EquiTruss supergraph.
    pub fn supergraph(&self) -> &SuperGraph {
        &self.supergraph
    }

    /// The truss hierarchy the query engine resolves against.
    pub fn hierarchy(&self) -> &TrussHierarchy {
        &self.hierarchy
    }

    /// Every k-truss community containing `q`.
    pub fn communities_of(&self, q: VertexId, k: u32) -> Vec<Community> {
        query_communities(&self.graph, &self.supergraph, &self.hierarchy, q, k)
    }

    /// The strongest cohesion level at which `q` participates in any
    /// community.
    pub fn max_level(&self, q: VertexId) -> Option<u32> {
        max_query_level(&self.graph, &self.supergraph, q)
    }

    /// Full membership profile of `q`: for each level k from 3 up to
    /// [`CommunityIndex::max_level`], the communities of `q` at that level.
    pub fn membership_profile(&self, q: VertexId) -> Vec<(u32, Vec<Community>)> {
        let Some(kmax) = self.max_level(q) else {
            return Vec::new();
        };
        (3..=kmax).map(|k| (k, self.communities_of(q, k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_gen::fixtures;

    #[test]
    fn facade_answers_queries() {
        let eg = EdgeIndexedGraph::new(fixtures::paper_example().graph.clone());
        let idx = CommunityIndex::build(eg, Variant::Afforest);
        assert_eq!(idx.max_level(6), Some(5));
        let profile = idx.membership_profile(6);
        assert_eq!(profile.len(), 3); // k = 3, 4, 5
        assert_eq!(profile[0].0, 3);
        assert_eq!(profile[0].1.len(), 1);
        assert_eq!(profile[2].1[0].edges.len(), 10); // the K5 at k = 5
        assert!(idx.hierarchy().check(idx.supergraph()).is_ok());
    }

    #[test]
    fn no_membership_for_truss_free_vertex() {
        let eg = EdgeIndexedGraph::new(fixtures::bipartite(4, 4).graph.clone());
        let idx = CommunityIndex::build(eg, Variant::COptimal);
        assert!(idx.membership_profile(0).is_empty());
        assert_eq!(idx.max_level(0), None);
    }

    #[test]
    fn from_parts_roundtrip() {
        let eg = EdgeIndexedGraph::new(fixtures::clique(5).graph.clone());
        let d = et_truss::decompose_serial(&eg);
        let sg = et_core::build_original(&eg, &d.trussness);
        let idx = CommunityIndex::from_parts(eg, d, sg);
        assert_eq!(idx.communities_of(0, 5).len(), 1);
        assert_eq!(idx.supergraph().num_supernodes(), 1);
        assert_eq!(idx.decomposition().max_trussness, 5);
        assert_eq!(idx.graph().num_edges(), 10);
        assert_eq!(idx.hierarchy().num_leaves, 1);
    }
}
