//! # et-community — k-truss-based local community search
//!
//! The *consumer* side of the EquiTruss index: given a query vertex q and a
//! cohesion level k, return every k-truss community containing q
//! (Definition 7) — the goal-oriented, overlapping community search the
//! paper's introduction motivates (Figure 1, right).
//!
//! Four independent engines, used to cross-validate each other:
//!
//! * [`query::query_communities`] — the serving path: seed supernodes
//!   resolve their community through the offline [`et_core::TrussHierarchy`]
//!   merge forest (near-O(α) per seed, no traversal),
//! * [`query::query_communities_bfs`] — supergraph traversal over the
//!   EquiTruss index (each community is a union of supernodes reachable
//!   through supernodes of trussness ≥ k); the hierarchy engine's oracle,
//! * [`tcp::TcpIndex`] — the TCP-Index of Huang et al. (SIGMOD 2014;
//!   reference \[22\]), the prior state of the art EquiTruss improves on:
//!   per-vertex maximum spanning forests over triangle-weighted neighbor
//!   graphs,
//! * [`ground_truth::brute_force_communities`] — peel-and-union directly
//!   from the definitions.

#![warn(missing_docs)]

pub mod batch;
pub mod ground_truth;
pub mod kcore;
pub mod membership;
pub mod metrics;
pub mod query;
pub mod scratch;
pub mod tcp;

pub use batch::{batch_community_stats, batch_query_communities, membership_counts};
pub use kcore::{KCoreCommunity, KCoreIndex};
pub use membership::CommunityIndex;
pub use metrics::{community_metrics, vertex_set_metrics, CommunityMetrics};
pub use query::{
    community_of_edge, community_stats, community_vertices, count_communities,
    edge_community_stats, query_communities, query_communities_bfs, strongest_communities,
    Community, CommunityStats,
};
pub use tcp::TcpIndex;
