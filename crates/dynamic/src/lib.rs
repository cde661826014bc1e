//! # et-dynamic — dynamic graphs, and an index that follows them
//!
//! The static pipeline assigns edge ids lexicographically, so a single edge
//! insertion renumbers everything — useless for evolving graphs. This crate
//! provides:
//!
//! * [`DynamicGraph`] — an adjacency-list graph with **stable edge ids**
//!   (freed ids are recycled; existing ids never move), convertible to/from
//!   the CSR substrate in one sweep over its sorted rows;
//! * [`DynamicIndex`] — trussness and the EquiTruss index of a
//!   [`DynamicGraph`], in stable ids, **rebuilt on every update** by the
//!   static pipeline: [`DynamicGraph::to_indexed`] → the parallel peel
//!   ([`et_truss::decompose_parallel`]) →
//!   [`et_core::build_index_with_decomposition`] under the Afforest variant →
//!   ids carried back through `to_indexed`'s `csr → stable` table
//!   ([`et_core::SuperGraph::relabel_edges`]).
//!
//! There is no incremental path. The one this crate used to carry — its own Π
//! forest kept across updates, SpNode re-run for the affected levels only —
//! cost more per update than the whole static build of the same graph on
//! every measured workload (EXPERIMENTS.md "PR 16"), because each update
//! already paid a fresh CSR and a full peel. Bounded τ repair and local
//! superedge repair (ROADMAP, first open item) are future work, and this
//! rebuild is both the baseline they must beat and the oracle they will be
//! tested against.

#![warn(missing_docs)]

#[cfg(test)]
mod churn;
pub mod graph;
pub mod index;

pub use graph::{CapacityError, DynamicGraph};
pub use index::{DynamicIndex, UpdateStats};
