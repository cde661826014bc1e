//! # et-core — Parallel EquiTruss index construction
//!
//! The paper's contribution: building the **EquiTruss summary graph**
//! G(V, E) — supernodes are maximal sets of k-triangle-connected edges of
//! equal trussness (Definition 8), superedges connect triangle-adjacent
//! supernodes of different trussness (Definition 9) — *in parallel*, by
//! recasting supernode construction as connected components over edge
//! entities.
//!
//! Four constructions, exactly mirroring Table 2 of the paper:
//!
//! | paper name            | here                              |
//! |-----------------------|-----------------------------------|
//! | Original EquiTruss    | [`original::build_original`] — serial BFS (Algorithm 1) |
//! | Baseline EquiTruss    | [`pipeline::Variant::Baseline`] — Shiloach–Vishkin edge-CC with dictionary lookups (Algorithm 2) |
//! | C-Optimal EquiTruss   | [`pipeline::Variant::COptimal`] — CSR-aligned trussness, contiguous Π, skip rule (§3.3) |
//! | Afforest EquiTruss    | [`pipeline::Variant::Afforest`] — sampling CC on the edge graph (§3.3) |
//!
//! The three parallel variants are *policies* over one shared edge-CC
//! engine ([`et_cc::engine`]): [`engine`] supplies the per-variant edge-id
//! resolution views ([`engine::DictTriangleView`], [`engine::CsrTriangleView`])
//! and the [`engine::spnode_group`] dispatcher, which the pipeline schedules
//! as one parallel wave over all Φ_k groups — unless the decomposition comes
//! from the parallel peel, which builds the supernode forest on its way
//! (`et_truss::TrussDecomposition::forest`): the Afforest variant, the
//! default of every build, then borrows Π from it and skips the wave.
//!
//! All four produce canonically identical indexes (the paper reports 100%
//! accuracy agreement); [`validate`] checks this plus the definitional
//! invariants, and [`pipeline::build_index`] instruments the kernel timings
//! of Fig. 4/8 (Support, Init, SpNode, SpEdge, SmGraph, SpNodeRemap).

#![warn(missing_docs)]

pub mod afforest;
pub mod baseline;
pub mod coptimal;
pub mod engine;
pub mod hierarchy;
pub mod index;
pub mod io;
pub mod original;
pub mod phi;
pub mod pipeline;
pub mod remap;
pub mod smgraph;
pub mod spedge;
pub mod stats;
pub mod timings;
pub mod validate;

pub use hierarchy::{TrussHierarchy, NO_NODE};
pub use index::{SuperGraph, NO_SUPERNODE};
pub use original::build_original;
pub use phi::PhiGroups;
pub use pipeline::{
    build_index, build_index_with_decomposition, build_index_with_options, IndexBuild,
    SupportKernel, Variant,
};
pub use stats::IndexStats;
pub use timings::KernelTimings;
