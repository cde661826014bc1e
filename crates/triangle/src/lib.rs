//! # et-triangle — triangle and edge-support kernels
//!
//! The EquiTruss pipeline starts from the *Support* kernel (Fig. 2/4 of the
//! paper): for every undirected edge `e = (u, v)`, `support(e) = |N(u) ∩
//! N(v)|` — the number of triangles containing `e` (Definition 2). This crate
//! provides:
//!
//! * [`intersect`] — sorted-set intersection kernels (merge, galloping) with an adaptive dispatcher that also picks, on x86_64 and
//!   from a length cutoff up, the SSE2 kernels of `simd`,
//! * [`support`] — the merge-based Support kernel over an
//!   [`et_graph::EdgeIndexedGraph`] (one intersection per edge, no auxiliary
//!   structure: the pipeline's pick on degree-balanced graphs, the test
//!   oracle and the "Original" timing reference),
//! * [`oriented`] — the triangle-once Support kernel over the degree-ordered
//!   DAG of [`et_graph::OrientedGraph`] (the pipeline's pick on skewed
//!   graphs),
//! * [`count`] — global triangle counting (node- and edge-iterator),
//! * [`enumerate`] — per-edge triangle enumeration used by the SpNode /
//!   SpEdge kernels: breakable, trussness-filtered (k-triangle connectivity,
//!   Definition 6), and the pivot form that visits every triangle once.

#![warn(missing_docs)]

pub mod count;
pub mod enumerate;
pub mod intersect;
pub mod oriented;
#[cfg(target_arch = "x86_64")]
pub mod simd;
pub mod support;

pub use count::{count_triangles, count_triangles_per_vertex};
pub use enumerate::{
    for_each_pivot_triangle_of_edge, for_each_triangle_of_edge, for_each_truss_triangle_of_edge,
    try_for_each_triangle_in_rows, try_for_each_triangle_of_edge,
};
pub use oriented::{compute_support_oriented, compute_support_with_oriented};
pub use support::{compute_support, compute_support_serial};
