//! # et-bench — the reproduction harness
//!
//! One module per table/figure of the paper's evaluation (§4). The
//! `reproduce` binary dispatches to these; each experiment returns a
//! [`report::Report`] that is printed as an aligned table and (optionally)
//! dumped as JSON for EXPERIMENTS.md bookkeeping.
//!
//! | paper artifact | module |
//! |---|---|
//! | Fig. 2 (Original kernel breakdown) | [`experiments::fig2`] |
//! | Table 3 (datasets) | [`experiments::table3`] |
//! | Fig. 4 (parallel kernel breakdown) | [`experiments::fig4`] |
//! | Fig. 5 (SpNode single-thread speedup) | [`experiments::fig5`] |
//! | Table 4 (serial comparison) | [`experiments::table4`] |
//! | Table 5 (index sizes + speedups) | [`experiments::table5`] |
//! | Fig. 6 (strong scaling) | [`experiments::fig6`] |
//! | Fig. 7 (Friendster SpNode scaling) | [`experiments::fig7`] |
//! | Fig. 8 (kernel scaling breakdown) | [`experiments::fig8`] |
//! | Fig. 9 (parallel efficiency) | [`experiments::fig9`] |
//! | §4.3 accuracy claim | [`experiments::accuracy`] |

#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod report;
pub mod threads;

pub use datasets::dataset;
pub use report::Report;
pub use threads::{thread_sweep, with_threads};
