//! Table 4 — single-thread index-construction time (SpNode + SpEdge +
//! SmGraph) of the three parallel designs, against the serial
//! Algorithm 1 comparator (our faithful port standing in for the
//! Akbas et al. Java original).
//!
//! Paper shape: the serial original beats the 1-thread Baseline (it does
//! strictly less work than one SV round-loop), the gap narrows through
//! C-Optimal to Afforest.

use super::{build_from_identity, Opts};
use crate::datasets::{dataset, CORE_FOUR};
use crate::Report;
use et_core::{build_original, Variant};
use std::time::Instant;

/// Runs the experiment and returns the report.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "Table 4 — index construction (SpNd+SpEdge+SmGraph), 1 thread",
        &[
            "network",
            "Baseline",
            "C-Opt.",
            "Aff.",
            "Original (Akbas port)",
        ],
    );
    report.note(super::scale_note(opts.scale));
    report.note("original Java comparator substituted by our serial Algorithm 1 port");

    for name in CORE_FOUR {
        let graph = dataset(name, opts.scale);
        let construction = |variant: Variant| {
            crate::with_threads(1, || {
                build_from_identity(&graph, variant).1.index_construction()
            })
        };
        let base = construction(Variant::Baseline);
        let copt = construction(Variant::COptimal);
        let aff = construction(Variant::Afforest);

        // Serial comparator: Algorithm 1, excluding support/decomposition
        // (same accounting as the parallel column).
        let tau = crate::with_threads(1, || et_truss::decompose_serial(&graph).trussness);
        let t0 = Instant::now();
        let idx = build_original(&graph, &tau);
        std::hint::black_box(idx.num_supernodes());
        let original = t0.elapsed();

        report.push_row(vec![
            name.to_string(),
            crate::report::fmt_duration(base),
            crate::report::fmt_duration(copt),
            crate::report::fmt_duration(aff),
            crate::report::fmt_duration(original),
        ]);
    }
    report
}
