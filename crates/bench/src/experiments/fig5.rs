//! Figure 5 — single-thread SpNode speedup from optimization:
//! Baseline → C-Optimal → Afforest.
//!
//! Paper shape (Orkut): C-Opt ≈ 2×, Afforest ≈ 4.1× over Baseline.

use super::{build_from_identity, Opts};
use crate::datasets::{dataset, FIG4_ORDER};
use crate::Report;
use et_core::Variant;
use std::time::Duration;

/// Runs the experiment and returns the report.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "Figure 5 — SpNode kernel speedup over Baseline (1 thread)",
        &[
            "network",
            "Baseline SpNode",
            "C-Opt SpNode",
            "Aff. SpNode",
            "C-Opt speedup",
            "Aff. speedup",
        ],
    );
    report.note(super::scale_note(opts.scale));
    report.note("paper shape (Orkut): C-Opt 1.98x, Afforest 4.13x");

    for name in FIG4_ORDER {
        let graph = dataset(name, opts.scale);
        let spnode = |variant: Variant| -> Duration {
            crate::with_threads(1, || build_from_identity(&graph, variant).1.spnode)
        };
        let base = spnode(Variant::Baseline);
        let copt = spnode(Variant::COptimal);
        let aff = spnode(Variant::Afforest);
        let speedup = |d: Duration| format!("{:.2}x", base.as_secs_f64() / d.as_secs_f64());
        report.push_row(vec![
            name.to_string(),
            crate::report::fmt_duration(base),
            crate::report::fmt_duration(copt),
            crate::report::fmt_duration(aff),
            speedup(copt),
            speedup(aff),
        ]);
    }
    report
}
