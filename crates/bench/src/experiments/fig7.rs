//! Figure 7 — SpNode kernel strong scaling on the largest network
//! (Friendster analog), C-Optimal vs Afforest only (the paper could not even
//! run Baseline within the 12-hour node limit).

use super::{build_from_identity, Opts};
use crate::datasets::dataset;
use crate::Report;
use et_core::Variant;

/// Runs the experiment and returns the report.
pub fn run(opts: &Opts) -> Report {
    let mut headers: Vec<String> = vec!["variant".into()];
    headers.extend(opts.threads.iter().map(|t| format!("{t}t")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "Figure 7 — SpNode scaling on the billion-edge-class network (friendster analog)",
        &header_refs,
    );
    report.note(super::scale_note(opts.scale));
    report.note("paper shape (Aff.): 34332s at 1 thread -> 612s at 128 threads");

    let graph = dataset("friendster", opts.scale);
    for variant in [Variant::COptimal, Variant::Afforest] {
        let mut row = vec![format!("SpNode ({})", variant.name())];
        for &t in &opts.threads {
            let spnode = crate::with_threads(t, || build_from_identity(&graph, variant).1.spnode);
            row.push(crate::report::fmt_duration(spnode));
        }
        report.push_row(row);
    }
    report
}
