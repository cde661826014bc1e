//! Figure 6 — strong scaling of the full construction (Fig.-4 kernel
//! total) over the thread sweep, for all three designs on the three
//! scaling networks.

use super::{build_from_identity, fig4_total, Opts};
use crate::datasets::{dataset, SCALING_THREE};
use crate::Report;
use et_core::Variant;

/// Runs the experiment and returns one combined report (one row per
/// network × variant, one column per thread count).
pub fn run(opts: &Opts) -> Report {
    let mut headers: Vec<String> = vec!["network".into(), "variant".into()];
    headers.extend(opts.threads.iter().map(|t| format!("{t}t")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "Figure 6 — strong scaling: execution time vs threads",
        &header_refs,
    );
    report.note(super::scale_note(opts.scale));
    report.note(
        "paper shape: monotone decrease to 128 threads; Aff < C-Opt < Baseline at every width",
    );

    for name in SCALING_THREE {
        let graph = dataset(name, opts.scale);
        for variant in Variant::ALL {
            let mut row = vec![name.to_string(), variant.name().to_string()];
            for &t in &opts.threads {
                let total =
                    crate::with_threads(t, || fig4_total(&build_from_identity(&graph, variant).1));
                row.push(crate::report::fmt_duration(total));
            }
            report.push_row(row);
        }
    }
    report
}
