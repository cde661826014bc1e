//! Figure 9 — parallel efficiency ε = T_seq / (p · T_p), per design and
//! thread count, on the three scaling networks.

use super::{build_from_identity, fig4_total, Opts};
use crate::datasets::{dataset, SCALING_THREE};
use crate::Report;
use et_core::Variant;
use std::time::Duration;

/// Runs the experiment and returns the report.
pub fn run(opts: &Opts) -> Report {
    let mut headers: Vec<String> = vec!["network".into(), "variant".into()];
    headers.extend(opts.threads.iter().map(|t| format!("ε@{t}t")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "Figure 9 — parallel efficiency ε = T_seq / (p·T_p) (%)",
        &header_refs,
    );
    report.note(super::scale_note(opts.scale));
    report.note("paper shape (Orkut @32t): Baseline 38.9%, C-Opt 37.7%, Aff 32%");

    for name in SCALING_THREE {
        let graph = dataset(name, opts.scale);
        for variant in Variant::ALL {
            let measure = |t: usize| -> Duration {
                crate::with_threads(t, || fig4_total(&build_from_identity(&graph, variant).1))
            };
            let t_seq = measure(1);
            let mut row = vec![name.to_string(), variant.name().to_string()];
            for &p in &opts.threads {
                let tp = if p == 1 { t_seq } else { measure(p) };
                let eps = 100.0 * t_seq.as_secs_f64() / (p as f64 * tp.as_secs_f64());
                row.push(format!("{eps:.1}%"));
            }
            report.push_row(row);
        }
    }
    report
}
