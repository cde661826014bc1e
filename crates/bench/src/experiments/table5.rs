//! Table 5 — summary-graph sizes (#supernodes, #superedges) and
//! 1-thread vs max-thread construction times with speedups, for all three
//! parallel designs.

use super::{build_from_identity, fig4_total, Opts};
use crate::datasets::{dataset, TABLE5_FIVE};
use crate::Report;
use et_core::Variant;
use std::time::Duration;

/// Runs the experiment and returns the report.
pub fn run(opts: &Opts) -> Report {
    let max_t = *opts.threads.iter().max().unwrap_or(&1);
    let mut report = Report::new(
        "Table 5 — summary graph sizes and strong-scaling speedups",
        &[
            "network",
            "#supernodes",
            "#superedges",
            "Base 1t",
            "Base maxt",
            "Base spdup",
            "C-Opt 1t",
            "C-Opt maxt",
            "C-Opt spdup",
            "Aff 1t",
            "Aff maxt",
            "Aff spdup",
        ],
    );
    report.note(super::scale_note(opts.scale));
    report.note(format!("max threads = {max_t}; speedup = T(1) / T(max)"));

    for name in TABLE5_FIVE {
        let graph = dataset(name, opts.scale);
        let mut sizes: Option<(usize, usize)> = None;
        let mut cells: Vec<String> = Vec::new();
        for variant in Variant::ALL {
            let run_at = |t: usize| -> (Duration, usize, usize) {
                crate::with_threads(t, || {
                    let (index, timings) = build_from_identity(&graph, variant);
                    (
                        fig4_total(&timings),
                        index.num_supernodes(),
                        index.num_superedges(),
                    )
                })
            };
            let (t1, sn, se) = run_at(1);
            let (tmax, sn2, se2) = run_at(max_t);
            assert_eq!((sn, se), (sn2, se2), "index must not vary with threads");
            match sizes {
                None => sizes = Some((sn, se)),
                Some(prev) => assert_eq!(prev, (sn, se), "index must not vary with variant"),
            }
            cells.push(crate::report::fmt_duration(t1));
            cells.push(crate::report::fmt_duration(tmax));
            cells.push(format!("{:.2}x", t1.as_secs_f64() / tmax.as_secs_f64()));
        }
        let (sn, se) = sizes.expect("at least one variant ran");
        let mut row = vec![name.to_string(), sn.to_string(), se.to_string()];
        row.extend(cells);
        report.push_row(row);
    }
    report
}
