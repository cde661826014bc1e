//! Figure 4 — operational-kernel breakdown of the parallel *Baseline*
//! EquiTruss, single thread: Support, Init, SpNode, SpEdge, SmGraph,
//! SpNodeRemap (percent of their sum).
//!
//! Paper shape: SpNode dominates at 79–89% of the construction time.

use super::{build_from_identity, fig4_total, Opts};
use crate::datasets::{dataset, FIG4_ORDER};
use crate::Report;
use et_core::Variant;

/// Runs the experiment and returns the report.
pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new(
        "Figure 4 — parallel Baseline kernel breakdown (% of construction, 1 thread)",
        &[
            "network",
            "Support",
            "Init",
            "SpNode",
            "SpEdge",
            "SmGraph",
            "SpNodeRemap",
            "total",
        ],
    );
    report.note(super::scale_note(opts.scale));
    report.note("paper shape: SpNode is 79-89% of construction time");

    for name in FIG4_ORDER {
        let graph = dataset(name, opts.scale);
        let timings = crate::with_threads(1, || build_from_identity(&graph, Variant::Baseline).1);
        report.attach_timings(format!("{name}/baseline/t1"), timings);
        let total = fig4_total(&timings);
        let pct = |d: std::time::Duration| {
            format!("{:.1}%", 100.0 * d.as_secs_f64() / total.as_secs_f64())
        };
        report.push_row(vec![
            name.to_string(),
            pct(timings.support),
            pct(timings.init),
            pct(timings.spnode),
            pct(timings.spedge),
            pct(timings.smgraph),
            pct(timings.spnode_remap),
            crate::report::fmt_duration(total),
        ]);
    }
    report
}
