//! Figure 8 — timing breakdown of the three major kernels (SpNode, SpEdge,
//! SmGraph) per design, at increasing thread counts (paper: 1, 8, 32, 128).

use super::{build_from_identity, Opts};
use crate::datasets::dataset;
use crate::Report;
use et_core::Variant;

/// Networks shown in Fig. 8.
const NETWORKS: [&str; 2] = ["orkut", "livejournal"];

/// Runs the experiment and returns the report.
pub fn run(opts: &Opts) -> Report {
    // Paper uses {1, 8, 32, 128}; emulate with up to four spread points of
    // the available sweep.
    let sweep = &opts.threads;
    let picks: Vec<usize> = if sweep.len() <= 4 {
        sweep.clone()
    } else {
        vec![
            sweep[0],
            sweep[sweep.len() / 3],
            sweep[2 * sweep.len() / 3],
            *sweep.last().unwrap(),
        ]
    };

    let mut report = Report::new(
        "Figure 8 — SpNode/SpEdge/SmGraph breakdown vs threads",
        &[
            "network", "threads", "variant", "SpNode", "SpEdge", "SmGraph",
        ],
    );
    report.note(super::scale_note(opts.scale));
    report.note("paper shape: SpNode dominates at 1 thread and shrinks fastest with threads");

    for name in NETWORKS {
        let graph = dataset(name, opts.scale);
        for &t in &picks {
            for variant in Variant::ALL {
                let timings = crate::with_threads(t, || build_from_identity(&graph, variant).1);
                report.attach_timings(format!("{name}/{}/t{t}", variant.name()), timings);
                report.push_row(vec![
                    name.to_string(),
                    t.to_string(),
                    variant.name().to_string(),
                    crate::report::fmt_duration(timings.spnode),
                    crate::report::fmt_duration(timings.spedge),
                    crate::report::fmt_duration(timings.smgraph),
                ]);
            }
        }
    }
    report
}
