//! # et-e2e — the end-to-end benchmark of the EquiTruss path
//!
//! One runner, `bench_e2e`, drives the whole path from an edge list on disk
//! to a community answer on a socket through five workloads, on the default
//! arm of every layer. [`timed`] measures the end-to-end metrics with no
//! spans and tracing off; [`layers`] is the separate traced pass that calls
//! the layers one by one and yields the per-layer budget. See `README.md`
//! in this directory for the metric catalogue and how to compare two runs.

#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod inputs;
pub mod layers;
pub mod prepare;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;

use stats::Digest;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub notes: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Format-independent digest of the workload's results.
    pub digest: Digest,
}

impl Outcome {
    /// Counts one operation or check and records its failure, if any.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(message);
            }
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Runs `pass` with the allocation tracker on and returns its result with
/// the peak live heap, in MB, reached since the pass began. Never wraps a
/// timed pass: the tracker costs a few percent.
pub fn with_peak_heap<T>(pass: impl FnOnce() -> T) -> (T, f64) {
    et_obs::set_mem_enabled(true);
    et_obs::reset_mem_stats();
    let window = et_obs::mem_window();
    let value = pass();
    let peak = window.map_or(0, |w| w.finish().peak_bytes);
    et_obs::set_mem_enabled(false);
    (value, peak as f64 / 1e6)
}
