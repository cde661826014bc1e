//! Chrome-trace (`chrome://tracing` / Perfetto) JSON assembly.
//!
//! The export is the "JSON Object Format": a top-level object whose
//! `traceEvents` array holds one complete event (`"ph": "X"`) per span,
//! with the metrics snapshot riding along under a `metrics` key (unknown
//! top-level keys are ignored by trace viewers).

use crate::json::quote_into;
use crate::metrics::MetricsSnapshot;
use crate::span::TraceEvent;
use std::io;
use std::path::Path;

/// A drained set of span events plus a metrics snapshot, ready for export.
#[derive(Clone, Debug, Default)]
pub struct ChromeTrace {
    /// Completed spans (chrome-trace complete events).
    pub events: Vec<TraceEvent>,
    /// Counter/distribution state captured alongside the spans.
    pub metrics: MetricsSnapshot,
}

impl ChromeTrace {
    /// Serializes into chrome-trace JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 128);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str("    {\"name\": ");
            quote_into(&mut out, &e.name);
            out.push_str(&format!(
                ", \"cat\": \"equitruss\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}",
                e.ts, e.dur, e.tid
            ));
            if !e.args.is_empty() {
                out.push_str(", \"args\": {");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    quote_into(&mut out, k);
                    out.push_str(&format!(": {v}"));
                }
                out.push('}');
            }
            out.push('}');
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n  \"metrics\": ");
        self.metrics.write_json(&mut out);
        out.push_str("\n}\n");
        out
    }

    /// Writes the JSON to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Drains the buffered spans and snapshots the metrics into one export unit.
pub fn capture_trace() -> ChromeTrace {
    ChromeTrace {
        events: crate::take_events(),
        metrics: crate::snapshot(),
    }
}

/// Convenience: [`capture_trace`] and write it to `path`.
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    capture_trace().write(path)
}
