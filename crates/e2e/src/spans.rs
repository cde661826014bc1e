//! In-memory spans of the traced pass, written out when the run ends.
//!
//! The benchmark wraps each call into a layer of the program in a span;
//! spans inside the program are a later change. A layer's *self time* is its
//! span minus the part its children cover.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, matching the per-layer metric it feeds.
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created; 0 while open.
    pub end_us: f64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Shared by all spans of one build, query, request or update.
    pub op: u64,
}

/// Collects spans; not shared between threads (the traced pass has one caller).
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: 0.0,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns how long it was open.
    pub fn end(&mut self, id: usize) -> Duration {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        Duration::from_secs_f64((end_us - span.start_us) / 1e6)
    }

    /// Records children of `parent` whose durations were measured elsewhere
    /// (the `KernelTimings` sub-kernels the program reports for `core.index`,
    /// the updates of one cycle), laid out back to back from the parent's
    /// start.
    pub fn reported_children(&mut self, parent: usize, children: &[(&'static str, Duration)]) {
        let op = self.spans[parent].op;
        let mut at = self.spans[parent].start_us;
        for &(name, took) in children {
            let end_us = at + took.as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                start_us: at,
                end_us,
                parent: Some(parent),
                op,
            });
            at = end_us;
        }
    }

    /// The spans as a JSON array, one object per span, `self_us` included.
    pub fn to_json(&self) -> String {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}, \"self_us\": {:.1}}}",
                s.name,
                s.op,
                s.start_us,
                s.end_us,
                (s.end_us - s.start_us - child_us[i]).max(0.0),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
