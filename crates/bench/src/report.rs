//! Tabular experiment reports: aligned console output + JSON persistence.

use et_core::timings::Kernel;
use et_obs::json::quote_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A titled table of experiment results.
#[derive(Clone, Debug)]
pub struct Report {
    /// Which paper artifact this reproduces (e.g. "Figure 5").
    pub title: String,
    /// Free-form context: dataset scale, thread counts, caveats.
    pub notes: Vec<String>,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (pre-formatted strings).
    pub rows: Vec<Vec<String>>,
    /// Per-configuration kernel timings (label → per-kernel seconds),
    /// machine-readable counterpart of the formatted duration cells.
    pub timings: BTreeMap<String, et_core::KernelTimings>,
    /// Observability counters recorded while the experiment ran (present
    /// only when tracing was enabled).
    pub metrics: Option<et_obs::MetricsSnapshot>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            title: title.into(),
            notes: Vec::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            timings: BTreeMap::new(),
            metrics: None,
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Appends a data row.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Records the kernel timings behind one row/configuration, keyed by a
    /// human-readable label (e.g. `"afforest/t8"`).
    pub fn attach_timings(&mut self, label: impl Into<String>, timings: et_core::KernelTimings) {
        self.timings.insert(label.into(), timings);
    }

    /// Attaches the metrics snapshot captured for this experiment. Empty
    /// snapshots (tracing off) are dropped so the JSON stays clean.
    pub fn attach_metrics(&mut self, snapshot: et_obs::MetricsSnapshot) {
        if !snapshot.is_empty() {
            self.metrics = Some(snapshot);
        }
    }

    /// Renders as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for n in &self.notes {
            out.push_str(&format!("   {n}\n"));
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// The report as a JSON object: `title`, `notes`, `headers`, `rows`,
    /// then `timings` (label → seconds per kernel, with the
    /// `index_construction` / `total` rollups and, where memory was tracked,
    /// a `mem` map) and `metrics`, each only when there is something in it.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"title\": ");
        quote_into(&mut out, &self.title);
        out.push_str(",\n  \"notes\": ");
        json_strings(&mut out, &self.notes);
        out.push_str(",\n  \"headers\": ");
        json_strings(&mut out, &self.headers);
        out.push_str(",\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json_strings(&mut out, row);
        }
        out.push_str("\n  ]");
        if !self.timings.is_empty() {
            out.push_str(",\n  \"timings\": {");
            for (i, (label, timings)) in self.timings.iter().enumerate() {
                out.push_str(if i == 0 { "\n    " } else { ",\n    " });
                quote_into(&mut out, label);
                out.push_str(": ");
                json_timings(&mut out, timings);
            }
            out.push_str("\n  }");
        }
        if let Some(metrics) = &self.metrics {
            out.push_str(",\n  \"metrics\": ");
            out.push_str(&metrics.to_json());
        }
        out.push_str("\n}\n");
        out
    }

    /// Persists the report as JSON under `dir/<slug>.json`.
    pub fn save_json(&self, dir: &Path, slug: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{slug}.json")), self.to_json())
    }
}

/// Appends `items` as a JSON array of strings.
fn json_strings(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        quote_into(out, item);
    }
    out.push(']');
}

/// Appends one configuration's kernel timings as a JSON object.
fn json_timings(out: &mut String, t: &et_core::KernelTimings) {
    let seconds = [
        ("support", t.support),
        ("truss_decomp", t.truss_decomp),
        ("init", t.init),
        ("spnode", t.spnode),
        ("spedge", t.spedge),
        ("smgraph", t.smgraph),
        ("spnode_remap", t.spnode_remap),
        ("hierarchy", t.hierarchy),
        ("index_construction", t.index_construction()),
        ("total", t.total()),
    ];
    out.push('{');
    for (i, (name, duration)) in seconds.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(out, "{sep}\"{name}\": {:?}", duration.as_secs_f64()).unwrap();
    }
    let mem: Vec<String> = Kernel::ALL
        .iter()
        .map(|kernel| (kernel.name(), &t.mem[kernel.index()]))
        .filter(|(_, mem)| !mem.is_zero())
        .map(|(name, mem)| {
            format!(
                "\"{name}\": {{\"alloc_bytes\": {}, \"peak_bytes\": {}}}",
                mem.alloc_bytes, mem.peak_bytes
            )
        })
        .collect();
    if !mem.is_empty() {
        write!(out, ", \"mem\": {{{}}}", mem.join(", ")).unwrap();
    }
    out.push('}');
}

/// Formats a duration in adaptive units (µs/ms/s) for table cells.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("Test", &["name", "value"]);
        r.push_row(vec!["a-long-name".into(), "1".into()]);
        r.push_row(vec!["b".into(), "12345".into()]);
        let s = r.render();
        assert!(s.contains("== Test =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows must align on the second column.
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1').unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = Report::new("t", &["a", "b"]);
        r.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn duration_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
    }

    #[test]
    fn json_roundtrip() {
        let mut r = Report::new("t", &["a"]);
        r.note("hello");
        r.push_row(vec!["x".into()]);
        let dir = std::env::temp_dir().join("et-bench-report-test");
        r.save_json(&dir, "t").unwrap();
        let loaded = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(loaded.contains("hello"));
        // Empty timings/metrics are skipped entirely.
        assert!(!loaded.contains("timings"));
        assert!(!loaded.contains("metrics"));
    }

    #[test]
    fn timings_serialize_as_seconds() {
        let mut r = Report::new("t \"quoted\"", &["a"]);
        let mut kt = et_core::KernelTimings {
            spnode: Duration::from_millis(1500),
            support: Duration::from_millis(250),
            ..Default::default()
        };
        r.attach_timings("orkut/afforest/t8", kt);
        let json = r.to_json();
        assert!(json.contains(r#""title": "t \"quoted\"""#), "{json}");
        assert!(
            json.contains(r#""orkut/afforest/t8": {"support": 0.25, "#),
            "{json}"
        );
        assert!(
            json.contains(r#""spnode": 1.5, "spedge": 0.0, "smgraph": 0.0, "#),
            "{json}"
        );
        assert!(
            json.contains(r#""index_construction": 1.5, "total": 1.75}"#),
            "{json}"
        );
        assert!(!json.contains("mem"), "{json}");

        kt.mem[Kernel::SpNode.index()].alloc_bytes = 64;
        kt.mem[Kernel::SpNode.index()].peak_bytes = 128;
        r.attach_timings("orkut/afforest/t8", kt);
        let mem = r#""total": 1.75, "mem": {"SpNode": {"alloc_bytes": 64, "peak_bytes": 128}}}"#;
        assert!(r.to_json().contains(mem), "{}", r.to_json());
    }

    #[test]
    fn metrics_attach_and_serialize() {
        let mut r = Report::new("t", &["a"]);
        // Empty snapshots are dropped.
        r.attach_metrics(et_obs::MetricsSnapshot::default());
        assert!(r.metrics.is_none());
        let mut snap = et_obs::MetricsSnapshot::default();
        snap.counters.insert("sv.grafts".into(), 42);
        r.attach_metrics(snap);
        let json = r.to_json();
        assert!(
            json.contains(r#""metrics": {"counters": {"sv.grafts": 42}"#),
            "{json}"
        );
    }
}
