//! What the runner prints and writes: the driver's result line, the
//! stamped artifact of a full run, and the comparison of two artifacts.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::Outcome;
use std::fmt::Write as _;

/// The catalogue's `(name, unit)` pairs for one pass.
fn catalogue(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Checks that `outcome` holds exactly the catalogue's metrics for the pass,
/// each finite; anything else counts as a failed check.
pub fn check_metrics(outcome: &mut Outcome, trace: bool) {
    let names = catalogue(trace);
    for &(name, _) in &names {
        let values: Vec<f64> = outcome
            .metrics
            .iter()
            .filter(|m| m.0 == name)
            .map(|m| m.1)
            .collect();
        if values.len() != 1 || !values[0].is_finite() {
            outcome.op(Err(format!(
                "metric {name} has values {values:?}, expected one finite number"
            )));
        }
    }
    let extra: Vec<_> = outcome
        .metrics
        .iter()
        .map(|m| m.0)
        .filter(|name| !names.iter().any(|n| n.0 == *name))
        .collect();
    if !extra.is_empty() {
        outcome.op(Err(format!("metrics outside the catalogue: {extra:?}")));
    }
}

fn metrics_json(outcome: &Outcome, trace: bool) -> String {
    let fields: Vec<String> = catalogue(trace)
        .into_iter()
        .map(|(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map_or(0.0, |m| m.1);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(outcome, trace)
    )
}

/// Every metric by name with its unit, one per line.
pub fn table(workload: &str, outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{workload} [{}] ops_attempted {} ops_failed {} result_digest {:016x}\n",
        if trace { "traced pass" } else { "timed" },
        outcome.attempted,
        outcome.failed,
        outcome.digest.0
    );
    for (name, unit) in catalogue(trace) {
        if let Some(m) = outcome.metrics.iter().find(|m| m.0 == name) {
            let _ = writeln!(out, "  {name:<36} {:>16.4} {unit}", m.1);
        }
    }
    out
}

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    et_serve::json::escape_into(&mut out, text);
    out.push('"');
    out
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    // `output` waits for the child, so no process outlives the call.
    let output = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    output.status.success().then(|| {
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// Where and how the numbers were measured, as a JSON object.
pub fn stamp() -> String {
    let unknown = || "unknown".to_string();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = rayon::current_num_threads();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let git_rev =
        first_line_of("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(unknown);
    let rustc = first_line_of("rustc", &["--version"]).unwrap_or_else(unknown);
    format!(
        "{{\"cores\": {cores}, \"threads\": {threads}, \"serve_workers\": {threads}, \
         \"connections\": {}, \"features\": \"default\", \"git_rev\": {}, \
         \"rustc\": {}, \"cpu\": {}, \"et_trace\": false, \"et_mem\": false}}",
        crate::timed::connections(),
        json_string(&git_rev),
        json_string(&rustc),
        json_string(&cpu)
    )
}

/// One workload's pass inside the artifact.
pub fn artifact_entry(workload: &str, outcome: &Outcome, trace: bool) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"trace\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \
         \"result_digest\": \"{:016x}\", \"metrics\": {}}}",
        u8::from(trace),
        outcome.attempted,
        outcome.failed,
        outcome.digest.0,
        metrics_json(outcome, trace)
    )
}

/// The artifact of a full run: `BENCH_e2e.json`.
pub fn artifact(seed: u64, seconds: f64, smoke: bool, entries: &[String]) -> String {
    format!(
        "{{\n\"benchmark\": \"bench_e2e\",\n\"claim\": null,\n\"seed\": {seed},\n\"seconds\": {seconds},\n\
         \"smoke\": {smoke},\n\"stamp\": {},\n\"results\": [\n{}\n]\n}}\n",
        stamp(),
        entries.join(",\n")
    )
}

/// Compares the timed passes of two artifacts metric by metric. Returns the
/// table and whether every pair is within its bound.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let parse =
        |text: &str| serde_json::from_str::<serde_json::Value>(text).map_err(|e| e.to_string());
    let (a, b) = (parse(a)?, parse(b)?);
    let timed = |doc: &serde_json::Value| -> Result<Vec<serde_json::Value>, String> {
        Ok(doc
            .get("results")
            .and_then(|r| r.as_array())
            .ok_or("artifact has no results array")?
            .iter()
            .filter(|entry| entry.get("trace").and_then(|t| t.as_u64()) == Some(0))
            .cloned()
            .collect())
    };
    let same_seed =
        a.get("seed").and_then(|s| s.as_u64()) == b.get("seed").and_then(|s| s.as_u64());
    let mut table = format!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut within = true;
    for entry_a in timed(&a)? {
        let name = entry_a
            .get("workload")
            .and_then(|w| w.as_str())
            .unwrap_or("?");
        let entries_b = timed(&b)?;
        let Some(entry_b) = entries_b
            .iter()
            .find(|e| e.get("workload") == entry_a.get("workload"))
        else {
            let _ = writeln!(table, "{name:<16} missing from B");
            within = false;
            continue;
        };
        if same_seed && entry_a.get("result_digest") != entry_b.get("result_digest") {
            let _ = writeln!(table, "{name:<16} result_digest differs for the same seed");
            within = false;
        }
        for metric in &END_TO_END {
            let value = |entry: &serde_json::Value| {
                entry
                    .get("metrics")
                    .and_then(|m| m.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("{name} has no {}", metric.name))
            };
            let (va, vb) = (value(&entry_a)?, value(entry_b)?);
            // Positive when B is worse than A, as a share of A.
            let worse = match metric.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let flag = if worse > metric.bound {
                "  EXCEEDS"
            } else {
                ""
            };
            within &= worse <= metric.bound;
            let _ = writeln!(
                table,
                "{name:<16} {:<13} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.0}%{flag}",
                metric.name,
                worse * 100.0,
                metric.bound * 100.0
            );
        }
    }
    Ok((table, within))
}
