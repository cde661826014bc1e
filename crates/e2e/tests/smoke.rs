//! The runner end to end at `--smoke` sizes, and `BENCHMARK.json` against
//! the catalogue it repeats.

use et_e2e::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn read_json(path: &Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {value:?}"))
}

fn items<'a>(value: &'a Value, key: &str) -> &'a Vec<Value> {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no array {key}"))
}

fn is_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_repeats_the_catalogue() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = read_json(&manifest.join("../../BENCHMARK.json"));

    let paths: Vec<&str> = items(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["crates/e2e"]);

    let workloads = items(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, ours) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(listed, "name"), ours.name);
        assert_eq!(text(listed, "why"), ours.why);
        assert!(
            ours.why.len() <= 200 && !ours.why.contains('\n'),
            "{}",
            ours.name
        );
    }

    let end_to_end = items(&doc, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, ours) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(listed, "name"), ours.name);
        assert_eq!(text(listed, "unit"), ours.unit);
        assert_eq!(text(listed, "better"), ours.better.as_str());
        assert_eq!(
            listed.get("bound").and_then(Value::as_f64),
            Some(ours.bound)
        );
        assert!(ours.bound <= 0.25);
    }

    let per_layer = items(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, ours) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(listed, "name"), ours.name);
        assert_eq!(text(listed, "unit"), ours.unit);
        assert_eq!(text(listed, "better"), ours.better.as_str());
    }

    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    assert!(
        names.iter().all(|n| is_name(n)),
        "a name breaks [A-Za-z0-9][A-Za-z0-9_.-]*"
    );
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

#[test]
fn smoke_run_emits_exactly_the_catalogue() {
    // The runner writes under CARGO_TARGET_DIR; give it the test's own.
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let run = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--smoke", "--seconds", "0.5", "--seed", "7"])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("run bench_e2e");
    assert!(
        run.status.success(),
        "bench_e2e --smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let doc = read_json(&target.join("e2e/BENCH_e2e.json"));
    assert!(doc.get("claim").is_some_and(Value::is_null));
    let stamp = doc.get("stamp").expect("stamp");
    assert!(
        stamp.get("threads").and_then(Value::as_u64) <= stamp.get("cores").and_then(Value::as_u64)
    );

    let results = items(&doc, "results");
    assert_eq!(results.len(), 2 * WORKLOADS.len());
    for (i, result) in results.iter().enumerate() {
        let workload = &WORKLOADS[i / 2];
        let traced = i % 2 == 1;
        assert_eq!(text(result, "workload"), workload.name);
        assert_eq!(
            result.get("trace").and_then(Value::as_u64),
            Some(u64::from(traced))
        );
        assert_eq!(
            result.get("ops_failed").and_then(Value::as_u64),
            Some(0),
            "{}",
            workload.name
        );
        assert!(result.get("ops_attempted").and_then(Value::as_u64) > Some(0));

        let expected: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(
            metrics.len(),
            expected.len(),
            "{} emits metrics outside the catalogue",
            workload.name
        );
        for name in expected {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{}: {name} = {value:?}",
                workload.name
            );
        }
    }

    let spans = read_json(&target.join("e2e/BENCH_e2e.trace.json"));
    let traces = items(&spans, "traces");
    assert_eq!(traces.len(), WORKLOADS.len());
    assert!(traces.iter().all(|t| !items(t, "spans").is_empty()));
}

#[test]
fn compare_flags_a_regression_beyond_its_bound() {
    let artifact = |p50: f64| {
        format!(
            "{{\"seed\": 1, \"results\": [{{\"workload\": \"query-lib\", \"trace\": 0, \"result_digest\": \"00\", \
             \"metrics\": {{\"setup_s\": {{\"value\": 1.0}}, \"op_p50_ms\": {{\"value\": {p50}}}, \
             \"op_tail_ms\": {{\"value\": 2.0}}, \"ops_per_s\": {{\"value\": 100.0}}, \
             \"peak_heap_mb\": {{\"value\": 5.0}}}}}}]}}"
        )
    };
    let (_, within) = et_e2e::report::compare(&artifact(1.0), &artifact(1.05)).unwrap();
    assert!(within, "5 % is inside the bound of op_p50_ms");
    let (table, within) = et_e2e::report::compare(&artifact(1.0), &artifact(1.2)).unwrap();
    assert!(!within && table.contains("EXCEEDS"), "{table}");
    let (_, within) = et_e2e::report::compare(&artifact(1.2), &artifact(1.0)).unwrap();
    assert!(within, "an improvement is never a regression");
}
