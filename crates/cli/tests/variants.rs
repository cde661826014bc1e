//! `equitruss build --variant …` at the process boundary: the default build
//! takes Π from the peel, `c-optimal` and `baseline` still run the paper's
//! Shiloach–Vishkin SpNode, and all three write the same bytes.

use std::process::Command;

fn equitruss(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_equitruss"))
        .args(args)
        .output()
        .expect("spawn equitruss");
    assert!(
        out.status.success(),
        "equitruss {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn read_trace(path: &str) -> et_obs::json::Value {
    let text = std::fs::read_to_string(path).expect("trace file");
    et_obs::json::parse(&text).expect("trace is valid JSON")
}

fn counter(trace: &et_obs::json::Value, name: &str) -> u64 {
    trace["metrics"]["counters"][name].as_u64().unwrap_or(0)
}

/// The `from_peel` arg of the build's `SpNodeWave` span.
fn from_peel(trace: &et_obs::json::Value) -> u64 {
    let events = trace["traceEvents"].as_array().expect("traceEvents");
    let wave = events
        .iter()
        .find(|e| e["name"].as_str() == Some("SpNodeWave"))
        .expect("SpNodeWave span");
    wave["args"]["from_peel"].as_u64().expect("from_peel arg")
}

#[test]
fn named_variants_run_sv_and_every_variant_writes_the_same_file() {
    let dir = std::env::temp_dir().join(format!("et-cli-variants-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let graph = path("g.txt");
    equitruss(&["generate", "dblp", "--scale", "0.05", "-o", &graph]);

    let build = |name: &str, variant: &[&str]| {
        let (index, trace) = (
            path(&format!("{name}.etidx")),
            path(&format!("{name}.json")),
        );
        let mut args = vec!["build", &graph, "-o", &index, "--trace-out", &trace];
        args.extend(variant);
        equitruss(&args);
        (std::fs::read(&index).unwrap(), read_trace(&trace))
    };

    let (default_bytes, trace) = build("default", &[]);
    assert_eq!(counter(&trace, "sv.hook_iterations"), 0);
    assert!(counter(&trace, "truss.hook_links") > 0);
    assert_eq!(from_peel(&trace), 1);
    for variant in ["c-optimal", "baseline"] {
        let (bytes, trace) = build(variant, &["--variant", variant]);
        assert!(
            counter(&trace, "sv.hook_iterations") > 0,
            "{variant} ran no SV round"
        );
        assert_eq!(from_peel(&trace), 0, "{variant}");
        assert!(bytes == default_bytes, "{variant}: .etidx differs");
    }
    std::fs::remove_dir_all(&dir).ok();
}
