//! `bench_e2e` — the end-to-end benchmark runner.
//!
//! ```text
//! bench_e2e --workload W --seed S --seconds T --trace 0|1   one pass of one workload; the
//!                                                           last stdout line is the result
//! bench_e2e [--seed S] [--seconds T] [--smoke]              every workload, both passes;
//!                                                           writes BENCH_e2e.json and the trace
//! bench_e2e --compare A.json B.json                         two artifacts against the bounds
//! ```
//!
//! Exits 1 when an operation or check failed, or when a comparison exceeds a
//! bound; 2 on a usage or I/O error.

use et_e2e::catalog::{self, Workload, WORKLOADS};
use et_e2e::spans::Recorder;
use et_e2e::{layers, prepare, report, timed, Outcome};
use std::process::ExitCode;

/// The seed behind the recorded numbers.
const DEFAULT_SEED: u64 = 20_230_807;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        compare: None,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let mut value = || words.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One pass of one workload; its trace, if any, is appended to `traces`.
fn run_pass(
    workload: &Workload,
    args: &Args,
    trace: bool,
    traces: &mut Vec<String>,
) -> Result<Outcome, String> {
    let sizes = if args.smoke {
        &catalog::SMOKE
    } else {
        &catalog::FULL
    };
    let mut outcome = if trace {
        let mut recorder = Recorder::default();
        let outcome = layers::run(workload, sizes, args.seed, args.seconds, &mut recorder)?;
        traces.push(format!(
            "{{\"workload\": \"{}\", \"spans\": {}}}",
            workload.name,
            recorder.to_json()
        ));
        outcome
    } else {
        timed::run(workload, sizes, args.seed, args.seconds)?
    };
    report::check_metrics(&mut outcome, trace);
    for note in &outcome.notes {
        eprintln!("{}: FAILED: {note}", workload.name);
    }
    Ok(outcome)
}

fn write_output(name: &str, text: &str) -> Result<(), String> {
    let dir = prepare::output_root();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), text))
        .map_err(|e| format!("cannot write {}: {e}", dir.join(name).display()))
}

fn write_traces(traces: &[String]) -> Result<(), String> {
    write_output(
        "BENCH_e2e.trace.json",
        &format!("{{\"traces\": [\n{}\n]}}\n", traces.join(",\n")),
    )
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let read = |path: &String| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        let (table, within) = report::compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(within);
    }
    // One pool thread, one server worker and one client connection per core,
    // never more: with fewer cores than threads the numbers would measure
    // the scheduler.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(cores)
        .build_global()
        .map_err(|e| e.to_string())?;

    let mut traces = Vec::new();
    if let Some(name) = &args.workload {
        let workload =
            catalog::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let outcome = run_pass(workload, args, args.trace, &mut traces)?;
        if args.trace {
            write_traces(&traces)?;
        }
        eprint!("{}", report::table(workload.name, &outcome, args.trace));
        println!("{}", report::result_line(&outcome, args.trace));
        return Ok(outcome.failed == 0);
    }

    let mut entries = Vec::new();
    let mut clean = true;
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let outcome = run_pass(workload, args, trace, &mut traces)?;
            print!("{}", report::table(workload.name, &outcome, trace));
            clean &= outcome.failed == 0;
            entries.push(report::artifact_entry(workload.name, &outcome, trace));
        }
    }
    write_traces(&traces)?;
    write_output(
        "BENCH_e2e.json",
        &report::artifact(args.seed, args.seconds, args.smoke, &entries),
    )?;
    println!(
        "wrote {}",
        prepare::output_root().join("BENCH_e2e.json").display()
    );
    Ok(clean)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
