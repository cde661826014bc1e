//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENTS: fig2 table3 fig4 fig5 table4 table5 fig6 fig7 fig8 fig9
//!              accuracy all
//!
//! OPTIONS:
//!   --scale <f64>       dataset scale factor (default 1.0)
//!   --threads <list>    comma-separated thread counts (default: 1,2,4,..,max)
//!   --out <dir>         also write JSON reports into <dir>
//!   --mmap              memory-map cached dataset binaries (zero-copy CSR)
//! ```

use et_bench::experiments::{self, Opts};
use et_bench::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const ALL_EXPERIMENTS: [&str; 12] = [
    "fig2", "table3", "fig4", "fig5", "table4", "table5", "fig6", "fig7", "fig8", "fig9",
    "accuracy", "quality",
];

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--scale F] [--threads 1,2,4] [--out DIR] [--mmap] [--trace-out FILE] \
         <experiment>...\n\
         experiments: {} all\n\
         --mmap            memory-map cached dataset binaries instead of decoding them\n\
         \u{20}                  onto the heap (same as ET_MMAP=1; the flag wins on conflict)\n\
         --trace-out FILE  record spans + counters across all experiments and write\n\
         \u{20}                  chrome://tracing JSON to FILE (also enabled by ET_TRACE=1)\n\
         ET_MEM=1          attribute allocation deltas + peaks to pipeline phases",
        ALL_EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut cli_mmap: Option<bool> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.scale = v.parse().unwrap_or_else(|_| usage());
                if opts.scale <= 0.0 {
                    usage();
                }
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| usage());
                opts.threads = v
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().unwrap_or_else(|_| usage()))
                    .collect();
                if opts.threads.is_empty() {
                    usage();
                }
            }
            "--out" => {
                out_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--mmap" => cli_mmap = Some(true),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            exp => wanted.push(exp.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for w in &wanted {
        if !ALL_EXPERIMENTS.contains(&w.as_str()) {
            eprintln!("unknown experiment {w:?}");
            usage();
        }
    }

    et_obs::init_from_env();
    et_obs::init_mem_from_env();
    if trace_out.is_some() {
        et_obs::set_enabled(true);
    }
    // Dataset loading resolves its backend from the environment
    // (`Backend::from_env` inside `et_bench::datasets`), so the resolved
    // mmap choice is written back to ET_MMAP — after the CLI-wins-with-
    // warning resolution, never silently behind the user's back.
    if et_cli::resolve_toggle("mmap", cli_mmap, "ET_MMAP") {
        std::env::set_var("ET_MMAP", "1");
    }
    // Spans and counters are reset per experiment so each report carries
    // only its own metrics; the trace file accumulates everything (the
    // shared epoch keeps the merged timeline monotonic).
    let mut all_events: Vec<et_obs::TraceEvent> = Vec::new();
    let mut all_metrics = et_obs::MetricsSnapshot::default();

    for name in &wanted {
        et_obs::reset();
        let started = std::time::Instant::now();
        let mut report: Report = match name.as_str() {
            "fig2" => experiments::fig2::run(&opts),
            "table3" => experiments::table3::run(&opts),
            "fig4" => experiments::fig4::run(&opts),
            "fig5" => experiments::fig5::run(&opts),
            "table4" => experiments::table4::run(&opts),
            "table5" => experiments::table5::run(&opts),
            "fig6" => experiments::fig6::run(&opts),
            "fig7" => experiments::fig7::run(&opts),
            "fig8" => experiments::fig8::run(&opts),
            "fig9" => experiments::fig9::run(&opts),
            "accuracy" => experiments::accuracy::run(&opts),
            "quality" => experiments::quality::run(&opts),
            _ => unreachable!("validated above"),
        };
        if et_obs::enabled() {
            let snap = et_obs::snapshot();
            all_metrics.merge(&snap);
            report.attach_metrics(snap);
            all_events.append(&mut et_obs::take_events());
        }
        report.print();
        eprintln!(
            "[{name} finished in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &out_dir {
            if let Err(e) = report.save_json(dir, name) {
                eprintln!("warning: could not save {name}.json: {e}");
            }
        }
    }

    if let Some(path) = &trace_out {
        let trace = et_obs::ChromeTrace {
            events: all_events,
            metrics: all_metrics,
        };
        match trace.write(path) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
