//! `equitruss` — build, persist, inspect, and query EquiTruss indexes.

use et_cli::{
    cmd_build, cmd_generate, cmd_info, cmd_query, cmd_query_batch, cmd_stats, parse_variant,
    resolve_toggle,
};
use et_graph::Backend;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         equitruss generate <profile> [--scale F] -o <graph.{{txt|bin}}>\n  \
         equitruss stats <graph>\n  \
         equitruss info <file.{{bin|etidx}}>\n  \
         equitruss build <graph> -o <index.etidx> [--variant baseline|coptimal|afforest]\n  \
         equitruss query <graph> <index.etidx> -v <vertex> -k <level>\n  \
         equitruss query <graph> <index.etidx> --batch <file>\n  \
         equitruss serve <graph> <index.etidx> [--addr HOST:PORT] [--workers N]\n  \
         \x20               [--cache-size N]\n\n\
         serve: HTTP/JSON query service (/query /edge /batch /stats /healthz /reload);\n  \
         \x20      ET_SERVE_ADDR, ET_SERVE_WORKERS, ET_SERVE_CACHE_SIZE are the flags'\n  \
         \x20      environment twins; --cache-size 0 serves without the response cache\n\n\
         options (any command):\n  \
         --mmap                     memory-map .bin graphs and .etidx indexes (zero-copy)\n  \
         ET_MMAP=1                  same as --mmap, via the environment\n  \
         --trace-out <trace.json>   record spans + counters, write chrome://tracing JSON\n  \
         ET_TRACE=1                 enable tracing without writing a file\n  \
         ET_MEM=1                   attribute allocation deltas + peaks to pipeline phases\n\n\
         CLI flags always win over conflicting environment settings (with a warning)."
    );
    std::process::exit(2);
}

/// Flags that take no value (presence alone means \"on\").
const BOOLEAN_FLAGS: &[&str] = &["mmap"];
/// Flags that take the next token as their value.
const VALUE_FLAGS: &[&str] = &[
    "scale",
    "variant",
    "batch",
    "addr",
    "workers",
    "cache-size",
    "trace-out",
];

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

fn parse_args(raw: Vec<String>) -> Args {
    let mut positional = Vec::new();
    let mut flags = std::collections::HashMap::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "1".to_string());
                continue;
            }
            // An unknown flag must not swallow the next token as its value.
            if !VALUE_FLAGS.contains(&name) {
                eprintln!("unknown option --{name}\n");
                usage();
            }
            let value = it.next().unwrap_or_else(|| usage());
            flags.insert(name.to_string(), value);
        } else if a == "-o" || a == "-v" || a == "-k" {
            let value = it.next().unwrap_or_else(|| usage());
            flags.insert(a[1..].to_string(), value);
        } else {
            positional.push(a);
        }
    }
    Args { positional, flags }
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1).collect());
    if args.positional.is_empty() {
        usage();
    }
    let get_flag = |name: &str| args.flags.get(name).cloned();
    let require_flag = |name: &str| get_flag(name).unwrap_or_else(|| usage());

    et_obs::init_from_env();
    et_obs::init_mem_from_env();
    let trace_out = get_flag("trace-out").map(PathBuf::from);
    if trace_out.is_some() {
        et_obs::set_enabled(true);
    }
    // CLI flags win over their environment twins; a disagreement warns.
    let cli_mmap = args.flags.contains_key("mmap").then_some(true);
    let backend = if resolve_toggle("mmap", cli_mmap, "ET_MMAP") {
        Backend::Mapped
    } else {
        Backend::Owned
    };

    let result = match args.positional[0].as_str() {
        "generate" => {
            let profile = args.positional.get(1).unwrap_or_else(|| usage()).clone();
            let scale: f64 = get_flag("scale")
                .map(|s| s.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(1.0);
            cmd_generate(&profile, scale, &PathBuf::from(require_flag("o")))
        }
        "stats" => {
            let graph = args.positional.get(1).unwrap_or_else(|| usage()).clone();
            cmd_stats(&PathBuf::from(graph), backend)
        }
        "info" => {
            let file = args.positional.get(1).unwrap_or_else(|| usage()).clone();
            cmd_info(&PathBuf::from(file))
        }
        "build" => {
            let graph = args.positional.get(1).unwrap_or_else(|| usage()).clone();
            let variant = match get_flag("variant") {
                Some(v) => match parse_variant(&v) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => et_core::Variant::Afforest,
            };
            cmd_build(
                &PathBuf::from(graph),
                &PathBuf::from(require_flag("o")),
                variant,
                et_core::SupportKernel::default(),
                backend,
            )
        }
        "serve" => {
            let graph = args.positional.get(1).unwrap_or_else(|| usage()).clone();
            let index = args.positional.get(2).unwrap_or_else(|| usage()).clone();
            // Each setting falls back to its ET_SERVE_* twin.
            let addr = get_flag("addr")
                .or_else(|| std::env::var("ET_SERVE_ADDR").ok())
                .unwrap_or_else(|| "127.0.0.1:7474".to_string());
            let workers: usize = get_flag("workers")
                .or_else(|| std::env::var("ET_SERVE_WORKERS").ok())
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(16);
            let cache_size: usize = get_flag("cache-size")
                .or_else(|| std::env::var("ET_SERVE_CACHE_SIZE").ok())
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(4096);
            let config = et_serve::ServeConfig { addr, workers };
            match et_cli::start_serve(
                &PathBuf::from(graph),
                &PathBuf::from(index),
                &config,
                cache_size,
                backend,
            ) {
                Ok(server) => {
                    eprintln!(
                        "serving on http://{} ({} workers, cache {})",
                        server.local_addr(),
                        workers,
                        if cache_size > 0 {
                            format!("{cache_size} entries")
                        } else {
                            "off".to_string()
                        }
                    );
                    eprintln!("endpoints: /query /edge /batch /stats /healthz /reload");
                    server.join();
                    return ExitCode::SUCCESS;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "query" => {
            let graph = args.positional.get(1).unwrap_or_else(|| usage()).clone();
            let index = args.positional.get(2).unwrap_or_else(|| usage()).clone();
            if let Some(batch) = get_flag("batch") {
                cmd_query_batch(
                    &PathBuf::from(graph),
                    &PathBuf::from(index),
                    &PathBuf::from(batch),
                    backend,
                )
            } else {
                let v: u32 = require_flag("v").parse().unwrap_or_else(|_| usage());
                let k: u32 = require_flag("k").parse().unwrap_or_else(|_| usage());
                cmd_query(&PathBuf::from(graph), &PathBuf::from(index), v, k, backend)
            }
        }
        _ => usage(),
    };

    // One greppable line per pipeline phase so CI can assert on phase
    // memory (e.g. `phase-mem: Ingest ...` stays O(1) under --mmap).
    if et_obs::mem_tracking_active() {
        for p in et_obs::mem_phase_stats() {
            eprintln!(
                "phase-mem: {} alloc_bytes={} alloc_count={} peak_bytes={}",
                p.name, p.alloc_bytes, p.alloc_count, p.peak_bytes
            );
        }
    }

    match result {
        Ok(out) => {
            println!("{out}");
            if let Some(path) = trace_out {
                match et_obs::write_chrome_trace(&path) {
                    Ok(()) => eprintln!("trace written to {}", path.display()),
                    Err(e) => {
                        eprintln!("error: cannot write trace: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
