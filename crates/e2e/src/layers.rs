//! The traced pass: the per-layer budget of one workload's graph.
//!
//! The workload's input goes down the whole path once more, with the
//! benchmark calling each layer's public entry point itself inside a span:
//! ingest, Support, peel, index, hierarchy, persist, load, then queries,
//! the server (through the socket and through `et_serve::handle`), and the
//! dynamic index. Every workload therefore reports every layer, on its own
//! shape. Counts repeat exactly for a seed; times are medians or means of
//! this pass alone.

use crate::catalog::{Shape, Sizes, Workload};
use crate::client::{self, Connection, KeySpace, Kind};
use crate::inputs::{query_stream, SplitMix64};
use crate::prepare::{self, Files, Loaded, WorkDir, BACKEND, VARIANT};
use crate::spans::Recorder;
use crate::stats::{mean, median, quantile};
use crate::timed::{
    batch_bounds, busiest_class_edges, file_digest, same_index, update_cycle, verify_dynamic,
    Running, SERVE_CACHE,
};
use crate::Outcome;
use et_community::{
    batch_query_communities, community_of_edge, community_stats, count_communities,
    query_communities,
};
use et_core::{KernelTimings, SupportKernel, TrussHierarchy};
use et_dynamic::{DynamicGraph, DynamicIndex};
use et_graph::EdgeIndexedGraph;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of `seconds` the build reps may use; the other sections are sized
/// by counts so that exact metrics repeat.
const BUILD_SHARE: f64 = 0.4;
/// Builds timed under each observer for the `obs.*_overhead_pct` rows.
const OBSERVER_BUILDS: usize = 3;
/// Edge queries timed for `community.edge_query_us`.
const EDGE_QUERIES: usize = 256;
/// Samples in ms per span name.
#[derive(Default)]
struct Tally(BTreeMap<&'static str, Vec<f64>>);

impl Tally {
    fn add(&mut self, name: &'static str, took: Duration) {
        self.add_ms(name, took.as_secs_f64() * 1e3);
    }

    fn add_ms(&mut self, name: &'static str, ms: f64) {
        self.0.entry(name).or_default().push(ms);
    }

    fn samples(&mut self, name: &str) -> &mut [f64] {
        self.0.get_mut(name).map_or(&mut [], Vec::as_mut_slice)
    }

    /// Median of `name`'s samples; a layer that never ran is a failed check.
    fn median(&mut self, name: &str, out: &mut Outcome) -> f64 {
        let samples = self.samples(name);
        if samples.is_empty() {
            out.op(Err(format!("the traced pass took no sample of {name}")));
            return 0.0;
        }
        median(samples)
    }

    /// Reports the median of `key`'s samples, times `scale`, as `metric`.
    fn report(&mut self, out: &mut Outcome, metric: &'static str, key: &str, scale: f64) {
        let value = self.median(key, out) * scale;
        out.metric(metric, value);
    }
}

/// Runs the traced pass of `workload`; spans go to `rec`.
pub fn run(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<Outcome, String> {
    let dir = WorkDir::create(&format!("{}-traced", workload.name))?;
    let files = prepare::write_graph(workload.shape, sizes, seed, dir.path())?;
    let mut out = Outcome::default();
    let loaded = build_layers(&files, seconds * BUILD_SHARE, rec, &mut out)?;
    community_layer(&loaded, sizes, seed, rec, &mut out)?;
    serve_layer(&files, &loaded, sizes, seed, rec, &mut out)?;
    dynamic_layer(&loaded, workload, sizes, seed, rec, &mut out);
    Ok(out)
}

// ---- graph, triangle, truss, core --------------------------------------------

/// What one layered build found, for the exact-count metrics.
struct BuildCounts {
    triangles: u64,
    k_max: u32,
    phi_groups: usize,
    supernodes: usize,
    superedges: usize,
    hierarchy_nodes: usize,
}

/// The steps of `cmd_build`, each in its own span under `build.layered`.
fn layered_build(
    files: &Files,
    op: u64,
    rec: &mut Recorder,
    ms: &mut Tally,
) -> Result<BuildCounts, String> {
    let root = rec.begin("build.layered", None, op);
    let counts = {
        let step = |rec: &mut Recorder, name: &'static str| rec.begin(name, Some(root), op);

        let id = step(rec, "graph.read");
        let csr = et_graph::io::read_graph_with(&files.graph, BACKEND)
            .map_err(|e| format!("cannot load {}: {e}", files.graph.display()))?;
        ms.add("graph.read", rec.end(id));

        let id = step(rec, "graph.edge_index");
        let graph =
            EdgeIndexedGraph::try_new(csr).map_err(|e| format!("cannot index graph: {e}"))?;
        ms.add("graph.edge_index", rec.end(id));

        let id = step(rec, "triangle.support");
        let support = SupportKernel::default().compute(&graph);
        ms.add("triangle.support", rec.end(id));
        let triangles = support.iter().map(|&s| u64::from(s)).sum::<u64>() / 3;

        let id = step(rec, "truss.peel");
        let decomposition = et_truss::parallel::decompose_parallel_with_support(&graph, support);
        ms.add("truss.peel", rec.end(id));

        let id = step(rec, "core.index");
        let mut timings = KernelTimings::default();
        let index =
            et_core::build_index_with_decomposition(&graph, &decomposition, VARIANT, &mut timings);
        ms.add("core.index", rec.end(id));
        // Program-reported: the out-parameter `build_index_with_decomposition`
        // fills. `core.spnode` is the et-cc edge-CC engine.
        let kernels = [
            ("core.init", timings.init),
            ("core.spnode", timings.spnode),
            ("core.spedge", timings.spedge),
            ("core.smgraph", timings.smgraph),
            ("core.remap", timings.spnode_remap),
        ];
        rec.reported_children(id, &kernels);
        for (name, took) in kernels {
            ms.add(name, took);
        }

        let id = step(rec, "core.hierarchy");
        let hierarchy = TrussHierarchy::build(&index);
        ms.add("core.hierarchy", rec.end(id));

        let id = step(rec, "core.write");
        et_core::io::write_index_with_hierarchy(
            &index,
            &decomposition.trussness,
            &hierarchy,
            &files.index,
        )
        .map_err(|e| format!("cannot write index: {e}"))?;
        ms.add("core.write", rec.end(id));

        BuildCounts {
            triangles,
            k_max: decomposition.max_trussness,
            phi_groups: decomposition
                .class_histogram()
                .iter()
                .filter(|&&(k, _)| k >= 3)
                .count(),
            supernodes: index.num_supernodes(),
            superedges: index.num_superedges(),
            hierarchy_nodes: hierarchy.num_nodes(),
        }
        // The graph, index and hierarchy drop here, inside `build.layered`,
        // as they do inside `cmd_build`.
    };
    ms.add("build.layered", rec.end(root));
    Ok(counts)
}

fn timed_build(files: &Files) -> Result<Duration, String> {
    let start = Instant::now();
    prepare::build(files)?;
    Ok(start.elapsed())
}

/// Median wall time in ms of [`OBSERVER_BUILDS`] `cmd_build` calls made with
/// one of the `et-obs` observers switched on.
fn observed_build_ms(files: &Files, switch: fn(bool)) -> Result<f64, String> {
    switch(true);
    let walls: Result<Vec<f64>, String> = (0..OBSERVER_BUILDS)
        .map(|_| timed_build(files).map(|took| took.as_secs_f64() * 1e3))
        .collect();
    switch(false);
    Ok(median(&mut walls?))
}

/// Alternates plain `cmd_build` calls with layer-by-layer builds for
/// `budget_s`, then times the 1-thread baseline and the observers.
fn build_layers(
    files: &Files,
    budget_s: f64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<Loaded, String> {
    let graph_bytes = std::fs::metadata(&files.graph)
        .map_err(|e| e.to_string())?
        .len();
    let mut ms = Tally::default();
    // Warm-up, and the bytes every later build must reproduce.
    prepare::build(files)?;
    let reference = file_digest(&files.index)?;
    let same_file = |out: &mut Outcome, what: &str| out.op(same_index(files, reference, what));

    let mut counts = None;
    let started = Instant::now();
    let mut reps = 0;
    while started.elapsed().as_secs_f64() < budget_s || reps < 2 {
        ms.add("build.wall", timed_build(files)?);
        same_file(out, "cmd_build");
        counts = Some(layered_build(files, reps, rec, &mut ms)?);
        same_file(out, "the layer-by-layer build");
        reps += 1;
    }
    let counts = counts.expect("at least two reps ran");

    let id = rec.begin("core.load", None, reps);
    let (index, trussness, hierarchy) = et_core::io::read_index_with_hierarchy(&files.index)
        .map_err(|e| format!("cannot load index: {e}"))?;
    ms.add("core.load", rec.end(id));
    let loaded = Loaded {
        graph: et_cli::load_graph_with(&files.graph, BACKEND)?,
        index,
        trussness: trussness.to_vec(),
        hierarchy,
    };

    // The plain single-threaded baseline of the same build.
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let t1 = one.install(|| timed_build(files))?;
    same_file(out, "the 1-thread build");

    // What the observers cost when switched on; no end-to-end metric pays it.
    let traced_ms = observed_build_ms(files, et_obs::set_enabled)?;
    et_obs::reset();
    let tracked_ms = observed_build_ms(files, et_obs::set_mem_enabled)?;

    let wall = ms.median("build.wall", out);
    let pct_over_wall = |ms: f64| (ms - wall) / wall * 100.0;
    let layer_names = [
        "graph.read",
        "graph.edge_index",
        "triangle.support",
        "truss.peel",
        "core.index",
        "core.hierarchy",
        "core.write",
    ];
    let mut layers_sum = 0.0;
    for name in layer_names {
        layers_sum += ms.median(name, out);
    }
    let read_ms = ms.median("graph.read", out);
    let support_ms = ms.median("triangle.support", out);
    let peel_ms = ms.median("truss.peel", out);
    let index_bytes = std::fs::metadata(&files.index)
        .map_err(|e| e.to_string())?
        .len();

    out.metric("graph.read_ms", read_ms);
    out.metric(
        "graph.read_mbps",
        graph_bytes as f64 / 1e6 / (read_ms / 1e3),
    );
    ms.report(out, "graph.edge_index_ms", "graph.edge_index", 1.0);
    out.metric("triangle.support_ms", support_ms);
    out.metric("triangle.triangles", counts.triangles as f64);
    out.metric(
        "triangle.mtriangles_per_s",
        counts.triangles as f64 / 1e6 / (support_ms / 1e3),
    );
    out.metric("truss.peel_ms", peel_ms);
    out.metric("truss.k_max", f64::from(counts.k_max));
    out.metric(
        "truss.medges_per_s",
        files.edges as f64 / 1e6 / (peel_ms / 1e3),
    );
    ms.report(out, "core.index_ms", "core.index", 1.0);
    ms.report(out, "core.init_ms", "core.init", 1.0);
    ms.report(out, "core.spnode_ms", "core.spnode", 1.0);
    ms.report(out, "core.spedge_ms", "core.spedge", 1.0);
    ms.report(out, "core.smgraph_ms", "core.smgraph", 1.0);
    ms.report(out, "core.remap_ms", "core.remap", 1.0);
    out.metric("core.phi_groups", counts.phi_groups as f64);
    out.metric("core.supernodes", counts.supernodes as f64);
    out.metric("core.superedges", counts.superedges as f64);
    ms.report(out, "core.hierarchy_ms", "core.hierarchy", 1.0);
    out.metric("core.hierarchy_nodes", counts.hierarchy_nodes as f64);
    ms.report(out, "core.write_ms", "core.write", 1.0);
    out.metric("core.etidx_bytes", index_bytes as f64);
    out.metric(
        "core.etidx_bytes_per_edge",
        index_bytes as f64 / files.edges as f64,
    );
    ms.report(out, "core.load_ms", "core.load", 1.0);
    out.metric("build.wall_ms", wall);
    out.metric("build.layers_sum_ms", layers_sum);
    out.metric("build.unattributed_pct", (wall - layers_sum) / wall * 100.0);
    let layered = ms.median("build.layered", out);
    out.metric("build.trace_overhead_pct", (layered - wall) / wall * 100.0);
    out.metric("build.t1_wall_ms", t1.as_secs_f64() * 1e3);
    out.metric("obs.et_trace_overhead_pct", pct_over_wall(traced_ms));
    out.metric("obs.mem_track_overhead_pct", pct_over_wall(tracked_ms));
    Ok(loaded)
}

// ---- community ----------------------------------------------------------------

fn community_layer(
    loaded: &Loaded,
    sizes: &Sizes,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let Loaded {
        graph,
        index,
        trussness,
        hierarchy,
    } = loaded;
    let stream = query_stream(graph, index, sizes.queries, seed);
    let mut us = Tally::default();
    let (mut answer_edges, mut total_edges) = (Vec::with_capacity(stream.len()), 0u64);
    for (op, &(v, k)) in stream.iter().enumerate() {
        let op = op as u64;
        let id = rec.begin("community.resolve", None, op);
        let communities = black_box(count_communities(graph, index, hierarchy, v, k));
        us.add("resolve", rec.end(id));

        let id = rec.begin("community.stats", None, op);
        let stats = black_box(community_stats(graph, index, hierarchy, v, k));
        us.add("stats", rec.end(id));

        let id = rec.begin("community.query", None, op);
        let answer = black_box(query_communities(graph, index, hierarchy, v, k));
        us.add("query", rec.end(id));

        let edges: u64 = answer.iter().map(|c| c.edges.len() as u64).sum();
        out.op(
            if communities == answer.len() && stats.iter().map(|s| s.edges).sum::<u64>() == edges {
                Ok(())
            } else {
                Err(format!("count, stats and answer of ({v}, {k}) disagree"))
            },
        );
        answer_edges.push(edges);
        total_edges += edges;
    }

    let mut rng = SplitMix64::new(seed, 0x6564_6765);
    for op in 0..EDGE_QUERIES.min(graph.num_edges()) {
        let e = rng.below(graph.num_edges() as u64) as u32;
        let k = 3 + rng.below(u64::from(trussness[e as usize].max(3)) - 2) as u32;
        let id = rec.begin("community.edge_query", None, (stream.len() + op) as u64);
        let answer = black_box(community_of_edge(graph, index, hierarchy, e, k));
        us.add("edge_query", rec.end(id));
        out.op(if answer.is_some() == (trussness[e as usize] >= k) {
            Ok(())
        } else {
            Err(format!(
                "edge {e} of trussness {} at k = {k}",
                trussness[e as usize]
            ))
        });
    }

    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let id = rec.begin("community.batch_t1", None, 0);
    one.install(|| {
        for range in batch_bounds(&answer_edges) {
            black_box(batch_query_communities(
                graph,
                index,
                hierarchy,
                &stream[range],
            ));
        }
    });
    let batch_s = rec.end(id).as_secs_f64();

    // Tally holds ms; these metrics are in us.
    let resolve_us = mean(us.samples("resolve")) * 1e3;
    let query_us = mean(us.samples("query")) * 1e3;
    out.metric("community.resolve_us", resolve_us);
    out.metric("community.stats_us", mean(us.samples("stats")) * 1e3);
    out.metric("community.materialize_us", query_us - resolve_us);
    out.metric(
        "community.edges_per_query",
        total_edges as f64 / stream.len() as f64,
    );
    out.metric(
        "community.materialize_ns_per_edge",
        (query_us - resolve_us) * 1e3 * stream.len() as f64 / total_edges.max(1) as f64,
    );
    us.report(out, "community.query_p50_us", "query", 1e3);
    out.metric(
        "community.query_p99_us",
        quantile(us.samples("query"), 0.99) * 1e3,
    );
    out.metric(
        "community.edge_query_us",
        mean(us.samples("edge_query")) * 1e3,
    );
    out.metric("community.batch_qps_t1", stream.len() as f64 / batch_s);
    Ok(())
}

// ---- serve --------------------------------------------------------------------

fn serve_layer(
    files: &Files,
    loaded: &Loaded,
    sizes: &Sizes,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let keys = KeySpace::new(loaded, 4 * SERVE_CACHE, seed);
    let mut rng = SplitMix64::new(seed, 0x7472_6163);
    let mut plan = client::plan_mix(loaded, &keys, sizes, sizes.traced_requests, &mut rng);
    let reloads = 2;
    for i in (1..=reloads).rev() {
        plan.insert(i * plan.len() / (reloads + 1), client::reload_request());
    }
    let mut us = Tally::default();
    // Tally keys by `Kind`; the first four are metric names.
    const RTT: [&str; 5] = [
        "serve.rtt_p50_us.query",
        "serve.rtt_p50_us.members",
        "serve.rtt_p50_us.edge",
        "serve.rtt_p50_us.batch",
        "serve.rtt.reload",
    ];
    const HANDLE: [&str; 5] = [
        "serve.handle_us.query",
        "serve.handle_us.members",
        "serve.handle_us.edge",
        "serve.handle_us.batch",
        "serve.handle.reload",
    ];

    // Through the socket: one keep-alive connection, one request at a time.
    let running = Running::start(files)?;
    let server = running.server();
    let mut connection =
        Connection::open(server.local_addr()).map_err(|e| format!("cannot connect: {e}"))?;
    let mut epoch = 0;
    for (op, request) in plan.iter().enumerate() {
        let id = rec.begin("serve.rtt", None, op as u64);
        let response = connection.roundtrip(&request.bytes);
        us.add(RTT[request.kind as usize], rec.end(id));
        out.op(match response {
            Ok((status, body)) => client::check_response(request, status, body, &mut epoch),
            Err(e) => Err(format!("{:?} request failed: {e}", request.kind)),
        });
    }
    let (_, stats) = connection
        .roundtrip(b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("/stats failed: {e}"))?;
    let stats: serde_json::Value = std::str::from_utf8(stats)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))?;
    let cache = |field: &str| {
        stats
            .get("serve")
            .and_then(|s| s.get("cache"))
            .and_then(|c| c.get(field))
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("/stats has no serve.cache.{field}"))
    };
    let (hits, misses) = (cache("hits")?, cache("misses")?);
    let epochs = server.shared().swap().epoch();
    let errors = server
        .shared()
        .metrics()
        .errors
        .load(std::sync::atomic::Ordering::Relaxed);
    out.op(if epochs == 1 + reloads as u64 {
        Ok(())
    } else {
        Err(format!(
            "{reloads} reloads left the server at epoch {epochs}"
        ))
    });
    drop(connection);
    drop(running);

    // The same requests through the public entry points, no socket.
    let state = et_serve::ServeState::load(&files.graph, &files.index, BACKEND)?;
    let spec = et_serve::ReloadSpec {
        graph: files.graph.clone(),
        index: files.index.clone(),
        backend: BACKEND,
    };
    let shared = et_serve::SharedIndex::new(state, SERVE_CACHE, Some(spec));
    let mut snapshot = et_serve::Snapshot::new(shared.swap());
    let mut sink = Vec::new();
    let mut epoch = 0;
    for (op, planned) in plan.iter().enumerate() {
        let root = rec.begin("serve.request", None, op as u64);
        let id = rec.begin("serve.parse", Some(root), op as u64);
        let request = et_serve::http::read_request(&mut planned.bytes.as_slice());
        us.add("parse", rec.end(id));
        let request = request.map_err(|e| format!("own request does not parse: {e:?}"))?;

        let id = rec.begin("serve.handle", Some(root), op as u64);
        let state = std::sync::Arc::clone(snapshot.get(shared.swap()));
        let (status, body) = et_serve::handle(&shared, &state, &request);
        us.add(HANDLE[planned.kind as usize], rec.end(id));

        sink.clear();
        let id = rec.begin("serve.write", Some(root), op as u64);
        let written = et_serve::http::write_response(&mut sink, status, &body, true);
        us.add("write", rec.end(id));
        rec.end(root);
        out.op(written
            .map_err(|e| e.to_string())
            .and_then(|()| client::check_response(planned, status, body.as_bytes(), &mut epoch)));
    }

    for kind in [Kind::Query, Kind::Members, Kind::Edge, Kind::Batch] {
        let rtt = us.median(RTT[kind as usize], out) * 1e3;
        let handle = us.median(HANDLE[kind as usize], out) * 1e3;
        out.metric(RTT[kind as usize], rtt);
        out.metric(HANDLE[kind as usize], handle);
        if kind == Kind::Query {
            out.metric("serve.transport_us", rtt - handle);
        }
    }
    out.metric("serve.parse_us", mean(us.samples("parse")) * 1e3);
    out.metric("serve.write_us", mean(us.samples("write")) * 1e3);
    out.metric(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64 * 100.0,
    );
    out.metric("serve.reload_ms", mean(us.samples("serve.rtt.reload")));
    out.metric("serve.epochs", epochs as f64);
    out.metric("serve.errors", errors as f64);
    Ok(())
}

// ---- dynamic --------------------------------------------------------------------

fn dynamic_layer(
    loaded: &Loaded,
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let id = rec.begin("dynamic.build", None, 0);
    let mut index = DynamicIndex::build(DynamicGraph::from_indexed(&loaded.graph));
    let build = rec.end(id);

    // Each update is a full decomposition today, so graphs larger than the
    // dynamic workload's own get only a few.
    let count = if workload.shape == Shape::CollabDynamic {
        sizes.updates_per_cycle
    } else {
        sizes.traced_updates
    };
    let mut rng = SplitMix64::new(seed, 0x6479_6e61);
    let id = rec.begin("dynamic.cycle", None, 1);
    let (removes, inserts, stats) = update_cycle(
        &mut index,
        &busiest_class_edges(&loaded.graph, &loaded.trussness),
        count,
        &mut rng,
        out,
    );
    rec.end(id);
    let as_spans = |name: &'static str, ms: &[f64]| -> Vec<(&'static str, Duration)> {
        ms.iter()
            .map(|&ms| (name, Duration::from_secs_f64(ms / 1e3)))
            .collect()
    };
    rec.reported_children(
        id,
        &[
            as_spans("dynamic.remove", &removes),
            as_spans("dynamic.insert", &inserts),
        ]
        .concat(),
    );

    // Today's floor per update: one full parallel decomposition.
    let (static_graph, _) = index.graph().to_indexed();
    let id = rec.begin("dynamic.full_recompute", None, 2);
    black_box(et_truss::decompose_parallel(&static_graph));
    let recompute = rec.end(id);
    verify_dynamic(&index, out);

    let per_update = |f: fn(&et_dynamic::UpdateStats) -> usize| {
        stats.iter().map(f).sum::<usize>() as f64 / stats.len().max(1) as f64
    };
    out.metric("dynamic.build_ms", build.as_secs_f64() * 1e3);
    let mut ms = Tally::default();
    removes.iter().for_each(|&took| ms.add_ms("remove", took));
    inserts.iter().for_each(|&took| ms.add_ms("insert", took));
    ms.report(out, "dynamic.insert_p50_ms", "insert", 1.0);
    ms.report(out, "dynamic.remove_p50_ms", "remove", 1.0);
    out.metric("dynamic.full_recompute_ms", recompute.as_secs_f64() * 1e3);
    out.metric(
        "dynamic.rebuilt_levels_per_update",
        per_update(|s| s.rebuilt_levels.len()),
    );
    out.metric(
        "dynamic.reused_levels_per_update",
        per_update(|s| s.reused_levels.len()),
    );
    out.metric(
        "dynamic.tau_changes_per_update",
        per_update(|s| s.tau_changes),
    );
}
