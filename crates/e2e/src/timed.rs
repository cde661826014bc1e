//! The timed runs: end-to-end metrics of each workload, measured with no
//! spans and with ET_TRACE/ET_MEM off.
//!
//! Every run has the same shape: set up [`SETUP_REPS`] times (the median is
//! `setup_s`), warm up, repeat the workload's operation until `seconds`
//! have passed, run one more pass under the allocation tracker for
//! `peak_heap_mb`, and check the outputs. Checks sit between or after the
//! clocked calls, never inside one.

use crate::catalog::{Shape, Sizes, Workload};
use crate::client::{self, Connection, KeySpace, Planned};
use crate::inputs::{query_stream, SplitMix64};
use crate::prepare::{self, Files, Loaded, WorkDir, BACKEND};
use crate::stats::{median, quantile, Digest};
use crate::{with_peak_heap, Outcome};
use et_community::{batch_query_communities, community_stats, query_communities, Community};
use et_core::SuperGraph;
use et_dynamic::{DynamicGraph, DynamicIndex};
use et_graph::EdgeIndexedGraph;
use et_truss::TrussDecomposition;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Passes a run makes at least, however short `seconds` is.
const MIN_REPS: usize = 2;
/// Most edges a batch's answers may hold at once (64 MB of edge ids).
const BATCH_EDGE_CAP: u64 = 16 << 20;
/// Most pairs in one library batch.
const BATCH_PAIR_CAP: usize = 256;

/// Largest graph on which the definitional `verify_decomposition` (about
/// k_max passes over all triangles) stays within a second; above it the
/// trussness is compared with the serial reference peel instead.
const DEFINITIONAL_CHECK_EDGES: usize = 40_000;
/// Queries whose answers go into a build's result digest.
const DIGEST_QUERIES: usize = 64;
/// Default `equitruss serve` answer-cache capacity.
pub const SERVE_CACHE: usize = 4096;

/// Runs `workload` for about `seconds` and returns its end-to-end metrics.
pub fn run(workload: &Workload, sizes: &Sizes, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let dir = WorkDir::create(workload.name)?;
    let mut out = Outcome::default();
    let samples = match workload.name {
        "social-build" | "mesh-build" => {
            build_workload(workload, sizes, seed, seconds, &dir, &mut out)?
        }
        "query-lib" => query_workload(workload, sizes, seed, seconds, &dir, &mut out)?,
        "serve-mixed" => serve_workload(workload, sizes, seed, seconds, &dir, &mut out)?,
        "dynamic-updates" => dynamic_workload(workload, sizes, seed, seconds, &mut out)?,
        other => return Err(format!("no timed run for workload {other:?}")),
    };
    out.metric("setup_s", samples.setup_s);
    out.metric("op_p50_ms", samples.p50_ms);
    out.metric("op_tail_ms", samples.tail_ms);
    out.metric("ops_per_s", samples.ops_per_s);
    out.metric("peak_heap_mb", samples.peak_heap_mb);
    Ok(out)
}

struct Samples {
    setup_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    ops_per_s: f64,
    peak_heap_mb: f64,
}

/// Sets up [`SETUP_REPS`] times; returns the last set-up and the median time.
fn median_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take()); // a set-up may hold a port or a file open
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&mut times)))
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

// ---- social-build, mesh-build ----------------------------------------------

/// FNV-1a of a file's bytes: two builds agree iff their `.etidx` files do.
pub fn file_digest(path: &std::path::Path) -> Result<Digest, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut digest = Digest::default();
    for chunk in bytes.chunks(4) {
        let mut word = [0u8; 4];
        word[..chunk.len()].copy_from_slice(chunk);
        digest.word(u32::from_le_bytes(word));
    }
    Ok(digest)
}

/// Fails unless the `.etidx` on disk hashes to `reference`: every build of
/// one graph, by whatever route, must write the same bytes.
pub fn same_index(files: &Files, reference: Digest, what: &str) -> Result<(), String> {
    if file_digest(&files.index)? == reference {
        Ok(())
    } else {
        Err(format!("{what} wrote a different .etidx"))
    }
}

fn build_workload(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    dir: &WorkDir,
    out: &mut Outcome,
) -> Result<Samples, String> {
    let (files, setup_s) =
        median_setup(|| prepare::write_graph(workload.shape, sizes, seed, dir.path()))?;
    // Warm-up: page cache, allocator arenas, pool threads.
    prepare::build(&files)?;
    let reference = file_digest(&files.index)?;

    let mut walls = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || walls.len() < MIN_REPS {
        let start = Instant::now();
        let built = prepare::build(&files);
        walls.push(ms_since(start));
        out.op(built.and_then(|()| same_index(&files, reference, "a rebuild")));
    }
    let (built, peak_heap_mb) = with_peak_heap(|| prepare::build(&files));
    out.op(built);
    verify_build(&files, out)?;

    let ops_per_s = walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3);
    Ok(Samples {
        setup_s,
        tail_ms: quantile(&mut walls, workload.tail_quantile),
        p50_ms: median(&mut walls),
        ops_per_s,
        peak_heap_mb,
    })
}

/// Folds a query answer into `digest`.
fn digest_answer(digest: &mut Digest, answer: &[Community]) {
    digest.word(answer.len() as u32);
    for community in answer {
        digest.words(&community.edges);
    }
}

/// Checks the index `cmd_build` left on disk against the definitions and
/// folds it into the outcome's digest.
pub fn verify_build(files: &Files, out: &mut Outcome) -> Result<(), String> {
    let loaded = prepare::load(files)?;
    let Loaded {
        graph,
        index,
        trussness,
        hierarchy,
    } = &loaded;
    let decomposition = TrussDecomposition::new(trussness.clone());
    out.op(if graph.num_edges() <= DEFINITIONAL_CHECK_EDGES {
        et_truss::verify_decomposition(graph, &decomposition)
    } else if et_truss::decompose_serial(graph) == decomposition {
        Ok(())
    } else {
        Err("trussness differs from the serial reference peel".to_string())
    });
    out.op(et_core::validate::validate_index(graph, trussness, index));
    out.op(hierarchy.check(index));

    out.digest.words(trussness);
    out.digest.word(index.num_supernodes() as u32);
    out.digest.word(index.num_superedges() as u32);
    out.digest.word(hierarchy.num_nodes() as u32);
    for (v, k) in query_stream(graph, index, DIGEST_QUERIES, 0) {
        digest_answer(
            &mut out.digest,
            &query_communities(graph, index, hierarchy, v, k),
        );
    }
    Ok(())
}

// ---- query-lib ---------------------------------------------------------------

struct QuerySetup {
    files: Files,
    loaded: Loaded,
    stream: Vec<(u32, u32)>,
    /// Per query: number of communities and their total edges, from
    /// `community_stats`, which never materialises an answer.
    expected: Vec<(usize, u64)>,
}

fn check_answer(answer: &[Community], expected: (usize, u64)) -> Result<(), String> {
    let got = (
        answer.len(),
        answer.iter().map(|c| c.edges.len() as u64).sum(),
    );
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "answer has (communities, edges) = {got:?}, community_stats says {expected:?}"
        ))
    }
}

/// Calls `query_communities` once per pair of the stream, one caller;
/// returns the per-call latencies in ms. `digest`, when given, takes every
/// answer's edge ids.
fn latency_pass(
    loaded: &Loaded,
    setup: &QuerySetup,
    out: &mut Outcome,
    mut digest: Option<&mut Digest>,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(setup.stream.len());
    for (&(v, k), &expected) in setup.stream.iter().zip(&setup.expected) {
        let start = Instant::now();
        let answer = black_box(query_communities(
            &loaded.graph,
            &loaded.index,
            &loaded.hierarchy,
            v,
            k,
        ));
        latencies.push(ms_since(start));
        out.op(check_answer(&answer, expected));
        if let Some(digest) = digest.as_deref_mut() {
            digest_answer(digest, &answer);
        }
    }
    latencies
}

/// Splits a stream into batches of at most [`BATCH_PAIR_CAP`] pairs whose
/// answers hold at most [`BATCH_EDGE_CAP`] edges (one pair always fits).
pub fn batch_bounds(answer_edges: &[u64]) -> Vec<std::ops::Range<usize>> {
    let mut bounds = Vec::new();
    let (mut start, mut held) = (0, 0u64);
    for (i, &edges) in answer_edges.iter().enumerate() {
        if i > start && (i - start == BATCH_PAIR_CAP || held + edges > BATCH_EDGE_CAP) {
            bounds.push(start..i);
            (start, held) = (i, 0);
        }
        held += edges;
    }
    if start < answer_edges.len() {
        bounds.push(start..answer_edges.len());
    }
    bounds
}

fn query_workload(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    dir: &WorkDir,
    out: &mut Outcome,
) -> Result<Samples, String> {
    let (setup, setup_s) = median_setup(|| {
        let files = prepare::write_graph(workload.shape, sizes, seed, dir.path())?;
        prepare::build(&files)?;
        let loaded = prepare::load(&files)?;
        let stream = query_stream(&loaded.graph, &loaded.index, sizes.queries, seed);
        let expected = stream
            .iter()
            .map(|&(v, k)| {
                let stats = community_stats(&loaded.graph, &loaded.index, &loaded.hierarchy, v, k);
                (stats.len(), stats.iter().map(|s| s.edges).sum())
            })
            .collect();
        Ok(QuerySetup {
            files,
            loaded,
            stream,
            expected,
        })
    })?;

    // Warm-up pass; its answers make the digest.
    let mut digest = Digest::default();
    latency_pass(&setup.loaded, &setup, out, Some(&mut digest));
    out.digest = digest;

    let answer_edges: Vec<u64> = setup.expected.iter().map(|&(_, edges)| edges).collect();
    let batches = batch_bounds(&answer_edges);
    let (mut p50s, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || p50s.len() < MIN_REPS {
        let mut latencies = latency_pass(&setup.loaded, &setup, out, None);
        tails.push(quantile(&mut latencies, workload.tail_quantile));
        p50s.push(median(&mut latencies));

        let Loaded {
            graph,
            index,
            hierarchy,
            ..
        } = &setup.loaded;
        let mut batch_s = 0.0;
        for range in &batches {
            let start = Instant::now();
            let answers = black_box(batch_query_communities(
                graph,
                index,
                hierarchy,
                &setup.stream[range.clone()],
            ));
            batch_s += start.elapsed().as_secs_f64();
            for (answer, &expected) in answers.iter().zip(&setup.expected[range.clone()]) {
                out.op(check_answer(answer, expected));
            }
        }
        rates.push(setup.stream.len() as f64 / batch_s);
    }

    let (loaded_again, peak_heap_mb) = with_peak_heap(|| {
        prepare::load(&setup.files).map(|loaded| {
            latency_pass(&loaded, &setup, out, None);
        })
    });
    loaded_again?;

    Ok(Samples {
        setup_s,
        p50_ms: median(&mut p50s),
        tail_ms: median(&mut tails),
        ops_per_s: median(&mut rates),
        peak_heap_mb,
    })
}

// ---- serve-mixed -------------------------------------------------------------

/// Client connections of a serve run: half the cores. Each connection keeps
/// one client thread and one server worker busy, so generator and server
/// together put one busy thread on each core. With a connection per core the
/// four threads of a 2-core box take turns, and throughput moves by 15 % from
/// run to run with where the scheduler happens to put them.
pub fn connections() -> usize {
    (rayon::current_num_threads() / 2).max(1)
}

/// A running `et-serve`, stopped when dropped.
pub struct Running(Option<et_serve::Server>);

impl Running {
    /// Starts the server over the pair on disk, as `equitruss serve` does,
    /// with one worker per pool thread.
    pub fn start(files: &Files) -> Result<Running, String> {
        let config = et_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: rayon::current_num_threads(),
        };
        et_cli::start_serve(&files.graph, &files.index, &config, SERVE_CACHE, BACKEND)
            .map(|s| Running(Some(s)))
    }

    /// The server.
    pub fn server(&self) -> &et_serve::Server {
        self.0.as_ref().expect("present until drop")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.stop();
        }
    }
}

struct ServeSetup {
    files: Files,
    /// One request plan per connection.
    plans: Vec<Vec<Planned>>,
    server: Running,
}

/// What one connection saw in one rep.
struct ConnectionLog {
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    epoch: u64,
}

/// Sends every plan once, each connection on its own thread in a closed
/// loop; returns the wall time from the common start to the last response.
fn serve_rep(
    server: &et_serve::Server,
    plans: &[Vec<Planned>],
    epochs: &mut [u64],
    out: &mut Outcome,
) -> Result<(f64, Vec<f64>), String> {
    let addr = server.local_addr();
    let barrier = Barrier::new(plans.len() + 1);
    let (wall_s, logs) = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .zip(epochs.iter())
            .map(|(plan, &epoch)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let connection = Connection::open(addr);
                    barrier.wait();
                    let mut log = ConnectionLog {
                        latencies_ms: Vec::with_capacity(plan.len()),
                        failures: Vec::new(),
                        epoch,
                    };
                    let mut connection = match connection {
                        Ok(c) => c,
                        Err(e) => {
                            // Refused: every request of the plan counts as failed.
                            log.failures = vec![format!("cannot connect: {e}"); plan.len()];
                            return log;
                        }
                    };
                    for request in plan {
                        let start = Instant::now();
                        let response = connection.roundtrip(&request.bytes);
                        log.latencies_ms.push(ms_since(start));
                        let checked = match response {
                            Ok((status, body)) => {
                                client::check_response(request, status, body, &mut log.epoch)
                            }
                            Err(e) => Err(format!("{:?} request failed: {e}", request.kind)),
                        };
                        if let Err(message) = checked {
                            log.failures.push(message);
                        }
                    }
                    log
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (start.elapsed().as_secs_f64(), logs)
    });
    let mut pooled = Vec::new();
    for ((log, plan), epoch) in logs.into_iter().zip(plans).zip(epochs) {
        let log = log.map_err(|_| "a client thread panicked".to_string())?;
        out.attempted += plan.len() as u64 - log.failures.len() as u64;
        for failure in log.failures {
            out.op(Err(failure));
        }
        *epoch = log.epoch;
        pooled.extend(log.latencies_ms);
    }
    Ok((wall_s, pooled))
}

fn serve_workload(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    dir: &WorkDir,
    out: &mut Outcome,
) -> Result<Samples, String> {
    let connections = connections();
    let (setup, setup_s) = median_setup(|| {
        let files = prepare::write_graph(workload.shape, sizes, seed, dir.path())?;
        prepare::build(&files)?;
        let loaded = prepare::load(&files)?;
        // Four keys per cache slot: the Zipf head hits, the tail misses.
        let keys = KeySpace::new(&loaded, 4 * SERVE_CACHE, seed);
        let plans = (0..connections)
            .map(|c| {
                let mut rng = SplitMix64::new(seed, 0x7365_7276 + c as u64);
                let mut plan = client::plan_mix(
                    &loaded,
                    &keys,
                    sizes,
                    sizes.requests_per_rep / connections,
                    &mut rng,
                );
                if c == 0 {
                    // A write beside the reads: snapshot swap and cache
                    // invalidation under load.
                    for at in (sizes.reload_every..plan.len())
                        .step_by(sizes.reload_every)
                        .rev()
                    {
                        plan.insert(at, client::reload_request());
                    }
                }
                plan
            })
            .collect();
        let server = Running::start(&files)?;
        Ok(ServeSetup {
            files,
            plans,
            server,
        })
    })?;

    for request in setup.plans.iter().flatten() {
        out.digest.word(request.kind as u32);
        match &request.expect {
            client::Expect::Communities(n) => out.digest.word(*n as u32),
            client::Expect::Edge(edges) => out.digest.word(edges.map_or(u32::MAX, |e| e as u32)),
            client::Expect::Rows(rows) => rows.iter().for_each(|&n| out.digest.word(n as u32)),
            client::Expect::Reloaded => {}
        }
    }

    let mut epochs = vec![0u64; connections];
    // Warm-up rep: fills the cache, spawns nothing new afterwards.
    serve_rep(setup.server.server(), &setup.plans, &mut epochs, out)?;

    let (mut p50s, mut tails, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || p50s.len() < MIN_REPS {
        let (wall_s, mut latencies) =
            serve_rep(setup.server.server(), &setup.plans, &mut epochs, out)?;
        rates.push(latencies.len() as f64 / wall_s);
        tails.push(quantile(&mut latencies, workload.tail_quantile));
        p50s.push(median(&mut latencies));
    }

    let reloads_per_rep = setup.plans[0]
        .iter()
        .filter(|r| r.kind == client::Kind::Reload)
        .count() as u64;
    let reps = 1 + p50s.len() as u64;
    let published = setup.server.server().shared().swap().epoch();
    out.op(if published == 1 + reps * reloads_per_rep {
        Ok(())
    } else {
        Err(format!(
            "{reps} reps of {reloads_per_rep} reloads left the server at epoch {published}"
        ))
    });

    let (rep, peak_heap_mb) = with_peak_heap(|| {
        let second = Running::start(&setup.files)?;
        serve_rep(
            second.server(),
            &setup.plans,
            &mut vec![0; connections],
            out,
        )
    });
    rep?;

    Ok(Samples {
        setup_s,
        p50_ms: median(&mut p50s),
        tail_ms: median(&mut tails),
        ops_per_s: median(&mut rates),
        peak_heap_mb,
    })
}

// ---- dynamic-updates ---------------------------------------------------------

/// A supernode partition keyed by endpoint pairs, so that indexes living in
/// different edge-id spaces compare equal when they describe the same index.
fn by_endpoints(
    index: &SuperGraph,
    endpoints: impl Fn(u32) -> (u32, u32),
) -> Vec<(u32, Vec<(u32, u32)>)> {
    let mut supernodes: Vec<_> = (0..index.num_supernodes() as u32)
        .map(|sn| {
            let mut members: Vec<_> = index.members(sn).iter().map(|&e| endpoints(e)).collect();
            members.sort_unstable();
            (index.trussness(sn), members)
        })
        .collect();
    supernodes.sort_unstable_by(|a, b| a.1.cmp(&b.1));
    supernodes
}

/// The edges of the graph's most populous trussness class (of 3 and up),
/// which updates draw from. An update rebuilds the levels up to its edge's
/// trussness, so update cost over all edges is a staircase with one step per
/// class, and a median over uniformly drawn edges sits on a step edge that
/// moves between seeds. One class gives one step; the largest is what a
/// uniform draw hits most often.
pub fn busiest_class_edges(graph: &EdgeIndexedGraph, trussness: &[u32]) -> Vec<(u32, u32)> {
    let mut sizes = std::collections::BTreeMap::new();
    for &t in trussness.iter().filter(|&&t| t >= 3) {
        *sizes.entry(t).or_insert(0usize) += 1;
    }
    let busiest = sizes.iter().max_by_key(|&(&k, &n)| (n, k)).map(|(&k, _)| k);
    graph
        .edges()
        .filter(|&(e, _, _)| Some(trussness[e as usize]) == busiest)
        .map(|(_, u, v)| (u, v))
        .collect()
}

/// One cycle: removes `count` seeded live edges, then puts them back in
/// shuffled order. Returns the latencies in ms of the removals and of the
/// insertions, with the `UpdateStats` of every update.
pub fn update_cycle(
    index: &mut DynamicIndex,
    edges: &[(u32, u32)],
    count: usize,
    rng: &mut SplitMix64,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, Vec<et_dynamic::UpdateStats>) {
    let mut picked: Vec<(u32, u32)> = Vec::with_capacity(count);
    while picked.len() < count.min(edges.len()) {
        let edge = edges[rng.below(edges.len() as u64) as usize];
        if !picked.contains(&edge) {
            picked.push(edge);
        }
    }
    let (mut removes, mut inserts, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    for &(u, v) in &picked {
        let start = Instant::now();
        let update = index.remove_edge(u, v);
        removes.push(ms_since(start));
        out.op(update
            .is_some()
            .then_some(())
            .ok_or_else(|| format!("edge ({u},{v}) was not there to remove")));
        stats.extend(update);
    }
    rng.shuffle(&mut picked);
    for &(u, v) in &picked {
        let start = Instant::now();
        let update = index.insert_edge(u, v);
        inserts.push(ms_since(start));
        out.op(update
            .is_some()
            .then_some(())
            .ok_or_else(|| format!("edge ({u},{v}) was already there")));
        stats.extend(update);
    }
    (removes, inserts, stats)
}

/// Checks that the maintained index equals a fresh build of its graph and
/// folds it into the outcome's digest.
pub fn verify_dynamic(index: &DynamicIndex, out: &mut Outcome) {
    let (static_graph, _) = index.graph().to_indexed();
    let fresh = DynamicIndex::build(DynamicGraph::from_indexed(&static_graph));
    let maintained = by_endpoints(index.index(), |e| index.graph().endpoints(e));
    out.op(
        if maintained == by_endpoints(fresh.index(), |e| fresh.graph().endpoints(e))
            && index.index().num_superedges() == fresh.index().num_superedges()
        {
            Ok(())
        } else {
            Err("maintained index differs from a fresh build of the same graph".to_string())
        },
    );
    out.op(
        if static_graph.edges().all(|(e, u, v)| {
            index
                .graph()
                .edge_id(u, v)
                .map(|s| index.trussness()[s as usize])
                == Some(fresh.trussness()[e as usize])
        }) {
            Ok(())
        } else {
            Err("maintained trussness differs from a fresh decomposition".to_string())
        },
    );
    for (k, members) in &maintained {
        out.digest.word(*k);
        for &(u, v) in members {
            out.digest.words(&[u, v]);
        }
    }
    out.digest.word(index.index().num_superedges() as u32);
}

fn dynamic_workload(
    workload: &Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Samples, String> {
    debug_assert_eq!(workload.shape, Shape::CollabDynamic);
    let build = || {
        let graph = EdgeIndexedGraph::try_new(prepare::generate(workload.shape, sizes, seed))
            .map_err(|e| format!("cannot index graph: {e}"))?;
        let index = DynamicIndex::build(DynamicGraph::from_indexed(&graph));
        // Dynamic edge ids equal the CSR ids until the first update.
        let edges = busiest_class_edges(&graph, index.trussness());
        Ok((index, edges))
    };
    let ((mut index, edges), setup_s) = median_setup(&build)?;
    if edges.is_empty() {
        return Err("the graph has no edge of trussness 3 or more to update".to_string());
    }

    let mut rng = SplitMix64::new(seed, 0x6479_6e61);
    // Warm-up cycle.
    update_cycle(&mut index, &edges, sizes.updates_per_cycle, &mut rng, out);

    let mut latencies = Vec::new();
    let mut cycles = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || cycles < MIN_REPS {
        let (removes, inserts, _) =
            update_cycle(&mut index, &edges, sizes.updates_per_cycle, &mut rng, out);
        latencies.extend(removes);
        latencies.extend(inserts);
        cycles += 1;
    }
    verify_dynamic(&index, out);
    drop(index);

    let (cycle, peak_heap_mb) = with_peak_heap(|| {
        build().map(|(mut index, edges)| {
            update_cycle(&mut index, &edges, sizes.updates_per_cycle, &mut rng, out);
        })
    });
    cycle?;

    let ops_per_s = latencies.len() as f64 / (latencies.iter().sum::<f64>() / 1e3);
    Ok(Samples {
        setup_s,
        tail_ms: quantile(&mut latencies, workload.tail_quantile),
        p50_ms: median(&mut latencies),
        ops_per_s,
        peak_heap_mb,
    })
}
