//! # et-serve — concurrent query service over a hot-swappable index
//!
//! The EquiTruss index answers a `(vertex, k)` community query in
//! microseconds; this crate puts a network front-end on it. A hand-rolled
//! HTTP/1.1 server (plain `std::net` + a worker-thread pool — no async
//! runtime, no new dependencies) exposes:
//!
//! | endpoint   | method | answer                                            |
//! |------------|--------|---------------------------------------------------|
//! | `/query`   | GET    | communities of `v` at level `k` (sizes, optional members) |
//! | `/edge`    | GET    | size of the community containing edge `(u, v)` at level `k` |
//! | `/batch`   | POST   | community counts and sizes of many `(v, k)` queries |
//! | `/stats`   | GET    | index shape + serving counters + latency percentiles |
//! | `/healthz` | GET    | liveness + current index epoch                    |
//! | `/reload`  | POST   | re-read the graph/`.etidx` pair and publish it    |
//!
//! Rebuilds publish atomically through [`Swap`]: readers hold a per-worker
//! [`Snapshot`] and re-clone the `Arc` only when the lock-free epoch load
//! shows a publish happened, so the steady-state read path never takes a
//! lock. A bounded [`Lru`] caches rendered bodies for hot `(vertex, k)`
//! pairs; entries are epoch-stamped so a stale answer can never survive a
//! publish. Every request is traced through `et-obs` when tracing is on.
//!
//! No endpoint builds an answer it does not print: `/query`, `/edge` and
//! `/batch` report sizes from hierarchy climbs and per-node aggregates, and
//! `/query?members=1` — the one body that lists members — marks endpoints
//! straight off the community's leaf slices and renders them in place.

#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod json;
pub mod state;
pub mod swap;

pub use cache::Lru;
pub use state::ServeState;
pub use swap::{Snapshot, Swap};

use et_community::{
    batch_community_stats, community_stats, community_vertices, edge_community_stats,
};
use et_graph::Backend;
use et_obs::json::Value;
use et_obs::Log2Histogram;
use http::{ParseError, Request};
use json::{Arr, Obj};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The endpoints with dedicated latency histograms, in index order.
pub const ENDPOINT_NAMES: [&str; 7] = [
    "query", "edge", "batch", "stats", "healthz", "reload", "other",
];

fn endpoint_index(path: &str) -> usize {
    match path {
        "/query" => 0,
        "/edge" => 1,
        "/batch" => 2,
        "/stats" => 3,
        "/healthz" => 4,
        "/reload" => 5,
        _ => 6,
    }
}

/// Always-on serving counters plus per-endpoint latency log2 histograms.
/// Mirrored into `et-obs` (`serve.requests`, `serve.batch_size`,
/// `serve.cache_hits`, `serve.latency_us.<endpoint>`) when tracing is
/// enabled.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Total requests handled (all endpoints).
    pub requests: AtomicU64,
    /// Responses with a non-2xx status.
    pub errors: AtomicU64,
    /// `/query` answers served straight from the LRU.
    pub cache_hits: AtomicU64,
    /// `/query` answers that had to be computed.
    pub cache_misses: AtomicU64,
    /// Individual `(v, k)` queries carried inside `/batch` requests.
    pub batch_queries: AtomicU64,
    latency: [Log2Histogram; 7],
}

impl ServeMetrics {
    fn record(&self, endpoint: usize, status: u16, micros: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !(200..300).contains(&status) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency[endpoint].record(micros);
        if et_obs::enabled() {
            et_obs::counter_add("serve.requests", 1);
            et_obs::record_value(
                &format!("serve.latency_us.{}", ENDPOINT_NAMES[endpoint]),
                micros,
            );
        }
    }

    /// The latency histogram of one endpoint (see [`ENDPOINT_NAMES`]).
    pub fn latency(&self, endpoint: usize) -> &Log2Histogram {
        &self.latency[endpoint]
    }
}

/// Where `/reload` re-reads the serving state from.
#[derive(Clone, Debug)]
pub struct ReloadSpec {
    /// Graph file (`.txt` / `.bin`).
    pub graph: PathBuf,
    /// Index file (`.etidx`).
    pub index: PathBuf,
    /// Storage backend for both loads.
    pub backend: Backend,
}

type CacheKey = (u32, u32, bool);

#[derive(Clone)]
struct CachedBody {
    epoch: u64,
    body: Arc<String>,
}

/// The shared serving core: the hot-swappable state, the answer cache, and
/// the counters. One per server; cheap to share via `Arc`.
pub struct SharedIndex {
    swap: Swap<ServeState>,
    cache: Mutex<Lru<CacheKey, CachedBody>>,
    /// The cache's fixed capacity, readable without its lock: a server run
    /// with capacity 0 answers `/query` without ever taking the mutex.
    cache_capacity: usize,
    metrics: ServeMetrics,
    reload: Option<ReloadSpec>,
}

impl SharedIndex {
    /// Wraps `state` as epoch 1 with a cache of `cache_capacity` entries
    /// (0 disables caching).
    pub fn new(mut state: ServeState, cache_capacity: usize, reload: Option<ReloadSpec>) -> Self {
        state.epoch = 1;
        SharedIndex {
            swap: Swap::new(state),
            cache: Mutex::new(Lru::new(cache_capacity)),
            cache_capacity,
            metrics: ServeMetrics::default(),
            reload,
        }
    }

    /// Publishes a rebuilt state atomically and invalidates the cache.
    /// Returns the new epoch.
    pub fn publish(&self, mut state: ServeState) -> u64 {
        let epoch = self.swap.publish_with(|epoch| {
            state.epoch = epoch;
            state
        });
        // A racing reader may still insert an old-epoch body after this
        // clear; the epoch stamp on every entry makes that harmless (it
        // reads as a miss and is overwritten).
        self.cache().clear();
        epoch
    }

    /// The swap handle (epoch inspection, direct loads in tests).
    pub fn swap(&self) -> &Swap<ServeState> {
        &self.swap
    }

    /// The serving counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The LRU's lock, whether or not a holder panicked. A poisoned cache is
    /// emptied rather than trusted — entries are epoch-stamped, so a cold
    /// cache is always a correct one — and the poison flag is cleared, so one
    /// panicking request costs the others a few misses, not the server.
    fn cache(&self) -> MutexGuard<'_, Lru<CacheKey, CachedBody>> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            guard.clear();
            self.cache.clear_poison();
            guard
        })
    }

    fn cache_get(&self, key: &CacheKey, epoch: u64) -> Option<Arc<String>> {
        if self.cache_capacity == 0 {
            return None;
        }
        match self.cache().get(key) {
            Some(entry) if entry.epoch == epoch => {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                if et_obs::enabled() {
                    et_obs::counter_add("serve.cache_hits", 1);
                }
                Some(Arc::clone(&entry.body))
            }
            _ => {
                self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn cache_put(&self, key: CacheKey, epoch: u64, body: Arc<String>) {
        if self.cache_capacity == 0 {
            return;
        }
        self.cache().put(key, CachedBody { epoch, body });
    }
}

fn error_body(message: &str) -> String {
    Obj::new().str("error", message).end()
}

fn handle_query(shared: &SharedIndex, state: &ServeState, req: &Request) -> (u16, Arc<String>) {
    let (v, k) = match (req.param_u32("v"), req.param_u32("k")) {
        (Ok(v), Ok(k)) => (v, k),
        (Err(e), _) | (_, Err(e)) => return (400, Arc::new(error_body(&e))),
    };
    let members = matches!(req.params.get("members").map(String::as_str), Some("1"));
    let key = (v, k, members);
    if let Some(body) = shared.cache_get(&key, state.epoch) {
        return (200, body);
    }
    let stats = community_stats(&state.graph, &state.index, &state.hierarchy, v, k);
    let mut stats_arr = Arr::new();
    for s in &stats {
        stats_arr.raw(
            &Obj::new()
                .u64("supernodes", u64::from(s.supernodes))
                .u64("edges", s.edges)
                .end(),
        );
    }
    let mut doc = Obj::new()
        .u64("epoch", state.epoch)
        .u64("v", u64::from(v))
        .u64("k", u64::from(k))
        .u64("communities", stats.len() as u64)
        .raw("stats", &stats_arr.end());
    if members {
        let vertices = community_vertices(&state.graph, &state.index, &state.hierarchy, v, k);
        doc = doc.with("members", |out| {
            json::push_array(out, &vertices, |out, community| {
                json::push_u32_array(out, community)
            })
        });
    }
    let body = Arc::new(doc.end());
    shared.cache_put(key, state.epoch, Arc::clone(&body));
    (200, body)
}

fn handle_edge(state: &ServeState, req: &Request) -> (u16, String) {
    let (u, v, k) = match (req.param_u32("u"), req.param_u32("v"), req.param_u32("k")) {
        (Ok(u), Ok(v), Ok(k)) => (u, v, k),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return (400, error_body(&e)),
    };
    let Some(e) = state.graph.edge_id(u, v) else {
        return (
            404,
            error_body(&format!("edge ({u}, {v}) is not in the graph")),
        );
    };
    let base = Obj::new()
        .u64("epoch", state.epoch)
        .u64("u", u64::from(u))
        .u64("v", u64::from(v))
        .u64("k", u64::from(k));
    let body = match edge_community_stats(&state.graph, &state.index, &state.hierarchy, e, k) {
        Some(stats) => base
            .bool("found", true)
            .u64("supernodes", u64::from(stats.supernodes))
            .u64("edges", stats.edges)
            .end(),
        None => base.bool("found", false).end(),
    };
    (200, body)
}

/// Upper bound on `(v, k)` pairs per `/batch` request.
pub const MAX_BATCH: usize = 65_536;

/// Parses a `/batch` body: `{"queries": [[v, k], ...]}`.
fn parse_batch(body: &[u8]) -> Result<Vec<(u32, u32)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = et_obs::json::parse(text).map_err(|e| format!("bad batch body: {e}"))?;
    let items = doc
        .get("queries")
        .and_then(|q| q.as_array())
        .ok_or_else(|| "batch body must be {\"queries\": [[v, k], ...]}".to_string())?;
    if items.len() > MAX_BATCH {
        return Err(format!(
            "batch of {} queries exceeds the limit of {MAX_BATCH}",
            items.len()
        ));
    }
    let id = |x: &Value| x.as_u64().and_then(|x| u32::try_from(x).ok());
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let pair = match item.as_array() {
                Some([v, k]) => id(v).zip(id(k)),
                _ => None,
            };
            pair.ok_or_else(|| format!("queries[{i}] must be a [v, k] pair of u32s"))
        })
        .collect()
}

fn handle_batch(shared: &SharedIndex, state: &ServeState, req: &Request) -> (u16, String) {
    let queries = match parse_batch(&req.body) {
        Ok(q) => q,
        Err(e) => return (400, error_body(&e)),
    };
    shared
        .metrics
        .batch_queries
        .fetch_add(queries.len() as u64, Ordering::Relaxed);
    if et_obs::enabled() {
        et_obs::record_value("serve.batch_size", queries.len() as u64);
    }
    let results = batch_community_stats(&state.graph, &state.index, &state.hierarchy, &queries);
    let mut rows = Arr::new();
    for stats in &results {
        rows.raw(
            &Obj::new()
                .u64("communities", stats.len() as u64)
                .u64("edges", stats.iter().map(|s| s.edges).sum::<u64>())
                .end(),
        );
    }
    let body = Obj::new()
        .u64("epoch", state.epoch)
        .raw("results", &rows.end())
        .end();
    (200, body)
}

fn handle_stats(shared: &SharedIndex, state: &ServeState) -> (u16, String) {
    let m = &shared.metrics;
    let mut latency = Obj::new();
    for (i, name) in ENDPOINT_NAMES.iter().enumerate() {
        let h = &m.latency[i];
        if h.is_empty() {
            continue;
        }
        latency = latency.raw(
            name,
            &Obj::new()
                .u64("count", h.count())
                .u64_opt("p50_us", h.percentile(0.50))
                .u64_opt("p99_us", h.percentile(0.99))
                .end(),
        );
    }
    let cache_entries = shared.cache().len();
    let body = Obj::new()
        .u64("epoch", state.epoch)
        .raw(
            "graph",
            &Obj::new()
                .u64("vertices", state.graph.num_vertices() as u64)
                .u64("edges", state.graph.num_edges() as u64)
                .end(),
        )
        .raw(
            "index",
            &Obj::new()
                .u64("supernodes", state.index.num_supernodes() as u64)
                .u64("superedges", state.index.num_superedges() as u64)
                .end(),
        )
        .raw(
            "hierarchy",
            &Obj::new()
                .u64("nodes", state.hierarchy.num_nodes() as u64)
                .end(),
        )
        .raw(
            "serve",
            &Obj::new()
                .u64("requests", m.requests.load(Ordering::Relaxed))
                .u64("errors", m.errors.load(Ordering::Relaxed))
                .u64("batch_queries", m.batch_queries.load(Ordering::Relaxed))
                .raw(
                    "cache",
                    &Obj::new()
                        .u64("hits", m.cache_hits.load(Ordering::Relaxed))
                        .u64("misses", m.cache_misses.load(Ordering::Relaxed))
                        .u64("capacity", shared.cache_capacity as u64)
                        .u64("entries", cache_entries as u64)
                        .end(),
                )
                .raw("latency_us", &latency.end())
                .end(),
        )
        .end();
    (200, body)
}

fn handle_reload(shared: &SharedIndex) -> (u16, String) {
    let Some(spec) = &shared.reload else {
        return (
            400,
            error_body("reload not configured (server was started from an in-memory index)"),
        );
    };
    match ServeState::load(&spec.graph, &spec.index, spec.backend) {
        Ok(state) => {
            let epoch = shared.publish(state);
            (200, Obj::new().bool("ok", true).u64("epoch", epoch).end())
        }
        Err(e) => (503, error_body(&format!("reload failed: {e}"))),
    }
}

/// Routes one parsed request against a snapshot of the serving state.
/// Exposed for in-process tests; the server calls this per request.
pub fn handle(shared: &SharedIndex, state: &Arc<ServeState>, req: &Request) -> (u16, Arc<String>) {
    let wrong_method = |allowed: &str| {
        (
            405,
            Arc::new(error_body(&format!(
                "{} requires the {allowed} method",
                req.path
            ))),
        )
    };
    match (req.path.as_str(), req.method.as_str()) {
        ("/healthz", _) => (
            200,
            Arc::new(Obj::new().bool("ok", true).u64("epoch", state.epoch).end()),
        ),
        ("/query", "GET") => handle_query(shared, state, req),
        ("/query", _) => wrong_method("GET"),
        ("/edge", "GET") => {
            let (s, b) = handle_edge(state, req);
            (s, Arc::new(b))
        }
        ("/edge", _) => wrong_method("GET"),
        ("/batch", "POST") => {
            let (s, b) = handle_batch(shared, state, req);
            (s, Arc::new(b))
        }
        ("/batch", _) => wrong_method("POST"),
        ("/stats", "GET") => {
            let (s, b) = handle_stats(shared, state);
            (s, Arc::new(b))
        }
        ("/stats", _) => wrong_method("GET"),
        ("/reload", "POST") => {
            let (s, b) = handle_reload(shared);
            (s, Arc::new(b))
        }
        ("/reload", _) => wrong_method("POST"),
        (path, _) => (
            404,
            Arc::new(error_body(&format!("no such endpoint {path}"))),
        ),
    }
}

/// Server configuration (see also the `ET_SERVE_*` environment variables
/// resolved by the `equitruss serve` subcommand).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7474`; port 0 picks a free port.
    pub addr: String,
    /// Worker threads — also the maximum number of concurrent connections,
    /// since each worker serves one keep-alive connection at a time.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7474".to_string(),
            workers: 16,
        }
    }
}

/// A running server: worker threads accepting on a shared listener.
pub struct Server {
    shared: Arc<SharedIndex>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

/// How long a worker blocks waiting for the next request on an idle
/// keep-alive connection before re-checking the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn serve_connection(
    stream: TcpStream,
    shared: &SharedIndex,
    snapshot: &mut Snapshot<ServeState>,
    shutdown: &AtomicBool,
) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_POLL)).ok();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(req) => req,
            Err(ParseError::Closed) => return,
            Err(ParseError::Io(e)) if is_timeout(&e) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(ParseError::Io(_)) => return,
            Err(ParseError::Bad(msg)) => {
                http::write_response(&mut writer, 400, &error_body(&msg), false).ok();
                return;
            }
            Err(ParseError::TooLarge) => {
                http::write_response(&mut writer, 413, &error_body("body too large"), false).ok();
                return;
            }
        };
        let started = Instant::now();
        let state = Arc::clone(snapshot.get(shared.swap()));
        let (status, body) = handle(shared, &state, &req);
        let micros = started.elapsed().as_micros() as u64;
        shared
            .metrics
            .record(endpoint_index(&req.path), status, micros);
        if http::write_response(&mut writer, status, &body, req.keep_alive).is_err() {
            return;
        }
        if !req.keep_alive || shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

fn worker_loop(listener: Arc<TcpListener>, shared: Arc<SharedIndex>, shutdown: Arc<AtomicBool>) {
    let mut snapshot = Snapshot::new(shared.swap());
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                serve_connection(stream, &shared, &mut snapshot, &shutdown);
            }
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

impl Server {
    /// Binds `config.addr` and spawns the worker pool. The server is ready
    /// to accept connections when this returns.
    pub fn start(shared: Arc<SharedIndex>, config: &ServeConfig) -> std::io::Result<Server> {
        let listener = Arc::new(TcpListener::bind(&config.addr)?);
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let shared = Arc::clone(&shared);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("et-serve-{i}"))
                    .spawn(move || worker_loop(listener, shared, shutdown))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Server {
            shared,
            addr,
            shutdown,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared core (publish rebuilt states, read counters).
    pub fn shared(&self) -> &Arc<SharedIndex> {
        &self.shared
    }

    /// Signals shutdown, unblocks the accept loops, and joins every worker.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Release);
        for _ in 0..self.workers.len() {
            // Poke accept() awake; workers parked on idle connections exit
            // at their next IDLE_POLL tick.
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Blocks the calling thread until every worker exits (i.e. forever,
    /// unless another thread calls `stop` or the process is signalled).
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_graph::{EdgeIndexedGraph, GraphBuilder};

    fn k4_state() -> ServeState {
        let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let graph = EdgeIndexedGraph::new(GraphBuilder::from_edges(4, &edges).build());
        let build = et_core::build_index(&graph, et_core::Variant::Afforest);
        ServeState::new(graph, build.index, build.hierarchy)
    }

    fn get(path: &str, params: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            params: params
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post_batch(body: Vec<u8>) -> Request {
        Request {
            method: "POST".to_string(),
            path: "/batch".to_string(),
            body,
            ..get("", &[])
        }
    }

    #[test]
    fn batch_bodies_get_the_status_they_always_got() {
        let shared = Arc::new(SharedIndex::new(k4_state(), 0, None));
        let (state, _) = shared.swap().load();
        let pairs = |n: usize| format!("{{\"queries\": [{}]}}", vec!["[0, 3]"; n].join(","));
        let table: Vec<(Vec<u8>, u16)> = vec![
            (r#"{"queries": [[0, 3], [1, 4]]}"#.into(), 200),
            (r#" {"other": null, "queries": []} "#.into(), 200),
            (r#"{"queries": [[4294967295, 4294967295]]}"#.into(), 200),
            (r#"{"queries": [[4294967296, 3]]}"#.into(), 400),
            (r#"{"queries": [[0.0, 3]]}"#.into(), 400),
            (r#"{"queries": [[1e0, 3]]}"#.into(), 400),
            (r#"{"queries": [[-1, 3]]}"#.into(), 400),
            (r#"{"queries": [["0", 3]]}"#.into(), 400),
            (r#"{"queries": [[1]]}"#.into(), 400),
            (r#"{"queries": [[1, 2, 3]]}"#.into(), 400),
            (r#"{"queries": [[0, 3]]} trailing"#.into(), 400),
            (r#"{"queries": [[0, 3]]"#.into(), 400),
            (r#"{"queries": {"0": 3}}"#.into(), 400),
            (r#"[[0, 3]]"#.into(), 400),
            ("".into(), 400),
            (b"{\"queries\": [[0, 3]], \"x\": \"\xff\"}".to_vec(), 400),
            (pairs(MAX_BATCH).into(), 200),
            (pairs(MAX_BATCH + 1).into(), 400),
            ("[".repeat(100_000).into(), 400),
        ];
        for (body, want) in table {
            let shown = String::from_utf8_lossy(&body[..body.len().min(60)]).into_owned();
            let (status, answer) = handle(&shared, &state, &post_batch(body));
            assert_eq!(status, want, "{shown}: {answer}");
            let doc = et_obs::json::parse(&answer).expect("every answer is strict JSON");
            assert_eq!(doc["error"].as_str().is_some(), want == 400, "{shown}");
        }
    }

    /// A thread dies holding the LRU's lock, as a panicking handler would.
    fn poison_cache(shared: &Arc<SharedIndex>) {
        let holder = Arc::clone(shared);
        let died = std::thread::spawn(move || {
            let _guard = holder.cache.lock().unwrap();
            panic!("handler dies with the cache locked");
        })
        .join();
        assert!(died.is_err());
        assert!(shared.cache.is_poisoned());
    }

    #[test]
    fn a_panic_under_the_cache_lock_poisons_no_later_request() {
        let shared = Arc::new(SharedIndex::new(k4_state(), 8, None));
        let (state, _) = shared.swap().load();
        let query = get("/query", &[("v", "0"), ("k", "3")]);
        let (status, warm) = handle(&shared, &state, &query);
        assert_eq!(status, 200);
        assert_eq!(shared.cache.lock().unwrap().len(), 1);

        // /query next: the cache comes back empty and usable, the answer is
        // recomputed, and the request after that hits.
        poison_cache(&shared);
        let (status, body) = handle(&shared, &state, &query);
        assert_eq!((status, &body), (200, &warm));
        assert!(!shared.cache.is_poisoned());
        assert_eq!(shared.metrics().cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(handle(&shared, &state, &query).1, warm);
        assert_eq!(shared.metrics().cache_hits.load(Ordering::Relaxed), 1);

        // /stats next.
        poison_cache(&shared);
        let (status, stats) = handle(&shared, &state, &get("/stats", &[]));
        assert_eq!(status, 200);
        let stats = et_obs::json::parse(&stats).expect("/stats is strict JSON");
        assert_eq!(stats["serve"]["cache"]["capacity"].as_u64(), Some(8));
        assert!(!shared.cache.is_poisoned());

        // publish next.
        poison_cache(&shared);
        assert_eq!(shared.publish(k4_state()), 2);
        assert_eq!(shared.cache.lock().unwrap().len(), 0);
    }
}
