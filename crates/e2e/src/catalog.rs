//! The benchmark's fixed vocabulary: workloads, sizes and metric names.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; `tests/smoke.rs` fails if the two drift apart.

/// Input sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// log2 of the social graph's vertex count (R-MAT, edge factor 9).
    pub social_scale: u32,
    /// Cliques of 4–8 vertices planted into the social graph.
    pub social_cliques: usize,
    /// Vertices per side of the triangulated grid.
    pub mesh_side: usize,
    /// Vertices of the collaboration graph `serve-mixed` serves.
    pub serve_vertices: usize,
    /// Vertices of the collaboration graph `dynamic-updates` maintains.
    pub dynamic_vertices: usize,
    /// `(v, k)` pairs in a query stream.
    pub queries: usize,
    /// Pairs per `batch_query_communities` call and per `POST /batch`.
    pub batch: usize,
    /// Requests the connections send together in one `serve-mixed` rep.
    pub requests_per_rep: usize,
    /// Connection 0 issues `POST /reload` after this many of its requests.
    pub reload_every: usize,
    /// Removals (then as many re-insertions) in one `dynamic-updates` cycle.
    pub updates_per_cycle: usize,
    /// Requests the traced pass replays through the socket and through
    /// `et_serve::handle`.
    pub traced_requests: usize,
    /// Removals (then re-insertions) of the traced pass on graphs that are
    /// not the `dynamic-updates` graph; each costs a full decomposition.
    pub traced_updates: usize,
}

/// The sizes behind the recorded numbers, fitted to a 2-core box and the
/// driver's 10-second runs.
pub const FULL: Sizes = Sizes {
    social_scale: 14,
    social_cliques: 1250,
    mesh_side: 512,
    serve_vertices: 16_000,
    dynamic_vertices: 8_000,
    queries: 1024,
    batch: 32,
    requests_per_rep: 10_000,
    reload_every: 2_500,
    updates_per_cycle: 25,
    traced_requests: 1_000,
    traced_updates: 2,
};

/// `--smoke`: every code path in a few seconds, numbers meaningless.
pub const SMOKE: Sizes = Sizes {
    social_scale: 10,
    social_cliques: 80,
    mesh_side: 64,
    serve_vertices: 2_000,
    dynamic_vertices: 1_000,
    queries: 256,
    batch: 32,
    requests_per_rep: 2_000,
    reload_every: 500,
    updates_per_cycle: 5,
    traced_requests: 200,
    traced_updates: 1,
};

/// The shape of a workload's input graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// R-MAT with planted cliques (LiveJournal profile), text edge list.
    Social,
    /// Seeded triangulated grid, `.bin`.
    Mesh,
    /// Overlapping cliques (dblp profile) at the serve size, `.bin`.
    CollabServe,
    /// Overlapping cliques at the dynamic size, `.bin`.
    CollabDynamic,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name later issues cite.
    pub name: &'static str,
    /// Its input graph.
    pub shape: Shape,
    /// The percentile `op_tail_ms` reports: the highest of p75/p90/p99 that a
    /// 10-second run leaves about ten samples beyond and that falls inside
    /// one class of ops. The p99 of `serve-mixed` lands among the `/batch`
    /// requests, whose cost follows how large the seed's biggest communities
    /// are (15 % between seeds); its p90 lies among cache-missing `/query`s.
    pub tail_quantile: f64,
    /// Why the workload exists.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "social-build",
        shape: Shape::Social,
        tail_quantile: 0.75,
        why: "text edge list to .etidx on a skewed R-MAT with planted cliques: k_max in the tens, dozens of Phi_k groups, so SpNode/SpEdge and the peel own the time; the only user of the text parser",
    },
    Workload {
        name: "mesh-build",
        shape: Shape::Mesh,
        tail_quantile: 0.75,
        why: ".bin to .etidx on a triangulated grid: k_max 3, one Phi_k group, one supernode; the peel's cascade of small frontiers leads, then Support and edge-CC rounds; skew or inter-group work must not move it",
    },
    Workload {
        name: "query-lib",
        shape: Shape::Social,
        tail_quantile: 0.99,
        why: "library (v,k) queries at k 3 or 4 on the social index, one caller then batches on N threads: answers are empty or one giant nested core, so slice materialisation, not the climb, owns the time",
    },
    Workload {
        name: "serve-mixed",
        shape: Shape::CollabServe,
        tail_quantile: 0.90,
        why: "et-serve over a collaboration graph, closed-loop keep-alive connections: Zipf /query over 4x the cache, members, /edge, /batch, periodic /reload; answers are small, so HTTP, LRU and socket dominate",
    },
    Workload {
        name: "dynamic-updates",
        shape: Shape::CollabDynamic,
        tail_quantile: 0.90,
        why: "DynamicIndex removals and re-insertions in the busiest trussness class, one caller: the only path through et-dynamic; an update pays a full decomposition and a rebuild of levels 3..tau",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports every one.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. One *op* is one `cmd_build`, one
/// `query_communities` call, one HTTP request, or one edge update.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric of the traced pass.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `<layer>.<what>`; the layer is the crate without its `et-` prefix.
    pub name: &'static str,
    /// Unit; `count` marks exact counts that repeat for a seed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, in the order of the path from file to socket.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("graph.read_ms", "ms", Lower),
    layer("graph.read_mbps", "MB/s", Higher),
    layer("graph.edge_index_ms", "ms", Lower),
    layer("triangle.support_ms", "ms", Lower),
    layer("triangle.triangles", "count", Lower),
    layer("triangle.mtriangles_per_s", "1/s", Higher),
    layer("truss.peel_ms", "ms", Lower),
    layer("truss.k_max", "count", Lower),
    layer("truss.medges_per_s", "1/s", Higher),
    layer("core.index_ms", "ms", Lower),
    layer("core.init_ms", "ms", Lower),
    layer("core.spnode_ms", "ms", Lower),
    layer("core.spedge_ms", "ms", Lower),
    layer("core.smgraph_ms", "ms", Lower),
    layer("core.remap_ms", "ms", Lower),
    layer("core.phi_groups", "count", Lower),
    layer("core.supernodes", "count", Lower),
    layer("core.superedges", "count", Lower),
    layer("core.hierarchy_ms", "ms", Lower),
    layer("core.hierarchy_nodes", "count", Lower),
    layer("core.write_ms", "ms", Lower),
    layer("core.etidx_bytes", "count", Lower),
    layer("core.etidx_bytes_per_edge", "count", Lower),
    layer("core.load_ms", "ms", Lower),
    layer("build.wall_ms", "ms", Lower),
    layer("build.layers_sum_ms", "ms", Lower),
    layer("build.unattributed_pct", "%", Lower),
    layer("build.trace_overhead_pct", "%", Lower),
    layer("build.t1_wall_ms", "ms", Lower),
    layer("obs.et_trace_overhead_pct", "%", Lower),
    layer("obs.mem_track_overhead_pct", "%", Lower),
    layer("community.resolve_us", "us", Lower),
    layer("community.stats_us", "us", Lower),
    layer("community.materialize_us", "us", Lower),
    layer("community.edges_per_query", "count", Lower),
    layer("community.materialize_ns_per_edge", "ns", Lower),
    layer("community.query_p50_us", "us", Lower),
    layer("community.query_p99_us", "us", Lower),
    layer("community.edge_query_us", "us", Lower),
    layer("community.batch_qps_t1", "1/s", Higher),
    layer("serve.rtt_p50_us.query", "us", Lower),
    layer("serve.rtt_p50_us.members", "us", Lower),
    layer("serve.rtt_p50_us.edge", "us", Lower),
    layer("serve.rtt_p50_us.batch", "us", Lower),
    layer("serve.handle_us.query", "us", Lower),
    layer("serve.handle_us.members", "us", Lower),
    layer("serve.handle_us.edge", "us", Lower),
    layer("serve.handle_us.batch", "us", Lower),
    layer("serve.transport_us", "us", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.write_us", "us", Lower),
    layer("serve.cache_hit_ratio", "%", Higher),
    layer("serve.reload_ms", "ms", Lower),
    layer("serve.epochs", "count", Higher),
    layer("serve.errors", "count", Lower),
    layer("dynamic.build_ms", "ms", Lower),
    layer("dynamic.insert_p50_ms", "ms", Lower),
    layer("dynamic.remove_p50_ms", "ms", Lower),
    layer("dynamic.full_recompute_ms", "ms", Lower),
    layer("dynamic.rebuilt_levels_per_update", "count", Lower),
    layer("dynamic.reused_levels_per_update", "count", Higher),
    layer("dynamic.tau_changes_per_update", "count", Lower),
];
