//! End-to-end observability tests: tracing must not change results, and the
//! chrome-trace export must carry one span per kernel plus the algorithm
//! counters each variant promises — from Π = identity, and from the forest
//! the peel hands the default build.

use parallel_equitruss::equitruss::{
    build_index, build_index_with_decomposition, build_index_with_options, KernelTimings,
    PhiGroups, SupportKernel, TrussHierarchy, Variant,
};
use parallel_equitruss::graph::EdgeIndexedGraph;
use parallel_equitruss::obs;
use parallel_equitruss::truss::{decompose_parallel, TrussDecomposition};
use rayon::prelude::*;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Held by every test here: serializes the toggling of the process-global
/// tracing switch and, on drop — normal or unwinding — switches tracing off
/// and clears what was recorded.
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        obs::set_enabled(false);
        obs::reset();
    }
}

/// Takes the lock whether or not a holder died: one failing assertion must
/// stay one failure, not a `PoisonError` in every test after it.
fn lock() -> Serial {
    Serial(LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
}

fn test_graph() -> EdgeIndexedGraph {
    EdgeIndexedGraph::new(parallel_equitruss::gen::overlapping_cliques(
        200,
        40,
        (3, 7),
        80,
        7,
    ))
}

#[test]
fn tracing_does_not_change_the_index() {
    let _guard = lock();
    let eg = test_graph();
    for variant in Variant::ALL {
        obs::set_enabled(false);
        obs::reset();
        let plain = build_index(&eg, variant).index.canonical();
        obs::set_enabled(true);
        obs::reset();
        let traced = build_index(&eg, variant).index.canonical();
        obs::set_enabled(false);
        obs::reset();
        assert_eq!(
            plain,
            traced,
            "{}: tracing changed the supergraph",
            variant.name()
        );
    }
}

/// Every event of a chrome-trace export is a well-formed complete event.
fn assert_well_formed(events: &[obs::json::Value]) {
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert_eq!(e["cat"].as_str(), Some("equitruss"));
        for field in ["ts", "dur", "pid", "tid"] {
            assert!(e[field].as_u64().is_some(), "{field} of {e:?}");
        }
    }
}

/// The events called `name`.
fn named<'a>(events: &'a [obs::json::Value], name: &str) -> Vec<&'a obs::json::Value> {
    events
        .iter()
        .filter(|e| e["name"].as_str() == Some(name))
        .collect()
}

/// Algorithm 2 from Π = identity — what every variant runs on a
/// decomposition without a forest: one span per kernel, one `SpNode` span per
/// Φ_k group, and the counters of each variant's inner algorithm.
#[test]
fn chrome_trace_has_kernel_spans_and_counters() {
    let _guard = lock();
    let eg = test_graph();
    let forestless = TrussDecomposition::new(decompose_parallel(&eg).trussness);
    let groups = PhiGroups::build(&forestless.trussness).iter().count();
    assert!(groups >= 2);
    obs::set_enabled(true);
    obs::reset();
    for variant in Variant::ALL {
        let mut timings = KernelTimings::default();
        build_index_with_decomposition(&eg, &forestless, variant, &mut timings);
    }
    obs::set_enabled(false);
    let trace = obs::capture_trace();
    obs::reset();

    let json = obs::json::parse(&trace.to_json()).expect("valid JSON");
    let events = json["traceEvents"].as_array().expect("traceEvents array");
    assert_well_formed(events);
    // One span per kernel per variant run; each wave wraps its per-k /
    // per-task kernels in one outer span.
    for kernel in ["Init", "SpNodeWave", "SpEdgeWave", "SmGraph", "SpNodeRemap"] {
        assert_eq!(
            named(events, kernel).len(),
            Variant::ALL.len(),
            "{kernel} spans"
        );
    }
    for wave in named(events, "SpNodeWave") {
        assert_eq!(wave["args"]["from_peel"].as_u64(), Some(0));
    }
    // Per-k kernels carry a k argument: one SpNode span per Φ_k per variant.
    let spnode = named(events, "SpNode");
    assert_eq!(spnode.len(), groups * Variant::ALL.len());
    assert!(spnode.iter().all(|e| e["args"]["k"].as_u64().unwrap() >= 3));
    assert!(!named(events, "SpEdge").is_empty());

    // Counters from every variant's inner algorithms.
    let m = &trace.metrics;
    for c in [
        "sv.hook_iterations",   // Baseline + C-Optimal SV rounds
        "sv.grafts",            // successful hooks
        "sv.shortcut_steps",    // C-Optimal pointer jumping
        "afforest.sample_hits", // Afforest giant-component sampling
        "afforest.sample_size",
        "dsu.compress_steps", // Afforest path compression
        "spedge.candidates",
        "smgraph.pairs_in",
        "smgraph.pairs_out",
        "engine.wave_width", // Φ_k groups dispatched per wave
    ] {
        assert!(m.counter(c) > 0, "counter {c} is zero: {:?}", m.counters);
    }
    assert!(m.distribution("phi.group_size").is_some());
    assert!(m.distribution("spedge.buffer_len").is_some());
    assert!(m.distribution("spedge.subset_skew").is_some());
    // The same counters surface in the exported JSON.
    assert!(
        json["metrics"]["counters"]["sv.hook_iterations"]
            .as_u64()
            .unwrap()
            > 0
    );
}

/// `build_index` under each variant has one span per kernel. The default
/// build: the peel hands Π over, so the `SpNodeWave` slot closes empty and
/// says why, no SpNode group runs and no edge-CC counter moves; the links
/// show up in the peel's counters. Baseline and C-Optimal, through the same
/// entry point, still run Shiloach–Vishkin.
#[test]
fn default_build_takes_the_forest_from_the_peel() {
    let _guard = lock();
    let eg = test_graph();
    let traced_build = |variant: Variant| {
        obs::set_enabled(true);
        obs::reset();
        build_index(&eg, variant);
        obs::set_enabled(false);
        let trace = obs::capture_trace();
        obs::reset();
        trace
    };

    // Whatever the variant, a full build is one span per kernel under one
    // `BuildIndex(..)` span, and ends in a hierarchy build.
    for variant in Variant::ALL {
        let trace = traced_build(variant);
        let json = obs::json::parse(&trace.to_json()).expect("valid JSON");
        let events = json["traceEvents"].as_array().expect("traceEvents array");
        assert_well_formed(events);
        let build = format!("BuildIndex({})", variant.name());
        for kernel in [
            build.as_str(),
            "Support",
            "TrussDecomp",
            "Init",
            "SpNodeWave",
            "SpEdgeWave",
            "SmGraph",
            "SpNodeRemap",
            "HierarchyBuild",
        ] {
            assert_eq!(named(events, kernel).len(), 1, "{kernel} spans of {build}");
        }
        let m = &trace.metrics;
        assert!(m.counter("truss.hook_links") > 0);
        assert!(m.counter("hierarchy.merge_events") > 0);
        assert!(m.counter("spedge.candidates") > 0);

        let wave = named(events, "SpNodeWave")[0];
        if variant != Variant::Afforest {
            // Π from identity: Algorithm 2 ran.
            assert_eq!(wave["args"]["from_peel"].as_u64(), Some(0));
            assert!(!named(events, "SpNode").is_empty());
            assert!(m.counter("sv.hook_iterations") > 0);
            continue;
        }
        assert_eq!(wave["args"]["from_peel"].as_u64(), Some(1));
        assert!(named(events, "SpNode").is_empty() && named(events, "SpNodeViews").is_empty());
        for idle in [
            "afforest.sample_size",
            "afforest.finish_edges",
            "sv.hook_iterations",
            "dsu.compress_calls",
            "spnode.views",
            "par.tasks.SpNodeWave",
        ] {
            assert_eq!(m.counter(idle), 0, "{idle}");
        }
        assert!(
            json["metrics"]["counters"]["truss.hook_links"]
                .as_u64()
                .unwrap()
                > 0
        );
    }
}

#[test]
fn oriented_support_counters_match_triangle_count() {
    let _guard = lock();
    let eg = test_graph();
    obs::set_enabled(true);
    obs::reset();
    let support = parallel_equitruss::triangle::compute_support_oriented(&eg);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    // Each triangle is enumerated exactly once but contributes +1 to three
    // edge supports, so 3 × the counter equals the support sum.
    let support_sum: u64 = support.iter().map(|&s| s as u64).sum();
    assert_eq!(snap.counter("support.oriented_triangles") * 3, support_sum);
    assert!(snap.counter("support.chunks") > 0);
}

#[test]
fn bucketed_peeling_emits_counters() {
    let _guard = lock();
    let eg = test_graph();
    obs::set_enabled(true);
    obs::reset();
    parallel_equitruss::truss::decompose_parallel(&eg);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    assert!(snap.counter("truss.levels") > 0);
    assert!(snap.counter("truss.peel_rounds") >= snap.counter("truss.levels"));
    // The clique generator guarantees cascading decrements, so lazy bucket
    // repair must have fired at least once.
    assert!(snap.counter("truss.bucket_repairs") > 0);
    assert!(snap.counter("truss.hook_links") > 0);
    assert_eq!(
        snap.counter("truss.pool_rounds") + snap.counter("truss.serial_rounds"),
        snap.counter("truss.peel_rounds")
    );
    // One aggregate per level with work, not one record per round.
    let rounds = snap.distribution("truss.level_rounds").expect("rounds");
    assert_eq!(rounds.count, snap.counter("truss.levels"));
    assert_eq!(rounds.sum, snap.counter("truss.peel_rounds"));
    let edges = snap.distribution("truss.level_edges").expect("edges");
    assert_eq!(
        (edges.count, edges.sum),
        (rounds.count, eg.num_edges() as u64)
    );
    let widest = snap
        .distribution("truss.level_widest_round")
        .expect("widest");
    assert!(widest.count == rounds.count && widest.max <= edges.max);
    assert!(snap.distribution("truss.frontier_len").is_none());
}

/// On a skewed graph the peel re-filters its rows, and so does SpNode when
/// it runs — C-Optimal, or Afforest on a decomposition stripped of the peel's
/// forest: the counters, the arcs-kept distributions and the nested spans say
/// so, and the index is the one an untraced build makes. A mesh (one level,
/// one Φ_k group) builds no view at all.
#[test]
fn live_row_views_are_counted_and_change_nothing() {
    let _guard = lock();
    let skewed = EdgeIndexedGraph::new(parallel_equitruss::gen::rmat_with_cliques(
        parallel_equitruss::gen::RmatConfig::graph500(11, 8, 3),
        16,
        (4, 9),
    ));
    let build = |variant: Variant, keep_forest: bool| {
        let mut decomposition = decompose_parallel(&skewed);
        if !keep_forest {
            decomposition = TrussDecomposition::new(decomposition.trussness);
        }
        let mut timings = KernelTimings::default();
        let index = build_index_with_decomposition(&skewed, &decomposition, variant, &mut timings);
        let hierarchy = TrussHierarchy::build(&index);
        (index, hierarchy)
    };
    for (variant, keep_forest) in [
        (Variant::COptimal, true),
        (Variant::Afforest, false),
        (Variant::Afforest, true),
    ] {
        obs::set_enabled(false);
        obs::reset();
        let plain = build(variant, keep_forest);
        obs::set_enabled(true);
        obs::reset();
        let traced = build(variant, keep_forest);
        obs::set_enabled(false);
        let snap = obs::snapshot();
        let events = obs::take_events();
        obs::reset();
        assert_eq!(plain.0.canonical(), traced.0.canonical());
        assert_eq!(plain.1, traced.1);

        let spnode_ran = variant != Variant::Afforest || !keep_forest;
        if !spnode_ran {
            assert_eq!(snap.counter("spnode.views"), 0);
            assert!(!events.iter().any(|e| e.name == "SpNodeViews"));
        }
        let mut views = vec![(
            "truss.compactions",
            "truss.live_arcs",
            "PeelCompact",
            "TrussDecomp",
        )];
        if spnode_ran {
            views.push((
                "spnode.views",
                "spnode.view_arcs",
                "SpNodeViews",
                "SpNodeWave",
            ));
        }
        for (counter, dist, inner, outer) in views {
            let built = snap.counter(counter);
            assert!(built >= 1, "{}: {counter} = {built}", variant.name());
            let arcs = snap.distribution(dist).expect(dist);
            assert_eq!(arcs.count, built, "{dist} has one sample per view");
            // Views only ever shrink, and never below one surviving edge.
            assert!(arcs.min >= 2 && arcs.max < 2 * skewed.num_edges() as u64);
            let outer = events.iter().find(|e| e.name == outer).expect(outer);
            let inner: Vec<_> = events.iter().filter(|e| e.name == inner).collect();
            assert_eq!(inner.len() as u64, built);
            for e in inner {
                assert!(
                    e.ts >= outer.ts && e.ts + e.dur <= outer.ts + outer.dur,
                    "{} is not inside {}",
                    e.name,
                    outer.name
                );
            }
        }
    }

    let mesh = EdgeIndexedGraph::new(parallel_equitruss::gen::triangulated_grid(40));
    obs::set_enabled(true);
    obs::reset();
    build_index(&mesh, Variant::COptimal);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    let events = obs::take_events();
    obs::reset();
    assert!(snap.counter("truss.levels") > 0);
    assert_eq!(snap.counter("truss.compactions"), 0);
    assert_eq!(snap.counter("spnode.views"), 0);
    assert!(snap.distribution("truss.live_arcs").is_none());
    assert!(snap.distribution("spnode.view_arcs").is_none());
    assert!(!events
        .iter()
        .any(|e| e.name == "PeelCompact" || e.name == "SpNodeViews"));
}

#[test]
fn query_engines_emit_counters_and_spans() {
    let _guard = lock();
    use parallel_equitruss::community::{query_communities, query_communities_bfs};
    let eg = EdgeIndexedGraph::new(
        parallel_equitruss::gen::fixtures::paper_example()
            .graph
            .clone(),
    );
    let build = build_index(&eg, Variant::Afforest);
    obs::set_enabled(true);
    obs::reset();
    // Vertex 6 sits in the K5 (τ = 5); at k = 3 its seeds must climb to the
    // level-3 root, so hierarchy climbs are guaranteed.
    let fast = query_communities(&eg, &build.index, &build.hierarchy, 6, 3);
    let bfs = query_communities_bfs(&eg, &build.index, 6, 3);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    let events = obs::take_events();
    obs::reset();
    assert_eq!(fast, bfs);

    assert!(snap.counter("query.hierarchy_climbs") > 0);
    assert!(snap.counter("query.scratch_epochs") >= 2); // one per engine run
    assert!(snap.counter("query.seeds") > 0);
    assert!(snap.counter("query.supernodes_visited") > 0);
    assert!(snap.counter("query.superedges_scanned") > 0);
    assert!(events.iter().any(|e| e.name == "Query"));
    assert!(events.iter().any(|e| e.name == "QueryBfs"));
}

#[test]
fn counters_aggregate_under_rayon() {
    let _guard = lock();
    obs::set_enabled(true);
    obs::reset();
    (0..1000u32).into_par_iter().for_each(|i| {
        obs::counter_add("test.rayon", 1);
        if i % 2 == 0 {
            obs::counter_add("test.rayon_even", 1);
        }
    });
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    assert_eq!(snap.counter("test.rayon"), 1000);
    assert_eq!(snap.counter("test.rayon_even"), 500);
}

#[test]
fn disabled_tracing_records_nothing_end_to_end() {
    let _guard = lock();
    obs::set_enabled(false);
    obs::reset();
    let eg = test_graph();
    build_index(&eg, Variant::Afforest);
    assert!(obs::snapshot().is_empty());
    assert!(obs::take_events().is_empty());
}

#[test]
fn wave_occupancy_metrics_cover_the_pipeline() {
    let _guard = lock();
    let eg = test_graph();
    obs::set_enabled(true);
    obs::reset();
    // The oriented arm is pinned: it is the Support kernel that runs as a
    // wave (the default pick on this balanced graph is the flat merge). So
    // is C-Optimal: the default variant takes Π from the peel and has no
    // SpNode wave.
    build_index_with_options(&eg, Variant::COptimal, SupportKernel::Oriented);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    // Oriented Support, PKT peeling, and the two index waves all report
    // task counts, busy time, load imbalance, and pool occupancy.
    for wave in ["SupportChunks", "PeelFrontier", "SpNodeWave", "SpEdgeWave"] {
        assert!(
            snap.counter(&format!("par.tasks.{wave}")) > 0,
            "no tasks recorded for {wave}"
        );
        assert!(
            snap.distribution(&format!("par.busy_us.{wave}")).is_some(),
            "no busy time recorded for {wave}"
        );
        let imb = snap
            .distribution(&format!("par.imbalance_x1000.{wave}"))
            .unwrap_or_else(|| panic!("no imbalance recorded for {wave}"));
        // max/mean over active threads is ≥ 1.0 by construction.
        assert!(
            imb.min >= 1000,
            "{wave}: imbalance_x1000 {} < 1000",
            imb.min
        );
        let occ = snap
            .distribution(&format!("par.occupancy_pct.{wave}"))
            .unwrap_or_else(|| panic!("no occupancy recorded for {wave}"));
        assert!(occ.max <= 100, "{wave}: occupancy {}% > 100%", occ.max);
    }
}

#[test]
fn memory_columns_stay_zero_without_et_mem() {
    let _guard = lock();
    obs::set_enabled(false);
    obs::reset();
    // ET_MEM is not set in the test environment and init_mem_from_env was
    // never called, so every per-phase memory cell must stay zeroed.
    assert!(!obs::mem_tracking_active());
    let eg = test_graph();
    let build = build_index(&eg, Variant::Afforest);
    assert!(
        build.timings.mem.iter().all(|m| m.is_zero()),
        "phase memory recorded while tracking is off: {:?}",
        build.timings.mem
    );
}

#[test]
fn reset_clears_distribution_state_between_runs() {
    let _guard = lock();
    obs::set_enabled(true);
    obs::reset();
    obs::record_value("test.reset_dist", 42);
    obs::counter_add("test.reset_counter", 7);
    assert!(obs::snapshot().distribution("test.reset_dist").is_some());
    obs::reset();
    // A fresh snapshot after reset carries neither the counter nor any
    // histogram buckets from the previous run.
    let snap = obs::snapshot();
    obs::set_enabled(false);
    obs::reset();
    assert!(snap.distribution("test.reset_dist").is_none());
    assert_eq!(snap.counter("test.reset_counter"), 0);
    assert!(snap.is_empty());
}
