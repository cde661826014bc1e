//! End-to-end observability tests: tracing must not change results, and the
//! chrome-trace export must carry one span per kernel plus the algorithm
//! counters each variant promises.

use parallel_equitruss::equitruss::{
    build_index, build_index_with_options, SupportKernel, Variant,
};
use parallel_equitruss::graph::EdgeIndexedGraph;
use parallel_equitruss::obs;
use rayon::prelude::*;
use std::sync::Mutex;

/// Serializes tests that toggle the process-global tracing switch.
static LOCK: Mutex<()> = Mutex::new(());

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
    let _guard = LOCK.lock().unwrap();
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

#[test]
fn chrome_trace_has_kernel_spans_and_counters() {
    let _guard = LOCK.lock().unwrap();
    let eg = test_graph();
    obs::set_enabled(true);
    obs::reset();
    for variant in Variant::ALL {
        build_index(&eg, variant);
    }
    obs::set_enabled(false);
    let trace = obs::capture_trace();
    obs::reset();

    let json = obs::json::parse(&trace.to_json()).expect("valid JSON");
    let events = json["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e["ph"].as_str(), Some("X"));
        assert_eq!(e["cat"].as_str(), Some("equitruss"));
        for field in ["ts", "dur", "pid", "tid"] {
            assert!(e[field].as_u64().is_some(), "{field} of {e:?}");
        }
    }
    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    for kernel in ["Support", "TrussDecomp", "Init", "SmGraph", "SpNodeRemap"] {
        // One span per kernel per variant run.
        assert_eq!(
            names.iter().filter(|n| **n == kernel).count(),
            Variant::ALL.len(),
            "missing {kernel} spans in {names:?}"
        );
    }
    // Each wave wraps its per-k / per-task kernels in one outer span per
    // variant run.
    for wave in ["SpNodeWave", "SpEdgeWave"] {
        assert_eq!(
            names.iter().filter(|n| **n == wave).count(),
            Variant::ALL.len(),
            "missing {wave} spans in {names:?}"
        );
    }
    // Per-k kernels carry a k argument.
    let spnode = events
        .iter()
        .find(|e| e["name"].as_str() == Some("SpNode"))
        .expect("SpNode span");
    assert!(spnode["args"]["k"].as_u64().unwrap() >= 3);
    assert!(names.contains(&"SpEdge"));
    assert!(names.iter().any(|n| n.starts_with("BuildIndex(")));

    // Every pipeline run ends in a hierarchy-build phase.
    assert_eq!(
        names.iter().filter(|n| **n == "HierarchyBuild").count(),
        Variant::ALL.len(),
        "missing HierarchyBuild spans in {names:?}"
    );

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
        "engine.wave_width",      // Φ_k groups dispatched per wave
        "hierarchy.merge_events", // Kruskal sweep unions in HierarchyBuild
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

#[test]
fn oriented_support_counters_match_triangle_count() {
    let _guard = LOCK.lock().unwrap();
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
    let _guard = LOCK.lock().unwrap();
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
    assert!(snap.distribution("truss.frontier_len").is_some());
}

/// On a skewed graph the peel and SpNode re-filter their rows: the counters,
/// the arcs-kept distributions and the nested spans say so, and the index is
/// the one an untraced build makes. A mesh (one level, one Φ_k group) builds
/// no view at all.
#[test]
fn live_row_views_are_counted_and_change_nothing() {
    let _guard = LOCK.lock().unwrap();
    let skewed = EdgeIndexedGraph::new(parallel_equitruss::gen::rmat_with_cliques(
        parallel_equitruss::gen::RmatConfig::graph500(11, 8, 3),
        16,
        (4, 9),
    ));
    for variant in [Variant::COptimal, Variant::Afforest] {
        obs::set_enabled(false);
        obs::reset();
        let plain = build_index(&skewed, variant);
        obs::set_enabled(true);
        obs::reset();
        let traced = build_index(&skewed, variant);
        obs::set_enabled(false);
        let snap = obs::snapshot();
        let events = obs::take_events();
        obs::reset();
        assert_eq!(plain.index.canonical(), traced.index.canonical());
        assert_eq!(plain.hierarchy, traced.hierarchy);

        for (counter, dist, inner, outer) in [
            (
                "truss.compactions",
                "truss.live_arcs",
                "PeelCompact",
                "TrussDecomp",
            ),
            (
                "spnode.views",
                "spnode.view_arcs",
                "SpNodeViews",
                "SpNodeWave",
            ),
        ] {
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
    build_index(&mesh, Variant::Afforest);
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
    let _guard = LOCK.lock().unwrap();
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
    let _guard = LOCK.lock().unwrap();
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
    let _guard = LOCK.lock().unwrap();
    obs::set_enabled(false);
    obs::reset();
    let eg = test_graph();
    build_index(&eg, Variant::Afforest);
    assert!(obs::snapshot().is_empty());
    assert!(obs::take_events().is_empty());
}

#[test]
fn wave_occupancy_metrics_cover_the_pipeline() {
    let _guard = LOCK.lock().unwrap();
    let eg = test_graph();
    obs::set_enabled(true);
    obs::reset();
    // The oriented arm is pinned: it is the Support kernel that runs as a
    // wave (the default pick on this balanced graph is the flat merge).
    build_index_with_options(&eg, Variant::Afforest, SupportKernel::Oriented);
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
    let _guard = LOCK.lock().unwrap();
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
    let _guard = LOCK.lock().unwrap();
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
