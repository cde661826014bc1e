//! End-to-end parallel EquiTruss pipelines with kernel timing.
//!
//! Orchestrates the paper's kernels — Support, TrussDecomp, Init, SpNode,
//! SpEdge, SmGraph, SpNodeRemap — recording per-kernel wall time for the
//! Fig. 4/8 breakdowns. Where the paper loops over ascending k running
//! SpNode then SpEdge "consecutively upon the same Φ_k set", the
//! SpNode/SpEdge phase here is two parallel waves: every Φ_k SpNode group
//! dispatched concurrently, one barrier, then one triangle-once SpEdge pass
//! over the whole graph ([`crate::spedge::spedge_triangle_once`]). Sound
//! because Φ_k groups are mutually independent for SpNode (hooking only links
//! same-k edges, and Π values in Φ_k cells never leave Φ_k), while SpEdge only
//! *reads* Π roots — all finalized at the barrier, which is what lets one
//! visit per triangle stand in for Algorithm 3's three. The wave keeps the
//! rayon pool saturated across the many tiny high-k groups that starve a
//! per-k loop; [`crate::original::build_original`] is the serial reference
//! every variant is compared with.
//!
//! The first wave is skipped when its result is already there: the parallel
//! peel links same-k triangle partners as it meets them and hands the
//! finished partition over in [`TrussDecomposition::forest`], which
//! [`Variant::Afforest`] — the default — borrows as Π
//! ([`build_index_with_decomposition`]). Once SpNode is over, by either route,
//! Π is frozen: SpEdge and remap read it as `&[u32]`.

use crate::baseline::EdgeDict;
use crate::engine::{spnode_group, TrussRowViews};
use crate::hierarchy::TrussHierarchy;
use crate::index::SuperGraph;
use crate::phi::PhiGroups;
use crate::smgraph::merge_supergraph;
use crate::spedge::spedge_triangle_once;
use crate::timings::{timed_phase, timed_span, Kernel, KernelTimings};
use et_graph::{EdgeId, EdgeIndexedGraph, ShapeStats};
use et_truss::TrussDecomposition;
use rayon::prelude::*;
use std::sync::atomic::AtomicU32;

/// Which parallel construction to run (Table 2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Shiloach–Vishkin with dictionary lookups.
    Baseline,
    /// Cache-optimized SV (CSR trussness, contiguous Π, skip rule).
    COptimal,
    /// Afforest on the edge-induced graph.
    Afforest,
}

impl Variant {
    /// All variants in the paper's presentation order.
    pub const ALL: [Variant; 3] = [Variant::Baseline, Variant::COptimal, Variant::Afforest];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Baseline => "Baseline",
            Variant::COptimal => "C-Optimal",
            Variant::Afforest => "Afforest",
        }
    }
}

/// Which Support kernel seeds the pipeline.
///
/// [`SupportKernel::Default`] is what every build runs: it picks one of the
/// two fixed arms per graph from a load-time shape sketch
/// ([`ShapeStats::adj_balance`]). [`SupportKernel::Oriented`] is the
/// triangle-once enumeration over the degree-ordered DAG;
/// [`SupportKernel::Merge`] the per-edge `N(u) ∩ N(v)` kernel, which needs no
/// DAG. The fixed arms stay nameable so the tests can pin all three against
/// each other; nothing outside the code selects between them. Every arm
/// returns the identical support vector.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SupportKernel {
    /// Pick [`SupportKernel::Oriented`] or [`SupportKernel::Merge`] per graph.
    #[default]
    Default,
    /// Triangle-once oriented enumeration with atomic scatter.
    Oriented,
    /// Per-edge sorted-set intersection (each triangle counted three times).
    Merge,
}

/// Below this adjacency balance, edges are dominated by hub–leaf pairs:
/// degree ordering makes out-lists short and the oriented kernel wins. At or
/// above it endpoints have similar degrees, the DAG build costs more than the
/// two extra visits per triangle it saves, and merge wins. Measured on the
/// `bench_e2e` shapes (EXPERIMENTS.md "PR 13"): social 0.33 (oriented 23 ms,
/// merge 75 ms), mesh 0.83 (85 vs 18 ms), collaboration 0.66 (a tie).
const BALANCE_ORIENTED_MAX: f64 = 0.5;

impl SupportKernel {
    /// The selecting arm first, then the two fixed arms.
    pub const ALL: [SupportKernel; 3] = [
        SupportKernel::Default,
        SupportKernel::Oriented,
        SupportKernel::Merge,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SupportKernel::Default => "default",
            SupportKernel::Oriented => "oriented",
            SupportKernel::Merge => "merge",
        }
    }

    /// Resolves [`SupportKernel::Default`] to the fixed arm for `graph`
    /// (identity for the fixed arms), recording the choice as a
    /// `support.choice.<arm>` counter when tracing is on.
    pub fn resolve(&self, graph: &EdgeIndexedGraph) -> SupportKernel {
        if *self != SupportKernel::Default {
            return *self;
        }
        let stats = ShapeStats::compute(graph);
        let choice = if stats.adj_balance < BALANCE_ORIENTED_MAX {
            SupportKernel::Oriented
        } else {
            SupportKernel::Merge
        };
        if et_obs::enabled() {
            et_obs::counter_add(&format!("support.choice.{}", choice.name()), 1);
        }
        choice
    }

    /// Runs the kernel ([`SupportKernel::Default`] resolves first).
    pub fn compute(&self, graph: &EdgeIndexedGraph) -> Vec<u32> {
        match self.resolve(graph) {
            SupportKernel::Merge => et_triangle::compute_support(graph),
            SupportKernel::Oriented => et_triangle::compute_support_oriented(graph),
            SupportKernel::Default => unreachable!("resolve returns a fixed arm"),
        }
    }
}

/// A constructed index plus its query-serving hierarchy and kernel timings.
#[derive(Clone, Debug)]
pub struct IndexBuild {
    /// The EquiTruss summary graph.
    pub index: SuperGraph,
    /// The merge forest over supernodes that powers O(α) community
    /// resolution in `et-community`.
    pub hierarchy: TrussHierarchy,
    /// Per-kernel wall-clock times.
    pub timings: KernelTimings,
}

// Compile-time proof that the query-side structures are safe to share
// across threads behind an `Arc` with no locking. If a field ever grows a
// non-`Sync` interior (`Rc`, `Cell`, an unmarked raw pointer), this stops
// compiling here instead of failing far downstream in `et-serve`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SuperGraph>();
    assert_send_sync::<TrussHierarchy>();
    assert_send_sync::<KernelTimings>();
    assert_send_sync::<IndexBuild>();
};

/// Full pipeline: Support → parallel truss decomposition → index
/// construction with the chosen variant, under the default Support pick.
pub fn build_index(graph: &EdgeIndexedGraph, variant: Variant) -> IndexBuild {
    build_index_with_options(graph, variant, SupportKernel::default())
}

/// Full pipeline with the Support arm explicit (tests pin it; builds use
/// [`build_index`]).
pub fn build_index_with_options(
    graph: &EdgeIndexedGraph,
    variant: Variant,
    kernel: SupportKernel,
) -> IndexBuild {
    let _build_span = et_obs::span(format!("BuildIndex({})", variant.name()));
    let mut timings = KernelTimings::default();
    let support = timed_phase(&mut timings, Kernel::Support, "Support", || {
        kernel.compute(graph)
    });
    let decomposition = timed_phase(&mut timings, Kernel::TrussDecomp, "TrussDecomp", || {
        et_truss::parallel::decompose_parallel_with_support(graph, support)
    });
    let index = build_index_with_decomposition(graph, &decomposition, variant, &mut timings);
    // Hierarchy-build phase: the offline half of the query engine, timed
    // like any other kernel. TrussHierarchy::build opens its own span, so
    // only a span-less memory window is added here (a second span would
    // double-count the phase in traces).
    let mem_window = et_obs::mem_window();
    let hierarchy = crate::timings::timed(&mut timings.hierarchy, || TrussHierarchy::build(&index));
    if let Some(window) = mem_window {
        timings.record_mem(Kernel::Hierarchy, window.finish());
    }
    IndexBuild {
        index,
        hierarchy,
        timings,
    }
}

/// Index construction given a precomputed trussness dictionary; kernel times
/// are *added* to `timings` (Support/TrussDecomp slots untouched).
///
/// SpNode computes one thing, the partition of the edges into supernodes,
/// and a decomposition that comes from the parallel peel already carries it
/// ([`TrussDecomposition::forest`]). Under [`Variant::Afforest`] — the
/// variant whose sample-then-finish this completes: the sample is whole and
/// the finish has nothing to do — Π is *borrowed* from it, and no row view
/// is built and no SpNode group runs. [`Variant::Baseline`],
/// [`Variant::COptimal`] and any decomposition without a forest
/// (`decompose_serial`, `TrussDecomposition::new`) run Algorithm 2 from
/// Π = identity. Both give the same roots (the smallest edge id of each
/// supernode), so the index is the same either way.
pub fn build_index_with_decomposition(
    graph: &EdgeIndexedGraph,
    decomposition: &TrussDecomposition,
    variant: Variant,
    timings: &mut KernelTimings,
) -> SuperGraph {
    let m = graph.num_edges();
    let tau = &decomposition.trussness;
    let forest = match variant {
        Variant::Afforest => decomposition.forest(),
        Variant::Baseline | Variant::COptimal => None,
    };
    // No SpNode run stands behind a borrowed Π: a forest of another graph,
    // or of a `trussness` edited since the peel, must not get through.
    if let Some(forest) = forest {
        assert_eq!(forest.len(), m, "the forest is not this graph's");
        debug_assert!(
            forest
                .iter()
                .zip(tau)
                .all(|(&root, &k)| tau[root as usize] == k),
            "trussness changed since the peel built the forest"
        );
    }

    // Init kernel: Π ← identity (Algorithm 2 ln. 1–2) unless the peel
    // brought it, Φ_k grouping (ln. 3–5), and the Baseline's dictionary when
    // needed.
    let (parent, phi, dict) = timed_phase(timings, Kernel::Init, "Init", || {
        let parent = forest
            .is_none()
            .then(|| (0..m as u32).map(AtomicU32::new).collect::<Vec<_>>());
        let phi = PhiGroups::build(tau);
        let dict = match variant {
            Variant::Baseline => Some(EdgeDict::build(graph)),
            _ => None,
        };
        (parent, phi, dict)
    });
    if et_obs::enabled() {
        for (k, group) in phi.iter() {
            et_obs::counter_add(&format!("phi.group_size.k{k}"), group.len() as u64);
            et_obs::record_value("phi.group_size", group.len() as u64);
        }
    }

    let groups: Vec<(u32, &[EdgeId])> = phi.iter().collect();
    et_obs::counter_add("engine.wave_width", groups.len() as u64);

    // Wave 1: every SpNode group concurrently. Groups are mutually
    // independent — hooking only links same-k edges and Π entries of Φ_k
    // cells never reference other groups — so the nested par_iters just feed
    // one work-stealing pool. With the peel's forest in hand the slot stays
    // (it closes empty) and says so.
    let spnode_span = et_obs::span("SpNodeWave").arg("from_peel", u64::from(forest.is_some()));
    let built: Option<Vec<u32>> = timed_span(timings, Kernel::SpNode, spnode_span, || {
        let parent = parent?;
        // SpNode's rows: the graph's, then τ ≥ k views as the groups thin
        // out, built inside this slot (the views are SpNode's cost) and
        // dropped with it. The Baseline reads the graph's rows through its
        // dictionary and gets none.
        let mut rows = TrussRowViews::new(graph, tau, phi.indexed_edges());
        if variant != Variant::Baseline {
            for &(k, group) in &groups {
                rows.advance(k, group.len());
            }
        }
        let wave = et_obs::wave("SpNodeWave");
        groups.par_iter().for_each(|&(k, group)| {
            let _task = wave.task();
            let _span = et_obs::span("SpNode").arg("k", u64::from(k));
            spnode_group(&rows, dict.as_ref(), k, group, &parent, variant);
        });
        // The par_iter above completes only when every group's Π is
        // finalized (roots fully shortcut/compressed): from here on Π is
        // frozen, and plain words (converted in place, nothing copied).
        Some(parent.into_iter().map(AtomicU32::into_inner).collect())
    });
    let parent: &[u32] = built
        .as_deref()
        .or(forest)
        .expect("Π is built here exactly when the peel brought none");

    // Wave 2: one triangle-once pass over the whole graph. Each triangle is
    // seen from its pivot edge with all three trussness values in hand and
    // reads the Π roots of all three edges — all finalized by wave 1. Subsets
    // arrive in pivot-range order, so the SmGraph input stays deterministic.
    let subsets = timed_phase(timings, Kernel::SpEdge, "SpEdgeWave", || {
        spedge_triangle_once(graph, tau, parent)
    });

    // SmGraph merge (Algorithm 4). Partition count is clamped to the number
    // of non-empty subsets so tiny graphs don't spawn empty merge partitions.
    let merged = timed_phase(timings, Kernel::SmGraph, "SmGraph", || {
        let partitions = rayon::current_num_threads().min(subsets.len()).max(1);
        merge_supergraph(&subsets, partitions)
    });

    // Dense renumbering + assembly.
    timed_phase(timings, Kernel::SpNodeRemap, "SpNodeRemap", || {
        crate::remap::remap_and_assemble(m, parent, &merged, &phi)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::original::build_original;
    use et_truss::decompose_serial;
    use std::sync::Arc;

    /// Every variant equals serial Original at 1, 2, 4 and 8 threads, from
    /// a decomposition without a forest (Algorithm 2 from identity) and from
    /// the parallel peel's (Afforest borrows Π from it); and that forest is
    /// the partition C-Optimal's SpNode computes.
    fn check_all_variants_match_original(graph: et_graph::CsrGraph, label: &str) {
        let eg = EdgeIndexedGraph::new(graph);
        let serial = decompose_serial(&eg);
        assert!(serial.forest().is_none());
        let tau = &serial.trussness;
        let reference = build_original(&eg, tau).canonical();
        let coptimal = crate::coptimal::tests::run_coptimal(&eg, tau);
        for threads in [1, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            pool.install(|| {
                let peeled = et_truss::decompose_parallel(&eg);
                assert_eq!(peeled, serial, "{label} at {threads} threads");
                let forest = peeled
                    .forest()
                    .expect("the parallel peel builds the forest");
                assert!(
                    et_cc::same_partition(forest, &coptimal),
                    "{label} at {threads} threads: forest is not C-Optimal's Π"
                );
                for (decomposition, pi) in [(&serial, "identity"), (&peeled, "forest")] {
                    for variant in Variant::ALL {
                        let mut t = KernelTimings::default();
                        let idx =
                            build_index_with_decomposition(&eg, decomposition, variant, &mut t);
                        idx.check_structure(&eg).unwrap();
                        assert_eq!(
                            idx.canonical(),
                            reference,
                            "{label} at {threads} threads: {} from {pi} disagrees with Original",
                            variant.name()
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn variants_match_original_on_fixtures() {
        for f in et_gen::fixtures::all_fixtures() {
            check_all_variants_match_original(f.graph.clone(), f.name);
        }
    }

    #[test]
    fn variants_match_original_on_random_graphs() {
        for seed in 0..4 {
            check_all_variants_match_original(et_gen::gnm(90, 600, seed), "gnm");
        }
    }

    #[test]
    fn variants_match_original_on_collaboration() {
        check_all_variants_match_original(
            et_gen::overlapping_cliques(250, 50, (3, 8), 120, 11),
            "collab",
        );
    }

    /// The shapes the peel's links are most exposed on: nested cliques
    /// compact the rows at every shell boundary (a link must still see the
    /// arcs peeled earlier in its own level), a skewed R-MAT mixes pool and
    /// calling-thread rounds, a mesh is one level and one supernode.
    #[test]
    fn variants_match_original_on_nested_skewed_and_mesh_graphs() {
        let nested = et_gen::fixtures::nested_cliques(16, &[(50, 2), (20, 4), (10, 8)]);
        check_all_variants_match_original(nested.graph, "nested cliques");
        check_all_variants_match_original(
            et_gen::rmat_with_cliques(et_gen::RmatConfig::graph500(10, 8, 13), 40, (4, 8)),
            "rmat+cliques",
        );
        check_all_variants_match_original(et_gen::triangulated_grid(30), "grid");
    }

    #[test]
    #[should_panic(expected = "the forest is not this graph's")]
    fn a_forest_of_another_graph_is_refused() {
        let peeled = EdgeIndexedGraph::new(et_gen::triangulated_grid(4));
        let other = EdgeIndexedGraph::new(et_gen::triangulated_grid(5));
        let decomposition = et_truss::decompose_parallel(&peeled);
        let mut t = KernelTimings::default();
        build_index_with_decomposition(&other, &decomposition, Variant::Afforest, &mut t);
    }

    #[test]
    fn shared_build_reads_identically_across_threads() {
        let eg = EdgeIndexedGraph::new(et_gen::overlapping_cliques(100, 20, (3, 6), 40, 7));
        let build = build_index(&eg, Variant::Afforest);
        let reference = build.index.canonical();
        let shared = Arc::new(build);
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let reference = reference.clone();
                std::thread::spawn(move || {
                    assert_eq!(shared.index.canonical(), reference);
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader thread");
        }
    }

    #[test]
    fn support_kernels_build_identical_indexes() {
        let eg = EdgeIndexedGraph::new(et_gen::overlapping_cliques(150, 30, (3, 6), 60, 9));
        let reference = build_index(&eg, Variant::COptimal);
        for kernel in SupportKernel::ALL {
            let build = build_index_with_options(&eg, Variant::COptimal, kernel);
            assert_eq!(
                build.index.canonical(),
                reference.index.canonical(),
                "kernel {}",
                kernel.name()
            );
        }
    }

    #[test]
    fn default_kernel_resolves_to_a_fixed_arm() {
        let eg = EdgeIndexedGraph::new(et_gen::overlapping_cliques(150, 30, (3, 6), 60, 9));
        let resolved = SupportKernel::Default.resolve(&eg);
        assert_ne!(resolved, SupportKernel::Default);
        assert_eq!(resolved, resolved.resolve(&eg), "fixed resolve is identity");
    }

    #[test]
    fn full_pipeline_records_timings() {
        let eg = EdgeIndexedGraph::new(et_gen::overlapping_cliques(120, 25, (3, 6), 40, 3));
        let build = build_index(&eg, Variant::Afforest);
        assert!(build.index.num_supernodes() > 0);
        assert!(build.timings.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn paper_example_counts() {
        let f = et_gen::fixtures::paper_example();
        let eg = EdgeIndexedGraph::new(f.graph.clone());
        for variant in Variant::ALL {
            let build = build_index(&eg, variant);
            assert_eq!(build.index.num_supernodes(), 5, "{}", variant.name());
            assert_eq!(build.index.num_superedges(), 6, "{}", variant.name());
        }
    }
}
