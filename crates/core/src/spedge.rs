//! SpEdge — parallel superedge creation.
//!
//! [`spedge_triangle_once`] is the pass every build runs. Every triangle is
//! visited once, from its *pivot* edge (the edge between its two smallest
//! vertices), with all three trussness values in hand, and emits the pairs
//! Algorithm 3 would have emitted from its three visits. Needs Π final for
//! *every* group — which the SpNode wave's barrier provides, or the peel
//! that built the forest — and so reads it as plain `&[u32]`: nothing writes
//! Π once SpNode is over.
//!
//! Algorithm 3 verbatim — for each edge e of a Φ_k set, every triangle
//! through e is examined; when e's trussness k strictly exceeds the
//! triangle's minimum trussness, a superedge is recorded from the supernode
//! of the minimum edge up to the supernode of e ("create superedge downward",
//! ln. 9–12), so every triangle is walked from each of its three edges — is
//! kept as `spedge_group` in this module's tests, which hold the
//! triangle-once pass to its candidate *set*.
//!
//! Each parallel job appends into its own subset — the thread-local
//! `sp_edges[tid]` of the paper — so no synchronization is needed; the
//! subsets are merged later by Algorithm 4 (see [`crate::smgraph`]).

use et_graph::{schedule, EdgeId, EdgeIndexedGraph};
use et_triangle::for_each_pivot_triangle_of_edge;
use rayon::prelude::*;
use std::ops::Range;

/// A superedge candidate: `(Π-root of the lower-trussness supernode,
/// Π-root of the higher-trussness supernode)`. Roots are edge ids; the
/// SpNodeRemap kernel translates them to dense supernode ids.
pub type RootPair = (u32, u32);

/// Tasks per worker for the triangle-once wave.
const TASKS_PER_THREAD: usize = 8;

/// The triangle-once SpEdge pass over the whole graph: one wave of
/// contiguous pivot-edge ranges, each returning its sorted, deduplicated
/// subset of superedge candidates (empty subsets dropped).
///
/// A triangle with trussness values `lowest = min(k, k1, k2) ≥ 3`, not all
/// equal, emits `(Π(a lowest edge), Π(x))` for each of its edges `x` above
/// `lowest`. That is Algorithm 3's output summed over the triangle's three
/// visits: when two edges tie for lowest, the third edge lies above them, so
/// the triangle is inside the `lowest`-truss and the two are
/// `lowest`-triangle connected — one supernode, one root, one pair.
///
/// Must run after SpNode has finalized Π for **every** group (the wave
/// barrier): unlike Algorithm 3 it reads the roots of all three edges,
/// whichever group the pivot belongs to.
pub fn spedge_triangle_once(
    graph: &EdgeIndexedGraph,
    trussness: &[u32],
    parent: &[u32],
) -> Vec<Vec<RootPair>> {
    let m = graph.num_edges();
    // Equal pivot counts, not equal estimated work: an estimate pass over
    // all m edges cost more than the imbalance it removed (DESIGN.md "Engine
    // & scheduling"); a few tasks per worker, claimed dynamically, absorb
    // the skew.
    let per = m
        .div_ceil(schedule::default_tasks_per_thread(m, TASKS_PER_THREAD))
        .max(1);
    let tasks: Vec<Range<usize>> = (0..m)
        .step_by(per)
        .map(|lo| lo..(lo + per).min(m))
        .collect();
    let wave = et_obs::wave("SpEdgeWave");
    let root = |e: EdgeId| parent[e as usize];
    let subsets: Vec<Vec<RootPair>> = tasks
        .into_par_iter()
        .map(|range| {
            let _task = wave.task();
            let _span = et_obs::span("SpEdge").arg("pivots", range.len() as u64);
            let mut acc: Vec<RootPair> = Vec::new();
            for e in range.start as EdgeId..range.end as EdgeId {
                let k = trussness[e as usize];
                if k < 3 {
                    continue; // in no triangle
                }
                for_each_pivot_triangle_of_edge(graph, e, |_, e1, e2| {
                    let (k1, k2) = (trussness[e1 as usize], trussness[e2 as usize]);
                    if k1 == k && k2 == k {
                        return; // one trussness class — no superedge
                    }
                    let lowest = k.min(k1).min(k2);
                    if lowest < 3 {
                        return; // unindexed edge in the triangle — no superedge
                    }
                    let low = if k == lowest {
                        e
                    } else if k1 == lowest {
                        e1
                    } else {
                        e2
                    };
                    let low_root = root(low);
                    for (kx, x) in [(k, e), (k1, e1), (k2, e2)] {
                        if kx > lowest {
                            let pair = (low_root, root(x));
                            // A pivot's triangles mostly repeat its own pair.
                            if acc.last() != Some(&pair) {
                                acc.push(pair);
                            }
                        }
                    }
                });
            }
            acc.sort_unstable();
            acc.dedup();
            acc
        })
        .collect();
    record_subset_stats(&subsets);
    subsets.into_iter().filter(|s| !s.is_empty()).collect()
}

/// Per-job buffer sizes (the `sp_edges[tid]` of the paper) and the load skew
/// across them.
fn record_subset_stats(subsets: &[Vec<RootPair>]) {
    if !et_obs::enabled() {
        return;
    }
    let mut total = 0u64;
    let mut max_len = 0u64;
    let mut jobs = 0u64;
    for s in subsets.iter().filter(|s| !s.is_empty()) {
        let len = s.len() as u64;
        et_obs::record_value("spedge.buffer_len", len);
        total += len;
        max_len = max_len.max(len);
        jobs += 1;
    }
    et_obs::counter_add("spedge.candidates", total);
    if jobs > 0 && total > 0 {
        // Skew = max subset length over the mean, ×100 (100 = balanced).
        et_obs::record_value("spedge.subset_skew", max_len * 100 * jobs / total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coptimal::tests::run_coptimal;
    use crate::phi::PhiGroups;
    use et_triangle::for_each_triangle_of_edge;
    use et_truss::decompose_serial;
    /// Algorithm 3 for one Φ_k group, one subset per fold job appended to
    /// `subsets`. Needs Π final for every trussness ≤ k.
    fn spedge_group(
        graph: &EdgeIndexedGraph,
        trussness: &[u32],
        k: u32,
        phi_k: &[EdgeId],
        parent: &[u32],
        subsets: &mut Vec<Vec<RootPair>>,
    ) {
        let new_subsets: Vec<Vec<RootPair>> = phi_k
            .par_iter()
            .fold(Vec::new, |mut acc: Vec<RootPair>, &e| {
                let pe = parent[e as usize];
                for_each_triangle_of_edge(graph, e, |_, e1, e2| {
                    let (k1, k2) = (trussness[e1 as usize], trussness[e2 as usize]);
                    let lowest = k.min(k1).min(k2);
                    if lowest < 3 {
                        return; // unindexed edge in the triangle — no superedge
                    }
                    // "Create superedge downward, k > k1" (ln. 9–10).
                    if k > lowest && lowest == k1 {
                        acc.push((parent[e1 as usize], pe));
                    }
                    // "Create superedge downward, k > k2" (ln. 11–12).
                    if k > lowest && lowest == k2 {
                        acc.push((parent[e2 as usize], pe));
                    }
                });
                acc
            })
            .collect();
        subsets.extend(new_subsets.into_iter().filter(|s| !s.is_empty()));
    }

    /// Builds Π and collects all superedge candidates for a graph.
    fn run(eg: &EdgeIndexedGraph) -> (Vec<u32>, Vec<Vec<RootPair>>) {
        let tau = decompose_serial(eg).trussness;
        let phi = PhiGroups::build(&tau);
        let parent = run_coptimal(eg, &tau);
        let mut subsets = Vec::new();
        for (k, group) in phi.iter() {
            spedge_group(eg, &tau, k, group, &parent, &mut subsets);
        }
        (parent, subsets)
    }

    #[test]
    fn paper_example_superedge_pairs() {
        let f = et_gen::fixtures::paper_example();
        let eg = EdgeIndexedGraph::new(f.graph.clone());
        let (parent, subsets) = run(&eg);

        // Deduplicate candidates into unordered root pairs.
        let mut pairs: Vec<(u32, u32)> = subsets
            .into_iter()
            .flatten()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 6, "paper example has six superedges");

        // Each pair joins supernodes of different trussness.
        let tau = decompose_serial(&eg).trussness;
        for &(a, b) in &pairs {
            // Roots are representative edges of their supernodes.
            assert_ne!(tau[a as usize], tau[b as usize]);
            assert_eq!(parent[a as usize], a, "pair endpoint must be a root");
            assert_eq!(parent[b as usize], b, "pair endpoint must be a root");
        }
    }

    fn candidate_set(subsets: Vec<Vec<RootPair>>) -> Vec<RootPair> {
        let mut pairs: Vec<RootPair> = subsets.into_iter().flatten().collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The triangle-once pass and Algorithm 3 over every Φ_k, both reading
    /// one finalized Π, must emit the same set of candidates.
    #[test]
    fn triangle_once_emits_algorithm_3_candidate_set() {
        let mut graphs: Vec<(String, et_graph::CsrGraph)> = et_gen::fixtures::all_fixtures()
            .into_iter()
            .map(|f| (f.name.to_string(), f.graph.clone()))
            .collect();
        graphs.push((
            "rmat+cliques".into(),
            et_gen::rmat_with_cliques(et_gen::RmatConfig::graph500(9, 8, 5), 40, (4, 8)),
        ));
        graphs.push((
            "overlapping cliques".into(),
            et_gen::overlapping_cliques(250, 50, (3, 8), 120, 11),
        ));
        graphs.push(("gnm".into(), et_gen::gnm(120, 900, 4)));
        graphs.push(("grid".into(), et_gen::triangulated_grid(12)));

        for (name, graph) in graphs {
            let eg = EdgeIndexedGraph::new(graph);
            let tau = decompose_serial(&eg).trussness;
            let phi = PhiGroups::build(&tau);
            let parent = run_coptimal(&eg, &tau);
            for threads in [1usize, 4] {
                let (algorithm_3, once) = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("test pool")
                    .install(|| {
                        let mut subsets = Vec::new();
                        for (k, group) in phi.iter() {
                            spedge_group(&eg, &tau, k, group, &parent, &mut subsets);
                        }
                        (subsets, spedge_triangle_once(&eg, &tau, &parent))
                    });
                for subset in &once {
                    assert!(
                        subset.windows(2).all(|w| w[0] < w[1]),
                        "{name}: a task's subset is not sorted and deduplicated"
                    );
                }
                assert_eq!(
                    candidate_set(once),
                    candidate_set(algorithm_3),
                    "{name} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn clique_produces_no_superedges() {
        let f = et_gen::fixtures::clique(6);
        let eg = EdgeIndexedGraph::new(f.graph.clone());
        let (_, subsets) = run(&eg);
        assert!(subsets.iter().all(|s| s.is_empty()) || subsets.is_empty());
    }

    #[test]
    fn lower_root_is_lower_trussness() {
        let f = et_gen::fixtures::paper_example();
        let eg = EdgeIndexedGraph::new(f.graph.clone());
        let tau = decompose_serial(&eg).trussness;
        let (_, subsets) = run(&eg);
        for (lo, hi) in subsets.into_iter().flatten() {
            assert!(
                tau[lo as usize] < tau[hi as usize],
                "superedge candidate ({lo},{hi}) not downward"
            );
        }
    }
}
