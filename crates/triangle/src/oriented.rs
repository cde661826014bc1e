//! Triangle-once oriented Support kernel.
//!
//! The merge kernel ([`crate::support::compute_support`]) intersects
//! `N(u) ∩ N(v)` independently for every edge, so each triangle is discovered
//! three times — once per edge. This kernel enumerates each triangle exactly
//! once over the degree-ordered DAG of [`et_graph::OrientedGraph`] and
//! *scatters* `+1` to all three edge supports with relaxed atomic adds: for
//! every oriented arc `(u → v)` it intersects the two out-rows `out(u)` and
//! `out(v)`; a common target `w` pins the triangle at its unique
//! `rank(u) < rank(v) < rank(w)` orientation. Integer addition commutes, so
//! the resulting support vector is bit-identical to the merge kernel's no
//! matter how threads interleave.
//!
//! Work is split over *oriented arcs*, not edges: a hub row (thousands of
//! arcs) is spread across many tasks instead of serializing inside one
//! per-edge task. Task boundaries are work-aware ([`et_graph::schedule`]):
//! each arc is weighted by the size of the merge it will run
//! (`|out(u)| + |out(v)|`), the weights are prefix-summed, and boundaries
//! fall on the work quantiles — so a task full of hub arcs covers few of
//! them and a task of leaf arcs covers many, keeping
//! `par.imbalance_x1000.SupportChunks` flat on skewed (R-MAT-like) degree
//! distributions where fixed-size chunks idle the pool.

use crate::intersect::intersect_matches;
use et_graph::{schedule, steal, Advice, EdgeIndexedGraph, OrientedGraph};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Tasks per worker for the arc wave.
const TASKS_PER_THREAD: usize = 8;

/// Per-arc work estimates for the oriented merge: `1 + |out(u)| + |out(v)|`
/// for an arc `u → v`. Filled row by row so no per-arc row lookup is needed.
fn arc_work(oriented: &OrientedGraph) -> Vec<u64> {
    let offsets = oriented.offsets();
    let targets = oriented.raw_targets();
    let mut work = vec![0u64; oriented.num_arcs()];
    let rows: Vec<(usize, &mut [u64])> = {
        let mut rows = Vec::with_capacity(offsets.len() - 1);
        let mut rest = work.as_mut_slice();
        for r in 0..offsets.len() - 1 {
            let (head, tail) = rest.split_at_mut(offsets[r + 1] - offsets[r]);
            rows.push((r, head));
            rest = tail;
        }
        rows
    };
    rows.into_par_iter().for_each(|(r, row)| {
        let out_u = row.len() as u64;
        let base = offsets[r];
        for (k, w) in row.iter_mut().enumerate() {
            let s = targets[base + k] as usize;
            *w = 1 + out_u + (offsets[s + 1] - offsets[s]) as u64;
        }
    });
    work
}

/// Computes `support(e)` for every edge id by triangle-once oriented
/// enumeration. Builds the DAG view internally; use
/// [`compute_support_with_oriented`] to amortize a prebuilt view.
pub fn compute_support_oriented(graph: &EdgeIndexedGraph) -> Vec<u32> {
    // The orientation pass streams every CSR row once; on a mapped backend,
    // start faulting those pages in before the build touches them.
    graph.graph().advise(Advice::WillNeed);
    let oriented = OrientedGraph::build(graph);
    compute_support_with_oriented(graph, &oriented)
}

/// Oriented Support kernel over a prebuilt DAG view.
///
/// Returns a vector indexed by [`et_graph::EdgeId`], bit-identical to
/// [`crate::support::compute_support`] on the same graph.
pub fn compute_support_with_oriented(
    graph: &EdgeIndexedGraph,
    oriented: &OrientedGraph,
) -> Vec<u32> {
    let m = graph.num_edges();
    let support: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(0)).collect();
    let num_arcs = oriented.num_arcs();
    let work = arc_work(oriented);
    let tasks = schedule::ranges_from_work(
        &work,
        schedule::default_tasks_per_thread(num_arcs, TASKS_PER_THREAD),
    );
    let tracing = et_obs::enabled();
    let wave = et_obs::wave("SupportChunks");

    let run_range = |range: Range<usize>| {
        let _task = wave.task();
        let (lo, hi) = (range.start, range.end);
        let offsets = oriented.offsets();
        let targets = oriented.raw_targets();
        let eids = oriented.raw_arc_eids();
        // Row of the first arc; subsequent rows advance with the cursor.
        let mut r = offsets.partition_point(|&o| o <= lo) - 1;
        let mut triangles = 0u64;
        for a in lo..hi {
            while offsets[r + 1] <= a {
                r += 1;
            }
            let s = targets[a] as usize;
            let (row_v, eids_v) = (oriented.row(s), oriented.row_eids(s));
            if row_v.is_empty() {
                continue;
            }
            let (row_u, eids_u) = (oriented.row(r), oriented.row_eids(r));
            // Common targets have rank > s, so skip u's out-arcs up to s
            // (this arc itself included) before the merge.
            let skip = row_u.partition_point(|&t| t as usize <= s);
            let mut found = 0u32;
            intersect_matches(&row_u[skip..], row_v, |i, j| {
                // Triangle (r, s, row_u[skip + i]): bump the two wing edges
                // now, the base edge once after the merge.
                support[eids_u[skip + i] as usize].fetch_add(1, Ordering::Relaxed);
                support[eids_v[j] as usize].fetch_add(1, Ordering::Relaxed);
                found += 1;
            });
            if found > 0 {
                support[eids[a] as usize].fetch_add(found, Ordering::Relaxed);
                triangles += found as u64;
            }
        }
        if tracing {
            et_obs::counter_add("support.oriented_triangles", triangles);
            et_obs::counter_add("support.chunks", 1);
        }
    };

    // The scatter commutes (relaxed atomic adds), so ranges may run on any
    // worker in any order: stealing absorbs work-estimate error.
    steal::execute_flat(tasks, run_range);

    support.into_iter().map(AtomicU32::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::{compute_support, compute_support_serial};
    use et_graph::GraphBuilder;

    fn indexed(edges: &[(u32, u32)], n: usize) -> EdgeIndexedGraph {
        EdgeIndexedGraph::new(GraphBuilder::from_edges(n, edges).build())
    }

    #[test]
    fn triangle_and_k4() {
        let g = indexed(&[(0, 1), (1, 2), (0, 2)], 3);
        assert_eq!(compute_support_oriented(&g), vec![1, 1, 1]);
        let g = indexed(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4);
        assert_eq!(compute_support_oriented(&g), vec![2; 6]);
    }

    #[test]
    fn path_and_empty() {
        let g = indexed(&[(0, 1), (1, 2), (2, 3)], 4);
        assert_eq!(compute_support_oriented(&g), vec![0, 0, 0]);
        let g = indexed(&[], 5);
        assert!(compute_support_oriented(&g).is_empty());
    }

    #[test]
    fn matches_merge_and_serial_on_random_graphs() {
        for seed in 0..6 {
            let g = EdgeIndexedGraph::new(et_gen::gnm(120, 900, seed));
            let oriented = compute_support_oriented(&g);
            assert_eq!(oriented, compute_support(&g), "gnm seed {seed}");
            assert_eq!(oriented, compute_support_serial(&g), "gnm seed {seed}");
        }
    }

    #[test]
    fn matches_merge_on_skewed_graphs() {
        for seed in [3, 17] {
            let g = EdgeIndexedGraph::new(et_gen::rmat_small(9, 8, seed));
            assert_eq!(
                compute_support_oriented(&g),
                compute_support(&g),
                "rmat seed {seed}"
            );
        }
        let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(200, 40, (3, 8), 80, 7));
        assert_eq!(compute_support_oriented(&g), compute_support(&g));
    }

    #[test]
    fn prebuilt_view_matches() {
        let g = EdgeIndexedGraph::new(et_gen::gnm(80, 500, 2));
        let view = OrientedGraph::build(&g);
        assert_eq!(
            compute_support_with_oriented(&g, &view),
            compute_support(&g)
        );
    }

    #[test]
    fn support_sums_to_three_triangle_count() {
        // Triangle-once accounting: every triangle contributes exactly one
        // +1 to each of its three edges.
        let g = EdgeIndexedGraph::new(et_gen::gnm(60, 400, 8));
        let total: u64 = compute_support_oriented(&g).iter().map(|&s| s as u64).sum();
        assert_eq!(total, 3 * crate::count::count_triangles(&g));
    }
}
