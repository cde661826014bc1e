//! Parallel k-truss decomposition (level-synchronous peeling).
//!
//! Follows the PKT scheme (Kabir & Madduri — reference \[24\] of the paper):
//! peel all edges whose remaining support equals the current level `l`
//! together, in rounds, using atomic support counters clamped at `l`. Edges
//! peeled at level `l` get trussness `l + 2`. The output is identical to the
//! serial decomposition because truss decomposition is unique.
//!
//! Two engineering choices distinguish this from the textbook version:
//!
//! * **Bucket-queue frontier seeding.** The textbook loop rescans all *m*
//!   edges once per support level to find the level's initial frontier —
//!   O(m·max_sup) wasted scans on skewed graphs. Here edges are bucketed by
//!   support up front; every decrement lazily re-queues the edge in its new
//!   bucket, and stale entries (support moved on, or already peeled) are
//!   skipped when a bucket is drained. Total seeding work drops to
//!   O(m + #decrements).
//! * **One packed state word per edge.** `processed`/`in_cur`/`queued` live
//!   as bits of a single `AtomicU8` instead of separate bool arrays, so the
//!   peel inner loop touches one cache-line stream instead of three.
//! * **Live rows.** Triangles are enumerated over an [`et_graph::RowView`]
//!   that starts as the graph's rows and is re-filtered to the unpeeled arcs
//!   at a level boundary once a quarter of its edges are `PROCESSED`. A
//!   dropped arc belongs to a peeled edge, and a triangle through a peeled
//!   edge is exactly what the round's `PROCESSED` early-return discards, so
//!   decrements, frontiers and τ are those of the static-CSR peel; hub rows
//!   just stop carrying their peeled leaves into every later intersection.
//!
//! The delicate part is triangle double-counting when several edges of one
//! triangle peel in the same round; the tie-breaking rules below are the
//! standard PKT resolution (lowest edge id of the in-frontier pair does the
//! decrement).

use crate::TrussDecomposition;
use et_graph::{schedule, steal, EdgeId, EdgeIndexedGraph, RowView};
use et_triangle::{compute_support_oriented, try_for_each_triangle_in_rows};
use rayon::prelude::*;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

/// Packed per-edge peel state: edge is in the round currently processing.
const IN_CUR: u8 = 1;
/// Packed per-edge peel state: edge was peeled in an earlier round.
const PROCESSED: u8 = 1 << 1;
/// Packed per-edge peel state: edge was claimed for the current level's
/// frontier during bucket seeding (dedups stale duplicate bucket entries).
const QUEUED: u8 = 1 << 2;
/// Packed per-edge peel state: edge's support dropped this level (but stayed
/// above the floor) and it is already recorded for bucket repair. Dedups
/// repair pushes — a hub edge decremented dozens of times across a level's
/// rounds gets exactly one new bucket entry. Cleared at level-end repair.
const MOVED: u8 = 1 << 3;

/// Frontier size below which a round runs as one task: the per-task
/// bookkeeping (range build + wave guard) would dwarf the triangle work.
const SMALL_FRONTIER: usize = 256;

/// The rows are re-filtered at a level boundary once 1/this of the edges
/// alive at the last filtering are peeled: each view is at most ¾ of the one
/// before, so all views together copy less than 4× the CSR, and none is built
/// before a quarter of the graph is dead. Swept on `social-build`
/// (EXPERIMENTS.md "PR 14"): `truss.peel_ms` 99 at ½, 91 at ¼, 93 at ⅛, 100
/// when every level compacts.
const COMPACT_DEAD_DEN: usize = 4;

/// Tasks per worker for a peel round. Rounds repeat thousands of times, so
/// the multiplier is lower than the Support kernel's: enough slack to absorb
/// estimate error, not enough to drown short rounds in task overhead.
const PEEL_TASKS_PER_THREAD: usize = 4;

/// Parallel level-synchronous truss decomposition over the oriented Support
/// kernel — the standalone entry point (`et-dynamic`'s per-update recompute,
/// `equitruss stats`, `CommunityIndex::build`); the index pipeline runs its
/// own Support pick and calls [`decompose_parallel_with_support`].
///
/// When tracing is enabled, the two kernels show up as `Support` and
/// `TrussDecomp` spans, the names the pipeline's timed slots use.
pub fn decompose_parallel(graph: &EdgeIndexedGraph) -> TrussDecomposition {
    let support = {
        let _span = et_obs::span("Support");
        compute_support_oriented(graph)
    };
    let _span = et_obs::span("TrussDecomp");
    decompose_parallel_with_support(graph, support)
}

/// Parallel peeling when the Support kernel already ran: bucket-queue
/// frontier seeding (no per-level full scans) with a packed state word, over
/// live rows.
pub fn decompose_parallel_with_support(
    graph: &EdgeIndexedGraph,
    support: Vec<u32>,
) -> TrussDecomposition {
    peel(graph, support).0
}

/// The peel, and how many times it re-filtered its rows.
fn peel(graph: &EdgeIndexedGraph, support: Vec<u32>) -> (TrussDecomposition, u64) {
    let m = graph.num_edges();
    if m == 0 {
        return (TrussDecomposition::new(Vec::new()), 0);
    }
    let max_sup = support.iter().copied().max().unwrap_or(0);

    // Bucket edges by initial support (counting pass sizes each bucket
    // exactly). Buckets are *lazy*: entries are invalidated by peeling or by
    // further decrements, and skipped at drain time.
    let mut buckets: Vec<Vec<EdgeId>> = {
        let mut sizes = vec![0usize; max_sup as usize + 1];
        for &s in &support {
            sizes[s as usize] += 1;
        }
        sizes.iter().map(|&c| Vec::with_capacity(c)).collect()
    };
    for (e, &s) in support.iter().enumerate() {
        buckets[s as usize].push(e as EdgeId);
    }

    let support: Vec<AtomicU32> = support.into_iter().map(AtomicU32::new).collect();
    let state: Vec<AtomicU8> = (0..m).map(|_| AtomicU8::new(0)).collect();
    let trussness: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(0)).collect();

    let tracing = et_obs::enabled();
    let wave = et_obs::wave("PeelFrontier");
    let mut rows = RowView::of(graph);
    // Edges alive when `rows` was built.
    let mut rows_alive = m;
    let mut compactions = 0u64;
    let mut levels_with_work = 0u64;
    let mut peel_rounds = 0u64;
    let mut bucket_repairs = 0u64;
    let mut scan_skips = 0u64;
    let mut remaining = m;
    let mut level: u32 = 0;
    while remaining > 0 && level <= max_sup {
        // Seed this level's frontier from its bucket. Entries whose support
        // moved on since they were queued are stale — their decrement already
        // re-queued them in a lower bucket (or will hand them to a frontier
        // via the floor-hitting CAS), so they are simply skipped.
        // Seeding runs between rounds, so supports are stable; duplicate
        // entries for the same edge are settled by the atomic QUEUED claim
        // (exactly one wins the fetch_or).
        let drained = std::mem::take(&mut buckets[level as usize]);
        let mut frontier: Vec<EdgeId> = drained
            .par_iter()
            .filter(|&&e| {
                let i = e as usize;
                state[i].load(Ordering::Relaxed) & (PROCESSED | QUEUED) == 0
                    && support[i].load(Ordering::Relaxed) == level
                    && state[i].fetch_or(QUEUED, Ordering::Relaxed) & QUEUED == 0
            })
            .copied()
            .collect();
        scan_skips += (drained.len() - frontier.len()) as u64;

        if !frontier.is_empty() {
            levels_with_work += 1;
        }
        // Edges whose support dropped this level but stayed above the floor.
        // Repair is deferred to level end: bucket entries are only consumed
        // when a *future* level starts its drain, and same-level floor hits
        // reach the frontier through the CAS path, so nothing is lost by
        // batching — and the MOVED bit then dedups across the whole level
        // (one repair per edge per level instead of one per round).
        let mut moved_level: Vec<EdgeId> = Vec::new();
        while !frontier.is_empty() {
            peel_rounds += 1;
            if tracing {
                et_obs::record_value("truss.frontier_len", frontier.len() as u64);
            }
            for &e in &frontier {
                state[e as usize].fetch_or(IN_CUR, Ordering::Relaxed);
            }
            // Process the round: decrement surviving triangle partners.
            // `next` collects edges that hit the level floor (the next
            // round's frontier, exactly-once via the floor-hitting CAS);
            // `moved` collects edges whose support dropped but stayed above
            // the floor, for lazy bucket repair at level end.
            let process = |acc: &mut (Vec<EdgeId>, Vec<EdgeId>), job: std::ops::Range<usize>| {
                let _task = wave.task();
                for &e in &frontier[job] {
                    let _ = try_for_each_triangle_in_rows(&rows, e, |_, e1, e2| {
                        let (i1, i2) = (e1 as usize, e2 as usize);
                        let s1 = state[i1].load(Ordering::Relaxed);
                        let s2 = state[i2].load(Ordering::Relaxed);
                        if (s1 | s2) & PROCESSED != 0 {
                            return ControlFlow::Continue(());
                        }
                        let c1 = s1 & IN_CUR != 0;
                        let c2 = s2 & IN_CUR != 0;
                        match (c1, c2) {
                            (true, true) => {} // whole triangle peels together
                            (true, false) => {
                                // e and e1 peel; exactly one of them (the
                                // smaller id) decrements e2.
                                if e < e1 {
                                    decrement(&support[i2], &state[i2], s2, level, e2, acc);
                                }
                            }
                            (false, true) => {
                                if e < e2 {
                                    decrement(&support[i1], &state[i1], s1, level, e1, acc);
                                }
                            }
                            (false, false) => {
                                decrement(&support[i1], &state[i1], s1, level, e1, acc);
                                decrement(&support[i2], &state[i2], s2, level, e2, acc);
                            }
                        }
                        ControlFlow::Continue(())
                    });
                }
            };
            // The per-task accumulators are merged as *sets* (dedup'd by the
            // floor CAS / MOVED bit), so which worker runs which range never
            // changes the outcome — safe to hand to the stealing scheduler
            // when a round is big enough to be worth rebalancing.
            let parts: Vec<(Vec<EdgeId>, Vec<EdgeId>)> = if level == 0 {
                // Support 0: the edge is in no triangle, so there is no row
                // to intersect and nothing to decrement.
                Vec::new()
            } else if frontier.len() <= SMALL_FRONTIER {
                let mut acc = Default::default();
                process(&mut acc, 0..frontier.len());
                vec![acc]
            } else {
                // Work-aware task cuts: weight each frontier edge by its
                // intersection cost (degree sum), so a round dominated by a
                // few hub edges still spreads across the pool instead of
                // stalling behind one fixed-size chunk that drew all the hubs.
                let tasks = schedule::balanced_ranges(
                    frontier.len(),
                    schedule::default_tasks_per_thread(frontier.len(), PEEL_TASKS_PER_THREAD),
                    |i| {
                        let (u, v) = rows.endpoints(frontier[i]);
                        1 + rows.degree(u) as u64 + rows.degree(v) as u64
                    },
                );
                let shards = steal::shard_tasks(tasks, rayon::current_num_threads().max(1));
                steal::execute(shards, Default::default, process).0
            };

            // Retire the round.
            frontier.par_iter().for_each(|&e| {
                let i = e as usize;
                trussness[i].store(level + 2, Ordering::Relaxed);
                state[i].store(PROCESSED, Ordering::Relaxed);
            });
            remaining -= frontier.len();

            // Flatten the per-job pairs with exact reserves (no quadratic
            // re-append chains); moved edges accumulate for the level-end
            // bucket repair.
            let next_len: usize = parts.iter().map(|p| p.0.len()).sum();
            let moved_len: usize = parts.iter().map(|p| p.1.len()).sum();
            let mut next: Vec<EdgeId> = Vec::with_capacity(next_len);
            moved_level.reserve(moved_len);
            for (n, moved) in parts {
                next.extend(n);
                moved_level.extend(moved);
            }
            frontier = next;
        }

        // Level-end bucket repair: re-queue each moved edge at its settled
        // support. The MOVED bit made entries unique, so the parallel
        // filter touches disjoint state words; only the Vec pushes stay
        // serial. s == level would mean a floor-hitting decrement queued
        // the edge into a frontier and it was peeled above; surviving moved
        // edges always sit strictly above the floor.
        let repairs: Vec<(EdgeId, u32)> = moved_level
            .par_iter()
            .filter_map(|&e| {
                let i = e as usize;
                let st = state[i].load(Ordering::Relaxed);
                state[i].store(st & !MOVED, Ordering::Relaxed);
                if st & PROCESSED != 0 {
                    return None;
                }
                let s = support[i].load(Ordering::Relaxed);
                (s > level).then_some((e, s))
            })
            .collect();
        bucket_repairs += repairs.len() as u64;
        for (e, s) in repairs {
            buckets[s as usize].push(e);
        }
        level += 1;

        // Level boundary: no round is running, so `state` is stable and the
        // unpeeled arcs can be copied out. Between boundaries edges peeled
        // since the copy stay in the rows and are skipped as before.
        if remaining > 0 && (rows_alive - remaining) * COMPACT_DEAD_DEN >= rows_alive {
            let _span = et_obs::span("PeelCompact").arg("level", u64::from(level));
            rows = rows.filtered(|e| state[e as usize].load(Ordering::Relaxed) & PROCESSED == 0);
            rows_alive = remaining;
            compactions += 1;
            et_obs::record_value("truss.live_arcs", rows.num_arcs() as u64);
        }
    }

    et_obs::counter_add("truss.levels", levels_with_work);
    et_obs::counter_add("truss.peel_rounds", peel_rounds);
    et_obs::counter_add("truss.bucket_repairs", bucket_repairs);
    et_obs::counter_add("truss.scan_skips", scan_skips);
    et_obs::counter_add("truss.compactions", compactions);
    let trussness: Vec<u32> = trussness.into_iter().map(|a| a.into_inner()).collect();
    (TrussDecomposition::new(trussness), compactions)
}

/// Atomically decrements `slot` without going below `floor`; if this call is
/// the one that lands exactly on `floor`, the edge joins the next round via
/// `acc.0` (exactly-once: only the successful floor-hitting CAS pushes).
/// Other successful decrements record the edge in `acc.1` for bucket repair
/// at level end — at most once per level, via the `MOVED` bit. `state_hint`
/// is the caller's already-loaded state word: MOVED only transitions 0→1
/// within a level (repair clears it between levels), so a hint with the bit
/// set is still true and skips the RMW; a clear hint falls through to the
/// race-settling `fetch_or`.
#[inline]
fn decrement(
    slot: &AtomicU32,
    state: &AtomicU8,
    state_hint: u8,
    floor: u32,
    e: EdgeId,
    acc: &mut (Vec<EdgeId>, Vec<EdgeId>),
) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if cur <= floor {
            return; // already at (or queued for) this level
        }
        match slot.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                if cur - 1 == floor {
                    acc.0.push(e);
                } else if state_hint & MOVED == 0
                    && state.fetch_or(MOVED, Ordering::Relaxed) & MOVED == 0
                {
                    acc.1.push(e);
                }
                return;
            }
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose_serial;
    use et_gen::fixtures;
    use et_graph::{EdgeIndexedGraph, GraphBuilder};

    #[test]
    fn matches_serial_on_fixtures() {
        for f in fixtures::all_fixtures() {
            let eg = EdgeIndexedGraph::new(f.graph.clone());
            let s = decompose_serial(&eg);
            let p = decompose_parallel(&eg);
            assert_eq!(s, p, "fixture {}", f.name);
        }
    }

    #[test]
    fn matches_serial_on_random_graphs() {
        for seed in 0..8 {
            let g = EdgeIndexedGraph::new(et_gen::gnm(100, 700, seed));
            assert_eq!(decompose_serial(&g), decompose_parallel(&g), "seed {seed}");
        }
    }

    #[test]
    fn matches_serial_on_collaboration_graph() {
        let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(300, 60, (3, 8), 100, 4));
        assert_eq!(decompose_serial(&g), decompose_parallel(&g));
    }

    #[test]
    fn shared_edge_cliques() {
        let f = fixtures::two_cliques_shared_edge();
        let eg = EdgeIndexedGraph::new(f.graph.clone());
        let d = decompose_parallel(&eg);
        assert!(d.trussness.iter().all(|&t| t == 5));
    }

    #[test]
    fn empty_and_tiny() {
        let g = EdgeIndexedGraph::new(GraphBuilder::new(3).build());
        assert!(decompose_parallel(&g).trussness.is_empty());
        let g1 = EdgeIndexedGraph::new(GraphBuilder::from_edges(2, &[(0, 1)]).build());
        assert_eq!(decompose_parallel(&g1).trussness, vec![2]);
    }

    /// The peel at 1, 4 and 8 threads: τ equals the serial decomposition's
    /// and the number of row compactions does not depend on the width.
    /// Returns that number.
    fn peel_matches_serial_at_every_width(g: &EdgeIndexedGraph, label: &str) -> u64 {
        let reference = decompose_serial(g);
        let mut compactions = None;
        for threads in [1, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            let (d, built) = pool.install(|| peel(g, et_triangle::compute_support(g)));
            assert_eq!(d, reference, "{label} at {threads} threads");
            assert_eq!(*compactions.get_or_insert(built), built, "{label}");
        }
        compactions.expect("three widths ran")
    }

    #[test]
    fn live_rows_match_serial_on_skewed_graphs() {
        let rmat = et_gen::rmat_with_cliques(et_gen::RmatConfig::graph500(10, 8, 11), 12, (4, 9));
        let built = peel_matches_serial_at_every_width(&EdgeIndexedGraph::new(rmat), "rmat");
        assert!(built >= 1, "a skewed graph compacts its rows");

        // Every shell is more than a quarter of what the shells before it
        // leave alive, so each shell boundary compacts.
        let nested = fixtures::nested_cliques(16, &[(50, 2), (20, 4), (10, 8)]);
        let built =
            peel_matches_serial_at_every_width(&EdgeIndexedGraph::new(nested.graph), "nested");
        assert!(built >= 3, "nested cliques compacted {built} times");
    }

    #[test]
    fn graphs_without_a_second_level_never_compact() {
        for (g, label) in [
            (GraphBuilder::new(0).build(), "empty"),
            (GraphBuilder::new(5).build(), "edgeless"),
            (
                GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).build(),
                "path",
            ),
            (et_gen::triangulated_grid(24), "grid"),
        ] {
            let built = peel_matches_serial_at_every_width(&EdgeIndexedGraph::new(g), label);
            assert_eq!(built, 0, "{label}");
        }
    }
}
