//! Parallel k-truss decomposition (level-synchronous peeling).
//!
//! Follows the PKT scheme (Kabir & Madduri — reference \[24\] of the paper):
//! peel all edges whose remaining support equals the current level `l`
//! together, in rounds, using atomic support counters clamped at `l`. Edges
//! peeled at level `l` get trussness `l + 2`. The output is identical to the
//! serial decomposition because truss decomposition is unique.
//!
//! Five engineering choices distinguish this from the textbook version:
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
//! * **Peel-time hooking: the rounds build the supernode forest.** A
//!   supernode is a class of edges of equal trussness k joined by triangles
//!   that lie inside the k-truss (Definition 6 of the paper), and Algorithm 2
//!   finds the classes by intersecting the rows of every edge again. The
//!   round that peels `e` at level `l` (k = `l + 2`) has each of those
//!   triangles in hand *with the status of the other two edges*, so it links
//!   `e` into a Π array ([`et_cc::atomic_link`], identity at the start)
//!   where today's PKT only decides about decrements:
//!
//!   | partners `e1`, `e2` of `e` in the triangle | τ | link |
//!   |---|---|---|
//!   | one is `PROCESSED` with τ < k | triangle outside the k-truss | none (skipped, as before) |
//!   | one or both `PROCESSED` with τ = k (peeled in an earlier round of this level) | all three ≥ k | `e` – *one* such partner: if both are, the later-peeled of the two linked them through this same triangle |
//!   | both `IN_CUR` | all three = k, one round | `e` – the smaller partner, if it is below `e`: the two larger ids link to the smallest |
//!   | one `IN_CUR`, one alive | = k, = k, ≥ k | `e` – the `IN_CUR` partner when `e` is the smaller id of the pair, the tie-break that owns the decrement |
//!   | both alive | ≥ k, maybe = k | none: an alive edge of trussness k is peeled in a later round and then finds `e` `PROCESSED` with τ = k |
//!
//!   *Sound*: every link joins two edges peeled at this level through a
//!   triangle whose third edge is unpeeled or peeled at this level — τ = k,
//!   τ = k, τ ≥ k. *Complete*: take edges `a`, `b` of trussness k in a
//!   triangle whose third edge `c` has τ ≥ k, `a` peeled no later than `b`.
//!   Rows are re-filtered at level boundaries only, to the edges unpeeled
//!   *then*, so while level `l` runs all three arcs are in view of whichever
//!   edge is peeled. In `b`'s round `a` is `IN_CUR` or `PROCESSED` with
//!   τ = k and `c` is not `PROCESSED` with τ < k, so one of rows two to four
//!   applies to `b` (and to `a`, when it shares the round) and leaves `a`
//!   and `b` in one tree: directly, or — when `b` links to a `c` peeled
//!   before it — because the later-peeled of `a` and `c` met the other under
//!   row two or four while `b` was still alive. Retiring a round points its
//!   edges at their roots so chains stay short; one compress pass ends the
//!   peel. The forest leaves in [`TrussDecomposition::forest`], and the index
//!   pipeline's default variant starts from it instead of running SpNode.
//! * **A round pays for the pool only when the pool pays back.** A mesh
//!   level is a cascade of hundreds of rounds of a thousand short-row edges;
//!   a skewed graph ends most levels in rounds of a few dozen. Handing such
//!   a round to the pool costs more in wake-up and join than its triangles
//!   do, three or four times over (estimates, the walk, retiring, repair) —
//!   enough that the peel got *slower* with a second thread. So the passes
//!   that do a load and a store per edge (seeding, work estimates, retiring,
//!   the level-end bucket repair, the last compress) are plain loops on the
//!   calling thread — no round of either build workload holds 2¹⁴ edges,
//!   below that the pool lost on each of them, and on a graph ten times the
//!   size it won back under 1 % of the peel (EXPERIMENTS.md "PR 24") — and
//!   the triangle walk goes to [`steal::execute`] only when the round's
//!   degree sums reach `POOL_WORK_MIN` (`pool_tasks`), which is read off
//!   the input (frontier size, row lengths); nothing names a workload.
//!
//! The delicate part is triangle double-counting when several edges of one
//! triangle peel in the same round; the tie-breaking rules below are the
//! standard PKT resolution (lowest edge id of the in-frontier pair does the
//! decrement).

use crate::TrussDecomposition;
use et_cc::{atomic_find, atomic_link};
use et_graph::{schedule, steal, EdgeId, EdgeIndexedGraph, RowView};
use et_triangle::{compute_support_oriented, try_for_each_triangle_in_rows};
use std::ops::{ControlFlow, Range};
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

/// Frontier size at or below which a round runs as one task whatever its
/// rows look like: no estimate is worth taking for so few edges.
const SMALL_FRONTIER: usize = 256;

/// Estimated work — the degree sums of the frontier's edges, one unit per
/// row entry an intersection may step over — below which a round's triangle
/// walk stays on the calling thread: a round at the floor is about 0.3 ms
/// of walk. Swept on `social-build`'s graph at 2 threads (EXPERIMENTS.md
/// "PR 24"), the peel reads 120.7 ms at 2¹⁶, 117.9 at 2¹⁸, 122.7 at 2²⁰
/// and 128.8 with no round on the pool; no round of the mesh reaches any of
/// them.
const POOL_WORK_MIN: u64 = 1 << 18;

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
/// live rows. The result carries the supernode forest
/// ([`TrussDecomposition::forest`]).
pub fn decompose_parallel_with_support(
    graph: &EdgeIndexedGraph,
    support: Vec<u32>,
) -> TrussDecomposition {
    peel(graph, support).0
}

/// What one task of a round hands back.
#[derive(Default)]
struct RoundAcc {
    /// Edges that hit the level floor: the next round's frontier
    /// (exactly-once via the floor-hitting CAS).
    next: Vec<EdgeId>,
    /// Edges whose support dropped but stayed above the floor, for the lazy
    /// bucket repair at level end.
    moved: Vec<EdgeId>,
    /// Supernode links made.
    links: u64,
}

/// The task ranges of a round that is worth the pool, `None` for one that
/// runs on the calling thread. `row_bound` is at least the length of every
/// row of `rows`: a round whose edges could not reach [`POOL_WORK_MIN`] with
/// rows that long is settled without reading a degree. One that could has
/// its degree sums taken once, and they both decide and cut the ranges.
fn pool_tasks(
    rows: &RowView<'_>,
    frontier: &[EdgeId],
    row_bound: u64,
) -> Option<Vec<Range<usize>>> {
    let len = frontier.len();
    if len <= SMALL_FRONTIER
        || rayon::current_num_threads() < 2
        || (len as u64).saturating_mul(1 + 2 * row_bound) < POOL_WORK_MIN
    {
        return None;
    }
    // Weight each frontier edge by its intersection cost, so a round
    // dominated by a few hub edges still spreads across the pool instead of
    // stalling behind one fixed-size chunk that drew all the hubs.
    let cost = |&e: &EdgeId| {
        let (u, v) = rows.endpoints(e);
        1 + rows.degree(u) as u64 + rows.degree(v) as u64
    };
    let work: Vec<u64> = frontier.iter().map(cost).collect();
    (work.iter().sum::<u64>() >= POOL_WORK_MIN).then(|| {
        let tasks = schedule::default_tasks_per_thread(len, PEEL_TASKS_PER_THREAD);
        schedule::ranges_from_work(&work, tasks)
    })
}

/// What a peel did, beyond its result: the `truss.*` counters of a traced
/// run, and what the unit tests pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PeelStats {
    /// Times the rows were re-filtered to the unpeeled arcs.
    compactions: u64,
    /// Rounds whose triangle walk ran on the pool.
    pool_rounds: u64,
    /// Rounds that ran on the calling thread.
    serial_rounds: u64,
    /// Supernode links made.
    hook_links: u64,
}

/// The peel, and what it did.
fn peel(graph: &EdgeIndexedGraph, support: Vec<u32>) -> (TrussDecomposition, PeelStats) {
    let m = graph.num_edges();
    if m == 0 {
        let empty = TrussDecomposition::with_forest(Vec::new(), Vec::new());
        return (empty, PeelStats::default());
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
    // Π of Algorithm 2: identity, linked as the rounds meet same-k triangles.
    let parent: Vec<AtomicU32> = (0..m as u32).map(AtomicU32::new).collect();

    let wave = et_obs::wave("PeelFrontier");
    let mut rows = RowView::of(graph);
    // No row of a filtered view is longer than the graph's.
    let row_bound = graph.graph().max_degree() as u64;
    // Edges alive when `rows` was built.
    let mut rows_alive = m;
    let mut stats = PeelStats::default();
    let mut levels_with_work = 0u64;
    let mut bucket_repairs = 0u64;
    let mut scan_skips = 0u64;
    let mut remaining = m;
    let mut level: u32 = 0;
    while remaining > 0 && level <= max_sup {
        // Seed this level's frontier from its bucket. Entries whose support
        // moved on since they were queued are stale — their decrement already
        // re-queued them in a lower bucket (or will hand them to a frontier
        // via the floor-hitting CAS), so they are simply skipped.
        // Seeding runs between rounds, so supports are stable; the QUEUED
        // bit lets the first of an edge's duplicate entries claim it.
        let drained = std::mem::take(&mut buckets[level as usize]);
        let claim = |&e: &EdgeId| {
            let i = e as usize;
            let st = state[i].load(Ordering::Relaxed);
            let fresh =
                st & (PROCESSED | QUEUED) == 0 && support[i].load(Ordering::Relaxed) == level;
            if fresh {
                state[i].store(st | QUEUED, Ordering::Relaxed);
            }
            fresh
        };
        let mut frontier: Vec<EdgeId> = drained.iter().copied().filter(claim).collect();
        scan_skips += (drained.len() - frontier.len()) as u64;
        drop(drained);

        // Edges whose support dropped this level but stayed above the floor.
        // Repair is deferred to level end: bucket entries are only consumed
        // when a *future* level starts its drain, and same-level floor hits
        // reach the frontier through the CAS path, so nothing is lost by
        // batching — and the MOVED bit then dedups across the whole level
        // (one repair per edge per level instead of one per round).
        let mut moved_level: Vec<EdgeId> = Vec::new();
        // This level's rounds, edges and widest round, for the trace.
        let (mut rounds, mut peeled, mut widest) = (0u64, 0usize, 0usize);
        // Edges of this level have trussness `k`.
        let k = level + 2;
        while !frontier.is_empty() {
            rounds += 1;
            peeled += frontier.len();
            widest = widest.max(frontier.len());
            for &e in &frontier {
                state[e as usize].fetch_or(IN_CUR, Ordering::Relaxed);
            }
            // Process the round: decrement the surviving partners of every
            // triangle, and link the frontier edge to the partners that
            // share its supernode (the module docs have the case table).
            let link = |acc: &mut RoundAcc, a: EdgeId, b: EdgeId| {
                atomic_link(&parent, a, b);
                acc.links += 1;
            };
            let process = |acc: &mut RoundAcc, job: Range<usize>| {
                let _task = wave.task();
                for &e in &frontier[job] {
                    let _ = try_for_each_triangle_in_rows(&rows, e, |_, e1, e2| {
                        let (i1, i2) = (e1 as usize, e2 as usize);
                        let s1 = state[i1].load(Ordering::Relaxed);
                        let s2 = state[i2].load(Ordering::Relaxed);
                        if (s1 | s2) & PROCESSED != 0 {
                            // Nothing to decrement. A partner peeled at an
                            // earlier level puts the triangle outside the
                            // k-truss; one peeled at this level shares it.
                            let in_truss = |s: u8, i: usize| {
                                s & PROCESSED == 0 || trussness[i].load(Ordering::Relaxed) == k
                            };
                            if in_truss(s1, i1) && in_truss(s2, i2) {
                                link(acc, e, if s1 & PROCESSED != 0 { e1 } else { e2 });
                            }
                            return ControlFlow::Continue(());
                        }
                        let c1 = s1 & IN_CUR != 0;
                        let c2 = s2 & IN_CUR != 0;
                        match (c1, c2) {
                            (true, true) => {
                                // Whole triangle peels together: the two
                                // larger ids link to the smallest.
                                let low = e1.min(e2);
                                if low < e {
                                    link(acc, e, low);
                                }
                            }
                            (true, false) => {
                                // e and e1 peel; exactly one of them (the
                                // smaller id) decrements e2 and links the
                                // pair.
                                if e < e1 {
                                    link(acc, e, e1);
                                    decrement(&support[i2], &state[i2], s2, level, e2, acc);
                                }
                            }
                            (false, true) => {
                                if e < e2 {
                                    link(acc, e, e2);
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
            // floor CAS / MOVED bit) and links commute, so which worker runs
            // which range never changes the outcome — safe to hand to the
            // stealing scheduler when a round is big enough to pay for it.
            let parts: Vec<RoundAcc> = if level == 0 {
                // Support 0: the edge is in no triangle, so there is no row
                // to intersect, nothing to decrement and nothing to link.
                stats.serial_rounds += 1;
                Vec::new()
            } else if let Some(tasks) = pool_tasks(&rows, &frontier, row_bound) {
                stats.pool_rounds += 1;
                let shards = steal::shard_tasks(tasks, rayon::current_num_threads());
                steal::execute(shards, RoundAcc::default, process).0
            } else {
                stats.serial_rounds += 1;
                let mut acc = RoundAcc::default();
                process(&mut acc, 0..frontier.len());
                vec![acc]
            };

            // Retire the round. Pointing each edge at its root keeps the
            // chains the next rounds' links climb one step long.
            for &e in &frontier {
                let i = e as usize;
                trussness[i].store(k, Ordering::Relaxed);
                state[i].store(PROCESSED, Ordering::Relaxed);
                parent[i].store(atomic_find(&parent, e), Ordering::Relaxed);
            }
            remaining -= frontier.len();

            // Flatten the per-job lists with exact reserves (no quadratic
            // re-append chains); moved edges accumulate for the level-end
            // bucket repair.
            let mut next: Vec<EdgeId> =
                Vec::with_capacity(parts.iter().map(|p| p.next.len()).sum());
            moved_level.reserve(parts.iter().map(|p| p.moved.len()).sum());
            for part in parts {
                next.extend(part.next);
                moved_level.extend(part.moved);
                stats.hook_links += part.links;
            }
            frontier = next;
        }
        if rounds > 0 {
            levels_with_work += 1;
            // One aggregate per level, not one record per round: a mesh's
            // single level is a cascade of hundreds of rounds.
            et_obs::record_value("truss.level_rounds", rounds);
            et_obs::record_value("truss.level_edges", peeled as u64);
            et_obs::record_value("truss.level_widest_round", widest as u64);
        }

        // Level-end bucket repair: re-queue each moved edge at its settled
        // support, in one pass on the calling thread — the pushes are serial
        // whatever filters ahead of them, and a filter on the pool cost more
        // than it saved (EXPERIMENTS.md "PR 24"). s == level would mean a
        // floor-hitting decrement queued the edge into a frontier and it was
        // peeled above; surviving moved edges always sit strictly above the
        // floor.
        for e in moved_level {
            let i = e as usize;
            let st = state[i].load(Ordering::Relaxed);
            state[i].store(st & !MOVED, Ordering::Relaxed);
            let s = support[i].load(Ordering::Relaxed);
            if st & PROCESSED == 0 && s > level {
                buckets[s as usize].push(e);
                bucket_repairs += 1;
            }
        }
        level += 1;

        // Level boundary: no round is running, so `state` is stable and the
        // unpeeled arcs can be copied out. Between boundaries edges peeled
        // since the copy stay in the rows — skipped by the decrements, and
        // what the links of their own level still need to see.
        if remaining > 0 && (rows_alive - remaining) * COMPACT_DEAD_DEN >= rows_alive {
            let _span = et_obs::span("PeelCompact").arg("level", u64::from(level));
            rows = rows.filtered(|e| state[e as usize].load(Ordering::Relaxed) & PROCESSED == 0);
            rows_alive = remaining;
            stats.compactions += 1;
            et_obs::record_value("truss.live_arcs", rows.num_arcs() as u64);
        }
    }

    et_obs::counter_add("truss.levels", levels_with_work);
    et_obs::counter_add("truss.peel_rounds", stats.pool_rounds + stats.serial_rounds);
    et_obs::counter_add("truss.pool_rounds", stats.pool_rounds);
    et_obs::counter_add("truss.serial_rounds", stats.serial_rounds);
    et_obs::counter_add("truss.hook_links", stats.hook_links);
    et_obs::counter_add("truss.bucket_repairs", bucket_repairs);
    et_obs::counter_add("truss.scan_skips", scan_skips);
    et_obs::counter_add("truss.compactions", stats.compactions);

    // Retiring compressed each edge as of its own round; later links moved
    // some roots since. One pass leaves every edge on its root.
    for e in 0..m as u32 {
        parent[e as usize].store(atomic_find(&parent, e), Ordering::Relaxed);
    }
    let unwrap = |cells: Vec<AtomicU32>| cells.into_iter().map(AtomicU32::into_inner).collect();
    (
        TrussDecomposition::with_forest(unwrap(trussness), unwrap(parent)),
        stats,
    )
}

/// Atomically decrements `slot` without going below `floor`; if this call is
/// the one that lands exactly on `floor`, the edge joins the next round via
/// `acc.next` (exactly-once: only the successful floor-hitting CAS pushes).
/// Other successful decrements record the edge in `acc.moved` for bucket repair
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
    acc: &mut RoundAcc,
) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if cur <= floor {
            return; // already at (or queued for) this level
        }
        match slot.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                if cur - 1 == floor {
                    acc.next.push(e);
                } else if state_hint & MOVED == 0
                    && state.fetch_or(MOVED, Ordering::Relaxed) & MOVED == 0
                {
                    acc.moved.push(e);
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

    /// The supernode partition straight from Definition 6: edges of equal
    /// trussness k joined by a triangle whose third edge has τ ≥ k.
    fn reference_forest(g: &EdgeIndexedGraph, tau: &[u32]) -> Vec<u32> {
        let mut sets = et_cc::DisjointSet::new(g.num_edges());
        for e in 0..g.num_edges() as EdgeId {
            let k = tau[e as usize];
            et_triangle::for_each_triangle_of_edge(g, e, |_, e1, e2| {
                let (k1, k2) = (tau[e1 as usize], tau[e2 as usize]);
                if k1 >= k && k2 >= k {
                    for (kx, x) in [(k1, e1), (k2, e2)] {
                        if kx == k {
                            sets.union(e, x);
                        }
                    }
                }
            });
        }
        sets.labels()
    }

    /// The peel at 1, 2, 4 and 8 threads: τ equals the serial
    /// decomposition's, the forest is the reference partition with every
    /// edge on its smallest member, and neither the number of row
    /// compactions nor the number of links depends on the width. Returns the
    /// 4-thread run's stats.
    fn peel_matches_reference_at_every_width(g: &EdgeIndexedGraph, label: &str) -> PeelStats {
        let reference = decompose_serial(g);
        let partition = reference_forest(g, &reference.trussness);
        let mut runs: Vec<PeelStats> = Vec::new();
        for threads in [1, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            let (d, stats) = pool.install(|| peel(g, et_triangle::compute_support(g)));
            assert_eq!(d, reference, "{label} at {threads} threads");
            let forest = d.forest().expect("the peel builds the forest");
            assert!(
                et_cc::same_partition(forest, &partition),
                "{label} at {threads} threads: forest is not the supernode partition"
            );
            for (e, &root) in forest.iter().enumerate() {
                assert!(root as usize <= e && forest[root as usize] == root);
                assert!(
                    d.trussness[e] > 2 || root as usize == e,
                    "τ = 2 edge {e} linked"
                );
            }
            runs.push(stats);
            assert_eq!(
                (runs[0].compactions, runs[0].hook_links),
                (stats.compactions, stats.hook_links),
                "{label} at {threads} threads"
            );
        }
        assert_eq!(runs[0].pool_rounds, 0, "{label}: a pool of one never pays");
        runs[2]
    }

    #[test]
    fn forest_is_the_supernode_partition_on_fixtures_and_random_graphs() {
        for f in fixtures::all_fixtures() {
            peel_matches_reference_at_every_width(&EdgeIndexedGraph::new(f.graph.clone()), f.name);
        }
        et_gen::cases::cases("forest_is_the_supernode_partition", 24, |rng, size| {
            let pairs = et_gen::cases::id_pairs(rng, size, 40, 0..400);
            let g = EdgeIndexedGraph::new(GraphBuilder::from_edges(40, &pairs).build());
            peel_matches_reference_at_every_width(&g, "random");
        });
    }

    #[test]
    fn only_the_parallel_peel_carries_a_forest_and_equality_ignores_it() {
        let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(120, 25, (3, 6), 40, 3));
        let serial = decompose_serial(&g);
        let parallel = decompose_parallel(&g);
        assert!(serial.forest().is_none());
        assert!(crate::brute_force_trussness(&g).forest().is_none());
        assert!(parallel.forest().is_some());
        assert_eq!(serial, parallel);
        let stripped = TrussDecomposition::new(parallel.trussness.clone());
        assert!(stripped.forest().is_none());
        assert_eq!(stripped, parallel);
    }

    #[test]
    fn live_rows_match_serial_on_skewed_graphs() {
        let rmat = et_gen::rmat_with_cliques(et_gen::RmatConfig::graph500(10, 8, 11), 12, (4, 9));
        let stats = peel_matches_reference_at_every_width(&EdgeIndexedGraph::new(rmat), "rmat");
        assert!(stats.compactions >= 1, "a skewed graph compacts its rows");

        // Every shell is more than a quarter of what the shells before it
        // leave alive, so each shell boundary compacts — and the links of a
        // shell's later rounds must still see the arcs its earlier rounds
        // peeled.
        let nested = fixtures::nested_cliques(16, &[(50, 2), (20, 4), (10, 8)]);
        let stats =
            peel_matches_reference_at_every_width(&EdgeIndexedGraph::new(nested.graph), "nested");
        assert!(stats.compactions >= 3, "nested cliques compacted {stats:?}");
        assert!(stats.hook_links > 0);
    }

    /// Rounds on either side of the pool floor give one τ and one partition:
    /// a skewed graph opens its low levels with rounds of hub edges worth the
    /// pool and ends every level in rounds that are not; no round of a mesh
    /// carries the work.
    #[test]
    fn rounds_go_to_the_pool_only_above_the_work_floor() {
        let rmat = et_gen::rmat_with_cliques(et_gen::RmatConfig::graph500(13, 8, 5), 20, (4, 10));
        let stats = peel_matches_reference_at_every_width(&EdgeIndexedGraph::new(rmat), "rmat");
        assert!(
            stats.pool_rounds > 0 && stats.serial_rounds > 0,
            "{stats:?}"
        );

        let grid = EdgeIndexedGraph::new(et_gen::triangulated_grid(100));
        let stats = peel_matches_reference_at_every_width(&grid, "grid");
        assert_eq!(stats.pool_rounds, 0, "{stats:?}");
        assert!(stats.serial_rounds > 10, "{stats:?}");
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
            let stats = peel_matches_reference_at_every_width(&EdgeIndexedGraph::new(g), label);
            assert_eq!(stats.compactions, 0, "{label}");
        }
    }
}
