//! Work-stealing execution over per-worker task shards.
//!
//! [`crate::schedule::ranges_from_work`] balances tasks by *estimated* work;
//! when the estimate is badly wrong for a few items (a frontier edge whose
//! repair touches a hub, a degree-sum that undercounts intersection cost)
//! one task can run far longer than its siblings while the rest of the pool
//! idles. This module closes that gap: tasks live in per-worker shards of
//! [`AtomicU64`] slots, each slot packing a `start..end` index range into one
//! word. A worker claims work from its own shard first and, once it drains,
//! **steals the back half of the largest remaining range anywhere** — so a
//! mis-estimated monster task is split geometrically across idle workers
//! instead of serialising the wave.
//!
//! The single-word CAS protocol makes loss/duplication impossible by
//! construction: every claim replaces `(start, end)` with either
//! `(start', end)` (owner takes a front grain) or `(start, mid)` (thief
//! takes `mid..end`), and a failed CAS retries from the freshly observed
//! value. Execution order changes under stealing, but both hot paths that
//! use it (support scatter via commutative relaxed atomic adds, peel
//! frontier collection followed by a sort) are order-insensitive, so results
//! stay bit-identical whatever the steal interleaving.

use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Below this many items a range is claimed whole instead of split; keeps
/// the CAS traffic amortised over real work.
const MIN_GRAIN: usize = 64;

#[inline]
fn pack(r: &Range<usize>) -> u64 {
    debug_assert!(r.end <= u32::MAX as usize, "range exceeds u32 index space");
    ((r.start as u64) << 32) | r.end as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> 32) as usize, (v & 0xFFFF_FFFF) as usize)
}

const EMPTY: u64 = 0; // start == end == 0

struct Shard {
    slots: Vec<AtomicU64>,
    /// First slot that may still hold work; monotonically advanced by the
    /// owner as slots drain. Purely a scan hint — correctness never depends
    /// on it.
    cursor: AtomicUsize,
}

/// Telemetry from one [`execute`] wave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Ranges executed (after owner grains and thief splits).
    pub tasks: u64,
    /// Claims taken from a shard other than the worker's own.
    pub steals: u64,
}

/// Lock-free pool of index ranges sharded per worker.
pub struct StealQueue {
    shards: Vec<Shard>,
}

impl StealQueue {
    /// Builds a queue from per-shard task lists. Empty input ranges are
    /// dropped; shard count is preserved even for empty shards so
    /// `worker % num_shards` stays aligned with the caller's layout.
    ///
    /// # Panics
    /// If a range ends past `u32::MAX`: a slot packs both bounds into one
    /// word. This is the only check — claims only ever shrink a range.
    pub fn new(shard_tasks: Vec<Vec<Range<usize>>>) -> Self {
        let shards = shard_tasks
            .into_iter()
            .map(|tasks| Shard {
                slots: tasks
                    .into_iter()
                    .filter(|r| r.end > r.start)
                    .map(|r| {
                        assert!(
                            r.end <= u32::MAX as usize,
                            "steal: task range {r:?} ends past the u32 index space of a slot"
                        );
                        AtomicU64::new(pack(&r))
                    })
                    .collect(),
                cursor: AtomicUsize::new(0),
            })
            .collect();
        StealQueue { shards }
    }

    /// Number of shards (may be 0 for an empty queue).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Claims the next grain from `shard`'s own slots: the whole range when
    /// small, otherwise the front half (geometric self-splitting keeps the
    /// tail visible to thieves).
    fn pop_local(&self, shard: usize) -> Option<Range<usize>> {
        let s = &self.shards[shard];
        let mut idx = s.cursor.load(Ordering::Relaxed);
        while idx < s.slots.len() {
            let slot = &s.slots[idx];
            let mut cur = slot.load(Ordering::Acquire);
            loop {
                let (lo, hi) = unpack(cur);
                if lo >= hi {
                    break; // drained — advance the cursor hint
                }
                let len = hi - lo;
                let take = if len <= MIN_GRAIN {
                    len
                } else {
                    len.div_ceil(2)
                };
                let next = if take == len {
                    EMPTY
                } else {
                    pack(&((lo + take)..hi))
                };
                match slot.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return Some(lo..lo + take),
                    Err(seen) => cur = seen,
                }
            }
            // Only ratchet forward; a stale larger cursor from another
            // worker is fine because slots behind it are empty anyway.
            let _ = s
                .cursor
                .compare_exchange(idx, idx + 1, Ordering::Relaxed, Ordering::Relaxed);
            idx = s.cursor.load(Ordering::Relaxed).max(idx + 1);
        }
        None
    }

    /// Steals from the victim slot with the largest remaining range.
    fn steal(&self, thief_shard: usize) -> Option<Range<usize>> {
        loop {
            let mut best: Option<(usize, usize, u64)> = None; // (shard, slot, packed)
            let mut best_len = 0usize;
            for (si, shard) in self.shards.iter().enumerate() {
                if si == thief_shard {
                    continue;
                }
                for (qi, slot) in shard
                    .slots
                    .iter()
                    .enumerate()
                    .skip(shard.cursor.load(Ordering::Relaxed))
                {
                    let v = slot.load(Ordering::Acquire);
                    let (lo, hi) = unpack(v);
                    let len = hi.saturating_sub(lo);
                    if len > best_len {
                        best = Some((si, qi, v));
                        best_len = len;
                    }
                }
            }
            let (si, qi, observed) = best?;
            let (lo, hi) = unpack(observed);
            let len = hi - lo;
            // Take the back half (leaves the cache-warm front for the
            // victim), or everything when the range is already small.
            let (claim, next) = if len <= MIN_GRAIN {
                (lo..hi, EMPTY)
            } else {
                let mid = lo + len / 2;
                (mid..hi, pack(&(lo..mid)))
            };
            if self.shards[si].slots[qi]
                .compare_exchange(observed, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(claim);
            }
            // Lost the race — rescan; the pool shrinks monotonically so
            // this terminates.
        }
    }
}

/// Splits a flat task list into `shards` contiguous groups (consecutive
/// tasks per shard, so each shard covers a contiguous index region).
pub fn shard_tasks(tasks: Vec<Range<usize>>, shards: usize) -> Vec<Vec<Range<usize>>> {
    let shards = shards.max(1);
    let per = tasks.len().div_ceil(shards).max(1);
    let mut out: Vec<Vec<Range<usize>>> = Vec::with_capacity(shards);
    let mut it = tasks.into_iter().peekable();
    for _ in 0..shards {
        let mut group = Vec::with_capacity(per);
        for _ in 0..per {
            match it.next() {
                Some(t) => group.push(t),
                None => break,
            }
        }
        out.push(group);
    }
    debug_assert!(it.peek().is_none());
    out
}

/// Runs `body` over every range in `shard_tasks` with work stealing, one
/// logical worker per shard. Each worker gets its own accumulator from
/// `new_acc`; the per-worker accumulators are returned in shard order along
/// with steal telemetry (also emitted as `sched.steals` /
/// `sched.tasks` counters when tracing is on).
///
/// Ranges may execute on any worker in any order — callers must only use
/// this for order-insensitive bodies (commutative scatter, local collection
/// merged later).
pub fn execute<R: Send>(
    shard_tasks: Vec<Vec<Range<usize>>>,
    new_acc: impl Fn() -> R + Sync,
    body: impl Fn(&mut R, Range<usize>) + Sync,
) -> (Vec<R>, StealStats) {
    let queue = StealQueue::new(shard_tasks);
    let workers = queue.num_shards();
    if workers == 0 {
        return (Vec::new(), StealStats::default());
    }
    let tasks = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let mut accs: Vec<R> = (0..workers)
        .into_par_iter()
        .map(|w| {
            let mut acc = new_acc();
            let mut done = 0u64;
            let mut stolen = 0u64;
            loop {
                if let Some(r) = queue.pop_local(w) {
                    body(&mut acc, r);
                    done += 1;
                } else if let Some(r) = queue.steal(w) {
                    stolen += 1;
                    body(&mut acc, r);
                    done += 1;
                } else {
                    break;
                }
            }
            tasks.fetch_add(done, Ordering::Relaxed);
            steals.fetch_add(stolen, Ordering::Relaxed);
            acc
        })
        .collect();
    accs.truncate(workers);
    let stats = StealStats {
        tasks: tasks.into_inner(),
        steals: steals.into_inner(),
    };
    if et_obs::enabled() {
        et_obs::counter_add("sched.tasks", stats.tasks);
        et_obs::counter_add("sched.steals", stats.steals);
    }
    (accs, stats)
}

/// Convenience wrapper for scatter-style bodies with no per-worker state:
/// shards `tasks` across the current pool width and runs `body` on every
/// range with stealing.
pub fn execute_flat(tasks: Vec<Range<usize>>, body: impl Fn(Range<usize>) + Sync) -> StealStats {
    let shards = rayon::current_num_threads().max(1);
    let (_, stats) = execute(shard_tasks(tasks, shards), || (), |_, r| body(r));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    fn collect_claims(shards: Vec<Vec<Range<usize>>>) -> (Vec<Range<usize>>, StealStats) {
        let (accs, stats) = execute(shards, Vec::new, |acc: &mut Vec<Range<usize>>, r| {
            acc.push(r)
        });
        (accs.into_iter().flatten().collect(), stats)
    }

    fn assert_exact_cover(claims: &[Range<usize>], expect: &[Range<usize>]) {
        // Every index in the input ranges appears in exactly one claim.
        let mut seen: HashSet<usize> = HashSet::new();
        for c in claims {
            for i in c.clone() {
                assert!(seen.insert(i), "index {i} claimed twice");
            }
        }
        let want: HashSet<usize> = expect.iter().flat_map(|r| r.clone()).collect();
        assert_eq!(seen, want, "lost or invented indices");
    }

    #[test]
    fn empty_queue_is_fine() {
        let (claims, stats) = collect_claims(vec![]);
        assert!(claims.is_empty());
        assert_eq!(stats.tasks, 0);
        let (claims, _) = collect_claims(vec![vec![], vec![]]);
        assert!(claims.is_empty());
    }

    #[test]
    fn single_shard_exact_cover() {
        let tasks = vec![0..100, 100..130, 130..1000];
        let (claims, stats) = collect_claims(vec![tasks.clone()]);
        assert_exact_cover(&claims, &tasks);
        assert!(stats.tasks as usize >= 3);
    }

    #[test]
    fn cross_shard_stealing_covers_everything() {
        // Shard 1 is empty: its worker must steal all of shard 0's work
        // under the sequential test pool, exercising the split CAS path.
        let tasks: Vec<Range<usize>> = std::iter::once(0..10_000).collect();
        let (claims, stats) = collect_claims(vec![tasks.clone(), vec![]]);
        assert_exact_cover(&claims, &tasks);
        // At least one claim came through the steal path only when a second
        // worker actually ran; with one thread the owner may drain first.
        assert!(stats.steals <= stats.tasks);
    }

    #[test]
    fn shard_tasks_preserves_order_and_count() {
        let tasks: Vec<Range<usize>> = (0..10).map(|i| (i * 5)..(i * 5 + 5)).collect();
        let shards = shard_tasks(tasks.clone(), 3);
        assert_eq!(shards.len(), 3);
        let flat: Vec<Range<usize>> = shards.into_iter().flatten().collect();
        assert_eq!(flat, tasks);
        // More shards than tasks: trailing shards are empty but present.
        let shards = shard_tasks(std::iter::once(0..1).collect(), 4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0], vec![0..1]);
    }

    #[test]
    fn execute_flat_runs_every_index() {
        let hits = Mutex::new(vec![0u8; 5000]);
        let stats = execute_flat(vec![0..3000, 3000..5000], |r| {
            let mut h = hits.lock().unwrap();
            for i in r {
                h[i] += 1;
            }
        });
        assert!(hits.into_inner().unwrap().iter().all(|&c| c == 1));
        assert!(stats.tasks >= 2);
    }

    #[test]
    fn min_grain_ranges_claimed_whole() {
        let (claims, stats) = collect_claims(vec![vec![0..MIN_GRAIN]]);
        assert_eq!(claims, vec![0..MIN_GRAIN]);
        assert_eq!(stats.tasks, 1);
    }

    #[test]
    #[should_panic(expected = "task range 0..4294967296 ends past")]
    fn a_range_past_u32_is_refused_in_every_profile() {
        StealQueue::new(vec![vec![0..7, 0..(u32::MAX as usize + 1)]]);
    }

    #[test]
    fn packing_roundtrip() {
        for r in [0..0usize, 0..1, 7..4096, 0..(u32::MAX as usize)] {
            assert_eq!(unpack(pack(&r)), (r.start, r.end));
        }
    }
}
