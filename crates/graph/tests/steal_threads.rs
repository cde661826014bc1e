//! Property tests for the steal deque: randomized shard layouts executed
//! under 1/4/8-thread pools must claim every index exactly once — no lost,
//! duplicated, or invented ranges, whatever the steal interleaving.

use et_graph::steal;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Deterministic splitmix64 so failures reproduce; each case prints its seed
/// on failure.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Random contiguous task layout: `n` items cut at random boundaries, tasks
/// dealt round-robin or contiguously into `shards` groups (both layouts
/// occur in production: contiguous from `shard_tasks`, arbitrary from
/// hand-built callers).
fn random_layout(rng: &mut Rng, n: usize, shards: usize) -> Vec<Vec<Range<usize>>> {
    let mut cuts = vec![0usize, n];
    for _ in 0..rng.below(24) {
        cuts.push(rng.below(n as u64 + 1) as usize);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let tasks: Vec<Range<usize>> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
    if rng.below(2) == 0 {
        steal::shard_tasks(tasks, shards)
    } else {
        let mut out = vec![Vec::new(); shards];
        for (i, t) in tasks.into_iter().enumerate() {
            out[i % shards].push(t);
        }
        out
    }
}

fn check_exact_cover(threads: usize, seed: u64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds");
    let mut rng = Rng(seed);
    for case in 0..40 {
        let n = 1 + rng.below(20_000) as usize;
        let shards = 1 + rng.below(9) as usize;
        let layout = random_layout(&mut rng, n, shards);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let stats = pool.install(|| {
            let (_, stats) = steal::execute(
                layout,
                || (),
                |_, r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                },
            );
            stats
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "index {i} claimed {} times (threads={threads} seed={seed} case={case})",
                h.load(Ordering::Relaxed)
            );
        }
        assert!(stats.steals <= stats.tasks);
    }
}

#[test]
fn exact_cover_single_thread() {
    check_exact_cover(1, 0xA11CE);
}

#[test]
fn exact_cover_four_threads() {
    check_exact_cover(4, 0xB0B);
}

#[test]
fn exact_cover_eight_threads() {
    check_exact_cover(8, 0xCAFE);
}

#[test]
fn eight_threads_starved_shards_steal_everything() {
    // All work in one shard, 8 workers: 7 of them can only make progress by
    // stealing; every index must still be claimed exactly once.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("pool builds");
    for trial in 0..20 {
        let n = 50_000;
        let mut layout = vec![Vec::new(); 8];
        layout[trial % 8].push(0..n);
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pool.install(|| {
            steal::execute(
                layout,
                || (),
                |_, r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                },
            )
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "lost or duplicated indices on trial {trial}"
        );
    }
}
