//! Work-aware task partitioning.
//!
//! Fixed-size chunking (N items per task) balances *items*, not *work*: on
//! skewed degree distributions one hub-heavy chunk can run 10x longer than
//! its siblings and the pool idles behind it — exactly what the
//! `par.imbalance_x1000.*` telemetry measures. The functions here cut an
//! index range into tasks of approximately equal *estimated work* instead:
//! prefix-sum the per-item estimates, then place task boundaries at the
//! work quantiles with a binary search. Estimates only need to be
//! proportional to real cost (degree sums work well for intersection
//! kernels); the partition is deterministic for a given estimate vector.

use rayon::prelude::*;
use std::ops::Range;

/// Cuts `0..work.len()` into at most `tasks` contiguous ranges whose summed
/// work is approximately equal.
///
/// Boundaries fall on the work quantiles `total * t / tasks`; empty ranges
/// (possible when single items carry more than a quantile of work) are
/// skipped, so the result may have fewer than `tasks` entries. When every
/// estimate is zero the range is split evenly by index. Ranges are returned
/// in ascending order and exactly cover `0..work.len()`.
pub fn ranges_from_work(work: &[u64], tasks: usize) -> Vec<Range<usize>> {
    let n = work.len();
    if n == 0 {
        return Vec::new();
    }
    let tasks = tasks.max(1).min(n);
    if tasks == 1 {
        return std::iter::once(0..n).collect();
    }
    // Inclusive prefix sums: cum[i] = work[0..=i].
    let mut cum = Vec::with_capacity(n);
    let mut total: u64 = 0;
    for &w in work {
        total += w;
        cum.push(total);
    }
    if total == 0 {
        let per = n.div_ceil(tasks);
        return (0..n)
            .step_by(per)
            .map(|lo| lo..(lo + per).min(n))
            .collect();
    }
    let mut ranges = Vec::with_capacity(tasks);
    let mut lo = 0usize;
    for t in 1..=tasks {
        let hi = if t == tasks {
            n
        } else {
            // Include the item whose cumulative work first reaches the
            // quantile target, so tasks meet their quantile instead of
            // stopping one item short of it.
            let target = (total as u128 * t as u128 / tasks as u128) as u64;
            (cum.partition_point(|&c| c < target) + 1).min(n).max(lo)
        };
        if hi > lo {
            ranges.push(lo..hi);
            lo = hi;
        }
    }
    ranges
}

/// [`ranges_from_work`] with the estimates computed in parallel from a
/// per-item cost function.
pub fn balanced_ranges(
    n: usize,
    tasks: usize,
    estimate: impl Fn(usize) -> u64 + Sync + Send,
) -> Vec<Range<usize>> {
    let work: Vec<u64> = (0..n).into_par_iter().map(estimate).collect();
    ranges_from_work(&work, tasks)
}

/// Default task count for a work-partitioned wave: a few tasks per worker so
/// the pool can rebalance around estimate error, without drowning the run in
/// per-task overhead.
pub fn default_tasks_per_thread(n: usize, per_thread: usize) -> usize {
    (rayon::current_num_threads() * per_thread).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(ranges: &[Range<usize>], n: usize) {
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next, "gap or overlap at {r:?}");
            assert!(r.end > r.start, "empty range {r:?}");
            next = r.end;
        }
        assert_eq!(next, n, "ranges do not cover 0..{n}");
    }

    #[test]
    fn empty_and_single() {
        assert!(ranges_from_work(&[], 4).is_empty());
        assert_eq!(ranges_from_work(&[7], 4), vec![0..1]);
        assert_eq!(ranges_from_work(&[1, 2, 3], 1), vec![0..3]);
    }

    #[test]
    fn uniform_work_splits_evenly() {
        let work = vec![1u64; 100];
        let ranges = ranges_from_work(&work, 4);
        check_cover(&ranges, 100);
        assert_eq!(ranges.len(), 4);
        for r in &ranges {
            assert_eq!(r.len(), 25);
        }
    }

    #[test]
    fn zero_work_splits_by_index() {
        let work = vec![0u64; 10];
        let ranges = ranges_from_work(&work, 3);
        check_cover(&ranges, 10);
        assert!(ranges.len() >= 2);
    }

    #[test]
    fn skewed_work_isolates_the_hub() {
        // One item carries ~all the work: it must land in its own task and
        // the remaining items share the rest.
        let mut work = vec![1u64; 64];
        work[10] = 10_000;
        let ranges = ranges_from_work(&work, 8);
        check_cover(&ranges, 64);
        let hub = ranges.iter().find(|r| r.contains(&10)).unwrap();
        assert!(hub.len() <= 11, "hub range too wide: {hub:?}");
        // Total work per task never exceeds hub + one quantile.
        let total: u64 = work.iter().sum();
        for r in &ranges {
            let w: u64 = work[r.clone()].iter().sum();
            assert!(w <= 10_000 + total / 8, "overloaded task {r:?} ({w})");
        }
    }

    #[test]
    fn quantile_balance_on_random_work() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let work: Vec<u64> = (0..500).map(|_| rng.gen_range(0..100)).collect();
        let total: u64 = work.iter().sum();
        let ranges = ranges_from_work(&work, 10);
        check_cover(&ranges, 500);
        let max_item = *work.iter().max().unwrap();
        for r in &ranges {
            let w: u64 = work[r.clone()].iter().sum();
            // Each task is at most one quantile plus one item of slop.
            assert!(w <= total / 10 + max_item + 1, "task {r:?} carries {w}");
        }
    }

    #[test]
    fn balanced_ranges_matches_serial_estimates() {
        let est = |i: usize| (i % 7) as u64;
        let work: Vec<u64> = (0..200).map(est).collect();
        assert_eq!(balanced_ranges(200, 6, est), ranges_from_work(&work, 6));
    }

    #[test]
    fn tasks_capped_by_items() {
        let ranges = ranges_from_work(&[5, 5], 16);
        check_cover(&ranges, 2);
        assert!(ranges.len() <= 2);
    }

    #[test]
    fn all_zero_work_with_more_tasks_than_items() {
        // Degenerate combination: nothing to balance on AND tasks > items.
        // Must still cover exactly, one item per task at most.
        let ranges = ranges_from_work(&[0, 0, 0], 100);
        check_cover(&ranges, 3);
        for r in &ranges {
            assert_eq!(r.len(), 1);
        }
    }

    #[test]
    fn huge_item_at_every_position() {
        // One item carrying ~all the work must never break coverage or
        // produce an empty range, wherever it sits.
        for pos in [0usize, 1, 31, 62, 63] {
            let mut work = vec![1u64; 64];
            work[pos] = u64::from(u32::MAX);
            let ranges = ranges_from_work(&work, 8);
            check_cover(&ranges, 64);
            // Every task that does NOT hold the hub stays within one
            // quantile of small work (the hub's own task may absorb the
            // small items on its side of the cut — contiguity demands it).
            let total: u64 = work.iter().sum();
            for r in ranges.iter().filter(|r| !r.contains(&pos)) {
                let w: u64 = work[(*r).clone()].iter().sum();
                assert!(w <= total / 8 + 1, "task {r:?} overloaded at pos {pos}");
            }
        }
    }

    #[test]
    fn single_item_with_huge_work() {
        assert_eq!(ranges_from_work(&[u64::MAX / 2], 8), vec![0..1]);
    }

    #[test]
    fn zero_tasks_treated_as_one() {
        assert_eq!(ranges_from_work(&[1, 2, 3], 0), vec![0..3]);
    }
}
