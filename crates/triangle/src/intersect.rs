//! Sorted-set intersection kernels.
//!
//! The Support kernel is dominated by adjacency-list intersections; the best
//! strategy depends on the lengths of the two lists. Scalar merge and
//! galloping kernels are provided plus an adaptive dispatcher
//! ([`intersect_into`] / [`intersect_count`] / [`intersect_matches`] and its
//! breakable core [`try_intersect_matches`]) that chooses from the two lengths alone: galloping when the lists are
//! very unbalanced ([`GALLOP_RATIO`]) — the regime of skewed social graphs —
//! and, on x86_64, the block-compare merge and vectorized galloping probe of
//! [`crate::simd`] once the shorter list reaches [`SIMD_MIN_LEN`]. Below
//! that length, and on every other target, the scalar kernels here are what
//! runs. All kernels assume strictly increasing, duplicate-free inputs and
//! produce identical results on them.

use et_graph::VertexId;
use std::ops::ControlFlow;

/// Length-ratio threshold above which galloping beats merging.
///
/// Set from a ratio sweep (EXPERIMENTS.md "PR 16" keeps the numbers of the
/// deleted criterion group): on |small| = 256 random sets the
/// scalar merge wins through ratio ≈ 12 (gallop 1.08x slower), the two
/// break even at ratio 16 (within 2%), and galloping wins from ratio 24 on
/// (1.4x at 24, 4x at 128). The SIMD block merge shifts the crossover
/// slightly higher, so 16 is the break-even choice for both kernel families.
pub const GALLOP_RATIO: usize = 16;

/// Length of the shorter list from which the vector kernels run, on the
/// one target that has them (x86_64).
///
/// Set from the `bench_e2e` sweep in EXPERIMENTS.md "PR 15" (`op_p50_ms`,
/// scalar-only parent first): `social-build` 284.5 → 259.6 / 260.1 / 257.8 /
/// 259.9 at 1 / 4 / 8 / 16, then 264.9 at 32 and 275.1 at 64 — flat through
/// 16, the vector gain draining away above it; `mesh-build` (rows of 4 and
/// 8) 143.2 → 149.3 / 149.6 at 1 / 4, where its lists reach the 4-lane block
/// loop only to fall through to the scalar tail, and 144.7 from 8 on. 16 is
/// the largest value that keeps the long-list gain, and the one that leaves
/// the most short lists on the scalar loops.
pub const SIMD_MIN_LEN: usize = 16;

/// Whether the adaptive dispatchers hand lists whose shorter side has
/// `small_len` elements to the vector kernels.
#[cfg(target_arch = "x86_64")]
#[inline]
fn vector_wins(small_len: usize) -> bool {
    small_len >= SIMD_MIN_LEN
}

/// Linear merge intersection; appends common elements to `out`.
pub fn merge_intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Linear merge intersection returning only the count.
pub fn merge_intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j) = (0, 0);
    let mut c = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Linear merge intersection reporting matched *index pairs*: invokes
/// `f(i, j)` for every `a[i] == b[j]`, in ascending order, until `f` breaks.
/// This is the kernel shape the triangle enumerations need — the indices
/// address the per-arc edge-id arrays that ride alongside adjacency lists —
/// and the only copy of the scalar merge loop: [`merge_matches`] is this
/// with a callback that never breaks.
#[inline]
pub fn try_merge_matches(
    a: &[VertexId],
    b: &[VertexId],
    mut f: impl FnMut(usize, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(i, j)?;
                i += 1;
                j += 1;
            }
        }
    }
    ControlFlow::Continue(())
}

/// [`try_merge_matches`] to exhaustion.
#[inline]
pub fn merge_matches(a: &[VertexId], b: &[VertexId], f: impl FnMut(usize, usize)) {
    let _ = try_merge_matches(a, b, unbroken(f));
}

/// Adapts a plain match callback to the breakable kernels: never breaks.
#[inline]
pub(crate) fn unbroken(
    mut f: impl FnMut(usize, usize),
) -> impl FnMut(usize, usize) -> ControlFlow<()> {
    move |i, j| {
        f(i, j);
        ControlFlow::Continue(())
    }
}

/// Galloping (exponential-search) intersection: walks the smaller list and
/// gallops through the larger one, exploiting locality between consecutive
/// probes. O(|small| · log(|large| / |small|)) — the right kernel when one
/// endpoint is a hub.
pub fn gallop_intersect_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    let mut base = 0usize;
    for &x in small {
        base = gallop_to(large, base, x);
        if base >= large.len() {
            break;
        }
        if large[base] == x {
            out.push(x);
            base += 1;
        }
    }
}

/// Allocation-free galloping intersection count (the gallop twin of
/// [`merge_intersect_count`] — no scratch buffer, no writes).
pub fn gallop_intersect_count(small: &[VertexId], large: &[VertexId]) -> usize {
    let mut base = 0usize;
    let mut count = 0usize;
    for &x in small {
        base = gallop_to(large, base, x);
        if base >= large.len() {
            break;
        }
        if large[base] == x {
            count += 1;
            base += 1;
        }
    }
    count
}

/// Galloping intersection reporting matched index pairs `(i_small, j_large)`
/// in ascending order, until `f` breaks.
#[inline]
pub fn try_gallop_matches(
    small: &[VertexId],
    large: &[VertexId],
    mut f: impl FnMut(usize, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut base = 0usize;
    for (i, &x) in small.iter().enumerate() {
        base = gallop_to(large, base, x);
        if base >= large.len() {
            break;
        }
        if large[base] == x {
            f(i, base)?;
            base += 1;
        }
    }
    ControlFlow::Continue(())
}

/// [`try_gallop_matches`] to exhaustion.
#[inline]
pub fn gallop_matches(small: &[VertexId], large: &[VertexId], f: impl FnMut(usize, usize)) {
    let _ = try_gallop_matches(small, large, unbroken(f));
}

/// First index `i >= from` with `large[i] >= x` (or `large.len()`), found by
/// exponential probing followed by a bounded partition-point search.
#[inline]
fn gallop_to(large: &[VertexId], from: usize, x: VertexId) -> usize {
    let mut lo = from; // everything before `lo` is known < x
    let mut cur = from;
    let mut step = 1usize;
    while cur < large.len() && large[cur] < x {
        lo = cur + 1;
        cur += step;
        step <<= 1;
    }
    let hi = cur.min(large.len());
    lo + large[lo..hi].partition_point(|&y| y < x)
}

/// Whether the adaptive dispatchers pick galloping for these lengths.
#[inline]
pub(crate) fn gallop_wins(small_len: usize, large_len: usize) -> bool {
    large_len / small_len.max(1) >= GALLOP_RATIO
}

/// Adaptive intersection into a buffer: merge when balanced, gallop when
/// lopsided, the vector forms of both from [`SIMD_MIN_LEN`] up. `a` and `b`
/// may be given in either order.
#[inline]
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if vector_wins(small.len()) {
        return crate::simd::intersect_into(small, large, out);
    }
    if gallop_wins(small.len(), large.len()) {
        gallop_intersect_into(small, large, out);
    } else {
        merge_intersect_into(small, large, out);
    }
}

/// Adaptive intersection count. Allocation-free on every path.
#[inline]
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    if vector_wins(small.len()) {
        return crate::simd::intersect_count(small, large);
    }
    if gallop_wins(small.len(), large.len()) {
        gallop_intersect_count(small, large)
    } else {
        merge_intersect_count(small, large)
    }
}

/// Adaptive index-pair intersection: invokes `f(i, j)` for every
/// `a[i] == b[j]` in ascending order until `f` breaks, choosing merge or
/// gallop by the length ratio and scalar or vector by the shorter length.
/// Unlike [`intersect_into`], the reported indices always refer to `a` and
/// `b` *as given* — the dispatcher un-swaps them when galloping from the
/// smaller side. Whichever kernel runs, the pairs seen before a break are a
/// prefix of the pairs an unbroken run reports.
#[inline]
pub fn try_intersect_matches(
    a: &[VertexId],
    b: &[VertexId],
    mut f: impl FnMut(usize, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (small_is_a, small, large) = if a.len() <= b.len() {
        (true, a, b)
    } else {
        (false, b, a)
    };
    if small.is_empty() {
        return ControlFlow::Continue(());
    }
    #[cfg(target_arch = "x86_64")]
    if vector_wins(small.len()) {
        return crate::simd::try_intersect_matches(a, b, f);
    }
    if gallop_wins(small.len(), large.len()) {
        let relay = |i: usize, j: usize| if small_is_a { f(i, j) } else { f(j, i) };
        return try_gallop_matches(small, large, relay);
    }
    try_merge_matches(a, b, f)
}

/// [`try_intersect_matches`] to exhaustion.
#[inline]
pub fn intersect_matches(a: &[VertexId], b: &[VertexId], f: impl FnMut(usize, usize)) {
    let _ = try_intersect_matches(a, b, unbroken(f));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(a: &[VertexId], b: &[VertexId], expected: &[VertexId]) {
        let mut out = Vec::new();
        merge_intersect_into(a, b, &mut out);
        assert_eq!(out, expected, "merge failed");
        assert_eq!(merge_intersect_count(a, b), expected.len());

        let mut pairs = Vec::new();
        merge_matches(a, b, |i, j| pairs.push((i, j)));
        assert!(pairs.iter().all(|&(i, j)| a[i] == b[j]), "merge_matches");
        assert_eq!(pairs.len(), expected.len());

        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        out.clear();
        gallop_intersect_into(small, large, &mut out);
        assert_eq!(out, expected, "gallop failed");
        assert_eq!(gallop_intersect_count(small, large), expected.len());

        pairs.clear();
        gallop_matches(small, large, |i, j| pairs.push((i, j)));
        assert!(
            pairs.iter().all(|&(i, j)| small[i] == large[j]),
            "gallop_matches"
        );
        assert_eq!(pairs.len(), expected.len());

        out.clear();
        intersect_into(a, b, &mut out);
        assert_eq!(out, expected, "adaptive failed");
        assert_eq!(intersect_count(a, b), expected.len());

        pairs.clear();
        intersect_matches(a, b, |i, j| pairs.push((i, j)));
        assert!(
            pairs.iter().all(|&(i, j)| a[i] == b[j]),
            "intersect_matches"
        );
        assert_eq!(pairs.len(), expected.len());
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn basic_overlap() {
        check_all(&[1, 3, 5, 7], &[2, 3, 4, 5, 6], &[3, 5]);
    }

    #[test]
    fn disjoint() {
        check_all(&[1, 2, 3], &[4, 5, 6], &[]);
        check_all(&[4, 5, 6], &[1, 2, 3], &[]);
    }

    #[test]
    fn identical() {
        check_all(&[1, 2, 3], &[1, 2, 3], &[1, 2, 3]);
    }

    #[test]
    fn empty_sides() {
        check_all(&[], &[1, 2], &[]);
        check_all(&[1, 2], &[], &[]);
        check_all(&[], &[], &[]);
    }

    #[test]
    fn lopsided_triggers_gallop() {
        let small: Vec<VertexId> = vec![10, 500, 999];
        let large: Vec<VertexId> = (0..1000).collect();
        check_all(&small, &large, &[10, 500, 999]);
    }

    #[test]
    fn gallop_beyond_end() {
        let small: Vec<VertexId> = vec![50, 200];
        let large: Vec<VertexId> = (0..100).collect();
        check_all(&small, &large, &[50]);
    }

    /// The dispatchers' choice is a function of the two lengths alone.
    #[test]
    fn gallop_choice_follows_the_length_ratio() {
        for small in [1usize, 3, 15, 16, 17, 256] {
            assert!(!gallop_wins(small, small), "balanced {small}");
            assert!(!gallop_wins(small, small * GALLOP_RATIO - 1), "{small}");
            assert!(gallop_wins(small, small * GALLOP_RATIO), "{small}");
            assert!(gallop_wins(small, small * GALLOP_RATIO * 4), "{small}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_choice_follows_the_shorter_length() {
        assert!(!vector_wins(0));
        assert!(!vector_wins(SIMD_MIN_LEN - 1));
        assert!(vector_wins(SIMD_MIN_LEN));
        assert!(vector_wins(SIMD_MIN_LEN * 100));
    }

    /// Lengths on both sides of the vector cutoff crossed with ratios on
    /// both sides of `GALLOP_RATIO`: whichever of the four kernels the
    /// dispatchers pick, they agree with the scalar kernels named above.
    #[test]
    fn dispatchers_agree_on_every_side_of_both_thresholds() {
        for small_len in [1usize, 7, 15, 16, 17, 40] {
            for ratio in [1, GALLOP_RATIO - 1, GALLOP_RATIO, 3 * GALLOP_RATIO] {
                let large: Vec<VertexId> = (0..(small_len * ratio) as u32).map(|x| x * 2).collect();
                let stride = (2 * ratio) as u32;
                // Every element of `hit` is in `large`, every other of `mixed`.
                let hit: Vec<VertexId> = (0..small_len as u32).map(|x| x * stride).collect();
                let mixed: Vec<VertexId> =
                    (0..small_len as u32).map(|x| x * stride + x % 2).collect();
                let expected: Vec<VertexId> =
                    mixed.iter().copied().filter(|x| x % 2 == 0).collect();
                check_all(&hit, &large, &hit);
                check_all(&large, &hit, &hit);
                check_all(&mixed, &large, &expected);
                check_all(&large, &mixed, &expected);
            }
        }
    }

    #[test]
    fn randomized_agreement() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let mut a: Vec<VertexId> = (0..rng.gen_range(0..60usize))
                .map(|_| rng.gen_range(0..100))
                .collect();
            let mut b: Vec<VertexId> = (0..rng.gen_range(0..2000usize))
                .map(|_| rng.gen_range(0..3000))
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let expected: Vec<VertexId> = a
                .iter()
                .copied()
                .filter(|x| b.binary_search(x).is_ok())
                .collect();
            check_all(&a, &b, &expected);
        }
    }
}
