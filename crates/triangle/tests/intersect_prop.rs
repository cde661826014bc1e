//! Property tests for the intersection kernels: every implementation —
//! scalar merge, scalar gallop, binary probe, on x86_64 the SIMD block merge
//! and the vectorized galloping probe called by name, and the adaptive
//! dispatchers — agrees on randomized strictly increasing sets, and every
//! breakable index-pair kernel stops on an exact prefix of its unbroken
//! sequence, with deliberate stress on lengths around the SIMD lane width,
//! around the dispatchers' vector cutoff, and on `u32::MAX` boundary values.

use et_triangle::intersect::{
    gallop_intersect_count, gallop_intersect_into, gallop_matches, intersect_count, intersect_into,
    intersect_matches, merge_intersect_count, merge_intersect_into, merge_matches,
    try_gallop_matches, try_intersect_matches, try_merge_matches, GALLOP_RATIO, SIMD_MIN_LEN,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

type V = u32;

/// The oracle: binary-probe every element of the smaller list.
fn oracle(a: &[V], b: &[V]) -> Vec<V> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .copied()
        .filter(|x| large.binary_search(x).is_ok())
        .collect()
}

/// Runs a breakable kernel with a callback that breaks at the 1st, 2nd,
/// middle and last pair of `full` (what the unbroken kernel reported): each
/// time exactly that prefix must have been visited, and nothing after it.
fn assert_breaks_visit_prefixes(
    full: &[(usize, usize)],
    kernel: impl Fn(&mut dyn FnMut(usize, usize) -> ControlFlow<()>) -> ControlFlow<()>,
    what: &str,
) {
    for stop in [1, 2, full.len() / 2, full.len()] {
        if stop == 0 || stop > full.len() {
            continue;
        }
        let mut seen = Vec::new();
        let flow = kernel(&mut |i, j| {
            seen.push((i, j));
            if seen.len() == stop {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.is_break(), "{what}: stop {stop} of {}", full.len());
        assert_eq!(seen, full[..stop], "{what}: stop {stop} of {}", full.len());
    }
}

/// Asserts every kernel and the dispatchers agree with the oracle on
/// `(a, b)`.
fn assert_all_agree(a: &[V], b: &[V]) {
    let expected = oracle(a, b);
    let ctx = || format!("|a|={} |b|={}", a.len(), b.len());

    let mut out = Vec::new();
    merge_intersect_into(a, b, &mut out);
    assert_eq!(out, expected, "merge_into {}", ctx());
    assert_eq!(merge_intersect_count(a, b), expected.len(), "{}", ctx());

    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.clear();
    gallop_intersect_into(small, large, &mut out);
    assert_eq!(out, expected, "gallop_into {}", ctx());
    assert_eq!(
        gallop_intersect_count(small, large),
        expected.len(),
        "{}",
        ctx()
    );

    let mut pairs = Vec::new();
    merge_matches(a, b, |i, j| pairs.push((i, j)));
    assert!(pairs.iter().all(|&(i, j)| a[i] == b[j]), "{}", ctx());
    assert_eq!(pairs.len(), expected.len(), "merge_matches {}", ctx());
    assert_breaks_visit_prefixes(&pairs, |f| try_merge_matches(a, b, f), "merge");
    pairs.clear();
    gallop_matches(small, large, |i, j| pairs.push((i, j)));
    assert!(
        pairs.iter().all(|&(i, j)| small[i] == large[j]),
        "{}",
        ctx()
    );
    assert_eq!(pairs.len(), expected.len(), "gallop_matches {}", ctx());
    assert_breaks_visit_prefixes(&pairs, |f| try_gallop_matches(small, large, f), "gallop");

    #[cfg(target_arch = "x86_64")]
    {
        use et_triangle::simd;
        assert_eq!(simd::merge_count(a, b), expected.len(), "simd {}", ctx());
        out.clear();
        simd::merge_into(a, b, &mut out);
        assert_eq!(out, expected, "simd merge_into {}", ctx());
        pairs.clear();
        simd::merge_matches(a, b, |i, j| pairs.push((i, j)));
        assert!(pairs.iter().all(|&(i, j)| a[i] == b[j]), "{}", ctx());
        assert_eq!(pairs.len(), expected.len(), "simd merge_matches {}", ctx());
        assert_breaks_visit_prefixes(&pairs, |f| simd::try_merge_matches(a, b, f), "simd merge");

        assert_eq!(
            simd::gallop_count(small, large),
            expected.len(),
            "simd gallop {}",
            ctx()
        );
        out.clear();
        simd::gallop_into(small, large, &mut out);
        assert_eq!(out, expected, "simd gallop_into {}", ctx());
        pairs.clear();
        simd::gallop_matches(small, large, |i, j| pairs.push((i, j)));
        assert!(
            pairs.iter().all(|&(i, j)| small[i] == large[j]),
            "{}",
            ctx()
        );
        assert_eq!(pairs.len(), expected.len(), "simd gallop_matches {}", ctx());
        assert_breaks_visit_prefixes(
            &pairs,
            |f| simd::try_gallop_matches(small, large, f),
            "simd gallop",
        );
    }

    // The adaptive dispatchers, whichever of the kernels above they pick.
    assert_eq!(intersect_count(a, b), expected.len(), "{}", ctx());
    out.clear();
    intersect_into(a, b, &mut out);
    assert_eq!(out, expected, "adaptive {}", ctx());
    pairs.clear();
    intersect_matches(a, b, |i, j| pairs.push((i, j)));
    assert!(pairs.iter().all(|&(i, j)| a[i] == b[j]), "{}", ctx());
    assert_eq!(pairs.len(), expected.len(), "adaptive {}", ctx());
    assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "matches out of order {}",
        ctx()
    );
    assert_breaks_visit_prefixes(&pairs, |f| try_intersect_matches(a, b, f), "adaptive");
}

/// Strictly increasing random set of the exact requested length, drawn from
/// `0..span` (span widened when needed so the length is reachable).
fn random_set(rng: &mut StdRng, len: usize, span: u64) -> Vec<V> {
    let span = span.max(len as u64).min(u64::from(u32::MAX) + 1);
    let mut v: Vec<V> = Vec::with_capacity(len * 2);
    while v.len() < len {
        v.extend((0..len * 2).map(|_| rng.gen_range(0..span) as V));
        v.sort_unstable();
        v.dedup();
    }
    v.truncate(len);
    v
}

#[test]
fn randomized_sets_all_kernels_agree() {
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..300 {
        // Cycle through density regimes: dense overlap, sparse overlap,
        // lopsided lengths (gallop territory), and near-disjoint ranges.
        let (la, lb, span) = match round % 4 {
            0 => (rng.gen_range(0..80), rng.gen_range(0..80), 120),
            1 => (rng.gen_range(0..60), rng.gen_range(0..60), 100_000),
            2 => (rng.gen_range(0..12), rng.gen_range(200..2000), 4_000),
            _ => (rng.gen_range(0..40), rng.gen_range(0..40), 60),
        };
        let a = random_set(&mut rng, la, span);
        let b = random_set(&mut rng, lb, span);
        assert_all_agree(&a, &b);
        assert_all_agree(&b, &a);
    }
}

#[test]
fn tail_lengths_around_lane_width() {
    // Every length pair 0..=9 covers all tails 0..lane-width (4) on both
    // sides of the SIMD block loop, in three overlap patterns.
    for la in 0..10usize {
        for lb in 0..10usize {
            let a: Vec<V> = (0..la as V).map(|x| x * 3).collect();
            let b: Vec<V> = (0..lb as V).map(|x| x * 2).collect();
            assert_all_agree(&a, &b);
            let c: Vec<V> = (0..lb as V).map(|x| x * 3).collect();
            assert_all_agree(&a, &c);
            let d: Vec<V> = (0..lb as V).map(|x| x * 3 + 1).collect();
            assert_all_agree(&a, &d);
        }
    }
}

#[test]
fn lengths_around_the_vector_cutoff_and_the_gallop_ratio() {
    // The shorter list one below, at and above the dispatchers' cutoff (and a
    // lane tail past it), against longer lists on both sides of the gallop
    // ratio: scalar merge, scalar gallop, vector merge and vector gallop are
    // each what the dispatcher picks for some pair here.
    let mut rng = StdRng::seed_from_u64(15);
    for small_len in [
        SIMD_MIN_LEN - 1,
        SIMD_MIN_LEN,
        SIMD_MIN_LEN + 1,
        SIMD_MIN_LEN + 6,
    ] {
        for large_len in [
            small_len,
            small_len + 3,
            small_len * GALLOP_RATIO - 1,
            small_len * GALLOP_RATIO,
            small_len * GALLOP_RATIO * 3 + 2,
        ] {
            for span in [3 * large_len as u64 / 2, 4 * large_len as u64, 1_000_000] {
                let a = random_set(&mut rng, small_len, span);
                let b = random_set(&mut rng, large_len, span);
                assert_all_agree(&a, &b);
                assert_all_agree(&b, &a);
            }
        }
    }
}

#[test]
fn u32_max_boundary_values() {
    // The sign-flip trick in the vectorized gallop probe and the block
    // compares must survive values in the top half of the u32 range.
    let top: Vec<V> = (0u32..12).map(|i| u32::MAX - 3 * i).rev().collect();
    let mixed: Vec<V> = vec![
        0,
        1,
        i32::MAX as V,
        i32::MAX as V + 1,
        u32::MAX - 1,
        u32::MAX,
    ];
    let low: Vec<V> = (0..20).collect();
    assert_all_agree(&top, &mixed);
    assert_all_agree(&mixed, &top);
    assert_all_agree(&low, &mixed);
    assert_all_agree(&top, &top);
    assert_all_agree(&[u32::MAX], &mixed);
    assert_all_agree(&[], &top);

    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..60 {
        let mut a: Vec<V> = (0..rng.gen_range(0..30usize))
            .map(|_| u32::MAX - rng.gen_range(0u32..50))
            .collect();
        a.sort_unstable();
        a.dedup();
        let mut b: Vec<V> = (0..rng.gen_range(0..500usize))
            .map(|_| u32::MAX - rng.gen_range(0u32..2_000))
            .collect();
        b.sort_unstable();
        b.dedup();
        assert_all_agree(&a, &b);
    }
}

#[test]
fn identical_disjoint_and_subset_structures() {
    let a: Vec<V> = (0..100).map(|x| x * 7).collect();
    assert_all_agree(&a, &a);
    let b: Vec<V> = a.iter().map(|x| x + 1).collect();
    assert_all_agree(&a, &b); // fully disjoint, interleaved
    let c: Vec<V> = a.iter().step_by(3).copied().collect();
    assert_all_agree(&a, &c); // strict subset
    let d: Vec<V> = (700..800).collect();
    assert_all_agree(&a, &d); // disjoint ranges with small overlap window
}
