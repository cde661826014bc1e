//! Explicit SIMD sorted-set intersection kernels (x86_64 only).
//!
//! Two vectorized strategies mirror the scalar kernels of [`crate::intersect`]:
//!
//! * **Block merge** — the classic 4×4 all-pairs compare (Katsov / Lemire
//!   "V1"): load one 128-bit block of each list, compare every lane of `a`
//!   against every rotation of `b` (four `cmpeq` + three lane rotations),
//!   reduce to a per-lane match bitmask with `movemask`, then advance the
//!   block whose maximum is smaller. Sixteen comparisons per iteration versus
//!   the scalar merge's one — the win on balanced, dense lists.
//! * **Vectorized galloping probe** — galloping's exponential probe bounds a
//!   window `[lo, hi)` known to contain the insertion point; when the window
//!   is small the binary search is replaced by a 4-lane linear scan counting
//!   elements `< x` (unsigned compare via the sign-flip trick), which is
//!   branch-free and avoids the binary search's unpredictable jumps.
//!
//! Everything here is built on baseline SSE2, which `x86_64` guarantees, so
//! the module is compiled on that target with no runtime CPU detection and
//! does not exist on any other. The adaptive dispatchers of
//! [`crate::intersect`] call [`intersect_into`] / [`intersect_count`] /
//! [`try_intersect_matches`] once the shorter list reaches
//! [`SIMD_MIN_LEN`](crate::intersect::SIMD_MIN_LEN). All functions assume
//! (and the scalar kernels share this contract) strictly increasing,
//! duplicate-free inputs; outputs are bit-identical to the scalar kernels on
//! such inputs, which the property tests in `tests/intersect_prop.rs` pin
//! down to the lane-width tails and `u32::MAX` boundary values.

use crate::intersect::{gallop_wins, unbroken};
use et_graph::VertexId;
use std::arch::x86_64::*;
use std::ops::ControlFlow;

/// Number of u32 lanes per SIMD block (SSE2: one `__m128i`).
pub const LANES: usize = 4;

/// Rotates the low 4 bits of `m` left by `r` (lane-index rotation for a
/// 4-lane match mask).
#[inline(always)]
fn rotl4(m: u32, r: u32) -> u32 {
    ((m << r) | (m >> (4 - r))) & 0xF
}

/// Per-block all-pairs equality. Returns `(a_mask, b_mask)`: bit `k` of
/// `a_mask` is set iff lane `k` of `va` matches some lane of `vb`, and
/// symmetrically for `b_mask`. Inputs are duplicate-free, so each lane
/// matches at most once and the masks have equal popcounts with the
/// `i`-th set bit of each belonging to the same matched value.
#[inline(always)]
unsafe fn block_masks(va: __m128i, vb: __m128i) -> (u32, u32) {
    let r1 = _mm_shuffle_epi32(vb, 0b00_11_10_01);
    let r2 = _mm_shuffle_epi32(vb, 0b01_00_11_10);
    let r3 = _mm_shuffle_epi32(vb, 0b10_01_00_11);
    let m0 = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, vb))) as u32;
    let m1 = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, r1))) as u32;
    let m2 = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, r2))) as u32;
    let m3 = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, r3))) as u32;
    // Bit k of m_r pairs a-lane k with b-lane (k + r) mod 4.
    let a_mask = m0 | m1 | m2 | m3;
    let b_mask = m0 | rotl4(m1, 1) | rotl4(m2, 2) | rotl4(m3, 3);
    (a_mask, b_mask)
}

/// Block-merge intersection count.
pub fn merge_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    // SAFETY: loads stay in bounds (`i + LANES <= a.len()`), and SSE2 is
    // part of the x86_64 baseline.
    unsafe {
        while i + LANES <= a.len() && j + LANES <= b.len() {
            let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let vb = _mm_loadu_si128(b.as_ptr().add(j).cast());
            let (a_mask, _) = block_masks(va, vb);
            count += a_mask.count_ones() as usize;
            let a_max = a[i + LANES - 1];
            let b_max = b[j + LANES - 1];
            if a_max <= b_max {
                i += LANES;
            }
            if b_max <= a_max {
                j += LANES;
            }
        }
    }
    count + crate::intersect::merge_intersect_count(&a[i..], &b[j..])
}

/// Block-merge intersection, appending common elements to `out`.
pub fn merge_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    merge_matches(a, b, |i, _| out.push(a[i]));
}

/// Block-merge intersection reporting matched *index pairs* `(i, j)` with
/// `a[i] == b[j]`, in ascending order, until `f` breaks — the kernel
/// behind the edge-id-carrying triangle enumerations.
#[inline]
pub fn try_merge_matches(
    a: &[VertexId],
    b: &[VertexId],
    mut f: impl FnMut(usize, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (mut i, mut j) = (0usize, 0usize);
    // SAFETY: as in `merge_count`.
    unsafe {
        while i + LANES <= a.len() && j + LANES <= b.len() {
            let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let vb = _mm_loadu_si128(b.as_ptr().add(j).cast());
            let (mut a_mask, mut b_mask) = block_masks(va, vb);
            // Equal popcounts; the k-th set bits pair up (both lists are
            // sorted and duplicate-free, so matches appear in order).
            while a_mask != 0 {
                let ai = a_mask.trailing_zeros() as usize;
                let bi = b_mask.trailing_zeros() as usize;
                f(i + ai, j + bi)?;
                a_mask &= a_mask - 1;
                b_mask &= b_mask - 1;
            }
            let a_max = a[i + LANES - 1];
            let b_max = b[j + LANES - 1];
            if a_max <= b_max {
                i += LANES;
            }
            if b_max <= a_max {
                j += LANES;
            }
        }
    }
    crate::intersect::try_merge_matches(&a[i..], &b[j..], |di, dj| f(i + di, j + dj))
}

/// [`try_merge_matches`] to exhaustion.
#[inline]
pub fn merge_matches(a: &[VertexId], b: &[VertexId], f: impl FnMut(usize, usize)) {
    let _ = try_merge_matches(a, b, unbroken(f));
}

/// Window width below which the vectorized linear scan replaces the
/// binary search inside the gallop (a 4-lane scan of ≤ 32 elements is 8
/// branch-free iterations; binary search does 5 mispredicting ones).
const SCAN_WINDOW: usize = 32;

/// First index `i >= from` with `large[i] >= x` (or `large.len()`):
/// exponential probing, then a vectorized linear scan when the bounded
/// window is small, binary search otherwise.
#[inline]
fn gallop_to(large: &[VertexId], from: usize, x: VertexId) -> usize {
    let mut lo = from;
    let mut cur = from;
    let mut step = 1usize;
    while cur < large.len() && large[cur] < x {
        lo = cur + 1;
        cur += step;
        step <<= 1;
    }
    let hi = cur.min(large.len());
    if hi - lo > SCAN_WINDOW {
        return lo + large[lo..hi].partition_point(|&y| y < x);
    }
    // SAFETY: loads stay in bounds; sign-flip turns unsigned `<` into
    // SSE2's signed compare.
    unsafe {
        let sign = _mm_set1_epi32(i32::MIN);
        let xs = _mm_xor_si128(_mm_set1_epi32(x as i32), sign);
        while lo + LANES <= hi {
            let v = _mm_loadu_si128(large.as_ptr().add(lo).cast());
            let lt = _mm_cmpgt_epi32(xs, _mm_xor_si128(v, sign));
            let mask = _mm_movemask_ps(_mm_castsi128_ps(lt)) as u32;
            if mask != 0xF {
                return lo + mask.trailing_ones() as usize;
            }
            lo += LANES;
        }
    }
    while lo < hi && large[lo] < x {
        lo += 1;
    }
    lo
}

/// Galloping intersection count with the vectorized probe.
pub fn gallop_count(small: &[VertexId], large: &[VertexId]) -> usize {
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

/// Galloping intersection with the vectorized probe, appending common
/// elements to `out`.
pub fn gallop_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
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

/// Galloping intersection reporting matched index pairs `(i_small,
/// j_large)` in ascending order until `f` breaks, with the vectorized
/// probe.
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

/// Vector side of [`crate::intersect::intersect_into`]: block merge or
/// vectorized gallop by the length ratio. `small` is the shorter list. Out of
/// line, like the count below, so a caller whose lists are all short inlines
/// the scalar loops and one call it never makes.
#[inline(never)]
pub fn intersect_into(small: &[VertexId], large: &[VertexId], out: &mut Vec<VertexId>) {
    if gallop_wins(small.len(), large.len()) {
        gallop_into(small, large, out)
    } else {
        merge_into(small, large, out)
    }
}

/// Vector side of [`crate::intersect::intersect_count`]; `small` is the
/// shorter list.
#[inline(never)]
pub fn intersect_count(small: &[VertexId], large: &[VertexId]) -> usize {
    if gallop_wins(small.len(), large.len()) {
        gallop_count(small, large)
    } else {
        merge_count(small, large)
    }
}

/// Vector side of [`crate::intersect::try_intersect_matches`]: `a` and `b`
/// in either order, index pairs reported against them as given. Inlined with
/// the dispatcher, unlike the two above: behind a call, `f`'s captured
/// locals would have to live in memory on the scalar side too (measured on
/// `mesh-build`, EXPERIMENTS.md "PR 15": SpNode +8 %, SpEdge +9 %, against
/// 0 % and +4 % inlined).
#[inline]
pub fn try_intersect_matches(
    a: &[VertexId],
    b: &[VertexId],
    mut f: impl FnMut(usize, usize) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if gallop_wins(a.len().min(b.len()), a.len().max(b.len())) {
        if a.len() <= b.len() {
            try_gallop_matches(a, b, f)
        } else {
            try_gallop_matches(b, a, |j, i| f(i, j))
        }
    } else {
        try_merge_matches(a, b, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &[VertexId], b: &[VertexId]) {
        let expected: Vec<VertexId> = a
            .iter()
            .copied()
            .filter(|x| b.binary_search(x).is_ok())
            .collect();
        assert_eq!(merge_count(a, b), expected.len(), "merge_count {a:?} {b:?}");
        let mut out = Vec::new();
        merge_into(a, b, &mut out);
        assert_eq!(out, expected, "merge_into {a:?} {b:?}");
        let mut pairs = Vec::new();
        merge_matches(a, b, |i, j| pairs.push((i, j)));
        assert!(pairs.iter().all(|&(i, j)| a[i] == b[j]));
        assert_eq!(pairs.len(), expected.len());

        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        assert_eq!(gallop_count(small, large), expected.len());
        out.clear();
        gallop_into(small, large, &mut out);
        assert_eq!(out, expected, "gallop_into {a:?} {b:?}");
        pairs.clear();
        gallop_matches(small, large, |i, j| pairs.push((i, j)));
        assert!(pairs.iter().all(|&(i, j)| small[i] == large[j]));
        assert_eq!(pairs.len(), expected.len());
        assert_eq!(intersect_count(small, large), expected.len());
    }

    #[test]
    fn lane_width_tails() {
        // Every combination of lengths around the 4-lane width, so both the
        // SIMD body and the scalar tail run.
        for la in 0..=(2 * LANES + 1) {
            for lb in 0..=(2 * LANES + 1) {
                let a: Vec<VertexId> = (0..la as u32).map(|x| x * 3).collect();
                let b: Vec<VertexId> = (0..lb as u32).map(|x| x * 2 + 1).collect();
                check(&a, &b);
                let c: Vec<VertexId> = (0..lb as u32).map(|x| x * 3).collect();
                check(&a, &c);
            }
        }
    }

    #[test]
    fn u32_max_boundary() {
        let a = vec![0, 7, u32::MAX - 1, u32::MAX];
        let b = vec![1, 7, 8, 9, 1000, u32::MAX];
        check(&a, &b);
        check(&b, &a);
        let c = vec![u32::MAX];
        check(&a, &c);
        check(&c, &c);
    }

    #[test]
    fn dense_overlap() {
        let a: Vec<VertexId> = (0..257).collect();
        let b: Vec<VertexId> = (128..512).collect();
        check(&a, &b);
        check(&b, &a);
    }

    #[test]
    fn lopsided() {
        let small: Vec<VertexId> = (0..9).map(|x| x * 1000).collect();
        let large: Vec<VertexId> = (0..5000).collect();
        check(&small, &large);
    }
}
