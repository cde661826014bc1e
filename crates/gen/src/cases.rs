//! Seeded case runner for the workspace's property tests.
//!
//! [`cases`] runs a property over `n` generated inputs. Case `i` draws from a
//! `StdRng` whose seed is a hash of `(name, i)`, so every run of a test hands
//! out the same inputs, and gets a `size` in `1..=100` that ramps up over the
//! first half of the run — generators scale their lengths by it, so the first
//! failing case is usually already a small one. There is no shrinking: that
//! is the price of not carrying a property-testing framework. When a case
//! panics the runner prints its `name / case / seed / size` to stderr;
//! [`replay`] reruns exactly that case, which is how a found failure becomes
//! a named regression test. (A seed replays under the `rand` it was found
//! with: the offline stand-in's stream differs from the published crate's.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Runs `property` on `n` seeded cases named after the calling test.
pub fn cases(name: &str, n: u32, mut property: impl FnMut(&mut StdRng, usize)) {
    for case in 0..n {
        let (seed, size) = (case_seed(name, case), case_size(case, n));
        run(name, case, seed, size, &mut property);
    }
}

/// Reruns the one case a failing [`cases`] run reported.
pub fn replay(seed: u64, size: usize, property: impl FnOnce(&mut StdRng, usize)) {
    run("replay", 0, seed, size, property);
}

/// `len` pairs of ids below `bound`, `len` drawn from the low `size` percent
/// of `len_range` — the edge-list shape every property here starts from
/// (self-loops and duplicates included).
pub fn id_pairs(
    rng: &mut StdRng,
    size: usize,
    bound: u32,
    len_range: Range<usize>,
) -> Vec<(u32, u32)> {
    let span = (len_range.len() * size).div_ceil(100).max(1);
    let len = len_range.start + rng.gen_range(0..span);
    (0..len)
        .map(|_| (rng.gen_range(0..bound), rng.gen_range(0..bound)))
        .collect()
}

fn run(name: &str, case: u32, seed: u64, size: usize, property: impl FnOnce(&mut StdRng, usize)) {
    struct Report<'a>(&'a str, u32, u64, usize);
    impl Drop for Report<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let Report(name, case, seed, size) = *self;
                eprintln!(
                    "cases: `{name}` failed at case {case}: replay({seed:#018x}, {size}, ..)"
                );
            }
        }
    }
    let _report = Report(name, case, seed, size);
    property(&mut StdRng::seed_from_u64(seed), size);
}

/// FNV-1a over the name and the case index (`seed_from_u64` does the mixing).
fn case_seed(name: &str, case: u32) -> u64 {
    let bytes = name.bytes().chain(case.to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// 1 → 100 over the first half of the run, 100 from there on.
fn case_size(case: u32, n: u32) -> usize {
    (1 + 200 * case as usize / n.max(1) as usize).min(100)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Per case: a fingerprint of the stream, the size, the list length.
    fn draws(name: &str, n: u32) -> Vec<(u64, usize, usize)> {
        let mut seen = Vec::new();
        cases(name, n, |rng, size| {
            let len = id_pairs(rng, size, 50, 0..40).len();
            seen.push((rng.gen_range(0..u64::MAX), size, len));
        });
        seen
    }

    #[test]
    fn two_runs_hand_out_identical_cases() {
        let first = draws("identical", 48);
        assert_eq!(first, draws("identical", 48));
        assert_ne!(first, draws("another name", 48));
        // Small first, full size by the middle, lengths inside the range.
        let sizes: Vec<usize> = first.iter().map(|c| c.1).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        assert_eq!((sizes[0], sizes[24], sizes[47]), (1, 100, 100));
        assert_eq!(first[0].2, 0, "size 1 of 0..40 is the empty list");
        assert!(first.iter().all(|c| c.2 < 40));
        assert!(first.iter().any(|c| c.2 > 20));
    }

    #[test]
    fn a_failure_replays_from_its_seed_and_size() {
        let name = "a_failure_replays";
        let target = draws(name, 48)[17].0;
        let mut ran = 0;
        let failing = |rng: &mut StdRng, size: usize| {
            id_pairs(rng, size, 50, 0..40);
            assert_ne!(rng.gen_range(0..u64::MAX), target, "the planted failure");
        };
        let died = catch_unwind(AssertUnwindSafe(|| {
            cases(name, 48, |rng, size| {
                ran += 1;
                failing(rng, size);
            })
        }));
        assert!(died.is_err());
        assert_eq!(ran, 18, "the run stops at the first failing case");
        // What the runner printed for case 17 is exactly these two values.
        let (seed, size) = (case_seed(name, 17), case_size(17, 48));
        assert!(catch_unwind(|| replay(seed, size, failing)).is_err());
        replay(seed + 1, size, failing);
    }
}
