//! Epoch-stamped, thread-local query scratch.
//!
//! Steady-state query serving must not allocate for visited/seed tracking:
//! a `vec![false; n]` per query is an O(n) allocation + memset that dwarfs
//! the O(α) hierarchy climb it supports. Instead every serving thread keeps
//! one [`QueryScratch`] — a `u32` stamp array plus reusable queue/rep
//! buffers — and each query opens a new *epoch*: a slot is "marked" iff its
//! stamp equals the current epoch, so starting a query is a single integer
//! increment, not a clear. The stamp array only grows (never shrinks), so
//! after the first query against the largest index a thread serves, no
//! further allocation happens; on the one-in-4-billion epoch wrap the array
//! is zero-filled and the epoch restarts at 1.
//!
//! The same scratch orders answers. Edge, supernode and vertex ids are dense
//! small integers, so [`QueryScratch::for_each_sorted`] does not compare: it
//! sets one bit per id in a bitmap over the id domain and reads the bits back
//! in order, taking each word to zero as it goes — the bitmap needs no epoch,
//! it is all-zero between calls. The read-back walks the words between the
//! smallest and the largest id, so it costs one word per 64 ids of *span*
//! whatever the answer's length (at most `domain / 64` words: 2 300 on the
//! largest graph the benchmark builds).
//!
//! The scratch is `thread_local`, which composes with rayon: each worker in
//! a batch query reuses its own scratch across the queries it steals.

use std::cell::RefCell;

/// Reusable per-thread query workspace. Obtain via [`with_scratch`].
pub struct QueryScratch {
    stamps: Vec<u32>,
    epoch: u32,
    /// One bit per id of the largest domain ordered so far; all-zero outside
    /// [`QueryScratch::for_each_sorted`].
    bits: Vec<u64>,
    /// Reusable traversal worklist (BFS frontier / pending nodes).
    pub queue: Vec<u32>,
    /// Reusable list of distinct community representatives.
    pub reps: Vec<u32>,
    /// Epochs started on this thread (diagnostics; also exported as the
    /// `query.scratch_epochs` counter).
    pub epochs: u64,
    /// Times the stamp array or the bitmap grew on this thread. Stable across
    /// steady-state queries — the no-allocation property tests assert on
    /// exactly this.
    pub resizes: u64,
}

impl QueryScratch {
    const fn new() -> Self {
        QueryScratch {
            stamps: Vec::new(),
            epoch: 0,
            bits: Vec::new(),
            queue: Vec::new(),
            reps: Vec::new(),
            epochs: 0,
            resizes: 0,
        }
    }

    /// Starts a fresh visited-set generation over a domain of `n` ids and
    /// clears the reusable buffers (capacity retained).
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.resizes += 1;
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.epochs += 1;
        et_obs::counter_add("query.scratch_epochs", 1);
        self.queue.clear();
        self.reps.clear();
    }

    /// Marks id `i`; returns `true` iff it was not yet marked this epoch.
    #[inline]
    pub fn mark(&mut self, i: u32) -> bool {
        let slot = &mut self.stamps[i as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether id `i` is marked in the current epoch.
    #[inline]
    pub fn is_marked(&self, i: u32) -> bool {
        self.stamps[i as usize] == self.epoch
    }

    /// Current stamp-array capacity (ids addressable without growth).
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }

    /// Calls `emit` with every distinct id that `ids` yields, in ascending
    /// order; every id must be below `domain`.
    ///
    /// Every id is marked in the bitmap (which also drops duplicates), then
    /// the words from `min / 64` to `max / 64` are read back with
    /// `trailing_zeros` and zeroed: O(ids + span / 64), no comparison.
    pub fn for_each_sorted(
        &mut self,
        domain: usize,
        ids: impl Iterator<Item = u32>,
        mut emit: impl FnMut(u32),
    ) {
        if self.bits.len() * 64 < domain {
            self.bits.resize(domain.div_ceil(64), 0);
            self.resizes += 1;
        }
        let bits = self.bits.as_mut_slice();
        let (mut min, mut max) = (u32::MAX, 0u32);
        ids.for_each(|id| {
            bits[(id >> 6) as usize] |= 1u64 << (id & 63);
            min = min.min(id);
            max = max.max(id);
        });
        if min > max {
            return;
        }
        let (first, last) = ((min >> 6) as usize, (max >> 6) as usize);
        for (w, word) in bits[first..=last].iter_mut().enumerate() {
            let base = ((first + w) << 6) as u32;
            let mut rest = std::mem::take(word);
            while rest != 0 {
                emit(base + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
    }

    /// Current bitmap capacity (ids that can be ordered without growth).
    pub fn bitmap_capacity(&self) -> usize {
        self.bits.len() * 64
    }

    /// Whether no bit of the bitmap is set — true between any two calls.
    #[cfg(test)]
    pub(crate) fn bitmap_is_clear(&self) -> bool {
        self.bits.iter().all(|&word| word == 0)
    }
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = const { RefCell::new(QueryScratch::new()) };
}

/// Runs `f` with this thread's scratch. Query entry points acquire it once
/// and pass it down; a call made while the thread's scratch is already held
/// (from inside another `with_scratch` closure) gets a fresh, temporary one —
/// same answers, but it allocates.
pub fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut QueryScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_invalidate_marks_without_clearing() {
        with_scratch(|s| {
            s.begin(8);
            assert!(s.mark(3));
            assert!(!s.mark(3));
            assert!(s.is_marked(3));
            assert!(!s.is_marked(4));
            s.begin(8);
            assert!(!s.is_marked(3), "new epoch forgets old marks");
            assert!(s.mark(3));
        });
    }

    #[test]
    fn grows_only_when_domain_grows() {
        with_scratch(|s| {
            let r0 = s.resizes;
            s.begin(16);
            let grown = s.resizes;
            assert!(grown >= r0);
            for _ in 0..100 {
                s.begin(16);
                s.begin(4);
            }
            assert_eq!(s.resizes, grown, "steady state must not reallocate");
            assert!(s.capacity() >= 16);
        });
    }

    /// `for_each_sorted` against sort + dedup.
    fn sorted_checked(s: &mut QueryScratch, domain: usize, ids: &[u32]) {
        let mut want = ids.to_vec();
        want.sort_unstable();
        want.dedup();
        let mut got = Vec::new();
        s.for_each_sorted(domain, ids.iter().copied(), |id| got.push(id));
        assert_eq!(got, want, "domain {domain}, ids {ids:?}");
        assert!(s.bitmap_is_clear(), "domain {domain}, ids {ids:?}");
    }

    #[test]
    fn sorted_ids_on_word_boundaries() {
        with_scratch(|s| {
            let m = 1000;
            // Empty, a span one id wide, word edges, the last id of the domain.
            sorted_checked(s, m, &[]);
            sorted_checked(s, m, &[64]);
            sorted_checked(s, m, &[65, 63, 64]);
            sorted_checked(s, m, &[999, 0, 63, 64, 65, 127, 128, 998, 500, 7, 2]);
            sorted_checked(s, m, &[191, 0, 63, 64, 65, 127, 128, 129]);
            sorted_checked(s, m, &[999]);
            sorted_checked(s, m, &[0]);
            sorted_checked(s, 64, &[63, 0]);
            sorted_checked(s, 65, &[64, 0]);
            sorted_checked(s, m, &[5, 5, 300, 5, 300]);
            // A few ids spread over a domain far wider than they are many.
            sorted_checked(s, m, &[999, 0]);
            sorted_checked(s, 1 << 20, &[(1 << 20) - 1, 64, 63, 12345]);
        });
    }

    #[test]
    fn nested_call_gets_a_temporary_scratch() {
        with_scratch(|outer| {
            outer.begin(8);
            outer.mark(3);
            with_scratch(|inner| {
                assert_eq!(inner.epochs, 0, "a fresh scratch, not the held one");
                sorted_checked(inner, 100, &[70, 2, 70]);
            });
            assert!(outer.is_marked(3));
        });
    }

    #[test]
    fn bitmap_grows_only_when_the_domain_grows() {
        with_scratch(|s| {
            sorted_checked(s, 4096, &[4095]);
            let grown = s.resizes;
            for _ in 0..100 {
                sorted_checked(s, 4096, &[1, 4095, 77]);
                sorted_checked(s, 100, &[99, 3, 3]);
            }
            assert_eq!(s.resizes, grown, "steady state must not reallocate");
            assert!(s.bitmap_capacity() >= 4096);
        });
    }

    #[test]
    fn wrap_resets_stamps() {
        with_scratch(|s| {
            s.begin(4);
            s.mark(0);
            // Force the wrap path.
            s.epoch = u32::MAX;
            s.begin(4);
            assert_eq!(s.epoch, 1);
            assert!(!s.is_marked(0));
            assert!(s.mark(0));
        });
    }
}
