//! Hot-swap publication handle.
//!
//! The serving tier reads an immutable index snapshot while rebuilds happen
//! off to the side; a finished rebuild is *published* as a whole, so a reader
//! sees either the old index or the new one — never a mix. The handle is a
//! [`Mutex`]`<Arc<T>>` paired with a lock-free epoch counter:
//!
//! * `publish` swaps the `Arc` and bumps the epoch while holding the mutex —
//!   publications are rare (one per rebuild), so the lock is uncontended in
//!   practice.
//! * Readers keep a per-worker [`Snapshot`] caching `(epoch, Arc<T>)`. Each
//!   request does one `Acquire` load of the epoch; only when it differs from
//!   the cached value does the reader take the mutex once to re-clone the
//!   `Arc`. In steady state (no publish in flight) the read path is a single
//!   atomic load and never touches a lock.
//!
//! Epochs start at 1 and increase by exactly 1 per publish, which lets tests
//! assert that a batch of responses straddling N publishes maps onto exactly
//! the N+1 published states and nothing in between (no torn reads).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A hot-swappable shared value: rare locked writes, lock-free steady-state
/// reads via [`Snapshot`].
#[derive(Debug)]
pub struct Swap<T> {
    current: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> Swap<T> {
    /// Wraps `value` as the first published state (epoch 1).
    pub fn new(value: T) -> Self {
        Swap {
            current: Mutex::new(Arc::new(value)),
            epoch: AtomicU64::new(1),
        }
    }

    /// The epoch of the currently published value. Monotonic; starts at 1.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The lock, whether or not a holder panicked: the `Arc` is only ever
    /// replaced whole, so a poisoned mutex still guards the old value or the
    /// new one, never a torn one, and later requests must keep being served.
    fn current(&self) -> MutexGuard<'_, Arc<T>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Clones the current value together with its epoch (consistent pair).
    pub fn load(&self) -> (Arc<T>, u64) {
        let guard = self.current();
        (Arc::clone(&guard), self.epoch.load(Ordering::Acquire))
    }

    /// Publishes `value` as the next epoch and returns that epoch. The old
    /// value stays alive until the last reader drops its `Arc`.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_with(|_| value)
    }

    /// Like [`Swap::publish`], but the value is built *from* the epoch it
    /// will be published under — used to stamp the epoch into the state
    /// itself so responses can carry it.
    pub fn publish_with(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let mut guard = self.current();
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        *guard = Arc::new(make(next));
        // Readers observe the epoch bump only after the new Arc is in place;
        // both happen under the mutex, so a Snapshot that sees `next` and
        // then locks is guaranteed to clone the `next` value (or a later
        // one), never the previous epoch's.
        self.epoch.store(next, Ordering::Release);
        next
    }
}

/// A per-worker cached view of a [`Swap`]. Not `Sync` on purpose: each
/// worker thread owns one and refreshes it lazily.
#[derive(Debug)]
pub struct Snapshot<T> {
    seen: u64,
    value: Arc<T>,
}

impl<T> Snapshot<T> {
    /// Captures the current state of `swap`.
    pub fn new(swap: &Swap<T>) -> Self {
        let (value, seen) = swap.load();
        Snapshot { seen, value }
    }

    /// Returns the current value, re-cloning from `swap` only if a publish
    /// happened since the last call (one atomic load otherwise).
    pub fn get(&mut self, swap: &Swap<T>) -> &Arc<T> {
        if swap.epoch() != self.seen {
            let (value, seen) = swap.load();
            self.value = value;
            self.seen = seen;
        }
        &self.value
    }

    /// The epoch of the cached value.
    pub fn epoch(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn epochs_start_at_one_and_increment() {
        let s = Swap::new(10u64);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.publish(20), 2);
        assert_eq!(s.publish(30), 3);
        let (v, e) = s.load();
        assert_eq!((*v, e), (30, 3));
    }

    #[test]
    fn publish_with_sees_its_own_epoch() {
        let s = Swap::new(0u64);
        let e = s.publish_with(|epoch| epoch * 100);
        assert_eq!(e, 2);
        assert_eq!(*s.load().0, 200);
    }

    #[test]
    fn snapshot_refreshes_lazily() {
        let s = Swap::new(1u32);
        let mut snap = Snapshot::new(&s);
        assert_eq!(**snap.get(&s), 1);
        s.publish(2);
        assert_eq!(**snap.get(&s), 2);
        assert_eq!(snap.epoch(), 2);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_stop_loads_or_publishes() {
        let s = Arc::new(Swap::new(1u32));
        let holder = Arc::clone(&s);
        let panicked = thread::spawn(move || {
            let _guard = holder.current.lock().unwrap();
            panic!("holder dies with the lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(s.current.is_poisoned());
        assert_eq!(s.load(), (Arc::new(1), 1));
        assert_eq!(s.publish(2), 2);
        let mut snap = Snapshot::new(&s);
        assert_eq!((**snap.get(&s), snap.epoch()), (2, 2));
        // A builder that panics inside `publish_with` publishes nothing.
        let holder = Arc::clone(&s);
        let panicked = thread::spawn(move || holder.publish_with(|_| panic!("bad build"))).join();
        assert!(panicked.is_err());
        assert_eq!(s.load(), (Arc::new(2), 2));
        assert_eq!(s.publish(3), 3);
    }

    /// Satellite 4 (handle level): readers hammer the swap while a writer
    /// publishes N states; every observed value must be internally
    /// consistent with exactly one published epoch — a vector whose
    /// elements all equal its epoch — and epochs must be monotone per
    /// reader. Run at 1, 4, and 8 reader threads.
    #[test]
    fn concurrent_publish_no_torn_reads() {
        const PUBLISHES: u64 = 200;
        const LEN: usize = 1024;
        for readers in [1usize, 4, 8] {
            let swap = Arc::new(Swap::new(vec![1u64; LEN]));
            let done = Arc::new(AtomicBool::new(false));
            // The writer starts only once every reader runs, and a reader
            // looks at least once however late it is scheduled: a busy host
            // (the panicking threads of the test above, say) must not turn
            // "no overlap this time" into a failure.
            let start = Arc::new(Barrier::new(readers + 1));
            let mut handles = Vec::new();
            for _ in 0..readers {
                let swap = Arc::clone(&swap);
                let done = Arc::clone(&done);
                let start = Arc::clone(&start);
                handles.push(thread::spawn(move || {
                    let mut snap = Snapshot::new(&swap);
                    let mut last_epoch = 0;
                    let mut observed = 0u64;
                    start.wait();
                    loop {
                        let v = Arc::clone(snap.get(&swap));
                        let epoch = snap.epoch();
                        let first = v[0];
                        assert_eq!(first, epoch, "state content must match its claimed epoch");
                        assert!(
                            v.iter().all(|&x| x == first),
                            "torn read: mixed epochs inside one snapshot"
                        );
                        assert!(epoch >= last_epoch, "epoch went backwards");
                        last_epoch = epoch;
                        observed += 1;
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    observed
                }));
            }
            start.wait();
            for _ in 0..PUBLISHES {
                swap.publish_with(|epoch| vec![epoch; LEN]);
                thread::yield_now();
            }
            done.store(true, Ordering::Release);
            for h in handles {
                let reads = h.join().unwrap();
                assert!(reads > 0, "reader made no observations");
            }
            assert_eq!(swap.epoch(), 1 + PUBLISHES);
        }
    }
}
