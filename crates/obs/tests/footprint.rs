//! The process-wide footprint counter, checked to the byte — which is why
//! this test has a binary to itself. `mem_current_bytes_raw` moves with every
//! tracked allocation *and free* of every thread, so inside a binary of many
//! tests the teardown of a neighbouring test's thread (a few hundred bytes
//! freed after it released the crate's test lock) lands inside the window
//! and the 16 MB step comes up short: one run in four at `--test-threads=4`.
//! Here the only other thread is the harness, parked until the test ends.

#![cfg(feature = "alloc-track")]

use et_obs::{mem_current_bytes_raw, reset, set_mem_enabled, snapshot};

const MB: usize = 1 << 20;

#[test]
fn footprint_counters_track_alloc_and_free() {
    set_mem_enabled(true);
    reset();
    let before = mem_current_bytes_raw();
    let v = vec![4u8; 16 * MB];
    std::hint::black_box(&v);
    let during = mem_current_bytes_raw();
    assert!(during >= before + 16 * MB as i64, "{before} -> {during}");
    drop(v);
    let after = mem_current_bytes_raw();
    assert!(after < during, "{during} -> {after}");
    // Snapshot injection: the global counters surface in metrics.
    let snap = snapshot();
    assert!(snap.counter("mem.alloc_bytes") >= 16 * MB as u64);
    assert!(snap.counters.contains_key("mem.peak_bytes"));
    assert!(snap.counters.contains_key("mem.current_bytes"));
}
