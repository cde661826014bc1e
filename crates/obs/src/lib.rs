//! # et-obs — observability for the EquiTruss pipeline
//!
//! A lightweight, rayon-friendly tracing, metrics, and memory-accounting
//! layer:
//!
//! * **Spans** ([`span`]) — nested wall-clock intervals tagged with the
//!   calling thread, exportable as `chrome://tracing` / Perfetto JSON
//!   ([`write_chrome_trace`]). One span per kernel invocation (Support,
//!   Init, SpNode k=…, SpEdge k=…, SmGraph, …) reproduces the paper's
//!   Fig. 4/8 breakdown as an interactive timeline. Spans are panic-safe:
//!   a guard dropped during unwind still records its event.
//! * **Counters and distributions** ([`counter_add`], [`record_value`]) —
//!   named, process-global metrics (e.g. `sv.hook_iterations`,
//!   `afforest.sample_hits`, `spedge.buffer_len`) collected into a
//!   [`MetricsSnapshot`] that explains *why* a kernel is slow.
//!   Distributions are fixed-size [`Log2Histogram`]s summarized as
//!   count/min/max/sum/mean/p50/p90/p95/p99.
//! * **Memory accounting** ([`mem_enabled`], [`mem_phase_stats`]) — a
//!   tracking `#[global_allocator]` (cargo feature `alloc-track`, on by
//!   default; runtime-gated by `ET_MEM`) that attributes allocation
//!   deltas and peak footprint to the active span, surfacing
//!   `mem.alloc_bytes.<phase>` / `mem.peak_bytes.<phase>` in every
//!   snapshot.
//! * **Parallelism telemetry** ([`wave`]) — per-thread busy-time tracking
//!   inside rayon regions, reporting occupancy and an
//!   `imbalance = max/mean` distribution per wave.
//! * **Runtime switches** ([`enabled`], [`mem_enabled`]) — initialized
//!   from the `ET_TRACE` / `ET_MEM` environment variables (or
//!   [`set_enabled`] / [`set_mem_enabled`]); every recording entry point
//!   first branches on one relaxed atomic load, so the disabled path
//!   costs nothing measurable.
//!
//! ## Counter naming scheme
//!
//! Dotted lowercase `subsystem.metric` names; per-trussness-level variants
//! append `.k{k}` (e.g. `phi.group_size.k4`). Counters are monotonically
//! increasing `u64` sums. Reserved prefixes: `mem.` (allocator-derived,
//! injected by [`snapshot`]) and `par.` (wave occupancy, emitted by
//! [`wave`] guards).
//!
//! ## Threading model
//!
//! All state is process-global and lock-free on the hot paths: counters
//! and histogram buckets are relaxed `AtomicU64`s, spans buffer into a
//! mutex only on `Drop`, and the allocator hook touches only atomics and
//! a const-initialized thread-local. Rayon worker threads may record
//! freely. Hot loops should either hoist a [`CounterHandle`] /
//! distribution handle out of the loop or accumulate locally and flush
//! once per parallel job.
//!
//! The only dependency is `rayon` (for worker-thread identity in the
//! occupancy tracker); [`MetricsSnapshot::to_json`] and the chrome-trace
//! export write their JSON themselves.

#![warn(missing_docs)]

mod hist;
pub mod json;
mod mem;
mod metrics;
mod occupancy;
mod span;
mod trace;

pub use hist::{HistogramSnapshot, Log2Histogram, NUM_BUCKETS};
pub use mem::{
    init_mem_from_env, mem_current_bytes, mem_current_bytes_raw, mem_enabled, mem_peak_bytes,
    mem_phase_stats, mem_total_alloc_bytes, mem_tracking_active, mem_window, reset_mem_stats,
    set_mem_enabled, MemWindow, PhaseMemStats, SpanMemStats, TrackingAllocator, MEM_ENV_VAR,
};
pub use metrics::{
    counter, counter_add, distribution, record_value, reset_metrics, snapshot, CounterHandle,
    DistributionSummary, MetricsSnapshot,
};
pub use occupancy::{wave, TaskGuard, WaveGuard};
pub use span::{reset_spans, span, take_events, SpanGuard, SpanStats, TraceEvent};
pub use trace::{capture_trace, write_chrome_trace, ChromeTrace};

use std::sync::atomic::{AtomicU8, Ordering};

/// Name of the environment variable that switches tracing on.
pub const ENV_VAR: &str = "ET_TRACE";

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Whether recording is on. The first call (unless [`set_enabled`] ran
/// earlier) reads the `ET_TRACE` environment variable; afterwards this is a
/// single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Initializes the switch from `ET_TRACE` (unset, empty, `0`, `false`,
/// `off`, or `no` mean disabled) unless [`set_enabled`] already decided.
/// Returns the resulting state.
pub fn init_from_env() -> bool {
    let on = std::env::var(ENV_VAR)
        .map(|v| !matches!(v.as_str(), "" | "0" | "false" | "off" | "no"))
        .unwrap_or(false);
    let _ = STATE.compare_exchange(
        UNINIT,
        if on { ON } else { OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == ON
}

/// Forces recording on or off, overriding `ET_TRACE`.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Clears all recorded metrics (counters *and* distribution state),
/// buffered span events, and per-phase memory accounting (the enabled
/// switches are left untouched). Previously hoisted [`CounterHandle`]s and
/// distribution handles are detached by this and must be re-acquired.
pub fn reset() {
    reset_metrics();
    reset_spans();
    reset_mem_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    static LOCK: Mutex<()> = Mutex::new(());

    /// Held by every test of this crate: serializes the ones that toggle the
    /// process-global switches (and keeps the others' allocations out of the
    /// memory tests' windows), and on drop — normal or unwinding — switches
    /// both off and clears what was recorded, so a failing test cannot fail
    /// the ones that run after it.
    pub(crate) struct Serial(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl Drop for Serial {
        fn drop(&mut self) {
            set_enabled(false);
            set_mem_enabled(false);
            reset();
        }
    }

    /// Takes the cross-test serialization lock (poison-tolerant).
    pub(crate) fn lock() -> Serial {
        Serial(LOCK.lock().unwrap_or_else(|p| p.into_inner()))
    }

    #[test]
    fn a_failing_test_leaves_the_switches_off() {
        let died = std::panic::catch_unwind(|| {
            let _guard = lock();
            set_enabled(true);
            set_mem_enabled(true);
            counter_add("test.left_behind", 1);
            panic!("test body dies with both switches on");
        });
        assert!(died.is_err());
        let _guard = lock();
        assert!(!enabled() && !mem_enabled());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn switch_toggles() {
        let _guard = lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = lock();
        set_enabled(false);
        set_mem_enabled(false);
        reset();
        counter_add("test.off", 5);
        record_value("test.off_dist", 1);
        {
            let _span = span("test.off_span");
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.off"), 0);
        assert!(snap.distribution("test.off_dist").is_none());
        assert!(take_events().is_empty());
        assert!(mem_window().is_none());
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let _guard = lock();
        set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let c = counter("test.threads");
                    for _ in 0..1000 {
                        c.incr();
                    }
                    counter_add("test.threads", 10);
                });
            }
        });
        assert_eq!(snapshot().counter("test.threads"), 8 * 1010);
    }

    #[test]
    fn distributions_summarize() {
        let _guard = lock();
        set_enabled(true);
        reset();
        for v in [4u64, 1, 3, 2, 5] {
            record_value("test.dist", v);
        }
        let snap = snapshot();
        let d = snap.distribution("test.dist").unwrap();
        assert_eq!(d.count, 5);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 5);
        assert_eq!(d.sum, 15);
        assert!((d.mean - 3.0).abs() < 1e-9);
        assert_eq!(d.p50, 3);
        assert_eq!(d.p90, 5);
        assert_eq!(d.p95, 5);
        assert_eq!(d.p99, 5);
    }

    #[test]
    fn spans_nest_and_export() {
        let _guard = lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("test.inner").arg("k", 4);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let events = take_events();
        assert_eq!(events.len(), 2);
        // Drop order: inner closes first.
        assert_eq!(events[0].name, "test.inner");
        assert_eq!(events[0].args, vec![("k".to_string(), 4)]);
        assert_eq!(events[1].name, "test.outer");
        let (inner, outer) = (&events[0], &events[1]);
        assert!(outer.ts <= inner.ts, "outer starts first");
        assert!(
            inner.ts + inner.dur <= outer.ts + outer.dur,
            "inner contained in outer"
        );
        assert_eq!(inner.tid, outer.tid);
    }

    #[test]
    fn panicking_closure_still_closes_span() {
        let _guard = lock();
        set_enabled(true);
        reset();
        let result = std::panic::catch_unwind(|| {
            let _span = span("test.panics");
            panic!("boom");
        });
        assert!(result.is_err());
        // The unwound span must have recorded its event, and recording must
        // keep working afterwards (no poisoned-lock fallout).
        {
            let _after = span("test.after_panic");
        }
        let events = take_events();
        assert!(events.iter().any(|e| e.name == "test.panics"));
        assert!(events.iter().any(|e| e.name == "test.after_panic"));
    }

    #[test]
    fn span_finish_returns_stats() {
        let _guard = lock();
        set_enabled(true);
        reset();
        let s = span("test.finish");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let stats = s.finish();
        assert!(stats.dur_us >= 1_000, "dur_us = {}", stats.dur_us);
        assert!(stats.mem.is_none(), "mem tracking is off");
        // finish() records the event exactly once (no double-close on drop).
        let events = take_events();
        assert_eq!(events.iter().filter(|e| e.name == "test.finish").count(), 1);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let _guard = lock();
        set_enabled(true);
        reset();
        {
            let _s = span("test.\"quoted\"\\name").arg("k", 3);
        }
        counter_add("test.counter", 7);
        record_value("test.dist", 42);
        let json = capture_trace().to_json();
        let doc = json::parse(&json).expect("the export parses strictly");
        let event = &doc["traceEvents"][0];
        assert_eq!(event["name"].as_str(), Some("test.\"quoted\"\\name"));
        assert_eq!(event["args"]["k"].as_u64(), Some(3));
        let dist = &doc["metrics"]["distributions"]["test.dist"];
        assert_eq!(dist["mean"].as_f64(), Some(42.0));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\\\"quoted\\\"\\\\name"));
        assert!(json.contains("\"test.counter\": 7"));
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn reset_clears_state() {
        let _guard = lock();
        set_enabled(true);
        reset();
        counter_add("test.reset", 1);
        record_value("test.reset_dist", 99);
        let _ = span("test.reset_span");
        reset();
        assert!(snapshot().is_empty());
        assert!(take_events().is_empty());
    }

    #[test]
    fn reset_detaches_distribution_state() {
        let _guard = lock();
        set_enabled(true);
        reset();
        for v in [10u64, 20, 30] {
            record_value("test.reset_detach", v);
        }
        reset();
        // A fresh sample after reset must not see the old three.
        record_value("test.reset_detach", 7);
        let snap = snapshot();
        let d = snap.distribution("test.reset_detach").unwrap();
        assert_eq!(d.count, 1);
        assert_eq!(d.min, 7);
        assert_eq!(d.max, 7);
    }

    #[test]
    fn env_parsing_rules() {
        let _guard = lock();
        // init_from_env only applies from the UNINIT state, which tests
        // cannot reliably reach; exercise the explicit override instead.
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[cfg(feature = "alloc-track")]
    mod mem_tracking {
        use super::super::*;
        use super::lock;

        const MB: usize = 1 << 20;

        fn phase<'a>(stats: &'a [PhaseMemStats], name: &str) -> &'a PhaseMemStats {
            stats
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("phase {name} missing from {stats:?}"))
        }

        #[test]
        fn attributes_allocations_to_nested_spans() {
            let _guard = lock();
            set_enabled(true);
            set_mem_enabled(true);
            reset();
            let outer_stats;
            {
                let outer = span("test.mem_outer");
                let a = vec![1u8; 2 * MB];
                let inner_stats = {
                    let inner = span("test.mem_inner");
                    let b = vec![2u8; 4 * MB];
                    let st = inner.finish();
                    drop(b);
                    st
                };
                // Inner window saw its own 4 MB.
                assert!(inner_stats.mem.unwrap().alloc_bytes >= 4 * MB as u64);
                outer_stats = outer.finish();
                drop(a);
            }
            let phases = mem_phase_stats();
            // Exclusive attribution: each span's phase slot owns its bytes.
            assert!(phase(&phases, "test.mem_outer").alloc_bytes >= 2 * MB as u64);
            assert!(phase(&phases, "test.mem_inner").alloc_bytes >= 4 * MB as u64);
            // The outer slot must NOT have swallowed the inner allocation
            // (2 MB ours + small overhead, but well under the inner 4 MB).
            assert!(phase(&phases, "test.mem_outer").alloc_bytes < 4 * MB as u64);
            // The span window is inclusive: outer saw both allocations.
            let m = outer_stats.mem.unwrap();
            assert!(m.alloc_bytes >= 6 * MB as u64, "window = {m:?}");
            assert!(m.peak_bytes >= m.current_bytes);
        }

        #[test]
        fn worker_threads_inherit_the_driving_phase() {
            let _guard = lock();
            set_enabled(true);
            set_mem_enabled(true);
            reset();
            {
                let _s = span("test.mem_xthread");
                std::thread::scope(|s| {
                    s.spawn(|| {
                        // No span on this thread: attribution falls back to
                        // the driving thread's published phase.
                        let v = vec![3u8; 8 * MB];
                        std::hint::black_box(&v);
                    });
                });
            }
            let phases = mem_phase_stats();
            assert!(phase(&phases, "test.mem_xthread").alloc_bytes >= 8 * MB as u64);
        }

        #[test]
        fn disabled_mem_tracking_attributes_nothing() {
            let _guard = lock();
            set_mem_enabled(false);
            set_enabled(true);
            reset();
            {
                let _s = span("test.mem_disabled");
                let v = vec![5u8; MB];
                std::hint::black_box(&v);
            }
            let phases = mem_phase_stats();
            let snap = snapshot();
            assert!(
                phases.iter().all(|p| p.name != "test.mem_disabled"),
                "disabled tracking registered a phase: {phases:?}"
            );
            assert_eq!(snap.counter("mem.peak_bytes"), 0);
        }
    }
}
