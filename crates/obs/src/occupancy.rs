//! Per-thread busy-time tracking for rayon parallel regions.
//!
//! A [`WaveGuard`] brackets one parallel region (an SpNode/SpEdge wave, a
//! support-chunk sweep, a peeling decomposition). Inside it, each unit of
//! work opens a [`TaskGuard`]; on drop the task's wall time is added to a
//! per-thread busy slot indexed by `rayon::current_thread_index()`. When
//! the wave closes it derives, from the busy slots and the wave's own
//! wall time:
//!
//! * `par.busy_us.<name>` — total busy microseconds across threads;
//! * `par.imbalance_x1000.<name>` — `max(busy) / mean(busy)` over the
//!   threads that did any work, scaled by 1000 (1000 = perfectly even);
//! * `par.occupancy_pct.<name>` — `sum(busy) / (threads × wall)` as a
//!   percentage (100 = every pool thread busy for the whole wave);
//! * `par.tasks.<name>` — the number of tasks executed.
//!
//! All distributions land in the log2-histogram metrics registry, so
//! repeated waves of the same name accumulate into p50/p95/p99 summaries.
//! Everything no-ops (two relaxed loads per task) while tracing is off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One busy-time slot per possible rayon worker, plus one overflow slot
/// for threads outside the pool (index 0 of `busy_ns`).
const MAX_THREADS: usize = 256;

/// Brackets a named parallel region and reports occupancy when dropped.
///
/// Create one with [`crate::wave`] before the parallel loop, call
/// [`WaveGuard::task`] at the top of each work item, and let both guards
/// drop naturally:
///
/// ```
/// use rayon::prelude::*;
/// et_obs::set_enabled(true);
/// let wave = et_obs::wave("Example");
/// (0..4u32).into_par_iter().for_each(|_| {
///     let _task = wave.task();
///     // ... work ...
/// });
/// drop(wave);
/// et_obs::set_enabled(false);
/// # et_obs::reset();
/// ```
pub struct WaveGuard {
    inner: Option<ActiveWave>,
}

struct ActiveWave {
    name: &'static str,
    start: Instant,
    tasks: AtomicU64,
    /// busy_ns[0] is the overflow slot for non-pool threads; worker `i`
    /// accumulates into busy_ns[i + 1].
    busy_ns: Box<[AtomicU64]>,
}

/// Times one unit of work inside a [`WaveGuard`]; accounts on drop.
pub struct TaskGuard<'a> {
    wave: Option<(&'a ActiveWave, Instant)>,
}

/// Opens a wave named `name`. Inert (records nothing, allocates nothing)
/// while tracing is disabled.
pub fn wave(name: &'static str) -> WaveGuard {
    if !crate::enabled() {
        return WaveGuard { inner: None };
    }
    WaveGuard {
        inner: Some(ActiveWave {
            name,
            start: Instant::now(),
            tasks: AtomicU64::new(0),
            busy_ns: (0..=MAX_THREADS).map(|_| AtomicU64::new(0)).collect(),
        }),
    }
}

impl WaveGuard {
    /// Starts timing one task on the calling thread.
    #[inline]
    pub fn task(&self) -> TaskGuard<'_> {
        TaskGuard {
            wave: self.inner.as_ref().map(|w| (w, Instant::now())),
        }
    }
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        if let Some((wave, start)) = self.wave.take() {
            let ns = start.elapsed().as_nanos() as u64;
            let slot = rayon::current_thread_index()
                .map(|i| (i + 1).min(MAX_THREADS))
                .unwrap_or(0);
            wave.busy_ns[slot].fetch_add(ns, Ordering::Relaxed);
            wave.tasks.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for WaveGuard {
    fn drop(&mut self) {
        let Some(wave) = self.inner.take() else {
            return;
        };
        let wall_ns = wave.start.elapsed().as_nanos() as u64;
        let tasks = wave.tasks.load(Ordering::Relaxed);
        if tasks == 0 {
            return;
        }
        let busy: Vec<u64> = wave
            .busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .filter(|&b| b > 0)
            .collect();
        let total_ns: u64 = busy.iter().sum();
        let max_ns = busy.iter().copied().max().unwrap_or(0);
        let active_threads = busy.len() as u64;

        crate::counter_add(&format!("par.tasks.{}", wave.name), tasks);
        crate::record_value(&format!("par.busy_us.{}", wave.name), total_ns / 1_000);
        if active_threads > 0 && total_ns > 0 {
            // imbalance = max/mean over threads that did work; 1000 ≡ 1.0.
            let imbalance = max_ns as u128 * 1000 * active_threads as u128 / total_ns as u128;
            crate::record_value(
                &format!("par.imbalance_x1000.{}", wave.name),
                imbalance as u64,
            );
        }
        let pool_threads = rayon::current_num_threads() as u64;
        if wall_ns > 0 && pool_threads > 0 {
            let occupancy = total_ns as u128 * 100 / (wall_ns as u128 * pool_threads as u128);
            crate::record_value(
                &format!("par.occupancy_pct.{}", wave.name),
                // Timer skew can nudge past 100; clamp for readability.
                (occupancy as u64).min(100),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use rayon::prelude::*;

    // Swapped thread-pool state is process-global; reuse the crate lock.
    #[test]
    fn wave_reports_occupancy_and_imbalance() {
        let _guard = crate::tests::lock();
        crate::set_enabled(true);
        crate::reset();
        {
            let wave = super::wave("TestWave");
            (0..64u64).into_par_iter().for_each(|_| {
                let _t = wave.task();
                std::hint::black_box((0..20_000u64).sum::<u64>());
            });
        }
        let snap = crate::snapshot();
        assert_eq!(snap.counter("par.tasks.TestWave"), 64);
        let busy = snap.distribution("par.busy_us.TestWave").expect("busy");
        assert!(busy.sum > 0);
        let imb = snap
            .distribution("par.imbalance_x1000.TestWave")
            .expect("imbalance");
        // max/mean is ≥ 1 by construction.
        assert!(imb.min >= 1000, "imbalance {} < 1000", imb.min);
        let occ = snap
            .distribution("par.occupancy_pct.TestWave")
            .expect("occupancy");
        assert!(occ.max <= 100);
    }

    #[test]
    fn disabled_wave_records_nothing() {
        let _guard = crate::tests::lock();
        crate::set_enabled(false);
        crate::reset();
        {
            let wave = super::wave("SilentWave");
            let _t = wave.task();
        }
        assert!(crate::snapshot().is_empty());
    }
}
