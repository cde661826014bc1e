//! Named counters and log2-histogram distributions with snapshot extraction.

use crate::hist::{HistogramSnapshot, Log2Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Default)]
struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    distributions: RwLock<BTreeMap<String, Arc<Log2Histogram>>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::default)
}

// Registry state is a monotone bag of atomics — a panic while holding a
// lock cannot leave it torn, so poisoned locks are safe to recover. This
// keeps metrics usable after a caught panic (the panic-safe span guards
// depend on it).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

/// A hoisted reference to one named counter — fetch once outside a hot loop,
/// then [`CounterHandle::add`] without any registry lookup.
#[derive(Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Adds `delta` (relaxed).
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Returns (registering on first use) the counter called `name`. Unlike
/// [`counter_add`] this does *not* consult the enabled switch — callers
/// hoisting a handle gate recording themselves via [`crate::enabled`].
pub fn counter(name: &str) -> CounterHandle {
    let reg = registry();
    if let Some(c) = read_recover(&reg.counters).get(name) {
        return CounterHandle(c.clone());
    }
    let mut w = write_recover(&reg.counters);
    CounterHandle(w.entry(name.to_string()).or_default().clone())
}

/// Adds `delta` to the counter called `name`; no-op while recording is
/// disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    counter(name).add(delta);
}

/// Returns (registering on first use) the distribution called `name` —
/// hoist it outside hot loops like a [`CounterHandle`]. Recording into a
/// [`Log2Histogram`] is lock-free, so rayon workers may share the handle.
pub fn distribution(name: &str) -> Arc<Log2Histogram> {
    let reg = registry();
    if let Some(d) = read_recover(&reg.distributions).get(name) {
        return d.clone();
    }
    let mut w = write_recover(&reg.distributions);
    w.entry(name.to_string()).or_default().clone()
}

/// Records one sample into the distribution called `name`; no-op while
/// recording is disabled. Samples land in a fixed-size log2 histogram
/// ([`Log2Histogram`]), so memory stays O(1) per metric regardless of
/// sample volume — cheap enough for per-task events, not just
/// per-kernel-scale sampling.
pub fn record_value(name: &str, value: u64) {
    if !crate::enabled() {
        return;
    }
    distribution(name).record(value);
}

/// Summary statistics of one recorded distribution. count/min/max/sum/mean
/// are exact; the percentiles are interpolated from log2 buckets (exact at
/// the observed extremes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistributionSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Sum over all samples.
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl DistributionSummary {
    fn from_histogram(snap: &HistogramSnapshot) -> Option<DistributionSummary> {
        let count = snap.count();
        if count == 0 {
            return None;
        }
        Some(DistributionSummary {
            count,
            min: snap.min,
            max: snap.max,
            sum: snap.sum,
            mean: snap.sum as f64 / count as f64,
            p50: snap.percentile(0.5).unwrap_or(0),
            p90: snap.percentile(0.9).unwrap_or(0),
            p95: snap.percentile(0.95).unwrap_or(0),
            p99: snap.percentile(0.99).unwrap_or(0),
        })
    }
}

/// A point-in-time copy of every registered counter and distribution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Distribution summaries by name.
    pub distributions: BTreeMap<String, DistributionSummary>,
}

impl MetricsSnapshot {
    /// Value of a counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Summary of a distribution, if it recorded any sample.
    pub fn distribution(&self, name: &str) -> Option<&DistributionSummary> {
        self.distributions.get(name)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.distributions.is_empty()
    }

    /// Folds `other` into `self`: counters are summed; distribution
    /// summaries are combined exactly for count/min/max/sum/mean and
    /// *approximately* for the percentiles (sample-weighted average), which
    /// is adequate for cross-run rollups.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, d) in &other.distributions {
            match self.distributions.get_mut(name) {
                None => {
                    self.distributions.insert(name.clone(), *d);
                }
                Some(mine) => {
                    let total = mine.count + d.count;
                    let weighted = |a: u64, b: u64| {
                        ((a as f64 * mine.count as f64 + b as f64 * d.count as f64) / total as f64)
                            .round() as u64
                    };
                    mine.p50 = weighted(mine.p50, d.p50);
                    mine.p90 = weighted(mine.p90, d.p90);
                    mine.p95 = weighted(mine.p95, d.p95);
                    mine.p99 = weighted(mine.p99, d.p99);
                    mine.min = mine.min.min(d.min);
                    mine.max = mine.max.max(d.max);
                    mine.sum += d.sum;
                    mine.count = total;
                    mine.mean = mine.sum as f64 / total as f64;
                }
            }
        }
    }

    /// Serializes the snapshot as a JSON object (dependency-free writer).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::json::quote_into(out, name);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("}, \"distributions\": {");
        for (i, (name, d)) in self.distributions.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            crate::json::quote_into(out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"min\": {}, \"max\": {}, \"sum\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p95\": {}, \"p99\": {}}}",
                d.count,
                d.min,
                d.max,
                d.sum,
                json_f64(d.mean),
                d.p50,
                d.p90,
                d.p95,
                d.p99
            ));
        }
        out.push_str("}}");
    }
}

/// Formats an `f64` as a JSON-legal number (no NaN/inf, always finite text).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Snapshots every registered counter and distribution. While memory
/// tracking is active ([`crate::mem_tracking_active`]), the allocator's
/// per-phase accounting is folded in as `mem.alloc_bytes.<phase>` /
/// `mem.peak_bytes.<phase>` counters plus the process-wide
/// `mem.current_bytes`, `mem.peak_bytes`, and `mem.alloc_bytes` totals, so
/// every report JSON carries the memory columns for free.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut counters: BTreeMap<String, u64> = read_recover(&reg.counters)
        .iter()
        .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
        .collect();
    let distributions = read_recover(&reg.distributions)
        .iter()
        .filter_map(|(k, v)| {
            DistributionSummary::from_histogram(&v.snapshot()).map(|d| (k.clone(), d))
        })
        .collect();
    if crate::mem_tracking_active() {
        for p in crate::mem_phase_stats() {
            counters.insert(format!("mem.alloc_bytes.{}", p.name), p.alloc_bytes);
            counters.insert(format!("mem.alloc_count.{}", p.name), p.alloc_count);
            counters.insert(format!("mem.peak_bytes.{}", p.name), p.peak_bytes);
        }
        counters.insert("mem.current_bytes".to_string(), crate::mem_current_bytes());
        counters.insert("mem.peak_bytes".to_string(), crate::mem_peak_bytes());
        counters.insert(
            "mem.alloc_bytes".to_string(),
            crate::mem_total_alloc_bytes(),
        );
    }
    MetricsSnapshot {
        counters,
        distributions,
    }
}

/// Unregisters every counter and distribution (hoisted [`CounterHandle`]s
/// and distribution handles become detached).
pub fn reset_metrics() {
    let reg = registry();
    write_recover(&reg.counters).clear();
    write_recover(&reg.distributions).clear();
}
