//! Kernel-level timing and memory instrumentation.
//!
//! The paper's Fig. 4 and Fig. 8 break index construction into the kernels
//! Support, Init, SpNode, SpEdge, SmGraph, and SpNodeRemap; Fig. 2 uses the
//! coarser Support / TrussDecomp / EquiTruss split for the Original
//! implementation. This struct accumulates both — and, when `ET_MEM`
//! memory tracking is on, the allocation delta and peak footprint of each
//! kernel's window ([`PhaseMem`]).

use std::time::Duration;

/// The pipeline kernels, in the paper's Fig. 4 order. Doubles as the index
/// into [`KernelTimings::mem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Support computation (Definition 2).
    Support,
    /// K-truss decomposition (input dictionary τ).
    TrussDecomp,
    /// Initialization: Π setup and Φ_k grouping (Algorithm 2 ln. 1–5).
    Init,
    /// Supernode construction (Algorithm 2).
    SpNode,
    /// Superedge construction (Algorithm 3).
    SpEdge,
    /// Supergraph merge (Algorithm 4).
    SmGraph,
    /// Dense supernode-id remapping of Π roots.
    SpNodeRemap,
    /// Truss-hierarchy (merge forest) construction for the query engine.
    Hierarchy,
}

impl Kernel {
    /// Every kernel, in Fig. 4 order.
    pub const ALL: [Kernel; 8] = [
        Kernel::Support,
        Kernel::TrussDecomp,
        Kernel::Init,
        Kernel::SpNode,
        Kernel::SpEdge,
        Kernel::SmGraph,
        Kernel::SpNodeRemap,
        Kernel::Hierarchy,
    ];

    /// Row label used in reports and the per-phase `mem` map.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Support => "Support",
            Kernel::TrussDecomp => "TrussDecomp",
            Kernel::Init => "Init",
            Kernel::SpNode => "SpNode",
            Kernel::SpEdge => "SpEdge",
            Kernel::SmGraph => "SmGraph",
            Kernel::SpNodeRemap => "SpNodeRemap",
            Kernel::Hierarchy => "HierarchyBuild",
        }
    }

    /// Dense index (position in [`Kernel::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Memory accounting of one kernel's execution window (inclusive: nested
/// work and concurrent rayon workers count toward the owning kernel).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseMem {
    /// Bytes allocated during the kernel's window(s).
    pub alloc_bytes: u64,
    /// Peak live process footprint observed during the window(s).
    pub peak_bytes: u64,
}

impl PhaseMem {
    /// Folds one closed measurement window in (bytes add, peaks max).
    pub fn fold(&mut self, stats: et_obs::SpanMemStats) {
        self.alloc_bytes += stats.alloc_bytes;
        self.peak_bytes = self.peak_bytes.max(stats.peak_bytes);
    }

    /// Whether any window recorded anything.
    pub fn is_zero(&self) -> bool {
        self.alloc_bytes == 0 && self.peak_bytes == 0
    }
}

/// Accumulated wall-clock time (and, with `ET_MEM=1`, memory accounting)
/// per compute kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimings {
    /// Support computation (Definition 2).
    pub support: Duration,
    /// K-truss decomposition (input dictionary τ).
    pub truss_decomp: Duration,
    /// Initialization: Π setup and Φ_k grouping (Algorithm 2 ln. 1–5).
    pub init: Duration,
    /// Supernode construction (Algorithm 2).
    pub spnode: Duration,
    /// Superedge construction (Algorithm 3).
    pub spedge: Duration,
    /// Supergraph merge (Algorithm 4).
    pub smgraph: Duration,
    /// Dense supernode-id remapping of Π roots.
    pub spnode_remap: Duration,
    /// Truss-hierarchy (merge forest) construction for the query engine.
    pub hierarchy: Duration,
    /// Per-kernel memory accounting, indexed by [`Kernel::index`]. All
    /// zeros unless memory tracking was active during the run.
    pub mem: [PhaseMem; 8],
}

impl KernelTimings {
    /// Total time of the *index construction* phases the paper compares in
    /// Table 4: SpNode + SpEdge + SmGraph.
    pub fn index_construction(&self) -> Duration {
        self.spnode + self.spedge + self.smgraph
    }

    /// Total over every kernel (end-to-end pipeline time).
    pub fn total(&self) -> Duration {
        self.support
            + self.truss_decomp
            + self.init
            + self.spnode
            + self.spedge
            + self.smgraph
            + self.spnode_remap
            + self.hierarchy
    }

    /// The timing slot of one kernel.
    fn slot_mut(&mut self, kernel: Kernel) -> &mut Duration {
        match kernel {
            Kernel::Support => &mut self.support,
            Kernel::TrussDecomp => &mut self.truss_decomp,
            Kernel::Init => &mut self.init,
            Kernel::SpNode => &mut self.spnode,
            Kernel::SpEdge => &mut self.spedge,
            Kernel::SmGraph => &mut self.smgraph,
            Kernel::SpNodeRemap => &mut self.spnode_remap,
            Kernel::Hierarchy => &mut self.hierarchy,
        }
    }

    /// Folds a closed memory window into a kernel's [`PhaseMem`] slot.
    pub fn record_mem(&mut self, kernel: Kernel, stats: et_obs::SpanMemStats) {
        self.mem[kernel.index()].fold(stats);
    }

    /// `(label, duration)` rows in the paper's Fig. 4 kernel order.
    pub fn rows(&self) -> Vec<(&'static str, Duration)> {
        vec![
            ("Support", self.support),
            ("TrussDecomp", self.truss_decomp),
            ("Init", self.init),
            ("SpNode", self.spnode),
            ("SpEdge", self.spedge),
            ("SmGraph", self.smgraph),
            ("SpNodeRemap", self.spnode_remap),
            ("HierarchyBuild", self.hierarchy),
        ]
    }

    /// Element-wise sum (for averaging repeated runs). Memory peaks take
    /// the max across runs; allocation bytes add.
    pub fn accumulate(&mut self, other: &KernelTimings) {
        self.support += other.support;
        self.truss_decomp += other.truss_decomp;
        self.init += other.init;
        self.spnode += other.spnode;
        self.spedge += other.spedge;
        self.smgraph += other.smgraph;
        self.spnode_remap += other.spnode_remap;
        self.hierarchy += other.hierarchy;
        for (mine, theirs) in self.mem.iter_mut().zip(other.mem.iter()) {
            mine.alloc_bytes += theirs.alloc_bytes;
            mine.peak_bytes = mine.peak_bytes.max(theirs.peak_bytes);
        }
    }
}

/// Times a closure, adding the elapsed duration to `slot`.
pub fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// The full-pipeline instrumentation point: times the closure into
/// `kernel`'s slot, opens a span named `name` (a no-op unless tracing is
/// on), and — while memory tracking is active — folds the span's
/// allocation window into the kernel's [`PhaseMem`].
pub fn timed_phase<T>(
    timings: &mut KernelTimings,
    kernel: Kernel,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    timed_span(timings, kernel, et_obs::span(name), f)
}

/// [`timed_phase`] under a span the caller has just opened, for the phase
/// that puts an argument on it.
pub fn timed_span<T>(
    timings: &mut KernelTimings,
    kernel: Kernel,
    span: et_obs::SpanGuard,
    f: impl FnOnce() -> T,
) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *timings.slot_mut(kernel) += start.elapsed();
    if let Some(mem) = span.finish().mem {
        timings.record_mem(kernel, mem);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that toggle the process-global tracing switch
    /// and drain its event buffer.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn totals() {
        let t = KernelTimings {
            support: Duration::from_millis(10),
            spnode: Duration::from_millis(30),
            ..Default::default()
        };
        assert_eq!(t.total(), Duration::from_millis(40));
        assert_eq!(t.index_construction(), Duration::from_millis(30));
    }

    #[test]
    fn timed_accumulates() {
        let mut slot = Duration::ZERO;
        let v = timed(&mut slot, || 42);
        assert_eq!(v, 42);
        let first = slot;
        timed(&mut slot, || std::thread::sleep(Duration::from_millis(1)));
        assert!(slot > first);
    }

    #[test]
    fn total_is_sum_of_every_field() {
        let ms = Duration::from_millis;
        let t = KernelTimings {
            support: ms(1),
            truss_decomp: ms(2),
            init: ms(4),
            spnode: ms(8),
            spedge: ms(16),
            smgraph: ms(32),
            spnode_remap: ms(64),
            hierarchy: ms(128),
            mem: Default::default(),
        };
        let field_sum: Duration = t.rows().iter().map(|&(_, d)| d).sum();
        assert_eq!(t.total(), field_sum);
        assert_eq!(t.total(), ms(255));
        assert_eq!(t.index_construction(), t.spnode + t.spedge + t.smgraph);
        assert_eq!(t.index_construction(), ms(56));
    }

    #[test]
    fn kernel_enum_is_dense_and_ordered() {
        for (i, k) in Kernel::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        // Kernel order matches the rows() report order by label.
        let t = KernelTimings::default();
        let row_labels: Vec<&str> = t.rows().iter().map(|&(n, _)| n).collect();
        let kernel_labels: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(row_labels, kernel_labels);
    }

    #[test]
    fn timed_phase_fills_slot_and_span() {
        let _guard = OBS_LOCK.lock().unwrap();
        et_obs::set_enabled(true);
        et_obs::reset();
        let mut t = KernelTimings::default();
        let v = timed_phase(&mut t, Kernel::Support, "test.timed_phase", || {
            std::thread::sleep(Duration::from_millis(1));
            9
        });
        et_obs::set_enabled(false);
        assert_eq!(v, 9);
        assert!(t.support >= Duration::from_millis(1));
        let events = et_obs::take_events();
        et_obs::reset();
        assert!(events.iter().any(|e| e.name == "test.timed_phase"));
        // Without ET_MEM, the mem slots stay zero.
        assert!(t.mem.iter().all(|m| m.is_zero()));
    }

    #[test]
    fn accumulate_sums() {
        let mut a = KernelTimings {
            spedge: Duration::from_millis(5),
            ..Default::default()
        };
        let mut b = KernelTimings {
            spedge: Duration::from_millis(7),
            init: Duration::from_millis(1),
            ..Default::default()
        };
        b.mem[Kernel::SpEdge.index()] = PhaseMem {
            alloc_bytes: 100,
            peak_bytes: 70,
        };
        a.mem[Kernel::SpEdge.index()] = PhaseMem {
            alloc_bytes: 20,
            peak_bytes: 90,
        };
        a.accumulate(&b);
        assert_eq!(a.spedge, Duration::from_millis(12));
        assert_eq!(a.init, Duration::from_millis(1));
        let m = a.mem[Kernel::SpEdge.index()];
        assert_eq!(m.alloc_bytes, 120);
        assert_eq!(m.peak_bytes, 90);
    }
}
