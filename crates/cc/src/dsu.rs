//! Union-find: a sequential version and a lock-free atomic version.
//!
//! The atomic version implements the `link`/`compress` primitives of the
//! Afforest paper (priority hooking: roots always point to smaller ids, so
//! concurrent links cannot cycle), used by the edge-CC engine's drivers
//! ([`crate::engine`]).

use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential union-find with union by size and path halving.
#[derive(Clone, Debug)]
pub struct DisjointSet {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSet {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Root label per element (fully compressed).
    pub fn labels(&mut self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|x| self.find(x))
            .collect()
    }
}

/// Current root of `x` in an atomic parent forest (no mutation; safe
/// concurrently with [`atomic_link`]).
#[inline]
pub fn atomic_find(parent: &[AtomicU32], mut x: u32) -> u32 {
    loop {
        let p = parent[x as usize].load(Ordering::Relaxed);
        if p == x {
            return x;
        }
        x = p;
    }
}

/// [`atomic_find`] that also reports the chain length walked — `(root,
/// steps)`, with `steps == 0` when `x` is its own root. The instrumented
/// compression paths use this to expose `dsu.compress_steps` without taxing
/// the plain find.
#[inline]
pub fn atomic_find_steps(parent: &[AtomicU32], mut x: u32) -> (u32, u64) {
    let mut steps = 0u64;
    loop {
        let p = parent[x as usize].load(Ordering::Relaxed);
        if p == x {
            return (x, steps);
        }
        x = p;
        steps += 1;
    }
}

/// Lock-free link of the sets of `u` and `v` — the `Link` primitive of the
/// Afforest paper (Sutton et al., IPDPS 2018, Algorithm 2): priority hooking
/// of the larger label under the smaller, retrying through grandparents on
/// contention.
#[inline]
pub fn atomic_link(parent: &[AtomicU32], u: u32, v: u32) {
    let mut p1 = parent[u as usize].load(Ordering::Relaxed);
    let mut p2 = parent[v as usize].load(Ordering::Relaxed);
    while p1 != p2 {
        let (high, low) = if p1 > p2 { (p1, p2) } else { (p2, p1) };
        let p_high = parent[high as usize].load(Ordering::Relaxed);
        if p_high == low {
            break; // already linked
        }
        if p_high == high
            && parent[high as usize]
                .compare_exchange(high, low, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            break;
        }
        // Contention or non-root: climb one level on each side and retry.
        let gp = parent[high as usize].load(Ordering::Relaxed);
        p1 = parent[gp as usize].load(Ordering::Relaxed);
        p2 = parent[low as usize].load(Ordering::Relaxed);
    }
}

/// Lock-free union-find over an atomic parent array.
///
/// `link` uses priority hooking (larger root is CASed onto the smaller), so
/// concurrent calls converge without locks; `compress` flattens all chains in
/// parallel afterwards. Between `link` phases the structure is a forest but
/// not necessarily flat — call [`AtomicDsu::find`] for current roots.
pub struct AtomicDsu {
    parent: Vec<AtomicU32>,
}

impl AtomicDsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        AtomicDsu {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current root of `x` (no mutation; safe concurrently with `link`).
    #[inline]
    pub fn find(&self, x: u32) -> u32 {
        atomic_find(&self.parent, x)
    }

    /// Links the sets of `u` and `v`; see [`atomic_link`].
    #[inline]
    pub fn link(&self, u: u32, v: u32) {
        atomic_link(&self.parent, u, v);
    }

    /// Flattens every element directly onto its root, in parallel
    /// (Afforest's `Compress`).
    pub fn compress(&self) {
        if et_obs::enabled() {
            let steps: u64 = self
                .parent
                .par_iter()
                .enumerate()
                .map(|(x, slot)| {
                    let (root, steps) = atomic_find_steps(&self.parent, x as u32);
                    slot.store(root, Ordering::Relaxed);
                    steps
                })
                .sum();
            et_obs::counter_add("dsu.compress_steps", steps);
            et_obs::counter_add("dsu.compress_calls", 1);
        } else {
            self.parent.par_iter().enumerate().for_each(|(x, slot)| {
                let root = self.find(x as u32);
                slot.store(root, Ordering::Relaxed);
            });
        }
    }

    /// Snapshot of the (not necessarily compressed) parent array.
    pub fn labels(&self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|x| self.find(x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_basics() {
        let mut d = DisjointSet::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(3, 4));
        assert!(!d.union(1, 0));
        assert!(d.connected(0, 1));
        assert!(!d.connected(0, 3));
        d.union(1, 4);
        assert!(d.connected(0, 3));
        let labels = d.labels();
        assert_eq!(labels[0], labels[4]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn atomic_matches_sequential() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200;
        let pairs: Vec<(u32, u32)> = (0..400)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();

        let mut seq = DisjointSet::new(n as usize);
        let atomic = AtomicDsu::new(n as usize);
        for &(a, b) in &pairs {
            seq.union(a, b);
        }
        pairs.par_iter().for_each(|&(a, b)| atomic.link(a, b));
        atomic.compress();
        assert!(crate::same_partition(&seq.labels(), &atomic.labels()));
    }

    #[test]
    fn atomic_roots_are_minimal() {
        let d = AtomicDsu::new(4);
        d.link(3, 1);
        d.link(2, 1);
        d.compress();
        // Priority hooking points everything at the smallest member reached.
        assert_eq!(d.find(3), d.find(1));
        assert_eq!(d.find(2), d.find(1));
        assert_eq!(d.find(0), 0);
    }

    #[test]
    fn empty_and_singleton() {
        let d = AtomicDsu::new(0);
        assert!(d.is_empty());
        let d1 = AtomicDsu::new(1);
        assert_eq!(d1.find(0), 0);
        d1.compress();
        assert_eq!(d1.labels(), vec![0]);
    }
}
