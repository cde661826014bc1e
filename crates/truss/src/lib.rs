//! # et-truss — k-truss decomposition
//!
//! Computes the **trussness** τ(e) of every edge (Definition 4 of the paper):
//! the largest k such that e belongs to a k-truss of G. Trussness is the
//! input dictionary of every EquiTruss construction (Algorithm 1/2 both take
//! "a dictionary of edges, τ, with their k-truss values").
//!
//! Two implementations with identical (unique) output:
//!
//! * [`serial::decompose_serial`] — classic bucket peeling, O(|E|^1.5);
//!   the *TrussDecomp* kernel of the Fig. 2 breakdown.
//! * [`parallel::decompose_parallel`] — level-synchronous peeling in the
//!   style of PKT (Kabir & Madduri, HPEC 2017 — cited as \[24\] in the paper),
//!   using atomic support counters.
//!
//! Edges in no triangle have trussness 2 (every edge is trivially a
//! "2-truss"); EquiTruss only indexes k ≥ 3.

#![warn(missing_docs)]

pub mod parallel;
pub mod serial;
pub mod verify;

pub use parallel::decompose_parallel;
pub use serial::decompose_serial;
pub use verify::{brute_force_trussness, verify_decomposition};

use et_graph::EdgeId;

/// Result of a k-truss decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrussDecomposition {
    /// τ(e) per edge id; 2 for triangle-free edges.
    pub trussness: Vec<u32>,
    /// Maximum trussness over all edges (2 for triangle-free graphs, 0 for
    /// edgeless graphs).
    pub max_trussness: u32,
}

impl TrussDecomposition {
    /// Builds the result wrapper from a trussness array.
    pub fn new(trussness: Vec<u32>) -> Self {
        let max_trussness = trussness.iter().copied().max().unwrap_or(0);
        TrussDecomposition {
            trussness,
            max_trussness,
        }
    }

    /// τ(e).
    #[inline]
    pub fn of(&self, e: EdgeId) -> u32 {
        self.trussness[e as usize]
    }

    /// Edge ids of the maximal k-truss: every edge with τ(e) ≥ k.
    pub fn truss_edges(&self, k: u32) -> Vec<EdgeId> {
        self.trussness
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t >= k)
            .map(|(e, _)| e as EdgeId)
            .collect()
    }

    /// Histogram of trussness classes: `(k, count)` pairs for k ≥ 2, sorted.
    pub fn class_histogram(&self) -> Vec<(u32, usize)> {
        use std::collections::BTreeMap;
        let mut h: BTreeMap<u32, usize> = BTreeMap::new();
        for &t in &self.trussness {
            *h.entry(t).or_default() += 1;
        }
        h.into_iter().collect()
    }
}
