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
//!
//! The parallel peel also hands out what it learned on the way: the
//! **supernode forest** ([`TrussDecomposition::forest`]), the partition of
//! the edges into k-triangle-connected classes of equal trussness that
//! `et-core`'s SpNode kernel would otherwise rebuild from the triangles the
//! peel has just walked ([`parallel`] says how).

#![warn(missing_docs)]

pub mod parallel;
pub mod serial;
pub mod verify;

pub use parallel::decompose_parallel;
pub use serial::decompose_serial;
pub use verify::{brute_force_trussness, verify_decomposition};

use et_graph::EdgeId;

/// Result of a k-truss decomposition.
///
/// Two decompositions are equal when their trussness is: the forest is a
/// by-product of *how* the peel ran, and every root labelling of the one
/// partition τ determines is as good as another.
#[derive(Clone, Debug)]
pub struct TrussDecomposition {
    /// τ(e) per edge id; 2 for triangle-free edges.
    pub trussness: Vec<u32>,
    /// Maximum trussness over all edges (2 for triangle-free graphs, 0 for
    /// edgeless graphs).
    pub max_trussness: u32,
    /// See [`TrussDecomposition::forest`].
    forest: Option<Vec<u32>>,
}

impl PartialEq for TrussDecomposition {
    fn eq(&self, other: &Self) -> bool {
        self.trussness == other.trussness
    }
}

impl Eq for TrussDecomposition {}

impl TrussDecomposition {
    /// Builds the result wrapper from a trussness array, without a forest.
    pub fn new(trussness: Vec<u32>) -> Self {
        let max_trussness = trussness.iter().copied().max().unwrap_or(0);
        TrussDecomposition {
            trussness,
            max_trussness,
            forest: None,
        }
    }

    /// [`TrussDecomposition::new`] with the supernode forest the peel built.
    pub(crate) fn with_forest(trussness: Vec<u32>, forest: Vec<u32>) -> Self {
        debug_assert_eq!(trussness.len(), forest.len());
        TrussDecomposition {
            forest: Some(forest),
            ..Self::new(trussness)
        }
    }

    /// The supernode forest, when the parallel peel produced this
    /// decomposition: `forest[e]` is the smallest edge id of the supernode of
    /// `e` — the edges of trussness τ(e) that are τ(e)-triangle connected to
    /// it (Definition 6 of the paper) — and `e` itself when τ(e) = 2. Fully
    /// compressed: `forest[forest[e]] == forest[e]`. It is Algorithm 2's Π
    /// after SpNode, so `et-core` starts from it instead of from identity.
    ///
    /// `None` from [`decompose_serial`], [`brute_force_trussness`] and
    /// [`TrussDecomposition::new`]. The forest describes `trussness` as the
    /// peel left it: a caller that edits the array wraps the edited copy in
    /// a fresh [`TrussDecomposition::new`] (`et-core` refuses a forest of
    /// another length, and in debug builds one whose trees mix trussness).
    pub fn forest(&self) -> Option<&[u32]> {
        self.forest.as_deref()
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
