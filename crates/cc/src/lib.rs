//! # et-cc — parallel connected components over edge entities
//!
//! The paper's key observation is that EquiTruss supernode construction *is*
//! a connected-components problem over edge entities. This crate provides
//! what the edge-CC variants in `et-core` build on:
//!
//! * [`dsu`] — sequential and atomic (lock-free) union-find. [`atomic_link`]
//!   is also what `et-truss`'s peel hooks supernodes with, triangle by
//!   triangle, as it peels.
//! * [`engine`] — the shared **edge-CC engine**: Shiloach–Vishkin (reference
//!   \[39\], the paper's *Baseline* and *C-Optimal*) and Afforest (Sutton,
//!   Ben-Nun & Barak, IPDPS 2018; reference \[43\], the paper's best
//!   performer) drivers over a [`engine::TriangleAdjacency`] view of
//!   "k-triangle neighbors of edge e"; `et-core`'s three paper variants are
//!   policies over it.
//! * [`normalize_labels`] / [`same_partition`] — partition comparison for
//!   the tests that pin the variants against each other.

#![warn(missing_docs)]

pub mod dsu;
pub mod engine;

pub use dsu::{atomic_find, atomic_find_steps, atomic_link, AtomicDsu, DisjointSet};
pub use engine::{
    afforest_edge_components, sv_edge_components, AfforestPolicy, SvPolicy, TriangleAdjacency,
};

pub(crate) use et_obs::enabled as obs_enabled;

/// A label slot that has not been assigned yet (labels are node ids, which
/// always fit in `u32`, so `u32::MAX` can never collide).
const UNASSIGNED: u32 = u32::MAX;

/// `max(labels) + 1`, the size a dense label-indexed map needs. Labels are
/// component representatives — node ids `< n` for every algorithm in this
/// crate — so the map is at most `n` entries.
fn label_space(labels: &[u32]) -> usize {
    labels.iter().copied().max().map_or(0, |m| m as usize + 1)
}

/// Renumbers component labels to dense ids `0..k` (in order of first
/// appearance) and returns `(dense_labels, component_count)`.
///
/// Labels are node ids (each is a component representative), so the mapping
/// lives in a flat `Vec<u32>` indexed by label instead of a hash map.
pub fn normalize_labels(labels: &[u32]) -> (Vec<u32>, usize) {
    let mut map = vec![UNASSIGNED; label_space(labels)];
    let mut next = 0u32;
    let mut out = Vec::with_capacity(labels.len());
    for &l in labels {
        let slot = &mut map[l as usize];
        if *slot == UNASSIGNED {
            *slot = next;
            next += 1;
        }
        out.push(*slot);
    }
    (out, next as usize)
}

/// Whether two labelings induce the same partition of `0..n`.
///
/// Like [`normalize_labels`], this exploits that labels are node ids: the
/// forward and backward label bijections are dense arrays indexed by label,
/// so the check is two flat lookups per element.
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut fwd = vec![UNASSIGNED; label_space(a)];
    let mut bwd = vec![UNASSIGNED; label_space(b)];
    for (&x, &y) in a.iter().zip(b.iter()) {
        let f = &mut fwd[x as usize];
        if *f == UNASSIGNED {
            *f = y;
        } else if *f != y {
            return false;
        }
        let g = &mut bwd[y as usize];
        if *g == UNASSIGNED {
            *g = x;
        } else if *g != x {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_dense() {
        let (labels, k) = normalize_labels(&[7, 7, 3, 7, 3, 9]);
        assert_eq!(labels, vec![0, 0, 1, 0, 1, 2]);
        assert_eq!(k, 3);
    }

    #[test]
    fn partition_equality() {
        assert!(same_partition(&[0, 0, 1], &[5, 5, 2]));
        assert!(!same_partition(&[0, 0, 1], &[5, 4, 2]));
        assert!(!same_partition(&[0, 1, 1], &[5, 5, 2]));
        assert!(!same_partition(&[0], &[0, 0]));
        assert!(same_partition(&[], &[]));
    }

    /// The hash-map implementations these functions replaced, kept as the
    /// behavioral reference.
    fn normalize_labels_hashed(labels: &[u32]) -> (Vec<u32>, usize) {
        let mut map = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(labels.len());
        for &l in labels {
            let next = map.len() as u32;
            let id = *map.entry(l).or_insert(next);
            out.push(id);
        }
        (out, map.len())
    }

    fn same_partition_hashed(a: &[u32], b: &[u32]) -> bool {
        if a.len() != b.len() {
            return false;
        }
        let mut fwd = std::collections::HashMap::new();
        let mut bwd = std::collections::HashMap::new();
        for (&x, &y) in a.iter().zip(b.iter()) {
            if *fwd.entry(x).or_insert(y) != y {
                return false;
            }
            if *bwd.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    #[test]
    fn dense_maps_match_hashed_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD15E);
        for case in 0..200 {
            let n = rng.gen_range(0..40usize);
            // Root-style labels (self-referential ids < n) like the CC
            // algorithms produce, occasionally perturbed to arbitrary ids.
            let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n.max(1)) as u32).collect();
            let b: Vec<u32> = if rng.gen_range(0..2u32) == 0 {
                a.iter().map(|&x| x * 2 + 1).collect() // relabeled, same partition
            } else {
                (0..n).map(|_| rng.gen_range(0..n.max(1)) as u32).collect()
            };
            assert_eq!(
                normalize_labels(&a),
                normalize_labels_hashed(&a),
                "case {case}: normalize {a:?}"
            );
            assert_eq!(
                same_partition(&a, &b),
                same_partition_hashed(&a, &b),
                "case {case}: partition {a:?} vs {b:?}"
            );
            assert!(same_partition(&a, &a));
        }
    }
}
