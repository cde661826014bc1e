//! SmGraph — parallel supergraph merge (Algorithm 4).
//!
//! Merges the thread-local superedge subsets produced by SpEdge into one
//! deduplicated list:
//!
//! 1. each subset hashes every superedge to a destination partition
//!    (`dest_t = hash(ID1, ID2) % num_partitions`, ln. 10);
//! 2. each partition gathers its pairs from all subsets, sorts, and removes
//!    duplicates (ln. 13–16);
//! 3. partition sizes are prefix-summed and every partition copies into the
//!    final contiguous buffer in parallel (ln. 17–19).
//!
//! Partitioning by hash means equal pairs land in the same partition, so
//! per-partition dedup is global dedup.

use crate::spedge::RootPair;
use rayon::prelude::*;

/// Mixes a pair into a partition index (the `hash(ID1, ID2)` of ln. 10).
#[inline]
fn pair_hash(a: u32, b: u32) -> u64 {
    // splitmix64 over the packed pair — cheap and well distributed.
    let mut x = ((a as u64) << 32 | b as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs Algorithm 4: merges `subsets` into a sorted, deduplicated superedge
/// list. `num_partitions` plays the role of `num_threads` in the paper (any
/// positive value gives the same result).
pub(crate) fn merge_supergraph(subsets: &[Vec<RootPair>], num_partitions: usize) -> Vec<RootPair> {
    let t = num_partitions.max(1);
    if subsets.is_empty() {
        return Vec::new();
    }
    if et_obs::enabled() {
        let pairs_in: u64 = subsets.iter().map(|s| s.len() as u64).sum();
        et_obs::counter_add("smgraph.pairs_in", pairs_in);
    }

    // Step 1: per-subset hash partitioning (each "thread" scatters its own
    // superedges; sm_graph_t in the paper).
    let scattered: Vec<Vec<Vec<RootPair>>> = subsets
        .par_iter()
        .map(|subset| {
            let mut buckets: Vec<Vec<RootPair>> = vec![Vec::new(); t];
            for &(a, b) in subset {
                let dest = (pair_hash(a, b) % t as u64) as usize;
                buckets[dest].push((a, b));
            }
            buckets
        })
        .collect();

    // Step 2: per-partition gather + sort + dedup (combined_sm_graph_t).
    let combined: Vec<Vec<RootPair>> = (0..t)
        .into_par_iter()
        .map(|part| {
            let mut acc: Vec<RootPair> = Vec::new();
            for buckets in &scattered {
                acc.extend_from_slice(&buckets[part]);
            }
            acc.sort_unstable();
            acc.dedup();
            acc
        })
        .collect();

    // Step 3: prefix-sum and parallel copy into the final buffer.
    let mut offsets = vec![0usize; t + 1];
    for (i, part) in combined.iter().enumerate() {
        offsets[i + 1] = offsets[i] + part.len();
    }
    let total = offsets[t];
    let mut final_graph = vec![(0u32, 0u32); total];
    {
        // Split the output buffer into disjoint per-partition windows.
        let mut windows: Vec<&mut [RootPair]> = Vec::with_capacity(t);
        let mut rest: &mut [RootPair] = &mut final_graph;
        for part in &combined {
            let (head, tail) = rest.split_at_mut(part.len());
            windows.push(head);
            rest = tail;
        }
        windows
            .into_par_iter()
            .zip(combined.par_iter())
            .for_each(|(window, part)| {
                window.copy_from_slice(part);
            });
    }
    // pairs_in / pairs_out is the cross-subset duplication factor.
    et_obs::counter_add("smgraph.pairs_out", final_graph.len() as u64);
    final_graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_and_dedups() {
        let subsets = vec![
            vec![(1, 5), (2, 7), (1, 5)],
            vec![(2, 7), (3, 9)],
            vec![],
            vec![(1, 5)],
        ];
        let mut merged = merge_supergraph(&subsets, 4);
        merged.sort_unstable();
        assert_eq!(merged, vec![(1, 5), (2, 7), (3, 9)]);
    }

    #[test]
    fn partition_count_does_not_change_result() {
        let subsets: Vec<Vec<RootPair>> = (0..7)
            .map(|i| (0..50).map(|j| (j % 13, 100 + (i + j) % 17)).collect())
            .collect();
        let mut expected = merge_supergraph(&subsets, 1);
        expected.sort_unstable();
        for t in [2, 3, 8, 64] {
            let mut got = merge_supergraph(&subsets, t);
            got.sort_unstable();
            assert_eq!(got, expected, "partitions = {t}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(merge_supergraph(&[], 4).is_empty());
        assert!(merge_supergraph(&[vec![], vec![]], 4).is_empty());
    }

    #[test]
    fn single_pair() {
        assert_eq!(merge_supergraph(&[vec![(3, 4)]], 16), vec![(3, 4)]);
    }

    #[test]
    fn result_contains_exactly_input_set() {
        use std::collections::HashSet;
        let subsets = vec![vec![(0, 1), (5, 2), (0, 1)], vec![(9, 9), (5, 2)]];
        let merged = merge_supergraph(&subsets, 3);
        let got: HashSet<RootPair> = merged.iter().copied().collect();
        let want: HashSet<RootPair> = [(0, 1), (5, 2), (9, 9)].into_iter().collect();
        assert_eq!(got, want);
        assert_eq!(merged.len(), 3, "no duplicates survive");
    }
}
