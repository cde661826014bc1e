//! SpNodeRemap — dense supernode ids from Π roots.
//!
//! After SpNode, every indexed edge's Π entry holds the *edge id* of its
//! component root; after SmGraph, superedges are pairs of such roots. This
//! kernel renumbers roots to dense supernode ids `0..|V|`, assigned in
//! ascending (k, first-member) order — the same chronological order
//! Algorithm 1 uses — and assembles the final [`SuperGraph`].

use crate::index::{SuperGraph, NO_SUPERNODE};
use crate::phi::PhiGroups;
use crate::spedge::RootPair;

/// Renumbers Π roots densely and assembles the index.
///
/// * `parent` — finalized Π (roots fully compressed within each Φ_k): frozen
///   once SpNode is over, so plain words — SpNode's own array or the forest
///   borrowed from the peel,
/// * `merged_superedges` — output of `smgraph::merge_supergraph`,
/// * `phi` — the Φ_k grouping (provides the deterministic id order).
pub(crate) fn remap_and_assemble(
    num_edges: usize,
    parent: &[u32],
    merged_superedges: &[RootPair],
    phi: &PhiGroups,
) -> SuperGraph {
    // Root edge id -> dense supernode id. Roots are edge ids, so a flat
    // array beats a hashmap (C-Optimal spirit).
    let mut root_to_sn = vec![NO_SUPERNODE; num_edges];
    let mut sn_trussness: Vec<u32> = Vec::new();
    let mut edge_supernode = vec![NO_SUPERNODE; num_edges];

    for (k, group) in phi.iter() {
        for &e in group {
            let root = parent[e as usize] as usize;
            let sn = if root_to_sn[root] == NO_SUPERNODE {
                let id = sn_trussness.len() as u32;
                sn_trussness.push(k);
                root_to_sn[root] = id;
                id
            } else {
                root_to_sn[root]
            };
            edge_supernode[e as usize] = sn;
        }
    }

    let superedges: Vec<(u32, u32)> = merged_superedges
        .iter()
        .map(|&(a, b)| {
            let sa = root_to_sn[a as usize];
            let sb = root_to_sn[b as usize];
            debug_assert!(sa != NO_SUPERNODE && sb != NO_SUPERNODE);
            (sa, sb)
        })
        .collect();

    SuperGraph::assemble(num_edges, edge_supernode, sn_trussness, superedges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_graph::EdgeId;

    #[test]
    fn remap_assigns_chronological_ids() {
        // 6 edges: τ = [3,3,4,4,2,3]; components: {0,1}, {2,3}, {5}.
        let tau = vec![3u32, 3, 4, 4, 2, 3];
        let parent = [0u32, 0, 2, 2, 4, 5];
        let phi = PhiGroups::build(&tau);
        let merged = vec![(0u32, 2u32)]; // superedge between the two groups
        let idx = remap_and_assemble(6, &parent, &merged, &phi);

        assert_eq!(idx.num_supernodes(), 3);
        // k=3 groups first: {0,1} → sn 0, {5} → sn 1, then k=4 {2,3} → sn 2.
        assert_eq!(idx.edge_supernode, vec![0, 0, 2, 2, NO_SUPERNODE, 1]);
        assert_eq!(idx.sn_trussness, vec![3, 3, 4]);
        assert_eq!(idx.superedges, vec![(0, 2)]);
        assert_eq!(idx.members(0), &[0 as EdgeId, 1]);
        assert_eq!(idx.members(1), &[5 as EdgeId]);
    }
}
