//! Property-based churn testing: arbitrary update sequences must leave the
//! dynamic index identical to a from-scratch static build (24 seeded cases
//! per property, `et_gen::cases`).

#![cfg(test)]

use crate::index::tests::assert_matches_static;
use crate::{DynamicGraph, DynamicIndex};
use et_gen::cases::{cases, id_pairs};

/// Compares supernode partitions + superedges through endpoint pairs (the
/// two indexes live in different edge-id spaces).
fn canonical(
    index: &et_core::SuperGraph,
    endpoints: impl Fn(u32) -> (u32, u32),
) -> Vec<(u32, Vec<(u32, u32)>)> {
    let mut sns: Vec<(u32, Vec<(u32, u32)>)> = (0..index.num_supernodes() as u32)
        .map(|sn| {
            let mut members: Vec<(u32, u32)> =
                index.members(sn).iter().map(|&e| endpoints(e)).collect();
            members.sort_unstable();
            (index.trussness(sn), members)
        })
        .collect();
    sns.sort_by(|a, b| a.1.cmp(&b.1));
    sns
}

#[test]
fn churn_scripts_match_static_rebuild() {
    cases("churn_scripts_match_static_rebuild", 24, |rng, size| {
        let mut di = DynamicIndex::build(DynamicGraph::new(16));
        // An update script: each pair toggles the edge (insert if absent,
        // delete if present).
        for (u, v) in id_pairs(rng, size, 16, 1..40) {
            if u == v {
                continue;
            }
            if di.graph().edge_id(u, v).is_some() {
                di.remove_edge(u, v);
            } else {
                di.insert_edge(u, v);
            }
            // Serial Algorithm 1 on a fresh CSR, τ through the id map, and
            // nothing in the dead slots of either stable-id array.
            assert_matches_static(&di, "after a scripted update");
        }
    });
}

#[test]
fn insert_then_delete_is_identity() {
    cases("insert_then_delete_is_identity", 24, |rng, size| {
        let base = et_gen::gnm(12, 20, 3);
        let mut di = DynamicIndex::build(DynamicGraph::from_indexed(
            &et_graph::EdgeIndexedGraph::new(base.clone()),
        ));
        let before = canonical(di.index(), |e| di.graph().endpoints(e));
        // Insert a batch of brand-new edges, then remove exactly those.
        let mut added = Vec::new();
        for (u, v) in id_pairs(rng, size, 12, 1..15) {
            if u != v && di.graph().edge_id(u, v).is_none() {
                di.insert_edge(u, v);
                added.push((u, v));
            }
        }
        for (u, v) in added.into_iter().rev() {
            di.remove_edge(u, v);
        }
        let after = canonical(di.index(), |e| di.graph().endpoints(e));
        assert_eq!(before, after);
    });
}
