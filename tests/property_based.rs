//! Property-based invariants over arbitrary random graphs (proptest).
//!
//! Strategy: generate an arbitrary edge multiset over a small vertex range
//! (self-loops and duplicates included — the builder must canonicalize),
//! then assert the library's core invariants end to end.

use parallel_equitruss::community::{ground_truth, query_communities, query_communities_bfs};
use parallel_equitruss::equitruss::{
    build_index_with_decomposition, build_original, validate::validate_index, KernelTimings,
    TrussHierarchy, Variant, NO_SUPERNODE,
};
use parallel_equitruss::graph::{EdgeIndexedGraph, GraphBuilder};
use parallel_equitruss::triangle::{
    compute_support, compute_support_oriented, compute_support_serial,
};
use parallel_equitruss::truss::parallel::decompose_parallel_with_support;
use parallel_equitruss::truss::{brute_force_trussness, decompose_parallel, decompose_serial};
use proptest::prelude::*;

/// An arbitrary simple graph on up to 24 vertices.
fn arb_graph() -> impl Strategy<Value = EdgeIndexedGraph> {
    proptest::collection::vec((0u32..24, 0u32..24), 0..160).prop_map(|pairs| {
        let mut b = GraphBuilder::new(24);
        for (u, v) in pairs {
            if u != v {
                b.add_edge(u, v);
            }
        }
        EdgeIndexedGraph::new(b.build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn support_matches_brute_force(graph in arb_graph()) {
        let support = compute_support(&graph);
        for (e, u, v) in graph.edges() {
            let mut count = 0;
            for &w in graph.neighbors(u) {
                if graph.neighbors(v).binary_search(&w).is_ok() {
                    count += 1;
                }
            }
            prop_assert_eq!(support[e as usize], count, "edge ({}, {})", u, v);
        }
    }

    #[test]
    fn oriented_support_matches_merge_and_serial(graph in arb_graph()) {
        let oriented = compute_support_oriented(&graph);
        prop_assert_eq!(&oriented, &compute_support(&graph));
        prop_assert_eq!(&oriented, &compute_support_serial(&graph));
    }

    #[test]
    fn bucket_peeling_matches_serial(graph in arb_graph()) {
        let bucket = decompose_parallel_with_support(&graph, compute_support(&graph));
        prop_assert_eq!(&bucket, &decompose_serial(&graph));
    }

    #[test]
    fn truss_decompositions_agree_and_verify(graph in arb_graph()) {
        let serial = decompose_serial(&graph);
        let parallel = decompose_parallel(&graph);
        prop_assert_eq!(&serial, &parallel);
        let brute = brute_force_trussness(&graph);
        prop_assert_eq!(&serial, &brute);
    }

    #[test]
    fn all_index_constructions_are_identical(graph in arb_graph()) {
        let d = decompose_parallel(&graph);
        let reference = build_original(&graph, &d.trussness);
        let canon = reference.canonical();
        for variant in Variant::ALL {
            let mut t = KernelTimings::default();
            let idx = build_index_with_decomposition(&graph, &d, variant, &mut t);
            prop_assert_eq!(idx.canonical(), canon.clone(), "variant {}", variant.name());
        }
        // And the reference satisfies every definitional invariant.
        prop_assert!(validate_index(&graph, &d.trussness, &reference).is_ok());
    }

    #[test]
    fn supernodes_partition_truss_edges(graph in arb_graph()) {
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        // Each τ ≥ 3 edge in exactly one supernode; each supernode uniform.
        let mut counted = 0usize;
        for sn in 0..idx.num_supernodes() as u32 {
            let k = idx.trussness(sn);
            for &e in idx.members(sn) {
                prop_assert_eq!(d.trussness[e as usize], k);
                prop_assert_eq!(idx.edge_supernode[e as usize], sn);
                counted += 1;
            }
        }
        let expected = d.trussness.iter().filter(|&&t| t >= 3).count();
        prop_assert_eq!(counted, expected);
        for (e, &t) in d.trussness.iter().enumerate() {
            prop_assert_eq!(t >= 3, idx.edge_supernode[e] != NO_SUPERNODE);
        }
    }

    #[test]
    fn queries_match_ground_truth(graph in arb_graph(), q in 0u32..24, k in 3u32..7) {
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        let h = TrussHierarchy::build(&idx);
        // Hierarchy engine == BFS oracle == brute force, byte for byte.
        let fast = query_communities(&graph, &idx, &h, q, k);
        prop_assert_eq!(&fast, &query_communities_bfs(&graph, &idx, q, k));
        let fast: Vec<Vec<_>> = fast.into_iter().map(|c| c.edges).collect();
        let brute = ground_truth::brute_force_communities(&graph, &d.trussness, q, k);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn hierarchy_partition_matches_index(graph in arb_graph()) {
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        let h = TrussHierarchy::build(&idx);
        prop_assert!(h.check(&idx).is_ok());
        // Serialized forest reassembles to the identical hierarchy.
        let rebuilt = TrussHierarchy::from_forest(
            &idx, h.node_level.clone(), h.node_parent.clone());
        prop_assert_eq!(rebuilt.as_ref(), Ok(&h));
    }

    #[test]
    fn superedges_respect_definition9(graph in arb_graph()) {
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        for &(a, b) in &idx.superedges {
            prop_assert_ne!(idx.trussness(a), idx.trussness(b));
        }
    }
}
