//! Property-based invariants over arbitrary random graphs: 48 seeded cases
//! per property (`gen::cases`).
//!
//! Strategy: generate an arbitrary edge multiset over a small vertex range
//! (self-loops and duplicates included — the builder must canonicalize),
//! then assert the library's core invariants end to end.

use parallel_equitruss::community::{ground_truth, query_communities, query_communities_bfs};
use parallel_equitruss::equitruss::{
    build_index_with_decomposition, build_original, validate::validate_index, KernelTimings,
    TrussHierarchy, Variant, NO_SUPERNODE,
};
use parallel_equitruss::gen::cases::{cases, id_pairs};
use parallel_equitruss::graph::{EdgeIndexedGraph, GraphBuilder};
use parallel_equitruss::triangle::{
    compute_support, compute_support_oriented, compute_support_serial,
};
use parallel_equitruss::truss::parallel::decompose_parallel_with_support;
use parallel_equitruss::truss::{
    brute_force_trussness, decompose_parallel, decompose_serial, TrussDecomposition,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Runs `property` on 48 arbitrary simple graphs on up to 24 vertices.
fn for_graphs(name: &str, mut property: impl FnMut(EdgeIndexedGraph, &mut StdRng)) {
    cases(name, 48, |rng, size| {
        let mut b = GraphBuilder::new(24);
        for (u, v) in id_pairs(rng, size, 24, 0..160) {
            if u != v {
                b.add_edge(u, v);
            }
        }
        property(EdgeIndexedGraph::new(b.build()), rng);
    });
}

#[test]
fn support_matches_brute_force() {
    for_graphs("support_matches_brute_force", |graph, _| {
        let support = compute_support(&graph);
        for (e, u, v) in graph.edges() {
            let mut count = 0;
            for &w in graph.neighbors(u) {
                if graph.neighbors(v).binary_search(&w).is_ok() {
                    count += 1;
                }
            }
            assert_eq!(support[e as usize], count, "edge ({}, {})", u, v);
        }
    });
}

#[test]
fn oriented_support_matches_merge_and_serial() {
    for_graphs("oriented_support_matches_merge_and_serial", |graph, _| {
        let oriented = compute_support_oriented(&graph);
        assert_eq!(&oriented, &compute_support(&graph));
        assert_eq!(&oriented, &compute_support_serial(&graph));
    });
}

#[test]
fn bucket_peeling_matches_serial() {
    for_graphs("bucket_peeling_matches_serial", |graph, _| {
        let bucket = decompose_parallel_with_support(&graph, compute_support(&graph));
        assert_eq!(&bucket, &decompose_serial(&graph));
    });
}

#[test]
fn truss_decompositions_agree_and_verify() {
    for_graphs("truss_decompositions_agree_and_verify", |graph, _| {
        let serial = decompose_serial(&graph);
        let parallel = decompose_parallel(&graph);
        assert_eq!(&serial, &parallel);
        let brute = brute_force_trussness(&graph);
        assert_eq!(&serial, &brute);
    });
}

#[test]
fn all_index_constructions_are_identical() {
    for_graphs("all_index_constructions_are_identical", |graph, _| {
        let d = decompose_parallel(&graph);
        let reference = build_original(&graph, &d.trussness);
        let canon = reference.canonical();
        // Π from the peel's forest where the variant takes it, and from
        // identity for every variant.
        let forestless = TrussDecomposition::new(d.trussness.clone());
        for variant in Variant::ALL {
            for decomposition in [&d, &forestless] {
                let mut t = KernelTimings::default();
                let idx = build_index_with_decomposition(&graph, decomposition, variant, &mut t);
                assert_eq!(idx.canonical(), canon.clone(), "variant {}", variant.name());
            }
        }
        // And the reference satisfies every definitional invariant.
        assert!(validate_index(&graph, &d.trussness, &reference).is_ok());
    });
}

#[test]
fn supernodes_partition_truss_edges() {
    for_graphs("supernodes_partition_truss_edges", |graph, _| {
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        // Each τ ≥ 3 edge in exactly one supernode; each supernode uniform.
        let mut counted = 0usize;
        for sn in 0..idx.num_supernodes() as u32 {
            let k = idx.trussness(sn);
            for &e in idx.members(sn) {
                assert_eq!(d.trussness[e as usize], k);
                assert_eq!(idx.edge_supernode[e as usize], sn);
                counted += 1;
            }
        }
        let expected = d.trussness.iter().filter(|&&t| t >= 3).count();
        assert_eq!(counted, expected);
        for (e, &t) in d.trussness.iter().enumerate() {
            assert_eq!(t >= 3, idx.edge_supernode[e] != NO_SUPERNODE);
        }
    });
}

#[test]
fn queries_match_ground_truth() {
    for_graphs("queries_match_ground_truth", |graph, rng| {
        let (q, k) = (rng.gen_range(0u32..24), rng.gen_range(3u32..7));
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        let h = TrussHierarchy::build(&idx);
        // Hierarchy engine == BFS oracle == brute force, byte for byte.
        let fast = query_communities(&graph, &idx, &h, q, k);
        assert_eq!(&fast, &query_communities_bfs(&graph, &idx, q, k));
        let fast: Vec<Vec<_>> = fast.into_iter().map(|c| c.edges).collect();
        let brute = ground_truth::brute_force_communities(&graph, &d.trussness, q, k);
        assert_eq!(fast, brute);
    });
}

#[test]
fn hierarchy_partition_matches_index() {
    for_graphs("hierarchy_partition_matches_index", |graph, _| {
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        let h = TrussHierarchy::build(&idx);
        assert!(h.check(&idx).is_ok());
        // Serialized forest reassembles to the identical hierarchy.
        let rebuilt =
            TrussHierarchy::from_forest(&idx, h.node_level.clone(), h.node_parent.clone());
        assert_eq!(rebuilt.as_ref(), Ok(&h));
    });
}

#[test]
fn superedges_respect_definition9() {
    for_graphs("superedges_respect_definition9", |graph, _| {
        let d = decompose_parallel(&graph);
        let idx = build_original(&graph, &d.trussness);
        for &(a, b) in &idx.superedges {
            assert_ne!(idx.trussness(a), idx.trussness(b));
        }
    });
}
