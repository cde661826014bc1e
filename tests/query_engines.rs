//! Query-engine equivalence: the truss-hierarchy engine, the supergraph-BFS
//! oracle, and the brute-force ground truth must return byte-identical
//! communities for every (vertex, k) — across fixtures, random generator
//! families, and every index construction variant — and steady-state
//! serving must not allocate for visited/seed tracking.

use parallel_equitruss::community::scratch::with_scratch;
use parallel_equitruss::community::{
    batch_query_communities, community_stats, community_vertices, count_communities, ground_truth,
    membership_counts, query_communities, query_communities_bfs,
};
use parallel_equitruss::equitruss::{build_index, Variant};
use parallel_equitruss::gen as et_gen;
use parallel_equitruss::graph::EdgeIndexedGraph;
use parallel_equitruss::truss::decompose_parallel;

/// Exhaustively checks every (vertex, k ≤ kmax+1) query on `graph`, for
/// every index variant: hierarchy == BFS == brute force, counts and
/// aggregates consistent.
fn check_all_queries(graph: et_gen::fixtures::TrussFixture) {
    check_graph(graph.graph.clone(), graph.name);
}

fn check_graph(graph: parallel_equitruss::graph::CsrGraph, label: &str) {
    let eg = EdgeIndexedGraph::new(graph);
    let tau = decompose_parallel(&eg).trussness;
    let kmax = tau.iter().copied().max().unwrap_or(2).max(3);
    for variant in Variant::ALL {
        let b = build_index(&eg, variant);
        b.hierarchy.check(&b.index).unwrap();
        for k in 3..=kmax + 1 {
            let counts = membership_counts(&eg, &b.index, &b.hierarchy, k);
            for q in 0..eg.num_vertices() as u32 {
                let fast = query_communities(&eg, &b.index, &b.hierarchy, q, k);
                let bfs = query_communities_bfs(&eg, &b.index, q, k);
                assert_eq!(
                    fast,
                    bfs,
                    "{label}/{}: hierarchy vs bfs, q={q} k={k}",
                    variant.name()
                );
                let brute = ground_truth::brute_force_communities(&eg, &tau, q, k);
                let fast_edges: Vec<_> = fast.iter().map(|c| c.edges.clone()).collect();
                assert_eq!(
                    fast_edges,
                    brute,
                    "{label}/{}: hierarchy vs brute, q={q} k={k}",
                    variant.name()
                );
                assert_eq!(
                    fast.len(),
                    count_communities(&eg, &b.index, &b.hierarchy, q, k)
                );
                assert_eq!(fast.len(), counts[q as usize]);
                // Aggregates match the materialized communities.
                let mut sizes: Vec<(usize, usize)> = fast
                    .iter()
                    .map(|c| (c.supernodes.len(), c.edges.len()))
                    .collect();
                sizes.sort_unstable();
                let mut agg: Vec<(usize, usize)> =
                    community_stats(&eg, &b.index, &b.hierarchy, q, k)
                        .iter()
                        .map(|s| (s.supernodes as usize, s.edges as usize))
                        .collect();
                agg.sort_unstable();
                assert_eq!(sizes, agg, "{label}: aggregates, q={q} k={k}");
            }
        }
    }
}

#[test]
fn engines_agree_on_all_fixtures() {
    for f in et_gen::fixtures::all_fixtures() {
        check_all_queries(f);
    }
}

#[test]
fn engines_agree_on_rmat() {
    for seed in [1, 7] {
        check_graph(
            et_gen::rmat_with_cliques(et_gen::RmatConfig::graph500(7, 6, seed), 12, (3, 6)),
            "rmat_with_cliques",
        );
    }
}

#[test]
fn engines_agree_on_planted_partition() {
    let (g, _) = et_gen::planted_partition(et_gen::PlantedConfig {
        num_blocks: 5,
        block_size: 16,
        p_in: 0.6,
        p_out: 0.03,
        seed: 11,
    });
    check_graph(g, "planted_partition");
}

#[test]
fn engines_agree_on_overlapping_cliques() {
    check_graph(
        et_gen::overlapping_cliques(120, 30, (3, 6), 50, 3),
        "overlapping_cliques",
    );
}

#[test]
fn k_above_max_and_isolated_vertices() {
    // A clique plus isolated vertices: queries from isolation are empty at
    // every k, and k above the max trussness is empty everywhere.
    let mut b = parallel_equitruss::graph::GraphBuilder::new(10);
    for u in 0..5u32 {
        for v in (u + 1)..5 {
            b.add_edge(u, v);
        }
    }
    let eg = EdgeIndexedGraph::new(b.build());
    let built = build_index(&eg, Variant::Afforest);
    for q in 5..10 {
        assert!(query_communities(&eg, &built.index, &built.hierarchy, q, 3).is_empty());
        assert!(query_communities_bfs(&eg, &built.index, q, 3).is_empty());
        assert_eq!(
            count_communities(&eg, &built.index, &built.hierarchy, q, 3),
            0
        );
    }
    for k in [6, 100, u32::MAX] {
        assert!(query_communities(&eg, &built.index, &built.hierarchy, 0, k).is_empty());
        assert!(query_communities_bfs(&eg, &built.index, 0, k).is_empty());
    }
    assert_eq!(
        query_communities(&eg, &built.index, &built.hierarchy, 0, 5).len(),
        1
    );
}

#[test]
fn overlapping_membership_resolves_distinct_reps() {
    // Chain of K4s pairwise sharing single vertices: the shared vertices
    // belong to two 4-truss communities each, and at k = 3 the chain is
    // still separate communities (no shared edges → no triangle
    // connectivity between cliques).
    let mut b = parallel_equitruss::graph::GraphBuilder::new(13);
    for c in 0..4u32 {
        let base = c * 3;
        let members = [base, base + 1, base + 2, base + 3];
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(members[i], members[j]);
            }
        }
    }
    let eg = EdgeIndexedGraph::new(b.build());
    let built = build_index(&eg, Variant::COptimal);
    let counts = membership_counts(&eg, &built.index, &built.hierarchy, 4);
    for joint in [3u32, 6, 9] {
        assert_eq!(counts[joint as usize], 2, "joint vertex {joint}");
        let cs = query_communities(&eg, &built.index, &built.hierarchy, joint, 4);
        assert_eq!(cs, query_communities_bfs(&eg, &built.index, joint, 4));
        assert_eq!(cs.len(), 2);
        assert_ne!(cs[0].edges, cs[1].edges);
    }
}

#[test]
fn batch_matches_serial_and_reuses_scratch() {
    let g = et_gen::overlapping_cliques(200, 50, (3, 7), 80, 13);
    let eg = EdgeIndexedGraph::new(g);
    let built = build_index(&eg, Variant::Afforest);
    let queries: Vec<(u32, u32)> = (0..eg.num_vertices() as u32)
        .flat_map(|q| [(q, 3), (q, 4)])
        .collect();
    let batch = batch_query_communities(&eg, &built.index, &built.hierarchy, &queries);
    for (i, &(q, k)) in queries.iter().enumerate() {
        assert_eq!(
            batch[i],
            query_communities(&eg, &built.index, &built.hierarchy, q, k)
        );
    }
}

#[test]
fn steady_state_queries_do_not_allocate_tracking_state() {
    let g = et_gen::overlapping_cliques(300, 60, (3, 7), 100, 21);
    let eg = EdgeIndexedGraph::new(g);
    let built = build_index(&eg, Variant::Afforest);

    // Warm this thread's scratch: one query of each engine sizes the stamp
    // array for this index, and the first non-empty answer sizes the bitmap
    // its ids are ordered in.
    let warm = (0..eg.num_vertices() as u32)
        .find(|&q| !query_communities(&eg, &built.index, &built.hierarchy, q, 3).is_empty())
        .expect("some vertex has a 3-truss community");
    query_communities_bfs(&eg, &built.index, warm, 3);
    let (resizes_before, capacity, bitmap) =
        with_scratch(|s| (s.resizes, s.capacity(), s.bitmap_capacity()));
    assert!(capacity >= built.index.num_supernodes());
    assert!(bitmap >= eg.num_edges());

    // Steady state: hundreds of queries across engines and k levels on the
    // same thread must grow neither the stamp array (u32-epoch invalidation
    // replaces clearing, and queue/reps keep their capacity) nor the bitmap
    // (the scan leaves it all-zero) — edge, supernode and vertex ids alike.
    let mut total = 0usize;
    for q in 0..eg.num_vertices() as u32 {
        let answer = query_communities(&eg, &built.index, &built.hierarchy, q, 4);
        total += answer.iter().map(|c| c.vertices(&eg).len()).sum::<usize>();
        total += community_vertices(&eg, &built.index, &built.hierarchy, q, 3).len();
        total += query_communities_bfs(&eg, &built.index, q, 4).len();
        total += count_communities(&eg, &built.index, &built.hierarchy, q, 3);
    }
    assert!(total > 0);
    let (resizes_after, epochs) = with_scratch(|s| (s.resizes, s.epochs));
    assert_eq!(
        resizes_before, resizes_after,
        "steady-state queries must not reallocate visited/seed tracking"
    );
    assert!(epochs >= eg.num_vertices() as u64);
}
