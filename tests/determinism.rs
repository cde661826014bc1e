//! Determinism guarantees: generators, decompositions, and indexes must be
//! bit-identical across runs and thread counts (the reproduction harness
//! depends on it).

use parallel_equitruss::equitruss::{
    build_index, build_index_with_decomposition, build_original, KernelTimings, SuperGraph, Variant,
};
use parallel_equitruss::gen;
use parallel_equitruss::graph::EdgeIndexedGraph;
use parallel_equitruss::truss::TrussDecomposition;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn generators_are_run_to_run_deterministic() {
    assert_eq!(
        gen::rmat::rmat_small(10, 8, 123),
        gen::rmat::rmat_small(10, 8, 123)
    );
    assert_eq!(gen::gnm(500, 2000, 9), gen::gnm(500, 2000, 9));
    assert_eq!(
        gen::overlapping_cliques(300, 60, (3, 7), 100, 5),
        gen::overlapping_cliques(300, 60, (3, 7), 100, 5)
    );
    assert_eq!(
        gen::barabasi_albert(400, 3, 8),
        gen::barabasi_albert(400, 3, 8)
    );
}

#[test]
fn generators_do_not_depend_on_thread_count() {
    let a = in_pool(1, || gen::rmat::rmat_small(11, 8, 7));
    let b = in_pool(4, || gen::rmat::rmat_small(11, 8, 7));
    assert_eq!(a, b);
}

#[test]
fn trussness_is_thread_invariant() {
    let g = EdgeIndexedGraph::new(gen::overlapping_cliques(400, 90, (3, 8), 150, 21));
    let d1 = in_pool(1, || parallel_equitruss::truss::decompose_parallel(&g));
    let d4 = in_pool(4, || parallel_equitruss::truss::decompose_parallel(&g));
    assert_eq!(d1, d4);
}

#[test]
fn every_variant_is_thread_invariant() {
    let g = EdgeIndexedGraph::new(gen::overlapping_cliques(300, 70, (3, 7), 120, 33));
    for variant in Variant::ALL {
        let c1 = in_pool(1, || build_index(&g, variant).index.canonical());
        let c3 = in_pool(3, || build_index(&g, variant).index.canonical());
        assert_eq!(c1, c3, "variant {}", variant.name());
    }
}

/// The file is the contract: every variant at 1, 4 and 8 threads writes, byte
/// for byte, the `.etidx` the serial Original writes — whether Π starts from
/// the peel's forest (Afforest on the peel's own decomposition) or from
/// identity (the other variants, and every variant once the forest is
/// dropped).
#[test]
fn etidx_bytes_equal_original_for_every_variant_and_thread_count() {
    // Skewed and clique-rich: dozens of superedges between many Φ_k groups.
    let g = EdgeIndexedGraph::new(gen::rmat_with_cliques(
        gen::RmatConfig::graph500(10, 8, 13),
        80,
        (4, 8),
    ));
    let tau = parallel_equitruss::truss::decompose_parallel(&g);
    let dir = std::env::temp_dir().join("pe-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let etidx_bytes = |index: &SuperGraph, name: &str| {
        let path = dir.join(format!("{name}.etidx"));
        parallel_equitruss::equitruss::io::write_index(index, &tau.trussness, &path).unwrap();
        std::fs::read(&path).unwrap()
    };
    let original = build_original(&g, &tau.trussness);
    assert!(original.num_superedges() > 0);
    let reference = etidx_bytes(&original, "original");
    assert!(tau.forest().is_some());
    let forestless = TrussDecomposition::new(tau.trussness.clone());
    for variant in Variant::ALL {
        for (decomposition, pi) in [(&tau, "forest"), (&forestless, "identity")] {
            for threads in [1usize, 4, 8] {
                let index = in_pool(threads, || {
                    let mut timings = KernelTimings::default();
                    build_index_with_decomposition(&g, decomposition, variant, &mut timings)
                });
                let name = format!("{}-{pi}-{threads}", variant.name());
                assert!(
                    etidx_bytes(&index, &name) == reference,
                    "{name}: .etidx differs from Original's"
                );
            }
        }
    }
}

#[test]
fn repeated_builds_are_identical() {
    let g = EdgeIndexedGraph::new(gen::gnm(200, 1200, 77));
    let a = build_index(&g, Variant::Afforest).index;
    let b = build_index(&g, Variant::Afforest).index;
    assert_eq!(a.canonical(), b.canonical());
    // Even the dense ids agree, because remap order is deterministic.
    assert_eq!(a.edge_supernode, b.edge_supernode);
    assert_eq!(a.superedges, b.superedges);
}
