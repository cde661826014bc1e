//! Storage-backend identity: everything built from a memory-mapped binary
//! graph must be bit-identical to the owned build — support arrays,
//! trussness, persisted `.etidx` bytes, and query answers — across every
//! Support kernel × rayon pool width.

use et_cli::load_graph_with;
use et_core::{
    build_index_with_decomposition, io as index_io, KernelTimings, SupportKernel, TrussHierarchy,
    Variant,
};
use et_graph::Backend;
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("et-storage-backends-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mapped_matches_owned_across_kernels_and_threads() {
    let dir = scratch_dir();
    let bin = dir.join("g.bin");
    // An R-MAT + planted-cliques graph (skewed degrees, real trussness
    // spectrum) persisted as a mappable binary CSR.
    let g = et_gen::profile_by_name("livejournal")
        .unwrap()
        .generate(1.0 / 16.0);
    et_graph::io::write_binary(&g, &bin).unwrap();

    // Reference pipeline: owned storage, current pool, defaults.
    let ref_graph = load_graph_with(&bin, Backend::Owned).unwrap();
    let ref_support = SupportKernel::default().compute(&ref_graph);
    let ref_decomp =
        et_truss::parallel::decompose_parallel_with_support(&ref_graph, ref_support.clone());
    let mut t = KernelTimings::default();
    let ref_index =
        build_index_with_decomposition(&ref_graph, &ref_decomp, Variant::Afforest, &mut t);
    let ref_hierarchy = TrussHierarchy::build(&ref_index);
    let ref_etidx = dir.join("ref.etidx");
    index_io::write_index_with_hierarchy(
        &ref_index,
        &ref_decomp.trussness,
        &ref_hierarchy,
        &ref_etidx,
    )
    .unwrap();
    let ref_bytes = std::fs::read(&ref_etidx).unwrap();
    let query_vertex = (0..ref_graph.num_vertices() as u32)
        .max_by_key(|&u| ref_graph.degree(u))
        .unwrap();
    let ref_communities =
        et_community::query_communities(&ref_graph, &ref_index, &ref_hierarchy, query_vertex, 4);

    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for backend in [Backend::Owned, Backend::Mapped] {
                let graph = load_graph_with(&bin, backend).unwrap();
                assert_eq!(graph.graph(), ref_graph.graph(), "{backend} @{threads}t");
                for kernel in SupportKernel::ALL {
                    let support = kernel.compute(&graph);
                    assert_eq!(
                        support,
                        ref_support,
                        "{} under {backend} @{threads}t diverges",
                        kernel.name()
                    );
                    let d = et_truss::parallel::decompose_parallel_with_support(
                        &graph,
                        support.clone(),
                    );
                    assert_eq!(d.trussness, ref_decomp.trussness);
                    let mut t = KernelTimings::default();
                    let index =
                        build_index_with_decomposition(&graph, &d, Variant::Afforest, &mut t);
                    let hierarchy = TrussHierarchy::build(&index);
                    let out = dir.join(format!("{}-{}-t{threads}.etidx", backend, kernel.name()));
                    index_io::write_index_with_hierarchy(&index, &d.trussness, &hierarchy, &out)
                        .unwrap();
                    assert_eq!(
                        std::fs::read(&out).unwrap(),
                        ref_bytes,
                        "{} under {backend} @{threads}t: .etidx bytes differ",
                        kernel.name()
                    );
                    assert_eq!(
                        et_community::query_communities(
                            &graph,
                            &index,
                            &hierarchy,
                            query_vertex,
                            4
                        ),
                        ref_communities
                    );
                }
            }
        });
    }
}

#[test]
fn mapped_index_reload_answers_identically() {
    // Build + persist owned, then reload the index memory-mapped and check
    // the loaded structures and query answers are bit-identical.
    let dir = scratch_dir();
    let bin = dir.join("q.bin");
    let etidx = dir.join("q.etidx");
    let g = et_gen::profile_by_name("dblp")
        .unwrap()
        .generate(1.0 / 32.0);
    et_graph::io::write_binary(&g, &bin).unwrap();
    et_cli::cmd_build(
        &bin,
        &etidx,
        Variant::Afforest,
        SupportKernel::default(),
        Backend::Owned,
    )
    .unwrap();

    let (owned_idx, owned_tau, owned_h) =
        index_io::read_index_with_hierarchy_with(&etidx, Backend::Owned).unwrap();
    let (mapped_idx, mapped_tau, mapped_h) =
        index_io::read_index_with_hierarchy_with(&etidx, Backend::Mapped).unwrap();
    assert_eq!(owned_idx.sn_trussness, mapped_idx.sn_trussness);
    assert_eq!(owned_idx.sn_offsets, mapped_idx.sn_offsets);
    assert_eq!(owned_idx.sn_members, mapped_idx.sn_members);
    assert_eq!(owned_idx.edge_supernode, mapped_idx.edge_supernode);
    assert_eq!(owned_idx.superedges, mapped_idx.superedges);
    assert_eq!(owned_idx.adj_offsets, mapped_idx.adj_offsets);
    assert_eq!(owned_idx.adj_targets, mapped_idx.adj_targets);
    assert_eq!(owned_tau, mapped_tau);
    assert_eq!(owned_h.node_level, mapped_h.node_level);
    assert_eq!(owned_h.node_parent, mapped_h.node_parent);
    if et_graph::buf::ZERO_COPY_TARGET {
        assert_eq!(mapped_idx.storage_backend(), "mapped");
    }

    let graph = load_graph_with(&bin, Backend::Mapped).unwrap();
    for v in (0..graph.num_vertices() as u32).step_by(17) {
        for k in [3u32, 4, 5] {
            assert_eq!(
                et_community::query_communities(&graph, &mapped_idx, &mapped_h, v, k),
                et_community::query_communities(&graph, &owned_idx, &owned_h, v, k),
                "query v={v} k={k} diverges between backends"
            );
        }
    }
}
