//! Support-selection and scheduling acceptance tests: the selecting Support
//! arm picks merge on a degree-balanced mesh and oriented on a skewed graph,
//! and whatever it picks — and however the stealing scheduler deals the
//! work — support and trussness equal the serial references at 1/4/8
//! threads (the scatter is commutative and the peel accumulators are
//! deduplicated sets, so worker assignment can never change the output).

use parallel_equitruss::equitruss::SupportKernel;
use parallel_equitruss::gen;
use parallel_equitruss::graph::{CsrGraph, EdgeIndexedGraph};
use parallel_equitruss::{triangle, truss};

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// The two `bench_e2e` build shapes at test size: a triangulated grid
/// (`mesh-build`) and R-MAT with planted cliques (`social-build`).
fn mesh() -> EdgeIndexedGraph {
    EdgeIndexedGraph::new(gen::triangulated_grid(60))
}

fn social() -> EdgeIndexedGraph {
    EdgeIndexedGraph::new(gen::rmat_with_cliques(
        gen::RmatConfig::graph500(11, 9, 7),
        60,
        (4, 10),
    ))
}

#[test]
fn default_kernel_picks_merge_on_a_mesh_and_oriented_on_a_skewed_graph() {
    assert_eq!(
        SupportKernel::Default.resolve(&mesh()),
        SupportKernel::Merge,
        "triangulated grid"
    );
    assert_eq!(
        SupportKernel::Default.resolve(&social()),
        SupportKernel::Oriented,
        "R-MAT + cliques"
    );
}

#[test]
fn every_support_arm_equals_the_serial_kernel_at_every_pool_width() {
    let cases = [
        ("mesh", mesh()),
        ("social", social()),
        ("empty", EdgeIndexedGraph::new(CsrGraph::empty(0))),
        ("edgeless", EdgeIndexedGraph::new(CsrGraph::empty(10))),
    ];
    for (name, g) in &cases {
        let reference = triangle::compute_support_serial(g);
        for threads in [1usize, 4, 8] {
            for kernel in SupportKernel::ALL {
                assert_eq!(
                    in_pool(threads, || kernel.compute(g)),
                    reference,
                    "{name}: {} support differs at {threads} threads",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn trussness_equals_the_serial_peel_at_every_pool_width() {
    for (name, g) in [("mesh", mesh()), ("social", social())] {
        let reference = truss::decompose_serial(&g);
        for threads in [1usize, 4, 8] {
            let peeled = in_pool(threads, || {
                truss::parallel::decompose_parallel_with_support(
                    &g,
                    SupportKernel::Default.compute(&g),
                )
            });
            assert_eq!(
                peeled, reference,
                "{name}: trussness differs at {threads} threads"
            );
            assert_eq!(
                in_pool(threads, || truss::decompose_parallel(&g)),
                reference,
                "{name}: decompose_parallel differs at {threads} threads"
            );
        }
    }
}
