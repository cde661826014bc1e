//! K-truss decomposition benchmarks: serial bucket peeling vs parallel
//! level-synchronous peeling (DESIGN.md ablation #5), plus the peel alone
//! (support precomputed) on R-MAT and overlapping-clique generators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use et_graph::EdgeIndexedGraph;
use std::hint::black_box;

fn bench_truss(c: &mut Criterion) {
    let mut group = c.benchmark_group("truss_decomposition");
    group.sample_size(10);
    for name in ["dblp", "livejournal"] {
        let graph = et_bench::dataset(name, 0.25);
        group.bench_with_input(BenchmarkId::new("serial", name), &graph, |b, g| {
            b.iter(|| black_box(et_truss::decompose_serial(g)));
        });
        group.bench_with_input(BenchmarkId::new("parallel", name), &graph, |b, g| {
            b.iter(|| black_box(et_truss::decompose_parallel(g)));
        });
    }
    group.finish();
}

/// The bucket-seeded peel with the support vector precomputed (its clone is
/// part of every iteration). The dense-clique instance (cliques up to 120
/// vertices, DBLP's 119-author-paper tail) pushes max trussness past 100 —
/// the many-levels regime; R-MAT is the few-levels, skewed-frontier one.
fn bench_peeling(c: &mut Criterion) {
    let inputs: Vec<(&str, EdgeIndexedGraph)> = vec![
        (
            "rmat-s16",
            EdgeIndexedGraph::new(et_gen::rmat_small(16, 8, 42)),
        ),
        (
            "cliques-dense",
            EdgeIndexedGraph::new(et_gen::overlapping_cliques(
                60_000,
                450,
                (4, 120),
                120_000,
                7,
            )),
        ),
    ];
    let mut group = c.benchmark_group("peeling");
    group.sample_size(10);
    for (name, graph) in &inputs {
        let support = et_triangle::compute_support_oriented(graph);
        group.bench_with_input(BenchmarkId::new("bucket", name), graph, |b, g| {
            b.iter(|| {
                black_box(et_truss::parallel::decompose_parallel_with_support(
                    g,
                    support.clone(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_truss, bench_peeling);
criterion_main!(benches);
