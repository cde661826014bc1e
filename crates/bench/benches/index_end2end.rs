//! End-to-end index construction (the Table 4/5 microbenchmark): full
//! pipeline per variant, plus the serial Algorithm 1 comparator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use et_core::{build_index, build_original, Variant};
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_end2end");
    group.sample_size(10);
    for name in ["amazon", "dblp"] {
        let graph = et_bench::dataset(name, 0.25);
        for variant in Variant::ALL {
            group.bench_with_input(BenchmarkId::new(variant.name(), name), &graph, |b, g| {
                b.iter(|| black_box(build_index(g, variant).index.num_supernodes()));
            });
        }
        let tau = et_truss::decompose_parallel(&graph).trussness;
        group.bench_with_input(BenchmarkId::new("Original", name), &graph, |b, g| {
            b.iter(|| black_box(build_original(g, &tau).num_supernodes()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
