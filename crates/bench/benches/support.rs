//! Support-kernel benchmarks + intersection-kernel ablation (DESIGN.md
//! ablation #4: merge vs binary vs galloping vs adaptive), plus the
//! merge vs. triangle-once oriented kernel comparison on R-MAT and
//! overlapping-clique generators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use et_graph::{EdgeIndexedGraph, OrientedGraph};
use et_triangle::intersect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_support(c: &mut Criterion) {
    let mut group = c.benchmark_group("support");
    group.sample_size(10);
    for name in ["dblp", "youtube"] {
        let graph = et_bench::dataset(name, 0.25);
        group.bench_with_input(BenchmarkId::new("parallel", name), &graph, |b, g| {
            b.iter(|| black_box(et_triangle::compute_support(g)));
        });
        group.bench_with_input(BenchmarkId::new("serial", name), &graph, |b, g| {
            b.iter(|| black_box(et_triangle::compute_support_serial(g)));
        });
    }
    group.finish();
}

/// Merge (triangle visited 3×) vs. oriented (triangle visited once) Support
/// kernels. The R-MAT instance has ≥ 2^18 edges; the overlapping-clique
/// instance mimics DBLP-style collaboration structure.
fn bench_support_kernels(c: &mut Criterion) {
    let inputs: Vec<(&str, EdgeIndexedGraph)> = vec![
        (
            "rmat-s16",
            EdgeIndexedGraph::new(et_gen::rmat_small(16, 8, 42)),
        ),
        (
            "cliques",
            EdgeIndexedGraph::new(et_gen::overlapping_cliques(
                60_000,
                9_000,
                (4, 14),
                120_000,
                7,
            )),
        ),
    ];
    let mut group = c.benchmark_group("support_kernels");
    group.sample_size(10);
    for (name, graph) in &inputs {
        group.bench_with_input(BenchmarkId::new("merge", name), graph, |b, g| {
            b.iter(|| black_box(et_triangle::compute_support(g)));
        });
        group.bench_with_input(BenchmarkId::new("oriented", name), graph, |b, g| {
            b.iter(|| black_box(et_triangle::compute_support_oriented(g)));
        });
        // Steady-state cost with the DAG view amortized across runs.
        let view = OrientedGraph::build(graph);
        group.bench_with_input(
            BenchmarkId::new("oriented_prebuilt", name),
            graph,
            |b, g| {
                b.iter(|| black_box(et_triangle::compute_support_with_oriented(g, &view)));
            },
        );
    }

    // GALLOP_RATIO sweep: merge vs. galloping probe on a 256-element set
    // against a larger set at every size ratio around the crossover. The
    // constant in `et_triangle::intersect` is set from where the gallop
    // curve dips below the merge curve (see DESIGN.md "Kernel engineering").
    let mut rng = StdRng::seed_from_u64(42);
    let mut random_set = |len: usize, span: u32| -> Vec<u32> {
        let mut v: Vec<u32> = Vec::new();
        while v.len() < len {
            v.extend((0..len * 2).map(|_| rng.gen_range(0..span)));
            v.sort_unstable();
            v.dedup();
        }
        v.truncate(len);
        v
    };
    let small_len = 256usize;
    for ratio in [2usize, 4, 8, 16, 32, 64, 128] {
        let span = (small_len * ratio * 4) as u32;
        let small = random_set(small_len, span);
        let large = random_set(small_len * ratio, span);
        group.bench_with_input(
            BenchmarkId::new("gallop_ratio/merge", ratio),
            &(&small, &large),
            |b, (s, l)| b.iter(|| black_box(intersect::merge_intersect_count(s, l))),
        );
        group.bench_with_input(
            BenchmarkId::new("gallop_ratio/gallop", ratio),
            &(&small, &large),
            |b, (s, l)| b.iter(|| black_box(intersect::gallop_intersect_count(s, l))),
        );
    }
    group.finish();
}

fn bench_intersection_kernels(c: &mut Criterion) {
    let graph: EdgeIndexedGraph = et_bench::dataset("orkut", 0.25);
    // Pick the heaviest edges (hub-hub) — the regime where kernels differ.
    let mut edges: Vec<(u32, u32)> = graph.graph().edges().collect();
    edges.sort_by_key(|&(u, v)| std::cmp::Reverse(graph.degree(u).min(graph.degree(v))));
    edges.truncate(2000);

    let mut group = c.benchmark_group("intersection");
    group.sample_size(20);
    group.bench_function("merge", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(u, v) in &edges {
                total += intersect::merge_intersect_count(graph.neighbors(u), graph.neighbors(v));
            }
            black_box(total)
        })
    });
    group.bench_function("binary", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut buf = Vec::new();
            for &(u, v) in &edges {
                let (s, l) = if graph.degree(u) <= graph.degree(v) {
                    (u, v)
                } else {
                    (v, u)
                };
                buf.clear();
                intersect::binary_intersect_into(graph.neighbors(s), graph.neighbors(l), &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    group.bench_function("gallop", |b| {
        b.iter(|| {
            let mut total = 0usize;
            let mut buf = Vec::new();
            for &(u, v) in &edges {
                let (s, l) = if graph.degree(u) <= graph.degree(v) {
                    (u, v)
                } else {
                    (v, u)
                };
                buf.clear();
                intersect::gallop_intersect_into(graph.neighbors(s), graph.neighbors(l), &mut buf);
                total += buf.len();
            }
            black_box(total)
        })
    });
    group.bench_function("adaptive", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(u, v) in &edges {
                total += intersect::intersect_count(graph.neighbors(u), graph.neighbors(v));
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_support,
    bench_support_kernels,
    bench_intersection_kernels
);
criterion_main!(benches);
