//! SpNode kernel benchmarks — the Fig. 5 microbenchmark (Baseline vs
//! C-Optimal vs Afforest on the same trussness input), plus ablations:
//! the Afforest partner-rounds sweep and the dictionary-vs-CSR lookup gap
//! (DESIGN.md ablations #1–#3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use et_core::afforest::{spnode_group_afforest, AfforestSpNodeConfig};
use et_core::baseline::{spnode_group_baseline, EdgeDict};
use et_core::coptimal::spnode_group_coptimal;
use et_core::engine::TrussRowViews;
use et_core::PhiGroups;
use et_graph::EdgeIndexedGraph;
use std::hint::black_box;
use std::sync::atomic::AtomicU32;

struct Prepared {
    graph: EdgeIndexedGraph,
    tau: Vec<u32>,
    phi: PhiGroups,
}

fn prepare(name: &str) -> Prepared {
    let graph = et_bench::dataset(name, 0.25);
    let tau = et_truss::decompose_parallel(&graph).trussness;
    let phi = PhiGroups::build(&tau);
    Prepared { graph, tau, phi }
}

fn fresh_parent(m: usize) -> Vec<AtomicU32> {
    (0..m as u32).map(AtomicU32::new).collect()
}

/// The rows the pipeline hands the CSR variants, grown group by group.
fn fresh_rows(p: &Prepared) -> TrussRowViews<'_> {
    TrussRowViews::new(&p.graph, &p.tau, p.phi.indexed_edges())
}

fn bench_spnode_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("spnode");
    group.sample_size(10);
    for name in ["dblp", "livejournal"] {
        let p = prepare(name);
        let m = p.graph.num_edges();
        let dict = EdgeDict::build(&p.graph);
        group.bench_with_input(BenchmarkId::new("baseline", name), &p, |b, p| {
            b.iter(|| {
                let parent = fresh_parent(m);
                for (k, group) in p.phi.iter() {
                    spnode_group_baseline(&p.graph, &dict, &p.tau, k, group, &parent);
                }
                black_box(parent.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("coptimal", name), &p, |b, p| {
            b.iter(|| {
                let parent = fresh_parent(m);
                let mut rows = fresh_rows(p);
                for (k, group) in p.phi.iter() {
                    rows.advance(k, group.len());
                    spnode_group_coptimal(rows.for_k(k), &p.tau, k, group, &parent);
                }
                black_box(parent.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("afforest", name), &p, |b, p| {
            b.iter(|| {
                let parent = fresh_parent(m);
                let mut rows = fresh_rows(p);
                for (k, group) in p.phi.iter() {
                    rows.advance(k, group.len());
                    spnode_group_afforest(
                        rows.for_k(k),
                        &p.tau,
                        k,
                        group,
                        &parent,
                        AfforestSpNodeConfig::default(),
                    );
                }
                black_box(parent.len())
            })
        });
    }
    group.finish();
}

fn bench_afforest_partner_rounds(c: &mut Criterion) {
    let p = prepare("livejournal");
    let m = p.graph.num_edges();
    let mut group = c.benchmark_group("spnode_afforest_rounds");
    group.sample_size(10);
    for rounds in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &rounds, |b, &r| {
            let cfg = AfforestSpNodeConfig {
                neighbor_rounds: r,
                ..AfforestSpNodeConfig::default()
            };
            b.iter(|| {
                let parent = fresh_parent(m);
                let mut rows = fresh_rows(&p);
                for (k, group) in p.phi.iter() {
                    rows.advance(k, group.len());
                    spnode_group_afforest(rows.for_k(k), &p.tau, k, group, &parent, cfg);
                }
                black_box(parent.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spnode_variants,
    bench_afforest_partner_rounds
);
criterion_main!(benches);
