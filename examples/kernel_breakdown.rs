//! Kernel breakdown: where does index-construction time go?
//!
//! A miniature of the paper's Figure 4/5 on a single generated graph —
//! runs all three parallel designs and prints per-kernel timings side by
//! side, so the effect of each optimization is visible.
//!
//! `build_index` would not show it: the parallel peel hands the default
//! variant the supernode forest and its SpNode row reads zero. Dropping the
//! forest (`TrussDecomposition::new`) makes every variant run the paper's
//! SpNode from Π = identity.
//!
//! Run with: `cargo run --release --example kernel_breakdown`

use parallel_equitruss::equitruss::timings::timed;
use parallel_equitruss::equitruss::{
    build_index_with_decomposition, KernelTimings, SupportKernel, TrussHierarchy, Variant,
};
use parallel_equitruss::gen::rmat::{rmat_with_cliques, RmatConfig};
use parallel_equitruss::graph::EdgeIndexedGraph;
use parallel_equitruss::truss::parallel::decompose_parallel_with_support;
use parallel_equitruss::truss::TrussDecomposition;

fn main() {
    let graph = EdgeIndexedGraph::new(rmat_with_cliques(
        RmatConfig::graph500(13, 12, 3),
        800,
        (4, 8),
    ));
    println!(
        "graph: {} vertices, {} edges\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    let mut results = Vec::new();
    for variant in Variant::ALL {
        let mut t = KernelTimings::default();
        let support = timed(&mut t.support, || SupportKernel::default().compute(&graph));
        let peeled = timed(&mut t.truss_decomp, || {
            decompose_parallel_with_support(&graph, support)
        });
        let from_identity = TrussDecomposition::new(peeled.trussness);
        let index = build_index_with_decomposition(&graph, &from_identity, variant, &mut t);
        timed(&mut t.hierarchy, || TrussHierarchy::build(&index));
        results.push((variant, t, index));
    }

    println!(
        "{:<14}{:>12}{:>12}{:>12}",
        "kernel", "Baseline", "C-Optimal", "Afforest"
    );
    let kernels: Vec<&str> = results[0].1.rows().iter().map(|&(n, _)| n).collect();
    for (i, name) in kernels.iter().enumerate() {
        print!("{name:<14}");
        for (_, t, _) in &results {
            print!("{:>12}", format!("{:.2?}", t.rows()[i].1));
        }
        println!();
    }
    print!("{:<14}", "TOTAL");
    for (_, t, _) in &results {
        print!("{:>12}", format!("{:.2?}", t.total()));
    }
    println!();

    // All three must build the same summary graph.
    let canon = results[0].2.canonical();
    for (v, _, idx) in &results[1..] {
        assert_eq!(idx.canonical(), canon, "{} index differs", v.name());
    }
    println!(
        "\nall variants agree: {} supernodes, {} superedges",
        results[0].2.num_supernodes(),
        results[0].2.num_superedges()
    );
}
