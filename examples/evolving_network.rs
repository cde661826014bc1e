//! Evolving network: keep an EquiTruss index current while the graph changes.
//!
//! Social networks gain and lose edges continuously. `DynamicGraph` gives
//! every edge an id that survives the churn, and `DynamicIndex` keeps
//! trussness and the index addressed by those ids: each update runs the
//! static pipeline on the graph as it now stands and carries the result back
//! to stable ids. Repairing the index locally instead of rebuilding it is
//! future work, to be judged against exactly this baseline.
//!
//! Run with: `cargo run --release --example evolving_network`

use parallel_equitruss::dynamic::{DynamicGraph, DynamicIndex};
use parallel_equitruss::gen::overlapping_cliques;
use parallel_equitruss::graph::EdgeIndexedGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // A collaboration network with a rich trussness spectrum.
    let base = EdgeIndexedGraph::new(overlapping_cliques(2500, 700, (3, 9), 900, 31));
    let n = base.num_vertices();
    println!(
        "initial network: {} vertices, {} edges",
        n,
        base.num_edges()
    );

    let t0 = std::time::Instant::now();
    let mut index = DynamicIndex::build(DynamicGraph::from_indexed(&base));
    println!(
        "index built in {:.2?}: {} supernodes, {} superedges, levels 3..={}",
        t0.elapsed(),
        index.index().num_supernodes(),
        index.index().num_superedges(),
        index.trussness().iter().max().unwrap()
    );

    // Stream 40 random updates (mixed inserts/deletes).
    let mut rng = StdRng::seed_from_u64(7);
    let mut tau_changes_total = 0usize;
    let t1 = std::time::Instant::now();
    for step in 0..40 {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let stats = if index.graph().edge_id(u, v).is_some() {
            index.remove_edge(u, v)
        } else {
            index.insert_edge(u, v)
        };
        if let Some(s) = stats {
            tau_changes_total += s.tau_changes;
            if step < 5 {
                println!(
                    "  update {step}: τ changes = {}, levels present {:?}",
                    s.tau_changes, s.rebuilt_levels
                );
            }
        }
    }
    println!(
        "\n40 updates in {:.2?}: {} trussness values changed in all",
        t1.elapsed(),
        tau_changes_total
    );
    println!(
        "final index: {} supernodes, {} superedges",
        index.index().num_supernodes(),
        index.index().num_superedges()
    );
}
