//! One module per paper table/figure.

pub mod accuracy;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod quality;
pub mod table3;
pub mod table4;
pub mod table5;

use et_core::timings::timed;
use et_core::{build_index_with_decomposition, KernelTimings, SuperGraph, SupportKernel, Variant};
use et_graph::EdgeIndexedGraph;
use et_truss::TrussDecomposition;
use std::time::Duration;

/// Options shared by every experiment.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Dataset scale factor (1.0 = default synthetic sizes).
    pub scale: f64,
    /// Thread counts for scaling experiments (default: powers of two up to
    /// the available parallelism).
    pub threads: Vec<usize>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            threads: crate::thread_sweep(),
        }
    }
}

/// The paper's pipeline, timed: Support → TrussDecomp → Algorithms 2–4 with
/// SpNode starting from Π = identity under every variant.
///
/// [`et_core::build_index`] would hand [`Variant::Afforest`] the forest the
/// parallel peel builds on its way, and the SpNode bar the figures are about
/// would read zero; dropping the forest (`TrussDecomposition::new`) is how a
/// caller asks for Algorithm 2 itself.
pub fn build_from_identity(
    graph: &EdgeIndexedGraph,
    variant: Variant,
) -> (SuperGraph, KernelTimings) {
    let mut timings = KernelTimings::default();
    let support = timed(&mut timings.support, || {
        SupportKernel::default().compute(graph)
    });
    let peeled = timed(&mut timings.truss_decomp, || {
        et_truss::parallel::decompose_parallel_with_support(graph, support)
    });
    let decomposition = TrussDecomposition::new(peeled.trussness);
    let index = build_index_with_decomposition(graph, &decomposition, variant, &mut timings);
    (index, timings)
}

/// The paper's Fig. 4 kernel set total: everything except the TrussDecomp
/// input dictionary (which Algorithms 1–2 receive precomputed).
pub fn fig4_total(t: &KernelTimings) -> Duration {
    t.init + t.support + t.spnode + t.spedge + t.smgraph + t.spnode_remap
}

/// Standard substitution note attached to every report.
pub fn scale_note(scale: f64) -> String {
    format!(
        "synthetic SNAP analogs (see DESIGN.md), scale = {scale}; host parallelism = {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test of this crate that switches tracing on.
    #[test]
    fn build_from_identity_runs_spnode_under_every_variant() {
        let graph = EdgeIndexedGraph::new(et_gen::overlapping_cliques(150, 30, (3, 6), 60, 9));
        let reference = et_core::build_index(&graph, Variant::Afforest).index;
        et_obs::set_enabled(true);
        et_obs::reset();
        for (variant, counter) in [
            (Variant::Baseline, "sv.hook_iterations"),
            (Variant::COptimal, "sv.shortcut_steps"),
            (Variant::Afforest, "afforest.sample_size"),
        ] {
            let before = et_obs::snapshot().counter(counter);
            let (index, timings) = build_from_identity(&graph, variant);
            assert!(
                et_obs::snapshot().counter(counter) > before,
                "{}: {counter} did not move",
                variant.name()
            );
            assert_eq!(index.canonical(), reference.canonical());
            assert!(timings.truss_decomp > Duration::ZERO && timings.spnode > Duration::ZERO);
        }
        et_obs::set_enabled(false);
        et_obs::reset();
    }
}
