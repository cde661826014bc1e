//! The shared **edge-CC engine** behind EquiTruss supernode construction.
//!
//! The paper's central observation is that SpNode construction *is*
//! connected components over edge entities: within one Φ_k group, two edges
//! belong to the same supernode iff they are k-triangle connected. The three
//! paper variants (Baseline, C-Optimal, Afforest) differ only in *policies*
//! layered over that one computation:
//!
//! * **edge-id resolution** — how "the other two edges of a triangle through
//!   e" are found (global dictionary binary search vs per-arc CSR edge-id
//!   arrays). That is the [`TriangleAdjacency`] implementation.
//! * **the Π-equality skip rule** — whether a hook candidate with
//!   `Π(e) == Π(e_i)` is discarded before the root check
//!   ([`SvPolicy::skip_equal`]).
//! * **algorithm choice** — Shiloach–Vishkin hook/shortcut rounds
//!   ([`sv_edge_components`]) vs Afforest sampling + finalize
//!   ([`afforest_edge_components`]).
//!
//! The drivers below own the only copies of the hooking, shortcut, linking,
//! sampling, and compression loops; `et-core` provides only thin
//! [`TriangleAdjacency`] views.

use crate::{atomic_find, atomic_find_steps, atomic_link};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// "k-triangle neighbors of edge `e`": a view that enumerates, for a member
/// edge of the current Φ_k group, every *same-k triangle partner* — an edge
/// `e_i` with trussness exactly `k` that closes a triangle with `e` whose
/// third edge has trussness ≥ `k` (Definition 6's k-triangle adjacency,
/// restricted to the group).
///
/// A partner may be yielded more than once (once per witnessing triangle);
/// the drivers are idempotent under repetition. Yield order must be
/// deterministic per edge — Afforest's neighbour round links only the first
/// `r` partners yielded and then breaks.
pub trait TriangleAdjacency: Sync {
    /// Calls `f` for the same-k triangle partners of `e`, in the view's
    /// fixed order, until `f` breaks. The one enumeration a view implements:
    /// the partners seen before a break are by construction a prefix of
    /// what [`TriangleAdjacency::for_each_partner`] yields.
    fn try_for_each_partner<F>(&self, e: u32, f: F) -> ControlFlow<()>
    where
        F: FnMut(u32) -> ControlFlow<()>;

    /// Calls `f` for every same-k triangle partner of `e`.
    fn for_each_partner<F: FnMut(u32)>(&self, e: u32, mut f: F) {
        let _ = self.try_for_each_partner(e, |ei| {
            f(ei);
            ControlFlow::Continue(())
        });
    }
}

/// Knobs of the Shiloach–Vishkin driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SvPolicy {
    /// C-Optimal's skip rule: discard a hook candidate as soon as
    /// `Π(e) == Π(e_i)` (already merged), before the root check. The
    /// Baseline deliberately omits it.
    pub skip_equal: bool,
}

/// Shiloach–Vishkin over the edge entities of one group: repeated rounds of
/// conditional hooking (Algorithm 2 ln. 10–20) and pointer-jumping shortcuts
/// (ln. 21–23) until no hook fires. On return every `parent[e]` for
/// `e ∈ members` holds its component root.
///
/// The hook has the paper's **benign race**: concurrent hooks may overwrite
/// each other, but every surviving pointer stays within the component, so
/// the fixpoint is correct regardless of interleaving.
pub fn sv_edge_components<V: TriangleAdjacency + ?Sized>(
    view: &V,
    members: &[u32],
    parent: &[AtomicU32],
    policy: SvPolicy,
) {
    let hooking = AtomicBool::new(true);
    let tracing = crate::obs_enabled();
    let mut rounds = 0u64;
    let grafts = AtomicU64::new(0);
    while hooking.swap(false, Ordering::Relaxed) {
        rounds += 1;
        let round_start = tracing.then(std::time::Instant::now);
        // Hooking phase: every round re-enumerates the triangle partners
        // (both variants do; they differ in how partners are resolved).
        members.par_iter().for_each(|&e| {
            let pe = parent[e as usize].load(Ordering::Relaxed);
            view.for_each_partner(e, |ei| {
                let pi = parent[ei as usize].load(Ordering::Relaxed);
                if policy.skip_equal && pe == pi {
                    return; // already the same component
                }
                // Conditional hook: Π(e) < Π(e_i) and Π(e_i) is a root.
                if pe < pi && parent[pi as usize].load(Ordering::Relaxed) == pi {
                    parent[pi as usize].store(pe, Ordering::Relaxed);
                    hooking.store(true, Ordering::Relaxed);
                    if tracing {
                        grafts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        });

        // Shortcut phase: pointer jumping.
        if tracing {
            let steps: u64 = members.par_iter().map(|&e| shortcut(parent, e)).sum();
            et_obs::counter_add("sv.shortcut_steps", steps);
        } else {
            members.par_iter().for_each(|&e| {
                shortcut(parent, e);
            });
        }
        if let Some(start) = round_start {
            et_obs::record_value("sv.round_us", start.elapsed().as_micros() as u64);
        }
    }
    et_obs::counter_add("sv.hook_iterations", rounds);
    et_obs::counter_add("sv.grafts", grafts.into_inner());
}

/// Pointer-jumps `e` onto its root; returns the number of jumps.
#[inline]
fn shortcut(parent: &[AtomicU32], e: u32) -> u64 {
    let i = e as usize;
    let mut steps = 0u64;
    let mut p = parent[i].load(Ordering::Relaxed);
    let mut gp = parent[p as usize].load(Ordering::Relaxed);
    while p != gp {
        parent[i].store(gp, Ordering::Relaxed);
        p = gp;
        gp = parent[p as usize].load(Ordering::Relaxed);
        steps += 1;
    }
    steps
}

/// Knobs of the Afforest driver (the seed is group-specific — callers fold
/// the trussness level in).
#[derive(Clone, Copy, Debug)]
pub struct AfforestPolicy {
    /// Triangle-partner rounds linked eagerly (Afforest's `r`).
    pub neighbor_rounds: usize,
    /// Sample size used to estimate the giant component of the group.
    pub sample_size: usize,
    /// Sampling seed (affects only how much work the finish phase skips,
    /// never the resulting components).
    pub seed: u64,
}

/// Afforest over the edge entities of one group (Sutton et al., adapted to
/// the edge-induced graph): eager linking of the first `r` partners,
/// giant-component sampling, then a full-enumeration finish for edges
/// outside the giant component. On return every `parent[e]` for
/// `e ∈ members` holds its component root.
pub fn afforest_edge_components<V: TriangleAdjacency + ?Sized>(
    view: &V,
    members: &[u32],
    parent: &[AtomicU32],
    policy: AfforestPolicy,
) {
    if members.is_empty() {
        return;
    }
    let r = policy.neighbor_rounds;

    // Phase 1: link the first r triangle partners of every edge and stop
    // enumerating there, so this pass touches only a subgraph. With r = 0
    // there is nothing to link or compress.
    if r > 0 {
        members.par_iter().for_each(|&e| {
            let mut linked = 0usize;
            let _ = view.try_for_each_partner(e, |ei| {
                atomic_link(parent, e, ei);
                linked += 1;
                if linked < r {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
        });
        compress_members(parent, members);
    }

    // Phase 2: estimate the giant component from a sample of the group.
    let giant = sample_giant_member(parent, members, policy.sample_size, policy.seed);

    // Phase 3: finish edges outside the giant component with their full
    // partner lists.
    let tracing = crate::obs_enabled();
    let giant_skips = AtomicU64::new(0);
    members.par_iter().for_each(|&e| {
        if atomic_find(parent, e) == giant {
            if tracing {
                giant_skips.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        view.for_each_partner(e, |ei| {
            atomic_link(parent, e, ei);
        });
    });
    if tracing {
        // skips + finish_edges = |members|: how much of the group the
        // sampled giant actually covered.
        let skips = giant_skips.into_inner();
        et_obs::counter_add("afforest.giant_skips", skips);
        et_obs::counter_add("afforest.finish_edges", members.len() as u64 - skips);
    }
    compress_members(parent, members);
}

/// Parallel path compression restricted to one group.
fn compress_members(parent: &[AtomicU32], members: &[u32]) {
    if crate::obs_enabled() {
        let steps: u64 = members
            .par_iter()
            .map(|&e| {
                let (root, steps) = atomic_find_steps(parent, e);
                parent[e as usize].store(root, Ordering::Relaxed);
                steps
            })
            .sum();
        et_obs::counter_add("dsu.compress_steps", steps);
        et_obs::counter_add("dsu.compress_calls", 1);
    } else {
        members.par_iter().for_each(|&e| {
            let root = atomic_find(parent, e);
            parent[e as usize].store(root, Ordering::Relaxed);
        });
    }
}

/// Most frequent root among `sample_size` random members of the group.
fn sample_giant_member(
    parent: &[AtomicU32],
    members: &[u32],
    sample_size: usize,
    seed: u64,
) -> u32 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for _ in 0..sample_size.max(1) {
        let e = members[rng.gen_range(0..members.len())];
        *counts.entry(atomic_find(parent, e)).or_default() += 1;
    }
    let (root, hits) = counts
        .into_iter()
        .max_by_key(|&(root, c)| (c, std::cmp::Reverse(root)))
        .expect("sample is non-empty");
    // Sampling hit-rate: how concentrated the intermediate components are —
    // high hits/size means the finish phase will skip almost everything.
    et_obs::counter_add("afforest.sample_hits", hits as u64);
    et_obs::counter_add("afforest.sample_size", sample_size.max(1) as u64);
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::same_partition;

    /// A toy view: partner lists given explicitly per edge id.
    struct ListView {
        partners: Vec<Vec<u32>>,
    }

    impl TriangleAdjacency for ListView {
        fn try_for_each_partner<F>(&self, e: u32, f: F) -> ControlFlow<()>
        where
            F: FnMut(u32) -> ControlFlow<()>,
        {
            self.partners[e as usize].iter().copied().try_for_each(f)
        }
    }

    fn fresh_parent(n: usize) -> Vec<AtomicU32> {
        (0..n as u32).map(AtomicU32::new).collect()
    }

    fn labels(parent: Vec<AtomicU32>) -> Vec<u32> {
        parent.into_iter().map(|a| a.into_inner()).collect()
    }

    /// Two components {0,1,2} and {3,4}; 5 is isolated.
    fn two_blob_view() -> (ListView, Vec<u32>) {
        let view = ListView {
            partners: vec![vec![1, 2], vec![0, 2], vec![0, 1], vec![4], vec![3], vec![]],
        };
        (view, (0..6).collect())
    }

    #[test]
    fn sv_finds_components_with_and_without_skip() {
        for skip_equal in [false, true] {
            let (view, members) = two_blob_view();
            let parent = fresh_parent(6);
            sv_edge_components(&view, &members, &parent, SvPolicy { skip_equal });
            let l = labels(parent);
            assert!(
                same_partition(&l, &[0, 0, 0, 1, 1, 2]),
                "skip={skip_equal}: {l:?}"
            );
            // Labels are roots.
            for &x in &l {
                assert_eq!(l[x as usize], x);
            }
        }
    }

    #[test]
    fn afforest_matches_sv() {
        let (view, members) = two_blob_view();
        for rounds in [0, 1, 2, 8] {
            for sample in [1, 3, 64] {
                let parent = fresh_parent(6);
                afforest_edge_components(
                    &view,
                    &members,
                    &parent,
                    AfforestPolicy {
                        neighbor_rounds: rounds,
                        sample_size: sample,
                        seed: 7,
                    },
                );
                let l = labels(parent);
                assert!(
                    same_partition(&l, &[0, 0, 0, 1, 1, 2]),
                    "rounds={rounds} sample={sample}: {l:?}"
                );
            }
        }
    }

    #[test]
    fn subset_of_members_only_touches_members() {
        // Members {1, 2} of a larger id space: 0 and 3.. stay identity.
        let view = ListView {
            partners: vec![vec![], vec![2], vec![1], vec![]],
        };
        let parent = fresh_parent(4);
        sv_edge_components(&view, &[1, 2], &parent, SvPolicy { skip_equal: true });
        let l = labels(parent);
        assert_eq!(l[0], 0);
        assert_eq!(l[3], 3);
        assert_eq!(l[1], l[2]);
    }

    #[test]
    fn empty_members_are_a_noop() {
        let view = ListView { partners: vec![] };
        let parent = fresh_parent(0);
        sv_edge_components(&view, &[], &parent, SvPolicy::default());
        afforest_edge_components(
            &view,
            &[],
            &parent,
            AfforestPolicy {
                neighbor_rounds: 2,
                sample_size: 16,
                seed: 0,
            },
        );
    }
}
