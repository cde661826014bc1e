//! Vertex orderings.
//!
//! Triangle kernels are sensitive to vertex order: orienting arcs from
//! low-degree to high-degree endpoints bounds the work of the intersection
//! phase (Schank & Wagner; cited as the O(|E|^1.5) bound in paper §3.2).

use crate::{CsrGraph, VertexId};

/// Permutation sorting vertices by non-decreasing degree (ties by id).
/// `perm[old] = new`.
pub fn degree_order(graph: &CsrGraph) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_by_key(|&u| (graph.degree(u), u));
    let mut perm = vec![0 as VertexId; n];
    for (new, &old) in by_degree.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    perm
}

/// K-core decomposition: `core[v]` is the largest k such that v belongs to
/// a subgraph in which every vertex has degree ≥ k.
///
/// Matula–Beck bucket peeling: the clamped degree at peel time *is* the core
/// number (Batagelj–Zaversnik).
pub fn core_numbers(graph: &CsrGraph) -> Vec<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut deg: Vec<usize> = (0..n).map(|u| graph.degree(u as VertexId)).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &deg {
        bucket_start[d + 1] += 1;
    }
    for i in 0..=max_deg {
        bucket_start[i + 1] += bucket_start[i];
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0 as VertexId; n];
    {
        let mut cursor = bucket_start.clone();
        for u in 0..n {
            let d = deg[u];
            pos[u] = cursor[d];
            vert[cursor[d]] = u as VertexId;
            cursor[d] += 1;
        }
    }
    let mut bin = bucket_start;
    let mut core = vec![0u32; n];
    let mut running_max = 0usize;
    for i in 0..n {
        let u = vert[i];
        let du = deg[u as usize];
        running_max = running_max.max(du);
        core[u as usize] = running_max as u32;
        for &v in graph.neighbors(u) {
            let v = v as usize;
            // Only vertices still strictly above u's (clamped) degree move;
            // this clamps deg[] at the core number and keeps bucket starts
            // ahead of the peel cursor (Batagelj–Zaversnik invariant).
            if deg[v] <= du {
                continue;
            }
            let dv = deg[v];
            // Swap v with the first vertex of its bucket, then shrink the
            // bucket boundary — the classic O(1) decrement.
            let pv = pos[v];
            let pw = bin[dv];
            let w = vert[pw];
            if v as VertexId != w {
                vert.swap(pv, pw);
                pos[v] = pw;
                pos[w as usize] = pv;
            }
            bin[dv] += 1;
            deg[v] -= 1;
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn degree_order_sorts() {
        // Star: center 0 has degree 4, leaves degree 1.
        let g = GraphBuilder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).build();
        let perm = degree_order(&g);
        // Center must be relabeled last.
        assert_eq!(perm[0], 4);
    }

    #[test]
    fn core_numbers_of_clique_with_tail() {
        // K4 {0,1,2,3} plus a path 3-4-5: clique vertices core 3, path 1.
        let mut b = GraphBuilder::new(6);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(3, 4);
        b.add_edge(4, 5);
        let core = core_numbers(&b.build());
        assert_eq!(core, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn core_numbers_match_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let mut b = GraphBuilder::new(20);
        for _ in 0..60 {
            let (u, v) = (rng.gen_range(0..20u32), rng.gen_range(0..20u32));
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let core = core_numbers(&g);
        // Brute force: iterate k, repeatedly remove vertices with degree < k.
        let n = g.num_vertices();
        let mut expected = vec![0u32; n];
        for k in 1..=g.max_degree() as u32 {
            let mut alive = vec![true; n];
            loop {
                let mut removed = false;
                for u in 0..n {
                    if alive[u] {
                        let d = g
                            .neighbors(u as VertexId)
                            .iter()
                            .filter(|&&v| alive[v as usize])
                            .count();
                        if (d as u32) < k {
                            alive[u] = false;
                            removed = true;
                        }
                    }
                }
                if !removed {
                    break;
                }
            }
            for u in 0..n {
                if alive[u] {
                    expected[u] = k;
                }
            }
        }
        assert_eq!(core, expected);
    }

    #[test]
    fn core_numbers_empty() {
        assert!(core_numbers(&CsrGraph::empty(0)).is_empty());
        assert_eq!(core_numbers(&CsrGraph::empty(3)), vec![0, 0, 0]);
    }
}
