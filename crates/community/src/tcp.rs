//! TCP-Index (Triangle-Connectivity-Preserving index) — Huang et al.,
//! SIGMOD 2014 (reference \[22\] of the paper).
//!
//! The prior state of the art that EquiTruss improves on. Per vertex x it
//! keeps a *maximum spanning forest* T_x of the neighbor graph G_x, where
//! `G_x` connects y, z ∈ N(x) iff the triangle (x, y, z) exists, weighted by
//! `w(y,z) = min(τ(xy), τ(xz), τ(yz))`. The key property: y and z belong to
//! the same k-truss community of x iff T_x connects them by a path of
//! weight ≥ k.
//!
//! Queries walk these forests with the "reverse reconstruction": starting
//! from an edge (q, y) of trussness ≥ k, repeatedly expand each discovered
//! edge (x, y) through level-≥k reachability in both T_x and T_y. The
//! paper's §5 criticism is visible in the code: every edge is stored in
//! multiple MSTs, and queries re-walk forests edge by edge — exactly the
//! redundancy the supernode index removes.

use et_cc::DisjointSet;
use et_graph::{EdgeId, EdgeIndexedGraph, VertexId};
use std::collections::{HashMap, VecDeque};

/// Per-vertex maximum spanning forest entry: `(weight, y, z)` meaning T_x
/// joins neighbors y and z with triangle weight `weight`.
#[derive(Clone, Debug)]
struct ForestAdj {
    /// neighbor id in N(x) → list of (partner, weight) pairs in T_x.
    adj: HashMap<VertexId, Vec<(VertexId, u32)>>,
}

/// The TCP-Index: one maximum spanning forest per vertex.
pub struct TcpIndex {
    forests: Vec<ForestAdj>,
}

impl TcpIndex {
    /// Builds the index from a graph and its trussness dictionary.
    pub fn build(graph: &EdgeIndexedGraph, trussness: &[u32]) -> Self {
        let n = graph.num_vertices();
        let mut forests = Vec::with_capacity(n);
        for x in 0..n as VertexId {
            forests.push(build_forest(graph, trussness, x));
        }
        TcpIndex { forests }
    }

    /// Level-≥k reachability inside T_x: all neighbors of x connected to `y`
    /// through forest edges of weight ≥ k (including `y` itself if present).
    fn reachable(&self, x: VertexId, y: VertexId, k: u32) -> Vec<VertexId> {
        let forest = &self.forests[x as usize];
        if !forest.adj.contains_key(&y) {
            return vec![y];
        }
        let mut out = Vec::new();
        let mut visited = std::collections::HashSet::new();
        let mut queue = VecDeque::from([y]);
        visited.insert(y);
        while let Some(v) = queue.pop_front() {
            out.push(v);
            if let Some(nbrs) = forest.adj.get(&v) {
                for &(w, weight) in nbrs {
                    if weight >= k && visited.insert(w) {
                        queue.push_back(w);
                    }
                }
            }
        }
        out
    }

    /// All k-truss communities containing `q`, as sorted edge-id lists
    /// (sorted by smallest member) — same output contract as
    /// [`crate::query::query_communities`] and the brute-force oracle.
    pub fn query(
        &self,
        graph: &EdgeIndexedGraph,
        trussness: &[u32],
        q: VertexId,
        k: u32,
    ) -> Vec<Vec<EdgeId>> {
        if k < 3 || (q as usize) >= graph.num_vertices() {
            return Vec::new();
        }
        let mut globally_visited = vec![false; graph.num_edges()];
        let mut communities: Vec<Vec<EdgeId>> = Vec::new();

        for (y, e) in graph.neighbors_with_eids(q) {
            if trussness[e as usize] < k || globally_visited[e as usize] {
                continue;
            }
            // Grow one community by processed-edge BFS.
            let mut edges: Vec<EdgeId> = Vec::new();
            let mut queue: VecDeque<(VertexId, VertexId, EdgeId)> = VecDeque::new();
            globally_visited[e as usize] = true;
            queue.push_back((q, y, e));
            while let Some((a, b, eid)) = queue.pop_front() {
                edges.push(eid);
                // Expand through both endpoint forests.
                for &(x, other) in &[(a, b), (b, a)] {
                    for z in self.reachable(x, other, k) {
                        let f = graph
                            .edge_id(x, z)
                            .expect("forest member must be a graph edge");
                        if !globally_visited[f as usize] {
                            globally_visited[f as usize] = true;
                            queue.push_back((x, z, f));
                        }
                    }
                }
            }
            edges.sort_unstable();
            communities.push(edges);
        }
        communities.sort_by_key(|c| c.first().copied().unwrap_or(EdgeId::MAX));
        communities
    }

    /// Total number of forest edges stored across all vertices — the
    /// redundancy metric (each graph edge may appear in many forests).
    pub fn forest_edge_count(&self) -> usize {
        self.forests
            .iter()
            .map(|f| f.adj.values().map(Vec::len).sum::<usize>() / 2)
            .sum()
    }
}

/// Kruskal maximum spanning forest of the triangle-neighbor graph of `x`.
fn build_forest(graph: &EdgeIndexedGraph, trussness: &[u32], x: VertexId) -> ForestAdj {
    let nbrs = graph.neighbors(x);
    // Local index of each neighbor for the DSU.
    let local: HashMap<VertexId, u32> = nbrs
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();

    // Candidate edges: triangles (x, y, z) with weight = min trussness.
    let mut candidates: Vec<(u32, VertexId, VertexId)> = Vec::new();
    for (i, (y, exy)) in graph.neighbors_with_eids(x).enumerate() {
        // Intersect N(x) (after y) with N(y) to enumerate each triangle once.
        let rest = &nbrs[i + 1..];
        let mut buf = Vec::new();
        et_triangle::intersect::intersect_into(rest, graph.neighbors(y), &mut buf);
        for z in buf {
            let exz = graph.edge_id(x, z).expect("triangle edge");
            let eyz = graph.edge_id(y, z).expect("triangle edge");
            let w = trussness[exy as usize]
                .min(trussness[exz as usize])
                .min(trussness[eyz as usize]);
            candidates.push((w, y, z));
        }
    }
    // Maximum spanning forest: process by descending weight.
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut dsu = DisjointSet::new(nbrs.len());
    let mut adj: HashMap<VertexId, Vec<(VertexId, u32)>> = HashMap::new();
    for (w, y, z) in candidates {
        if dsu.union(local[&y], local[&z]) {
            adj.entry(y).or_default().push((z, w));
            adj.entry(z).or_default().push((y, w));
        }
    }
    ForestAdj { adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::brute_force_communities;
    use et_gen::fixtures;
    use et_truss::decompose_serial;

    fn check_agreement(graph: et_graph::CsrGraph, label: &str) {
        let eg = EdgeIndexedGraph::new(graph);
        let d = decompose_serial(&eg);
        let tcp = TcpIndex::build(&eg, &d.trussness);
        let kmax = d.max_trussness.max(3);
        for q in (0..eg.num_vertices() as u32).step_by(1.max(eg.num_vertices() / 30)) {
            for k in 3..=kmax {
                let got = tcp.query(&eg, &d.trussness, q, k);
                let want = brute_force_communities(&eg, &d.trussness, q, k);
                assert_eq!(got, want, "{label}: q={q} k={k}");
            }
        }
    }

    #[test]
    fn matches_brute_force_on_fixtures() {
        for f in fixtures::all_fixtures() {
            check_agreement(f.graph.clone(), f.name);
        }
    }

    #[test]
    fn matches_brute_force_on_random() {
        for seed in 0..3 {
            check_agreement(et_gen::gnm(50, 260, seed), "gnm");
        }
        check_agreement(et_gen::overlapping_cliques(90, 18, (3, 6), 30, 5), "collab");
    }

    #[test]
    fn forest_redundancy_is_visible() {
        // Every K5 edge appears in the forests of its 3 non-endpoint
        // vertices too — the storage redundancy EquiTruss avoids.
        let eg = EdgeIndexedGraph::new(fixtures::clique(5).graph.clone());
        let d = decompose_serial(&eg);
        let tcp = TcpIndex::build(&eg, &d.trussness);
        assert!(tcp.forest_edge_count() > eg.num_edges());
    }

    #[test]
    fn invalid_queries() {
        let eg = EdgeIndexedGraph::new(fixtures::clique(4).graph.clone());
        let d = decompose_serial(&eg);
        let tcp = TcpIndex::build(&eg, &d.trussness);
        assert!(tcp.query(&eg, &d.trussness, 0, 2).is_empty());
        assert!(tcp.query(&eg, &d.trussness, 42, 3).is_empty());
    }
}
