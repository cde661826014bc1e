//! Hand-verified fixtures with known truss decompositions.
//!
//! These graphs anchor the test suite to externally-derived ground truth
//! rather than to our own implementations. The centerpiece is
//! [`paper_example`], the 11-vertex graph of Figure 3 in the ICPP 2023 paper
//! (originally Akbas & Zhao's EquiTruss running example), for which the paper
//! prints the full supernode/superedge structure.

use et_graph::{CsrGraph, GraphBuilder, VertexId};

/// A fixture: a graph plus its expected per-edge trussness.
#[derive(Clone, Debug)]
pub struct TrussFixture {
    /// Human-readable fixture name.
    pub name: &'static str,
    /// The graph.
    pub graph: CsrGraph,
    /// `(u, v, trussness)` for every edge, with `u < v`.
    pub trussness: Vec<(VertexId, VertexId, u32)>,
}

impl TrussFixture {
    /// Expected trussness of edge `{u, v}`.
    ///
    /// # Panics
    /// Panics if the edge is not part of the fixture.
    pub fn expected(&self, u: VertexId, v: VertexId) -> u32 {
        let (a, b) = (u.min(v), u.max(v));
        self.trussness
            .iter()
            .find(|&&(x, y, _)| (x, y) == (a, b))
            .map(|&(_, _, k)| k)
            .unwrap_or_else(|| panic!("edge ({a},{b}) not in fixture {}", self.name))
    }
}

/// The paper's Figure 3 example graph (11 vertices, 27 edges).
///
/// Expected summary structure (hand-checked against the paper):
///
/// * ν0 (k=3): {(0,4)}
/// * ν1 (k=4): {(0,1),(0,2),(0,3),(1,2),(1,3),(2,3)} — the 4-clique {0,1,2,3}
/// * ν2 (k=3): {(2,6),(2,8)}
/// * ν3 (k=4): {(3,4),(3,5),(3,6),(4,5),(4,6),(5,6),(5,7),(5,10)}
/// * ν4 (k=5): the 5-clique {6,7,8,9,10}
///
/// and six superedges: (ν0,ν1), (ν0,ν3), (ν2,ν1), (ν2,ν3), (ν2,ν4), (ν3,ν4).
pub fn paper_example() -> TrussFixture {
    let trussness: Vec<(VertexId, VertexId, u32)> = vec![
        // ν1: 4-clique {0,1,2,3}
        (0, 1, 4),
        (0, 2, 4),
        (0, 3, 4),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
        // ν0: pendant triangle edge
        (0, 4, 3),
        // ν2: bridge edges into the 5-clique
        (2, 6, 3),
        (2, 8, 3),
        // ν3: 4-clique {3,4,5,6} plus the K4 {5,6,7,10} spokes at vertex 5
        (3, 4, 4),
        (3, 5, 4),
        (3, 6, 4),
        (4, 5, 4),
        (4, 6, 4),
        (5, 6, 4),
        (5, 7, 4),
        (5, 10, 4),
        // ν4: 5-clique {6,7,8,9,10}
        (6, 7, 5),
        (6, 8, 5),
        (6, 9, 5),
        (6, 10, 5),
        (7, 8, 5),
        (7, 9, 5),
        (7, 10, 5),
        (8, 9, 5),
        (8, 10, 5),
        (9, 10, 5),
    ];
    let edges: Vec<(VertexId, VertexId)> = trussness.iter().map(|&(u, v, _)| (u, v)).collect();
    TrussFixture {
        name: "paper_example",
        graph: GraphBuilder::from_edges(11, &edges).build(),
        trussness,
    }
}

/// Expected supernode partition of [`paper_example`]: one `Vec` of edges per
/// supernode, each edge as `(u, v)` with `u < v`, supernodes in the paper's
/// ν0..ν4 order.
pub fn paper_example_supernodes() -> Vec<(u32, Vec<(VertexId, VertexId)>)> {
    vec![
        (3, vec![(0, 4)]),
        (4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        (3, vec![(2, 6), (2, 8)]),
        (
            4,
            vec![
                (3, 4),
                (3, 5),
                (3, 6),
                (4, 5),
                (4, 6),
                (5, 6),
                (5, 7),
                (5, 10),
            ],
        ),
        (
            5,
            vec![
                (6, 7),
                (6, 8),
                (6, 9),
                (6, 10),
                (7, 8),
                (7, 9),
                (7, 10),
                (8, 9),
                (8, 10),
                (9, 10),
            ],
        ),
    ]
}

/// Expected superedges of [`paper_example`], as unordered pairs of indices
/// into [`paper_example_supernodes`].
pub fn paper_example_superedges() -> Vec<(usize, usize)> {
    vec![(0, 1), (0, 3), (2, 1), (2, 3), (2, 4), (3, 4)]
}

/// Complete graph K_k: every edge has trussness exactly `k`.
pub fn clique(k: usize) -> TrussFixture {
    let mut edges = Vec::new();
    for u in 0..k as VertexId {
        for v in (u + 1)..k as VertexId {
            edges.push((u, v, k as u32));
        }
    }
    TrussFixture {
        name: "clique",
        graph: GraphBuilder::from_edges(
            k,
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        )
        .build(),
        trussness: edges,
    }
}

/// Two K5s sharing a single edge: the shared edge still has trussness 5
/// (it is in both cliques, support 6 but each clique alone sustains it at 5;
/// there is no 6-truss). Every edge has trussness 5.
pub fn two_cliques_shared_edge() -> TrussFixture {
    // Clique A: {0,1,2,3,4}; clique B: {3,4,5,6,7}; shared edge (3,4).
    let mut edges = Vec::new();
    for c in [[0u32, 1, 2, 3, 4], [3, 4, 5, 6, 7]] {
        for i in 0..5 {
            for j in (i + 1)..5 {
                let (u, v) = (c[i].min(c[j]), c[i].max(c[j]));
                if !edges.contains(&(u, v, 5)) {
                    edges.push((u, v, 5));
                }
            }
        }
    }
    TrussFixture {
        name: "two_cliques_shared_edge",
        graph: GraphBuilder::from_edges(
            8,
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        )
        .build(),
        trussness: edges,
    }
}

/// A path of `len` triangles glued edge-to-edge ("triangle strip"): vertices
/// 0..len+2, triangle i = {i, i+1, i+2}. Interior edges lie in two triangles,
/// boundary edges in one, but the 4-truss requires support 2 *within* the
/// subgraph, which the strip cannot sustain (peeling the boundary unravels
/// it), so every edge has trussness 3.
pub fn triangle_strip(len: usize) -> TrussFixture {
    assert!(len >= 1);
    let mut edges = Vec::new();
    for i in 0..len as VertexId {
        for &(a, b) in &[(i, i + 1), (i, i + 2), (i + 1, i + 2)] {
            if !edges.contains(&(a, b, 3)) {
                edges.push((a, b, 3));
            }
        }
    }
    TrussFixture {
        name: "triangle_strip",
        graph: GraphBuilder::from_edges(
            len + 2,
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        )
        .build(),
        trussness: edges,
    }
}

/// A triangle-free graph (complete bipartite K_{a,b}): all edges trussness 2.
pub fn bipartite(a: usize, b: usize) -> TrussFixture {
    let mut edges = Vec::new();
    for u in 0..a as VertexId {
        for v in 0..b as VertexId {
            edges.push((u, a as VertexId + v, 2));
        }
    }
    TrussFixture {
        name: "bipartite",
        graph: GraphBuilder::from_edges(
            a + b,
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        )
        .build(),
        trussness: edges,
    }
}

/// A chain of `count` disjoint K`size` cliques connected by single bridge
/// edges (bridge edges have trussness 2; clique edges trussness `size`).
pub fn clique_chain(count: usize, size: usize) -> TrussFixture {
    assert!(size >= 2 && count >= 1);
    let mut edges = Vec::new();
    for c in 0..count {
        let base = (c * size) as VertexId;
        for i in 0..size as VertexId {
            for j in (i + 1)..size as VertexId {
                edges.push((base + i, base + j, size as u32));
            }
        }
        if c + 1 < count {
            // Bridge from the last vertex of this clique to the first of next.
            edges.push((base + size as VertexId - 1, base + size as VertexId, 2));
        }
    }
    TrussFixture {
        name: "clique_chain",
        graph: GraphBuilder::from_edges(
            count * size,
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        )
        .build(),
        trussness: edges,
    }
}

/// A K`core` on vertices `0..core` with shells of leaves hung on it: each of
/// a shell's `count` leaves is adjacent to the first `attach` core vertices
/// (`attach < core`), closing a K`attach+1` nested inside the core's vertex
/// set. A leaf edge lies in `attach − 1` triangles, all inside that clique, so
/// its trussness is `attach + 1`; no leaf edge can sustain more, so core edges
/// keep trussness `core`. The first core vertices are hubs whose rows are
/// mostly leaves of lower trussness than the core — the shape on which the
/// peel and SpNode drop dead arcs from their rows, one shell at a time.
pub fn nested_cliques(core: usize, shells: &[(usize, usize)]) -> TrussFixture {
    let mut edges = Vec::new();
    for u in 0..core as VertexId {
        for v in (u + 1)..core as VertexId {
            edges.push((u, v, core as u32));
        }
    }
    let mut leaf = core as VertexId;
    for &(count, attach) in shells {
        assert!(attach < core, "a leaf on the whole core would grow it");
        for _ in 0..count {
            for c in 0..attach as VertexId {
                edges.push((c, leaf, attach as u32 + 1));
            }
            leaf += 1;
        }
    }
    TrussFixture {
        name: "nested_cliques",
        graph: GraphBuilder::from_edges(
            leaf as usize,
            &edges.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        )
        .build(),
        trussness: edges,
    }
}

/// All fixtures with complete expected trussness, for table-driven tests.
pub fn all_fixtures() -> Vec<TrussFixture> {
    vec![
        paper_example(),
        clique(4),
        clique(7),
        two_cliques_shared_edge(),
        triangle_strip(6),
        bipartite(3, 4),
        clique_chain(3, 5),
        // Each shell is over a quarter of what the shells before it leave.
        nested_cliques(16, &[(50, 2), (20, 4), (10, 8)]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        let f = paper_example();
        assert_eq!(f.graph.num_vertices(), 11);
        assert_eq!(f.graph.num_edges(), 27);
        assert_eq!(f.trussness.len(), 27);
        assert!(f.graph.validate().is_ok());
    }

    #[test]
    fn paper_supernodes_cover_all_edges() {
        let f = paper_example();
        let sns = paper_example_supernodes();
        let total: usize = sns.iter().map(|(_, es)| es.len()).sum();
        assert_eq!(total, f.graph.num_edges());
        // Every supernode member's expected trussness matches the supernode k.
        for (k, edges) in &sns {
            for &(u, v) in edges {
                assert_eq!(f.expected(u, v), *k);
            }
        }
    }

    #[test]
    fn fixtures_are_consistent() {
        for f in all_fixtures() {
            assert_eq!(
                f.trussness.len(),
                f.graph.num_edges(),
                "fixture {} trussness table incomplete",
                f.name
            );
            for &(u, v, _) in &f.trussness {
                assert!(u < v, "fixture {} edge not canonical", f.name);
                assert!(f.graph.has_edge(u, v), "fixture {} missing edge", f.name);
            }
        }
    }

    #[test]
    fn expected_lookup_symmetric() {
        let f = paper_example();
        assert_eq!(f.expected(4, 0), 3);
        assert_eq!(f.expected(0, 4), 3);
        assert_eq!(f.expected(9, 10), 5);
    }

    #[test]
    #[should_panic(expected = "not in fixture")]
    fn expected_missing_edge_panics() {
        paper_example().expected(0, 10);
    }
}
