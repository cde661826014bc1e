//! Community retrieval from the EquiTruss index.
//!
//! A k-truss community containing q is exactly the union of the supernodes
//! reachable — through supernodes of trussness ≥ k — from a supernode that
//! holds an edge incident to q with trussness ≥ k (Akbas & Zhao's query
//! algorithm). Two engines compute it:
//!
//! * **Hierarchy** ([`query_communities`]) — the serving path. Each seed
//!   supernode resolves its community id by climbing the offline
//!   [`TrussHierarchy`] merge forest (near-O(α) per seed); the community's
//!   supernodes are then one contiguous leaf slice, and materialization is a
//!   mark-and-scan over the id domain
//!   ([`QueryScratch::for_each_sorted`]) — one bit set per member id, read
//!   back in order, no comparison sort. Count and size queries ([`count_communities`],
//!   [`community_stats`], [`edge_community_stats`]) touch no edges at all,
//!   and [`community_vertices`] marks endpoints straight off the leaf slice
//!   without building an edge list.
//! * **BFS** ([`query_communities_bfs`]) — the original trussness-filtered
//!   supergraph traversal, kept as the correctness oracle and as the
//!   fallback when no hierarchy has been built. It orders its answers with
//!   its own `sort_unstable`: an oracle must not share the code it checks.
//!
//! Both engines return byte-identical [`Community`] values and both track
//! visited/seed state in the epoch-stamped thread-local [`QueryScratch`] —
//! steady-state serving performs no heap allocation beyond the returned
//! communities themselves. The scratch is borrowed once, at the public entry
//! point, and passed down.

use crate::scratch::{with_scratch, QueryScratch};
use et_core::{SuperGraph, TrussHierarchy};
use et_graph::view::{edge_subgraph, Subgraph};
use et_graph::{EdgeId, EdgeIndexedGraph, VertexId};

/// One k-truss community of a query vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Community {
    /// The cohesion level of the query that produced this community.
    pub k: u32,
    /// The supernodes whose union forms the community (sorted).
    pub supernodes: Vec<u32>,
    /// All member edge ids (sorted).
    pub edges: Vec<EdgeId>,
}

impl Community {
    /// The distinct vertices spanned by the community's edges (sorted).
    pub fn vertices(&self, graph: &EdgeIndexedGraph) -> Vec<VertexId> {
        with_scratch(|scratch| {
            let edges = self.edges.iter().copied();
            sorted_endpoints(graph, edges, self.edges.len(), scratch)
        })
    }

    /// Materializes the community as a standalone subgraph with an id map
    /// back to the original graph.
    pub fn subgraph(&self, graph: &EdgeIndexedGraph) -> Subgraph {
        edge_subgraph(graph, &self.edges)
    }
}

/// Size metadata of one community, straight from the hierarchy's per-node
/// aggregates — no supernode or edge list is materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommunityStats {
    /// The community's canonical hierarchy node id.
    pub node: u32,
    /// Number of supernodes in the community.
    pub supernodes: u32,
    /// Number of member edges in the community.
    pub edges: u64,
}

impl CommunityStats {
    fn of(hierarchy: &TrussHierarchy, node: u32) -> CommunityStats {
        let (supernodes, edges) = hierarchy.stats(node);
        CommunityStats {
            node,
            supernodes,
            edges,
        }
    }
}

/// Resolves the distinct community representatives of `q` at level `k` into
/// `scratch.reps` (hierarchy node ids, in first-seen order). Returns the
/// number of eligible seed supernode sightings.
fn resolve_seed_reps(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    q: VertexId,
    k: u32,
    scratch: &mut QueryScratch,
) -> u64 {
    scratch.begin(hierarchy.num_nodes());
    let mut seeds = 0u64;
    let mut climbs = 0u64;
    for (_, e) in graph.neighbors_with_eids(q) {
        let Some(sn) = index.supernode_of(e) else {
            continue;
        };
        let (rep, steps) = hierarchy.resolve_steps(sn, k);
        climbs += steps;
        if let Some(rep) = rep {
            seeds += 1;
            if scratch.mark(rep) {
                scratch.reps.push(rep);
            }
        }
    }
    if et_obs::enabled() {
        et_obs::counter_add("query.seeds", seeds);
        et_obs::counter_add("query.hierarchy_climbs", climbs);
    }
    seeds
}

/// The member edge ids of hierarchy node `rep`, in leaf order.
fn member_edges<'a>(
    index: &'a SuperGraph,
    hierarchy: &'a TrussHierarchy,
    rep: u32,
) -> impl Iterator<Item = EdgeId> + 'a {
    let members = |&sn: &u32| index.members(sn).iter().copied();
    hierarchy.leaves(rep).iter().flat_map(members)
}

/// The distinct endpoints of the `edge_count` edges of a community, ascending.
fn sorted_endpoints(
    graph: &EdgeIndexedGraph,
    edges: impl Iterator<Item = EdgeId>,
    edge_count: usize,
    scratch: &mut QueryScratch,
) -> Vec<VertexId> {
    let endpoints = edges.flat_map(|e| {
        let (u, v) = graph.endpoints(e);
        [u, v]
    });
    // Every vertex of a k-truss community (k ≥ 3) has two member edges or more.
    let mut vertices = Vec::with_capacity(edge_count.min(graph.num_vertices()));
    scratch.for_each_sorted(graph.num_vertices(), endpoints, |v| vertices.push(v));
    vertices
}

/// Reads a hierarchy node's leaf slice out as an id-sorted [`Community`].
fn materialize(
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    rep: u32,
    k: u32,
    scratch: &mut QueryScratch,
) -> Community {
    let leaves = hierarchy.leaves(rep);
    let mut supernodes = Vec::with_capacity(leaves.len());
    scratch.for_each_sorted(index.num_supernodes(), leaves.iter().copied(), |sn| {
        supernodes.push(sn)
    });
    let (_, edge_count) = hierarchy.stats(rep);
    let mut edges: Vec<EdgeId> = Vec::with_capacity(edge_count as usize);
    scratch.for_each_sorted(
        index.edge_supernode.len(),
        member_edges(index, hierarchy, rep),
        |e| edges.push(e),
    );
    Community {
        k,
        supernodes,
        edges,
    }
}

/// Returns every k-truss community containing `q`, for `k ≥ 3`, resolved
/// through the truss hierarchy.
///
/// Communities are returned sorted by their smallest member edge id, so the
/// output is deterministic and byte-comparable across engines.
pub fn query_communities(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    q: VertexId,
    k: u32,
) -> Vec<Community> {
    if k < 3 || (q as usize) >= graph.num_vertices() {
        return Vec::new();
    }
    let _span = et_obs::span("Query").arg("k", u64::from(k));
    let mut communities = with_scratch(|scratch| {
        resolve_seed_reps(graph, index, hierarchy, q, k, scratch);
        (0..scratch.reps.len())
            .map(|i| materialize(index, hierarchy, scratch.reps[i], k, scratch))
            .collect::<Vec<_>>()
    });
    communities.sort_by_key(|c| c.edges.first().copied().unwrap_or(EdgeId::MAX));
    communities
}

/// The number of distinct k-truss communities containing `q` — resolved
/// entirely through hierarchy climbs and aggregates; no community is
/// materialized and nothing is allocated.
pub fn count_communities(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    q: VertexId,
    k: u32,
) -> usize {
    if k < 3 || (q as usize) >= graph.num_vertices() {
        return 0;
    }
    with_scratch(|scratch| {
        resolve_seed_reps(graph, index, hierarchy, q, k, scratch);
        scratch.reps.len()
    })
}

/// Size metadata for every k-truss community of `q`, from per-node
/// aggregates only (no edge lists). Sorted by hierarchy node id.
pub fn community_stats(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    q: VertexId,
    k: u32,
) -> Vec<CommunityStats> {
    if k < 3 || (q as usize) >= graph.num_vertices() {
        return Vec::new();
    }
    let mut stats = with_scratch(|scratch| {
        resolve_seed_reps(graph, index, hierarchy, q, k, scratch);
        scratch
            .reps
            .iter()
            .map(|&node| CommunityStats::of(hierarchy, node))
            .collect::<Vec<_>>()
    });
    stats.sort_unstable_by_key(|s| s.node);
    stats
}

/// The vertex set of every k-truss community of `q`, each ascending —
/// `query_communities(..)[i].vertices(graph)` for every `i`, in that order,
/// with endpoints marked straight off the hierarchy's leaf slices: no edge
/// list is built or ordered on the way.
pub fn community_vertices(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    q: VertexId,
    k: u32,
) -> Vec<Vec<VertexId>> {
    if k < 3 || (q as usize) >= graph.num_vertices() {
        return Vec::new();
    }
    with_scratch(|scratch| {
        resolve_seed_reps(graph, index, hierarchy, q, k, scratch);
        // `query_communities` orders its answer by smallest member edge id:
        // each list goes where its community's smallest id, seen while
        // marking and kept in `scratch.queue`, puts it.
        let mut communities = Vec::with_capacity(scratch.reps.len());
        for i in 0..scratch.reps.len() {
            let rep = scratch.reps[i];
            let mut smallest = EdgeId::MAX;
            let edges =
                member_edges(index, hierarchy, rep).inspect(|&e| smallest = smallest.min(e));
            let (_, edge_count) = hierarchy.stats(rep);
            let vertices = sorted_endpoints(graph, edges, edge_count as usize, scratch);
            let at = scratch.queue.partition_point(|&seen| seen < smallest);
            scratch.queue.insert(at, smallest);
            communities.insert(at, vertices);
        }
        communities
    })
}

/// [`query_communities`] computed by the original trussness-filtered BFS
/// over the supergraph — the correctness oracle for the hierarchy engine,
/// and the query path when no hierarchy is at hand. Visited tracking uses
/// the thread-local scratch (seed dedup falls out of the visited set; no
/// sort/dedup pass).
pub fn query_communities_bfs(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    q: VertexId,
    k: u32,
) -> Vec<Community> {
    if k < 3 || (q as usize) >= graph.num_vertices() {
        return Vec::new();
    }
    let _span = et_obs::span("QueryBfs").arg("k", u64::from(k));
    let mut communities = with_scratch(|scratch| {
        scratch.begin(index.num_supernodes());
        let mut communities = Vec::new();
        let mut seeds = 0u64;
        let mut superedges_scanned = 0u64;
        for (_, e) in graph.neighbors_with_eids(q) {
            let Some(seed) = index.supernode_of(e) else {
                continue;
            };
            if index.trussness(seed) < k {
                continue;
            }
            seeds += 1;
            if !scratch.mark(seed) {
                continue;
            }
            communities.push(bfs_component(
                index,
                seed,
                k,
                scratch,
                &mut superedges_scanned,
            ));
        }
        if et_obs::enabled() {
            et_obs::counter_add("query.seeds", seeds);
            et_obs::counter_add(
                "query.supernodes_visited",
                communities.iter().map(|c| c.supernodes.len() as u64).sum(),
            );
            et_obs::counter_add("query.superedges_scanned", superedges_scanned);
        }
        communities
    });
    for c in &mut communities {
        c.k = k;
    }
    communities.sort_by_key(|c| c.edges.first().copied().unwrap_or(EdgeId::MAX));
    communities
}

/// Collects the trussness-≥-k component of `seed` (already marked) using the
/// scratch worklist; returns it as a sorted community with `k` left 0 for
/// the caller to fill.
fn bfs_component(
    index: &SuperGraph,
    seed: u32,
    k: u32,
    scratch: &mut QueryScratch,
    superedges_scanned: &mut u64,
) -> Community {
    scratch.queue.clear();
    scratch.queue.push(seed);
    let mut supernodes = Vec::new();
    while let Some(sn) = scratch.queue.pop() {
        supernodes.push(sn);
        *superedges_scanned += index.neighbors(sn).len() as u64;
        for &nb in index.neighbors(sn) {
            if index.trussness(nb) >= k && scratch.mark(nb) {
                scratch.queue.push(nb);
            }
        }
    }
    supernodes.sort_unstable();
    let mut edges: Vec<EdgeId> = supernodes
        .iter()
        .flat_map(|&sn| index.members(sn).iter().copied())
        .collect();
    edges.sort_unstable();
    Community {
        k: 0,
        supernodes,
        edges,
    }
}

/// The hierarchy node of the k-truss community that holds edge `e` at level
/// `k`, if the edge belongs to one (τ(e) ≥ k ≥ 3).
fn resolve_edge(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    e: EdgeId,
    k: u32,
) -> Option<u32> {
    if k < 3 || (e as usize) >= graph.num_edges() {
        return None;
    }
    let seed = index.supernode_of(e)?;
    let (rep, climbs) = hierarchy.resolve_steps(seed, k);
    et_obs::counter_add("query.hierarchy_climbs", climbs);
    rep
}

/// The k-truss community containing a specific *edge* at level `k`, if the
/// edge belongs to one (τ(e) ≥ k ≥ 3), resolved through the hierarchy.
/// Edge-centric queries are the natural primitive when the "entity of
/// interest" is a relationship rather than a vertex.
pub fn community_of_edge(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    e: EdgeId,
    k: u32,
) -> Option<Community> {
    let rep = resolve_edge(graph, index, hierarchy, e, k)?;
    Some(with_scratch(|scratch| {
        materialize(index, hierarchy, rep, k, scratch)
    }))
}

/// Size metadata of the community [`community_of_edge`] would return — one
/// climb and one aggregate lookup, nothing materialized.
pub fn edge_community_stats(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    e: EdgeId,
    k: u32,
) -> Option<CommunityStats> {
    resolve_edge(graph, index, hierarchy, e, k).map(|node| CommunityStats::of(hierarchy, node))
}

/// The communities of `q` at its personal maximum cohesion level — "the
/// tightest circles this vertex belongs to". Empty if q touches no
/// trussness-≥3 edge.
pub fn strongest_communities(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    hierarchy: &TrussHierarchy,
    q: VertexId,
) -> Vec<Community> {
    match max_query_level(graph, index, q) {
        Some(k) => query_communities(graph, index, hierarchy, q, k),
        None => Vec::new(),
    }
}

/// The largest k for which `q` participates in any k-truss community
/// (i.e. the maximum trussness over q's incident edges), or `None` if q has
/// no edge of trussness ≥ 3.
pub fn max_query_level(graph: &EdgeIndexedGraph, index: &SuperGraph, q: VertexId) -> Option<u32> {
    if (q as usize) >= graph.num_vertices() {
        return None;
    }
    graph
        .neighbors_with_eids(q)
        .filter_map(|(_, e)| index.supernode_of(e))
        .map(|sn| index.trussness(sn))
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use et_core::{build_original, SuperGraph};
    use et_gen::fixtures;
    use et_truss::decompose_serial;

    fn setup(graph: et_graph::CsrGraph) -> (EdgeIndexedGraph, SuperGraph, TrussHierarchy) {
        let eg = EdgeIndexedGraph::new(graph);
        let tau = decompose_serial(&eg).trussness;
        let idx = build_original(&eg, &tau);
        let h = TrussHierarchy::build(&idx);
        (eg, idx, h)
    }

    /// Hierarchy path, asserted byte-identical to the BFS oracle.
    fn query_checked(
        eg: &EdgeIndexedGraph,
        idx: &SuperGraph,
        h: &TrussHierarchy,
        q: u32,
        k: u32,
    ) -> Vec<Community> {
        let fast = query_communities(eg, idx, h, q, k);
        assert_eq!(
            fast,
            query_communities_bfs(eg, idx, q, k),
            "engines disagree at q={q} k={k}"
        );
        assert_eq!(fast.len(), count_communities(eg, idx, h, q, k));
        let vertices: Vec<_> = fast.iter().map(|c| c.vertices(eg)).collect();
        assert_eq!(community_vertices(eg, idx, h, q, k), vertices);
        let stats = community_stats(eg, idx, h, q, k);
        for c in &fast {
            assert!(stats
                .iter()
                .any(|s| s.supernodes as usize == c.supernodes.len()
                    && s.edges as usize == c.edges.len()));
        }
        fast
    }

    #[test]
    fn paper_example_vertex0_k4() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        // Vertex 0 at k = 4: its 4-truss community is ν1 ∪ ν3 if they are
        // connected via trussness ≥ 4 supernodes. ν1 and ν3 are only
        // connected through ν0/ν2 (k = 3), so they are separate communities —
        // but only ν1 contains an edge incident to vertex 0.
        let cs = query_checked(&eg, &idx, &h, 0, 4);
        assert_eq!(cs.len(), 1);
        let vs = cs[0].vertices(&eg);
        assert_eq!(vs, vec![0, 1, 2, 3]);
        assert_eq!(cs[0].edges.len(), 6);
    }

    #[test]
    fn paper_example_vertex5_k4_reaches_k5_clique() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        // Vertex 5's edges at trussness ≥ 4 live in ν3 (k=4); ν3 has a
        // superedge to ν4 (k=5 ≥ 4), so the community is ν3 ∪ ν4.
        let cs = query_checked(&eg, &idx, &h, 5, 4);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].edges.len(), 8 + 10);
        let vs = cs[0].vertices(&eg);
        assert_eq!(vs, vec![3, 4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn paper_example_vertex2_k3_is_whole_graph() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        // At k = 3 everything is triangle-connected through ν0/ν2.
        let cs = query_checked(&eg, &idx, &h, 2, 3);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].edges.len(), 27);
    }

    #[test]
    fn vertex_with_no_truss_edges() {
        let (eg, idx, h) = setup(fixtures::bipartite(3, 3).graph.clone());
        assert!(query_checked(&eg, &idx, &h, 0, 3).is_empty());
        assert_eq!(max_query_level(&eg, &idx, 0), None);
    }

    #[test]
    fn k_above_max_returns_empty() {
        let (eg, idx, h) = setup(fixtures::clique(5).graph.clone());
        assert!(query_checked(&eg, &idx, &h, 0, 6).is_empty());
        assert_eq!(query_checked(&eg, &idx, &h, 0, 5).len(), 1);
        assert_eq!(max_query_level(&eg, &idx, 0), Some(5));
    }

    #[test]
    fn invalid_inputs() {
        let (eg, idx, h) = setup(fixtures::clique(4).graph.clone());
        assert!(query_communities(&eg, &idx, &h, 0, 2).is_empty());
        assert!(query_communities(&eg, &idx, &h, 99, 3).is_empty());
        assert_eq!(count_communities(&eg, &idx, &h, 0, 2), 0);
        assert_eq!(count_communities(&eg, &idx, &h, 99, 3), 0);
        assert!(community_stats(&eg, &idx, &h, 0, 2).is_empty());
        assert_eq!(max_query_level(&eg, &idx, 99), None);
    }

    #[test]
    fn overlapping_membership() {
        // Two K4s sharing vertex 0 but no edge: vertex 0 belongs to two
        // distinct 4-truss communities (the overlap of Figure 1, right).
        let mut edges = Vec::new();
        for c in [[0u32, 1, 2, 3], [0, 4, 5, 6]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((c[i].min(c[j]), c[i].max(c[j])));
                }
            }
        }
        let (eg, idx, h) = setup(et_graph::GraphBuilder::from_edges(7, &edges).build());
        let cs = query_checked(&eg, &idx, &h, 0, 4);
        assert_eq!(
            cs.len(),
            2,
            "vertex 0 must be in two overlapping communities"
        );
        for c in &cs {
            assert_eq!(c.edges.len(), 6);
            assert!(c.vertices(&eg).contains(&0));
        }
    }

    #[test]
    fn edge_query_matches_vertex_query() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        // Edge (6,7) lives in the K5; its community at k = 4 must equal the
        // k = 4 community found from vertex 6.
        let e = eg.edge_id(6, 7).unwrap();
        let ec = community_of_edge(&eg, &idx, &h, e, 4).unwrap();
        let vc = query_communities(&eg, &idx, &h, 6, 4);
        assert!(vc.iter().any(|c| c.edges == ec.edges));
        // Below its trussness class nothing changes; above, None.
        assert!(community_of_edge(&eg, &idx, &h, e, 5).is_some());
        assert!(community_of_edge(&eg, &idx, &h, e, 6).is_none());
        assert!(community_of_edge(&eg, &idx, &h, e, 2).is_none());
        assert!(community_of_edge(&eg, &idx, &h, 9999, 3).is_none());
    }

    #[test]
    fn strongest_communities_use_max_level() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        let best = strongest_communities(&eg, &idx, &h, 6);
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].k, 5);
        assert_eq!(best[0].edges.len(), 10);
        // Truss-free vertex: empty.
        let (eg2, idx2, h2) = setup(fixtures::bipartite(3, 3).graph.clone());
        assert!(strongest_communities(&eg2, &idx2, &h2, 0).is_empty());
    }

    #[test]
    fn community_subgraph_roundtrip() {
        let (eg, idx, h) = setup(fixtures::clique(5).graph.clone());
        let cs = query_checked(&eg, &idx, &h, 0, 5);
        let sub = cs[0].subgraph(&eg);
        assert_eq!(sub.graph.num_vertices(), 5);
        assert_eq!(sub.graph.num_edges(), 10);
    }

    /// A caller that holds the thread's scratch (`with_scratch` is public)
    /// may still query and read answers: the inner calls get a temporary.
    #[test]
    fn queries_and_vertices_while_the_scratch_is_held() {
        let (eg, idx, h) = setup(fixtures::paper_example().graph.clone());
        let outside = query_checked(&eg, &idx, &h, 5, 4);
        with_scratch(|_held| {
            let inside = query_communities(&eg, &idx, &h, 5, 4);
            assert_eq!(inside, outside);
            assert_eq!(inside[0].vertices(&eg), vec![3, 4, 5, 6, 7, 8, 9, 10]);
            assert_eq!(inside[0].subgraph(&eg).graph.num_edges(), 18);
            assert_eq!(
                community_vertices(&eg, &idx, &h, 5, 4),
                vec![inside[0].vertices(&eg)]
            );
        });
    }

    /// Sparse noise on 300 vertices plus one triangle on the first, middle
    /// and last vertex: answers of a few edges whose ids lie as far apart as
    /// the graph allows, next to dense ones.
    #[test]
    fn engines_and_brute_force_agree_on_dense_and_spread_out_answers() {
        use crate::ground_truth::brute_force_communities;
        const N: u32 = 300;
        et_gen::cases::cases("spread_out_answers", 10, |rng, size| {
            let mut b = et_graph::GraphBuilder::new(N as usize);
            let noise = et_gen::cases::id_pairs(rng, size, N, 8..1200);
            let spread = [(0, N / 2), (0, N - 1), (N / 2, N - 1)];
            for (u, v) in noise.into_iter().chain(spread) {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            let eg = EdgeIndexedGraph::new(b.build());
            let tau = decompose_serial(&eg).trussness;
            let idx = build_original(&eg, &tau);
            let h = TrussHierarchy::build(&idx);
            let kmax = tau.iter().copied().max().unwrap_or(3);
            for q in 0..N {
                for k in 3..=kmax + 1 {
                    let fast = query_checked(&eg, &idx, &h, q, k);
                    let brute = brute_force_communities(&eg, &tau, q, k);
                    let edges: Vec<_> = fast.iter().map(|c| c.edges.clone()).collect();
                    assert_eq!(edges, brute, "hierarchy vs brute force at q={q} k={k}");
                    for c in &fast {
                        let ends = |&e: &EdgeId| <[u32; 2]>::from(eg.endpoints(e));
                        let mut want: Vec<_> = c.edges.iter().flat_map(ends).collect();
                        want.sort_unstable();
                        want.dedup();
                        assert_eq!(c.vertices(&eg), want, "vertices at q={q} k={k}");
                    }
                    assert!(with_scratch(|s| s.bitmap_is_clear()), "q={q} k={k}");
                }
            }
        });
    }

    #[test]
    fn engines_agree_across_all_queries_on_fixtures() {
        for f in fixtures::all_fixtures() {
            let (eg, idx, h) = setup(f.graph.clone());
            let kmax = idx.sn_trussness.iter().copied().max().unwrap_or(3);
            for q in 0..eg.num_vertices() as u32 {
                for k in 3..=kmax + 1 {
                    query_checked(&eg, &idx, &h, q, k);
                }
            }
        }
    }
}
