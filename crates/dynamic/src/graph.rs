//! Adjacency-list graph with stable, recycled edge ids.

use et_graph::{CsrGraph, EdgeId, EdgeIndexedGraph, VertexId};
use std::fmt;

/// The u32 id space is exhausted: assigning one more vertex or edge id
/// would collide with the reserved `u32::MAX` sentinel or wrap around.
///
/// Returned by the checked mutators ([`DynamicGraph::try_insert_edge`],
/// [`DynamicGraph::try_ensure_vertices`]); the unchecked variants panic
/// with this error's message instead of silently truncating the id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityError {
    kind: &'static str,
    requested: usize,
}

impl CapacityError {
    /// Which id space overflowed: `"edge"` or `"vertex"`.
    pub fn kind(&self) -> &'static str {
        self.kind
    }
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} id space exhausted: id {} does not fit in u32 \
             (u32::MAX is reserved as a sentinel)",
            self.kind, self.requested
        )
    }
}

impl std::error::Error for CapacityError {}

/// The next fresh edge id for a graph with `capacity` id slots, or an error
/// if it would reach the `u32::MAX` sentinel. Checked *before* any slot is
/// allocated, so the boundary is exact.
fn next_edge_id(capacity: usize) -> Result<EdgeId, CapacityError> {
    if capacity >= EdgeId::MAX as usize {
        return Err(CapacityError {
            kind: "edge",
            requested: capacity,
        });
    }
    Ok(capacity as EdgeId)
}

/// Validates a vertex-set size: ids `0..n` must stay clear of the
/// `VertexId::MAX` dead-slot sentinel.
fn check_vertex_count(n: usize) -> Result<(), CapacityError> {
    if n > VertexId::MAX as usize {
        return Err(CapacityError {
            kind: "vertex",
            requested: n - 1,
        });
    }
    Ok(())
}

/// A mutable simple undirected graph whose edge ids survive updates.
///
/// Neighbor lists are kept sorted by neighbor id, so the rows are a CSR
/// waiting to be concatenated ([`DynamicGraph::to_indexed`]). Deleted edge
/// ids go to a free list and may be reused by later insertions; id slots of
/// deleted edges report no endpoints.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    adj: Vec<Vec<(VertexId, EdgeId)>>,
    endpoints: Vec<(VertexId, VertexId)>,
    free: Vec<EdgeId>,
    num_edges: usize,
}

/// Sentinel endpoint for dead edge-id slots.
const DEAD: (VertexId, VertexId) = (VertexId::MAX, VertexId::MAX);

impl DynamicGraph {
    /// An empty dynamic graph on `n` vertices.
    ///
    /// # Panics
    /// Panics if `n` exceeds the `u32` vertex-id space.
    pub fn new(n: usize) -> Self {
        if let Err(e) = check_vertex_count(n) {
            panic!("{e}");
        }
        DynamicGraph {
            adj: vec![Vec::new(); n],
            endpoints: Vec::new(),
            free: Vec::new(),
            num_edges: 0,
        }
    }

    /// Imports a static indexed graph; dynamic edge ids equal the CSR ids.
    pub fn from_indexed(graph: &EdgeIndexedGraph) -> Self {
        let n = graph.num_vertices();
        let mut adj: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); n];
        for u in 0..n as VertexId {
            adj[u as usize] = graph.neighbors_with_eids(u).collect();
        }
        DynamicGraph {
            adj,
            endpoints: graph.endpoint_table().to_vec(),
            free: Vec::new(),
            num_edges: graph.num_edges(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Grows the vertex set to at least `n` vertices (new vertices are
    /// isolated). Existing ids are unaffected.
    ///
    /// # Panics
    /// Panics if `n` exceeds the `u32` vertex-id space (use
    /// [`DynamicGraph::try_ensure_vertices`] to handle it).
    pub fn ensure_vertices(&mut self, n: usize) {
        if let Err(e) = self.try_ensure_vertices(n) {
            panic!("{e}");
        }
    }

    /// Like [`DynamicGraph::ensure_vertices`], but reports an id-space
    /// overflow instead of panicking. Checked before any allocation.
    pub fn try_ensure_vertices(&mut self, n: usize) -> Result<(), CapacityError> {
        check_vertex_count(n)?;
        if n > self.adj.len() {
            self.adj.resize(n, Vec::new());
        }
        Ok(())
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Size of the edge-id space (live + recycled slots); arrays indexed by
    /// edge id must have this length.
    pub fn edge_capacity(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether edge id `e` is live.
    pub fn is_live(&self, e: EdgeId) -> bool {
        (e as usize) < self.endpoints.len() && self.endpoints[e as usize] != DEAD
    }

    /// Endpoints of live edge `e`.
    ///
    /// # Panics
    /// Panics if `e` is dead or out of range.
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let ep = self.endpoints[e as usize];
        assert!(ep != DEAD, "edge id {e} is dead");
        ep
    }

    /// Sorted `(neighbor, edge id)` list of `u`.
    pub fn neighbors(&self, u: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[u as usize]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: VertexId) -> usize {
        self.adj[u as usize].len()
    }

    /// Edge id of `{u, v}` if present.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if (u as usize) >= self.adj.len() || (v as usize) >= self.adj.len() {
            return None;
        }
        let row = &self.adj[u as usize];
        row.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|i| row[i].1)
    }

    /// Inserts `{u, v}`; returns the assigned edge id, or `None` if the edge
    /// already exists or is a self-loop.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, or if the edge-id space is
    /// exhausted (use [`DynamicGraph::try_insert_edge`] to handle the
    /// latter).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        match self.try_insert_edge(u, v) {
            Ok(e) => e,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`DynamicGraph::insert_edge`], but reports edge-id-space
    /// exhaustion instead of panicking (ids were previously truncated by an
    /// unchecked `as u32` cast once the slot count passed `u32::MAX`).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn try_insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
    ) -> Result<Option<EdgeId>, CapacityError> {
        assert!(
            (u as usize) < self.adj.len() && (v as usize) < self.adj.len(),
            "endpoint out of range"
        );
        if u == v || self.edge_id(u, v).is_some() {
            return Ok(None);
        }
        let e = match self.free.pop() {
            Some(id) => {
                self.endpoints[id as usize] = (u.min(v), u.max(v));
                id
            }
            None => {
                let id = next_edge_id(self.endpoints.len())?;
                self.endpoints.push((u.min(v), u.max(v)));
                id
            }
        };
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.adj[a as usize];
            let pos = row.partition_point(|&(w, _)| w < b);
            row.insert(pos, (b, e));
        }
        self.num_edges += 1;
        Ok(Some(e))
    }

    /// Removes `{u, v}`; returns its (now recycled) edge id if it existed.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let e = self.edge_id(u, v)?;
        for (a, b) in [(u, v), (v, u)] {
            let row = &mut self.adj[a as usize];
            let pos = row
                .binary_search_by_key(&b, |&(w, _)| w)
                .expect("edge present in both rows");
            row.remove(pos);
        }
        self.endpoints[e as usize] = DEAD;
        self.free.push(e);
        self.num_edges -= 1;
        Some(e)
    }

    /// Iterates live `(eid, u, v)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .filter(|&(_, &ep)| ep != DEAD)
            .map(|(e, &(u, v))| (e as EdgeId, u, v))
    }

    /// Materializes the current graph as a static CSR plus the mapping from
    /// CSR edge ids to this graph's stable ids.
    ///
    /// One sweep over the rows: they are sorted, so concatenating them is the
    /// CSR, and the forward arcs (`u < v`) in row order are the lexicographic
    /// order [`EdgeIndexedGraph`] numbers edges in.
    pub fn to_indexed(&self) -> (EdgeIndexedGraph, Vec<EdgeId>) {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut neighbors = Vec::with_capacity(2 * self.num_edges);
        let mut map = Vec::with_capacity(self.num_edges);
        offsets.push(0);
        for (u, row) in self.adj.iter().enumerate() {
            for &(v, e) in row {
                neighbors.push(v);
                if (u as VertexId) < v {
                    map.push(e);
                }
            }
            offsets.push(neighbors.len());
        }
        let csr = CsrGraph::try_from_raw(offsets, neighbors)
            .expect("rows are sorted, loop-free and symmetric");
        (EdgeIndexedGraph::new(csr), map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = DynamicGraph::new(4);
        let e01 = g.insert_edge(0, 1).unwrap();
        let e12 = g.insert_edge(1, 2).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_id(1, 0), Some(e01));
        assert!(g.insert_edge(0, 1).is_none()); // duplicate
        assert!(g.insert_edge(2, 2).is_none()); // self-loop

        assert_eq!(g.remove_edge(0, 1), Some(e01));
        assert!(!g.is_live(e01));
        assert!(g.is_live(e12));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.remove_edge(0, 1), None);

        // Freed id is recycled.
        let e03 = g.insert_edge(0, 3).unwrap();
        assert_eq!(e03, e01);
        assert_eq!(g.endpoints(e03), (0, 3));
    }

    #[test]
    fn stable_ids_under_churn() {
        let mut g = DynamicGraph::new(10);
        let kept = g.insert_edge(4, 7).unwrap();
        for i in 0..9u32 {
            g.insert_edge(i, i + 1);
        }
        for i in 0..9u32 {
            g.remove_edge(i, i + 1);
        }
        assert_eq!(g.endpoints(kept), (4, 7));
        assert_eq!(g.edge_id(7, 4), Some(kept));
    }

    #[test]
    fn to_indexed_roundtrip() {
        let mut g = DynamicGraph::new(5);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        g.insert_edge(0, 2);
        g.remove_edge(1, 2);
        g.insert_edge(3, 4);
        let (csr, map) = g.to_indexed();
        assert_eq!(csr.num_edges(), 3);
        for (csr_eid, u, v) in csr.edges() {
            assert_eq!(g.endpoints(map[csr_eid as usize]), (u, v));
        }
    }

    /// The construction `to_indexed` replaced: re-sort the live edges in a
    /// `GraphBuilder`, then look every CSR edge's stable id up by endpoints.
    fn to_indexed_by_builder(g: &DynamicGraph) -> (EdgeIndexedGraph, Vec<EdgeId>) {
        let mut b = et_graph::GraphBuilder::new(g.num_vertices());
        for (_, u, v) in g.edges() {
            b.add_edge(u, v);
        }
        let indexed = EdgeIndexedGraph::new(b.build());
        let map = indexed
            .endpoint_table()
            .iter()
            .map(|&(u, v)| g.edge_id(u, v).expect("edge exists in both views"))
            .collect();
        (indexed, map)
    }

    #[test]
    fn to_indexed_matches_the_builder_construction_under_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        // Vertices 40..48 never get an edge: trailing and interior empty rows.
        let mut g = DynamicGraph::from_indexed(&EdgeIndexedGraph::new(et_gen::gnm(40, 160, 9)));
        g.ensure_vertices(48);
        let (mut recycled, mut dead_slots) = (false, false);
        for step in 0..400 {
            let u = rng.gen_range(0..40u32);
            let v = rng.gen_range(0..40u32);
            if g.remove_edge(u, v).is_none() {
                let capacity = g.edge_capacity();
                if let Some(e) = g.insert_edge(u, v) {
                    recycled |= (e as usize) < capacity;
                }
            }
            let (sweep, sweep_map) = g.to_indexed();
            let (built, built_map) = to_indexed_by_builder(&g);
            assert_eq!(sweep.graph(), built.graph(), "step {step}: CSR");
            assert_eq!(sweep.raw_arc_eids(), built.raw_arc_eids(), "step {step}");
            assert_eq!(
                sweep.endpoint_table(),
                built.endpoint_table(),
                "step {step}"
            );
            assert_eq!(sweep_map, built_map, "step {step}: csr -> stable map");
            assert_eq!(sweep.num_edges(), g.num_edges());
            dead_slots |= g.edge_capacity() > g.num_edges();
        }
        assert!(recycled, "the script never reused a freed id");
        assert!(dead_slots, "the script never compared with a dead slot");
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut g = DynamicGraph::new(6);
        for v in [5u32, 1, 3, 2, 4] {
            g.insert_edge(0, v);
        }
        let ns: Vec<u32> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        assert_eq!(ns, vec![1, 2, 3, 4, 5]);
        g.remove_edge(0, 3);
        let ns: Vec<u32> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        assert_eq!(ns, vec![1, 2, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        DynamicGraph::new(2).insert_edge(0, 5);
    }

    #[test]
    fn edge_id_boundary_is_exact() {
        // One below the sentinel is the last assignable id; at the sentinel
        // the allocator must refuse rather than truncate.
        assert_eq!(next_edge_id(EdgeId::MAX as usize - 1), Ok(EdgeId::MAX - 1));
        let err = next_edge_id(EdgeId::MAX as usize).unwrap_err();
        assert_eq!(err.kind(), "edge");
        assert!(err.to_string().contains("u32"), "{err}");
        assert!(next_edge_id(EdgeId::MAX as usize + 1).is_err());
    }

    #[test]
    fn vertex_count_boundary_is_exact() {
        // n == VertexId::MAX keeps every id below the DEAD sentinel.
        assert!(check_vertex_count(VertexId::MAX as usize).is_ok());
        let err = check_vertex_count(VertexId::MAX as usize + 1).unwrap_err();
        assert_eq!(err.kind(), "vertex");
        assert!(err.to_string().contains("u32"), "{err}");
    }

    #[test]
    fn try_ensure_vertices_rejects_overflow_without_allocating() {
        let mut g = DynamicGraph::new(2);
        // The check runs before the resize, so this returns instead of
        // attempting a multi-gigabyte allocation.
        assert!(g.try_ensure_vertices(VertexId::MAX as usize + 1).is_err());
        assert_eq!(g.num_vertices(), 2);
        assert!(g.try_ensure_vertices(4).is_ok());
        assert_eq!(g.num_vertices(), 4);
    }

    #[test]
    fn try_insert_edge_matches_unchecked_path() {
        let mut g = DynamicGraph::new(3);
        let e = g.try_insert_edge(0, 1).unwrap().unwrap();
        assert_eq!(g.edge_id(1, 0), Some(e));
        assert_eq!(g.try_insert_edge(0, 1), Ok(None)); // duplicate
        assert_eq!(g.try_insert_edge(2, 2), Ok(None)); // self-loop
    }
}
