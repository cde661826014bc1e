//! Compressed-sparse-row storage for simple undirected graphs.

use crate::buf::Buf;
use crate::VertexId;

/// A simple, undirected, unweighted graph in CSR form.
///
/// Invariants (enforced by [`crate::GraphBuilder`] and checked by
/// [`CsrGraph::validate`]):
///
/// * adjacency lists are strictly increasing (sorted, no duplicates),
/// * no self-loops,
/// * symmetry: `v ∈ N(u)` ⇔ `u ∈ N(v)`.
///
/// Both directions of every undirected edge are stored, so
/// `num_arcs() == 2 * num_edges()`.
///
/// The arrays live in a [`Buf`], so a graph can be backed either by owned
/// heap vectors or by zero-copy views of a memory-mapped binary file; the
/// two compare equal whenever their contents do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Buf<usize>,
    neighbors: Buf<VertexId>,
}

impl CsrGraph {
    /// Builds directly from raw CSR arrays.
    ///
    /// `offsets` must have length `n + 1`, start at 0, be non-decreasing and
    /// end at `neighbors.len()`. Rows must be strictly increasing with no
    /// self-loops, and the arc set must be symmetric. Debug builds assert
    /// these invariants; use [`CsrGraph::validate`] to check in release mode.
    pub fn from_raw(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        let g = CsrGraph {
            offsets: offsets.into(),
            neighbors: neighbors.into(),
        };
        debug_assert!(g.validate().is_ok(), "invalid CSR arrays");
        g
    }

    /// Fallible counterpart of [`CsrGraph::from_raw`] for untrusted inputs
    /// (e.g. binary files): runs [`CsrGraph::validate`] before the graph is
    /// handed out, in release builds too.
    pub fn try_from_raw(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Result<Self, String> {
        Self::try_from_bufs(offsets.into(), neighbors.into())
    }

    /// Backend-agnostic counterpart of [`CsrGraph::try_from_raw`]: validates
    /// the arrays in place — borrowed mapped views included — without taking
    /// an owned copy.
    pub fn try_from_bufs(offsets: Buf<usize>, neighbors: Buf<VertexId>) -> Result<Self, String> {
        let g = CsrGraph { offsets, neighbors };
        g.validate()?;
        Ok(g)
    }

    /// The empty graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1].into(),
            neighbors: Buf::default(),
        }
    }

    /// The storage backend of the adjacency arrays ("owned" / "mapped").
    pub fn storage_backend(&self) -> &'static str {
        if self.offsets.is_mapped() || self.neighbors.is_mapped() {
            "mapped"
        } else {
            "owned"
        }
    }

    /// Forwards an access-pattern hint to both adjacency arrays (no-op on
    /// owned storage; `madvise` on mapped views).
    pub fn advise(&self, advice: crate::buf::Advice) {
        self.offsets.advise(advice);
        self.neighbors.advise(advice);
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed arcs (twice the number of undirected edges).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of vertex `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// The sorted neighbor slice of vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// CSR row boundaries: the arc indices of row `u` are
    /// `offset(u)..offset(u + 1)`.
    #[inline]
    pub fn offset(&self, u: VertexId) -> usize {
        self.offsets[u as usize]
    }

    /// The raw offsets array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw arc-destination array (length `num_arcs()`).
    #[inline]
    pub fn raw_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Whether the undirected edge `{u, v}` exists (binary search).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.num_vertices() || v as usize >= self.num_vertices() {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Arc index of `v` within row `u`, if present.
    #[inline]
    pub fn arc_index(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let row = self.neighbors(u);
        row.binary_search(&v).ok().map(|r| self.offset(u) + r)
    }

    /// Iterates over every vertex id.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterates over every undirected edge `(u, v)` with `u < v`, in
    /// lexicographic order — the same order edge ids are assigned by
    /// [`crate::EdgeIndexedGraph`].
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|u| self.degree(u as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Verifies all CSR invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets array is empty".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets[0] != 0".into());
        }
        if *self.offsets.last().unwrap() != self.neighbors.len() {
            return Err("offsets do not end at neighbors.len()".into());
        }
        let n = self.num_vertices();
        for u in 0..n {
            if self.offsets[u] > self.offsets[u + 1] {
                return Err(format!("offsets decrease at row {u}"));
            }
            // Bounds before slicing: a later out-of-range offset must be a
            // validation error, not a panic (untrusted binary loads).
            if self.offsets[u + 1] > self.neighbors.len() {
                return Err(format!("offset at row {u} exceeds neighbors.len()"));
            }
            let row = &self.neighbors[self.offsets[u]..self.offsets[u + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {u} not strictly increasing"));
                }
            }
            for &v in row {
                if v as usize >= n {
                    return Err(format!("row {u} references out-of-range vertex {v}"));
                }
                if v as usize == u {
                    return Err(format!("self-loop at vertex {u}"));
                }
            }
        }
        // Symmetry.
        for u in 0..n as VertexId {
            for &v in self.neighbors(u) {
                if self.neighbors(v).binary_search(&u).is_err() {
                    return Err(format!("asymmetric arc ({u}, {v})"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_with_tail() -> CsrGraph {
        GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle_with_tail();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.num_arcs(), 8);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = triangle_with_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_are_lexicographic() {
        let g = triangle_with_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn arc_index_resolves() {
        let g = triangle_with_tail();
        let i = g.arc_index(2, 3).unwrap();
        assert_eq!(g.raw_neighbors()[i], 3);
        assert!(g.arc_index(0, 3).is_none());
    }

    #[test]
    fn validate_catches_asymmetry() {
        let g = CsrGraph {
            offsets: vec![0, 1, 1].into(),
            neighbors: vec![1].into(),
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_unsorted_row() {
        let g = CsrGraph {
            offsets: vec![0, 2, 3, 4].into(),
            neighbors: vec![2, 1, 0, 0].into(),
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn max_degree() {
        assert_eq!(triangle_with_tail().max_degree(), 3);
        assert_eq!(CsrGraph::empty(0).max_degree(), 0);
    }
}
