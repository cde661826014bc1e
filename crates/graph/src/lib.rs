//! # et-graph — CSR graph substrate
//!
//! A GAP-Benchmark-Suite-style compressed-sparse-row (CSR) graph substrate for
//! the Parallel EquiTruss reproduction (Faysal et al., ICPP 2023). The paper's
//! C-Optimal and Afforest variants rely on the `CSRGraph` class from GAP for
//! "efficient storage and operations"; this crate is the Rust equivalent.
//!
//! The central types:
//!
//! * [`CsrGraph`] — a simple, undirected, unweighted graph in CSR form with
//!   sorted adjacency lists (no self-loops, no parallel edges).
//! * [`EdgeIndexedGraph`] — a [`CsrGraph`] plus a per-arc **undirected edge id**
//!   array. EquiTruss treats *edges* as the entities of a connected-components
//!   problem, so O(1) arc→edge-id resolution after a neighborhood intersection
//!   is the key data-structure optimization of the paper's C-Optimal variant
//!   (§3.3: "the search space is reduced to only the neighborhood list").
//! * [`OrientedGraph`] — a degree-ordered DAG view with per-arc edge ids:
//!   every triangle appears exactly once, powering the triangle-once Support
//!   kernel in `et-triangle`.
//! * [`RowView`] — the adjacency rows a per-edge triangle enumeration reads:
//!   the graph's own, or an owned copy with dead arcs filtered out (the live
//!   rows of the peel and of SpNode).
//! * [`GraphBuilder`] — canonicalizes arbitrary edge lists (symmetrize,
//!   dedup, drop self-loops) into a [`CsrGraph`].
//!
//! ```
//! use et_graph::{GraphBuilder, EdgeIndexedGraph};
//!
//! // A triangle plus a pendant vertex.
//! let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//!
//! let eg = EdgeIndexedGraph::new(g);
//! let e = eg.edge_id(1, 2).unwrap();
//! assert_eq!(eg.endpoints(e), (1, 2));
//! ```

#![warn(missing_docs)]

pub mod buf;
pub mod builder;
pub mod csr;
pub mod edge_index;
pub mod edgelist;
pub mod io;
pub mod ordering;
pub mod oriented;
pub mod packed;
pub mod rows;
pub mod schedule;
pub mod stats;
pub mod steal;
pub mod view;

pub use buf::{Advice, Backend, Buf, MappedSlice, Mmap};
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use edge_index::EdgeIndexedGraph;
pub use edgelist::EdgeList;
pub use oriented::OrientedGraph;
pub use rows::RowView;
pub use stats::{GraphStats, ShapeStats};
pub use steal::StealStats;

/// Vertex identifier. Graphs in this workspace are bounded to `u32::MAX`
/// vertices, matching the paper's SNAP datasets (≤ 65.6M vertices).
pub type VertexId = u32;

/// Undirected edge identifier, dense in `0..num_edges`.
///
/// Edge ids are assigned in lexicographic `(min(u,v), max(u,v))` order, so the
/// id space is deterministic for a given canonical graph.
pub type EdgeId = u32;

/// Errors produced while building or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An endpoint exceeded the declared vertex count.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: u64,
        /// The declared number of vertices.
        num_vertices: u64,
    },
    /// The graph has more than `u32::MAX` undirected edges.
    TooManyEdges(u64),
    /// Parse or I/O failure while reading a graph file.
    Io(std::io::Error),
    /// A malformed line in a text edge-list file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} out of range (n = {num_vertices})"),
            GraphError::TooManyEdges(m) => {
                write!(f, "graph has {m} undirected edges, exceeding u32 edge ids")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
