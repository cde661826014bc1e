//! Planar-mesh generator: the degree-balanced, triangle-sparse shape the
//! skewed and clique-heavy generators do not cover.

use et_graph::{CsrGraph, GraphBuilder};

/// A `side × side` grid with both axis edges and one diagonal per cell,
/// alternating by parity: degree ≤ 8, every edge in one or two triangles, so
/// `k_max = 3` with a single Φ_k group.
pub fn triangulated_grid(side: u32) -> CsrGraph {
    let at = |r: u32, c: u32| r * side + c;
    let mut b = GraphBuilder::new((side * side) as usize);
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                b.add_edge(at(r, c), at(r, c + 1));
            }
            if r + 1 < side {
                b.add_edge(at(r, c), at(r + 1, c));
            }
            if r + 1 < side && c + 1 < side {
                if (r + c) % 2 == 0 {
                    b.add_edge(at(r, c), at(r + 1, c + 1));
                } else {
                    b.add_edge(at(r, c + 1), at(r + 1, c));
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_the_expected_size() {
        let g = triangulated_grid(5);
        assert_eq!(g.num_vertices(), 25);
        // 2·side·(side−1) axis edges + (side−1)² diagonals.
        assert_eq!(g.num_edges(), 2 * 5 * 4 + 4 * 4);
        assert!(g.max_degree() <= 8);
    }
}
