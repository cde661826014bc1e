//! Seeded inputs: the one random stream, the mesh generator, and the
//! query and request streams. Everything a workload feeds the program
//! under test comes from `--seed` through [`SplitMix64`].

use et_core::SuperGraph;
use et_graph::{CsrGraph, EdgeIndexedGraph, GraphBuilder, VertexId};

/// splitmix64 (Steele, Lea & Flood): the benchmark's only random source.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`; `salt` separates the streams of one run (graph,
    /// queries, updates) so that changing one does not shift the others.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = SplitMix64(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by widening multiply; the bias is below
    /// `n / 2^64`, far under anything a workload here can resolve.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A triangulated `side × side` grid: every cell gets both axis edges and
/// one diagonal whose orientation is a seeded coin flip.
///
/// The Delaunay-like shape the ROADMAP asks for: degree ≤ 8, every edge in
/// one or two triangles, so k_max = 3 with a single Φ_k group and one giant
/// supernode of high diameter.
pub fn triangulated_grid(side: usize, seed: u64) -> CsrGraph {
    let mut rng = SplitMix64::new(seed, 0x6d65_7368);
    let at = |r: usize, c: usize| (r * side + c) as VertexId;
    let mut builder = GraphBuilder::new(side * side);
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                builder.add_edge(at(r, c), at(r, c + 1));
            }
            if r + 1 < side {
                builder.add_edge(at(r, c), at(r + 1, c));
            }
            if r + 1 < side && c + 1 < side {
                if rng.next_u64() & 1 == 0 {
                    builder.add_edge(at(r, c), at(r + 1, c + 1));
                } else {
                    builder.add_edge(at(r, c + 1), at(r + 1, c));
                }
            }
        }
    }
    builder.build()
}

/// A stream of `(vertex, k)` community queries. Three in four ask about a
/// vertex that is in some community, drawn in proportion to degree (the
/// endpoint of a uniform arc); every fourth asks about a uniformly drawn
/// vertex that is in none, as most vertices of a skewed graph are, and gets an
/// empty answer. `k` is 3 or 4 with equal odds, the loose levels a caller
/// starts exploring from (3 when the vertex reaches no higher).
///
/// On a skewed graph the answers at successive `k` are the nested cores of
/// one giant community, so latency over a stream is a staircase with one
/// step per level. Fixed shares and two levels of equal weight put the
/// median and the tail in the middle of a step; with independent draws and
/// `k` uniform up to the vertex's maximum they sit on step edges and move by
/// 10 % or more from seed to seed.
pub fn query_stream(
    graph: &EdgeIndexedGraph,
    index: &SuperGraph,
    count: usize,
    seed: u64,
) -> Vec<(u32, u32)> {
    /// Draws before a share gives up on a graph that has no such vertex
    /// (every vertex of the mesh is in the one community).
    const TRIES: usize = 64;
    let mut rng = SplitMix64::new(seed, 0x7175_6572);
    let arcs = graph.graph().raw_neighbors();
    let n = graph.num_vertices() as u64;
    (0..count)
        .map(|i| {
            let want_member = i % 4 != 3 && !arcs.is_empty();
            let mut pick = (0, None);
            for _ in 0..TRIES {
                let v = if want_member {
                    arcs[rng.below(arcs.len() as u64) as usize]
                } else {
                    rng.below(n) as VertexId
                };
                pick = (v, et_community::query::max_query_level(graph, index, v));
                if pick.1.is_some() == want_member {
                    break;
                }
            }
            let (v, top) = pick;
            (
                v,
                3 + rng.below(2).min(u64::from(top.unwrap_or(3)) - 3) as u32,
            )
        })
        .collect()
}

/// Inverse-CDF sampler for Zipf(1.0) over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Popularity of rank `r` proportional to `1 / (r + 1)`.
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                total += 1.0 / (r as f64 + 1.0);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}
