//! The EquiTruss summary graph (index) data structure.

use et_graph::{Buf, EdgeId, EdgeIndexedGraph};

/// Sentinel supernode id for edges outside the index (trussness < 3).
pub const NO_SUPERNODE: u32 = u32::MAX;

/// The EquiTruss index: a supergraph whose nodes are supernodes (maximal
/// k-triangle-connected same-trussness edge sets) and whose edges are
/// superedges (Definition 9).
///
/// Supernode members are stored in CSR form; the superedge adjacency is a
/// symmetric CSR over supernode ids so community-search queries can traverse
/// the supergraph directly.
///
/// The flat arrays are [`Buf`]s: built in memory they are owned, loaded
/// from an `.etidx` file under the mapped backend they are zero-copy views
/// of the file. `superedges` stays an owned `Vec` — tuple layout is not
/// guaranteed, so the pair list is always decoded, never reinterpreted.
#[derive(Clone, Debug)]
pub struct SuperGraph {
    /// Trussness k of each supernode.
    pub sn_trussness: Buf<u32>,
    /// CSR offsets into [`SuperGraph::sn_members`] (length = #supernodes + 1).
    pub sn_offsets: Buf<usize>,
    /// Member edge ids, grouped by supernode, sorted within each group.
    pub sn_members: Buf<EdgeId>,
    /// Supernode of every edge (`NO_SUPERNODE` for trussness < 3 edges).
    pub edge_supernode: Buf<u32>,
    /// Deduplicated superedges as `(a, b)` supernode pairs with `a < b`,
    /// sorted lexicographically.
    pub superedges: Vec<(u32, u32)>,
    /// CSR offsets of the symmetric superedge adjacency.
    pub adj_offsets: Buf<usize>,
    /// Neighbor supernodes, sorted within each row.
    pub adj_targets: Buf<u32>,
}

impl SuperGraph {
    /// Number of supernodes |V|.
    #[inline]
    pub fn num_supernodes(&self) -> usize {
        self.sn_trussness.len()
    }

    /// Number of superedges |E| (after deduplication).
    #[inline]
    pub fn num_superedges(&self) -> usize {
        self.superedges.len()
    }

    /// Member edge ids of supernode `sn`.
    #[inline]
    pub fn members(&self, sn: u32) -> &[EdgeId] {
        &self.sn_members[self.sn_offsets[sn as usize]..self.sn_offsets[sn as usize + 1]]
    }

    /// Trussness of supernode `sn`.
    #[inline]
    pub fn trussness(&self, sn: u32) -> u32 {
        self.sn_trussness[sn as usize]
    }

    /// Supernode containing edge `e`, or `None` if τ(e) < 3.
    #[inline]
    pub fn supernode_of(&self, e: EdgeId) -> Option<u32> {
        match self.edge_supernode[e as usize] {
            NO_SUPERNODE => None,
            sn => Some(sn),
        }
    }

    /// Neighbor supernodes of `sn` in the supergraph.
    #[inline]
    pub fn neighbors(&self, sn: u32) -> &[u32] {
        &self.adj_targets[self.adj_offsets[sn as usize]..self.adj_offsets[sn as usize + 1]]
    }

    /// Builds the final structure from per-edge supernode assignments,
    /// supernode trussness, and a deduplicated superedge list.
    pub fn assemble(
        num_edges: usize,
        edge_supernode: Vec<u32>,
        sn_trussness: Vec<u32>,
        mut superedges: Vec<(u32, u32)>,
    ) -> Self {
        assert_eq!(edge_supernode.len(), num_edges);
        let num_sn = sn_trussness.len();

        // Member CSR.
        let mut sn_offsets = vec![0usize; num_sn + 1];
        for &sn in &edge_supernode {
            if sn != NO_SUPERNODE {
                sn_offsets[sn as usize + 1] += 1;
            }
        }
        for i in 0..num_sn {
            sn_offsets[i + 1] += sn_offsets[i];
        }
        let mut cursor = sn_offsets.clone();
        let mut sn_members = vec![0 as EdgeId; sn_offsets[num_sn]];
        for (e, &sn) in edge_supernode.iter().enumerate() {
            if sn != NO_SUPERNODE {
                sn_members[cursor[sn as usize]] = e as EdgeId;
                cursor[sn as usize] += 1;
            }
        }
        // Edge ids were appended in increasing order, so members are sorted.

        // Canonical superedge list.
        for pair in superedges.iter_mut() {
            if pair.0 > pair.1 {
                *pair = (pair.1, pair.0);
            }
        }
        superedges.sort_unstable();
        superedges.dedup();
        superedges.retain(|&(a, b)| a != b);

        // Symmetric supergraph adjacency.
        let mut adj_offsets = vec![0usize; num_sn + 1];
        for &(a, b) in &superedges {
            adj_offsets[a as usize + 1] += 1;
            adj_offsets[b as usize + 1] += 1;
        }
        for i in 0..num_sn {
            adj_offsets[i + 1] += adj_offsets[i];
        }
        let mut cursor = adj_offsets.clone();
        let mut adj_targets = vec![0u32; adj_offsets[num_sn]];
        for &(a, b) in &superedges {
            adj_targets[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            adj_targets[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        for sn in 0..num_sn {
            adj_targets[adj_offsets[sn]..adj_offsets[sn + 1]].sort_unstable();
        }

        SuperGraph {
            sn_trussness: sn_trussness.into(),
            sn_offsets: sn_offsets.into(),
            sn_members: sn_members.into(),
            edge_supernode: edge_supernode.into(),
            superedges,
            adj_offsets: adj_offsets.into(),
            adj_targets: adj_targets.into(),
        }
    }

    /// The same index over another edge-id space: edge `e` becomes
    /// `new_id[e]` among `capacity` ids, and ids no edge maps to carry
    /// [`NO_SUPERNODE`]. Supernode ids, superedges and the adjacency are in
    /// supernode ids and stay as they are; each member slice is re-sorted.
    pub fn relabel_edges(mut self, new_id: &[EdgeId], capacity: usize) -> Self {
        assert_eq!(new_id.len(), self.edge_supernode.len());
        let mut edge_supernode = vec![NO_SUPERNODE; capacity];
        for (&sn, &id) in self.edge_supernode.iter().zip(new_id) {
            edge_supernode[id as usize] = sn;
        }
        self.edge_supernode = edge_supernode.into();
        let members = self.sn_members.to_mut();
        for e in members.iter_mut() {
            *e = new_id[*e as usize];
        }
        for bounds in self.sn_offsets.windows(2) {
            members[bounds[0]..bounds[1]].sort_unstable();
        }
        self
    }

    /// The storage backend of the index arrays ("owned" / "mapped").
    pub fn storage_backend(&self) -> &'static str {
        if self.sn_trussness.is_mapped()
            || self.sn_offsets.is_mapped()
            || self.sn_members.is_mapped()
            || self.edge_supernode.is_mapped()
            || self.adj_offsets.is_mapped()
            || self.adj_targets.is_mapped()
        {
            "mapped"
        } else {
            "owned"
        }
    }

    /// Canonical form for cross-implementation equality: supernodes reordered
    /// by their smallest member edge id. Two indexes over the same graph are
    /// equal iff their canonical forms are equal (supernode numbering is the
    /// only implementation-dependent freedom; the partition itself is
    /// unique).
    pub fn canonical(&self) -> CanonicalIndex {
        let num_sn = self.num_supernodes();
        let mut order: Vec<u32> = (0..num_sn as u32).collect();
        order.sort_by_key(|&sn| self.members(sn).first().copied().unwrap_or(EdgeId::MAX));
        let mut rename = vec![0u32; num_sn];
        for (new, &old) in order.iter().enumerate() {
            rename[old as usize] = new as u32;
        }
        let supernodes: Vec<(u32, Vec<EdgeId>)> = order
            .iter()
            .map(|&old| (self.trussness(old), self.members(old).to_vec()))
            .collect();
        let mut superedges: Vec<(u32, u32)> = self
            .superedges
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (rename[a as usize], rename[b as usize]);
                (x.min(y), x.max(y))
            })
            .collect();
        superedges.sort_unstable();
        superedges.dedup();
        CanonicalIndex {
            supernodes,
            superedges,
        }
    }

    /// Sanity-checks internal structure against the underlying graph.
    pub fn check_structure(&self, graph: &EdgeIndexedGraph) -> Result<(), String> {
        if self.edge_supernode.len() != graph.num_edges() {
            return Err("edge_supernode length mismatch".into());
        }
        let num_sn = self.num_supernodes();
        for (e, &sn) in self.edge_supernode.iter().enumerate() {
            if sn != NO_SUPERNODE {
                if sn as usize >= num_sn {
                    return Err(format!("edge {e} maps to out-of-range supernode {sn}"));
                }
                if self.members(sn).binary_search(&(e as EdgeId)).is_err() {
                    return Err(format!("edge {e} missing from its supernode {sn}"));
                }
            }
        }
        let total: usize = (0..num_sn as u32).map(|sn| self.members(sn).len()).sum();
        let assigned = self
            .edge_supernode
            .iter()
            .filter(|&&sn| sn != NO_SUPERNODE)
            .count();
        if total != assigned {
            return Err(format!(
                "member CSR holds {total} edges but {assigned} are assigned"
            ));
        }
        for &(a, b) in &self.superedges {
            if a >= num_sn as u32 || b >= num_sn as u32 {
                return Err(format!("superedge ({a},{b}) out of range"));
            }
            if a == b {
                return Err(format!("self-loop superedge at {a}"));
            }
            if self.trussness(a) == self.trussness(b) {
                return Err(format!(
                    "superedge ({a},{b}) joins equal trussness {} — violates Definition 9",
                    self.trussness(a)
                ));
            }
        }
        Ok(())
    }
}

/// Implementation-independent form of an index; see [`SuperGraph::canonical`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalIndex {
    /// `(trussness, sorted member edge ids)` ordered by smallest member.
    pub supernodes: Vec<(u32, Vec<EdgeId>)>,
    /// Canonical superedge pairs over the reordered supernode ids.
    pub superedges: Vec<(u32, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_index() -> SuperGraph {
        // 5 edges: edges 0,1 in sn 0 (k=3); edges 2,3 in sn 1 (k=4); edge 4
        // unindexed. One superedge.
        SuperGraph::assemble(
            5,
            vec![0, 0, 1, 1, NO_SUPERNODE],
            vec![3, 4],
            vec![(1, 0), (0, 1)],
        )
    }

    #[test]
    fn assemble_builds_csr() {
        let idx = toy_index();
        assert_eq!(idx.num_supernodes(), 2);
        assert_eq!(idx.members(0), &[0, 1]);
        assert_eq!(idx.members(1), &[2, 3]);
        assert_eq!(idx.supernode_of(4), None);
        assert_eq!(idx.supernode_of(2), Some(1));
        assert_eq!(idx.num_superedges(), 1);
        assert_eq!(idx.neighbors(0), &[1]);
        assert_eq!(idx.neighbors(1), &[0]);
    }

    #[test]
    fn canonical_is_renaming_invariant() {
        let a = toy_index();
        // Same index with supernode ids swapped.
        let b = SuperGraph::assemble(5, vec![1, 1, 0, 0, NO_SUPERNODE], vec![4, 3], vec![(0, 1)]);
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn canonical_detects_differences() {
        let a = toy_index();
        let mut edge_sn = vec![0, 0, 1, 1, NO_SUPERNODE];
        edge_sn[1] = 1; // move edge 1 to the other supernode
        let b = SuperGraph::assemble(5, edge_sn, vec![3, 4], vec![(0, 1)]);
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn relabel_edges_moves_members_and_nothing_else() {
        // Ids 0..5 scattered over 8 slots, out of order; slots 1, 4, 6 dead.
        let new_id = [7, 2, 5, 0, 3];
        let idx = toy_index().relabel_edges(&new_id, 8);
        let dead = NO_SUPERNODE;
        assert_eq!(idx.edge_supernode, vec![1, dead, 0, dead, dead, 1, dead, 0]);
        assert_eq!(idx.members(0), &[2, 7]);
        assert_eq!(idx.members(1), &[0, 5]);
        let toy = toy_index();
        assert_eq!(idx.sn_trussness, toy.sn_trussness);
        assert_eq!(idx.superedges, toy.superedges);
        assert_eq!(idx.adj_offsets, toy.adj_offsets);
        assert_eq!(idx.adj_targets, toy.adj_targets);
    }

    #[test]
    fn assemble_dedups_superedges() {
        let idx = SuperGraph::assemble(2, vec![0, 1], vec![3, 4], vec![(0, 1), (1, 0), (0, 1)]);
        assert_eq!(idx.num_superedges(), 1);
    }
}
