//! Index persistence: save/load the EquiTruss summary graph.
//!
//! The whole point of an index is to build once and query many times across
//! sessions, so the supergraph (plus the trussness dictionary it was built
//! from and the truss hierarchy that serves queries) round-trips through a
//! compact little-endian binary format. The format embeds array lengths and
//! a magic/version header; loads are validated structurally before use.
//!
//! I/O is slab-based: writes encode into bounded buffers (one bulk write
//! per ~64Ki elements), and loads read the whole file once and decode from
//! the in-memory slab. Every embedded array length is checked against both
//! a sanity cap (`LEN_CAP`) and the bytes actually remaining in the file
//! *before* any allocation, so corrupt or truncated files produce a
//! [`IndexIoError::Corrupt`] — never an allocation sized by untrusted data.
//!
//! The file carries the truss hierarchy's forest arrays (node levels +
//! parent pointers); the derived arrays (DFS leaf order, aggregates) are
//! recomputed deterministically on load, so the file stays compact and a
//! loaded hierarchy is bit-identical to the built one.
//!
//! Every array payload is padded to an 8-byte boundary so that each payload
//! sits at a naturally aligned file offset (the ETIDXv03 layout). Under
//! [`Backend::Mapped`] the loader memory-maps the file and hands out
//! zero-copy [`Buf`] views of the persisted arrays instead of decoding them
//! into fresh heap allocations. The superedge pair list is always decoded —
//! Rust does not guarantee the memory layout of `(u32, u32)`. The unpadded
//! ETIDXv02 layout is no longer read: such a file is refused by name with
//! the advice to rebuild it.

use crate::hierarchy::TrussHierarchy;
use crate::index::{SuperGraph, NO_SUPERNODE};
use et_graph::{Backend, Buf};
use std::io::{BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ETIDXv03";
/// Magic of the retired unpadded layout, recognised only to say so.
const MAGIC_V2: &[u8; 8] = b"ETIDXv02";

/// Errors from index (de)serialization.
#[derive(Debug)]
pub enum IndexIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not an index file or is structurally inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for IndexIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexIoError::Io(e) => write!(f, "i/o error: {e}"),
            IndexIoError::Corrupt(m) => write!(f, "corrupt index file: {m}"),
        }
    }
}

impl std::error::Error for IndexIoError {}

impl From<std::io::Error> for IndexIoError {
    fn from(e: std::io::Error) -> Self {
        IndexIoError::Io(e)
    }
}

/// Elements encoded per bulk `write_all` by the writers.
const ENCODE_CHUNK: usize = 1 << 16;

/// Zero bytes needed after a `payload`-byte array to reach the next 8-byte
/// boundary.
#[inline]
fn pad_for(payload: usize) -> usize {
    (8 - payload % 8) % 8
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<(), IndexIoError> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_u32_slice<W: Write>(w: &mut W, s: &[u32]) -> Result<(), IndexIoError> {
    write_u64(w, s.len() as u64)?;
    // Bounded slab encode: one bulk write per chunk, not one per element.
    let mut buf = Vec::with_capacity(4 * ENCODE_CHUNK.min(s.len().max(1)));
    for block in s.chunks(ENCODE_CHUNK) {
        buf.clear();
        for &x in block {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    w.write_all(&[0u8; 7][..pad_for(s.len() * 4)])?;
    Ok(())
}

fn write_usize_slice<W: Write>(w: &mut W, s: &[usize]) -> Result<(), IndexIoError> {
    write_u64(w, s.len() as u64)?;
    let mut buf = Vec::with_capacity(8 * ENCODE_CHUNK.min(s.len().max(1)));
    for block in s.chunks(ENCODE_CHUNK) {
        buf.clear();
        for &x in block {
            buf.extend_from_slice(&(x as u64).to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Cursor over an in-memory slab of the whole index file.
///
/// Every array read cross-checks the claimed length against the bytes that
/// actually remain *before* allocating, so a corrupt length field can never
/// trigger an allocation larger than the file itself.
struct SliceReader<'a> {
    buf: &'a [u8],
}

impl<'a> SliceReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IndexIoError> {
        if self.buf.len() < n {
            return Err(IndexIoError::Corrupt(format!(
                "unexpected end of file: need {n} bytes, {} remain",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn read_u64(&mut self) -> Result<u64, IndexIoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Consumes the post-payload alignment padding.
    fn skip_pad(&mut self, payload: usize) -> Result<(), IndexIoError> {
        self.take(pad_for(payload))?;
        Ok(())
    }

    /// Reads a length, validates it against the sanity cap and the
    /// remaining bytes (4 per element), then bulk-decodes.
    fn read_u32_vec(&mut self, cap: u64) -> Result<Vec<u32>, IndexIoError> {
        let len = self.checked_len(cap, 4)?;
        let raw = self.take(len * 4)?;
        self.skip_pad(len * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Reads a length, validates it against the sanity cap and the
    /// remaining bytes (8 per element), then bulk-decodes.
    fn read_usize_vec(&mut self, cap: u64) -> Result<Vec<usize>, IndexIoError> {
        let len = self.checked_len(cap, 8)?;
        let raw = self.take(len * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
            .collect())
    }

    /// Reads an array length and rejects it — before any allocation — when
    /// it exceeds `cap` or when `elem_size * len` overruns the remaining
    /// bytes.
    fn checked_len(&mut self, cap: u64, elem_size: u64) -> Result<usize, IndexIoError> {
        let len = self.read_u64()?;
        if len > cap {
            return Err(IndexIoError::Corrupt(format!(
                "array length {len} exceeds sanity cap {cap}"
            )));
        }
        let need = len * elem_size; // no overflow: len <= cap = 2^30
        if need > self.buf.len() as u64 {
            return Err(IndexIoError::Corrupt(format!(
                "array of {len} elements needs {need} bytes, {} remain",
                self.buf.len()
            )));
        }
        Ok(len as usize)
    }
}

/// Sanity cap for array lengths read from disk (1 billion entries).
const LEN_CAP: u64 = 1 << 30;

/// Writes the index (and the trussness dictionary) to `path`, building the
/// truss hierarchy on the fly. When the pipeline already produced one
/// (`IndexBuild::hierarchy`), use [`write_index_with_hierarchy`] instead.
pub fn write_index<P: AsRef<Path>>(
    index: &SuperGraph,
    trussness: &[u32],
    path: P,
) -> Result<(), IndexIoError> {
    write_index_with_hierarchy(index, trussness, &TrussHierarchy::build(index), path)
}

/// Writes the index, trussness dictionary, and a prebuilt truss hierarchy
/// in the 8-byte aligned layout.
pub fn write_index_with_hierarchy<P: AsRef<Path>>(
    index: &SuperGraph,
    trussness: &[u32],
    hierarchy: &TrussHierarchy,
    path: P,
) -> Result<(), IndexIoError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    write_u32_slice(&mut w, trussness)?;
    write_u32_slice(&mut w, &index.sn_trussness)?;
    write_usize_slice(&mut w, &index.sn_offsets)?;
    write_u32_slice(&mut w, &index.sn_members)?;
    write_u32_slice(&mut w, &index.edge_supernode)?;
    write_u64(&mut w, index.superedges.len() as u64)?;
    for &(a, b) in &index.superedges {
        w.write_all(&a.to_le_bytes())?;
        w.write_all(&b.to_le_bytes())?;
    }
    write_usize_slice(&mut w, &index.adj_offsets)?;
    write_u32_slice(&mut w, &index.adj_targets)?;
    write_u32_slice(&mut w, &hierarchy.node_level)?;
    write_u32_slice(&mut w, &hierarchy.node_parent)?;
    w.flush()?;
    Ok(())
}

/// Loads an index written by [`write_index`]; returns `(index, trussness)`,
/// discarding the hierarchy section. Query-serving callers should prefer
/// [`read_index_with_hierarchy`].
pub fn read_index<P: AsRef<Path>>(path: P) -> Result<(SuperGraph, Buf<u32>), IndexIoError> {
    let (index, trussness, _) = read_index_with_hierarchy(path)?;
    Ok((index, trussness))
}

/// Loads an index plus its truss hierarchy on the owned backend; returns
/// `(index, trussness, hierarchy)`.
pub fn read_index_with_hierarchy<P: AsRef<Path>>(
    path: P,
) -> Result<(SuperGraph, Buf<u32>, TrussHierarchy), IndexIoError> {
    read_index_with_hierarchy_with(path, Backend::Owned)
}

/// Loads an index plus its truss hierarchy with an explicit storage
/// backend. Under [`Backend::Mapped`] the persisted arrays are zero-copy
/// views of the memory-mapped file (on supported targets; elsewhere the
/// loader decodes owned copies). The loaded structures are bit-identical
/// across backends.
pub fn read_index_with_hierarchy_with<P: AsRef<Path>>(
    path: P,
    backend: Backend,
) -> Result<(SuperGraph, Buf<u32>, TrussHierarchy), IndexIoError> {
    match backend {
        Backend::Owned => read_index_owned(path.as_ref()),
        Backend::Mapped => {
            #[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
            {
                read_index_mapped(path.as_ref())
            }
            #[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
            {
                read_index_owned(path.as_ref())
            }
        }
    }
}

/// Checks the 8-byte magic. The retired ETIDXv02 layout gets its own
/// message: the file is not corrupt, it is old, and the fix is a rebuild.
fn check_magic(magic: &[u8]) -> Result<(), IndexIoError> {
    match magic {
        m if m == MAGIC => Ok(()),
        m if m == MAGIC_V2 => Err(IndexIoError::Corrupt(
            "this is an ETIDXv02 index, a layout this version no longer reads; \
             rebuild it with `equitruss build`"
                .into(),
        )),
        _ => Err(IndexIoError::Corrupt("bad magic".into())),
    }
}

fn read_index_owned(path: &Path) -> Result<(SuperGraph, Buf<u32>, TrussHierarchy), IndexIoError> {
    // One bulk read of the whole file — the slab size is the real file
    // size, never a value claimed by the (untrusted) content.
    let bytes = std::fs::read(path)?;
    let mut r = SliceReader { buf: &bytes };
    check_magic(r.take(8)?)?;
    let trussness = r.read_u32_vec(LEN_CAP)?;
    let sn_trussness = r.read_u32_vec(LEN_CAP)?;
    let sn_offsets = r.read_usize_vec(LEN_CAP)?;
    let sn_members = r.read_u32_vec(LEN_CAP)?;
    let edge_supernode = r.read_u32_vec(LEN_CAP)?;
    let superedges = read_superedges(&mut r)?;
    let adj_offsets = r.read_usize_vec(LEN_CAP)?;
    let adj_targets = r.read_u32_vec(LEN_CAP)?;
    let node_level = r.read_u32_vec(LEN_CAP)?;
    let node_parent = r.read_u32_vec(LEN_CAP)?;
    if !r.buf.is_empty() {
        return Err(IndexIoError::Corrupt(format!(
            "{} trailing bytes after the hierarchy section",
            r.buf.len()
        )));
    }

    let index = SuperGraph {
        sn_trussness: sn_trussness.into(),
        sn_offsets: sn_offsets.into(),
        sn_members: sn_members.into(),
        edge_supernode: edge_supernode.into(),
        superedges,
        adj_offsets: adj_offsets.into(),
        adj_targets: adj_targets.into(),
    };
    let trussness: Buf<u32> = trussness.into();
    validate_loaded(&index, &trussness)?;
    let hierarchy = TrussHierarchy::from_forest(&index, node_level, node_parent)
        .map_err(IndexIoError::Corrupt)?;
    Ok((index, trussness, hierarchy))
}

/// Decodes the superedge pair list (always owned — tuple layout is not
/// guaranteed, so pairs are never reinterpreted from disk).
fn read_superedges(r: &mut SliceReader<'_>) -> Result<Vec<(u32, u32)>, IndexIoError> {
    let n_se = r.checked_len(LEN_CAP, 8)?;
    let raw_se = r.take(n_se * 8)?;
    Ok(raw_se
        .chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
            )
        })
        .collect())
}

/// Mapped-backend loader: every persisted array becomes a zero-copy view of
/// the mapping (the padded layout keeps each one naturally aligned). Bounds are
/// validated through the same cursor as the owned path, and the mapping
/// length is the file's real length, so views can never extend past EOF.
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
fn read_index_mapped(path: &Path) -> Result<(SuperGraph, Buf<u32>, TrussHierarchy), IndexIoError> {
    use et_graph::buf::Pod;
    use et_graph::{MappedSlice, Mmap};

    let map = Mmap::map_path(path).map_err(IndexIoError::Io)?;
    // The section cursor walks the file front-to-back once (validating or
    // decoding every array); let readahead run ahead of it.
    map.advise(et_graph::Advice::Sequential);
    let bytes: &[u8] = map.bytes();
    let mut r = SliceReader { buf: bytes };
    check_magic(r.take(8)?)?;

    // Builds a typed view at the cursor's current offset.
    fn view<T: Pod>(
        map: &std::sync::Arc<Mmap>,
        whole: &[u8],
        r: &mut SliceReader<'_>,
    ) -> Result<Buf<T>, IndexIoError> {
        let elem = std::mem::size_of::<T>();
        let len = r.checked_len(LEN_CAP, elem as u64)?;
        let offset = whole.len() - r.buf.len();
        r.take(len * elem)?;
        r.skip_pad(len * elem)?;
        MappedSlice::<T>::new(std::sync::Arc::clone(map), offset, len)
            .map(Buf::from)
            .map_err(IndexIoError::Corrupt)
    }

    let trussness = view::<u32>(&map, bytes, &mut r)?;
    let sn_trussness = view::<u32>(&map, bytes, &mut r)?;
    let sn_offsets = view::<usize>(&map, bytes, &mut r)?;
    let sn_members = view::<u32>(&map, bytes, &mut r)?;
    let edge_supernode = view::<u32>(&map, bytes, &mut r)?;
    let superedges = read_superedges(&mut r)?;
    let adj_offsets = view::<usize>(&map, bytes, &mut r)?;
    let adj_targets = view::<u32>(&map, bytes, &mut r)?;
    let node_level = view::<u32>(&map, bytes, &mut r)?;
    let node_parent = view::<u32>(&map, bytes, &mut r)?;
    if !r.buf.is_empty() {
        return Err(IndexIoError::Corrupt(format!(
            "{} trailing bytes after the hierarchy section",
            r.buf.len()
        )));
    }

    let index = SuperGraph {
        sn_trussness,
        sn_offsets,
        sn_members,
        edge_supernode,
        superedges,
        adj_offsets,
        adj_targets,
    };
    validate_loaded(&index, &trussness)?;
    let hierarchy = TrussHierarchy::from_forest(&index, node_level, node_parent)
        .map_err(IndexIoError::Corrupt)?;
    et_obs::counter_add("index.load.mapped", 1);
    Ok((index, trussness, hierarchy))
}

/// Per-file metadata decoded from an `.etidx` header walk: the array length
/// fields are read and cross-checked, the payloads are *seeked over*, so
/// the cost is O(sections), not O(file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexFileInfo {
    /// Edges of the underlying graph (trussness dictionary length).
    pub num_edges: u64,
    /// Supernodes |V| of the supergraph.
    pub num_supernodes: u64,
    /// Total member edge ids across all supernodes.
    pub num_members: u64,
    /// Superedges |E| of the supergraph.
    pub num_superedges: u64,
    /// Nodes of the truss hierarchy forest (leaves + merge events).
    pub num_hierarchy_nodes: u64,
    /// Total file length in bytes.
    pub file_len: u64,
}

/// Reads and validates an `.etidx` file's structure from its length fields
/// alone — no array is ever loaded. Used by `equitruss info`.
pub fn read_index_info<P: AsRef<Path>>(path: P) -> Result<IndexFileInfo, IndexIoError> {
    use std::io::{Read, Seek, SeekFrom};

    fn skip_array(
        f: &mut std::fs::File,
        pos: &mut u64,
        file_len: u64,
        elem: u64,
    ) -> Result<u64, IndexIoError> {
        let mut lenb = [0u8; 8];
        f.read_exact(&mut lenb)?;
        let len = u64::from_le_bytes(lenb);
        if len > LEN_CAP {
            return Err(IndexIoError::Corrupt(format!(
                "array length {len} exceeds sanity cap {LEN_CAP}"
            )));
        }
        let payload = len * elem; // no overflow: len <= 2^30
        let pad = pad_for(payload as usize) as u64; // 0 for 8-byte elements
        let end = pos
            .checked_add(8 + payload + pad)
            .filter(|&e| e <= file_len)
            .ok_or_else(|| {
                IndexIoError::Corrupt(format!(
                    "array of {len} elements overruns the {file_len}-byte file"
                ))
            })?;
        f.seek(SeekFrom::Start(end))?;
        *pos = end;
        Ok(len)
    }

    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic).map_err(|_| {
        IndexIoError::Corrupt(format!(
            "file of {file_len} bytes is too short for a header"
        ))
    })?;
    check_magic(&magic)?;
    let mut pos = 8u64;

    let num_edges = skip_array(&mut f, &mut pos, file_len, 4)?;
    let num_supernodes = skip_array(&mut f, &mut pos, file_len, 4)?;
    let sn_offsets_len = skip_array(&mut f, &mut pos, file_len, 8)?;
    let num_members = skip_array(&mut f, &mut pos, file_len, 4)?;
    let edge_supernode_len = skip_array(&mut f, &mut pos, file_len, 4)?;
    let num_superedges = skip_array(&mut f, &mut pos, file_len, 8)?;
    let adj_offsets_len = skip_array(&mut f, &mut pos, file_len, 8)?;
    let adj_targets_len = skip_array(&mut f, &mut pos, file_len, 4)?;
    let num_hierarchy_nodes = skip_array(&mut f, &mut pos, file_len, 4)?;
    let node_parent_len = skip_array(&mut f, &mut pos, file_len, 4)?;

    if pos != file_len {
        return Err(IndexIoError::Corrupt(format!(
            "{} trailing bytes after the hierarchy section",
            file_len - pos
        )));
    }
    if sn_offsets_len != num_supernodes + 1 || adj_offsets_len != num_supernodes + 1 {
        return Err(IndexIoError::Corrupt("offset array length".into()));
    }
    if edge_supernode_len != num_edges {
        return Err(IndexIoError::Corrupt(
            "edge_supernode / trussness length mismatch".into(),
        ));
    }
    if node_parent_len != num_hierarchy_nodes || num_hierarchy_nodes < num_supernodes {
        return Err(IndexIoError::Corrupt("hierarchy section length".into()));
    }
    if adj_targets_len != num_superedges * 2 {
        return Err(IndexIoError::Corrupt(
            "adjacency targets do not match the superedge count".into(),
        ));
    }

    Ok(IndexFileInfo {
        num_edges,
        num_supernodes,
        num_members,
        num_superedges,
        num_hierarchy_nodes,
        file_len,
    })
}

/// Structural sanity after a load — rejects truncated or tampered files
/// before any slice is taken through an offset or an id read from the file.
fn validate_loaded(index: &SuperGraph, trussness: &[u32]) -> Result<(), IndexIoError> {
    let num_sn = index.sn_trussness.len();
    let corrupt = |m: String| Err(IndexIoError::Corrupt(m));
    if index.sn_offsets.len() != num_sn + 1 || index.adj_offsets.len() != num_sn + 1 {
        return corrupt("offset array length".into());
    }
    if index.edge_supernode.len() != trussness.len() {
        return corrupt("edge_supernode / trussness length mismatch".into());
    }
    for (name, offsets, covered) in [
        ("member", &index.sn_offsets, index.sn_members.len()),
        ("adjacency", &index.adj_offsets, index.adj_targets.len()),
    ] {
        if offsets[0] != 0 {
            return corrupt(format!("{name} offsets start at {}, not 0", offsets[0]));
        }
        if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return corrupt(format!("{name} offsets decrease after supernode {i}"));
        }
        if offsets[num_sn] != covered {
            return corrupt(format!(
                "{name} offsets end at {}, the array holds {covered}",
                offsets[num_sn]
            ));
        }
    }
    let out_of_range = |ids: &[u32], bound: usize, skip: Option<u32>| {
        ids.iter()
            .position(|&x| Some(x) != skip && x as usize >= bound)
    };
    if index
        .superedges
        .iter()
        .any(|&(a, b)| a as usize >= num_sn || b as usize >= num_sn)
    {
        return corrupt("superedge endpoint out of range".into());
    }
    if let Some(i) = out_of_range(&index.sn_members, trussness.len(), None) {
        return corrupt(format!("member {i}: edge id out of range"));
    }
    if let Some(e) = out_of_range(&index.edge_supernode, num_sn, Some(NO_SUPERNODE)) {
        return corrupt(format!("edge {e}: supernode out of range"));
    }
    if let Some(i) = out_of_range(&index.adj_targets, num_sn, None) {
        return corrupt(format!("adjacency target {i}: supernode out of range"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_index, Variant};
    use et_graph::EdgeIndexedGraph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("et-core-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(120, 25, (3, 6), 40, 2));
        let tau = et_truss::decompose_parallel(&g).trussness;
        let build = build_index(&g, Variant::Afforest);
        let built = build.index;

        let path = tmp("roundtrip.etidx");
        write_index_with_hierarchy(&built, &tau, &build.hierarchy, &path).unwrap();
        let (loaded, tau2, h2) = read_index_with_hierarchy(&path).unwrap();
        assert_eq!(build.hierarchy, h2);
        h2.check(&loaded).unwrap();
        assert_eq!(tau2, tau);
        assert_eq!(built.sn_trussness, loaded.sn_trussness);
        assert_eq!(built.sn_offsets, loaded.sn_offsets);
        assert_eq!(built.sn_members, loaded.sn_members);
        assert_eq!(built.edge_supernode, loaded.edge_supernode);
        assert_eq!(built.superedges, loaded.superedges);
        assert_eq!(built.adj_offsets, loaded.adj_offsets);
        assert_eq!(built.adj_targets, loaded.adj_targets);
        loaded.check_structure(&g).unwrap();
    }

    #[test]
    fn mapped_load_is_bit_identical_to_owned() {
        let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(100, 20, (3, 6), 30, 7));
        let tau = et_truss::decompose_parallel(&g).trussness;
        let build = build_index(&g, Variant::COptimal);
        let path = tmp("mapped.etidx");
        write_index_with_hierarchy(&build.index, &tau, &build.hierarchy, &path).unwrap();

        let (owned, tau_o, h_o) = read_index_with_hierarchy_with(&path, Backend::Owned).unwrap();
        let (mapped, tau_m, h_m) = read_index_with_hierarchy_with(&path, Backend::Mapped).unwrap();
        assert_eq!(tau_o, tau_m);
        assert_eq!(h_o, h_m);
        assert_eq!(owned.sn_trussness, mapped.sn_trussness);
        assert_eq!(owned.sn_offsets, mapped.sn_offsets);
        assert_eq!(owned.sn_members, mapped.sn_members);
        assert_eq!(owned.edge_supernode, mapped.edge_supernode);
        assert_eq!(owned.superedges, mapped.superedges);
        assert_eq!(owned.adj_offsets, mapped.adj_offsets);
        assert_eq!(owned.adj_targets, mapped.adj_targets);
        assert_eq!(mapped.canonical(), build.index.canonical());
        if et_graph::buf::ZERO_COPY_TARGET {
            assert_eq!(mapped.storage_backend(), "mapped");
            assert_eq!(owned.storage_backend(), "owned");
        }
        h_m.check(&mapped).unwrap();
    }

    #[test]
    fn v02_files_are_refused_by_name() {
        // Only the magic is inspected, so a header is enough of a file.
        let path = tmp("legacy.etidx");
        std::fs::write(&path, [MAGIC_V2.as_slice(), &[0u8; 8]].concat()).unwrap();
        let errors = [
            read_index_with_hierarchy_with(&path, Backend::Owned)
                .unwrap_err()
                .to_string(),
            read_index_with_hierarchy_with(&path, Backend::Mapped)
                .unwrap_err()
                .to_string(),
            read_index_info(&path).unwrap_err().to_string(),
        ];
        for e in errors {
            assert!(e.contains("ETIDXv02"), "{e}");
            assert!(e.contains("rebuild"), "{e}");
            assert!(!e.contains("bad magic"), "{e}");
        }
    }

    #[test]
    fn info_walks_header_without_loading_arrays() {
        let g = EdgeIndexedGraph::new(et_gen::overlapping_cliques(120, 25, (3, 6), 40, 2));
        let tau = et_truss::decompose_parallel(&g).trussness;
        let build = build_index(&g, Variant::Afforest);
        let path = tmp("info.etidx");
        write_index_with_hierarchy(&build.index, &tau, &build.hierarchy, &path).unwrap();

        let info = read_index_info(&path).unwrap();
        assert_eq!(info.num_edges, tau.len() as u64);
        assert_eq!(info.num_supernodes, build.index.num_supernodes() as u64);
        assert_eq!(info.num_members, build.index.sn_members.len() as u64);
        assert_eq!(info.num_superedges, build.index.num_superedges() as u64);
        assert_eq!(info.num_hierarchy_nodes, build.hierarchy.num_nodes() as u64);
        assert_eq!(info.file_len, std::fs::metadata(&path).unwrap().len());

        // Truncation behind a valid header is caught by the bounds walk.
        let bytes = std::fs::read(&path).unwrap();
        let path2 = tmp("info-trunc.etidx");
        std::fs::write(&path2, &bytes[..bytes.len() - 5]).unwrap();
        assert!(read_index_info(&path2).is_err());
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = tmp("garbage.etidx");
        std::fs::write(&path, b"definitely not an index").unwrap();
        assert!(matches!(
            read_index(&path),
            Err(IndexIoError::Corrupt(_)) | Err(IndexIoError::Io(_))
        ));
        assert!(read_index_info(&path).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let g = EdgeIndexedGraph::new(et_gen::fixtures::paper_example().graph.clone());
        let tau = et_truss::decompose_parallel(&g).trussness;
        let built = build_index(&g, Variant::COptimal).index;
        let path = tmp("trunc.etidx");
        write_index(&built, &tau, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chop the file at several points; every prefix must be rejected on
        // both backends (truncated-behind-valid-header for the mapped path).
        for cut in [9, bytes.len() / 2, bytes.len() - 3] {
            let path2 = tmp("trunc2.etidx");
            std::fs::write(&path2, &bytes[..cut]).unwrap();
            assert!(read_index(&path2).is_err(), "cut at {cut} accepted");
            assert!(
                read_index_with_hierarchy_with(&path2, Backend::Mapped).is_err(),
                "mapped cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_length_beyond_remaining_bytes() {
        // Magic plus a trussness-array length of 2^20 (within LEN_CAP) in a
        // 20-byte file: must be rejected by the remaining-bytes cross-check
        // before any 4 MiB allocation happens.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(1u64 << 20).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        let path = tmp("overlong.etidx");
        std::fs::write(&path, &bytes).unwrap();
        match read_index(&path) {
            Err(IndexIoError::Corrupt(m)) => assert!(m.contains("remain"), "message: {m}"),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        assert!(read_index_with_hierarchy_with(&path, Backend::Mapped).is_err());
        assert!(read_index_info(&path).is_err());
    }

    #[test]
    fn rejects_trailing_bytes() {
        let g = EdgeIndexedGraph::new(et_gen::fixtures::paper_example().graph.clone());
        let tau = et_truss::decompose_parallel(&g).trussness;
        let built = build_index(&g, Variant::Afforest).index;
        let path = tmp("padded.etidx");
        write_index(&built, &tau, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_index(&path), Err(IndexIoError::Corrupt(_))));
        assert!(read_index_with_hierarchy_with(&path, Backend::Mapped).is_err());
        assert!(read_index_info(&path).is_err());
    }

    #[test]
    fn rejects_tampered_member_ids() {
        let g = EdgeIndexedGraph::new(et_gen::fixtures::paper_example().graph.clone());
        let tau = et_truss::decompose_parallel(&g).trussness;
        let mut built = build_index(&g, Variant::COptimal).index;
        built.sn_members.to_mut()[0] = 10_000; // out of range edge id
        let path = tmp("tamper.etidx");
        write_index(&built, &tau, &path).unwrap();
        assert!(matches!(read_index(&path), Err(IndexIoError::Corrupt(_))));
        assert!(matches!(
            read_index_with_hierarchy_with(&path, Backend::Mapped),
            Err(IndexIoError::Corrupt(_))
        ));
    }

    /// Every byte of the two offset arrays (and of the supernode-id arrays
    /// the offsets are used with), flipped one bit pattern at a time: a load
    /// is refused with a located `Corrupt`, or every slice the index and the
    /// hierarchy hand out can be taken — never a panic, on either backend.
    #[test]
    fn flipped_offset_and_id_bytes_are_rejected_or_harmless() {
        let g = EdgeIndexedGraph::new(et_gen::fixtures::paper_example().graph.clone());
        let tau = et_truss::decompose_parallel(&g).trussness;
        let built = build_index(&g, Variant::Afforest).index;
        let path = tmp("flip-offsets.etidx");
        write_index(&built, &tau, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Section layout: an 8-byte length, the payload, padding to 8 bytes.
        let u32_section = |len: usize| 8 + len * 4 + pad_for(len * 4);
        let u64_section = |len: usize| 8 + len * 8;
        let num_sn = built.num_supernodes();
        let sn_offsets_at = 8 + u32_section(tau.len()) + u32_section(num_sn);
        let sn_members_at = sn_offsets_at + u64_section(num_sn + 1);
        let edge_supernode_at = sn_members_at + u32_section(built.sn_members.len());
        let superedges_at = edge_supernode_at + u32_section(tau.len());
        let adj_offsets_at = superedges_at + u64_section(built.num_superedges());
        let adj_targets_at = adj_offsets_at + u64_section(num_sn + 1);
        let hierarchy_at = adj_targets_at + u32_section(built.adj_targets.len());
        assert!(hierarchy_at < bytes.len());

        let (mut refused, mut loaded_ok) = (0usize, 0usize);
        let flipped = tmp("flip-offsets-mutated.etidx");
        for pos in (sn_offsets_at..sn_members_at)
            .chain(edge_supernode_at..superedges_at)
            .chain(adj_offsets_at..hierarchy_at)
        {
            for mask in [0x01u8, 0x40, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= mask;
                std::fs::write(&flipped, &mutated).unwrap();
                for backend in [Backend::Owned, Backend::Mapped] {
                    match read_index_with_hierarchy_with(&flipped, backend) {
                        Err(IndexIoError::Corrupt(m)) => {
                            assert!(!m.is_empty());
                            refused += 1;
                        }
                        Err(e) => panic!("byte {pos} ^ {mask:#x}: {e}"),
                        Ok((index, trussness, hierarchy)) => {
                            assert_eq!(index.edge_supernode.len(), trussness.len());
                            for sn in 0..index.num_supernodes() as u32 {
                                for &e in index.members(sn) {
                                    assert!((e as usize) < trussness.len());
                                }
                                for &t in index.neighbors(sn) {
                                    assert!((t as usize) < index.num_supernodes());
                                }
                            }
                            for e in 0..trussness.len() as u32 {
                                if let Some(sn) = index.supernode_of(e) {
                                    assert!((sn as usize) < index.num_supernodes());
                                }
                            }
                            assert!(hierarchy.num_nodes() >= index.num_supernodes());
                            loaded_ok += 1;
                        }
                    }
                }
            }
        }
        // Interior offsets are covered, not only the last entry of each array.
        assert!(
            refused > 0 && loaded_ok > 0,
            "{refused} refused, {loaded_ok} loaded"
        );
    }

    #[test]
    fn queries_work_after_reload() {
        let g = EdgeIndexedGraph::new(et_gen::fixtures::paper_example().graph.clone());
        let tau = et_truss::decompose_parallel(&g).trussness;
        let built = build_index(&g, Variant::Baseline).index;
        let path = tmp("query.etidx");
        write_index(&built, &tau, &path).unwrap();
        let (loaded, _) = read_index(&path).unwrap();
        assert_eq!(loaded.canonical(), built.canonical());
    }
}
