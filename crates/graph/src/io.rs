//! Graph file I/O: SNAP-style text edge lists and a compact binary format.
//!
//! The paper loads SNAP datasets (Table 3) with up to billions of edges, so
//! ingest is built as a parallel, validated pipeline:
//!
//! * **Text** — the file is split into byte ranges (one per rayon worker,
//!   several per thread for load balance), each range boundary snapped
//!   forward to the next newline, and every chunk parsed independently into
//!   a thread-local edge buffer. Chunk outputs are concatenated in file
//!   order, so the result is byte-for-byte identical to the serial parser
//!   ([`parse_text_edge_list_serial`], kept as the oracle). Parse errors
//!   keep exact 1-based line numbers: a failing chunk reports the byte
//!   offset of the offending line, and the line number is recovered by
//!   counting newlines once, only on the error path.
//! * **Binary** — header counts are validated against the *actual file
//!   length* (and the `u32` vertex/edge id space) before any allocation, so
//!   a corrupt or truncated header can never trigger a multi-GB
//!   `Vec::with_capacity`. The payload is then pulled in with one bulk
//!   `read_exact` into a slab sized by the real file, decoded in place
//!   (little-endian, rayon-chunked for the arc array), and structurally
//!   validated via [`CsrGraph::try_from_raw`] before the graph is handed
//!   out.
//!
//! The parallel text parser recognizes ASCII whitespace separators (space,
//! tab, CR, VT, FF) — the SNAP format — where the serial oracle, going
//! through `str::split_whitespace`, would also accept exotic Unicode
//! whitespace. Both accept `#`/`%` comment lines and blank lines anywhere.
//!
//! Ingest is observable via `et-obs`: an `Ingest` span wraps each file
//! load, with `ingest.bytes`, `ingest.chunks`, and `ingest.parse_errors`
//! counters.

use crate::buf::{Backend, Mmap};
use crate::{CsrGraph, EdgeList, GraphError, VertexId};
use rayon::prelude::*;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Elements encoded per bulk `write_all` by the binary writer.
const ENCODE_CHUNK: usize = 1 << 16;
/// Arcs decoded per rayon job by the binary reader.
const DECODE_CHUNK: usize = 1 << 16;
/// Below this size the text parser doesn't bother chunking.
const MIN_CHUNK_BYTES: usize = 64 * 1024;

/// Loads a graph from a path, dispatching on the extension: `.bin` goes to
/// [`read_binary`], anything else is parsed as a text edge list and built
/// into a canonical CSR (a `.binz` path — the removed delta/varint format —
/// is rejected by name rather than parsed as text). Binary files decode into
/// owned memory; use [`read_graph_with`] to request the memory-mapped
/// backend.
pub fn read_graph<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_graph_with(path, Backend::Owned)
}

/// [`read_graph`] with an explicit storage backend for binary files.
///
/// Under [`Backend::Mapped`] the `.bin` arrays become zero-copy views of the
/// mapped file (validated in place, never copied); text inputs must be
/// decoded, so they always produce owned storage.
pub fn read_graph_with<P: AsRef<Path>>(path: P, backend: Backend) -> Result<CsrGraph, GraphError> {
    let path = path.as_ref();
    match path.extension() {
        Some(e) if e == "bin" => read_binary_with(path, backend),
        Some(e) if e == "binz" => Err(corrupt_err(format!(
            "{}: the compressed .binz graph format (ETCSZv01) is no longer supported; \
             regenerate the graph as .bin",
            path.display()
        ))),
        _ => Ok(read_text_edge_list(path)?.build()),
    }
}

/// Reads a SNAP-style text edge list into an [`EdgeList`], parsing chunks
/// of the file in parallel.
///
/// Lines starting with `#` or `%` are comments; blank lines are skipped; each
/// remaining line must contain two whitespace-separated vertex ids.
pub fn read_text_edge_list<P: AsRef<Path>>(path: P) -> Result<EdgeList, GraphError> {
    let bytes = std::fs::read(path)?;
    let _span = et_obs::span("Ingest").arg("bytes", bytes.len() as u64);
    parse_text_edge_list_bytes(&bytes)
}

/// Parses the text edge-list format from any reader (reads to the end, then
/// parses the buffered bytes in parallel).
pub fn parse_text_edge_list<R: BufRead>(mut reader: R) -> Result<EdgeList, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_text_edge_list_bytes(&bytes)
}

/// The serial line-by-line parser: the oracle the parallel parser is pinned
/// against (property tests assert both produce the same [`EdgeList`]).
pub fn parse_text_edge_list_serial<R: BufRead>(mut reader: R) -> Result<EdgeList, GraphError> {
    let mut el = EdgeList::new(0);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        lineno += 1;
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |tok: Option<&str>, lineno: usize| -> Result<VertexId, GraphError> {
            let tok = tok.ok_or(GraphError::Parse {
                line: lineno,
                message: "expected two vertex ids".into(),
            })?;
            tok.parse::<VertexId>().map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad vertex id {tok:?}: {e}"),
            })
        };
        let u = parse(it.next(), lineno)?;
        let v = parse(it.next(), lineno)?;
        el.push(u, v);
    }
    el.fit_vertices();
    Ok(el)
}

/// Parses a whole text edge list held in memory, choosing a chunk count from
/// the current rayon pool width.
pub fn parse_text_edge_list_bytes(bytes: &[u8]) -> Result<EdgeList, GraphError> {
    let chunks = if bytes.len() < MIN_CHUNK_BYTES {
        1
    } else {
        (rayon::current_num_threads() * 4)
            .min(bytes.len() / MIN_CHUNK_BYTES)
            .max(1)
    };
    parse_text_edge_list_chunked(bytes, chunks)
}

/// Parses with an explicit chunk count (exposed so tests and benches can pin
/// the chunking scheme; results are identical for every chunk count).
pub fn parse_text_edge_list_chunked(bytes: &[u8], chunks: usize) -> Result<EdgeList, GraphError> {
    let ranges = chunk_ranges(bytes, chunks);
    et_obs::counter_add("ingest.bytes", bytes.len() as u64);
    et_obs::counter_add("ingest.chunks", ranges.len() as u64);

    let results: Vec<Result<ChunkOut, ChunkErr>> = ranges
        .into_par_iter()
        .map(|(start, end)| parse_chunk(bytes, start, end))
        .collect();

    let errors = results.iter().filter(|r| r.is_err()).count();
    if errors > 0 {
        et_obs::counter_add("ingest.parse_errors", errors as u64);
        // Chunks cover the file in order and each reports its first bad
        // line, so the first failing chunk holds the globally first error —
        // the same line the serial parser would have stopped at.
        let e = results
            .iter()
            .find_map(|r| r.as_ref().err())
            .expect("counted at least one error");
        let line = 1 + bytes[..e.line_start]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        return Err(GraphError::Parse {
            line,
            message: e.message.clone(),
        });
    }

    let mut total = 0usize;
    let mut num_vertices = 0usize;
    for r in &results {
        let o = r.as_ref().expect("no errors past the check above");
        total += o.edges.len();
        num_vertices = num_vertices.max(o.num_vertices);
    }
    let mut edges = Vec::with_capacity(total);
    for r in results {
        edges.extend(r.expect("no errors past the check above").edges);
    }
    // Each chunk tracked its max endpoint, so the merged list is already
    // fitted — EdgeList::build won't re-scan.
    Ok(EdgeList::from_vec_fitted(num_vertices, edges))
}

/// Byte ranges covering `bytes`, boundaries snapped forward to just past the
/// next newline so no line straddles two ranges.
fn chunk_ranges(bytes: &[u8], chunks: usize) -> Vec<(usize, usize)> {
    let len = bytes.len();
    let chunks = chunks.max(1);
    let mut cuts = vec![0usize];
    for i in 1..chunks {
        let raw = i * len / chunks;
        let cut = match bytes[raw..].iter().position(|&b| b == b'\n') {
            Some(p) => raw + p + 1,
            None => len,
        };
        if cut > *cuts.last().expect("cuts is never empty") && cut < len {
            cuts.push(cut);
        }
    }
    cuts.push(len);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

#[derive(Debug)]
struct ChunkOut {
    edges: Vec<(VertexId, VertexId)>,
    /// One past the max endpoint seen (0 if the chunk held no edges).
    num_vertices: usize,
}

#[derive(Debug)]
struct ChunkErr {
    /// Byte offset of the start of the offending line.
    line_start: usize,
    message: String,
}

fn parse_chunk(bytes: &[u8], start: usize, end: usize) -> Result<ChunkOut, ChunkErr> {
    // ~"two small ints + separator + newline" per line lower bound.
    let mut edges = Vec::with_capacity((end - start) / 8);
    let mut num_vertices = 0usize;
    let mut pos = start;
    while pos < end {
        let nl = bytes[pos..end]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(end, |p| pos + p);
        match parse_line(&bytes[pos..nl]) {
            Ok(Some((u, v))) => {
                num_vertices = num_vertices.max(u.max(v) as usize + 1);
                edges.push((u, v));
            }
            Ok(None) => {}
            Err(message) => {
                return Err(ChunkErr {
                    line_start: pos,
                    message,
                })
            }
        }
        pos = nl + 1;
    }
    Ok(ChunkOut {
        edges,
        num_vertices,
    })
}

/// ASCII separators of the SNAP text format (what `char::is_whitespace`
/// accepts in ASCII, newline excluded — lines are already split).
#[inline]
fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// Parses one line into an edge; `Ok(None)` for blank and comment lines.
fn parse_line(line: &[u8]) -> Result<Option<(VertexId, VertexId)>, String> {
    let mut i = 0;
    while i < line.len() && is_ws(line[i]) {
        i += 1;
    }
    if i == line.len() || line[i] == b'#' || line[i] == b'%' {
        return Ok(None);
    }
    let missing = || "expected two vertex ids".to_string();
    let u = parse_vertex(next_token(line, &mut i).ok_or_else(missing)?)?;
    let v = parse_vertex(next_token(line, &mut i).ok_or_else(missing)?)?;
    Ok(Some((u, v)))
}

fn next_token<'a>(line: &'a [u8], i: &mut usize) -> Option<&'a [u8]> {
    while *i < line.len() && is_ws(line[*i]) {
        *i += 1;
    }
    if *i == line.len() {
        return None;
    }
    let start = *i;
    while *i < line.len() && !is_ws(line[*i]) {
        *i += 1;
    }
    Some(&line[start..*i])
}

/// Parses a decimal vertex id (optional `+` sign, like `str::parse::<u32>`).
fn parse_vertex(tok: &[u8]) -> Result<VertexId, String> {
    let bad = || format!("bad vertex id {:?}", String::from_utf8_lossy(tok));
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return Err(bad());
    }
    let mut v: u64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(bad());
        }
        v = v * 10 + (b - b'0') as u64;
        if v > VertexId::MAX as u64 {
            return Err(format!(
                "bad vertex id {:?}: exceeds u32",
                String::from_utf8_lossy(tok)
            ));
        }
    }
    Ok(v as VertexId)
}

/// Writes a graph as a text edge list (one `u v` line per undirected edge).
pub fn write_text_edge_list<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<(), GraphError> {
    use std::fmt::Write as _;
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    // Format into a string slab, one bulk write per ~64 KiB, instead of one
    // formatted write per edge.
    let mut buf = String::with_capacity(2 * ENCODE_CHUNK);
    let _ = writeln!(
        buf,
        "# undirected simple graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    for (u, v) in graph.edges() {
        let _ = writeln!(buf, "{u} {v}");
        if buf.len() >= ENCODE_CHUNK {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    w.write_all(buf.as_bytes())?;
    w.flush()?;
    Ok(())
}

pub(crate) const BINARY_MAGIC: &[u8; 8] = b"ETCSRv01";
/// Vertex ids are `u32`.
pub(crate) const MAX_VERTICES: u64 = u32::MAX as u64;
/// Edge ids are `u32` and every undirected edge stores two arcs.
pub(crate) const MAX_ARCS: u64 = 2 * (u32::MAX as u64);

/// The validated header of a binary CSR graph file, readable without
/// touching the arrays (powers `equitruss info`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinaryHeader {
    /// Number of vertices.
    pub num_vertices: u64,
    /// Number of directed arcs (2x undirected edges).
    pub num_arcs: u64,
    /// Actual file length in bytes (equal to the header-implied size).
    pub file_len: u64,
}

impl BinaryHeader {
    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.num_arcs / 2
    }
}

fn corrupt_err(message: String) -> GraphError {
    GraphError::Parse { line: 0, message }
}

/// Parses and validates the 24-byte ETCSRv01 header against the id-space
/// caps and the actual file length — before anything is allocated or mapped.
fn parse_binary_header(header: &[u8; 24], file_len: u64) -> Result<BinaryHeader, GraphError> {
    if &header[..8] != BINARY_MAGIC {
        return Err(corrupt_err("bad magic in binary graph file".into()));
    }
    let n = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let arcs = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    if n > MAX_VERTICES {
        return Err(corrupt_err(format!(
            "vertex count {n} exceeds u32 id space"
        )));
    }
    if arcs > MAX_ARCS {
        return Err(corrupt_err(format!(
            "arc count {arcs} exceeds u32 edge id space"
        )));
    }
    let body = (n + 1) * 8 + arcs * 4; // no overflow: both counts capped above
    let expected = 24 + body;
    if expected != file_len {
        return Err(corrupt_err(format!(
            "file length mismatch: header claims {n} vertices and {arcs} arcs \
             ({expected} bytes), file has {file_len} bytes"
        )));
    }
    Ok(BinaryHeader {
        num_vertices: n,
        num_arcs: arcs,
        file_len,
    })
}

/// Reads and validates only the header of a `.bin` graph file.
pub fn read_binary_header<P: AsRef<Path>>(path: P) -> Result<BinaryHeader, GraphError> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut header = [0u8; 24];
    r.read_exact(&mut header)?;
    parse_binary_header(&header, file_len)
}

/// Writes the CSR arrays in a compact little-endian binary format.
pub fn write_binary<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_arcs() as u64).to_le_bytes())?;
    // Encode into a bounded slab, one bulk write per chunk, instead of one
    // 8-byte write per element.
    let mut buf = Vec::with_capacity(8 * ENCODE_CHUNK);
    for block in graph.offsets().chunks(ENCODE_CHUNK) {
        buf.clear();
        for &o in block {
            buf.extend_from_slice(&(o as u64).to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    for block in graph.raw_neighbors().chunks(2 * ENCODE_CHUNK) {
        buf.clear();
        for &v in block {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a graph previously written by [`write_binary`].
///
/// Validation happens *before* allocation: the header's vertex and arc
/// counts are checked against the id-space caps and the actual file length,
/// so corrupt counts produce an error — never an attempt to reserve memory
/// proportional to the claimed sizes. The payload arrives via one bulk
/// `read_exact` and is decoded in place (arc array in parallel).
pub fn read_binary<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_binary_with(path, Backend::Owned)
}

/// [`read_binary`] with an explicit storage backend.
///
/// Under [`Backend::Mapped`] the file is memory-mapped once its header has
/// been validated against the real file length, and the offset/neighbor
/// arrays become zero-copy typed views: structural validation then runs on
/// the borrowed slices ([`CsrGraph::try_from_bufs`]) without copying them
/// onto the heap. On targets where zero-copy reinterpretation of the
/// little-endian layout is unavailable, this silently falls back to the
/// owned decode path.
pub fn read_binary_with<P: AsRef<Path>>(path: P, backend: Backend) -> Result<CsrGraph, GraphError> {
    let path = path.as_ref();
    if backend.is_mapped() && crate::buf::ZERO_COPY_TARGET && Mmap::supported() {
        read_binary_mapped(path)
    } else {
        read_binary_owned(path)
    }
}

fn read_binary_owned(path: &Path) -> Result<CsrGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let _span = et_obs::span("Ingest").arg("bytes", file_len);
    et_obs::counter_add("ingest.bytes", file_len);

    let mut r = BufReader::new(file);
    let mut header = [0u8; 24];
    r.read_exact(&mut header)?;
    let h = parse_binary_header(&header, file_len)?;
    let (n, arcs) = (h.num_vertices, h.num_arcs);

    // One slab read; the size was just proven equal to the real file size.
    let body = file_len - 24;
    let mut bytes = vec![0u8; body as usize];
    r.read_exact(&mut bytes)?;
    let (off_bytes, nb_bytes) = bytes.split_at((n as usize + 1) * 8);
    let mut offsets = Vec::with_capacity(n as usize + 1);
    for c in off_bytes.chunks_exact(8) {
        offsets.push(u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize);
    }
    let mut neighbors = vec![0 as VertexId; arcs as usize];
    neighbors
        .par_chunks_mut(DECODE_CHUNK)
        .enumerate()
        .for_each(|(ci, dst)| {
            let base = ci * DECODE_CHUNK * 4;
            for (j, d) in dst.iter_mut().enumerate() {
                let o = base + j * 4;
                *d = VertexId::from_le_bytes(nb_bytes[o..o + 4].try_into().expect("4 bytes"));
            }
        });

    CsrGraph::try_from_raw(offsets, neighbors)
        .map_err(|m| corrupt_err(format!("invalid graph in binary file: {m}")))
}

/// The zero-copy load: header-validate, map, view. Only compiled on targets
/// where the on-disk little-endian u64/u32 arrays can be reinterpreted in
/// place (64-bit little-endian unix).
#[cfg(all(unix, target_pointer_width = "64", target_endian = "little"))]
fn read_binary_mapped(path: &Path) -> Result<CsrGraph, GraphError> {
    use crate::buf::MappedSlice;

    let file = std::fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let _span = et_obs::span("Ingest").arg("bytes", file_len);
    et_obs::counter_add("ingest.bytes", file_len);
    et_obs::counter_add("ingest.mapped", 1);

    if file_len < 24 {
        return Err(corrupt_err(format!(
            "binary graph file of {file_len} bytes is shorter than its header"
        )));
    }
    // The header is validated against the real file length *before* any
    // typed view is built, so views never extend past EOF (no SIGBUS).
    let map = Mmap::map(&file, file_len as usize).map(std::sync::Arc::new)?;
    // Header parse + structural validation stream the file front-to-back
    // exactly once: tell the kernel so readahead runs ahead of the scan.
    map.advise(crate::buf::Advice::Sequential);
    let header: &[u8; 24] = map.bytes()[..24].try_into().expect("24 bytes");
    let h = parse_binary_header(header, file_len)?;
    let (n, arcs) = (h.num_vertices as usize, h.num_arcs as usize);

    // On-disk u64 LE == in-memory usize on this target; the mapping is
    // page-aligned, so offset 24 is 8-aligned and 24 + (n + 1) * 8 is
    // 4-aligned.
    let offsets =
        MappedSlice::<usize>::new(std::sync::Arc::clone(&map), 24, n + 1).map_err(corrupt_err)?;
    let neighbors =
        MappedSlice::<VertexId>::new(map, 24 + (n + 1) * 8, arcs).map_err(corrupt_err)?;
    CsrGraph::try_from_bufs(offsets.into(), neighbors.into())
        .map_err(|m| corrupt_err(format!("invalid graph in binary file: {m}")))
}

#[cfg(not(all(unix, target_pointer_width = "64", target_endian = "little")))]
fn read_binary_mapped(path: &Path) -> Result<CsrGraph, GraphError> {
    read_binary_owned(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::io::Cursor;

    fn sample() -> CsrGraph {
        GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).build()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("et_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parse_with_comments_and_blanks() {
        let text = "# snap header\n% another comment\n\n0 1\n1\t2\n 2 0 \n";
        let el = parse_text_edge_list(Cursor::new(text)).unwrap();
        let g = el.clone().build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        // Serial oracle agrees exactly (same edge order, same vertex count).
        assert_eq!(el, parse_text_edge_list_serial(Cursor::new(text)).unwrap());
    }

    #[test]
    fn parse_errors_are_located() {
        let text = "0 1\nbogus line\n";
        match parse_text_edge_list(Cursor::new(text)) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn binz_path_is_rejected_by_name() {
        // No file needed: the removed format is refused on its extension,
        // before anything is opened or parsed as text.
        let err = read_graph(tmp("old.binz")).unwrap_err().to_string();
        assert!(err.contains("old.binz"), "{err}");
        assert!(err.contains("no longer supported"), "{err}");
        assert!(err.contains("regenerate the graph as .bin"), "{err}");
        assert!(!err.contains("magic"), "{err}");
    }

    #[test]
    fn parse_missing_second_endpoint() {
        assert!(parse_text_edge_list(Cursor::new("7\n")).is_err());
        // Mid-line EOF: the file ends inside a record with no newline.
        assert!(parse_text_edge_list(Cursor::new("0 1\n2 ")).is_err());
        assert!(parse_text_edge_list_serial(Cursor::new("0 1\n2 ")).is_err());
    }

    #[test]
    fn parallel_matches_serial_across_chunk_counts() {
        let mut text = String::from("# header\n");
        for i in 0..997u32 {
            text.push_str(&format!("{} {}\n", i % 61, (i * 7) % 53));
            if i % 97 == 0 {
                text.push_str("% interleaved comment\n\n");
            }
        }
        let serial = parse_text_edge_list_serial(Cursor::new(text.as_str())).unwrap();
        for chunks in [1, 2, 3, 7, 16, 64] {
            let par = parse_text_edge_list_chunked(text.as_bytes(), chunks).unwrap();
            assert_eq!(par, serial, "chunks = {chunks}");
        }
    }

    #[test]
    fn error_line_numbers_survive_chunking() {
        let mut text = String::new();
        for i in 0..500u32 {
            text.push_str(&format!("{i} {}\n", i + 1));
        }
        text.push_str("3 oops\n"); // line 501
        for i in 0..500u32 {
            text.push_str(&format!("{i} {}\n", i + 2));
        }
        for chunks in [1, 4, 32] {
            match parse_text_edge_list_chunked(text.as_bytes(), chunks) {
                Err(GraphError::Parse { line, message }) => {
                    assert_eq!(line, 501, "chunks = {chunks}");
                    assert!(message.contains("oops"), "message: {message}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        // And the serial oracle blames the same line.
        match parse_text_edge_list_serial(Cursor::new(text.as_str())) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 501),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn first_error_wins_across_chunks() {
        // Two bad lines in different chunks: the earlier one is reported.
        let mut text = String::new();
        for i in 0..200u32 {
            text.push_str(&format!("{i} {}\n", i + 1));
        }
        text.push_str("bad1\n"); // line 201
        for i in 0..200u32 {
            text.push_str(&format!("{i} {}\n", i + 3));
        }
        text.push_str("bad2\n"); // line 402
        match parse_text_edge_list_chunked(text.as_bytes(), 8) {
            Err(GraphError::Parse { line, message }) => {
                assert_eq!(line, 201);
                assert!(message.contains("bad1"), "message: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn plus_sign_and_overflow_match_serial() {
        let ok = "+1 +2\n";
        assert_eq!(
            parse_text_edge_list(Cursor::new(ok)).unwrap(),
            parse_text_edge_list_serial(Cursor::new(ok)).unwrap()
        );
        for bad in ["4294967296 0\n", "-1 2\n", "1.5 2\n", "0x1 2\n", "+ 2\n"] {
            assert!(parse_text_edge_list(Cursor::new(bad)).is_err(), "{bad:?}");
            assert!(
                parse_text_edge_list_serial(Cursor::new(bad)).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn empty_and_comment_only_inputs() {
        for text in ["", "\n\n", "# only\n% comments\n"] {
            let el = parse_text_edge_list(Cursor::new(text)).unwrap();
            assert!(el.is_empty());
            assert_eq!(el, parse_text_edge_list_serial(Cursor::new(text)).unwrap());
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let path = tmp("roundtrip.txt");
        write_text_edge_list(&g, &path).unwrap();
        let g2 = read_text_edge_list(&path).unwrap().build();
        assert_eq!(g, g2);
        // The extension dispatcher takes the text path here.
        assert_eq!(g, read_graph(&path).unwrap());
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let path = tmp("roundtrip.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g, read_graph(&path).unwrap());
    }

    #[test]
    fn binary_rejects_garbage() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"not a graph file at all").unwrap();
        assert!(read_binary(&path).is_err());
    }

    #[test]
    fn binary_rejects_truncated_header() {
        let path = tmp("short.bin");
        std::fs::write(&path, &BINARY_MAGIC[..6]).unwrap();
        assert!(read_binary(&path).is_err());
        std::fs::write(&path, b"ETCSRv01\x05\x00").unwrap();
        assert!(read_binary(&path).is_err());
    }

    #[test]
    fn binary_rejects_huge_counts_without_allocating() {
        // A 24-byte file whose header claims astronomically large arrays:
        // the loader must error on the length check, not try to reserve.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(BINARY_MAGIC);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // arcs
        let path = tmp("huge.bin");
        std::fs::write(&path, &bytes).unwrap();
        match read_binary(&path) {
            Err(GraphError::Parse { message, .. }) => {
                assert!(message.contains("exceeds"), "message: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }

        // Counts within the id caps but far beyond the file's actual size
        // must fail the file-length cross-check.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(BINARY_MAGIC);
        bytes.extend_from_slice(&1_000_000u64.to_le_bytes());
        bytes.extend_from_slice(&8_000_000u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match read_binary(&path) {
            Err(GraphError::Parse { message, .. }) => {
                assert!(message.contains("length mismatch"), "message: {message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_structurally_invalid_payload() {
        // n = 2, arcs = 2 — correct length, but the offsets are
        // non-monotone-ish garbage / out of bounds. Must error, not panic.
        let craft = |offsets: [u64; 3], neighbors: [u32; 2]| {
            let mut b = Vec::new();
            b.extend_from_slice(BINARY_MAGIC);
            b.extend_from_slice(&2u64.to_le_bytes());
            b.extend_from_slice(&2u64.to_le_bytes());
            for o in offsets {
                b.extend_from_slice(&o.to_le_bytes());
            }
            for v in neighbors {
                b.extend_from_slice(&v.to_le_bytes());
            }
            b
        };
        let path = tmp("invalid.bin");
        // Offsets overshoot the arc array mid-way.
        std::fs::write(&path, craft([0, 10, 2], [1, 0])).unwrap();
        assert!(read_binary(&path).is_err());
        // The well-formed control: one edge {0, 1}.
        std::fs::write(&path, craft([0, 1, 2], [1, 0])).unwrap();
        assert!(read_binary(&path).is_ok());
        // Decreasing offsets.
        std::fs::write(&path, craft([2, 0, 2], [1, 0])).unwrap();
        assert!(read_binary(&path).is_err());
        // Neighbor id >= n.
        std::fs::write(&path, craft([0, 1, 2], [7, 0])).unwrap();
        assert!(read_binary(&path).is_err());
        // Nonzero first offset.
        std::fs::write(&path, craft([1, 1, 2], [1, 0])).unwrap();
        assert!(read_binary(&path).is_err());
    }

    #[test]
    fn mapped_load_is_identical_to_owned() {
        let g = sample();
        let path = tmp("mapped.bin");
        write_binary(&g, &path).unwrap();
        let owned = read_binary_with(&path, Backend::Owned).unwrap();
        let mapped = read_binary_with(&path, Backend::Mapped).unwrap();
        assert_eq!(owned, mapped);
        assert_eq!(owned.storage_backend(), "owned");
        if crate::buf::ZERO_COPY_TARGET {
            assert_eq!(mapped.storage_backend(), "mapped");
        }
        // Extension dispatch honours the backend too.
        assert_eq!(owned, read_graph_with(&path, Backend::Mapped).unwrap());
    }

    #[test]
    fn mapped_load_rejects_corruption_behind_valid_header() {
        let g = sample();
        let path = tmp("mapped-corrupt.bin");
        write_binary(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Truncation behind an intact header must fail the length
        // cross-check before any view is built (no SIGBUS later).
        for cut in [24usize, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                read_binary_with(&path, Backend::Mapped).is_err(),
                "cut = {cut}"
            );
        }
        // Structurally invalid payloads are rejected through the mapped
        // views as well: corrupt the first offset to a huge value.
        let mut bad = bytes.clone();
        bad[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(read_binary_with(&path, Backend::Mapped).is_err());
    }
}
