//! Corrupt-input corpus against both on-disk loaders (graph binary/text and
//! the EquiTruss index), plus a property test pinning the chunked parallel
//! text parser to the serial oracle.
//!
//! Every corpus entry must be rejected with a *located* error — never a
//! panic, and never an allocation proportional to an unvalidated header
//! count.

use parallel_equitruss::equitruss::io::IndexIoError;
use parallel_equitruss::equitruss::{build_index, io as index_io, Variant};
use parallel_equitruss::gen::cases::{cases, id_pairs};
use parallel_equitruss::graph::{
    io as graph_io, Backend, CsrGraph, EdgeIndexedGraph, GraphBuilder, GraphError,
};
use parallel_equitruss::truss::decompose_parallel;
use rand::Rng;
use std::io::Cursor;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pe-ingest-corpus");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn write_corpus(name: &str, bytes: &[u8]) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    path
}

fn sample_graph() -> CsrGraph {
    GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).build()
}

/// A valid binary graph file plus its raw bytes, ready for targeted damage.
fn valid_binary(name: &str) -> (PathBuf, Vec<u8>) {
    let path = scratch(name);
    graph_io::write_binary(&sample_graph(), &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

fn expect_graph_rejection(res: Result<CsrGraph, GraphError>, needle: &str) {
    match res {
        Err(GraphError::Parse { message, .. }) => assert!(
            message.contains(needle),
            "error {message:?} does not mention {needle:?}"
        ),
        Err(other) => panic!("expected Parse error mentioning {needle:?}, got {other}"),
        Ok(_) => panic!("corrupt file accepted (expected error mentioning {needle:?})"),
    }
}

// ---- binary graph loader corpus -------------------------------------------

#[test]
fn binary_bad_magic_rejected() {
    let (_, mut bytes) = valid_binary("magic.bin");
    bytes[..8].copy_from_slice(b"NOTACSR0");
    let p = write_corpus("magic-bad.bin", &bytes);
    expect_graph_rejection(graph_io::read_binary(&p), "bad magic");
    // The extension dispatcher must reject it identically.
    expect_graph_rejection(graph_io::read_graph(&p), "bad magic");
}

#[test]
fn binary_truncated_offsets_array_rejected() {
    let (_, bytes) = valid_binary("trunc.bin");
    // Chop the file mid-way through the offsets array: the header now
    // promises more bytes than exist.
    let p = write_corpus("trunc-cut.bin", &bytes[..24 + 3 * 8 + 5]);
    expect_graph_rejection(graph_io::read_binary(&p), "file length mismatch");
}

#[test]
fn binary_truncated_header_rejected() {
    let (_, bytes) = valid_binary("hdr.bin");
    let p = write_corpus("hdr-cut.bin", &bytes[..17]);
    assert!(
        graph_io::read_binary(&p).is_err(),
        "truncated header accepted"
    );
}

#[test]
fn binary_huge_counts_rejected_without_allocating() {
    // Header claims u64::MAX vertices on a 24-byte file. The loader must
    // bail on the id-space cap before reserving anything proportional to
    // the claim — if it tried to allocate (n + 1) * 8 bytes this test would
    // abort the process, not fail an assert.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ETCSRv01");
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    let p = write_corpus("huge-n.bin", &bytes);
    expect_graph_rejection(graph_io::read_binary(&p), "exceeds u32 id space");

    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ETCSRv01");
    bytes.extend_from_slice(&4u64.to_le_bytes());
    bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
    let p = write_corpus("huge-arcs.bin", &bytes);
    expect_graph_rejection(graph_io::read_binary(&p), "exceeds u32 edge id space");

    // In-cap counts that still overstate the file are caught by the exact
    // length cross-check, again before any payload allocation.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"ETCSRv01");
    bytes.extend_from_slice(&1_000_000u64.to_le_bytes());
    bytes.extend_from_slice(&2_000_000u64.to_le_bytes());
    let p = write_corpus("huge-claim.bin", &bytes);
    expect_graph_rejection(graph_io::read_binary(&p), "file length mismatch");
}

#[test]
fn binary_non_monotone_offsets_rejected() {
    let (_, mut bytes) = valid_binary("mono.bin");
    // Offsets live at [24, 24 + 6*8); make the second one larger than the
    // third so the row extents go backwards.
    bytes[24 + 8..24 + 16].copy_from_slice(&9u64.to_le_bytes());
    let p = write_corpus("mono-bad.bin", &bytes);
    expect_graph_rejection(graph_io::read_binary(&p), "invalid graph");
}

#[test]
fn binary_offset_past_neighbors_rejected() {
    let (_, mut bytes) = valid_binary("range.bin");
    // Last offset (row 5's end) claims more arcs than the array holds;
    // before the bounds check this sliced out of range and panicked.
    bytes[24 + 5 * 8..24 + 6 * 8].copy_from_slice(&64u64.to_le_bytes());
    let p = write_corpus("range-bad.bin", &bytes);
    expect_graph_rejection(graph_io::read_binary(&p), "invalid graph");
}

#[test]
fn binary_neighbor_out_of_range_rejected() {
    let (_, mut bytes) = valid_binary("nbr.bin");
    // First neighbor id (right after the 6 offsets) set to >= n = 5.
    let nb0 = 24 + 6 * 8;
    bytes[nb0..nb0 + 4].copy_from_slice(&0xFFFF_FFFEu32.to_le_bytes());
    let p = write_corpus("nbr-bad.bin", &bytes);
    expect_graph_rejection(graph_io::read_binary(&p), "invalid graph");
}

// ---- text graph loader corpus ---------------------------------------------

#[test]
fn text_mid_line_eof_rejected_with_line_number() {
    // File ends mid-line with only one token — no trailing newline.
    let p = write_corpus("midline.txt", b"# comment\n0 1\n1 2\n3");
    match graph_io::read_graph(&p) {
        Err(GraphError::Parse { line, message }) => {
            assert_eq!(line, 4, "wrong line number in: {message}");
            assert!(message.contains("expected two vertex ids"), "{message}");
        }
        other => panic!("expected a located parse error, got {other:?}"),
    }
}

#[test]
fn text_garbage_token_locates_line_across_chunks() {
    // 600 good lines, one bad one: every chunking must report line 301.
    let mut text = String::new();
    for i in 0..600u32 {
        if i == 300 {
            text.push_str("12 oops\n");
        } else {
            text.push_str(&format!("{} {}\n", i % 40, (i + 1) % 40));
        }
    }
    for chunks in [1, 2, 5, 17] {
        match graph_io::parse_text_edge_list_chunked(text.as_bytes(), chunks) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 301, "chunks = {chunks}"),
            other => panic!("chunks = {chunks}: expected parse error, got {other:?}"),
        }
    }
}

// ---- index loader corpus ---------------------------------------------------

/// Length of the format magic every `.etidx` file opens with. The corrupt
/// files below take theirs from a freshly written index, never a literal, so
/// a format bump cannot turn them into bad-magic tests.
const MAGIC_LEN: usize = 8;

/// A valid index file plus its raw bytes.
fn valid_index(name: &str) -> (PathBuf, Vec<u8>) {
    let g = EdgeIndexedGraph::new(sample_graph());
    let tau = decompose_parallel(&g).trussness;
    let b = build_index(&g, Variant::Baseline);
    let path = scratch(name);
    index_io::write_index_with_hierarchy(&b.index, &tau, &b.hierarchy, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// Both backends must refuse the file with a `Corrupt` error naming `needle`.
fn expect_index_rejection(path: &PathBuf, needle: &str) {
    for backend in [Backend::Owned, Backend::Mapped] {
        match index_io::read_index_with_hierarchy_with(path, backend) {
            Err(IndexIoError::Corrupt(m)) => assert!(
                m.contains(needle),
                "{backend:?}: error {m:?} does not mention {needle:?}"
            ),
            Err(other) => {
                panic!("{backend:?}: expected Corrupt mentioning {needle:?}, got {other}")
            }
            Ok(_) => panic!("{backend:?}: corrupt index accepted (expected {needle:?})"),
        }
    }
}

#[test]
fn index_bad_magic_rejected() {
    let (_, mut bytes) = valid_index("imagic.etidx");
    bytes[0] ^= 0xFF;
    let p = write_corpus("imagic-bad.etidx", &bytes);
    expect_index_rejection(&p, "bad magic");
}

#[test]
fn index_length_over_cap_rejected_without_allocating() {
    // First array length claims 2^62 entries; the sanity cap must fire
    // before any attempt to reserve that much.
    let (_, mut bytes) = valid_index("icap-valid.etidx");
    bytes.truncate(MAGIC_LEN);
    bytes.extend_from_slice(&(1u64 << 62).to_le_bytes());
    let p = write_corpus("icap.etidx", &bytes);
    expect_index_rejection(&p, "sanity cap");
}

#[test]
fn index_truncated_array_rejected() {
    // Length 1000 is under the cap but the file holds only 8 more bytes —
    // the remaining-bytes cross-check must fire before allocation.
    let (_, mut bytes) = valid_index("itrunc-valid.etidx");
    bytes.truncate(MAGIC_LEN);
    bytes.extend_from_slice(&1000u64.to_le_bytes());
    bytes.extend_from_slice(&7u64.to_le_bytes());
    let p = write_corpus("itrunc.etidx", &bytes);
    expect_index_rejection(&p, "remain");
}

#[test]
fn index_truncated_mid_file_rejected() {
    let (_, bytes) = valid_index("icut.etidx");
    let p = write_corpus("icut-half.etidx", &bytes[..bytes.len() / 2]);
    assert!(
        index_io::read_index(&p).is_err(),
        "truncated index accepted"
    );
}

#[test]
fn index_trailing_bytes_rejected() {
    let (_, mut bytes) = valid_index("itail.etidx");
    bytes.extend_from_slice(&[0u8; 3]);
    let p = write_corpus("itail-pad.etidx", &bytes);
    expect_index_rejection(&p, "trailing");
}

// ---- parallel parser == serial oracle --------------------------------------

/// Renders an edge list as text with per-line cosmetic variation (separators,
/// comments, blank lines) chosen deterministically from the line index.
fn render_text(edges: &[(u32, u32)]) -> String {
    let mut text = String::from("% header comment\n");
    for (i, &(u, v)) in edges.iter().enumerate() {
        match i % 5 {
            0 => text.push_str(&format!("{u} {v}\n")),
            1 => text.push_str(&format!("{u}\t{v}\n")),
            2 => text.push_str(&format!("  {u}  {v}  \n")),
            3 => text.push_str(&format!("{u} {v} # trailing comment\n")),
            _ => text.push_str(&format!("\n{u} {v}\n")),
        }
    }
    text
}

#[test]
fn parallel_parse_matches_serial() {
    cases("parallel_parse_matches_serial", 256, |rng, size| {
        let edges = id_pairs(rng, size, 300, 0..400);
        let chunks = rng.gen_range(1usize..24);
        let text = render_text(&edges);
        let serial = graph_io::parse_text_edge_list_serial(Cursor::new(text.as_bytes()))
            .expect("serial parse");
        let auto = graph_io::parse_text_edge_list_bytes(text.as_bytes()).expect("auto parse");
        let forced =
            graph_io::parse_text_edge_list_chunked(text.as_bytes(), chunks).expect("chunked parse");
        assert_eq!(&serial, &auto);
        assert_eq!(&serial, &forced);
        assert_eq!(serial.build(), auto.build());
    });
}

#[test]
fn generated_graph_text_roundtrip_via_parallel_parser() {
    let g = parallel_equitruss::gen::rmat_small(8, 8, 7);
    let p = scratch("rmat-s8.txt");
    graph_io::write_text_edge_list(&g, &p).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    let serial = graph_io::parse_text_edge_list_serial(Cursor::new(&bytes[..])).unwrap();
    let parallel = graph_io::parse_text_edge_list_bytes(&bytes).unwrap();
    assert_eq!(serial, parallel);
    // The text format keeps only edges, so compare edge sequences (trailing
    // isolated vertices don't survive the roundtrip).
    assert_eq!(
        parallel.build().edges().collect::<Vec<_>>(),
        g.edges().collect::<Vec<_>>()
    );
}
