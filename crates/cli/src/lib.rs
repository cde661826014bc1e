//! # et-cli — the `equitruss` command-line tool
//!
//! End-user workflow over the library:
//!
//! ```text
//! equitruss generate dblp --scale 0.5 -o graph.txt     # synthetic dataset
//! equitruss stats graph.txt                            # graph + truss stats
//! equitruss build graph.txt -o graph.etidx             # construct + persist
//! equitruss query graph.txt graph.etidx -v 17 -k 4     # community search
//! ```
//!
//! Command logic lives here (testable, returns rendered output); the binary
//! is a thin argument parser.

#![warn(missing_docs)]

use et_core::{build_index, io as index_io, IndexStats, SupportKernel, Variant};
use et_graph::{io as graph_io, Backend, EdgeIndexedGraph, GraphStats};
use std::fmt::Write as _;
use std::path::Path;

/// CLI-level errors (message already user-formatted).
pub type CliResult = Result<String, String>;

/// Loads a graph from a text edge list (`.txt`) or binary (`.bin`) file on
/// the owned backend.
///
/// Both paths go through `et_graph`'s parallel validated ingest pipeline:
/// text files are chunk-parsed across the rayon pool (malformed lines keep
/// exact line numbers), and binary headers are validated against the actual
/// file size before anything is allocated.
pub fn load_graph(path: &Path) -> Result<EdgeIndexedGraph, String> {
    load_graph_with(path, Backend::Owned)
}

/// [`load_graph`] with an explicit storage backend. Under
/// [`Backend::Mapped`], `.bin` CSR arrays become zero-copy views of the
/// memory-mapped file; text inputs always decode to owned.
pub fn load_graph_with(path: &Path, backend: Backend) -> Result<EdgeIndexedGraph, String> {
    let g = graph_io::read_graph_with(path, backend)
        .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
    EdgeIndexedGraph::try_new(g).map_err(|e| format!("cannot index graph: {e}"))
}

/// Parses a variant name (`baseline` / `coptimal` / `afforest`).
pub fn parse_variant(name: &str) -> Result<Variant, String> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Variant::Baseline),
        "coptimal" | "c-optimal" | "copt" => Ok(Variant::COptimal),
        "afforest" | "aff" => Ok(Variant::Afforest),
        other => Err(format!(
            "unknown variant {other:?} (expected baseline | coptimal | afforest)"
        )),
    }
}

/// Resolves a default-off boolean runtime toggle (`--mmap` / `ET_MMAP`) from
/// a CLI flag and its environment variable. The CLI flag wins; when both are
/// present and disagree, a warning is printed to stderr naming both settings
/// — env vars must never silently override an explicit flag (or vice versa).
/// Env values are parsed strictly — `1`/`true` enables, `0`/`false`
/// disables, and anything else is warned about and ignored (a typo like
/// `ET_MMAP=on` must not silently read as a value).
pub fn resolve_toggle(flag_name: &str, cli: Option<bool>, env_var: &str) -> bool {
    let env = std::env::var(env_var).ok().and_then(|v| {
        if v == "1" || v.eq_ignore_ascii_case("true") {
            Some(true)
        } else if v == "0" || v.eq_ignore_ascii_case("false") {
            Some(false)
        } else {
            eprintln!(
                "warning: ignoring {env_var}={v:?}: expected 1/true or 0/false \
                 (using the default, {flag_name} = false)"
            );
            None
        }
    });
    match (cli, env) {
        (Some(c), Some(e)) => {
            if c != e {
                eprintln!(
                    "warning: --{flag_name} conflicts with {env_var}={} in the environment; \
                     the command-line flag wins ({flag_name} = {c})",
                    std::env::var(env_var).unwrap_or_default()
                );
            }
            c
        }
        (Some(c), None) => c,
        (None, Some(e)) => e,
        (None, None) => false,
    }
}

/// `generate <profile> [--scale F] -o <file>`: writes a synthetic dataset.
pub fn cmd_generate(profile: &str, scale: f64, out: &Path) -> CliResult {
    let p = et_gen::profile_by_name(profile).ok_or_else(|| {
        format!(
            "unknown profile {profile:?} (expected one of {})",
            et_gen::PROFILE_NAMES.join(", ")
        )
    })?;
    if scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    if out.extension().is_some_and(|e| e == "binz") {
        return Err(format!(
            "cannot write {}: the compressed .binz graph format is no longer supported; \
             write .bin",
            out.display()
        ));
    }
    let g = p.generate(scale);
    let result = if out.extension().is_some_and(|e| e == "bin") {
        graph_io::write_binary(&g, out)
    } else {
        graph_io::write_text_edge_list(&g, out)
    };
    result.map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(format!(
        "wrote {} ({} vertices, {} edges)",
        out.display(),
        g.num_vertices(),
        g.num_edges()
    ))
}

/// `stats <graph>`: prints graph, trussness, and index statistics.
pub fn cmd_stats(graph_path: &Path, backend: Backend) -> CliResult {
    let graph = load_graph_with(graph_path, backend)?;
    let gs = GraphStats::compute(graph.graph());
    let decomposition = et_truss::decompose_parallel(&graph);
    let index = build_index(&graph, Variant::Afforest).index;
    let is = IndexStats::compute(&index);

    let mut out = String::new();
    let _ = writeln!(out, "graph     : {}", graph_path.display());
    let _ = writeln!(
        out,
        "vertices  : {} ({} isolated)",
        gs.num_vertices, gs.isolated_vertices
    );
    let _ = writeln!(
        out,
        "edges     : {} (max degree {}, avg {:.2})",
        gs.num_edges, gs.max_degree, gs.avg_degree
    );
    let _ = writeln!(
        out,
        "trussness : max k = {}, classes {:?}",
        decomposition.max_trussness,
        decomposition.class_histogram()
    );
    let _ = writeln!(
        out,
        "index     : {} supernodes, {} superedges ({} indexed edges, compression {:.3})",
        is.supernodes, is.superedges, is.indexed_edges, is.compression_ratio
    );
    let _ = writeln!(
        out,
        "supernodes: max size {}, avg size {:.1}, per level {:?}",
        is.max_supernode_size, is.avg_supernode_size, is.supernodes_per_level
    );
    Ok(out)
}

/// `info <file>`: prints header metadata and structural stats of a binary
/// graph (`.bin`) or index (`.etidx`) file.
///
/// Only the header / length fields are read and validated — no array is
/// ever loaded, so this is O(1) in the graph size (and safe to point at
/// files too large to load).
pub fn cmd_info(path: &Path) -> CliResult {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or_default();
    let mut out = String::new();
    match ext {
        "bin" => {
            let h = graph_io::read_binary_header(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let _ = writeln!(out, "file      : {} ({} bytes)", path.display(), h.file_len);
            let _ = writeln!(out, "format    : ETCSRv01 binary CSR graph (mappable)");
            let _ = writeln!(out, "vertices  : {}", h.num_vertices);
            let _ = writeln!(out, "edges     : {} ({} arcs)", h.num_edges(), h.num_arcs);
            let _ = writeln!(
                out,
                "avg degree: {:.2}",
                h.num_arcs as f64 / (h.num_vertices.max(1)) as f64
            );
        }
        "etidx" => {
            let info = index_io::read_index_info(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let _ = writeln!(
                out,
                "file      : {} ({} bytes)",
                path.display(),
                info.file_len
            );
            let _ = writeln!(
                out,
                "format    : ETIDXv03 EquiTruss index (8-byte aligned, mappable)"
            );
            let _ = writeln!(
                out,
                "edges     : {} (indexed {})",
                info.num_edges, info.num_members
            );
            let _ = writeln!(out, "supernodes: {}", info.num_supernodes);
            let _ = writeln!(out, "superedges: {}", info.num_superedges);
            let _ = writeln!(
                out,
                "hierarchy : {} nodes ({} merge events)",
                info.num_hierarchy_nodes,
                info.num_hierarchy_nodes - info.num_supernodes
            );
        }
        other => {
            return Err(format!(
                "info expects a .bin or .etidx file, got {:?} ({})",
                path.display(),
                if other.is_empty() {
                    "no extension".to_string()
                } else {
                    format!("extension {other:?}")
                }
            ))
        }
    }
    Ok(out)
}

/// `build <graph> -o <index> [--variant V]`: constructs and persists. The
/// binary always passes [`SupportKernel::default`]; the fixed arms are for
/// tests that pin the `.etidx` bytes across them.
pub fn cmd_build(
    graph_path: &Path,
    out: &Path,
    variant: Variant,
    kernel: SupportKernel,
    backend: Backend,
) -> CliResult {
    let graph = load_graph_with(graph_path, backend)?;
    let t0 = std::time::Instant::now();
    let support = {
        let _span = et_obs::span("Support");
        kernel.compute(&graph)
    };
    let decomposition = {
        let _span = et_obs::span("TrussDecomp");
        et_truss::parallel::decompose_parallel_with_support(&graph, support)
    };
    let mut timings = et_core::KernelTimings::default();
    let index =
        et_core::build_index_with_decomposition(&graph, &decomposition, variant, &mut timings);
    let hierarchy = et_core::timings::timed(&mut timings.hierarchy, || {
        et_core::TrussHierarchy::build(&index)
    });
    let elapsed = t0.elapsed();
    index_io::write_index_with_hierarchy(&index, &decomposition.trussness, &hierarchy, out)
        .map_err(|e| format!("cannot write index: {e}"))?;
    Ok(format!(
        "built {} index in {:.2?} (SpNode {:.2?}, SpEdge {:.2?}, SmGraph {:.2?}, Hierarchy {:.2?})\n\
         {} supernodes, {} superedges, {} hierarchy nodes -> {} [graph storage: {}]",
        variant.name(),
        elapsed,
        timings.spnode,
        timings.spedge,
        timings.smgraph,
        timings.hierarchy,
        index.num_supernodes(),
        index.num_superedges(),
        hierarchy.num_nodes(),
        out.display(),
        graph.graph().storage_backend(),
    ))
}

struct LoadedIndex {
    graph: EdgeIndexedGraph,
    index: et_core::SuperGraph,
    hierarchy: et_core::TrussHierarchy,
}

fn load_query_state(
    graph_path: &Path,
    index_path: &Path,
    backend: Backend,
) -> Result<LoadedIndex, String> {
    let graph = load_graph_with(graph_path, backend)?;
    let (index, trussness, hierarchy) =
        index_io::read_index_with_hierarchy_with(index_path, backend)
            .map_err(|e| format!("cannot load index: {e}"))?;
    if trussness.len() != graph.num_edges() {
        return Err(format!(
            "index was built for a graph with {} edges, this graph has {}",
            trussness.len(),
            graph.num_edges()
        ));
    }
    Ok(LoadedIndex {
        graph,
        index,
        hierarchy,
    })
}

/// `query <graph> <index> -v <vertex> -k <level>`: community search for a
/// single vertex over the persisted truss hierarchy.
pub fn cmd_query(
    graph_path: &Path,
    index_path: &Path,
    vertex: u32,
    k: u32,
    backend: Backend,
) -> CliResult {
    let s = load_query_state(graph_path, index_path, backend)?;
    let t0 = std::time::Instant::now();
    let communities = et_community::query_communities(&s.graph, &s.index, &s.hierarchy, vertex, k);
    let elapsed = t0.elapsed();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "vertex {vertex} at k = {k}: {} community(ies) [{elapsed:.2?}]",
        communities.len()
    );
    for (i, c) in communities.iter().enumerate() {
        let m = et_community::community_metrics(&s.graph, c);
        let _ = writeln!(
            out,
            "  #{i}: {} vertices, {} edges, density {:.3}, conductance {:.3}",
            m.vertices, m.internal_edges, m.density, m.conductance
        );
        let members = c.vertices(&s.graph);
        let shown: Vec<String> = members.iter().take(16).map(u32::to_string).collect();
        let suffix = if members.len() > 16 { ", …" } else { "" };
        let _ = writeln!(out, "      members: {}{suffix}", shown.join(", "));
    }
    Ok(out)
}

/// `query <graph> <index> --batch <file>`: answers one `(vertex, k)` query per
/// line of `file` (whitespace-separated; `#` starts a comment), printing the
/// community sizes of each.
///
/// The sizes come straight from the merge forest's per-node aggregates — no
/// community is materialized.
pub fn cmd_query_batch(
    graph_path: &Path,
    index_path: &Path,
    batch_path: &Path,
    backend: Backend,
) -> CliResult {
    let text = std::fs::read_to_string(batch_path)
        .map_err(|e| format!("cannot read {}: {e}", batch_path.display()))?;
    let mut queries: Vec<(u32, u32)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32, String> {
            tok.ok_or(())
                .and_then(|t| t.parse().map_err(|_| ()))
                .map_err(|()| {
                    format!(
                        "{}:{}: expected `<vertex> <k>`, got {line:?}",
                        batch_path.display(),
                        lineno + 1
                    )
                })
        };
        let v = parse(it.next())?;
        let k = parse(it.next())?;
        queries.push((v, k));
    }

    let s = load_query_state(graph_path, index_path, backend)?;
    let t0 = std::time::Instant::now();
    let mut out = String::new();
    for &(v, k) in &queries {
        let stats = et_community::community_stats(&s.graph, &s.index, &s.hierarchy, v, k);
        let sizes: Vec<String> = stats
            .iter()
            .map(|cs| format!("{} edges / {} supernodes", cs.edges, cs.supernodes))
            .collect();
        let _ = writeln!(
            out,
            "v={v} k={k}: {} community(ies){}{}",
            stats.len(),
            if sizes.is_empty() { "" } else { " — " },
            sizes.join("; ")
        );
    }
    let elapsed = t0.elapsed();
    let _ = writeln!(out, "{} queries in {elapsed:.2?}", queries.len());
    Ok(out)
}

/// `serve <graph> <index.etidx> [...]`: starts the HTTP/JSON query service
/// over an on-disk graph/index pair and returns the running server (bound
/// and accepting). The caller decides whether to block on it —
/// `equitruss serve` joins forever, tests stop it.
///
/// The pair is remembered as the `/reload` source, so publishing a rebuilt
/// index is `equitruss build ... && curl -X POST /reload`.
pub fn start_serve(
    graph: &Path,
    index: &Path,
    config: &et_serve::ServeConfig,
    cache_capacity: usize,
    backend: Backend,
) -> Result<et_serve::Server, String> {
    let state = et_serve::ServeState::load(graph, index, backend)?;
    let reload = et_serve::ReloadSpec {
        graph: graph.to_path_buf(),
        index: index.to_path_buf(),
        backend,
    };
    let shared = std::sync::Arc::new(et_serve::SharedIndex::new(
        state,
        cache_capacity,
        Some(reload),
    ));
    et_serve::Server::start(shared, config)
        .map_err(|e| format!("cannot serve on {}: {e}", config.addr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join("et-cli-test");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn full_cli_workflow() {
        let dir = tmp_dir();
        let graph = dir.join("g.txt");
        let index = dir.join("g.etidx");

        let msg = cmd_generate("dblp", 1.0 / 64.0, &graph).unwrap();
        assert!(msg.contains("vertices"));

        let stats = cmd_stats(&graph, Backend::Owned).unwrap();
        assert!(stats.contains("supernodes"));

        let built = cmd_build(
            &graph,
            &index,
            Variant::Afforest,
            SupportKernel::default(),
            Backend::Owned,
        )
        .unwrap();
        assert!(built.contains("Afforest"));

        // Find a vertex with a community to query.
        let g = load_graph(&graph).unwrap();
        let q = (0..g.num_vertices() as u32)
            .max_by_key(|&u| g.degree(u))
            .unwrap();
        let out = cmd_query(&graph, &index, q, 3, Backend::Owned).unwrap();
        assert!(out.contains("community"));
    }

    #[test]
    fn batch_query_file() {
        let dir = tmp_dir();
        let graph = dir.join("bq.txt");
        let index = dir.join("bq.etidx");
        let batch = dir.join("bq.queries");
        cmd_generate("dblp", 1.0 / 64.0, &graph).unwrap();
        cmd_build(
            &graph,
            &index,
            Variant::Afforest,
            SupportKernel::default(),
            Backend::Owned,
        )
        .unwrap();
        let g = load_graph(&graph).unwrap();
        let q = (0..g.num_vertices() as u32)
            .max_by_key(|&u| g.degree(u))
            .unwrap();
        std::fs::write(
            &batch,
            format!("# vertex k\n{q} 3\n{q} 4   # inline comment\n\n0 100\n"),
        )
        .unwrap();
        let out = cmd_query_batch(&graph, &index, &batch, Backend::Owned).unwrap();
        assert!(out.contains("3 queries in"));
        assert!(out.contains(&format!("v={q} k=3:")));
        assert!(out.contains("v=0 k=100: 0 community(ies)"));
        // Malformed line is a user-facing error, not a panic.
        std::fs::write(&batch, "12\n").unwrap();
        assert!(cmd_query_batch(&graph, &index, &batch, Backend::Owned).is_err());
    }

    #[test]
    fn variant_parsing() {
        assert_eq!(parse_variant("afforest").unwrap(), Variant::Afforest);
        assert_eq!(parse_variant("C-Optimal").unwrap(), Variant::COptimal);
        assert_eq!(parse_variant("BASELINE").unwrap(), Variant::Baseline);
        assert!(parse_variant("quantum").is_err());
    }

    #[test]
    fn serve_starts_over_a_built_file_pair() {
        // generate → build → serve: the server must come up over the same
        // file pair the query commands use, on an ephemeral port.
        let dir = tmp_dir();
        let graph = dir.join("serve.txt");
        let index = dir.join("serve.etidx");
        cmd_generate("dblp", 1.0 / 64.0, &graph).unwrap();
        cmd_build(
            &graph,
            &index,
            Variant::Afforest,
            SupportKernel::default(),
            Backend::Owned,
        )
        .unwrap();
        let config = et_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
        };
        let server = start_serve(&graph, &index, &config, 64, Backend::Owned).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.shared().swap().epoch(), 1);
        server.stop();

        // A mismatched pair is refused with a located error.
        let other = dir.join("serve-other.txt");
        cmd_generate("amazon", 1.0 / 64.0, &other).unwrap();
        let err = start_serve(&other, &index, &config, 0, Backend::Owned)
            .err()
            .expect("a mismatched graph/index pair must be refused");
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn toggle_default_off_polarity() {
        // Unique env var per assertion — tests run in parallel and the
        // process environment is shared.
        assert!(!resolve_toggle("t", None, "ET_TEST_TOGGLE_UNSET"));
        std::env::set_var("ET_TEST_TOGGLE_ON", "1");
        assert!(resolve_toggle("t", None, "ET_TEST_TOGGLE_ON"));
        std::env::set_var("ET_TEST_TOGGLE_TRUE", "TRUE");
        assert!(resolve_toggle("t", None, "ET_TEST_TOGGLE_TRUE"));
        std::env::set_var("ET_TEST_TOGGLE_FALSE", "false");
        assert!(!resolve_toggle("t", None, "ET_TEST_TOGGLE_FALSE"));
        // CLI wins over a conflicting env setting, in both directions.
        assert!(!resolve_toggle("t", Some(false), "ET_TEST_TOGGLE_ON"));
        assert!(resolve_toggle("t", Some(true), "ET_TEST_TOGGLE_FALSE"));
    }

    #[test]
    fn toggle_garbage_env_falls_back_to_off() {
        // A typo like ET_MMAP=on is warned about and ignored — never read
        // as a value.
        std::env::set_var("ET_TEST_TOGGLE_GARBAGE", "on");
        assert!(!resolve_toggle("mmap", None, "ET_TEST_TOGGLE_GARBAGE"));
        assert!(resolve_toggle("mmap", Some(true), "ET_TEST_TOGGLE_GARBAGE"));
    }

    #[test]
    fn generate_rejects_bad_inputs() {
        let dir = tmp_dir();
        assert!(cmd_generate("nope", 1.0, &dir.join("x.txt")).is_err());
        assert!(cmd_generate("dblp", 0.0, &dir.join("x.txt")).is_err());
        let err = cmd_generate("dblp", 1.0, &dir.join("x.binz")).unwrap_err();
        assert!(err.contains(".binz") && err.contains("write .bin"), "{err}");
    }

    #[test]
    fn query_rejects_mismatched_index() {
        let dir = tmp_dir();
        let g1 = dir.join("g1.txt");
        let g2 = dir.join("g2.txt");
        let idx = dir.join("g1.etidx");
        cmd_generate("dblp", 1.0 / 64.0, &g1).unwrap();
        cmd_generate("amazon", 1.0 / 64.0, &g2).unwrap();
        cmd_build(
            &g1,
            &idx,
            Variant::COptimal,
            SupportKernel::default(),
            Backend::Owned,
        )
        .unwrap();
        assert!(cmd_query(&g2, &idx, 0, 3, Backend::Owned).is_err());
    }

    #[test]
    fn builds_agree_across_support_kernels() {
        // Every Support arm yields a bit-identical support vector, and
        // everything downstream is deterministic — so the persisted index
        // files must match byte for byte: on a collaboration profile and on
        // the two shapes the selecting arm resolves differently (skewed
        // R-MAT + cliques → oriented, triangulated grid → merge).
        let dir = tmp_dir();
        let collab = dir.join("sk-collab.txt");
        cmd_generate("dblp", 1.0 / 64.0, &collab).unwrap();
        let social = dir.join("sk-social.bin");
        let skewed = et_gen::rmat_with_cliques(et_gen::RmatConfig::graph500(10, 9, 7), 40, (4, 8));
        graph_io::write_binary(&skewed, &social).unwrap();
        let mesh = dir.join("sk-mesh.bin");
        graph_io::write_binary(&et_gen::triangulated_grid(48), &mesh).unwrap();
        for graph in [collab, social, mesh] {
            let files: Vec<Vec<u8>> = SupportKernel::ALL
                .iter()
                .map(|&k| {
                    let idx = graph.with_extension(format!("{}.etidx", k.name()));
                    cmd_build(&graph, &idx, Variant::Afforest, k, Backend::Owned).unwrap();
                    std::fs::read(&idx).unwrap()
                })
                .collect();
            assert!(
                files.windows(2).all(|w| w[0] == w[1]),
                "{}",
                graph.display()
            );
        }
    }

    #[test]
    fn binary_graph_roundtrip_via_cli() {
        let dir = tmp_dir();
        let bin = dir.join("g.bin");
        cmd_generate("amazon", 1.0 / 64.0, &bin).unwrap();
        let g = load_graph(&bin).unwrap();
        assert!(g.num_edges() > 0);
    }

    #[test]
    fn binz_graphs_are_refused_by_name() {
        let dir = tmp_dir();
        let err = load_graph(&dir.join("cz.binz")).unwrap_err();
        assert!(err.contains("cz.binz"), "{err}");
        assert!(err.contains("regenerate the graph as .bin"), "{err}");
    }

    #[test]
    fn info_reports_headers_without_loading() {
        let dir = tmp_dir();
        let bin = dir.join("info.bin");
        let idx = dir.join("info.etidx");
        cmd_generate("dblp", 1.0 / 64.0, &bin).unwrap();
        cmd_build(
            &bin,
            &idx,
            Variant::Afforest,
            SupportKernel::default(),
            Backend::Owned,
        )
        .unwrap();

        let g = load_graph(&bin).unwrap();
        let bin_info = cmd_info(&bin).unwrap();
        assert!(bin_info.contains("ETCSRv01"));
        assert!(bin_info.contains(&format!("vertices  : {}", g.num_vertices())));
        assert!(bin_info.contains(&format!("edges     : {}", g.num_edges())));

        let (index, _, hierarchy) = index_io::read_index_with_hierarchy(&idx)
            .map_err(|e| e.to_string())
            .unwrap();
        let idx_info = cmd_info(&idx).unwrap();
        assert!(idx_info.contains("ETIDXv03"));
        assert!(idx_info.contains(&format!("supernodes: {}", index.num_supernodes())));
        assert!(idx_info.contains(&format!("superedges: {}", index.num_superedges())));
        assert!(idx_info.contains(&format!("hierarchy : {} nodes", hierarchy.num_nodes())));

        assert!(cmd_info(&dir.join("info.txt")).is_err());
        assert!(cmd_info(&dir.join("missing.bin")).is_err());
    }

    #[test]
    fn mmap_build_is_bit_identical_to_owned() {
        // The tentpole acceptance check at CLI level: building from a
        // memory-mapped binary graph must produce the exact same .etidx
        // bytes and the same query answers as building from owned storage.
        let dir = tmp_dir();
        let bin = dir.join("mm.bin");
        let idx_owned = dir.join("mm-owned.etidx");
        let idx_mapped = dir.join("mm-mapped.etidx");
        cmd_generate("dblp", 1.0 / 64.0, &bin).unwrap();

        cmd_build(
            &bin,
            &idx_owned,
            Variant::Afforest,
            SupportKernel::default(),
            Backend::Owned,
        )
        .unwrap();
        let built = cmd_build(
            &bin,
            &idx_mapped,
            Variant::Afforest,
            SupportKernel::default(),
            Backend::Mapped,
        )
        .unwrap();
        if et_graph::buf::ZERO_COPY_TARGET {
            assert!(built.contains("[graph storage: mapped]"), "{built}");
        }
        assert_eq!(
            std::fs::read(&idx_owned).unwrap(),
            std::fs::read(&idx_mapped).unwrap()
        );

        // Queries through the mapped graph + mapped index agree with owned.
        let g = load_graph(&bin).unwrap();
        let q = (0..g.num_vertices() as u32)
            .max_by_key(|&u| g.degree(u))
            .unwrap();
        let owned = cmd_query(&bin, &idx_owned, q, 3, Backend::Owned).unwrap();
        let mapped = cmd_query(&bin, &idx_mapped, q, 3, Backend::Mapped).unwrap();
        let body = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(body(&owned), body(&mapped));
    }
}
