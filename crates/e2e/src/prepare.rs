//! Set-up shared by the workloads: generate the input graph from the seed,
//! write it where the program under test will read it, build and load the
//! index where a workload starts from one.

use crate::catalog::{Shape, Sizes};
use crate::inputs::triangulated_grid;
use et_core::{SuperGraph, SupportKernel, TrussHierarchy, Variant};
use et_graph::{Backend, CsrGraph, EdgeIndexedGraph};
use std::path::{Path, PathBuf};

/// The benchmark runs the default arm of every layer and no other.
pub const VARIANT: Variant = Variant::Afforest;
/// See [`VARIANT`].
pub const BACKEND: Backend = Backend::Owned;

/// Directory for generated graphs, indexes and the trace file: under the
/// cargo target directory, which `.gitignore` already covers.
pub fn output_root() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("e2e")
}

/// A scratch directory of one run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<output_root>/<label>-<pid>`.
    pub fn create(label: &str) -> Result<WorkDir, String> {
        let dir = output_root().join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Leftovers sit under the ignored target directory; nothing to report.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates the graph of `shape` from `seed`.
pub fn generate(shape: Shape, sizes: &Sizes, seed: u64) -> CsrGraph {
    let collab = |n: usize| et_gen::overlapping_cliques(n, n / 4, (3, 9), n * 3 / 8, seed);
    match shape {
        Shape::Social => et_gen::rmat_with_cliques(
            et_gen::RmatConfig::graph500(sizes.social_scale, 9, seed),
            sizes.social_cliques,
            (4, 8),
        ),
        Shape::Mesh => triangulated_grid(sizes.mesh_side, seed),
        Shape::CollabServe => collab(sizes.serve_vertices),
        Shape::CollabDynamic => collab(sizes.dynamic_vertices),
    }
}

/// The files of one workload: the graph the program reads and the index it
/// writes.
#[derive(Clone, Debug)]
pub struct Files {
    /// Text edge list (social) or `.bin` CSR (the rest).
    pub graph: PathBuf,
    /// Where `cmd_build` puts the `.etidx`.
    pub index: PathBuf,
    /// Undirected edges of the graph.
    pub edges: usize,
}

/// Generates the graph and writes it into `dir`.
pub fn write_graph(shape: Shape, sizes: &Sizes, seed: u64, dir: &Path) -> Result<Files, String> {
    let graph = generate(shape, sizes, seed);
    let path = dir.join(if shape == Shape::Social {
        "graph.txt"
    } else {
        "graph.bin"
    });
    let written = if shape == Shape::Social {
        et_graph::io::write_text_edge_list(&graph, &path)
    } else {
        et_graph::io::write_binary(&graph, &path)
    };
    written.map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Files {
        graph: path,
        index: dir.join("graph.etidx"),
        edges: graph.num_edges(),
    })
}

/// One `cmd_build` on the default arms: graph file on disk to `.etidx` on disk.
pub fn build(files: &Files) -> Result<(), String> {
    et_cli::cmd_build(
        &files.graph,
        &files.index,
        VARIANT,
        SupportKernel::default(),
        BACKEND,
    )
    .map(drop)
}

/// A graph and its index in memory, as a library caller holds them.
pub struct Loaded {
    /// The graph with edge ids.
    pub graph: EdgeIndexedGraph,
    /// The EquiTruss summary graph.
    pub index: SuperGraph,
    /// Trussness per edge id.
    pub trussness: Vec<u32>,
    /// The merge forest queries climb.
    pub hierarchy: TrussHierarchy,
}

/// Loads the pair `build` left on disk.
pub fn load(files: &Files) -> Result<Loaded, String> {
    let graph = et_cli::load_graph_with(&files.graph, BACKEND)?;
    let (index, trussness, hierarchy) = et_core::io::read_index_with_hierarchy(&files.index)
        .map_err(|e| format!("cannot load {}: {e}", files.index.display()))?;
    Ok(Loaded {
        graph,
        index,
        trussness: trussness.to_vec(),
        hierarchy,
    })
}
