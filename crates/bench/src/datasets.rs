//! Dataset loading with on-disk caching of generated graphs.
//!
//! Each paper dataset name resolves to its synthetic analog from
//! `et_gen::profiles`; the canonical CSR is cached under
//! `target/et-datasets/` so repeated harness invocations skip generation.
//! Cache keys embed [`DATASET_SUITE`], so bumping the suite version (after
//! any generator or parameter change) invalidates every stale entry at once
//! instead of silently reusing graphs from an older suite.

use et_graph::{io, Backend, EdgeIndexedGraph};
use std::path::PathBuf;

/// Version tag of the generated dataset suite, embedded in every cache key.
/// Bump it whenever a generator or its parameters change — old cache entries
/// (and old bench baselines) stop being comparable.
pub const DATASET_SUITE: &str = "suite-v2";

/// Directory used for cached generated graphs.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("ET_DATASET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/et-datasets"))
}

/// Loads (generating and caching if needed) the named dataset profile at the
/// given scale, edge-indexed and ready for the kernels. The storage backend
/// honours `ET_MMAP` (set by `reproduce --mmap`): under the mapped backend
/// the cached `.bin` CSR arrays stay zero-copy views of the file.
///
/// # Panics
/// Panics on unknown profile names — the harness validates names up front.
pub fn dataset(name: &str, scale: f64) -> EdgeIndexedGraph {
    let profile =
        et_gen::profile_by_name(name).unwrap_or_else(|| panic!("unknown dataset profile {name:?}"));
    let dir = cache_dir();
    let key = format!("{DATASET_SUITE}-{}-s{scale:.4}.bin", profile.name);
    let path = dir.join(key);
    let backend = Backend::from_env();
    // The binary loader validates header counts against the file size and
    // the decoded CSR structurally, so a truncated or corrupt cache entry
    // surfaces as Err here — evict it and fall through to regeneration.
    match io::read_binary_with(&path, backend) {
        Ok(g) => return EdgeIndexedGraph::new(g),
        Err(_) if path.exists() => {
            let _ = std::fs::remove_file(&path);
        }
        Err(_) => {}
    }
    let g = profile.generate(scale);
    if std::fs::create_dir_all(&dir).is_ok() && io::write_binary(&g, &path).is_ok() {
        // Reload through the cache so the requested backend applies.
        if let Ok(g) = io::read_binary_with(&path, backend) {
            return EdgeIndexedGraph::new(g);
        }
    }
    EdgeIndexedGraph::new(g)
}

/// The four networks of the Fig. 2 / Fig. 4 / Table 4 experiments, in the
/// paper's order.
pub const CORE_FOUR: [&str; 4] = ["amazon", "dblp", "livejournal", "orkut"];

/// The breakdown-figure order used by Fig. 4 (largest first).
pub const FIG4_ORDER: [&str; 4] = ["orkut", "livejournal", "youtube", "dblp"];

/// The scaling networks of Fig. 6 / Fig. 9.
pub const SCALING_THREE: [&str; 3] = ["orkut", "livejournal", "youtube"];

/// The Table 5 set.
pub const TABLE5_FIVE: [&str; 5] = ["amazon", "dblp", "youtube", "livejournal", "orkut"];

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that point `ET_DATASET_DIR` at scratch space.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn caches_and_reloads_identically() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var(
            "ET_DATASET_DIR",
            std::env::temp_dir().join("et-datasets-test"),
        );
        let a = dataset("amazon", 1.0 / 128.0);
        let b = dataset("amazon", 1.0 / 128.0);
        assert_eq!(a.graph(), b.graph());
        std::env::remove_var("ET_DATASET_DIR");
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_name_panics() {
        dataset("nope", 1.0);
    }

    #[test]
    fn corrupt_cache_entry_is_evicted_and_regenerated() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("et-datasets-corrupt-test");
        std::env::set_var("ET_DATASET_DIR", &dir);
        let fresh = dataset("dblp", 1.0 / 128.0);
        let path = dir.join(format!("{DATASET_SUITE}-dblp-s0.0078.bin"));
        assert!(path.exists(), "cache entry written under the suite key");
        // Truncate the cached file; the next load must not trust it.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let reloaded = dataset("dblp", 1.0 / 128.0);
        assert_eq!(fresh.graph(), reloaded.graph());
        // And the cache was healed (full-size file again).
        assert_eq!(std::fs::read(&path).unwrap().len(), bytes.len());
        std::env::remove_var("ET_DATASET_DIR");
    }
}
