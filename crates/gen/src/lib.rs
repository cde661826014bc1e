//! # et-gen — deterministic synthetic graph generators
//!
//! The paper evaluates on SNAP datasets (Amazon … Friendster, Table 3).
//! Those downloads are not available in this environment, so this crate
//! provides deterministic, seeded generators whose outputs exercise the same
//! code paths: skewed degree distributions (R-MAT), clique-heavy collaboration
//! structure (overlapping planted cliques, like DBLP/Amazon), uniform noise
//! (Erdős–Rényi), and a degree-balanced planar mesh (triangulated grid). `profiles` maps each paper dataset name to a scaled
//! synthetic analog; `fixtures` provides small graphs with *hand-verified*
//! truss decompositions — including the paper's own Figure 3 example — and
//! `cases` the seeded case runner the workspace's property tests share.
//!
//! All generators take an explicit seed and are deterministic across runs and
//! thread counts.

#![warn(missing_docs)]

pub mod barabasi_albert;
pub mod cases;
pub mod erdos_renyi;
pub mod fixtures;
pub mod mesh;
pub mod planted;
pub mod profiles;
pub mod rmat;

pub use barabasi_albert::barabasi_albert;
pub use erdos_renyi::{gnm, gnp};
pub use mesh::triangulated_grid;
pub use planted::{overlapping_cliques, planted_partition, PlantedConfig};
pub use profiles::{profile_by_name, DatasetProfile, PROFILE_NAMES};
pub use rmat::{rmat, rmat_small, rmat_with_cliques, RmatConfig};
