//! # ScalaPart — parallel multilevel embedded graph partitioning
//!
//! A from-scratch Rust reproduction of *"Scalable Parallel Graph
//! Partitioning"* (Kirmani & Raghavan, SC'13). ScalaPart computes a
//! two-way partition of an arbitrary sparse graph in three phases:
//!
//! 1. **Coarsening** — parallel heavy-edge matching as in ParMetis,
//!    retaining every other level so retained graphs shrink ≈ 4×;
//! 2. **Multilevel fixed-lattice embedding** — the coarsest graph gets
//!    coordinates from a force-directed layout, then each finer level
//!    inherits (scaled ×2, jittered) coordinates and is smoothed by the
//!    paper's fixed-lattice Barnes–Hut-style scheme on a √P×√P processor
//!    grid whose active rank count quadruples per level;
//! 3. **Parallel geometric partitioning** — a parallel form of
//!    Gilbert–Miller–Teng sphere separators (SP-PG7-NL) followed by
//!    Fiduccia–Mattheyses refinement on a coordinate strip around the
//!    separating circle.
//!
//! Parallel execution and timing run on [`sp_machine::Machine`], a
//! deterministic simulated message-passing machine (see DESIGN.md for the
//! substitution rationale). Everything is reproducible under a seed.
//!
//! ## Quickstart
//!
//! ```
//! use scalapart::{scalapart_bisect, SpConfig};
//! use sp_graph::gen::grid_2d;
//! use sp_machine::{CostModel, Machine};
//!
//! let g = grid_2d(32, 32);
//! let mut machine = Machine::new(16, CostModel::qdr_infiniband());
//! let result = scalapart_bisect(&g, &mut machine, &SpConfig::default());
//! assert!(result.cut > 0);
//! result.bisection.validate(&g).unwrap();
//! ```

pub mod config;
pub mod kway;
pub mod methods;
pub mod observe;
pub mod pipeline;
pub mod svg;

pub use config::SpConfig;
pub use kway::{recursive_kway, recursive_kway_checked_on, KWayPartition, PartitionSummary};
pub use methods::{run_method, run_method_checked, Method, MethodResult};
pub use observe::{Cancelled, LevelStats, NoopObserver, PipelineObserver, ProfilingObserver};
pub use pipeline::{
    scalapart_bisect, scalapart_bisect_checked, sp_pg7nl_bisect, PhaseTimes, SpResult,
};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use sp_baselines as baselines;
pub use sp_coarsen as coarsen;
pub use sp_embed as embed;
pub use sp_geometry as geometry;
pub use sp_geopart as geopart;
pub use sp_graph as graph;
pub use sp_machine as machine;
pub use sp_obs as obs;
pub use sp_refine as refine;
pub use sp_stream as stream;
