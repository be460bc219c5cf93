//! Geometric mesh partitioning (Gilbert–Miller–Teng) and its parallel
//! formulation SP-PG7-NL.
//!
//! The sequential partitioner lifts the embedded vertices onto the unit
//! sphere, computes an approximate centerpoint, conformally maps it to the
//! sphere's centre, cuts with random great circles (shifted to the sample
//! median so both halves are balanced — on the plane the separator is still
//! a circle), optionally tries line separators, and keeps the best cut.
//! Presets reproduce the paper's G30 / G7 / G7-NL try policies.
//!
//! The parallel formulation follows the paper: sampling across ranks for a
//! fast centerpoint, redundant great-circle generation on every rank,
//! local cut contributions, and a single reduction to select the best cut.

pub mod config;
pub mod gmt;
pub mod parallel;
pub mod separator;

pub use config::GeoConfig;
pub use gmt::{geometric_partition, GeoPartResult};
pub use parallel::parallel_geometric_partition;
pub use separator::Separator;
