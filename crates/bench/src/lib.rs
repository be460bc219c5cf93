//! Benchmark harness: everything needed to regenerate the paper's tables
//! and figures (see DESIGN.md's experiment index). The `repro` binary
//! drives these; the Criterion benches cover component wall-clock costs.

pub mod harness;
pub mod reference;
pub mod report;

pub use harness::{sweep_p, Experiments, RunRecord};
pub use report::{write_csv, Table};
