//! Benchmark harness: everything needed to regenerate the paper's tables,
//! figures and ablations (see DESIGN.md's experiment index). The `repro`
//! binary drives these; host wall time per layer is measured by the
//! system benchmark in `benchmark/`.

pub mod harness;
pub mod reference;
pub mod report;

pub use harness::{sweep_p, Experiments, RunRecord};
pub use report::{write_csv, Table};
