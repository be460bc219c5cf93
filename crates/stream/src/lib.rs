//! # sp-stream — dynamic graphs for ScalaPart
//!
//! The batch pipeline answers "partition this graph"; this crate answers
//! "keep a partition good while the graph changes". Three pieces:
//!
//! - [`GraphDelta`] / [`chain_extend`]: a canonical, fingerprintable
//!   update model (edge insert/remove, vertex-weight change, coordinate
//!   drift);
//! - [`DeltaOverlay`]: a delta chain layered over an immutable base CSR,
//!   readable through [`sp_graph::GraphAccess`] so refinement runs on it
//!   directly, with [`DeltaOverlay::compact`]/[`DeltaOverlay::rebase`] to
//!   fold the chain back into CSR form — provably without changing any
//!   observable (the sp-verify `incremental` stage fuzzes this);
//! - [`IncrementalRepartitioner`]: warm-starts from the previous
//!   bisection, re-refines only the dirty region around touched vertices,
//!   falls back to a full geometric re-partition when churn is heavy, and
//!   reports the migration-volume-vs-cut objective per step.
//!
//! sp-serve builds streaming sessions on top (`session_open` /
//! `session_delta` / `session_repartition` / `session_close`); every step
//! is deterministic, so a session's responses are a pure function of
//! `(base fingerprint, delta-chain fingerprint)`.

pub mod delta;
pub mod overlay;
pub mod repartition;

pub use delta::{chain_extend, chain_mark, DeltaError, GraphDelta};
pub use overlay::DeltaOverlay;
pub use repartition::{partition_fp, IncrementalRepartitioner, StepMode, StepReport, StreamConfig};
