//! Observability for the simulated machine: typed pipeline phases, a
//! pluggable event [`Recorder`], structured trace capture, per-phase and
//! per-rank communication-volume metrics, and a Chrome trace-event
//! (`chrome://tracing` / Perfetto) exporter.
//!
//! The paper's core evidence (Figs 7–8, Table 4) is a per-phase
//! computation/communication breakdown. `sp-machine` charges those costs
//! to per-rank simulated clocks; this crate captures the *events* behind
//! the charges so a run can be inspected rank by rank:
//!
//! * [`Phase`] — typed phase identifiers replacing stringly phase labels,
//!   so attribution cannot drift with naming (`"embed"` vs `"embed_init"`).
//! * [`Recorder`] — the hook trait the machine emits events into. The
//!   default is *no recorder at all* (the machine holds an `Option`, and
//!   every emission site is gated on it), so instrumentation is opt-in and
//!   free when disabled.
//! * [`TraceRecorder`] — captures compute spans, point-to-point
//!   sends/receives with `{src, dst, words}`, collectives with
//!   `{kind, active_ranks, words}`, and phase spans, all on the simulated
//!   clock.
//! * [`Metrics`] — aggregated per-phase and per-rank counters (ops,
//!   messages, words sent/received, comp/comm time, load-imbalance factor)
//!   with a machine-readable JSON snapshot ([`Metrics::to_json`]).
//! * [`TraceRecorder::chrome_trace`] — a Chrome trace-event JSON array,
//!   one lane per simulated rank, loadable in Perfetto (<https://ui.perfetto.dev>)
//!   or `chrome://tracing`.
//!
//! This crate is dependency-free; `sp-machine` depends on it and re-exports
//! the commonly used items.

pub mod check;
pub mod chrome;
pub mod fnv;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod recorder;

pub use check::{check_accounting, crosscheck};
pub use metrics::{MachineStats, Metrics, PhaseMetrics, RankMetrics};
pub use phase::{CollectiveKind, Phase};
pub use recorder::{Event, Recorder, TraceRecorder};
