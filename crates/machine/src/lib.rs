//! A deterministic simulated message-passing machine.
//!
//! The paper evaluates on 1–1024 MPI ranks of a Nehalem/QDR-InfiniBand
//! cluster. This crate substitutes that testbed: algorithms are written in
//! SPMD style against [`Machine`], which executes per-rank compute closures
//! in parallel on real threads — this crate's own [`pool`] of parked
//! workers, a static deal with no stealing — while *charging* a LogP-style
//! cost model — latency `t_s`, per-word bandwidth `t_w`, per-operation
//! compute `t_op` — to per-rank simulated clocks. Simulated elapsed time
//! (`Machine::elapsed`) is what the scaling figures report. How many host
//! threads a superstep is dealt over is `rayon::current_num_threads()`
//! ([`pool::width`]): `ThreadPool::install` and `RAYON_NUM_THREADS` set
//! it, and nothing else of rayon is used.
//!
//! Accounting matches the model the paper itself uses in §3.1:
//! * point-to-point/neighbour exchange: local synchronisation only — a rank
//!   waits for its communication partners, not the whole machine;
//! * collectives (allgather, allreduce, reduce): global synchronisation with
//!   `t_s log P` latency plus the appropriate bandwidth term.
//!
//! Every charge is attributed to the current *phase* (typed, see
//! [`Phase`]) and split into computation vs communication so Figures 7
//! and 8 (component and communication fractions) can be regenerated.
//!
//! Observability lives in the `sp-trace` crate (re-exported here as
//! [`trace`]): install a [`TraceRecorder`] with
//! [`Machine::set_recorder`] to capture rank-level compute spans,
//! per-message occupancy and collective participation on the simulated
//! clock, then export Chrome trace JSON or aggregate metrics from it.

pub mod cost;
pub mod fuzz;
pub mod machine;
pub mod pool;
pub mod words;

pub use cost::CostModel;
pub use fuzz::{Perturbation, Schedule};
pub use machine::{Machine, PhaseBreakdown, SuperstepHook, SuperstepInfo};
pub use words::{CostOnly, Words};

pub use sp_trace as trace;
pub use sp_trace::{
    CollectiveKind, MachineStats, Metrics, NoopRecorder, Phase, Recorder, TraceRecorder,
};
