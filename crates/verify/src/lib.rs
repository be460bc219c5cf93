//! # sp-verify — deterministic simulation testing for ScalaPart
//!
//! Seven stages, composed by the `verify` binary (one row each in its
//! stage table, selected with `--stages`) and the test suite. The four
//! that run the pipeline compare against one [`Baseline`]: a serial run
//! (one host thread, no observer, canonical schedule)
//! computed once per invocation.
//!
//! - **fuzz** ([`fuzz`]): the canonical schedule and seeded fuzzed
//!   schedules (host execution order within supersteps), each with the
//!   trace recorder and the [`InvariantChecker`]
//!   installed, must reproduce the baseline bit for bit — every failure
//!   replays from a single `u64` seed;
//! - **passivity** ([`passive`]): the same schedules under sp-obs
//!   profiling must reproduce it too — instrumentation never perturbs the
//!   run it watches — and a profiled 8-way SP-PG7-NL recursion on a
//!   width-2 pool must fork and keep the bits of an unwatched one;
//! - **parallel** ([`parallel`]): a sweep of host pool widths, two
//!   pipelines contending for the host, and 8-way k-way
//!   recursions beside them may not move a bit;
//! - **multinode** ([`multinode`]): a seeded request stream through 2–4
//!   loopback sp-serve shards behind the consistent-hash router, with a
//!   shard killed and rejoined mid-run, must answer byte for byte as a
//!   single-node oracle does;
//! - **incremental** ([`incremental`]): seeded delta streams through
//!   sp-stream's warm-start repartitioner keep the partition valid, the
//!   overlay equal to its compacted CSR, batch framing and refused
//!   batches invisible, the cut near a from-scratch oracle, and step
//!   fingerprints equal across host pool widths;
//! - **repr** ([`repr`]): the compact CSR round-trips bit for bit and
//!   agrees with the reference graph on fingerprints and induced
//!   subgraphs;
//! - **perturb** ([`perturb`]): the nondeterminism the design tolerates
//!   (rank compute skew, delayed collectives, extra staleness in the
//!   blocked nearest-neighbour exchange) keeps data equal to the baseline
//!   and every invariant intact.
//!
//! The invariant checker ([`invariants`]) threads through the pipeline's
//! checkpoints: matching validity, contraction soundness, hierarchy shape,
//! embedding sanity, partition validity, balance bounds, cut accounting,
//! FM monotonicity, and the sp-trace event/cost crosscheck.
//!
//! Every stage *collects* its failures into one [`Report`] rather than
//! panicking, so a campaign lists every [`Failure`] together with the
//! seed that reproduces it.

pub mod fuzz;
pub mod incremental;
pub mod invariants;
pub mod multinode;
pub mod parallel;
pub mod passive;
pub mod perturb;
pub mod repr;
pub mod rng;

pub use fuzz::{fingerprint_result, run_campaign, run_once, Baseline, FuzzConfig, Run, RunOutcome};
pub use incremental::{run_incremental_campaign, IncrementalFuzzConfig};
pub use invariants::{InvariantChecker, Violation};
pub use multinode::{run_multinode_campaign, MultinodeFuzzConfig};
pub use parallel::run_parallel_campaign;
pub use passive::run_passivity;
pub use perturb::run_perturbations;
pub use repr::run_repr_campaign;
pub use rng::{derive_seed, Fingerprint};

/// One broken property, from any stage.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The stage that found it (`"fuzz"`, `"parallel"`, …).
    pub stage: &'static str,
    /// The seed that reproduces it: a schedule seed for `verify --replay`
    /// in fuzz and passivity, the stream seed in incremental.
    pub seed: Option<u64>,
    /// Which property broke (stable identifier, e.g. `"cut-accounting"`).
    pub invariant: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: FAILED [{}]", self.stage, self.invariant)?;
        if let Some(s) = self.seed {
            write!(f, " under seed {s:#018x}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// What one stage did.
pub struct Report {
    /// One line saying what held, printed after `"<stage>: "`.
    pub summary: String,
    pub failures: Vec<Failure>,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    #[test]
    fn every_pipeline_stage_fails_against_a_flipped_baseline() {
        // A stage that quietly compared against a run of its own would
        // pass here: each must notice the single flipped bit.
        let g = grid_2d(12, 12);
        let cfg = FuzzConfig {
            ranks: 4,
            schedules: 1,
            ..FuzzConfig::default()
        };
        let mut base = Baseline::compute(&g, cfg.ranks);
        base.fingerprint ^= 1;
        let fails = |r: Report, invariant: &str| {
            assert!(
                r.failures.iter().any(|f| f.invariant == invariant),
                "no {invariant} failure in: {}",
                r.summary
            )
        };
        fails(run_campaign(&g, &cfg, &base), "schedule-determinism");
        fails(run_passivity(&g, &cfg, &base), "observation-passive");
        fails(
            run_parallel_campaign(&g, cfg.ranks, &base),
            "host-shape-invisible",
        );
        fails(run_perturbations(&g, &cfg, &base), "perturb-zero-identity");
    }
}
