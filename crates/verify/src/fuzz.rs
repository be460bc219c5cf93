//! The shared baseline and the schedule-fuzzing campaign. The baseline is
//! the plain serial run every pipeline stage compares against; the
//! campaign runs the canonical schedule and fuzzed host-execution orders
//! with the trace recorder and the invariant
//! checker installed, demanding each reproduce the baseline bit for bit.
//! Every failure carries the derived schedule seed, so `--replay <seed>`
//! (or `Schedule::seeded(seed)`) reproduces it.

use scalapart::{scalapart_bisect_checked, SpConfig, SpResult};
use sp_embed::lattice_smooth_with;
use sp_graph::Graph;
use sp_machine::{CostModel, Machine, Perturbation, Schedule};
use sp_trace::TraceRecorder;

use crate::invariants::{InvariantChecker, Violation};
use crate::parallel::{host_pool, run_pipeline};
use crate::rng::{derive_seed, Fingerprint};
use crate::{Failure, Report};

/// Allowed final imbalance, passed to the invariant checker.
const BALANCE_BOUND: f64 = 0.15;

/// Configuration of one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Simulated ranks.
    pub ranks: usize,
    /// Fuzzed schedules to run beyond the canonical one.
    pub schedules: usize,
    /// Master seed; schedule `i` runs under `derive_seed(master_seed, i)`.
    pub master_seed: u64,
    /// Self-test hook: corrupt this vertex's partition label after the
    /// pipeline but before the final checks. The campaign must then fail.
    pub corrupt_vertex: Option<u32>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            ranks: 16,
            schedules: 8,
            master_seed: 0x5CA1_AB1E,
            corrupt_vertex: None,
        }
    }
}

/// The run every pipeline stage compares against: the default pipeline on
/// a one-thread pool (the machine's inline serial path), no recorder, no
/// observer, the canonical schedule.
#[derive(Clone, Copy, Debug)]
pub struct Baseline {
    /// Labels, coordinates, cut statistics and simulated-time bits.
    pub fingerprint: u64,
    /// The same without simulated time.
    pub data_fingerprint: u64,
    /// Simulated elapsed time.
    pub elapsed: f64,
}

impl Baseline {
    pub fn compute(g: &Graph, ranks: usize) -> Baseline {
        host_pool(1).install(|| run_pipeline(g, ranks).0)
    }
}

/// How one checked run departs from the canonical run.
#[derive(Clone, Copy, Debug)]
pub enum Run {
    Canonical,
    /// A fuzzed host schedule; the seed replays it.
    Schedule(u64),
    /// Rank compute skew and collective delays on the simulated clock.
    Perturbed(Perturbation),
    /// The smoother exchanging halos every `block` sweeps instead of the
    /// default.
    Block(usize),
}

/// Outcome of a single checked pipeline run.
pub struct RunOutcome {
    /// Fingerprint over all output data (labels, coords, cut) AND the
    /// simulated clock — the full bit-exactness contract.
    pub fingerprint: u64,
    /// Fingerprint over output data only (no simulated time); used by
    /// perturbation scenarios where time may legitimately move.
    pub data_fingerprint: u64,
    /// Simulated elapsed time.
    pub elapsed: f64,
    /// Everything that broke.
    pub violations: Vec<Violation>,
    /// Checkpoints the invariant checker inspected.
    pub checkpoints: usize,
}

/// Fingerprint a pipeline result: partition labels, coordinate bits, cut
/// statistics, and (optionally) the simulated clock.
pub fn fingerprint_result(g: &Graph, r: &SpResult, include_time: bool) -> u64 {
    let mut fp = Fingerprint::new();
    for v in 0..g.n() {
        fp.byte(r.bisection.side(v as u32));
    }
    for c in &r.coords {
        fp.f64_bits(c.x);
        fp.f64_bits(c.y);
    }
    fp.u64(r.cut as u64);
    fp.u64(r.cut_before_refine as u64);
    fp.f64_bits(r.imbalance);
    if include_time {
        fp.f64_bits(r.total_time);
    }
    fp.finish()
}

/// Run the full pipeline once as `run` says, with the invariant checker on
/// every checkpoint and the trace crosscheck on the recorded event stream.
pub fn run_once(g: &Graph, cfg: &FuzzConfig, run: Run) -> RunOutcome {
    let mut machine = Machine::new(cfg.ranks, CostModel::qdr_infiniband());
    let mut sp = SpConfig::default();
    match run {
        Run::Canonical => {}
        Run::Schedule(s) => machine.set_schedule(Schedule::seeded(s)),
        Run::Perturbed(p) => machine.set_perturbation(&p),
        Run::Block(block) => sp.block = block,
    }
    machine.set_recorder(Box::new(TraceRecorder::new(cfg.ranks)));

    let mut chk = InvariantChecker::new(BALANCE_BOUND);
    let mut r = scalapart_bisect_checked(g, &mut machine, &sp, &mut chk, &mut lattice_smooth_with)
        .expect("the invariant checker never cancels");

    if let Some(v) = cfg.corrupt_vertex {
        // Deliberate fault injection: the checker must catch this.
        r.bisection.flip(v % g.n() as u32);
    }

    chk.check_result(g, &r);
    let rec = TraceRecorder::downcast(machine.take_recorder().unwrap()).unwrap();
    chk.check_machine(&machine.stats(), Some(&rec));

    RunOutcome {
        fingerprint: fingerprint_result(g, &r, true),
        data_fingerprint: fingerprint_result(g, &r, false),
        elapsed: machine.elapsed(),
        violations: chk.violations,
        checkpoints: chk.checkpoints,
    }
}

/// Run the canonical schedule plus `cfg.schedules` fuzzed schedules,
/// collecting invariant violations and every run that does not reproduce
/// `base`.
pub fn run_campaign(g: &Graph, cfg: &FuzzConfig, base: &Baseline) -> Report {
    let mut failures = Vec::new();
    let mut checkpoints = 0;
    let schedules = (0..cfg.schedules).map(|i| Some(derive_seed(cfg.master_seed, i as u64)));
    for seed in std::iter::once(None).chain(schedules) {
        let run = run_once(g, cfg, seed.map_or(Run::Canonical, Run::Schedule));
        if seed.is_none() {
            checkpoints = run.checkpoints;
            if checkpoints == 0 {
                failures.push(Failure {
                    stage: "fuzz",
                    seed,
                    invariant: "checker-wired",
                    detail: "the invariant checker saw no checkpoints".to_string(),
                });
            }
        }
        failures.extend(run.violations.into_iter().map(|v| Failure {
            stage: "fuzz",
            seed,
            invariant: v.invariant,
            detail: v.detail,
        }));
        if run.fingerprint != base.fingerprint {
            failures.push(Failure {
                stage: "fuzz",
                seed,
                invariant: "schedule-determinism",
                detail: format!(
                    "fingerprint {:#018x} != baseline {:#018x} (elapsed {} vs {})",
                    run.fingerprint, base.fingerprint, run.elapsed, base.elapsed
                ),
            });
        }
    }

    Report {
        summary: format!(
            "{} run(s) (canonical + {} schedule(s)), recorder and checker on, \
             {checkpoints} checkpoint(s)/run, all bit-identical to the baseline",
            1 + cfg.schedules,
            cfg.schedules
        ),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    fn small_cfg(schedules: usize) -> FuzzConfig {
        FuzzConfig {
            ranks: 8,
            schedules,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_bit_exact_on_grid() {
        let g = grid_2d(24, 24);
        let cfg = small_cfg(4);
        let report = run_campaign(&g, &cfg, &Baseline::compute(&g, cfg.ranks));
        assert!(report
            .summary
            .starts_with("5 run(s) (canonical + 4 schedule(s))"));
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
    }

    #[test]
    fn self_test_corruption_is_caught_with_replay_seed() {
        let g = grid_2d(24, 24);
        let mut cfg = small_cfg(2);
        let base = Baseline::compute(&g, cfg.ranks);
        cfg.corrupt_vertex = Some(11);
        let report = run_campaign(&g, &cfg, &base);
        assert!(!report.ok(), "corrupted run must fail");
        // The canonical run is corrupted too, and every fuzzed schedule
        // carries its replay seed.
        assert!(report
            .failures
            .iter()
            .any(|f| f.seed.is_some() && f.invariant == "cut-accounting"));
    }

    #[test]
    fn replaying_a_seed_reproduces_the_run_exactly() {
        let g = grid_2d(20, 20);
        let cfg = small_cfg(0);
        let seed = derive_seed(cfg.master_seed, 3);
        let a = run_once(&g, &cfg, Run::Schedule(seed));
        let b = run_once(&g, &cfg, Run::Schedule(seed));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
    }
}
