//! Perturbation injection: exercise the nondeterminism the design
//! *tolerates* — rank compute skew, delayed collectives, extra staleness in
//! the blocked nearest-neighbour exchange — and assert the pipeline's
//! contract under each. Skew and delay may move the simulated clock but
//! must never change output data; staleness may change data but every
//! invariant must still hold.

use scalapart::scalapart_bisect_observed;
use sp_graph::Graph;
use sp_machine::{CostModel, Machine, Perturbation};
use sp_trace::TraceRecorder;

use crate::fuzz::{fingerprint_result, FuzzConfig, RunOutcome};
use crate::invariants::{InvariantChecker, Violation};

/// Outcome of one perturbation scenario.
pub struct ScenarioOutcome {
    pub name: &'static str,
    pub violations: Vec<Violation>,
}

impl ScenarioOutcome {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Report over all perturbation scenarios.
pub struct PerturbReport {
    pub scenarios: Vec<ScenarioOutcome>,
}

impl PerturbReport {
    pub fn ok(&self) -> bool {
        self.scenarios.iter().all(|s| s.ok())
    }
}

/// Run the pipeline under an optional perturbation, invariant-checked.
fn run_perturbed(g: &Graph, cfg: &FuzzConfig, pert: Option<&Perturbation>) -> RunOutcome {
    let mut machine = Machine::new(cfg.ranks, CostModel::qdr_infiniband());
    if let Some(p) = pert {
        machine.set_perturbation(p);
    }
    machine.set_recorder(Box::new(TraceRecorder::new(cfg.ranks)));

    let mut chk = InvariantChecker::new(cfg.balance_bound);
    let r = scalapart_bisect_observed(g, &mut machine, &cfg.sp, &mut chk);

    chk.check_result(g, &r);
    let rec = TraceRecorder::downcast(machine.take_recorder().unwrap()).unwrap();
    chk.check_machine(&machine.stats(), Some(&rec));

    RunOutcome {
        seed: Some(pert.map_or(0, |p| p.seed)),
        fingerprint: fingerprint_result(g, &r, true),
        data_fingerprint: fingerprint_result(g, &r, false),
        elapsed: machine.elapsed(),
        violations: chk.violations,
        checkpoints: chk.checkpoints,
    }
}

fn data_scenario(
    name: &'static str,
    baseline: &RunOutcome,
    run: RunOutcome,
    expect_slower: bool,
) -> ScenarioOutcome {
    let mut violations = run.violations;
    if run.data_fingerprint != baseline.data_fingerprint {
        violations.push(Violation {
            invariant: "perturb-data-stable",
            detail: format!(
                "{name}: data fingerprint {:#018x} != baseline {:#018x} — \
                 a time-only perturbation changed output data",
                run.data_fingerprint, baseline.data_fingerprint
            ),
        });
    }
    if expect_slower && run.elapsed < baseline.elapsed {
        violations.push(Violation {
            invariant: "perturb-time-monotone",
            detail: format!(
                "{name}: perturbed run finished earlier ({} < {}) despite \
                 only slowdowns being injected",
                run.elapsed, baseline.elapsed
            ),
        });
    }
    ScenarioOutcome { name, violations }
}

/// Run every perturbation scenario against a shared unperturbed baseline.
pub fn run_perturbations(g: &Graph, cfg: &FuzzConfig) -> PerturbReport {
    let baseline = run_perturbed(g, cfg, None);
    let mut scenarios = Vec::new();

    // Zero perturbation must be a bit-exact identity, including time.
    let zero = run_perturbed(g, cfg, Some(&Perturbation::default()));
    let mut violations = zero.violations.clone();
    if zero.fingerprint != baseline.fingerprint {
        violations.push(Violation {
            invariant: "perturb-zero-identity",
            detail: format!(
                "zero perturbation changed the run: {:#018x} != {:#018x}",
                zero.fingerprint, baseline.fingerprint
            ),
        });
    }
    scenarios.push(ScenarioOutcome {
        name: "zero-identity",
        violations,
    });

    // Rank compute skew: ranks run up to 35% slower. Simulated time grows,
    // data must not move.
    let skew = Perturbation {
        compute_skew: 0.35,
        collective_delay: 0.0,
        seed: cfg.master_seed ^ 0x5EED_5EED,
    };
    scenarios.push(data_scenario(
        "compute-skew",
        &baseline,
        run_perturbed(g, cfg, Some(&skew)),
        true,
    ));

    // Delayed collectives: every barrier/allreduce costs an extra 10µs.
    let delay = Perturbation {
        compute_skew: 0.0,
        collective_delay: 1e-5,
        seed: 0,
    };
    scenarios.push(data_scenario(
        "collective-delay",
        &baseline,
        run_perturbed(g, cfg, Some(&delay)),
        true,
    ));

    // Both at once.
    let both = Perturbation {
        compute_skew: 0.2,
        collective_delay: 5e-6,
        seed: cfg.master_seed ^ 0xB07_B07,
    };
    scenarios.push(data_scenario(
        "skew-plus-delay",
        &baseline,
        run_perturbed(g, cfg, Some(&both)),
        true,
    ));

    // Extra staleness in the blocked nearest-neighbour exchange: the
    // smoother exchanges halos every `block` sweeps, so varying the block
    // changes how stale neighbour coordinates get. This nondeterminism is
    // *tolerated*: outputs may differ, but every invariant must hold.
    for block in [1usize, 8] {
        let mut stale_cfg = cfg.clone();
        stale_cfg.sp.block = block;
        let run = run_perturbed(g, &stale_cfg, None);
        let name: &'static str = if block == 1 {
            "staleness-block-1"
        } else {
            "staleness-block-8"
        };
        scenarios.push(ScenarioOutcome {
            name,
            violations: run.violations,
        });
    }

    PerturbReport { scenarios }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    #[test]
    fn all_perturbation_scenarios_hold() {
        let g = grid_2d(24, 24);
        let cfg = FuzzConfig {
            ranks: 8,
            schedules: 0,
            ..FuzzConfig::default()
        };
        let report = run_perturbations(&g, &cfg);
        for s in &report.scenarios {
            for v in &s.violations {
                eprintln!("{}: {v}", s.name);
            }
        }
        assert!(report.ok());
        assert_eq!(report.scenarios.len(), 6);
    }

    #[test]
    fn skew_actually_slows_the_clock() {
        let g = grid_2d(20, 20);
        let cfg = FuzzConfig {
            ranks: 8,
            schedules: 0,
            ..FuzzConfig::default()
        };
        let base = run_perturbed(&g, &cfg, None);
        let pert = Perturbation {
            compute_skew: 0.5,
            collective_delay: 0.0,
            seed: 7,
        };
        let run = run_perturbed(&g, &cfg, Some(&pert));
        assert!(run.elapsed > base.elapsed);
        assert_eq!(run.data_fingerprint, base.data_fingerprint);
    }
}
