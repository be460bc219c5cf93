//! Perturbation injection: exercise the nondeterminism the design
//! *tolerates* — rank compute skew, delayed collectives, extra staleness in
//! the blocked nearest-neighbour exchange — and assert the pipeline's
//! contract under each. A zero perturbation must reproduce the baseline
//! exactly; skew and delay may move the simulated clock but must never
//! change output data; staleness may change data but every invariant must
//! still hold.

use sp_graph::Graph;
use sp_machine::Perturbation;

use crate::fuzz::{run_once, Baseline, FuzzConfig, Run};
use crate::{Failure, Report};

/// Run every perturbation scenario, each checked against `base`.
pub fn run_perturbations(g: &Graph, cfg: &FuzzConfig, base: &Baseline) -> Report {
    // Skew lets ranks run up to 35% slower; delay charges every
    // barrier/allreduce an extra 10µs. Simulated time grows, data must not
    // move. Block 1 and 8 vary how stale neighbour coordinates get between
    // halo exchanges: outputs may differ, but every invariant must hold.
    let skew = |compute_skew, collective_delay, seed| {
        Run::Perturbed(Perturbation {
            compute_skew,
            collective_delay,
            seed,
        })
    };
    let scenarios = [
        ("zero-identity", Run::Perturbed(Perturbation::default())),
        (
            "compute-skew",
            skew(0.35, 0.0, cfg.master_seed ^ 0x5EED_5EED),
        ),
        ("collective-delay", skew(0.0, 1e-5, 0)),
        (
            "skew-plus-delay",
            skew(0.2, 5e-6, cfg.master_seed ^ 0xB07_B07),
        ),
        ("staleness-block-1", Run::Block(1)),
        ("staleness-block-8", Run::Block(8)),
    ];

    let mut failures = Vec::new();
    for (name, scenario) in scenarios {
        let run = run_once(g, cfg, scenario);
        let mut fail = |invariant, detail: String| {
            failures.push(Failure {
                stage: "perturb",
                seed: None,
                invariant,
                detail: format!("{name}: {detail}"),
            })
        };
        for v in run.violations {
            fail(v.invariant, v.detail);
        }
        if let Run::Perturbed(p) = scenario {
            if p == Perturbation::default() && run.fingerprint != base.fingerprint {
                fail(
                    "perturb-zero-identity",
                    format!(
                        "zero perturbation changed the run: {:#018x} != {:#018x}",
                        run.fingerprint, base.fingerprint
                    ),
                );
            }
            if run.data_fingerprint != base.data_fingerprint {
                fail(
                    "perturb-data-stable",
                    format!(
                        "data fingerprint {:#018x} != baseline {:#018x} — \
                         a time-only perturbation changed output data",
                        run.data_fingerprint, base.data_fingerprint
                    ),
                );
            }
            if run.elapsed < base.elapsed {
                fail(
                    "perturb-time-monotone",
                    format!(
                        "perturbed run finished earlier ({} < {}) despite \
                         only slowdowns being injected",
                        run.elapsed, base.elapsed
                    ),
                );
            }
        }
    }

    Report {
        summary: format!(
            "{} scenario(s) hold: {}",
            scenarios.len(),
            scenarios.map(|(name, _)| name).join(", ")
        ),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    fn cfg() -> FuzzConfig {
        FuzzConfig {
            ranks: 8,
            schedules: 0,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn all_perturbation_scenarios_hold() {
        let g = grid_2d(24, 24);
        let report = run_perturbations(&g, &cfg(), &Baseline::compute(&g, 8));
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
        assert!(report.summary.starts_with("6 scenario(s) hold: "));
    }

    #[test]
    fn skew_actually_slows_the_clock() {
        let g = grid_2d(20, 20);
        let base = Baseline::compute(&g, 8);
        let pert = Perturbation {
            compute_skew: 0.5,
            collective_delay: 0.0,
            seed: 7,
        };
        let run = run_once(&g, &cfg(), Run::Perturbed(pert));
        assert!(run.elapsed > base.elapsed);
        assert_eq!(run.data_fingerprint, base.data_fingerprint);
    }
}
