//! Observability passivity fuzz: prove that watching a run does not
//! change it.
//!
//! sp-obs instruments (and core's `ProfilingObserver`) claim to be
//! *passive*: they read clocks and `/proc`, bump atomics, and never touch
//! the graph, machine, RNG streams, or any observer-visible state. This
//! module turns that claim into a fuzzed, bit-exact contract: for the
//! canonical schedule and every fuzzed schedule, the pipeline runs under a
//! [`ProfilingObserver`] ("observability on") and must reproduce the
//! observer-free [`Baseline`] on the **full** fingerprint: partition
//! labels, coordinate bits, cut statistics, *and the simulated clock*. A
//! profiler that so much as nudged a simulated timestamp or reordered a
//! reduction would show up as a fingerprint split with a replay seed
//! attached. Then a forked leg: an 8-way SP-PG7-NL recursion on a Delaunay
//! mesh, on its own width-2 host pool, must fork under the profiler as it
//! does unwatched and keep the unwatched labels and root clock bits.
//!
//! The serve-level counterpart (`tests/observability.rs` in sp-serve) runs
//! the same batch through two services with the event log on/off and
//! compares response bytes and cache fingerprints; this module covers the
//! pipeline itself, schedule by schedule.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::{
    recursive_kway_checked_on, scalapart_bisect_checked, Method, NoopObserver, PipelineObserver,
    ProfilingObserver, SpConfig,
};
use sp_embed::lattice_smooth_with;
use sp_graph::gen::delaunay_graph;
use sp_graph::Graph;
use sp_machine::{CostModel, Machine, Schedule};

use crate::fuzz::{fingerprint_result, Baseline, FuzzConfig};
use crate::parallel::host_pool;
use crate::rng::derive_seed;
use crate::{Failure, Report};

/// Run the canonical schedule plus `cfg.schedules` fuzzed schedules under
/// the profiler, comparing each with `base` bit for bit.
pub fn run_passivity(g: &Graph, cfg: &FuzzConfig, base: &Baseline) -> Report {
    let mut failures = Vec::new();
    let mut fail = |seed: Option<u64>, invariant, detail| {
        failures.push(Failure {
            stage: "passivity",
            seed,
            invariant,
            detail,
        })
    };
    let schedules = (0..cfg.schedules).map(|i| Some(derive_seed(cfg.master_seed, i as u64)));
    for seed in std::iter::once(None).chain(schedules) {
        let mut machine = Machine::new(cfg.ranks, CostModel::qdr_infiniband());
        if let Some(s) = seed {
            machine.set_schedule(Schedule::seeded(s));
        }
        let mut prof = ProfilingObserver::new();
        let sp = SpConfig::default();
        let r = scalapart_bisect_checked(g, &mut machine, &sp, &mut prof, &mut lattice_smooth_with)
            .expect("the profiler never cancels");
        let fp = fingerprint_result(g, &r, true);
        if fp != base.fingerprint || machine.elapsed().to_bits() != base.elapsed.to_bits() {
            fail(
                seed,
                "observation-passive",
                format!(
                    "profiled fingerprint {fp:#018x} vs baseline {:#018x}, elapsed {} vs {}",
                    base.fingerprint,
                    machine.elapsed(),
                    base.elapsed
                ),
            );
        }
        // A profiler that attributed nothing proves nothing: the pipeline
        // passes the checkpoints of all four phases it profiles.
        let phases = prof.profiler().samples().len();
        if phases < 4 {
            fail(
                seed,
                "profiler-wired",
                format!("profiler saw {phases} of the 4 phases"),
            );
        }
    }
    let forks = forked_kway_leg(g.n(), cfg.ranks);
    match &forks {
        Err(detail) => fail(None, "observation-passive", detail.clone()),
        Ok(0) => fail(
            None,
            "profiler-forks",
            "the profiled k-way run never forked".into(),
        ),
        Ok(_) => {}
    }
    Report {
        summary: format!(
            "{} profiled run(s) bit-identical to the observer-free baseline; \
             a profiled {KWAY_PARTS}-way SP-PG7-NL run forked {} time(s) on 2 threads \
             and kept its unwatched bits",
            1 + cfg.schedules,
            forks.unwrap_or(0),
        ),
        failures,
    }
}

/// Counts the forks asked of it and forks into [`NoopObserver`]s.
#[derive(Default)]
struct ForkCounter(usize);

impl PipelineObserver for ForkCounter {
    fn fork(&mut self) -> Option<[Box<dyn PipelineObserver + Send>; 2]> {
        self.0 += 1;
        NoopObserver.fork()
    }
}

/// Parts of the forked leg: both sides of the root bisect again, so a
/// width-2 pool forks them.
const KWAY_PARTS: usize = 8;

/// The forked leg: SP-PG7-NL to [`KWAY_PARTS`] parts on a Delaunay mesh of
/// about `n` vertices that has coordinates, on a host pool of its own 2
/// threads wide, unwatched and then under a profiler wrapping a
/// [`ForkCounter`]. Returns the profiled run's forks, or an error when its
/// labels or root elapsed bits differ from the unwatched run's.
fn forked_kway_leg(n: usize, ranks: usize) -> Result<usize, String> {
    let (mesh, coords) = delaunay_graph(n.max(64), &mut StdRng::seed_from_u64(0xDE1A));
    let run = |obs: &mut dyn PipelineObserver| {
        let mut machine = Machine::new(ranks, CostModel::qdr_infiniband());
        let kp = recursive_kway_checked_on(
            Method::SpPg7Nl,
            &mesh,
            Some(&coords),
            KWAY_PARTS,
            SpConfig::default().seed,
            &mut machine,
            obs,
        )
        .expect("neither observer cancels");
        (kp.part, machine.elapsed().to_bits())
    };
    let pool = host_pool(2);
    let want = pool.install(|| run(&mut NoopObserver));
    let mut forks = ForkCounter::default();
    let got = pool.install(|| run(&mut ProfilingObserver::wrapping(&mut forks)));
    if got != want {
        return Err(format!(
            "profiled {KWAY_PARTS}-way SP-PG7-NL labels or root elapsed bits differ from unwatched"
        ));
    }
    Ok(forks.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    fn passivity(g: &Graph, ranks: usize, schedules: usize) -> Report {
        let cfg = FuzzConfig {
            ranks,
            schedules,
            ..FuzzConfig::default()
        };
        run_passivity(g, &cfg, &Baseline::compute(g, ranks))
    }

    #[test]
    fn observation_is_bit_passive_across_fuzzed_schedules() {
        let report = passivity(&grid_2d(24, 24), 8, 4);
        assert!(report.summary.starts_with("5 profiled run(s) "));
        for f in &report.failures {
            eprintln!("{f}");
        }
        // Every run profiled all four phases and matched the baseline.
        assert!(report.ok(), "observability must not change any output bit");
    }

    #[test]
    fn passivity_holds_on_an_irregular_graph() {
        // A path-with-chords graph: no coordinates, irregular degrees.
        let mut b = sp_graph::GraphBuilder::new(200);
        for i in 0..199u32 {
            b.add_edge(i, i + 1, 1.0 + (i % 3) as f64);
        }
        for i in (0..190u32).step_by(7) {
            b.add_edge(i, i + 10, 0.5);
        }
        assert!(passivity(&b.build(), 4, 2).ok());
    }
}
