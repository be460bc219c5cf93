//! Parallel-vs-serial determinism fuzz: the simulated machine may deal its
//! ranks over any number of host threads, and none of it may be
//! observable in the simulation. This module runs the **full pipeline**
//! (coarsen → embed → partition → refine) across a sweep of pool widths,
//! demanding the complete fingerprint (partition labels, coordinate bits,
//! cut statistics, simulated-time bits) of every run equal the serial
//! [`Baseline`]. Beside it runs the k-way recursion
//! ([`recursive_kway_checked_on`], 8 parts): SP-PG7-NL on a Delaunay mesh
//! that has coordinates and the ParMetis-like comparator on the campaign's
//! graph, whose labels and root-machine simulated time must not move
//! across the same widths either: their reference is the one-thread run,
//! whose pipeline run is the baseline. Last, two pipelines run at the same
//! time on two OS threads, each four host threads wide — two shards' jobs
//! in one `sp-serve` process, and the path on which a dispatch of the host
//! pool finds the idle workers taken and starts more — and both must
//! return the baseline fingerprint.
//!
//! Why this must hold: each rank closure touches only its own rank's
//! state and writes its op count into its own rank's slot; clock charges
//! and outbox merges always walk ranks in ascending order afterwards.
//! Host scheduling decides only *when* a closure runs, never what it
//! computes or where its result lands — the same argument that makes the
//! `Schedule` fuzzer's permutations invisible (see DESIGN.md, "Host
//! performance", round 2).

use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::{recursive_kway_checked_on, scalapart_bisect, Method, NoopObserver, SpConfig};
use sp_geometry::Point2;
use sp_graph::gen::delaunay_graph;
use sp_graph::Graph;
use sp_machine::{CostModel, Machine};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use crate::fuzz::{fingerprint_result, Baseline};
use crate::rng::Fingerprint;
use crate::{Failure, Report};

/// Host pool widths to sweep beyond the baseline's one thread (installed
/// per run, the in-process equivalent of `RAYON_NUM_THREADS`). Width 2 is
/// where the caller and one worker share the claims, the benchmark's
/// width.
const THREADS: [usize; 3] = [2, 4, 8];

/// The distinct pool widths the supersteps of a run reported.
type Shapes = BTreeSet<usize>;

/// Run the plain pipeline (no recorder, no observer, canonical schedule)
/// once on the installed pool, returning its fingerprints and simulated
/// time, and the pool widths its supersteps ran on.
pub(crate) fn run_pipeline(g: &Graph, ranks: usize) -> (Baseline, Shapes) {
    let mut machine = Machine::new(ranks, CostModel::qdr_infiniband());
    let shapes = Arc::new(Mutex::new(Shapes::new()));
    let seen = shapes.clone();
    machine.set_superstep_hook(Box::new(move |info| {
        seen.lock()
            .expect("no holder of the shapes lock panics")
            .insert(info.threads);
    }));
    let r = scalapart_bisect(g, &mut machine, &SpConfig::default());
    let shapes = std::mem::take(&mut *shapes.lock().expect("the run is over"));
    let run = Baseline {
        fingerprint: fingerprint_result(g, &r, true),
        data_fingerprint: fingerprint_result(g, &r, false),
        elapsed: machine.elapsed(),
    };
    (run, shapes)
}

/// Parts of the k-way runs: three levels of recursion, so children are cut
/// out of children.
const KWAY_PARTS: usize = 8;

/// The k-way cases run beside the pipeline: SP-PG7-NL on a Delaunay mesh
/// that has coordinates, and the ParMetis-like comparator on the
/// campaign's graph.
struct KwayCases<'a> {
    g: &'a Graph,
    mesh: Graph,
    mesh_coords: Vec<Point2>,
}

/// (label fingerprint, root elapsed bits) of each case, in
/// [`KwayCases::METHODS`] order.
type KwayRun = [(u64, u64); 2];

impl<'a> KwayCases<'a> {
    const METHODS: [Method; 2] = [Method::SpPg7Nl, Method::ParMetisLike];

    fn new(g: &'a Graph) -> Self {
        let (mesh, mesh_coords) = delaunay_graph(g.n().max(64), &mut StdRng::seed_from_u64(0xDE1A));
        KwayCases {
            g,
            mesh,
            mesh_coords,
        }
    }

    /// Run both cases on the installed pool (the sub-bisections run on
    /// fresh machines of their own).
    fn run(&self, ranks: usize) -> KwayRun {
        Self::METHODS.map(|method| {
            let (g, coords) = match method {
                Method::SpPg7Nl => (&self.mesh, Some(&self.mesh_coords[..])),
                _ => (self.g, None),
            };
            let mut machine = Machine::new(ranks, CostModel::qdr_infiniband());
            let kp = recursive_kway_checked_on(
                method,
                g,
                coords,
                KWAY_PARTS,
                SpConfig::default().seed,
                &mut machine,
                &mut NoopObserver,
            )
            .expect("NoopObserver never cancels");
            let mut fp = Fingerprint::new();
            for &label in &kp.part {
                fp.u64(label as u64);
            }
            (fp.finish(), machine.elapsed().to_bits())
        })
    }
}

/// Describe every k-way case of `got` that differs from `want`.
fn kway_mismatches(got: KwayRun, want: KwayRun) -> impl Iterator<Item = String> {
    KwayCases::METHODS
        .into_iter()
        .zip(got.into_iter().zip(want))
        .filter(|(_, (got, want))| got != want)
        .map(|(method, (got, want))| {
            format!(
                "{KWAY_PARTS}-way {}: (label fingerprint, root elapsed bits) \
                 {got:#x?} != serial {want:#x?}",
                method.name()
            )
        })
}

/// A host pool `threads` wide.
pub(crate) fn host_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// Pipelines of the contention check, and the pool width of each.
const CONTENDERS: usize = 2;
const CONTENDED_THREADS: usize = 4;

/// The pool widths, then the contention check. Every pipeline run must
/// reproduce `base` bit for bit; the k-way runs must reproduce theirs on
/// one thread, the baseline's width, whose pipeline run `base` already is.
pub fn run_parallel_campaign(g: &Graph, ranks: usize, base: &Baseline) -> Report {
    let kway = KwayCases::new(g);
    let mut failures = Vec::new();
    let mut fail = |threads: usize, detail: String| {
        failures.push(Failure {
            stage: "parallel",
            seed: None,
            invariant: "host-shape-invisible",
            detail: format!("{threads} host thread(s): {detail}"),
        })
    };
    let kway_reference = host_pool(1).install(|| kway.run(ranks));
    for threads in THREADS {
        let pool = host_pool(threads);
        let (run, _) = pool.install(|| run_pipeline(g, ranks));
        if run.fingerprint != base.fingerprint {
            fail(
                threads,
                format!(
                    "fingerprint {:#018x} != baseline {:#018x} (simulated {} vs {})",
                    run.fingerprint, base.fingerprint, run.elapsed, base.elapsed
                ),
            );
        }
        let got = pool.install(|| kway.run(ranks));
        for detail in kway_mismatches(got, kway_reference) {
            fail(threads, detail);
        }
    }

    // Contention: two pipelines at once, each on a pool of its own width.
    let contended: Vec<Baseline> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..CONTENDERS)
            .map(|_| s.spawn(|| host_pool(CONTENDED_THREADS).install(|| run_pipeline(g, ranks).0)))
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("a contended pipeline panicked"))
            .collect()
    });
    for run in contended {
        if run.fingerprint != base.fingerprint {
            fail(
                CONTENDED_THREADS,
                format!(
                    "beside another pipeline: fingerprint {:#018x} != baseline {:#018x} \
                     (simulated {} vs {})",
                    run.fingerprint, base.fingerprint, run.elapsed, base.elapsed
                ),
            );
        }
    }

    Report {
        summary: format!(
            "{} run(s) (threads {THREADS:?}) and {CONTENDERS} contended run(s) \
             bit-identical to the baseline; {} {KWAY_PARTS}-way run(s), two per width \
             (SP-PG7-NL on a Delaunay mesh, ParMetis-like on this graph), labels and \
             root simulated time bit-identical",
            THREADS.len(),
            (THREADS.len() + 1) * KwayCases::METHODS.len()
        ),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    #[test]
    fn pipeline_is_thread_invariant_on_grid() {
        let g = grid_2d(24, 24);
        let report = run_parallel_campaign(&g, 8, &Baseline::compute(&g, 8));
        assert!(
            report.summary.starts_with("3 run(s) ")
                && report.summary.contains(" and 2 contended run(s) ")
                && report.summary.contains(" 8 8-way run(s), two per width "),
            "three widths beyond the baseline's, two pipelines at once, two \
             k-way cases at every width and the baseline's: {}",
            report.summary
        );
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
    }

    #[test]
    fn campaign_actually_exercises_every_pool_width() {
        // Guard against the sweep silently collapsing to one width — a
        // pool that is never installed. The machine must report each width
        // as asked for, and the pipeline and both k-way cases must agree
        // with the serial run at every width, not just exist.
        let g = grid_2d(16, 16);
        let base = Baseline::compute(&g, 8);
        let kway = KwayCases::new(&g);
        let kway_reference = host_pool(1).install(|| kway.run(8));
        for threads in THREADS {
            let pool = host_pool(threads);
            let (run, shapes) = pool.install(|| run_pipeline(&g, 8));
            assert_eq!(shapes, BTreeSet::from([threads]));
            assert_eq!(run.fingerprint, base.fingerprint);
            assert_eq!(
                run.elapsed.to_bits(),
                base.elapsed.to_bits(),
                "simulated time must not depend on host execution shape"
            );
            let got = pool.install(|| kway.run(8));
            let mismatches: Vec<String> = kway_mismatches(got, kway_reference).collect();
            assert!(mismatches.is_empty(), "{mismatches:?}");
        }
    }
}
