//! Parallel-vs-serial determinism fuzz: the simulated machine may cut its
//! ranks into units of any size, deal them over any number of host
//! threads, and none of it may be observable in the simulation. This
//! module runs the **full pipeline** (coarsen → embed → partition →
//! refine) across a matrix of rank-batch sizes and pool widths, demanding
//! the complete fingerprint (partition labels, coordinate bits, cut
//! statistics, simulated-time bits) of every run equal the serial
//! [`Baseline`]. Beside it runs the k-way recursion
//! ([`recursive_kway_checked_on`], 8 parts): SP-PG7-NL on a Delaunay mesh
//! that has coordinates and the ParMetis-like comparator on the campaign's
//! graph, whose labels and root-machine simulated time must not move
//! across the same matrix either: their reference is the serial cell (one
//! thread, one rank batch), whose pipeline run is the baseline. Last, two pipelines run at the same
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

/// Host pool widths to sweep (installed per run, the in-process
/// equivalent of `RAYON_NUM_THREADS`). Width 2 is where the caller and one
/// worker share the claims, the benchmark's width.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Rank-batch sizes to sweep on a machine of `ranks` ranks: `ranks` itself
/// is the serial inline path (on one thread, the baseline's cell), 0 is
/// auto (units of one rank), what production runs; a size that does not
/// divide `ranks` leaves a short last unit.
fn batches(ranks: usize) -> [usize; 4] {
    [ranks, 0, 3, 4]
}

/// The distinct `(ranks per unit, pool threads)` the supersteps of a run
/// reported.
type Shapes = BTreeSet<(usize, usize)>;

/// Run the plain pipeline (no recorder, no observer, canonical schedule)
/// once with the given rank batch on the installed pool, returning its
/// fingerprints and simulated time, and the host shapes its supersteps
/// ran in.
pub(crate) fn run_pipeline(g: &Graph, ranks: usize, batch: usize) -> (Baseline, Shapes) {
    let mut machine = Machine::new(ranks, CostModel::qdr_infiniband());
    machine.set_rank_batch(batch);
    let shapes = Arc::new(Mutex::new(Shapes::new()));
    let seen = shapes.clone();
    machine.set_superstep_hook(Box::new(move |info| {
        seen.lock()
            .expect("no holder of the shapes lock panics")
            .insert((info.batch, info.threads));
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

    /// Run both cases with the given rank batch on their root machines
    /// (the sub-bisections run on fresh machines of their own).
    fn run(&self, ranks: usize, batch: usize) -> KwayRun {
        Self::METHODS.map(|method| {
            let (g, coords) = match method {
                Method::SpPg7Nl => (&self.mesh, Some(&self.mesh_coords[..])),
                _ => (self.g, None),
            };
            let mut machine = Machine::new(ranks, CostModel::qdr_infiniband());
            machine.set_rank_batch(batch);
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

/// The full `threads × batches` matrix, then the contention check. Every
/// pipeline run must reproduce `base` bit for bit; the k-way runs must
/// reproduce theirs on one thread with one rank batch, the baseline's cell,
/// whose pipeline run `base` already is.
pub fn run_parallel_campaign(g: &Graph, ranks: usize, base: &Baseline) -> Report {
    let kway = KwayCases::new(g);
    let mut failures = Vec::new();
    let mut fail = |threads: usize, batch: usize, detail: String| {
        failures.push(Failure {
            stage: "parallel",
            seed: None,
            invariant: "host-shape-invisible",
            detail: format!("batch {batch} on {threads} host thread(s): {detail}"),
        })
    };
    let kway_reference = host_pool(1).install(|| kway.run(ranks, ranks));
    let mut runs = 0;
    for threads in THREADS {
        let pool = host_pool(threads);
        for batch in batches(ranks) {
            if threads == 1 && batch == ranks {
                continue;
            }
            let (run, _) = pool.install(|| run_pipeline(g, ranks, batch));
            runs += 1;
            if run.fingerprint != base.fingerprint {
                fail(
                    threads,
                    batch,
                    format!(
                        "fingerprint {:#018x} != baseline {:#018x} (simulated {} vs {})",
                        run.fingerprint, base.fingerprint, run.elapsed, base.elapsed
                    ),
                );
            }
            let got = pool.install(|| kway.run(ranks, batch));
            for detail in kway_mismatches(got, kway_reference) {
                fail(threads, batch, detail);
            }
        }
    }

    // Contention: two pipelines at once, each on a pool of its own width.
    let contended: Vec<Baseline> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..CONTENDERS)
            .map(|_| {
                s.spawn(|| host_pool(CONTENDED_THREADS).install(|| run_pipeline(g, ranks, 0).0))
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("a contended pipeline panicked"))
            .collect()
    });
    for run in contended {
        if run.fingerprint != base.fingerprint {
            fail(
                CONTENDED_THREADS,
                0,
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
            "{runs} run(s) (batches {:?} × threads {THREADS:?}, less the baseline's own cell) \
             and {CONTENDERS} contended run(s) bit-identical to the baseline; {} \
             {KWAY_PARTS}-way run(s), two per cell (SP-PG7-NL on a Delaunay mesh, \
             ParMetis-like on this graph), labels and root simulated time bit-identical",
            batches(ranks),
            (runs + 1) * KwayCases::METHODS.len()
        ),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    #[test]
    fn pipeline_is_batch_and_thread_invariant_on_grid() {
        let g = grid_2d(24, 24);
        let report = run_parallel_campaign(&g, 8, &Baseline::compute(&g, 8));
        assert!(
            report.summary.starts_with("15 run(s) ")
                && report.summary.contains(" and 2 contended run(s) ")
                && report.summary.contains(" 32 8-way run(s), two per cell "),
            "4×4 matrix less the baseline's cell, two pipelines at once, two \
             k-way cases in every cell: {}",
            report.summary
        );
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
    }

    #[test]
    fn campaign_actually_exercises_distinct_batch_shapes() {
        // Guard against the sweep silently collapsing to one shape — a
        // batch the pipeline never forwards, a pool that is never
        // installed. With 8 ranks: auto on 2 threads is 8 one-rank units
        // that two tasks claim; batch 1 on 8 threads is one rank a task;
        // batch 3 on 2 threads is units 0..3, 3..6, 6..8; batch 8 is one
        // unit, run inline. The machine must report each shape as asked
        // for, and the pipeline and both k-way cases must agree with the
        // serial run at every shape, not just exist.
        let g = grid_2d(16, 16);
        let base = Baseline::compute(&g, 8);
        let kway = KwayCases::new(&g);
        let kway_reference = host_pool(1).install(|| kway.run(8, 8));
        for (batch, threads, unit) in [(0, 2, 1), (1, 8, 1), (3, 2, 3), (8, 2, 8)] {
            let pool = host_pool(threads);
            let (run, shapes) = pool.install(|| run_pipeline(&g, 8, batch));
            assert_eq!(shapes, BTreeSet::from([(unit, threads)]));
            assert_eq!(run.fingerprint, base.fingerprint);
            assert_eq!(
                run.elapsed.to_bits(),
                base.elapsed.to_bits(),
                "simulated time must not depend on host execution shape"
            );
            let got = pool.install(|| kway.run(8, batch));
            let mismatches: Vec<String> = kway_mismatches(got, kway_reference).collect();
            assert!(mismatches.is_empty(), "{mismatches:?}");
        }
    }

    #[test]
    fn default_sweep_includes_the_auto_batch_production_runs() {
        for ranks in [8, 16] {
            let b = batches(ranks);
            assert!(b.contains(&ranks) && b.contains(&0));
            assert!(b.iter().any(|&b| b > 0 && ranks % b != 0));
        }
    }
}
