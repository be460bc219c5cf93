//! Parallel-vs-serial determinism fuzz: the simulated machine may cut its
//! ranks into units of any size, deal them over any number of host
//! threads, and none of it may be observable in the simulation. This
//! module runs the **full pipeline** (coarsen → embed → partition →
//! refine) once serially — every superstep inline on the
//! calling thread — and then across a matrix of rank-batch sizes and
//! pool widths, demanding the complete fingerprint (partition labels,
//! coordinate bits, cut statistics, simulated-time bits) be identical on
//! every run. Beside it runs the k-way recursion
//! ([`recursive_kway_checked_on`], 8 parts): SP-PG7-NL on a Delaunay mesh
//! that has coordinates and the ParMetis-like comparator on the campaign's
//! graph, whose labels and root-machine simulated time must not move
//! across the same matrix either. Last, two pipelines run at the same
//! time on two OS threads, each four host threads wide — two shards' jobs
//! in one `sp-serve` process, and the path on which a dispatch of the host
//! pool finds the idle workers taken and starts more — and both must
//! return the serial fingerprint.
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

use crate::fuzz::fingerprint_result;
use crate::rng::Fingerprint;

/// Configuration of a parallel-execution fuzz campaign.
#[derive(Clone, Debug)]
pub struct ParallelFuzzConfig {
    /// Simulated ranks.
    pub ranks: usize,
    /// Pipeline configuration shared by every run.
    pub sp: SpConfig,
    /// Rank-batch sizes to sweep: 0 is auto (units of one rank), what
    /// production runs; a size that does not divide `ranks` leaves a short
    /// last unit; `ranks` itself is the serial inline path.
    pub batches: Vec<usize>,
    /// Host pool widths to sweep (installed per run, the in-process
    /// equivalent of `RAYON_NUM_THREADS`).
    pub threads: Vec<usize>,
}

impl ParallelFuzzConfig {
    /// The default sweep on a machine of `ranks` ranks.
    pub fn with_ranks(ranks: usize) -> Self {
        ParallelFuzzConfig {
            ranks,
            sp: SpConfig::default(),
            batches: vec![0, 3, 4, ranks],
            threads: vec![1, 4, 8],
        }
    }
}

impl Default for ParallelFuzzConfig {
    fn default() -> Self {
        Self::with_ranks(16)
    }
}

/// One diverging run of the campaign.
#[derive(Clone, Debug)]
pub struct ParallelFailure {
    pub batch: usize,
    pub threads: usize,
    pub detail: String,
}

impl std::fmt::Display for ParallelFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch {} on {} host threads: {}",
            self.batch, self.threads, self.detail
        )
    }
}

/// Result of a parallel-execution fuzz campaign.
pub struct ParallelReport {
    /// Fingerprint of the serial baseline (labels + coords + cut +
    /// simulated-time bits).
    pub baseline_fingerprint: u64,
    /// Simulated elapsed time of the baseline.
    pub baseline_elapsed: f64,
    /// Total pipeline runs performed (baseline + matrix).
    pub runs: usize,
    /// Total 8-way k-way runs performed beside them (two per pipeline run).
    pub kway_runs: usize,
    /// Pipeline runs performed at the same time as another, after the
    /// matrix (not counted in `runs`).
    pub contended_runs: usize,
    /// Every distinct `(ranks per unit, pool threads)` a superstep of the
    /// matrix runs reported — what the machine did, not what was asked for.
    pub shapes: BTreeSet<(usize, usize)>,
    pub failures: Vec<ParallelFailure>,
}

impl ParallelReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The distinct `(ranks per unit, pool threads)` the supersteps of a run
/// reported.
type Shapes = BTreeSet<(usize, usize)>;

/// Run the pipeline once with the given rank batch, returning the full
/// fingerprint, the simulated elapsed time and the host shapes its
/// supersteps ran in.
fn run_pipeline(g: &Graph, cfg: &ParallelFuzzConfig, batch: usize) -> (u64, f64, Shapes) {
    let mut machine = Machine::new(cfg.ranks, CostModel::qdr_infiniband());
    machine.set_rank_batch(batch);
    let shapes = Arc::new(Mutex::new(Shapes::new()));
    let seen = shapes.clone();
    machine.set_superstep_hook(Box::new(move |info| {
        seen.lock()
            .expect("no holder of the shapes lock panics")
            .insert((info.batch, info.threads));
    }));
    let r = scalapart_bisect(g, &mut machine, &cfg.sp);
    let shapes = std::mem::take(&mut *shapes.lock().expect("the run is over"));
    (fingerprint_result(g, &r, true), machine.elapsed(), shapes)
}

/// Parts of the k-way runs: three levels of recursion, so children are cut
/// out of children.
const KWAY_PARTS: usize = 8;

/// One k-way case of the campaign.
struct KwayCase<'a> {
    method: Method,
    g: &'a Graph,
    coords: Option<&'a [Point2]>,
}

/// Run `case` with the given rank batch on its root machine (the
/// sub-bisections run on fresh machines of their own), returning the label
/// fingerprint and the bits of the root machine's simulated time.
fn run_kway(case: &KwayCase, cfg: &ParallelFuzzConfig, batch: usize) -> (u64, u64) {
    let mut machine = Machine::new(cfg.ranks, CostModel::qdr_infiniband());
    machine.set_rank_batch(batch);
    let kp = recursive_kway_checked_on(
        case.method,
        case.g,
        case.coords,
        KWAY_PARTS,
        cfg.sp.seed,
        &mut machine,
        &mut NoopObserver,
    )
    .expect("NoopObserver never cancels");
    let mut fp = Fingerprint::new();
    for &label in &kp.part {
        fp.u64(label as u64);
    }
    (fp.finish(), machine.elapsed().to_bits())
}

/// Pipelines of the contention check, and the pool width of each.
const CONTENDERS: usize = 2;
const CONTENDED_THREADS: usize = 4;

/// Serial baseline, the full `batches × threads` matrix, then the
/// contention check. Every run must reproduce the baseline fingerprint
/// bit-for-bit.
pub fn run_parallel_campaign(g: &Graph, cfg: &ParallelFuzzConfig) -> ParallelReport {
    let (mesh, mesh_coords) = delaunay_graph(g.n().max(64), &mut StdRng::seed_from_u64(0xDE1A));
    let kway_cases = [
        KwayCase {
            method: Method::SpPg7Nl,
            g: &mesh,
            coords: Some(&mesh_coords),
        },
        KwayCase {
            method: Method::ParMetisLike,
            g,
            coords: None,
        },
    ];
    // Baseline: one batch covering all ranks on a one-thread pool — the
    // machine's inline serial path, no task dispatch anywhere.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (baseline_fp, baseline_elapsed, _) = pool.install(|| run_pipeline(g, cfg, cfg.ranks));
    let kway_baseline = kway_cases
        .each_ref()
        .map(|case| pool.install(|| run_kway(case, cfg, cfg.ranks)));

    let mut shapes = Shapes::new();
    let mut runs = 1;
    let mut kway_runs = kway_cases.len();
    let mut failures = Vec::new();
    for &threads in &cfg.threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        for &batch in &cfg.batches {
            let (fp, elapsed, seen) = pool.install(|| run_pipeline(g, cfg, batch));
            shapes.extend(seen);
            runs += 1;
            if fp != baseline_fp {
                failures.push(ParallelFailure {
                    batch,
                    threads,
                    detail: format!(
                        "fingerprint {:#018x} != serial baseline {:#018x} \
                         (simulated {} vs {})",
                        fp, baseline_fp, elapsed, baseline_elapsed
                    ),
                });
            }
            for (case, &baseline) in kway_cases.iter().zip(&kway_baseline) {
                let got = pool.install(|| run_kway(case, cfg, batch));
                kway_runs += 1;
                if got != baseline {
                    failures.push(ParallelFailure {
                        batch,
                        threads,
                        detail: format!(
                            "{KWAY_PARTS}-way {}: (label fingerprint, root elapsed bits) \
                             {got:#x?} != serial baseline {baseline:#x?}",
                            case.method.name()
                        ),
                    });
                }
            }
        }
    }

    // Contention: two pipelines at once, each on a pool of its own width.
    let contended: Vec<(u64, f64)> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..CONTENDERS)
            .map(|_| {
                s.spawn(|| {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(CONTENDED_THREADS)
                        .build()
                        .expect("pool");
                    let (fp, elapsed, _) = pool.install(|| run_pipeline(g, cfg, 0));
                    (fp, elapsed)
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().expect("a contended pipeline panicked"))
            .collect()
    });
    for (fp, elapsed) in &contended {
        if *fp != baseline_fp {
            failures.push(ParallelFailure {
                batch: 0,
                threads: CONTENDED_THREADS,
                detail: format!(
                    "beside another pipeline: fingerprint {fp:#018x} != serial baseline \
                     {baseline_fp:#018x} (simulated {elapsed} vs {baseline_elapsed})"
                ),
            });
        }
    }

    ParallelReport {
        baseline_fingerprint: baseline_fp,
        baseline_elapsed,
        runs,
        kway_runs,
        contended_runs: contended.len(),
        shapes,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    fn small_cfg() -> ParallelFuzzConfig {
        ParallelFuzzConfig {
            ranks: 8,
            batches: vec![1, 4, 8],
            threads: vec![1, 4, 8],
            ..ParallelFuzzConfig::default()
        }
    }

    #[test]
    fn pipeline_is_batch_and_thread_invariant_on_grid() {
        let g = grid_2d(24, 24);
        let report = run_parallel_campaign(&g, &small_cfg());
        assert_eq!(report.runs, 10, "baseline + 3×3 matrix");
        assert_eq!(report.kway_runs, 20, "two k-way cases beside each");
        assert_eq!(report.contended_runs, 2, "two pipelines at once");
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
    }

    #[test]
    fn campaign_actually_exercises_distinct_batch_shapes() {
        // Guard against the sweep silently collapsing to one shape — a
        // batch the pipeline never forwards, a pool that is never
        // installed. With 8 ranks: auto on 2 threads deals 8 one-rank
        // units 4 + 4; batch 1 on 8 threads is one rank a task; batch 3 on
        // 2 threads deals units 0..3, 3..6, 6..8 as 2 + 1; batch 8 is one
        // unit, run inline. The machine must report each shape as asked
        // for, and all must agree with each other, not just exist.
        let g = grid_2d(16, 16);
        let campaign = |batch: usize, threads: usize| {
            run_parallel_campaign(
                &g,
                &ParallelFuzzConfig {
                    ranks: 8,
                    batches: vec![batch],
                    threads: vec![threads],
                    ..ParallelFuzzConfig::default()
                },
            )
        };
        let auto = campaign(0, 2);
        for (batch, threads, unit) in [(1, 8, 1), (3, 2, 3), (8, 2, 8)] {
            let other = campaign(batch, threads);
            assert!(auto.ok() && other.ok());
            assert_eq!(other.shapes, BTreeSet::from([(unit, threads)]));
            assert_eq!(auto.baseline_fingerprint, other.baseline_fingerprint);
            assert_eq!(
                auto.baseline_elapsed.to_bits(),
                other.baseline_elapsed.to_bits(),
                "simulated time must not depend on host execution shape"
            );
        }
        assert_eq!(auto.shapes, BTreeSet::from([(1, 2)]));
    }

    #[test]
    fn default_sweep_includes_the_auto_batch_production_runs() {
        for ranks in [8, 16] {
            let cfg = ParallelFuzzConfig::with_ranks(ranks);
            assert!(cfg.batches.contains(&0) && cfg.batches.contains(&ranks));
            assert!(cfg.batches.iter().any(|&b| b > 0 && ranks % b != 0));
        }
    }
}
