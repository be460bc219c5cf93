//! Incremental-repartitioning fuzz: seeded delta streams driven through
//! [`sp_stream`]'s warm-start repartitioner, with five properties
//! demanded at every step:
//!
//! 1. **Validity** — the partition stays a two-sided cover with both
//!    sides populated, whatever the delta chain did to the graph.
//! 2. **Representation invisibility** — a twin session that compacts its
//!    overlay to a fresh CSR after every step (`force_rebase`) produces
//!    bit-identical partition fingerprints. The overlay is a view, never
//!    a semantic.
//! 3. **Batch-split invisibility** — delivering the same deltas one at a
//!    time instead of as one batch changes nothing: the repartitioner's
//!    state is a function of the delta *chain*, not its framing.
//! 4. **Differential cut bound** — the warm incremental cut stays within
//!    a configured factor (plus absolute slack) of a from-scratch
//!    partition of the same mutated graph. Warm-starting trades cut
//!    quality for migration volume; this bounds how much.
//! 5. **Rejected batches are invisible** — before every step the main
//!    session alone is offered the step's batch with an invalid tail (a
//!    duplicate add, a missing remove, an out-of-range vertex, a shift
//!    past the largest coordinate, in turn) and must refuse it. The twin
//!    and split sessions never see that batch, so whatever a rollback
//!    left behind would surface as a failure of 2 or 3.
//!
//! The whole campaign then re-runs under a matrix of host pool widths
//! (the in-process `RAYON_NUM_THREADS`), demanding every step fingerprint
//! be identical to the single-thread baseline — same contract as the
//! [`parallel`](crate::parallel) stage, extended to the dynamic path.
//!
//! Every failure carries the stream seed that reproduces it.

use crate::rng::{derive_seed, splitmix64, Fingerprint};
use scalapart::stream::{
    DeltaOverlay, GraphDelta, IncrementalRepartitioner, StepReport, StreamConfig,
};
use sp_geometry::Point2;
use sp_graph::Graph;
use std::sync::Arc;

/// Configuration of an incremental-repartitioning fuzz campaign.
#[derive(Clone, Debug)]
pub struct IncrementalFuzzConfig {
    /// Independent delta streams (each gets a derived seed).
    pub streams: usize,
    /// Repartition steps per stream.
    pub steps: usize,
    /// Deltas applied between consecutive repartitions.
    pub batch: usize,
    /// Master seed; stream `i` runs on `derive_seed(seed, i)`.
    pub seed: u64,
    /// Host pool widths to sweep; every width must reproduce the
    /// single-thread step fingerprints bit-for-bit.
    pub threads: Vec<usize>,
    /// Incremental cut must satisfy
    /// `cut <= scratch_cut * cut_factor + cut_slack`.
    pub cut_factor: f64,
    pub cut_slack: f64,
    /// Repartitioner settings shared by every session in the campaign.
    pub stream_cfg: StreamConfig,
}

impl Default for IncrementalFuzzConfig {
    fn default() -> Self {
        IncrementalFuzzConfig {
            streams: 4,
            steps: 6,
            batch: 8,
            seed: 0x5EED_D1FF,
            threads: vec![1, 4, 8],
            cut_factor: 2.0,
            cut_slack: 8.0,
            stream_cfg: StreamConfig::default(),
        }
    }
}

/// One violated property.
#[derive(Clone, Debug)]
pub struct IncrementalFailure {
    /// Stream index within the campaign.
    pub stream: usize,
    /// Derived seed that reproduces the stream.
    pub seed: u64,
    /// Step index (0 = bootstrap).
    pub step: u64,
    pub detail: String,
}

impl std::fmt::Display for IncrementalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream {} (seed {:#x}) step {}: {}",
            self.stream, self.seed, self.step, self.detail
        )
    }
}

/// Result of an incremental fuzz campaign.
pub struct IncrementalReport {
    /// Repartition steps executed across all streams and sessions.
    pub steps_run: usize,
    /// Steps answered by the incremental (dirty-region) path.
    pub incremental_steps: usize,
    /// Steps that fell back to a full re-partition.
    pub full_steps: usize,
    /// FNV over every step's partition fingerprint, cut bits and
    /// simulated-time bits, in stream order: equal on two commits exactly
    /// when the campaign's results are.
    pub fingerprint: u64,
    pub failures: Vec<IncrementalFailure>,
}

impl IncrementalReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Draw the next valid delta for the overlay's current state. Rejection
/// sampling against the validity rules (no duplicate adds, no removes
/// that strand a vertex), bounded so a pathological state cannot spin.
fn next_delta(ov: &DeltaOverlay, state: &mut u64) -> Option<GraphDelta> {
    let n = ov.n() as u64;
    for _ in 0..64 {
        let r = splitmix64(state);
        let a = ((r >> 8) % n) as u32;
        let b = ((r >> 34) % n) as u32;
        let mag = ((r >> 16) & 0xF) as f64;
        match r % 4 {
            0 => {
                if a != b && !ov.neighbors_w(a).any(|(x, _)| x == b) {
                    return Some(GraphDelta::AddEdge {
                        u: a,
                        v: b,
                        w: 0.25 + mag / 4.0,
                    });
                }
            }
            1 => {
                if ov.neighbors_w(a).any(|(x, _)| x == b) && ov.degree(a) > 1 && ov.degree(b) > 1 {
                    return Some(GraphDelta::RemoveEdge { u: a, v: b });
                }
            }
            2 => {
                return Some(GraphDelta::SetVwgt {
                    v: a,
                    w: 0.5 + mag / 2.0,
                })
            }
            _ => {
                if ov.coords().is_some() {
                    return Some(GraphDelta::ShiftCoord {
                        v: a,
                        dx: (mag - 7.5) / 16.0,
                        dy: (7.5 - mag) / 16.0,
                    });
                }
            }
        }
    }
    None
}

fn overlay_of(g: &Arc<Graph>, coords: Option<&[Point2]>) -> DeltaOverlay {
    DeltaOverlay::new(g.clone(), coords.map(|c| c.to_vec())).expect("base graph is valid")
}

/// Deltas for step `s` of a stream: even steps deliver a single delta
/// (a small dirty region, exercising the localized incremental path),
/// odd steps the full configured batch (driving the dirty fraction over
/// the fallback threshold on small graphs). Both execution paths get
/// fuzzed regardless of base-graph size.
fn batch_for(
    ov: &DeltaOverlay,
    rng: &mut u64,
    s: usize,
    cfg: &IncrementalFuzzConfig,
) -> Vec<GraphDelta> {
    let size = if s.is_multiple_of(2) { 1 } else { cfg.batch };
    let mut batch = Vec::with_capacity(size);
    for _ in 0..size {
        if let Some(d) = next_delta(ov, rng) {
            batch.push(d);
        }
    }
    batch
}

/// What step `s` appends to a copy of its batch to make it invalid: a
/// duplicate add, a missing remove, an out-of-range vertex and an
/// overflowing shift, in turn. The edge deltas stay clear of every vertex
/// the batch touches, so the batch cannot have made them valid. The shift
/// is a pair: the first moves the last vertex to the largest coordinate
/// (or is itself refused, without coordinates), the second past it — after
/// which the first has to be undone by value, since `x + MAX - MAX` is 0.
/// Steps alternate between a single delta and a full batch, so the turn
/// advances three kinds every two steps and each kind meets both sizes.
fn invalid_tail(ov: &DeltaOverlay, batch: &[GraphDelta], s: usize) -> Vec<GraphDelta> {
    let n = ov.n() as u32;
    let clear = |v: u32| {
        batch.iter().all(|d| {
            let (a, b) = d.touches();
            a != v && b != Some(v)
        })
    };
    let adjacent = |v: u32, u: u32| ov.neighbors_w(v).any(|(x, _)| x == u);
    let out_of_range = GraphDelta::SetVwgt { v: n, w: 1.0 };
    let pair = |wanted: bool| {
        (0..n).filter(|&v| clear(v)).find_map(|v| {
            let u = (0..n).find(|&u| u != v && clear(u) && adjacent(v, u) == wanted)?;
            Some((v, u))
        })
    };
    match (s + s / 2) % 4 {
        0 => vec![pair(true).map_or(out_of_range, |(u, v)| GraphDelta::AddEdge { u, v, w: 1.0 })],
        1 => vec![pair(false).map_or(out_of_range, |(u, v)| GraphDelta::RemoveEdge { u, v })],
        2 => vec![out_of_range],
        _ => {
            let far = GraphDelta::ShiftCoord {
                v: n - 1,
                dx: f64::MAX,
                dy: 0.0,
            };
            vec![far, far]
        }
    }
}

/// Check one partition for validity; returns a failure detail if broken.
fn validity_of(rp: &IncrementalRepartitioner) -> Option<String> {
    let bi = rp.partition();
    let n = rp.overlay().n();
    if bi.len() != n {
        return Some(format!(
            "partition has {} labels for {} vertices",
            bi.len(),
            n
        ));
    }
    let zeros = (0..n as u32).filter(|&v| bi.side(v) == 0).count();
    if n >= 2 && (zeros == 0 || zeros == n) {
        return Some(format!("one-sided partition ({zeros} of {n} on side 0)"));
    }
    None
}

/// Run one seeded stream with all per-step properties checked, folding
/// every step into `campaign`. Returns the per-step partition
/// fingerprints (bootstrap first) for cross-run comparison, plus the
/// per-mode step counts.
fn run_stream(
    g: &Arc<Graph>,
    coords: Option<&[Point2]>,
    cfg: &IncrementalFuzzConfig,
    stream: usize,
    seed: u64,
    campaign: &mut Fingerprint,
    failures: &mut Vec<IncrementalFailure>,
) -> (Vec<u64>, usize, usize) {
    let mut fail = |step: u64, detail: String| {
        failures.push(IncrementalFailure {
            stream,
            seed,
            step,
            detail,
        })
    };
    let scfg = StreamConfig {
        seed,
        ..cfg.stream_cfg
    };
    let (mut main, boot) = IncrementalRepartitioner::new(overlay_of(g, coords), scfg);
    let (mut twin, twin_boot) = IncrementalRepartitioner::new(overlay_of(g, coords), scfg);
    let (mut split, _) = IncrementalRepartitioner::new(overlay_of(g, coords), scfg);
    let mut fps = vec![boot.partition_fp];
    let mut fold = |r: &StepReport| {
        campaign.u64(r.partition_fp);
        campaign.f64_bits(r.cut_after);
        campaign.f64_bits(r.sim_time);
    };
    fold(&boot);
    let mut incremental = 0usize;
    let mut full = 1usize; // the bootstrap
    if boot.partition_fp != twin_boot.partition_fp {
        fail(0, "bootstrap is not reproducible".to_string());
    }
    let mut rng = seed;
    for s in 0..cfg.steps {
        let batch = batch_for(main.overlay(), &mut rng, s, cfg);

        // 5. Rejected batches are invisible: main refuses the batch with
        // an invalid tail, then takes the batch itself like the others.
        let mut invalid = batch.clone();
        invalid.extend(invalid_tail(main.overlay(), &batch, s));
        let before = (main.overlay().input_fingerprint(), main.pending_touched());
        if main.apply(&invalid).is_ok() {
            fail(
                main.steps(),
                "a batch with an invalid tail was accepted".to_string(),
            );
            break;
        }
        if before != (main.overlay().input_fingerprint(), main.pending_touched()) {
            fail(
                main.steps(),
                "a refused batch changed the overlay".to_string(),
            );
        }

        let report = match main.step(&batch) {
            Ok(r) => r,
            Err(e) => {
                fail(main.steps(), format!("generated delta rejected: {e}"));
                break;
            }
        };
        fps.push(report.partition_fp);
        fold(&report);
        match report.mode {
            scalapart::stream::StepMode::Incremental => incremental += 1,
            scalapart::stream::StepMode::Full => full += 1,
        }

        // 1. Validity.
        if let Some(detail) = validity_of(&main) {
            fail(report.step, detail);
        }

        // 2. Representation invisibility: the twin compacts after every
        // step yet must match bit-for-bit.
        match twin.step(&batch) {
            Ok(t) => {
                twin.force_rebase();
                if t.partition_fp != report.partition_fp
                    || t.cut_after.to_bits() != report.cut_after.to_bits()
                {
                    fail(
                        report.step,
                        format!(
                            "compacted twin diverged: fp {:#018x} vs {:#018x}, cut {} vs {}",
                            t.partition_fp, report.partition_fp, t.cut_after, report.cut_after
                        ),
                    );
                }
            }
            Err(e) => fail(
                report.step,
                format!("twin rejected a batch the main session accepted: {e}"),
            ),
        }

        // 3. Batch-split invisibility: one delta at a time, then one
        // repartition — identical outcome.
        let split_err = batch
            .iter()
            .find_map(|d| split.apply(std::slice::from_ref(d)).err());
        match split_err {
            Some(e) => fail(
                report.step,
                format!("singleton delivery rejected a batched delta: {e}"),
            ),
            None => {
                let sp = split.repartition();
                if sp.partition_fp != report.partition_fp {
                    fail(
                        report.step,
                        format!(
                            "batch framing leaked into the result: split fp {:#018x} vs {:#018x}",
                            sp.partition_fp, report.partition_fp
                        ),
                    );
                }
            }
        }

        // 4. Differential cut bound against a from-scratch oracle on the
        // same mutated graph.
        let compacted = Arc::new(main.overlay().compact());
        let (_, scratch) =
            IncrementalRepartitioner::new(overlay_of(&compacted, main.overlay().coords()), scfg);
        let bound = scratch.cut_after * cfg.cut_factor + cfg.cut_slack;
        if main.cut() > bound {
            fail(
                report.step,
                format!(
                    "incremental cut {} exceeds bound {} (scratch {} x {} + {})",
                    main.cut(),
                    bound,
                    scratch.cut_after,
                    cfg.cut_factor,
                    cfg.cut_slack
                ),
            );
        }
    }
    (fps, incremental, full)
}

/// Run the full campaign on a base graph: every stream with all per-step
/// properties on a single-thread pool, then the step-fingerprint
/// sequences re-derived under each pool width in `threads`.
pub fn run_incremental_campaign(
    g: &Graph,
    coords: Option<&[Point2]>,
    cfg: &IncrementalFuzzConfig,
) -> IncrementalReport {
    let g = Arc::new(g.clone());
    let mut failures = Vec::new();
    let mut steps_run = 0usize;
    let mut incremental_steps = 0usize;
    let mut full_steps = 0usize;
    let mut campaign = Fingerprint::new();

    let baseline: Vec<(u64, Vec<u64>)> = {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        pool.install(|| {
            (0..cfg.streams)
                .map(|i| {
                    let seed = derive_seed(cfg.seed, i as u64);
                    let (fps, inc, full) =
                        run_stream(&g, coords, cfg, i, seed, &mut campaign, &mut failures);
                    steps_run += fps.len();
                    incremental_steps += inc;
                    full_steps += full;
                    (seed, fps)
                })
                .collect()
        })
    };

    // Thread-width sweep: a cheap replay (main session only, no twins)
    // per width, compared against the single-thread fingerprints.
    for &threads in &cfg.threads {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            for (i, (seed, expected)) in baseline.iter().enumerate() {
                let scfg = StreamConfig {
                    seed: *seed,
                    ..cfg.stream_cfg
                };
                let (mut rp, boot) = IncrementalRepartitioner::new(overlay_of(&g, coords), scfg);
                let mut fps = vec![boot.partition_fp];
                let mut rng = *seed;
                for s in 0..cfg.steps {
                    let batch = batch_for(rp.overlay(), &mut rng, s, cfg);
                    match rp.step(&batch) {
                        Ok(r) => fps.push(r.partition_fp),
                        Err(_) => break,
                    }
                }
                steps_run += fps.len().saturating_sub(1);
                if &fps != expected {
                    let step = fps
                        .iter()
                        .zip(expected)
                        .position(|(a, b)| a != b)
                        .unwrap_or(expected.len().min(fps.len()));
                    failures.push(IncrementalFailure {
                        stream: i,
                        seed: *seed,
                        step: step as u64,
                        detail: format!(
                            "step fingerprints diverge on a {threads}-thread pool \
                             (first divergence at step {step})"
                        ),
                    });
                }
            }
        });
    }

    IncrementalReport {
        steps_run,
        incremental_steps,
        full_steps,
        fingerprint: campaign.finish(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::{grid_2d, grid_2d_coords};

    fn small_cfg() -> IncrementalFuzzConfig {
        IncrementalFuzzConfig {
            streams: 2,
            steps: 4,
            batch: 6,
            threads: vec![1, 4],
            ..IncrementalFuzzConfig::default()
        }
    }

    #[test]
    fn campaign_passes_on_grid_with_coords() {
        let g = grid_2d(12, 12);
        let coords = grid_2d_coords(12, 12);
        let report = run_incremental_campaign(&g, Some(&coords), &small_cfg());
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
        assert!(report.steps_run > 0);
        assert!(
            report.incremental_steps > 0,
            "campaign never exercised the incremental path"
        );
    }

    #[test]
    fn campaign_passes_without_coordinates() {
        // The coordinate-free fallback path (full steps use FM from the
        // inherited sides) must satisfy the same properties.
        let g = grid_2d(10, 10);
        let report = run_incremental_campaign(&g, None, &small_cfg());
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok());
    }

    #[test]
    fn invalid_tails_are_refused_each_for_its_own_reason() {
        use scalapart::stream::DeltaError;
        let g = Arc::new(grid_2d(8, 8));
        let mut ov = overlay_of(&g, Some(&grid_2d_coords(8, 8)));
        let batch = [GraphDelta::RemoveEdge { u: 0, v: 1 }];
        // Steps 0, 1, 4, 2 take the four turns in the order listed.
        let errs = [0, 1, 4, 2].map(|s| {
            let mut invalid = batch.to_vec();
            invalid.extend(invalid_tail(&ov, &batch, s));
            ov.apply_batch(&invalid).unwrap_err()
        });
        assert!(
            matches!(
                errs,
                [
                    DeltaError::DuplicateEdge { .. },
                    DeltaError::MissingEdge { .. },
                    DeltaError::VertexOutOfRange { v: 64, .. },
                    DeltaError::BadCoord,
                ]
            ),
            "{errs:?}"
        );
        assert_eq!(ov.patched_vertices(), 0);
    }

    #[test]
    fn delta_generator_is_deterministic_and_productive() {
        let g = Arc::new(grid_2d(8, 8));
        let ov = overlay_of(&g, None);
        let mut a = 42u64;
        let mut b = 42u64;
        let da: Vec<_> = (0..32).filter_map(|_| next_delta(&ov, &mut a)).collect();
        let db: Vec<_> = (0..32).filter_map(|_| next_delta(&ov, &mut b)).collect();
        assert_eq!(da.len(), 32, "generator starved on a healthy graph");
        assert_eq!(format!("{da:?}"), format!("{db:?}"));
    }
}
