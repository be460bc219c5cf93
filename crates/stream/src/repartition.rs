//! Warm-start incremental repartitioning.
//!
//! ROADMAP item 3, and the workload the paper's conclusion motivates: a
//! deforming mesh streams updates; instead of re-partitioning from
//! scratch each step, the [`IncrementalRepartitioner`] keeps the previous
//! bisection, computes the *dirty region* (vertices within a configurable
//! hop radius of any touched vertex), and re-refines only that region
//! with the existing FM machinery — running directly on the
//! [`DeltaOverlay`], no CSR rebuild. When the dirty region exceeds a
//! threshold fraction of the graph the step falls back to a full
//! re-partition (the parallel geometric partitioner when the overlay
//! carries coordinates), compacting and rebasing the overlay on the way.
//!
//! Each step reports the repartitioning-with-migration trade-off the
//! "Recent Advances in Graph Partitioning" survey frames: `migration_
//! volume` (vertices that changed side — data that would move between
//! ranks) against the cut improvement bought. Full repartitions pick the
//! side labelling that minimises migration (cut is invariant under a
//! global label flip, so this is free).
//!
//! Everything is deterministic: the dirty region reaches FM as a mask,
//! which FM walks in ascending vertex order whatever order the BFS found
//! it in; FM is serial, and the geometric fallback is the same
//! rank-count-invariant routine the batch pipeline uses. The sp-verify
//! `incremental` stage fuzzes this end to end across thread counts.
//!
//! A step costs what its dirty region costs, plus FM's one pass over the
//! graph per call (cut, weights, its scratch): the overlay is read at
//! array speed, a batch is made atomic by an undo log of its own length
//! ([`DeltaOverlay::apply_batch`]), and the region's mask is kept between
//! steps and cleared from the region's own list.

use crate::delta::{DeltaError, GraphDelta};
use crate::overlay::DeltaOverlay;
use sp_geopart::{parallel_geometric_partition, GeoConfig};
use sp_graph::access;
use sp_graph::distr::Distribution;
use sp_graph::Bisection;
use sp_machine::{CostModel, Machine};
use sp_obs::Registry;
use sp_refine::{fm_refine, fm_refine_on, strip_refine, FmConfig};
use sp_trace::fnv::Fingerprint;
use sp_trace::json::num;
use std::collections::BTreeSet;
use std::time::Instant;

/// Controls for the incremental repartitioner.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Dirty region = vertices within this many hops of a touched vertex.
    pub hop_radius: u32,
    /// Fall back to a full re-partition when the dirty fraction of the
    /// vertex set exceeds this.
    pub full_threshold: f64,
    /// FM settings for both the localized and the full-path refinement.
    pub fm: FmConfig,
    /// Geometric try policy for the full fallback (needs coordinates).
    pub geo: GeoConfig,
    /// Strip size multiple for the full fallback's refinement.
    pub strip_factor: f64,
    /// Simulated ranks charged for repartition work.
    pub ranks: usize,
    /// Master seed for the geometric fallback.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            hop_radius: 2,
            full_threshold: 0.25,
            fm: FmConfig {
                max_passes: 4,
                balance_tol: 0.08,
                move_fraction: 1.0,
            },
            geo: GeoConfig::g7_nl(),
            strip_factor: 6.0,
            ranks: 64,
            seed: 0x5CA_1A9_A87,
        }
    }
}

/// How a step was executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepMode {
    /// Localized FM over the dirty region only.
    Incremental,
    /// Full re-partition of the compacted graph (bootstrap, or dirtiness
    /// over threshold).
    Full,
}

impl StepMode {
    pub fn as_str(self) -> &'static str {
        match self {
            StepMode::Incremental => "incremental",
            StepMode::Full => "full",
        }
    }
}

/// Outcome of one repartition step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step index (0 = the bootstrap partition).
    pub step: u64,
    pub mode: StepMode,
    /// Vertices directly touched by deltas since the last repartition.
    pub touched: usize,
    /// Dirty-region size (touched + hop closure).
    pub dirty: usize,
    /// `dirty / n`.
    pub dirty_frac: f64,
    /// Weighted cut inherited into the step (after deltas, before work).
    pub cut_before: f64,
    /// Weighted cut after the step.
    pub cut_after: f64,
    /// Vertices that changed side — the data-migration objective.
    pub migration_volume: usize,
    /// Weighted imbalance after the step.
    pub imbalance: f64,
    /// FM passes executed.
    pub fm_passes: usize,
    /// Simulated machine time charged to the step.
    pub sim_time: f64,
    /// Host wall time (diagnostic only; never part of any fingerprint or
    /// served response — it would break byte-identical replay).
    pub wall_ms: f64,
    /// FNV fingerprint of the resulting side assignment.
    pub partition_fp: u64,
}

impl StepReport {
    /// One-line JSON record (`sp-stream-step-v1`), for obs logs and bench.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\": \"sp-stream-step-v1\", \"step\": {}, \"mode\": \"{}\", ",
                "\"touched\": {}, \"dirty\": {}, \"dirty_frac\": {}, ",
                "\"cut_before\": {}, \"cut_after\": {}, \"migration_volume\": {}, ",
                "\"imbalance\": {}, \"fm_passes\": {}, \"sim_time\": {}, ",
                "\"wall_ms\": {}, \"partition_fp\": \"{:016x}\"}}"
            ),
            self.step,
            self.mode.as_str(),
            self.touched,
            self.dirty,
            num(self.dirty_frac),
            num(self.cut_before),
            num(self.cut_after),
            self.migration_volume,
            num(self.imbalance),
            self.fm_passes,
            num(self.sim_time),
            num(self.wall_ms),
            self.partition_fp,
        )
    }

    /// Record the migration-vs-cut objective into an sp-obs registry.
    pub fn record(&self, reg: &Registry) {
        reg.counter(
            "sp_stream_repartitions_total",
            "Incremental repartition steps executed",
        )
        .inc();
        if self.mode == StepMode::Full {
            reg.counter(
                "sp_stream_full_repartitions_total",
                "Steps that fell back to a full re-partition",
            )
            .inc();
        }
        reg.counter(
            "sp_stream_migrated_vertices_total",
            "Vertices that changed side across all steps (migration volume)",
        )
        .add(self.migration_volume as u64);
        let improved = (self.cut_before - self.cut_after).max(0.0);
        reg.counter(
            "sp_stream_cut_improvement_total",
            "Cumulative weighted cut improvement bought by repartition steps",
        )
        .add(improved.round() as u64);
        reg.gauge("sp_stream_cut", "Weighted cut after the latest step")
            .set(self.cut_after.round() as i64);
    }
}

/// Keeps a partition warm across a stream of graph deltas.
pub struct IncrementalRepartitioner {
    overlay: DeltaOverlay,
    side: Bisection,
    cfg: StreamConfig,
    /// Vertices touched by deltas since the last repartition (sorted).
    pending: BTreeSet<u32>,
    /// The dirty region of the step under way, as a mask over the vertices
    /// and as the list the mask is cleared from: all false and empty
    /// between steps, so a step pays for its region and not for `n`.
    mask: Vec<bool>,
    dirty: Vec<u32>,
    steps: u64,
}

impl IncrementalRepartitioner {
    /// Bootstrap: run a full partition of the overlay's current state.
    /// Returns the repartitioner plus the step-0 report.
    pub fn new(overlay: DeltaOverlay, cfg: StreamConfig) -> (Self, StepReport) {
        let n = overlay.n();
        let mut rp = IncrementalRepartitioner {
            overlay,
            side: Bisection::new(vec![0; n]),
            cfg,
            pending: BTreeSet::new(),
            mask: vec![false; n],
            dirty: Vec::new(),
            steps: 0,
        };
        let report = rp.run_full(0, 0, n, true);
        rp.steps = 1;
        (rp, report)
    }

    /// The current overlay (base + chain).
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// The current partition.
    pub fn partition(&self) -> &Bisection {
        &self.side
    }

    /// Current weighted cut.
    pub fn cut(&self) -> f64 {
        access::cut_of(&self.overlay, &self.side)
    }

    /// Current weighted imbalance.
    pub fn imbalance(&self) -> f64 {
        access::imbalance_of(&self.overlay, &self.side)
    }

    /// Deltas applied but not yet repartitioned over.
    pub fn pending_touched(&self) -> usize {
        self.pending.len()
    }

    /// Repartition steps executed (including the bootstrap).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// FNV fingerprint of the current side assignment.
    pub fn partition_fingerprint(&self) -> u64 {
        partition_fp(&self.side)
    }

    /// Fold the overlay's chain into its base now (pure representation
    /// change; exposed so tests can interleave compaction arbitrarily).
    pub fn force_rebase(&mut self) {
        self.overlay.rebase();
    }

    /// Adopt a previously computed side assignment for the *current*
    /// overlay state, in place of running [`IncrementalRepartitioner::
    /// repartition`]: pending touches clear and the step counter
    /// advances, exactly as if the step had been computed here. This is
    /// the cache-hit path of sp-serve's streaming sessions — because
    /// repartitioning is deterministic, a partition computed elsewhere
    /// for the same `(base fingerprint, delta chain)` is bit-identical
    /// to what this instance would have produced.
    pub fn adopt(&mut self, sides: Vec<u8>) -> Result<(), &'static str> {
        if sides.len() != self.overlay.n() {
            return Err("adopted partition has the wrong length");
        }
        if sides.iter().any(|&s| s > 1) {
            return Err("adopted partition has a side other than 0/1");
        }
        self.side = Bisection::new(sides);
        self.pending.clear();
        self.steps += 1;
        Ok(())
    }

    /// Apply a batch of deltas atomically: either every delta applies (in
    /// order) or the overlay is left untouched and the first error is
    /// returned. Touched vertices accumulate until the next repartition.
    pub fn apply(&mut self, batch: &[GraphDelta]) -> Result<(), DeltaError> {
        self.overlay.apply_batch(batch)?;
        for d in batch {
            let (a, b) = d.touches();
            self.pending.insert(a);
            if let Some(b) = b {
                self.pending.insert(b);
            }
        }
        Ok(())
    }

    /// Repartition over everything applied since the last step.
    pub fn repartition(&mut self) -> StepReport {
        let n = self.overlay.n();
        let touched = self.pending.len();
        self.mark_dirty();
        let dirty = self.dirty.len();
        let dirty_frac = if n == 0 { 0.0 } else { dirty as f64 / n as f64 };
        let step = self.steps;
        self.steps += 1;

        let report = if dirty_frac > self.cfg.full_threshold {
            self.run_full(step, touched, dirty, false)
        } else {
            self.run_incremental(step, touched, dirty)
        };
        for &v in &self.dirty {
            self.mask[v as usize] = false;
        }
        self.dirty.clear();
        report
    }

    /// [`IncrementalRepartitioner::apply`] + [`IncrementalRepartitioner::
    /// repartition`] in one call.
    pub fn step(&mut self, batch: &[GraphDelta]) -> Result<StepReport, DeltaError> {
        self.apply(batch)?;
        Ok(self.repartition())
    }

    /// Move the pending set into `dirty` and grow it to its closure within
    /// `hop_radius` hops, one BFS level per hop; the list is the queue.
    fn mark_dirty(&mut self) {
        self.dirty.extend(std::mem::take(&mut self.pending));
        for &v in &self.dirty {
            self.mask[v as usize] = true;
        }
        let mut level = 0..self.dirty.len();
        for _ in 0..self.cfg.hop_radius {
            for i in level.clone() {
                for (u, _) in self.overlay.neighbors_w(self.dirty[i]) {
                    if !self.mask[u as usize] {
                        self.mask[u as usize] = true;
                        self.dirty.push(u);
                    }
                }
            }
            level = level.end..self.dirty.len();
        }
    }

    fn run_incremental(&mut self, step: u64, touched: usize, dirty: usize) -> StepReport {
        let t0 = Instant::now();
        let mut machine = Machine::new(self.cfg.ranks, CostModel::qdr_infiniband());
        let st = fm_refine_on(
            &self.overlay,
            &mut self.side,
            Some(&self.mask),
            &self.cfg.fm,
        );
        st.charge(&mut machine);
        StepReport {
            step,
            mode: StepMode::Incremental,
            touched,
            dirty,
            dirty_frac: dirty as f64 / self.overlay.n().max(1) as f64,
            cut_before: st.cut_before,
            cut_after: st.cut_after,
            migration_volume: st.moved,
            imbalance: access::imbalance_of(&self.overlay, &self.side),
            fm_passes: st.passes,
            sim_time: machine.elapsed(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            partition_fp: partition_fp(&self.side),
        }
    }

    /// Full re-partition of the compacted graph. Rebases the overlay (the
    /// chain is already paid for) and picks the side labelling closest to
    /// the previous partition, since cut is invariant under a global flip
    /// but migration volume is not.
    fn run_full(&mut self, step: u64, touched: usize, dirty: usize, bootstrap: bool) -> StepReport {
        let t0 = Instant::now();
        self.overlay.rebase();
        let g = self.overlay.base().clone();
        let cut_before = access::cut_of(&self.overlay, &self.side);
        let mut machine = Machine::new(self.cfg.ranks, CostModel::qdr_infiniband());
        let passes;
        let mut new_side = match self.overlay.coords() {
            Some(coords) => {
                let dist = Distribution::block(g.n(), self.cfg.ranks);
                let geo = parallel_geometric_partition(
                    &g,
                    coords,
                    &dist,
                    &mut machine,
                    &self.cfg.geo,
                    self.cfg.seed ^ 0x9E0,
                );
                let mut bi = geo.bisection;
                passes = strip_refine(
                    &g,
                    &mut bi,
                    &geo.separator.signed,
                    geo.cut,
                    self.cfg.strip_factor,
                    &self.cfg.fm,
                    &mut machine,
                )
                .map_or(0, |r| r.stats.passes);
                bi
            }
            None => {
                // No embedding to hand to the geometric partitioner: a
                // full-graph FM sweep from the inherited sides serves as
                // the coordinate-free fallback. A one-sided inheritance
                // (the bootstrap) has cut 0 — a degenerate local optimum
                // FM cannot leave — so seed it with a weighted half
                // split in index order first.
                let mut bi = self.side.clone();
                let (c0, c1) = bi.counts();
                if c0 == 0 || c1 == 0 {
                    let total: f64 = (0..g.n() as u32).map(|v| g.vwgt(v)).sum();
                    let mut acc = 0.0;
                    for v in 0..g.n() as u32 {
                        acc += g.vwgt(v);
                        bi.set(v, u8::from(acc > total / 2.0));
                    }
                }
                let st = fm_refine(&g, &mut bi, None, &self.cfg.fm);
                st.charge(&mut machine);
                passes = st.passes;
                bi
            }
        };
        let migration_volume = if bootstrap {
            0
        } else {
            let moved = hamming(&self.side, &new_side);
            let flipped = new_side.len() - moved;
            if flipped < moved {
                for v in 0..new_side.len() as u32 {
                    new_side.flip(v);
                }
                flipped
            } else {
                moved
            }
        };
        self.side = new_side;
        StepReport {
            step,
            mode: StepMode::Full,
            touched,
            dirty,
            dirty_frac: dirty as f64 / self.overlay.n().max(1) as f64,
            cut_before,
            cut_after: access::cut_of(&self.overlay, &self.side),
            migration_volume,
            imbalance: access::imbalance_of(&self.overlay, &self.side),
            fm_passes: passes,
            sim_time: machine.elapsed(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            partition_fp: partition_fp(&self.side),
        }
    }
}

fn hamming(a: &Bisection, b: &Bisection) -> usize {
    debug_assert_eq!(a.len(), b.len());
    (0..a.len() as u32)
        .filter(|&v| a.side(v) != b.side(v))
        .count()
}

/// FNV fingerprint of a side assignment.
pub fn partition_fp(bi: &Bisection) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(bi.len() as u64);
    fp.bytes(bi.sides());
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::reference::Image;
    use crate::overlay::DeltaOverlay;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sp_geometry::Point2;
    use sp_graph::gen::grid_2d;
    use std::sync::Arc;

    fn grid_overlay(rows: usize, cols: usize) -> DeltaOverlay {
        let g = grid_2d(rows, cols);
        let coords: Vec<Point2> = (0..rows * cols)
            .map(|i| Point2::new((i % cols) as f64, (i / cols) as f64))
            .collect();
        DeltaOverlay::new(Arc::new(g), Some(coords)).unwrap()
    }

    fn small_cfg() -> StreamConfig {
        StreamConfig {
            ranks: 4,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn bootstrap_produces_valid_partition() {
        let (rp, report) = IncrementalRepartitioner::new(grid_overlay(12, 12), small_cfg());
        assert_eq!(report.mode, StepMode::Full);
        assert_eq!(report.migration_volume, 0);
        assert!(report.cut_after > 0.0);
        rp.partition().validate(rp.overlay().base()).unwrap();
        assert!(rp.imbalance() <= 0.10 + 1e-9);
    }

    #[test]
    fn coordinate_free_bootstrap_is_balanced() {
        let g = Arc::new(grid_2d(10, 10));
        let ov = DeltaOverlay::new(g, None).unwrap();
        let (rp, report) = IncrementalRepartitioner::new(ov, small_cfg());
        let (c0, c1) = rp.partition().counts();
        assert!(c0 > 0 && c1 > 0, "both sides populated ({c0}/{c1})");
        assert!(report.cut_after > 0.0);
        assert!(rp.imbalance() <= rp.cfg.fm.balance_tol + 1e-9);
        rp.partition().validate(rp.overlay().base()).unwrap();
    }

    #[test]
    fn small_drift_stays_incremental_and_cheap() {
        let (mut rp, _) = IncrementalRepartitioner::new(grid_overlay(16, 16), small_cfg());
        let deltas = vec![
            GraphDelta::ShiftCoord {
                v: 10,
                dx: 0.1,
                dy: 0.0,
            },
            GraphDelta::SetVwgt { v: 40, w: 2.0 },
        ];
        let r = rp.step(&deltas).unwrap();
        assert_eq!(r.mode, StepMode::Incremental);
        assert!(r.dirty < rp.overlay().n() / 4);
        assert!(r.cut_after <= r.cut_before + 1e-9, "FM never worsens");
        rp.partition().validate(rp.overlay().base()).unwrap();
    }

    #[test]
    fn heavy_churn_falls_back_to_full() {
        let (mut rp, _) = IncrementalRepartitioner::new(grid_overlay(10, 10), small_cfg());
        // Touch vertices spread across the whole grid: the 2-hop closure
        // covers well over the threshold fraction.
        let deltas: Vec<GraphDelta> = (0..100)
            .step_by(4)
            .map(|v| GraphDelta::SetVwgt { v, w: 1.5 })
            .collect();
        let r = rp.step(&deltas).unwrap();
        assert_eq!(r.mode, StepMode::Full);
        assert_eq!(rp.overlay().patched_vertices(), 0, "full path rebases");
        rp.partition().validate(rp.overlay().base()).unwrap();
    }

    #[test]
    fn migration_volume_counts_side_changes() {
        let (mut rp, _) = IncrementalRepartitioner::new(grid_overlay(12, 12), small_cfg());
        let before = rp.partition().clone();
        let r = rp
            .step(&[GraphDelta::ShiftCoord {
                v: 70,
                dx: 0.3,
                dy: 0.3,
            }])
            .unwrap();
        let after = rp.partition();
        let changed = (0..before.len() as u32)
            .filter(|&v| before.side(v) != after.side(v))
            .count();
        assert_eq!(r.migration_volume, changed);
    }

    #[test]
    fn stream_is_deterministic_and_rebase_invariant() {
        let mk = || IncrementalRepartitioner::new(grid_overlay(14, 14), small_cfg()).0;
        let mut a = mk();
        let mut b = mk();
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..6 {
            let batch: Vec<GraphDelta> = (0..5)
                .map(|_| GraphDelta::ShiftCoord {
                    v: rng.random_range(0..196),
                    dx: rng.random_range(-0.2..0.2),
                    dy: rng.random_range(-0.2..0.2),
                })
                .collect();
            let ra = a.step(&batch).unwrap();
            let rb = b.step(&batch).unwrap();
            b.force_rebase(); // b compacts every step, a never
            assert_eq!(ra.partition_fp, rb.partition_fp, "step {step}");
            assert_eq!(ra.cut_after.to_bits(), rb.cut_after.to_bits());
            assert_eq!(ra.mode, rb.mode);
            assert_eq!(
                a.overlay().graph_fingerprint(),
                b.overlay().graph_fingerprint()
            );
        }
    }

    #[test]
    fn atomic_apply_rejects_bad_batch() {
        let (mut rp, _) = IncrementalRepartitioner::new(grid_overlay(6, 6), small_cfg());
        let fp = rp.overlay().graph_fingerprint();
        let bad = vec![
            GraphDelta::AddEdge {
                u: 0,
                v: 35,
                w: 1.0,
            }, // fine
            GraphDelta::RemoveEdge { u: 2, v: 30 }, // missing edge
        ];
        assert!(rp.apply(&bad).is_err());
        assert_eq!(rp.overlay().graph_fingerprint(), fp, "batch rolled back");
        assert_eq!(rp.pending_touched(), 0);
    }

    #[test]
    fn rejected_batch_rolls_back_exactly_whatever_the_error_and_wherever() {
        use GraphDelta::{AddEdge, RemoveEdge, SetVwgt, ShiftCoord};
        // Vertex 7 sits at x = 1e308 before every batch, so that shifting it
        // as far again is the one `BadCoord` that passes the old check.
        let far = ShiftCoord {
            v: 7,
            dx: 1e308,
            dy: 0.0,
        };
        // What the chain holds before the batch: nothing (every touch of
        // the batch is a first touch, weights still the base's), or lists,
        // a weight and a coordinate the batch goes on to touch again.
        let chains: [&[GraphDelta]; 2] = [
            &[far],
            &[
                far,
                RemoveEdge { u: 0, v: 1 },
                AddEdge {
                    u: 0,
                    v: 9,
                    w: 0.75,
                },
                SetVwgt { v: 20, w: 1.25 },
                ShiftCoord {
                    v: 3,
                    dx: 0.125,
                    dy: -0.375,
                },
            ],
        ];
        // Valid after either chain; the first four are one of each kind.
        let good = [
            AddEdge {
                u: 0,
                v: 10,
                w: 0.5,
            },
            ShiftCoord {
                v: 3,
                dx: 0.25,
                dy: 0.1,
            },
            SetVwgt { v: 20, w: 2.75 },
            RemoveEdge { u: 9, v: 10 },
            SetVwgt { v: 41, w: 0.5 },
            ShiftCoord {
                v: 50,
                dx: -0.3,
                dy: 0.7,
            },
            AddEdge {
                u: 30,
                v: 45,
                w: 1.5,
            },
            RemoveEdge { u: 1, v: 2 },
            RemoveEdge { u: 0, v: 10 },
        ];
        // Invalid in every state the good deltas pass through.
        let bad = [
            (
                SetVwgt { v: 64, w: 1.0 },
                DeltaError::VertexOutOfRange { v: 64, n: 64 },
            ),
            (
                AddEdge { u: 5, v: 5, w: 1.0 },
                DeltaError::SelfLoop { v: 5 },
            ),
            (
                AddEdge {
                    u: 62,
                    v: 63,
                    w: 1.0,
                },
                DeltaError::DuplicateEdge { u: 62, v: 63 },
            ),
            (
                RemoveEdge { u: 62, v: 0 },
                DeltaError::MissingEdge { u: 62, v: 0 },
            ),
            (SetVwgt { v: 2, w: -1.0 }, DeltaError::BadWeight { w: -1.0 }),
            (far, DeltaError::BadCoord),
        ];
        for chain in chains {
            for (bad, err) in &bad {
                for k in [0, good.len() / 2, good.len()] {
                    let case = format!("{err:?} at {k} after {} deltas", chain.len());
                    let (mut rp, _) =
                        IncrementalRepartitioner::new(grid_overlay(8, 8), small_cfg());
                    rp.apply(chain).unwrap();
                    let before = Image::of(rp.overlay());
                    let pending = rp.pending_touched();
                    let mut batch = good.to_vec();
                    batch.insert(k, *bad);
                    assert_eq!(rp.apply(&batch).as_ref(), Err(err), "{case}");
                    assert_eq!(Image::of(rp.overlay()), before, "{case}");
                    assert_eq!(rp.pending_touched(), pending, "{case}");

                    // Nothing stale is left to trip the same deltas up.
                    rp.apply(&good).unwrap();
                    let mut fresh = grid_overlay(8, 8);
                    for d in chain.iter().chain(&good) {
                        fresh.apply(d).unwrap();
                    }
                    let ov = rp.overlay();
                    assert_eq!(ov.graph_fingerprint(), fresh.graph_fingerprint(), "{case}");
                    assert_eq!(ov.input_fingerprint(), fresh.input_fingerprint(), "{case}");
                }
            }
        }
    }

    #[test]
    fn adopt_replays_a_computed_step_exactly() {
        // Two identical sessions; one computes a step, the other adopts
        // the first's resulting partition instead. Their states must be
        // indistinguishable afterwards — the serve cache-hit path.
        let mk = || IncrementalRepartitioner::new(grid_overlay(10, 10), small_cfg()).0;
        let mut computed = mk();
        let mut adopted = mk();
        let batch = [GraphDelta::ShiftCoord {
            v: 33,
            dx: 0.2,
            dy: 0.1,
        }];
        let r = computed.step(&batch).unwrap();
        adopted.apply(&batch).unwrap();
        adopted
            .adopt(computed.partition().sides().to_vec())
            .unwrap();
        assert_eq!(adopted.partition_fingerprint(), r.partition_fp);
        assert_eq!(adopted.steps(), computed.steps());
        assert_eq!(adopted.pending_touched(), 0);
        assert_eq!(adopted.cut().to_bits(), computed.cut().to_bits());
        assert!(adopted.adopt(vec![0; 3]).is_err(), "length checked");
        assert!(adopted.adopt(vec![2; 100]).is_err(), "sides checked");
    }

    #[test]
    fn report_json_and_obs_record() {
        let (mut rp, boot) = IncrementalRepartitioner::new(grid_overlay(8, 8), small_cfg());
        let j = boot.to_json();
        assert!(j.contains("\"sp-stream-step-v1\""), "{j}");
        assert!(j.contains("\"mode\": \"full\""), "{j}");
        let r = rp
            .step(&[GraphDelta::ShiftCoord {
                v: 1,
                dx: 0.1,
                dy: 0.0,
            }])
            .unwrap();
        let reg = Registry::new();
        boot.record(&reg);
        r.record(&reg);
        let text = sp_obs::prom::render(&reg);
        assert!(text.contains("sp_stream_repartitions_total 2"), "{text}");
        assert!(
            text.contains("sp_stream_full_repartitions_total 1"),
            "{text}"
        );
    }
}
