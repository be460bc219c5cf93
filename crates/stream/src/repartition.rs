//! Warm-start incremental repartitioning.
//!
//! ROADMAP item 3, and the workload the paper's conclusion motivates: a
//! deforming mesh streams updates; instead of re-partitioning from
//! scratch each step, the [`IncrementalRepartitioner`] keeps the previous
//! bisection, computes the *dirty region* (vertices within a fixed
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
//! An incremental step costs what its dirty region costs: FM scans the
//! region's edges once a pass to seed its gains, then only the edges of
//! the moves it makes before no later prefix can beat its best one (a
//! pass that keeps a few moves stops long before it has moved the whole
//! region). On top of that it pays O(n) work that reads no edge: FM's
//! side weights, its movable scan and its scratch; `imbalance_of`;
//! `partition_fp`; and one word per 64 vertices to find the cut's low
//! ends. The overlay is read at array speed, a
//! batch is made atomic by an undo log of its own length
//! ([`DeltaOverlay::apply_batch`]), and the region's mask is kept between
//! steps and cleared from the region's own list.
//!
//! The starting cut a step reports and hands to FM is summed over the
//! cut's *low ends*, a kept bitset: bit `v` is set iff `v` has a
//! neighbour `u > v` on the other side. Those are the only rows
//! [`access::cut_of`] adds a term from, so summing their cut edges in
//! ascending `v` and row order adds `cut_of`'s terms in `cut_of`'s order,
//! and the sum has its bits. Only the set is kept, never the cut's value:
//! that is summed again every step. A bit changes only when `v`'s row,
//! its side or a higher neighbour's side changes, so
//! [`IncrementalRepartitioner::apply`] re-derives the bits of the
//! vertices a batch touched (every changed edge has both ends touched),
//! an incremental step those of the vertices FM left on a new side and of
//! their lower neighbours, and a full step all of them in the one pass
//! that sums its final cut. The set is exact at every call boundary.

use crate::delta::{DeltaError, GraphDelta};
use crate::overlay::DeltaOverlay;
use sp_geopart::{parallel_geometric_partition, GeoConfig};
use sp_graph::access;
use sp_graph::distr::Distribution;
use sp_graph::Bisection;
use sp_machine::{CostModel, Machine};
use sp_refine::{fm_refine, strip_refine, STRIP_FACTOR, STRIP_FM};
use sp_trace::fnv::Fingerprint;
use std::time::Instant;

/// Controls for the incremental repartitioner. The refinement and try
/// policy are ScalaPart's own: [`STRIP_FM`] for every FM run, G7-NL and
/// [`STRIP_FACTOR`] for the geometric full step.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Simulated ranks charged for repartition work.
    pub ranks: usize,
    /// Master seed for the geometric fallback.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            ranks: 64,
            seed: 0x5CA_1A9_A87,
        }
    }
}

/// Dirty region = vertices within this many hops of a touched vertex.
const HOP_RADIUS: u32 = 2;

/// A step falls back to a full re-partition when the dirty fraction of the
/// vertex set exceeds this.
const FULL_THRESHOLD: f64 = 0.25;

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

/// Keeps a partition warm across a stream of graph deltas.
pub struct IncrementalRepartitioner {
    overlay: DeltaOverlay,
    side: Bisection,
    cfg: StreamConfig,
    /// The cut's low ends, exact for `(overlay, side)` at every call
    /// boundary.
    low: LowEnds,
    /// A mask over the vertices and the list it is cleared from. Between
    /// steps they hold the vertices touched since the last step, each once;
    /// a step grows them to its dirty region and clears them after, so a
    /// step pays for its region and not for `n`.
    mask: Vec<bool>,
    dirty: Vec<u32>,
    /// The sides of `dirty` before FM, in `dirty`'s order: what tells the
    /// step which vertices FM moved. Kept, so a step allocates nothing once
    /// the stream's regions have been seen.
    sides_before: Vec<u8>,
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
            low: LowEnds::new(n),
            mask: vec![false; n],
            dirty: Vec::new(),
            sides_before: Vec::new(),
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

    /// Current weighted cut, summed over the cut's low ends with the bits
    /// of [`access::cut_of`].
    pub fn cut(&self) -> f64 {
        self.low.cut(&self.overlay, &self.side)
    }

    /// Current weighted imbalance.
    pub fn imbalance(&self) -> f64 {
        access::imbalance_of(&self.overlay, &self.side)
    }

    /// Deltas applied but not yet repartitioned over.
    pub fn pending_touched(&self) -> usize {
        self.dirty.len()
    }

    /// Repartition steps executed (including the bootstrap).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Fold the overlay's chain into its base now (pure representation
    /// change; exposed so tests can interleave compaction arbitrarily).
    pub fn force_rebase(&mut self) {
        self.overlay.rebase();
    }

    /// Apply a batch of deltas atomically: either every delta applies (in
    /// order) or the overlay is left untouched and the first error is
    /// returned. Touched vertices accumulate until the next repartition,
    /// and their low-end bits are re-derived.
    pub fn apply(&mut self, batch: &[GraphDelta]) -> Result<(), DeltaError> {
        self.overlay.apply_batch(batch)?;
        for d in batch {
            let (a, b) = d.touches();
            for v in std::iter::once(a).chain(b) {
                self.low.refresh(&self.overlay, &self.side, v);
                if !self.mask[v as usize] {
                    self.mask[v as usize] = true;
                    self.dirty.push(v);
                }
            }
        }
        Ok(())
    }

    /// Repartition over everything applied since the last step.
    pub fn repartition(&mut self) -> StepReport {
        let n = self.overlay.n();
        let touched = self.dirty.len();
        self.mark_dirty();
        let dirty = self.dirty.len();
        let dirty_frac = if n == 0 { 0.0 } else { dirty as f64 / n as f64 };
        let step = self.steps;
        self.steps += 1;

        let report = if dirty_frac > FULL_THRESHOLD {
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

    /// Grow the touched vertices in `dirty` to their closure within
    /// [`HOP_RADIUS`] hops, one BFS level per hop; the list is the queue.
    fn mark_dirty(&mut self) {
        let mut level = 0..self.dirty.len();
        for _ in 0..HOP_RADIUS {
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
        let cut = self.cut();
        self.sides_before.clear();
        self.sides_before
            .extend(self.dirty.iter().map(|&v| self.side.side(v)));
        let st = fm_refine(
            &self.overlay,
            &mut self.side,
            Some(&self.mask),
            cut,
            &STRIP_FM,
        );
        st.charge(&mut machine);
        // FM moves only dirty vertices. A move changes the mover's bit and
        // those of its lower neighbours, whose rows reach up to it.
        for (&v, &was) in self.dirty.iter().zip(&self.sides_before) {
            if self.side.side(v) != was {
                self.low.refresh(&self.overlay, &self.side, v);
                for (u, _) in self.overlay.neighbors_w(v) {
                    if u < v {
                        self.low.refresh(&self.overlay, &self.side, u);
                    }
                }
            }
        }
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
        let cut_before = self.cut();
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
                    &GeoConfig::g7_nl(),
                    self.cfg.seed ^ 0x9E0,
                );
                let mut bi = geo.bisection;
                passes = strip_refine(
                    &g,
                    &mut bi,
                    &geo.separator.signed,
                    (geo.cut, geo.weighted_cut),
                    STRIP_FACTOR,
                    &STRIP_FM,
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
                let mut cut = cut_before;
                if c0 == 0 || c1 == 0 {
                    let total: f64 = (0..g.n() as u32).map(|v| g.vwgt(v)).sum();
                    let mut acc = 0.0;
                    for v in 0..g.n() as u32 {
                        acc += g.vwgt(v);
                        bi.set(v, u8::from(acc > total / 2.0));
                    }
                    cut = access::cut_of(&*g, &bi);
                }
                let st = fm_refine(&*g, &mut bi, None, cut, &STRIP_FM);
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
        let cut_after = self.low.rebuild(&self.overlay, &self.side);
        StepReport {
            step,
            mode: StepMode::Full,
            touched,
            dirty,
            dirty_frac: dirty as f64 / self.overlay.n().max(1) as f64,
            cut_before,
            cut_after,
            migration_volume,
            imbalance: access::imbalance_of(&self.overlay, &self.side),
            fm_passes: passes,
            sim_time: machine.elapsed(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            partition_fp: partition_fp(&self.side),
        }
    }
}

/// The cut's low ends: bit `v` is set iff `v` has a neighbour `u > v` on
/// the other side. Flags, not weights: the cut is summed from them anew.
struct LowEnds(Vec<u64>);

impl LowEnds {
    /// The empty set, exact for a one-sided partition.
    fn new(n: usize) -> Self {
        LowEnds(vec![0; n.div_ceil(64)])
    }

    /// Re-derive `v`'s bit from its row.
    fn refresh(&mut self, g: &DeltaOverlay, side: &Bisection, v: u32) {
        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
        if add_row(g, side, v, &mut 0.0) {
            self.0[word] |= bit;
        } else {
            self.0[word] &= !bit;
        }
    }

    /// Re-derive every bit, returning the cut summed on the way.
    fn rebuild(&mut self, g: &DeltaOverlay, side: &Bisection) -> f64 {
        self.0.fill(0);
        let mut c = 0.0;
        for v in 0..g.n() as u32 {
            if add_row(g, side, v, &mut c) {
                self.0[v as usize / 64] |= 1u64 << (v % 64);
            }
        }
        c
    }

    /// The weighted cut, summed over the set in ascending `v`.
    fn cut(&self, g: &DeltaOverlay, side: &Bisection) -> f64 {
        let mut c = 0.0;
        for (i, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = (i * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                add_row(g, side, v, &mut c);
            }
        }
        c
    }
}

/// Add `v`'s terms of the cut to `c` — its cut edges to higher
/// neighbours, in row order, as [`access::cut_of`] adds them — and say
/// whether it had any.
fn add_row(g: &DeltaOverlay, side: &Bisection, v: u32, c: &mut f64) -> bool {
    let sv = side.side(v);
    let mut any = false;
    for (u, w) in g.neighbors_w(v) {
        if u > v && side.side(u) != sv {
            *c += w;
            any = true;
        }
    }
    any
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
    use sp_graph::GraphBuilder;
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

    /// The low-end set and the cut summed over it against a recount from
    /// `(overlay, side)`: every bit, the padding clear, the cut's bits.
    fn assert_low_exact(rp: &IncrementalRepartitioner, case: &str) {
        let (ov, side) = (&rp.overlay, &rp.side);
        for v in 0..rp.low.0.len() as u32 * 64 {
            let want = (v as usize) < ov.n()
                && ov
                    .neighbors_w(v)
                    .any(|(u, _)| u > v && side.side(u) != side.side(v));
            let got = rp.low.0[v as usize / 64] >> (v % 64) & 1 == 1;
            assert_eq!(got, want, "{case}: bit of vertex {v}");
        }
        let recount = access::cut_of(ov, side);
        assert_eq!(rp.cut().to_bits(), recount.to_bits(), "{case}: cut");
    }

    /// A valid delta of any kind but a shift (so streams without
    /// coordinates draw the same mix), with fractional weights.
    fn random_delta(ov: &DeltaOverlay, rng: &mut StdRng) -> GraphDelta {
        let n = ov.n() as u32;
        loop {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            let adjacent = ov.neighbors_w(a).any(|(x, _)| x == b);
            match rng.random_range(0..3) {
                0 if a != b && !adjacent => {
                    let w = rng.random_range(0.25..2.0);
                    return GraphDelta::AddEdge { u: a, v: b, w };
                }
                1 if adjacent && ov.degree(a) > 1 && ov.degree(b) > 1 => {
                    return GraphDelta::RemoveEdge { u: a, v: b }
                }
                2 => {
                    let w = rng.random_range(0.5..2.0);
                    return GraphDelta::SetVwgt { v: a, w };
                }
                _ => {}
            }
        }
    }

    #[test]
    fn low_ends_match_a_recount_after_every_call() {
        let (mut incremental, mut full, mut moved) = (0, 0, 0);
        for seed in 0..12u64 {
            let coords = seed % 2 == 0;
            let ov = if coords {
                grid_overlay(14, 14)
            } else {
                DeltaOverlay::new(Arc::new(grid_2d(14, 14)), None).unwrap()
            };
            let (mut rp, _) = IncrementalRepartitioner::new(ov, small_cfg());
            assert_low_exact(&rp, &format!("seed {seed} bootstrap"));
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..16 {
                let case = format!("seed {seed} step {step}");
                // Mostly a few deltas; one batch in five dirties more
                // than the fallback threshold.
                let size = if rng.random_range(0..5) == 0 {
                    40
                } else {
                    rng.random_range(1..4)
                };
                // Drawn against a scratch copy, so the batch is valid as a
                // whole, in order.
                let mut probe = DeltaOverlay::new(Arc::new(rp.overlay.compact()), None).unwrap();
                let batch: Vec<GraphDelta> = (0..size)
                    .map(|_| {
                        let d = random_delta(&probe, &mut rng);
                        probe.apply(&d).unwrap();
                        d
                    })
                    .collect();
                if rng.random_range(0..3) == 0 {
                    let mut refused = batch.clone();
                    refused.push(GraphDelta::SetVwgt { v: 196, w: 1.0 });
                    assert!(rp.apply(&refused).is_err(), "{case}");
                    assert_low_exact(&rp, &format!("{case} after a refused batch"));
                }
                rp.apply(&batch).unwrap();
                assert_low_exact(&rp, &format!("{case} after apply"));
                if rng.random_range(0..4) == 0 {
                    rp.force_rebase();
                }
                let r = rp.repartition();
                assert_low_exact(&rp, &case);
                match r.mode {
                    StepMode::Incremental => {
                        incremental += 1;
                        moved += r.migration_volume;
                    }
                    StepMode::Full => full += 1,
                }
            }
        }
        assert!(
            incremental > 0 && full > 0,
            "{incremental} incremental, {full} full"
        );
        assert!(moved > 0, "no incremental step moved a vertex");
    }

    #[test]
    fn a_move_refreshes_a_lower_neighbour_outside_the_dirty_region() {
        // A path 0 - 1 - ... - 39, sides 0..=20 | 21..=39, and a light edge
        // (19, 20): moving 20 across trades the cut edge (20, 21) for
        // (19, 20) and evens the sides, so FM makes that move. Touching 22
        // dirties 20..=24 only, so 19 lies outside the region, and its bit
        // goes from clear to set.
        let n = 40;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(v - 1, v, if v == 20 { 0.5 } else { 1.0 });
        }
        let ov = DeltaOverlay::new(Arc::new(b.build()), None).unwrap();
        let (mut rp, _) = IncrementalRepartitioner::new(ov, small_cfg());
        rp.side = Bisection::from_fn(n, |v| v > 20);
        rp.low.rebuild(&rp.overlay, &rp.side);
        assert_low_exact(&rp, "before");
        let r = rp.step(&[GraphDelta::SetVwgt { v: 22, w: 1.0 }]).unwrap();
        assert_eq!((r.mode, r.dirty), (StepMode::Incremental, 5));
        assert_eq!(rp.side.side(20), 1, "FM moved vertex 20");
        assert_eq!(rp.side.side(19), 0);
        assert_eq!(r.cut_after, 0.5);
        assert_low_exact(&rp, "after");
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
        assert!(rp.imbalance() <= STRIP_FM.balance_tol + 1e-9);
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
}
