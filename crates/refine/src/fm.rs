//! Fiduccia–Mattheyses bisection refinement.
//!
//! Classic FM with per-pass rollback: repeatedly move the best-gain
//! unlocked vertex (respecting a balance tolerance), remember the best
//! prefix of the move sequence, and roll back to it. A `movable` mask
//! restricts refinement to a subset — the strip/band refinement of the
//! paper moves only vertices near the geometric separator, which keeps the
//! cost "negligible" (a small multiple of the separator size).
//!
//! Gains are floating point (coarse graphs have real-valued edge weights),
//! so the bucket list of the original FM is replaced by an addressable
//! max-heap, `GainQueue`: one entry per queued vertex, its position kept
//! per vertex, a gain change sifted in place. Same asymptotics up to a log
//! factor, no integer-weight restriction.
//!
//! # Why the moves are those of the stamped lazy heap it replaced
//!
//! Until the addressable queue, every gain change pushed a new
//! `(gain, v, stamp)` entry onto a `BinaryHeap` and a pop skipped entries
//! whose stamp was old or whose vertex was locked. That heap is kept as
//! the oracle of the tests below, and the queue pops what it popped:
//!
//! * **Its fresh entries are the queue.** At every pop, the lazy heap held
//!   exactly one fresh entry per unlocked movable vertex, carrying that
//!   vertex's current gain: it was cleared and its stamps reset each pass,
//!   every gain change bumped the stamp, and a deferred entry went back
//!   unchanged. Stale and locked pops changed nothing, and the streak of
//!   more than 64 infeasible pops counted fresh entries only. The queue
//!   holds exactly those vertices with exactly those gains.
//! * **The key set fixes the pop sequence.** The key is the lazy heap's
//!   order: gain by `partial_cmp` (`Equal` when incomparable), then the
//!   smaller id first. Ids are distinct, so for gains that are not NaN the
//!   key is a strict total order, and any max-heap holding a set of keys
//!   pops them in one sequence, however it was built.
//! * **`ops` counts edges scanned, not heap work,** so the choice of queue
//!   shows in neither `FmStats`, [`FmStats::charge`] nor the simulated
//!   time.
//!
//! # Why a pass may stop early
//!
//! A pass keeps one more running sum, `fixed`: the weight of the cut edges
//! with no endpoint still queued. Once `fixed` exceeds the pass's best cut
//! by more than the rounding slack, the pass stops and rolls back to its
//! best prefix, which is the prefix a whole pass would have kept:
//!
//! 1. A move flips only the vertex it pops, so an edge with no queued end
//!    keeps its side pair for the rest of the pass: counted in `fixed`, it
//!    stays cut.
//! 2. So every later prefix cuts at least `fixed`, and its trial cut is
//!    above the best cut: no later prefix passes `trial < best − 1e-12`.
//! 3. The best prefix and the best cut are then final, and so are the
//!    sides, `moved`, `passes` and `cut_after`, bit for bit.
//!
//! Only `ops` falls: it counts the edges the pass did scan. The rollback
//! restores the side weights saved at the best prefix instead of undoing
//! each later move, so they do not depend on where the pass stopped; for
//! vertex weights whose sums are exact (integers, the streams' quarter
//! steps) that is the undo's result to the bit.

use sp_graph::access::{self, GraphAccess};
use sp_graph::Bisection;
use sp_machine::Machine;
use std::cmp::Ordering;

/// Controls for FM refinement.
#[derive(Clone, Copy, Debug)]
pub struct FmConfig {
    /// Maximum improvement passes.
    pub max_passes: usize,
    /// Allowed weighted imbalance (`max_side / (total/2) − 1`).
    pub balance_tol: f64,
    /// Cap on moves per pass as a multiple of the movable-set size
    /// (1.0 = classic full pass).
    pub move_fraction: f64,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            max_passes: 4,
            balance_tol: 0.05,
            move_fraction: 1.0,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FmStats {
    /// Weighted cut before refinement.
    pub cut_before: f64,
    /// Weighted cut after refinement.
    pub cut_after: f64,
    /// Vertices moved (net, after rollback) across all passes.
    pub moved: usize,
    /// Passes executed.
    pub passes: usize,
    /// Abstract ops for machine cost charging: the edges FM scanned, to
    /// seed each pass's gains and to update them after each move. A pass
    /// that stops early scans no edge of the moves it did not make.
    pub ops: f64,
}

impl FmStats {
    /// Charge the run to `machine`: the movable set is distributed, so the
    /// edge scans split evenly over the ranks, plus one 2-word consensus
    /// allreduce a pass — "negligible" per the paper, and it is.
    pub fn charge(&self, machine: &mut Machine) {
        let p = machine.p();
        let mut states: Vec<()> = vec![(); p];
        let ops = self.ops / p as f64;
        machine.compute(&mut states, |_, _| ops);
        for _ in 0..self.passes {
            machine.allreduce_sum(2);
        }
    }
}

/// `pos` of a vertex that is not queued.
const NONE: u32 = u32::MAX;

/// The movable vertices of a pass in an addressable binary max-heap,
/// highest gain first, the smaller id first among equal gains. Per vertex
/// it holds a gain and a heap position; a vertex's gain stops changing
/// when it leaves the queue.
struct GainQueue {
    gain: Vec<f64>,
    /// `pos[v]` = index of `v` in `heap`, [`NONE`] if `v` is not queued: a
    /// vertex moved this pass has left, an immovable one never entered.
    pos: Vec<u32>,
    heap: Vec<u32>,
    /// Infeasible vertices held out of the heap during one pop.
    deferred: Vec<u32>,
}

impl GainQueue {
    fn new(n: usize, capacity: usize) -> Self {
        GainQueue {
            gain: vec![0.0; n],
            pos: vec![NONE; n],
            heap: Vec::with_capacity(capacity),
            deferred: Vec::with_capacity(65),
        }
    }

    /// Empty the queue, then queue `verts` with the gains `gain_of` gives,
    /// taken in the order of `verts`; the heap is built bottom-up.
    fn seed(&mut self, verts: &[u32], mut gain_of: impl FnMut(u32) -> f64) {
        for &v in &self.heap {
            self.pos[v as usize] = NONE;
        }
        self.heap.clear();
        for &v in verts {
            self.gain[v as usize] = gain_of(v);
            self.pos[v as usize] = self.heap.len() as u32;
            self.heap.push(v);
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    fn gain(&self, v: u32) -> f64 {
        self.gain[v as usize]
    }

    fn queued(&self, v: u32) -> bool {
        self.pos[v as usize] != NONE
    }

    /// Add `delta` to the gain of `v` if it is queued, and restore the
    /// heap: a gain that rose can only climb, one that fell only sink.
    /// Returns whether `v` was queued.
    fn add(&mut self, v: u32, delta: f64) -> bool {
        let i = self.pos[v as usize];
        if i == NONE {
            return false;
        }
        self.gain[v as usize] += delta;
        if delta > 0.0 {
            self.sift_up(i as usize);
        } else {
            self.sift_down(i as usize);
        }
        true
    }

    /// Pop the best vertex `feasible` accepts. The infeasible vertices
    /// popped on the way are put back; after more than 64 of them the pop
    /// gives up and returns `None`, as it does on an empty queue.
    fn pop_feasible(&mut self, feasible: impl Fn(u32) -> bool) -> Option<u32> {
        let mut found = None;
        while let Some(v) = self.pop() {
            if feasible(v) {
                found = Some(v);
                break;
            }
            self.deferred.push(v);
            if self.deferred.len() > 64 {
                break; // deep infeasible streak: give up this pop
            }
        }
        while let Some(v) = self.deferred.pop() {
            self.push(v);
        }
        found
    }

    /// Whether `a` pops before `b`: the lazy heap's entry order.
    fn above(&self, a: u32, b: u32) -> bool {
        match self.gain[a as usize].partial_cmp(&self.gain[b as usize]) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Less) => false,
            _ => a < b,
        }
    }

    fn place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn push(&mut self, v: u32) {
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop()?;
        self.pos[top as usize] = NONE;
        if !self.heap.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.above(v, p) {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.above(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.above(c, v) {
                break;
            }
            self.place(i, c);
            i = child;
        }
        self.place(i, v);
    }
}

/// The rounding slack of a pass's stop test, `fixed > best + slack`, for
/// a pass whose seed scanned `edges` edges of total weight `reach` from a
/// cut of `cur`.
///
/// `trial` and `fixed` both start from `cur`, and their exact values are
/// `cur` plus the pass's change in cut and `cur` plus the fixed weight
/// less the starting cut: `cur`'s own rounding cancels in the stop test.
/// Each is a float sum of at most `2E + 1` terms whose magnitudes add up
/// to at most `|cur| + 2D` (`E` = `edges`, `D` = `reach`). `trial` sums
/// `cur`, the seeded gain terms of the moved vertices and the `±2w` gain
/// updates (one per edge at most); `fixed` sums `cur`, the cut edges with
/// a movable end and the edges each move fixes (each edge once). A float
/// sum of `k` terms, in any order or nesting, is off by at most
/// `γ(k) · Σ|terms|`, `γ(k) ≤ k·ε` for `k·ε ≤ 1` (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §4.2), so the two errors add up to
/// at most `(4E + 2)·ε·(|cur| + 2D) ≤ 8(E + 1)·ε·(|cur| + D)`. Twice that
/// covers the rounding of `reach` and of `best + slack` too. When every
/// partial sum is exact (integer or dyadic weights) the errors are zero,
/// and a slack below one weight step stops where `fixed > best` would.
fn stop_slack(edges: f64, cur: f64, reach: f64) -> f64 {
    16.0 * (edges + 1.0) * f64::EPSILON * (cur.abs() + reach)
}

/// Refine `bi` in place. `movable` restricts which vertices may move
/// (`None` = all). Guarantees the weighted cut never increases and the
/// final imbalance is at most `max(initial imbalance, cfg.balance_tol)`.
///
/// `cut` is `bi`'s weighted cut on entry, summed exactly as
/// [`access::cut_of`] sums it: from 0.0, in ascending `v`, each row in
/// its order, an edge counted at its end `v` with `u > v`. FM does not
/// count it again; a caller that walks the boundary anyway sums it there
/// in that order, which gives the same bits. Debug builds assert them.
///
/// `g` is any [`GraphAccess`] store. Because gains accumulate in the
/// store's neighbour-iteration order, two stores presenting the same
/// logical graph in the same order (e.g. a delta overlay and its
/// compacted CSR) refine bit-identically.
///
/// A call costs O(n) once (side weights, the movable list, the scratch
/// arrays) and reads no edge outside its passes. A pass scans the edges of
/// its movable vertices once to seed their gains, then the edges of each
/// vertex it moves, and stops as soon as the cut edges it can no longer
/// touch outweigh its best prefix (see the module doc): a pass that keeps
/// a few moves in a strip of a few thousand vertices scans the strip once
/// and little beyond it.
pub fn fm_refine<G: GraphAccess>(
    g: &G,
    bi: &mut Bisection,
    movable: Option<&[bool]>,
    cut: f64,
    cfg: &FmConfig,
) -> FmStats {
    debug_assert_eq!(cut.to_bits(), access::cut_of(g, bi).to_bits());
    let n = g.n();
    let mut stats = FmStats {
        cut_before: cut,
        cut_after: 0.0,
        ..Default::default()
    };
    if n < 2 {
        stats.cut_after = stats.cut_before;
        return stats;
    }
    let total_w = g.total_vwgt();
    let half = total_w / 2.0;
    let is_movable = |v: u32| movable.is_none_or(|m| m[v as usize]);
    // Ascending ids: the order gains are seeded in.
    let movable_list: Vec<u32> = (0..n as u32).filter(|&v| is_movable(v)).collect();
    let move_cap = ((movable_list.len() as f64 * cfg.move_fraction) as usize).max(1);

    let mut cur_cut = stats.cut_before;
    let (mut w0, mut w1) = access::weights_of(g, bi);
    let init_imb = w0.max(w1) / half - 1.0;
    let allowed_imb = cfg.balance_tol.max(init_imb);

    // Scratch for every pass, sized once. Only movable vertices are ever
    // given a gain or a heap position.
    let mut queue = GainQueue::new(n, movable_list.len());
    // Moves in order, for the rollback.
    let mut log: Vec<u32> = Vec::new();

    for pass in 0..cfg.max_passes {
        stats.passes = pass + 1;
        log.clear();
        // Gains, the weight of the cut edges with a movable end (each
        // counted at its first movable end) and of the edges scanned.
        let seeded_from = stats.ops;
        let (mut touching, mut reach) = (0.0, 0.0);
        queue.seed(&movable_list, |v| {
            let sv = bi.side(v);
            let mut gv = 0.0;
            for (u, w) in g.neighbors_w(v) {
                if bi.side(u) == sv {
                    gv -= w;
                } else {
                    gv += w;
                    if u > v || !is_movable(u) {
                        touching += w;
                    }
                }
                reach += w;
                stats.ops += 1.0;
            }
            gv
        });
        // Cut edges with no queued end: they stay cut all pass.
        let mut fixed = cur_cut - touching;
        let slack = stop_slack(stats.ops - seeded_from, cur_cut, reach);
        let mut best_prefix = 0usize;
        let mut best_cut = cur_cut;
        let mut trial_cut = cur_cut;
        let (mut tw0, mut tw1) = (w0, w1);
        let (mut best_w0, mut best_w1) = (w0, w1);

        while log.len() < move_cap {
            // Pop the best unmoved, balance-feasible vertex.
            let cur_imb = tw0.max(tw1) / half - 1.0;
            let Some(v) = queue.pop_feasible(|v| {
                // Balance feasibility of moving v off its side.
                let wv = g.vwgt(v);
                let (nw0, nw1) = if bi.side(v) == 0 {
                    (tw0 - wv, tw1 + wv)
                } else {
                    (tw0 + wv, tw1 - wv)
                };
                let imb = nw0.max(nw1) / half - 1.0;
                // Always allow moves that reduce imbalance; otherwise
                // require the tolerance to hold after the move.
                imb <= allowed_imb + 1e-12 || imb < cur_imb - 1e-12
            }) else {
                break;
            };
            let sv = bi.side(v);
            let wv = g.vwgt(v);
            trial_cut -= queue.gain(v);
            if sv == 0 {
                tw0 -= wv;
                tw1 += wv;
            } else {
                tw1 -= wv;
                tw0 += wv;
            }
            bi.flip(v);
            log.push(v);
            let imb_ok = tw0.max(tw1) / half - 1.0 <= allowed_imb + 1e-12;
            if imb_ok && trial_cut < best_cut - 1e-12 {
                best_cut = trial_cut;
                best_prefix = log.len();
                (best_w0, best_w1) = (tw0, tw1);
            }
            // Update neighbour gains; an edge v leaves cut to an unqueued
            // end is fixed.
            let new_side = bi.side(v);
            for (u, w) in g.neighbors_w(v) {
                stats.ops += 1.0;
                // v changed sides: edges to u flip their contribution.
                let cut_now = bi.side(u) != new_side;
                let delta = if cut_now { 2.0 * w } else { -2.0 * w };
                if !queue.add(u, delta) && cut_now {
                    fixed += w;
                }
            }
            if fixed > best_cut + slack {
                debug_assert_fixed(g, bi, &queue, fixed - trial_cut, slack);
                break;
            }
        }
        // Roll back to the best prefix.
        for &v in &log[best_prefix..] {
            bi.flip(v);
        }
        stats.moved += best_prefix;
        let improved = best_cut < cur_cut - 1e-12;
        cur_cut = best_cut;
        (w0, w1) = (best_w0, best_w1);
        if !improved {
            break;
        }
    }
    stats.cut_after = cur_cut;
    stats
}

/// Debug builds: recount, at a pass's stop, the weight of the cut edges
/// with no queued end, less the whole cut, and hold `fixed − trial` to it.
/// Both differences leave out the pass's starting cut and its rounding.
fn debug_assert_fixed<G: GraphAccess>(
    g: &G,
    bi: &Bisection,
    queue: &GainQueue,
    fixed_less_trial: f64,
    slack: f64,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    let (mut fixed, mut cut, mut edges) = (0.0, 0.0, 0.0);
    for v in 0..g.n() as u32 {
        for (u, w) in g.neighbors_w(v) {
            if u > v && bi.side(u) != bi.side(v) {
                cut += w;
                if !queue.queued(u) && !queue.queued(v) {
                    fixed += w;
                }
                edges += 1.0;
            }
        }
    }
    let tol = slack + 4.0 * edges * f64::EPSILON * cut;
    assert!(
        (fixed_less_trial - (fixed - cut)).abs() <= tol,
        "fixed less trial {fixed_less_trial}, recounted {fixed} - {cut}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sp_graph::gen::grid_2d;
    use sp_graph::Graph;
    use std::collections::BinaryHeap;

    fn noisy_split(g: &Graph, flip_prob: f64, seed: u64) -> Bisection {
        // A vertical split with random noise.
        let side = (g.n() as f64).sqrt() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let sides: Vec<u8> = (0..g.n())
            .map(|v| {
                let base = (v % side) >= side / 2;
                let flip = rng.random_range(0.0..1.0) < flip_prob;
                u8::from(base != flip)
            })
            .collect();
        Bisection::new(sides)
    }

    /// An entry of the stamped lazy heap [`GainQueue`] replaced: every gain
    /// change pushed a new entry, and a pop skipped entries whose stamp was
    /// old or whose vertex was locked.
    #[derive(PartialEq)]
    struct HeapEntry {
        gain: f64,
        v: u32,
        stamp: u32,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.gain
                .partial_cmp(&other.gain)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.v.cmp(&self.v))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// What oracle runs went through, so that a regime can show it was
    /// reached.
    #[derive(Default)]
    struct Exercised {
        /// Pops that gave up after more than 64 infeasible entries in a row.
        cutoffs: usize,
        /// Passes that stopped at the move cap.
        capped: usize,
        /// Moves whose gain another queued vertex shared: the id decided.
        ties: usize,
        /// Runs without a mask that stopped after one pass.
        one_pass_unmasked: usize,
        /// The highest climb of a trial cut above the pass's best cut
        /// before a later prefix beat that best.
        ridge: f64,
        /// Runs in which [`fm_refine`] scanned fewer edges: a pass stopped
        /// before the oracle's.
        stopped_early: usize,
    }

    #[allow(clippy::too_many_arguments)]
    fn pop_feasible<G: GraphAccess>(
        heap: &mut BinaryHeap<HeapEntry>,
        stamp: &[u32],
        locked: &[bool],
        bi: &Bisection,
        g: &G,
        w0: f64,
        w1: f64,
        half: f64,
        allowed_imb: f64,
        ex: &mut Exercised,
    ) -> Option<u32> {
        let mut deferred: Vec<HeapEntry> = Vec::new();
        let mut found = None;
        while let Some(e) = heap.pop() {
            if e.stamp != stamp[e.v as usize] || locked[e.v as usize] {
                continue; // stale or locked
            }
            // Balance feasibility of moving v off its side.
            let wv = g.vwgt(e.v);
            let (nw0, nw1) = if bi.side(e.v) == 0 {
                (w0 - wv, w1 + wv)
            } else {
                (w0 + wv, w1 - wv)
            };
            let imb = nw0.max(nw1) / half - 1.0;
            // Always allow moves that reduce imbalance; otherwise require
            // the tolerance to hold after the move.
            let cur_imb = w0.max(w1) / half - 1.0;
            if imb <= allowed_imb + 1e-12 || imb < cur_imb - 1e-12 {
                found = Some(e.v);
                break;
            }
            deferred.push(e);
            if deferred.len() > 64 {
                ex.cutoffs += 1;
                break; // deep infeasible streak: give up this pop
            }
        }
        for e in deferred {
            heap.push(e);
        }
        found
    }

    /// [`fm_refine`] on the stamped lazy heap, with `gain`, `stamp`,
    /// `locked` and the heap allocated afresh by every pass, which then
    /// scans all n vertices for the movable ones. Every pass runs whole:
    /// until its move cap, an empty heap or a pop that gives up.
    fn fm_refine_allocating_per_pass<G: GraphAccess>(
        g: &G,
        bi: &mut Bisection,
        movable: Option<&[bool]>,
        cfg: &FmConfig,
        ex: &mut Exercised,
    ) -> FmStats {
        let n = g.n();
        let mut stats = FmStats {
            cut_before: access::cut_of(g, bi),
            cut_after: 0.0,
            ..Default::default()
        };
        if n < 2 {
            stats.cut_after = stats.cut_before;
            return stats;
        }
        let total_w = g.total_vwgt();
        let half = total_w / 2.0;
        let movable_count = movable.map_or(n, |m| m.iter().filter(|&&b| b).count());
        let move_cap = ((movable_count as f64 * cfg.move_fraction) as usize).max(1);
        let is_movable = |v: u32| movable.is_none_or(|m| m[v as usize]);

        let mut cur_cut = stats.cut_before;
        let (mut w0, mut w1) = access::weights_of(g, bi);
        let init_imb = w0.max(w1) / half - 1.0;
        let allowed_imb = cfg.balance_tol.max(init_imb);

        for pass in 0..cfg.max_passes {
            stats.passes = pass + 1;
            // Gains.
            let mut gain = vec![0.0f64; n];
            let mut stamp = vec![0u32; n];
            let mut heap = BinaryHeap::with_capacity(movable_count);
            for v in 0..n as u32 {
                if !is_movable(v) {
                    continue;
                }
                let sv = bi.side(v);
                let mut gv = 0.0;
                for (u, w) in g.neighbors_w(v) {
                    if bi.side(u) == sv {
                        gv -= w;
                    } else {
                        gv += w;
                    }
                    stats.ops += 1.0;
                }
                gain[v as usize] = gv;
                heap.push(HeapEntry {
                    gain: gv,
                    v,
                    stamp: 0,
                });
            }
            let mut locked = vec![false; n];
            // Moves in order, for the rollback.
            let mut log: Vec<u32> = Vec::new();
            let mut best_prefix = 0usize;
            let mut best_cut = cur_cut;
            let mut trial_cut = cur_cut;
            let (mut tw0, mut tw1) = (w0, w1);
            let (mut best_w0, mut best_w1) = (w0, w1);
            // The highest trial cut since the best prefix.
            let mut peak = cur_cut;

            while log.len() < move_cap {
                // Pop the best fresh, unlocked, balance-feasible vertex.
                let Some(v) = pop_feasible(
                    &mut heap,
                    &stamp,
                    &locked,
                    bi,
                    g,
                    tw0,
                    tw1,
                    half,
                    allowed_imb,
                    ex,
                ) else {
                    break;
                };
                let gv = gain[v as usize];
                if heap.iter().any(|e| {
                    e.v != v
                        && e.stamp == stamp[e.v as usize]
                        && !locked[e.v as usize]
                        && e.gain == gv
                }) {
                    ex.ties += 1;
                }
                let sv = bi.side(v);
                let wv = g.vwgt(v);
                trial_cut -= gv;
                if sv == 0 {
                    tw0 -= wv;
                    tw1 += wv;
                } else {
                    tw1 -= wv;
                    tw0 += wv;
                }
                bi.flip(v);
                locked[v as usize] = true;
                let imb_ok = tw0.max(tw1) / half - 1.0 <= allowed_imb + 1e-12;
                log.push(v);
                if imb_ok && trial_cut < best_cut - 1e-12 {
                    ex.ridge = ex.ridge.max(peak - best_cut);
                    best_cut = trial_cut;
                    best_prefix = log.len();
                    (best_w0, best_w1) = (tw0, tw1);
                    peak = trial_cut;
                }
                peak = peak.max(trial_cut);
                // Update neighbour gains.
                let new_side = bi.side(v);
                for (u, w) in g.neighbors_w(v) {
                    stats.ops += 1.0;
                    if locked[u as usize] || !is_movable(u) {
                        continue;
                    }
                    // v changed sides: edges to u flip their contribution.
                    let delta = if bi.side(u) == new_side {
                        -2.0 * w
                    } else {
                        2.0 * w
                    };
                    gain[u as usize] += delta;
                    stamp[u as usize] += 1;
                    heap.push(HeapEntry {
                        gain: gain[u as usize],
                        v: u,
                        stamp: stamp[u as usize],
                    });
                }
            }
            if log.len() == move_cap {
                ex.capped += 1;
            }
            // Roll back to the best prefix and its side weights.
            for &v in log.iter().skip(best_prefix).rev() {
                bi.flip(v);
            }
            stats.moved += best_prefix;
            let improved = best_cut < cur_cut - 1e-12;
            cur_cut = best_cut;
            (w0, w1) = (best_w0, best_w1);
            if !improved {
                break;
            }
        }
        stats.cut_after = cur_cut;
        stats
    }

    /// Both versions on copies of `start` under `cfg`, without a mask and
    /// under one random mask: same sides, same stats to the bit, except
    /// that [`fm_refine`] may scan fewer edges. What the oracle went
    /// through is added to `ex`.
    fn assert_same_refinement<G: GraphAccess>(
        g: &G,
        start: &Bisection,
        rng: &mut StdRng,
        cfg: &FmConfig,
        at: &str,
        ex: &mut Exercised,
    ) {
        let n = g.n();
        let keep = rng.random_range(0.05..1.0);
        let mask: Vec<bool> = (0..n).map(|_| rng.random_range(0.0..1.0) < keep).collect();
        for movable in [None, Some(mask.as_slice())] {
            let (mut a, mut b) = (start.clone(), start.clone());
            let sa = fm_refine(g, &mut a, movable, access::cut_of(g, start), cfg);
            let sb = fm_refine_allocating_per_pass(g, &mut b, movable, cfg, ex);
            assert_eq!(a, b, "sides, {at}");
            assert_eq!((sa.moved, sa.passes), (sb.moved, sb.passes), "{at}");
            assert!(sa.ops <= sb.ops, "ops {} > {}, {at}", sa.ops, sb.ops);
            ex.stopped_early += usize::from(sa.ops < sb.ops);
            assert_eq!(sa.cut_before.to_bits(), sb.cut_before.to_bits(), "{at}");
            assert_eq!(sa.cut_after.to_bits(), sb.cut_after.to_bits(), "{at}");
            if movable.is_none() && sa.passes == 1 {
                ex.one_pass_unmasked += 1;
            }
        }
    }

    fn random_split(n: usize, rng: &mut StdRng) -> Bisection {
        Bisection::new((0..n).map(|_| rng.random_range(0..2)).collect())
    }

    /// Vertices in random order, each to the side that weighs less so far:
    /// the sides end at most one vertex weight apart.
    fn balanced_split(g: &Graph, rng: &mut StdRng) -> Bisection {
        let mut order: Vec<u32> = (0..g.n() as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut side = vec![0u8; g.n()];
        let mut w = [0.0f64; 2];
        for v in order {
            let s = usize::from(w[1] < w[0]);
            side[v as usize] = s as u8;
            w[s] += g.vwgt(v);
        }
        Bisection::new(side)
    }

    /// A `rows`×`cols` grid with edge weights drawn from `[0.1, 3.0)`, so
    /// gain ties are rare, the accumulation order shows in the bits and
    /// only the stop test's slack keeps its sums honest, and integer vertex
    /// weights drawn from `1..vwgt_end`.
    fn weighted_grid(rows: usize, cols: usize, vwgt_end: i32, rng: &mut StdRng) -> Graph {
        let base = grid_2d(rows, cols);
        let n = base.n();
        // Symmetric: drawn at an edge's lower end, looked up at its higher.
        let mut drawn = std::collections::HashMap::new();
        let mut ewgt = Vec::with_capacity(base.adjncy().len());
        for v in 0..n as u32 {
            for &u in base.neighbors(v) {
                let w = match drawn.get(&(u, v)) {
                    Some(&w) => w,
                    None => *drawn.entry((v, u)).or_insert(rng.random_range(0.1..3.0)),
                };
                ewgt.push(w);
            }
        }
        let vwgt: Vec<f64> = (0..n)
            .map(|_| rng.random_range(1..vwgt_end) as f64)
            .collect();
        let g = Graph::from_csr(base.xadj().to_vec(), base.adjncy().to_vec(), ewgt, vwgt);
        g.validate().unwrap();
        g
    }

    fn six_passes() -> FmConfig {
        FmConfig {
            max_passes: 6,
            ..Default::default()
        }
    }

    #[test]
    fn scratch_kept_across_passes_refines_like_scratch_made_per_pass() {
        use sp_stream::{DeltaOverlay, GraphDelta};
        let mut rng = StdRng::seed_from_u64(0xF3);
        for round in 0..6 {
            let g = weighted_grid(12 + round, 17, 4, &mut rng);
            let n = g.n();
            let mut ex = Exercised::default();
            let at = format!("graph, round {round}");
            let start = random_split(g.n(), &mut rng);
            assert_same_refinement(&g, &start, &mut rng, &six_passes(), &at, &mut ex);

            let mut ov = DeltaOverlay::new(std::sync::Arc::new(g), None).unwrap();
            for _ in 0..40 {
                let (u, v) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
                let w = rng.random_range(0.25..3.0);
                // Whatever the overlay refuses (a duplicate, a missing
                // edge, a self loop) is simply not part of the stream.
                let _ = ov.apply(&GraphDelta::AddEdge { u, v, w });
                let _ = ov.apply(&GraphDelta::SetVwgt { v: u, w });
                if let Some((x, _)) = ov.neighbors_w(v).next() {
                    let _ = ov.apply(&GraphDelta::RemoveEdge { u: v, v: x });
                }
            }
            assert!(ov.patched_vertices() > 0);
            let at = format!("overlay, round {round}");
            let start = random_split(ov.n(), &mut rng);
            assert_same_refinement(&ov, &start, &mut rng, &six_passes(), &at, &mut ex);
            assert_eq!(ex.one_pass_unmasked, 0, "round {round}: one pass only");
        }
    }

    #[test]
    fn the_queue_pops_like_the_lazy_heap_where_every_gain_ties() {
        let mut rng = StdRng::seed_from_u64(0x71E5);
        let mut ex = Exercised::default();
        for round in 0..4 {
            let g = grid_2d(12 + round, 17);
            let at = format!("unit grid, round {round}");
            let start = random_split(g.n(), &mut rng);
            assert_same_refinement(&g, &start, &mut rng, &six_passes(), &at, &mut ex);
        }
        assert!(ex.ties > 100, "{} moves decided by id", ex.ties);
    }

    #[test]
    fn the_queue_pops_like_the_lazy_heap_when_the_infeasible_streak_gives_up() {
        let mut rng = StdRng::seed_from_u64(0xBA1);
        let mut ex = Exercised::default();
        let cfg = FmConfig {
            balance_tol: 0.0,
            ..six_passes()
        };
        for round in 0..4 {
            let g = weighted_grid(12 + round, 17, 41, &mut rng);
            let at = format!("zero slack, round {round}");
            // From near balance, zero slack leaves only the lightest
            // vertices movable: most pops run into long infeasible streaks.
            let start = balanced_split(&g, &mut rng);
            assert_same_refinement(&g, &start, &mut rng, &cfg, &at, &mut ex);
        }
        assert!(ex.cutoffs > 0, "the streak of 64 never ran out");
    }

    #[test]
    fn the_queue_pops_like_the_lazy_heap_on_passes_capped_at_a_quarter() {
        let mut rng = StdRng::seed_from_u64(0xC4);
        let mut ex = Exercised::default();
        let cfg = FmConfig {
            move_fraction: 0.25,
            ..six_passes()
        };
        for round in 0..4 {
            let g = weighted_grid(12 + round, 17, 4, &mut rng);
            let at = format!("quarter cap, round {round}");
            let start = random_split(g.n(), &mut rng);
            assert_same_refinement(&g, &start, &mut rng, &cfg, &at, &mut ex);
        }
        assert!(ex.capped > 0, "no pass reached its cap");
    }

    #[test]
    fn passes_stop_early_without_changing_a_bit_on_real_and_unit_weights() {
        let mut rng = StdRng::seed_from_u64(0x5709);
        let mut ex = Exercised::default();
        for round in 0..6 {
            let g = weighted_grid(12 + round, 17, 2, &mut rng);
            assert!(g.ewgts().iter().any(|&w| w.fract() != 0.0));
            let at = format!("weights in [0.1, 3), round {round}");
            let start = random_split(g.n(), &mut rng);
            assert_same_refinement(&g, &start, &mut rng, &six_passes(), &at, &mut ex);
            let start = noisy_split(&g, 0.1, round as u64);
            assert_same_refinement(&g, &start, &mut rng, &six_passes(), &at, &mut ex);

            let g = grid_2d(12 + round, 17);
            let at = format!("unit weights, round {round}");
            let start = noisy_split(&g, 0.1, round as u64);
            assert_same_refinement(&g, &start, &mut rng, &six_passes(), &at, &mut ex);
        }
        assert!(ex.stopped_early >= 18, "{} early stops", ex.stopped_early);
        assert!(ex.ridge > 0.0, "no pass climbed a ridge");
    }

    #[test]
    fn the_stop_waits_out_a_ridge_before_the_best_prefix() {
        // x = 0 and y = 1 on side 0 share an edge of weight 3; each has
        // two unit edges to side 1. Moving either alone raises the cut
        // from 6 to 7; moving both then lowers it to 2. Only x and y may
        // move, so a stop on `trial − best` would end the first pass at 7.
        // `fixed` is 2 there (the edges 6–2 and 7–4), below the best 6.
        let mut pairs = vec![(0, 1); 3]; // x–y weighs 3
        pairs.extend([(0, 2), (0, 3), (1, 4), (1, 5)]);
        pairs.extend([(2, 3), (4, 5), (6, 7), (6, 2), (7, 4)]);
        let g = sp_graph::csr_from_pairs(8, pairs, vec![1.0; 8]);
        let start = Bisection::new(vec![0, 0, 1, 1, 1, 1, 0, 0]);
        let movable: Vec<bool> = (0..8).map(|v| v < 2).collect();
        let cfg = FmConfig {
            balance_tol: 1.0,
            ..six_passes()
        };
        let (mut a, mut b) = (start.clone(), start.clone());
        let mut ex = Exercised::default();
        let sa = fm_refine(&g, &mut a, Some(&movable), 6.0, &cfg);
        let sb = fm_refine_allocating_per_pass(&g, &mut b, Some(&movable), &cfg, &mut ex);
        assert_eq!(ex.ridge, 1.0, "the oracle climbed from 6 to 7");
        assert_eq!(a, b);
        assert_eq!((sa.cut_after, sa.moved, sa.passes), (2.0, 2, 2));
        assert_eq!((sb.cut_after, sb.moved, sb.passes), (2.0, 2, 2));
        // x and y have three edges each. The second pass stops after its
        // first move, which fixes the cut edges x–2 and x–3 (4 > 2); the
        // oracle goes on to move y.
        assert_eq!(
            (sa.ops, sb.ops),
            (6.0 + 6.0 + 6.0 + 3.0, 6.0 + 6.0 + 6.0 + 6.0)
        );
    }

    #[test]
    fn the_stop_fires_on_a_strip_around_a_straight_separator() {
        // A 32×32 grid split between columns 15 and 16, the minimum cut
        // of 32, refined in the strip of columns 12..20: 256 movable
        // vertices with 1008 edge ends. No prefix beats 32, so the pass
        // keeps nothing. Its moves cut edges between moved vertices and
        // from moved vertices to the fixed columns; once those outweigh 32
        // the pass stops, 604 edge scans into the 1008 of a whole pass.
        let g = grid_2d(32, 32);
        let start = Bisection::from_fn(g.n(), |v| v % 32 >= 16);
        let strip: Vec<bool> = (0..g.n()).map(|v| (12..20).contains(&(v % 32))).collect();
        let (mut a, mut b) = (start.clone(), start.clone());
        let cfg = FmConfig::default();
        let sa = fm_refine(&g, &mut a, Some(&strip), 32.0, &cfg);
        let sb = fm_refine_allocating_per_pass(
            &g,
            &mut b,
            Some(&strip),
            &cfg,
            &mut Exercised::default(),
        );
        assert_eq!(a, start);
        assert_eq!(b, start);
        assert_eq!((sa.cut_after, sa.moved, sa.passes), (32.0, 0, 1));
        assert_eq!((sb.cut_after, sb.moved, sb.passes), (32.0, 0, 1));
        assert_eq!((sa.ops, sb.ops), (1008.0 + 604.0, 1008.0 + 1008.0));
    }

    #[test]
    fn a_pop_gives_up_after_65_infeasible_vertices_and_puts_them_back() {
        for (queued, found) in [(65u32, Some(64)), (66, None)] {
            let mut q = GainQueue::new(70, 70);
            let verts: Vec<u32> = (0..queued).collect();
            // Equal gains: the smaller id pops first.
            q.seed(&verts, |_| 0.0);
            // Only the last vertex in pop order is feasible.
            assert_eq!(q.pop_feasible(|v| v == queued - 1), found);
            let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
            let expected: Vec<u32> = (0..queued).filter(|&v| Some(v) != found).collect();
            assert_eq!(rest, expected, "{queued} queued");
        }
    }

    #[test]
    fn fm_leaves_an_interleaved_split_it_may_not_unbalance() {
        // Columns alternate sides: every horizontal edge is cut (56). With
        // 64 unit vertices a tolerance of 0.01 admits no single move from
        // a balanced start, so FM must hand the split back as it was.
        let g = grid_2d(8, 8);
        let mut bi = Bisection::from_fn(g.n(), |v| v % 2 == 0);
        let cfg = FmConfig {
            max_passes: 8,
            balance_tol: 0.01,
            ..Default::default()
        };
        let s = fm_refine(&g, &mut bi, None, 56.0, &cfg);
        assert!(s.cut_after <= 56.0, "FM cut {s:?}");
        assert_eq!((s.moved, bi.counts()), (0, (32, 32)));
    }

    #[test]
    fn fm_never_worsens_the_cut() {
        let g = grid_2d(16, 16);
        for seed in 0..5 {
            let mut bi = noisy_split(&g, 0.15, seed);
            let before = bi.cut(&g);
            let s = fm_refine(&g, &mut bi, None, before, &FmConfig::default());
            assert!(s.cut_after <= before + 1e-9);
            assert!(
                (bi.cut(&g) - s.cut_after).abs() < 1e-9,
                "stats vs actual cut"
            );
        }
    }

    #[test]
    fn fm_repairs_noisy_split_substantially() {
        let g = grid_2d(20, 20);
        let mut bi = noisy_split(&g, 0.10, 3);
        let before = bi.cut(&g);
        let s = fm_refine(
            &g,
            &mut bi,
            None,
            before,
            &FmConfig {
                max_passes: 8,
                ..Default::default()
            },
        );
        assert!(
            s.cut_after < before * 0.5,
            "cut {} -> {} (expected big repair)",
            before,
            s.cut_after
        );
    }

    #[test]
    fn fm_respects_balance_tolerance() {
        let g = grid_2d(14, 14);
        let mut bi = noisy_split(&g, 0.2, 7);
        let cfg = FmConfig {
            balance_tol: 0.05,
            ..Default::default()
        };
        let cut = bi.cut(&g);
        fm_refine(&g, &mut bi, None, cut, &cfg);
        assert!(
            bi.imbalance(&g) <= 0.05 + 1e-9,
            "imbalance {}",
            bi.imbalance(&g)
        );
    }

    #[test]
    fn movable_mask_is_honoured() {
        let g = grid_2d(12, 12);
        let mut bi = noisy_split(&g, 0.25, 9);
        let frozen = bi.clone();
        // Only the first quarter of vertices may move.
        let movable: Vec<bool> = (0..g.n()).map(|v| v < g.n() / 4).collect();
        let cut = bi.cut(&g);
        fm_refine(&g, &mut bi, Some(&movable), cut, &FmConfig::default());
        for v in g.n() / 4..g.n() {
            assert_eq!(
                bi.side(v as u32),
                frozen.side(v as u32),
                "immovable {v} moved"
            );
        }
    }

    #[test]
    fn perfect_cut_is_a_fixed_point() {
        let g = grid_2d(10, 10);
        let mut bi = Bisection::from_fn(g.n(), |v| (v as usize % 10) >= 5);
        let before = bi.cut(&g);
        let s = fm_refine(&g, &mut bi, None, before, &FmConfig::default());
        assert_eq!(s.cut_after, before);
        assert_eq!(s.moved, 0);
    }

    #[test]
    fn tiny_graph_is_handled() {
        let g = grid_2d(1, 2);
        let mut bi = Bisection::new(vec![0, 1]);
        let s = fm_refine(&g, &mut bi, None, 1.0, &FmConfig::default());
        assert!(s.cut_after <= s.cut_before);
        bi.validate(&g).unwrap();
    }

    #[test]
    fn ops_are_reported() {
        let g = grid_2d(10, 10);
        let mut bi = noisy_split(&g, 0.2, 1);
        let cut = bi.cut(&g);
        let s = fm_refine(&g, &mut bi, None, cut, &FmConfig::default());
        assert!(s.ops > g.n() as f64);
    }
}
