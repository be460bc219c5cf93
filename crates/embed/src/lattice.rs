//! The fixed-lattice parallel embedding scheme — the paper's main
//! contribution (§3, "Fixed Lattice Parallel Graph Embedding").
//!
//! The domain bounding box `B` is viewed as a `q × q` lattice matching a
//! `q × q` processor grid; rank `(i,j)` owns the vertices whose coordinates
//! lie in sub-box `B_{i,j}`. Long-range repulsion is approximated through
//! one *special vertex* `β_{i,j}` per box — total mass `μ_{i,j}` at the
//! centre of mass `φ_{i,j}` — Eq. (1)/(2) of the paper. Attractive forces
//! use true neighbour coordinates when the neighbour lives in the same or
//! an adjacent box (refreshed every iteration by nearest-neighbour halo
//! exchange) and *stale, clamped* coordinates otherwise: far ghosts are
//! pinned into the adjacent box at shortest L1 distance, and their data is
//! refreshed only once per block of `block` iterations by a global
//! allgather (the paper found block sizes of 2–8 to cost less communication
//! at no observable quality loss).

use crate::force::ForceParams;
use sp_geometry::{Aabb2, Point2};
use sp_graph::Graph;
use sp_machine::{CostOnly, Machine};

/// Controls for lattice smoothing.
#[derive(Clone, Copy, Debug)]
pub struct LatticeConfig {
    /// Repulsion constant `C`.
    pub c: f64,
    /// Maximum smoothing iterations (the run stops earlier once the
    /// adaptive step has cooled below 0.5% of K).
    pub iters: usize,
    /// Iterations per global refresh (the paper's 2–8; 1 disables
    /// staleness and is the ablation baseline).
    pub block: usize,
    /// Initial step as a fraction of `K`.
    pub step0: f64,
    /// Hu's adaptive step ratio `t`: the step shrinks ×t on an energy
    /// increase and grows ÷t after five consecutive decreases.
    pub cooling: f64,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig {
            c: 0.2,
            iters: 60,
            block: 4,
            step0: 0.5,
            cooling: 0.9,
        }
    }
}

/// Statistics returned by a smoothing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatticeStats {
    /// Mean per-vertex displacement in the final iteration (in units of K).
    pub final_move: f64,
    /// Vertices that migrated between boxes over the whole run.
    pub migrations: usize,
}

/// One cell's special vertex β: total mass and centre of mass.
#[derive(Clone, Copy, Debug, Default)]
struct Beta {
    mu: f64,
    phi: Point2,
}

/// The paper's neighbourhood: the *four* boxes at L1 distance 1
/// (diagonal boxes count as far and see only block-stale data).
#[inline]
fn cell_adjacent(q: usize, a: usize, b: usize) -> bool {
    let (ai, aj) = (a % q, a / q);
    let (bi, bj) = (b % q, b / q);
    ai.abs_diff(bi) + aj.abs_diff(bj) <= 1
}

/// The domain lattice with RCB-balanced cells.
///
/// The paper maps the embedded graph to the processor grid with Zoltan-style
/// recursive coordinate bisection, so every lattice cell holds (nearly) the
/// same number of vertices. We realise that as a rectilinear quantile
/// partition: `q` columns at x-quantiles, then `q` rows per column at that
/// column's y-quantiles. Cells are fixed for the whole smoothing run (the
/// "fixed lattice"); vertices that drift across a boundary migrate owners.
pub struct QuantileLattice {
    q: usize,
    /// Column boundaries (len q−1, ascending).
    xcuts: Vec<f64>,
    /// Per-column row boundaries (q × (q−1)).
    ycuts: Vec<Vec<f64>>,
    bbox: Aabb2,
}

impl QuantileLattice {
    /// Build from the current coordinates.
    pub fn build(coords: &[Point2], q: usize) -> Self {
        let bbox = Aabb2::from_points(coords)
            .unwrap_or_else(Aabb2::unit)
            .inflated(0.02 + 1e-9);
        let n = coords.len().max(1);
        let mut xs: Vec<f64> = coords.iter().map(|c| c.x).collect();
        if xs.is_empty() {
            xs.push(0.0);
        }
        let xcuts = quantile_cuts(&mut xs, n, q);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); q];
        for c in coords {
            let i = xcuts.partition_point(|&cut| c.x >= cut);
            cols[i].push(c.y);
        }
        let ycuts = cols
            .into_iter()
            .map(|mut ys| {
                if ys.is_empty() {
                    // Empty column (duplicate-heavy input): uniform rows.
                    let h = bbox.height() / q as f64;
                    return (1..q).map(|k| bbox.min.y + h * k as f64).collect();
                }
                let m = ys.len();
                quantile_cuts(&mut ys, m, q)
            })
            .collect();
        QuantileLattice {
            q,
            xcuts,
            ycuts,
            bbox,
        }
    }

    pub fn q(&self) -> usize {
        self.q
    }

    pub fn bbox(&self) -> &Aabb2 {
        &self.bbox
    }

    /// Cell of a point: `(column i, row j)`.
    #[inline]
    pub fn cell_of(&self, p: Point2) -> (usize, usize) {
        let i = self.xcuts.partition_point(|&cut| p.x >= cut);
        let j = self.ycuts[i].partition_point(|&cut| p.y >= cut);
        (i, j)
    }

    /// `cell_of` by branchless cut counting. The cut arrays are ascending,
    /// so `p.x >= cut` is monotone over them and the count of satisfied
    /// cuts equals the binary search's partition point — same result,
    /// no data-dependent branches. This is the per-vertex hot call of the
    /// owner-refresh and migration scans.
    #[inline]
    fn cell_of_fast(&self, p: Point2) -> (usize, usize) {
        let mut i = 0usize;
        for &cut in &self.xcuts {
            i += (p.x >= cut) as usize;
        }
        let mut j = 0usize;
        for &cut in &self.ycuts[i] {
            j += (p.y >= cut) as usize;
        }
        (i, j)
    }

    /// Exact membership test for cell `(i, j)`: cuts are ascending, so
    /// `cell_of` returns column `i` iff `p.x` clears cut `i-1` (when
    /// present) and not cut `i` — the same comparisons `cell_of` counts,
    /// so this agrees with it on every input bit pattern. Lets the
    /// migration scan skip the full cut count for the common case of a
    /// move that stays inside its cell.
    #[inline]
    fn in_cell(&self, i: usize, j: usize, p: Point2) -> bool {
        if (i > 0 && p.x < self.xcuts[i - 1]) || (i + 1 < self.q && p.x >= self.xcuts[i]) {
            return false;
        }
        let yc = &self.ycuts[i];
        (j == 0 || p.y >= yc[j - 1]) && (j + 1 >= self.q || p.y < yc[j])
    }

    /// Bounding box of cell `(i, j)`.
    pub fn cell_box(&self, i: usize, j: usize) -> Aabb2 {
        let x0 = if i == 0 {
            self.bbox.min.x
        } else {
            self.xcuts[i - 1]
        };
        let x1 = if i + 1 == self.q {
            self.bbox.max.x
        } else {
            self.xcuts[i]
        };
        let y0 = if j == 0 {
            self.bbox.min.y
        } else {
            self.ycuts[i][j - 1]
        };
        let y1 = if j + 1 == self.q {
            self.bbox.max.y
        } else {
            self.ycuts[i][j]
        };
        Aabb2::new(
            Point2::new(x0.min(x1), y0.min(y1)),
            Point2::new(x0.max(x1), y0.max(y1)),
        )
    }

    /// Per-cell vertex counts (diagnostics/tests).
    pub fn occupancy(&self, coords: &[Point2]) -> Vec<usize> {
        let mut occ = vec![0usize; self.q * self.q];
        for &c in coords {
            let (i, j) = self.cell_of(c);
            occ[j * self.q + i] += 1;
        }
        occ
    }
}

/// Cut values at the order-statistic indices `k·count/q` (k = 1..q),
/// found with successive `select_nth_unstable_by` on tail slices instead
/// of a full sort — expected O(n) for the first cut and O(n/q) per
/// further cut, versus O(n log n) for sorting — and bit-identical to
/// indexing the fully sorted array (the value at a sorted position does
/// not depend on how the rest of the array is ordered).
fn quantile_cuts(vals: &mut [f64], count: usize, q: usize) -> Vec<f64> {
    let last = vals.len() - 1;
    let mut cuts = Vec::with_capacity(q.saturating_sub(1));
    let mut base = 0usize;
    let mut prev: Option<(usize, f64)> = None;
    for k in 1..q {
        let idx = (k * count / q).min(last);
        if let Some((pi, pv)) = prev {
            // Cut indices are nondecreasing; a repeat reuses the value.
            if idx == pi {
                cuts.push(pv);
                continue;
            }
        }
        let (_, v, _) =
            vals[base..].select_nth_unstable_by(idx - base, |a, b| a.partial_cmp(b).unwrap());
        let v = *v;
        cuts.push(v);
        base = idx + 1;
        prev = Some((idx, v));
    }
    cuts
}

/// One target cell of the far-ghost clamp, ready to apply: the cell's box
/// and the same box nudged inwards.
#[derive(Clone, Copy)]
struct FarBox {
    min: Point2,
    max: Point2,
    lo: Point2,
    hi: Point2,
}

impl FarBox {
    fn of(cell: Aabb2) -> Self {
        // Nudge strictly inside the target box so the clamped ghost still
        // maps to that cell under the half-open cell assignment.
        let ex = cell.width() * 1e-9;
        let ey = cell.height() * 1e-9;
        FarBox {
            min: cell.min,
            max: cell.max,
            lo: Point2::new(cell.min.x + ex, cell.min.y + ey),
            hi: Point2::new(
                (cell.max.x - ex).max(cell.min.x),
                (cell.max.y - ey).max(cell.min.y),
            ),
        }
    }

    #[inline]
    fn clamp(&self, pos: Point2) -> Point2 {
        Point2::new(
            pos.x
                .clamp(self.min.x, self.max.x)
                .clamp(self.lo.x, self.hi.x),
            pos.y
                .clamp(self.min.y, self.max.y)
                .clamp(self.lo.y, self.hi.y),
        )
    }
}

/// A cell's far-ghost clamps — the paper's shortest-L1 rule. A far ghost's
/// (stale) position is pinned into the cell adjacent to the owner's in the
/// direction of the ghost's cell, and that target depends only on the
/// signs of the ghost's column and row offsets: nine boxes, built once per
/// force closure instead of once per far edge.
struct FarTable {
    mi: u32,
    mj: u32,
    /// Indexed by `dir(column) + 3·dir(row)`, see [`FarTable::clamp`].
    boxes: [FarBox; 9],
}

impl FarTable {
    fn new(lattice: &QuantileLattice, mi: usize, mj: usize) -> Self {
        let last = lattice.q() as i64 - 1;
        let toward = |m: usize, dir: usize| (m as i64 + dir as i64 - 1).clamp(0, last) as usize;
        FarTable {
            mi: mi as u32,
            mj: mj as u32,
            boxes: std::array::from_fn(|k| {
                FarBox::of(lattice.cell_box(toward(mi, k % 3), toward(mj, k / 3)))
            }),
        }
    }

    /// Clamp `pos`, the position of a ghost owned by cell `(gi, gj)`.
    #[inline]
    fn clamp(&self, (gi, gj): (u32, u32), pos: Point2) -> Point2 {
        // 0, 1, 2 for a ghost below, level with, above the owner.
        let dir = |g: u32, m: u32| 1 + usize::from(g > m) - usize::from(g < m);
        self.boxes[dir(gi, self.mi) + 3 * dir(gj, self.mj)].clamp(pos)
    }
}

/// Clamp a far ghost's position as cell `my_cell`'s force closure does.
#[cfg(test)]
fn clamp_far(lattice: &QuantileLattice, my_cell: usize, ghost_cell: usize, pos: Point2) -> Point2 {
    let q = lattice.q();
    let ghost = ((ghost_cell % q) as u32, (ghost_cell / q) as u32);
    FarTable::new(lattice, my_cell % q, my_cell / q).clamp(ghost, pos)
}

/// Near field: the own cell's repulsion is resolved one lattice level
/// deeper — a fixed `SUB × SUB` sub-lattice of β vertices over the cell's
/// own (fresh) points. Eq. (2)'s single own-β term is the 1×1 limit and
/// collapses local structure; a sub-lattice keeps the per-vertex cost an
/// exact `NSUB` ops regardless of how the layout clumps.
const SUB: usize = 4;
const NSUB: usize = SUB * SUB;

/// Vertices per cache block of the transposed near-field kernel: all seven
/// per-vertex streams of a block (coordinates, mass, sub index, force
/// accumulators) stay L1-resident across the 16 lane passes.
const NF_BLOCK: usize = 512;

/// The near-field repulsion kernel, transposed: the outer loop walks the
/// `NSUB` sub-lattice lanes and the inner loop streams a block of
/// vertices, so every inner iteration is the same straight-line arithmetic
/// with lane constants broadcast — the form the compiler turns into packed
/// vector subtract/multiply/divide/select. The scalar original iterated
/// lanes *inside* each vertex, which left the 16 dependent accumulator
/// additions as a serial latency chain and the division throughput unused.
///
/// Bit-exactness relies on three facts. First, each lane term reproduces
/// `ForceParams::repulsive`'s expression tree (left-associated products,
/// the squared 1e-9 distance floor), with the own-lane mass `μ − m_v`
/// selected per vertex exactly where the original overwrote its own-lane
/// term. Second, a vertex's accumulator takes lane additions in pass order
/// 0..NSUB — the same order as the original's per-vertex lane loop (f64
/// addition is order-sensitive; this order is load-bearing). Third,
/// nearly-empty lanes that the original *skipped* instead add `-0.0`,
/// the IEEE-754 round-to-nearest additive identity (`x + -0.0 == x` for
/// every `x`, including both zeros), so the skip becomes a branchless
/// operand select without changing a single bit — and a fully *empty*
/// lane (zero mass, so every vertex selects `-0.0`) is elided wholesale
/// by the same identity.
#[allow(clippy::too_many_arguments)]
#[inline]
fn near_field_passes(
    cvx: &[f64],
    cvy: &[f64],
    cm: &[f64],
    cmk: &[f64],
    subidx: &[u8],
    sx: &[f64; NSUB],
    sy: &[f64; NSUB],
    sm: &[f64; NSUB],
    fx: &mut [f64],
    fy: &mut [f64],
) {
    let len = cvx.len();
    let mut start = 0;
    while start < len {
        let end = (start + NF_BLOCK).min(len);
        for si in 0..NSUB {
            let sxs = sx[si];
            let sys = sy[si];
            let sms = sm[si];
            // An empty lane contributes `-0.0` to every vertex (own-lane
            // masses are nonnegative, so `keep` is false throughout) —
            // the additive identity. Skipping the pass changes no bits.
            if sms == 0.0 {
                continue;
            }
            let siu = si as u8;
            let cx = &cvx[start..end];
            let cy = &cvy[start..end][..cx.len()];
            let m = &cm[start..end][..cx.len()];
            let mk = &cmk[start..end][..cx.len()];
            let sb = &subidx[start..end][..cx.len()];
            let gx = &mut fx[start..end][..cx.len()];
            let gy = &mut fy[start..end][..cx.len()];
            for i in 0..cx.len() {
                let dx = cx[i] - sxs;
                let dy = cy[i] - sys;
                let ds = (dx * dx + dy * dy).max(1e-9 * 1e-9);
                let mass = if sb[i] == siu { sms - m[i] } else { sms };
                let fac = mk[i] * mass / ds;
                let keep = mass > 1e-12;
                gx[i] += if keep { dx * fac } else { -0.0 };
                gy[i] += if keep { dy * fac } else { -0.0 };
            }
        }
        start = end;
    }
}

/// Per-rank state of the fused β/cross-edge superstep: the cell's special
/// vertex plus counts of edges leaving the cell, bucketed adjacent vs far.
#[derive(Clone, Copy, Debug, Default)]
struct BetaScan {
    beta: Beta,
    /// Cross-edge counts into each (≤4) adjacent cell, slot-aligned with
    /// `SmoothScratch::nbrs`.
    halo: [usize; 4],
    /// Cross-edge count into non-adjacent cells.
    far: usize,
}

/// Per-rank state of the force superstep: the displacement buffer, the
/// rank's energy contribution, and the cached sub-lattice index of each
/// owned vertex (computed once in the β-build pass and reused in the
/// near-field pass, saving one `cell_of` per vertex).
#[derive(Clone, Debug, Default)]
struct DispState {
    /// Emitted moves `(v, new position, ‖displacement‖, crossed)`: the
    /// norm, the moved position and the did-it-leave-its-cell test are
    /// all computed here, inside the parallel superstep and from packed
    /// passes, so the serial apply loop is a store, an add, and an
    /// almost-never-taken branch per move.
    moves: Vec<(u32, Point2, f64, u8)>,
    energy: f64,
    subidx: Vec<u8>,
    /// Owned-vertex coordinates and masses, gathered contiguous (struct of
    /// arrays) so the near-field passes stream them with vector loads.
    cvx: Vec<f64>,
    cvy: Vec<f64>,
    cm: Vec<f64>,
    /// Hoisted near-field products `C·K²·m_v` per owned vertex (lane
    /// passes reread the product instead of redoing the multiply ×16).
    cmk: Vec<f64>,
    /// Per-owned-vertex force accumulators (x and y lanes).
    fx: Vec<f64>,
    fy: Vec<f64>,
    /// Displacement-tail scratch: per-vertex force norms, step scales,
    /// displacement norms, moved positions, and cell-crossing flags.
    nrm: Vec<f64>,
    scl: Vec<f64>,
    dn: Vec<f64>,
    npx: Vec<f64>,
    npy: Vec<f64>,
    crx: Vec<u8>,
}

/// Reusable working state for [`lattice_smooth_with`]: per-cell owned
/// vertex lists (maintained incrementally from owner-change deltas rather
/// than rebuilt each iteration), the cell-adjacency lookup table, per-rank
/// β/cross-edge scan states, displacement buffers, and cost-only outboxes.
/// One scratch serves any number of smoothing runs (the multilevel driver
/// reuses one across levels); buffers are sized on entry and reused, so
/// the steady-state smoothing loop performs no per-iteration allocation.
#[derive(Default)]
pub struct SmoothScratch {
    /// Current owner cell of each vertex.
    owner: Vec<u32>,
    /// Per-cell owned vertices, ascending. Invariant at the top of every
    /// iteration: `owned[c]` holds exactly the `v` with `owner[v] == c`,
    /// sorted — indistinguishable from a group-by rebuild (β accumulates
    /// vertex masses in list order, so the order is load-bearing for
    /// f64-exact reproducibility).
    owned: Vec<Vec<u32>>,
    /// ncells × ncells adjacency lookup (row-major), replacing div/mod
    /// coordinate arithmetic in the per-edge hot paths.
    adj: Vec<bool>,
    /// Per-cell adjacent cells, ascending, with the live slot count.
    nbrs: Vec<([usize; 4], usize)>,
    /// Per-cell `(column, row)`: what a far edge looks its ghost's
    /// direction up with.
    cell_ij: Vec<(u32, u32)>,
    /// ncells × ncells directed cross-count matrix (row-major):
    /// `cross[a·ncells + b]` is the number of directed edges `(v, u)` with
    /// `owner[v] == a` and `owner[u] == b` (the diagonal holds intra-cell
    /// counts and is simply never read). Maintained incrementally from
    /// owner flips — counts are integers, so any correct maintenance is
    /// bit-identical to a recount — and consulted by the β scan (halo
    /// batch sizes) and the block refresh (far totals) in O(ncells) per
    /// rank instead of an O(m) edge walk per iteration.
    cross: Vec<u32>,
    /// Per-rank β + cross-edge scan states.
    scan: Vec<BetaScan>,
    /// Fresh β per cell (copied out of `scan` after the β superstep).
    betas: Vec<Beta>,
    /// Block-stale β table (the paper's per-block global refresh).
    beta_snapshot: Vec<Beta>,
    /// Block-stale coordinates for far ghosts.
    snapshot: Vec<Point2>,
    /// Per-rank far-edge recounts for block-boundary refreshes.
    far: Vec<usize>,
    /// Per-rank force-superstep states (displacements, energy, cached
    /// sub-lattice indices), reused across iterations.
    disp: Vec<DispState>,
    /// Cost-only outbox, shared by the halo and migration exchanges.
    outbox: Vec<Vec<(usize, CostOnly)>>,
    /// Owner-change log `(v, from, to)` applied to `owned` at iteration
    /// end (mid-iteration the lists must stay stale, exactly like the
    /// per-iteration rebuild they replace).
    deltas: Vec<(u32, u32, u32)>,
    /// Far-migration `(from, to)` pairs of the current iteration.
    mig_pairs: Vec<(u32, u32)>,
}

impl SmoothScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for an `(n, q, p)` run and build the adjacency
    /// table. Cheap when dimensions are unchanged.
    fn reset(&mut self, n: usize, q: usize, p: usize) {
        let ncells = q * q;
        self.owner.clear();
        self.owner.reserve(n);
        self.owned.resize_with(ncells, Vec::new);
        for l in &mut self.owned {
            l.clear();
        }
        self.adj.clear();
        self.adj.resize(ncells * ncells, false);
        self.nbrs.clear();
        self.nbrs.resize(ncells, ([0; 4], 0));
        self.cell_ij.clear();
        self.cell_ij
            .extend((0..ncells).map(|c| ((c % q) as u32, (c / q) as u32)));
        self.cross.clear();
        self.cross.resize(ncells * ncells, 0);
        for a in 0..ncells {
            for b in 0..ncells {
                if cell_adjacent(q, a, b) {
                    self.adj[a * ncells + b] = true;
                    if a != b {
                        let (cells, cnt) = &mut self.nbrs[a];
                        cells[*cnt] = b; // b ascends → slots ascend
                        *cnt += 1;
                    }
                }
            }
        }
        self.scan.clear();
        self.scan.resize(p, BetaScan::default());
        self.betas.clear();
        self.betas.resize(ncells, Beta::default());
        self.beta_snapshot.clear();
        self.beta_snapshot.resize(ncells, Beta::default());
        self.snapshot.clear();
        self.snapshot.reserve(n);
        self.far.clear();
        self.far.resize(p, 0);
        self.disp.resize_with(p, Default::default);
        for d in &mut self.disp {
            d.moves.clear();
            d.energy = 0.0;
            d.subidx.clear();
        }
        self.outbox.resize_with(p, Vec::new);
        for o in &mut self.outbox {
            o.clear();
        }
        self.deltas.clear();
        self.mig_pairs.clear();
    }

    /// Recount `cross` from scratch: one pass over every directed edge.
    fn rebuild_cross(&mut self, g: &Graph) {
        let ncells = self.betas.len();
        self.cross.clear();
        self.cross.resize(ncells * ncells, 0);
        for (v, &c) in self.owner.iter().enumerate() {
            let row = c as usize * ncells;
            for &u in g.neighbors(v as u32) {
                self.cross[row + self.owner[u as usize] as usize] += 1;
            }
        }
    }

    /// Rebuild `owned` as a group-by of `owner` (ascending within cells).
    fn rebuild_owned(&mut self) {
        for l in &mut self.owned {
            l.clear();
        }
        for (v, &c) in self.owner.iter().enumerate() {
            self.owned[c as usize].push(v as u32);
        }
    }

    /// Apply the iteration's owner-change log to `owned`, keeping each
    /// list sorted. Changes are grouped per cell — one compaction sweep
    /// per source cell and one backward merge per destination cell — so
    /// the cost is O(affected lists + k·log k) rather than one O(list)
    /// splice per delta. Falls back to a full rebuild when the log is
    /// large (post-refresh churn), which is O(n) — the same as one
    /// rebuild of the old per-iteration kind.
    fn apply_deltas(&mut self) {
        if self.deltas.is_empty() {
            return;
        }
        if self.deltas.len() * 8 > self.owner.len() {
            self.deltas.clear();
            self.rebuild_owned();
            return;
        }
        let mut deltas = std::mem::take(&mut self.deltas);
        // A vertex can move twice in one iteration (block refresh, then
        // migration); collapse each chain to its net move. The stable
        // sort keeps a vertex's events in log order.
        deltas.sort_by_key(|d| d.0);
        let mut w = 0;
        let mut i = 0;
        while i < deltas.len() {
            let (v, from, mut to) = deltas[i];
            i += 1;
            while i < deltas.len() && deltas[i].0 == v {
                to = deltas[i].2;
                i += 1;
            }
            if from != to {
                deltas[w] = (v, from, to);
                w += 1;
            }
        }
        deltas.truncate(w);
        // Removals: one compaction sweep per source cell.
        deltas.sort_unstable_by_key(|d| (d.1, d.0));
        let mut i = 0;
        while i < deltas.len() {
            let from = deltas[i].1;
            let start = i;
            while i < deltas.len() && deltas[i].1 == from {
                i += 1;
            }
            let rem = &deltas[start..i]; // ascending v
            let list = &mut self.owned[from as usize];
            let mut k = 0;
            let mut w = 0;
            for r in 0..list.len() {
                let v = list[r];
                if k < rem.len() && rem[k].0 == v {
                    k += 1;
                } else {
                    list[w] = v;
                    w += 1;
                }
            }
            debug_assert_eq!(k, rem.len(), "vertex missing from owner list");
            list.truncate(w);
        }
        // Insertions: one backward in-place merge per destination cell.
        deltas.sort_unstable_by_key(|d| (d.2, d.0));
        let mut i = 0;
        while i < deltas.len() {
            let to = deltas[i].2;
            let start = i;
            while i < deltas.len() && deltas[i].2 == to {
                i += 1;
            }
            let ins = &deltas[start..i]; // ascending v, distinct
            let list = &mut self.owned[to as usize];
            let old_len = list.len();
            list.resize(old_len + ins.len(), 0);
            let mut a = old_len as isize - 1;
            let mut b = ins.len() as isize - 1;
            let mut w = list.len() as isize - 1;
            while b >= 0 {
                if a >= 0 && list[a as usize] > ins[b as usize].0 {
                    list[w as usize] = list[a as usize];
                    a -= 1;
                } else {
                    list[w as usize] = ins[b as usize].0;
                    b -= 1;
                }
                w -= 1;
            }
        }
        self.deltas = deltas;
        self.deltas.clear();
    }
}

/// Run fixed-lattice smoothing over `coords` in place on a `q × q` lattice
/// using ranks `0..q²` of `machine` (extra ranks idle, matching the paper's
/// shrinking active set `Pⁱ ≈ P/4ⁱ`). Charges computation, halo exchange,
/// per-block global refresh, and box migrations to the machine.
pub fn lattice_smooth(
    g: &Graph,
    coords: &mut [Point2],
    q: usize,
    machine: &mut Machine,
    cfg: &LatticeConfig,
) -> LatticeStats {
    lattice_smooth_with(g, coords, q, machine, cfg, &mut SmoothScratch::new())
}

/// [`lattice_smooth`] with caller-provided scratch, so repeated runs (the
/// multilevel driver smooths every level) reuse one set of buffers.
pub fn lattice_smooth_with(
    g: &Graph,
    coords: &mut [Point2],
    q: usize,
    machine: &mut Machine,
    cfg: &LatticeConfig,
    scratch: &mut SmoothScratch,
) -> LatticeStats {
    assert_eq!(coords.len(), g.n());
    assert!(
        q * q <= machine.p(),
        "lattice {q}×{q} needs ≥ {} ranks",
        q * q
    );
    let n = g.n();
    if n == 0 || cfg.iters == 0 {
        return LatticeStats::default();
    }
    let p = machine.p();
    let ncells = q * q;
    let bbox = Aabb2::from_points(coords).unwrap().inflated(0.02 + 1e-9);
    let params = ForceParams::for_domain(cfg.c, bbox.width() * bbox.height(), n);
    let mut step = cfg.step0 * params.k;
    let max_step = 3.0 * params.k;
    let t_ratio = cfg.cooling.clamp(0.5, 0.99);
    let mut energy = f64::INFINITY;
    let mut progress = 0u32;

    // RCB-balanced fixed lattice (the paper computes this mapping with
    // Zoltan RCB after each projection; we refresh it at block boundaries
    // because the layout breathes under the adaptive step). Construction is
    // a distributed quantile computation: charge n/P ops per rank and one
    // small collective.
    let mut lattice = QuantileLattice::build(coords, q);
    {
        let share = (n / ncells.max(1)) as f64;
        let mut states: Vec<()> = vec![(); p];
        machine.compute(&mut states, |r, _| if r < ncells { share } else { 0.0 });
        machine.group_allreduce_sum_costed(ncells, q);
    }
    let cell_of = |p: Point2, lattice: &QuantileLattice| -> u32 {
        let (i, j) = lattice.cell_of_fast(p);
        (j * q + i) as u32
    };
    scratch.reset(n, q, p);
    {
        let lat = &lattice;
        scratch
            .owner
            .extend(coords.iter().map(|&c| cell_of(c, lat)));
    }
    scratch.rebuild_owned();
    scratch.rebuild_cross(g);
    scratch.snapshot.extend_from_slice(coords);
    let mut stats = LatticeStats::default();

    for it in 0..cfg.iters {
        // --- β computation with cross-edge counting: each active rank
        // scans its owned vertices once, accumulating the special vertex
        // (mass + centre of mass); the outgoing-edge counts — halo batch
        // sizes per adjacent cell, far total — are read out of the
        // incrementally-maintained `cross` matrix in O(ncells) instead of
        // walking every edge. The counts are integers, so the matrix read
        // is bit-identical to the recount it replaces; the charged ops are
        // unchanged (one per owned vertex).
        {
            let owned = &scratch.owned;
            let adj = &scratch.adj;
            let nbrs = &scratch.nbrs;
            let cross = &scratch.cross;
            let coords_ref = &*coords;
            machine.compute(&mut scratch.scan, |r, s| {
                *s = BetaScan::default();
                if r >= ncells {
                    return 0.0;
                }
                let mut mu = 0.0;
                let mut wsum = Point2::ZERO;
                for &v in &owned[r] {
                    let m = g.vwgt(v);
                    mu += m;
                    wsum += coords_ref[v as usize] * m;
                }
                let row = r * ncells;
                let (cells, ncnt) = nbrs[r];
                for k in 0..ncnt {
                    s.halo[k] = cross[row + cells[k]] as usize;
                }
                for c in 0..ncells {
                    if c != r && !adj[row + c] {
                        s.far += cross[row + c] as usize;
                    }
                }
                if mu > 0.0 {
                    s.beta = Beta { mu, phi: wsum / mu };
                }
                owned[r].len() as f64
            });
            for r in 0..ncells {
                scratch.betas[r] = scratch.scan[r].beta;
            }
        }

        // --- Communication. The nearest-neighbour halo — β of adjacent
        // cells plus fresh coordinates of boundary vertices with edges into
        // each adjacent cell — runs every iteration; the global allgather
        // (far β table + far-cross-edge coordinates, the paper's ñ) and
        // the reduction run only once per block. All of it is cost-only:
        // the data already lives in shared memory, so only word counts are
        // charged. Halo batches go out in ascending destination order
        // (slots ascend), keeping traces byte-reproducible.
        for r in 0..p {
            scratch.outbox[r].clear();
            if r < ncells {
                let (cells, ncnt) = scratch.nbrs[r];
                for (k, &cell) in cells[..ncnt].iter().enumerate() {
                    let cnt = scratch.scan[r].halo[k];
                    if cnt > 0 {
                        scratch.outbox[r].push((cell, CostOnly::new(3 + 2 * cnt)));
                    }
                }
            }
        }
        machine.exchange_costed(&scratch.outbox);
        if it % cfg.block.max(1) == 0 {
            let far_total: usize = if it > 0 {
                // Re-derive the balanced lattice from the current layout,
                // refresh owners (maintaining `cross` per flip), and charge
                // the quantile computation (n/P ops + one collective). The
                // far total is then a row sum over `cross` — the grouping
                // of the old per-vertex recount differed (pre-refresh owned
                // lists), but only the total ever entered the payload, and
                // integer totals agree regardless of grouping.
                lattice = QuantileLattice::build(coords, q);
                for (v, c) in coords.iter().enumerate() {
                    let oc = scratch.owner[v];
                    if lattice.in_cell(oc as usize % q, oc as usize / q, *c) {
                        continue;
                    }
                    let nc = cell_of(*c, &lattice);
                    if nc != oc {
                        scratch.deltas.push((v as u32, oc, nc));
                        let (ro, rn) = (oc as usize * ncells, nc as usize * ncells);
                        for &u in g.neighbors(v as u32) {
                            let cu = scratch.owner[u as usize] as usize;
                            scratch.cross[ro + cu] -= 1;
                            scratch.cross[rn + cu] += 1;
                            scratch.cross[cu * ncells + oc as usize] -= 1;
                            scratch.cross[cu * ncells + nc as usize] += 1;
                        }
                        scratch.owner[v] = nc;
                    }
                }
                let share = (n / ncells.max(1)) as f64;
                {
                    let adj = &scratch.adj;
                    let cross = &scratch.cross;
                    machine.compute(&mut scratch.far, |r, far| {
                        *far = 0;
                        if r >= ncells {
                            return 0.0;
                        }
                        let row = r * ncells;
                        for c in 0..ncells {
                            if c != r && !adj[row + c] {
                                *far += cross[row + c] as usize;
                            }
                        }
                        share
                    });
                }
                machine.group_allreduce_sum_costed(ncells, q);
                scratch.far[..ncells].iter().sum()
            } else {
                scratch.scan[..ncells].iter().map(|s| s.far).sum()
            };
            // Global refresh payload: per cell, β (3 words) plus 2 words
            // per far cross-edge coordinate (the paper's ñ).
            machine.group_allgather_costed(ncells, 3 * ncells + 2 * far_total);
            machine.group_allreduce_sum_costed(ncells, 1);
            scratch.snapshot.copy_from_slice(coords);
            let betas = &scratch.betas;
            scratch.beta_snapshot.copy_from_slice(betas);
        }

        // --- Force computation and displacement per rank (buffers reused
        // across iterations).
        {
            let owned_ref = &scratch.owned;
            let coords_ref = &*coords;
            let owner_ref = &scratch.owner;
            let adj = &scratch.adj;
            let cell_ij = &scratch.cell_ij;
            let snapshot_ref = &scratch.snapshot;
            let betas_ref = &scratch.betas;
            let beta_snap_ref = &scratch.beta_snapshot;
            let lattice_ref = &lattice;
            let refreshed = it > 0 && it % cfg.block.max(1) == 0;
            machine.compute(&mut scratch.disp, |r, state| {
                let DispState {
                    moves,
                    energy,
                    subidx,
                    cvx,
                    cvy,
                    cm,
                    cmk,
                    fx,
                    fy,
                    nrm,
                    scl,
                    dn,
                    npx,
                    npy,
                    crx,
                } = state;
                moves.clear();
                *energy = 0.0;
                if r >= ncells {
                    return 0.0;
                }
                let my = r;
                let mut ops = 0.0;
                // Inherited lattice repulsion (Eq. 1, per unit mass): sum
                // over all other cells of C·K²·μ_s / dist(φ_my, φ_s),
                // using fresh β for adjacent cells and block-stale β
                // otherwise.
                let my_beta = betas_ref[my];
                let mut inherited = Point2::ZERO;
                if my_beta.mu > 0.0 {
                    for s in 0..ncells {
                        if s == my {
                            continue;
                        }
                        let b = if adj[my * ncells + s] {
                            betas_ref[s]
                        } else {
                            beta_snap_ref[s]
                        };
                        if b.mu > 0.0 {
                            inherited += params.repulsive(my_beta.phi, 1.0, b.phi, b.mu);
                        }
                    }
                    ops += (ncells - 1) as f64;
                }
                // Near field: the own cell's repulsion is resolved one
                // lattice level deeper — a fixed 4×4 sub-lattice of β
                // vertices over the cell's own (fresh) points. Eq. (2)'s
                // single own-β term is the 1×1 limit and collapses local
                // structure; a sub-lattice keeps the per-vertex cost an
                // exact 16 ops regardless of how the layout clumps.
                let my_box = lattice_ref.cell_box(my % q, my / q);
                let mine = &owned_ref[my];
                let nmine = mine.len();
                // Gather the owned vertices' coordinates and masses into
                // contiguous arrays: every pass below streams them with
                // vector loads instead of chasing `mine` indirections. One
                // fused sweep fills all five streams — the split extends it
                // replaces chased the same indirections three times over,
                // and the force accumulators seed from the inherited
                // repulsion scaled by vertex mass exactly like the
                // original's `f = inherited * mv`.
                cvx.resize(nmine, 0.0);
                cvy.resize(nmine, 0.0);
                cm.resize(nmine, 0.0);
                fx.resize(nmine, 0.0);
                fy.resize(nmine, 0.0);
                {
                    let cvx = &mut cvx[..nmine];
                    let cvy = &mut cvy[..nmine];
                    let cm = &mut cm[..nmine];
                    let fx = &mut fx[..nmine];
                    let fy = &mut fy[..nmine];
                    for (i, &v) in mine.iter().enumerate() {
                        let c = coords_ref[v as usize];
                        let m = g.vwgt(v);
                        cvx[i] = c.x;
                        cvy[i] = c.y;
                        cm[i] = m;
                        fx[i] = inherited.x * m;
                        fy[i] = inherited.y * m;
                    }
                }
                // Sub-lattice index per vertex, replicating
                // `my_box.cell_of(SUB, c)` arithmetic exactly (same
                // width/height guards, same divide-multiply-truncate-clamp
                // sequence) in a form the compiler vectorizes.
                subidx.clear();
                let (bw, bh) = (my_box.width(), my_box.height());
                let (bx, by) = (my_box.min.x, my_box.min.y);
                {
                    let cvx = &cvx[..nmine];
                    let cvy = &cvy[..nmine];
                    subidx.extend((0..nmine).map(|i| {
                        let fxn = if bw > 0.0 { (cvx[i] - bx) / bw } else { 0.0 };
                        let fyn = if bh > 0.0 { (cvy[i] - by) / bh } else { 0.0 };
                        let si = ((fxn * SUB as f64) as isize).clamp(0, SUB as isize - 1) as usize;
                        let sj = ((fyn * SUB as f64) as isize).clamp(0, SUB as isize - 1) as usize;
                        (sj * SUB + si) as u8
                    }));
                }
                let mut sub = [Beta::default(); NSUB];
                for i in 0..nmine {
                    let b = &mut sub[subidx[i] as usize];
                    let m = cm[i];
                    b.mu += m;
                    b.phi += Point2::new(cvx[i], cvy[i]) * m;
                }
                ops += nmine as f64;
                for b in sub.iter_mut() {
                    if b.mu > 0.0 {
                        b.phi = b.phi / b.mu;
                    }
                }
                let mut sx = [0.0f64; NSUB];
                let mut sy = [0.0f64; NSUB];
                let mut sm = [0.0f64; NSUB];
                for (i, b) in sub.iter().enumerate() {
                    sx[i] = b.phi.x;
                    sy[i] = b.phi.y;
                    sm[i] = b.mu;
                }
                let ckk = params.c * params.k * params.k;
                // Hoist the per-vertex near-field product `C·K²·m_v`: each
                // of the 16 lane passes rereads it instead of redoing the
                // multiply (the multiply is identical, so so are the bits).
                cmk.clear();
                cmk.extend(cm.iter().map(|&mv| ckk * mv));
                near_field_passes(cvx, cvy, cm, cmk, subidx, &sx, &sy, &sm, fx, fy);
                ops += (NSUB * nmine) as f64;
                ops += (2 * nmine) as f64;
                // Attraction over edges with the freshness rules, folded
                // onto the accumulated near-field forces in vertex order.
                // This loop stays fused and scalar by measurement: the
                // per-edge owner/coordinate gathers bound it, not the
                // sqrt/div (out-of-order execution overlaps the next
                // edge's loads with the current edge's root), and both
                // split variants tried — whole-edge-list passes and
                // L1-blocked chunks — lost more to per-edge buffer
                // traffic and bookkeeping than packed arithmetic saved.
                // Edge charges are counted in an integer and added to
                // `ops` once — the same exact sum as `+= 1.0` per edge,
                // without threading a serial f64 dependency chain through
                // the hot loop.
                let far = FarTable::new(lattice_ref, my % q, my / q);
                let mut nedges = 0usize;
                for (vi, &v) in mine.iter().enumerate() {
                    let cv = Point2::new(cvx[vi], cvy[vi]);
                    let mut f = Point2::new(fx[vi], fy[vi]);
                    for (u, w) in g.neighbors_w(v) {
                        let cu = owner_ref[u as usize] as usize;
                        let pu = if cu == my || adj[my * ncells + cu] {
                            coords_ref[u as usize]
                        } else {
                            far.clamp(cell_ij[cu], snapshot_ref[u as usize])
                        };
                        f += params.attractive(cv, pu) * w;
                        nedges += 1;
                    }
                    fx[vi] = f.x;
                    fy[vi] = f.y;
                }
                ops += nedges as f64;
                // Displacement tail, split so the norms (`(x² + y²).sqrt()`,
                // exactly `Point2::norm`) and step scales run as long
                // vectorizable passes with packed sqrt/div; the scalar pass
                // keeps the energy accumulation and move emission in vertex
                // order, bit-identical to the fused original. A zero norm
                // makes `step / norm` infinite, but such entries fail the
                // `norm > 1e-12` gate and are never read.
                nrm.clear();
                {
                    let fx = &fx[..nmine];
                    let fy = &fy[..nmine];
                    nrm.extend((0..nmine).map(|i| (fx[i] * fx[i] + fy[i] * fy[i]).sqrt()));
                }
                scl.clear();
                scl.extend(nrm.iter().map(|&n| step / n));
                // Displacement norms, moved positions and cell-crossing
                // flags as one more packed pass. The products are the
                // same expressions the fused apply loop computed — `d.x`
                // as `f.x · scale`, `np` as `coords[v] + d` (`cvx` *is*
                // `coords[v].x`: nothing writes coordinates between the
                // gather and the apply of the same iteration) — so every
                // value the serial apply loop folds in is bit-identical
                // to what it used to compute per move. The crossing test
                // replays `QuantileLattice::in_cell`'s exact comparisons
                // against the own cell's cuts (lane constants here).
                // Gated-out entries (zero force norm → infinite scale)
                // are computed but never read.
                dn.resize(nmine, 0.0);
                npx.resize(nmine, 0.0);
                npy.resize(nmine, 0.0);
                crx.resize(nmine, 0);
                let (ci, cj) = (my % q, my / q);
                let xlo = if ci > 0 {
                    lattice_ref.xcuts[ci - 1]
                } else {
                    0.0
                };
                let xhi = if ci + 1 < q {
                    lattice_ref.xcuts[ci]
                } else {
                    0.0
                };
                let yc = &lattice_ref.ycuts[ci];
                let ylo = if cj > 0 { yc[cj - 1] } else { 0.0 };
                let yhi = if cj + 1 < q { yc[cj] } else { 0.0 };
                {
                    let fx = &fx[..nmine];
                    let fy = &fy[..nmine];
                    let scl = &scl[..nmine];
                    let cvx = &cvx[..nmine];
                    let cvy = &cvy[..nmine];
                    let dn = &mut dn[..nmine];
                    let npx = &mut npx[..nmine];
                    let npy = &mut npy[..nmine];
                    let crx = &mut crx[..nmine];
                    for i in 0..nmine {
                        let dx = fx[i] * scl[i];
                        let dy = fy[i] * scl[i];
                        dn[i] = (dx * dx + dy * dy).sqrt();
                        let nx = cvx[i] + dx;
                        let ny = cvy[i] + dy;
                        npx[i] = nx;
                        npy[i] = ny;
                        // Non-short-circuit `&`/`|` on the bools: the
                        // comparisons are side-effect-free, so the truth
                        // table is identical to `in_cell`'s `&&`/`||`
                        // version but compiles to branchless masks.
                        let out_x = ((ci > 0) & (nx < xlo)) | ((ci + 1 < q) & (nx >= xhi));
                        let in_y = ((cj == 0) | (ny >= ylo)) & ((cj + 1 >= q) | (ny < yhi));
                        crx[i] = (out_x | !in_y) as u8;
                    }
                }
                if refreshed {
                    // A block refresh rewrites `owner` mid-iteration while
                    // this rank's owned list stays stale until the
                    // end-of-iteration `apply_deltas`, so a just-flipped
                    // vertex is still in `mine` with `owner[v] != my`. Its
                    // crossing test above used the wrong cell's bounds:
                    // force the flag on so the apply loop runs the full
                    // `cell_of` path against the true owner. On every
                    // other iteration `owner[v] == my` for all of `mine`
                    // and the packed flags are exact as computed.
                    let myu = my as u32;
                    let crx = &mut crx[..nmine];
                    for (i, &v) in mine.iter().enumerate() {
                        crx[i] |= (owner_ref[v as usize] != myu) as u8;
                    }
                }
                for (vi, &v) in mine.iter().enumerate() {
                    let norm = nrm[vi];
                    *energy += norm * norm;
                    if norm > 1e-12 {
                        moves.push((v, Point2::new(npx[vi], npy[vi]), dn[vi], crx[vi]));
                    }
                }
                ops
            });
        }

        // --- Apply moves (owned vertices only — ghosts are by construction
        // other ranks' owned vertices and move on their own ranks), fused
        // with migration detection: a vertex's cell can only change if its
        // coordinates did, and at the top of the iteration `owner[v]`
        // matches `cell_of(coords[v])` for every vertex (initial
        // assignment, block refreshes and prior migrations all enforce
        // it), so scanning the movers covers every possible migration
        // without re-walking all n vertices. Migration batches are keyed
        // by sorted (from, to) pairs — not discovery order, which now
        // follows rank-major move lists — so emission stays deterministic,
        // and `apply_deltas` sorts the owner log, so it never depended on
        // scan order either.
        let mut total_move = 0.0;
        let mut moved = 0usize;
        let mut new_energy = 0.0;
        scratch.mig_pairs.clear();
        for st in &scratch.disp {
            new_energy += st.energy;
            for &(v, np, dnorm, crossed) in &st.moves {
                total_move += dnorm;
                coords[v as usize] = np;
                moved += 1;
                if crossed == 0 {
                    continue;
                }
                let oc = scratch.owner[v as usize];
                let nc = cell_of(np, &lattice);
                if nc != oc {
                    if !scratch.adj[oc as usize * ncells + nc as usize] {
                        scratch.mig_pairs.push((oc, nc));
                    }
                    scratch.deltas.push((v, oc, nc));
                    let (ro, rn) = (oc as usize * ncells, nc as usize * ncells);
                    for &u in g.neighbors(v) {
                        let cu = scratch.owner[u as usize] as usize;
                        scratch.cross[ro + cu] -= 1;
                        scratch.cross[rn + cu] += 1;
                        scratch.cross[cu * ncells + oc as usize] -= 1;
                        scratch.cross[cu * ncells + nc as usize] += 1;
                    }
                    scratch.owner[v as usize] = nc;
                    stats.migrations += 1;
                }
            }
        }
        stats.final_move = if moved > 0 {
            total_move / moved as f64 / params.k
        } else {
            0.0
        };
        scratch.mig_pairs.sort_unstable();
        for o in &mut scratch.outbox {
            o.clear();
        }
        let mut i = 0;
        while i < scratch.mig_pairs.len() {
            let (from, to) = scratch.mig_pairs[i];
            let mut cnt = 0usize;
            while i < scratch.mig_pairs.len() && scratch.mig_pairs[i] == (from, to) {
                cnt += 1;
                i += 1;
            }
            scratch.outbox[from as usize].push((to as usize, CostOnly::new(3 * cnt)));
        }
        machine.exchange_costed(&scratch.outbox);
        // Owned lists pick up this iteration's owner changes (block
        // refresh + migrations) only now: mid-iteration they must stay
        // stale, exactly like the per-iteration rebuild they replace.
        scratch.apply_deltas();

        // Hu's adaptive step control on the global energy (the global
        // reduction this needs is the per-block reduction already charged).
        if new_energy < energy {
            progress += 1;
            if progress >= 5 {
                progress = 0;
                step = (step / t_ratio).min(max_step);
            }
        } else {
            progress = 0;
            step *= t_ratio;
        }
        energy = new_energy;
        if step < 0.005 * params.k {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::edge_length_stats;
    use crate::seq::random_init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::grid_2d;
    use sp_machine::CostModel;

    fn setup(n_side: usize, q: usize) -> (Graph, Vec<Point2>, Machine) {
        let g = grid_2d(n_side, n_side);
        let mut rng = StdRng::seed_from_u64(3);
        let coords = random_init(g.n(), &mut rng);
        let m = Machine::new(q * q, CostModel::qdr_infiniband());
        (g, coords, m)
    }

    #[test]
    fn smoothing_improves_edge_uniformity() {
        let (g, mut coords, mut m) = setup(16, 2);
        let before = edge_length_stats(&g, &coords);
        lattice_smooth(
            &g,
            &mut coords,
            2,
            &mut m,
            &LatticeConfig {
                iters: 60,
                step0: 0.8,
                cooling: 0.97,
                ..Default::default()
            },
        );
        let after = edge_length_stats(&g, &coords);
        assert!(
            after.mean < before.mean,
            "mean {} -> {}",
            before.mean,
            after.mean
        );
        assert!(coords.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn charges_compute_and_communication() {
        let (g, mut coords, mut m) = setup(12, 2);
        lattice_smooth(&g, &mut coords, 2, &mut m, &LatticeConfig::default());
        assert!(m.comp_time() > 0.0);
        assert!(m.comm_time() > 0.0);
    }

    #[test]
    fn block_size_reduces_communication() {
        let (g, coords0, _) = setup(16, 3);
        let mut comm = Vec::new();
        for block in [1usize, 8] {
            let mut coords = coords0.clone();
            let mut m = Machine::new(9, CostModel::qdr_infiniband());
            lattice_smooth(
                &g,
                &mut coords,
                3,
                &mut m,
                &LatticeConfig {
                    iters: 16,
                    block,
                    ..Default::default()
                },
            );
            comm.push(m.comm_time());
        }
        assert!(
            comm[1] < comm[0],
            "blocked comm {} should beat per-iteration {}",
            comm[1],
            comm[0]
        );
    }

    #[test]
    fn single_cell_lattice_works() {
        let (g, mut coords, mut m) = setup(8, 1);
        let s = lattice_smooth(&g, &mut coords, 1, &mut m, &LatticeConfig::default());
        assert!(coords.iter().all(|c| c.is_finite()));
        assert_eq!(s.migrations, 0); // one cell: nothing to migrate to
    }

    #[test]
    fn deterministic() {
        let (g, coords0, _) = setup(10, 2);
        let mut a = coords0.clone();
        let mut b = coords0.clone();
        let mut ma = Machine::new(4, CostModel::qdr_infiniband());
        let mut mb = Machine::new(4, CostModel::qdr_infiniband());
        lattice_smooth(&g, &mut a, 2, &mut ma, &LatticeConfig::default());
        lattice_smooth(&g, &mut b, 2, &mut mb, &LatticeConfig::default());
        assert_eq!(a, b);
        assert_eq!(ma.elapsed(), mb.elapsed());
    }

    #[test]
    fn trace_output_is_byte_identical_across_runs() {
        // Regression: halo and migration batches used to be emitted in
        // HashMap iteration order, which differs between executions (std
        // HashMaps are randomly seeded), so two --trace runs of the same
        // input produced different traces. Batches are now keyed by sorted
        // destination, making the full event stream reproducible.
        use sp_machine::TraceRecorder;
        let run = || {
            let (g, mut coords, mut m) = setup(12, 2);
            m.set_recorder(Box::new(TraceRecorder::new(4)));
            lattice_smooth(&g, &mut coords, 2, &mut m, &LatticeConfig::default());
            let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
            rec.chrome_trace()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // lattice_smooth_with must behave identically on a scratch that
        // just served a different-sized run.
        let (g, coords0, _) = setup(14, 2);
        let mut scratch = SmoothScratch::new();
        {
            // Warm the scratch on another graph and lattice size.
            let (g2, mut c2, mut m2) = setup(9, 3);
            lattice_smooth_with(
                &g2,
                &mut c2,
                3,
                &mut m2,
                &LatticeConfig::default(),
                &mut scratch,
            );
        }
        let mut a = coords0.clone();
        let mut b = coords0.clone();
        let mut ma = Machine::new(4, CostModel::qdr_infiniband());
        let mut mb = Machine::new(4, CostModel::qdr_infiniband());
        lattice_smooth_with(
            &g,
            &mut a,
            2,
            &mut ma,
            &LatticeConfig::default(),
            &mut scratch,
        );
        lattice_smooth(&g, &mut b, 2, &mut mb, &LatticeConfig::default());
        assert_eq!(a, b);
        assert_eq!(ma.elapsed(), mb.elapsed());
    }

    #[test]
    fn quantile_build_matches_full_sort_reference() {
        // Selection must give bit-identical cuts to the sort it replaced.
        let mut rng = StdRng::seed_from_u64(21);
        let pts = random_init(2500, &mut rng);
        for q in [1usize, 2, 3, 5, 8] {
            let lat = QuantileLattice::build(&pts, q);
            let n = pts.len();
            let mut xs: Vec<f64> = pts.iter().map(|c| c.x).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let want: Vec<f64> = (1..q).map(|k| xs[(k * n / q).min(n - 1)]).collect();
            assert_eq!(lat.xcuts, want, "q={q}");
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); q];
            for c in &pts {
                let i = lat.xcuts.partition_point(|&cut| c.x >= cut);
                cols[i].push(c.y);
            }
            for (i, mut ys) in cols.into_iter().enumerate() {
                if ys.is_empty() {
                    continue;
                }
                ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let m = ys.len();
                let want: Vec<f64> = (1..q).map(|k| ys[(k * m / q).min(m - 1)]).collect();
                assert_eq!(lat.ycuts[i], want, "q={q} col={i}");
            }
        }
        // Duplicate-heavy input exercises the repeated-index path.
        let dup: Vec<Point2> = (0..64).map(|i| Point2::new((i % 4) as f64, 1.0)).collect();
        let lat = QuantileLattice::build(&dup, 8);
        let mut xs: Vec<f64> = dup.iter().map(|c| c.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let want: Vec<f64> = (1..8).map(|k| xs[(k * 64 / 8).min(63)]).collect();
        assert_eq!(lat.xcuts, want);
    }

    #[test]
    fn clamp_far_lands_in_adjacent_cell() {
        // Uniform point cloud → quantile lattice ≈ uniform grid.
        let mut rng = StdRng::seed_from_u64(4);
        let pts = random_init(4000, &mut rng);
        let lat = QuantileLattice::build(&pts, 4);
        // my cell (0,0) = 0; ghost cell (3,3) = 15; clamped into (1,1).
        let far = Point2::new(lat.bbox().max.x - 1e-6, lat.bbox().max.y - 1e-6);
        let p = clamp_far(&lat, 0, 15, far);
        assert_eq!(lat.cell_of(p), (1, 1));
    }

    /// `clamp_far` as it was written when every far edge computed its own
    /// target box: the oracle for the nine boxes.
    fn clamp_far_per_edge(
        lattice: &QuantileLattice,
        my_cell: usize,
        ghost_cell: usize,
        pos: Point2,
    ) -> Point2 {
        let q = lattice.q();
        let (mi, mj) = (my_cell % q, my_cell / q);
        let (gi, gj) = (ghost_cell % q, ghost_cell / q);
        let ai = (mi as i64 + (gi as i64 - mi as i64).signum()).clamp(0, q as i64 - 1) as usize;
        let aj = (mj as i64 + (gj as i64 - mj as i64).signum()).clamp(0, q as i64 - 1) as usize;
        let cell = lattice.cell_box(ai, aj);
        let p = cell.clamp(pos);
        let ex = cell.width() * 1e-9;
        let ey = cell.height() * 1e-9;
        Point2::new(
            p.x.clamp(cell.min.x + ex, (cell.max.x - ex).max(cell.min.x)),
            p.y.clamp(cell.min.y + ey, (cell.max.y - ey).max(cell.min.y)),
        )
    }

    #[test]
    fn far_table_clamps_bit_for_bit_like_the_per_edge_clamp() {
        let mut rng = StdRng::seed_from_u64(17);
        for q in [2usize, 3, 4, 8] {
            let pts = random_init(40 * q * q, &mut rng);
            let lat = QuantileLattice::build(&pts, q);
            let mut scratch = SmoothScratch::new();
            scratch.reset(pts.len(), q, q * q);
            let mut pairs = 0;
            for my in 0..q * q {
                let table = FarTable::new(&lat, my % q, my / q);
                // Around each cell a clamp of this one can target: outside
                // it, on its sides, one ulp off them, and inside.
                let mut probes = Vec::new();
                for dj in 0..3 {
                    for di in 0..3 {
                        let i = (my % q + di).saturating_sub(1).min(q - 1);
                        let j = (my / q + dj).saturating_sub(1).min(q - 1);
                        let b = lat.cell_box(i, j);
                        let along = |lo: f64, hi: f64| {
                            let mid = 0.5 * (lo + hi);
                            [
                                lo - 1.0,
                                lo.next_down(),
                                lo,
                                mid,
                                hi,
                                hi.next_up(),
                                hi + 1.0,
                            ]
                        };
                        for x in along(b.min.x, b.max.x) {
                            for y in along(b.min.y, b.max.y) {
                                probes.push(Point2::new(x, y));
                            }
                        }
                    }
                }
                for ghost in (0..q * q).filter(|&c| !cell_adjacent(q, my, c)) {
                    pairs += 1;
                    for &pos in &probes {
                        let want = clamp_far_per_edge(&lat, my, ghost, pos);
                        for got in [
                            table.clamp(scratch.cell_ij[ghost], pos),
                            clamp_far(&lat, my, ghost, pos),
                        ] {
                            assert_eq!(
                                (got.x.to_bits(), got.y.to_bits()),
                                (want.x.to_bits(), want.y.to_bits()),
                                "q {q}, cell {my}, ghost in {ghost}, at {pos:?}"
                            );
                        }
                    }
                }
            }
            // Every pair but a cell with itself and its (≤ 4) neighbours.
            assert_eq!(pairs, q * q * q * q - q * q - 4 * q * (q - 1), "q {q}");
        }
    }

    #[test]
    fn quantile_lattice_balances_occupancy() {
        let mut rng = StdRng::seed_from_u64(9);
        // A very skewed cloud: dense blob plus sparse halo.
        let mut pts = random_init(3000, &mut rng);
        for p in pts.iter_mut().take(2500) {
            *p = *p * 0.05; // dense corner blob
        }
        let lat = QuantileLattice::build(&pts, 4);
        let occ = lat.occupancy(&pts);
        let max = *occ.iter().max().unwrap();
        let min = *occ.iter().min().unwrap();
        assert!(max <= 2 * (3000 / 16), "max occupancy {max}");
        assert!(min >= (3000 / 16) / 2, "min occupancy {min}");
    }

    #[test]
    fn cell_box_contains_its_points() {
        let mut rng = StdRng::seed_from_u64(11);
        let pts = random_init(1000, &mut rng);
        let lat = QuantileLattice::build(&pts, 3);
        for &p in &pts {
            let (i, j) = lat.cell_of(p);
            assert!(lat.cell_box(i, j).contains(p), "{p:?} not in its cell box");
        }
    }

    #[test]
    fn adjacency_predicate() {
        // The paper's rule: the *four* L1-distance-1 boxes are neighbours;
        // diagonals are far (block-stale data only).
        let q = 3;
        assert!(cell_adjacent(q, 0, 1));
        assert!(cell_adjacent(q, 0, 3));
        assert!(!cell_adjacent(q, 0, 4)); // diagonal is far
        assert!(!cell_adjacent(q, 0, 2));
        assert!(!cell_adjacent(q, 0, 8));
        assert!(cell_adjacent(q, 4, 4));
    }
}
