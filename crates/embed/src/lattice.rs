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

use crate::force::{ForceParams, C, COOLING};
use sp_geometry::{Aabb2, Point2};
use sp_graph::Graph;
use sp_machine::{pool, CostOnly, Machine};

/// Controls for lattice smoothing.
#[derive(Clone, Copy, Debug)]
pub struct LatticeConfig {
    /// Maximum smoothing iterations (the run stops earlier once the
    /// adaptive step has cooled below 0.5% of K).
    pub iters: usize,
    /// Iterations per global refresh (the paper's 2–8; 1 disables
    /// staleness and is the ablation baseline).
    pub block: usize,
    /// Initial step as a fraction of `K`.
    pub step0: f64,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig {
            iters: 60,
            block: 4,
            step0: 0.5,
        }
    }
}

/// Statistics returned by a smoothing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatticeStats {
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
        let pooled = coords.len() >= MIN_POOLED;
        let mut xs: Vec<f64> = coords.iter().map(|c| c.x).collect();
        if xs.is_empty() {
            xs.push(0.0);
        }
        let xcuts = quantile_cuts(&mut xs, n, q, pooled);
        // Freed before the column lists grow: the two never coexist.
        drop(xs);
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); q];
        for c in coords {
            let i = xcuts.partition_point(|&cut| c.x >= cut);
            cols[i].push(c.y);
        }
        // One column a piece: the columns are disjoint, and each piece
        // writes only its own column's cuts.
        let mut ycuts = vec![Vec::new(); q];
        pool::each_if(pooled, cols.iter_mut().zip(&mut ycuts), |_, (ys, cuts)| {
            *cuts = if ys.is_empty() {
                // Empty column (duplicate-heavy input): uniform rows.
                let h = bbox.height() / q as f64;
                (1..q).map(|k| bbox.min.y + h * k as f64).collect()
            } else {
                let m = ys.len();
                quantile_cuts(ys, m, q, false)
            };
        });
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
/// found by selection instead of a full sort — O(n log q) against
/// O(n log n) — and bit-identical to indexing the fully sorted array (the
/// value at a sorted position does not depend on how the rest of the array
/// is ordered). `pooled` selects the two sides of the middle cut on the
/// pool.
fn quantile_cuts(vals: &mut [f64], count: usize, q: usize, pooled: bool) -> Vec<f64> {
    let last = vals.len() - 1;
    let idx: Vec<usize> = (1..q).map(|k| (k * count / q).min(last)).collect();
    let mut cuts = vec![0.0; idx.len()];
    select_at(vals, 0, &idx, &mut cuts, pooled);
    cuts
}

/// Set `cuts[k]` to the value at sorted position `idx[k]` (ascending) of
/// the array whose positions `base..` `vals` holds: select the middle
/// index, then the indices below it in the left side and those above it
/// in the right side, the two sides on the pool when `pooled`.
fn select_at(vals: &mut [f64], base: usize, idx: &[usize], cuts: &mut [f64], pooled: bool) {
    let Some(&mid) = idx.get(idx.len() / 2) else {
        return;
    };
    let (left, v, right) =
        vals.select_nth_unstable_by(mid - base, |a, b| a.partial_cmp(b).unwrap());
    // Repeated indices (more cuts than distinct positions) share the value.
    let lo = idx.partition_point(|&i| i < mid);
    let hi = idx.partition_point(|&i| i <= mid);
    cuts[lo..hi].fill(*v);
    let (cuts_left, cuts_right) = cuts.split_at_mut(lo);
    let sides = [
        (left, base, &idx[..lo], cuts_left),
        (right, mid + 1, &idx[hi..], &mut cuts_right[hi - lo..]),
    ];
    pool::each_if(pooled, sides, |_, (vals, base, idx, cuts)| {
        select_at(vals, base, idx, cuts, false)
    });
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

/// Vertices per block of the force superstep: after the whole-cell β pass,
/// a rank gathers, pushes, attracts and moves one block of its owned
/// vertices at a time, so every per-vertex force buffer holds one block
/// (all seven near-field streams of a block stay L1-resident across the 16
/// lane passes) rather than one cell.
const NF_BLOCK: usize = 512;

/// Vertices a smoothing run must have before its host passes between
/// supersteps — owner assignment, the set-up rows of `cross`, coordinate
/// stores, snapshot copies, quantile selects — go to the pool; smaller
/// runs do them inline, with no dispatch. (The owned-list group-by and
/// `sync_cross` always run on the caller.) Measured on a 2-vCPU host, ten
/// iterations of a jittered grid on a 4×4 / 8×8 lattice, best of 25, per
/// iteration with the passes pooled against inline: 8,100 vertices
/// 0.70 / 0.77 ms on 8×8 but 1.55 / 0.91 ms on 4×4; 16,384 vertices
/// 1.31 / 1.17 ms and 1.42 / 1.67 ms; 24,336 vertices 1.49 / 1.76 ms and
/// 2.04 / 2.40 ms. Below about 16 k the dispatches do not pay, so the
/// floor sits above that, and above the 128×128 grid (16,384 vertices)
/// that `sp-serve`'s misses partition.
const MIN_POOLED: usize = 20_000;

/// Vertices a piece of the chunked passes (owner assignment, snapshot
/// copy, coordinate stores) covers.
const CHUNK: usize = 1 << 14;

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
///
/// The caller passes one block (at most [`NF_BLOCK`] vertices).
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
    // One length for every stream, so the lane loop needs no bounds checks.
    let len = cvx.len();
    let (cx, cy) = (&cvx[..len], &cvy[..len]);
    let m = &cm[..len];
    let mk = &cmk[..len];
    let sb = &subidx[..len];
    let gx = &mut fx[..len];
    let gy = &mut fy[..len];
    for si in 0..NSUB {
        let sxs = sx[si];
        let sys = sy[si];
        let sms = sm[si];
        // An empty lane contributes `-0.0` to every vertex (own-lane
        // masses are nonnegative, so `keep` is false throughout) — the
        // additive identity. Skipping the pass changes no bits.
        if sms == 0.0 {
            continue;
        }
        let siu = si as u8;
        for i in 0..len {
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

/// Per-rank state of the force superstep. It makes one pass over the
/// whole cell for the sub-lattice indices and the 4×4 β, then runs every
/// later stage — gather, near field, attraction, displacement tail,
/// migration detection — over one block of at most [`NF_BLOCK`] owned
/// vertices at a time. So `newpos` and `subidx` are cell-sized, and every
/// force buffer after them holds one block: about 42 KB a rank, whatever
/// the cell size. Every pass writes only its own rank's state.
#[derive(Clone, Debug, Default)]
struct DispState {
    /// New position of every owned vertex, in owned order (a vertex whose
    /// force is too small to move it keeps its position): the apply pass
    /// stores them into the coordinates one chunk of vertices at a time.
    newpos: Vec<Point2>,
    energy: f64,
    /// Migrations `(v, from, to)`: moved vertices whose new position left
    /// their owner's cell, in owned order, with the new cell computed in
    /// the superstep. `from` is this rank except after a block refresh,
    /// when a vertex still on this rank's stale list may already belong to
    /// another cell. Not rare: 3.5–7 % of the moves at the finest level of
    /// a 1024×512 grid migrate.
    migs: Vec<(u32, u32, u32)>,
    /// Sub-lattice index of every owned vertex, from the whole-cell pass.
    subidx: Vec<u8>,
    /// The block's coordinates and masses, gathered contiguous (struct of
    /// arrays) so the near-field passes stream them with vector loads.
    cvx: Vec<f64>,
    cvy: Vec<f64>,
    cm: Vec<f64>,
    /// Hoisted near-field products `C·K²·m_v` (lane passes reread the
    /// product instead of redoing the multiply ×16).
    cmk: Vec<f64>,
    /// Force accumulators (x and y lanes).
    fx: Vec<f64>,
    fy: Vec<f64>,
    /// Displacement-tail scratch: force norms, step scales, moved
    /// positions, and cell-crossing flags.
    nrm: Vec<f64>,
    scl: Vec<f64>,
    npx: Vec<f64>,
    npy: Vec<f64>,
    crx: Vec<u8>,
}

/// Reusable working state for [`lattice_smooth_with`]: owners, per-cell
/// owned vertex lists (regrouped from `owner` at the end of every
/// iteration), the cross-count matrix, the cell-adjacency lookup table,
/// per-rank β/cross-edge scan and force states, and cost-only outboxes.
/// One scratch serves any number of smoothing runs (the multilevel driver
/// reuses one across levels); its buffers are sized on entry and reused.
/// What the smoothing loop still allocates is the lattice: every block
/// refresh builds a new [`QuantileLattice`], whose construction allocates
/// an x-value copy of the coordinates, the per-column y-value lists and
/// the cut vectors, and frees the previous lattice's cuts. Between
/// refreshes the loop allocates only when a list outgrows its capacity.
#[derive(Default)]
pub struct SmoothScratch {
    /// Current owner cell of each vertex.
    owner: Vec<u32>,
    /// The owners `cross` counts: `owner` as it stood at the last
    /// [`SmoothScratch::sync_cross`].
    counted: Vec<u32>,
    /// Vertices whose `owner` differs from `counted`, ascending: what the
    /// next `sync_cross` moves.
    changed: Vec<u32>,
    /// Per-cell owned vertices, ascending: at the top of every iteration,
    /// `owned[c]` holds exactly the `v` with `owner[v] == c` (β accumulates
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
    /// `counted[v] == a` and `counted[u] == b` (the diagonal holds
    /// intra-cell counts and is simply never read): right after every
    /// [`SmoothScratch::sync_cross`], the recount from `owner`. Counted at
    /// set-up and written after that only by `sync_cross`; consulted by
    /// the β scan (halo batch sizes) and the block refresh (far totals) in
    /// O(ncells) per rank instead of an O(m) edge walk per iteration.
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
    /// Per-rank force-superstep states, reused across iterations.
    disp: Vec<DispState>,
    /// Cost-only outbox, shared by the halo and migration exchanges.
    outbox: Vec<Vec<(usize, CostOnly)>>,
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
        self.owner.resize(n, 0);
        self.changed.clear();
        self.owned.resize_with(ncells, Vec::new);
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
        self.snapshot.resize(n, Point2::ZERO);
        self.far.clear();
        self.far.resize(p, 0);
        self.disp.resize_with(p, Default::default);
        for d in &mut self.disp {
            d.newpos.clear();
            d.energy = 0.0;
            d.migs.clear();
            d.subidx.clear();
            for buf in [
                &mut d.cvx, &mut d.cvy, &mut d.cm, &mut d.cmk, &mut d.fx, &mut d.fy, &mut d.nrm,
                &mut d.scl, &mut d.npx, &mut d.npy,
            ] {
                buf.resize(NF_BLOCK, 0.0);
            }
            d.crx.resize(NF_BLOCK, 0);
        }
        self.outbox.resize_with(p, Vec::new);
        for o in &mut self.outbox {
            o.clear();
        }
        self.mig_pairs.clear();
    }

    /// Set-up: owners, owned lists and `cross` for `lattice`, each cell's
    /// row of `cross` counted from its own list on the pool.
    fn assign(&mut self, g: &Graph, coords: &[Point2], lattice: &QuantileLattice) {
        self.assign_owners(coords, lattice);
        self.counted.clone_from(&self.owner);
        self.group_owned();
        let ncells = self.owned.len();
        let owner = &self.owner;
        let rows = self.cross.chunks_mut(ncells).zip(&self.owned);
        pool::each_if(g.n() >= MIN_POOLED, rows, |_, (row, mine)| {
            for &v in mine {
                for &u in g.neighbors(v) {
                    row[owner[u as usize] as usize] += 1;
                }
            }
        });
    }

    /// Every owner from `lattice`, one chunk of vertices a piece: at set-up
    /// and at every block refresh.
    fn assign_owners(&mut self, coords: &[Point2], lattice: &QuantileLattice) {
        let q = lattice.q();
        let chunks = self.owner.chunks_mut(CHUNK).zip(coords.chunks(CHUNK));
        pool::each_if(coords.len() >= MIN_POOLED, chunks, |_, (owners, points)| {
            for (o, &p) in owners.iter_mut().zip(points) {
                let (i, j) = lattice.cell_of_fast(p);
                *o = (j * q + i) as u32;
            }
        });
    }

    /// The owned lists as a group-by of `owner`, each ascending, and, in
    /// the same scan, every vertex whose owner differs from `counted`.
    fn group_owned(&mut self) {
        for list in &mut self.owned {
            list.clear();
        }
        for (v, (&c, &was)) in self.owner.iter().zip(&self.counted).enumerate() {
            self.owned[c as usize].push(v as u32);
            if c != was {
                self.changed.push(v as u32);
            }
        }
    }

    /// Move `cross` from the owners in `counted` to those in `owner`, for
    /// the vertices in `changed`. A changed `v`'s edge `v→u` moves from
    /// `(counted[v], counted[u])` to `(owner[v], owner[u])`, and so does
    /// `u→v` (with the ends swapped) when `u` did not change; when `u` did,
    /// `u→v` moves as `u`'s own edge. So every directed edge with a changed
    /// end moves exactly once, from where it was counted to where a recount
    /// from `owner` puts it.
    fn sync_cross(&mut self, g: &Graph) {
        let ncells = self.owned.len();
        let (owner, counted, cross) = (&self.owner, &mut self.counted, &mut self.cross);
        for &v in &self.changed {
            let (a0, a1) = (counted[v as usize] as usize, owner[v as usize] as usize);
            for &u in g.neighbors(v) {
                let (b0, b1) = (counted[u as usize] as usize, owner[u as usize] as usize);
                cross[a0 * ncells + b0] -= 1;
                cross[a1 * ncells + b1] += 1;
                if b0 == b1 {
                    cross[b0 * ncells + a0] -= 1;
                    cross[b1 * ncells + a1] += 1;
                }
            }
        }
        for &v in &self.changed {
            counted[v as usize] = owner[v as usize];
        }
        self.changed.clear();
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
    let params = ForceParams::for_domain(C, bbox.width() * bbox.height(), n);
    let mut step = cfg.step0 * params.k;
    let max_step = 3.0 * params.k;
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
        machine.group_allreduce_sum(ncells, q);
    }
    let cell_of = |p: Point2, lattice: &QuantileLattice| -> u32 {
        let (i, j) = lattice.cell_of_fast(p);
        (j * q + i) as u32
    };
    scratch.reset(n, q, p);
    scratch.assign(g, coords, &lattice);
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
        machine.exchange(&scratch.outbox);
        if it % cfg.block.max(1) == 0 {
            let far_total: usize = if it > 0 {
                // Re-derive the balanced lattice from the current layout,
                // reassign every owner and move `cross` to match (the owned
                // lists stay stale until the end of the iteration), and
                // charge the quantile computation (n/P ops + one
                // collective). The far total is then a row sum over
                // `cross` for the refreshed owners.
                lattice = QuantileLattice::build(coords, q);
                scratch.assign_owners(coords, &lattice);
                let (owner, counted) = (&scratch.owner, &scratch.counted);
                let moved = (0..n as u32).filter(|&v| owner[v as usize] != counted[v as usize]);
                scratch.changed.extend(moved);
                scratch.sync_cross(g);
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
                machine.group_allreduce_sum(ncells, q);
                scratch.far[..ncells].iter().sum()
            } else {
                scratch.scan[..ncells].iter().map(|s| s.far).sum()
            };
            // Global refresh payload: per cell, β (3 words) plus 2 words
            // per far cross-edge coordinate (the paper's ñ).
            machine.group_allgather(ncells, 3 * ncells + 2 * far_total);
            machine.group_allreduce_sum(ncells, 1);
            let chunks = scratch.snapshot.chunks_mut(CHUNK).zip(coords.chunks(CHUNK));
            pool::each_if(n >= MIN_POOLED, chunks, |_, (stale, fresh)| {
                stale.copy_from_slice(fresh)
            });
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
            // The cell-sized buffers grow here, on the caller, and not on
            // whichever thread claims the rank.
            for (st, mine) in scratch.disp.iter_mut().zip(&scratch.owned) {
                st.newpos.clear();
                st.newpos.reserve(mine.len());
                st.subidx.clear();
                st.subidx.reserve(mine.len());
            }
            machine.compute(&mut scratch.disp, |r, state| {
                let DispState {
                    newpos,
                    energy,
                    migs,
                    subidx,
                    cvx,
                    cvy,
                    cm,
                    cmk,
                    fx,
                    fy,
                    nrm,
                    scl,
                    npx,
                    npy,
                    crx,
                    ..
                } = state;
                newpos.clear();
                migs.clear();
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
                // The one pass over the whole cell: each owned vertex's
                // sub-lattice index, replicating `my_box.cell_of(SUB, c)`
                // arithmetic exactly (same width/height guards, same
                // divide-multiply-truncate-clamp sequence), and the
                // sub-lattice β folded in owned order.
                let (bw, bh) = (my_box.width(), my_box.height());
                let (bx, by) = (my_box.min.x, my_box.min.y);
                let mut sub = [Beta::default(); NSUB];
                subidx.clear();
                subidx.extend(mine.iter().map(|&v| {
                    let c = coords_ref[v as usize];
                    let fxn = if bw > 0.0 { (c.x - bx) / bw } else { 0.0 };
                    let fyn = if bh > 0.0 { (c.y - by) / bh } else { 0.0 };
                    let si = ((fxn * SUB as f64) as isize).clamp(0, SUB as isize - 1) as usize;
                    let sj = ((fyn * SUB as f64) as isize).clamp(0, SUB as isize - 1) as usize;
                    let k = sj * SUB + si;
                    let m = g.vwgt(v);
                    sub[k].mu += m;
                    sub[k].phi += c * m;
                    k as u8
                }));
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
                let far = FarTable::new(lattice_ref, my % q, my / q);
                // The own cell's cuts, for the crossing test below.
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
                // Every later stage runs one block at a time, so the
                // force buffers hold one block, not one cell. Blocking
                // moves no bit: a vertex's force depends only on its own
                // terms (inherited·m, then lanes 0..16, then its edges in
                // row order), and energy and moves fold in owned order,
                // block after block.
                let mut nedges = 0usize;
                for (bi, blk) in mine.chunks(NF_BLOCK).enumerate() {
                    let len = blk.len();
                    let sb = &subidx[bi * NF_BLOCK..][..len];
                    let cvx = &mut cvx[..len];
                    let cvy = &mut cvy[..len];
                    let cm = &mut cm[..len];
                    let cmk = &mut cmk[..len];
                    let fx = &mut fx[..len];
                    let fy = &mut fy[..len];
                    // Gather the block's coordinates and masses into
                    // contiguous arrays: the passes below stream them with
                    // vector loads instead of chasing `blk` indirections.
                    // The force accumulators seed from the inherited
                    // repulsion scaled by vertex mass, and the near-field
                    // product `C·K²·m_v` is hoisted so the 16 lane passes
                    // reread it instead of redoing the multiply.
                    for (i, &v) in blk.iter().enumerate() {
                        let c = coords_ref[v as usize];
                        let m = g.vwgt(v);
                        cvx[i] = c.x;
                        cvy[i] = c.y;
                        cm[i] = m;
                        cmk[i] = ckk * m;
                        fx[i] = inherited.x * m;
                        fy[i] = inherited.y * m;
                    }
                    near_field_passes(cvx, cvy, cm, cmk, sb, &sx, &sy, &sm, fx, fy);
                    // Attraction over edges with the freshness rules,
                    // folded onto the accumulated near-field forces in
                    // vertex order. This loop stays fused and scalar by
                    // measurement: the per-edge owner/coordinate gathers
                    // bound it, not the sqrt/div (out-of-order execution
                    // overlaps the next edge's loads with the current
                    // edge's root), and both split variants tried —
                    // whole-edge-list passes and L1-blocked chunks — lost
                    // more to per-edge buffer traffic and bookkeeping than
                    // packed arithmetic saved. Edge charges are counted in
                    // an integer and added to `ops` once — the same exact
                    // sum as `+= 1.0` per edge, without threading a serial
                    // f64 dependency chain through the hot loop.
                    for (vi, &v) in blk.iter().enumerate() {
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
                    // Displacement tail, split so the norms (`(x² +
                    // y²).sqrt()`, exactly `Point2::norm`) and step scales
                    // run as vectorizable passes with packed sqrt/div; the
                    // scalar pass keeps the energy accumulation and move
                    // emission in vertex order. A zero norm makes `step /
                    // norm` infinite, but such entries fail the `norm >
                    // 1e-12` gate and are never read.
                    let nrm = &mut nrm[..len];
                    let scl = &mut scl[..len];
                    for i in 0..len {
                        nrm[i] = (fx[i] * fx[i] + fy[i] * fy[i]).sqrt();
                    }
                    for i in 0..len {
                        scl[i] = step / nrm[i];
                    }
                    // Moved positions and cell-crossing flags as one more
                    // packed pass. The products are the reference's per-move
                    // expressions — `d.x` as `f.x · scale`, `np` as
                    // `coords[v] + d` (`cvx` *is* `coords[v].x`: nothing
                    // writes coordinates between the gather and the apply
                    // of the same iteration). The crossing test makes the
                    // comparisons that `QuantileLattice::cell_of` counts, with
                    // the own cell's cuts as lane constants: the point is
                    // outside the cell exactly when `cell_of` names another.
                    let npx = &mut npx[..len];
                    let npy = &mut npy[..len];
                    let crx = &mut crx[..len];
                    for i in 0..len {
                        let dx = fx[i] * scl[i];
                        let dy = fy[i] * scl[i];
                        let nx = cvx[i] + dx;
                        let ny = cvy[i] + dy;
                        npx[i] = nx;
                        npy[i] = ny;
                        // Non-short-circuit `&`/`|` on the bools: the
                        // comparisons are side-effect-free, so the truth
                        // table is that of `&&`/`||`, compiled to
                        // branchless masks.
                        let out_x = ((ci > 0) & (nx < xlo)) | ((ci + 1 < q) & (nx >= xhi));
                        let in_y = ((cj == 0) | (ny >= ylo)) & ((cj + 1 >= q) | (ny < yhi));
                        crx[i] = (out_x | !in_y) as u8;
                    }
                    if refreshed {
                        // A block refresh rewrites `owner` mid-iteration
                        // while this rank's owned list stays stale until
                        // `SmoothScratch::group_owned` at the end of the
                        // iteration, so a just-flipped vertex is still in
                        // `mine` with `owner[v] != my`. Its crossing test
                        // above used the wrong cell's bounds: force the flag
                        // on so the migration test below runs the full
                        // `cell_of` path against the true owner. On every
                        // other iteration `owner[v] == my` for all of `mine`
                        // and the packed flags are exact as computed.
                        let myu = my as u32;
                        for (i, &v) in blk.iter().enumerate() {
                            crx[i] |= (owner_ref[v as usize] != myu) as u8;
                        }
                    }
                    // Energy in owned order, new positions, and migration
                    // detection: a vertex's cell can only change if it
                    // moved, and at the top of the iteration `owner[v]`
                    // matches `cell_of(coords[v])` for every vertex (initial
                    // assignment, block refreshes and prior migrations all
                    // enforce it), so the crossing movers are every possible
                    // migration. `cross` follows at the end of the iteration.
                    for (vi, &v) in blk.iter().enumerate() {
                        let norm = nrm[vi];
                        *energy += norm * norm;
                        // A force too small to move the vertex leaves it
                        // where it is, and in its cell.
                        let moves = norm > 1e-12;
                        let np = if moves {
                            Point2::new(npx[vi], npy[vi])
                        } else {
                            Point2::new(cvx[vi], cvy[vi])
                        };
                        newpos.push(np);
                        if !moves || crx[vi] == 0 {
                            continue;
                        }
                        let from = owner_ref[v as usize];
                        let to = cell_of(np, lattice_ref);
                        if to != from {
                            migs.push((v, from, to));
                        }
                    }
                }
                // Charges: one op a vertex for the whole-cell pass, 16 for
                // the lanes, two for the tail, and one an edge.
                ops += nmine as f64;
                ops += (NSUB * nmine) as f64;
                ops += (2 * nmine) as f64;
                ops += nedges as f64;
                ops
            });
        }

        // --- Apply moves (owned vertices only — ghosts are by construction
        // other ranks' owned vertices and move on their own ranks). Energy
        // folds in rank order. The coordinate stores run one chunk of
        // vertices a piece on the pool: every owned list is ascending, so a
        // chunk's vertices in a list are one run, found by two binary
        // searches, and every vertex is in exactly one list. The owner
        // stores follow on the caller in rank order, with the far pairs of
        // the migration exchange. Migration batches are keyed by sorted
        // (from, to) pairs, not discovery order, so emission stays
        // deterministic.
        let mut new_energy = 0.0;
        for st in &scratch.disp {
            new_energy += st.energy;
        }
        {
            let owned = &scratch.owned;
            let disp = &scratch.disp;
            pool::each_if(n >= MIN_POOLED, coords.chunks_mut(CHUNK), |k, chunk| {
                let lo = (k * CHUNK) as u32;
                let hi = lo + chunk.len() as u32;
                for (mine, st) in owned.iter().zip(disp) {
                    let a = mine.partition_point(|&v| v < lo);
                    let b = a + mine[a..].partition_point(|&v| v < hi);
                    for (&v, &np) in mine[a..b].iter().zip(&st.newpos[a..b]) {
                        chunk[(v - lo) as usize] = np;
                    }
                }
            });
        }
        scratch.mig_pairs.clear();
        for st in &scratch.disp[..ncells] {
            for &(v, from, to) in &st.migs {
                scratch.owner[v as usize] = to;
                if !scratch.adj[from as usize * ncells + to as usize] {
                    scratch.mig_pairs.push((from, to));
                }
            }
            stats.migrations += st.migs.len();
        }
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
        machine.exchange(&scratch.outbox);
        // Owned lists and cross counts pick up this iteration's migrations
        // (and the block refresh's owner changes, for the lists) only now:
        // mid-iteration the lists stay stale.
        scratch.group_owned();
        scratch.sync_cross(g);

        // Hu's adaptive step control on the global energy (the global
        // reduction this needs is the per-block reduction already charged).
        if new_energy < energy {
            progress += 1;
            if progress >= 5 {
                progress = 0;
                step = (step / COOLING).min(max_step);
            }
        } else {
            progress = 0;
            step *= COOLING;
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
    fn force_buffers_hold_one_block_not_one_cell() {
        // 72×72 on a 2×2 lattice: about 1,300 vertices a cell, so every
        // cell spans two full blocks and a ragged third.
        let (g, mut coords, mut m) = setup(72, 2);
        let mut scratch = SmoothScratch::new();
        lattice_smooth_with(
            &g,
            &mut coords,
            2,
            &mut m,
            &LatticeConfig::default(),
            &mut scratch,
        );
        assert!(scratch.owned.iter().all(|l| l.len() > NF_BLOCK));
        for (r, d) in scratch.disp.iter().enumerate() {
            let caps = [
                d.cvx.capacity(),
                d.cvy.capacity(),
                d.cm.capacity(),
                d.cmk.capacity(),
                d.fx.capacity(),
                d.fy.capacity(),
                d.nrm.capacity(),
                d.scl.capacity(),
                d.npx.capacity(),
                d.npy.capacity(),
                d.crx.capacity(),
            ];
            assert!(caps.iter().all(|&c| c <= NF_BLOCK), "rank {r}: {caps:?}");
        }
    }

    /// `cross` as a recount from `owner`.
    fn recount_cross(g: &Graph, owner: &[u32], ncells: usize) -> Vec<u32> {
        let mut cross = vec![0u32; ncells * ncells];
        for v in 0..g.n() {
            for &u in g.neighbors(v as u32) {
                cross[owner[v] as usize * ncells + owner[u as usize] as usize] += 1;
            }
        }
        cross
    }

    /// The owned lists and `cross` must equal a group-by and a recount from
    /// `owner`.
    fn assert_matches_a_recount(g: &Graph, scratch: &SmoothScratch) {
        let ncells = scratch.owned.len();
        let mut owned = vec![Vec::new(); ncells];
        for (v, &c) in scratch.owner.iter().enumerate() {
            owned[c as usize].push(v as u32);
        }
        assert_eq!(scratch.owned, owned);
        assert_eq!(scratch.cross, recount_cross(g, &scratch.owner, ncells));
        assert_eq!(scratch.counted, scratch.owner);
    }

    /// 150×140 grid vertices, and a KKT graph with hub buses, from a random
    /// start on a 4×4 lattice: above the work floor, so the pooled passes
    /// run on the pool; thousands of migrations; and twelve iterations of
    /// block 4 refresh the lattice twice.
    #[test]
    fn owned_lists_and_cross_counts_match_a_recount_from_owner() {
        let kkt = sp_graph::gen::kkt_graph(14_000, 7_000, 6, &mut StdRng::seed_from_u64(5));
        for g in [grid_2d(150, 140), kkt] {
            assert!(g.n() >= MIN_POOLED);
            let mut coords = random_init(g.n(), &mut StdRng::seed_from_u64(8));
            let mut m = Machine::new(16, CostModel::qdr_infiniband());
            let mut scratch = SmoothScratch::new();
            let cfg = LatticeConfig {
                iters: 12,
                ..LatticeConfig::default()
            };
            let stats = lattice_smooth_with(&g, &mut coords, 4, &mut m, &cfg, &mut scratch);
            assert!(stats.migrations > 1000, "{} migrations", stats.migrations);
            assert_matches_a_recount(&g, &scratch);
        }
    }

    /// `sync_cross` when both ends of an edge change owner in one sync: the
    /// edge and its reverse must each move once, not twice or never.
    #[test]
    fn sync_cross_moves_an_edge_whose_both_ends_changed_once() {
        // A 4-cycle with one chord, one vertex a cell on a 2×2 lattice.
        let mut b = sp_graph::GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            b.add_edge(u, v, 1.0);
        }
        let g = b.build();
        let mut scratch = SmoothScratch::new();
        scratch.reset(4, 2, 4);
        scratch.owner = vec![0, 1, 2, 3];
        scratch.counted = scratch.owner.clone();
        scratch.cross = recount_cross(&g, &scratch.owner, 4);
        // 0 and 1 swap cells and 2 moves to 3's, so the edges 0–1 and 0–2
        // change at both ends, and 1–2, 2–3 and 3–0 at one.
        scratch.owner = vec![1, 0, 3, 3];
        scratch.group_owned();
        assert_eq!(scratch.changed, [0, 1, 2]);
        scratch.sync_cross(&g);
        assert!(scratch.changed.is_empty());
        assert_matches_a_recount(&g, &scratch);
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
