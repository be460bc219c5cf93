//! Pre-optimization reference implementation of fixed-lattice smoothing.
//!
//! This is the lattice smoother as it stood before the wall-clock fast
//! path (fused counting, scratch reuse): it rebuilds the owned-vertex
//! lists every iteration, counts halo pairs with a fresh map per
//! iteration, and charges each message and collective the word count of
//! the `Vec<u64>` payload the old code allocated for it.
//!
//! It exists as the **invariance oracle**: the optimized
//! `sp_embed::lattice_smooth` must produce *bit-identical* simulated time
//! and coordinates. The tests below and `tests/differential.rs` assert
//! exact `f64` equality of `Machine::elapsed()` between the two.
//!
//! The only deliberate deviation from the historical code: the per-pair
//! counters use `BTreeMap` instead of `HashMap`, so messages are emitted
//! in ascending-destination order. That is the canonical order the
//! optimized path now uses; f64 cost accumulation is order-sensitive, so
//! the reference must emit in the same order to be comparable. (The old
//! `HashMap` order was nondeterministic run-to-run, which is exactly the
//! trace-stability bug this PR fixes.)

use sp_embed::force::{ForceParams, C, COOLING};
use sp_embed::lattice::{LatticeConfig, LatticeStats};
use sp_geometry::{Aabb2, Point2};
use sp_graph::Graph;
use sp_machine::trace::fnv::splitmix64;
use sp_machine::{CostOnly, Machine};
use std::collections::BTreeMap;

/// One cell's special vertex β: total mass and centre of mass.
#[derive(Clone, Copy, Debug, Default)]
struct Beta {
    mu: f64,
    phi: Point2,
}

/// The pre-optimization quantile lattice, kept verbatim: its `build` fully
/// sorts the coordinate arrays where the optimized
/// `sp_embed::lattice::QuantileLattice` uses `select_nth_unstable_by`
/// order statistics. Successive selection on an array yields exactly the
/// values a full sort would put at the cut indices, so the two produce
/// bit-identical cuts (the sp-embed test
/// `quantile_build_matches_full_sort_reference` pins this) — only the
/// host-side cost differs, which is what this module exists to model.
struct RefLattice {
    q: usize,
    xcuts: Vec<f64>,
    ycuts: Vec<Vec<f64>>,
    bbox: Aabb2,
}

impl RefLattice {
    fn build(coords: &[Point2], q: usize) -> Self {
        let bbox = Aabb2::from_points(coords)
            .unwrap_or_else(Aabb2::unit)
            .inflated(0.02 + 1e-9);
        let n = coords.len().max(1);
        let mut xs: Vec<f64> = coords.iter().map(|c| c.x).collect();
        if xs.is_empty() {
            xs.push(0.0);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let xcuts: Vec<f64> = (1..q).map(|k| xs[(k * n / q).min(xs.len() - 1)]).collect();
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); q];
        for c in coords {
            let i = xcuts.partition_point(|&cut| c.x >= cut);
            cols[i].push(c.y);
        }
        let ycuts = cols
            .into_iter()
            .map(|mut ys| {
                if ys.is_empty() {
                    let h = bbox.height() / q as f64;
                    return (1..q).map(|k| bbox.min.y + h * k as f64).collect();
                }
                ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let m = ys.len();
                (1..q).map(|k| ys[(k * m / q).min(m - 1)]).collect()
            })
            .collect();
        RefLattice {
            q,
            xcuts,
            ycuts,
            bbox,
        }
    }

    fn q(&self) -> usize {
        self.q
    }

    #[inline]
    fn cell_of(&self, p: Point2) -> (usize, usize) {
        let i = self.xcuts.partition_point(|&cut| p.x >= cut);
        let j = self.ycuts[i].partition_point(|&cut| p.y >= cut);
        (i, j)
    }

    fn cell_box(&self, i: usize, j: usize) -> Aabb2 {
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
}

/// The paper's neighbourhood: the *four* boxes at L1 distance 1.
#[inline]
fn cell_adjacent(q: usize, a: usize, b: usize) -> bool {
    let (ai, aj) = (a % q, a / q);
    let (bi, bj) = (b % q, b / q);
    ai.abs_diff(bi) + aj.abs_diff(bj) <= 1
}

/// Clamp a far ghost's (stale) position into the cell adjacent to `my_cell`
/// in the direction of the ghost's cell — the paper's shortest-L1 rule.
fn clamp_far(lattice: &RefLattice, my_cell: usize, ghost_cell: usize, pos: Point2) -> Point2 {
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

/// The pre-optimization `lattice_smooth` with the *current* force formula
/// (the sqrt-free `ForceParams::repulsive`): bit-identical to the
/// optimized smoother in both simulated time and coordinates, so it is
/// the invariance oracle of the tests here and in `tests/differential.rs`.
pub fn reference_lattice_smooth(
    g: &Graph,
    coords: &mut [Point2],
    q: usize,
    machine: &mut Machine,
    cfg: &LatticeConfig,
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

    let mut lattice = RefLattice::build(coords, q);
    {
        let share = (n / ncells.max(1)) as f64;
        let mut states: Vec<()> = vec![(); p];
        machine.compute(&mut states, |r, _| if r < ncells { share } else { 0.0 });
        machine.group_allreduce_sum(ncells, q);
    }
    let cell_of = |p: Point2, lattice: &RefLattice| -> u32 {
        let (i, j) = lattice.cell_of(p);
        (j * q + i) as u32
    };
    let mut owner: Vec<u32> = coords.iter().map(|&c| cell_of(c, &lattice)).collect();
    let mut snapshot: Vec<Point2> = coords.to_vec();
    let mut beta_snapshot: Vec<Beta> = vec![Beta::default(); ncells];
    let mut stats = LatticeStats::default();

    for it in 0..cfg.iters {
        // --- Owned vertex lists per cell (rebuilt from scratch, O(n)).
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); ncells];
        for (v, &c) in owner.iter().enumerate() {
            owned[c as usize].push(v as u32);
        }

        // --- β computation (each active rank scans its owned vertices).
        let mut betas: Vec<Beta> = vec![Beta::default(); ncells];
        {
            let owned_ref = &owned;
            let coords_ref = &*coords;
            let mut states: Vec<Beta> = vec![Beta::default(); p];
            machine.compute(&mut states, |r, b| {
                if r >= ncells {
                    return 0.0;
                }
                let mut mu = 0.0;
                let mut wsum = Point2::ZERO;
                for &v in &owned_ref[r] {
                    let m = g.vwgt(v);
                    mu += m;
                    wsum += coords_ref[v as usize] * m;
                }
                if mu > 0.0 {
                    *b = Beta { mu, phi: wsum / mu };
                }
                owned_ref[r].len() as f64
            });
            betas[..ncells].copy_from_slice(&states[..ncells]);
        }

        // --- Halo exchange, sized from a fresh per-pair count.
        {
            let mut nbr_words: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ncells];
            let mut pairs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            for v in 0..n as u32 {
                let cv = owner[v as usize] as usize;
                for &u in g.neighbors(v) {
                    let cu = owner[u as usize] as usize;
                    if cu != cv && cell_adjacent(q, cv, cu) {
                        *pairs.entry((cv, cu)).or_default() += 1;
                    }
                }
            }
            for ((from, to), cnt) in pairs {
                nbr_words[from].push((to, 3 + 2 * cnt));
            }
            let outbox: Vec<Vec<(usize, CostOnly)>> = (0..p)
                .map(|r| {
                    if r < ncells {
                        nbr_words[r]
                            .iter()
                            .map(|&(to, words)| (to, CostOnly::new(words)))
                            .collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            machine.exchange(&outbox);
        }
        if it % cfg.block.max(1) == 0 {
            if it > 0 {
                lattice = RefLattice::build(coords, q);
                let share = (n / ncells.max(1)) as f64;
                let mut states: Vec<()> = vec![(); p];
                machine.compute(&mut states, |r, _| if r < ncells { share } else { 0.0 });
                machine.group_allreduce_sum(ncells, q);
                for (v, c) in coords.iter().enumerate() {
                    owner[v] = cell_of(*c, &lattice);
                }
            }
            let mut far_counts = vec![0usize; ncells];
            for v in 0..n as u32 {
                let cv = owner[v as usize] as usize;
                for &u in g.neighbors(v) {
                    let cu = owner[u as usize] as usize;
                    if cu != cv && !cell_adjacent(q, cv, cu) {
                        far_counts[cv] += 1;
                    }
                }
            }
            let beta_words: usize = far_counts.iter().map(|&far| 3 + 2 * far).sum();
            machine.group_allgather(ncells, beta_words);
            machine.group_allreduce_sum(ncells, 1);
            snapshot.copy_from_slice(coords);
            beta_snapshot.copy_from_slice(&betas);
        }

        // --- Force computation and displacement per rank.
        let displacements: Vec<(Vec<(u32, Point2)>, f64)> = {
            let owned_ref = &owned;
            let coords_ref = &*coords;
            let owner_ref = &owner;
            let snapshot_ref = &snapshot;
            let betas_ref = &betas;
            let beta_snap_ref = &beta_snapshot;
            let lattice_ref = &lattice;
            let mut states: Vec<(Vec<(u32, Point2)>, f64)> = vec![(Vec::new(), 0.0); p];
            machine.compute(&mut states, |r, state| {
                let (out, local_energy) = state;
                if r >= ncells {
                    return 0.0;
                }
                let my = r;
                let mut ops = 0.0;
                let my_beta = betas_ref[my];
                let mut inherited = Point2::ZERO;
                if my_beta.mu > 0.0 {
                    for s in 0..ncells {
                        if s == my {
                            continue;
                        }
                        let b = if cell_adjacent(q, my, s) {
                            betas_ref[s]
                        } else {
                            beta_snap_ref[s]
                        };
                        if b.mu > 0.0 {
                            inherited += params.repulsive(my_beta.phi, 1.0, b.phi, b.mu);
                        }
                        ops += 1.0;
                    }
                }
                const SUB: usize = 4;
                let my_box = lattice_ref.cell_box(my % q, my / q);
                let mut sub = [Beta::default(); SUB * SUB];
                let sub_of = |c: Point2| -> usize {
                    let (si, sj) = my_box.cell_of(SUB, c);
                    sj * SUB + si
                };
                for &v in &owned_ref[my] {
                    let c = coords_ref[v as usize];
                    let m = g.vwgt(v);
                    let b = &mut sub[sub_of(c)];
                    b.mu += m;
                    b.phi += c * m;
                    ops += 1.0;
                }
                for b in sub.iter_mut() {
                    if b.mu > 0.0 {
                        b.phi = b.phi / b.mu;
                    }
                }
                for &v in &owned_ref[my] {
                    let cv = coords_ref[v as usize];
                    let mv = g.vwgt(v);
                    let mut f = inherited * mv;
                    let own_sub = sub_of(cv);
                    for (si, b) in sub.iter().enumerate() {
                        ops += 1.0;
                        let mass = if si == own_sub { b.mu - mv } else { b.mu };
                        if mass > 1e-12 {
                            f += params.repulsive(cv, mv, b.phi, mass);
                        }
                    }
                    for (u, w) in g.neighbors_w(v) {
                        let cu = owner_ref[u as usize] as usize;
                        let pu = if cu == my || cell_adjacent(q, my, cu) {
                            coords_ref[u as usize]
                        } else {
                            clamp_far(lattice_ref, my, cu, snapshot_ref[u as usize])
                        };
                        f += params.attractive(cv, pu) * w;
                        ops += 1.0;
                    }
                    let norm = f.norm();
                    *local_energy += norm * norm;
                    if norm > 1e-12 {
                        out.push((v, f * (step / norm)));
                    }
                    ops += 2.0;
                }
                ops
            });
            states
        };

        // --- Apply moves (owned vertices only).
        let mut new_energy = 0.0;
        for (rank_moves, e) in &displacements {
            new_energy += e;
            for &(v, d) in rank_moves {
                coords[v as usize] += d;
            }
        }

        // --- Migration, sized from a fresh per-pair count.
        let mut migration_out: Vec<Vec<(usize, CostOnly)>> = vec![Vec::new(); p];
        let mut mig_counts: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for v in 0..n {
            let nc = cell_of(coords[v], &lattice);
            if nc != owner[v] {
                if !cell_adjacent(q, owner[v] as usize, nc as usize) {
                    *mig_counts
                        .entry((owner[v] as usize, nc as usize))
                        .or_default() += 1;
                }
                owner[v] = nc;
                stats.migrations += 1;
            }
        }
        for ((from, to), cnt) in mig_counts {
            migration_out[from].push((to, CostOnly::new(3 * cnt)));
        }
        machine.exchange(&migration_out);

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

/// Deterministic, `rand`-free benchmark scenario: a `rows × cols` grid
/// graph with unit-spaced coordinates jittered by a splitmix64 hash of the
/// vertex index. Every operation is plain IEEE arithmetic, so the layout —
/// and therefore every simulated-time golden value derived from it — is
/// bit-identical on any platform.
pub fn demo_grid(rows: usize, cols: usize, seed: u64) -> (Graph, Vec<Point2>) {
    let g = sp_graph::gen::grid_2d(rows, cols);
    let coords = (0..g.n() as u64)
        .map(|v| {
            let h = splitmix64(&mut (seed ^ v));
            // Two 21-bit lanes → jitter in [-0.25, 0.25).
            let jx = ((h & 0x1f_ffff) as f64 / (1u64 << 21) as f64 - 0.5) * 0.5;
            let jy = (((h >> 21) & 0x1f_ffff) as f64 / (1u64 << 21) as f64 - 0.5) * 0.5;
            let r = (v as usize) / cols;
            let c = (v as usize) % cols;
            Point2::new(c as f64 + jx, r as f64 + jy)
        })
        .collect();
    (g, coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_embed::{lattice_smooth, lattice_smooth_with, SmoothScratch};
    use sp_machine::CostModel;

    fn run_new(rows: usize, cols: usize, q: usize, cfg: &LatticeConfig) -> (f64, Vec<Point2>) {
        let (g, mut coords) = demo_grid(rows, cols, 0xC0FFEE);
        let mut m = Machine::new(q * q, CostModel::qdr_infiniband());
        lattice_smooth(&g, &mut coords, q, &mut m, cfg);
        (m.elapsed(), coords)
    }

    fn run_reference(
        rows: usize,
        cols: usize,
        q: usize,
        cfg: &LatticeConfig,
    ) -> (f64, Vec<Point2>) {
        let (g, mut coords) = demo_grid(rows, cols, 0xC0FFEE);
        let mut m = Machine::new(q * q, CostModel::qdr_infiniband());
        reference_lattice_smooth(&g, &mut coords, q, &mut m, cfg);
        (m.elapsed(), coords)
    }

    /// The tentpole's core invariant: the optimized smoother and the
    /// pre-optimization reference produce bit-identical simulated time AND
    /// bit-identical coordinates, across lattice sizes and block settings.
    /// The cases from (96, 64) on hold more than one force block a cell:
    /// 1,536 vertices (three full blocks) and about 778 (a ragged last
    /// block). The last one, 20,480 vertices, is above the smoother's work
    /// floor, so its bookkeeping between supersteps runs on the pool.
    #[test]
    fn optimized_smoother_matches_reference_exactly() {
        for &(rows, cols, q, block) in &[
            (12usize, 12usize, 2usize, 4usize),
            (16, 16, 3, 4),
            (16, 20, 4, 2),
            (24, 24, 4, 1),
            (96, 64, 2, 4),
            (100, 70, 3, 3),
            (160, 128, 4, 3),
        ] {
            let cfg = LatticeConfig {
                iters: 13,
                block,
                ..LatticeConfig::default()
            };
            let (t_new, c_new) = run_new(rows, cols, q, &cfg);
            let (t_ref, c_ref) = run_reference(rows, cols, q, &cfg);
            assert_eq!(
                t_new.to_bits(),
                t_ref.to_bits(),
                "simulated time drifted for {rows}x{cols} q={q} block={block}: \
                 new={t_new:.17e} ref={t_ref:.17e}"
            );
            for (v, (a, b)) in c_new.iter().zip(&c_ref).enumerate() {
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "x of v{v}");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "y of v{v}");
            }
        }
    }

    /// Idle ranks (p > q²) take the exact same charges too.
    #[test]
    fn invariance_holds_with_idle_ranks() {
        let cfg = LatticeConfig {
            iters: 9,
            ..LatticeConfig::default()
        };
        let (g, mut ca) = demo_grid(14, 14, 7);
        let (_, mut cb) = demo_grid(14, 14, 7);
        let mut ma = Machine::new(16, CostModel::qdr_infiniband());
        let mut mb = Machine::new(16, CostModel::qdr_infiniband());
        lattice_smooth(&g, &mut ca, 3, &mut ma, &cfg);
        reference_lattice_smooth(&g, &mut cb, 3, &mut mb, &cfg);
        assert_eq!(ma.elapsed().to_bits(), mb.elapsed().to_bits());
    }

    /// Golden pinned simulated time: guards the cost model end to end.
    /// This value was produced by this exact scenario at the seed commit's
    /// charging behaviour (the reference path) and must never drift — any
    /// optimization that changes it has changed the simulation, not just
    /// the host-side implementation. The scenario is `rand`-free and pure
    /// IEEE arithmetic, so the value is platform independent.
    #[test]
    fn golden_simulated_time_is_pinned() {
        let cfg = LatticeConfig {
            iters: 10,
            ..LatticeConfig::default()
        };
        let (t_new, _) = run_new(16, 16, 4, &cfg);
        let (t_ref, _) = run_reference(16, 16, 4, &cfg);
        assert_eq!(t_new.to_bits(), t_ref.to_bits());
        let golden = f64::from_bits(GOLDEN_16X16_Q4_BITS);
        assert_eq!(
            t_new.to_bits(),
            GOLDEN_16X16_Q4_BITS,
            "pinned simulated time drifted: got {t_new:.17e}, expected {golden:.17e}"
        );
    }

    /// See `golden_simulated_time_is_pinned`.
    const GOLDEN_16X16_Q4_BITS: u64 = 0x3F27_4A49_7A47_6ED5; // 1.7769…e-4 s

    /// The rayon-parallel host kernels must not change simulated time or
    /// coordinates with different thread counts: per-rank closures write
    /// disjoint state and the op-cost reduction is index-ordered, so a
    /// 1-thread pool and an N-thread pool are bit-identical. The 64×48
    /// grid on a 2×2 lattice puts about 768 vertices, two force blocks, in
    /// each cell; the 160×128 grid (20,480 vertices) is above the work
    /// floor, so its owner refreshes, coordinate stores and list upkeep
    /// run on the pool too.
    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = LatticeConfig {
            iters: 8,
            ..LatticeConfig::default()
        };
        for (rows, cols, q) in [(16usize, 16usize, 4usize), (64, 48, 2), (160, 128, 4)] {
            let run_with_threads = |threads: usize| -> (f64, Vec<Point2>) {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool");
                pool.install(|| {
                    let (g, mut coords) = demo_grid(rows, cols, 99);
                    let mut m = Machine::new(16, CostModel::qdr_infiniband());
                    let mut scratch = SmoothScratch::new();
                    lattice_smooth_with(&g, &mut coords, q, &mut m, &cfg, &mut scratch);
                    (m.elapsed(), coords)
                })
            };
            let (t1, c1) = run_with_threads(1);
            for threads in [2, 4] {
                let (t, c) = run_with_threads(threads);
                assert_eq!(
                    t1.to_bits(),
                    t.to_bits(),
                    "{rows}x{cols}, {threads} threads"
                );
                for (a, b) in c1.iter().zip(&c) {
                    assert_eq!(a.x.to_bits(), b.x.to_bits());
                    assert_eq!(a.y.to_bits(), b.y.to_bits());
                }
            }
        }
    }
}
