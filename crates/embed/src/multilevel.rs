//! Multilevel projection and smoothing (§3, "Multilevel Projection and
//! Smoothing"): embed the coarsest graph, then repeatedly project the
//! embedding to the next finer level — scaling the bounding box and
//! coordinates by 2 per dimension, placing fine vertices with small
//! translations about their coarse vertex, and splitting each lattice cell
//! 2×2 while quadrupling the active rank count — and smooth with a few
//! fixed-lattice iterations.

use crate::force::{ForceParams, C, COOLING};
use crate::lattice::{LatticeConfig, LatticeStats, SmoothScratch};
use crate::seq::{force_layout, random_init};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_coarsen::Hierarchy;
use sp_geometry::Point2;
use sp_machine::{Machine, Phase};

/// Force iterations at the coarsest level.
const ITERS_COARSEST: usize = 600;

/// Smoothing iterations per finer level (doubled on replicated levels,
/// halved on the two finest).
const ITERS_SMOOTH: usize = 20;

/// Barnes–Hut theta for the replicated levels, which use exact
/// (tree-approximated) repulsion instead of the lattice.
const THETA: f64 = 1.1;

/// Levels at or below this many vertices smooth with replicated
/// coordinates instead of the distributed lattice (a few thousand vertices
/// fit in one cheap collective).
const REPLICATION_THRESHOLD: usize = 3000;

/// Active rank count at hierarchy level `lvl` (0 = finest): `P/4^lvl`,
/// floored at min(P, 8) — the paper expects the coarsest level to run on
/// "a small number such as 4 or 8" processors, never degenerating to one
/// when more are available.
pub fn ranks_at_level(p: usize, lvl: usize) -> usize {
    (p >> (2 * lvl)).max(p.min(8)).max(1)
}

/// Lattice dimension for a rank count: the largest `q` with `q² ≤ p`.
pub fn lattice_dim(p: usize) -> usize {
    (p as f64).sqrt().floor() as usize
}

/// Smooth a small level with replicated coordinates: every active rank
/// computes forces for its share of vertices against the full point set
/// (Barnes–Hut), and one group allgather per iteration refreshes the
/// replica. For levels of a few thousand vertices this costs one small
/// collective per iteration instead of halo + migration traffic, which is
/// what any implementation does below the distribution-pays-off threshold.
/// `cfg` supplies the iteration cap and the step; its block is not used.
fn replicated_smooth(
    g: &sp_graph::Graph,
    coords: &mut [Point2],
    active: usize,
    cfg: &LatticeConfig,
    machine: &mut Machine,
) {
    let params = ForceParams::for_domain(C, g.n() as f64, g.n());
    let ops = force_layout(g, coords, &params, THETA, cfg.iters, cfg.step0, COOLING);
    let iters_est = cfg
        .iters
        .min((ops / (g.n().max(1) as f64 * 20.0)).ceil() as usize + 1);
    let share = ops / active.max(1) as f64;
    let mut states: Vec<()> = vec![(); machine.p()];
    machine.compute(&mut states, |r, _| if r < active { share } else { 0.0 });
    if active > 1 {
        let words = 2 * g.n() / active;
        for _ in 0..iters_est {
            machine.group_allgather(active, active * words);
        }
    }
}

/// A pluggable lattice smoother with the signature of
/// [`lattice_smooth_with`](crate::lattice_smooth_with). The differential
/// tests swap in the pre-optimization reference smoother here while keeping
/// every other pipeline stage identical, so any divergence is attributable
/// to the optimized smoothing kernel alone.
pub type Smoother<'a> = &'a mut dyn FnMut(
    &sp_graph::Graph,
    &mut [Point2],
    usize,
    &mut Machine,
    &LatticeConfig,
    &mut SmoothScratch,
) -> LatticeStats;

/// Embed the hierarchy's finest graph by multilevel lattice embedding on
/// `machine`, charging all computation and communication. `block` is the
/// lattice's iterations per global refresh and `seed` drives the initial
/// placement and the projection jitter; every other setting is the
/// lattice's [`LatticeConfig::default`]. `smoother` runs the distributed
/// (large-level) smoothing stages: [`lattice_smooth_with`](crate::lattice_smooth_with),
/// or a reference kernel under test. Returns finest coordinates.
///
/// The hierarchy is consumed level by level: once a level's coordinates
/// are projected onto the next finer one, that level's graph and map are
/// freed, so the finest level smooths with no coarse level alive.
pub fn multilevel_lattice_embed_with(
    mut h: Hierarchy,
    machine: &mut Machine,
    block: usize,
    seed: u64,
    smoother: Smoother<'_>,
) -> Vec<Point2> {
    let p = machine.p();
    let k = h.depth() - 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let lattice = LatticeConfig {
        block,
        ..LatticeConfig::default()
    };

    // --- Coarsest level: random init + force embedding on the P^k active
    // ranks. The coarsest graph is tiny ("hundreds or few thousands"), so
    // its coordinates are replicated, as on every level below the
    // replication threshold.
    let coarsest = h.coarsest();
    let mut coords = random_init(coarsest.n(), &mut rng);
    machine.phase_level(Phase::Embed, k);
    replicated_smooth(
        coarsest,
        &mut coords,
        ranks_at_level(p, k),
        &LatticeConfig {
            iters: ITERS_COARSEST,
            step0: lattice.step0.max(0.8),
            ..lattice
        },
        machine,
    );
    let mut scratch = SmoothScratch::new();

    // --- Project and smooth, coarse → fine. Coarse levels get more
    // iterations (cheap, and they set the global shape); the two finest
    // levels get half (expensive, and only local smoothing remains) —
    // the paper's "relatively fewer iterations are required ... for
    // smoothing" at scale.
    for lvl in (0..k).rev() {
        machine.phase_level(Phase::Embed, lvl);
        let n_level = h.levels[lvl].graph.n();
        let level_iters = if n_level <= REPLICATION_THRESHOLD {
            ITERS_SMOOTH * 2 // tiny replicated levels: thorough is free
        } else if lvl <= 1 {
            (ITERS_SMOOTH / 2).max(6) // finest: local touch-up only
        } else {
            ITERS_SMOOTH
        };
        let p_lvl = ranks_at_level(p, lvl);
        let q_lvl = lattice_dim(p_lvl);

        // Projection: scale by 2 per dimension, jitter children around the
        // coarse position (a fraction of the new natural spacing). The
        // coarse coordinates, this level's map and every coarser level
        // are dropped before smoothing.
        let map = h.levels[lvl].map_to_coarser.take().unwrap();
        h.levels.truncate(lvl + 1);
        let fine = &h.levels[lvl].graph;
        let params = ForceParams::for_domain(C, fine.n() as f64, fine.n());
        let jitter = params.k * 0.3;
        coords = map
            .iter()
            .map(|&cv| {
                coords[cv as usize] * 2.0
                    + Point2::new(
                        rng.random_range(-jitter..jitter),
                        rng.random_range(-jitter..jitter),
                    )
            })
            .collect();
        drop(map);

        // Projection communication: the 2×2 cell split redistributes each
        // parent's vertices to its three new sibling ranks by nearest-
        // neighbour messages (cost-only: 2 words per redistributed vertex).
        if q_lvl >= 2 {
            let parents = ranks_at_level(p, lvl + 1).max(1);
            let per_parent = fine.n() / parents.max(1);
            let outbox: Vec<Vec<(usize, sp_machine::CostOnly)>> = (0..machine.p())
                .map(|r| {
                    if r < parents && q_lvl * q_lvl > r {
                        // Three quarters of the parent's vertices leave.
                        let chunk = (per_parent / 4).max(1);
                        (1..4usize)
                            .filter_map(|s| {
                                let dest = r + s * parents;
                                (dest < q_lvl * q_lvl)
                                    .then(|| (dest, sp_machine::CostOnly::new(2 * chunk)))
                            })
                            .collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            machine.exchange(&outbox);
        }

        // Smooth: distributed fixed-lattice scheme for big levels,
        // replicated force layout below the pays-off threshold.
        let level_cfg = LatticeConfig {
            iters: level_iters,
            step0: lattice.step0 * 0.3,
            ..lattice
        };
        if q_lvl >= 2 && fine.n() > REPLICATION_THRESHOLD {
            smoother(fine, &mut coords, q_lvl, machine, &level_cfg, &mut scratch);
        } else {
            replicated_smooth(
                fine,
                &mut coords,
                p_lvl.min(machine.p()),
                &level_cfg,
                machine,
            );
        }
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::lattice_smooth_with;
    use sp_coarsen::CoarsenConfig;
    use sp_graph::gen::grid_2d;
    use sp_graph::Bisection;
    use sp_machine::CostModel;

    fn hierarchy(g: &sp_graph::Graph) -> Hierarchy<'_> {
        Hierarchy::build(
            g,
            &CoarsenConfig {
                target_coarsest: 120,
                ..Default::default()
            },
        )
    }

    fn embed(h: Hierarchy, m: &mut Machine) -> Vec<Point2> {
        multilevel_lattice_embed_with(h, m, 4, 0x1A771CE, &mut lattice_smooth_with)
    }

    #[test]
    fn ranks_shrink_by_four_per_level() {
        assert_eq!(ranks_at_level(1024, 0), 1024);
        assert_eq!(ranks_at_level(1024, 1), 256);
        assert_eq!(ranks_at_level(1024, 2), 64);
        // Floored at min(P, 8): the paper's "small number such as 4 or 8".
        assert_eq!(ranks_at_level(1024, 5), 8);
        assert_eq!(ranks_at_level(4, 3), 4);
        assert_eq!(ranks_at_level(1, 0), 1);
    }

    #[test]
    fn lattice_dim_is_floor_sqrt() {
        assert_eq!(lattice_dim(1), 1);
        assert_eq!(lattice_dim(4), 2);
        assert_eq!(lattice_dim(8), 2);
        assert_eq!(lattice_dim(9), 3);
        assert_eq!(lattice_dim(1024), 32);
    }

    #[test]
    fn multilevel_embedding_supports_good_bisections() {
        let g = grid_2d(24, 24);
        let mut m = Machine::new(16, CostModel::qdr_infiniband());
        let coords = embed(hierarchy(&g), &mut m);
        assert_eq!(coords.len(), g.n());
        assert!(coords.iter().all(|c| c.is_finite()));
        // A median x-cut on the embedding should beat a random cut by a lot.
        let mut xs: Vec<f64> = coords.iter().map(|p| p.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        let bi = Bisection::from_fn(g.n(), |v| coords[v as usize].x >= med);
        let cut = bi.cut_edges(&g);
        assert!(cut < g.m() / 4, "cut {} vs m {}", cut, g.m());
    }

    #[test]
    fn embedding_time_decreases_with_ranks() {
        let g = grid_2d(32, 32);
        let mut times = Vec::new();
        for p in [1usize, 16] {
            let mut m = Machine::new(p, CostModel::qdr_infiniband());
            let _ = embed(hierarchy(&g), &mut m);
            times.push(m.elapsed());
        }
        assert!(
            times[1] < times[0],
            "P=16 ({}) should beat P=1 ({})",
            times[1],
            times[0]
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let g = grid_2d(20, 20);
        let mut m1 = Machine::new(4, CostModel::qdr_infiniband());
        let mut m2 = Machine::new(4, CostModel::qdr_infiniband());
        let a = embed(hierarchy(&g), &mut m1);
        let b = embed(hierarchy(&g), &mut m2);
        assert_eq!(a, b);
    }
}
