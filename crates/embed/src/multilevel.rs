//! Multilevel projection and smoothing (§3, "Multilevel Projection and
//! Smoothing"): embed the coarsest graph, then repeatedly project the
//! embedding to the next finer level — scaling the bounding box and
//! coordinates by 2 per dimension, placing fine vertices with small
//! translations about their coarse vertex, and splitting each lattice cell
//! 2×2 while quadrupling the active rank count — and smooth with a few
//! fixed-lattice iterations.

use crate::force::ForceParams;
use crate::lattice::{lattice_smooth_with, LatticeConfig, LatticeStats, SmoothScratch};
use crate::seq::{force_layout, random_init};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_coarsen::Hierarchy;
use sp_geometry::Point2;
use sp_machine::{Machine, Phase};

/// Configuration for the multilevel lattice embedding.
#[derive(Clone, Copy, Debug)]
pub struct MultilevelEmbedConfig {
    /// Lattice smoothing knobs (C, block size, step, cooling).
    pub lattice: LatticeConfig,
    /// Iterations at the coarsest level.
    pub iters_coarsest: usize,
    /// Smoothing iterations per finer level.
    pub iters_smooth: usize,
    /// Barnes–Hut theta for levels that fall back to exact repulsion
    /// (active rank count 1, where the lattice approximation degenerates).
    pub theta: f64,
    /// RNG seed for initial placement and projection jitter.
    pub seed: u64,
}

impl Default for MultilevelEmbedConfig {
    fn default() -> Self {
        MultilevelEmbedConfig {
            lattice: LatticeConfig::default(),
            iters_coarsest: 600,
            iters_smooth: 20,
            theta: 1.1,
            seed: 0x1A771CE,
        }
    }
}

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
#[allow(clippy::too_many_arguments)]
fn replicated_smooth(
    g: &sp_graph::Graph,
    coords: &mut [Point2],
    active: usize,
    max_iters: usize,
    step0: f64,
    theta: f64,
    cooling: f64,
    c: f64,
    machine: &mut Machine,
) {
    let params = ForceParams::for_domain(c, g.n() as f64, g.n());
    let ops = force_layout(g, coords, &params, theta, max_iters, step0, cooling);
    let iters_est = max_iters.min((ops / (g.n().max(1) as f64 * 20.0)).ceil() as usize + 1);
    let share = ops / active.max(1) as f64;
    let mut states: Vec<()> = vec![(); machine.p()];
    machine.compute(&mut states, |r, _| if r < active { share } else { 0.0 });
    if active > 1 {
        let words = 2 * g.n() / active;
        for _ in 0..iters_est {
            machine.group_allgather_costed(active, active * words);
        }
    }
}

/// A pluggable lattice smoother with the signature of
/// [`lattice_smooth_with`]. The differential tests swap in the
/// pre-optimization reference smoother here while keeping every other
/// pipeline stage identical, so any divergence is attributable to the
/// optimized smoothing kernel alone.
pub type Smoother<'a> = &'a mut dyn FnMut(
    &sp_graph::Graph,
    &mut [Point2],
    usize,
    &mut Machine,
    &LatticeConfig,
    &mut SmoothScratch,
) -> LatticeStats;

/// Embed the hierarchy's finest graph by multilevel lattice embedding on
/// `machine`, charging all computation and communication. Returns finest
/// coordinates.
pub fn multilevel_lattice_embed(
    h: &Hierarchy,
    machine: &mut Machine,
    cfg: &MultilevelEmbedConfig,
) -> Vec<Point2> {
    multilevel_lattice_embed_with(h, machine, cfg, &mut lattice_smooth_with)
}

/// [`multilevel_lattice_embed`] with a caller-supplied lattice smoother
/// for the distributed (large-level) smoothing stages.
pub fn multilevel_lattice_embed_with(
    h: &Hierarchy,
    machine: &mut Machine,
    cfg: &MultilevelEmbedConfig,
    smoother: Smoother<'_>,
) -> Vec<Point2> {
    let p = machine.p();
    let k = h.depth() - 1;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- Coarsest level: random init + force embedding on the P^k active
    // ranks. The coarsest graph is tiny ("hundreds or few thousands"), so
    // its coordinates are replicated: every active rank computes forces for
    // its share of vertices against the full (Barnes–Hut-approximated)
    // point set and an allgather refreshes the replica each iteration.
    // The numerical layout is computed once here; the machine is charged
    // work/P^k per rank plus the per-iteration allgather.
    let coarsest = h.coarsest();
    let mut coords = random_init(coarsest.n(), &mut rng);
    let pk = ranks_at_level(p, k);
    machine.phase_labeled(Phase::Embed, "coarsest");
    {
        let params = ForceParams::for_domain(cfg.lattice.c, coarsest.n() as f64, coarsest.n());
        let ops = force_layout(
            coarsest,
            &mut coords,
            &params,
            cfg.theta,
            cfg.iters_coarsest,
            cfg.lattice.step0.max(0.8),
            cfg.lattice.cooling,
        );
        let iters_est = cfg
            .iters_coarsest
            .min((ops / (coarsest.n().max(1) as f64 * 20.0)).ceil() as usize + 1);
        let share = ops / pk as f64;
        let mut states: Vec<()> = vec![(); machine.p()];
        machine.compute(&mut states, |r, _| if r < pk { share } else { 0.0 });
        if pk > 1 {
            let words = 2 * coarsest.n() / pk.max(1);
            for _ in 0..iters_est {
                machine.group_allgather_costed(pk, pk * words);
            }
        }
    }
    let mut scratch = SmoothScratch::new();

    // --- Project and smooth, coarse → fine. Coarse levels get more
    // iterations (cheap, and they set the global shape); the two finest
    // levels get half (expensive, and only local smoothing remains) —
    // the paper's "relatively fewer iterations are required ... for
    // smoothing" at scale.
    for lvl in (0..k).rev() {
        machine.phase_labeled(Phase::Embed, &format!("smooth-{lvl}"));
        let n_level = h.levels[lvl].graph.n();
        let level_iters = if n_level <= REPLICATION_THRESHOLD {
            cfg.iters_smooth * 2 // tiny replicated levels: thorough is free
        } else if lvl <= 1 {
            (cfg.iters_smooth / 2).max(6) // finest: local touch-up only
        } else {
            cfg.iters_smooth
        };
        let fine = &h.levels[lvl].graph;
        let map = h.levels[lvl].map_to_coarser.as_ref().unwrap();
        let p_lvl = ranks_at_level(p, lvl);
        let q_lvl = lattice_dim(p_lvl);

        // Projection: scale by 2 per dimension, jitter children around the
        // coarse position (a fraction of the new natural spacing).
        let params = ForceParams::for_domain(cfg.lattice.c, fine.n() as f64, fine.n());
        let jitter = params.k * 0.3;
        let mut fc: Vec<Point2> = map
            .iter()
            .map(|&cv| {
                coords[cv as usize] * 2.0
                    + Point2::new(
                        rng.random_range(-jitter..jitter),
                        rng.random_range(-jitter..jitter),
                    )
            })
            .collect();

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
            machine.exchange_costed(&outbox);
        }

        // Smooth: distributed fixed-lattice scheme for big levels,
        // replicated force layout below the pays-off threshold.
        if q_lvl >= 2 && fine.n() > REPLICATION_THRESHOLD {
            smoother(
                fine,
                &mut fc,
                q_lvl,
                machine,
                &LatticeConfig {
                    iters: level_iters,
                    step0: cfg.lattice.step0 * 0.3,
                    ..cfg.lattice
                },
                &mut scratch,
            );
        } else {
            replicated_smooth(
                fine,
                &mut fc,
                p_lvl.min(machine.p()),
                level_iters,
                cfg.lattice.step0 * 0.3,
                cfg.theta,
                cfg.lattice.cooling,
                cfg.lattice.c,
                machine,
            );
        }
        coords = fc;
    }
    coords
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_coarsen::CoarsenConfig;
    use sp_graph::gen::grid_2d;
    use sp_graph::Bisection;
    use sp_machine::CostModel;

    fn hierarchy(side: usize) -> (sp_graph::Graph, Hierarchy) {
        let g = grid_2d(side, side);
        let h = Hierarchy::build(
            &g,
            &CoarsenConfig {
                target_coarsest: 120,
                ..Default::default()
            },
        );
        (g, h)
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
        let (g, h) = hierarchy(24);
        let mut m = Machine::new(16, CostModel::qdr_infiniband());
        let coords = multilevel_lattice_embed(&h, &mut m, &MultilevelEmbedConfig::default());
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
        let (_, h) = hierarchy(32);
        let mut times = Vec::new();
        for p in [1usize, 16] {
            let mut m = Machine::new(p, CostModel::qdr_infiniband());
            let _ = multilevel_lattice_embed(&h, &mut m, &MultilevelEmbedConfig::default());
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
        let (_, h) = hierarchy(20);
        let mut m1 = Machine::new(4, CostModel::qdr_infiniband());
        let mut m2 = Machine::new(4, CostModel::qdr_infiniband());
        let a = multilevel_lattice_embed(&h, &mut m1, &MultilevelEmbedConfig::default());
        let b = multilevel_lattice_embed(&h, &mut m2, &MultilevelEmbedConfig::default());
        assert_eq!(a, b);
    }
}
