//! Parallel multilevel bisection: the ParMetis-like and Pt-Scotch-like
//! comparators.
//!
//! Shared skeleton: (1) coarsen with SPMD heavy-edge matching, **all ranks
//! active at every level** (this is the structural difference from
//! ScalaPart, whose smoothing quarters the active set per level — and the
//! reason these methods accumulate `t_s·levels·log P` latency at scale);
//! (2) gather the coarsest graph and compute an initial bisection by greedy
//! graph growing plus FM, redundantly on every rank; (3) uncoarsen,
//! projecting the bisection and refining with band-restricted FM, paying
//! per-pass halo exchanges and consensus allreduces.
//!
//! The two presets differ exactly where the originals differ: Pt-Scotch
//! invests in wider bands, more FM passes, and tighter balance (better
//! cuts, slower at scale); ParMetis trades quality for speed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_coarsen::{charge_contraction, contract_with, parallel_hem_in, CoarsenArena};
use sp_graph::distr::Distribution;
use sp_graph::{Bisection, Graph};
use sp_machine::{CostOnly, Machine, Phase};
use sp_refine::{band_by_hops, fm_refine, FmConfig};

/// Configuration for a multilevel run.
#[derive(Clone, Copy, Debug)]
pub struct MultilevelConfig {
    /// Stop coarsening at this size.
    pub coarsest: usize,
    /// SPMD matching rounds per level.
    pub matching_rounds: u32,
    /// Band width (hops) for uncoarsening refinement.
    pub band_hops: u32,
    /// FM passes per level during uncoarsening.
    pub fm_passes: usize,
    /// Balance tolerance.
    pub balance_tol: f64,
    /// Extra consensus collectives per refinement pass (Pt-Scotch's
    /// stricter convergence/rebalance checks).
    pub collectives_per_pass: usize,
    /// FM passes on the coarsest initial partition.
    pub initial_fm_passes: usize,
    /// Cap on FM moves per pass as a fraction of the band (ParMetis's
    /// speed-over-quality tradeoff: it refines with a limited move budget).
    pub move_fraction: f64,
    /// Pt-Scotch's multi-sequential refinement: gather the band graph on
    /// every rank and refine it sequentially (better cuts, but refinement
    /// stops scaling — the documented Pt-Scotch behaviour and the reason
    /// it is slowest at high P). ParMetis refines distributed.
    pub centralize_band: bool,
    /// RNG seed.
    pub seed: u64,
}

impl MultilevelConfig {
    /// ParMetis-class settings: fast coarsening and refinement.
    pub fn parmetis_like(seed: u64) -> Self {
        MultilevelConfig {
            coarsest: 200,
            matching_rounds: 4,
            band_hops: 1,
            fm_passes: 1,
            balance_tol: 0.08,
            collectives_per_pass: 1,
            initial_fm_passes: 2,
            move_fraction: 0.25,
            centralize_band: false,
            seed,
        }
    }

    /// Pt-Scotch-class settings: band graphs, more refinement.
    pub fn ptscotch_like(seed: u64) -> Self {
        MultilevelConfig {
            coarsest: 200,
            matching_rounds: 4,
            band_hops: 3,
            fm_passes: 6,
            balance_tol: 0.05,
            collectives_per_pass: 3,
            initial_fm_passes: 8,
            move_fraction: 1.0,
            centralize_band: true,
            seed,
        }
    }
}

/// Statistics from a multilevel run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MlStats {
    pub levels: usize,
    pub coarsest_n: usize,
    pub initial_cut: f64,
    pub final_cut: f64,
}

/// Run the multilevel bisection on `machine`. Deterministic for a given
/// `(graph, p, cfg)`.
pub fn multilevel_bisect(
    g: &Graph,
    machine: &mut Machine,
    cfg: &MultilevelConfig,
) -> (Bisection, MlStats) {
    let p = machine.p();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (p as u64) << 40);
    let mut stats = MlStats::default();

    // --- Coarsening: every level with all P ranks active.
    machine.phase(Phase::Coarsen);
    let mut graphs: Vec<Graph> = vec![g.clone()];
    let mut maps: Vec<Vec<u32>> = Vec::new();
    {
        // The matcher and the contraction ScalaPart coarsens with, on one
        // arena that lives as long as the coarsening does.
        let mut arena = CoarsenArena::new();
        while graphs.last().unwrap().n() > cfg.coarsest && graphs.len() < 60 {
            let cur = graphs.last().unwrap();
            let dist = Distribution::block(cur.n(), p);
            let matching = parallel_hem_in(
                cur,
                &dist,
                machine,
                cfg.matching_rounds,
                rng.random::<u64>(),
                &mut arena,
            );
            let c = contract_with(cur, &matching, &mut arena);
            if c.coarse.n() as f64 > 0.95 * cur.n() as f64 {
                break;
            }
            charge_contraction(cur, &dist, machine);
            maps.push(c.map);
            graphs.push(c.coarse);
        }
    }
    stats.levels = graphs.len();
    stats.coarsest_n = graphs.last().unwrap().n();

    // --- Initial partition: allgather the coarsest graph, then greedy
    // graph growing + FM redundantly on every rank.
    machine.phase(Phase::Initial);
    let coarsest = graphs.last().unwrap();
    {
        let words = 2 * coarsest.m() + coarsest.n();
        machine.allgather_costed(p * (words / p.max(1)));
    }
    let mut bi = greedy_grow(coarsest, &mut rng);
    let fm_cfg = FmConfig {
        max_passes: cfg.initial_fm_passes,
        balance_tol: cfg.balance_tol,
        move_fraction: 1.0,
    };
    let s0 = fm_refine(coarsest, &mut bi, None, &fm_cfg);
    stats.initial_cut = s0.cut_after;
    {
        let ops = (coarsest.m() as f64) * 8.0;
        let mut states: Vec<()> = vec![(); p];
        machine.compute(&mut states, |_, _| ops); // redundant on every rank
    }

    // --- Uncoarsening with band-restricted FM.
    machine.phase(Phase::Refine);
    for lvl in (0..maps.len()).rev() {
        let fine = &graphs[lvl];
        let map = &maps[lvl];
        // Project.
        let mut fbi = Bisection::new(map.iter().map(|&c| bi.side(c)).collect::<Vec<u8>>());
        // Band + FM (executed once; work charged as distributed over P).
        let band = band_by_hops(fine, &fbi, cfg.band_hops);
        let band_size = band.iter().filter(|&&b| b).count();
        let refine_cfg = FmConfig {
            max_passes: cfg.fm_passes,
            balance_tol: cfg.balance_tol,
            move_fraction: cfg.move_fraction,
        };
        let st = fm_refine(fine, &mut fbi, Some(&band), &refine_cfg);
        // Cost: band extraction (BFS ∝ band edges) is distributed. The FM
        // itself is either distributed (ParMetis) or multi-sequential on a
        // gathered band graph (Pt-Scotch): the band is allgathered and the
        // FM ops run redundantly on every rank — refinement time then has
        // a P-independent floor, Pt-Scotch's documented scaling limit.
        let mut states: Vec<()> = vec![(); p];
        if cfg.centralize_band {
            let words = (3 * band_size / p.max(1)).max(1);
            machine.allgather_costed(p * words);
            let ops = st.ops + band_size as f64 / p as f64;
            machine.compute(&mut states, |_, _| ops);
        } else {
            let ops = (st.ops + band_size as f64) / p as f64;
            machine.compute(&mut states, |_, _| ops);
        }
        let dist = Distribution::block(fine.n(), p);
        let cross = dist.cross_edges(fine);
        for _pass in 0..st.passes {
            if p > 1 {
                let words = (2 * cross / p.max(1)).max(1);
                let outbox: Vec<Vec<(usize, CostOnly)>> = (0..p)
                    .map(|r| vec![((r + 1) % p, CostOnly::new(words))])
                    .collect();
                machine.exchange_costed(&outbox);
            }
            for _ in 0..cfg.collectives_per_pass {
                machine.allreduce_sum_costed(2);
            }
        }
        bi = fbi;
    }
    stats.final_cut = bi.cut(g);
    machine.phase(Phase::Done);
    (bi, stats)
}

/// Greedy graph growing: BFS from a random seed until half the vertex
/// weight is claimed.
fn greedy_grow<R: Rng>(g: &Graph, rng: &mut R) -> Bisection {
    let n = g.n();
    if n == 0 {
        return Bisection::new(Vec::new());
    }
    let half = g.total_vwgt() / 2.0;
    let mut side = vec![1u8; n];
    let start = rng.random_range(0..n) as u32;
    let mut claimed = 0.0;
    let mut queue = std::collections::VecDeque::new();
    let mut seen = vec![false; n];
    queue.push_back(start);
    seen[start as usize] = true;
    while let Some(v) = queue.pop_front() {
        if claimed >= half {
            break;
        }
        side[v as usize] = 0;
        claimed += g.vwgt(v);
        for &u in g.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    // Disconnected remainder: claim arbitrary vertices if short of half.
    if claimed < half {
        for (v, s) in side.iter_mut().enumerate() {
            if claimed >= half {
                break;
            }
            if *s == 1 {
                *s = 0;
                claimed += g.vwgt(v as u32);
            }
        }
    }
    Bisection::new(side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::{delaunay_graph, grid_2d};
    use sp_machine::CostModel;

    #[test]
    fn parmetis_like_produces_valid_balanced_cut() {
        let g = grid_2d(32, 32);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let (bi, st) = multilevel_bisect(&g, &mut m, &MultilevelConfig::parmetis_like(1));
        bi.validate(&g).unwrap();
        assert!(bi.imbalance(&g) < 0.08, "imbalance {}", bi.imbalance(&g));
        assert!(st.final_cut < (g.m() / 4) as f64, "cut {}", st.final_cut);
        assert!(st.levels > 2);
    }

    #[test]
    fn ptscotch_like_beats_parmetis_like_on_quality() {
        // Individual seeds are noisy (different matchings → different
        // hierarchies), so compare mean cuts across seeds, which is what
        // the paper's Table 3 ranges reflect.
        let mut pm_total = 0.0;
        let mut ps_total = 0.0;
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(40 + seed);
            let (g, _) = delaunay_graph(2000, &mut rng);
            let mut m1 = Machine::new(4, CostModel::qdr_infiniband());
            let mut m2 = Machine::new(4, CostModel::qdr_infiniband());
            let (_, s_pm) = multilevel_bisect(&g, &mut m1, &MultilevelConfig::parmetis_like(seed));
            let (_, s_ps) = multilevel_bisect(&g, &mut m2, &MultilevelConfig::ptscotch_like(seed));
            pm_total += s_pm.final_cut;
            ps_total += s_ps.final_cut;
        }
        assert!(
            ps_total < pm_total,
            "Pt-Scotch-like mean cut {} ≥ ParMetis-like {}",
            ps_total / 6.0,
            pm_total / 6.0
        );
    }

    #[test]
    fn ptscotch_like_is_slower_than_parmetis_like_at_scale() {
        let g = grid_2d(48, 48);
        let p = 64;
        let mut m1 = Machine::new(p, CostModel::qdr_infiniband());
        let mut m2 = Machine::new(p, CostModel::qdr_infiniband());
        let _ = multilevel_bisect(&g, &mut m1, &MultilevelConfig::parmetis_like(2));
        let _ = multilevel_bisect(&g, &mut m2, &MultilevelConfig::ptscotch_like(2));
        assert!(
            m2.elapsed() > m1.elapsed(),
            "ptscotch {} ≤ parmetis {}",
            m2.elapsed(),
            m1.elapsed()
        );
    }

    #[test]
    fn refinement_improves_projected_cut() {
        let g = grid_2d(40, 40);
        let mut m = Machine::new(2, CostModel::qdr_infiniband());
        let (_, st) = multilevel_bisect(&g, &mut m, &MultilevelConfig::ptscotch_like(5));
        // Final cut should be in the vicinity of the optimal 40 and far
        // below a random cut (~m/2 = 1560).
        assert!(st.final_cut < 200.0, "final cut {}", st.final_cut);
    }

    #[test]
    fn deterministic_per_p_but_varies_across_p() {
        let g = grid_2d(24, 24);
        let run = |p: usize| {
            let mut m = Machine::new(p, CostModel::qdr_infiniband());
            let (bi, _) = multilevel_bisect(&g, &mut m, &MultilevelConfig::parmetis_like(3));
            bi.cut(&g)
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn greedy_grow_is_roughly_balanced() {
        let g = grid_2d(20, 20);
        let mut rng = StdRng::seed_from_u64(8);
        let bi = greedy_grow(&g, &mut rng);
        assert!(bi.imbalance(&g) < 0.05, "imbalance {}", bi.imbalance(&g));
    }
}
