//! The ScalaPart pipeline: coarsen → embed → partition → strip-refine.

use crate::config::SpConfig;
use crate::observe::{Cancelled, LevelStats, NoopObserver, PipelineObserver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_coarsen::{
    charge_contraction, contract_with, parallel_hem_in, CoarsenArena, Hierarchy, Level,
};
use sp_embed::{lattice_smooth_with, multilevel_lattice_embed_with, Smoother};
use sp_geometry::Point2;
use sp_geopart::parallel_geometric_partition;
use sp_graph::distr::Distribution;
use sp_graph::{Bisection, Graph};
use sp_machine::{Machine, Phase, PhaseBreakdown};
use sp_refine::strip_refine;

/// Per-phase simulated time (computation/communication split), the data
/// behind the paper's Figures 7 and 8.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    pub coarsen: PhaseBreakdown,
    pub embed: PhaseBreakdown,
    pub partition: PhaseBreakdown,
}

impl PhaseTimes {
    pub fn total(&self) -> f64 {
        self.coarsen.total() + self.embed.total() + self.partition.total()
    }
}

/// Result of a ScalaPart run.
pub struct SpResult {
    pub bisection: Bisection,
    /// Unweighted separator size |S| after refinement.
    pub cut: usize,
    /// Separator size before strip refinement.
    pub cut_before_refine: usize,
    /// Weighted imbalance of the final bisection.
    pub imbalance: f64,
    /// Simulated elapsed time of the whole run.
    pub total_time: f64,
    /// Per-phase breakdown.
    pub times: PhaseTimes,
    /// The embedding the run computed (for plotting / reuse); empty from
    /// [`sp_pg7nl_bisect`], which computes none: its caller has it.
    pub coords: Vec<Point2>,
    /// Strip size used by the refinement (0 when disabled).
    pub strip_size: usize,
}

/// Run the full ScalaPart pipeline on `machine`.
pub fn scalapart_bisect(g: &Graph, machine: &mut Machine, cfg: &SpConfig) -> SpResult {
    scalapart_bisect_with(g, machine, cfg, &mut NoopObserver, &mut lattice_smooth_with)
}

/// [`scalapart_bisect`] with a checkpoint observer (see
/// [`PipelineObserver`]).
pub fn scalapart_bisect_observed(
    g: &Graph,
    machine: &mut Machine,
    cfg: &SpConfig,
    obs: &mut dyn PipelineObserver,
) -> SpResult {
    scalapart_bisect_with(g, machine, cfg, obs, &mut lattice_smooth_with)
}

/// [`scalapart_bisect`] with a checkpoint observer *and* a pluggable
/// lattice smoother. The differential tests pass the pre-optimization
/// reference smoother here: every other stage is the same code, so any
/// output divergence indicts the optimized smoothing kernel alone.
///
/// The observer's [`poll_cancel`](PipelineObserver::poll_cancel) must stay
/// `false` on this entry point; pass a cancelling observer to
/// [`scalapart_bisect_checked`] instead.
pub fn scalapart_bisect_with(
    g: &Graph,
    machine: &mut Machine,
    cfg: &SpConfig,
    obs: &mut dyn PipelineObserver,
    smoother: Smoother<'_>,
) -> SpResult {
    scalapart_bisect_checked(g, machine, cfg, obs, smoother)
        .expect("observer cancelled the pipeline; use scalapart_bisect_checked")
}

/// The cancellable pipeline: identical to [`scalapart_bisect_with`], but
/// the observer's [`poll_cancel`](PipelineObserver::poll_cancel) is
/// honoured at every checkpoint and aborts the run with
/// [`Err(Cancelled)`](Cancelled). This is the hook sp-serve threads
/// per-job deadlines through.
pub fn scalapart_bisect_checked(
    g: &Graph,
    machine: &mut Machine,
    cfg: &SpConfig,
    obs: &mut dyn PipelineObserver,
    smoother: Smoother<'_>,
) -> Result<SpResult, Cancelled> {
    let p = machine.p();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // ---- Phase 1: coarsening (parallel HEM at full P, retaining every
    // other contraction so retained levels shrink ≈ 4×).
    machine.phase(Phase::Coarsen);
    let t0 = machine.elapsed();
    let hierarchy = coarsen_parallel(g, machine, cfg, &mut rng, obs)?;
    obs.on_hierarchy(&hierarchy);
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    machine.barrier();
    let t1 = machine.elapsed();

    // ---- Phase 2: multilevel fixed-lattice embedding.
    machine.phase(Phase::Embed);
    let mut embed_cfg = cfg.embed;
    embed_cfg.seed = cfg.embed.seed ^ cfg.seed;
    let coords = multilevel_lattice_embed_with(&hierarchy, machine, &embed_cfg, smoother);
    obs.on_embedding(g, &coords);
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    machine.barrier();
    let t2 = machine.elapsed();

    // ---- Phase 3: parallel geometric partitioning + strip refinement.
    machine.phase(Phase::Partition);
    let dist = Distribution::block(g.n(), p);
    let geo = parallel_geometric_partition(g, &coords, &dist, machine, &cfg.geo, cfg.seed ^ 0x9E0);
    obs.on_geo_partition(g, &geo);
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    let mut bisection = geo.bisection;
    let cut_before_refine = geo.cut;
    let refined = strip_refine(
        g,
        &mut bisection,
        &geo.separator.signed,
        geo.cut,
        cfg.strip_factor,
        &cfg.fm,
        machine,
    );
    if let Some(r) = &refined {
        obs.on_refined(g, &bisection, &r.stats);
    }
    let strip_size = refined.map_or(0, |r| r.strip_size);
    let t3 = machine.elapsed();
    machine.phase(Phase::Done);

    // Phase walls are barrier-delimited; the communication share of a
    // phase is wall time minus the critical-path computation within it
    // (idle waiting counts as communication, as it would in an MPI trace).
    // Phases are typed: sub-phase labels (e.g. the embedder's per-level
    // smoothing spans) aggregate into their parent phase by construction,
    // so no string matching is needed here.
    let breakdown = machine.phase_breakdown();
    let comp_of = |ph: Phase| breakdown.get(&ph).map_or(0.0, |b| b.comp);
    let comp = [
        comp_of(Phase::Coarsen),
        comp_of(Phase::Embed),
        comp_of(Phase::Partition),
    ];
    let walls = [t1 - t0, t2 - t1, t3 - t2];
    let mk = |i: usize| PhaseBreakdown {
        comp: comp[i].min(walls[i]),
        comm: (walls[i] - comp[i]).max(0.0),
    };
    let times = PhaseTimes {
        coarsen: mk(0),
        embed: mk(1),
        partition: mk(2),
    };
    let cut = bisection.cut_edges(g);
    let imbalance = bisection.imbalance(g);
    Ok(SpResult {
        bisection,
        cut,
        cut_before_refine,
        imbalance,
        total_time: machine.elapsed(),
        times,
        coords,
        strip_size,
    })
}

/// SP-PG7-NL alone: parallel geometric partitioning plus strip refinement
/// of a graph that *already has coordinates* — the paper's Fig 4 / Table 4
/// use case (re-partitioning meshes, competing directly with RCB).
pub fn sp_pg7nl_bisect(
    g: &Graph,
    coords: &[Point2],
    machine: &mut Machine,
    cfg: &SpConfig,
) -> SpResult {
    let p = machine.p();
    machine.phase(Phase::Partition);
    let dist = Distribution::block(g.n(), p);
    let geo = parallel_geometric_partition(g, coords, &dist, machine, &cfg.geo, cfg.seed ^ 0x9E0);
    let mut bisection = geo.bisection;
    let cut_before_refine = geo.cut;
    let strip_size = strip_refine(
        g,
        &mut bisection,
        &geo.separator.signed,
        geo.cut,
        cfg.strip_factor,
        &cfg.fm,
        machine,
    )
    .map_or(0, |r| r.strip_size);
    machine.phase(Phase::Done);
    let mut breakdown = machine.phase_breakdown();
    let times = PhaseTimes {
        partition: breakdown.remove(&Phase::Partition).unwrap_or_default(),
        ..Default::default()
    };
    let cut = bisection.cut_edges(g);
    let imbalance = bisection.imbalance(g);
    SpResult {
        bisection,
        cut,
        cut_before_refine,
        imbalance,
        total_time: machine.elapsed(),
        times,
        coords: Vec::new(),
        strip_size,
    }
}

/// Parallel coarsening retaining every other contraction, charged to the
/// machine (the paper: "the graph is coarsened using the heavy-edge
/// matching as in ParMetis … we only retain every other graph").
fn coarsen_parallel(
    g: &Graph,
    machine: &mut Machine,
    cfg: &SpConfig,
    rng: &mut StdRng,
    obs: &mut dyn PipelineObserver,
) -> Result<Hierarchy, Cancelled> {
    let p = machine.p();
    // One arena per coarsening run: matching flags and contraction
    // scratch are sized by level 0 and reused down the hierarchy.
    let mut arena = CoarsenArena::new();
    let mut levels = vec![Level {
        graph: g.clone(),
        map_to_coarser: None,
    }];
    loop {
        let cur = &levels.last().unwrap().graph;
        if cur.n() <= cfg.coarsen.target_coarsest || levels.len() > cfg.coarsen.max_levels {
            break;
        }
        let step = |graph: &Graph,
                    machine: &mut Machine,
                    rng: &mut StdRng,
                    obs: &mut dyn PipelineObserver,
                    arena: &mut CoarsenArena| {
            let dist = Distribution::block(graph.n(), p);
            let matching = parallel_hem_in(
                graph,
                &dist,
                machine,
                cfg.matching_rounds,
                rng.random::<u64>(),
                arena,
            );
            obs.on_matching(graph, &matching);
            if obs.poll_cancel() {
                return Err(Cancelled);
            }
            let c = contract_with(graph, &matching, arena);
            obs.on_contraction(graph, &matching, &c);
            if obs.poll_cancel() {
                return Err(Cancelled);
            }
            charge_contraction(graph, &dist, machine);
            Ok(c)
        };
        let (fine_n, fine_m) = (cur.n(), cur.m());
        let c1 = step(cur, machine, rng, obs, &mut arena)?;
        let (coarse, map) =
            if cfg.coarsen.keep_every_other && c1.coarse.n() > cfg.coarsen.target_coarsest {
                let c2 = step(&c1.coarse, machine, rng, obs, &mut arena)?;
                let composed: Vec<u32> = c1.map.iter().map(|&mid| c2.map[mid as usize]).collect();
                (c2.coarse, composed)
            } else {
                (c1.coarse, c1.map)
            };
        // Stop when matching stalls: grinding out barely-shrinking levels
        // costs smoothing iterations without improving the coarsest embed.
        if coarse.n() as f64 > 0.7 * levels.last().unwrap().graph.n() as f64 {
            break;
        }
        obs.on_level_stats(&LevelStats {
            level: levels.len() - 1,
            fine_n,
            fine_m,
            coarse_n: coarse.n(),
            coarse_m: coarse.m(),
            arena_bytes: arena.high_water_bytes(),
        });
        levels.last_mut().unwrap().map_to_coarser = Some(map);
        levels.push(Level {
            graph: coarse,
            map_to_coarser: None,
        });
    }
    Ok(Hierarchy { levels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;
    use sp_machine::CostModel;

    #[test]
    fn pipeline_produces_valid_balanced_bisection() {
        let g = grid_2d(32, 32);
        let mut m = Machine::new(16, CostModel::qdr_infiniband());
        let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
        r.bisection.validate(&g).unwrap();
        assert!(r.imbalance < 0.12, "imbalance {}", r.imbalance);
        assert!(r.cut > 0);
        assert!(r.cut < g.m() / 4, "cut {} of m {}", r.cut, g.m());
        assert_eq!(r.coords.len(), g.n());
        assert!(r.total_time > 0.0);
    }

    #[test]
    fn refinement_does_not_worsen_cut() {
        let g = grid_2d(24, 24);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
        assert!(
            r.cut <= r.cut_before_refine,
            "{} > {}",
            r.cut,
            r.cut_before_refine
        );
        assert!(r.strip_size > 0);
    }

    #[test]
    fn phase_times_cover_total() {
        // Big enough that coarsening actually happens (default target 1000).
        let g = grid_2d(48, 48);
        let mut m = Machine::new(16, CostModel::qdr_infiniband());
        let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
        assert!(r.times.coarsen.total() > 0.0);
        assert!(r.times.embed.total() > 0.0);
        assert!(r.times.partition.total() > 0.0);
        // Embedding dominates (the paper's Fig 7 observation).
        assert!(r.times.embed.total() > r.times.partition.total());
    }

    #[test]
    fn labeled_subphases_aggregate_into_parent_phase() {
        // The embedder switches through labeled sub-phases ("coarsest",
        // "smooth-N") of Phase::Embed; all of them must land in the one
        // Embed bucket, and no stray phase keys may appear.
        let g = grid_2d(48, 48);
        let mut m = Machine::new(16, CostModel::qdr_infiniband());
        let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
        assert!(r.times.embed.total() > 0.0);
        let bd = m.phase_breakdown();
        assert!(bd[&Phase::Embed].comp > 0.0);
        for ph in bd.keys() {
            assert!(
                matches!(
                    ph,
                    Phase::Idle | Phase::Coarsen | Phase::Embed | Phase::Partition | Phase::Done
                ),
                "unexpected phase {ph}"
            );
        }
    }

    #[test]
    fn sp_pg7nl_reuses_coordinates() {
        let g = grid_2d(20, 20);
        let coords = sp_graph::gen::grid_2d_coords(20, 20);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let r = sp_pg7nl_bisect(&g, &coords, &mut m, &SpConfig::default());
        r.bisection.validate(&g).unwrap();
        // With perfect mesh coordinates the cut is near-optimal (20).
        assert!(r.cut <= 40, "cut {}", r.cut);
        assert_eq!(r.times.coarsen.total(), 0.0);
        assert_eq!(r.times.embed.total(), 0.0);
    }

    #[test]
    fn deterministic_given_seed_and_p() {
        let g = grid_2d(16, 16);
        let run = || {
            let mut m = Machine::new(4, CostModel::qdr_infiniband());
            let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
            (r.cut, m.elapsed())
        };
        assert_eq!(run(), run());
    }
}
