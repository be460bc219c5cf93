//! SP-PG7-NL: the parallel formulation of geometric mesh partitioning
//! (§3, "Parallel Geometric Mesh Partitioning").
//!
//! Key elements, as in the paper: sampling across ranks to compute the
//! centerpoint fast; great circles generated *redundantly* on every rank
//! (same seeded stream, no communication); every rank computes its local
//! contribution to each separator's cut; a reduction selects the best cut.
//! Circle offsets come from the gathered sample's median, so the split is
//! near-balanced without a distributed median search.

use crate::config::GeoConfig;
use crate::gmt::GeoPartResult;
use crate::separator::{median, Separator, SeparatorKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_geometry::{
    centerpoint, lift_normalized, normalize_for_lift, random_unit_vector, CenterpointConfig,
    ConformalMap, Point2, Point3,
};
use sp_graph::distr::Distribution;
use sp_graph::{Bisection, Graph};
use sp_machine::Machine;

/// One shifted great circle of a centred sphere.
struct Circle {
    normal: Point3,
    offset: f64,
}

impl Circle {
    /// Signed distance of the mapped point `q`; positive is side 1.
    #[inline]
    fn signed(&self, q: Point3) -> f64 {
        self.normal.dot(q) - self.offset
    }
}

/// The separators every rank generates redundantly from the shared sample:
/// per centerpoint, the conformal map that centres it and the circles cut
/// through the mapped sphere. Tries are numbered in generation order.
struct Tries {
    center: Point2,
    scale: f64,
    centered: Vec<(ConformalMap, Vec<Circle>)>,
}

impl Tries {
    fn len(&self) -> usize {
        self.centered.iter().map(|(_, c)| c.len()).sum()
    }

    /// Every try in order, with the map of its centerpoint.
    fn iter(&self) -> impl Iterator<Item = (&ConformalMap, &Circle)> {
        self.centered
            .iter()
            .flat_map(|(map, circles)| circles.iter().map(move |c| (map, c)))
    }

    #[inline]
    fn lift(&self, c: Point2) -> Point3 {
        lift_normalized(c, self.center, self.scale)
    }

    /// Which side of each try every vertex is on: bit `ti % 8` of
    /// `sides[ti / 8 * n + v]` is set when `v` is on side 1 of try `ti`.
    /// One byte a vertex holds the five tries of G7-NL. A centerpoint's
    /// circles share the mapped point.
    fn sides(&self, coords: &[Point2]) -> Vec<u8> {
        let n = coords.len();
        let mut sides = vec![0u8; self.len().div_ceil(8) * n];
        for (v, &c) in coords.iter().enumerate() {
            let lifted = self.lift(c);
            let mut ti = 0;
            for (map, circles) in &self.centered {
                let q = map.apply(lifted);
                for circle in circles {
                    if circle.signed(q) > 0.0 {
                        sides[ti / 8 * n + v] |= 1 << (ti % 8);
                    }
                    ti += 1;
                }
            }
        }
        sides
    }
}

/// Normalise, sample across ranks and generate the tries, charging
/// `machine` for the moments, the gather and the redundant generation.
fn generate_tries(
    coords: &[Point2],
    dist: &Distribution,
    machine: &mut Machine,
    cfg: &GeoConfig,
    seed: u64,
) -> Tries {
    let p = machine.p();
    let n = coords.len();
    let mut rng = StdRng::seed_from_u64(seed);

    // --- Normalisation: local moments + allreduce of 4 words.
    let (center, scale) = normalize_for_lift(coords);
    {
        let rank_sizes = dist.rank_sizes();
        let mut states: Vec<()> = vec![(); p];
        machine.compute(&mut states, |r, _| rank_sizes[r] as f64);
        machine.allreduce_sum_costed(4);
    }

    // --- Sampling across ranks + allgather.
    let total_sample = cfg.sample_size.min(n);
    let stride = (n / total_sample.max(1)).max(1);
    let sample: Vec<Point2> = (0..n)
        .step_by(stride)
        .take(total_sample)
        .map(|v| coords[v])
        .collect();
    machine.allgather_costed(p * (2 * sample.len() / p.max(1)));
    let lifted_sample: Vec<Point3> = sample
        .iter()
        .map(|&s| lift_normalized(s, center, scale))
        .collect();

    // --- Redundant separator generation on every rank (identical stream).
    let cp_cfg = CenterpointConfig {
        sample_size: cfg.sample_size,
        iterations: 400,
    };
    let mut centered = Vec::with_capacity(cfg.n_centerpoints);
    for _ in 0..cfg.n_centerpoints {
        let cp = centerpoint(&lifted_sample, &cp_cfg, &mut rng);
        let map = ConformalMap::centering(cp);
        let mapped_sample: Vec<Point3> = lifted_sample.iter().map(|&s| map.apply(s)).collect();
        let circles = (0..cfg.circles_per_centerpoint)
            .map(|_| {
                let normal = random_unit_vector(&mut rng);
                let vals: Vec<f64> = mapped_sample.iter().map(|&s| normal.dot(s)).collect();
                Circle {
                    normal,
                    offset: median(&vals),
                }
            })
            .collect();
        centered.push((map, circles));
    }
    // (No line separators in the parallel formulation — the paper's NL.)
    {
        // Charge the redundant centerpoint + circle generation per rank.
        let cost = (cfg.sample_size * (cfg.n_centerpoints * 3 + cfg.total_tries())) as f64;
        let mut states: Vec<()> = vec![(); p];
        machine.compute(&mut states, |_, _| cost);
    }
    Tries {
        center,
        scale,
        centered,
    }
}

/// Local cut and balance contributions per try, in parallel over ranks:
/// each rank scans its owned vertices and their edges to higher ids (an
/// edge is counted at the owner of its lower endpoint). `acc[2·ti]` is try
/// `ti`'s cut, `acc[2·ti + 1]` its side-1 population.
///
/// A vertex's side of every try is worked out once, on the host, into a
/// bit mask; a rank XORs the masks of an edge's ends and counts in
/// integers. The counts, and the ops a rank reports — one per try per
/// owned vertex and per scanned edge — are integers far below 2^53, so
/// their `f64` bits are those of adding `1.0` that many times.
fn local_contributions(
    g: &Graph,
    coords: &[Point2],
    dist: &Distribution,
    machine: &mut Machine,
    tries: &Tries,
) -> Vec<Vec<f64>> {
    let n = g.n();
    let t = tries.len();
    let sides = tries.sides(coords);
    let rank_verts = dist.rank_vertices();
    let mut states: Vec<Vec<f64>> = vec![vec![0.0; 2 * t.max(1)]; machine.p()];
    machine.compute(&mut states, |r, acc| {
        let verts = &rank_verts[r];
        let mut ops = 0u64;
        for (b, block) in sides.chunks(n.max(1)).enumerate() {
            // How many owned vertices carry each mask of this block's eight
            // tries, and how many scanned edges each XOR of two masks.
            let mut ones = [0u64; 256];
            let mut cuts = [0u64; 256];
            for &v in verts {
                let sv = block[v as usize];
                ones[sv as usize] += 1;
                for &u in g.neighbors(v) {
                    if u < v {
                        continue; // counted at the lower endpoint's owner
                    }
                    cuts[(sv ^ block[u as usize]) as usize] += 1;
                }
            }
            let in_block = (t - 8 * b).min(8) as u64;
            ops += in_block * (verts.len() as u64 + cuts.iter().sum::<u64>());
            for (i, pair) in acc[16 * b..].chunks_mut(2).take(8).enumerate() {
                let with_bit = |count: &[u64; 256]| -> u64 {
                    (0..256)
                        .filter(|mask| mask >> i & 1 == 1)
                        .map(|mask| count[mask])
                        .sum()
                };
                pair[0] = with_bit(&cuts) as f64;
                pair[1] = with_bit(&ones) as f64;
            }
        }
        ops as f64
    });
    states
}

/// Parallel geometric partition of an embedded graph.
///
/// `dist` assigns vertices to ranks (cut contributions are counted at the
/// owner of the lower endpoint). Communication and per-rank computation are
/// charged to `machine`; the result is identical for any rank count.
pub fn parallel_geometric_partition(
    g: &Graph,
    coords: &[Point2],
    dist: &Distribution,
    machine: &mut Machine,
    cfg: &GeoConfig,
    seed: u64,
) -> GeoPartResult {
    assert_eq!(coords.len(), g.n());
    assert_eq!(dist.p, machine.p());
    let tries = generate_tries(coords, dist, machine, cfg, seed);
    let contribs = local_contributions(g, coords, dist, machine, &tries);
    select_separator(g, coords, machine, cfg, &tries, &contribs)
}

/// Three short reductions (cut totals, balance totals, winner), then the
/// winning separator materialised on every vertex — or a line median when
/// no try was eligible.
fn select_separator(
    g: &Graph,
    coords: &[Point2],
    machine: &mut Machine,
    cfg: &GeoConfig,
    tries: &Tries,
    contribs: &[Vec<f64>],
) -> GeoPartResult {
    let n = g.n();
    let totals = machine.allreduce_sum(contribs);
    machine.allreduce_sum_costed(1);
    let mut keys = vec![f64::INFINITY; machine.p()];
    let mut best_try = None;
    let mut best_cut = usize::MAX;
    for ti in 0..totals.len() / 2 {
        let cut = totals[2 * ti] as usize;
        let side1 = totals[2 * ti + 1];
        let imb = (side1.max(n as f64 - side1)) / (n as f64 / 2.0) - 1.0;
        if side1 > 0.0 && side1 < n as f64 && imb <= cfg.balance_tol && cut < best_cut {
            best_cut = cut;
            best_try = Some(ti);
        }
    }
    keys[0] = best_cut as f64;
    let _ = machine.allreduce_min_index(&keys);

    let sep = if let Some((map, winner)) = best_try.and_then(|ti| tries.iter().nth(ti)) {
        Separator {
            kind: SeparatorKind::Circle {
                normal: winner.normal,
                offset: winner.offset,
            },
            signed: coords
                .iter()
                .map(|&c| winner.signed(map.apply(tries.lift(c))))
                .collect(),
        }
    } else {
        let vals: Vec<f64> = coords.iter().map(|c| c.x).collect();
        let th = median(&vals);
        let mut signed: Vec<f64> = vals.iter().map(|&v| v - th).collect();
        // Guarantee non-degeneracy on tie plateaus by index split.
        let ones = signed.iter().filter(|&&s| s > 0.0).count();
        if ones == 0 || ones == n {
            for (i, s) in signed.iter_mut().enumerate() {
                *s = if i >= n / 2 { 1.0 } else { -1.0 };
            }
        }
        Separator {
            kind: SeparatorKind::Line {
                dir: Point2::new(1.0, 0.0),
                threshold: th,
            },
            signed,
        }
    };
    let bisection = Bisection::new(sep.sides());
    let cut = bisection.cut_edges(g);
    GeoPartResult {
        bisection,
        cut,
        separator: sep,
        try_cuts: vec![cut],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};
    use sp_machine::CostModel;

    /// The counting superstep this one replaced: a rank lifts and maps the
    /// far end of every edge it scans, once per try, and counts in `f64`.
    fn local_contributions_per_edge(
        g: &Graph,
        coords: &[Point2],
        dist: &Distribution,
        machine: &mut Machine,
        tries: &Tries,
    ) -> Vec<Vec<f64>> {
        let rank_verts = dist.rank_vertices();
        let mut states: Vec<Vec<f64>> = vec![vec![0.0; 2 * tries.len().max(1)]; machine.p()];
        machine.compute(&mut states, |r, acc| {
            let mut ops = 0.0;
            for &v in &rank_verts[r] {
                let pv = tries.lift(coords[v as usize]);
                for (ti, (map, circle)) in tries.iter().enumerate() {
                    let sv = circle.signed(map.apply(pv));
                    if sv > 0.0 {
                        acc[2 * ti + 1] += 1.0;
                    }
                    for &u in g.neighbors(v) {
                        if u < v {
                            continue;
                        }
                        let su = circle.signed(map.apply(tries.lift(coords[u as usize])));
                        if (sv > 0.0) != (su > 0.0) {
                            acc[2 * ti] += 1.0;
                        }
                        ops += 1.0;
                    }
                    ops += 1.0;
                }
            }
            ops
        });
        states
    }

    type Counting = fn(&Graph, &[Point2], &Distribution, &mut Machine, &Tries) -> Vec<Vec<f64>>;

    /// Everything a caller or an observer can tell a run by.
    #[derive(Debug, PartialEq)]
    struct Observed {
        contribs: Vec<Vec<u64>>,
        events: Vec<sp_machine::trace::Event>,
        elapsed: u64,
        signed: Vec<u64>,
        sides: Vec<u8>,
        cut: usize,
        circle: bool,
    }

    fn observe(
        g: &Graph,
        coords: &[Point2],
        p: usize,
        cfg: &GeoConfig,
        count: Counting,
    ) -> Observed {
        use sp_machine::TraceRecorder;
        let dist = Distribution::block(g.n(), p);
        let mut m = Machine::new(p, CostModel::qdr_infiniband());
        m.set_recorder(Box::new(TraceRecorder::new(p)));
        let tries = generate_tries(coords, &dist, &mut m, cfg, 11);
        let contribs = count(g, coords, &dist, &mut m, &tries);
        let r = select_separator(g, coords, &mut m, cfg, &tries, &contribs);
        r.validate(g).unwrap();
        let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        Observed {
            contribs: contribs.iter().map(|c| bits(c)).collect(),
            events: rec.events().to_vec(),
            elapsed: m.elapsed().to_bits(),
            signed: bits(&r.separator.signed),
            sides: r.bisection.sides().to_vec(),
            cut: r.cut,
            circle: matches!(r.separator.kind, SeparatorKind::Circle { .. }),
        }
    }

    #[test]
    fn sides_computed_once_count_what_the_per_edge_loop_counted() {
        let grid = (grid_2d(16, 14), grid_2d_coords(16, 14));
        let mesh = delaunay_graph(700, &mut StdRng::seed_from_u64(4));
        let collapsed = (grid_2d(8, 8), vec![Point2::ZERO; 64]);
        // 70 tries over two centerpoints: nine blocks of masks, the last
        // six tries wide.
        let many = GeoConfig {
            n_centerpoints: 2,
            circles_per_centerpoint: 35,
            ..GeoConfig::g7_nl()
        };
        for (g, coords) in [&grid, &mesh, &collapsed] {
            for cfg in [GeoConfig::g7_nl(), many] {
                for p in [1usize, 4, 64] {
                    let got = observe(g, coords, p, &cfg, local_contributions);
                    let want = observe(g, coords, p, &cfg, local_contributions_per_edge);
                    assert_eq!(got, want, "n={} p={p} {cfg:?}", g.n());
                    assert_eq!(got.contribs[0].len(), 2 * cfg.total_tries());
                    assert_eq!(got.circle, coords[0] != coords[1], "fallback");
                }
            }
        }
    }

    #[test]
    fn parallel_result_is_rank_count_invariant() {
        let g = grid_2d(16, 16);
        let coords = grid_2d_coords(16, 16);
        let mut cuts = Vec::new();
        for p in [1usize, 4, 16] {
            let dist = Distribution::block(g.n(), p);
            let mut m = Machine::new(p, CostModel::qdr_infiniband());
            let r =
                parallel_geometric_partition(&g, &coords, &dist, &mut m, &GeoConfig::g7_nl(), 42);
            r.bisection.validate(&g).unwrap();
            cuts.push(r.cut);
        }
        assert_eq!(cuts[0], cuts[1]);
        assert_eq!(cuts[1], cuts[2]);
    }

    #[test]
    fn parallel_cut_quality_is_reasonable() {
        let mut rng = StdRng::seed_from_u64(9);
        let (g, coords) = delaunay_graph(2500, &mut rng);
        let dist = Distribution::block(g.n(), 8);
        let mut m = Machine::new(8, CostModel::qdr_infiniband());
        let r = parallel_geometric_partition(&g, &coords, &dist, &mut m, &GeoConfig::g7_nl(), 3);
        r.bisection.validate(&g).unwrap();
        assert!(r.cut < 400, "cut {}", r.cut);
        assert!(r.bisection.imbalance(&g) < 0.12);
    }

    #[test]
    fn partition_time_shrinks_with_ranks() {
        let mut rng = StdRng::seed_from_u64(11);
        let (g, coords) = delaunay_graph(4000, &mut rng);
        let mut times = Vec::new();
        for p in [1usize, 16] {
            let dist = Distribution::block(g.n(), p);
            let mut m = Machine::new(p, CostModel::qdr_infiniband());
            let _ =
                parallel_geometric_partition(&g, &coords, &dist, &mut m, &GeoConfig::g7_nl(), 5);
            times.push(m.elapsed());
        }
        assert!(times[1] < times[0] / 2.0, "times {times:?}");
    }

    #[test]
    fn charges_three_reduction_class_comm() {
        let g = grid_2d(12, 12);
        let coords = grid_2d_coords(12, 12);
        let dist = Distribution::block(g.n(), 4);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let _ = parallel_geometric_partition(&g, &coords, &dist, &mut m, &GeoConfig::g7_nl(), 7);
        assert!(m.comm_time() > 0.0);
        // Communication is "low": a handful of small collectives, so well
        // under a millisecond at QDR parameters.
        assert!(m.comm_time() < 1e-3);
    }

    #[test]
    fn collapsed_coordinates_fall_back() {
        let g = grid_2d(8, 8);
        let coords = vec![Point2::ZERO; 64];
        let dist = Distribution::block(64, 2);
        let mut m = Machine::new(2, CostModel::qdr_infiniband());
        let r = parallel_geometric_partition(&g, &coords, &dist, &mut m, &GeoConfig::g7_nl(), 1);
        r.bisection.validate(&g).unwrap();
    }
}
