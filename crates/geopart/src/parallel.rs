//! SP-PG7-NL: the parallel formulation of geometric mesh partitioning
//! (§3, "Parallel Geometric Mesh Partitioning").
//!
//! Key elements, as in the paper: sampling across ranks to compute the
//! centerpoint fast; great circles generated *redundantly* on every rank
//! (same seeded stream, no communication); every rank computes its local
//! contribution to each separator's cut; a reduction selects the best cut.
//! Circle offsets come from the gathered sample's median, so the split is
//! near-balanced without a distributed median search.

use crate::config::{GeoConfig, BALANCE_TOL, SAMPLE_SIZE};
use crate::gmt::GeoPartResult;
use crate::separator::{median, Separator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_geometry::{
    centerpoint, lift_normalized, normalize_for_lift, random_unit_vector, CenterpointConfig,
    ConformalMap, GreatCircle, Point2, Point3,
};
use sp_graph::distr::Distribution;
use sp_graph::{Bisection, Graph};
use sp_machine::Machine;

/// The separators every rank generates redundantly from the shared sample:
/// per centerpoint, the conformal map that centres it and the circles cut
/// through the mapped sphere. Tries are numbered in generation order.
struct Tries {
    center: Point2,
    scale: f64,
    centered: Vec<(ConformalMap, Vec<GreatCircle>)>,
}

impl Tries {
    fn len(&self) -> usize {
        self.centered.iter().map(|(_, c)| c.len()).sum()
    }

    /// Every try in order, with the index and the map of its centerpoint.
    fn iter(&self) -> impl Iterator<Item = (usize, &ConformalMap, &GreatCircle)> {
        self.centered
            .iter()
            .enumerate()
            .flat_map(|(k, (map, circles))| circles.iter().map(move |c| (k, map, c)))
    }

    #[inline]
    fn lift(&self, c: Point2) -> Point3 {
        lift_normalized(c, self.center, self.scale)
    }

    /// Which side of each try every vertex is on, and where each vertex
    /// maps under each centerpoint's map.
    ///
    /// Bit `ti % 8` of `sides[ti / 8 * n + v]` is set when `v` is on side
    /// 1 of try `ti`. One byte a vertex holds the five tries of G7-NL. A
    /// centerpoint's circles share the mapped point, and a vertex's byte
    /// of each block of eight tries is built in a register and stored
    /// once.
    ///
    /// `mapped[3 * (k * n + v)..][..3]` is `v`'s point under centerpoint
    /// `k`'s map, its `x`, `y` and `z`: [`select_separator`] reads the
    /// winner's signed distances from it instead of mapping again.
    fn sides(&self, coords: &[Point2]) -> (Vec<u8>, Vec<f64>) {
        let n = coords.len();
        let mut sides = vec![0u8; self.len().div_ceil(8) * n];
        let mut mapped = vec![0.0; 3 * self.centered.len() * n];
        for (v, &c) in coords.iter().enumerate() {
            let lifted = self.lift(c);
            let (mut ti, mut byte) = (0, 0u8);
            for (k, (map, circles)) in self.centered.iter().enumerate() {
                let q = map.apply(lifted);
                mapped[3 * (k * n + v)..][..3].copy_from_slice(&[q.x, q.y, q.z]);
                for circle in circles {
                    byte |= u8::from(circle.signed(q) > 0.0) << (ti % 8);
                    ti += 1;
                    if ti % 8 == 0 {
                        sides[(ti / 8 - 1) * n + v] = byte;
                        byte = 0;
                    }
                }
            }
            if ti % 8 != 0 {
                sides[ti / 8 * n + v] = byte;
            }
        }
        (sides, mapped)
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
        machine.allreduce_sum(4);
    }

    // --- Sampling across ranks + allgather.
    let total_sample = SAMPLE_SIZE.min(n);
    let stride = (n / total_sample.max(1)).max(1);
    let sample: Vec<Point2> = (0..n)
        .step_by(stride)
        .take(total_sample)
        .map(|v| coords[v])
        .collect();
    machine.allgather(p * (2 * sample.len() / p.max(1)));
    let lifted_sample: Vec<Point3> = sample
        .iter()
        .map(|&s| lift_normalized(s, center, scale))
        .collect();

    // --- Redundant separator generation on every rank (identical stream).
    let cp_cfg = CenterpointConfig {
        sample_size: SAMPLE_SIZE,
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
                // A literal: the sampled normal is unit already, and
                // `GreatCircle::new` would normalise it again, moving bits.
                GreatCircle {
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
        let cost = (SAMPLE_SIZE * (cfg.n_centerpoints * 3 + cfg.total_tries())) as f64;
        let mut states: Vec<()> = vec![(); p];
        machine.compute(&mut states, |_, _| cost);
    }
    Tries {
        center,
        scale,
        centered,
    }
}

/// One rank's share of the counting superstep.
#[derive(Clone)]
struct Counts {
    /// `acc[2·ti]` is try `ti`'s cut, `acc[2·ti + 1]` its side-1
    /// population.
    acc: Vec<f64>,
    /// Per block of eight tries, `(v, mask)` for each owned `v` that some
    /// try of the block cuts from a higher neighbour: bit `i` of `mask` is
    /// set when try `8·b + i` cuts at least one edge from `v` to a `u > v`.
    low_ends: Vec<Vec<(u32, u8)>>,
}

/// Local cut and balance contributions per try, in parallel over ranks:
/// each rank scans its owned vertices and their edges to higher ids (an
/// edge is counted at the owner of its lower endpoint).
///
/// A vertex's side of every try is worked out once, on the host, into the
/// bit masks `sides` ([`Tries::sides`]); a rank XORs the masks of an
/// edge's ends and counts in integers. The counts, and the ops a rank
/// reports — one per try per owned vertex and per scanned edge — are
/// integers far below 2^53, so their `f64` bits are those of adding `1.0`
/// that many times. The OR of a vertex's XORs is the mask its
/// [`Counts::low_ends`] entry keeps.
fn local_contributions(
    g: &Graph,
    sides: &[u8],
    dist: &Distribution,
    machine: &mut Machine,
    tries: &Tries,
) -> Vec<Counts> {
    let n = g.n();
    let t = tries.len();
    let rank_verts = dist.rank_vertices();
    let mut states = vec![
        Counts {
            acc: vec![0.0; 2 * t.max(1)],
            low_ends: vec![Vec::new(); t.div_ceil(8)],
        };
        machine.p()
    ];
    machine.compute(&mut states, |r, counts| {
        let verts = &rank_verts[r];
        let mut ops = 0u64;
        for (b, block) in sides.chunks(n.max(1)).enumerate() {
            // How many owned vertices carry each mask of this block's eight
            // tries, and how many scanned edges each XOR of two masks.
            let mut ones = [0u64; 256];
            let mut cuts = [0u64; 256];
            let low_ends = &mut counts.low_ends[b];
            for &v in verts {
                let sv = block[v as usize];
                ones[sv as usize] += 1;
                let mut cut_by = 0u8;
                for &u in g.neighbors(v) {
                    if u < v {
                        continue; // counted at the lower endpoint's owner
                    }
                    let x = sv ^ block[u as usize];
                    cuts[x as usize] += 1;
                    cut_by |= x;
                }
                if cut_by != 0 {
                    low_ends.push((v, cut_by));
                }
            }
            let in_block = (t - 8 * b).min(8) as u64;
            ops += in_block * (verts.len() as u64 + cuts.iter().sum::<u64>());
            for (i, pair) in counts.acc[16 * b..].chunks_mut(2).take(8).enumerate() {
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
    let (sides, mapped) = tries.sides(coords);
    let counts = local_contributions(g, &sides, dist, machine, &tries);
    drop(sides);
    select_separator(g, coords, machine, &tries, &counts, mapped)
}

/// Three short reductions (cut totals, balance totals, winner), then the
/// winning separator materialised on every vertex — or a line median when
/// no try was eligible.
///
/// *The winner's signed distances are read from `mapped`*, the points
/// [`Tries::sides`] kept, not mapped again. Slot `v` is overwritten with
/// `winner.signed(q)` for the point `q` in slots `3·(k·n + v)..+3` of the
/// winner's centerpoint `k`, which writing slot `v` never overtakes, and
/// the buffer is then cut to `n` slots: it is the separator's.
///
/// *The winner's cut is its histogram count*, not a recount of its sides;
/// only the line-median fallback scans the edges. The two are equal:
/// * A vertex's bit in [`Tries::sides`] and its side in
///   [`Separator::sides`] are the same test, `winner.signed(q) > 0.0`, on
///   the same `q`: `map.apply(tries.lift(c))`, stored and read back.
///   Rust neither contracts nor reassociates floating point, and a NaN
///   distance is side 0 in both.
/// * The histogram counts each edge once, at its lower endpoint, which is
///   what [`Bisection::cut_edges`] does; a self-loop XORs to 0 and is
///   never counted.
/// * Per-rank counts are integers below 2^53, so their sum, folded on the
///   host in rank order, is exact in any order: it is the allreduce's.
///
/// *The winner's `weighted_cut` is summed over its low cut endpoints
/// only*: the [`Counts::low_ends`] whose mask has the winner's bit,
/// sorted, each row in order, the edges to a `u > v` on the other side.
/// Only these vertices add a term to [`cut_of`](sp_graph::access::cut_of)'s
/// sum, and their terms come in its order, so the sum has its bits. The
/// fallback calls [`Bisection::cut`], which is `cut_of` on a CSR graph.
fn select_separator(
    g: &Graph,
    coords: &[Point2],
    machine: &mut Machine,
    tries: &Tries,
    counts: &[Counts],
    mapped: Vec<f64>,
) -> GeoPartResult {
    let n = g.n();
    let mut totals = vec![0.0; counts[0].acc.len()];
    for c in counts {
        for (t, x) in totals.iter_mut().zip(&c.acc) {
            *t += x;
        }
    }
    machine.allreduce_sum(totals.len());
    machine.allreduce_sum(1);
    let best = best_try(&totals, n);
    machine.allreduce_min_index();

    let Some((ti, best_cut)) = best else {
        return line_median(g, coords);
    };
    let (k, _, winner) = tries.iter().nth(ti).expect("the winner is a try");
    let mut signed = mapped;
    let at = 3 * k * n;
    for v in 0..n {
        let o = at + 3 * v;
        let q = Point3::new(signed[o], signed[o + 1], signed[o + 2]);
        signed[v] = winner.signed(q);
    }
    signed.truncate(n);
    signed.shrink_to_fit();
    let separator = Separator { signed };
    let bisection = Bisection::new(separator.sides());

    let bit = ti % 8;
    let mut low_ends: Vec<u32> = counts
        .iter()
        .flat_map(|c| &c.low_ends[ti / 8])
        .filter(|&&(_, mask)| mask >> bit & 1 == 1)
        .map(|&(v, _)| v)
        .collect();
    low_ends.sort_unstable();
    let mut weighted_cut = 0.0;
    for v in low_ends {
        let sv = bisection.side(v);
        for (u, w) in g.neighbors_w(v) {
            if u > v && bisection.side(u) != sv {
                weighted_cut += w;
            }
        }
    }
    debug_assert_eq!(best_cut, bisection.cut_edges(g));
    GeoPartResult {
        bisection,
        cut: best_cut,
        weighted_cut,
        separator,
        try_cuts: vec![best_cut],
    }
}

/// The eligible try with the smallest cut, the first among equals, and its
/// cut, from the reduced `totals` (laid out as [`Counts::acc`]): a try is
/// eligible when both sides are populated within [`BALANCE_TOL`].
fn best_try(totals: &[f64], n: usize) -> Option<(usize, usize)> {
    let mut best = None;
    let mut best_cut = usize::MAX;
    for ti in 0..totals.len() / 2 {
        let cut = totals[2 * ti] as usize;
        let side1 = totals[2 * ti + 1];
        let imb = (side1.max(n as f64 - side1)) / (n as f64 / 2.0) - 1.0;
        if side1 > 0.0 && side1 < n as f64 && imb <= BALANCE_TOL && cut < best_cut {
            best_cut = cut;
            best = Some((ti, cut));
        }
    }
    best
}

/// The fallback separator when no try is eligible: the median of `x`,
/// split by index where the median sits on a tie plateau. Its cuts are
/// counted by scanning the edges.
fn line_median(g: &Graph, coords: &[Point2]) -> GeoPartResult {
    let n = g.n();
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
    let separator = Separator { signed };
    let bisection = Bisection::new(separator.sides());
    let cut = bisection.cut_edges(g);
    GeoPartResult {
        weighted_cut: bisection.cut(g),
        bisection,
        cut,
        separator,
        try_cuts: vec![cut],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use sp_graph::access;
    use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords, trace_mesh};
    use sp_graph::GraphBuilder;
    use sp_machine::CostModel;

    /// The counting superstep this one replaced: a rank lifts and maps the
    /// far end of every edge it scans, once per try, and counts in `f64`.
    /// A vertex's low-end masks are set try by try.
    fn local_contributions_per_edge(
        g: &Graph,
        coords: &[Point2],
        dist: &Distribution,
        machine: &mut Machine,
        tries: &Tries,
    ) -> Vec<Counts> {
        let rank_verts = dist.rank_vertices();
        let blocks = tries.len().div_ceil(8);
        let mut states = vec![
            Counts {
                acc: vec![0.0; 2 * tries.len().max(1)],
                low_ends: vec![Vec::new(); blocks],
            };
            machine.p()
        ];
        machine.compute(&mut states, |r, counts| {
            let mut ops = 0.0;
            for &v in &rank_verts[r] {
                let pv = tries.lift(coords[v as usize]);
                let mut cut_by = vec![0u8; blocks];
                for (ti, (_, map, circle)) in tries.iter().enumerate() {
                    let sv = circle.signed(map.apply(pv));
                    if sv > 0.0 {
                        counts.acc[2 * ti + 1] += 1.0;
                    }
                    for &u in g.neighbors(v) {
                        if u < v {
                            continue;
                        }
                        let su = circle.signed(map.apply(tries.lift(coords[u as usize])));
                        if (sv > 0.0) != (su > 0.0) {
                            counts.acc[2 * ti] += 1.0;
                            cut_by[ti / 8] |= 1 << (ti % 8);
                        }
                        ops += 1.0;
                    }
                    ops += 1.0;
                }
                for (b, &mask) in cut_by.iter().enumerate() {
                    if mask != 0 {
                        counts.low_ends[b].push((v, mask));
                    }
                }
            }
            ops
        });
        states
    }

    /// The counting superstep in production, from its own side pass.
    fn local_contributions_of_coords(
        g: &Graph,
        coords: &[Point2],
        dist: &Distribution,
        machine: &mut Machine,
        tries: &Tries,
    ) -> Vec<Counts> {
        local_contributions(g, &tries.sides(coords).0, dist, machine, tries)
    }

    type Counting = fn(&Graph, &[Point2], &Distribution, &mut Machine, &Tries) -> Vec<Counts>;

    /// Everything a caller or an observer can tell a run by.
    #[derive(Debug, PartialEq)]
    struct Observed {
        contribs: Vec<Vec<u64>>,
        low_ends: Vec<Vec<Vec<(u32, u8)>>>,
        events: Vec<sp_machine::trace::Event>,
        elapsed: u64,
        signed: Vec<u64>,
        sides: Vec<u8>,
        cut: usize,
        /// The separator is one of the tries, not the line fallback.
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
        let counts = count(g, coords, &dist, &mut m, &tries);
        let (_, mapped) = tries.sides(coords);
        let r = select_separator(g, coords, &mut m, &tries, &counts, mapped);
        r.validate(g).unwrap();
        // A winner's cut is its histogram count, the fallback's a scan.
        assert_eq!(r.cut, r.bisection.cut_edges(g));
        let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let circle = tries.iter().any(|(_, map, circle)| {
            let on = |(&c, s): (&Point2, &f64)| {
                circle.signed(map.apply(tries.lift(c))).to_bits() == s.to_bits()
            };
            coords.iter().zip(&r.separator.signed).all(on)
        });
        Observed {
            contribs: counts.iter().map(|c| bits(&c.acc)).collect(),
            low_ends: counts.into_iter().map(|c| c.low_ends).collect(),
            events: rec.events().to_vec(),
            elapsed: m.elapsed().to_bits(),
            signed: bits(&r.separator.signed),
            sides: r.bisection.sides().to_vec(),
            cut: r.cut,
            circle,
        }
    }

    #[test]
    fn sides_computed_once_count_what_the_per_edge_loop_counted() {
        let grid = (grid_2d(16, 14), grid_2d_coords(16, 14));
        let mesh = delaunay_graph(700, &mut StdRng::seed_from_u64(4));
        let trace = trace_mesh(900, &mut StdRng::seed_from_u64(6));
        let collapsed = (grid_2d(8, 8), vec![Point2::ZERO; 64]);
        // 70 tries over two centerpoints: nine blocks of masks, the last
        // six tries wide.
        let many = GeoConfig {
            n_centerpoints: 2,
            circles_per_centerpoint: 35,
            ..GeoConfig::g7_nl()
        };
        for (g, coords) in [&grid, &mesh, &trace, &collapsed] {
            for cfg in [GeoConfig::g7_nl(), many] {
                for p in [1usize, 4, 64] {
                    let got = observe(g, coords, p, &cfg, local_contributions_of_coords);
                    let want = observe(g, coords, p, &cfg, local_contributions_per_edge);
                    assert_eq!(got, want, "n={} p={p} {cfg:?}", g.n());
                    assert_eq!(got.contribs[0].len(), 2 * cfg.total_tries());
                    assert_eq!(got.circle, coords[0] != coords[1], "fallback");
                }
            }
        }
    }

    /// A Delaunay graph with edge weights drawn from [0.1, 3.0), so the
    /// order a cut is summed in shows in its bits.
    fn weighted_delaunay(n: usize, seed: u64) -> (Graph, Vec<Point2>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, coords) = delaunay_graph(n, &mut rng);
        let mut b = GraphBuilder::new(g.n());
        for v in 0..g.n() as u32 {
            for &u in g.neighbors(v).iter().filter(|&&u| u > v) {
                b.add_edge(v, u, rng.random_range(0.1..3.0));
            }
        }
        (b.build(), coords)
    }

    /// Two centerpoints of five circles: ten tries in two blocks of masks,
    /// half of them read from the second centerpoint's mapped points.
    fn two_centerpoints() -> GeoConfig {
        GeoConfig {
            n_centerpoints: 2,
            ..GeoConfig::g7_nl()
        }
    }

    #[test]
    fn the_weighted_cut_has_the_bits_of_cut_of() {
        // The cut edges summed from the highest vertex down: a different
        // order, which must show in the bits somewhere.
        let reversed = |g: &Graph, bi: &Bisection| {
            let mut c = 0.0;
            for v in (0..g.n() as u32).rev() {
                for (u, w) in g.neighbors_w(v) {
                    if u > v && bi.side(u) != bi.side(v) {
                        c += w;
                    }
                }
            }
            c
        };
        let mut order_showed = false;
        for seed in 0..3 {
            let (g, coords) = weighted_delaunay(1500, 40 + seed);
            for cfg in [GeoConfig::g7_nl(), two_centerpoints()] {
                for p in [1usize, 9, 64] {
                    let dist = Distribution::block(g.n(), p);
                    let mut m = Machine::new(p, CostModel::qdr_infiniband());
                    let r = parallel_geometric_partition(&g, &coords, &dist, &mut m, &cfg, seed);
                    let want = access::cut_of(&g, &r.bisection);
                    assert_eq!(
                        r.weighted_cut.to_bits(),
                        want.to_bits(),
                        "seed {seed} p={p}"
                    );
                    r.validate(&g).unwrap();
                    order_showed |= reversed(&g, &r.bisection).to_bits() != want.to_bits();
                }
            }
        }
        assert!(order_showed, "every order summed to the same bits");
    }

    #[test]
    fn the_line_median_fallback_reports_the_weighted_cut_of_cut_of() {
        // Two to four vertices: no circle splits them within the balance
        // tolerance, so every run ends in the line-median fallback.
        let mut rng = StdRng::seed_from_u64(0xFA11);
        for n in 2..=4u32 {
            for round in 0..8 {
                let mut b = GraphBuilder::new(n as usize);
                for v in 0..n {
                    for u in v + 1..n {
                        b.add_edge(v, u, rng.random_range(0.1..3.0));
                    }
                }
                let g = b.build();
                let coords: Vec<Point2> = (0..n)
                    .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                    .collect();
                for p in [1usize, 2] {
                    let dist = Distribution::block(g.n(), p);
                    let mut m = Machine::new(p, CostModel::qdr_infiniband());
                    let cfg = GeoConfig::g7_nl();
                    let r = parallel_geometric_partition(&g, &coords, &dist, &mut m, &cfg, round);
                    let xs: Vec<f64> = coords.iter().map(|c| c.x).collect();
                    let th = median(&xs);
                    let line = xs
                        .iter()
                        .zip(&r.separator.signed)
                        .all(|(x, s)| x - th == *s);
                    let index = (0..g.n()).all(|v| r.separator.signed[v].abs() == 1.0);
                    assert!(line || index, "n={n} round {round}: not the fallback");
                    let want = access::cut_of(&g, &r.bisection);
                    assert_eq!(r.weighted_cut.to_bits(), want.to_bits(), "n={n} p={p}");
                    r.validate(&g).unwrap();
                }
            }
        }
    }

    #[test]
    fn the_separator_keeps_the_bits_of_mapping_the_winner_again() {
        let mut second_centerpoint_won = false;
        for seed in 0..6 {
            let (g, coords) = weighted_delaunay(900, 70 + seed);
            for cfg in [GeoConfig::g7_nl(), two_centerpoints()] {
                let dist = Distribution::block(g.n(), 9);
                let mut m = Machine::new(9, CostModel::qdr_infiniband());
                let tries = generate_tries(&coords, &dist, &mut m, &cfg, seed);
                let (sides, mapped) = tries.sides(&coords);
                let counts = local_contributions(&g, &sides, &dist, &mut m, &tries);
                let mut totals = vec![0.0; counts[0].acc.len()];
                for c in &counts {
                    for (t, x) in totals.iter_mut().zip(&c.acc) {
                        *t += x;
                    }
                }
                let (ti, _) = best_try(&totals, g.n()).expect("a circle wins");
                let (k, map, winner) = tries.iter().nth(ti).unwrap();
                second_centerpoint_won |= k == 1;
                let r = select_separator(&g, &coords, &mut m, &tries, &counts, mapped);
                assert_eq!(r.separator.signed.len(), g.n());
                for (v, (&c, s)) in coords.iter().zip(&r.separator.signed).enumerate() {
                    let want = winner.signed(map.apply(tries.lift(c)));
                    assert_eq!(s.to_bits(), want.to_bits(), "seed {seed} try {ti} v={v}");
                }
            }
        }
        assert!(
            second_centerpoint_won,
            "no winner came from the second centerpoint"
        );
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
