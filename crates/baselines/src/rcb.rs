//! Parallel recursive coordinate bisection (RCB), as in Zoltan.
//!
//! For a single edge separator (what the paper measures) RCB is one
//! weighted-median split along the wider coordinate axis. The median is
//! found by a distributed bisection search on the coordinate value: each
//! round every rank counts its owned vertices below the pivot and a
//! one-word allreduce combines the counts — the classic Zoltan scheme.

use sp_geometry::{Aabb2, Point2};
use sp_graph::distr::Distribution;
use sp_graph::{Bisection, Graph};
use sp_machine::Machine;

/// Result of an RCB bisection.
pub struct RcbResult {
    pub bisection: Bisection,
    /// Unweighted cut size.
    pub cut: usize,
    /// Axis used (0 = x, 1 = y).
    pub axis: u8,
    /// Median coordinate of the split.
    pub median: f64,
}

/// Bisect `g` by a coordinate median cut, charging costs to `machine`.
pub fn rcb_bisect(
    g: &Graph,
    coords: &[Point2],
    dist: &Distribution,
    machine: &mut Machine,
) -> RcbResult {
    assert_eq!(coords.len(), g.n());
    assert_eq!(dist.p, machine.p());
    let p = machine.p();
    let n = g.n();
    let rank_verts = dist.rank_vertices();

    // Bounding box: local scan + allreduce of 4 words.
    let bbox = Aabb2::from_points(coords).unwrap_or_else(Aabb2::unit);
    {
        let mut states: Vec<()> = vec![(); p];
        machine.compute(&mut states, |r, _| rank_verts[r].len() as f64);
        machine.allreduce_sum(4);
    }
    let axis: u8 = u8::from(bbox.height() > bbox.width());
    let coord = |v: u32| -> f64 {
        let c = coords[v as usize];
        if axis == 0 {
            c.x
        } else {
            c.y
        }
    };

    // Distributed median by bisection on the value range.
    let (mut lo, mut hi) = if axis == 0 {
        (bbox.min.x, bbox.max.x)
    } else {
        (bbox.min.y, bbox.max.y)
    };
    let rounds = 40usize;
    let mut mid = 0.5 * (lo + hi);
    for _ in 0..rounds {
        mid = 0.5 * (lo + hi);
        // Each rank counts its owned vertices below the pivot.
        let mut states: Vec<usize> = vec![0; p];
        {
            let rank_verts_ref = &rank_verts;
            machine.compute(&mut states, |r, below| {
                *below = rank_verts_ref[r]
                    .iter()
                    .filter(|&&v| coord(v) < mid)
                    .count();
                rank_verts_ref[r].len() as f64
            });
        }
        // The counts are exact integers: their sum is the allreduce's.
        let below: usize = states.iter().sum();
        machine.allreduce_sum(1);
        if below < n / 2 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * (bbox.longest_side().max(1e-30)) {
            break;
        }
    }
    // Assign sides; break ties at the pivot plateau by index so the split
    // is exactly balanced even with duplicated coordinates.
    let mut sides: Vec<u8> = (0..n as u32).map(|v| u8::from(coord(v) >= mid)).collect();
    let mut ones: usize = sides.iter().map(|&s| s as usize).sum();
    let half = n / 2;
    if ones > half {
        for (v, s) in sides.iter_mut().enumerate() {
            if ones <= half {
                break;
            }
            if *s == 1 && (coord(v as u32) - mid).abs() < (hi - lo) + 1e-12 {
                *s = 0;
                ones -= 1;
            }
        }
    } else if ones < half {
        for (v, s) in sides.iter_mut().enumerate() {
            if ones >= half {
                break;
            }
            if *s == 0 && (mid - coord(v as u32)).abs() < (hi - lo) + 1e-12 {
                *s = 1;
                ones += 1;
            }
        }
    }
    let bisection = Bisection::new(sides);
    let cut = bisection.cut_edges(g);
    RcbResult {
        bisection,
        cut,
        axis,
        median: mid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};
    use sp_machine::CostModel;

    #[test]
    fn grid_rcb_cuts_one_line() {
        let g = grid_2d(16, 16);
        let coords = grid_2d_coords(16, 16);
        let dist = Distribution::block(g.n(), 4);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let r = rcb_bisect(&g, &coords, &dist, &mut m);
        r.bisection.validate(&g).unwrap();
        // Median cut of a square grid severs ~1 grid line (16 edges);
        // plateau tie-breaking can add a few.
        assert!(r.cut <= 32, "cut {}", r.cut);
        let (a, b) = r.bisection.counts();
        assert_eq!(a.abs_diff(b) as i64, 0);
    }

    #[test]
    fn rcb_picks_wider_axis() {
        let g = grid_2d(4, 32); // wide in x
        let coords = grid_2d_coords(4, 32);
        // Stretch x to make it the wider axis unambiguously.
        let coords: Vec<Point2> = coords
            .iter()
            .map(|p| Point2::new(p.x * 10.0, p.y))
            .collect();
        let dist = Distribution::block(g.n(), 2);
        let mut m = Machine::new(2, CostModel::qdr_infiniband());
        let r = rcb_bisect(&g, &coords, &dist, &mut m);
        assert_eq!(r.axis, 0);
        assert!(r.cut <= 8, "cut {}", r.cut);
    }

    #[test]
    fn rcb_is_rank_count_invariant_and_fast_at_scale() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, coords) = delaunay_graph(3000, &mut rng);
        let mut cuts = Vec::new();
        let mut times = Vec::new();
        for p in [1usize, 64] {
            let dist = Distribution::block(g.n(), p);
            let mut m = Machine::new(p, CostModel::qdr_infiniband());
            let r = rcb_bisect(&g, &coords, &dist, &mut m);
            cuts.push(r.cut);
            times.push(m.elapsed());
        }
        assert_eq!(cuts[0], cuts[1]);
        assert!(times[1] < times[0], "scaling failed: {times:?}");
    }

    #[test]
    fn rcb_balance_is_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, coords) = delaunay_graph(1001, &mut rng);
        let dist = Distribution::block(g.n(), 8);
        let mut m = Machine::new(8, CostModel::qdr_infiniband());
        let r = rcb_bisect(&g, &coords, &dist, &mut m);
        let (a, b) = r.bisection.counts();
        assert!(a.abs_diff(b) <= 1, "sizes {a},{b}");
    }

    #[test]
    fn degenerate_coords_still_balanced() {
        let g = grid_2d(8, 8);
        let coords = vec![Point2::new(0.5, 0.5); 64];
        let dist = Distribution::block(64, 2);
        let mut m = Machine::new(2, CostModel::qdr_infiniband());
        let r = rcb_bisect(&g, &coords, &dist, &mut m);
        let (a, b) = r.bisection.counts();
        assert_eq!(a, b);
    }
}
