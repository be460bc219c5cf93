//! Sequential Gilbert–Miller–Teng geometric mesh partitioning.

use crate::config::{GeoConfig, BALANCE_TOL, SAMPLE_SIZE};
use crate::separator::{median, Separator};
use rand::Rng;
use sp_geometry::{
    centerpoint, lift_normalized, normalize_for_lift, random_unit_vector, CenterpointConfig,
    ConformalMap, Point2, Point3,
};
use sp_graph::{Bisection, Graph};

/// Result of a geometric partitioning run.
pub struct GeoPartResult {
    /// The best bisection found.
    pub bisection: Bisection,
    /// Its unweighted cut size |S|.
    pub cut: usize,
    /// Its weighted cut, with the bits of
    /// [`cut_of`](sp_graph::access::cut_of): the cut FM starts from.
    pub weighted_cut: f64,
    /// The winning separator (with per-vertex signed distances, for strip
    /// refinement).
    pub separator: Separator,
    /// Cut size of every eligible try, in try order (diagnostics).
    pub try_cuts: Vec<usize>,
}

impl GeoPartResult {
    /// Structural validity against the graph the result partitions: the
    /// bisection is a valid two-way partition, its sides agree with the
    /// separator's signed distances, the reported cut is exactly the
    /// bisection's recomputed edge cut, and the reported weighted cut has
    /// the recomputed weighted cut's bits. Used by sp-verify's partition
    /// checkpoint.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        self.bisection
            .validate(g)
            .map_err(|e| format!("bisection invalid: {e}"))?;
        if self.separator.signed.len() != g.n() {
            return Err(format!(
                "separator has {} signed values for {} vertices",
                self.separator.signed.len(),
                g.n()
            ));
        }
        for v in 0..g.n() as u32 {
            if self.separator.side(v) != self.bisection.side(v) {
                return Err(format!(
                    "vertex {v}: separator side {} != bisection side {}",
                    self.separator.side(v),
                    self.bisection.side(v)
                ));
            }
        }
        let recomputed = self.bisection.cut_edges(g);
        if recomputed != self.cut {
            return Err(format!(
                "reported cut {} != recomputed edge cut {recomputed}",
                self.cut
            ));
        }
        let weighted = self.bisection.cut(g);
        if weighted.to_bits() != self.weighted_cut.to_bits() {
            return Err(format!(
                "reported weighted cut {} != recomputed weighted cut {weighted}",
                self.weighted_cut
            ));
        }
        Ok(())
    }
}

/// Partition `g` using the embedded `coords` with the given try policy.
///
/// Every great-circle try is shifted to the sample median of its projection
/// values, so both halves are balanced while the separator remains a circle
/// in the plane; line tries split at the exact median of the directional
/// projection.
pub fn geometric_partition<R: Rng>(
    g: &Graph,
    coords: &[Point2],
    cfg: &GeoConfig,
    rng: &mut R,
) -> GeoPartResult {
    assert_eq!(coords.len(), g.n());
    assert!(g.n() >= 2, "nothing to partition");
    let (center, scale) = normalize_for_lift(coords);
    let lifted: Vec<Point3> = coords
        .iter()
        .map(|&p| lift_normalized(p, center, scale))
        .collect();

    let mut best: Option<(usize, Separator, Bisection)> = None;
    let mut try_cuts = Vec::with_capacity(cfg.total_tries());
    let cp_cfg = CenterpointConfig {
        sample_size: SAMPLE_SIZE,
        iterations: 400,
    };

    for _ in 0..cfg.n_centerpoints {
        let cp = centerpoint(&lifted, &cp_cfg, rng);
        let map = ConformalMap::centering(cp);
        let mapped: Vec<Point3> = lifted.iter().map(|&p| map.apply(p)).collect();
        for _ in 0..cfg.circles_per_centerpoint {
            let normal = random_unit_vector(rng);
            let vals: Vec<f64> = mapped.iter().map(|&p| normal.dot(p)).collect();
            let offset = median(&vals);
            let signed: Vec<f64> = vals.iter().map(|&v| v - offset).collect();
            consider(
                g,
                Separator { signed },
                BALANCE_TOL,
                &mut best,
                &mut try_cuts,
            );
        }
    }
    for t in 0..cfg.n_lines {
        // Mix of coordinate axes and random directions, like meshpart.
        let dir = match t {
            0 => Point2::new(1.0, 0.0),
            1 => Point2::new(0.0, 1.0),
            _ => {
                let a: f64 = rng.random_range(0.0..std::f64::consts::TAU);
                Point2::new(a.cos(), a.sin())
            }
        };
        let vals: Vec<f64> = coords.iter().map(|&p| dir.dot(p)).collect();
        let threshold = median(&vals);
        let signed: Vec<f64> = vals.iter().map(|&v| v - threshold).collect();
        consider(
            g,
            Separator { signed },
            BALANCE_TOL,
            &mut best,
            &mut try_cuts,
        );
    }
    // Fallback: if every try was ineligible (degenerate coordinates can
    // put the median on a huge tie plateau), use an index split.
    let (cut, separator, bisection) = best.unwrap_or_else(|| {
        let half = g.n() / 2;
        let signed: Vec<f64> = (0..g.n())
            .map(|v| if v >= half { 1.0 } else { -1.0 })
            .collect();
        let sep = Separator { signed };
        let bi = Bisection::new(sep.sides());
        let cut = bi.cut_edges(g);
        (cut, sep, bi)
    });
    GeoPartResult {
        weighted_cut: bisection.cut(g),
        bisection,
        cut,
        separator,
        try_cuts,
    }
}

fn consider(
    g: &Graph,
    sep: Separator,
    balance_tol: f64,
    best: &mut Option<(usize, Separator, Bisection)>,
    try_cuts: &mut Vec<usize>,
) {
    let bi = Bisection::new(sep.sides());
    let (a, b) = bi.counts();
    let n = a + b;
    let imb = (a.max(b) as f64) / (n as f64 / 2.0) - 1.0;
    if a == 0 || b == 0 || imb > balance_tol {
        return;
    }
    let cut = bi.cut_edges(g);
    try_cuts.push(cut);
    if best.as_ref().is_none_or(|(c, _, _)| cut < *c) {
        *best = Some((cut, sep, bi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};

    #[test]
    fn grid_with_true_coords_cuts_near_side() {
        let g = grid_2d(24, 24);
        let coords = grid_2d_coords(24, 24);
        let mut rng = StdRng::seed_from_u64(1);
        let r = geometric_partition(&g, &coords, &GeoConfig::g30(), &mut rng);
        r.validate(&g).unwrap();
        // Optimal straight cut = 24; a geometric cut should land within ~2×.
        assert!(r.cut <= 52, "cut {}", r.cut);
        assert!(r.bisection.imbalance(&g) < 0.11);
        assert_eq!(r.cut, r.bisection.cut_edges(&g));
    }

    #[test]
    fn validate_rejects_tampered_results() {
        let g = grid_2d(10, 10);
        let coords = grid_2d_coords(10, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = geometric_partition(&g, &coords, &GeoConfig::g30(), &mut rng);
        r.validate(&g).unwrap();
        r.cut += 1;
        assert!(r.validate(&g).unwrap_err().contains("recomputed"));
        r.cut -= 1;
        // One ulp off is off.
        let exact = r.weighted_cut;
        r.weighted_cut = f64::from_bits(exact.to_bits() + 1);
        assert!(r.validate(&g).unwrap_err().contains("weighted cut"));
        r.weighted_cut = exact;
        r.validate(&g).unwrap();
        let v = 0u32;
        r.bisection.flip(v);
        let err = r.validate(&g).unwrap_err();
        assert!(err.contains("side") || err.contains("cut"), "{err}");
    }

    #[test]
    fn delaunay_cut_scales_like_sqrt_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let (g, coords) = delaunay_graph(3000, &mut rng);
        let r = geometric_partition(&g, &coords, &GeoConfig::g30(), &mut rng);
        r.bisection.validate(&g).unwrap();
        // √3000 ≈ 55; allow generous slack but far below m/2 ≈ 4500.
        assert!(r.cut < 350, "cut {}", r.cut);
    }

    #[test]
    fn g30_beats_or_ties_g7_nl_in_expectation() {
        let mut wins = 0;
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let (g, coords) = delaunay_graph(800, &mut rng);
            let c30 = geometric_partition(&g, &coords, &GeoConfig::g30(), &mut rng).cut;
            let c7 = geometric_partition(&g, &coords, &GeoConfig::g7_nl(), &mut rng).cut;
            if c30 <= c7 {
                wins += 1;
            }
        }
        assert!(wins >= 4, "G30 ≤ G7-NL in only {wins}/6 runs");
    }

    #[test]
    fn signed_distances_are_consistent_with_sides() {
        let g = grid_2d(10, 10);
        let coords = grid_2d_coords(10, 10);
        let mut rng = StdRng::seed_from_u64(3);
        let r = geometric_partition(&g, &coords, &GeoConfig::g7_nl(), &mut rng);
        for v in 0..g.n() as u32 {
            assert_eq!(r.bisection.side(v), r.separator.side(v));
        }
    }

    #[test]
    fn collapsed_coords_fall_back_gracefully() {
        let g = grid_2d(8, 8);
        let coords = vec![Point2::ZERO; 64];
        let mut rng = StdRng::seed_from_u64(4);
        let r = geometric_partition(&g, &coords, &GeoConfig::g7_nl(), &mut rng);
        r.bisection.validate(&g).unwrap();
        let (a, b) = r.bisection.counts();
        assert_eq!(a + b, 64);
        assert!(a > 0 && b > 0);
    }

    #[test]
    fn try_cuts_contains_the_winner() {
        let g = grid_2d(12, 12);
        let coords = grid_2d_coords(12, 12);
        let mut rng = StdRng::seed_from_u64(5);
        let r = geometric_partition(&g, &coords, &GeoConfig::g30(), &mut rng);
        assert!(!r.try_cuts.is_empty());
        assert_eq!(*r.try_cuts.iter().min().unwrap(), r.cut);
    }
}
