//! The spring-electrical force model (Hu 2006, §2 of the paper).
//!
//! On a vertex `i`, neighbours exert an attractive force of magnitude
//! `‖cᵢ − cⱼ‖² / K` along the edge, and every other vertex exerts a
//! repulsive force of magnitude `C·K² / ‖cᵢ − cⱼ‖` (scaled by the product
//! of the masses on weighted/coarse graphs). `C` and `K` are the paper's
//! "twiddle factors".

use sp_geometry::Point2;

/// Repulsion constant `C` of every embedder (the paper's twiddle factor;
/// Hu recommends ≈ 0.2).
pub const C: f64 = 0.2;

/// Hu's adaptive step ratio `t` of every embedder: the step shrinks ×t on
/// an energy increase and grows ÷t after five consecutive decreases.
pub const COOLING: f64 = 0.9;

/// Model constants.
#[derive(Clone, Copy, Debug)]
pub struct ForceParams {
    /// Repulsion strength (Hu recommends ≈ 0.2).
    pub c: f64,
    /// Natural spring length.
    pub k: f64,
}

impl ForceParams {
    /// `K` chosen so that n vertices at natural spacing tile an `area`-sized
    /// domain: `K = √(area / n)`.
    pub fn for_domain(c: f64, area: f64, n: usize) -> Self {
        ForceParams {
            c,
            k: (area / n.max(1) as f64).sqrt(),
        }
    }

    /// Attractive force vector on a vertex at `from` due to a neighbour at
    /// `to` (pulls toward the neighbour).
    #[inline]
    pub fn attractive(&self, from: Point2, to: Point2) -> Point2 {
        let d = to - from;
        let dist = d.norm();
        if dist < 1e-12 {
            return Point2::ZERO;
        }
        // magnitude dist²/K in direction d̂  ⇒  d · dist / K.
        d * (dist / self.k)
    }

    /// Repulsive force vector on a vertex of mass `m_from` at `from` due to
    /// a body of mass `m_to` at `to` (pushes away).
    #[inline]
    pub fn repulsive(&self, from: Point2, m_from: f64, to: Point2, m_to: f64) -> Point2 {
        let d = from - to;
        // magnitude C·K²·m₁·m₂ / dist in direction away from `to` — i.e.
        // d · C·K²·m₁·m₂ / dist². The divisor is `norm_sq()` directly: no
        // sqrt needed, and this is the innermost call of every embedding
        // superstep. The floor is the old `max(1e-9)` distance floor,
        // squared as the literal `1e-9 * 1e-9` so near-coincident points
        // keep the exact same f64 result as the sqrt formulation.
        let dist_sq = d.norm_sq().max(1e-9 * 1e-9);
        d * (self.c * self.k * self.k * m_from * m_to / dist_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attraction_pulls_toward_neighbor() {
        let p = ForceParams { c: 0.2, k: 1.0 };
        let f = p.attractive(Point2::ZERO, Point2::new(2.0, 0.0));
        assert!(f.x > 0.0 && f.y == 0.0);
        // magnitude = dist²/K = 4.
        assert!((f.norm() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn repulsion_pushes_away_with_inverse_distance() {
        let p = ForceParams { c: 0.5, k: 2.0 };
        let f = p.repulsive(Point2::ZERO, 1.0, Point2::new(4.0, 0.0), 1.0);
        assert!(f.x < 0.0);
        // magnitude = C·K²/dist = 0.5·4/4 = 0.5.
        assert!((f.norm() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn masses_scale_repulsion() {
        let p = ForceParams { c: 0.2, k: 1.0 };
        let f1 = p.repulsive(Point2::ZERO, 1.0, Point2::new(1.0, 0.0), 1.0);
        let f6 = p.repulsive(Point2::ZERO, 2.0, Point2::new(1.0, 0.0), 3.0);
        assert!((f6.norm() - 6.0 * f1.norm()).abs() < 1e-12);
    }

    #[test]
    fn equilibrium_distance_is_order_k() {
        // Two unit-mass vertices joined by an edge balance where
        // d²/K = C·K²/d ⇒ d = K·C^(1/3).
        let p = ForceParams { c: 0.2, k: 1.0 };
        let d_eq = p.k * p.c.powf(1.0 / 3.0);
        let a = Point2::ZERO;
        let b = Point2::new(d_eq, 0.0);
        let net = p.attractive(a, b) + p.repulsive(a, 1.0, b, 1.0);
        assert!(net.norm() < 1e-9, "net force {net:?}");
    }

    #[test]
    fn coincident_points_do_not_blow_up() {
        let p = ForceParams { c: 0.2, k: 1.0 };
        assert_eq!(p.attractive(Point2::ZERO, Point2::ZERO), Point2::ZERO);
        let f = p.repulsive(Point2::ZERO, 1.0, Point2::ZERO, 1.0);
        assert!(f.is_finite());
    }

    #[test]
    fn sqrt_free_repulsion_bit_matches_old_formula() {
        // The old formulation computed dist = ‖d‖.max(1e-9) and divided by
        // dist·dist. On inputs whose norm is exactly representable
        // (Pythagorean displacements, where sqrt introduces no rounding),
        // sqrt(x)² == x bit-for-bit and the two formulas must agree
        // exactly — including at the floor, which is why the new code
        // floors at the literal 1e-9 · 1e-9.
        let old = |p: &ForceParams, from: Point2, m1: f64, to: Point2, m2: f64| -> Point2 {
            let d = from - to;
            let dist = d.norm().max(1e-9);
            d * (p.c * p.k * p.k * m1 * m2 / (dist * dist))
        };
        let p = ForceParams { c: 0.2, k: 1.7 };
        let cases = [
            (Point2::new(3.0, 4.0), Point2::ZERO),           // ‖d‖ = 5
            (Point2::new(-6.0, 8.0), Point2::ZERO),          // ‖d‖ = 10
            (Point2::new(5.0, 12.0), Point2::new(0.0, 0.0)), // ‖d‖ = 13
            (Point2::new(1.5, 2.0), Point2::ZERO),           // ‖d‖ = 2.5
            (Point2::ZERO, Point2::ZERO),                    // floor engaged
        ];
        for (from, to) in cases {
            let new = p.repulsive(from, 1.3, to, 2.5);
            let reference = old(&p, from, 1.3, to, 2.5);
            assert_eq!(new.x.to_bits(), reference.x.to_bits(), "{from:?}->{to:?}");
            assert_eq!(new.y.to_bits(), reference.y.to_bits(), "{from:?}->{to:?}");
        }
    }

    #[test]
    fn for_domain_sets_natural_spacing() {
        let p = ForceParams::for_domain(0.2, 100.0, 400);
        assert!((p.k - 0.5).abs() < 1e-12);
    }
}
