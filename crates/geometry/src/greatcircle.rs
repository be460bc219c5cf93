//! Great-circle (and shifted small-circle) separators on the sphere.

use crate::point::Point3;
use rand::Rng;

/// A circle on the unit sphere given by the plane `normal · p = offset`.
/// `offset = 0` is a great circle; a nonzero offset is the parallel "small
/// circle" obtained by shifting the plane to (say) the projection median,
/// which keeps the separator a circle in the original plane while making the
/// bisection exactly balanced.
#[derive(Clone, Copy, Debug)]
pub struct GreatCircle {
    pub normal: Point3,
    pub offset: f64,
}

impl GreatCircle {
    pub fn new(normal: Point3) -> Self {
        GreatCircle {
            normal: normal.normalized(),
            offset: 0.0,
        }
    }

    /// Signed distance of a sphere point from the cutting plane.
    #[inline]
    pub fn signed(&self, p: Point3) -> f64 {
        self.normal.dot(p) - self.offset
    }

    /// Which side of the circle a point lies on (`true` = positive side).
    #[inline]
    pub fn side(&self, p: Point3) -> bool {
        self.signed(p) > 0.0
    }
}

/// A uniformly random unit vector in ℝ³ (Marsaglia rejection).
pub fn random_unit_vector<R: Rng>(rng: &mut R) -> Point3 {
    loop {
        let p = Point3::new(
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        );
        let n2 = p.norm_sq();
        if n2 > 1e-6 && n2 <= 1.0 {
            return p / n2.sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_unit_vectors_are_unit_and_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mean = Point3::ZERO;
        for _ in 0..2000 {
            let u = random_unit_vector(&mut rng);
            assert!((u.norm() - 1.0).abs() < 1e-12);
            mean += u;
        }
        mean = mean / 2000.0;
        assert!(mean.norm() < 0.08, "directions biased: {mean:?}");
    }

    #[test]
    fn sides_partition_the_sphere() {
        let gc = GreatCircle::new(Point3::new(0.0, 0.0, 1.0));
        assert!(gc.side(Point3::new(0.0, 0.0, 1.0)));
        assert!(!gc.side(Point3::new(0.0, 0.0, -1.0)));
        assert_eq!(gc.signed(Point3::new(1.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn normal_is_normalized() {
        let gc = GreatCircle::new(Point3::new(0.0, 3.0, 4.0));
        assert!((gc.normal.norm() - 1.0).abs() < 1e-12);
    }
}
