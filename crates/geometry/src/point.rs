//! Fixed-dimension points and vectors.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or vector) in the plane. The embedding stage works entirely in
/// two dimensions, matching the paper's 2-D domain lattice.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

/// A point (or vector) in 3-space; used for the sphere lift in
/// Gilbert–Miller–Teng partitioning (2-D coordinates lift to S² ⊂ ℝ³).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point2 {
    pub const ZERO: Point2 = Point2 { x: 0.0, y: 0.0 };

    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    #[inline]
    pub fn dot(self, o: Point2) -> f64 {
        self.x * o.x + self.y * o.y
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(self, o: Point2) -> f64 {
        (self - o).norm()
    }

    /// Unit vector in the direction of `self`, or zero if degenerate.
    #[inline]
    pub fn normalized(self) -> Point2 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Point2::ZERO
        }
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Point3 {
    pub const ZERO: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline]
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    #[inline]
    pub fn dot(self, o: Point3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Point3) -> Point3 {
        Point3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    #[inline]
    pub fn dist(self, o: Point3) -> f64 {
        (self - o).norm()
    }

    #[inline]
    pub fn normalized(self) -> Point3 {
        let n = self.norm();
        if n > 0.0 {
            self / n
        } else {
            Point3::ZERO
        }
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

macro_rules! impl_ops2 {
    ($t:ty, $($f:ident),+) => {
        impl Add for $t {
            type Output = $t;
            #[inline]
            fn add(self, o: $t) -> $t { Self { $($f: self.$f + o.$f),+ } }
        }
        impl Sub for $t {
            type Output = $t;
            #[inline]
            fn sub(self, o: $t) -> $t { Self { $($f: self.$f - o.$f),+ } }
        }
        impl Neg for $t {
            type Output = $t;
            #[inline]
            fn neg(self) -> $t { Self { $($f: -self.$f),+ } }
        }
        impl Mul<f64> for $t {
            type Output = $t;
            #[inline]
            fn mul(self, s: f64) -> $t { Self { $($f: self.$f * s),+ } }
        }
        impl Div<f64> for $t {
            type Output = $t;
            #[inline]
            fn div(self, s: f64) -> $t { Self { $($f: self.$f / s),+ } }
        }
        impl AddAssign for $t {
            #[inline]
            fn add_assign(&mut self, o: $t) { $(self.$f += o.$f;)+ }
        }
        impl SubAssign for $t {
            #[inline]
            fn sub_assign(&mut self, o: $t) { $(self.$f -= o.$f;)+ }
        }
    };
}

impl_ops2!(Point2, x, y);
impl_ops2!(Point3, x, y, z);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point2_arithmetic() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(a - b, Point2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(1.5, -0.5));
        assert_eq!(-a, Point2::new(-1.0, -2.0));
    }

    #[test]
    fn point2_metrics() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(b.norm_sq(), 25.0);
        let u = b.normalized();
        assert!((u.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point2_normalized_zero_is_zero() {
        assert_eq!(Point2::ZERO.normalized(), Point2::ZERO);
    }

    #[test]
    fn point3_cross_orthogonal() {
        let a = Point3::new(1.0, 0.0, 0.0);
        let b = Point3::new(0.0, 1.0, 0.0);
        let c = a.cross(b);
        assert_eq!(c, Point3::new(0.0, 0.0, 1.0));
        assert_eq!(c.dot(a), 0.0);
        assert_eq!(c.dot(b), 0.0);
    }

    #[test]
    fn point3_norm_and_dist() {
        let a = Point3::new(1.0, 2.0, 2.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.dist(Point3::ZERO), 3.0);
        assert!((a.normalized().norm() - 1.0).abs() < 1e-12);
    }
}
