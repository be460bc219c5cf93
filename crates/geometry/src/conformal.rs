//! The conformal (Möbius) map that centers a point set on the sphere.
//!
//! After lifting the mesh points to S² and computing a centerpoint `c`
//! (an interior point of the ball, |c| = r < 1), Gilbert–Miller–Teng apply a
//! sphere-preserving Möbius transformation that sends `c` to the center of
//! the ball. Random great circles through the origin of the *mapped* sphere
//! then correspond to circles in the original plane and inherit the
//! centerpoint's balance guarantee.
//!
//! The map is the classic composition: rotate `c` onto the +z axis, then
//! "stereographically dilate" by `α = √((1−r)/(1+r))` — project from the
//! north pole to the plane, scale by α, lift back. The dilation is a Möbius
//! transformation of the ball taking `(0,0,r)` to the origin.

use crate::point::Point3;
use crate::sphere::{stereo_lift, stereo_project};

/// A rotation followed by a stereographic dilation; maps the unit sphere to
/// itself and the configured centerpoint (approximately) to the origin.
#[derive(Clone, Debug)]
pub struct ConformalMap {
    /// Row-major rotation matrix taking the centerpoint direction to +z.
    rot: [[f64; 3]; 3],
    /// Dilation factor √((1−r)/(1+r)).
    alpha: f64,
}

/// Build the rotation matrix taking unit vector `u` to `e_z` (Rodrigues).
fn rotation_to_z(u: Point3) -> [[f64; 3]; 3] {
    let ez = Point3::new(0.0, 0.0, 1.0);
    let c = u.dot(ez);
    if c > 1.0 - 1e-12 {
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
    }
    if c < -1.0 + 1e-12 {
        // 180° turn about the x axis.
        return [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]];
    }
    let axis = u.cross(ez).normalized();
    let s = (1.0 - c * c).sqrt();
    let t = 1.0 - c;
    let (x, y, z) = (axis.x, axis.y, axis.z);
    [
        [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
        [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
        [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
    ]
}

fn mat_apply(m: &[[f64; 3]; 3], p: Point3) -> Point3 {
    Point3::new(
        m[0][0] * p.x + m[0][1] * p.y + m[0][2] * p.z,
        m[1][0] * p.x + m[1][1] * p.y + m[1][2] * p.z,
        m[2][0] * p.x + m[2][1] * p.y + m[2][2] * p.z,
    )
}

impl ConformalMap {
    /// Construct the map for centerpoint `c` (a point strictly inside the
    /// unit ball). A centerpoint at the origin yields the identity.
    pub fn centering(c: Point3) -> Self {
        let r = c.norm().min(0.999_999);
        if r < 1e-12 {
            return ConformalMap {
                rot: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                alpha: 1.0,
            };
        }
        let rot = rotation_to_z(c / c.norm());
        let alpha = ((1.0 - r) / (1.0 + r)).sqrt();
        ConformalMap { rot, alpha }
    }

    /// Apply the map to a point on the unit sphere.
    ///
    /// The stereographic dilation about the north pole is computed for
    /// every point and then discarded near the pole, which it fixes: a
    /// select, not a branch, in the per-vertex loops that call this.
    #[inline]
    pub fn apply(&self, p: Point3) -> Point3 {
        let q = mat_apply(&self.rot, p);
        let dilated = stereo_lift(stereo_project(q) * self.alpha);
        if q.z > 1.0 - 1e-12 {
            q
        } else {
            dilated
        }
    }

    /// The dilation factor (1.0 means the map is a pure rotation).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_for_origin_centerpoint() {
        let m = ConformalMap::centering(Point3::ZERO);
        let p = Point3::new(0.6, 0.0, 0.8);
        assert!(m.apply(p).dist(p) < 1e-12);
    }

    #[test]
    fn maps_sphere_to_sphere() {
        let m = ConformalMap::centering(Point3::new(0.2, -0.3, 0.4));
        for p in [
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(0.0, 0.0, -1.0),
            Point3::new(0.577, 0.577, 0.577).normalized(),
        ] {
            let q = m.apply(p);
            assert!((q.norm() - 1.0).abs() < 1e-9, "not on sphere: {q:?}");
        }
    }

    #[test]
    fn centerpoint_moves_toward_origin() {
        // The Möbius extension maps c = (0,0,r) to the origin; verify via the
        // sphere action: points symmetric about c's axis must map to points
        // whose mean is near the origin along z.
        let c = Point3::new(0.0, 0.0, 0.5);
        let m = ConformalMap::centering(c);
        // A ring at height z = 0.5 (around the centerpoint) maps to a ring
        // whose z-coordinate is near 0.
        let r = (1.0f64 - 0.25).sqrt();
        let mut zsum = 0.0;
        let n = 16;
        for k in 0..n {
            let a = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            let p = Point3::new(r * a.cos(), r * a.sin(), 0.5);
            zsum += m.apply(p).z;
        }
        assert!((zsum / n as f64).abs() < 1e-9);
    }

    #[test]
    fn rotation_to_z_handles_poles() {
        let i = rotation_to_z(Point3::new(0.0, 0.0, 1.0));
        assert_eq!(i[0][0], 1.0);
        let f = rotation_to_z(Point3::new(0.0, 0.0, -1.0));
        let p = mat_apply(&f, Point3::new(0.0, 0.0, -1.0));
        assert!(p.dist(Point3::new(0.0, 0.0, 1.0)) < 1e-12);
    }

    #[test]
    fn rotation_sends_centerpoint_axis_to_z() {
        let u = Point3::new(0.3, -0.4, 0.2).normalized();
        let m = rotation_to_z(u);
        let r = mat_apply(&m, u);
        assert!(r.dist(Point3::new(0.0, 0.0, 1.0)) < 1e-9);
    }
}
