//! Property-based tests for the geometric substrate: 64 seeded cases per
//! property, case `c` drawn from `StdRng::seed_from_u64(c)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_geometry::bbox::Aabb2;
use sp_geometry::centerpoint::{centroid, halfspace_fraction, radon_point3};
use sp_geometry::conformal::ConformalMap;
use sp_geometry::point::{Point2, Point3};
use sp_geometry::sphere::{stereo_lift, stereo_project};

const CASES: u64 = 64;

fn arb_p2(rng: &mut StdRng) -> Point2 {
    Point2::new(rng.random_range(-10.0..10.0), rng.random_range(-10.0..10.0))
}

fn arb_p3(rng: &mut StdRng, r: f64) -> Point3 {
    Point3::new(
        rng.random_range(-r..r),
        rng.random_range(-r..r),
        rng.random_range(-r..r),
    )
}

/// A unit vector: a point of the cube `[-1, 1)^3` normalised, redrawn
/// while it lies too near the origin to have a direction.
fn arb_unit3(rng: &mut StdRng) -> Point3 {
    loop {
        let p = arb_p3(rng, 1.0);
        if p.norm() > 1e-3 {
            return p.normalized();
        }
    }
}

#[test]
fn bbox_from_points_is_tight_and_containing() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let pts: Vec<Point2> = (0..rng.random_range(1..40)).map(|_| arb_p2(rng)).collect();
        let bb = Aabb2::from_points(&pts).unwrap();
        for p in &pts {
            assert!(bb.contains(*p), "case {case}");
        }
        // Tight: some point touches each face.
        let near = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(pts.iter().any(|p| near(p.x, bb.min.x)), "case {case}");
        assert!(pts.iter().any(|p| near(p.x, bb.max.x)), "case {case}");
        assert!(pts.iter().any(|p| near(p.y, bb.min.y)), "case {case}");
        assert!(pts.iter().any(|p| near(p.y, bb.max.y)), "case {case}");
    }
}

#[test]
fn lattice_cell_assignment_is_consistent() {
    let bb = Aabb2::new(Point2::new(-10.0, -10.0), Point2::new(10.0, 10.0));
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let p = arb_p2(rng);
        let q = rng.random_range(1usize..9);
        let (i, j) = bb.cell_of(q, p);
        assert!(i < q && j < q, "case {case}");
        assert!(bb.lattice_cell(q, i, j).contains(p), "case {case}");
    }
}

#[test]
fn stereo_lift_is_an_isometry_onto_the_sphere() {
    for case in 0..CASES {
        let p = arb_p2(&mut StdRng::seed_from_u64(case));
        let s = stereo_lift(p);
        assert!((s.norm() - 1.0).abs() < 1e-12, "case {case}");
        let back = stereo_project(s);
        assert!(back.dist(p) < 1e-6 * (1.0 + p.norm()), "case {case}");
    }
}

#[test]
fn conformal_map_preserves_the_sphere() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let c = arb_unit3(rng);
        let r = rng.random_range(0.0..0.9);
        let p = arb_unit3(rng);
        let q = ConformalMap::centering(c * r).apply(p);
        assert!((q.norm() - 1.0).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn radon_point_lies_in_bounding_box() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let group: [Point3; 5] = std::array::from_fn(|_| arb_p3(rng, 5.0));
        if let Some(r) = radon_point3(&group) {
            // A Radon point is a convex combination of a subset of the
            // input, so it lies inside the group's bounding box.
            for ax in 0..3 {
                let coord = |p: Point3| [p.x, p.y, p.z][ax];
                let lo = group
                    .iter()
                    .map(|&p| coord(p))
                    .fold(f64::INFINITY, f64::min);
                let hi = group
                    .iter()
                    .map(|&p| coord(p))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!(
                    coord(r) >= lo - 1e-6 && coord(r) <= hi + 1e-6,
                    "case {case}: axis {ax}"
                );
            }
        }
    }
}

#[test]
fn centroid_halfspace_fraction_sane() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cloud: Vec<Point3> = (0..rng.random_range(10..60))
            .map(|_| arb_p3(rng, 1.0))
            .collect();
        let n = arb_unit3(rng);
        let f = halfspace_fraction(&cloud, centroid(&cloud), n);
        assert!((0.0..=1.0).contains(&f), "case {case}");
    }
}
