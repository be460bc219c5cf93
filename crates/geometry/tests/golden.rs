//! Golden bits of the geometric partitioner's kernels, recorded at the
//! commit before `ConformalMap::apply` stopped branching and
//! `radon_point3` stopped allocating.
//!
//! * `ConformalMap::apply` on the pole, the 1e-12 band below it, the
//!   antipode, NaN coordinates, and seeded sphere samples under several
//!   maps.
//! * `radon_point3` on seeded groups, on small-integer groups (pivot
//!   magnitudes tie), on groups whose first four points are
//!   coplanar (the coefficient fixed first is singular, so a later one is
//!   fixed), on repeated points, and on fully coplanar or collinear groups
//!   (`None`).
//! * `centerpoint` on seeded sphere samples, on a coplanar sample (every
//!   Radon group is `None`, so the centroid survives) and on a sample of a
//!   few repeated points.
//!
//! A sample is summarised by an FNV-1a fold of every coordinate's bits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_geometry::centerpoint::radon_point3;
use sp_geometry::{centerpoint, random_unit_vector, CenterpointConfig, ConformalMap, Point3};

fn bits(p: Point3) -> [u64; 3] {
    [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]
}

fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_points(points: impl IntoIterator<Item = Point3>) -> u64 {
    points.into_iter().flat_map(bits).fold(FNV_OFFSET, fold)
}

/// A Radon point's bits, or one word for `None`.
fn fold_radon(h: u64, r: Option<Point3>) -> u64 {
    match r {
        Some(p) => bits(p).into_iter().fold(fold(h, 1), fold),
        None => fold(h, 0),
    }
}

/// A point at height `z` above the x axis, on the unit sphere.
fn at_height(z: f64) -> Point3 {
    Point3::new((1.0 - z * z).max(0.0).sqrt(), 0.0, z)
}

#[test]
fn conformal_map_on_the_pole_the_band_below_it_and_the_antipode() {
    // A centerpoint on the +z axis: the rotation is the identity, so the
    // input's z is the z the dilation tests.
    let m = ConformalMap::centering(Point3::new(0.0, 0.0, 0.5));
    let band: f64 = 1.0 - 1e-12;
    let cases: [(Point3, [u64; 3]); 7] = [
        // The pole itself is a fixed point.
        (
            Point3::new(0.0, 0.0, 1.0),
            [0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000],
        ),
        // Above the band's edge: returned unmapped.
        (
            at_height(f64::from_bits(band.to_bits() + 1)),
            [0x3eb7b998bc9d4e94, 0x0000000000000000, 0x3fefffffffffdcd2],
        ),
        // On the edge, 1 - z is 9007 ulps of 1, below 1e-12: the
        // projection's far sentinel overflows the lift to (0, 0, NaN).
        (
            at_height(band),
            [0x0000000000000000, 0x0000000000000000, 0xfff8000000000000],
        ),
        // One ulp below the edge and further: dilated.
        (
            at_height(f64::from_bits(band.to_bits() - 1)),
            [0x3ec48c7915620d66, 0x0000000000000000, 0x3fefffffffff9670],
        ),
        (
            at_height(1.0 - 4e-12),
            [0x3ed48c41053ddf62, 0x0000000000000000, 0x3feffffffffe59c9],
        ),
        // The antipode of the pole is fixed too.
        (
            Point3::new(0.0, 0.0, -1.0),
            [0x0000000000000000, 0x0000000000000000, 0xbff0000000000000],
        ),
        (
            Point3::new(0.6, 0.0, 0.8),
            [0x3febb67ae8584cab, 0x0000000000000000, 0x3fe0000000000001],
        ),
    ];
    for (p, want) in cases {
        assert_eq!(bits(m.apply(p)), want, "apply({p:?})");
    }
}

#[test]
fn conformal_map_of_nan_coordinates() {
    let m = ConformalMap::centering(Point3::new(0.2, -0.3, 0.4));
    let cases: [(Point3, [u64; 3]); 3] = [
        (
            Point3::new(f64::NAN, 0.0, 0.0),
            [0x7ff8000000000000, 0x7ff8000000000000, 0x7ff8000000000000],
        ),
        (
            Point3::new(0.0, 0.0, f64::NAN),
            [0x7ff8000000000000, 0x7ff8000000000000, 0x7ff8000000000000],
        ),
        (
            Point3::new(f64::NAN, f64::NAN, f64::NAN),
            [0x7ff8000000000000, 0x7ff8000000000000, 0x7ff8000000000000],
        ),
    ];
    for (p, want) in cases {
        assert_eq!(bits(m.apply(p)), want, "apply({p:?})");
    }
}

#[test]
fn conformal_map_of_seeded_sphere_samples() {
    let centers = [
        Point3::ZERO,
        Point3::new(0.0, 0.0, 0.5),
        Point3::new(0.0, 0.0, -0.7),
        Point3::new(0.2, -0.3, 0.4),
        Point3::new(-0.05, 0.01, 0.002),
        Point3::new(0.6, 0.6, -0.5),
    ];
    let want: [u64; 6] = [
        0xae907362c4bdf007,
        0xa63c06b599376f59,
        0x89ab59f424a1961e,
        0x4cce58f6ece16fc5,
        0x8c79d3041defe14e,
        0x1af720fa76b6222a,
    ];
    let mut got = [0u64; 6];
    for (i, &c) in centers.iter().enumerate() {
        let m = ConformalMap::centering(c);
        let rng = &mut StdRng::seed_from_u64(i as u64);
        // The centerpoint's own direction and its antipode ride along.
        let axis = [c.normalized(), -c.normalized()];
        let sample: Vec<Point3> = (0..256).map(|_| random_unit_vector(rng)).collect();
        got[i] = fold_points(axis.into_iter().chain(sample).map(|p| m.apply(p)));
    }
    assert_eq!(got, want);
}

/// Seeded groups of five points in the cube `[-1, 1)^3`.
fn cube_group(rng: &mut StdRng) -> [Point3; 5] {
    std::array::from_fn(|_| {
        Point3::new(
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        )
    })
}

#[test]
fn radon_point_of_seeded_groups() {
    let rng = &mut StdRng::seed_from_u64(0x7AD0);
    let h = (0..512).fold(FNV_OFFSET, |h, _| {
        fold_radon(h, radon_point3(&cube_group(rng)))
    });
    assert_eq!(h, 0xd1d5906d6a7d842b);
}

#[test]
fn radon_point_of_integer_groups() {
    // Small integer coordinates: pivot candidates tie in magnitude, and
    // the first of the tied rows is the pivot.
    let rng = &mut StdRng::seed_from_u64(0x1A77);
    let h = (0..512).fold(FNV_OFFSET, |h, _| {
        let group = std::array::from_fn(|_| {
            let mut c = || rng.random_range(-2i32..3) as f64;
            Point3::new(c(), c(), c())
        });
        fold_radon(h, radon_point3(&group))
    });
    assert_eq!(h, 0x444187526aee74af);
}

#[test]
fn radon_point_of_degenerate_groups() {
    let rng = &mut StdRng::seed_from_u64(0xDE6E);
    let mut got = Vec::new();
    for _ in 0..16 {
        let mut g = cube_group(rng);
        // First four in the plane z = g[0].z: fixing λ_4 is singular.
        let mut coplanar4 = g;
        for p in &mut coplanar4[1..4] {
            p.z = g[0].z;
        }
        got.push(radon_point3(&coplanar4));
        // All five in one plane: every choice is singular.
        let mut coplanar5 = coplanar4;
        coplanar5[4].z = g[0].z;
        got.push(radon_point3(&coplanar5));
        // A point repeated, in each pair of slots that matters.
        let mut last_two = g;
        last_two[4] = g[3];
        got.push(radon_point3(&last_two));
        let mut first_last = g;
        first_last[4] = g[0];
        got.push(radon_point3(&first_last));
        // Only two distinct points: collinear, so `None`.
        g = [g[0], g[1], g[0], g[1], g[0]];
        got.push(radon_point3(&g));
    }
    let nones: Vec<usize> = (0..got.len()).filter(|&i| got[i].is_none()).collect();
    // Exactly the coplanar-five and the two-point groups.
    let want_nones: Vec<usize> = (0..16).flat_map(|i| [5 * i + 1, 5 * i + 4]).collect();
    assert_eq!(nones, want_nones);
    assert_eq!(
        got.into_iter().fold(FNV_OFFSET, fold_radon),
        0xbba818c6d072076f
    );
}

#[test]
fn centerpoint_of_seeded_samples() {
    let cfg = CenterpointConfig {
        sample_size: 1000,
        iterations: 400,
    };
    let mut got = Vec::new();
    for seed in 0..4u64 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let pts: Vec<Point3> = (0..1500).map(|_| random_unit_vector(rng)).collect();
        got.push(bits(centerpoint(&pts, &cfg, rng)));
    }
    // A sample in the plane z = 0.25: every Radon group is `None`.
    let rng = &mut StdRng::seed_from_u64(10);
    let flat: Vec<Point3> = (0..600)
        .map(|_| {
            Point3::new(
                rng.random_range(-1.0..1.0),
                rng.random_range(-1.0..1.0),
                0.25,
            )
        })
        .collect();
    got.push(bits(centerpoint(&flat, &cfg, rng)));
    // Six distinct points repeated: most groups repeat a point.
    let few: Vec<Point3> = (0..6).map(|_| random_unit_vector(rng)).collect();
    let repeated: Vec<Point3> = (0..300).map(|i| few[i % few.len()]).collect();
    got.push(bits(centerpoint(&repeated, &cfg, rng)));
    let want: [[u64; 3]; 6] = [
        [0xbfc7bcd12f231537, 0xbfe56b35b3c1775a, 0x3fd7d14eb6ee6342],
        [0x3febce2c1c0305d5, 0x3fd22b111f2064cd, 0x3f8045023a328d3a],
        [0x3fd508a4b7c75580, 0xbf7ff6849b853cfa, 0xbfe56615830a6dcf],
        [0xbfd092f4ac21cb9c, 0x3fdba0a9406f8294, 0x3fb81de0f00f7107],
        // The coplanar sample keeps its centroid, whose z is the plane's.
        [0x3fb4c840eef88f43, 0xbf9eef110fc062ec, 0x3fd0000000000000],
        [0xbfd8d766f17803d9, 0x3fe5a895ca637969, 0x3fe4040e1d4223f6],
    ];
    assert_eq!(got, want);
}
