//! Property-based invariants across random graphs and point sets: 32
//! seeded cases per property, case `c` drawn from
//! `StdRng::seed_from_u64(c)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalapart::geometry::{hilbert_d2xy, hilbert_xy2d, stereo_lift, stereo_project, Point2};
use scalapart::graph::gen::{delaunay_of_points, random_geometric_graph};
use scalapart::graph::{Bisection, GraphBuilder};
use scalapart::refine::{fm_refine, FmConfig};

const CASES: u64 = 32;

/// Between 4 and `max_n - 1` points of the unit square.
fn arb_points(rng: &mut StdRng, max_n: usize) -> Vec<Point2> {
    (0..rng.random_range(4..max_n))
        .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect()
}

#[test]
fn builder_always_produces_valid_graphs() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let mut b = GraphBuilder::new(50);
        for _ in 0..rng.random_range(1..300) {
            let u = rng.random_range(0u32..50);
            let v = rng.random_range(0u32..50);
            b.add_edge(u, v, rng.random_range(0.1..10.0));
        }
        let g = b.build();
        assert!(g.validate().is_ok(), "case {case}");
    }
}

#[test]
fn delaunay_of_random_points_is_planar_and_valid() {
    for case in 0..CASES {
        let points = arb_points(&mut StdRng::seed_from_u64(case), 120);
        let g = delaunay_of_points(&points);
        assert!(g.validate().is_ok(), "case {case}");
        assert_eq!(g.n(), points.len(), "case {case}");
        if g.n() >= 3 {
            assert!(g.m() <= 3 * g.n() - 6 + 3, "case {case}"); // tiny slack for duplicates
        }
    }
}

#[test]
fn stereo_roundtrip_everywhere() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let p = Point2::new(rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0));
        let q = stereo_project(stereo_lift(p));
        assert!((p - q).norm() < 1e-6 * (1.0 + p.norm()), "case {case}");
        assert!((stereo_lift(p).norm() - 1.0).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn hilbert_curve_is_a_bijection() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let order = rng.random_range(1u32..8);
        let n = 1u32 << order;
        let x = rng.random_range(0u32..128) % n;
        let y = rng.random_range(0u32..128) % n;
        let d = hilbert_xy2d(order, x, y);
        assert!(d < (n as u64) * (n as u64), "case {case}");
        assert_eq!(hilbert_d2xy(order, d), (x, y), "case {case}");
    }
}

#[test]
fn fm_never_increases_cut_on_random_geometric_graphs() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let flips = rng.random_range(0usize..40);
        let (g, _) = random_geometric_graph(120, 0.15, rng);
        if g.n() < 4 {
            continue;
        }
        let mut side: Vec<u8> = (0..g.n()).map(|v| u8::from(v >= g.n() / 2)).collect();
        for i in 0..flips.min(g.n()) {
            side[(case as usize + i * 7) % g.n()] ^= 1;
        }
        let mut bi = Bisection::new(side);
        let before = bi.cut(&g);
        let imb_before = bi.imbalance(&g);
        let st = fm_refine(&g, &mut bi, None, before, &FmConfig::default());
        assert!(st.cut_after <= before + 1e-9, "case {case}");
        assert!((bi.cut(&g) - st.cut_after).abs() < 1e-9, "case {case}");
        // Balance never degrades beyond max(initial, tolerance).
        assert!(
            bi.imbalance(&g) <= imb_before.max(0.05) + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn geometric_partition_is_valid_on_random_meshes() {
    use scalapart::geopart::{geometric_partition, GeoConfig};
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let (g, coords) = scalapart::graph::gen::delaunay_graph(200, rng);
        let r = geometric_partition(&g, &coords, &GeoConfig::g7_nl(), rng);
        assert!(r.bisection.validate(&g).is_ok(), "case {case}");
        let (a, b) = r.bisection.counts();
        assert!(a.abs_diff(b) <= g.n() / 5, "case {case}: {a} vs {b}");
    }
}

#[test]
fn matching_and_contraction_preserve_weight() {
    use scalapart::coarsen::{
        contract_with, heavy_edge_matching_in, validate_matching, CoarsenArena,
    };
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let (g, _) = random_geometric_graph(150, 0.12, rng);
        let mut arena = CoarsenArena::new();
        let m = heavy_edge_matching_in(&g, rng, &mut arena);
        assert!(validate_matching(&g, &m).is_ok(), "case {case}");
        let c = contract_with(&g, &m, &mut arena);
        assert!(c.coarse.validate().is_ok(), "case {case}");
        assert!(
            (c.coarse.total_vwgt() - g.total_vwgt()).abs() < 1e-6,
            "case {case}"
        );
        assert!(c.coarse.n() >= g.n() / 2, "case {case}");
    }
}
