//! Property-based invariants across random graphs and point sets.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::geometry::{hilbert_d2xy, hilbert_xy2d, stereo_lift, stereo_project, Point2};
use scalapart::graph::gen::{delaunay_of_points, random_geometric_graph};
use scalapart::graph::{Bisection, GraphBuilder};
use scalapart::refine::{fm_refine, FmConfig};

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4..max_n)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn builder_always_produces_valid_graphs(
        edges in prop::collection::vec((0u32..50, 0u32..50, 0.1f64..10.0), 1..300)
    ) {
        let mut b = GraphBuilder::new(50);
        for (u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        let g = b.build();
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn delaunay_of_random_points_is_planar_and_valid(pts in arb_points(120)) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let g = delaunay_of_points(&points);
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.n() == points.len());
        if g.n() >= 3 {
            prop_assert!(g.m() <= 3 * g.n() - 6 + 3); // tiny slack for duplicates
        }
    }

    #[test]
    fn stereo_roundtrip_everywhere(x in -50.0f64..50.0, y in -50.0f64..50.0) {
        let p = Point2::new(x, y);
        let q = stereo_project(stereo_lift(p));
        prop_assert!((p - q).norm() < 1e-6 * (1.0 + p.norm()));
        prop_assert!((stereo_lift(p).norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hilbert_curve_is_a_bijection(order in 1u32..8, x in 0u32..128, y in 0u32..128) {
        let n = 1u32 << order;
        let (x, y) = (x % n, y % n);
        let d = hilbert_xy2d(order, x, y);
        prop_assert!(d < (n as u64) * (n as u64));
        prop_assert_eq!(hilbert_d2xy(order, d), (x, y));
    }

    #[test]
    fn fm_never_increases_cut_on_random_geometric_graphs(
        seed in 0u64..5000, flips in 0usize..40
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = random_geometric_graph(120, 0.15, &mut rng);
        if g.n() < 4 {
            return Ok(());
        }
        let mut side: Vec<u8> = (0..g.n()).map(|v| u8::from(v >= g.n() / 2)).collect();
        for i in 0..flips.min(g.n()) {
            side[(seed as usize + i * 7) % g.n()] ^= 1;
        }
        let mut bi = Bisection::new(side);
        let before = bi.cut(&g);
        let imb_before = bi.imbalance(&g);
        let st = fm_refine(&g, &mut bi, None, &FmConfig::default());
        prop_assert!(st.cut_after <= before + 1e-9);
        prop_assert!((bi.cut(&g) - st.cut_after).abs() < 1e-9);
        // Balance never degrades beyond max(initial, tolerance).
        prop_assert!(bi.imbalance(&g) <= imb_before.max(0.05) + 1e-9);
    }

    #[test]
    fn geometric_partition_is_valid_on_random_meshes(seed in 0u64..5000) {
        use scalapart::geopart::{geometric_partition, GeoConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, coords) = scalapart::graph::gen::delaunay_graph(200, &mut rng);
        let r = geometric_partition(&g, &coords, &GeoConfig::g7_nl(), &mut rng);
        prop_assert!(r.bisection.validate(&g).is_ok());
        let (a, b) = r.bisection.counts();
        prop_assert!(a.abs_diff(b) <= g.n() / 5);
    }

    #[test]
    fn matching_and_contraction_preserve_weight(seed in 0u64..5000) {
        use scalapart::coarsen::{
            contract_with, heavy_edge_matching_in, validate_matching, CoarsenArena,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = random_geometric_graph(150, 0.12, &mut rng);
        let mut arena = CoarsenArena::new();
        let m = heavy_edge_matching_in(&g, &mut rng, &mut arena);
        prop_assert!(validate_matching(&g, &m).is_ok());
        let c = contract_with(&g, &m, &mut arena);
        prop_assert!(c.coarse.validate().is_ok());
        prop_assert!((c.coarse.total_vwgt() - g.total_vwgt()).abs() < 1e-6);
        prop_assert!(c.coarse.n() >= g.n() / 2);
    }
}
