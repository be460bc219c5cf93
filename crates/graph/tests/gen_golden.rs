//! Golden bytes for the triangulator. `delaunay_of_points` is fed point
//! sets that need no `rand` (an integer grid and a splitmix64 stream
//! written out here), so the same fingerprints hold under any `rand`
//! build. Each is checked at pool widths 1, 2 and 4: the triangulation is
//! serial and the edge emission is parallel, and neither may move a byte.

use sp_geometry::Point2;
use sp_graph::gen::delaunay_of_points;
use sp_graph::graph_fingerprint;
use sp_machine::trace::fnv::splitmix64;

/// splitmix64 from state 1; each draw is a uniform `f64` in `[0, 1)`.
struct SplitMix(u64);

impl SplitMix {
    fn unit(&mut self) -> f64 {
        (splitmix64(&mut self.0) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn at_widths(points: &[Point2], expected: u64, what: &str) {
    for width in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        let fp = pool.install(|| graph_fingerprint(&delaunay_of_points(points)));
        assert_eq!(fp, expected, "{what} at width {width}: {fp:016x}");
    }
}

#[test]
fn cocircular_grid_bytes_are_pinned() {
    let grid: Vec<Point2> = (0..64 * 64)
        .map(|i| Point2::new((i % 64) as f64, (i / 64) as f64))
        .collect();
    at_widths(&grid, 0xe347d6fe917ddd9f, "64x64 grid");
}

#[test]
fn random_point_bytes_are_pinned() {
    let mut rng = SplitMix(1);
    let square: Vec<Point2> = (0..1 << 14)
        .map(|_| Point2::new(rng.unit(), rng.unit()))
        .collect();
    let ribbon: Vec<Point2> = (0..1 << 14)
        .map(|_| {
            let x = 8.0 * rng.unit();
            Point2::new(x, (0.9 * x).sin() + 1.6 * rng.unit() - 0.8)
        })
        .collect();
    at_widths(&square, 0xb8ec7a30c0624ee2, "unit square");
    at_widths(&ribbon, 0x71b74c0105dcced0, "ribbon");
}
