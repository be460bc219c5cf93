//! Shaped Delaunay meshes: the hugetrace / hugebubbles analogs.
//!
//! The `hugetrace-*` and `hugebubbles-*` graphs in the paper come from the
//! "frames" family of 2-D dynamic simulations: enormous triangulated
//! regions with non-convex, hole-riddled geometry. We reproduce the family
//! by scattering points inside a shaped region and Delaunay-triangulating,
//! then deleting triangles whose centroid falls outside the region, which
//! leaves the same kind of thin, hole-riddled planar mesh.

use crate::csr::Graph;
use crate::gen::delaunay::delaunay_of_points;
use crate::traversal::largest_component;
use rand::Rng;
use sp_geometry::Point2;

/// A long serpentine band ("trace"): points along a sinusoidal ribbon.
/// Produces a planar mesh with tiny separators (the paper's hugetrace cuts
/// are the smallest in the suite relative to N).
pub fn trace_mesh<R: Rng>(n: usize, rng: &mut R) -> (Graph, Vec<Point2>) {
    // Ribbon: x ∈ [0, L], centreline y = A sin(ωx), half-width w.
    let length: f64 = 8.0;
    let amp: f64 = 1.0;
    let omega: f64 = 0.9;
    let half_w = 0.8;
    let pts: Vec<Point2> = (0..n)
        .map(|_| {
            let x = rng.random_range(0.0..length);
            let y0 = amp * (omega * x).sin();
            let y = y0 + rng.random_range(-half_w..half_w);
            Point2::new(x, y)
        })
        .collect();
    filtered_mesh(pts, |p| {
        let y0 = amp * (omega * p.x).sin();
        (p.y - y0).abs() <= half_w * 1.05
    })
}

/// A disk with circular holes ("bubbles"): points in the disk, rejected
/// inside the bubbles. Gives a planar mesh whose best separators thread
/// between holes.
pub fn bubbles_mesh<R: Rng>(n: usize, n_bubbles: usize, rng: &mut R) -> (Graph, Vec<Point2>) {
    // An elongated elliptical region (the paper's frames family is
    // elongated, so the best cuts scale with the short axis) riddled with
    // circular holes along its length.
    let (a, b) = (2.0f64, 0.75f64);
    let mut bubbles: Vec<(Point2, f64)> = Vec::with_capacity(n_bubbles);
    for i in 0..n_bubbles {
        let cx = -a * 0.85
            + 2.0 * a * 0.85 * (i as f64 + 0.5) / n_bubbles as f64
            + rng.random_range(-0.1..0.1);
        let cy = rng.random_range(-b * 0.5..b * 0.5);
        bubbles.push((Point2::new(cx, cy), rng.random_range(0.08..0.16)));
    }
    let inside = move |p: Point2| {
        (p.x / a).powi(2) + (p.y / b).powi(2) <= 1.0 && bubbles.iter().all(|&(c, r)| p.dist(c) > r)
    };
    let mut pts = Vec::with_capacity(n);
    while pts.len() < n {
        let p = Point2::new(rng.random_range(-a..a), rng.random_range(-b..b));
        if inside(p) {
            pts.push(p);
        }
    }
    filtered_mesh(pts, inside)
}

/// Triangulate `pts` and drop edges whose midpoint leaves the region, then
/// keep the largest component (filtering can strand slivers).
///
/// The filter runs per row straight off the triangulation's CSR (each
/// kept row is a subsequence of an already-sorted row), so no transient
/// edge list is built; the component extraction is one sequential
/// count-and-fill (`Graph::induced_subgraph`) whose rows need no sort,
/// the kept vertices being listed in ascending order.
fn filtered_mesh(pts: Vec<Point2>, inside: impl Fn(Point2) -> bool + Sync) -> (Graph, Vec<Point2>) {
    let g = delaunay_of_points(&pts);
    let filtered = crate::build::csr_unit_from_rows(g.n(), |v, row| {
        for &u in g.neighbors(v) {
            let mid = (pts[v as usize] + pts[u as usize]) * 0.5;
            if inside(mid) {
                row.push(u);
            }
        }
    });
    let (big, map) = largest_component(&filtered);
    let coords = map.iter().map(|&v| pts[v as usize]).collect();
    (big, coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trace_mesh_is_connected_planarish() {
        let mut rng = StdRng::seed_from_u64(21);
        let (g, pts) = trace_mesh(3000, &mut rng);
        assert!(g.n() > 2500, "lost too many vertices: {}", g.n());
        assert_eq!(pts.len(), g.n());
        assert!(is_connected(&g));
        g.validate().unwrap();
        assert!(g.m() <= 3 * g.n());
    }

    #[test]
    fn trace_mesh_is_elongated() {
        let mut rng = StdRng::seed_from_u64(22);
        let (_, pts) = trace_mesh(1500, &mut rng);
        let bb = sp_geometry::Aabb2::from_points(&pts).unwrap();
        assert!(bb.width() > 1.5 * bb.height());
    }

    #[test]
    fn bubbles_mesh_has_holes() {
        let mut rng = StdRng::seed_from_u64(23);
        let (g, pts) = bubbles_mesh(4000, 12, &mut rng);
        assert!(g.n() > 3000);
        assert!(is_connected(&g));
        g.validate().unwrap();
        // All points inside the elongated elliptical region.
        assert!(pts
            .iter()
            .all(|p| (p.x / 2.0).powi(2) + (p.y / 0.75).powi(2) <= 1.0 + 1e-9));
    }

    #[test]
    fn deterministic_under_seed() {
        let (a, _) = trace_mesh(800, &mut StdRng::seed_from_u64(3));
        let (b, _) = trace_mesh(800, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.n(), b.n());
        assert_eq!(a.m(), b.m());
    }
}
