//! Incremental Bowyer–Watson Delaunay triangulation.
//!
//! Four of the paper's nine suite graphs are `delaunay_nXX` (Delaunay
//! triangulations of 2^XX random points), and our hugetrace/hugebubbles
//! analogs are Delaunay meshes of shaped regions, so a real triangulator is
//! a required substrate. Points are inserted in Hilbert order so the
//! walk-based point location starting at the last created triangle is
//! near-O(1) amortised, giving roughly linear total construction time.

use crate::csr::Graph;
use rand::Rng;
use sp_geometry::{hilbert_key_unit, Aabb2, Point2};
use sp_machine::pool;
use std::sync::atomic::{AtomicU32, Ordering};

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Tri {
    /// Vertex indices, counter-clockwise.
    v: [u32; 3],
    /// `nbr[i]` is the triangle across the edge opposite `v[i]` (NONE = hull).
    nbr: [u32; 3],
    alive: bool,
}

/// 2·(signed area) of triangle `abc`; positive if counter-clockwise.
#[inline]
fn orient2d(a: Point2, b: Point2, c: Point2) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// `true` if `p` lies strictly inside the circumcircle of CCW triangle `abc`.
#[inline]
fn in_circle(a: Point2, b: Point2, c: Point2, p: Point2) -> bool {
    let ax = a.x - p.x;
    let ay = a.y - p.y;
    let bx = b.x - p.x;
    let by = b.y - p.y;
    let cx = c.x - p.x;
    let cy = c.y - p.y;
    let det = (ax * ax + ay * ay) * (bx * cy - cx * by) - (bx * bx + by * by) * (ax * cy - cx * ay)
        + (cx * cx + cy * cy) * (ax * by - bx * ay);
    det > 0.0
}

struct Triangulator {
    pts: Vec<Point2>,
    tris: Vec<Tri>,
    /// Most recently created triangle: the walk starts here.
    last: u32,
}

impl Triangulator {
    /// Start with a super-triangle enclosing `bbox` generously.
    fn new(bbox: Aabb2, capacity: usize) -> Self {
        let c = bbox.center();
        let r = bbox.longest_side().max(1e-9) * 16.0;
        let pts = vec![
            Point2::new(c.x - 1.8 * r, c.y - r),
            Point2::new(c.x + 1.8 * r, c.y - r),
            Point2::new(c.x, c.y + 1.8 * r),
        ];
        let tris = vec![Tri {
            v: [0, 1, 2],
            nbr: [NONE, NONE, NONE],
            alive: true,
        }];
        let mut t = Triangulator { pts, tris, last: 0 };
        t.pts.reserve(capacity);
        t
    }

    /// Locate a triangle containing `p` by a remembering walk; falls back to
    /// a linear scan on (rare) numerically confusing configurations.
    fn locate(&self, p: Point2) -> u32 {
        let mut cur = self.last;
        if !self.tris[cur as usize].alive {
            cur = self
                .tris
                .iter()
                .rposition(|t| t.alive)
                .expect("no alive triangle") as u32;
        }
        let mut prev = NONE;
        let mut steps = 0usize;
        let max_steps = 4 * self.tris.len() + 64;
        loop {
            let t = self.tris[cur as usize];
            let mut moved = false;
            for i in 0..3 {
                // Edge opposite v[i] runs v[i+1] → v[i+2] (CCW).
                let a = self.pts[t.v[(i + 1) % 3] as usize];
                let b = self.pts[t.v[(i + 2) % 3] as usize];
                if orient2d(a, b, p) < 0.0 {
                    let nxt = t.nbr[i];
                    if nxt != NONE && nxt != prev {
                        prev = cur;
                        cur = nxt;
                        moved = true;
                        break;
                    }
                }
            }
            if !moved {
                return cur;
            }
            steps += 1;
            if steps > max_steps {
                // Degenerate walk; scan for any triangle containing p.
                for (i, t) in self.tris.iter().enumerate() {
                    if t.alive && self.contains(i as u32, p) {
                        return i as u32;
                    }
                }
                return cur;
            }
        }
    }

    fn contains(&self, t: u32, p: Point2) -> bool {
        let tr = self.tris[t as usize];
        (0..3).all(|i| {
            let a = self.pts[tr.v[(i + 1) % 3] as usize];
            let b = self.pts[tr.v[(i + 2) % 3] as usize];
            orient2d(a, b, p) >= -1e-12
        })
    }

    /// Insert `p`, returning its vertex index.
    fn insert(&mut self, p: Point2) -> u32 {
        let pi = self.pts.len() as u32;
        self.pts.push(p);
        let seed = self.locate(p);

        // Grow the cavity: the connected set of triangles whose circumcircle
        // contains p, flooded outward from the seed.
        let mut cavity = Vec::with_capacity(8);
        let mut visited = std::collections::HashSet::with_capacity(16);
        let mut stack = vec![seed];
        visited.insert(seed);
        while let Some(t) = stack.pop() {
            let tr = self.tris[t as usize];
            let bad = in_circle(
                self.pts[tr.v[0] as usize],
                self.pts[tr.v[1] as usize],
                self.pts[tr.v[2] as usize],
                p,
            );
            // The seed triangle is always in the cavity (it contains p) even
            // if the in-circle test is borderline.
            if !bad && t != seed {
                continue;
            }
            cavity.push(t);
            for i in 0..3 {
                let nb = tr.nbr[i];
                if nb != NONE && visited.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        let cavity_set: std::collections::HashSet<u32> = cavity.iter().copied().collect();

        // Boundary edges (a → b CCW as seen from inside the cavity), with
        // the outside neighbour across each.
        let mut boundary: Vec<(u32, u32, u32)> = Vec::with_capacity(cavity.len() + 2);
        for &t in &cavity {
            let tr = self.tris[t as usize];
            for i in 0..3 {
                let nb = tr.nbr[i];
                if nb == NONE || !cavity_set.contains(&nb) {
                    let a = tr.v[(i + 1) % 3];
                    let b = tr.v[(i + 2) % 3];
                    boundary.push((a, b, nb));
                }
            }
        }
        // Retire the cavity.
        for &t in &cavity {
            self.tris[t as usize].alive = false;
        }

        // Fan of new triangles (p, a, b); link neighbours.
        let first_new = self.tris.len() as u32;
        let mut edge_owner: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::with_capacity(boundary.len() * 2);
        for &(a, b, outside) in &boundary {
            let nt = self.tris.len() as u32;
            // CCW: boundary edge a→b is CCW from inside, so (p, a, b) is CCW.
            self.tris.push(Tri {
                v: [pi, a, b],
                nbr: [outside, NONE, NONE],
                alive: true,
            });
            if outside != NONE {
                let o = &mut self.tris[outside as usize];
                for i in 0..3 {
                    let oa = o.v[(i + 1) % 3];
                    let ob = o.v[(i + 2) % 3];
                    if (oa == b && ob == a) || (oa == a && ob == b) {
                        o.nbr[i] = nt;
                    }
                }
            }
            // Stitch new triangles along shared spokes (p, a) and (p, b):
            // the triangle owning spoke endpoint `a` as its v[1] pairs with
            // the one owning `a` as its v[2].
            for (key, slot) in [(a, 2usize), (b, 1usize)] {
                if let Some(&other) = edge_owner.get(&key) {
                    self.tris[nt as usize].nbr[slot] = other;
                    let ot = &mut self.tris[other as usize];
                    // In `other`, the spoke is on the complementary slot.
                    let oslot = if ot.v[1] == key { 2 } else { 1 };
                    ot.nbr[oslot] = nt;
                    edge_owner.remove(&key);
                } else {
                    edge_owner.insert(key, nt);
                }
            }
        }
        self.last = first_new;
        pi
    }
}

/// The directed edges `v[i] → v[i+1]` of the alive triangles in `tris`
/// whose ends are both input points, as input ids (`orig` maps the three
/// super-triangle vertices to `NONE`).
fn mentions<'a>(tris: &'a [Tri], orig: &'a [u32]) -> impl Iterator<Item = (u32, u32)> + 'a {
    tris.iter().filter(|tr| tr.alive).flat_map(move |tr| {
        (0..3).filter_map(move |i| {
            let (oa, oc) = (orig[tr.v[i] as usize], orig[tr.v[(i + 1) % 3] as usize]);
            (oa != NONE && oc != NONE).then_some((oa, oc))
        })
    })
}

/// Delaunay-triangulate an explicit point set; returns the edge graph.
/// Points are inserted in Hilbert order internally but vertex ids in the
/// output match the input order.
pub fn delaunay_of_points(points: &[Point2]) -> Graph {
    let n = points.len();
    if n == 0 {
        return Graph::from_csr(vec![0], Vec::new(), Vec::new(), Vec::new());
    }
    let bbox = Aabb2::from_points(points).unwrap().inflated(0.01 + 1e-9);
    // Hilbert insertion order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    let w = bbox.width().max(1e-12);
    let h = bbox.height().max(1e-12);
    order.sort_by_cached_key(|&i| {
        let p = points[i as usize];
        hilbert_key_unit(16, (p.x - bbox.min.x) / w, (p.y - bbox.min.y) / h)
    });

    let mut t = Triangulator::new(bbox, n);
    // Map triangulator vertex index → original point index.
    let mut orig = vec![NONE; n + 3];
    orig[0] = NONE;
    for &i in &order {
        let vi = t.insert(points[i as usize]);
        if (vi as usize) >= orig.len() {
            orig.resize(vi as usize + 1, NONE);
        }
        orig[vi as usize] = i;
    }

    // Emit the edge graph directly from the triangle soup — builder-free.
    // Every real–real undirected edge is interior to the triangulation of
    // the super-triangle (the hull consists of super-vertex edges only),
    // so it lies in exactly two alive triangles, once per CCW direction:
    // enumerating directed edges (v[i] → v[i+1]) over alive triangles
    // yields each directed adjacency entry exactly once, with no
    // duplicates to merge. Count pass → prefix sum → scatter fill, both
    // passes parallel over triangle chunks (atomic counters commute, and
    // the per-row sort afterwards makes the bytes schedule-independent).
    let tris = &t.tris;
    let chunk = tris.len().div_ceil(4 * pool::width()).max(4096);
    let cursor: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    pool::each(tris.chunks(chunk), |_, tchunk| {
        for (oa, _) in mentions(tchunk, &orig) {
            cursor[oa as usize].fetch_add(1, Ordering::Relaxed);
        }
    });
    let mut xadj = vec![0usize; n + 1];
    for v in 0..n {
        xadj[v + 1] = xadj[v] + cursor[v].load(Ordering::Relaxed) as usize;
    }
    let acc = xadj[n];
    assert!(acc <= u32::MAX as usize, "directed edge count exceeds u32");
    // Reuse the degree counters as scatter cursors, reset to row starts.
    for (v, c) in cursor.iter().enumerate() {
        c.store(xadj[v] as u32, Ordering::Relaxed);
    }
    let slots: Vec<AtomicU32> = (0..acc).map(|_| AtomicU32::new(0)).collect();
    pool::each(tris.chunks(chunk), |_, tchunk| {
        for (oa, oc) in mentions(tchunk, &orig) {
            let at = cursor[oa as usize].fetch_add(1, Ordering::Relaxed);
            slots[at as usize].store(oc, Ordering::Relaxed);
        }
    });
    // Collected in place: `AtomicU32` and `u32` share their layout.
    let mut adjncy: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();
    // Within-row order depends on the host schedule; sort rows ascending
    // (the canonical CSR convention) to make the output deterministic.
    crate::build::sort_rows(&xadj, &mut adjncy);
    Graph::from_csr(xadj, adjncy, vec![1.0; acc], vec![1.0; n])
}

/// Delaunay triangulation of `n` uniformly random points in the unit square
/// (the `delaunay_nXX` analog: `n = 2^XX` in the paper).
pub fn delaunay_graph<R: Rng>(n: usize, rng: &mut R) -> (Graph, Vec<Point2>) {
    let pts: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    (delaunay_of_points(&pts), pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn triangle_of_three_points() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        ];
        let g = delaunay_of_points(&pts);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn square_diagonal_is_delaunay() {
        // Unit square plus centre point: centre connects to all corners.
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.5),
        ];
        let g = delaunay_of_points(&pts);
        assert_eq!(g.degree(4), 4);
        assert_eq!(g.m(), 8); // 4 boundary + 4 spokes
        g.validate().unwrap();
    }

    #[test]
    fn random_delaunay_is_planar_and_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        let (g, pts) = delaunay_graph(2000, &mut rng);
        assert_eq!(g.n(), 2000);
        assert_eq!(pts.len(), 2000);
        g.validate().unwrap();
        assert!(is_connected(&g));
        // Planarity bound m <= 3n - 6; Delaunay of uniform points ~ 3n.
        assert!(g.m() <= 3 * g.n() - 6);
        assert!(g.m() >= 2 * g.n(), "suspiciously sparse: m = {}", g.m());
    }

    #[test]
    fn empty_circle_property_spot_check() {
        // For a moderate point set, verify no 4th point lies inside the
        // circumcircle of any sampled Delaunay triangle. We reconstruct
        // triangles as 3-cliques of the output graph for the check.
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point2> = (0..120)
            .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let g = delaunay_of_points(&pts);
        let mut checked = 0;
        'outer: for v in 0..g.n() as u32 {
            for &u in g.neighbors(v) {
                if u <= v {
                    continue;
                }
                for &w in g.neighbors(u) {
                    if w <= u || !g.neighbors(v).contains(&w) {
                        continue;
                    }
                    // Triangle (v, u, w); orient CCW.
                    let (mut a, mut b, c) = (pts[v as usize], pts[u as usize], pts[w as usize]);
                    if orient2d(a, b, c) < 0.0 {
                        std::mem::swap(&mut a, &mut b);
                    }
                    let inside = (0..pts.len() as u32)
                        .filter(|&x| x != v && x != u && x != w)
                        .filter(|&x| in_circle(a, b, c, pts[x as usize]))
                        .count();
                    // 3-cliques of the Delaunay graph that are not Delaunay
                    // triangles can exist, but the vast majority are faces;
                    // only count clean ones and require we saw plenty.
                    if inside == 0 {
                        checked += 1;
                    }
                    if checked > 150 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(checked > 50, "too few empty-circle triangles: {checked}");
    }

    #[test]
    fn duplicate_free_grid_points_triangulate() {
        // Structured (cocircular-prone) input exercises degeneracy paths.
        let mut pts = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                pts.push(Point2::new(i as f64, j as f64));
            }
        }
        let g = delaunay_of_points(&pts);
        assert_eq!(g.n(), 144);
        assert!(is_connected(&g));
        g.validate().unwrap();
        assert!(g.m() <= 3 * g.n() - 6);
    }
}
