//! Incremental Bowyer–Watson Delaunay triangulation.
//!
//! Four of the paper's nine suite graphs are `delaunay_nXX` (Delaunay
//! triangulations of 2^XX random points), and our hugetrace/hugebubbles
//! analogs are Delaunay meshes of shaped regions, so a real triangulator is
//! a required substrate. Points are inserted in Hilbert order so the
//! walk-based point location starting at the last created triangle is
//! near-O(1) amortised, giving roughly linear total construction time.
//!
//! An insertion allocates and hashes nothing once its buffers are warm:
//! - **Stamps, not sets.** Each triangle slot has a `u32` stamp. Every
//!   insertion takes a fresh `epoch`. A slot the cavity flood has seen reads
//!   `epoch`, and one in the cavity reads `epoch | CAV`, so "seen" and "in
//!   the cavity" are one load and one compare each.
//! - **Scratch that lives in the triangulator.** The cavity, flood stack,
//!   boundary and spoke buffers are fields, cleared by each insertion. The
//!   spokes of a fan pair up through a linear scan of a handful of entries.
//! - **Recycled slots.** Retired cavity triangles go on a free list, and the
//!   next fan pops from it before the store grows. A cavity of `k`
//!   triangles has `k + 2` boundary edges, so each insertion adds exactly
//!   two slots: after `n` points the store holds `2n + 1` triangles, all
//!   live.
//!
//! **Why the bytes cannot move.** Slot numbers are the only thing the free
//! list changes. The flood pushes neighbours in `nbr` order, the boundary is
//! read in cavity order, each fan triangle is `(p, a, b)` for boundary edge
//! `a → b`, and the walk restarts from the fan triangle of the first
//! boundary edge. None of these look at a slot's number, so every
//! `orient2d`/`in_circle` call gets the same operands in the same order,
//! and the edge emission sorts each row. The walk's step bound shrinks
//! with the store, but it stays above the walk's state count (a live
//! triangle and the neighbour it was entered from), so a walk that reaches
//! it is cycling under either store.
//!
//! The one place where slot order could matter is that cycling walk's
//! fallback: it returns the first live slot that contains the point. It
//! does not run on the point sets the generator fingerprints and
//! `tests/gen_golden.rs` pin.

use crate::csr::Graph;
use rand::Rng;
use sp_geometry::{hilbert_key_unit, Aabb2, Point2};
use sp_machine::pool;
use std::sync::atomic::{AtomicU32, Ordering};

const NONE: u32 = u32::MAX;

/// Stamp bit: the slot is in the current insertion's cavity. The epoch
/// counts in the bits below it.
const CAV: u32 = 1 << 31;

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
    /// Per-slot stamp: `epoch` once this insertion's flood has seen the
    /// slot, `epoch | CAV` once it is in the cavity.
    stamp: Vec<u32>,
    epoch: u32,
    /// Retired slots, reused before the store grows.
    free: Vec<u32>,
    /// Scratch of one insertion: the cavity is cleared at its start, and
    /// the flood stack ends every insertion empty.
    cavity: Vec<u32>,
    stack: Vec<u32>,
    /// Boundary edges `(a, b, outside)`.
    boundary: Vec<(u32, u32, u32)>,
    /// Fan triangles whose spoke to this vertex is still unpaired.
    spokes: Vec<(u32, u32)>,
}

impl Triangulator {
    /// Start with a super-triangle enclosing `bbox` generously, with room
    /// for `capacity` points and their `2 · capacity + 1` triangles.
    fn new(bbox: Aabb2, capacity: usize) -> Self {
        let c = bbox.center();
        let r = bbox.longest_side().max(1e-9) * 16.0;
        let mut pts = Vec::with_capacity(capacity + 3);
        pts.extend([
            Point2::new(c.x - 1.8 * r, c.y - r),
            Point2::new(c.x + 1.8 * r, c.y - r),
            Point2::new(c.x, c.y + 1.8 * r),
        ]);
        let mut tris = Vec::with_capacity(2 * capacity + 1);
        tris.push(Tri {
            v: [0, 1, 2],
            nbr: [NONE, NONE, NONE],
            alive: true,
        });
        let mut stamp = Vec::with_capacity(tris.capacity());
        stamp.push(0);
        Triangulator {
            pts,
            tris,
            last: 0,
            stamp,
            epoch: 0,
            free: Vec::new(),
            cavity: Vec::new(),
            stack: Vec::new(),
            boundary: Vec::new(),
            spokes: Vec::new(),
        }
    }

    /// Locate a triangle containing `p` by a remembering walk; falls back to
    /// a linear scan on (rare) numerically confusing configurations.
    fn locate(&self, p: Point2) -> u32 {
        let mut cur = self.last;
        // Nothing retires a triangle between two insertions.
        debug_assert!(self.tris[cur as usize].alive, "walk starts on a dead slot");
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
                // Degenerate walk; scan for any triangle containing p. The
                // one place where slot order could pick a different
                // triangle (see the module doc).
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

    /// A fresh epoch for the next flood; on wrap-around every stamp is
    /// cleared so that no old stamp can read as current.
    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        if self.epoch == CAV {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Insert `p`, returning its vertex index.
    fn insert(&mut self, p: Point2) -> u32 {
        let pi = self.pts.len() as u32;
        self.pts.push(p);
        let seed = self.locate(p);
        let epoch = self.next_epoch();

        // Grow the cavity: the connected set of triangles whose circumcircle
        // contains p, flooded outward from the seed.
        self.cavity.clear();
        self.stack.push(seed);
        self.stamp[seed as usize] = epoch;
        while let Some(t) = self.stack.pop() {
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
            self.stamp[t as usize] = epoch | CAV;
            self.cavity.push(t);
            for nb in tr.nbr {
                if nb != NONE && self.stamp[nb as usize] & !CAV != epoch {
                    self.stamp[nb as usize] = epoch;
                    self.stack.push(nb);
                }
            }
        }

        // Boundary edges (a → b CCW as seen from inside the cavity), with
        // the outside neighbour across each.
        self.boundary.clear();
        for &t in &self.cavity {
            let tr = self.tris[t as usize];
            for i in 0..3 {
                let nb = tr.nbr[i];
                if nb == NONE || self.stamp[nb as usize] != epoch | CAV {
                    let a = tr.v[(i + 1) % 3];
                    let b = tr.v[(i + 2) % 3];
                    self.boundary.push((a, b, nb));
                }
            }
        }
        // Retire the cavity.
        for &t in &self.cavity {
            self.tris[t as usize].alive = false;
        }
        self.free.extend_from_slice(&self.cavity);

        // Fan of new triangles (p, a, b) in recycled slots first; link
        // neighbours.
        self.spokes.clear();
        let mut first = NONE;
        for &(a, b, outside) in &self.boundary {
            // CCW: boundary edge a→b is CCW from inside, so (p, a, b) is CCW.
            let tri = Tri {
                v: [pi, a, b],
                nbr: [outside, NONE, NONE],
                alive: true,
            };
            let nt = match self.free.pop() {
                Some(slot) => {
                    self.tris[slot as usize] = tri;
                    slot
                }
                None => {
                    self.tris.push(tri);
                    self.stamp.push(0);
                    (self.tris.len() - 1) as u32
                }
            };
            if first == NONE {
                first = nt;
            }
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
                if let Some(at) = self.spokes.iter().position(|&(v, _)| v == key) {
                    let (_, other) = self.spokes.swap_remove(at);
                    self.tris[nt as usize].nbr[slot] = other;
                    let ot = &mut self.tris[other as usize];
                    // In `other`, the spoke is on the complementary slot.
                    let oslot = if ot.v[1] == key { 2 } else { 1 };
                    ot.nbr[oslot] = nt;
                } else {
                    self.spokes.push((key, nt));
                }
            }
        }
        self.last = first;
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

/// Triangulate `points` in Hilbert order. Returns the triangulator and the
/// map from its vertex ids to input ids (`NONE` for the three
/// super-triangle vertices).
fn triangulate(points: &[Point2]) -> (Triangulator, Vec<u32>) {
    let n = points.len();
    let bbox = Aabb2::from_points(points).unwrap().inflated(0.01 + 1e-9);
    // Hilbert insertion order, ties by input index. An order-16 key has 32
    // bits, so key and index pack into one `u64` and one unstable sort of
    // the packed words gives that order. The keys are computed in parallel
    // over chunks of the input.
    let w = bbox.width().max(1e-12);
    let h = bbox.height().max(1e-12);
    let mut order = vec![0u64; n];
    let chunk = n.div_ceil(4 * pool::width()).max(4096);
    pool::each(order.chunks_mut(chunk), |c, keys| {
        for (i, key) in (c * chunk..).zip(keys) {
            let p = points[i];
            let d = hilbert_key_unit(16, (p.x - bbox.min.x) / w, (p.y - bbox.min.y) / h);
            *key = d << 32 | i as u64;
        }
    });
    order.sort_unstable();

    let mut t = Triangulator::new(bbox, n);
    let mut orig = vec![NONE; n + 3];
    for packed in order {
        let i = packed as u32;
        let vi = t.insert(points[i as usize]);
        orig[vi as usize] = i;
    }
    (t, orig)
}

/// Delaunay-triangulate an explicit point set; returns the edge graph.
/// Points are inserted in Hilbert order internally but vertex ids in the
/// output match the input order.
pub fn delaunay_of_points(points: &[Point2]) -> Graph {
    let n = points.len();
    if n == 0 {
        return Graph::from_csr(vec![0], Vec::new(), Vec::new(), Vec::new());
    }
    // Only the triangles outlive this statement: the points and the
    // insertion scratch are freed before the CSR arrays are allocated.
    let (Triangulator { tris, .. }, orig) = triangulate(points);

    // Emit the edge graph directly from the triangle soup — builder-free.
    // Every real–real undirected edge is interior to the triangulation of
    // the super-triangle (the hull consists of super-vertex edges only),
    // so it lies in exactly two alive triangles, once per CCW direction:
    // enumerating directed edges (v[i] → v[i+1]) over alive triangles
    // yields each directed adjacency entry exactly once, with no
    // duplicates to merge. Count pass → prefix sum → scatter fill, both
    // passes parallel over triangle chunks (atomic counters commute, and
    // the per-row sort afterwards makes the bytes schedule-independent).
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
    // The triangles are freed before the weight arrays are allocated.
    drop(tris);
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

    /// Triangulate `points` and check the store: every live triangle is
    /// counter-clockwise (strictly when `strict`), every neighbour link is
    /// mutual across the same edge, and `n` insertions leave at most
    /// `2n + 1` slots.
    fn assert_store_invariants(points: &[Point2], strict: bool) {
        let (t, _) = triangulate(points);
        let n = points.len();
        assert!(
            t.tris.len() <= 2 * n + 1,
            "{} slots for {n} points",
            t.tris.len()
        );
        for (i, tr) in t.tris.iter().enumerate().filter(|(_, tr)| tr.alive) {
            let [a, b, c] = tr.v.map(|v| t.pts[v as usize]);
            let area = orient2d(a, b, c);
            assert!(
                area > 0.0 || (!strict && area == 0.0),
                "slot {i}: orient2d {area}"
            );
            for k in 0..3 {
                let nb = tr.nbr[k];
                if nb == NONE {
                    continue;
                }
                let other = t.tris[nb as usize];
                assert!(other.alive, "slot {i} links to dead slot {nb}");
                let back = (0..3)
                    .find(|&j| other.nbr[j] == i as u32)
                    .unwrap_or_else(|| panic!("slot {i} -> {nb} is one-way"));
                assert_eq!(
                    (other.v[(back + 1) % 3], other.v[(back + 2) % 3]),
                    (tr.v[(k + 2) % 3], tr.v[(k + 1) % 3]),
                    "slots {i} and {nb} disagree on their shared edge"
                );
            }
        }
    }

    #[test]
    fn store_is_ccw_mutual_and_recycled() {
        let mut rng = StdRng::seed_from_u64(17);
        let random: Vec<Point2> = (0..3000)
            .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        assert_store_invariants(&random, true);
        let grid: Vec<Point2> = (0..40 * 40)
            .map(|i| Point2::new((i % 40) as f64, (i / 40) as f64))
            .collect();
        assert_store_invariants(&grid, true);
        // Every point twice: each second copy lands on a vertex, and its
        // fan has zero-area triangles.
        let twice: Vec<Point2> = random[..500]
            .iter()
            .chain(&random[..500])
            .copied()
            .collect();
        assert_store_invariants(&twice, false);
    }

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
