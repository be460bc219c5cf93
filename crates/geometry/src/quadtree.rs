//! A flat Barnes–Hut quadtree over weighted planar points.
//!
//! The sequential force-directed embedder (Hu 2006 style) approximates the
//! O(n²) repulsive force sum in O(n log n) by treating distant clusters as
//! single bodies at their centre of mass. The fixed-lattice scheme in the
//! paper is explicitly described as "a fixed lattice Barnes–Hut type
//! approximation", so this tree is both the sequential baseline and the
//! reference for the lattice-approximation ablation.
//!
//! Nodes and bodies are stored in the order a query walks them (children
//! 3, 2, 1, 0; bodies of a leaf by ascending index), so a query is one
//! forward scan that either steps to the next node or jumps past a
//! subtree. A layout rebuilds the same tree every iteration with
//! [`QuadTree::rebuild`], which reuses the arrays.

use crate::bbox::Aabb2;
use crate::point::Point2;

const LEAF_CAPACITY: usize = 8;
const MAX_DEPTH: usize = 48;

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Centre of mass of the bodies below this node.
    com: Point2,
    /// Total mass of the bodies below this node.
    mass: f64,
    /// Longest side of the node's box: the opening test's numerator.
    side: f64,
    /// `side²·(1 ± BAND)`, see [`Node::far_enough`]; NaN where the filter
    /// must not decide.
    far: f64,
    near: f64,
    /// Index of the first node after this node's subtree.
    next: u32,
    /// A leaf's bodies are `bodies[first_body..end_body]`.
    first_body: u32,
    end_body: u32,
    leaf: bool,
}

/// Relative half-width of the band around `dist²·θ² = side²` inside which
/// the opening test is evaluated as written.
const BAND: f64 = 1e-9;

impl Node {
    /// The bounds the sqrt-free filter compares `dist²·θ²` against: off
    /// (NaN) for a side whose square could leave the normal range, and for
    /// the negative or NaN side of a box that overflowed.
    fn filter_bounds(side: f64) -> (f64, f64) {
        if (1e-140..=1e140).contains(&side) {
            let side_sq = side * side;
            (side_sq * (1.0 + BAND), side_sq * (1.0 - BAND))
        } else {
            (f64::NAN, f64::NAN)
        }
    }

    /// The opening test `d > 0 && side / d < theta` for `d = √dist_sq`,
    /// decided without the square root and the division wherever that is
    /// safe. `theta_sq` is [`theta_squared`] of `theta`.
    ///
    /// Why the two shortcuts decide as the expression does. Write `u` for
    /// 2⁻⁵³. Every product below is a normal number or the filter is off
    /// (`far`, `near` or `theta_sq` is NaN and both comparisons fail), so
    /// each carries a relative error of at most `u`: `far` and `near` are
    /// `side²·(1 ± 1e-9)` to within `(1 ± u)³`, `theta_sq` is `θ²·(1 ± u)`,
    /// and `scaled`, where it is normal, is `dist_sq·theta_sq·(1 ± u)`.
    /// * `scaled > far`: `far ≥ 1e-280·(1 − 2e-9)`, so `scaled` is normal
    ///   or infinite and `dist_sq > 0`, hence `d > 0`. Collecting the
    ///   errors, `dist_sq·θ² > side²·(1 + 1e-9)(1 − u)⁶` (a `scaled` that
    ///   overflowed only has a larger left side), so
    ///   `√dist_sq·θ > side·(1 + 4e-10)`. `d` is `√dist_sq·(1 ± u)`, so the
    ///   real quotient `side / d` lies below `θ·(1 − 3e-10)`, which is
    ///   below the float just under `θ`; rounding is monotone, so the
    ///   computed quotient is `< θ`. An infinite `dist_sq` gives `d = ∞`
    ///   and a quotient of 0, also `< θ` (`θ ≥ 1e-3`).
    /// * `scaled < near`: if `scaled` is normal, the same sums give
    ///   `√dist_sq·θ < side·(1 − 4e-10)`; if it is subnormal or zero,
    ///   `dist_sq·θ² < 2.3e-308`, far below `side² ≥ 1e-280·(1 − u)`.
    ///   Either `dist_sq = 0` and `d > 0` fails, or the real quotient lies
    ///   above `θ·(1 + 3e-10)`, so the computed one is `> θ` (or `∞`).
    /// * A NaN `dist_sq` fails both comparisons and is left to the
    ///   expression itself, like everything inside the band.
    #[inline]
    fn far_enough(&self, dist_sq: f64, theta: f64, theta_sq: f64) -> bool {
        let scaled = dist_sq * theta_sq;
        if scaled > self.far {
            return true;
        }
        if scaled < self.near {
            return false;
        }
        let d = dist_sq.sqrt();
        d > 0.0 && self.side / d < theta
    }
}

/// `θ²` for [`Node::far_enough`], or NaN — which turns its filter off —
/// for a `θ` whose square could leave the normal range, or is not
/// positive.
fn theta_squared(theta: f64) -> f64 {
    if (1e-3..=1e3).contains(&theta) {
        theta * theta
    } else {
        f64::NAN
    }
}

#[derive(Clone, Copy, Debug)]
struct Body {
    point: Point2,
    mass: f64,
    index: u32,
}

/// What [`QuadTree::subtree`] needs to know about a node before it is
/// stored: its bodies are `bodies[lo..hi]`, and `mass` / `weighted` are
/// `Σ m` and `Σ p·m` over them in ascending body index.
#[derive(Clone, Copy, Default)]
struct Span {
    lo: usize,
    hi: usize,
    mass: f64,
    weighted: Point2,
}

/// Barnes–Hut quadtree over a fixed set of weighted points.
///
/// Only nodes a query can reach are stored: a subtree whose mass is `≤ 0`
/// (an empty quadrant, or bodies of zero mass) is never visited or opened,
/// so it is left out when the tree is built.
#[derive(Default)]
pub struct QuadTree {
    nodes: Vec<Node>,
    bodies: Vec<Body>,
    /// The other half of the stable partition in [`QuadTree::subtree`].
    scratch: Vec<Body>,
    total_mass: f64,
}

impl QuadTree {
    /// Build a tree over `points` with the given per-point `masses`
    /// (pass `None` for unit masses).
    pub fn build(points: &[Point2], masses: Option<&[f64]>) -> Self {
        let mut tree = QuadTree::default();
        tree.rebuild(points, masses);
        tree
    }

    /// Replace this tree with the one [`QuadTree::build`] returns for the
    /// same arguments, keeping the allocations.
    pub fn rebuild(&mut self, points: &[Point2], masses: Option<&[f64]>) {
        if let Some(m) = masses {
            assert_eq!(m.len(), points.len());
        }
        assert!(u32::try_from(points.len()).is_ok(), "body indices are u32");
        self.nodes.clear();
        self.bodies.clear();
        let mut root = Span {
            hi: points.len(),
            ..Span::default()
        };
        for (i, &point) in points.iter().enumerate() {
            let mass = masses.map_or(1.0, |m| m[i]);
            root.mass += mass;
            root.weighted += point * mass;
            self.bodies.push(Body {
                point,
                mass,
                index: i as u32,
            });
        }
        self.scratch.clone_from(&self.bodies);
        self.total_mass = root.mass;
        if root.mass <= 0.0 {
            return;
        }
        let bbox = Aabb2::from_points(points)
            .unwrap_or_else(Aabb2::unit)
            .inflated(1e-9 + 1e-12);
        self.subtree(root, bbox, 0);
    }

    /// Store the node over `span` and, behind it, its subtree. A node with
    /// more than `LEAF_CAPACITY` bodies splits (down to `MAX_DEPTH`): its
    /// bodies are partitioned stably into quadrants 3, 2, 1, 0, which puts
    /// `bodies` in walk order and keeps every range in ascending index, so
    /// each child's sums add up in the order an insertion one body at a
    /// time would have added them.
    fn subtree(&mut self, span: Span, bbox: Aabb2, depth: usize) {
        let Span { lo, hi, mass, .. } = span;
        let at = self.nodes.len();
        let leaf = hi - lo <= LEAF_CAPACITY || depth >= MAX_DEPTH;
        let side = bbox.longest_side();
        let (far, near) = Node::filter_bounds(side);
        self.nodes.push(Node {
            com: if mass > 0.0 {
                span.weighted / mass
            } else {
                span.weighted
            },
            mass,
            side,
            far,
            near,
            next: 0,
            first_body: lo as u32,
            end_body: hi as u32,
            leaf,
        });
        if !leaf {
            let c = bbox.center();
            let quadrant = |p: Point2| usize::from(p.x >= c.x) + 2 * usize::from(p.y >= c.y);
            let mut quads = [Span::default(); 4];
            let mut count = [0usize; 4];
            for b in &self.bodies[lo..hi] {
                let q = quadrant(b.point);
                count[q] += 1;
                quads[q].mass += b.mass;
                quads[q].weighted += b.point * b.mass;
            }
            let mut start = lo;
            for q in (0..4).rev() {
                quads[q].lo = start;
                quads[q].hi = start;
                start += count[q];
            }
            for b in &self.bodies[lo..hi] {
                let q = &mut quads[quadrant(b.point)];
                self.scratch[q.hi] = *b;
                q.hi += 1;
            }
            self.bodies[lo..hi].copy_from_slice(&self.scratch[lo..hi]);
            let boxes = [
                Aabb2::new(bbox.min, c),
                Aabb2::new(Point2::new(c.x, bbox.min.y), Point2::new(bbox.max.x, c.y)),
                Aabb2::new(Point2::new(bbox.min.x, c.y), Point2::new(c.x, bbox.max.y)),
                Aabb2::new(c, bbox.max),
            ];
            for q in (0..4).rev() {
                if quads[q].mass <= 0.0 {
                    continue;
                }
                self.subtree(quads[q], boxes[q], depth + 1);
            }
        }
        self.nodes[at].next = self.nodes.len() as u32;
    }

    /// Total mass in the tree.
    pub fn total_mass(&self) -> f64 {
        self.total_mass
    }

    /// Visit approximated bodies for a query point: clusters whose opening
    /// ratio `side / dist` is below `theta` are reported once as
    /// `(centre_of_mass, mass)`; near clusters are opened, and individual
    /// bodies (excluding `skip`) are reported exactly.
    ///
    /// Returns the number of interactions visited (for cost accounting).
    pub fn for_each_approx<F: FnMut(Point2, f64)>(
        &self,
        query: Point2,
        skip: Option<u32>,
        theta: f64,
        mut visit: F,
    ) -> usize {
        let mut count = 0;
        let mut i = 0;
        let theta_sq = theta_squared(theta);
        while let Some(node) = self.nodes.get(i) {
            i += 1;
            if node.leaf {
                for b in &self.bodies[node.first_body as usize..node.end_body as usize] {
                    if Some(b.index) == skip {
                        continue;
                    }
                    visit(b.point, b.mass);
                    count += 1;
                }
                continue;
            }
            // `query.dist(node.com)` is the square root of exactly this.
            let dist_sq = (query - node.com).norm_sq();
            if node.far_enough(dist_sq, theta, theta_sq) {
                visit(node.com, node.mass);
                count += 1;
                i = node.next as usize;
            }
        }
        count
    }

    /// Indices of the bodies at positions `range` of the order a query
    /// walks them in — every body once over `0..n`, neighbours in the
    /// plane next to each other. Queries issued in this order open much
    /// the same nodes one after the other.
    pub fn walk_order(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = u32> + '_ {
        self.bodies[range].iter().map(|b| b.index)
    }

    /// Number of stored nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// The tree this module had before the flat one: bodies inserted one at a
/// time into an arena of nodes that each own a `Vec` of bodies, queries
/// walked with a stack. Kept as the reference the flat tree's visit
/// sequence is compared against, bit for bit.
#[cfg(test)]
mod reference {
    use super::{Aabb2, Point2, LEAF_CAPACITY, MAX_DEPTH};

    #[derive(Clone, Debug)]
    struct Node {
        bbox: Aabb2,
        /// Total mass of bodies below this node.
        mass: f64,
        /// Centre of mass of bodies below this node.
        com: Point2,
        /// Index of the first of four children in the arena, or `u32::MAX`.
        children: u32,
        /// Body indices for leaves.
        bodies: Vec<u32>,
    }

    pub struct ArenaTree {
        nodes: Vec<Node>,
        points: Vec<Point2>,
        masses: Vec<f64>,
    }

    impl ArenaTree {
        /// Build a tree over `points` with the given per-point `masses`
        /// (pass `None` for unit masses).
        pub fn build(points: &[Point2], masses: Option<&[f64]>) -> Self {
            let masses: Vec<f64> = match masses {
                Some(m) => {
                    assert_eq!(m.len(), points.len());
                    m.to_vec()
                }
                None => vec![1.0; points.len()],
            };
            let bbox = Aabb2::from_points(points)
                .unwrap_or_else(Aabb2::unit)
                .inflated(1e-9 + 1e-12);
            let mut tree = ArenaTree {
                nodes: vec![Node {
                    bbox,
                    mass: 0.0,
                    com: Point2::ZERO,
                    children: u32::MAX,
                    bodies: Vec::new(),
                }],
                points: points.to_vec(),
                masses,
            };
            for i in 0..points.len() {
                tree.insert(0, i as u32, 0);
            }
            tree.finalize(0);
            tree
        }

        fn insert(&mut self, node: usize, body: u32, depth: usize) {
            let p = self.points[body as usize];
            let m = self.masses[body as usize];
            self.nodes[node].mass += m;
            self.nodes[node].com += p * m;
            if self.nodes[node].children == u32::MAX {
                if self.nodes[node].bodies.len() < LEAF_CAPACITY || depth >= MAX_DEPTH {
                    self.nodes[node].bodies.push(body);
                    return;
                }
                // Split: push four children and re-insert resident bodies.
                let bb = self.nodes[node].bbox;
                let first = self.nodes.len() as u32;
                self.nodes[node].children = first;
                let c = bb.center();
                let quads = [
                    Aabb2::new(bb.min, c),
                    Aabb2::new(Point2::new(c.x, bb.min.y), Point2::new(bb.max.x, c.y)),
                    Aabb2::new(Point2::new(bb.min.x, c.y), Point2::new(c.x, bb.max.y)),
                    Aabb2::new(c, bb.max),
                ];
                for q in quads {
                    self.nodes.push(Node {
                        bbox: q,
                        mass: 0.0,
                        com: Point2::ZERO,
                        children: u32::MAX,
                        bodies: Vec::new(),
                    });
                }
                let resident = std::mem::take(&mut self.nodes[node].bodies);
                for b in resident {
                    let q = self.quadrant(node, self.points[b as usize]);
                    self.insert_into_child(first, q, b, depth + 1);
                }
            }
            let first = self.nodes[node].children;
            let q = self.quadrant(node, p);
            self.insert_into_child(first, q, body, depth + 1);
        }

        fn insert_into_child(&mut self, first: u32, quad: usize, body: u32, depth: usize) {
            self.insert(first as usize + quad, body, depth);
        }

        fn quadrant(&self, node: usize, p: Point2) -> usize {
            let c = self.nodes[node].bbox.center();
            usize::from(p.x >= c.x) + 2 * usize::from(p.y >= c.y)
        }

        fn finalize(&mut self, node: usize) {
            // Convert mass-weighted sums into centres of mass (iterative to
            // avoid recursion-depth issues on adversarial inputs).
            let mut stack = vec![node];
            while let Some(i) = stack.pop() {
                if self.nodes[i].mass > 0.0 {
                    self.nodes[i].com = self.nodes[i].com / self.nodes[i].mass;
                }
                if self.nodes[i].children != u32::MAX {
                    let f = self.nodes[i].children as usize;
                    stack.extend([f, f + 1, f + 2, f + 3]);
                }
            }
        }

        /// Total mass in the tree.
        pub fn total_mass(&self) -> f64 {
            self.nodes[0].mass
        }

        /// Visit approximated bodies for a query point: clusters whose opening
        /// ratio `side / dist` is below `theta` are reported once as
        /// `(centre_of_mass, mass)`; near clusters are opened, and individual
        /// bodies (excluding `skip`) are reported exactly.
        ///
        /// Returns the number of interactions visited (for cost accounting).
        pub fn for_each_approx<F: FnMut(Point2, f64)>(
            &self,
            query: Point2,
            skip: Option<u32>,
            theta: f64,
            mut visit: F,
        ) -> usize {
            let mut count = 0;
            let mut stack = vec![0usize];
            while let Some(i) = stack.pop() {
                let node = &self.nodes[i];
                if node.mass <= 0.0 {
                    continue;
                }
                let d = query.dist(node.com);
                let side = node.bbox.longest_side();
                if node.children == u32::MAX {
                    for &b in &node.bodies {
                        if Some(b) == skip {
                            continue;
                        }
                        visit(self.points[b as usize], self.masses[b as usize]);
                        count += 1;
                    }
                } else if d > 0.0 && side / d < theta {
                    visit(node.com, node.mass);
                    count += 1;
                } else {
                    let f = node.children as usize;
                    stack.extend([f, f + 1, f + 2, f + 3]);
                }
            }
            count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ArenaTree;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect()
    }

    #[test]
    fn mass_is_conserved() {
        let pts = cloud(500, 1);
        let masses: Vec<f64> = (0..500).map(|i| 1.0 + (i % 7) as f64).collect();
        let t = QuadTree::build(&pts, Some(&masses));
        let want: f64 = masses.iter().sum();
        assert!((t.total_mass() - want).abs() < 1e-9);
    }

    #[test]
    fn theta_zero_visits_every_body() {
        let pts = cloud(200, 2);
        let t = QuadTree::build(&pts, None);
        let mut m = 0.0;
        let n = t.for_each_approx(Point2::new(0.5, 0.5), None, 0.0, |_, mass| m += mass);
        assert_eq!(n, 200);
        assert!((m - 200.0).abs() < 1e-9);
    }

    #[test]
    fn skip_excludes_the_query_body() {
        let pts = cloud(64, 3);
        let t = QuadTree::build(&pts, None);
        let mut m = 0.0;
        t.for_each_approx(pts[10], Some(10), 0.0, |_, mass| m += mass);
        assert!((m - 63.0).abs() < 1e-9);
    }

    #[test]
    fn approximation_conserves_visited_mass() {
        // With any theta, the sum of visited masses equals the total mass
        // when nothing is skipped (approximated clusters report full mass).
        let pts = cloud(1000, 4);
        let t = QuadTree::build(&pts, None);
        for theta in [0.3, 0.7, 1.2] {
            let mut m = 0.0;
            let visited =
                t.for_each_approx(Point2::new(0.1, 0.9), None, theta, |_, mass| m += mass);
            assert!((m - 1000.0).abs() < 1e-9, "theta {theta}: mass {m}");
            assert!(visited <= 1000);
        }
    }

    #[test]
    fn larger_theta_visits_fewer_interactions() {
        let pts = cloud(2000, 5);
        let t = QuadTree::build(&pts, None);
        let exact = t.for_each_approx(Point2::new(0.5, 0.5), None, 0.0, |_, _| {});
        let approx = t.for_each_approx(Point2::new(0.5, 0.5), None, 1.0, |_, _| {});
        assert!(approx < exact / 4, "approx {approx} vs exact {exact}");
    }

    #[test]
    fn duplicate_points_do_not_overflow_depth() {
        let pts = vec![Point2::new(0.25, 0.25); 100];
        let t = QuadTree::build(&pts, None);
        assert!((t.total_mass() - 100.0).abs() < 1e-9);
        let mut cnt = 0;
        t.for_each_approx(Point2::new(0.75, 0.75), None, 0.0, |_, _| cnt += 1);
        assert_eq!(cnt, 100);
    }

    #[test]
    fn approx_force_matches_exact_within_tolerance() {
        // Compare an inverse-distance "force" computed exactly and with
        // theta = 0.5; they should agree to a few percent.
        let pts = cloud(1500, 6);
        let t = QuadTree::build(&pts, None);
        let q = Point2::new(-0.5, -0.5); // outside the cloud: smooth field
        let force = |theta: f64| {
            let mut f = Point2::ZERO;
            t.for_each_approx(q, None, theta, |p, m| {
                let d = q - p;
                let n = d.norm().max(1e-9);
                f += d / n * (m / n);
            });
            f
        };
        let exact = force(0.0);
        let approx = force(0.5);
        assert!(exact.dist(approx) / exact.norm() < 0.03);
    }

    /// The `(point bits, mass bits)` of every visit, in order, and the
    /// returned count.
    type Visits = (Vec<[u64; 3]>, usize);

    fn record(walk: impl FnOnce(&mut dyn FnMut(Point2, f64)) -> usize) -> Visits {
        let mut seen = Vec::new();
        let count = walk(&mut |p, m| seen.push([p.x.to_bits(), p.y.to_bits(), m.to_bits()]));
        (seen, count)
    }

    /// Every query the differential makes of one tree pair: θ ∈ {0, 0.5,
    /// 1.1}, from points of the cloud (with and without `skip`) and from
    /// outside it.
    fn assert_same_visits(flat: &QuadTree, arena: &ArenaTree, pts: &[Point2], what: &str) {
        assert_eq!(
            flat.total_mass().to_bits(),
            arena.total_mass().to_bits(),
            "{what}"
        );
        let stride = (pts.len() / 40).max(1);
        let mut queries: Vec<(Point2, Option<u32>)> =
            vec![(Point2::new(-3.0, 7.5), None), (Point2::ZERO, None)];
        for (i, &p) in pts.iter().enumerate().step_by(stride) {
            queries.push((p, Some(i as u32)));
            queries.push((p, None));
        }
        for theta in [0.0, 0.5, 1.1] {
            for &(q, skip) in &queries {
                let got = record(|v| flat.for_each_approx(q, skip, theta, v));
                let want = record(|v| arena.for_each_approx(q, skip, theta, v));
                assert_eq!(got.1, want.1, "{what}: count, θ {theta}, {q:?}, {skip:?}");
                assert_eq!(got.0, want.0, "{what}: visits, θ {theta}, {q:?}, {skip:?}");
                assert_eq!(got.0.len(), got.1, "{what}: count is the visits made");
            }
        }
    }

    #[test]
    fn opening_filter_decides_as_the_expression_does() {
        let exact = |side: f64, dist_sq: f64, theta: f64| {
            let d = dist_sq.sqrt();
            d > 0.0 && side / d < theta
        };
        let sides = [
            0.0,
            1e-141,
            1e-140,
            3.7e-5,
            1.0,
            12345.678,
            1e140,
            1e141,
            -1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let thetas = [
            1e-3,
            0.5,
            0.85,
            1.1,
            1e3,
            9e-4,
            1.1e3,
            0.0,
            -1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut shortcuts = 0;
        for side in sides {
            let (far, near) = Node::filter_bounds(side);
            let node = Node {
                com: Point2::ZERO,
                mass: 1.0,
                side,
                far,
                near,
                next: 0,
                first_body: 0,
                end_body: 0,
                leaf: false,
            };
            for theta in thetas {
                let theta_sq = theta_squared(theta);
                // Across the band around dist²·θ² = side², a few ulps
                // either side of each step, and the ends of the range.
                let boundary = (side / theta) * (side / theta);
                let mut queries = vec![
                    0.0,
                    5e-324,
                    f64::MIN_POSITIVE,
                    1e-300,
                    1e300,
                    f64::MAX,
                    f64::INFINITY,
                    f64::NAN,
                ];
                for step in -12i32..=12 {
                    let q = boundary * (1.0 + f64::from(step) * BAND / 4.0);
                    if q.is_finite() && q > 0.0 {
                        queries
                            .extend((0..7u64).map(|ulps| f64::from_bits(q.to_bits() - 3 + ulps)));
                    }
                }
                for dist_sq in queries {
                    assert_eq!(
                        node.far_enough(dist_sq, theta, theta_sq),
                        exact(side, dist_sq, theta),
                        "side {side:e} θ {theta:e} dist² {dist_sq:e}"
                    );
                    let scaled = dist_sq * theta_sq;
                    shortcuts += usize::from(scaled > far || scaled < near);
                }
            }
        }
        assert!(
            shortcuts > 1000,
            "the filter decided only {shortcuts} cases"
        );
    }

    /// Clumps of near-duplicates a few ulps apart: splitting them runs
    /// into `MAX_DEPTH`, so leaves hold more than `LEAF_CAPACITY` bodies.
    fn clumped(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centres = cloud(5, seed ^ 0xC1);
        (0..n)
            .map(|i| {
                let c = centres[i % centres.len()];
                let ulps = rng.random_range(0..3u64);
                Point2::new(f64::from_bits(c.x.to_bits() + ulps), c.y)
            })
            .collect()
    }

    #[test]
    fn flat_tree_visits_exactly_what_the_arena_tree_visited() {
        for n in [0usize, 1, 8, 9, 4096] {
            for (kind, pts) in [("cloud", cloud(n, 11)), ("clumped", clumped(n, 12))] {
                let mut rng = StdRng::seed_from_u64(13 + n as u64);
                let weights: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..4.0)).collect();
                // A third of the bodies weigh nothing; in the clumps that
                // leaves whole subtrees without mass.
                let holes: Vec<f64> = (0..n)
                    .map(|i| if i % 3 == 0 { 0.0 } else { weights[i] })
                    .collect();
                let none = vec![0.0; n];
                for (m_kind, masses) in [
                    ("unit", None),
                    ("weighted", Some(&weights)),
                    ("zero-mass bodies", Some(&holes)),
                    ("no mass at all", Some(&none)),
                ] {
                    let masses = masses.map(|m| m.as_slice());
                    let what = format!("{kind} n={n} {m_kind}");
                    let flat = QuadTree::build(&pts, masses);
                    let arena = ArenaTree::build(&pts, masses);
                    assert_same_visits(&flat, &arena, &pts, &what);
                }
            }
        }
    }

    #[test]
    fn rebuild_into_a_used_tree_equals_a_fresh_build() {
        // Larger then smaller, so stale nodes and bodies would show.
        let mut tree = QuadTree::build(&cloud(4096, 21), None);
        for (n, seed) in [(9usize, 22u64), (700, 23), (0, 24), (4096, 25)] {
            let pts = clumped(n / 2, seed)
                .into_iter()
                .chain(cloud(n - n / 2, seed))
                .collect::<Vec<_>>();
            let masses: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            tree.rebuild(&pts, Some(&masses));
            let fresh = QuadTree::build(&pts, Some(&masses));
            assert_eq!(tree.node_count(), fresh.node_count(), "n={n}");
            assert_same_visits(
                &tree,
                &ArenaTree::build(&pts, Some(&masses)),
                &pts,
                "rebuilt",
            );
            for (i, &q) in pts.iter().enumerate().step_by(7) {
                let skip = Some(i as u32);
                assert_eq!(
                    record(|v| tree.for_each_approx(q, skip, 0.85, v)),
                    record(|v| fresh.for_each_approx(q, skip, 0.85, v)),
                    "n={n} query {i}"
                );
            }
        }
    }
}
