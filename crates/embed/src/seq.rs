//! Sequential multilevel Barnes–Hut force-directed embedding (Hu 2006).
//!
//! This plays two roles from the paper: it is the coordinate source for
//! RCB/G30 on coordinate-free graphs (the paper uses Hu's Mathematica
//! implementation there), and it embeds the *coarsest* hierarchy graph
//! inside ScalaPart before the fixed-lattice scheme takes over.

use crate::force::{ForceParams, C, COOLING};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_coarsen::{CoarsenConfig, Hierarchy};
use sp_geometry::{Point2, QuadTree};
use sp_graph::Graph;
use sp_machine::pool;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Barnes–Hut opening threshold.
const THETA: f64 = 0.85;

/// Force iterations at the coarsest level.
const ITERS_COARSEST: usize = 300;

/// Smoothing iterations per finer level.
const ITERS_SMOOTH: usize = 100;

/// Initial step as a fraction of `K` (finer levels start at 0.4 of it).
const STEP0: f64 = 0.9;

/// Coarsening target for the internal hierarchy.
const COARSEST_SIZE: usize = 600;

/// Uniform random coordinates in a box sized so natural spacing ≈ `K = 1`.
pub fn random_init(n: usize, rng: &mut StdRng) -> Vec<Point2> {
    let side = (n.max(1) as f64).sqrt();
    (0..n)
        .map(|_| Point2::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect()
}

/// One vertex's result of a force iteration — displacement, squared force
/// norm, op count — as bit patterns in a slot any thread may fill: which
/// thread computes a vertex is the pool's business, where its result goes
/// is not. Relaxed is enough: the slots are only read after the join.
#[derive(Default)]
struct Slot([AtomicU64; 4]);

impl Slot {
    fn set(&self, d: Point2, energy: f64, ops: f64) {
        for (cell, x) in self.0.iter().zip([d.x, d.y, energy, ops]) {
            cell.store(x.to_bits(), Ordering::Relaxed);
        }
    }

    fn get(&self) -> (Point2, f64, f64) {
        let [x, y, energy, ops] = self
            .0
            .each_ref()
            .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)));
        (Point2::new(x, y), energy, ops)
    }
}

/// Vertices a thread claims at a time in a pooled iteration (64 and 128
/// time the same from 256 vertices to 4 000; a layout of one chunk has
/// nothing to deal).
const CHUNK: usize = 128;

/// An iteration goes to the pool when it has at least this many
/// force terms, counting [`BH_TERMS_PER_VERTEX`] tree interactions a
/// vertex beside its edge terms: the 16×16 grid (17 344 terms) takes 79 µs
/// an iteration on one thread and 55 µs on two with the worker spinning
/// between dispatches, and a parked worker costs 20–40 µs to wake, so
/// nothing smaller can pay. The 127-vertex coarsest layout of a 64×64
/// grid — 600 iterations of 12 µs in every benchmark warm-up — is far
/// below it.
const MIN_DEALT_TERMS: usize = 16_000;
const BH_TERMS_PER_VERTEX: usize = 64;

/// Run up to `max_iters` force iterations on `coords` in place with Hu's
/// adaptive step-length scheme: every vertex moves `step` in the direction
/// of its net force; the step grows (÷`t`) after five consecutive energy
/// decreases and shrinks (×`t`) on an energy increase, and the layout stops
/// when the step has cooled below 0.5% of `K`. Returns the number of
/// abstract ops performed (edge scans + Barnes–Hut interactions), which the
/// SPMD cost accounting uses.
///
/// The per-vertex forces of an iteration are computed on the host pool
/// ([`sp_machine::pool`]) when the graph is large enough to pay for it;
/// they are folded into coordinates, energy and op count in ascending
/// vertex order either way, so no result bit depends on the pool's width.
pub fn force_layout(
    g: &Graph,
    coords: &mut [Point2],
    params: &ForceParams,
    theta: f64,
    max_iters: usize,
    step0: f64,
    t: f64,
) -> f64 {
    assert_eq!(coords.len(), g.n());
    let n = g.n();
    if n == 0 {
        return 0.0;
    }
    let t = t.clamp(0.5, 0.99);
    let mut step = step0 * params.k;
    let max_step = 3.0 * params.k;
    let mut energy = f64::INFINITY;
    let mut progress = 0u32;
    let mut total_ops = 0.0;
    let chunks = n.div_ceil(CHUNK);
    let tasks = if 2 * g.m() + BH_TERMS_PER_VERTEX * n < MIN_DEALT_TERMS {
        1
    } else {
        pool::width().min(chunks)
    };
    // One tree and one results buffer for the whole layout: every iteration
    // rebuilds the tree over the moved points in place.
    let mut tree = QuadTree::default();
    let results: Vec<Slot> = (0..n).map(|_| Slot::default()).collect();
    for _ in 0..max_iters {
        tree.rebuild(coords, Some(g.vwgts()));
        total_ops += n as f64;
        let coords_ref = &*coords;
        let vertex = |v: u32| {
            let cv = coords_ref[v as usize];
            let mv = g.vwgt(v);
            let mut f = Point2::ZERO;
            let mut ops = 0.0;
            for (u, w) in g.neighbors_w(v) {
                f += params.attractive(cv, coords_ref[u as usize]) * w;
                ops += 1.0;
            }
            ops += tree.for_each_approx(cv, Some(v), theta, |p, m| {
                f += params.repulsive(cv, mv, p, m);
            }) as f64;
            let norm = f.norm();
            let d = if norm > 1e-12 {
                f * (step / norm)
            } else {
                Point2::ZERO
            };
            results[v as usize].set(d, norm * norm, ops + 2.0);
        };
        // Chunks of the tree's walk order, claimed from a counter: vertices
        // next to each other in the plane open the same nodes, and a hub's
        // chunk does not hold up a thread's fixed share.
        let next_chunk = AtomicUsize::new(0);
        pool::run(tasks, |_| loop {
            let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk >= chunks {
                break;
            }
            tree.walk_order(chunk * CHUNK..n.min((chunk + 1) * CHUNK))
                .for_each(&vertex);
        });
        let mut new_energy = 0.0;
        for (c, slot) in coords.iter_mut().zip(&results) {
            let (d, e, ops) = slot.get();
            *c += d;
            new_energy += e;
            total_ops += ops;
        }
        // Hu's adaptive cooling.
        if new_energy < energy {
            progress += 1;
            if progress >= 5 {
                progress = 0;
                step = (step / t).min(max_step);
            }
        } else {
            progress = 0;
            step *= t;
        }
        energy = new_energy;
        if step < 0.005 * params.k {
            break;
        }
    }
    total_ops
}

/// Full multilevel embedding of `g`: coarsen, random-init and embed the
/// coarsest graph, then repeatedly project down (with small jitter) and
/// smooth. `seed` drives the coarsening, the initial placement and the
/// jitter. Returns final coordinates.
pub fn embed_multilevel_seq(g: &Graph, seed: u64) -> Vec<Point2> {
    let h = Hierarchy::build(
        g,
        &CoarsenConfig {
            target_coarsest: COARSEST_SIZE,
            seed,
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let coarsest = h.coarsest();
    let mut coords = random_init(coarsest.n(), &mut rng);
    let params = ForceParams::for_domain(C, area_for(coarsest.n()), coarsest.n());
    force_layout(
        coarsest,
        &mut coords,
        &params,
        THETA,
        ITERS_COARSEST,
        STEP0,
        COOLING,
    );
    for lvl in (0..h.depth() - 1).rev() {
        let fine = &h.levels[lvl].graph;
        // Project: scale the coarse embedding by 2 per the paper, then
        // place fine vertices with small random translations about their
        // coarse vertex.
        // After the ×2 scaling a coarse box of side √n_c becomes ≈ √(4n_c)
        // ≈ √n_f, so the natural spacing K stays 1 at every level.
        let fine_params = ForceParams::for_domain(C, area_for(fine.n()), fine.n());
        let jitter = fine_params.k * 0.25;
        let map = h.levels[lvl].map_to_coarser.as_ref().unwrap();
        let mut fc: Vec<Point2> = map
            .iter()
            .map(|&cv| {
                coords[cv as usize] * 2.0
                    + Point2::new(
                        rng.random_range(-jitter..jitter),
                        rng.random_range(-jitter..jitter),
                    )
            })
            .collect();
        force_layout(
            fine,
            &mut fc,
            &fine_params,
            THETA,
            ITERS_SMOOTH,
            STEP0 * 0.4,
            COOLING,
        );
        coords = fc;
    }
    coords
}

fn area_for(n: usize) -> f64 {
    n.max(1) as f64 // unit natural spacing: K = 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_length_stats, embedding_spread};
    use sp_graph::gen::{delaunay_graph, grid_2d};
    use sp_machine::trace::fnv::splitmix64;

    const SEED: u64 = 0xE3BED;

    /// Rand-free deterministic init (splitmix64) in the box `random_init`
    /// uses: what the tests below assert does not depend on StdRng's
    /// stream.
    fn splitmix_init(n: usize) -> Vec<Point2> {
        let side = (n as f64).sqrt();
        let mut state = 1u64;
        let mut next_unit = move || (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        (0..n)
            .map(|_| Point2::new(next_unit() * side, next_unit() * side))
            .collect()
    }

    #[test]
    fn layout_reduces_edge_length_variance() {
        let g = grid_2d(12, 12);
        let mut coords = splitmix_init(g.n());
        let before = edge_length_stats(&g, &coords);
        let params = ForceParams::for_domain(0.2, g.n() as f64, g.n());
        force_layout(&g, &mut coords, &params, 0.85, 150, 0.9, 0.96);
        let after = edge_length_stats(&g, &coords);
        // A good grid embedding has much tighter edge lengths than random.
        assert!(
            after.cv() < before.cv() * 0.5,
            "cv before {} after {}",
            before.cv(),
            after.cv()
        );
    }

    #[test]
    fn layout_bits_match_the_arena_quadtree_golden() {
        // Recorded at the last commit whose `force_layout` built a fresh
        // arena quadtree every iteration (PR 14): FNV-1a over the
        // coordinate bits, and the bits of the returned op count, first
        // from the random start (θ 0.85, 40 iterations), then continuing
        // from there with the pipeline's θ 1.1. The flat tree promises the
        // same visit sequence, so neither may move.
        let g = grid_2d(20, 20);
        let params = ForceParams::for_domain(0.2, g.n() as f64, g.n());
        let fnv = |coords: &[Point2]| {
            coords
                .iter()
                .flat_map(|c| [c.x.to_bits(), c.y.to_bits()])
                .fold(0xcbf2_9ce4_8422_2325u64, |h, bits| {
                    (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3)
                })
        };
        let mut coords = splitmix_init(g.n());
        let ops = force_layout(&g, &mut coords, &params, 0.85, 40, 0.9, 0.96);
        assert_eq!(ops.to_bits(), 0x4139_71f9_0000_0000, "ops {ops}");
        assert_eq!(fnv(&coords), 0xcf36_500a_092f_1e66);
        let ops = force_layout(&g, &mut coords, &params, 1.1, 25, 0.3, 0.9);
        assert_eq!(ops.to_bits(), 0x4125_bb04_0000_0000, "ops {ops}");
        assert_eq!(fnv(&coords), 0xdc66_0275_65ee_766d);
    }

    #[test]
    fn layout_returns_positive_ops() {
        let g = grid_2d(8, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut coords = random_init(g.n(), &mut rng);
        let params = ForceParams::for_domain(0.2, 64.0, 64);
        let ops = force_layout(&g, &mut coords, &params, 0.8, 3, 0.9, 0.95);
        assert!(ops > 3.0 * g.n() as f64);
        assert!(coords.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn multilevel_embedding_is_usable_for_partitioning() {
        // The functional requirement: a coordinate bisection of the embedded
        // grid should cut far fewer edges than a random bisection.
        let g = grid_2d(20, 20);
        let coords = embed_multilevel_seq(&g, SEED);
        assert_eq!(coords.len(), g.n());
        let mut xs: Vec<f64> = coords.iter().map(|p| p.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        let bi = sp_graph::Bisection::from_fn(g.n(), |v| coords[v as usize].x >= med);
        let cut = bi.cut_edges(&g);
        // Random bisection of a 20×20 grid cuts ≈ m/2 = 380; a decent
        // embedding-based cut should be several times better.
        assert!(cut < 150, "embedding-based cut too large: {cut}");
    }

    #[test]
    fn embedding_spreads_the_graph() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = delaunay_graph(400, &mut rng);
        let coords = embed_multilevel_seq(&g, SEED);
        // The spread metric compares the bbox diagonal to the distance of
        // index-consecutive samples (an over-estimate of the local scale),
        // so well-spread embeddings land around 3–10 and collapsed ones ≈ 1.
        let spread = embedding_spread(&coords);
        assert!(spread > 2.0, "degenerate embedding, spread {spread}");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = grid_2d(10, 10);
        let a = embed_multilevel_seq(&g, SEED);
        let b = embed_multilevel_seq(&g, SEED);
        assert_eq!(a, b);
    }

    #[test]
    fn multilevel_returns_finest_level_coordinates() {
        // Regression: with a deep hierarchy the returned coordinates must
        // cover the *input* graph, not the coarsest level.
        let g = grid_2d(50, 50); // 2500 > COARSEST_SIZE, so depth ≥ 2
        let coords = embed_multilevel_seq(&g, SEED);
        assert_eq!(coords.len(), g.n());
    }
}
