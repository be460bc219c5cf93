//! A KKT-like graph with hubs, contracted once: what `force_layout` meets
//! at the coarsest level of the `sp-kkt` family, at a size a test can
//! afford. Drawn from splitmix64 and matched greedily in vertex order, so
//! it is the same graph under any `rand`. Shared by the layout golden and
//! the `embed/force_layout_hub` bench.

use sp_coarsen::{contract_with, CoarsenArena, Matching};
use sp_geometry::Point2;
use sp_graph::{csr_from_pairs, Graph};

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `kkt_graph`'s recipe — ring, shortcuts, hubs, a constraint layer — with
/// hubs of 300–700 branches, then one contraction along a heaviest-edge
/// matching taken in ascending vertex order: 3 999 vertices with non-unit
/// vertex and edge weights, and a handful of them of degree in the
/// hundreds.
pub fn hub_graph() -> Graph {
    let (n_primal, n_constraints) = (4000usize, 2000usize);
    let n = n_primal + n_constraints;
    let mut rng = SplitMix(0x4B4B_5421);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for i in 0..n_primal {
        pairs.push((i as u32, ((i + 1) % n_primal) as u32));
    }
    for _ in 0..n_primal * 3 / 2 {
        let u = rng.below(n_primal);
        let span = if rng.unit() < 0.8 {
            2 + rng.below(n_primal / 8)
        } else {
            2 + rng.below(n_primal - 2)
        };
        let v = (u + span) % n_primal;
        if u != v {
            pairs.push((u as u32, v as u32));
        }
    }
    for _ in 0..8 {
        let hub = rng.below(n_primal);
        for _ in 0..300 + rng.below(400) {
            let v = rng.below(n_primal);
            if v != hub {
                pairs.push((hub as u32, v as u32));
            }
        }
    }
    for c in 0..n_constraints {
        let cv = (n_primal + c) as u32;
        let start = rng.below(n_primal);
        for j in 0..2 + rng.below(5) {
            pairs.push((cv, ((start + j) % n_primal) as u32));
        }
        if rng.unit() < 0.2 {
            pairs.push((cv, rng.below(n_primal) as u32));
        }
    }
    let fine = csr_from_pairs(n, pairs, vec![1.0; n]);

    let mut mate: Vec<u32> = (0..n as u32).collect();
    for v in 0..n as u32 {
        if mate[v as usize] != v {
            continue;
        }
        let mut best: Option<(f64, u32)> = None;
        for (u, w) in fine.neighbors_w(v) {
            if u != v && mate[u as usize] == u && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, u));
            }
        }
        if let Some((_, u)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
    }
    contract_with(&fine, &Matching { mate }, &mut CoarsenArena::new()).coarse
}

/// A start in the box `random_init` uses, drawn from splitmix64.
pub fn start(n: usize) -> Vec<Point2> {
    let side = (n as f64).sqrt();
    let mut rng = SplitMix(1);
    (0..n)
        .map(|_| Point2::new(rng.unit() * side, rng.unit() * side))
        .collect()
}
