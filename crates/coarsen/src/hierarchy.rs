//! The multilevel hierarchy: repeated match-and-contract with the paper's
//! retain-every-other-level adaptation (≈¼ shrink between retained levels).

use crate::arena::{contract_with, heavy_edge_matching_in, CoarsenArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_graph::Graph;
use std::borrow::Cow;

/// Controls for hierarchy construction.
#[derive(Clone, Copy, Debug)]
pub struct CoarsenConfig {
    /// Stop once the coarsest graph has at most this many vertices
    /// (the paper keeps it "in the hundreds or few thousands").
    pub target_coarsest: usize,
    /// RNG seed for the matchings.
    pub seed: u64,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig {
            target_coarsest: 1000,
            seed: 0x5CA1AB1E,
        }
    }
}

/// Safety cap on retained levels: coarsening stops once a hierarchy holds
/// more than this many.
pub const MAX_LEVELS: usize = 40;

/// One retained level of the hierarchy.
pub struct Level<'g> {
    /// The graph at this level: `levels[0]` borrows the input graph, every
    /// coarser level owns the graph its contraction built.
    pub graph: Cow<'g, Graph>,
    /// For non-coarsest levels: `map[v]` = vertex of the next retained
    /// (coarser) level containing `v`.
    pub map_to_coarser: Option<Vec<u32>>,
}

/// A coarsening hierarchy `G⁰ ⊃ G¹ ⊃ … ⊃ Gᵏ`.
pub struct Hierarchy<'g> {
    pub levels: Vec<Level<'g>>,
}

impl<'g> Hierarchy<'g> {
    /// Build the hierarchy for `g`.
    pub fn build(g: &'g Graph, cfg: &CoarsenConfig) -> Hierarchy<'g> {
        // One arena serves the whole descent: scratch sized at level 0 is
        // reused by every coarser level (no per-level scratch allocation).
        Self::build_with_arena(g, cfg, &mut CoarsenArena::new())
    }

    /// [`Hierarchy::build`] with a caller-owned arena, so the caller can
    /// inspect scratch usage afterwards (or share the arena across
    /// several hierarchies).
    pub fn build_with_arena(
        g: &'g Graph,
        cfg: &CoarsenConfig,
        arena: &mut CoarsenArena,
    ) -> Hierarchy<'g> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut levels = vec![Level {
            graph: Cow::Borrowed(g),
            map_to_coarser: None,
        }];
        loop {
            let cur = &levels.last().unwrap().graph;
            if cur.n() <= cfg.target_coarsest || levels.len() > MAX_LEVELS {
                break;
            }
            // One or two contractions, composed into one retained step:
            // every other contraction is kept, so retained levels shrink
            // ≈ 4× (the paper's adaptation).
            let m1 = heavy_edge_matching_in(cur, &mut rng, arena);
            let c1 = contract_with(cur, &m1, arena);
            let (coarse, map) = if c1.coarse.n() > cfg.target_coarsest {
                let m2 = heavy_edge_matching_in(&c1.coarse, &mut rng, arena);
                let c2 = contract_with(&c1.coarse, &m2, arena);
                let composed: Vec<u32> = c1.map.iter().map(|&mid| c2.map[mid as usize]).collect();
                (c2.coarse, composed)
            } else {
                (c1.coarse, c1.map)
            };
            // Coarsening stalls on pathological graphs; bail out rather
            // than looping forever.
            if coarse.n() as f64 > 0.95 * cur.n() as f64 {
                break;
            }
            levels.last_mut().unwrap().map_to_coarser = Some(map);
            levels.push(Level {
                graph: Cow::Owned(coarse),
                map_to_coarser: None,
            });
        }
        Hierarchy { levels }
    }

    /// Number of retained levels (≥ 1).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The coarsest graph.
    pub fn coarsest(&self) -> &Graph {
        &self.levels.last().unwrap().graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::grid_2d;

    #[test]
    fn hierarchy_reaches_target() {
        let g = grid_2d(64, 64);
        let h = Hierarchy::build(
            &g,
            &CoarsenConfig {
                target_coarsest: 300,
                ..Default::default()
            },
        );
        assert!(h.coarsest().n() <= 300);
        assert!(h.depth() >= 2);
        for l in &h.levels {
            l.graph.validate().unwrap();
        }
    }

    #[test]
    fn retained_levels_shrink_by_about_four() {
        let g = grid_2d(80, 80);
        let h = Hierarchy::build(&g, &CoarsenConfig::default());
        for w in h.levels.windows(2) {
            let ratio = w[1].graph.n() as f64 / w[0].graph.n() as f64;
            assert!(
                (0.2..0.45).contains(&ratio) || w[1].graph.n() <= 1000,
                "level shrink ratio {ratio}"
            );
        }
    }

    #[test]
    fn vertex_weight_conserved_through_hierarchy() {
        let g = grid_2d(40, 40);
        let h = Hierarchy::build(
            &g,
            &CoarsenConfig {
                target_coarsest: 100,
                ..Default::default()
            },
        );
        let w0 = g.total_vwgt();
        for l in &h.levels {
            assert!((l.graph.total_vwgt() - w0).abs() < 1e-6);
        }
    }

    #[test]
    fn maps_cover_all_coarse_vertices() {
        let g = grid_2d(32, 32);
        let h = Hierarchy::build(
            &g,
            &CoarsenConfig {
                target_coarsest: 64,
                ..Default::default()
            },
        );
        for i in 0..h.depth() - 1 {
            let map = h.levels[i].map_to_coarser.as_ref().unwrap();
            let cn = h.levels[i + 1].graph.n();
            let mut seen = vec![false; cn];
            for &c in map {
                seen[c as usize] = true;
            }
            assert!(seen.iter().all(|&b| b), "level {i} map not surjective");
        }
    }

    #[test]
    fn tiny_graph_single_level() {
        let g = grid_2d(5, 5);
        let h = Hierarchy::build(
            &g,
            &CoarsenConfig {
                target_coarsest: 100,
                ..Default::default()
            },
        );
        assert_eq!(h.depth(), 1);
        assert_eq!(h.coarsest().n(), 25);
    }
}
