//! What a matching is and what makes one valid. The matchers are
//! [`crate::heavy_edge_matching_in`] (sequential) and
//! [`crate::parallel_hem_in`] (SPMD, charged to a machine).

use sp_graph::Graph;

/// A matching: `mate[v] = u` if `v` is matched with `u`, `mate[v] = v` if
/// unmatched (a singleton that survives contraction alone).
#[derive(Clone, Debug)]
pub struct Matching {
    pub mate: Vec<u32>,
}

impl Matching {
    /// Number of matched pairs.
    pub fn pairs(&self) -> usize {
        self.mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| (v as u32) < m)
            .count()
    }

    /// Number of coarse vertices the matching will produce.
    pub fn coarse_n(&self) -> usize {
        self.mate.len() - self.pairs()
    }
}

/// Check the matching invariants: involution (`mate[mate[v]] == v`) and
/// matched pairs joined by an actual edge.
pub fn validate_matching(g: &Graph, m: &Matching) -> Result<(), String> {
    if m.mate.len() != g.n() {
        return Err("matching length mismatch".into());
    }
    for v in 0..g.n() as u32 {
        let u = m.mate[v as usize];
        if u as usize >= g.n() {
            return Err(format!("mate {u} out of range"));
        }
        if m.mate[u as usize] != v {
            return Err(format!("mate not involutive at {v}"));
        }
        if u != v && !g.neighbors(v).contains(&u) {
            return Err(format!("matched pair ({v},{u}) not an edge"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{heavy_edge_matching_in, CoarsenArena};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::grid_2d;
    use sp_graph::GraphBuilder;

    #[test]
    fn matching_on_grid_is_valid_and_large() {
        let g = grid_2d(20, 20);
        let mut rng = StdRng::seed_from_u64(1);
        let m = heavy_edge_matching_in(&g, &mut rng, &mut CoarsenArena::new());
        validate_matching(&g, &m).unwrap();
        // A maximal matching on a grid matches nearly everything.
        assert!(m.pairs() * 2 > g.n() * 8 / 10, "pairs = {}", m.pairs());
        assert!(m.coarse_n() < g.n() * 6 / 10);
    }

    #[test]
    fn matching_prefers_heavy_edges() {
        // Star where one edge is much heavier: it must be chosen whenever
        // the centre is visited first; with weights, any maximal matching
        // here has exactly one pair — check the heavy edge wins across
        // seeds where vertex 0 is reachable first.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 10.0);
        b.add_edge(0, 3, 1.0);
        let g = b.build();
        let mut heavy_chosen = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = heavy_edge_matching_in(&g, &mut rng, &mut CoarsenArena::new());
            validate_matching(&g, &m).unwrap();
            if m.mate[0] == 2 {
                heavy_chosen += 1;
            }
        }
        // Whenever the centre (or vertex 2) is visited before the light
        // leaves claim the centre, the heavy edge 0-2 wins; that happens in
        // half the visit orders in expectation. Seeing it rarely would mean
        // weights are being ignored.
        assert!(
            heavy_chosen >= 5,
            "heavy edge chosen only {heavy_chosen}/20 times"
        );
    }

    #[test]
    fn matching_is_maximal() {
        let g = grid_2d(10, 10);
        let mut rng = StdRng::seed_from_u64(2);
        let m = heavy_edge_matching_in(&g, &mut rng, &mut CoarsenArena::new());
        // No edge may connect two unmatched vertices.
        for v in 0..g.n() as u32 {
            if m.mate[v as usize] != v {
                continue;
            }
            for &u in g.neighbors(v) {
                assert_ne!(m.mate[u as usize], u, "edge ({v},{u}) both unmatched");
            }
        }
    }

    #[test]
    fn empty_and_single_vertex() {
        let g = GraphBuilder::new(1).build();
        let mut rng = StdRng::seed_from_u64(3);
        let m = heavy_edge_matching_in(&g, &mut rng, &mut CoarsenArena::new());
        validate_matching(&g, &m).unwrap();
        assert_eq!(m.coarse_n(), 1);
    }
}
