//! What a contraction is and what makes one valid. The contraction
//! itself is [`crate::contract_with`].

use crate::matching::Matching;
use sp_graph::Graph;

/// The result of contracting a graph along a matching.
pub struct Contraction {
    /// The coarse graph (vertex weights summed, parallel edges merged).
    pub coarse: Graph,
    /// `map[v]` = coarse vertex id of fine vertex `v`.
    pub map: Vec<u32>,
}

/// Reference contraction through a [`sp_graph::GraphBuilder`] tuple
/// buffer: what [`crate::contract_with`]'s differential tests compare
/// against, edge by edge and bit by bit.
#[cfg(test)]
pub(crate) fn contract(g: &Graph, m: &Matching) -> Contraction {
    use sp_graph::GraphBuilder;
    let n = g.n();
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let u = m.mate[v as usize];
        map[v as usize] = next;
        map[u as usize] = next; // u == v for singletons
        next += 1;
    }
    let cn = next as usize;
    let mut b = GraphBuilder::with_edge_capacity(cn, g.m());
    // Coarse vertex weights.
    let mut cw = vec![0.0f64; cn];
    for v in 0..n as u32 {
        cw[map[v as usize] as usize] += g.vwgt(v);
    }
    for (c, &w) in cw.iter().enumerate() {
        b.set_vwgt(c as u32, w);
    }
    // Coarse edges.
    for v in 0..n as u32 {
        let cv = map[v as usize];
        for (u, w) in g.neighbors_w(v) {
            if u > v {
                let cu = map[u as usize];
                if cu != cv {
                    b.add_edge(cv, cu, w);
                }
            }
        }
    }
    Contraction {
        coarse: b.build(),
        map,
    }
}

/// Validate a contraction against the fine graph and matching it came
/// from: the map is total and dense, matched pairs share a coarse vertex,
/// no coarse vertex absorbs more than a pair, vertex weight is conserved,
/// and cross-pair edge weight is conserved (intra-pair edges vanish).
///
/// Used by sp-verify's invariant checker at every coarsening checkpoint.
pub fn validate_contraction(g: &Graph, m: &Matching, c: &Contraction) -> Result<(), String> {
    let n = g.n();
    let cn = c.coarse.n();
    if c.map.len() != n {
        return Err(format!("map length {} != fine n {}", c.map.len(), n));
    }
    if m.mate.len() != n {
        return Err(format!("matching length {} != fine n {}", m.mate.len(), n));
    }
    let mut group = vec![0u32; cn];
    for v in 0..n {
        let cv = c.map[v];
        if cv as usize >= cn {
            return Err(format!("map[{v}] = {cv} out of range (coarse n = {cn})"));
        }
        group[cv as usize] += 1;
        let u = m.mate[v] as usize;
        if c.map[u] != cv {
            return Err(format!(
                "matched pair ({v}, {u}) maps to different coarse vertices ({cv}, {})",
                c.map[u]
            ));
        }
    }
    for (cv, &sz) in group.iter().enumerate() {
        if sz == 0 {
            return Err(format!("coarse vertex {cv} has no fine preimage"));
        }
        if sz > 2 {
            return Err(format!(
                "coarse vertex {cv} absorbs {sz} fine vertices (matching pairs only)"
            ));
        }
    }
    let dv = c.coarse.total_vwgt() - g.total_vwgt();
    if dv.abs() > 1e-9 * g.total_vwgt().max(1.0) {
        return Err(format!("vertex weight drifts by {dv} under contraction"));
    }
    // Edge weight accounting: fine cross-pair weight == coarse weight.
    let mut cross = 0.0;
    for v in 0..n as u32 {
        for (u, w) in g.neighbors_w(v) {
            if u > v && c.map[u as usize] != c.map[v as usize] {
                cross += w;
            }
        }
    }
    let mut coarse_w = 0.0;
    for v in 0..cn as u32 {
        for (u, w) in c.coarse.neighbors_w(v) {
            if u > v {
                coarse_w += w;
            }
        }
    }
    if (cross - coarse_w).abs() > 1e-9 * cross.max(1.0) {
        return Err(format!(
            "edge weight not conserved: fine cross-pair {cross} vs coarse {coarse_w}"
        ));
    }
    c.coarse
        .validate()
        .map_err(|e| format!("coarse graph invalid: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{contract_with, heavy_edge_matching_in, CoarsenArena};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::grid_2d;
    use sp_graph::GraphBuilder;

    /// Match `g` from `seed` and contract it, both through one arena.
    fn hem_contract(g: &Graph, seed: u64) -> (Matching, Contraction) {
        let mut arena = CoarsenArena::new();
        let m = heavy_edge_matching_in(g, &mut StdRng::seed_from_u64(seed), &mut arena);
        let c = contract_with(g, &m, &mut arena);
        (m, c)
    }

    #[test]
    fn contract_halves_a_path() {
        // Path 0-1-2-3 with matching (0,1) (2,3) → 2 coarse vertices, 1 edge.
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build();
        let m = Matching {
            mate: vec![1, 0, 3, 2],
        };
        let c = contract_with(&g, &m, &mut CoarsenArena::new());
        assert_eq!(c.coarse.n(), 2);
        assert_eq!(c.coarse.m(), 1);
        assert_eq!(c.coarse.vwgt(0), 2.0);
        assert_eq!(c.coarse.vwgt(1), 2.0);
        c.coarse.validate().unwrap();
    }

    #[test]
    fn vertex_weight_is_conserved() {
        let g = grid_2d(15, 15);
        let (_, c) = hem_contract(&g, 4);
        assert!((c.coarse.total_vwgt() - g.total_vwgt()).abs() < 1e-9);
        c.coarse.validate().unwrap();
    }

    #[test]
    fn cross_pair_edge_weights_merge() {
        // Square 0-1-2-3-0 with matching (0,1),(2,3): coarse has the two
        // cross edges 1-2 and 3-0 merged into one edge of weight 2.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 0, 1.0);
        let g = b.build();
        let m = Matching {
            mate: vec![1, 0, 3, 2],
        };
        let c = contract_with(&g, &m, &mut CoarsenArena::new());
        assert_eq!(c.coarse.n(), 2);
        assert_eq!(c.coarse.m(), 1);
        let w = c.coarse.neighbors_w(0).next().unwrap().1;
        assert_eq!(w, 2.0);
    }

    #[test]
    fn map_is_consistent_with_matching() {
        let g = grid_2d(12, 12);
        let (m, c) = hem_contract(&g, 5);
        for v in 0..g.n() as u32 {
            assert_eq!(c.map[v as usize], c.map[m.mate[v as usize] as usize]);
        }
        // Coarse ids are dense.
        let mx = *c.map.iter().max().unwrap() as usize;
        assert_eq!(mx + 1, c.coarse.n());
    }

    #[test]
    fn validate_contraction_accepts_hem_output() {
        let g = grid_2d(20, 20);
        let (m, c) = hem_contract(&g, 8);
        validate_contraction(&g, &m, &c).unwrap();
    }

    #[test]
    fn validate_contraction_rejects_broken_map() {
        let g = grid_2d(10, 10);
        let (m, mut c) = hem_contract(&g, 8);
        // Point a matched vertex somewhere else: pair consistency breaks.
        let v = (0..g.n()).find(|&v| m.mate[v] != v as u32).unwrap();
        c.map[v] = (c.map[v] + 1) % c.coarse.n() as u32;
        let err = validate_contraction(&g, &m, &c).unwrap_err();
        assert!(err.contains("coarse"), "{err}");
    }

    #[test]
    fn contraction_shrinks_towards_half() {
        let g = grid_2d(30, 30);
        let (_, c) = hem_contract(&g, 6);
        let ratio = c.coarse.n() as f64 / g.n() as f64;
        assert!((0.5..0.62).contains(&ratio), "shrink ratio {ratio}");
    }
}
