//! The sequential matcher, the contraction, and the scratch both reuse.
//!
//! [`CoarsenArena`] owns what a level of match-and-contract needs and
//! does not keep: the matching's visit order and matched flags, the
//! coarse-weight accumulator, representatives, the stamp arrays and the
//! one-row gather buffer. They are sized by level 0 and reused down the
//! hierarchy (and by the SPMD matcher, [`crate::parallel_hem_in`]), so a
//! level transition allocates only what the level retains: the mate
//! array, the fine→coarse map and the coarse graph.
//!
//! [`contract_with`] is a gather-merge: for each coarse vertex, the
//! members' fine adjacencies are merged through a stamp array into the
//! row buffer, sorted ascending, and appended to the coarse CSR. That CSR
//! is written once, in its final form: the arrays are reserved at the
//! fine graph's size (an upper bound no row can exceed, so they never
//! regrow), trimmed, and handed to the coarse [`Graph`] — no staging copy
//! exists, in the arena or anywhere else. Weight merges accumulate in
//! fine traversal order (deterministic; exact for the integer-valued
//! weights coarsening produces from unit inputs).

use crate::matching::Matching;
use rand::seq::SliceRandom;
use rand::Rng;
use sp_graph::Graph;

const UNSTAMPED: u32 = u32::MAX;

/// Scratch reused across hierarchy levels. Create once per coarsening
/// run; every buffer grows to its level-0 high-water mark and stays.
#[derive(Default)]
pub struct CoarsenArena {
    /// Coarse vertex weight accumulator (coarse n).
    cw: Vec<f64>,
    /// Representative (first) fine vertex of each coarse vertex.
    rep: Vec<u32>,
    /// Stamp: which coarse row a coarse neighbour was last seen in.
    row_mark: Vec<u32>,
    /// Position of that neighbour in the current row.
    row_pos: Vec<u32>,
    /// Current coarse row under accumulation.
    row: Vec<(u32, f64)>,
    /// Matching scratch: visit order and matched flags.
    order: Vec<u32>,
    matched: Vec<bool>,
    /// Largest number of scratch bytes held at any point.
    high_water: usize,
}

impl CoarsenArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held by the arena's buffers (capacity, not len —
    /// this is what the process actually pays for).
    pub fn bytes(&self) -> usize {
        self.cw.capacity() * 8
            + self.rep.capacity() * 4
            + self.row_mark.capacity() * 4
            + self.row_pos.capacity() * 4
            + self.row.capacity() * 16
            + self.order.capacity() * 4
            + self.matched.capacity()
    }

    /// High-water mark of [`CoarsenArena::bytes`] over the arena's life.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }

    fn note_high_water(&mut self) {
        self.high_water = self.high_water.max(self.bytes());
    }

    /// The matched-flags scratch, cleared and sized for `n` vertices.
    /// Shared by the sequential and SPMD matchers.
    pub(crate) fn matched_scratch(&mut self, n: usize) -> &mut Vec<bool> {
        self.matched.clear();
        self.matched.resize(n, false);
        self.note_high_water();
        &mut self.matched
    }
}

/// Heavy-edge matching: visit vertices in random order; match each
/// unmatched vertex to its heaviest-edge unmatched neighbour (ties broken
/// toward lower vertex id for determinism given the visit order). The
/// visit order and matched flags come from `arena`.
pub fn heavy_edge_matching_in<R: Rng>(
    g: &Graph,
    rng: &mut R,
    arena: &mut CoarsenArena,
) -> Matching {
    let n = g.n();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    arena.matched.clear();
    arena.matched.resize(n, false);
    arena.order.clear();
    arena.order.extend(0..n as u32);
    arena.order.shuffle(rng);
    // Split borrows: order is read-only while matched is mutated.
    let (order, matched) = (&arena.order, &mut arena.matched);
    for &v in order {
        if matched[v as usize] {
            continue;
        }
        let mut best: Option<(f64, u32)> = None;
        for (u, w) in g.neighbors_w(v) {
            if matched[u as usize] {
                continue;
            }
            match best {
                Some((bw, bu)) if w < bw || (w == bw && u >= bu) => {}
                _ => best = Some((w, u)),
            }
        }
        if let Some((_, u)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
            matched[v as usize] = true;
            matched[u as usize] = true;
        }
    }
    arena.note_high_water();
    Matching { mate }
}

/// Contract `g` along matching `m` using arena scratch: every matched
/// pair becomes one coarse vertex (weights summed), unmatched vertices
/// survive as singletons, multi-edges merge with summed weights, and
/// intra-pair edges vanish. The coarse graph owns the arrays the rows
/// were gathered into, at exact size.
pub fn contract_with(g: &Graph, m: &Matching, arena: &mut CoarsenArena) -> crate::Contraction {
    let (map, xadj, adjncy, ewgt) = contract_rows(g, m, arena);
    let coarse = Graph::from_csr(xadj, adjncy, ewgt, arena.cw.clone());
    crate::Contraction { coarse, map }
}

/// The fine→coarse map and the coarse `xadj`/`adjncy`/`ewgt`, each at
/// exact size; the coarse vertex weights are left in `arena.cw`.
fn contract_rows(
    g: &Graph,
    m: &Matching,
    arena: &mut CoarsenArena,
) -> (Vec<u32>, Vec<usize>, Vec<u32>, Vec<f64>) {
    let n = g.n();
    let mut map = vec![u32::MAX; n];
    arena.rep.clear();
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let u = m.mate[v as usize];
        map[v as usize] = next;
        map[u as usize] = next; // u == v for singletons
        arena.rep.push(v);
        next += 1;
    }
    let cn = next as usize;
    // Coarse vertex weights, accumulated in ascending fine-vertex order.
    arena.cw.clear();
    arena.cw.resize(cn, 0.0);
    for v in 0..n as u32 {
        arena.cw[map[v as usize] as usize] += g.vwgt(v);
    }
    // Gather-merge each coarse row through the stamp array, straight into
    // the arrays the coarse graph will own: no coarse row set is larger
    // than the fine one, so reserved at that size they never regrow, and
    // the tail they did not need was never touched.
    arena.row_mark.clear();
    arena.row_mark.resize(cn, UNSTAMPED);
    arena.row_pos.clear();
    arena.row_pos.resize(cn, 0);
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0);
    let mut adjncy: Vec<u32> = Vec::with_capacity(g.adjncy().len());
    let mut ewgt: Vec<f64> = Vec::with_capacity(g.adjncy().len());
    for c in 0..cn as u32 {
        let v = arena.rep[c as usize];
        let u = m.mate[v as usize];
        arena.row.clear();
        let members = if u == v { [v, v] } else { [v, u] };
        let member_count = if u == v { 1 } else { 2 };
        for &mv in &members[..member_count] {
            for (nb, w) in g.neighbors_w(mv) {
                let cu = map[nb as usize];
                if cu == c {
                    continue; // intra-pair edge vanishes
                }
                if arena.row_mark[cu as usize] == c {
                    arena.row[arena.row_pos[cu as usize] as usize].1 += w;
                } else {
                    arena.row_mark[cu as usize] = c;
                    arena.row_pos[cu as usize] = arena.row.len() as u32;
                    arena.row.push((cu, w));
                }
            }
        }
        arena.row.sort_unstable_by_key(|p| p.0);
        for &(cu, w) in &arena.row {
            adjncy.push(cu);
            ewgt.push(w);
        }
        xadj.push(adjncy.len());
    }
    arena.note_high_water();
    adjncy.shrink_to_fit();
    ewgt.shrink_to_fit();
    (map, xadj, adjncy, ewgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{contract, validate_contraction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sp_graph::gen::{grid_2d, kkt_graph};
    use sp_graph::GraphBuilder;

    fn bits(w: &[f64]) -> Vec<u64> {
        w.iter().map(|x| x.to_bits()).collect()
    }

    /// `contract_with` against the builder reference: same map, same CSR,
    /// weights equal bit for bit.
    fn assert_matches_reference(g: &Graph, m: &Matching, arena: &mut CoarsenArena) -> Graph {
        let reference = contract(g, m);
        let lean = contract_with(g, m, arena);
        assert_eq!(reference.map, lean.map);
        assert_eq!(reference.coarse.xadj(), lean.coarse.xadj());
        assert_eq!(reference.coarse.adjncy(), lean.coarse.adjncy());
        assert_eq!(bits(reference.coarse.ewgts()), bits(lean.coarse.ewgts()));
        assert_eq!(bits(reference.coarse.vwgts()), bits(lean.coarse.vwgts()));
        validate_contraction(g, m, &lean).unwrap();
        lean.coarse
    }

    /// Match and contract down to at most `floor` vertices with one arena,
    /// holding every level to the reference; returns the levels taken.
    fn descend(g: Graph, rng: &mut StdRng, arena: &mut CoarsenArena, floor: usize) -> usize {
        let mut cur = g;
        let mut levels = 0;
        while cur.n() > floor {
            let m = heavy_edge_matching_in(&cur, rng, arena);
            let coarse = assert_matches_reference(&cur, &m, arena);
            if coarse.n() == cur.n() {
                break;
            }
            cur = coarse;
            levels += 1;
        }
        levels
    }

    #[test]
    fn matching_in_arena_matches_plain() {
        // "Plain" is a fresh arena now that the arena-less matcher is
        // gone: one that already served a larger graph, and holds its
        // order and flags, must match no differently.
        let g = grid_2d(20, 20);
        let mut used = CoarsenArena::new();
        heavy_edge_matching_in(&grid_2d(30, 30), &mut StdRng::seed_from_u64(3), &mut used);
        let a = heavy_edge_matching_in(&g, &mut StdRng::seed_from_u64(17), &mut used);
        let b =
            heavy_edge_matching_in(&g, &mut StdRng::seed_from_u64(17), &mut CoarsenArena::new());
        assert_eq!(a.mate, b.mate);
    }

    #[test]
    fn contract_with_matches_builder_contract() {
        // Unit-weight inputs, so the sums are integers and exact in any
        // order: the weights must agree with the builder's bit for bit.
        for g in [
            grid_2d(18, 23),
            kkt_graph(500, 250, 5, &mut StdRng::seed_from_u64(2)),
        ] {
            let mut arena = CoarsenArena::new();
            let m = heavy_edge_matching_in(&g, &mut StdRng::seed_from_u64(6), &mut arena);
            assert_matches_reference(&g, &m, &mut arena);
            // What the coarse graph is handed was trimmed to exact size.
            let (map, xadj, adjncy, ewgt) = contract_rows(&g, &m, &mut arena);
            assert!(adjncy.len() < g.adjncy().len(), "nothing to trim");
            assert_eq!(map.capacity(), map.len());
            assert_eq!(xadj.capacity(), xadj.len());
            assert_eq!(adjncy.capacity(), adjncy.len());
            assert_eq!(ewgt.capacity(), ewgt.len());
        }
    }

    #[test]
    fn one_arena_serves_a_whole_hierarchy_and_then_a_larger_graph() {
        let mut arena = CoarsenArena::new();
        let mut rng = StdRng::seed_from_u64(12);
        let small = kkt_graph(600, 300, 5, &mut StdRng::seed_from_u64(7));
        assert!(descend(small, &mut rng, &mut arena, 20) >= 4);
        let sized = arena.bytes();
        // The second graph outgrows every buffer the first one sized.
        assert!(descend(grid_2d(48, 41), &mut rng, &mut arena, 20) >= 4);
        assert!(arena.bytes() > sized);
    }

    #[test]
    fn a_coarse_level_without_edges_contracts_to_empty_rows() {
        // Three disjoint edges, each matched: every edge is intra-pair.
        let mut b = GraphBuilder::new(7);
        for v in [0, 2, 4] {
            b.add_edge(v, v + 1, 2.0);
        }
        let g = b.build();
        let m = Matching {
            mate: vec![1, 0, 3, 2, 5, 4, 6],
        };
        let mut arena = CoarsenArena::new();
        let coarse = assert_matches_reference(&g, &m, &mut arena);
        assert_eq!((coarse.n(), coarse.m()), (4, 0));
        assert_eq!(coarse.xadj(), [0; 5]);
        // And on from there: an input that has no edges at all.
        let m = heavy_edge_matching_in(&coarse, &mut StdRng::seed_from_u64(1), &mut arena);
        assert_eq!(m.pairs(), 0);
        let same = assert_matches_reference(&coarse, &m, &mut arena);
        assert_eq!((same.n(), same.m()), (4, 0));
    }

    #[test]
    fn arena_reuse_across_levels_allocates_no_new_scratch() {
        let g = grid_2d(40, 40);
        let mut arena = CoarsenArena::new();
        let mut rng = StdRng::seed_from_u64(9);
        // Level 0 sizes the arena.
        let m = heavy_edge_matching_in(&g, &mut rng, &mut arena);
        let c = contract_with(&g, &m, &mut arena);
        let sized = arena.bytes();
        assert!(sized > 0);
        // Coarser levels fit in the existing O(n) buffers: their capacities
        // never move again. Only `row` — the single-row gather scratch,
        // O(max coarse degree) — may still grow, because merged coarse
        // vertices can out-degree any fine vertex. The coarse CSR is not in
        // this list any more: it used to be staged in the arena and copied
        // out, it is now gathered into the arrays the coarse graph owns, so
        // the arena holds no O(m) buffer at all.
        let big_caps = |a: &CoarsenArena| {
            [
                a.cw.capacity(),
                a.rep.capacity(),
                a.row_mark.capacity(),
                a.row_pos.capacity(),
                a.order.capacity(),
                a.matched.capacity(),
            ]
        };
        let sized_caps = big_caps(&arena);
        let mut cur = c.coarse;
        for _ in 0..4 {
            if cur.n() <= 8 {
                break;
            }
            let m = heavy_edge_matching_in(&cur, &mut rng, &mut arena);
            let c = contract_with(&cur, &m, &mut arena);
            assert_eq!(
                big_caps(&arena),
                sized_caps,
                "arena grew on a coarser level"
            );
            cur = c.coarse;
        }
        assert!(arena.high_water_bytes() >= sized);
        assert!(arena.high_water_bytes() <= sized + arena.row.capacity() * 16);
    }

    #[test]
    fn deep_contract_stays_valid_on_weighted_levels() {
        // Several arena levels, each validated and held to the reference —
        // the coarser levels carry non-unit vertex and edge weights.
        let mut rng = StdRng::seed_from_u64(4);
        let levels = descend(grid_2d(32, 32), &mut rng, &mut CoarsenArena::new(), 99);
        assert!((3..=5).contains(&levels), "{levels} levels to under 100");
    }
}
