//! SPMD heavy-edge matching on the simulated machine.
//!
//! ParMetis-style parallel matching: in each round every still-unmatched
//! vertex is randomly a *proposer* or a *responder* (a deterministic hash
//! coin, so the whole computation is reproducible). Proposers pick their
//! heaviest unmatched neighbour and send a proposal to the owner of that
//! neighbour; responders accept the heaviest proposal they receive. Grants
//! flow back and matches are committed. Proposals to remote vertices and
//! ghost match-status refreshes are real messages whose cost is charged to
//! the machine.

use crate::arena::CoarsenArena;
use crate::matching::Matching;
use sp_graph::distr::Distribution;
use sp_graph::Graph;
use sp_machine::{CostOnly, Machine};

/// Per-rank outboxes of `(dest, edge-pair payload)` messages.
type PairOutbox = Vec<Vec<(usize, Vec<(u32, u32)>)>>;

/// Deterministic per-round coin: `true` = proposer.
#[inline]
fn coin(v: u32, round: u32, seed: u64) -> bool {
    // SplitMix64-style scramble.
    let mut x = (v as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round as u64) << 32)
        .wrapping_add(seed);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x & 1 == 0
}

/// Run up to `rounds` rounds of SPMD heavy-edge matching over the block
/// distribution `dist`, charging computation and communication to
/// `machine`. Stops early once 92% of vertices are matched (ParMetis-class
/// behaviour: contractions then halve the graph as intended). The
/// `n`-sized matched flags come from (and stay in) `arena`, so the levels
/// of a hierarchy reuse one allocation.
pub fn parallel_hem_in(
    g: &Graph,
    dist: &Distribution,
    machine: &mut Machine,
    rounds: u32,
    seed: u64,
    arena: &mut CoarsenArena,
) -> Matching {
    assert_eq!(dist.p, machine.p());
    let n = g.n();
    let p = machine.p();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let matched = arena.matched_scratch(n);
    let mut matched_count = 0usize;
    let rank_verts = dist.rank_vertices();

    for round in 0..rounds {
        // --- Proposal step (per rank, parallel): each proposer picks its
        // heaviest unmatched responder neighbour.
        let mut proposals: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p]; // (proposer, target)
        {
            let matched_ref = &matched;
            let mut states: Vec<(usize, Vec<(u32, u32)>)> =
                (0..p).map(|r| (r, Vec::new())).collect();
            machine.compute(&mut states, |r, out| {
                let mut ops = 0.0;
                // Heavy-edge preference in the early rounds; after that a
                // randomised preference (Metis's RM fallback) breaks the
                // proposal collisions that stall HEM on coarse weighted
                // graphs with heavy hub vertices.
                let hem = round < 4;
                for &v in &rank_verts[r] {
                    if matched_ref[v as usize] || !coin(v, round, seed) {
                        continue;
                    }
                    let mut best: Option<(f64, u32)> = None;
                    for (u, w) in g.neighbors_w(v) {
                        ops += 1.0;
                        if matched_ref[u as usize] || coin(u, round, seed) {
                            continue;
                        }
                        let key = if hem {
                            w
                        } else {
                            // Deterministic pseudo-random preference.
                            let mut x = (u as u64 ^ (v as u64) << 20)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .wrapping_add(seed ^ round as u64);
                            x ^= x >> 29;
                            (x & 0xFFFF) as f64
                        };
                        match best {
                            Some((bw, bu)) if key < bw || (key == bw && u >= bu) => {}
                            _ => best = Some((key, u)),
                        }
                    }
                    if let Some((_, u)) = best {
                        out.1.push((v, u));
                    }
                }
                ops
            });
            for (r, props) in states {
                proposals[r] = props;
            }
        }

        // --- Route proposals to the owner of the target vertex.
        let mut outbox: PairOutbox = (0..p).map(|_| Vec::new()).collect();
        let mut local: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
        for (r, props) in proposals.into_iter().enumerate() {
            let mut by_dest: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
            for (v, u) in props {
                let owner = dist.owner[u as usize] as usize;
                if owner == r {
                    local[r].push((v, u));
                } else {
                    by_dest[owner].push((v, u));
                }
            }
            for (d, msgs) in by_dest.into_iter().enumerate() {
                if !msgs.is_empty() {
                    outbox[r].push((d, msgs));
                }
            }
        }
        let inbox = machine.exchange(outbox);

        // --- Grant step: each responder accepts the heaviest proposal.
        // (Committed centrally but deterministically, per owner rank.)
        let mut accept: Vec<(u32, u32)> = Vec::new(); // (responder, proposer)
        for r in 0..p {
            let mut incoming: Vec<(u32, u32)> = local[r].clone();
            for (_, msgs) in &inbox[r] {
                incoming.extend_from_slice(msgs);
            }
            // Group by responder; accept heaviest edge, tie → lowest id.
            incoming.sort_unstable_by_key(|&(v, u)| (u, v));
            let mut i = 0;
            machine.charge_ops(r, incoming.len() as f64);
            while i < incoming.len() {
                let u = incoming[i].1;
                let mut best: Option<(f64, u32)> = None;
                while i < incoming.len() && incoming[i].1 == u {
                    let v = incoming[i].0;
                    if !matched[v as usize] {
                        let w = g
                            .neighbors_w(u)
                            .find(|&(x, _)| x == v)
                            .map(|(_, w)| w)
                            .unwrap_or(0.0);
                        match best {
                            Some((bw, bv)) if w < bw || (w == bw && v >= bv) => {}
                            _ => best = Some((w, v)),
                        }
                    }
                    i += 1;
                }
                if matched[u as usize] {
                    continue;
                }
                if let Some((_, v)) = best {
                    accept.push((u, v));
                }
            }
        }
        // --- Commit and send grants back (cost: same routing reversed).
        let mut grant_out: PairOutbox = (0..p).map(|_| Vec::new()).collect();
        for &(u, v) in &accept {
            matched[u as usize] = true;
            matched[v as usize] = true;
            matched_count += 2;
            mate[u as usize] = v;
            mate[v as usize] = u;
            let ro = dist.owner[u as usize] as usize;
            let rp = dist.owner[v as usize] as usize;
            if ro != rp {
                grant_out[ro].push((rp, vec![(u, v)]));
            }
        }
        let _ = machine.exchange(grant_out);
        if matched_count * 100 >= n * 92 || accept.is_empty() {
            break;
        }
    }
    // Local cleanup: unmatched vertices pair with unmatched *local*
    // neighbours (heaviest edge first) — no communication, and it lifts the
    // matched fraction to near-maximal so retained levels shrink by the
    // intended factor.
    {
        let mut states: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
        let matched_ref = &matched;
        machine.compute(&mut states, |r, out| {
            let mut ops = 0.0;
            let mut local_matched: std::collections::HashSet<u32> =
                std::collections::HashSet::new();
            for &v in &rank_verts[r] {
                if matched_ref[v as usize] || local_matched.contains(&v) {
                    continue;
                }
                let mut best: Option<(f64, u32)> = None;
                for (u, w) in g.neighbors_w(v) {
                    ops += 1.0;
                    if matched_ref[u as usize]
                        || local_matched.contains(&u)
                        || dist.owner[u as usize] as usize != r
                    {
                        continue;
                    }
                    match best {
                        Some((bw, bu)) if w < bw || (w == bw && u >= bu) => {}
                        _ => best = Some((w, u)),
                    }
                }
                if let Some((_, u)) = best {
                    local_matched.insert(v);
                    local_matched.insert(u);
                    out.push((v, u));
                }
            }
            ops
        });
        for pairs in states {
            for (v, u) in pairs {
                debug_assert!(!matched[v as usize] && !matched[u as usize]);
                matched[v as usize] = true;
                matched[u as usize] = true;
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
        }
    }
    Matching { mate }
}

/// Charge one contraction of `g` to `machine`: every rank builds its share
/// of the coarse rows (ops ∝ its local edges) and sends the ghost ids of
/// its cross edges one hop round the ring. Returns how many edges cross
/// ranks under `dist`.
pub fn charge_contraction(g: &Graph, dist: &Distribution, machine: &mut Machine) -> usize {
    let p = machine.p();
    let mut states: Vec<()> = vec![(); p];
    let edges_per_rank = (g.m() / p).max(1) as f64;
    machine.compute(&mut states, |_, _| edges_per_rank);
    if p == 1 {
        return 0; // one rank: no edge crosses
    }
    let cross = dist.cross_edges(g);
    let words = (2 * cross / p).max(1);
    let outbox: Vec<Vec<(usize, CostOnly)>> = (0..p)
        .map(|r| vec![((r + 1) % p, CostOnly::new(words))])
        .collect();
    machine.exchange_costed(&outbox);
    cross
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::validate_matching;
    use sp_graph::gen::grid_2d;
    use sp_machine::CostModel;

    #[test]
    fn parallel_matching_is_valid() {
        let g = grid_2d(24, 24);
        let dist = Distribution::block(g.n(), 4);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let matching = parallel_hem_in(&g, &dist, &mut m, 4, 7, &mut CoarsenArena::new());
        validate_matching(&g, &matching).unwrap();
        assert!(m.elapsed() > 0.0);
    }

    #[test]
    fn parallel_matching_matches_most_vertices() {
        let g = grid_2d(32, 32);
        let dist = Distribution::block(g.n(), 8);
        let mut m = Machine::new(8, CostModel::qdr_infiniband());
        let matching = parallel_hem_in(&g, &dist, &mut m, 6, 3, &mut CoarsenArena::new());
        let frac = 2.0 * matching.pairs() as f64 / g.n() as f64;
        assert!(frac > 0.7, "matched fraction {frac}");
    }

    #[test]
    fn deterministic_across_runs() {
        let g = grid_2d(16, 16);
        let dist = Distribution::block(g.n(), 4);
        let mut m1 = Machine::new(4, CostModel::qdr_infiniband());
        let mut m2 = Machine::new(4, CostModel::qdr_infiniband());
        let a = parallel_hem_in(&g, &dist, &mut m1, 4, 9, &mut CoarsenArena::new());
        let b = parallel_hem_in(&g, &dist, &mut m2, 4, 9, &mut CoarsenArena::new());
        assert_eq!(a.mate, b.mate);
        assert_eq!(m1.elapsed(), m2.elapsed());
    }

    #[test]
    fn single_rank_works() {
        let g = grid_2d(10, 10);
        let dist = Distribution::block(g.n(), 1);
        let mut m = Machine::new(1, CostModel::qdr_infiniband());
        let matching = parallel_hem_in(&g, &dist, &mut m, 4, 1, &mut CoarsenArena::new());
        validate_matching(&g, &matching).unwrap();
        assert!(matching.pairs() > 0);
    }

    #[test]
    fn communication_grows_with_ranks() {
        let g = grid_2d(32, 32);
        let mut comm = Vec::new();
        for p in [2usize, 16] {
            let dist = Distribution::block(g.n(), p);
            let mut m = Machine::new(p, CostModel::qdr_infiniband());
            let _ = parallel_hem_in(&g, &dist, &mut m, 4, 5, &mut CoarsenArena::new());
            comm.push(m.comm_time());
        }
        assert!(comm[1] > 0.0);
    }
}
