//! SPMD heavy-edge matching on the simulated machine.
//!
//! ParMetis-style parallel matching: in each round every still-unmatched
//! vertex is randomly a *proposer* or a *responder* (a deterministic hash
//! coin, so the whole computation is reproducible). Proposers pick their
//! heaviest unmatched neighbour and send a proposal to the owner of that
//! neighbour; responders accept the heaviest proposal they receive. Grants
//! flow back and matches are committed. Proposals to remote vertices and
//! grants back are messages whose size the machine charges; their data is
//! routed on the host, where every rank's memory lives.

use crate::arena::CoarsenArena;
use crate::matching::Matching;
use sp_graph::distr::Distribution;
use sp_graph::Graph;
use sp_machine::{pool, CostOnly, Machine};
use std::sync::atomic::Ordering;

/// Proposals a round's grant step must handle before it goes to the pool;
/// fewer are granted inline on the caller. Measured on a 2-vCPU host, the
/// first round of a grid on 8 ranks, best of 40, pooled against inline:
/// 3,795 proposals 107 / 145 µs, 7,627 proposals 198 / 293 µs, 15,317
/// proposals 385 / 604 µs. The pool pays from a few thousand proposals;
/// the floor sits above the 7,600 of a 128×128 grid, the size `sp-serve`'s
/// misses partition, so a request that small makes no dispatch.
const MIN_POOLED_GRANTS: usize = 8_192;

/// One rank's share of a matching round, reused from round to round.
#[derive(Clone, Default)]
struct Round {
    /// Its proposals `(proposer, target)`, in proposer order; after
    /// routing, those to other ranks' vertices.
    proposals: Vec<(u32, u32)>,
    /// The proposals whose target it owns, then (in the grant step) those
    /// it received.
    incoming: Vec<(u32, u32)>,
    /// The others, one message per destination rank, in ascending
    /// destination order.
    outbox: Vec<(usize, Vec<(u32, u32)>)>,
    /// What its grant step accepted: `(responder, proposer)`.
    accepts: Vec<(u32, u32)>,
}

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
    let owner = &dist.owner;
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let (matched, paired) = arena.spmd_scratch(n);
    let mut matched_count = 0usize;
    let rank_verts = dist.rank_vertices();
    let mut state: Vec<Round> = vec![Round::default(); p];
    // Each rank's message sizes of one exchange, reused for every one.
    let mut sizes: Vec<Vec<(usize, CostOnly)>> = vec![Vec::new(); p];

    for round in 0..rounds {
        // --- Proposal step (per rank, parallel): each proposer picks its
        // heaviest unmatched responder neighbour. Routing each proposal to
        // the owner of its target is rank-local too, so it happens here;
        // it is not charged.
        {
            let matched_ref = &*matched;
            machine.compute(&mut state, |r, st| {
                st.proposals.clear();
                st.incoming.clear();
                st.outbox.clear();
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
                        st.proposals.push((v, u));
                    }
                }
                // Proposals to its own vertices stay; the others — a
                // block distribution's boundary, a few of them — go out by
                // destination, in proposer order within each.
                let mine = |&(_, u): &(u32, u32)| owner[u as usize] as usize == r;
                st.incoming.extend(st.proposals.iter().filter(|p| mine(p)));
                st.proposals.retain(|p| !mine(p));
                st.proposals
                    .sort_unstable_by_key(|&(v, u)| (owner[u as usize], v));
                for &(v, u) in &st.proposals {
                    let d = owner[u as usize] as usize;
                    match st.outbox.last_mut() {
                        Some((last, msgs)) if *last == d => msgs.push((v, u)),
                        _ => st.outbox.push((d, vec![(v, u)])),
                    }
                }
                ops
            });
        }
        // Route every message to its destination's inbox, in source order,
        // and charge it one word a proposal.
        let mut inbox: Vec<Vec<Vec<(u32, u32)>>> = vec![Vec::new(); p];
        for (st, out) in state.iter_mut().zip(&mut sizes) {
            out.clear();
            for (d, msgs) in st.outbox.drain(..) {
                out.push((d, CostOnly::new(msgs.len())));
                inbox[d].push(msgs);
            }
        }
        machine.exchange(&sizes);

        // --- Grant step (per rank, on the pool when the round is large):
        // each responder accepts the heaviest proposal. A rank reads only
        // `matched`, the graph and the proposals it holds, and writes only
        // its own accepts; charges and commits follow in rank order.
        let routed: usize = state
            .iter()
            .map(|st| st.incoming.len() + st.proposals.len())
            .sum();
        {
            let matched_ref = &*matched;
            let ranks = state.iter_mut().zip(&inbox);
            pool::each_if(routed >= MIN_POOLED_GRANTS, ranks, |_, (st, received)| {
                let Round {
                    incoming, accepts, ..
                } = st;
                for msgs in received {
                    incoming.extend_from_slice(msgs);
                }
                // Group by responder; accept heaviest edge, tie → lowest id.
                incoming.sort_unstable_by_key(|&(v, u)| (u, v));
                accepts.clear();
                let mut i = 0;
                while i < incoming.len() {
                    let u = incoming[i].1;
                    let mut best: Option<(f64, u32)> = None;
                    while i < incoming.len() && incoming[i].1 == u {
                        let v = incoming[i].0;
                        if !matched_ref[v as usize] {
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
                    if matched_ref[u as usize] {
                        continue;
                    }
                    if let Some((_, v)) = best {
                        accepts.push((u, v));
                    }
                }
            });
        }
        // --- Commit and send grants back (cost: same routing reversed, one
        // word a cross-rank grant). A responder is owned by the rank that
        // granted it.
        let mut accepted = 0usize;
        for (r, (st, out)) in state.iter().zip(&mut sizes).enumerate() {
            machine.charge_ops(r, st.incoming.len() as f64);
            out.clear();
            for &(u, v) in &st.accepts {
                matched[u as usize] = true;
                matched[v as usize] = true;
                matched_count += 2;
                mate[u as usize] = v;
                mate[v as usize] = u;
                let rp = owner[v as usize] as usize;
                if rp != r {
                    out.push((rp, CostOnly::new(1)));
                }
            }
            accepted += st.accepts.len();
        }
        machine.exchange(&sizes);
        if matched_count * 100 >= n * 92 || accepted == 0 {
            break;
        }
    }
    // Local cleanup: unmatched vertices pair with unmatched *local*
    // neighbours (heaviest edge first) — no communication, and it lifts the
    // matched fraction to near-maximal so retained levels shrink by the
    // intended factor. A rank marks, reads and clears the `paired` flags of
    // the vertices it owns and of no others.
    {
        let mut states: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
        let matched_ref = &*matched;
        machine.compute(&mut states, |r, out| {
            let mut ops = 0.0;
            for &v in &rank_verts[r] {
                paired[v as usize].store(false, Ordering::Relaxed);
            }
            let is_paired = |v: u32| paired[v as usize].load(Ordering::Relaxed);
            for &v in &rank_verts[r] {
                if matched_ref[v as usize] || is_paired(v) {
                    continue;
                }
                let mut best: Option<(f64, u32)> = None;
                for (u, w) in g.neighbors_w(v) {
                    ops += 1.0;
                    if owner[u as usize] as usize != r || matched_ref[u as usize] || is_paired(u) {
                        continue;
                    }
                    match best {
                        Some((bw, bu)) if w < bw || (w == bw && u >= bu) => {}
                        _ => best = Some((w, u)),
                    }
                }
                if let Some((_, u)) = best {
                    paired[v as usize].store(true, Ordering::Relaxed);
                    paired[u as usize].store(true, Ordering::Relaxed);
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
    machine.exchange(&outbox);
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
