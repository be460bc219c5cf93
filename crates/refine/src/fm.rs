//! Fiduccia–Mattheyses bisection refinement.
//!
//! Classic FM with per-pass rollback: repeatedly move the best-gain
//! unlocked vertex (respecting a balance tolerance), remember the best
//! prefix of the move sequence, and roll back to it. A `movable` mask
//! restricts refinement to a subset — the strip/band refinement of the
//! paper moves only vertices near the geometric separator, which keeps the
//! cost "negligible" (a small multiple of the separator size).
//!
//! Gains are floating point (coarse graphs have real-valued edge weights),
//! so the bucket list of the original FM is replaced by a lazy max-heap:
//! entries carry a version stamp and stale ones are skipped on pop. Same
//! asymptotics up to a log factor, no integer-weight restriction.

use sp_graph::access::{self, GraphAccess};
use sp_graph::{Bisection, Graph};
use sp_machine::Machine;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Controls for FM refinement.
#[derive(Clone, Copy, Debug)]
pub struct FmConfig {
    /// Maximum improvement passes.
    pub max_passes: usize,
    /// Allowed weighted imbalance (`max_side / (total/2) − 1`).
    pub balance_tol: f64,
    /// Cap on moves per pass as a multiple of the movable-set size
    /// (1.0 = classic full pass).
    pub move_fraction: f64,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            max_passes: 4,
            balance_tol: 0.05,
            move_fraction: 1.0,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FmStats {
    /// Weighted cut before refinement.
    pub cut_before: f64,
    /// Weighted cut after refinement.
    pub cut_after: f64,
    /// Vertices moved (net, after rollback) across all passes.
    pub moved: usize,
    /// Passes executed.
    pub passes: usize,
    /// Abstract ops (edge scans) performed, for machine cost charging.
    pub ops: f64,
}

impl FmStats {
    /// Charge the run to `machine`: the movable set is distributed, so the
    /// edge scans split evenly over the ranks, plus one 2-word consensus
    /// allreduce a pass — "negligible" per the paper, and it is.
    pub fn charge(&self, machine: &mut Machine) {
        let p = machine.p();
        let mut states: Vec<()> = vec![(); p];
        let ops = self.ops / p as f64;
        machine.compute(&mut states, |_, _| ops);
        for _ in 0..self.passes {
            machine.allreduce_sum_costed(2);
        }
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    gain: f64,
    v: u32,
    stamp: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.v.cmp(&self.v))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Refine `bi` in place. `movable` restricts which vertices may move
/// (`None` = all). Guarantees the weighted cut never increases and the
/// final imbalance is at most `max(initial imbalance, cfg.balance_tol)`.
pub fn fm_refine(
    g: &Graph,
    bi: &mut Bisection,
    movable: Option<&[bool]>,
    cfg: &FmConfig,
) -> FmStats {
    fm_refine_on(g, bi, movable, cfg)
}

/// [`fm_refine`] over any [`GraphAccess`] store. Because gains accumulate
/// in the store's neighbour-iteration order, two stores presenting the
/// same logical graph in the same order (e.g. a delta overlay and its
/// compacted CSR) refine bit-identically.
///
/// A call costs O(n + m) once (cut, weights, the scratch arrays); a pass
/// costs what its movable vertices and their edges cost, so a strip of a
/// few thousand vertices of a large graph is refined in strip-sized time.
pub fn fm_refine_on<G: GraphAccess>(
    g: &G,
    bi: &mut Bisection,
    movable: Option<&[bool]>,
    cfg: &FmConfig,
) -> FmStats {
    let n = g.n();
    let mut stats = FmStats {
        cut_before: access::cut_of(g, bi),
        cut_after: 0.0,
        ..Default::default()
    };
    if n < 2 {
        stats.cut_after = stats.cut_before;
        return stats;
    }
    let total_w = g.total_vwgt();
    let half = total_w / 2.0;
    let is_movable = |v: u32| movable.is_none_or(|m| m[v as usize]);
    // Ascending ids: the order gains are seeded and pushed in.
    let movable_list: Vec<u32> = (0..n as u32).filter(|&v| is_movable(v)).collect();
    let move_cap = ((movable_list.len() as f64 * cfg.move_fraction) as usize).max(1);

    let mut cur_cut = stats.cut_before;
    let (mut w0, mut w1) = access::weights_of(g, bi);
    let init_imb = w0.max(w1) / half - 1.0;
    let allowed_imb = cfg.balance_tol.max(init_imb);

    // Scratch for every pass. Only movable vertices are ever given a gain,
    // stamped or locked, so a pass resets those entries and no others.
    let mut gain = vec![0.0f64; n];
    let mut stamp = vec![0u32; n];
    let mut locked = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(movable_list.len());
    // Move log for rollback: (vertex, cut after the move, imbalance ok).
    let mut log: Vec<(u32, f64, bool)> = Vec::new();

    for pass in 0..cfg.max_passes {
        stats.passes = pass + 1;
        heap.clear();
        log.clear();
        // Gains.
        for &v in &movable_list {
            let sv = bi.side(v);
            let mut gv = 0.0;
            for (u, w) in g.neighbors_w(v) {
                if bi.side(u) == sv {
                    gv -= w;
                } else {
                    gv += w;
                }
                stats.ops += 1.0;
            }
            gain[v as usize] = gv;
            stamp[v as usize] = 0;
            locked[v as usize] = false;
            heap.push(HeapEntry {
                gain: gv,
                v,
                stamp: 0,
            });
        }
        let mut best_prefix = 0usize;
        let mut best_cut = cur_cut;
        let mut trial_cut = cur_cut;
        let (mut tw0, mut tw1) = (w0, w1);

        while log.len() < move_cap {
            // Pop the best fresh, unlocked, balance-feasible vertex.
            let Some(v) = pop_feasible(
                &mut heap,
                &stamp,
                &locked,
                bi,
                g,
                tw0,
                tw1,
                half,
                allowed_imb,
            ) else {
                break;
            };
            let sv = bi.side(v);
            let wv = g.vwgt(v);
            trial_cut -= gain[v as usize];
            if sv == 0 {
                tw0 -= wv;
                tw1 += wv;
            } else {
                tw1 -= wv;
                tw0 += wv;
            }
            bi.flip(v);
            locked[v as usize] = true;
            let imb_ok = tw0.max(tw1) / half - 1.0 <= allowed_imb + 1e-12;
            log.push((v, trial_cut, imb_ok));
            if imb_ok && trial_cut < best_cut - 1e-12 {
                best_cut = trial_cut;
                best_prefix = log.len();
            }
            // Update neighbour gains.
            let new_side = bi.side(v);
            for (u, w) in g.neighbors_w(v) {
                stats.ops += 1.0;
                if locked[u as usize] || !is_movable(u) {
                    continue;
                }
                // v changed sides: edges to u flip their contribution.
                let delta = if bi.side(u) == new_side {
                    -2.0 * w
                } else {
                    2.0 * w
                };
                gain[u as usize] += delta;
                stamp[u as usize] += 1;
                heap.push(HeapEntry {
                    gain: gain[u as usize],
                    v: u,
                    stamp: stamp[u as usize],
                });
            }
        }
        // Roll back to the best prefix.
        for &(v, _, _) in log.iter().skip(best_prefix).rev() {
            let wv = g.vwgt(v);
            if bi.side(v) == 0 {
                tw0 -= wv;
                tw1 += wv;
            } else {
                tw1 -= wv;
                tw0 += wv;
            }
            bi.flip(v);
        }
        stats.moved += best_prefix;
        let improved = best_cut < cur_cut - 1e-12;
        cur_cut = best_cut;
        w0 = tw0;
        w1 = tw1;
        if !improved {
            break;
        }
    }
    stats.cut_after = cur_cut;
    stats
}

#[allow(clippy::too_many_arguments)]
fn pop_feasible<G: GraphAccess>(
    heap: &mut BinaryHeap<HeapEntry>,
    stamp: &[u32],
    locked: &[bool],
    bi: &Bisection,
    g: &G,
    w0: f64,
    w1: f64,
    half: f64,
    allowed_imb: f64,
) -> Option<u32> {
    let mut deferred: Vec<HeapEntry> = Vec::new();
    let mut found = None;
    while let Some(e) = heap.pop() {
        if e.stamp != stamp[e.v as usize] || locked[e.v as usize] {
            continue; // stale or locked
        }
        // Balance feasibility of moving v off its side.
        let wv = g.vwgt(e.v);
        let (nw0, nw1) = if bi.side(e.v) == 0 {
            (w0 - wv, w1 + wv)
        } else {
            (w0 + wv, w1 - wv)
        };
        let imb = nw0.max(nw1) / half - 1.0;
        // Always allow moves that reduce imbalance; otherwise require the
        // tolerance to hold after the move.
        let cur_imb = w0.max(w1) / half - 1.0;
        if imb <= allowed_imb + 1e-12 || imb < cur_imb - 1e-12 {
            found = Some(e.v);
            break;
        }
        deferred.push(e);
        if deferred.len() > 64 {
            break; // deep infeasible streak: give up this pop
        }
    }
    for e in deferred {
        heap.push(e);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sp_graph::gen::grid_2d;

    fn noisy_split(g: &Graph, flip_prob: f64, seed: u64) -> Bisection {
        // A vertical split with random noise.
        let side = (g.n() as f64).sqrt() as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let sides: Vec<u8> = (0..g.n())
            .map(|v| {
                let base = (v % side) >= side / 2;
                let flip = rng.random_range(0.0..1.0) < flip_prob;
                u8::from(base != flip)
            })
            .collect();
        Bisection::new(sides)
    }

    /// [`fm_refine_on`] as it was: `gain`, `stamp`, `locked` and the heap
    /// allocated afresh by every pass, which then scans all n vertices for
    /// the movable ones.
    fn fm_refine_allocating_per_pass<G: GraphAccess>(
        g: &G,
        bi: &mut Bisection,
        movable: Option<&[bool]>,
        cfg: &FmConfig,
    ) -> FmStats {
        let n = g.n();
        let mut stats = FmStats {
            cut_before: access::cut_of(g, bi),
            cut_after: 0.0,
            ..Default::default()
        };
        if n < 2 {
            stats.cut_after = stats.cut_before;
            return stats;
        }
        let total_w = g.total_vwgt();
        let half = total_w / 2.0;
        let movable_count = movable.map_or(n, |m| m.iter().filter(|&&b| b).count());
        let move_cap = ((movable_count as f64 * cfg.move_fraction) as usize).max(1);
        let is_movable = |v: u32| movable.is_none_or(|m| m[v as usize]);

        let mut cur_cut = stats.cut_before;
        let (mut w0, mut w1) = access::weights_of(g, bi);
        let init_imb = w0.max(w1) / half - 1.0;
        let allowed_imb = cfg.balance_tol.max(init_imb);

        for pass in 0..cfg.max_passes {
            stats.passes = pass + 1;
            // Gains.
            let mut gain = vec![0.0f64; n];
            let mut stamp = vec![0u32; n];
            let mut heap = BinaryHeap::with_capacity(movable_count);
            for v in 0..n as u32 {
                if !is_movable(v) {
                    continue;
                }
                let sv = bi.side(v);
                let mut gv = 0.0;
                for (u, w) in g.neighbors_w(v) {
                    if bi.side(u) == sv {
                        gv -= w;
                    } else {
                        gv += w;
                    }
                    stats.ops += 1.0;
                }
                gain[v as usize] = gv;
                heap.push(HeapEntry {
                    gain: gv,
                    v,
                    stamp: 0,
                });
            }
            let mut locked = vec![false; n];
            // Move log for rollback: (vertex, cut after the move, imbalance ok).
            let mut log: Vec<(u32, f64, bool)> = Vec::new();
            let mut best_prefix = 0usize;
            let mut best_cut = cur_cut;
            let mut trial_cut = cur_cut;
            let (mut tw0, mut tw1) = (w0, w1);

            while log.len() < move_cap {
                // Pop the best fresh, unlocked, balance-feasible vertex.
                let Some(v) = pop_feasible(
                    &mut heap,
                    &stamp,
                    &locked,
                    bi,
                    g,
                    tw0,
                    tw1,
                    half,
                    allowed_imb,
                ) else {
                    break;
                };
                let sv = bi.side(v);
                let wv = g.vwgt(v);
                trial_cut -= gain[v as usize];
                if sv == 0 {
                    tw0 -= wv;
                    tw1 += wv;
                } else {
                    tw1 -= wv;
                    tw0 += wv;
                }
                bi.flip(v);
                locked[v as usize] = true;
                let imb_ok = tw0.max(tw1) / half - 1.0 <= allowed_imb + 1e-12;
                log.push((v, trial_cut, imb_ok));
                if imb_ok && trial_cut < best_cut - 1e-12 {
                    best_cut = trial_cut;
                    best_prefix = log.len();
                }
                // Update neighbour gains.
                let new_side = bi.side(v);
                for (u, w) in g.neighbors_w(v) {
                    stats.ops += 1.0;
                    if locked[u as usize] || !is_movable(u) {
                        continue;
                    }
                    // v changed sides: edges to u flip their contribution.
                    let delta = if bi.side(u) == new_side {
                        -2.0 * w
                    } else {
                        2.0 * w
                    };
                    gain[u as usize] += delta;
                    stamp[u as usize] += 1;
                    heap.push(HeapEntry {
                        gain: gain[u as usize],
                        v: u,
                        stamp: stamp[u as usize],
                    });
                }
            }
            // Roll back to the best prefix.
            for &(v, _, _) in log.iter().skip(best_prefix).rev() {
                let wv = g.vwgt(v);
                if bi.side(v) == 0 {
                    tw0 -= wv;
                    tw1 += wv;
                } else {
                    tw1 -= wv;
                    tw0 += wv;
                }
                bi.flip(v);
            }
            stats.moved += best_prefix;
            let improved = best_cut < cur_cut - 1e-12;
            cur_cut = best_cut;
            w0 = tw0;
            w1 = tw1;
            if !improved {
                break;
            }
        }
        stats.cut_after = cur_cut;
        stats
    }

    /// Both versions on copies of one noisy split under one random mask:
    /// same sides, same stats to the bit.
    fn assert_same_refinement<G: GraphAccess>(g: &G, rng: &mut StdRng, at: &str) {
        let n = g.n();
        let start = Bisection::new((0..n).map(|_| rng.random_range(0..2)).collect());
        let keep = rng.random_range(0.05..1.0);
        let mask: Vec<bool> = (0..n).map(|_| rng.random_range(0.0..1.0) < keep).collect();
        for movable in [None, Some(mask.as_slice())] {
            let cfg = FmConfig {
                max_passes: 6,
                ..Default::default()
            };
            let (mut a, mut b) = (start.clone(), start.clone());
            let sa = fm_refine_on(g, &mut a, movable, &cfg);
            let sb = fm_refine_allocating_per_pass(g, &mut b, movable, &cfg);
            assert_eq!(a, b, "sides, {at}");
            assert_eq!((sa.moved, sa.passes), (sb.moved, sb.passes), "{at}");
            assert_eq!(sa.ops.to_bits(), sb.ops.to_bits(), "ops, {at}");
            assert_eq!(sa.cut_before.to_bits(), sb.cut_before.to_bits(), "{at}");
            assert_eq!(sa.cut_after.to_bits(), sb.cut_after.to_bits(), "{at}");
            assert!(sa.passes > 1 || movable.is_some(), "{at}: one pass only");
        }
    }

    #[test]
    fn scratch_kept_across_passes_refines_like_scratch_made_per_pass() {
        use sp_stream::{DeltaOverlay, GraphDelta};
        let mut rng = StdRng::seed_from_u64(0xF3);
        for round in 0..6 {
            // A grid with real-valued weights, so gain ties are rare and
            // the accumulation order shows in the bits.
            let base = grid_2d(12 + round, 17);
            let n = base.n();
            let ewgt: Vec<f64> = {
                // Symmetric: the weight of an edge is a function of its ends.
                let w = |u: u32, v: u32| 0.5 + ((u.min(v) * 31 + u.max(v) * 17) % 13) as f64 / 7.0;
                (0..n as u32)
                    .flat_map(|v| base.neighbors(v).iter().map(move |&u| w(u, v)))
                    .collect()
            };
            let vwgt: Vec<f64> = (0..n).map(|_| rng.random_range(1..4) as f64).collect();
            let g = Graph::from_csr(base.xadj().to_vec(), base.adjncy().to_vec(), ewgt, vwgt);
            g.validate().unwrap();
            assert_same_refinement(&g, &mut rng, &format!("graph, round {round}"));

            let mut ov = DeltaOverlay::new(std::sync::Arc::new(g), None).unwrap();
            for _ in 0..40 {
                let (u, v) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
                let w = rng.random_range(0.25..3.0);
                // Whatever the overlay refuses (a duplicate, a missing
                // edge, a self loop) is simply not part of the stream.
                let _ = ov.apply(&GraphDelta::AddEdge { u, v, w });
                let _ = ov.apply(&GraphDelta::SetVwgt { v: u, w });
                if let Some((x, _)) = ov.neighbors_w(v).next() {
                    let _ = ov.apply(&GraphDelta::RemoveEdge { u: v, v: x });
                }
            }
            assert!(ov.patched_vertices() > 0);
            assert_same_refinement(&ov, &mut rng, &format!("overlay, round {round}"));
        }
    }

    #[test]
    fn fm_never_worsens_the_cut() {
        let g = grid_2d(16, 16);
        for seed in 0..5 {
            let mut bi = noisy_split(&g, 0.15, seed);
            let before = bi.cut(&g);
            let s = fm_refine(&g, &mut bi, None, &FmConfig::default());
            assert!(s.cut_after <= before + 1e-9);
            assert!(
                (bi.cut(&g) - s.cut_after).abs() < 1e-9,
                "stats vs actual cut"
            );
        }
    }

    #[test]
    fn fm_repairs_noisy_split_substantially() {
        let g = grid_2d(20, 20);
        let mut bi = noisy_split(&g, 0.10, 3);
        let before = bi.cut(&g);
        let s = fm_refine(
            &g,
            &mut bi,
            None,
            &FmConfig {
                max_passes: 8,
                ..Default::default()
            },
        );
        assert!(
            s.cut_after < before * 0.5,
            "cut {} -> {} (expected big repair)",
            before,
            s.cut_after
        );
    }

    #[test]
    fn fm_respects_balance_tolerance() {
        let g = grid_2d(14, 14);
        let mut bi = noisy_split(&g, 0.2, 7);
        let cfg = FmConfig {
            balance_tol: 0.05,
            ..Default::default()
        };
        fm_refine(&g, &mut bi, None, &cfg);
        assert!(
            bi.imbalance(&g) <= 0.05 + 1e-9,
            "imbalance {}",
            bi.imbalance(&g)
        );
    }

    #[test]
    fn movable_mask_is_honoured() {
        let g = grid_2d(12, 12);
        let mut bi = noisy_split(&g, 0.25, 9);
        let frozen = bi.clone();
        // Only the first quarter of vertices may move.
        let movable: Vec<bool> = (0..g.n()).map(|v| v < g.n() / 4).collect();
        fm_refine(&g, &mut bi, Some(&movable), &FmConfig::default());
        for v in g.n() / 4..g.n() {
            assert_eq!(
                bi.side(v as u32),
                frozen.side(v as u32),
                "immovable {v} moved"
            );
        }
    }

    #[test]
    fn perfect_cut_is_a_fixed_point() {
        let g = grid_2d(10, 10);
        let mut bi = Bisection::from_fn(g.n(), |v| (v as usize % 10) >= 5);
        let before = bi.cut(&g);
        let s = fm_refine(&g, &mut bi, None, &FmConfig::default());
        assert_eq!(s.cut_after, before);
        assert_eq!(s.moved, 0);
    }

    #[test]
    fn tiny_graph_is_handled() {
        let g = grid_2d(1, 2);
        let mut bi = Bisection::new(vec![0, 1]);
        let s = fm_refine(&g, &mut bi, None, &FmConfig::default());
        assert!(s.cut_after <= s.cut_before);
        bi.validate(&g).unwrap();
    }

    #[test]
    fn ops_are_reported() {
        let g = grid_2d(10, 10);
        let mut bi = noisy_split(&g, 0.2, 1);
        let s = fm_refine(&g, &mut bi, None, &FmConfig::default());
        assert!(s.ops > g.n() as f64);
    }
}
