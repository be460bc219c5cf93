//! A deliberately naive FM oracle for differential testing.
//!
//! [`naive_fm_refine`] implements the exact move semantics of
//! [`fm_refine`](crate::fm::fm_refine) — same selection order (gain
//! descending, vertex id ascending among ties), same balance-feasibility
//! rule, same infeasible-streak cutoff, same best-prefix rollback — but
//! with none of its machinery: every move recomputes every candidate's
//! gain from scratch by scanning all of its edges, and candidates are
//! sorted instead of kept in an addressable gain queue. O(moves · n ·
//! degree) per pass, which is the point: there is almost nothing here to
//! get wrong, so a disagreement with `fm_refine` indicts the queue or the
//! incremental-gain machinery.
//!
//! On graphs whose weights (and hence gains) are exactly representable —
//! the integer-weight graphs the differential tests use — both
//! implementations compute bit-identical gains, so cuts, move counts and
//! final sides must agree exactly.

use crate::fm::{FmConfig, FmStats};
use sp_graph::{Bisection, Graph};

fn gain_of(g: &Graph, bi: &Bisection, v: u32) -> f64 {
    let sv = bi.side(v);
    let mut gv = 0.0;
    for (u, w) in g.neighbors_w(v) {
        if bi.side(u) == sv {
            gv -= w;
        } else {
            gv += w;
        }
    }
    gv
}

/// The reference implementation of [`fm_refine`](crate::fm::fm_refine)'s
/// semantics. `ops` in the returned stats counts this oracle's own edge
/// scans and is not comparable with the optimized implementation's.
pub fn naive_fm_refine(
    g: &Graph,
    bi: &mut Bisection,
    movable: Option<&[bool]>,
    cfg: &FmConfig,
) -> FmStats {
    let n = g.n();
    let mut stats = FmStats {
        cut_before: bi.cut(g),
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
    let (mut w0, mut w1) = bi.weights(g);
    let init_imb = w0.max(w1) / half - 1.0;
    let allowed_imb = cfg.balance_tol.max(init_imb);

    for pass in 0..cfg.max_passes {
        stats.passes = pass + 1;
        let mut locked = vec![false; n];
        let mut log: Vec<u32> = Vec::new();
        let mut best_prefix = 0usize;
        let mut best_cut = cur_cut;
        let mut trial_cut = cur_cut;
        let (mut tw0, mut tw1) = (w0, w1);

        while log.len() < move_cap {
            // Recompute every unlocked candidate's gain from scratch and
            // sort: gain descending, vertex id ascending on ties — the
            // order the optimized queue pops in.
            let mut cands: Vec<(f64, u32)> = (0..n as u32)
                .filter(|&v| is_movable(v) && !locked[v as usize])
                .map(|v| {
                    stats.ops += g.degree(v) as f64;
                    (gain_of(g, bi, v), v)
                })
                .collect();
            cands.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));

            // First balance-feasible candidate, mirroring `pop_feasible`:
            // give up after a streak of more than 64 infeasible entries.
            let cur_imb = tw0.max(tw1) / half - 1.0;
            let mut infeasible = 0usize;
            let mut chosen = None;
            for &(gv, v) in &cands {
                let wv = g.vwgt(v);
                let (nw0, nw1) = if bi.side(v) == 0 {
                    (tw0 - wv, tw1 + wv)
                } else {
                    (tw0 + wv, tw1 - wv)
                };
                let imb = nw0.max(nw1) / half - 1.0;
                if imb <= allowed_imb + 1e-12 || imb < cur_imb - 1e-12 {
                    chosen = Some((gv, v));
                    break;
                }
                infeasible += 1;
                if infeasible > 64 {
                    break;
                }
            }
            let Some((gv, v)) = chosen else {
                break;
            };
            let wv = g.vwgt(v);
            trial_cut -= gv;
            if bi.side(v) == 0 {
                tw0 -= wv;
                tw1 += wv;
            } else {
                tw1 -= wv;
                tw0 += wv;
            }
            bi.flip(v);
            locked[v as usize] = true;
            log.push(v);
            let imb_ok = tw0.max(tw1) / half - 1.0 <= allowed_imb + 1e-12;
            if imb_ok && trial_cut < best_cut - 1e-12 {
                best_cut = trial_cut;
                best_prefix = log.len();
            }
        }
        for &v in log.iter().skip(best_prefix).rev() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::fm_refine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sp_graph::gen::grid_2d;

    fn noisy_split(g: &Graph, flip_prob: f64, seed: u64) -> Bisection {
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

    #[test]
    fn naive_oracle_matches_optimized_fm_exactly() {
        // Unit weights → gains are exact integers, so the stamped-heap
        // implementation and the full-recompute oracle must agree bit for
        // bit: same final sides, same cut, same move count.
        let g = grid_2d(14, 14);
        for seed in 0..6u64 {
            for flip in [0.05, 0.2, 0.35] {
                let cfg = FmConfig::default();
                let mut a = noisy_split(&g, flip, seed);
                let mut b = a.clone();
                let cut = a.cut(&g);
                let sa = fm_refine(&g, &mut a, None, cut, &cfg);
                let sb = naive_fm_refine(&g, &mut b, None, &cfg);
                assert_eq!(
                    a.sides(),
                    b.sides(),
                    "divergent sides (seed {seed}, flip {flip})"
                );
                assert_eq!(sa.cut_after, sb.cut_after);
                assert_eq!(sa.moved, sb.moved);
                assert_eq!(sa.passes, sb.passes);
            }
        }
    }

    #[test]
    fn naive_oracle_matches_with_movable_mask() {
        let g = grid_2d(12, 12);
        let cfg = FmConfig {
            max_passes: 6,
            balance_tol: 0.08,
            move_fraction: 0.5,
        };
        for seed in [2u64, 11, 29] {
            let mut a = noisy_split(&g, 0.25, seed);
            let mut b = a.clone();
            let movable: Vec<bool> = (0..g.n()).map(|v| v % 3 != 0).collect();
            let cut = a.cut(&g);
            let sa = fm_refine(&g, &mut a, Some(&movable), cut, &cfg);
            let sb = naive_fm_refine(&g, &mut b, Some(&movable), &cfg);
            assert_eq!(a.sides(), b.sides(), "divergent sides (seed {seed})");
            assert_eq!(sa.cut_after, sb.cut_after);
            assert_eq!(sa.moved, sb.moved);
        }
    }

    #[test]
    fn naive_never_worsens_cut_or_balance() {
        let g = grid_2d(10, 10);
        let mut bi = noisy_split(&g, 0.3, 5);
        let cfg = FmConfig::default();
        let s = naive_fm_refine(&g, &mut bi, None, &cfg);
        assert!(s.cut_after <= s.cut_before + 1e-9);
        assert!((bi.cut(&g) - s.cut_after).abs() < 1e-9);
        assert!(bi.imbalance(&g) <= cfg.balance_tol + 1e-9);
    }
}
