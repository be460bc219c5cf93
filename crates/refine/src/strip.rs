//! Coordinate-strip selection around a geometric separator (§3, Fig 2).
//!
//! Instead of selecting a band by graph hops from the separator (as
//! Pt-Scotch does), ScalaPart uses the coordinate information it already
//! has: the strip is the set of vertices whose signed distance from the
//! separating circle is smallest in magnitude. The paper sizes the strip at
//! a small multiple of the separator size (Fig 2 shows 5.6×).
//!
//! [`strip_refine`] is the whole of that stage — size the strip, mask it,
//! run FM on it, charge the machine — and the only spelling of it: the
//! ScalaPart pipeline, SP-PG7-NL and `sp-stream`'s full step all call it.

use crate::fm::{fm_refine, FmConfig, FmStats};
use sp_graph::{Bisection, Graph};
use sp_machine::Machine;

/// What [`strip_refine`] did.
#[derive(Clone, Copy, Debug)]
pub struct StripRefinement {
    /// Vertices in the strip (ties included, so ≥ the target).
    pub strip_size: usize,
    pub stats: FmStats,
}

/// Strip refinement of a geometric bisection: FM restricted to the
/// `cut · strip_factor` vertices nearest the separator (at least 4, at
/// most all), by the `signed` distances the separator left behind, with
/// the run charged to `machine` ([`FmStats::charge`]). `None`, and nothing
/// charged, when the stage is off (`strip_factor` ≤ 0) or there is no
/// separator to refine (`cut` = 0).
pub fn strip_refine(
    g: &Graph,
    bi: &mut Bisection,
    signed: &[f64],
    cut: usize,
    strip_factor: f64,
    fm: &FmConfig,
    machine: &mut Machine,
) -> Option<StripRefinement> {
    if strip_factor <= 0.0 || cut == 0 {
        return None;
    }
    let target = ((cut as f64 * strip_factor) as usize).clamp(4, g.n());
    let movable = strip_around_separator(signed, target);
    let strip_size = movable.iter().filter(|&&b| b).count();
    let stats = fm_refine(g, bi, Some(&movable), fm);
    stats.charge(machine);
    Some(StripRefinement { strip_size, stats })
}

/// Movable mask containing the `target` vertices closest to the separator
/// (by |signed distance|). Always includes every vertex with signed
/// distance of minimal magnitude ties; the mask size is ≥ min(target, n).
pub fn strip_around_separator(signed: &[f64], target: usize) -> Vec<bool> {
    let n = signed.len();
    let mut mask = vec![false; n];
    if n == 0 {
        return mask;
    }
    let target = target.clamp(1, n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.select_nth_unstable_by(target - 1, |&a, &b| {
        signed[a as usize]
            .abs()
            .partial_cmp(&signed[b as usize].abs())
            .unwrap()
    });
    let width = signed[order[target - 1] as usize].abs();
    for (v, &s) in signed.iter().enumerate() {
        if s.abs() <= width {
            mask[v] = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_selects_nearest_vertices() {
        let signed: Vec<f64> = vec![-3.0, -1.0, -0.1, 0.2, 1.5, 4.0];
        let mask = strip_around_separator(&signed, 2);
        assert_eq!(mask, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn strip_includes_ties() {
        let signed = vec![-1.0, 1.0, 1.0, 5.0];
        let mask = strip_around_separator(&signed, 2);
        // Width is 1.0 and three vertices tie at |1.0|.
        assert_eq!(mask.iter().filter(|&&b| b).count(), 3);
    }

    #[test]
    fn target_clamps_to_n() {
        let signed = vec![0.5, -0.5];
        let mask = strip_around_separator(&signed, 100);
        assert!(mask.iter().all(|&b| b));
        assert!(strip_around_separator(&[], 5).is_empty());
    }

    #[test]
    fn strip_grows_with_target() {
        let signed: Vec<f64> = (0..100).map(|i| i as f64 - 50.0).collect();
        let small = strip_around_separator(&signed, 10);
        let large = strip_around_separator(&signed, 40);
        let cs = small.iter().filter(|&&b| b).count();
        let cl = large.iter().filter(|&&b| b).count();
        assert!(cl > cs);
        // Nesting: everything in the small strip is in the large one.
        for (s, l) in small.iter().zip(&large) {
            assert!(!s || *l);
        }
    }
}
