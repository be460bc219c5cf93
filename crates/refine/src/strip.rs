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

/// The strip's size as a multiple of the separator's: ScalaPart's default
/// and the one `sp-stream`'s full step uses (Fig 2 shows 5.6×).
pub const STRIP_FACTOR: f64 = 6.0;

/// The FM settings of ScalaPart's strip refinement, which `sp-stream`'s
/// localized and full steps share.
pub const STRIP_FM: FmConfig = FmConfig {
    max_passes: 4,
    balance_tol: 0.08,
    move_fraction: 1.0,
};

/// What [`strip_refine`] did.
#[derive(Clone, Copy, Debug)]
pub struct StripRefinement {
    /// Vertices in the strip (ties included, so ≥ the target).
    pub strip_size: usize,
    /// Unweighted cut of the refined bisection.
    pub cut: usize,
    pub stats: FmStats,
}

/// Strip refinement of a geometric bisection: FM restricted to the
/// `cut · strip_factor` vertices nearest the separator (at least 4, at
/// most all), by the `signed` distances the separator left behind, with
/// the run charged to `machine` ([`FmStats::charge`]). `None`, and nothing
/// charged, when the stage is off (`strip_factor` ≤ 0) or there is no
/// separator to refine (`cut` = 0).
///
/// `cut` is `bi`'s cut on entry as `(edges, weight)`, both exact: the
/// unweighted count, and the weighted sum with the bits of
/// [`cut_of`](sp_graph::access::cut_of), which FM starts from. Every
/// caller passes the geometric partitioner's `cut` and `weighted_cut`,
/// which are. The refined cut is then worked out from the strip vertices
/// FM left on the other side (`moved_cut`), not by a scan of the graph.
pub fn strip_refine(
    g: &Graph,
    bi: &mut Bisection,
    signed: &[f64],
    (cut, weighted_cut): (usize, f64),
    strip_factor: f64,
    fm: &FmConfig,
    machine: &mut Machine,
) -> Option<StripRefinement> {
    if strip_factor <= 0.0 || cut == 0 {
        return None;
    }
    let target = ((cut as f64 * strip_factor) as usize).max(4).min(g.n());
    let mut movable = strip_around_separator(signed, target);
    // The strip in ascending id, and its sides before FM.
    let strip: Vec<u32> = (0..g.n() as u32).filter(|&v| movable[v as usize]).collect();
    let before: Vec<u8> = strip.iter().map(|&v| bi.side(v)).collect();
    let stats = fm_refine(g, bi, Some(&movable), weighted_cut, fm);
    stats.charge(machine);
    let cut = moved_cut(g, bi, &strip, &before, &mut movable, cut);
    debug_assert_eq!(cut, bi.cut_edges(g));
    Some(StripRefinement {
        strip_size: strip.len(),
        cut,
        stats,
    })
}

/// The unweighted cut of `bi`, given that it was `cut` when the `strip`
/// vertices were on the sides `before` and no other vertex has moved
/// since. `mask` is the strip's movable mask on entry and marks the
/// vertices that changed side on return.
///
/// Only an edge with an end that changed side can have changed whether it
/// crosses, and if exactly one end changed, it crosses now exactly when it
/// did not before. So each such edge, met once from the end that moved,
/// adds one if it crosses now and takes one away if it does not. An edge
/// whose ends both moved crosses as it did (as does a self-loop, which
/// never crosses), so it is skipped. The cost is the degree of the
/// vertices that moved.
fn moved_cut(
    g: &Graph,
    bi: &Bisection,
    strip: &[u32],
    before: &[u8],
    mask: &mut [bool],
    cut: usize,
) -> usize {
    for (&v, &was) in strip.iter().zip(before) {
        mask[v as usize] = bi.side(v) != was;
    }
    let (mut gained, mut lost) = (0, 0);
    for &v in strip.iter().filter(|&&v| mask[v as usize]) {
        let sv = bi.side(v);
        for &u in g.neighbors(v) {
            if mask[u as usize] {
                continue;
            }
            if bi.side(u) != sv {
                gained += 1;
            } else {
                lost += 1;
            }
        }
    }
    cut + gained - lost
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
    // The `target`-th smallest magnitude is one value whichever vertex
    // holds it, so selecting among the magnitudes alone gives the width.
    let mut magnitudes: Vec<f64> = signed.iter().map(|s| s.abs()).collect();
    let (_, &mut width, _) =
        magnitudes.select_nth_unstable_by(target - 1, |a, b| a.partial_cmp(b).unwrap());
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};
    use sp_machine::CostModel;

    #[test]
    fn the_refined_cut_is_the_count_of_the_refined_sides() {
        let mut rng = StdRng::seed_from_u64(0x5719);
        let plain = FmConfig {
            max_passes: 6,
            ..FmConfig::default()
        };
        let configs = [
            plain,
            FmConfig {
                balance_tol: 0.0,
                ..plain
            },
            FmConfig {
                move_fraction: 0.25,
                ..plain
            },
        ];
        let mut inputs = vec![
            (grid_2d(20, 20), grid_2d_coords(20, 20)),
            (grid_2d(33, 31), grid_2d_coords(33, 31)),
        ];
        inputs.push(delaunay_graph(600, &mut rng));
        inputs.push(delaunay_graph(1500, &mut rng));
        // Edges whose two ends both changed side: the case the count skips.
        let mut both_moved = 0;
        for (g, coords) in &inputs {
            for fm in &configs {
                for _ in 0..3 {
                    // A wobbly separator with ragged sides near it, so that
                    // FM moves whole clumps.
                    let signed: Vec<f64> = coords
                        .iter()
                        .map(|c| {
                            c.x - 0.5 - 0.08 * (9.0 * c.y).sin() + rng.random_range(-0.05..0.05)
                        })
                        .collect();
                    let start = Bisection::new(signed.iter().map(|&s| u8::from(s > 0.0)).collect());
                    let mut bi = start.clone();
                    let cut = (bi.cut_edges(g), bi.cut(g));
                    let mut m = Machine::new(4, CostModel::qdr_infiniband());
                    let r = strip_refine(g, &mut bi, &signed, cut, 6.0, fm, &mut m).unwrap();
                    assert_eq!(r.cut, bi.cut_edges(g), "n={} {fm:?}", g.n());
                    let moved = |v: u32| start.side(v) != bi.side(v);
                    both_moved += (0..g.n() as u32)
                        .filter(|&v| moved(v))
                        .map(|v| {
                            g.neighbors(v)
                                .iter()
                                .filter(|&&u| u > v && moved(u))
                                .count()
                        })
                        .sum::<usize>();
                }
            }
        }
        assert!(both_moved > 0, "no edge had both ends moved");
    }

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
