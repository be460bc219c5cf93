//! Integration of strip selection and FM: the paper's strip refinement
//! pattern end-to-end on geometric separators.

use sp_graph::gen::grid_2d;
use sp_graph::Bisection;
use sp_refine::{band_by_hops, fm_refine, strip_around_separator, FmConfig};

/// A grid with a slightly wobbly vertical separator described by a signed
/// distance function, mimicking what the geometric partitioner hands over.
fn wobbly_setup(side: usize) -> (sp_graph::Graph, Vec<f64>, Bisection) {
    let g = grid_2d(side, side);
    let signed: Vec<f64> = (0..side * side)
        .map(|v| {
            let (r, c) = (v / side, v % side);
            let wobble = ((r as f64) * 0.7).sin() * 1.5;
            c as f64 - (side as f64 / 2.0 + wobble)
        })
        .collect();
    let bi = Bisection::new(signed.iter().map(|&s| u8::from(s > 0.0)).collect());
    (g, signed, bi)
}

#[test]
fn strip_fm_straightens_a_wobbly_cut() {
    let (g, signed, mut bi) = wobbly_setup(24);
    let before = bi.cut_edges(&g);
    let strip = strip_around_separator(&signed, 6 * before);
    let cut = bi.cut(&g);
    let st = fm_refine(&g, &mut bi, Some(&strip), cut, &FmConfig::default());
    assert!(st.cut_after <= before as f64 + 1e-9);
    // The wobbly cut is longer than a straight one (24); FM inside the
    // strip should recover most of the slack.
    assert!(
        bi.cut_edges(&g) < before,
        "no improvement: {} -> {}",
        before,
        bi.cut_edges(&g)
    );
}

#[test]
fn strip_contains_every_boundary_vertex() {
    let (g, signed, bi) = wobbly_setup(20);
    let cut = bi.cut_edges(&g);
    let strip = strip_around_separator(&signed, 6 * cut);
    for v in bi.boundary(&g) {
        assert!(strip[v as usize], "boundary vertex {v} outside the strip");
    }
}

#[test]
fn strip_and_band_select_similar_regions_near_the_cut() {
    // The paper contrasts its coordinate strip with Pt-Scotch's hop band;
    // on a mesh with consistent geometry they should overlap heavily.
    let (g, signed, bi) = wobbly_setup(20);
    let cut = bi.cut_edges(&g);
    let strip = strip_around_separator(&signed, 4 * cut);
    let (band, _) = band_by_hops(&g, &bi, 1);
    let overlap = strip.iter().zip(&band).filter(|&(&s, &b)| s && b).count();
    let band_size = band.iter().filter(|&&b| b).count();
    assert!(
        overlap * 10 >= band_size * 7,
        "strip covers only {overlap} of {band_size} band vertices"
    );
}

#[test]
fn larger_strips_refine_at_least_as_well() {
    let (g, signed, _) = wobbly_setup(28);
    let mut cuts = Vec::new();
    for factor in [2usize, 8] {
        let mut bi = Bisection::new(
            signed
                .iter()
                .map(|&s| u8::from(s > 0.0))
                .collect::<Vec<_>>(),
        );
        let before = bi.cut_edges(&g);
        let strip = strip_around_separator(&signed, factor * before);
        let cut = bi.cut(&g);
        fm_refine(
            &g,
            &mut bi,
            Some(&strip),
            cut,
            &FmConfig {
                max_passes: 6,
                ..Default::default()
            },
        );
        cuts.push(bi.cut_edges(&g));
    }
    assert!(cuts[1] <= cuts[0], "wider strip worse: {:?}", cuts);
}
