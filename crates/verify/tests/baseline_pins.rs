//! The serial baseline's fingerprint — labels, coordinate bits, cut
//! statistics and simulated-time bits of the whole pipeline — pinned for
//! three graphs, so that a change which moves any output bit fails here.
//! `grid:160x140` has 22,400 vertices, above the lattice smoother's work
//! floor, so its finest level runs the pooled passes.
//!
//! The embedding's start, the matchings and the Delaunay points draw from
//! `rand`'s `StdRng`, so the pins hold for one `rand` stream: that of
//! `offline-stubs/rand`, the one every number in this repository is
//! measured under. Under another stream only repeatability is checked.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_graph::gen::{delaunay_graph, grid_2d};
use sp_graph::Graph;
use sp_verify::Baseline;

/// First word `StdRng::seed_from_u64(0)` yields under the recorded stream.
const RECORDED_STREAM: u64 = 0x5d89_faf7_885c_0810;

fn assert_pinned(g: &Graph, ranks: usize, want: u64) {
    let got = Baseline::compute(g, ranks).fingerprint;
    if StdRng::seed_from_u64(0).random::<u64>() == RECORDED_STREAM {
        assert_eq!(got, want, "fingerprint {got:#018x}, pinned {want:#018x}");
    } else {
        eprintln!("another rand stream than the recorded one: pins not compared");
        assert_eq!(got, Baseline::compute(g, ranks).fingerprint);
    }
}

#[test]
fn grid_48x48_on_16_ranks() {
    assert_pinned(&grid_2d(48, 48), 16, 0x1a82_64c4_fbd6_c135);
}

#[test]
fn delaunay_2000_on_9_ranks() {
    let (g, _) = delaunay_graph(2000, &mut StdRng::seed_from_u64(0xDE1A));
    assert_pinned(&g, 9, 0x3542_fd4f_5530_e21e);
}

#[test]
fn grid_160x140_on_64_ranks() {
    assert_pinned(&grid_2d(160, 140), 64, 0x4611_df2a_f8d7_c5d2);
}
