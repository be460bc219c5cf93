//! The serial baseline's fingerprint — labels, coordinate bits, cut
//! statistics and simulated-time bits of the whole pipeline — pinned for
//! three graphs, so that a change which moves any output bit fails here.
//! `grid:160x140` has 22,400 vertices, above the lattice smoother's work
//! floor, so its finest level runs the pooled passes.
//!
//! The embedding's start, the matchings and the Delaunay points draw from
//! `rand`'s `StdRng`, the workspace's own splitmix64 stream in
//! `offline-stubs/rand`. The first test pins that stream, so that every
//! golden and fingerprint in the workspace rests on one recorded stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use sp_graph::gen::{delaunay_graph, grid_2d};
use sp_graph::Graph;
use sp_verify::Baseline;

#[test]
fn std_rng_stream_is_the_recorded_one() {
    let mut rng = StdRng::seed_from_u64(0);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            0x5d89_faf7_885c_0810,
            0x9b89_248d_3008_3767,
            0xd2c1_3d5b_f7b9_6e17,
            0xb0fe_0476_a494_04df,
        ]
    );
    let mut rng = StdRng::seed_from_u64(0);
    assert_eq!(rng.random_range(0u32..1000), 784);
    assert_eq!(rng.random::<f64>().to_bits(), 0x3fe3_7124_91a6_0106);
    let mut perm: Vec<u32> = (0..16).collect();
    perm.shuffle(&mut rng);
    assert_eq!(perm, [4, 8, 6, 12, 13, 0, 1, 10, 2, 15, 14, 9, 5, 3, 11, 7]);
}

fn assert_pinned(g: &Graph, ranks: usize, want: u64) {
    let got = Baseline::compute(g, ranks).fingerprint;
    assert_eq!(got, want, "fingerprint {got:#018x}, pinned {want:#018x}");
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
