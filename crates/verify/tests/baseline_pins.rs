//! The serial baseline's fingerprint — labels, coordinate bits, cut
//! statistics and simulated-time bits of the whole pipeline — pinned for
//! three graphs, so that a change which moves any output bit fails here.
//! `grid:160x140` has 22,400 vertices, above the lattice smoother's work
//! floor, so its finest level runs the pooled passes. The incremental
//! stage's campaign fingerprint — each stream step's partition, cut and
//! simulated-time bits — is pinned for one small campaign too.
//!
//! The embedding's start, the matchings and the Delaunay points draw from
//! `rand`'s `StdRng`, the workspace's own splitmix64 stream in
//! `offline-stubs/rand`. The first test pins that stream, so that every
//! golden and fingerprint in the workspace rests on one recorded stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};
use sp_graph::Graph;
use sp_verify::{run_incremental_campaign, Baseline, FuzzConfig, IncrementalFuzzConfig};

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
    assert_pinned(&grid_2d(48, 48), 16, 0x7ad8_3c12_8ed7_e06b);
}

#[test]
fn delaunay_2000_on_9_ranks() {
    let (g, _) = delaunay_graph(2000, &mut StdRng::seed_from_u64(0xDE1A));
    assert_pinned(&g, 9, 0x1b2e_81d1_815c_e850);
}

#[test]
fn grid_160x140_on_64_ranks() {
    assert_pinned(&grid_2d(160, 140), 64, 0xf0bd_0f83_87c3_06f3);
}

/// `verify --self-test`'s incremental stage: `grid:48x48` with its
/// coordinates, the default streams and steps, the fuzz master seed.
#[test]
fn incremental_campaign_of_the_self_test() {
    let cfg = IncrementalFuzzConfig {
        seed: FuzzConfig::default().master_seed,
        ..IncrementalFuzzConfig::default()
    };
    let report = run_incremental_campaign(&grid_2d(48, 48), Some(&grid_2d_coords(48, 48)), &cfg);
    assert!(report.ok(), "{}", report.summary);
    let got = report.summary.rsplit_once("fingerprint ").map(|(_, fp)| fp);
    assert_eq!(got, Some("0x2345bc1a3e87bfe1"), "{}", report.summary);
}
