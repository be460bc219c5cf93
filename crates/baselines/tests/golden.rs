//! Golden multilevel bisections, recorded at the commit before the
//! baseline moved from the `GraphBuilder` contraction and the arena-less
//! matcher onto the arena entry points ScalaPart coarsens with. Label
//! fingerprint, cut, level count, coarsest size and the bits of the
//! simulated time for both presets on a hub graph (whose coarsening ends
//! on the 0.95 stall break, above `coarsest`) and on a grid (which
//! coarsens to the target), on 1, 9 and 64 ranks.
//!
//! `multilevel_bisect` and `kkt_graph` draw from `rand`'s `StdRng`, so the
//! rows hold for one `rand` stream: that of `offline-stubs/rand`, the one
//! every number in this repository is measured under. Under another
//! stream the rows are not compared and only repeatability is checked.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_baselines::{multilevel_bisect, MultilevelConfig};
use sp_graph::gen::{grid_2d, kkt_graph};
use sp_graph::Graph;
use sp_machine::{CostModel, Machine};

/// First word `StdRng::seed_from_u64(0)` yields under the recorded stream.
const RECORDED_STREAM: u64 = 0x5d89_faf7_885c_0810;

/// `(label FNV-1a, cut, levels, coarsest_n, elapsed bits)`.
type Row = (u64, usize, usize, usize, u64);

fn run(g: &Graph, p: usize, cfg: &MultilevelConfig) -> Row {
    let mut machine = Machine::new(p, CostModel::qdr_infiniband());
    let (bi, stats) = multilevel_bisect(g, &mut machine, cfg);
    bi.validate(g).unwrap();
    let fp = bi.sides().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &s| {
        (h ^ s as u64).wrapping_mul(0x0000_0100_0000_01B3)
    });
    (
        fp,
        bi.cut_edges(g),
        stats.levels,
        stats.coarsest_n,
        machine.elapsed().to_bits(),
    )
}

#[test]
fn both_presets_match_the_goldens_on_1_9_and_64_ranks() {
    let kkt = kkt_graph(8000, 4000, 6, &mut StdRng::seed_from_u64(11));
    let grid = grid_2d(48, 40);
    let recorded = StdRng::seed_from_u64(0).random::<u64>() == RECORDED_STREAM;
    if !recorded {
        eprintln!("another rand stream than the recorded one: goldens not compared");
    }
    let mut golden = GOLDEN.iter();
    for (name, g) in [("kkt", &kkt), ("grid", &grid)] {
        for (preset, cfg) in [
            ("parmetis", MultilevelConfig::parmetis_like(5)),
            ("ptscotch", MultilevelConfig::ptscotch_like(5)),
        ] {
            for p in [1usize, 9, 64] {
                let got = run(g, p, &cfg);
                if name == "kkt" {
                    assert!(got.3 > cfg.coarsest, "{name} p={p}: no stall break");
                } else {
                    assert!(got.3 <= cfg.coarsest, "{name} p={p}: stalled");
                }
                let want = golden.next().expect("a golden row per case");
                if recorded {
                    assert_eq!(&got, want, "{name} {preset} p={p}: got {got:#x?}");
                } else {
                    assert_eq!(got, run(g, p, &cfg), "{name} {preset} p={p} repeats");
                }
            }
        }
    }
}

#[rustfmt::skip]
const GOLDEN: [Row; 12] = [
    (0x7c2b88ba1afd9bc4, 3198, 15, 321, 0x3f73d622b6e42d3c), // kkt parmetis p=1
    (0xa8fb19455fcd1c35, 3191, 15, 277, 0x3f73bdfcde9bbab3), // kkt parmetis p=9
    (0xdc56d119308aad12, 3183, 15, 333, 0x3f67847900c7d12f), // kkt parmetis p=64
    (0xe30ef8058ef1d92f, 3104, 15, 321, 0x3f849b12eb6a1bd4), // kkt ptscotch p=1
    (0x0a326c6cf8914c93, 4344, 15, 277, 0x3f82c09fc79927cf), // kkt ptscotch p=9
    (0x9cedb4873f353530, 3201, 15, 333, 0x3f8bbcdbbb522626), // kkt ptscotch p=64
    (0x3c512d976dffd5d5, 68, 5, 179, 0x3f276f1cee4d5017), // grid parmetis p=1
    (0x099dafd16580f43a, 45, 5, 187, 0x3f31dee659a3d6b7), // grid parmetis p=9
    (0x10c3b47912438159, 68, 5, 188, 0x3f31852065d11530), // grid parmetis p=64
    (0xfb2a67898c3e79c7, 56, 5, 179, 0x3f327d45a5fc7e6c), // grid ptscotch p=1
    (0xe76b111b29291a8d, 40, 5, 187, 0x3f45992855cc6ed4), // grid ptscotch p=9
    (0x21a2c25f3b76aae5, 48, 5, 188, 0x3f45f613edf38e01), // grid ptscotch p=64
];
