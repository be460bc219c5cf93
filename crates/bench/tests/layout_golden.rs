//! Golden layout of a hub graph: `force_layout`'s coordinate bits and the
//! bits of the op count it returns, recorded at the commit before its
//! per-vertex map moved onto `sp_machine::pool`, and demanded again under
//! every host width. The fold over vertices is one ascending pass whatever
//! computed them, so neither may move.

#[path = "support/hub_graph.rs"]
mod hub_graph;

use sp_embed::{force_layout, ForceParams};
use sp_geometry::Point2;

fn fnv(coords: &[Point2]) -> u64 {
    coords
        .iter()
        .flat_map(|c| [c.x.to_bits(), c.y.to_bits()])
        .fold(0xcbf2_9ce4_8422_2325u64, |h, bits| {
            (h ^ bits).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

#[test]
fn hub_layout_bits_match_the_sequential_golden_on_every_width() {
    let g = hub_graph::hub_graph();
    assert!((3000..4000).contains(&g.n()), "n {}", g.n());
    assert!(g.vwgts().iter().any(|&w| w != 1.0), "unit vertex weights");
    assert!(
        (0..g.n() as u32).any(|v| g.neighbors_w(v).any(|(_, w)| w != 1.0)),
        "unit edge weights"
    );
    assert!(
        (0..g.n() as u32).any(|v| g.degree(v) > 200),
        "no hub survived the contraction"
    );
    let params = ForceParams::for_domain(0.2, g.n() as f64, g.n());
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            // From the random start with the sequential embedder's θ, then
            // on from there with the pipeline's.
            let mut coords = hub_graph::start(g.n());
            let legs = [(0.85, 30, 0.9, 0.96), (1.1, 20, 0.3, 0.9)];
            for ((theta, iters, step0, t), golden) in legs.into_iter().zip(GOLDEN) {
                let ops = force_layout(&g, &mut coords, &params, theta, iters, step0, t);
                let got = (ops.to_bits(), fnv(&coords));
                assert_eq!(
                    got, golden,
                    "θ {theta} on {threads} threads: ops {ops}, got {got:#018x?}"
                );
            }
        });
    }
}

/// `(op count bits, FNV-1a of the coordinate bits)` after each leg.
#[rustfmt::skip]
const GOLDEN: [(u64, u64); 2] = [
    (0x4170_30e7_2000_0000, 0x04a7_3cad_1b3d_37a3),
    (0x415f_bcab_4000_0000, 0xed9e_554f_c126_c06b),
];
