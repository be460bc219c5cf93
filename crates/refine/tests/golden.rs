//! Golden FM runs, recorded at the commit before `fm_refine` moved
//! from a stamped lazy heap to an addressable one: the final sides, the
//! bits of `cut_after` and `ops`, `moved` and `passes` of three inputs
//! under three configurations each. The `ops` column was recorded again
//! when a pass began to stop once no later prefix could beat its best
//! one: it fell on six rows, and no other column moved.
//!
//! 1. A unit-weight grid, no mask: gains are small integers and tie
//!    everywhere, so the id tie-break decides most pops.
//! 2. A level of a KKT-like graph contracted once, with non-dyadic edge
//!    weights summed by the contraction, refined inside a
//!    `strip_around_separator` mask.
//! 3. A `DeltaOverlay` whose edits patched rows, under a scattered mask.
//!
//! Every input is drawn from splitmix64, so the rows hold under any `rand`.

use sp_coarsen::{contract_with, CoarsenArena, Matching};
use sp_graph::access::{self, GraphAccess};
use sp_graph::gen::grid_2d;
use sp_graph::{csr_from_pairs, Bisection, Graph};
use sp_refine::{fm_refine, strip_around_separator, FmConfig};
use sp_stream::{DeltaOverlay, GraphDelta};
use std::sync::Arc;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

/// `(sides FNV-1a, cut_after bits, ops bits, moved, passes)`.
type Row = (u64, u64, u64, usize, usize);

/// The three configurations every input runs under: plain passes, passes
/// capped at a quarter of the movable set, and no balance slack at all.
fn configs() -> [FmConfig; 3] {
    let plain = FmConfig {
        max_passes: 6,
        ..FmConfig::default()
    };
    [
        plain,
        FmConfig {
            move_fraction: 0.25,
            ..plain
        },
        FmConfig {
            balance_tol: 0.0,
            ..plain
        },
    ]
}

fn rows<G: GraphAccess>(g: &G, start: &Bisection, movable: Option<&[bool]>) -> Vec<Row> {
    configs()
        .iter()
        .map(|cfg| {
            let mut bi = start.clone();
            let st = fm_refine(g, &mut bi, movable, access::cut_of(g, start), cfg);
            let fp = bi.sides().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &s| {
                (h ^ s as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
            (
                fp,
                st.cut_after.to_bits(),
                st.ops.to_bits(),
                st.moved,
                st.passes,
            )
        })
        .collect()
}

/// A vertical split of a `side`-wide grid with one vertex in `1/flip` on
/// the wrong side.
fn noisy_split(n: usize, side: usize, flip: usize, state: &mut u64) -> Bisection {
    Bisection::new(
        (0..n)
            .map(|v| u8::from((v % side >= side / 2) != (below(state, flip) == 0)))
            .collect(),
    )
}

/// A symmetric, non-dyadic weight for the edge `{u, v}`.
fn weight(u: u32, v: u32) -> f64 {
    0.5 + ((u.min(v) * 31 + u.max(v) * 17) % 13) as f64 / 7.0
}

/// `kkt_graph`'s recipe (ring, shortcuts, hubs, a constraint layer) with
/// weighted edges, contracted once along a heaviest-edge matching taken in
/// ascending vertex order; and for each coarse vertex the signed distance
/// of its first fine vertex's bus from a cut of the ring into two arcs.
fn kkt_level() -> (Graph, Vec<f64>) {
    let (n_primal, n_constraints) = (1600usize, 800usize);
    let n = n_primal + n_constraints;
    let mut state = 0x4B4B_7E7Eu64;
    let mut pairs: Vec<(u32, u32)> = (0..n_primal)
        .map(|i| (i as u32, ((i + 1) % n_primal) as u32))
        .collect();
    for _ in 0..n_primal * 3 / 2 {
        let u = below(&mut state, n_primal);
        let v = (u + 2 + below(&mut state, n_primal / 8)) % n_primal;
        pairs.push((u as u32, v as u32));
    }
    for _ in 0..4 {
        let hub = below(&mut state, n_primal);
        for _ in 0..20 + below(&mut state, 40) {
            pairs.push((hub as u32, below(&mut state, n_primal) as u32));
        }
    }
    for c in 0..n_constraints {
        let start = below(&mut state, n_primal);
        for j in 0..2 + below(&mut state, 5) {
            pairs.push(((n_primal + c) as u32, ((start + j) % n_primal) as u32));
        }
    }
    let unit = csr_from_pairs(n, pairs, vec![1.0; n]);
    let ewgt: Vec<f64> = (0..n as u32)
        .flat_map(|v| unit.neighbors_w(v).map(move |(u, k)| k * weight(u, v)))
        .collect();
    let fine = Graph::from_csr(
        unit.xadj().to_vec(),
        unit.adjncy().to_vec(),
        ewgt,
        vec![1.0; n],
    );
    fine.validate().unwrap();

    let mut mate: Vec<u32> = (0..n as u32).collect();
    for v in 0..n as u32 {
        if mate[v as usize] != v {
            continue;
        }
        let mut best: Option<(f64, u32)> = None;
        for (u, w) in fine.neighbors_w(v) {
            if mate[u as usize] == u && best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, u));
            }
        }
        if let Some((_, u)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
    }
    let c = contract_with(&fine, &Matching { mate }, &mut CoarsenArena::new());
    let mut signed = vec![f64::NAN; c.coarse.n()];
    for v in 0..n as u32 {
        let s = &mut signed[c.map[v as usize] as usize];
        if s.is_nan() {
            // A constraint sits at the first bus it touches.
            let bus = if (v as usize) < n_primal {
                v
            } else {
                fine.neighbors(v)[0]
            };
            let d = bus as f64 / n_primal as f64;
            *s = if d < 0.5 {
                0.25 - (d - 0.25).abs()
            } else {
                (d - 0.75).abs() - 0.25
            };
        }
    }
    (c.coarse, signed)
}

#[test]
fn fm_repeats_the_recorded_runs() {
    let mut got = Vec::new();

    // 1. Unit-weight grid, every vertex movable.
    let grid = grid_2d(32, 32);
    let mut state = 0x6121_D001u64;
    let start = noisy_split(grid.n(), 32, 7, &mut state);
    got.extend(rows(&grid, &start, None));

    // 2. A contracted KKT level inside a strip around the separator.
    let (level, signed) = kkt_level();
    let start = Bisection::new(signed.iter().map(|&s| u8::from(s > 0.0)).collect());
    let strip = strip_around_separator(&signed, level.n() / 5);
    let strip_size = strip.iter().filter(|&&b| b).count();
    assert!(
        strip_size < level.n() / 4,
        "strip {strip_size} of {}",
        level.n()
    );
    assert!(level.ewgts().iter().any(|&w| w.fract() != 0.0));
    got.extend(rows(&level, &start, Some(&strip)));

    // 3. An overlay with patched rows and weights, under a scattered mask.
    let base = grid_2d(24, 24);
    let n = base.n();
    let mut ov = DeltaOverlay::new(Arc::new(base), None).unwrap();
    let mut state = 0x0E7A_11A7u64;
    for _ in 0..60 {
        let (u, v) = (below(&mut state, n) as u32, below(&mut state, n) as u32);
        let w = 0.25 + below(&mut state, 11) as f64 / 3.0;
        // Whatever the overlay refuses (a duplicate, a missing edge, a
        // self loop) is simply not part of the stream.
        let _ = ov.apply(&GraphDelta::AddEdge { u, v, w });
        let _ = ov.apply(&GraphDelta::SetVwgt { v: u, w });
        if let Some((x, _)) = ov.neighbors_w(v).next() {
            let _ = ov.apply(&GraphDelta::RemoveEdge { u: v, v: x });
        }
    }
    assert!(ov.patched_vertices() > 100);
    let start = noisy_split(n, 24, 5, &mut state);
    let mask: Vec<bool> = (0..n).map(|_| below(&mut state, 5) != 0).collect();
    got.extend(rows(&ov, &start, Some(&mask)));

    let table: String = got
        .iter()
        .map(|(fp, cut, ops, moved, passes)| {
            format!("    ({fp:#018x}, {cut:#018x}, {ops:#018x}, {moved}, {passes}),\n")
        })
        .collect();
    assert!(got.as_slice() == GOLDEN, "FM now produces:\n{table}");
}

/// Per input, the plain, quarter-capped and zero-slack runs. The last
/// row moves nothing: under zero slack no balanced prefix of its pass
/// lowers the cut, so only its `ops` and the sides it kept are pinned.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (0x8b56523496dbb525, 0x4040000000000000, 0x40d447c000000000, 656, 3),
    (0xe02a0415285b7525, 0x4040000000000000, 0x40d3550000000000, 176, 4),
    (0x8edfb700825dd385, 0x4041000000000000, 0x40c8f20000000000, 140, 2),
    (0x5aeeb6a9e33f3fa2, 0x4082764924924930, 0x40c5e98000000000, 69, 3),
    (0x5aeeb6a9e33f3fa2, 0x4082764924924930, 0x40c0148000000000, 69, 3),
    (0x83da3368112c0a33, 0x4082b9b6db6db6e5, 0x40c60b0000000000, 38, 3),
    (0xb1aad73a79c66bdd, 0x405e800000000005, 0x40bd270000000000, 119, 3),
    (0xb1aad73a79c66bdd, 0x405e800000000005, 0x40b9880000000000, 119, 3),
    (0x2087f0ef6459387e, 0x4077855555555556, 0x409b800000000000, 0, 1),
];
