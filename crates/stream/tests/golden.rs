//! Golden stream: what a fixed delta stream over a coordinate-free grid
//! produces, step by step, recorded at the commit before `DeltaOverlay`
//! moved from two `BTreeMap`s to dense slots. Without coordinates a full
//! step is an FM sweep from the inherited sides, so no step draws a random
//! number and the rows hold under any `rand`.

use sp_graph::gen::grid_2d;
use sp_stream::{
    DeltaOverlay, GraphDelta, IncrementalRepartitioner, StepMode, StepReport, StreamConfig,
};
use std::sync::Arc;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next delta valid against `ov`: edges added and removed, vertex
/// weights set, all weights in quarter steps.
fn next_delta(ov: &DeltaOverlay, state: &mut u64) -> GraphDelta {
    let n = ov.n() as u64;
    loop {
        let r = splitmix64(state);
        let a = ((r >> 8) % n) as u32;
        let b = ((r >> 34) % n) as u32;
        let mag = ((r >> 20) & 0xF) as f64;
        let adjacent = ov.neighbors_w(a).any(|(x, _)| x == b);
        match r % 3 {
            0 if a != b && !adjacent => {
                return GraphDelta::AddEdge {
                    u: a,
                    v: b,
                    w: 0.25 + mag / 4.0,
                }
            }
            1 if adjacent && ov.degree(a) > 1 && ov.degree(b) > 1 => {
                return GraphDelta::RemoveEdge { u: a, v: b }
            }
            2 => {
                return GraphDelta::SetVwgt {
                    v: a,
                    w: 0.5 + mag / 4.0,
                }
            }
            _ => {}
        }
    }
}

/// `(partition_fp, cut_after bits, sim_time bits, mode)`, the bootstrap
/// first. Every tenth batch is large enough to force a full step.
#[rustfmt::skip]
const GOLDEN: &[(u64, u64, u64, char)] = &[
    (0xb3a463b38b2e006f, 0x4038000000000000, 0x3ee10cc2b1150b55, 'F'),
    (0xb3a463b38b2e006f, 0x4039c00000000000, 0x3eca9785ee161da4, 'i'),
    (0xb3a463b38b2e006f, 0x403a400000000000, 0x3ecc653b6e15316a, 'i'),
    (0xb72af1879e2cb00e, 0x403d800000000000, 0x3edc628c3c38eb5a, 'i'),
    (0xf5904ae658e11c7e, 0x403f800000000000, 0x3edba953cbda08a0, 'i'),
    (0x790a3ea33d9f9117, 0x4040e00000000000, 0x3edbf9dba3aa3eae, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3ecc7556993ed5d4, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3ecabd1aa821f299, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3eca9785ee161da4, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3ec94aa9c7642d26, 'i'),
    (0x0f47d36cb450aa29, 0x4052e00000000000, 0x3efacd35d34b9703, 'F'),
    (0x0f47d36cb450aa29, 0x4053900000000000, 0x3eccb31414092167, 'i'),
    (0x0f47d36cb450aa29, 0x4053900000000000, 0x3eca84bb91103329, 'i'),
    (0x0f47d36cb450aa29, 0x4053b00000000000, 0x3ecc57cf74c7d313, 'i'),
    (0x0f47d36cb450aa29, 0x4053b00000000000, 0x3eccd5f99c38b04b, 'i'),
    (0x447006b718152186, 0x4054800000000000, 0x3edca5a81abbc310, 'i'),
    (0x447006b718152186, 0x4055000000000000, 0x3ece98f254c6abcc, 'i'),
    (0x447006b718152186, 0x4055000000000000, 0x3ec9de4d7db73aea, 'i'),
    (0x0f47d36cb450aa29, 0x4055100000000000, 0x3eddacb9310e95c6, 'i'),
    (0x0f47d36cb450aa29, 0x4055100000000000, 0x3ece283426a32cec, 'i'),
    (0x810305f3f1df309e, 0x4060d00000000000, 0x3f02b234452c0414, 'F'),
    (0x810305f3f1df309e, 0x4060d00000000000, 0x3ecd5423c3a98d82, 'i'),
    (0x810305f3f1df309e, 0x4061000000000000, 0x3ecef99557c08642, 'i'),
    (0xe1eeaa592f4860c0, 0x4061300000000000, 0x3edf5f96be72ecdc, 'i'),
    (0xe1eeaa592f4860c0, 0x4061900000000000, 0x3ecdbcd45c383a2e, 'i'),
    (0xbb3580bf97d815c8, 0x4061600000000000, 0x3ee694c1ee776c74, 'i'),
    (0x631444e302061119, 0x4061a00000000000, 0x3edd4ec55ff10160, 'i'),
    (0x631444e302061119, 0x4062900000000000, 0x3ed0ec8c5ac1c283, 'i'),
    (0xb8f767e8897aa7e4, 0x4062900000000000, 0x3edf34a3a0ae8bc4, 'i'),
    (0x60f01f15a8384e53, 0x4062f80000000000, 0x3ee05b97d64afad0, 'i'),
    (0x3b0179b86e83cd57, 0x4068000000000000, 0x3f038e523dba75b1, 'F'),
    (0x3fae66c07da7c927, 0x4068080000000000, 0x3ee0187bf7c8231a, 'i'),
    (0x3fae66c07da7c927, 0x4068080000000000, 0x3ed0c1993cfd616a, 'i'),
    (0x3fae66c07da7c927, 0x4068500000000000, 0x3ed05b97d64afad0, 'i'),
    (0x3fae66c07da7c927, 0x4068f00000000000, 0x3ed143ca2f38a7bc, 'i'),
    (0x3fae66c07da7c927, 0x4068f00000000000, 0x3ecefc44899ccc54, 'i'),
    (0x48d41957afb9ecb0, 0x4069500000000000, 0x3edf9eabd22b5b78, 'i'),
    (0x48d41957afb9ecb0, 0x4069500000000000, 0x3ecc57cf74c7d313, 'i'),
    (0x48d41957afb9ecb0, 0x4069600000000000, 0x3ed0f1eabe7a4ea6, 'i'),
    (0x48d41957afb9ecb0, 0x4069600000000000, 0x3ecf5a385aba60ba, 'i'),
    (0x7837ed91e7bef37b, 0x406cf00000000000, 0x3f043f7d18848636, 'F'),
];

#[test]
fn coordinate_free_grid_stream_repeats_the_recorded_steps() {
    let base = Arc::new(grid_2d(24, 24));
    let cfg = StreamConfig {
        ranks: 4,
        ..StreamConfig::default()
    };
    let mut mirror = DeltaOverlay::new(base.clone(), None).unwrap();
    let (mut rp, boot) = IncrementalRepartitioner::new(DeltaOverlay::new(base, None).unwrap(), cfg);
    let row = |r: &StepReport| {
        let mode = match r.mode {
            StepMode::Incremental => 'i',
            StepMode::Full => 'F',
        };
        (
            r.partition_fp,
            r.cut_after.to_bits(),
            r.sim_time.to_bits(),
            mode,
        )
    };
    let mut got = vec![row(&boot)];
    let mut state = 0x60_1DE2u64;
    for step in 0..40 {
        let len = if step % 10 == 9 { 120 } else { 4 };
        let batch: Vec<GraphDelta> = (0..len)
            .map(|_| {
                let d = next_delta(&mirror, &mut state);
                mirror.apply(&d).unwrap();
                d
            })
            .collect();
        got.push(row(&rp.step(&batch).unwrap()));
    }
    let table: String = got
        .iter()
        .map(|(fp, cut, sim, mode)| {
            format!("    ({fp:#018x}, {cut:#018x}, {sim:#018x}, '{mode}'),\n")
        })
        .collect();
    assert!(
        got.as_slice() == GOLDEN,
        "the stream now produces:\n{table}"
    );
    assert_eq!(rp.overlay().graph_fingerprint(), mirror.graph_fingerprint());
}
