//! Golden stream: what a fixed delta stream over a coordinate-free grid
//! produces, step by step, recorded at the commit before `DeltaOverlay`
//! moved from two `BTreeMap`s to dense slots. Without coordinates a full
//! step is an FM sweep from the inherited sides, so no step draws a random
//! number and the rows hold under any `rand`. The simulated times were
//! recorded again when FM began to stop a pass once no later prefix could
//! beat its best one; no partition or cut moved.

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
    (0xb3a463b38b2e006f, 0x4039c00000000000, 0x3ec92d22a2ed2a65, 'i'),
    (0xb3a463b38b2e006f, 0x403a400000000000, 0x3ec96ae01db775f8, 'i'),
    (0xb72af1879e2cb00e, 0x403d800000000000, 0x3eda32dc2051da12, 'i'),
    (0xf5904ae658e11c7e, 0x403f800000000000, 0x3ed9642a2110c6cc, 'i'),
    (0x790a3ea33d9f9117, 0x4040e00000000000, 0x3ed9642a2110c6cc, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3ec9d8ef19feaec7, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3ec8e757928e0c9e, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3ec87ea6f9ff5ff2, 'i'),
    (0x790a3ea33d9f9117, 0x4041c00000000000, 0x3ec828c0be769dc1, 'i'),
    (0x0f47d36cb450aa29, 0x4052e00000000000, 0x3efaa8f8b22de516, 'F'),
    (0x0f47d36cb450aa29, 0x4053900000000000, 0x3eca820c5f33ed18, 'i'),
    (0x0f47d36cb450aa29, 0x4053900000000000, 0x3ec9454b63aba103, 'i'),
    (0x0f47d36cb450aa29, 0x4053b00000000000, 0x3eca774f97c2d4d1, 'i'),
    (0x0f47d36cb450aa29, 0x4053b00000000000, 0x3ec9f117dabd2565, 'i'),
    (0x447006b718152186, 0x4054800000000000, 0x3ed9f9257051f79a, 'i'),
    (0x447006b718152186, 0x4055000000000000, 0x3ecc3fa6b4095c75, 'i'),
    (0x447006b718152186, 0x4055000000000000, 0x3ec9ab4cca5e079d, 'i'),
    (0x0f47d36cb450aa29, 0x4055100000000000, 0x3eda861329fe5632, 'i'),
    (0x0f47d36cb450aa29, 0x4055100000000000, 0x3ecb8e7bd93f4bf0, 'i'),
    (0x810305f3f1df309e, 0x4060d00000000000, 0x3f02aba93ba3194a, 'F'),
    (0x810305f3f1df309e, 0x4060d00000000000, 0x3ecb46019703e817, 'i'),
    (0x810305f3f1df309e, 0x4061000000000000, 0x3ecc6d4903aa039f, 'i'),
    (0xe1eeaa592f4860c0, 0x4061300000000000, 0x3edca45081cda006, 'i'),
    (0xe1eeaa592f4860c0, 0x4061900000000000, 0x3ecadd50fe753b6c, 'i'),
    (0xbb3580bf97d815c8, 0x4061600000000000, 0x3ee4fcbc53add20b, 'i'),
    (0x631444e302061119, 0x4061a00000000000, 0x3edaf42226458f00, 'i'),
    (0x631444e302061119, 0x4062900000000000, 0x3ece029f6c9757f6, 'i'),
    (0xb8f767e8897aa7e4, 0x4062900000000000, 0x3edd87247702c0d0, 'i'),
    (0x60f01f15a8384e53, 0x4062f80000000000, 0x3edc9c42ec38cdd2, 'i'),
    (0x3b0179b86e83cd57, 0x4068000000000000, 0x3f03889df3c660cc, 'F'),
    (0x3fae66c07da7c927, 0x4068080000000000, 0x3edccf439f920120, 'i'),
    (0x3fae66c07da7c927, 0x4068080000000000, 0x3ece029f6c9757f6, 'i'),
    (0x3fae66c07da7c927, 0x4068500000000000, 0x3ecde7c779fc9b46, 'i'),
    (0x3fae66c07da7c927, 0x4068f00000000000, 0x3ececbf3081fdf18, 'i'),
    (0x3fae66c07da7c927, 0x4068f00000000000, 0x3ecc4d12ad56bacd, 'i'),
    (0x48d41957afb9ecb0, 0x4069500000000000, 0x3edd60382408c8d2, 'i'),
    (0x48d41957afb9ecb0, 0x4069500000000000, 0x3eca4f0babdab9ca, 'i'),
    (0x48d41957afb9ecb0, 0x4069600000000000, 0x3ece7b6b304fa90a, 'i'),
    (0x48d41957afb9ecb0, 0x4069600000000000, 0x3ecc1a11f9fd8780, 'i'),
    (0x7837ed91e7bef37b, 0x406cf00000000000, 0x3f04381b4f66c585, 'F'),
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
