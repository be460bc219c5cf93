//! Delta-chain determinism: compaction is a pure representation change
//! (any interleaving of `rebase()` is fingerprint-invisible), and a
//! mutated graph survives a Chaco round trip bit-exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_graph::gen::grid_2d;
use sp_graph::io::{read_chaco, write_chaco_weighted};
use sp_graph::GraphBuilder;
use sp_stream::{DeltaOverlay, GraphDelta};
use std::sync::Arc;

/// Decode an abstract op tuple into a delta against the current overlay
/// state; returns `None` for ops the validity rules reject (duplicate
/// adds, missing removes, …) so both overlays skip exactly the same ops.
fn decode(ov: &DeltaOverlay, op: u8, a: u32, b: u32, w: f64) -> Option<GraphDelta> {
    let n = ov.n() as u32;
    let (a, b) = (a % n, b % n);
    match op % 3 {
        0 => {
            let d = GraphDelta::AddEdge { u: a, v: b, w };
            (a != b && !ov.neighbors_w(a).any(|(x, _)| x == b)).then_some(d)
        }
        1 => {
            let d = GraphDelta::RemoveEdge { u: a, v: b };
            // Keep the graph from draining: only remove when both
            // endpoints keep at least one neighbour.
            (ov.neighbors_w(a).any(|(x, _)| x == b) && ov.degree(a) > 1 && ov.degree(b) > 1)
                .then_some(d)
        }
        _ => Some(GraphDelta::SetVwgt { v: a, w }),
    }
}

/// Any interleaving of `rebase()` (fold-to-CSR) calls through a delta
/// chain yields bit-identical fingerprints to the never-compacted overlay,
/// and to the always-compacted one, at every step: 256 seeded chains of
/// up to 39 ops.
#[test]
fn rebase_interleaving_is_fingerprint_invisible() {
    for case in 0..256 {
        let rng = &mut StdRng::seed_from_u64(case);
        let base = Arc::new(grid_2d(8, 8));
        let mut never = DeltaOverlay::new(base.clone(), None).unwrap();
        let mut sometimes = DeltaOverlay::new(base.clone(), None).unwrap();
        let mut always = DeltaOverlay::new(base, None).unwrap();
        for step in 0..rng.random_range(1..40) {
            let op = rng.random_range(0u8..3);
            let a = rng.random_range(0u32..64);
            let b = rng.random_range(0u32..64);
            let w = rng.random_range(1u32..64) as f64 / 4.0;
            if let Some(d) = decode(&never, op, a, b, w) {
                for ov in [&mut never, &mut sometimes, &mut always] {
                    ov.apply(&d)
                        .unwrap_or_else(|e| panic!("case {case} step {step}: {e:?}"));
                }
            }
            if rng.random::<bool>() {
                sometimes.rebase();
            }
            always.rebase();
            let fp = never.graph_fingerprint();
            assert_eq!(fp, sometimes.graph_fingerprint(), "case {case} step {step}");
            assert_eq!(fp, always.graph_fingerprint(), "case {case} step {step}");
            assert_eq!(never.m(), always.m(), "case {case} step {step}");
        }
        // The compacted CSR itself is structurally valid and logically
        // identical to the overlay.
        let c = never.compact();
        c.validate().unwrap_or_else(|e| panic!("case {case}: {e}"));
        let fresh = DeltaOverlay::new(Arc::new(c), None).unwrap();
        assert_eq!(
            fresh.graph_fingerprint(),
            never.graph_fingerprint(),
            "case {case}"
        );
    }
}

#[test]
fn mutated_graph_chaco_roundtrip_is_bit_exact() {
    // Build a weighted base, push a chain of mutations through the
    // overlay, fold to CSR, and round-trip through the Chaco format.
    let mut b = GraphBuilder::new(12);
    for i in 0..11u32 {
        b.add_edge(i, i + 1, 1.0 + i as f64 / 8.0);
    }
    b.add_edge(0, 11, 2.5);
    b.set_vwgt(3, 4.25);
    let mut ov = DeltaOverlay::new(Arc::new(b.build()), None).unwrap();
    for d in [
        GraphDelta::AddEdge {
            u: 2,
            v: 9,
            w: 0.375,
        },
        GraphDelta::RemoveEdge { u: 5, v: 6 },
        GraphDelta::SetVwgt { v: 7, w: 1.0 / 3.0 },
        GraphDelta::AddEdge { u: 1, v: 6, w: 7.0 },
    ] {
        ov.apply(&d).unwrap();
    }
    let g = ov.compact();
    g.validate().unwrap();

    let mut buf = Vec::new();
    write_chaco_weighted(&g, &mut buf).unwrap();
    let g2 = read_chaco(buf.as_slice()).unwrap();
    assert_eq!(g.xadj(), g2.xadj());
    assert_eq!(g.adjncy(), g2.adjncy());
    assert_eq!(g.ewgts(), g2.ewgts());
    assert_eq!(g.vwgts(), g2.vwgts());

    // Same logical fingerprint whether we look at the overlay, the
    // compacted CSR, or the graph read back from disk.
    let read_back = DeltaOverlay::new(Arc::new(g2), None).unwrap();
    assert_eq!(read_back.graph_fingerprint(), ov.graph_fingerprint());
}
