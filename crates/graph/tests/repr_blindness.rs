//! Representation blindness (satellite of the compact-CSR work): a
//! [`CompactGraph`] and the reference [`Graph`] built from the same edges
//! must agree on the structural fingerprint, metrics computed through
//! [`GraphAccess`], and induced subgraphs — on 256 seeded random edge
//! sets, weighted and unweighted. The full-pipeline leg of this
//! property lives in sp-verify's `repr` stage, which also sweeps the
//! thread matrix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_graph::{graph_fingerprint, CompactGraph, Graph, GraphAccess, GraphBuilder};

fn assert_bytes_eq(a: &Graph, b: &Graph) {
    assert_eq!(a.xadj(), b.xadj());
    assert_eq!(a.adjncy(), b.adjncy());
    assert_eq!(a.ewgts(), b.ewgts());
    assert_eq!(a.vwgts(), b.vwgts());
}

fn check_agreement(g: &Graph) {
    let c = CompactGraph::from_graph(g);
    // Round-trip is bit-identical, fingerprints agree across reprs.
    assert_bytes_eq(&c.to_graph(), g);
    assert_eq!(graph_fingerprint(&c), graph_fingerprint(g));
    // Trait-level accessors agree row by row.
    assert_eq!(GraphAccess::total_vwgt(&c), g.total_vwgt());
    for v in 0..g.n() as u32 {
        let cv: Vec<_> = GraphAccess::neighbors_w(&c, v).collect();
        let gv: Vec<_> = g.neighbors_w(v).collect();
        assert_eq!(cv, gv, "row {v} drifted");
    }
    // Induced subgraph of the even vertices agrees after materialization.
    let verts: Vec<u32> = (0..g.n() as u32).step_by(2).collect();
    if !verts.is_empty() {
        let (sg, map_g) = g.induced_subgraph(&verts);
        let (sc, map_c) = c.induced_subgraph(&verts);
        assert_eq!(map_g, map_c);
        assert_bytes_eq(&sc.to_graph(), &sg);
        assert_eq!(graph_fingerprint(&sc), graph_fingerprint(&sg));
    }
}

#[test]
fn compact_and_reference_agree() {
    for case in 0..256 {
        let rng = &mut StdRng::seed_from_u64(case);
        let nv = rng.random_range(2usize..32);
        let weighted = rng.random::<bool>();
        let mut b = GraphBuilder::new(nv);
        let mut any = false;
        for _ in 0..rng.random_range(1..90) {
            let u = rng.random_range(0usize..32) % nv;
            let v = rng.random_range(0usize..32) % nv;
            let w = rng.random_range(1u32..64) as f64 / 4.0;
            if u != v {
                b.add_edge(u as u32, v as u32, if weighted { w } else { 1.0 });
                any = true;
            }
        }
        if any {
            let g = b.build();
            let agreed = std::panic::catch_unwind(|| check_agreement(&g));
            assert!(agreed.is_ok(), "case {case}");
        }
    }
}

#[test]
fn compact_agrees_on_suite_style_graphs() {
    check_agreement(&sp_graph::gen::grid_2d(23, 17));
    check_agreement(&sp_graph::gen::delaunay_graph(900, &mut StdRng::seed_from_u64(3)).0);
    check_agreement(&sp_graph::gen::kkt_graph(
        400,
        200,
        5,
        &mut StdRng::seed_from_u64(4),
    ));
}

#[test]
fn fingerprint_distinguishes_weight_changes() {
    let g = sp_graph::gen::grid_2d(5, 5);
    let mut b = GraphBuilder::new(g.n());
    for v in 0..g.n() as u32 {
        for (u, w) in g.neighbors_w(v) {
            if u > v {
                b.add_edge(v, u, w);
            }
        }
    }
    b.set_vwgt(3, 2.0);
    let h = b.build();
    assert_ne!(graph_fingerprint(&g), graph_fingerprint(&h));
}
