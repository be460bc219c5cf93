//! Golden bisections of the two geometric pipelines and the comparators,
//! recorded at the commit before any of them stopped recounting its
//! unweighted cut: the geometric partitioner now takes the winner's cut
//! from its histogram, `strip_refine` moves it by the vertices FM left on
//! the other side, and the multilevel comparator reuses its cross-rank
//! edge counts and counts its final cut once. The simulated-time column
//! was recorded again when FM began to stop a pass once no later prefix
//! could beat its best one: ten of the twelve times fell, and no other
//! column moved.
//!
//! Rows: the label FNV-1a, the cut, the cut before strip refinement, and
//! the bits of the imbalance and of the simulated time, for
//! `sp_pg7nl_bisect` and `scalapart_bisect` on a trace mesh and a grid on
//! 1 and 64 ranks; the same figures of `run_method` for both multilevel
//! presets; the labels and cut of an 8-way SP-PG7-NL recursion; and the
//! same figures of `run_method` for G30, G7-NL and RCB on a
//! coordinate-free KKT graph, which the sequential Hu-style embedder lays
//! out first.
//!
//! The trace mesh, the great circles and the matchings draw from `rand`'s
//! `StdRng`, the workspace's own stream, which `sp-verify`'s
//! `baseline_pins.rs` pins.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::{
    recursive_kway, run_method, scalapart_bisect, sp_pg7nl_bisect, Method, SpConfig, SpResult,
};
use sp_geometry::Point2;
use sp_graph::gen::{grid_2d, grid_2d_coords, kkt_graph, trace_mesh};
use sp_graph::Graph;
use sp_machine::{CostModel, Machine};

/// `(label FNV-1a, cut, cut before refinement, imbalance bits, simulated
/// time bits)`; a comparator has no refinement stage and repeats its cut.
type Row = (u64, usize, usize, u64, u64);

fn fnv(labels: impl IntoIterator<Item = u64>) -> u64 {
    labels.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, l| {
        (h ^ l).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn inputs() -> [(&'static str, Graph, Vec<Point2>); 2] {
    let (mesh, mesh_xy) = trace_mesh(4000, &mut StdRng::seed_from_u64(5));
    [
        ("trace", mesh, mesh_xy),
        ("grid", grid_2d(48, 40), grid_2d_coords(48, 40)),
    ]
}

fn sp_row(g: &Graph, r: &SpResult) -> Row {
    r.bisection.validate(g).unwrap();
    assert_eq!(r.cut, r.bisection.cut_edges(g));
    (
        fnv(r.bisection.sides().iter().map(|&s| s as u64)),
        r.cut,
        r.cut_before_refine,
        r.imbalance.to_bits(),
        r.total_time.to_bits(),
    )
}

fn bisection_rows(g: &Graph, xy: &[Point2]) -> Vec<Row> {
    let cfg = SpConfig::default().with_seed(3);
    let mut rows = Vec::new();
    for p in [1usize, 64] {
        let mut m = Machine::new(p, CostModel::qdr_infiniband());
        rows.push(sp_row(g, &sp_pg7nl_bisect(g, xy, &mut m, &cfg)));
        let mut m = Machine::new(p, CostModel::qdr_infiniband());
        rows.push(sp_row(g, &scalapart_bisect(g, &mut m, &cfg)));
    }
    for method in [Method::ParMetisLike, Method::PtScotchLike] {
        let r = run_method(method, g, None, 9, 3);
        r.bisection.validate(g).unwrap();
        assert_eq!(r.cut, r.bisection.cut_edges(g));
        rows.push((
            fnv(r.bisection.sides().iter().map(|&s| s as u64)),
            r.cut,
            r.cut,
            r.imbalance.to_bits(),
            r.time.to_bits(),
        ));
    }
    rows
}

#[test]
fn bisections_match_the_goldens() {
    let mut golden = BISECTIONS.iter();
    for (name, g, xy) in inputs() {
        for (i, row) in bisection_rows(&g, &xy).iter().enumerate() {
            let want = golden.next().expect("a golden row per case");
            assert_eq!(row, want, "{name} row {i}: got {row:#x?}");
        }
    }
    assert!(golden.next().is_none());
}

#[test]
fn sp_pg7nl_eight_way_labels_match_the_goldens() {
    for ((name, g, xy), want) in inputs().into_iter().zip(KWAY) {
        let kp = recursive_kway(Method::SpPg7Nl, &g, Some(&xy), 8, 16, 7);
        kp.validate(&g).unwrap();
        let got = (fnv(kp.part.iter().map(|&l| l as u64)), kp.cut_edges(&g));
        assert_eq!(got, want, "{name}: got {got:#x?}");
    }
}

#[test]
fn hu_embedded_methods_match_the_goldens() {
    let g = kkt_graph(900, 300, 5, &mut StdRng::seed_from_u64(13));
    let got: Vec<Row> = [Method::G30, Method::G7Nl, Method::Rcb]
        .into_iter()
        .map(|method| {
            let r = run_method(method, &g, None, 16, 11);
            r.bisection.validate(&g).unwrap();
            assert_eq!(r.cut, r.bisection.cut_edges(&g));
            (
                fnv(r.bisection.sides().iter().map(|&s| s as u64)),
                r.cut,
                r.cut,
                r.imbalance.to_bits(),
                r.time.to_bits(),
            )
        })
        .collect();
    assert_eq!(got, HU_EMBEDDED, "got {got:#x?}");
}

/// Per input: SP-PG7-NL and ScalaPart on 1 rank, both on 64, then the
/// ParMetis-like and Pt-Scotch-like presets on 9.
#[rustfmt::skip]
const BISECTIONS: [Row; 12] = [
    (0x528041647469be84, 52, 88, 0x3fb2d0e560418930, 0x3f4225717e9d69de), // trace sp-pg7nl p=1
    (0xde258d93f3828aff, 42, 46, 0x3f889374bc6a7f00, 0x3fac8adab9f559b5), // trace scalapart p=1
    (0x528041647469be84, 52, 88, 0x3fb2d0e560418930, 0x3f20cf78a3aabf87), // trace sp-pg7nl p=64
    (0xd85d1779497fd1d1, 96, 120, 0x3f747ae147ae1400, 0x3f7db46b82042691), // trace scalapart p=64
    (0x98e6004e4d0e9bbf, 41, 41, 0x3fa0624dd2f1aa00, 0x3f60656115e5f53d), // trace parmetis p=9
    (0xa723f74c6e18885e, 40, 40, 0x3fa020c49ba5e360, 0x3f6308103675a499), // trace ptscotch p=9
    (0x098bf6a14669a49b, 111, 138, 0x3f71111111111100, 0x3f3197ad055c3560), // grid sp-pg7nl p=1
    (0x5a991b6f63a86d54, 69, 104, 0x3fab333333333340, 0x3fa53641db6ca2c0), // grid scalapart p=1
    (0x098bf6a14669a49b, 111, 138, 0x3f71111111111100, 0x3f1d278de382f1b8), // grid sp-pg7nl p=64
    (0xa379c3fdc4c23b41, 57, 60, 0x3f79999999999a00, 0x3f7bbb970fa690f6), // grid scalapart p=64
    (0x63cb67afcd9bedfc, 73, 73, 0x3f69999999999a00, 0x3f3124b0fc405317), // grid parmetis p=9
    (0xa69e61cc3fd8463f, 66, 66, 0x3fa99999999999a0, 0x3f427034f14e6163), // grid ptscotch p=9
];

/// `(label FNV-1a, cut edges)` of `recursive_kway(SpPg7Nl, k = 8)`.
const KWAY: [(u64, usize); 2] = [
    (0x6e6a44bb48182cc9, 403), // trace
    (0x0443869bfed3de9b, 216), // grid
];

/// G30, G7-NL and RCB on 16 ranks, each on the coordinates the Hu-style
/// embedder gives the KKT graph; like a comparator, none refines.
#[rustfmt::skip]
const HU_EMBEDDED: [Row; 3] = [
    (0x0409de5e1807b9c4, 340, 340, 0x3f5b4e81b4e81c00, 0x3f404257e94b07bb), // kkt g30 p=16
    (0xda9426e31e6e4530, 383, 383, 0x3f5b4e81b4e81c00, 0x3f166d29cf0662f1), // kkt g7-nl p=16
    (0xe5448f4f9d6e256f, 420, 420, 0x0000000000000000, 0x3f2e0477dedec826), // kkt rcb p=16
];
