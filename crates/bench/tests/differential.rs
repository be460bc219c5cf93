//! Full-pipeline differential tests: run ScalaPart once with the
//! optimized lattice smoother and once with the pre-optimization reference
//! smoother plugged into the same pipeline, and demand bit-identical
//! results. Every other stage is shared code, so any divergence indicts
//! the optimized smoothing kernel alone. (The FM counterpart — optimized
//! heap FM vs a naive full-recompute oracle — lives in
//! `sp-refine::naive`.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::{scalapart_bisect, scalapart_bisect_checked, NoopObserver, SpConfig, SpResult};
use sp_bench::reference::reference_lattice_smooth;
use sp_graph::gen::{delaunay_graph, grid_2d, kkt_graph};
use sp_graph::Graph;
use sp_machine::{CostModel, Machine};

fn run_optimized(g: &Graph, p: usize, cfg: &SpConfig) -> (SpResult, f64) {
    let mut m = Machine::new(p, CostModel::qdr_infiniband());
    let r = scalapart_bisect(g, &mut m, cfg);
    let elapsed = m.elapsed();
    (r, elapsed)
}

fn run_reference(g: &Graph, p: usize, cfg: &SpConfig) -> (SpResult, f64) {
    let mut m = Machine::new(p, CostModel::qdr_infiniband());
    let r = scalapart_bisect_checked(
        g,
        &mut m,
        cfg,
        &mut NoopObserver,
        &mut |g, c, q, mach, lcfg, _scratch| reference_lattice_smooth(g, c, q, mach, lcfg),
    )
    .expect("NoopObserver never cancels");
    let elapsed = m.elapsed();
    (r, elapsed)
}

fn assert_bit_identical(g: &Graph, name: &str, a: &(SpResult, f64), b: &(SpResult, f64)) {
    let ((ra, ta), (rb, tb)) = (a, b);
    assert_eq!(ra.cut, rb.cut, "{name}: cut diverged");
    assert_eq!(
        ra.cut_before_refine, rb.cut_before_refine,
        "{name}: pre-refinement cut diverged"
    );
    for v in 0..g.n() as u32 {
        assert_eq!(
            ra.bisection.side(v),
            rb.bisection.side(v),
            "{name}: vertex {v} on different sides"
        );
    }
    for (i, (ca, cb)) in ra.coords.iter().zip(&rb.coords).enumerate() {
        assert_eq!(
            (ca.x.to_bits(), ca.y.to_bits()),
            (cb.x.to_bits(), cb.y.to_bits()),
            "{name}: coordinate {i} differs in bits"
        );
    }
    assert_eq!(
        ra.total_time.to_bits(),
        rb.total_time.to_bits(),
        "{name}: simulated pipeline time diverged ({} vs {})",
        ra.total_time,
        rb.total_time
    );
    assert_eq!(
        ta.to_bits(),
        tb.to_bits(),
        "{name}: machine clocks diverged ({ta} vs {tb})"
    );
}

#[test]
fn pipeline_matches_reference_on_grid() {
    let g = grid_2d(40, 40);
    let cfg = SpConfig::default().with_seed(0xD1FF_0001);
    let a = run_optimized(&g, 16, &cfg);
    let b = run_reference(&g, 16, &cfg);
    assert_bit_identical(&g, "grid 40x40", &a, &b);
    assert!(a.0.cut > 0);
}

#[test]
fn pipeline_matches_reference_on_delaunay() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    let (g, _) = delaunay_graph(2000, &mut rng);
    let cfg = SpConfig::default().with_seed(0xD1FF_0002);
    let a = run_optimized(&g, 16, &cfg);
    let b = run_reference(&g, 16, &cfg);
    assert_bit_identical(&g, "delaunay 2000", &a, &b);
}

#[test]
fn pipeline_matches_reference_on_kkt_power_law() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0003);
    let g = kkt_graph(1500, 60, 5, &mut rng);
    let cfg = SpConfig::default().with_seed(0xD1FF_0003);
    let a = run_optimized(&g, 9, &cfg);
    let b = run_reference(&g, 9, &cfg);
    assert_bit_identical(&g, "kkt 1500", &a, &b);
}
