//! Component wall-clock benches: coarsening, embedding, geometric
//! partitioning, subgraph extraction, refinement, the quadtree substrate,
//! and a streaming step over a long delta chain.

#[path = "../tests/support/hub_graph.rs"]
mod hub_graph;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::stream::{DeltaOverlay, GraphDelta, IncrementalRepartitioner, StreamConfig};
use sp_coarsen::{contract_with, heavy_edge_matching_in, CoarsenArena, CoarsenConfig, Hierarchy};
use sp_embed::{force_layout, lattice_smooth, random_init, ForceParams, LatticeConfig};
use sp_geometry::QuadTree;
use sp_geopart::{geometric_partition, parallel_geometric_partition, GeoConfig};
use sp_graph::distr::Distribution;
use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};
use sp_graph::Bisection;
use sp_machine::{CostModel, Machine};
use sp_refine::{fm_refine, FmConfig};
use std::sync::Arc;

fn bench_coarsen(c: &mut Criterion) {
    let mut group = c.benchmark_group("coarsen");
    for side in [64usize, 128] {
        let g = grid_2d(side, side);
        group.bench_with_input(BenchmarkId::new("hem+contract", g.n()), &g, |b, g| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut arena = CoarsenArena::new();
                let m = heavy_edge_matching_in(g, &mut rng, &mut arena);
                contract_with(g, &m, &mut arena).coarse.n()
            })
        });
        group.bench_with_input(BenchmarkId::new("hierarchy", g.n()), &g, |b, g| {
            b.iter(|| Hierarchy::build(g, &CoarsenConfig::default()).depth())
        });
    }
    group.finish();
}

fn bench_embed(c: &mut Criterion) {
    let mut group = c.benchmark_group("embed");
    group.sample_size(10);
    for side in [48usize, 96] {
        let g = grid_2d(side, side);
        let mut rng = StdRng::seed_from_u64(2);
        let coords0 = random_init(g.n(), &mut rng);
        let params = ForceParams::for_domain(0.2, g.n() as f64, g.n());
        group.bench_with_input(BenchmarkId::new("barnes_hut_10iters", g.n()), &g, |b, g| {
            b.iter(|| {
                let mut coords = coords0.clone();
                force_layout(g, &mut coords, &params, 0.85, 10, 0.9, 0.95)
            })
        });
        group.bench_with_input(BenchmarkId::new("lattice_10iters_q4", g.n()), &g, |b, g| {
            b.iter(|| {
                let mut coords = coords0.clone();
                let mut m = Machine::new(16, CostModel::qdr_infiniband());
                lattice_smooth(
                    g,
                    &mut coords,
                    4,
                    &mut m,
                    &LatticeConfig {
                        iters: 10,
                        ..Default::default()
                    },
                );
                coords[0]
            })
        });
    }
    // The coarsest level of the KKT family in miniature: hubs, non-unit
    // weights, large enough to be dealt over the host pool.
    let hub = hub_graph::hub_graph();
    let hub_start = hub_graph::start(hub.n());
    let hub_params = ForceParams::for_domain(0.2, hub.n() as f64, hub.n());
    group.bench_with_input(
        BenchmarkId::new("force_layout_hub", hub.n()),
        &hub,
        |b, hub| {
            b.iter(|| {
                let mut coords = hub_start.clone();
                force_layout(hub, &mut coords, &hub_params, 1.1, 10, 0.9, 0.96)
            })
        },
    );
    group.finish();
}

fn bench_geopart(c: &mut Criterion) {
    let mut group = c.benchmark_group("geopart");
    group.sample_size(10);
    for n in [10_000usize, 40_000] {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, coords) = delaunay_graph(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("g7nl", n), &g, |b, g| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(4);
                geometric_partition(g, &coords, &GeoConfig::g7_nl(), &mut rng).cut
            })
        });
        group.bench_with_input(BenchmarkId::new("g30", n), &g, |b, g| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(4);
                geometric_partition(g, &coords, &GeoConfig::g30(), &mut rng).cut
            })
        });
        // What one bisection of the k-way recursion runs: 64 ranks at the
        // root, the five tries of G7-NL.
        let dist = Distribution::block(g.n(), 64);
        group.bench_with_input(BenchmarkId::new("parallel_g7nl", n), &g, |b, g| {
            b.iter(|| {
                let mut m = Machine::new(64, CostModel::qdr_infiniband());
                parallel_geometric_partition(g, &coords, &dist, &mut m, &GeoConfig::g7_nl(), 4).cut
            })
        });
    }
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph");
    for side in [128usize, 512] {
        let g = grid_2d(side, side);
        // The lower half of the rows: a child of the k-way recursion, its
        // vertices listed in ascending order.
        let half: Vec<u32> = (0..g.n() as u32 / 2).collect();
        group.bench_with_input(
            BenchmarkId::new("induced_subgraph_half", g.n()),
            &g,
            |b, g| b.iter(|| g.induced_subgraph(&half).0.m()),
        );
    }
    group.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine");
    for side in [64usize, 128] {
        let g = grid_2d(side, side);
        let noisy: Vec<u8> = (0..g.n())
            .map(|v| u8::from((v % side >= side / 2) != (v % 17 == 0)))
            .collect();
        group.bench_with_input(BenchmarkId::new("fm_full", g.n()), &g, |b, g| {
            b.iter(|| {
                let mut bi = Bisection::new(noisy.clone());
                fm_refine(g, &mut bi, None, &FmConfig::default()).cut_after
            })
        });
    }
    // The shape of a `session-stream` step: a 192×192 grid, a noisy split,
    // and the 23 columns around it (12 %) movable.
    let side = 192usize;
    let g = grid_2d(side, side);
    let noisy: Vec<u8> = (0..g.n())
        .map(|v| u8::from((v % side >= side / 2) != (v % 17 == 0)))
        .collect();
    let strip: Vec<bool> = (0..g.n())
        .map(|v| (v % side).abs_diff(side / 2) < 12)
        .collect();
    group.bench_with_input(BenchmarkId::new("fm_strip", g.n()), &g, |b, g| {
        b.iter(|| {
            let mut bi = Bisection::new(noisy.clone());
            fm_refine(g, &mut bi, Some(&strip), &FmConfig::default()).cut_after
        })
    });
    group.finish();
}

fn bench_quadtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("quadtree");
    for n in [10_000usize, 100_000] {
        let mut rng = StdRng::seed_from_u64(5);
        let pts = random_init(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("build", n), &pts, |b, pts| {
            b.iter(|| QuadTree::build(pts, None).node_count())
        });
        let mut tree = QuadTree::build(&pts, None);
        group.bench_with_input(BenchmarkId::new("rebuild", n), &pts, |b, pts| {
            b.iter(|| {
                tree.rebuild(pts, None);
                tree.node_count()
            })
        });
        group.bench_with_input(BenchmarkId::new("query_theta0.85", n), &tree, |b, t| {
            b.iter(|| {
                let mut acc = 0.0;
                t.for_each_approx(pts[0], Some(0), 0.85, |p, m| acc += p.x * m);
                acc
            })
        });
    }
    group.finish();
}

/// What `session-stream` does between two full steps, in-process: a
/// 192×192 grid whose overlay already carries a chain of 6 144 patched
/// vertices (3 072 horizontal edges removed, none sharing a vertex), and
/// two 256-delta batches of all four kinds that undo each other, so taking
/// them in turn repeats the same work on the same chain for ever.
fn bench_stream(c: &mut Criterion) {
    const SIDE: u32 = 192;
    let n = SIDE * SIDE;
    let chain: Vec<GraphDelta> = (0..3072u32)
        .map(|k| {
            let v = (k * 37 % SIDE) * SIDE + (k * 53 % 95) * 2;
            GraphDelta::RemoveEdge { u: v, v: v + 1 }
        })
        .collect();
    let (mut there, mut back) = (Vec::new(), Vec::new());
    for k in 0..64u32 {
        let r = k * 29 % 190;
        // A diagonal the grid lacks, a vertical edge the chain left alone.
        let (u, v) = (
            r * SIDE + k * 31 % 190,
            (r + 7) % 190 * SIDE + (k * 31 + 100) % SIDE,
        );
        let (diagonal, w) = (u + SIDE + 1, 0.5);
        there.push(GraphDelta::AddEdge { u, v: diagonal, w });
        back.push(GraphDelta::RemoveEdge { u, v: diagonal });
        there.push(GraphDelta::RemoveEdge { u: v, v: v + SIDE });
        back.push(GraphDelta::AddEdge {
            u: v,
            v: v + SIDE,
            w: 1.0,
        });
        let v = k * 577 % n;
        there.push(GraphDelta::SetVwgt { v, w: 1.5 });
        back.push(GraphDelta::SetVwgt { v, w: 1.0 });
        let (dx, dy) = (0.01, -0.01);
        there.push(GraphDelta::ShiftCoord { v, dx, dy });
        back.push(GraphDelta::ShiftCoord {
            v,
            dx: -dx,
            dy: -dy,
        });
    }
    let batches = [there, back];
    let overlay = || {
        let side = SIDE as usize;
        let (g, coords) = (grid_2d(side, side), grid_2d_coords(side, side));
        DeltaOverlay::new(Arc::new(g), Some(coords)).expect("a grid and its coordinates")
    };

    // The chain goes in 256 vertices at a time, as a session's would: each
    // step stays incremental, so nothing rebases it away.
    let (mut rp, _) = IncrementalRepartitioner::new(overlay(), StreamConfig::default());
    for chunk in chain.chunks(128) {
        rp.step(chunk).expect("chain deltas are valid");
    }
    assert!(rp.overlay().patched_vertices() >= 5000);
    let mut turns = batches.iter().cycle();
    c.bench_function("stream/step_256", |b| {
        b.iter(|| {
            let batch = turns.next().expect("a cycle");
            rp.step(batch).expect("valid").cut_after
        })
    });

    let mut ov = overlay();
    ov.apply_batch(&chain).expect("chain deltas are valid");
    let mut turns = batches.iter().cycle();
    c.bench_function("stream/apply_batch_256", |b| {
        b.iter(|| {
            ov.apply_batch(turns.next().expect("a cycle"))
                .expect("valid");
            ov.m()
        })
    });
}

/// What a superstep costs before its closures do anything: 64 ranks of
/// 8-byte state, inline on one host thread and dealt over two.
fn bench_machine(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        group.bench_with_input(
            BenchmarkId::new("superstep_dispatch_64", threads),
            &pool,
            |b, pool| {
                pool.install(|| {
                    let mut m = Machine::new(64, CostModel::qdr_infiniband());
                    let mut states = vec![0u64; 64];
                    b.iter(|| {
                        m.compute(&mut states, |_, s| {
                            *s += 1;
                            1.0
                        });
                        m.elapsed()
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_machine,
    bench_coarsen,
    bench_embed,
    bench_geopart,
    bench_graph,
    bench_refine,
    bench_quadtree,
    bench_stream
);
criterion_main!(benches);
