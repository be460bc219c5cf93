//! The four batch workloads: graph in → k-way partition out.
//!
//! One op is one `recursive_kway_checked_on` call on a fresh 64-rank
//! simulated machine. The instance list is fixed, as in the partitioning
//! literature: each workload is one generated graph and a list of distinct
//! ops, one constant partition seed each. `edge_cut` is the sum of their
//! cuts, `imbalance_max` the worst of them, `sim_time` their median, so a
//! later change in how randomness is consumed moves an aggregate over
//! nine or twelve bisection trees, not one lucky or unlucky cut. The
//! numbers read the same on every run and for every `--seed`, which only
//! shuffles the order the list is walked in; a quality number that moved
//! with the seed could not be held to any bound (the cut of one ScalaPart
//! bisection of the grid spans 1 000 to 6 000 edges across partition
//! seeds).

use crate::report::RunResult;
use crate::span::Tracer;
use crate::stats::{median_or_zero, Samples};
use crate::Args;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scalapart::{
    recursive_kway_checked_on, scalapart_bisect_checked, KWayPartition, LevelStats, Method,
    NoopObserver, PipelineObserver, SpConfig,
};
use sp_coarsen::{CoarsenArena, CoarsenConfig, Contraction, Hierarchy, Matching};
use sp_embed::{lattice_smooth_with, LatticeConfig, LatticeStats, SmoothScratch};
use sp_geometry::Point2;
use sp_geopart::GeoPartResult;
use sp_graph::gen::{grid_2d, kkt_graph, trace_mesh};
use sp_graph::{Bisection, CompactGraph, Graph};
use sp_machine::{CostModel, Machine, Phase, Recorder, SuperstepInfo};
use sp_refine::FmStats;
use sp_trace::fnv::Fingerprint;
use sp_trace::CollectiveKind;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulated ranks of every batch op.
pub const RANKS: usize = 64;
/// Timed ops a batch workload never goes below.
pub const MIN_OPS: usize = 9;
/// Seeds the generator of every batch workload's graph.
const INSTANCE_SEED: u64 = 1;

/// The partition seed of a workload's `j`th distinct op: a constant.
fn op_seed(j: usize) -> u64 {
    crate::mix(1, 0x0B5 + j as u64)
}

#[derive(Clone, Copy)]
pub enum Input {
    Grid { rows: usize, cols: usize },
    Kkt { n: usize },
    Trace { n: usize },
}

#[derive(Clone, Copy)]
pub struct BatchSpec {
    pub name: &'static str,
    pub method: Method,
    pub k: usize,
    pub input: Input,
    /// Distinct ops, all timed once at the nominal run length; a longer
    /// run walks the list again.
    pub ops: usize,
}

pub const SP_GRID: BatchSpec = BatchSpec {
    name: "sp-grid",
    method: Method::ScalaPart,
    k: 2,
    input: Input::Grid {
        rows: 1024,
        cols: 512,
    },
    ops: 9,
};
pub const SP_KKT: BatchSpec = BatchSpec {
    name: "sp-kkt",
    method: Method::ScalaPart,
    k: 2,
    input: Input::Kkt { n: 5 << 14 },
    ops: 9,
};
pub const ML_KKT: BatchSpec = BatchSpec {
    name: "ml-kkt",
    method: Method::ParMetisLike,
    k: 8,
    input: Input::Kkt { n: 3 << 16 },
    ops: 9,
};
pub const GEO_MESH: BatchSpec = BatchSpec {
    name: "geo-mesh",
    method: Method::SpPg7Nl,
    k: 64,
    input: Input::Trace { n: 1 << 18 },
    ops: 12,
};

impl BatchSpec {
    /// The same workload on a small input, for `selfcheck`.
    pub fn reduced(mut self) -> BatchSpec {
        self.input = match self.input {
            Input::Grid { .. } => Input::Grid {
                rows: 192,
                cols: 128,
            },
            Input::Kkt { .. } => Input::Kkt { n: 1 << 14 },
            Input::Trace { .. } => Input::Trace { n: 1 << 14 },
        };
        self.ops = 16;
        self
    }
}

fn generate(input: Input) -> (Graph, Option<Vec<Point2>>) {
    let mut rng = StdRng::seed_from_u64(INSTANCE_SEED);
    match input {
        Input::Grid { rows, cols } => (grid_2d(rows, cols), None),
        Input::Kkt { n } => (kkt_graph(n * 2 / 3, n - n * 2 / 3, 6, &mut rng), None),
        Input::Trace { n } => {
            let (g, c) = trace_mesh(n, &mut rng);
            (g, Some(c))
        }
    }
}

/// What the benchmark itself reads off a returned labelling.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Checked {
    pub cut: u64,
    /// Heaviest part ÷ mean part weight.
    pub imbalance: f64,
    pub label_fp: u64,
}

/// Recompute cut and balance from the labels alone, independently of the
/// partitioner's own accounting.
pub fn check_labels(g: &Graph, part: &[u32], k: usize) -> Result<Checked, String> {
    if part.len() != g.n() {
        return Err(format!("{} labels for {} vertices", part.len(), g.n()));
    }
    let mut weight = vec![0.0f64; k];
    let mut fp = Fingerprint::new();
    for (v, &p) in part.iter().enumerate() {
        if p as usize >= k {
            return Err(format!("label {p} of vertex {v} is outside 0..{k}"));
        }
        weight[p as usize] += g.vwgt(v as u32);
        fp.u64(p as u64);
    }
    if k <= g.n() && weight.iter().any(|&w| w <= 0.0) {
        return Err("a part is empty".into());
    }
    let (xadj, adj) = (g.xadj(), g.adjncy());
    let mut cut = 0u64;
    for v in 0..g.n() {
        for &u in &adj[xadj[v]..xadj[v + 1]] {
            if (u as usize) > v && part[u as usize] != part[v] {
                cut += 1;
            }
        }
    }
    let mean = weight.iter().sum::<f64>() / k as f64;
    let heaviest = weight.iter().copied().fold(0.0, f64::max);
    Ok(Checked {
        cut,
        imbalance: heaviest / mean,
        label_fp: fp.finish(),
    })
}

/// One untraced op: the timed call, then the untimed checks.
struct OpOutcome {
    ms: f64,
    sim_time: f64,
    part: KWayPartition,
}

/// Run the workload's `j`th distinct op.
fn run_op(
    spec: &BatchSpec,
    j: usize,
    g: &Graph,
    coords: Option<&[Point2]>,
    machine: &mut Machine,
    obs: &mut dyn PipelineObserver,
) -> OpOutcome {
    let t = Instant::now();
    let part = recursive_kway_checked_on(spec.method, g, coords, spec.k, op_seed(j), machine, obs)
        .expect("benchmark observers never cancel");
    OpOutcome {
        ms: t.elapsed().as_secs_f64() * 1e3,
        sim_time: machine.elapsed(),
        part,
    }
}

fn fresh_machine() -> Machine {
    Machine::new(RANKS, CostModel::qdr_infiniband())
}

/// What each distinct op returned the first time it ran; every
/// repetition of it must return the same.
struct Reference {
    first: Vec<Option<(Checked, f64)>>,
}

impl Reference {
    fn verify(
        &mut self,
        spec: &BatchSpec,
        j: usize,
        g: &Graph,
        out: &OpOutcome,
    ) -> Result<(), String> {
        out.part.validate(g)?;
        let c = check_labels(g, &out.part.part, spec.k)?;
        if c.cut != out.part.cut_edges(g) as u64 {
            return Err(format!(
                "recomputed cut {} differs from the partitioner's",
                c.cut
            ));
        }
        match self.first[j] {
            None => self.first[j] = Some((c, out.sim_time)),
            Some((first, sim)) => {
                if first != c || sim.to_bits() != out.sim_time.to_bits() {
                    return Err(format!("op {j} did not repeat: {first:?} then {c:?}"));
                }
            }
        }
        Ok(())
    }
}

pub fn run(spec: &BatchSpec, args: &Args) -> RunResult {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(crate::host_threads())
        .build()
        .expect("thread pool");
    pool.install(|| run_in_pool(spec, args))
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn run_in_pool(spec: &BatchSpec, args: &Args) -> RunResult {
    let mut res = RunResult::new(spec.name, args.trace);
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch);

    // ---- Set-up, several times over: generate and validate the input,
    // then one warm-up op on a 64×64 grid. The median is `setup_s`.
    let setup_reps = if args.reduced { 1 } else { SETUP_REPS };
    let ((g, coords), setup_s) = crate::timed_setups(
        setup_reps,
        || {
            let made = tr.time("graph.gen", None, u32::MAX, || generate(spec.input));
            made.0.validate().expect("generated graph is valid");
            let warm = grid_2d(64, 64);
            let _ = recursive_kway_checked_on(
                Method::ScalaPart,
                &warm,
                None,
                2,
                op_seed(0),
                &mut fresh_machine(),
                &mut NoopObserver,
            );
            made
        },
        drop,
    );
    let coords = coords.as_deref();

    let floor = if args.reduced { 2 } else { MIN_OPS };
    let ops = crate::scaled_ops(spec.ops, floor, args.seconds);
    assert!(
        args.reduced || ops >= MIN_OPS,
        "a batch workload times at least {MIN_OPS} ops"
    );
    // A traced run takes a third of the ops (all of the small ones of
    // `selfcheck`), each once plain and once traced, side by side, so that
    // drift hits both alike.
    let pairs = if args.trace && !args.reduced {
        (ops / 3).max(3)
    } else {
        ops
    };
    // Which distinct ops run is fixed by the count alone; `--seed` only
    // shuffles the order they run in.
    let mut list: Vec<usize> = (0..pairs).map(|i| i % spec.ops).collect();
    list.shuffle(&mut StdRng::seed_from_u64(crate::mix(args.seed, 0x0DE4)));
    let mut reference = Reference {
        first: vec![None; spec.ops],
    };

    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced: Vec<TracedOp> = Vec::new();
    for (i, &j) in list.iter().enumerate() {
        // In a traced run the twins take turns going first, so that
        // whatever the first of a pair pays (or saves) falls on both kinds.
        let kinds: &[bool] = match (args.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &with_spans in kinds {
            if with_spans {
                let (out, t) = run_traced_op(spec, j, &g, coords, i as u32, &mut tr);
                res.check(reference.verify(spec, j, &g, &out));
                res.check(t.cycle_closed.clone());
                traced_ms.push(out.ms);
                traced.push(t);
            } else {
                let out = run_op(spec, j, &g, coords, &mut fresh_machine(), &mut NoopObserver);
                res.check(reference.verify(spec, j, &g, &out));
                plain_ms.push(out.ms);
            }
        }
    }

    let plain = Samples::new(plain_ms.clone());
    let m = &mut res.metrics;
    let p50 = plain.median().unwrap();
    if !args.trace {
        let distinct: Vec<(Checked, f64)> = reference.first.iter().flatten().copied().collect();
        m.set_n("setup_s", setup_s, setup_reps);
        m.set_n("op_ms_p50", p50, plain.n());
        m.set_n(
            "ops_per_s",
            plain.n() as f64 / (plain_ms.iter().sum::<f64>() / 1e3),
            plain.n(),
        );
        m.set_n(
            "edge_cut",
            distinct.iter().map(|d| d.0.cut as f64).sum(),
            distinct.len(),
        );
        m.set_n(
            "imbalance_max",
            distinct.iter().map(|d| d.0.imbalance).fold(0.0, f64::max),
            distinct.len(),
        );
        let sims: Vec<f64> = distinct.iter().map(|d| d.1).collect();
        m.set_n("sim_time", median_or_zero(&sims), sims.len());
        return res;
    }

    // ---- Per-layer figures: medians over the traced ops of each op's
    // totals, then the probes, each a direct timed call.
    let op_ids: Vec<u32> = (0..traced.len() as u32).collect();
    let per_op = |names: &[&str]| -> Vec<f64> {
        let mut sum = vec![0.0; op_ids.len()];
        for name in names {
            for (acc, ms) in sum.iter_mut().zip(tr.self_ms_per_op(name, &op_ids)) {
                *acc += ms;
            }
        }
        sum
    };
    let layer = |names: &[&str]| median_or_zero(&per_op(names));
    let op_ms = median_or_zero(&traced_ms);
    let match_ms = layer(&["coarsen.match"]);
    let contract_ms = layer(&["coarsen.contract"]);
    let coarsen_ms = layer(&["coarsen.match", "coarsen.contract", "coarsen"]);
    let embed_ms = layer(&["embed"]);
    let geopart_ms = layer(&["geopart"]);
    let refine_ms = layer(&["refine"]);
    let subgraph_ms = layer(&["graph.subgraph"]);
    let subbisect_ms = layer(&["core.subbisect"]);
    // What no phase span covers: the k-way driver's own bookkeeping.
    let other = per_op(&["op", "bisect", "bisect.root"]);
    let covered: Vec<f64> = other
        .iter()
        .zip(&traced_ms)
        .map(|(other, op)| (op - other) / op)
        .collect();
    let med = |f: fn(&TracedOp) -> f64| median_or_zero(&traced.iter().map(f).collect::<Vec<_>>());

    let m = &mut res.metrics;
    m.set_n(
        "graph.gen_ms",
        median_or_zero(&tr.durations_ms("graph.gen")),
        setup_reps,
    );
    m.set_n("coarsen.wall_ms", coarsen_ms, traced.len());
    m.set("coarsen.share", coarsen_ms / op_ms);
    m.set_n("coarsen.match_ms", match_ms, traced.len());
    m.set_n("coarsen.contract_ms", contract_ms, traced.len());
    m.set("coarsen.levels", med(|t| t.counts.levels as f64));
    m.set(
        "coarsen.matched_ratio_l0",
        med(|t| t.counts.matched_ratio_l0),
    );
    m.set_n("embed.wall_ms", embed_ms, traced.len());
    m.set("embed.share", embed_ms / op_ms);
    m.set_n("geopart.wall_ms", geopart_ms, traced.len());
    m.set("geopart.share", geopart_ms / op_ms);
    m.set("geopart.tries", med(|t| t.counts.tries as f64));
    m.set_n("refine.wall_ms", refine_ms, traced.len());
    m.set("refine.share", refine_ms / op_ms);
    m.set("refine.passes", med(|t| t.counts.passes as f64));
    m.set("refine.moved", med(|t| t.counts.moved as f64));
    m.set("refine.cut_gain_ratio", med(|t| t.counts.cut_gain_ratio()));
    m.set_n("graph.subgraph_ms", subgraph_ms, traced.len());
    m.set_n("core.subbisect_ms", subbisect_ms, traced.len());
    m.set_n("core.kway_other_ms", median_or_zero(&other), traced.len());
    m.set("core.phase_sum_ratio", median_or_zero(&covered));
    m.set("machine.supersteps", med(|t| t.supersteps as f64));
    m.set("machine.closure_wall_ms", med(|t| t.closure_wall_ms));
    m.set("machine.active_rank_ratio", med(|t| t.active_rank_ratio));
    m.set("machine.words_sent", med(|t| t.words_sent as f64));
    // Each traced op against its plain twin, which ran right beside it: the
    // same distinct op, the same stretch of the host's mood.
    let twins: Vec<f64> = traced_ms
        .iter()
        .zip(&plain_ms)
        .map(|(t, p)| t / p)
        .collect();
    m.set_n("trace.overhead_ratio", median_or_zero(&twins), twins.len());
    let mut arena_bytes = traced
        .iter()
        .map(|t| t.counts.arena_bytes)
        .max()
        .unwrap_or(0);

    // One op on a single host thread.
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    let out = single.install(|| {
        run_op(
            spec,
            list[0],
            &g,
            coords,
            &mut fresh_machine(),
            &mut NoopObserver,
        )
    });
    res.check(reference.verify(spec, list[0], &g, &out));
    let m = &mut res.metrics;
    m.set_n("core.thread_speedup", out.ms / plain_ms[0], 1);

    // Graph layer, on this workload's own input.
    tr.time("probe.fingerprint", None, u32::MAX, || {
        sp_serve::fingerprint_graph(&g)
    });
    let compact = tr.time("probe.compact", None, u32::MAX, || {
        CompactGraph::from_graph(&g)
    });
    m.set_n(
        "graph.fingerprint_ms",
        tr.durations_ms("probe.fingerprint")[0],
        1,
    );
    m.set_n("graph.compact_ms", tr.durations_ms("probe.compact")[0], 1);
    m.set(
        "graph.compact_bytes_per_edge",
        compact.heap_bytes() as f64 / g.m() as f64,
    );
    drop(compact);

    // Coarsening alone, where the method coarsens at all.
    if !matches!(spec.method, Method::SpPg7Nl) {
        let mut arena = CoarsenArena::new();
        tr.time("probe.coarsen_build", None, u32::MAX, || {
            Hierarchy::build_with_arena(&g, &CoarsenConfig::default(), &mut arena)
        });
        m.set_n(
            "coarsen.build_ms",
            tr.durations_ms("probe.coarsen_build")[0],
            1,
        );
        arena_bytes = arena_bytes.max(arena.high_water_bytes());
    }
    m.set("coarsen.arena_mb", arena_bytes as f64 / (1024.0 * 1024.0));

    if spec.method == Method::ScalaPart {
        let probe = embed_probe(&g, &mut tr);
        let (op, _) = reference.first[0].expect("a traced run takes op 0");
        res.check(if probe.label_fp == op.label_fp {
            Ok(())
        } else {
            Err("the smoother-timing probe returned other labels than the op".into())
        });
        let m = &mut res.metrics;
        m.set("embed.smooth_calls", probe.calls as f64);
        m.set("embed.migrations", probe.migrations as f64);
        m.set_n("embed.finest_level_ms", probe.finest_ms, 1);
    }
    crate::write_trace(args, spec.name, &tr);
    res
}

// ---------------------------------------------------------------------
// Traced ops: spans closed at the hooks the crates export.

#[derive(Default, Clone, Copy)]
struct Counts {
    levels: usize,
    matched_ratio_l0: f64,
    arena_bytes: usize,
    tries: usize,
    passes: usize,
    moved: usize,
    cut_before: f64,
    cut_after: f64,
}

impl Counts {
    fn cut_gain_ratio(&self) -> f64 {
        if self.cut_before > 0.0 {
            (self.cut_before - self.cut_after) / self.cut_before
        } else {
            0.0
        }
    }
}

struct TracedOp {
    counts: Counts,
    /// The observer's reading of the poll cycle held to the end of the op.
    cycle_closed: Result<(), String>,
    supersteps: usize,
    closure_wall_ms: f64,
    active_rank_ratio: f64,
    words_sent: usize,
}

/// The last checkpoint the observer saw.
#[derive(Clone, Copy, PartialEq)]
enum Last {
    Poll,
    /// A checkpoint the pipeline polls right after (matching, contraction,
    /// hierarchy, embedding, geometric partition).
    Hook,
    Refined,
}

/// Turns the pipeline's checkpoints into spans. Every checkpoint closes
/// the interval since the previous one and names it after the work that
/// interval held. `poll_cancel` calls mark the k-way recursion's own
/// steps: each bisection polls once before extracting its subgraph, once
/// on entering the method, once after coordinates are ready and once when
/// the method returns; ScalaPart polls after each of its checkpoints too.
struct SpanObserver<'a> {
    tr: &'a mut Tracer,
    op: u32,
    op_span: usize,
    scalapart: bool,
    /// Polls seen in the current bisection's cycle (0..=3).
    pos: u8,
    last: Last,
    last_ns: u64,
    bisect_span: Option<usize>,
    /// `(start_ns, end_ns)` of the first bisection's method run, for the
    /// methods whose inside only the machine hook can see.
    root_run: Option<(u64, u64, usize)>,
    bisections: usize,
    root_n: usize,
    counts: Counts,
}

impl SpanObserver<'_> {
    fn close(&mut self, name: &'static str) {
        let now = self.tr.now_ns();
        let parent = self.bisect_span.unwrap_or(self.op_span);
        self.tr
            .record(name, self.last_ns, now, Some(parent), self.op);
        self.last_ns = now;
        self.last = Last::Hook;
    }
}

impl PipelineObserver for SpanObserver<'_> {
    fn on_matching(&mut self, g: &Graph, m: &Matching) {
        self.close("coarsen.match");
        if self.counts.matched_ratio_l0 == 0.0 && g.n() == self.root_n {
            self.counts.matched_ratio_l0 = 2.0 * m.pairs() as f64 / g.n() as f64;
        }
    }

    fn on_contraction(&mut self, _fine: &Graph, _m: &Matching, _c: &Contraction) {
        self.close("coarsen.contract");
    }

    fn on_level_stats(&mut self, stats: &LevelStats) {
        self.close("coarsen");
        self.counts.levels += 1;
        self.counts.arena_bytes = self.counts.arena_bytes.max(stats.arena_bytes);
    }

    fn on_hierarchy(&mut self, _h: &Hierarchy) {
        self.close("coarsen");
    }

    fn on_embedding(&mut self, _g: &Graph, _coords: &[Point2]) {
        self.close("embed");
    }

    fn on_geo_partition(&mut self, _g: &Graph, geo: &GeoPartResult) {
        self.close("geopart");
        self.counts.tries += geo.try_cuts.len();
    }

    fn on_refined(&mut self, _g: &Graph, _bi: &Bisection, st: &FmStats) {
        self.close("refine");
        self.last = Last::Refined;
        self.counts.passes += st.passes;
        self.counts.moved += st.moved;
        self.counts.cut_before += st.cut_before;
        self.counts.cut_after += st.cut_after;
    }

    fn poll_cancel(&mut self) -> bool {
        let now = self.tr.now_ns();
        match self.pos {
            0 => self.pos = 1,
            1 => {
                self.tr.record(
                    "graph.subgraph",
                    self.last_ns,
                    now,
                    Some(self.op_span),
                    self.op,
                );
                self.bisect_span =
                    Some(
                        self.tr
                            .record("bisect", now, now, Some(self.op_span), self.op),
                    );
                self.pos = 2;
            }
            2 => self.pos = 3,
            _ => {
                // Inside the method. ScalaPart polls after each of its
                // checkpoints; only a poll that follows the refinement, or
                // another poll, is the method's return.
                if self.scalapart && self.last == Last::Hook {
                    self.last = Last::Poll;
                    self.last_ns = now;
                    return false;
                }
                let bisect = self.bisect_span.take().expect("a bisection is open");
                if !self.scalapart {
                    let name = if self.bisections == 0 {
                        "bisect.root"
                    } else {
                        "core.subbisect"
                    };
                    let id = self
                        .tr
                        .record(name, self.last_ns, now, Some(bisect), self.op);
                    if self.bisections == 0 {
                        self.root_run = Some((self.last_ns, now, id));
                    }
                }
                self.tr.spans[bisect].end_ns = now;
                self.bisections += 1;
                self.pos = 0;
            }
        }
        self.last = Last::Poll;
        self.last_ns = now;
        false
    }
}

/// Counts words on the simulated wire; nothing else is recorded.
#[derive(Default)]
struct WordCounter {
    words: Arc<Mutex<usize>>,
}

impl Recorder for WordCounter {
    fn on_send(&mut self, _: Phase, _: usize, _: usize, words: usize, _: f64, _: f64) {
        *self.words.lock().unwrap() += words;
    }

    fn on_collective(&mut self, _: Phase, _: CollectiveKind, words: usize, _: &[f64], _: f64) {
        *self.words.lock().unwrap() += words;
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn run_traced_op(
    spec: &BatchSpec,
    j: usize,
    g: &Graph,
    coords: Option<&[Point2]>,
    op: u32,
    tr: &mut Tracer,
) -> (OpOutcome, TracedOp) {
    let mut machine = fresh_machine();
    let steps: Arc<Mutex<Vec<(u64, SuperstepInfo)>>> = Arc::default();
    let words: Arc<Mutex<usize>> = Arc::default();
    {
        let steps = steps.clone();
        let epoch = Instant::now();
        let base = tr.now_ns();
        machine.set_superstep_hook(Box::new(move |info| {
            let at = base + epoch.elapsed().as_nanos() as u64;
            steps.lock().unwrap().push((at, *info));
        }));
        machine.set_recorder(Box::new(WordCounter {
            words: words.clone(),
        }));
    }
    let op_span = tr.open("op", None, op);
    let start = tr.now_ns();
    let mut obs = SpanObserver {
        tr,
        op,
        op_span,
        scalapart: spec.method == Method::ScalaPart,
        pos: 0,
        last: Last::Poll,
        last_ns: start,
        bisect_span: None,
        root_run: None,
        bisections: 0,
        root_n: g.n(),
        counts: Counts::default(),
    };
    let mut out = run_op(spec, j, g, coords, &mut machine, &mut obs);
    let (counts, root_run, pos, bisections) = (obs.counts, obs.root_run, obs.pos, obs.bisections);
    tr.close(op_span);
    // Spans are attributed by counting `poll_cancel` calls: a poll added
    // to or dropped from the pipeline would shift every later span, and
    // shows here as a cycle left open or a wrong bisection count.
    let cycle_closed = if pos == 0 && bisections == spec.k - 1 {
        Ok(())
    } else {
        Err(format!(
            "op {j}: the poll cycle ended at position {pos} after {bisections} bisections, not 0 after {}",
            spec.k - 1
        ))
    };
    out.ms = (tr.spans[op_span].end_ns - tr.spans[op_span].start_ns) as f64 / 1e6;

    // The comparators run behind one call; the machine's superstep hook
    // tells where their phases changed on the first (root) bisection.
    let steps = steps.lock().unwrap();
    if let Some((from, to, parent)) = root_run {
        let inside: Vec<&(u64, SuperstepInfo)> = steps
            .iter()
            .filter(|(at, _)| *at >= from && *at <= to)
            .collect();
        match spec.method {
            Method::ParMetisLike | Method::PtScotchLike => {
                let last_coarsen = inside
                    .iter()
                    .rev()
                    .find(|(_, i)| i.phase == Phase::Coarsen)
                    .map_or(from, |s| s.0);
                tr.record("coarsen", from, last_coarsen, Some(parent), op);
                tr.record("refine", last_coarsen, to, Some(parent), op);
            }
            Method::SpPg7Nl if inside.len() >= 2 => {
                // The last superstep charges the strip refinement that has
                // just run; everything before it is the geometric partition.
                let (fm_from, fm_to) = (inside[inside.len() - 2].0, inside[inside.len() - 1].0);
                tr.record("geopart", from, fm_from, Some(parent), op);
                tr.record("refine", fm_from, fm_to, Some(parent), op);
            }
            _ => {}
        }
    }
    let n = steps.len().max(1) as f64;
    let traced = TracedOp {
        counts,
        cycle_closed,
        supersteps: steps.len(),
        closure_wall_ms: steps.iter().map(|(_, i)| i.wall_seconds).sum::<f64>() * 1e3,
        active_rank_ratio: steps
            .iter()
            .map(|(_, i)| i.active as f64 / i.ranks as f64)
            .sum::<f64>()
            / n,
        words_sent: *words.lock().unwrap(),
    };
    (out, traced)
}

// ---------------------------------------------------------------------
// Probes.

struct EmbedProbe {
    calls: usize,
    migrations: usize,
    finest_ms: f64,
    label_fp: u64,
}

/// The root bisection again, through `scalapart_bisect_checked` with a
/// timing wrapper as the smoother (the k-way entry point takes none).
fn embed_probe(g: &Graph, tr: &mut Tracer) -> EmbedProbe {
    let mut calls = 0usize;
    let mut migrations = 0usize;
    let mut finest_ms = 0.0;
    let mut smoother = |g: &Graph,
                        coords: &mut [Point2],
                        q: usize,
                        machine: &mut Machine,
                        cfg: &LatticeConfig,
                        scratch: &mut SmoothScratch|
     -> LatticeStats {
        let t = Instant::now();
        let st = lattice_smooth_with(g, coords, q, machine, cfg, scratch);
        calls += 1;
        migrations += st.migrations;
        finest_ms = t.elapsed().as_secs_f64() * 1e3; // the last call is the finest level
        st
    };
    // Op 0's root bisection: the k-way driver hands it `seed ^ first_part`,
    // and the first part is 0.
    let cfg = SpConfig::default().with_seed(op_seed(0));
    let r = tr.time("probe.embed", None, u32::MAX, || {
        scalapart_bisect_checked(
            g,
            &mut fresh_machine(),
            &cfg,
            &mut NoopObserver,
            &mut smoother,
        )
        .expect("never cancelled")
    });
    // Side 0 takes the first part when it is the lighter side, as the
    // k-way driver assigns them.
    let (w0, w1) = r.bisection.weights(g);
    let zero_first = w0 <= w1;
    let mut fp = Fingerprint::new();
    for v in 0..g.n() as u32 {
        fp.u64(((r.bisection.side(v) == 0) != zero_first) as u64);
    }
    EmbedProbe {
        calls,
        migrations,
        finest_ms,
        label_fp: fp.finish(),
    }
}
