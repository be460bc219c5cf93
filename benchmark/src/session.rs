//! `session-stream`: the service as a writer. Two clients each open a
//! streaming session on their own base graph, on their own shard, over one
//! kept-open connection, and step it: one op is a `session_delta` batch
//! plus the `session_repartition` that follows it.
//!
//! Every batch is generated in set-up against a mirror `DeltaOverlay`, so
//! all deltas are valid; after the timed loop a mirror
//! `IncrementalRepartitioner` replays the same batches in-process, and
//! the served `partition_fp` of every step must equal the mirror's.
//!
//! The sessions talk to their shards directly, not through the router.
//! The router opens a connection per forwarded frame and a shard's accept
//! loop sleeps 5 ms between polls of its listener, so a routed step costs
//! two polls: through the router the op of the first version of this
//! workload read 10.4 ms, of which 1.9 ms was `sp-stream` and 8 ms sleep,
//! with a spread of 0.3 % — a timer, not work. On a kept-open connection
//! nothing sleeps: the op is the shard's session layer (decode, apply,
//! delta-chain fingerprint, encode) plus the `sp-stream` step.

use crate::report::RunResult;
use crate::serve::{
    block_pair_ratios, closed_loop, is_traced, start_shards, stop_shards, CLIENTS, MIN_OPS,
};
use crate::span::Tracer;
use crate::stats::{median_or_zero, Samples};
use crate::{mix, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sp_geometry::Point2;
use sp_graph::{Bisection, Graph};
use sp_serve::json::Value;
use sp_serve::proto::Request;
use sp_serve::{Client, Server};
use sp_stream::{
    DeltaOverlay, GraphDelta, IncrementalRepartitioner, StepMode, StepReport, StreamConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// One unstructured mesh (n = 46 k), one grid (n = 37 k), both with
/// coordinates.
const BASES: [&str; CLIENTS] = ["suite:hugetrace-00000:bench", "gen:grid:192x192"];
/// Steps per session at the nominal run length.
const STEPS: usize = 600;
/// Deltas in a batch: enough that the step (2-hop dirty region around 256
/// deltas, an eighth of the graph) outweighs the frame handling.
const BATCH: usize = 256;
/// Every `BIG_EVERY`th batch is `BIG_FACTOR` times larger, which dirties
/// enough of the graph to force the full-repartition fallback.
const BIG_EVERY: usize = 50;
const BIG_FACTOR: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Session {
    name: String,
    seed: u64,
    graph: Arc<Graph>,
    coords: Option<Vec<Point2>>,
    batches: Vec<Vec<GraphDelta>>,
    /// `session_delta` frames, one per batch, encoded in set-up.
    frames: Vec<String>,
    repartition_frame: String,
}

fn delta_json(d: &GraphDelta) -> String {
    match *d {
        GraphDelta::AddEdge { u, v, w } => {
            format!("{{\"op\": \"add_edge\", \"u\": {u}, \"v\": {v}, \"w\": {w}}}")
        }
        GraphDelta::RemoveEdge { u, v } => {
            format!("{{\"op\": \"remove_edge\", \"u\": {u}, \"v\": {v}}}")
        }
        GraphDelta::SetVwgt { v, w } => format!("{{\"op\": \"set_vwgt\", \"v\": {v}, \"w\": {w}}}"),
        GraphDelta::ShiftCoord { v, dx, dy } => {
            format!("{{\"op\": \"shift_coord\", \"v\": {v}, \"dx\": {dx}, \"dy\": {dy}}}")
        }
    }
}

/// One valid delta against the overlay's current state: a local edge
/// added or removed, a vertex weight set, a coordinate nudged.
fn next_delta(overlay: &DeltaOverlay, rng: &mut StdRng) -> GraphDelta {
    let n = overlay.n() as u32;
    loop {
        let v = rng.random_range(0..n);
        let nbrs: Vec<u32> = overlay.neighbors_w(v).map(|(u, _)| u).collect();
        match rng.random_range(0..4) {
            0 if !nbrs.is_empty() => {
                // An edge to a neighbour's neighbour keeps the mesh local.
                let via = nbrs[rng.random_range(0..nbrs.len())];
                let far: Vec<u32> = overlay.neighbors_w(via).map(|(u, _)| u).collect();
                let u = far[rng.random_range(0..far.len())];
                if u != v && !nbrs.contains(&u) {
                    return GraphDelta::AddEdge {
                        u: v,
                        v: u,
                        w: rng.random_range(1..=4) as f64 * 0.5,
                    };
                }
            }
            1 if nbrs.len() > 2 => {
                let u = nbrs[rng.random_range(0..nbrs.len())];
                if overlay.degree(u) > 2 {
                    return GraphDelta::RemoveEdge { u: v, v: u };
                }
            }
            2 => {
                return GraphDelta::SetVwgt {
                    v,
                    w: rng.random_range(2..=6) as f64 * 0.25,
                }
            }
            3 => {
                let (dx, dy) = (rng.random_range(-0.01..0.01), rng.random_range(-0.01..0.01));
                return GraphDelta::ShiftCoord { v, dx, dy };
            }
            _ => {}
        }
    }
}

fn open_frame(name: &str, base: &str, seed: u64) -> String {
    format!("{{\"type\": \"session_open\", \"session\": \"{name}\", \"graph\": \"{base}\", \"seed\": {seed}}}")
}

fn plan_session(c: usize, steps: usize, tr: &mut Tracer) -> Session {
    let name = format!("s{c}");
    // The session seed fixes the bootstrap partition and the stream seed
    // every delta: both are constants, like the base graph, so that cut
    // drift and migration read the same on every run.
    let session_seed = mix(1, 0x5E55 + c as u64) & ((1 << 40) - 1);
    let frame = open_frame(&name, BASES[c], session_seed);
    let decoded = tr.time("graph.gen", None, u32::MAX, || {
        Request::decode(frame.as_bytes())
    });
    let Ok(Request::SessionOpen { graph, coords, .. }) = decoded else {
        panic!("the benchmark's own session_open frame did not decode");
    };
    let coords = coords.map(|c| (*c).clone());
    let mut overlay = DeltaOverlay::new(graph.clone(), coords.clone()).expect("a valid base graph");
    let mut rng = StdRng::seed_from_u64(mix(1, 0xDE17A + c as u64));
    let mut batches = Vec::with_capacity(steps);
    let mut frames = Vec::with_capacity(steps);
    for step in 0..steps {
        let len = if (step + 1) % BIG_EVERY == 0 {
            BATCH * BIG_FACTOR
        } else {
            BATCH
        };
        let mut batch = Vec::with_capacity(len);
        for _ in 0..len {
            let d = next_delta(&overlay, &mut rng);
            overlay.apply(&d).expect("generated deltas are valid");
            batch.push(d);
        }
        let deltas: Vec<String> = batch.iter().map(delta_json).collect();
        frames.push(format!(
            "{{\"type\": \"session_delta\", \"session\": \"{name}\", \"deltas\": [{}]}}",
            deltas.join(", ")
        ));
        batches.push(batch);
    }
    Session {
        repartition_frame: format!(
            "{{\"type\": \"session_repartition\", \"session\": \"{name}\"}}"
        ),
        name,
        seed: session_seed,
        graph,
        coords,
        batches,
        frames,
    }
}

struct Setup {
    /// Session `c` lives on shard `c`.
    shards: Vec<Arc<Server>>,
    sessions: Vec<Session>,
}

impl Setup {
    fn client(&self, c: usize) -> Client {
        Client::connect(&self.shards[c].local_addr()).expect("connect to a shard")
    }
}

fn setup(steps: usize, tr: &mut Tracer) -> Setup {
    let sessions: Vec<Session> = (0..CLIENTS).map(|c| plan_session(c, steps, tr)).collect();
    let s = Setup {
        shards: start_shards(),
        sessions,
    };
    for (c, sess) in s.sessions.iter().enumerate() {
        let resp = s
            .client(c)
            .request(&open_frame(&sess.name, BASES[c], sess.seed))
            .expect("session_open");
        assert!(
            resp.contains("\"status\": \"open\""),
            "session_open was refused: {resp}"
        );
    }
    s
}

/// One served step, as the client saw it.
struct Seen {
    ms: f64,
    delta_ms: f64,
    delta_ok: bool,
    response: String,
}

/// Traced and plain steps take turns in blocks this long: short, because
/// the host has slow spells of seconds to minutes, and the finer the two
/// kinds interleave, the more alike a spell hits them.
const TRACE_BLOCK: usize = 10;
/// Steps after which both kinds have had as many ordinary steps and as
/// many large batches: a traced run walks a whole number of these.
const TRACE_CYCLE: usize = 4 * BIG_EVERY;

/// Step both sessions through `steps` batches, one closed-loop client per
/// session; returns what each step saw, per session, and the wall time.
fn drive(s: &Setup, steps: usize, trace: bool, tr: &mut Tracer) -> (Vec<Vec<Seen>>, f64) {
    closed_loop(
        tr,
        |c| s.client(c),
        |c, client, spans| {
            let sess = &s.sessions[c];
            let mut seen = Vec::with_capacity(steps);
            for step in 0..steps {
                let t = Instant::now();
                let t0 = spans.now_ns();
                let delta = client.request(&sess.frames[step]);
                let delta_ms = t.elapsed().as_secs_f64() * 1e3;
                let t1 = spans.now_ns();
                let response = client.request(&sess.repartition_frame);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if is_traced(trace, step, TRACE_BLOCK) {
                    let (t2, op) = (spans.now_ns(), (step * CLIENTS + c) as u32);
                    let id = spans.record("client.step", t0, t2, None, op);
                    spans.record("session.delta", t0, t1, Some(id), op);
                    spans.record("session.repart", t1, t2, Some(id), op);
                }
                seen.push(Seen {
                    ms,
                    delta_ms,
                    delta_ok: delta.is_ok_and(|d| d.contains("\"status\": \"delta\"")),
                    response: response.unwrap_or_default(),
                });
            }
            seen
        },
    )
}

/// Cut and balance straight from the mirror's labels.
fn recompute(overlay: &DeltaOverlay, sides: &Bisection) -> (f64, f64) {
    let mut cut = 0.0;
    let mut weight = [0.0f64; 2];
    for v in 0..overlay.n() as u32 {
        weight[sides.side(v) as usize] += overlay.vwgt(v);
        for (u, w) in overlay.neighbors_w(v) {
            if u > v && sides.side(u) != sides.side(v) {
                cut += w;
            }
        }
    }
    (
        cut,
        weight[0].max(weight[1]) / ((weight[0] + weight[1]) / 2.0),
    )
}

/// What one served step says, next to what the mirror computed.
struct Step {
    served_cut: f64,
    served_ratio: f64,
    sim_time: f64,
    /// Vertices that changed side ÷ n.
    migration_frac: f64,
    report: StepReport,
}

/// Replay `sess` through an in-process repartitioner and hold every served
/// step against it.
fn replay(sess: &Session, seen: &[Seen], res: &mut Vec<Result<(), String>>) -> Vec<Step> {
    let overlay =
        DeltaOverlay::new(sess.graph.clone(), sess.coords.clone()).expect("a valid base graph");
    let cfg = StreamConfig {
        seed: sess.seed,
        ..StreamConfig::default()
    };
    let (mut rp, _) = IncrementalRepartitioner::new(overlay, cfg);
    let n = sess.graph.n() as f64;
    let mut steps = Vec::with_capacity(seen.len());
    for (i, s) in seen.iter().enumerate() {
        let report = rp
            .step(&sess.batches[i])
            .expect("generated deltas are valid");
        let v = Value::parse(&s.response).unwrap_or(Value::Null);
        let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let fp = v
            .get("partition_fp")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok());
        let mut verdict = if !s.delta_ok {
            Err(format!(
                "{} step {i}: the delta batch was refused",
                sess.name
            ))
        } else if fp != Some(report.partition_fp) {
            Err(format!(
                "{} step {i}: served partition_fp differs from the mirror's",
                sess.name
            ))
        } else if num("cut_after") != report.cut_after
            || num("migration_volume") != report.migration_volume as f64
        {
            Err(format!(
                "{} step {i}: served cut or migration differs from the mirror's",
                sess.name
            ))
        } else {
            Ok(())
        };
        // At every large batch and at the end, recompute from the labels.
        if verdict.is_ok() && ((i + 1) % BIG_EVERY == 0 || i + 1 == seen.len()) {
            let (cut, ratio) = recompute(rp.overlay(), rp.partition());
            if cut != report.cut_after || (ratio - 1.0 - report.imbalance).abs() > 1e-9 {
                verdict = Err(format!(
                    "{} step {i}: recomputed cut {cut} differs from the served",
                    sess.name
                ));
            }
        }
        res.push(verdict);
        steps.push(Step {
            served_cut: num("cut_after"),
            served_ratio: 1.0 + num("imbalance"),
            sim_time: num("sim_time"),
            migration_frac: report.migration_volume as f64 / n,
            report,
        });
    }
    steps
}

pub fn run(args: &Args) -> RunResult {
    let mut res = RunResult::new("session-stream", args.trace);
    let mut tr = Tracer::new(Instant::now());
    let (nominal, floor) = if args.reduced {
        (TRACE_CYCLE, 1)
    } else {
        (STEPS, MIN_OPS / CLIENTS)
    };
    let mut steps = crate::scaled_ops(nominal, floor, args.seconds);
    assert!(
        args.reduced || steps * CLIENTS >= MIN_OPS,
        "a serve workload times at least {MIN_OPS} ops"
    );
    if args.trace {
        // Two thirds of the way, in whole cycles: half the blocks with
        // spans around both round trips.
        steps = (steps * 2 / 3 / TRACE_CYCLE).max(1) * TRACE_CYCLE;
    }

    let setup_reps = if args.reduced { 1 } else { SETUP_REPS };
    let (s, setup_s) = crate::timed_setups(
        setup_reps,
        || setup(steps, &mut tr),
        |old| stop_shards(&old.shards),
    );

    let (seen, wall) = drive(&s, steps, args.trace, &mut tr);
    let plain: Vec<&Seen> = seen
        .iter()
        .flat_map(|per| {
            per.iter()
                .enumerate()
                .filter(|(i, _)| !is_traced(args.trace, *i, TRACE_BLOCK))
                .map(|(_, x)| x)
        })
        .collect();

    // ---- The mirror: both sessions replayed side by side, every served
    // step held against it.
    let mut verdicts: Vec<Vec<Result<(), String>>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    let mut mirrored: Vec<Vec<Step>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .sessions
            .iter()
            .zip(verdicts.iter_mut())
            .enumerate()
            .map(|(c, (sess, verdicts))| {
                let seen = &seen[c];
                scope.spawn(move || replay(sess, seen, verdicts))
            })
            .collect();
        mirrored = handles
            .into_iter()
            .map(|h| h.join().expect("mirror thread"))
            .collect();
    });
    for v in verdicts.into_iter().flatten() {
        res.check(v);
    }

    let all: Vec<&Step> = mirrored.iter().flatten().collect();
    let lat = Samples::new(plain.iter().map(|x| x.ms).collect());
    let p50 = lat.median().unwrap();
    let migration_ratio = all.iter().map(|st| st.migration_frac).sum::<f64>() / all.len() as f64;
    let m = &mut res.metrics;
    if let Some(p95) = lat.tail(95.0) {
        m.set_n("op_ms_p95", p95, lat.n());
    }
    m.set_n("migration_ratio", migration_ratio, all.len());
    if !args.trace {
        m.set_n("setup_s", setup_s, setup_reps);
        m.set_n("op_ms_p50", p50, lat.n());
        m.set_n("ops_per_s", lat.n() as f64 / wall, lat.n());
        // The mean cut along each stream, summed over the two sessions.
        m.set(
            "edge_cut",
            mirrored
                .iter()
                .map(|steps| steps.iter().map(|st| st.served_cut).sum::<f64>() / steps.len() as f64)
                .sum(),
        );
        m.set(
            "imbalance_max",
            all.iter().map(|st| st.served_ratio).fold(0.0, f64::max),
        );
        let sims: Vec<f64> = all.iter().map(|st| st.sim_time).collect();
        m.set_n("sim_time", median_or_zero(&sims), sims.len());
        stop_shards(&s.shards);
        return res;
    }

    let steps_n = all.len() as f64;
    let step_ms: Vec<f64> = all.iter().map(|st| st.report.wall_ms).collect();
    let step_p50 = median_or_zero(&step_ms);
    m.set_n("stream.step_ms_p50", step_p50, step_ms.len());
    m.set(
        "stream.full_ratio",
        all.iter()
            .filter(|st| st.report.mode == StepMode::Full)
            .count() as f64
            / steps_n,
    );
    m.set(
        "stream.dirty_frac_mean",
        all.iter().map(|st| st.report.dirty_frac).sum::<f64>() / steps_n,
    );
    m.set(
        "stream.migration_per_step",
        all.iter()
            .map(|st| st.report.migration_volume as f64)
            .sum::<f64>()
            / steps_n,
    );
    let delta_ms: Vec<f64> = plain.iter().map(|x| x.delta_ms).collect();
    let repart_ms: Vec<f64> = plain.iter().map(|x| x.ms - x.delta_ms).collect();
    m.set_n(
        "session.delta_ms_p50",
        median_or_zero(&delta_ms),
        delta_ms.len(),
    );
    m.set_n(
        "session.repart_ms_p50",
        median_or_zero(&repart_ms),
        repart_ms.len(),
    );
    m.set("session.wire_overhead_ms", p50 - step_p50);
    m.set(
        "refine.passes",
        all.iter().map(|st| st.report.fm_passes as f64).sum::<f64>() / steps_n,
    );
    let (before, after) = all.iter().fold((0.0, 0.0), |(b, a), st| {
        (b + st.report.cut_before, a + st.report.cut_after)
    });
    m.set(
        "refine.cut_gain_ratio",
        if before > 0.0 {
            (before - after) / before
        } else {
            0.0
        },
    );
    m.set_n(
        "graph.gen_ms",
        median_or_zero(&tr.durations_ms("graph.gen")),
        CLIENTS * setup_reps,
    );
    let pairs: Vec<f64> = seen
        .iter()
        .flat_map(|per| {
            let ms: Vec<f64> = per.iter().map(|x| x.ms).collect();
            block_pair_ratios(&ms, TRACE_BLOCK)
        })
        .collect();
    m.set_n("trace.overhead_ratio", median_or_zero(&pairs), pairs.len());

    stop_shards(&s.shards);
    crate::write_trace(args, "session-stream", &tr);
    res
}
