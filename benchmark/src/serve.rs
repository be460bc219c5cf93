//! `serve-mix`: request in → response out through client, router, shard,
//! queue, worker and cache, plus the loopback fleet both serve workloads
//! share.
//!
//! The load is a closed loop: a simulation campaign's callers each wait
//! for their reply before sending the next request, so two clients (one
//! per core) each walk their half of a fixed, seed-derived op list.

use crate::batch::{check_labels, Checked};
use crate::report::RunResult;
use crate::span::Tracer;
use crate::stats::{median_or_zero, Samples};
use crate::{mix, Args};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scalapart::{Method, PartitionSummary};
use sp_graph::gen::trace_mesh;
use sp_graph::io::{read_chaco, write_chaco};
use sp_graph::Graph;
use sp_serve::json::Value;
use sp_serve::proto::{encode_outcome, extract_raw_field, Request};
use sp_serve::ring::DEFAULT_VNODES;
use sp_serve::{
    fingerprint_graph, fingerprint_input, Client, JobOutcome, PartitionOutput, Ring, Router,
    RouterConfig, RouterServer, ServeConfig, Server,
};
use sp_trace::fnv::Fingerprint;
use sp_trace::json::escape;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Closed-loop clients, one per core of the reference machine.
pub const CLIENTS: usize = 2;
/// Timed ops a serve workload never goes below.
pub const MIN_OPS: usize = 1000;
/// Timed ops at the nominal run length: 85 % hits, 15 % misses.
const OPS: usize = 1000;
const HOT_KEYS: usize = 24;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fresh-seed misses alternate between these on the miss graph.
const MISS_GRAPH: &str = "gen:grid:128x128";
/// The largest hot graph; the fingerprint probe runs on it.
const BIG_GRID: &str = "gen:grid:256x256";
const MISS_METHODS: [Method; 2] = [Method::SpPg7Nl, Method::ParMetisLike];

// ---------------------------------------------------------------------
// The fleet.

const SHARD_NAMES: [&str; 2] = ["shard-0", "shard-1"];

/// Two shards (one worker, cache 64, 8 ranks each) on loopback.
pub fn start_shards() -> Vec<Arc<Server>> {
    let cfg = ServeConfig {
        workers: 1,
        cache_capacity: 64,
        ranks: 8,
        session_max_deltas: 1_000_000,
        ..ServeConfig::default()
    };
    SHARD_NAMES
        .iter()
        .map(|_| Server::bind("127.0.0.1:0", cfg.clone()).expect("bind a shard on loopback"))
        .collect()
}

/// Drain and join everything the shards started.
pub fn stop_shards(shards: &[Arc<Server>]) {
    for s in shards {
        s.shutdown();
        s.wait();
    }
}

/// Router → the two shards.
struct Fleet {
    shards: Vec<Arc<Server>>,
    router: Arc<RouterServer>,
}

impl Fleet {
    fn start() -> Fleet {
        let shards = start_shards();
        let table: Vec<(String, String)> = SHARD_NAMES
            .iter()
            .zip(&shards)
            .map(|(name, s)| (name.to_string(), s.local_addr().to_string()))
            .collect();
        // Health probes off: no shard dies here, and a probe every 500 ms
        // would be one more thing sharing the two cores.
        let router = Router::new(
            RouterConfig {
                health_interval_ms: 0,
                ..RouterConfig::default()
            },
            &table,
        )
        .expect("router over the shards");
        let router =
            RouterServer::bind("127.0.0.1:0", router).expect("bind the router on loopback");
        Fleet { shards, router }
    }

    fn client(&self) -> Client {
        Client::connect(&self.router.local_addr()).expect("connect to the router")
    }

    /// The shard the router's ring hands this routing key to.
    fn owner(&self, key: u64) -> &Arc<Server> {
        let ring = Ring::new(&SHARD_NAMES, DEFAULT_VNODES);
        let name = ring.owner(key).expect("two shards are up");
        &self.shards[SHARD_NAMES.iter().position(|n| *n == name).unwrap()]
    }

    fn stop(self) {
        self.router.shutdown();
        self.router.wait();
        stop_shards(&self.shards);
    }
}

// ---------------------------------------------------------------------
// The op list.

#[derive(Clone)]
enum Source {
    Spec(&'static str),
    Chaco(Arc<String>),
}

/// One distinct submit: its frame is encoded once, at set-up, so the timed
/// loop sends bytes it already has (the inline mesh is 150 kB to escape).
#[derive(Clone)]
struct Key {
    source: Source,
    parts: usize,
    frame: String,
}

impl Key {
    fn new(source: Source, method: Method, parts: usize, seed: u64) -> Key {
        let graph = match &source {
            Source::Spec(s) => format!("\"graph\": \"{s}\""),
            Source::Chaco(text) => format!("\"chaco\": \"{}\"", escape(text)),
        };
        let frame = format!(
            "{{\"type\": \"submit\", {graph}, \"method\": \"{}\", \"parts\": {parts}, \"seed\": {seed}}}",
            method.proto_name(),
        );
        Key {
            source,
            parts,
            frame,
        }
    }
}

/// Partition seeds are constants of the workload, like its graphs: only
/// the order of the op list moves with `--seed`, so the cut, balance and
/// simulated time of every distinct op read the same on every run. They
/// stay below 2^40 because the wire carries them as JSON numbers.
fn wire_seed(salt: u64) -> u64 {
    mix(1, salt) & ((1 << 40) - 1)
}

/// The 24-key hot set: five graphs × methods × parts {4, 16}.
fn hot_set(chaco: &Arc<String>) -> Vec<Key> {
    use Method::{G7Nl, ParMetisLike, PtScotchLike, Rcb, SpPg7Nl};
    let graphs: [(Source, &[Method]); 5] = [
        (
            Source::Spec("gen:grid:128x128"),
            &[SpPg7Nl, ParMetisLike, Rcb, G7Nl],
        ),
        (Source::Spec(BIG_GRID), &[SpPg7Nl, ParMetisLike, Rcb]),
        (Source::Spec("suite:delaunay_n20:bench"), &[SpPg7Nl, Rcb]),
        (Source::Spec("suite:kkt_power:bench"), &[ParMetisLike]),
        (Source::Chaco(chaco.clone()), &[ParMetisLike, PtScotchLike]),
    ];
    let mut keys = Vec::new();
    for (source, methods) in graphs {
        for &method in methods {
            for parts in [4, 16] {
                let seed = wire_seed(0x407 + keys.len() as u64);
                keys.push(Key::new(source.clone(), method, parts, seed));
            }
        }
    }
    assert_eq!(keys.len(), HOT_KEYS);
    keys
}

#[derive(Clone, Copy)]
enum Op {
    Hot(usize),
    Miss(usize),
}

/// `n` ops in blocks of twenty — seventeen draws from the hot set, three
/// fresh-seed misses — shuffled inside each block, so the hit ratio is
/// 0.85 exactly on every prefix of whole blocks. For a traced run every
/// `TRACE_BLOCK` ops come twice, the second time with fresh miss seeds,
/// and one of the two is traced: plain and traced ops are then the same
/// mix.
fn op_list(seed: u64, n: usize, trace: bool) -> (Vec<Op>, Vec<Key>) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x0915));
    let mut misses: Vec<Key> = Vec::new();
    let fresh_miss = |misses: &mut Vec<Key>| {
        let i = misses.len();
        misses.push(Key::new(
            Source::Spec(MISS_GRAPH),
            MISS_METHODS[i % 2],
            4,
            wire_seed(0x1_0000 + i as u64),
        ));
        Op::Miss(i)
    };
    let step = if trace { 2 * TRACE_BLOCK } else { TRACE_BLOCK };
    assert!(n.is_multiple_of(step), "the op list comes in whole blocks");
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let mut block = Vec::with_capacity(TRACE_BLOCK);
        for _ in 0..TRACE_BLOCK / 20 {
            let mut twenty: Vec<Op> = (0..17)
                .map(|_| Op::Hot(rng.random_range(0..HOT_KEYS)))
                .collect();
            twenty.extend((0..3).map(|_| fresh_miss(&mut misses)));
            twenty.shuffle(&mut rng);
            block.extend(twenty);
        }
        ops.extend(&block);
        if trace {
            ops.extend(block.iter().map(|op| match op {
                Op::Hot(h) => Op::Hot(*h),
                Op::Miss(_) => fresh_miss(&mut misses),
            }));
        }
    }
    (ops, misses)
}

// ---------------------------------------------------------------------
// Responses.

fn fnv(bytes: &[u8]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.bytes(bytes);
    fp.finish()
}

/// What a client keeps of one response while the loop runs.
struct Seen {
    ms: f64,
    bytes: usize,
    ok: bool,
    cache_hit: bool,
    result_fp: u64,
    /// Kept for misses only: their labels are checked after the loop.
    body: Option<String>,
}

fn observe(resp: String, ms: f64, keep: bool) -> Seen {
    let head = &resp[..resp.len().min(160)];
    Seen {
        ms,
        bytes: resp.len(),
        ok: head.contains("\"status\": \"ok\""),
        cache_hit: head.contains("\"cache_hit\": true"),
        result_fp: extract_raw_field(&resp, "result").map_or(0, |r| fnv(r.as_bytes())),
        body: keep.then_some(resp),
    }
}

/// A partition response, parsed for checking.
struct Parsed {
    part: Vec<u32>,
    k: usize,
    sim_time: f64,
    input_fp: u64,
    summary: PartitionSummary,
    result_json: String,
}

fn parse_response(resp: &str) -> Result<Parsed, String> {
    let v = Value::parse(resp).map_err(|e| format!("response is not JSON: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!(
            "response status is not ok: {}",
            &resp[..resp.len().min(200)]
        ));
    }
    let r = v.get("result").ok_or("response has no result")?;
    let num = |k: &str| {
        r.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("result has no {k}"))
    };
    let part: Vec<u32> = r
        .get("part")
        .and_then(Value::as_arr)
        .ok_or("result has no labels")?
        .iter()
        .map(|p| {
            p.as_u64()
                .map(|p| p as u32)
                .ok_or("a label is not an integer")
        })
        .collect::<Result<_, _>>()?;
    let fp_hex = v
        .get("fingerprint")
        .and_then(Value::as_str)
        .ok_or("no fingerprint")?;
    Ok(Parsed {
        k: num("k")? as usize,
        sim_time: v
            .get("sim_time")
            .and_then(Value::as_f64)
            .ok_or("no sim_time")?,
        input_fp: u64::from_str_radix(fp_hex, 16).map_err(|_| "bad fingerprint")?,
        summary: PartitionSummary {
            n: part.len(),
            k: num("k")? as usize,
            edge_cut: num("edge_cut")?,
            cut_edges: num("cut_edges")? as usize,
            imbalance: num("imbalance")?,
            comm_volume: num("comm_volume")? as usize,
        },
        result_json: extract_raw_field(resp, "result")
            .ok_or("no result bytes")?
            .to_string(),
        part,
    })
}

/// Materialise a submit frame's graph the way the shard does.
fn decode_graph(frame: &str) -> (Arc<Graph>, u64) {
    match Request::decode(frame.as_bytes()) {
        Ok(Request::Submit {
            graph,
            coords,
            method,
            parts,
            seed,
            ..
        }) => {
            let input = fingerprint_input(&graph, coords.as_ref().map(|c| c.as_slice()));
            let mut fp = Fingerprint::new();
            fp.u64(input);
            fp.bytes(method.proto_name().as_bytes());
            fp.u64(parts as u64);
            fp.u64(seed);
            (graph, fp.finish())
        }
        _ => panic!("the benchmark's own submit frame did not decode"),
    }
}

fn check_response(resp: &str, graph: &Graph, key: &Key) -> Result<(Checked, f64), String> {
    let p = parse_response(resp)?;
    if p.k != key.parts {
        return Err(format!("asked for {} parts, got {}", key.parts, p.k));
    }
    let c = check_labels(graph, &p.part, p.k)?;
    if c.cut != p.summary.cut_edges as u64 {
        return Err(format!(
            "recomputed cut {} differs from the served {}",
            c.cut, p.summary.cut_edges
        ));
    }
    Ok((c, p.sim_time))
}

// ---------------------------------------------------------------------
// The workload.

struct Setup {
    fleet: Fleet,
    hot: Vec<Key>,
    /// The miss that filled each hot key, as served during set-up.
    filled: Vec<String>,
    ops: Vec<Op>,
    misses: Vec<Key>,
}

fn setup(seed: u64, n_ops: usize, trace: bool, tr: &mut Tracer) -> Setup {
    let (mesh, _) = trace_mesh(8192, &mut StdRng::seed_from_u64(0xC4AC0));
    let mut text = Vec::new();
    write_chaco(&mesh, &mut text).expect("write to memory");
    let chaco = Arc::new(String::from_utf8(text).expect("chaco text is ASCII"));
    let hot = hot_set(&chaco);
    let (ops, misses) = op_list(seed, n_ops, trace);
    let fleet = Fleet::start();
    let mut client = fleet.client();
    let filled = hot
        .iter()
        .map(|k| {
            tr.time("setup.prefill", None, u32::MAX, || {
                client.request(&k.frame).expect("prefill")
            })
        })
        .collect();
    Setup {
        fleet,
        hot,
        filled,
        ops,
        misses,
    }
}

/// Release `CLIENTS` threads together, each with the connection `connect`
/// opens for it, and wait for all of them: returns what each returned and
/// the wall time from release to the last one finishing. Spans the bodies
/// record land in `tr`.
pub fn closed_loop<T: Send>(
    tr: &mut Tracer,
    connect: impl Fn(usize) -> Client + Sync,
    body: impl Fn(usize, &mut Client, &mut Tracer) -> T + Sync,
) -> (Vec<T>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    let epoch = tr.epoch();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, body, connect) = (&barrier, &body, &connect);
                scope.spawn(move || {
                    let mut client = connect(c);
                    let mut spans = Tracer::new(epoch);
                    barrier.wait();
                    let out = body(c, &mut client, &mut spans);
                    barrier.wait();
                    (out, spans)
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        barrier.wait();
        let wall = t.elapsed().as_secs_f64();
        let mut outs = Vec::new();
        for h in handles {
            let (out, spans) = h.join().expect("client thread");
            outs.push(out);
            tr.absorb(spans);
        }
        (outs, wall)
    })
}

/// In a traced run, ops take turns in blocks — plain, traced, traced,
/// plain, and so on — so that whatever drifts along the list hits both
/// alike: each pair of blocks has one of either kind, and over four blocks
/// both kinds sit equally late.
pub fn is_traced(trace: bool, index: usize, block: usize) -> bool {
    trace && matches!((index / block) % 4, 1 | 2)
}

/// Short blocks: the host has slow spells of seconds to minutes, and the
/// finer plain and traced ops interleave, the more alike a spell hits them.
const TRACE_BLOCK: usize = 20;

/// Tracing cost of a traced run's op times `ms`, in the order the ops ran:
/// every two neighbouring blocks hold one plain and one traced, and each
/// such pair gives the ratio of their medians. Neighbours share the host's
/// mood, so the median of these ratios holds where the ratio of two
/// medians taken over the whole run does not.
pub fn block_pair_ratios(ms: &[f64], block: usize) -> Vec<f64> {
    ms.chunks_exact(2 * block)
        .enumerate()
        .map(|(pair, both)| {
            let (first, second) = both.split_at(block);
            let (first, second) = (median_or_zero(first), median_or_zero(second));
            if is_traced(true, 2 * pair * block, block) {
                first / second
            } else {
                second / first
            }
        })
        .collect()
}

/// Walk the op list from the closed-loop clients, client `c` taking every
/// op whose index is `c` modulo `CLIENTS`; returns what each op saw, in op
/// order, and the wall time of the loop.
fn drive(s: &Setup, trace: bool, tr: &mut Tracer) -> (Vec<Seen>, f64) {
    let connect = |_| s.fleet.client();
    let (per_client, wall) = closed_loop(tr, connect, |c, client, spans| {
        let mut seen = Vec::new();
        for i in (c..s.ops.len()).step_by(CLIENTS) {
            let (frame, keep) = match s.ops[i] {
                Op::Hot(h) => (&s.hot[h].frame, false),
                Op::Miss(m) => (&s.misses[m].frame, true),
            };
            let t = Instant::now();
            let start = spans.now_ns();
            let resp = client.request(frame);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if is_traced(trace, i, TRACE_BLOCK) {
                let name = if keep { "client.miss" } else { "client.hit" };
                spans.record(name, start, spans.now_ns(), None, i as u32);
            }
            seen.push((
                i,
                match resp {
                    Ok(r) => observe(r, ms, keep),
                    Err(_) => Seen {
                        ms,
                        bytes: 0,
                        ok: false,
                        cache_hit: false,
                        result_fp: 0,
                        body: None,
                    },
                },
            ));
        }
        seen
    });
    let mut all: Vec<(usize, Seen)> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    (all.into_iter().map(|(_, s)| s).collect(), wall)
}

pub fn run(args: &Args) -> RunResult {
    let mut res = RunResult::new("serve-mix", args.trace);
    let mut tr = Tracer::new(Instant::now());
    let (nominal, floor) = if args.reduced {
        (400, TRACE_BLOCK)
    } else {
        (OPS, MIN_OPS)
    };
    let mut n_ops = crate::scaled_ops(nominal, floor, args.seconds) / TRACE_BLOCK * TRACE_BLOCK;
    assert!(
        args.reduced || n_ops >= MIN_OPS,
        "a serve workload times at least {MIN_OPS} ops"
    );
    if args.trace {
        // Two thirds of the list (300 plain ops at least), walked in
        // pairs of blocks: one plain, its twin with spans.
        n_ops = (n_ops * 2 / 3).max(600).min(n_ops) / (2 * TRACE_BLOCK) * (2 * TRACE_BLOCK);
    }

    // ---- Set-up, several times over; the last fleet is the one measured.
    let setup_reps = if args.reduced { 1 } else { SETUP_REPS };
    let (s, setup_s) = crate::timed_setups(
        setup_reps,
        || setup(args.seed, n_ops, args.trace, &mut tr),
        |old| old.fleet.stop(),
    );
    let before: Vec<_> = s
        .fleet
        .shards
        .iter()
        .map(|sh| sh.service().stats())
        .collect();

    // ---- The timed loop.
    let (seen, wall) = drive(&s, args.trace, &mut tr);
    let plain: Vec<(usize, &Seen)> = seen
        .iter()
        .enumerate()
        .filter(|(i, _)| !is_traced(args.trace, *i, TRACE_BLOCK))
        .collect();

    // ---- Checks, on everything driven.
    let hot_graphs: Vec<(Arc<Graph>, u64)> = s.hot.iter().map(|k| decode_graph(&k.frame)).collect();
    let miss_graph = decode_graph(&s.misses[0].frame).0;
    let mut distinct: Vec<(Checked, f64)> = Vec::new();
    let mut filled_fp = Vec::new();
    for (h, key) in s.hot.iter().enumerate() {
        filled_fp.push(extract_raw_field(&s.filled[h], "result").map_or(1, |r| fnv(r.as_bytes())));
        match check_response(&s.filled[h], &hot_graphs[h].0, key) {
            Ok(c) => distinct.push(c),
            Err(e) => res.check(Err(format!("prefill of hot key {h}: {e}"))),
        }
    }
    for (i, seen) in seen.iter().enumerate() {
        let verdict = match s.ops[i] {
            _ if !seen.ok => Err(format!("op {i} was not answered ok")),
            Op::Hot(_) if !seen.cache_hit => Err(format!("op {i} should have hit the cache")),
            Op::Hot(h) if seen.result_fp != filled_fp[h] => Err(format!(
                "op {i}: a hit's result differs from the miss that filled it"
            )),
            Op::Hot(_) => Ok(()),
            Op::Miss(_) if seen.cache_hit => Err(format!("op {i} should have missed the cache")),
            Op::Miss(m) => check_response(
                seen.body.as_deref().unwrap_or(""),
                &miss_graph,
                &s.misses[m],
            )
            .map(|c| distinct.push(c)),
        };
        res.check(verdict);
    }

    let lat = Samples::new(plain.iter().map(|(_, x)| x.ms).collect());
    let p50 = lat.median().unwrap();
    let m = &mut res.metrics;
    if let Some(p95) = lat.tail(95.0) {
        m.set_n("op_ms_p95", p95, lat.n());
    }
    if !args.trace {
        m.set_n("setup_s", setup_s, setup_reps);
        m.set_n("op_ms_p50", p50, lat.n());
        m.set_n("ops_per_s", lat.n() as f64 / wall, lat.n());
        m.set("edge_cut", distinct.iter().map(|d| d.0.cut as f64).sum());
        m.set(
            "imbalance_max",
            distinct.iter().map(|d| d.0.imbalance).fold(0.0, f64::max),
        );
        let sims: Vec<f64> = distinct.iter().map(|d| d.1).collect();
        m.set_n("sim_time", median_or_zero(&sims), sims.len());
        s.fleet.stop();
        return res;
    }

    // ---- Per-layer figures.
    let class = |hit: bool| -> Vec<f64> {
        plain
            .iter()
            .filter(|(i, _)| matches!(s.ops[*i], Op::Hot(_)) == hit)
            .map(|(_, x)| x.ms)
            .collect()
    };
    let (hits, misses) = (class(true), class(false));
    m.set_n("serve.hit_ms_p50", median_or_zero(&hits), hits.len());
    m.set_n("serve.miss_ms_p50", median_or_zero(&misses), misses.len());
    let bytes: Vec<f64> = plain.iter().map(|(_, x)| x.bytes as f64).collect();
    m.set_n("serve.resp_bytes_p50", median_or_zero(&bytes), bytes.len());
    let all_ms: Vec<f64> = seen.iter().map(|x| x.ms).collect();
    let pairs = block_pair_ratios(&all_ms, TRACE_BLOCK);
    m.set_n("trace.overhead_ratio", median_or_zero(&pairs), pairs.len());
    m.set_n(
        "graph.gen_ms",
        median_or_zero(&tr.durations_ms("setup.prefill")),
        HOT_KEYS * setup_reps,
    );

    // What the shards counted while the loops ran.
    let after: Vec<_> = s
        .fleet
        .shards
        .iter()
        .map(|sh| sh.service().stats())
        .collect();
    let delta = |f: fn(&sp_serve::ServiceStats) -> u64| -> f64 {
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| (f(a) - f(b)) as f64)
            .sum()
    };
    let (hit_n, miss_n) = (delta(|x| x.cache_hits), delta(|x| x.cache_misses));
    m.set("serve.hit_ratio", hit_n / (hit_n + miss_n));
    m.set("serve.evictions", delta(|x| x.cache_evictions));
    m.set(
        "serve.queue_depth_hwm",
        after.iter().map(|x| x.queue_depth_hwm).max().unwrap_or(0) as f64,
    );
    let shard_p50 = |pick: fn(&sp_serve::ServiceMetrics) -> &scalapart::obs::Histogram| -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for sh in &s.fleet.shards {
            let h = pick(sh.service().metrics());
            sum += h.quantile(0.5) * h.count() as f64;
            n += h.count();
        }
        sum / n.max(1) as f64
    };
    m.set("serve.queue_wait_ms_p50", shard_p50(|x| &x.queue_wait_ms));
    m.set("serve.run_ms_p50", shard_p50(|x| &x.job_run_ms));
    m.set(
        "router.failovers",
        s.fleet.router.router().failovers() as f64,
    );

    // Direct timed calls into the layers a hit passes through.
    let mut decode = Vec::new();
    let mut encode = Vec::new();
    for (h, key) in s.hot.iter().enumerate() {
        let frame = &key.frame;
        for _ in 0..3 {
            let id = tr.open("probe.decode", None, u32::MAX);
            let _ = Request::decode(frame.as_bytes());
            tr.close(id);
        }
        if let Ok(p) = parse_response(&s.filled[h]) {
            let outcome = JobOutcome::Done {
                job_id: h as u64,
                result: Arc::new(PartitionOutput {
                    part: p.part,
                    k: p.k,
                    summary: p.summary,
                    sim_time: p.sim_time,
                    input_fp: p.input_fp,
                    result_json: p.result_json,
                }),
                cache_hit: true,
                latency_ms: 0.25,
            };
            for _ in 0..3 {
                encode.push(
                    tr.time("probe.encode", None, u32::MAX, || encode_outcome(&outcome))
                        .len(),
                );
            }
        }
    }
    decode.extend(tr.durations_ms("probe.decode"));
    m.set_n("serve.decode_ms_p50", median_or_zero(&decode), decode.len());
    let encode_ms = tr.durations_ms("probe.encode");
    m.set_n(
        "serve.encode_ms_p50",
        median_or_zero(&encode_ms),
        encode_ms.len(),
    );
    let big_at = s
        .hot
        .iter()
        .position(|k| matches!(k.source, Source::Spec(BIG_GRID)))
        .expect("the big grid is hot");
    let big = &hot_graphs[big_at].0;
    for _ in 0..5 {
        tr.time("probe.fingerprint", None, u32::MAX, || {
            fingerprint_graph(big)
        });
        if let Source::Chaco(text) = &s.hot[HOT_KEYS - 1].source {
            tr.time("probe.chaco_parse", None, u32::MAX, || {
                read_chaco(text.as_bytes()).expect("own chaco text")
            });
        }
    }
    let fp_ms = tr.durations_ms("probe.fingerprint");
    m.set_n("graph.fingerprint_ms", median_or_zero(&fp_ms), fp_ms.len());
    let parse_ms = tr.durations_ms("probe.chaco_parse");
    m.set_n(
        "graph.chaco_parse_ms",
        median_or_zero(&parse_ms),
        parse_ms.len(),
    );

    // The router's hop: every hot key three times through the router and
    // three times straight to the shard that owns it, one request at a time.
    let mut routed = s.fleet.client();
    let mut hop = Vec::new();
    for (h, key) in s.hot.iter().enumerate() {
        let frame = &key.frame;
        let mut direct = Client::connect(&s.fleet.owner(hot_graphs[h].1).local_addr())
            .expect("connect to a shard");
        for _ in 0..3 {
            let a = tr.time("probe.routed", None, h as u32, || routed.request(frame));
            let b = tr.time("probe.direct", None, h as u32, || direct.request(frame));
            let hit = |r: &std::io::Result<String>| {
                r.as_ref().is_ok_and(|r| r.contains("\"cache_hit\": true"))
            };
            res.check(if hit(&a) && hit(&b) {
                Ok(())
            } else {
                Err(format!("hot key {h} missed on its owner"))
            });
        }
    }
    let (r_ms, d_ms) = (
        tr.durations_ms("probe.routed"),
        tr.durations_ms("probe.direct"),
    );
    hop.extend(r_ms.iter().zip(&d_ms).map(|(r, d)| r - d));
    res.metrics
        .set_n("router.hop_ms_p50", median_or_zero(&hop), hop.len());

    s.fleet.stop();
    crate::write_trace(args, "serve-mix", &tr);
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_pairs_know_which_neighbour_was_traced() {
        // Blocks of two: plain, traced, traced, plain.
        let ms = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 1.5, 1.5];
        assert_eq!(block_pair_ratios(&ms, 2), vec![2.0, 2.0]);
    }
}
