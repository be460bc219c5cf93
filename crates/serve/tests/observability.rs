//! Observability end-to-end tests: sp-obs wiring through the service must
//! be useful (metrics agree with reality after a concurrent burst) and
//! passive (watching a job never changes its result).

use sp_serve::json::Value;
use sp_serve::net::{Client, Server};
use sp_serve::service::{JobOutcome, JobSpec, ServeConfig, Service};
use std::sync::Arc;

use scalapart::Method;
use sp_graph::gen::{grid_2d, grid_2d_coords};

fn spec(side: usize, method: Method, seed: u64) -> JobSpec {
    JobSpec {
        graph: Arc::new(grid_2d(side, side)),
        coords: Some(Arc::new(grid_2d_coords(side, side))),
        method,
        parts: 4,
        seed,
        deadline_ms: None,
    }
}

/// Pull the value of a (possibly labelled) sample from Prometheus text.
/// `sp_cache_hits_total` matches `sp_cache_hits_total 3`; a name with a
/// label set matches exactly.
fn sample(prom: &str, series: &str) -> Option<f64> {
    prom.lines().find_map(|l| {
        let l = l.trim();
        if l.starts_with('#') {
            return None;
        }
        let (name, value) = l.rsplit_once(' ')?;
        if name == series {
            value.parse().ok()
        } else {
            None
        }
    })
}

/// The batch both services run in the passivity test: a mix of methods,
/// sizes, and seeds, with one exact repeat to exercise the cache path.
fn batch() -> Vec<JobSpec> {
    vec![
        spec(16, Method::Rcb, 1),
        spec(20, Method::ScalaPart, 7),
        spec(16, Method::ParMetisLike, 3),
        spec(20, Method::ScalaPart, 7), // cache hit
        spec(12, Method::PtScotchLike, 9),
    ]
}

#[test]
fn observation_on_and_off_yields_bit_identical_results() {
    let log_path =
        std::env::temp_dir().join(format!("sp-obs-passivity-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);

    let base = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        ranks: 4,
        ..Default::default()
    };
    // Every job runs under the per-phase profiler. "Off" writes no JSONL
    // log; "on" writes one record per event, the profiles included.
    let off = Service::start(ServeConfig {
        obs_log: None,
        ..base.clone()
    });
    let on = Service::start(ServeConfig {
        obs_log: Some(log_path.to_string_lossy().into_owned()),
        ..base
    });

    for (i, job) in batch().into_iter().enumerate() {
        let r_off = off.submit_wait(job.clone()).expect("off accepts");
        let r_on = on.submit_wait(job).expect("on accepts");
        match (&r_off, &r_on) {
            (
                JobOutcome::Done {
                    result: a,
                    cache_hit: ha,
                    ..
                },
                JobOutcome::Done {
                    result: b,
                    cache_hit: hb,
                    ..
                },
            ) => {
                // The whole observable output must match bit for bit:
                // serialized partition, simulated time, cache fingerprint.
                assert_eq!(a.result_json, b.result_json, "job {i}: result bytes differ");
                assert_eq!(
                    a.sim_time.to_bits(),
                    b.sim_time.to_bits(),
                    "job {i}: simulated time differs"
                );
                assert_eq!(a.input_fp, b.input_fp, "job {i}: cache fingerprint differs");
                assert_eq!(ha, hb, "job {i}: cache behaviour diverged");
            }
            _ => panic!("job {i}: outcomes are not both Done"),
        }
    }
    off.shutdown();
    on.shutdown();

    // The observed service really logged: one phase_profile per executed
    // (non-cache-hit) job, and every record carries a job id.
    let log = std::fs::read_to_string(&log_path).expect("obs log written");
    let profiles: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"event\":\"phase_profile\""))
        .collect();
    assert_eq!(
        profiles.len(),
        4,
        "one phase_profile per executed job:\n{log}"
    );
    // The ScalaPart job went through the pipeline checkpoints, so its
    // profile attributes wall time to all four named phases; comparator
    // methods (rcb/parmetis/ptscotch) only get totals.
    assert!(
        profiles.iter().any(|l| l.contains("\"phase\":\"coarsen\"")
            && l.contains("\"phase\":\"embed\"")
            && l.contains("\"phase\":\"partition\"")
            && l.contains("\"phase\":\"refine\"")),
        "no fully-attributed ScalaPart profile:\n{log}"
    );
    for line in log.lines().filter(|l| !l.is_empty()) {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("bad JSONL {line:?}: {e}"));
        assert!(
            v.get("job").and_then(Value::as_u64).is_some(),
            "no job id: {line}"
        );
        assert!(v.get("ts_ms").is_some(), "no timestamp: {line}");
    }
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn metrics_stay_consistent_under_eight_concurrent_clients() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 3,
            queue_capacity: 32,
            cache_capacity: 32,
            ranks: 4,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // 8 clients, 6 distinct inputs → at least 2 submissions race or land
    // on warm cache entries. No deadlines, so every accepted job
    // completes.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let (g, m) = match i % 6 {
                    0 => ("gen:grid:16x16", "rcb"),
                    1 => ("gen:grid:20x20", "sp"),
                    2 => ("gen:grid:12x18", "parmetis"),
                    3 => ("gen:grid:18x12", "ptscotch"),
                    4 => ("gen:grid:14x14", "rcb"),
                    _ => ("gen:grid:16x16", "rcb"), // repeat of case 0
                };
                let req = format!(
                    "{{\"type\": \"submit\", \"graph\": \"{g}\", \"method\": \"{m}\", \"parts\": 4, \"seed\": 5}}"
                );
                let mut c = Client::connect(&addr).unwrap();
                let reply = c.request(&req).unwrap();
                assert!(reply.contains("\"status\": \"ok\""), "reply: {reply}");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Scrape after the burst has fully drained.
    let prom = server.service().prometheus();

    // The exposition must be lint-clean (same linter CI uses).
    let problems = scalapart::obs::prom::lint(&prom);
    assert!(problems.is_empty(), "promlint: {problems:?}\n{prom}");

    let get = |s: &str| sample(&prom, s).unwrap_or_else(|| panic!("missing series {s}\n{prom}"));

    // Conservation: every accepted job either hit the cache at submit or
    // was enqueued as a miss, and (with no deadlines) all completed.
    let submitted = get("sp_jobs_submitted_total");
    let completed = get("sp_jobs_completed_total");
    let hits = get("sp_cache_hits_total");
    let misses = get("sp_cache_misses_total");
    assert_eq!(submitted, 8.0);
    assert_eq!(completed, 8.0);
    assert_eq!(
        hits + misses,
        completed,
        "hits {hits} + misses {misses} != completed"
    );

    // Queue fully drained; the high-water mark never exceeds capacity and
    // is at least the final depth.
    assert_eq!(get("sp_queue_depth"), 0.0);
    let hwm = get("sp_queue_depth_highwater");
    assert!((0.0..=32.0).contains(&hwm), "hwm {hwm}");
    assert_eq!(get("sp_workers_active"), 0.0);

    // Latency histograms saw every completed job.
    assert_eq!(get("sp_job_latency_milliseconds_count"), completed);
    // The wait histogram only covers enqueued (missed) jobs.
    assert_eq!(get("sp_queue_wait_milliseconds_count"), misses);

    // Superstep telemetry flowed from the machine's batched executor: the
    // ScalaPart jobs in the burst drive the simulated machine through many
    // supersteps, each observing one wall-time sample and refreshing the
    // rank-batch occupancy gauge.
    let supersteps = get("sp_superstep_wall_microseconds_count");
    assert!(
        supersteps > 0.0,
        "no superstep samples reached the registry\n{prom}"
    );
    let occ = get("sp_rank_batch_occupancy_percent");
    assert!(
        (0.0..=100.0).contains(&occ),
        "occupancy {occ} out of range\n{prom}"
    );

    // The in-process stats snapshot and the Prometheus view must agree.
    let stats = server.service().stats();
    assert_eq!(stats.completed as f64, completed);
    assert_eq!(stats.cache_hits as f64, hits);
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.queue_depth_hwm as f64 >= 0.0);

    server.shutdown();
    server.wait();
}

#[test]
fn metrics_frame_returns_valid_prometheus_text() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 4,
            ranks: 4,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let mut c = Client::connect(&addr).unwrap();
    let reply = c
        .request("{\"type\": \"submit\", \"graph\": \"gen:grid:12x12\", \"method\": \"rcb\", \"parts\": 2, \"seed\": 1}")
        .unwrap();
    assert!(reply.contains("\"status\": \"ok\""));

    let reply = c.request("{\"type\": \"metrics\"}").unwrap();
    let v = Value::parse(&reply).expect("frame parses");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("metrics"));
    assert_eq!(
        v.get("content_type").and_then(Value::as_str),
        Some("text/plain; version=0.0.4")
    );
    let body = v
        .get("body")
        .and_then(Value::as_str)
        .expect("body")
        .to_string();
    assert!(scalapart::obs::prom::lint(&body).is_empty(), "{body}");
    assert_eq!(sample(&body, "sp_jobs_completed_total"), Some(1.0));
    // The superstep instruments are part of the scrape surface even when
    // the method exercised few supersteps.
    assert!(
        body.contains("# TYPE sp_superstep_wall_microseconds histogram"),
        "superstep histogram missing from exposition"
    );
    assert!(
        body.contains("sp_rank_batch_occupancy_percent"),
        "occupancy gauge missing from exposition"
    );

    server.shutdown();
    server.wait();
}
