//! Distributed-serving tests over real loopback sockets: failover under
//! concurrent load, adversarial shard behaviour, cold rejoin, and the
//! determinism contract — a response's result bytes must not depend on
//! which shard served it, whether it was a cache hit, or whether the job
//! was replayed after a mid-stream shard kill.

use sp_serve::json::Value;
use sp_serve::net::{Client, Server};
use sp_serve::proto::{extract_raw_field, read_frame};
use sp_serve::router::{Router, RouterConfig, RouterServer};
use sp_serve::service::ServeConfig;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn shard_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 32,
        cache_capacity: 32,
        ranks: 4,
        ..Default::default()
    }
}

fn start_shard(workers: usize) -> Arc<Server> {
    Server::bind("127.0.0.1:0", shard_cfg(workers)).expect("bind shard")
}

/// Router over the given shards, health probing off — the tests drive
/// failure detection deterministically through the forward path.
fn start_router(shards: &[(&str, &Arc<Server>)]) -> Arc<RouterServer> {
    let spec: Vec<(String, String)> = shards
        .iter()
        .map(|(n, s)| (n.to_string(), s.local_addr().to_string()))
        .collect();
    let router = Router::new(
        RouterConfig {
            health_interval_ms: 0,
            forward_timeout_ms: 60_000,
            ..Default::default()
        },
        &spec,
    )
    .expect("router");
    RouterServer::bind("127.0.0.1:0", router).expect("bind router")
}

fn submit_req(graph: &str, method: &str, parts: usize, seed: u64) -> String {
    format!(
        "{{\"type\": \"submit\", \"graph\": \"{graph}\", \"method\": \"{method}\", \"parts\": {parts}, \"seed\": {seed}}}"
    )
}

/// The determinism-relevant spans of an ok response, as raw bytes.
fn identity_spans(resp: &str) -> (String, String, String) {
    let get = |f: &str| {
        extract_raw_field(resp, f)
            .unwrap_or_else(|| panic!("response lacks {f}: {resp}"))
            .to_string()
    };
    (get("result"), get("sim_time"), get("fingerprint"))
}

#[test]
fn failover_midstream_is_invisible_to_all_eight_clients() {
    // One slow worker per shard so the kill lands while jobs are queued.
    let a = start_shard(1);
    let b = start_shard(1);
    let rs = start_router(&[("a", &a), ("b", &b)]);
    let raddr = rs.local_addr();

    // Oracle: a single standalone shard with the same rank count serves
    // the same jobs; its result bytes are the expectation.
    let oracle = start_shard(2);
    let jobs: Vec<String> = (0..8)
        .map(|i| {
            submit_req(
                "gen:grid:26x26",
                if i % 2 == 0 { "sp" } else { "rcb" },
                4,
                i,
            )
        })
        .collect();
    // With one worker, a shard holding two jobs queues one behind the other.
    let ring = sp_serve::Ring::new(&["a", "b"], sp_serve::ring::DEFAULT_VNODES);
    let owned_by_a = jobs
        .iter()
        .filter(|req| ring.owner(routing_key_by_formula(req)) == Some("a"))
        .count();
    assert!(owned_by_a >= 2, "only {owned_by_a} of 8 jobs land on a");
    let expected: Vec<(String, String, String)> = jobs
        .iter()
        .map(|req| {
            let mut c = Client::connect(&oracle.local_addr()).unwrap();
            let resp = c.request(req).unwrap();
            assert!(resp.contains("\"status\": \"ok\""), "{resp}");
            identity_spans(&resp)
        })
        .collect();

    // Eight concurrent clients through the router…
    let clients: Vec<_> = jobs
        .iter()
        .cloned()
        .map(|req| {
            std::thread::spawn(move || {
                let mut c = Client::connect(&raddr).unwrap();
                c.request(&req).unwrap()
            })
        })
        .collect();
    // …and a SIGKILL-equivalent on shard a once it runs one job and holds
    // another in its queue, so the kill interrupts work whatever the
    // machine's speed.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let st = a.service().stats();
        if st.active == 1 && st.queue_depth >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shard a never held a job queued behind a running one \
             (active {}, queued {}, completed {})",
            st.active,
            st.queue_depth,
            st.completed
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    a.kill();

    for (i, h) in clients.into_iter().enumerate() {
        let resp = h.join().expect("client thread");
        assert!(
            resp.contains("\"status\": \"ok\""),
            "client {i} did not get a result: {resp}"
        );
        assert!(
            !resp.contains("route_tag"),
            "router must strip its internal tag: {resp}"
        );
        assert_eq!(
            identity_spans(&resp),
            expected[i],
            "client {i}: response bytes depend on serving shard"
        );
    }

    // The up→down transition was observed by up to eight clients and
    // counted exactly once.
    let router = rs.router();
    assert_eq!(router.failovers(), 1, "failovers must count transitions");
    let prom = router.prometheus();
    assert!(
        prom.contains("sp_shard_failovers_total 1"),
        "exposition: {prom}"
    );
    assert!(prom.contains("sp_shard_up{shard=\"a\"} 0"), "{prom}");
    assert!(prom.contains("sp_shard_up{shard=\"b\"} 1"), "{prom}");

    rs.shutdown();
    // kill() is abrupt and does not join the killed shard's threads;
    // reap them explicitly so the test leaks nothing.
    a.service().shutdown();
    a.wait();
    b.shutdown();
    oracle.shutdown();
}

/// A fake shard: accepts connections and answers every frame with
/// whatever `reply` produces (raw bytes, written as-is).
fn fake_shard(reply: impl Fn(&[u8]) -> Vec<u8> + Send + 'static) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let Ok(Some(req)) = read_frame(&mut stream) else {
                continue;
            };
            use std::io::Write as _;
            let bytes = reply(&req);
            let _ = stream.write_all(&bytes);
            let _ = stream.flush();
        }
    });
    addr
}

fn router_over(addr: std::net::SocketAddr) -> Arc<RouterServer> {
    router_over_cfg(addr, 2_000)
}

fn router_over_cfg(addr: std::net::SocketAddr, forward_timeout_ms: u64) -> Arc<RouterServer> {
    let router = Router::new(
        RouterConfig {
            health_interval_ms: 0,
            forward_timeout_ms,
            ..Default::default()
        },
        &[("fake".to_string(), addr.to_string())],
    )
    .unwrap();
    RouterServer::bind("127.0.0.1:0", router).unwrap()
}

fn typed_code(resp: &str) -> String {
    let v = Value::parse(resp).unwrap_or_else(|e| panic!("unparseable {resp:?}: {e}"));
    assert_eq!(
        v.get("type").and_then(Value::as_str),
        Some("error"),
        "{resp}"
    );
    v.get("code")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("error lacks code: {resp}"))
        .to_string()
}

#[test]
fn shard_with_oversized_length_prefix_yields_typed_error_not_hang() {
    // 4 GiB length prefix: the router must refuse to allocate, demote the
    // shard, and (with no survivors) answer a typed error promptly.
    let addr = fake_shard(|_| 0xFFFF_FFFFu32.to_be_bytes().to_vec());
    let rs = router_over(addr);
    let mut c = Client::connect(&rs.local_addr()).unwrap();
    let resp = c.request(&submit_req("gen:grid:8x8", "rcb", 2, 1)).unwrap();
    assert_eq!(typed_code(&resp), "no_shards");
    rs.shutdown();
}

#[test]
fn shard_truncating_its_frame_yields_typed_error_not_hang() {
    // Promise 64 bytes, deliver 9, close: mid-frame EOF on the router's
    // side of the forward.
    let addr = fake_shard(|_| {
        let mut b = 64u32.to_be_bytes().to_vec();
        b.extend_from_slice(b"{\"half\":");
        b
    });
    let rs = router_over(addr);
    let mut c = Client::connect(&rs.local_addr()).unwrap();
    let resp = c.request(&submit_req("gen:grid:8x8", "rcb", 2, 2)).unwrap();
    assert_eq!(typed_code(&resp), "no_shards");
    rs.shutdown();
}

#[test]
fn shard_answering_with_a_non_object_yields_shard_protocol() {
    // A complete frame that is not a JSON object cannot be a submit's
    // reply: a typed error, and the shard is not demoted for it.
    let addr = fake_shard(|_| {
        let body = "[{\"type\": \"result\", \"status\": \"ok\"}]";
        let mut b = (body.len() as u32).to_be_bytes().to_vec();
        b.extend_from_slice(body.as_bytes());
        b
    });
    let rs = router_over(addr);
    let mut c = Client::connect(&rs.local_addr()).unwrap();
    let resp = c.request(&submit_req("gen:grid:8x8", "rcb", 2, 3)).unwrap();
    assert_eq!(typed_code(&resp), "shard_protocol");
    let prom = rs.router().prometheus();
    assert!(
        prom.contains("sp_route_errors_total{code=\"shard_protocol\"} 1"),
        "{prom}"
    );
    assert!(prom.contains("sp_shard_up{shard=\"fake\"} 1"), "{prom}");
    rs.shutdown();
}

#[test]
fn slow_shard_times_out_without_being_demoted() {
    // A shard that takes the job but exceeds the forward budget may
    // legitimately still be computing: the client gets a typed timeout,
    // and the shard must NOT be marked dead (one slow job must not
    // cascade a healthy fleet into no_shards — with health probing off,
    // permanently).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            let _ = read_frame(&mut stream);
            // Hold the connection open well past the router's budget.
            std::thread::sleep(Duration::from_secs(3));
        }
    });
    let rs = router_over_cfg(addr, 250);
    let mut c = Client::connect(&rs.local_addr()).unwrap();
    let resp = c.request(&submit_req("gen:grid:8x8", "rcb", 2, 6)).unwrap();
    assert_eq!(typed_code(&resp), "forward_timeout");
    let router = rs.router();
    assert_eq!(router.failovers(), 0, "a timeout is not shard death");
    let prom = router.prometheus();
    assert!(prom.contains("sp_shard_up{shard=\"fake\"} 1"), "{prom}");
    assert!(
        prom.contains("sp_route_errors_total{code=\"forward_timeout\"} 1"),
        "{prom}"
    );
    rs.shutdown();
}

#[test]
fn untagged_shard_error_is_relayed_not_mismatched() {
    // A shard's error reply is deterministic — every shard would say the
    // same — so the router relays it verbatim.
    let body = "{\"type\": \"error\", \"message\": \"bad JSON: oops\"}";
    let addr = fake_shard(move |_| {
        let mut b = (body.len() as u32).to_be_bytes().to_vec();
        b.extend_from_slice(body.as_bytes());
        b
    });
    let rs = router_over(addr);
    let mut c = Client::connect(&rs.local_addr()).unwrap();
    let resp = c.request(&submit_req("gen:grid:8x8", "rcb", 2, 7)).unwrap();
    assert_eq!(resp, body, "untagged error must be relayed verbatim");
    let prom = rs.router().prometheus();
    assert!(prom.contains("sp_shard_up{shard=\"fake\"} 1"), "{prom}");
    rs.shutdown();
}

#[test]
fn a_max_frame_submit_reaches_the_shard_byte_for_byte() {
    // The router adds nothing to a frame, so a client frame of exactly
    // MAX_FRAME bytes is forwarded as it came, and the reply relayed so.
    use sp_serve::proto::MAX_FRAME;
    let (sent, forwarded) = std::sync::mpsc::channel();
    let body = "{\"type\": \"result\", \"status\": \"ok\"}";
    let addr = fake_shard(move |req| {
        sent.send(req.to_vec()).unwrap();
        let mut b = (body.len() as u32).to_be_bytes().to_vec();
        b.extend_from_slice(body.as_bytes());
        b
    });
    let rs = router_over(addr);
    let prefix = "{\"type\": \"submit\", \"graph\": \"gen:grid:8x8\", \"method\": \"rcb\", \"parts\": 2, \"seed\": 1, \"pad\": \"";
    let suffix = "\"}";
    let pad = "x".repeat(MAX_FRAME as usize - prefix.len() - suffix.len());
    let req = format!("{prefix}{pad}{suffix}");
    assert_eq!(req.len(), MAX_FRAME as usize, "frame itself must be legal");
    let mut c = Client::connect(&rs.local_addr()).unwrap();
    assert_eq!(c.request(&req).unwrap(), body);
    let got = forwarded.recv().unwrap();
    assert!(got == req.as_bytes(), "the frame was reshaped");
    rs.shutdown();
}

#[test]
fn a_rejoining_shard_starts_cold_and_answers_the_same_bytes() {
    let a = start_shard(2);
    let rs = start_router(&[("a", &a)]);
    let raddr = rs.local_addr();
    let req = submit_req("gen:grid:16x16", "sp", 4, 11);
    let ask = || Client::connect(&raddr).unwrap().request(&req).unwrap();
    let original = ask();
    assert!(original.contains("\"status\": \"ok\""), "{original}");

    // A fresh process takes a's place, empty-handed.
    let replacement = start_shard(2);
    rs.router()
        .rejoin("a", &replacement.local_addr().to_string())
        .expect("rejoin");
    let resp = ask();
    let v = Value::parse(&resp).unwrap();
    assert_eq!(
        v.get("cache_hit").and_then(Value::as_bool),
        Some(false),
        "a rejoined shard starts cold: {resp}"
    );
    assert_eq!(identity_spans(&resp), identity_spans(&original));
    assert_eq!(replacement.service().stats().submitted, 1);
    let prom = rs.router().prometheus();
    assert!(prom.contains("sp_shard_joins_total 1"), "{prom}");

    rs.shutdown();
    a.shutdown();
    replacement.shutdown();
}

#[test]
fn a_shard_back_on_its_address_is_readmitted_by_the_health_probe() {
    let (a, b) = (start_shard(1), start_shard(1));
    let a_addr = a.local_addr();
    let router = Router::new(
        RouterConfig {
            health_interval_ms: 20,
            forward_timeout_ms: 60_000,
        },
        &[
            ("a".to_string(), a_addr.to_string()),
            ("b".to_string(), b.local_addr().to_string()),
        ],
    )
    .expect("router");
    let rs = RouterServer::bind("127.0.0.1:0", router).expect("bind router");
    let ring = sp_serve::Ring::new(&["a", "b"], sp_serve::ring::DEFAULT_VNODES);
    let req = (0..)
        .map(|seed| submit_req("gen:grid:8x8", "rcb", 2, seed))
        .find(|req| ring.owner(routing_key_by_formula(req)) == Some("a"))
        .unwrap();
    let ask = || {
        let resp = Client::connect(&rs.local_addr())
            .unwrap()
            .request(&req)
            .unwrap();
        assert!(resp.contains("\"status\": \"ok\""), "{resp}");
        resp
    };
    let original = ask();

    // a dies; the next forward (or a probe) demotes it and b answers.
    a.kill();
    a.wait();
    assert_eq!(identity_spans(&ask()), identity_spans(&original));
    assert_eq!(rs.router().failovers(), 1);

    // A new process on a's address: the probe finds it and re-admits it.
    let deadline = Instant::now() + Duration::from_secs(5);
    let back = loop {
        match Server::bind(&a_addr.to_string(), shard_cfg(1)) {
            Ok(s) => break s,
            Err(e) => assert!(Instant::now() < deadline, "rebind {a_addr}: {e}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    while !rs
        .router()
        .prometheus()
        .contains("sp_shard_up{shard=\"a\"} 1")
    {
        assert!(
            Instant::now() < deadline,
            "a was not re-admitted within 5 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = ask();
    assert_eq!(identity_spans(&resp), identity_spans(&original));
    assert!(resp.contains("\"cache_hit\": false"), "{resp}");
    assert_eq!(
        back.service().stats().submitted,
        1,
        "a's keys went back to a"
    );
    let prom = rs.router().prometheus();
    assert!(prom.contains("sp_shard_joins_total 1"), "{prom}");

    rs.shutdown();
    back.shutdown();
    b.shutdown();
}

#[test]
fn router_stats_merge_router_and_shard_views() {
    let a = start_shard(2);
    let b = start_shard(2);
    let rs = start_router(&[("a", &a), ("b", &b)]);
    let mut c = Client::connect(&rs.local_addr()).unwrap();
    let ok = c
        .request(&submit_req("gen:grid:10x10", "rcb", 2, 5))
        .unwrap();
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    // There is no merged fleet view: `stats` is an unknown request, and
    // the connection goes on serving.
    let resp = c.request("{\"type\": \"stats\"}").unwrap();
    assert!(resp.contains("unknown request type"), "{resp}");
    // The router's metrics frame carries its own registry ...
    let router = scrape(&mut c);
    assert_eq!(sample(&router, "sp_shards"), 2);
    assert_eq!(sample(&router, "sp_shards_up"), 2);
    // ... and the fleet view is one scrape per shard.
    let submitted: u64 = [&a, &b]
        .iter()
        .map(|s| {
            let mut shard = Client::connect(&s.local_addr()).unwrap();
            sample(&scrape(&mut shard), "sp_jobs_submitted_total")
        })
        .sum();
    assert_eq!(submitted, 1, "exactly one shard saw the job");
    rs.shutdown();
    a.shutdown();
    b.shutdown();
}

// ---------------------------------------------------------------------
// The source memo and the kept-open shard connections: both must change
// what a request costs and nothing it says.

/// The value of an unlabelled sample in a Prometheus exposition.
fn sample(prom: &str, series: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in:\n{prom}"))
}

/// The exposition a `metrics` frame returns over `c`, checked by promlint.
fn scrape(c: &mut Client) -> String {
    let resp = c.request("{\"type\": \"metrics\"}").unwrap();
    let v = Value::parse(&resp).unwrap_or_else(|e| panic!("bad metrics {resp:?}: {e}"));
    let body = v.get("body").and_then(Value::as_str).expect("exposition");
    let problems = scalapart::obs::prom::lint(body);
    assert!(problems.is_empty(), "{problems:?}\n{body}");
    body.to_string()
}

fn shard_prom(shard: &Server) -> String {
    shard.service().prometheus()
}

/// One submit of each source form: a generated grid, a suite graph, an
/// inline Chaco text.
fn one_submit_per_source_form() -> Vec<String> {
    let mut chaco = Vec::new();
    sp_graph::io::write_chaco(&sp_graph::gen::grid_2d(6, 7), &mut chaco).unwrap();
    let chaco = sp_serve::json::escape(std::str::from_utf8(&chaco).unwrap());
    vec![
        submit_req("gen:grid:12x12", "sp", 4, 3),
        submit_req("suite:kkt_power:tiny", "parmetis", 2, 5),
        format!(
            "{{\"type\": \"submit\", \"chaco\": \"{chaco}\", \"method\": \"parmetis\", \"parts\": 2, \"seed\": 9}}"
        ),
    ]
}

/// More distinct sources than a memo holds (64): whatever it knew before
/// these went through is forgotten.
fn flush_memo(c: &mut Client) {
    for w in 2..72 {
        let resp = c
            .request(&submit_req(&format!("gen:grid:{w}x2"), "rcb", 2, 1))
            .unwrap();
        assert!(resp.contains("\"status\": \"ok\""), "{resp}");
    }
}

/// The routing key as `benchmark/src/serve.rs::decode_graph` recomputes
/// it: from the materialised graph, never from a memo.
fn routing_key_by_formula(req: &str) -> u64 {
    match sp_serve::proto::Request::decode(req.as_bytes()) {
        Ok(sp_serve::proto::Request::Submit {
            graph,
            coords,
            method,
            parts,
            seed,
            ..
        }) => {
            let input = sp_serve::fingerprint_input(&graph, coords.as_ref().map(|c| c.as_slice()));
            let mut fp = sp_trace::fnv::Fingerprint::new();
            fp.u64(input);
            fp.bytes(method.proto_name().as_bytes());
            fp.u64(parts as u64);
            fp.u64(seed);
            fp.finish()
        }
        _ => panic!("not a submit: {req}"),
    }
}

#[test]
fn source_memo_cold_warm_or_evicted_changes_no_byte_and_no_route() {
    // Result caches large enough to keep the three results while seventy
    // other jobs flush the memos.
    let big_cache = || {
        let cfg = ServeConfig {
            cache_capacity: 256,
            ..shard_cfg(2)
        };
        Server::bind("127.0.0.1:0", cfg).expect("bind shard")
    };
    let (alone, a, b) = (big_cache(), big_cache(), big_cache());
    let rs = start_router(&[("a", &a), ("b", &b)]);
    let ring = sp_serve::Ring::new(&["a", "b"], sp_serve::ring::DEFAULT_VNODES);
    let mut direct = Client::connect(&alone.local_addr()).unwrap();
    let mut routed = Client::connect(&rs.local_addr()).unwrap();

    for req in one_submit_per_source_form() {
        let owner = match ring.owner(routing_key_by_formula(&req)).unwrap() {
            "a" => &a,
            _ => &b,
        };
        let mut spans = Vec::new();
        for (client, via_router) in [(&mut direct, false), (&mut routed, true)] {
            let memo_misses = || {
                if via_router {
                    sample(&rs.router().prometheus(), "sp_source_memo_misses_total")
                } else {
                    sample(&shard_prom(&alone), "sp_source_memo_misses_total")
                }
            };
            // Routed, each of the three goes where the graph-derived key
            // says, whatever the router's memo knows at the time.
            let ask = |client: &mut Client| {
                let seen_before = owner.service().stats().submitted;
                let resp = client.request(&req).unwrap();
                let seen = owner.service().stats().submitted - seen_before;
                assert_eq!(seen, via_router as u64, "not at the ring owner");
                resp
            };
            let misses_before = memo_misses();
            let cold = ask(client);
            assert!(cold.contains("\"cache_hit\": false"), "{cold}");
            let warm = ask(client);
            assert!(warm.contains("\"cache_hit\": true"), "{warm}");
            assert_eq!(memo_misses(), misses_before + 1, "the repeat was memoised");
            flush_memo(client);
            let evicted = ask(client);
            assert!(evicted.contains("\"cache_hit\": true"), "{evicted}");
            assert_eq!(
                memo_misses(),
                misses_before + 72,
                "the memo had forgotten it"
            );
            spans.extend([cold, warm, evicted].map(|r| identity_spans(&r)));
        }
        assert!(spans.iter().all(|s| *s == spans[0]), "{req}: bytes differ");
    }
    rs.shutdown();
    for s in [alone, a, b] {
        s.shutdown();
    }
}

#[test]
fn a_memoised_source_rejects_bad_frames_in_the_same_words() {
    let (warm, cold) = (start_shard(1), start_shard(1));
    let rs = start_router(&[("s", &warm)]);
    let good = submit_req("gen:grid:12x12", "rcb", 4, 1);
    let bad = [
        submit_req("gen:grid:12x12", "rcb", 9999, 1),
        submit_req("gen:grid:12x12", "quantum", 4, 1),
        good.replace("\"parts\": 4", "\"parts\": \"4\""),
        good.replace("\"seed\": 1", "\"seed\": 1, \"deadline_ms\": -3"),
        "{\"type\": \"submit\", \"graph\": \"gen:grid:12x12\"".to_string(),
    ];
    let mut to_cold = Client::connect(&cold.local_addr()).unwrap();
    let mut to_warm = Client::connect(&warm.local_addr()).unwrap();
    let mut routed = Client::connect(&rs.local_addr()).unwrap();
    // Router and shard have both seen the source before the bad frames.
    assert!(routed
        .request(&good)
        .unwrap()
        .contains("\"status\": \"ok\""));
    let misses = |prom: String| sample(&prom, "sp_source_memo_misses_total");
    let before = (misses(shard_prom(&warm)), misses(rs.router().prometheus()));
    for frame in &bad {
        let want = to_cold.request(frame).unwrap();
        assert!(want.starts_with("{\"type\": \"error\""), "{want}");
        assert_eq!(to_warm.request(frame).unwrap(), want, "{frame}");
        assert_eq!(routed.request(frame).unwrap(), want, "{frame}");
    }
    let parts = to_warm.request(&bad[0]).unwrap();
    assert!(
        parts.contains("must be in 2..=n (144 vertices), got 9999"),
        "{parts}"
    );
    // … and `n` came from the memo: no bad frame built the grid again.
    let after = (misses(shard_prom(&warm)), misses(rs.router().prometheus()));
    assert_eq!(after, before);
    // The connection and the memo survive all of it.
    assert!(to_warm
        .request(&good)
        .unwrap()
        .contains("\"cache_hit\": true"));
    rs.shutdown();
    warm.shutdown();
    cold.shutdown();
}

#[test]
fn routed_hits_reuse_shard_connections_and_shutdown_closes_them() {
    let shard = start_shard(1);
    let rs = start_router(&[("s", &shard)]);
    let req = submit_req("gen:grid:10x10", "rcb", 2, 8);
    let fill = Client::connect(&rs.local_addr())
        .unwrap()
        .request(&req)
        .unwrap();
    assert!(fill.contains("\"cache_hit\": false"), "{fill}");
    let prom = |series: &str| sample(&rs.router().prometheus(), series);
    let (connects, memo_misses) = (
        prom("sp_route_connects_total"),
        prom("sp_source_memo_misses_total"),
    );
    let shard_memo_misses = sample(&shard_prom(&shard), "sp_source_memo_misses_total");
    assert_eq!((connects, memo_misses, shard_memo_misses), (1, 1, 1));

    const CLIENTS: usize = 2;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut c = Client::connect(&rs.local_addr()).unwrap();
                for _ in 0..500 {
                    let resp = c.request(&req).unwrap();
                    assert!(resp.contains("\"cache_hit\": true"), "{resp}");
                    // One shard socket per forward in flight, at most.
                    assert!(shard.open_connections() <= CLIENTS);
                }
            });
        }
    });
    // A thousand repeats moved the hit and reuse counters, not the others.
    assert!(prom("sp_route_connects_total") <= CLIENTS as u64);
    assert!(prom("sp_route_conn_reuses_total") >= 1000 - CLIENTS as u64);
    assert_eq!(prom("sp_source_memo_misses_total"), 1);
    assert_eq!(prom("sp_source_memo_hits_total"), 1000);
    let at_shard = shard_prom(&shard);
    assert_eq!(sample(&at_shard, "sp_source_memo_misses_total"), 1);
    assert_eq!(sample(&at_shard, "sp_source_memo_hits_total"), 1000);
    assert_eq!(sample(&at_shard, "sp_cache_hits_total"), 1000);
    // A known source under a new seed has no cached result: the shard
    // builds the graph after all, and counts the submit as one that did.
    let reseeded = Client::connect(&shard.local_addr())
        .unwrap()
        .request(&submit_req("gen:grid:10x10", "rcb", 2, 9))
        .unwrap();
    assert!(reseeded.contains("\"cache_hit\": false"), "{reseeded}");
    let at_shard = shard_prom(&shard);
    assert_eq!(sample(&at_shard, "sp_source_memo_misses_total"), 2);
    assert_eq!(sample(&at_shard, "sp_source_memo_hits_total"), 1000);

    rs.shutdown();
    rs.wait();
    // The idle shard sockets went with the router (pooled-fd leak check).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while shard.open_connections() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} shard connections outlive the router",
            shard.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    shard.shutdown();
}

#[test]
fn a_gracefully_stopped_owner_under_routed_load_is_failed_over_once() {
    let (a, b) = (start_shard(1), start_shard(1));
    let rs = start_router(&[("a", &a), ("b", &b)]);
    let req = submit_req("gen:grid:10x10", "rcb", 2, 8);
    let ring = sp_serve::Ring::new(&["a", "b"], sp_serve::ring::DEFAULT_VNODES);
    let (owner, survivor) = match ring.owner(routing_key_by_formula(&req)).unwrap() {
        "a" => (&a, &b),
        _ => (&b, &a),
    };
    let mut client = Client::connect(&rs.local_addr()).unwrap();
    let first = client.request(&req).unwrap();
    assert!(first.contains("\"cache_hit\": false"), "{first}");

    // Hits follow one another far faster than a handler's read timeout, so
    // the router's kept socket to the owner is never idle when it stops.
    let done = std::sync::atomic::AtomicBool::new(false);
    let (drained, replies) = std::thread::scope(|scope| {
        let traffic = scope.spawn(|| {
            let mut replies = Vec::new();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                replies.push(client.request(&req).unwrap());
            }
            replies
        });
        std::thread::sleep(Duration::from_millis(100));
        owner.shutdown();
        let (returned, wait) = std::sync::mpsc::channel();
        let waiting = owner.clone();
        std::thread::spawn(move || {
            waiting.wait();
            let _ = returned.send(());
        });
        let drained = wait.recv_timeout(Duration::from_secs(5)).is_ok();
        std::thread::sleep(Duration::from_millis(100));
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (drained, traffic.join().unwrap())
    });

    // The stop was one failover to the router and nothing to the client.
    assert!(
        drained,
        "a busy kept-open connection pins the stopped shard"
    );
    assert_eq!(owner.open_connections(), 0);
    assert!(replies.len() > 10, "only {} replies", replies.len());
    for reply in &replies {
        assert!(reply.contains("\"status\": \"ok\""), "{reply}");
        assert_eq!(identity_spans(reply), identity_spans(&first));
    }
    assert_eq!(rs.router().failovers(), 1);
    let prom = rs.router().prometheus();
    assert_eq!(sample(&prom, "sp_route_replays_total"), 1);
    assert_eq!(sample(&prom, "sp_shards_up"), 1);
    assert!(survivor.service().stats().submitted >= 1);
    rs.shutdown();
    survivor.shutdown();
}
