//! Streaming-session end-to-end tests over real loopback sockets: the
//! full open → delta → repartition → close lifecycle against a single
//! shard, and the distributed contract — every frame of a session hashes
//! to one shard, and a mid-session shard kill is invisible because the
//! router replays the session journal on the survivor, which reproduces
//! every response byte-for-byte.

use sp_serve::json::Value;
use sp_serve::net::{Client, Server};
use sp_serve::router::{Router, RouterConfig, RouterServer};
use sp_serve::service::ServeConfig;
use std::sync::Arc;

fn shard_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        ranks: 4,
        ..Default::default()
    }
}

fn start_shard() -> Arc<Server> {
    Server::bind("127.0.0.1:0", shard_cfg()).expect("bind shard")
}

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

/// The scripted session every test replays: open on a grid, three delta
/// batches (edge churn, weight drift, coordinate drift), a repartition
/// after each, then close.
fn session_script(name: &str) -> Vec<String> {
    let open = format!(
        r#"{{"type": "session_open", "session": "{name}", "graph": "gen:grid:12x12", "seed": 3}}"#
    );
    let batches = [
        r#"[{"op": "remove_edge", "u": 0, "v": 1}, {"op": "add_edge", "u": 0, "v": 13, "w": 2.0}, {"op": "add_edge", "u": 5, "v": 30, "w": 0.5}]"#,
        r#"[{"op": "set_vwgt", "v": 7, "w": 4.0}, {"op": "set_vwgt", "v": 100, "w": 3.5}, {"op": "set_vwgt", "v": 55, "w": 2.25}]"#,
        r#"[{"op": "shift_coord", "v": 40, "dx": 0.4, "dy": -0.2}, {"op": "shift_coord", "v": 41, "dx": 0.4, "dy": -0.2}, {"op": "remove_edge", "u": 40, "v": 41}]"#,
    ];
    let mut frames = vec![open];
    for b in batches {
        frames.push(format!(
            r#"{{"type": "session_delta", "session": "{name}", "deltas": {b}}}"#
        ));
        frames.push(format!(
            r#"{{"type": "session_repartition", "session": "{name}"}}"#
        ));
    }
    frames.push(format!(
        r#"{{"type": "session_close", "session": "{name}"}}"#
    ));
    frames
}

fn parsed(resp: &str) -> Value {
    Value::parse(resp).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"))
}

#[test]
fn loopback_session_lifecycle_end_to_end() {
    let server = start_shard();
    let mut c = Client::connect(&server.local_addr()).unwrap();

    let frames = session_script("lifecycle");
    let open = parsed(&c.request(&frames[0]).unwrap());
    assert_eq!(open.get("status").and_then(Value::as_str), Some("open"));
    assert_eq!(open.get("n").and_then(Value::as_u64), Some(144));
    assert!(open.get("base_fp").is_some() && open.get("partition_fp").is_some());
    assert_eq!(server.sessions().active(), 1);
    assert_eq!(server.service().metrics().sessions_active.get(), 1);

    let mut chain_fps = vec![open.get("chain_fp").unwrap().as_str().unwrap().to_string()];
    for (i, pair) in frames[1..7].chunks(2).enumerate() {
        let delta = parsed(&c.request(&pair[0]).unwrap());
        assert_eq!(
            delta.get("status").and_then(Value::as_str),
            Some("delta"),
            "batch {i}"
        );
        assert_eq!(delta.get("applied").and_then(Value::as_u64), Some(3));
        assert_eq!(
            delta.get("deltas_total").and_then(Value::as_u64),
            Some(3 * (i as u64 + 1))
        );
        let rep = parsed(&c.request(&pair[1]).unwrap());
        assert_eq!(
            rep.get("status").and_then(Value::as_str),
            Some("repartition")
        );
        assert_eq!(rep.get("step").and_then(Value::as_u64), Some(i as u64 + 1));
        assert!(
            rep.get("migration_volume")
                .and_then(Value::as_u64)
                .is_some(),
            "step must report its migration volume"
        );
        assert!(rep.get("cut_after").and_then(Value::as_f64).is_some());
        // The chain fingerprint strictly advances: every batch and every
        // repartition marker lands in it.
        let fp = rep.get("chain_fp").unwrap().as_str().unwrap().to_string();
        assert!(!chain_fps.contains(&fp), "chain fingerprint repeated");
        chain_fps.push(fp);
    }

    let close = parsed(&c.request(&frames[7]).unwrap());
    assert_eq!(close.get("status").and_then(Value::as_str), Some("closed"));
    assert_eq!(close.get("deltas_total").and_then(Value::as_u64), Some(9));
    assert_eq!(close.get("repartitions").and_then(Value::as_u64), Some(3));
    assert_eq!(server.sessions().active(), 0);

    // The session instruments are visible in the shard's own scrape.
    let m = parsed(&c.request(r#"{"type": "metrics"}"#).unwrap());
    let body = m.get("body").and_then(Value::as_str).expect("metrics body");
    assert!(body.contains("sp_sessions_active 0"), "scrape: {body}");
    assert!(body.contains("sp_session_deltas_total 9"), "scrape: {body}");
    assert!(
        body.contains("sp_session_repartition_milliseconds_count 3"),
        "scrape: {body}"
    );

    server.shutdown();
}

#[test]
fn unknown_session_and_double_open_are_typed_errors_over_the_wire() {
    let server = start_shard();
    let mut c = Client::connect(&server.local_addr()).unwrap();
    let resp = parsed(
        &c.request(r#"{"type": "session_repartition", "session": "nope"}"#)
            .unwrap(),
    );
    assert_eq!(resp.get("code").and_then(Value::as_str), Some("no_session"));

    let open = r#"{"type": "session_open", "session": "dup", "graph": "gen:grid:6x6"}"#;
    assert!(c.request(open).unwrap().contains("\"status\": \"open\""));
    let again = parsed(&c.request(open).unwrap());
    assert_eq!(
        again.get("code").and_then(Value::as_str),
        Some("session_exists")
    );
    server.shutdown();
}

#[test]
fn router_pins_sessions_and_replays_them_byte_identical_after_a_kill() {
    // Oracle: the same scripted session against a standalone shard. Its
    // responses are the byte-level expectation for the routed run.
    let oracle = start_shard();
    let frames = session_script("fleet");
    let expected: Vec<String> = {
        let mut c = Client::connect(&oracle.local_addr()).unwrap();
        frames.iter().map(|f| c.request(f).unwrap()).collect()
    };
    oracle.shutdown();

    let a = start_shard();
    let b = start_shard();
    let rs = start_router(&[("a", &a), ("b", &b)]);
    let mut c = Client::connect(&rs.local_addr()).unwrap();

    // Open + first two delta/repartition rounds through the router.
    let mut got: Vec<String> = frames[..5].iter().map(|f| c.request(f).unwrap()).collect();

    // Affinity: exactly one shard holds the session.
    let on_a = a.sessions().active();
    let on_b = b.sessions().active();
    assert_eq!(
        (on_a + on_b, on_a * on_b),
        (1, 0),
        "session must live on exactly one shard (a: {on_a}, b: {on_b})"
    );

    // SIGKILL-equivalent on the owner, fully reaped so new connections
    // are refused rather than stranded in a dead backlog.
    let (owner, survivor) = if on_a == 1 { (&a, &b) } else { (&b, &a) };
    owner.kill();
    owner.service().shutdown();
    owner.wait();

    // The rest of the session proceeds as if nothing happened: the
    // router replays the journal on the survivor, then forwards.
    got.extend(frames[5..].iter().map(|f| c.request(f).unwrap()));

    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            g, e,
            "frame {i}: routed response differs from the standalone oracle"
        );
    }
    assert_eq!(
        rs.router().failovers(),
        1,
        "the kill must be detected exactly once"
    );
    // The close at the end of the script removed the replayed session
    // from the survivor too.
    assert_eq!(survivor.sessions().active(), 0);

    rs.shutdown();
    survivor.shutdown();
}

#[test]
fn shift_past_the_largest_coordinate_is_refused_and_the_shard_lives_on() {
    // Two finite offsets whose sum is not: before the result was checked the
    // second frame stored `inf`, the next full step panicked on a NaN
    // comparison while it held the session lock, and every later session
    // call on the server failed on the poisoned mutex.
    let server = start_shard();
    let mut c = Client::connect(&server.local_addr()).unwrap();
    let frame = |kind: &str, name: &str, rest: &str| {
        format!(r#"{{"type": "session_{kind}", "session": "{name}"{rest}}}"#)
    };
    let shift = r#", "deltas": [{"op": "shift_coord", "v": 0, "dx": 1e308, "dy": 0}]"#;
    // Enough weight changes to push the dirty region over the threshold.
    let churn: Vec<String> = (0..256)
        .step_by(4)
        .map(|v| format!(r#"{{"op": "set_vwgt", "v": {v}, "w": 1.5}}"#))
        .collect();
    let churn = format!(r#", "deltas": [{}]"#, churn.join(", "));

    // `refused` sends the shift twice, `oracle` once; nothing else differs.
    let mut last = Vec::new();
    for name in ["refused", "oracle"] {
        let open = frame("open", name, r#", "graph": "gen:grid:16x16", "seed": 3"#);
        assert!(c.request(&open).unwrap().contains("\"status\": \"open\""));
        // 1e308 is a coordinate, and a full step over it answers.
        let first = parsed(&c.request(&frame("delta", name, shift)).unwrap());
        assert_eq!(first.get("status").and_then(Value::as_str), Some("delta"));
        assert!(c
            .request(&frame("delta", name, &churn))
            .unwrap()
            .contains("\"status\": \"delta\""));
        let full = parsed(&c.request(&frame("repartition", name, "")).unwrap());
        assert_eq!(full.get("mode").and_then(Value::as_str), Some("full"));

        if name == "refused" {
            let second = parsed(&c.request(&frame("delta", name, shift)).unwrap());
            assert_eq!(
                second.get("code").and_then(Value::as_str),
                Some("bad_delta")
            );
        }
        let next = c.request(&frame("repartition", name, "")).unwrap();
        assert!(next.contains("\"status\": \"repartition\""), "{next}");
        last.push(next);
    }
    // The responses name no session and carry the chain fingerprint: the
    // refused frame left no trace in it.
    assert_eq!(last[0], last[1]);
    server.shutdown();
}
