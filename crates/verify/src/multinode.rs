//! Multinode determinism fuzz: distributed sp-serve against a single-node
//! oracle.
//!
//! Spins 2–4 loopback shards and a router in-process, then plays a seeded
//! request stream through the router while killing a shard mid-run and
//! rejoining a replacement later. Every routed response is compared —
//! as raw bytes — against the same request served by a standalone
//! single-shard oracle. The determinism contract under test: a response's
//! `(result_json, sim-time bits, input fingerprint)` may not depend on
//! which shard served it, whether the entry came from cache, or whether
//! the job was re-routed after a failure. The campaign also folds every
//! response's identity spans into one fingerprint and demands router and
//! oracle agree on the whole stream, so a single flipped byte anywhere
//! fails loudly.
//!
//! The kill is [`sp_serve::net::Server::kill`] — a SIGKILL-equivalent
//! that severs the listener and every open connection with no drain. The
//! router must re-hash the dead shard's keyspace to survivors (only its
//! keys move — the ring property) and replay without the client noticing.
//! The rejoin warms the newcomer's cache from survivors, and warmed
//! entries must replay the donor's exact bytes.

use crate::rng::{derive_seed, splitmix64, Fingerprint};
use sp_serve::net::{Client, Server};
use sp_serve::proto::extract_raw_field;
use sp_serve::router::{Router, RouterConfig, RouterServer};
use sp_serve::service::ServeConfig;
use std::sync::Arc;

/// Configuration of a multinode fuzz campaign.
#[derive(Clone, Debug)]
pub struct MultinodeFuzzConfig {
    /// Backend shards behind the router (clamped to 2..=4).
    pub shards: usize,
    /// Requests in the seeded stream.
    pub requests: usize,
    /// Master seed; request `i` derives from `derive_seed(master, i)`.
    pub master_seed: u64,
    /// Simulated ranks per job — identical on every shard and the oracle
    /// (it participates in the cache key).
    pub ranks: usize,
}

impl Default for MultinodeFuzzConfig {
    fn default() -> Self {
        MultinodeFuzzConfig {
            shards: 3,
            requests: 24,
            master_seed: 0xD157_2188,
            ranks: 4,
        }
    }
}

/// One request whose routed response diverged from the oracle.
#[derive(Clone, Debug)]
pub struct MultinodeFailure {
    /// Index in the request stream.
    pub index: usize,
    /// The submit frame that diverged.
    pub request: String,
    pub detail: String,
}

impl std::fmt::Display for MultinodeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "request {} ({}): {}",
            self.index, self.request, self.detail
        )
    }
}

/// Result of a multinode fuzz campaign.
pub struct MultinodeReport {
    pub shards: usize,
    pub requests: usize,
    /// Request index after which the shard was killed.
    pub killed_after: usize,
    /// Request index after which the replacement joined.
    pub rejoined_after: usize,
    /// Cache entries streamed to the replacement at join.
    pub warmed: usize,
    /// Fingerprint over every routed response's identity spans, in stream
    /// order.
    pub routed_fingerprint: u64,
    /// Same, for the single-node oracle.
    pub oracle_fingerprint: u64,
    pub failures: Vec<MultinodeFailure>,
}

impl MultinodeReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.routed_fingerprint == self.oracle_fingerprint
    }
}

impl std::fmt::Display for MultinodeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests over {} shards (kill after {}, rejoin after {}, {} warmed): fp {:016x} vs oracle {:016x}, {} divergence(s)",
            self.requests,
            self.shards,
            self.killed_after,
            self.rejoined_after,
            self.warmed,
            self.routed_fingerprint,
            self.oracle_fingerprint,
            self.failures.len()
        )
    }
}

fn shard_cfg(ranks: usize) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 64,
        ranks,
        ..Default::default()
    }
}

/// The seeded request stream. Every 5th request repeats an earlier one so
/// the stream exercises cache hits (including post-warming hits on the
/// rejoined shard).
fn gen_requests(cfg: &MultinodeFuzzConfig) -> Vec<String> {
    const METHODS: [&str; 4] = ["sp", "rcb", "parmetis", "ptscotch"];
    let mut reqs: Vec<String> = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        if i % 5 == 4 && i >= 5 {
            let again = reqs[i - 3].clone();
            reqs.push(again);
            continue;
        }
        let mut s = derive_seed(cfg.master_seed, i as u64);
        let w = 8 + (splitmix64(&mut s) % 17) as usize;
        let h = 8 + (splitmix64(&mut s) % 17) as usize;
        let method = METHODS[(splitmix64(&mut s) % METHODS.len() as u64) as usize];
        let parts = 2 + (splitmix64(&mut s) % 3) as usize;
        let seed = splitmix64(&mut s) & 0xFFFF;
        reqs.push(format!(
            "{{\"type\": \"submit\", \"graph\": \"gen:grid:{w}x{h}\", \"method\": \"{method}\", \"parts\": {parts}, \"seed\": {seed}}}"
        ));
    }
    reqs
}

/// The determinism-relevant spans of an ok response, as raw bytes.
fn identity_spans(resp: &str) -> Result<(String, String, String), String> {
    let get = |f: &str| {
        extract_raw_field(resp, f)
            .map(str::to_string)
            .ok_or_else(|| format!("response lacks {f:?}: {resp}"))
    };
    Ok((get("result")?, get("sim_time")?, get("fingerprint")?))
}

/// Run the campaign. Failures are collected, never panicked, so one
/// report lists every divergent request with its reproducing seed stream.
pub fn run_multinode_campaign(cfg: &MultinodeFuzzConfig) -> MultinodeReport {
    let cfg = MultinodeFuzzConfig {
        shards: cfg.shards.clamp(2, 4),
        requests: cfg.requests.max(6),
        ..cfg.clone()
    };
    let requests = gen_requests(&cfg);
    let killed_after = cfg.requests / 3;
    let rejoined_after = 2 * cfg.requests / 3;

    // Oracle first: one standalone shard answers the whole stream.
    let oracle = Server::bind("127.0.0.1:0", shard_cfg(cfg.ranks)).expect("bind oracle");
    let mut oracle_client = Client::connect(&oracle.local_addr()).expect("connect oracle");
    let mut oracle_spans: Vec<Result<(String, String, String), String>> = Vec::new();
    let mut oracle_fp = Fingerprint::new();
    for req in &requests {
        let spans = oracle_client
            .request(req)
            .map_err(|e| format!("oracle io: {e}"))
            .and_then(|resp| identity_spans(&resp));
        if let Ok((r, t, f)) = &spans {
            oracle_fp.bytes(r.as_bytes());
            oracle_fp.bytes(t.as_bytes());
            oracle_fp.bytes(f.as_bytes());
        }
        oracle_spans.push(spans);
    }

    // The fleet: N shards, a router with health probing on (the probe
    // path is part of what we fuzz; response bytes are timing-free).
    let mut shards: Vec<Arc<Server>> = (0..cfg.shards)
        .map(|_| Server::bind("127.0.0.1:0", shard_cfg(cfg.ranks)).expect("bind shard"))
        .collect();
    let spec: Vec<(String, String)> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("shard-{i}"), s.local_addr().to_string()))
        .collect();
    let router = Router::new(
        RouterConfig {
            health_interval_ms: 200,
            forward_timeout_ms: 60_000,
        },
        &spec,
    )
    .expect("router");
    let rs = RouterServer::bind("127.0.0.1:0", router).expect("bind router");

    let mut failures: Vec<MultinodeFailure> = Vec::new();
    let mut routed_fp = Fingerprint::new();
    let mut warmed = 0usize;
    let mut killed: Option<Arc<Server>> = None;
    for (i, req) in requests.iter().enumerate() {
        // A fresh connection per request: mid-stream shard death must not
        // wedge later requests, and neither may router keep-alive state.
        let routed = Client::connect(&rs.local_addr())
            .and_then(|mut c| c.request(req))
            .map_err(|e| format!("router io: {e}"))
            .and_then(|resp| identity_spans(&resp));
        if let Ok((r, t, f)) = &routed {
            routed_fp.bytes(r.as_bytes());
            routed_fp.bytes(t.as_bytes());
            routed_fp.bytes(f.as_bytes());
        }
        match (&routed, &oracle_spans[i]) {
            (Ok(got), Ok(want)) if got != want => failures.push(MultinodeFailure {
                index: i,
                request: req.clone(),
                detail: format!("bytes diverge: routed {got:?} vs oracle {want:?}"),
            }),
            (Err(e), Ok(_)) => failures.push(MultinodeFailure {
                index: i,
                request: req.clone(),
                detail: format!("routed request failed while oracle succeeded: {e}"),
            }),
            (Ok(_), Err(e)) => failures.push(MultinodeFailure {
                index: i,
                request: req.clone(),
                detail: format!("oracle failed ({e}) but router answered"),
            }),
            _ => {}
        }

        if i + 1 == killed_after {
            shards[0].kill();
            killed = Some(shards[0].clone());
        }
        if i + 1 == rejoined_after {
            let replacement =
                Server::bind("127.0.0.1:0", shard_cfg(cfg.ranks)).expect("bind replacement");
            warmed = rs
                .router()
                .rejoin("shard-0", &replacement.local_addr().to_string())
                .unwrap_or(0);
            shards[0] = replacement;
        }
    }

    rs.shutdown();
    for s in &shards {
        s.shutdown();
    }
    if let Some(k) = killed {
        // The killed listener is gone but its worker pool and handler
        // threads survive the crash injection (kill() returns without
        // joining — abruptness is the point); reap both so the campaign
        // leaks no threads.
        k.service().shutdown();
        k.wait();
    }
    oracle.shutdown();

    MultinodeReport {
        shards: cfg.shards,
        requests: cfg.requests,
        killed_after,
        rejoined_after,
        warmed,
        routed_fingerprint: routed_fp.finish(),
        oracle_fingerprint: oracle_fp.finish(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_deterministic_and_contains_repeats() {
        let cfg = MultinodeFuzzConfig::default();
        let a = gen_requests(&cfg);
        let b = gen_requests(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.requests);
        assert_eq!(a[9], a[6], "every 5th request repeats an earlier one");
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn small_campaign_passes_through_kill_and_rejoin() {
        let report = run_multinode_campaign(&MultinodeFuzzConfig {
            shards: 2,
            requests: 9,
            master_seed: 0xBEEF,
            ranks: 4,
        });
        assert!(
            report.passed(),
            "{report}\n{}",
            report
                .failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.killed_after, 3);
        assert_eq!(report.rejoined_after, 6);
    }
}
