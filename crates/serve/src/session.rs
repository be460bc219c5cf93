//! Streaming sessions: the dynamic-graph workload over the frame
//! protocol (`session_open` / `session_delta` / `session_repartition` /
//! `session_close`, see [`crate::proto`]).
//!
//! A session holds an [`IncrementalRepartitioner`] — an immutable base
//! CSR under a delta overlay plus a warm partition — and two
//! fingerprints: the **base fingerprint** (input fingerprint of the
//! opened graph, folded with the session seed) fixed at open, and the
//! **chain fingerprint**, extended by every accepted delta and marked at
//! every repartition. Together they name the session's logical state
//! exactly, which yields the determinism contract the router's failover
//! relies on (DESIGN.md "Dynamic graphs"):
//!
//! > A session response's bytes are a pure function of
//! > `(base fingerprint, chain fingerprint)` — never of the shard that
//! > served it or the wall clock.
//!
//! Consequently `session_delta` / `session_repartition` responses carry
//! no session name and no host times; replaying a session's frames on a
//! different shard reproduces every response byte-for-byte. Every step
//! is computed where it is asked for: repartitioning is deterministic,
//! so the contract needs no cache of past steps.
//!
//! Quotas bound a hostile or runaway client: a maximum number of open
//! sessions, a per-session lifetime delta budget, and an idle TTL
//! enforced lazily at every session operation (no sweeper thread).

use crate::metrics::ServiceMetrics;
use crate::proto::encode_typed_error;
use crate::service::ServeConfig;
use scalapart::stream::{
    chain_extend, chain_mark, DeltaOverlay, GraphDelta, IncrementalRepartitioner, StepReport,
    StreamConfig,
};
use sp_geometry::Point2;
use sp_graph::Graph;
use sp_trace::fnv::Fingerprint;
use sp_trace::json::{escape, num};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Session {
    rp: IncrementalRepartitioner,
    chain_fp: u64,
    deltas_total: u64,
    repartitions: u64,
    last_used: Instant,
}

/// Owns every open session of a server.
/// Shared by all connection handlers; every public method takes `&self`.
pub struct SessionManager {
    /// The server's normalised configuration; the manager reads its
    /// `max_sessions` and `session_*` fields.
    cfg: ServeConfig,
    sessions: Mutex<HashMap<String, Session>>,
    metrics: ServiceMetrics,
}

impl SessionManager {
    pub fn new(cfg: &ServeConfig, metrics: ServiceMetrics) -> SessionManager {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            cfg: cfg.clone(),
            metrics,
        }
    }

    /// Sessions currently open.
    pub fn active(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Drop sessions idle past the TTL. Called at the top of every
    /// session operation — lazy eviction needs no sweeper thread, and a
    /// server with no session traffic holds no session state anyway.
    fn evict_idle(&self, sessions: &mut HashMap<String, Session>) {
        let ttl = std::time::Duration::from_millis(self.cfg.session_idle_ms);
        let before = sessions.len();
        sessions.retain(|_, s| s.last_used.elapsed() <= ttl);
        let evicted = before - sessions.len();
        if evicted > 0 {
            self.metrics.session_evictions.add(evicted as u64);
            self.metrics.sessions_active.set(sessions.len() as i64);
        }
    }

    /// `session_open`: build the overlay, bootstrap a full partition, and
    /// register the session under `name`.
    pub fn open(
        &self,
        name: &str,
        graph: Arc<Graph>,
        coords: Option<Arc<Vec<Point2>>>,
        seed: u64,
    ) -> String {
        let mut sessions = self.sessions.lock().unwrap();
        self.evict_idle(&mut sessions);
        if sessions.contains_key(name) {
            return encode_typed_error(
                "session_exists",
                &format!("session {name:?} is already open"),
            );
        }
        if sessions.len() >= self.cfg.max_sessions {
            return encode_typed_error(
                "session_quota",
                &format!(
                    "session limit reached ({} open); close one first",
                    sessions.len()
                ),
            );
        }
        let input_fp =
            crate::fingerprint::fingerprint_input(&graph, coords.as_ref().map(|c| c.as_slice()));
        let mut f = Fingerprint::new();
        f.u64(input_fp);
        f.u64(seed);
        let base_fp = f.finish();

        let overlay = match DeltaOverlay::new(graph, coords.map(|c| (*c).clone())) {
            Ok(o) => o,
            Err(e) => return encode_typed_error("bad_graph", &e.to_string()),
        };
        let stream_cfg = StreamConfig {
            seed,
            ..StreamConfig::default()
        };
        let (rp, boot) = IncrementalRepartitioner::new(overlay, stream_cfg);
        let chain_fp = base_fp;
        let body = format!(
            concat!(
                "{{\"type\": \"session\", \"status\": \"open\", \"session\": \"{}\", ",
                "\"n\": {}, \"m\": {}, \"base_fp\": \"{:016x}\", \"chain_fp\": \"{:016x}\", ",
                "\"cut\": {}, \"imbalance\": {}, \"partition_fp\": \"{:016x}\"}}"
            ),
            escape(name),
            rp.overlay().n(),
            rp.overlay().m(),
            base_fp,
            chain_fp,
            num(boot.cut_after),
            num(boot.imbalance),
            boot.partition_fp,
        );
        sessions.insert(
            name.to_string(),
            Session {
                rp,
                chain_fp,
                deltas_total: 0,
                repartitions: 0,
                last_used: Instant::now(),
            },
        );
        self.metrics.sessions_active.set(sessions.len() as i64);
        body
    }

    /// `session_delta`: apply a batch atomically and extend the chain
    /// fingerprint. A rejected batch (validity or quota) leaves both the
    /// overlay and the chain untouched.
    pub fn delta(&self, name: &str, batch: &[GraphDelta]) -> String {
        let mut sessions = self.sessions.lock().unwrap();
        self.evict_idle(&mut sessions);
        let Some(s) = sessions.get_mut(name) else {
            return no_session(name);
        };
        s.last_used = Instant::now();
        if s.deltas_total + batch.len() as u64 > self.cfg.session_max_deltas {
            return encode_typed_error(
                "delta_quota",
                &format!(
                    "session delta budget exceeded ({} applied + {} submitted > {})",
                    s.deltas_total,
                    batch.len(),
                    self.cfg.session_max_deltas
                ),
            );
        }
        if let Err(e) = s.rp.apply(batch) {
            return encode_typed_error("bad_delta", &e.to_string());
        }
        for d in batch {
            s.chain_fp = chain_extend(s.chain_fp, d);
        }
        s.deltas_total += batch.len() as u64;
        self.metrics.session_deltas.add(batch.len() as u64);
        format!(
            concat!(
                "{{\"type\": \"session\", \"status\": \"delta\", \"applied\": {}, ",
                "\"deltas_total\": {}, \"pending\": {}, \"chain_fp\": \"{:016x}\"}}"
            ),
            batch.len(),
            s.deltas_total,
            s.rp.pending_touched(),
            s.chain_fp,
        )
    }

    /// `session_repartition`: compute the step and advance the chain past
    /// a repartition marker.
    pub fn repartition(&self, name: &str) -> String {
        let t0 = Instant::now();
        let mut sessions = self.sessions.lock().unwrap();
        self.evict_idle(&mut sessions);
        let Some(s) = sessions.get_mut(name) else {
            return no_session(name);
        };
        s.last_used = Instant::now();
        let report = s.rp.repartition();
        s.chain_fp = chain_mark(s.chain_fp, 1);
        s.repartitions += 1;
        let body = encode_step(&report, s.chain_fp);
        self.metrics
            .session_repartition_ms
            .observe(t0.elapsed().as_secs_f64() * 1e3);
        body
    }

    /// `session_close`: drop the session and report its lifetime totals.
    pub fn close(&self, name: &str) -> String {
        let mut sessions = self.sessions.lock().unwrap();
        self.evict_idle(&mut sessions);
        let Some(s) = sessions.remove(name) else {
            return no_session(name);
        };
        self.metrics.sessions_active.set(sessions.len() as i64);
        format!(
            concat!(
                "{{\"type\": \"session\", \"status\": \"closed\", \"session\": \"{}\", ",
                "\"deltas_total\": {}, \"repartitions\": {}, \"chain_fp\": \"{:016x}\"}}"
            ),
            escape(name),
            s.deltas_total,
            s.repartitions,
            s.chain_fp,
        )
    }
}

fn no_session(name: &str) -> String {
    encode_typed_error("no_session", &format!("no open session named {name:?}"))
}

/// Encode a repartition step. **Deterministic fields only**: the step
/// index, mode, dirty-region accounting, cut/balance/migration outcome,
/// simulated time, and fingerprints — never host wall time or the
/// session name. A replay on another shard must reproduce these bytes,
/// so anything nondeterministic here breaks the failover byte-identity
/// contract.
fn encode_step(r: &StepReport, chain_fp: u64) -> String {
    format!(
        concat!(
            "{{\"type\": \"session\", \"status\": \"repartition\", \"step\": {}, ",
            "\"mode\": \"{}\", \"touched\": {}, \"dirty\": {}, \"cut_before\": {}, ",
            "\"cut_after\": {}, \"migration_volume\": {}, \"imbalance\": {}, ",
            "\"fm_passes\": {}, \"sim_time\": {}, \"chain_fp\": \"{:016x}\", ",
            "\"partition_fp\": \"{:016x}\"}}"
        ),
        r.step,
        r.mode.as_str(),
        r.touched,
        r.dirty,
        num(r.cut_before),
        num(r.cut_after),
        r.migration_volume,
        num(r.imbalance),
        r.fm_passes,
        num(r.sim_time),
        chain_fp,
        r.partition_fp,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn mgr(cfg: ServeConfig) -> SessionManager {
        SessionManager::new(&cfg, ServiceMetrics::new())
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            max_sessions: 2,
            session_max_deltas: 16,
            session_idle_ms: 60_000,
            ..ServeConfig::default()
        }
    }

    fn grid(n: usize) -> (Arc<Graph>, Option<Arc<Vec<Point2>>>) {
        (
            Arc::new(sp_graph::gen::grid_2d(n, n)),
            Some(Arc::new(sp_graph::gen::grid_2d_coords(n, n))),
        )
    }

    #[test]
    fn open_delta_repartition_close_round_trip() {
        let m = mgr(small_cfg());
        let (g, c) = grid(8);
        let open = m.open("a", g, c, 1);
        let v = Value::parse(&open).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("open"));
        assert_eq!(m.active(), 1);
        assert_eq!(m.metrics.sessions_active.get(), 1);

        let d = m.delta(
            "a",
            &[GraphDelta::ShiftCoord {
                v: 3,
                dx: 0.1,
                dy: 0.0,
            }],
        );
        let v = Value::parse(&d).unwrap();
        assert_eq!(v.get("applied").and_then(Value::as_u64), Some(1));
        assert_eq!(m.metrics.session_deltas.get(), 1);

        let r = m.repartition("a");
        let v = Value::parse(&r).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("repartition"));
        assert!(v.get("partition_fp").is_some());

        let c = m.close("a");
        let v = Value::parse(&c).unwrap();
        assert_eq!(v.get("repartitions").and_then(Value::as_u64), Some(1));
        assert_eq!(m.active(), 0);
        assert_eq!(m.metrics.sessions_active.get(), 0);
    }

    #[test]
    fn responses_are_pure_functions_of_base_and_chain() {
        // Two sessions with different names but identical base + deltas:
        // every delta/repartition response must be byte-identical (the
        // name never appears), each computed on its own.
        let m = mgr(small_cfg());
        let (g, c) = grid(8);
        m.open("first", g.clone(), c.clone(), 7);
        m.open("second", g, c, 7);
        let batch = [GraphDelta::SetVwgt { v: 11, w: 2.5 }];
        assert_eq!(m.delta("first", &batch), m.delta("second", &batch));
        let r1 = m.repartition("first");
        let r2 = m.repartition("second");
        assert_eq!(r1, r2, "twin computations must be byte-identical");
        // Both sessions stay in lockstep: further steps agree too.
        assert_eq!(
            m.delta("first", &batch[..0]),
            m.delta("second", &batch[..0])
        );
        assert_eq!(m.repartition("first"), m.repartition("second"));
    }

    #[test]
    fn quotas_and_unknown_sessions_are_typed_errors() {
        let m = mgr(ServeConfig {
            max_sessions: 1,
            session_max_deltas: 2,
            ..small_cfg()
        });
        let (g, c) = grid(6);
        m.open("only", g.clone(), c.clone(), 1);
        let second = m.open("nope", g, c, 1);
        assert!(second.contains("session_quota"), "{second}");

        let too_many: Vec<GraphDelta> = (0..3).map(|v| GraphDelta::SetVwgt { v, w: 2.0 }).collect();
        let r = m.delta("only", &too_many);
        assert!(r.contains("delta_quota"), "{r}");
        assert!(m.delta("ghost", &[]).contains("no_session"));
        assert!(m.repartition("ghost").contains("no_session"));
        assert!(m.close("ghost").contains("no_session"));
    }

    #[test]
    fn rejected_batch_leaves_chain_untouched() {
        let m = mgr(small_cfg());
        let (g, c) = grid(6);
        m.open("s", g, c, 1);
        let before = m.repartition("s");
        // A batch whose second delta is invalid must roll back entirely.
        let bad = [
            GraphDelta::SetVwgt { v: 1, w: 2.0 },
            GraphDelta::RemoveEdge { u: 0, v: 35 },
        ];
        let r = m.delta("s", &bad);
        assert!(r.contains("bad_delta"), "{r}");
        // The chain did not advance: the next repartition marks from the
        // same chain state as `before` did, differing only by the marker.
        let v0 = Value::parse(&before).unwrap();
        let r2 = m.repartition("s");
        let v2 = Value::parse(&r2).unwrap();
        assert_eq!(
            v0.get("step").and_then(Value::as_u64).map(|s| s + 1),
            v2.get("step").and_then(Value::as_u64)
        );
    }

    #[test]
    fn idle_sessions_are_evicted_lazily() {
        let m = mgr(ServeConfig {
            session_idle_ms: 1,
            ..small_cfg()
        });
        let (g, c) = grid(6);
        m.open("stale", g.clone(), c.clone(), 1);
        assert_eq!(m.active(), 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Any session operation sweeps; the stale session is gone and the
        // name is free again.
        let r = m.repartition("stale");
        assert!(r.contains("no_session"), "{r}");
        assert_eq!(m.metrics.session_evictions.get(), 1);
        assert_eq!(m.metrics.sessions_active.get(), 0);
        let reopened = m.open("stale", g, c, 1);
        assert!(reopened.contains("\"status\": \"open\""), "{reopened}");
    }
}
