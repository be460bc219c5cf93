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
//! > served it, the wall clock, or cache state.
//!
//! Consequently `session_delta` / `session_repartition` responses carry
//! no session name, no host times, and no cache-hit flag; replaying a
//! session's frames on a different shard reproduces every response
//! byte-for-byte. The **result cache** is keyed by that same pair: a hit
//! serves the cached bytes *and* adopts the cached partition into the
//! session (repartitioning is deterministic, so the adopted labels are
//! bit-identical to what a fresh computation would produce).
//!
//! Quotas bound a hostile or runaway client: a maximum number of open
//! sessions, a per-session lifetime delta budget, and an idle TTL
//! enforced lazily at every session operation (no sweeper thread).

use crate::cache::LruCache;
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

/// Session-subsystem knobs, split out of [`ServeConfig`].
#[derive(Clone, Debug)]
pub struct SessionConfig {
    pub max_sessions: usize,
    pub max_deltas: u64,
    pub idle_ms: u64,
    pub cache_capacity: usize,
}

impl SessionConfig {
    pub fn from_serve(cfg: &ServeConfig) -> SessionConfig {
        SessionConfig {
            max_sessions: cfg.max_sessions.max(1),
            max_deltas: cfg.session_max_deltas,
            idle_ms: cfg.session_idle_ms.max(1),
            cache_capacity: cfg.session_cache_capacity,
        }
    }
}

/// One cached repartition step: the response bytes served and the side
/// assignment needed to fast-forward a session past the step on a hit.
struct CachedStep {
    response: String,
    sides: Vec<u8>,
}

struct Session {
    rp: IncrementalRepartitioner,
    base_fp: u64,
    chain_fp: u64,
    deltas_total: u64,
    repartitions: u64,
    last_used: Instant,
}

struct SessState {
    sessions: HashMap<String, Session>,
    /// Repartition steps keyed by `(base_fp, chain_fp)`.
    cache: LruCache<(u64, u64), CachedStep>,
}

/// Owns every open session of a server plus the shared step cache.
/// Shared by all connection handlers; every public method takes `&self`.
pub struct SessionManager {
    cfg: SessionConfig,
    state: Mutex<SessState>,
    metrics: ServiceMetrics,
}

impl SessionManager {
    pub fn new(cfg: SessionConfig, metrics: ServiceMetrics) -> SessionManager {
        SessionManager {
            state: Mutex::new(SessState {
                sessions: HashMap::new(),
                cache: LruCache::new(cfg.cache_capacity),
            }),
            cfg,
            metrics,
        }
    }

    /// Sessions currently open (tests and stats).
    pub fn active(&self) -> usize {
        self.state.lock().unwrap().sessions.len()
    }

    /// Drop sessions idle past the TTL. Called at the top of every
    /// session operation — lazy eviction needs no sweeper thread, and a
    /// server with no session traffic holds no session state anyway.
    fn evict_idle(&self, st: &mut SessState) {
        let ttl = std::time::Duration::from_millis(self.cfg.idle_ms);
        let before = st.sessions.len();
        st.sessions.retain(|_, s| s.last_used.elapsed() <= ttl);
        let evicted = before - st.sessions.len();
        if evicted > 0 {
            self.metrics.session_evictions.add(evicted as u64);
            self.metrics.sessions_active.set(st.sessions.len() as i64);
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
        let mut st = self.state.lock().unwrap();
        self.evict_idle(&mut st);
        if st.sessions.contains_key(name) {
            return encode_typed_error(
                "session_exists",
                &format!("session {name:?} is already open"),
            );
        }
        if st.sessions.len() >= self.cfg.max_sessions {
            return encode_typed_error(
                "session_quota",
                &format!(
                    "session limit reached ({} open); close one first",
                    st.sessions.len()
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
        st.sessions.insert(
            name.to_string(),
            Session {
                rp,
                base_fp,
                chain_fp,
                deltas_total: 0,
                repartitions: 0,
                last_used: Instant::now(),
            },
        );
        self.metrics.sessions_active.set(st.sessions.len() as i64);
        body
    }

    /// `session_delta`: apply a batch atomically and extend the chain
    /// fingerprint. A rejected batch (validity or quota) leaves both the
    /// overlay and the chain untouched.
    pub fn delta(&self, name: &str, batch: &[GraphDelta]) -> String {
        let mut st = self.state.lock().unwrap();
        self.evict_idle(&mut st);
        let Some(s) = st.sessions.get_mut(name) else {
            return no_session(name);
        };
        s.last_used = Instant::now();
        if s.deltas_total + batch.len() as u64 > self.cfg.max_deltas {
            return encode_typed_error(
                "delta_quota",
                &format!(
                    "session delta budget exceeded ({} applied + {} submitted > {})",
                    s.deltas_total,
                    batch.len(),
                    self.cfg.max_deltas
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

    /// `session_repartition`: advance the chain past a repartition marker
    /// and either serve the step from the result cache (adopting its
    /// partition) or compute it and cache the outcome.
    pub fn repartition(&self, name: &str) -> String {
        let t0 = Instant::now();
        let mut st = self.state.lock().unwrap();
        self.evict_idle(&mut st);
        let Some(s) = st.sessions.get_mut(name) else {
            return no_session(name);
        };
        s.last_used = Instant::now();
        let next_chain = chain_mark(s.chain_fp, 1);
        let key = (s.base_fp, next_chain);

        if let Some(hit) = st.cache.get(&key) {
            // Reborrow: `get` needed the cache half of the state.
            let s = st.sessions.get_mut(name).expect("session still present");
            if s.rp.adopt(hit.sides.clone()).is_ok() {
                s.chain_fp = next_chain;
                s.repartitions += 1;
                self.metrics.session_cache_hits.inc();
                self.metrics
                    .session_repartition_ms
                    .observe(t0.elapsed().as_secs_f64() * 1e3);
                return hit.response.clone();
            }
            // An adopt mismatch means the cached entry cannot belong to
            // this state after all (fingerprint collision); fall through
            // and compute.
        }

        let s = st.sessions.get_mut(name).expect("session still present");
        let report = s.rp.repartition();
        s.chain_fp = next_chain;
        s.repartitions += 1;
        let body = encode_step(&report, next_chain);
        let sides = s.rp.partition().sides().to_vec();
        st.cache.insert(
            key,
            Arc::new(CachedStep {
                response: body.clone(),
                sides,
            }),
        );
        self.metrics
            .session_repartition_ms
            .observe(t0.elapsed().as_secs_f64() * 1e3);
        body
    }

    /// `session_close`: drop the session and report its lifetime totals.
    pub fn close(&self, name: &str) -> String {
        let mut st = self.state.lock().unwrap();
        self.evict_idle(&mut st);
        let Some(s) = st.sessions.remove(name) else {
            return no_session(name);
        };
        self.metrics.sessions_active.set(st.sessions.len() as i64);
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
/// simulated time, and fingerprints — never host wall time, cache-hit
/// flags, or the session name. These bytes are cached and replayed
/// across shards, so anything nondeterministic here breaks the failover
/// byte-identity contract.
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

    fn mgr(cfg: SessionConfig) -> SessionManager {
        SessionManager::new(cfg, ServiceMetrics::new())
    }

    fn small_cfg() -> SessionConfig {
        SessionConfig {
            max_sessions: 2,
            max_deltas: 16,
            idle_ms: 60_000,
            cache_capacity: 8,
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
        // name never appears), and the second repartition must be served
        // from the step cache with the same bytes.
        let m = mgr(small_cfg());
        let (g, c) = grid(8);
        m.open("first", g.clone(), c.clone(), 7);
        m.open("second", g, c, 7);
        let batch = [GraphDelta::SetVwgt { v: 11, w: 2.5 }];
        assert_eq!(m.delta("first", &batch), m.delta("second", &batch));
        let r1 = m.repartition("first");
        let hits_before = m.metrics.session_cache_hits.get();
        let r2 = m.repartition("second");
        assert_eq!(r1, r2, "cache replay must be byte-identical");
        assert_eq!(m.metrics.session_cache_hits.get(), hits_before + 1);
        // And the adopted partition leaves both sessions in lockstep:
        // further steps agree too.
        assert_eq!(
            m.delta("first", &batch[..0]),
            m.delta("second", &batch[..0])
        );
        assert_eq!(m.repartition("first"), m.repartition("second"));
    }

    #[test]
    fn quotas_and_unknown_sessions_are_typed_errors() {
        let m = mgr(SessionConfig {
            max_sessions: 1,
            max_deltas: 2,
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
        let m = mgr(SessionConfig {
            idle_ms: 1,
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
