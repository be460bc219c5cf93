//! Distributed serving: a coordinator that consistent-hashes jobs across
//! backend shards over the framed-JSON protocol.
//!
//! The router owns no partitioning code. It decodes each submit just far
//! enough to compute a **routing key** — a fingerprint of the job's cache
//! key `(input fp, method, parts, seed)`, the input fingerprint coming from
//! a `SourceMemo` for every graph source seen before — places the key on the
//! consistent-hash [`Ring`] of *alive* shards,
//! forwards the client's frame bytes as they are, and relays the shard's
//! reply bytes as they are. The connection is the correlation: a kept
//! shard connection carries one exchange at a time and is dropped, never
//! reused, after a failed or timed-out one (`net::Pool`), so the reply read
//! is always the reply to the frame just sent.
//!
//! Determinism is the contract that makes all of this safe (DESIGN.md
//! "Distributed serving"): a shard's response bytes are a pure function of
//! the job's cache key, so **hash→shard is placement, never semantics**.
//! Consequences the router exploits:
//!
//! - **Failover replay**: when a forward fails mid-stream, the shard is
//!   marked dead and the *same* frame is replayed to the next owner on the
//!   survivor ring. The client cannot distinguish the replayed response
//!   from the original — they are bit-identical by construction.
//! - **Cold rejoin**: a recovered or replaced shard is re-admitted with
//!   an empty cache; its first requests recompute the same bytes.
//!
//! Health checks ping shards in the background; a dead shard's keyspace
//! re-hashes to survivors (only its keys move — the ring property), and a
//! recovered shard takes its keys back.

use crate::fingerprint::SourceMemo;
use crate::json::Value;
use crate::net::{resolve, ForwardFail, Handled, Listener, Pool};
use crate::proto::{
    encode_error, encode_metrics, encode_pong, encode_typed_error, Parsed, Request, SubmitFrame,
};
use crate::ring::{Ring, DEFAULT_VNODES};
use scalapart::obs::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Background health-probe period. `0` disables the probe thread
    /// (tests drive failure detection through the forward path instead).
    pub health_interval_ms: u64,
    /// Per-attempt socket timeout for forwarded requests. Generous: a
    /// shard legitimately computes for seconds on large jobs.
    pub forward_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            health_interval_ms: 500,
            forward_timeout_ms: 30_000,
        }
    }
}

struct ShardState {
    name: String,
    addr: SocketAddr,
    up: bool,
    up_gauge: Arc<Gauge>,
    forwards: Arc<Counter>,
}

impl ShardState {
    /// A shard registered as alive, with its per-shard series.
    fn new(registry: &Registry, name: &str, addr: SocketAddr) -> ShardState {
        let up_gauge = registry.gauge_with(
            "sp_shard_up",
            "1 while the shard answers, 0 after a failure",
            &[("shard", name)],
        );
        up_gauge.set(1);
        ShardState {
            up_gauge,
            forwards: registry.counter_with(
                "sp_route_forwards_total",
                "Requests forwarded per shard (including replays)",
                &[("shard", name)],
            ),
            name: name.to_string(),
            addr,
            up: true,
        }
    }
}

/// The shard list plus the consistent-hash ring over its *alive* members.
/// The ring is rebuilt only on membership transitions (`mark_down`,
/// `rejoin`) — the per-request owner lookup is a pure O(log points)
/// search under the lock, not an O(shards · vnodes · log) rebuild that
/// would serialize every concurrent forward.
struct ShardTable {
    shards: Vec<ShardState>,
    ring: Ring,
}

impl ShardTable {
    /// Recompute what follows from membership: the ring and `shards_up`.
    fn membership_changed(&mut self, shards_up: &Gauge) {
        let alive: Vec<&str> = self
            .shards
            .iter()
            .filter(|s| s.up)
            .map(|s| s.name.as_str())
            .collect();
        shards_up.set(alive.len() as i64);
        self.ring = Ring::new(&alive, DEFAULT_VNODES);
    }
}

/// Every `code` the router itself puts in a typed error, registered at
/// start so each series is scraped from zero.
const ERROR_CODES: [&str; 3] = ["no_shards", "shard_protocol", "forward_timeout"];

struct RouterMetrics {
    registry: Arc<Registry>,
    shards: Arc<Gauge>,
    shards_up: Arc<Gauge>,
    failovers: Arc<Counter>,
    joins: Arc<Counter>,
    replays: Arc<Counter>,
    connects: Arc<Counter>,
    conn_reuses: Arc<Counter>,
    source_memo_hits: Arc<Counter>,
    source_memo_misses: Arc<Counter>,
}

impl RouterMetrics {
    fn new() -> RouterMetrics {
        let r = Arc::new(Registry::new());
        let metrics = RouterMetrics {
            shards: r.gauge("sp_shards", "Shards registered with the router"),
            shards_up: r.gauge("sp_shards_up", "Shards currently believed alive"),
            failovers: r.counter(
                "sp_shard_failovers_total",
                "Up-to-down shard transitions (keyspace re-hashed to survivors)",
            ),
            joins: r.counter(
                "sp_shard_joins_total",
                "Shard rejoins (re-admitted with a cold cache)",
            ),
            replays: r.counter(
                "sp_route_replays_total",
                "Forwards replayed to a different shard after a failure",
            ),
            connects: r.counter("sp_route_connects_total", "Connections opened to shards"),
            conn_reuses: r.counter(
                "sp_route_conn_reuses_total",
                "Round trips sent on a kept-open shard connection",
            ),
            source_memo_hits: r.counter(
                "sp_source_memo_hits_total",
                "Submits routed from a remembered graph source (no graph built)",
            ),
            source_memo_misses: r.counter(
                "sp_source_memo_misses_total",
                "Submits whose graph source had to be materialised and fingerprinted",
            ),
            registry: r,
        };
        for code in ERROR_CODES {
            metrics.error(code);
        }
        metrics
    }

    /// The `sp_route_errors_total{code=…}` series (registered on first use).
    fn error(&self, code: &str) -> Arc<Counter> {
        self.registry.counter_with(
            "sp_route_errors_total",
            "Typed errors returned to clients",
            &[("code", code)],
        )
    }
}

/// A streaming session's frame journal: every state-changing frame the
/// router successfully delivered, in order, plus the shard currently
/// holding the session. Sessions are *stateful*, unlike submits — a shard
/// death loses the session's overlay — so failover replays the journal on
/// the survivor that now owns the session's key. Replay reconstructs the
/// exact state (responses are pure functions of the delta chain), after
/// which the current frame proceeds as if nothing happened.
#[derive(Default)]
struct SessionJournal {
    owner: String,
    frames: Vec<String>,
}

/// The routing coordinator. Cheap to clone via `Arc`; see module docs.
pub struct Router {
    cfg: RouterConfig,
    shards: Mutex<ShardTable>,
    metrics: RouterMetrics,
    /// Graph source → input fingerprint, for the routing key.
    sources: SourceMemo,
    /// Kept-open connections to the shards; every round trip the router
    /// makes goes through it.
    pool: Pool,
    stop: Arc<AtomicBool>,
    health_thread: Mutex<Option<JoinHandle<()>>>,
    /// Per-session frame journals for failover replay, keyed by session
    /// name. Entries are dropped when the owner closes the session or
    /// answers that it has none.
    session_journals: Mutex<HashMap<String, SessionJournal>>,
}

impl Router {
    /// Build a router over `(name, addr)` shard pairs. All start alive;
    /// the first failed forward or health probe demotes them.
    pub fn new(cfg: RouterConfig, shards: &[(String, String)]) -> std::io::Result<Arc<Router>> {
        let metrics = RouterMetrics::new();
        let mut table = ShardTable {
            shards: Vec::with_capacity(shards.len()),
            ring: Ring::new::<&str>(&[], DEFAULT_VNODES),
        };
        for (name, addr) in shards {
            table
                .shards
                .push(ShardState::new(&metrics.registry, name, resolve(addr)?));
        }
        metrics.shards.set(table.shards.len() as i64);
        table.membership_changed(&metrics.shards_up);
        let router = Arc::new(Router {
            cfg: cfg.clone(),
            shards: Mutex::new(table),
            sources: SourceMemo::new(
                metrics.source_memo_hits.clone(),
                metrics.source_memo_misses.clone(),
            ),
            pool: Pool::new(metrics.connects.clone(), metrics.conn_reuses.clone()),
            metrics,
            stop: Arc::new(AtomicBool::new(false)),
            health_thread: Mutex::new(None),
            session_journals: Mutex::new(HashMap::new()),
        });
        if cfg.health_interval_ms > 0 {
            let r = router.clone();
            *router.health_thread.lock().unwrap() =
                Some(std::thread::spawn(move || health_loop(r)));
        }
        Ok(router)
    }

    /// Stop the health thread and close the idle shard connections. Does
    /// not contact shards.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.pool.close();
        if let Some(h) = self.health_thread.lock().unwrap().take() {
            let _ = h.join();
        }
    }

    /// Prometheus exposition of the router's own registry.
    pub fn prometheus(&self) -> String {
        scalapart::obs::prom::render(&self.metrics.registry)
    }

    /// Current up→down transition count (the failover e2e asserts on it).
    pub fn failovers(&self) -> u64 {
        self.metrics.failovers.get()
    }

    /// `(name, addr, up)` of every registered shard, in registration order.
    fn snapshot(&self) -> Vec<(String, SocketAddr, bool)> {
        let table = self.shards.lock().unwrap();
        table
            .shards
            .iter()
            .map(|s| (s.name.clone(), s.addr, s.up))
            .collect()
    }

    /// Re-admit a registered shard, at the same or a new address, with
    /// whatever cache it has — a fresh process starts cold, and its first
    /// requests recompute the same bytes. An unknown name is
    /// `InvalidInput`: the shard set is the one the router started with.
    pub fn rejoin(&self, name: &str, addr: &str) -> std::io::Result<()> {
        let addr = resolve(addr)?;
        let mut table = self.shards.lock().unwrap();
        let Some(s) = table.shards.iter_mut().find(|s| s.name == name) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("no shard named {name:?} is registered"),
            ));
        };
        // Connections kept to the address it leaves belong to the process
        // it replaces.
        self.pool.purge(&s.addr);
        s.addr = addr;
        s.up = true;
        s.up_gauge.set(1);
        table.membership_changed(&self.metrics.shards_up);
        drop(table);
        self.metrics.joins.inc();
        Ok(())
    }

    /// Handle one client frame: route, forward, relay.
    pub fn handle(&self, payload: &[u8]) -> Handled {
        // Forwarding relays the frame text, so it must be text.
        let Ok(frame) = std::str::from_utf8(payload) else {
            return Handled::Reply(encode_error("frame is not UTF-8"));
        };
        let req = match Parsed::from_frame(payload) {
            Ok(Parsed::Submit(f)) => {
                return Handled::Reply(match self.routing_key(&f) {
                    Ok(key) => self.route_submit(frame, key),
                    Err(reply) => reply,
                })
            }
            Ok(Parsed::Ready(req)) => req,
            Err(msg) => return Handled::Reply(encode_error(&msg)),
        };
        match req {
            Request::Submit { .. } => unreachable!("a parsed submit is never built"),
            Request::Ping => Handled::Reply(encode_pong()),
            Request::Metrics => Handled::Reply(encode_metrics(&self.prometheus())),
            Request::Shutdown => {
                // Forward the drain to every live shard, then stop.
                for (_, addr, up) in self.snapshot() {
                    if up {
                        let _ = self.forward(addr, "{\"type\": \"shutdown\"}");
                    }
                }
                self.stop.store(true, Ordering::SeqCst);
                self.pool.close();
                Handled::ReplyThenStop("{\"type\": \"ok\", \"draining\": true}".to_string())
            }
            Request::SessionOpen { session, .. }
            | Request::SessionDelta { session, .. }
            | Request::SessionRepartition { session }
            | Request::SessionClose { session } => {
                Handled::Reply(self.route_session(&session, frame))
            }
        }
    }

    /// The routing key of a submit — the fingerprint of its cache key
    /// (sans ranks, which is shard config, identical across shards) — or
    /// the error reply the frame draws instead. A source seen before costs
    /// a memo lookup; only a new one is built and fingerprinted here.
    fn routing_key(&self, f: &SubmitFrame) -> Result<u64, String> {
        let decoded = f.source().and_then(|source| {
            let info = self.sources.resolve(&source)?;
            Ok((info, f.job(info.n)?))
        });
        let (info, job) = decoded.map_err(|msg| encode_error(&msg))?;
        let mut fp = sp_trace::fnv::Fingerprint::new();
        fp.u64(info.input_fp);
        fp.bytes(job.method.proto_name().as_bytes());
        fp.u64(job.parts as u64);
        fp.u64(job.seed);
        Ok(fp.finish())
    }

    /// A typed error reply, counted under its `code`.
    fn typed_error(&self, code: &str, message: &str) -> String {
        self.metrics.error(code).inc();
        encode_typed_error(code, message)
    }

    /// The one failover loop: deliver `frame` to the live ring owner of
    /// `key`, replaying it along the survivor ring until a shard answers
    /// or none are left. Returns the answering shard's name and its raw
    /// reply, or the typed error reply to send instead. Only
    /// *connection-level* failures demote a shard; a slow reply must not
    /// cascade the fleet down (see [`ForwardFail`]).
    ///
    /// With `session` set, the key is a session's and each candidate owner
    /// is first brought up to date from the session's journal.
    fn deliver(
        &self,
        key: u64,
        session: Option<&str>,
        frame: &str,
    ) -> Result<(String, String), String> {
        let what = if session.is_some() {
            "session"
        } else {
            "keyspace"
        };
        let mut attempts = 0usize;
        loop {
            let Some((name, addr)) = self.owner_of(key) else {
                return Err(self.typed_error(
                    "no_shards",
                    &format!("no live shard owns this {what}; all replicas are down"),
                ));
            };
            attempts += 1;
            if attempts > 1 {
                self.metrics.replays.inc();
            }
            let rebuilt = session.map_or(Ok(()), |s| self.rebuild_session(s, &name, addr));
            let (sent, during) = match rebuilt {
                Ok(()) => (self.forward(addr, frame), ""),
                Err(fail) => (Err(fail), " while rebuilding the session"),
            };
            match sent {
                Ok(resp) => return Ok((name, resp)),
                // No reply inside the forward budget. The shard may
                // legitimately still be computing (the config comment
                // admits seconds-long jobs), so this is a client budget
                // exceeded, not a death certificate: replaying elsewhere
                // could double-run the job, and demoting would let one
                // slow job mark the whole fleet down. Liveness stays the
                // health probe's call.
                Err(ForwardFail::Timeout) => {
                    return Err(self.typed_error(
                        "forward_timeout",
                        &format!("shard {name} did not reply within the forward timeout{during}"),
                    ));
                }
                // Connection-level failure (refused, reset, mid-frame EOF,
                // garbage framing): mark the shard dead (once) and replay
                // on the next owner. Replay is safe because responses are
                // bit-identical wherever the job runs.
                Err(ForwardFail::Dead) => self.mark_down(&name),
            }
        }
    }

    /// If `session`'s journal was last delivered to a shard other than
    /// `name` (a failover, or a rejoin that re-hashed the keyspace),
    /// rebuild the session on `name` from the journal.
    fn rebuild_session(
        &self,
        session: &str,
        name: &str,
        addr: SocketAddr,
    ) -> Result<(), ForwardFail> {
        let replay: Option<Vec<String>> = {
            let journals = self.session_journals.lock().unwrap();
            journals
                .get(session)
                .filter(|j| j.owner != name)
                .map(|j| j.frames.clone())
        };
        let Some(frames) = replay else { return Ok(()) };
        for f in &frames {
            // Replayed responses were already delivered from the original
            // owner; determinism makes them byte-identical, so they are
            // simply dropped.
            self.forward(addr, f)?;
        }
        if let Some(j) = self.session_journals.lock().unwrap().get_mut(session) {
            j.owner = name.to_string();
        }
        Ok(())
    }

    /// Route a submit by `key` and relay the shard's reply bytes as they
    /// are. The only check is that the reply is a JSON object, by its
    /// first and last byte: a hit's reply carries the whole label vector,
    /// and the router has no use for a parse of it.
    fn route_submit(&self, frame: &str, key: u64) -> String {
        let (name, resp) = match self.deliver(key, None, frame) {
            Ok(answered) => answered,
            Err(reply) => return reply,
        };
        if !(resp.starts_with('{') && resp.ends_with('}')) {
            return self.typed_error(
                "shard_protocol",
                &format!("shard {name} sent an unintelligible reply"),
            );
        }
        self.count_forward(&name);
        resp
    }

    /// Route a session frame by the *session name* — every frame of a
    /// session hashes to the same shard, which is what keeps the session's
    /// overlay state in one place. On shard death the journal is replayed
    /// to the survivor owner before the current frame (see
    /// [`SessionJournal`]); the client sees bit-identical responses either
    /// way.
    fn route_session(&self, session: &str, frame: &str) -> String {
        let mut fp = sp_trace::fnv::Fingerprint::new();
        fp.bytes(session.as_bytes());
        let (name, resp) = match self.deliver(fp.finish(), Some(session), frame) {
            Ok(answered) => answered,
            Err(reply) => return reply,
        };
        self.count_forward(&name);
        // The journal follows what the owner says became of the session.
        // An accepted frame (`type` "session") is appended; an accepted
        // open starts a new session, and its journal afresh. A close, or a
        // `no_session` answer (the owner closed it or evicted it idle),
        // drops the journal, so that no failover can bring it back.
        // Other rejections changed no state and are not kept.
        let Ok(v) = Value::parse(&resp) else {
            return resp;
        };
        let field = |key| v.get(key).and_then(Value::as_str);
        let mut journals = self.session_journals.lock().unwrap();
        match (field("type"), field("status"), field("code")) {
            (Some("session"), Some("closed"), _) | (Some("error"), _, Some("no_session")) => {
                journals.remove(session);
            }
            (Some("session"), status, _) => {
                let j = journals.entry(session.to_string()).or_default();
                if status == Some("open") {
                    j.frames.clear();
                }
                j.owner = name;
                j.frames.push(frame.to_string());
            }
            _ => {}
        }
        resp
    }

    fn count_forward(&self, name: &str) {
        let table = self.shards.lock().unwrap();
        if let Some(s) = table.shards.iter().find(|s| s.name == name) {
            s.forwards.inc();
        }
    }

    /// The live ring owner for `key`, with its address. A cached-ring
    /// lookup — the ring is rebuilt on membership transitions, never here.
    fn owner_of(&self, key: u64) -> Option<(String, SocketAddr)> {
        let table = self.shards.lock().unwrap();
        let owner = table.ring.owner(key)?;
        table
            .shards
            .iter()
            .find(|s| s.up && s.name == owner)
            .map(|s| (s.name.clone(), s.addr))
    }

    /// Demote a shard. The failover counter increments only on the
    /// up→down *transition* (under the shard-table lock), so concurrent
    /// detectors — eight clients and the health probe all seeing the same
    /// crash — count one failover, not nine.
    fn mark_down(&self, name: &str) {
        let mut table = self.shards.lock().unwrap();
        if let Some(s) = table.shards.iter_mut().find(|s| s.name == name && s.up) {
            s.up = false;
            s.up_gauge.set(0);
            self.pool.purge(&s.addr);
            self.metrics.failovers.inc();
            table.membership_changed(&self.metrics.shards_up);
        }
    }

    /// One round trip to a shard within the forward budget.
    fn forward(&self, addr: SocketAddr, frame: &str) -> Result<String, ForwardFail> {
        let budget = Duration::from_millis(self.cfg.forward_timeout_ms.max(1));
        self.pool
            .round_trip(addr, frame, budget.min(Duration::from_secs(2)), budget)
    }

    /// A short-deadline ping, independent of the forward timeout: health
    /// probes must detect death fast even while forwards allow long compute.
    /// On a connection of its own, so that it tests the shard's accept path.
    fn probe(&self, addr: SocketAddr) -> bool {
        let budget = Duration::from_millis(250);
        matches!(
            self.pool.fresh_trip(addr, "{\"type\": \"ping\"}", budget, budget),
            Ok((_, reply)) if reply == encode_pong()
        )
    }
}

fn health_loop(router: Arc<Router>) {
    let period = Duration::from_millis(router.cfg.health_interval_ms.max(10));
    while !router.stop.load(Ordering::SeqCst) {
        std::thread::sleep(period);
        for (name, addr, was_up) in router.snapshot() {
            if router.stop.load(Ordering::SeqCst) {
                return;
            }
            let alive = router.probe(addr);
            if was_up && !alive {
                router.mark_down(&name);
            } else if !was_up && alive {
                // Recovered at its old address: re-admitted cold.
                let _ = router.rejoin(&name, &addr.to_string());
            }
        }
    }
}

/// TCP front end for the router: a `Listener` whose frames go to
/// [`Router::handle`].
pub struct RouterServer {
    router: Arc<Router>,
    listener: Arc<Listener>,
}

impl RouterServer {
    pub fn bind(addr: &str, router: Arc<Router>) -> std::io::Result<Arc<RouterServer>> {
        let listener = {
            let router = router.clone();
            Listener::bind(addr, move |payload| router.handle(payload))?
        };
        Ok(Arc::new(RouterServer { router, listener }))
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Client connections with a live handler (a leak here is an fd leak).
    pub fn open_connections(&self) -> usize {
        self.listener.open_connections()
    }

    pub fn shutdown(&self) {
        self.listener.stop();
        self.router.shutdown();
    }

    pub fn wait(&self) {
        self.listener.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn failover_demotes_a_dead_owner_once_and_never_a_slow_one() {
        use std::sync::atomic::AtomicUsize;
        let frames_seen = Arc::new(AtomicUsize::new(0));
        let live = {
            let seen = frames_seen.clone();
            Listener::bind("127.0.0.1:0", move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
                Handled::Reply("{\"type\": \"session\"}".to_string())
            })
            .unwrap()
        };
        // Dead: a port nothing listens on any more (refused). Slow: the
        // kernel completes the connect, nobody ever reads or replies.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let slow = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let cases = [("dead", dead), ("slow", slow.local_addr().unwrap())];
        for (bad, bad_addr) in cases {
            for session in [None, Some("s")] {
                let r = Router::new(
                    RouterConfig {
                        health_interval_ms: 0,
                        forward_timeout_ms: 150,
                    },
                    &[
                        (bad.to_string(), bad_addr.to_string()),
                        ("live".to_string(), live.local_addr().to_string()),
                    ],
                )
                .unwrap();
                let key = (0u64..).find(|k| r.owner_of(*k).unwrap().0 == bad).unwrap();
                // The session was last delivered elsewhere, so whoever
                // owns it now is first rebuilt from the journal.
                r.session_journals.lock().unwrap().insert(
                    "s".to_string(),
                    SessionJournal {
                        owner: "elsewhere".to_string(),
                        frames: vec!["{\"type\": \"journaled\"}".to_string()],
                    },
                );
                let before = frames_seen.load(Ordering::SeqCst);
                let got = r.deliver(key, session, "{\"type\": \"current\"}");
                let replays = || r.metrics.replays.get();
                if bad == "dead" {
                    let answered = ("live".to_string(), "{\"type\": \"session\"}".to_string());
                    assert_eq!(got, Ok(answered.clone()));
                    assert_eq!((r.failovers(), replays()), (1, 1), "demote once, replay");
                    let sent = frames_seen.load(Ordering::SeqCst) - before;
                    assert_eq!(sent, 1 + session.is_some() as usize, "journal, then frame");
                    // The survivor owns the key now: nothing left to demote.
                    assert_eq!(r.deliver(key, session, "{}"), Ok(answered));
                    assert_eq!((r.failovers(), replays()), (1, 1));
                } else {
                    let reply = got.unwrap_err();
                    assert!(reply.contains("\"code\": \"forward_timeout\""), "{reply}");
                    assert_eq!(
                        reply.contains("while rebuilding the session"),
                        session.is_some()
                    );
                    assert_eq!((r.failovers(), replays()), (0, 0), "slow is not dead");
                    assert_eq!(r.owner_of(key).unwrap().0, "slow");
                    assert_eq!(r.metrics.error("forward_timeout").get(), 1);
                }
                r.shutdown();
            }
        }
        live.stop();
        live.wait();
    }

    /// A fake shard answering every frame with the frame itself.
    fn echo_shard(addr: &str) -> Arc<Listener> {
        Listener::bind(addr, |frame| {
            Handled::Reply(String::from_utf8(frame.to_vec()).unwrap())
        })
        .unwrap()
    }

    fn router_over(shards: &[(&str, &Arc<Listener>)], forward_timeout_ms: u64) -> Arc<Router> {
        let table: Vec<(String, String)> = shards
            .iter()
            .map(|(name, l)| (name.to_string(), l.local_addr().to_string()))
            .collect();
        let cfg = RouterConfig {
            health_interval_ms: 0,
            forward_timeout_ms,
        };
        Router::new(cfg, &table).unwrap()
    }

    #[test]
    fn a_shard_restarted_on_its_address_is_not_failed_over() {
        let first = echo_shard("127.0.0.1:0");
        let addr = first.local_addr().to_string();
        let r = router_over(&[("s", &first)], 2_000);
        let answered = |frame: &str| Ok(("s".to_string(), frame.to_string()));
        assert_eq!(r.deliver(0, None, "{\"n\": 1}"), answered("{\"n\": 1}"));
        assert_eq!(r.deliver(0, None, "{\"n\": 2}"), answered("{\"n\": 2}"));
        let conns = || (r.metrics.connects.get(), r.metrics.conn_reuses.get());
        assert_eq!(conns(), (1, 1), "the second frame rode the first's socket");
        first.stop();
        first.wait();
        // The kept connection now leads nowhere; the address answers again.
        let second = echo_shard(&addr);
        assert_eq!(r.deliver(0, None, "{\"n\": 3}"), answered("{\"n\": 3}"));
        assert_eq!(conns(), (2, 2), "tried the kept socket, then a fresh one");
        assert_eq!((r.failovers(), r.metrics.replays.get()), (0, 0));
        r.shutdown();
        second.stop();
        second.wait();
    }

    #[test]
    fn a_reply_later_than_the_budget_is_never_read_as_the_next_one() {
        // The shard holds its reply to "late" until told, then answers
        // everything at once.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let held = Mutex::new(held);
        let slow = Listener::bind("127.0.0.1:0", move |frame| {
            if frame == b"{\"q\": \"late\"}" {
                let _ = held.lock().unwrap().recv();
            }
            Handled::Reply(String::from_utf8(frame.to_vec()).unwrap())
        })
        .unwrap();
        for session in [Some("s"), None] {
            let r = router_over(&[("slow", &slow)], 150);
            let reply = r.deliver(0, session, "{\"q\": \"late\"}").unwrap_err();
            assert!(reply.contains("\"code\": \"forward_timeout\""), "{reply}");
            release.send(()).unwrap();
            // No frame carries a tag: had the timed-out socket been kept,
            // this request would be answered with the late reply to the last.
            let next = "{\"q\": \"next\"}";
            assert_eq!(
                r.deliver(0, session, next),
                Ok(("slow".to_string(), next.to_string()))
            );
            assert_eq!(r.metrics.connects.get(), 2, "a timed-out socket is dropped");
            assert_eq!(r.metrics.conn_reuses.get(), 0);
            assert_eq!(r.failovers(), 0, "slow is not dead");
            r.shutdown();
        }
        slow.stop();
        slow.wait();
    }

    #[test]
    fn a_session_its_owner_no_longer_has_leaves_no_journal() {
        // The owner accepts one frame, then has evicted the session.
        let evicted = AtomicBool::new(false);
        let shard = Listener::bind("127.0.0.1:0", move |_| {
            Handled::Reply(if evicted.swap(true, Ordering::SeqCst) {
                encode_typed_error("no_session", "no open session named \"s\"")
            } else {
                "{\"type\": \"session\"}".to_string()
            })
        })
        .unwrap();
        let r = router_over(&[("owner", &shard)], 2_000);
        let journaled = || r.session_journals.lock().unwrap().contains_key("s");
        r.route_session("s", "{\"type\": \"session_delta\"}");
        assert!(journaled());
        let reply = r.route_session("s", "{\"type\": \"session_repartition\"}");
        assert!(reply.contains("\"code\": \"no_session\""), "{reply}");
        assert!(!journaled(), "nothing left to replay on a survivor");
        r.shutdown();
        shard.stop();
        shard.wait();
    }

    #[test]
    fn a_killed_shard_with_kept_connections_is_failed_over_once() {
        let (victim, live) = (echo_shard("127.0.0.1:0"), echo_shard("127.0.0.1:0"));
        let r = router_over(&[("victim", &victim), ("live", &live)], 2_000);
        let key = (0u64..)
            .find(|k| r.owner_of(*k).unwrap().0 == "victim")
            .unwrap();
        assert_eq!(r.deliver(key, None, "{}").unwrap().0, "victim");
        victim.kill();
        victim.wait();
        // The kept socket is severed, the fresh connect refused: only the
        // latter demotes, and the frame is replayed on the survivor.
        assert_eq!(r.deliver(key, None, "{}").unwrap().0, "live");
        assert_eq!((r.failovers(), r.metrics.replays.get()), (1, 1));
        assert_eq!(r.deliver(key, None, "{}").unwrap().0, "live");
        assert_eq!((r.failovers(), r.metrics.replays.get()), (1, 1));
        r.shutdown();
        live.stop();
        live.wait();
    }

    #[test]
    fn a_health_probe_connects_afresh_and_keeps_nothing() {
        let shard = Listener::bind("127.0.0.1:0", |_| Handled::Reply(encode_pong())).unwrap();
        let r = router_over(&[("s", &shard)], 2_000);
        let conns = || (r.metrics.connects.get(), r.metrics.conn_reuses.get());
        r.deliver(0, None, "{}").unwrap();
        assert_eq!(conns(), (1, 0));
        // A kept connection would say only that its handler still runs.
        assert!(r.probe(shard.local_addr()));
        assert_eq!(conns(), (2, 0), "a probe tests the accept path");
        r.deliver(0, None, "{}").unwrap();
        assert_eq!(
            conns(),
            (2, 1),
            "the forward's socket is still the one kept"
        );
        shard.stop();
        shard.wait();
        assert!(!r.probe(shard.local_addr()));
        r.shutdown();
    }

    #[test]
    fn a_stopped_listener_refuses_connects_while_a_handler_is_still_busy() {
        // Bound to the wildcard address, which `stop` must still wake.
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (held, busy) = (Mutex::new(held), Arc::new(AtomicBool::new(false)));
        let listener = {
            let busy = busy.clone();
            Listener::bind("0.0.0.0:0", move |_| {
                busy.store(true, Ordering::SeqCst);
                let _ = held.lock().unwrap().recv();
                Handled::Reply("{}".to_string())
            })
            .unwrap()
        };
        let addr = SocketAddr::from(([127, 0, 0, 1], listener.local_addr().port()));
        let client = std::thread::spawn(move || {
            crate::net::Client::connect(&addr)
                .and_then(|mut c| c.request("{}"))
                .unwrap()
        });
        while !busy.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        listener.stop();
        // Not left in a backlog nobody accepts from: a router would take
        // that for a slow shard and never fail over.
        let deadline = Instant::now() + Duration::from_secs(5);
        while crate::net::Client::connect(&addr).is_ok() {
            assert!(Instant::now() < deadline, "still accepting connections");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(listener.open_connections(), 1, "the busy one finishes");
        release.send(()).unwrap();
        assert_eq!(client.join().unwrap(), "{}");
        listener.wait();
        assert_eq!(listener.open_connections(), 0);
    }

    #[test]
    fn routing_is_stable_across_router_instances() {
        // Placement-only determinism: two routers over the same shard set
        // place every key identically (no per-process salt).
        let shards = vec![
            ("a".to_string(), "127.0.0.1:1".to_string()),
            ("b".to_string(), "127.0.0.1:2".to_string()),
            ("c".to_string(), "127.0.0.1:3".to_string()),
        ];
        let cfg = RouterConfig {
            health_interval_ms: 0,
            ..Default::default()
        };
        let r1 = Router::new(cfg.clone(), &shards).unwrap();
        let r2 = Router::new(cfg, &shards).unwrap();
        for key in [0u64, 42, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(
                r1.owner_of(key).map(|(n, _)| n),
                r2.owner_of(key).map(|(n, _)| n)
            );
        }
        r1.shutdown();
        r2.shutdown();
    }

    #[test]
    fn all_shards_down_yields_no_owner() {
        let shards = vec![("solo".to_string(), "127.0.0.1:1".to_string())];
        let r = Router::new(
            RouterConfig {
                health_interval_ms: 0,
                ..Default::default()
            },
            &shards,
        )
        .unwrap();
        assert!(r.owner_of(7).is_some());
        r.mark_down("solo");
        assert!(r.owner_of(7).is_none());
        assert_eq!(r.failovers(), 1);
        r.mark_down("solo"); // idempotent: no double count
        assert_eq!(r.failovers(), 1);
        r.shutdown();
    }

    #[test]
    fn rejoin_admits_only_a_registered_shard() {
        let shards = vec![("solo".to_string(), "127.0.0.1:1".to_string())];
        let cfg = RouterConfig {
            health_interval_ms: 0,
            ..Default::default()
        };
        let r = Router::new(cfg, &shards).unwrap();
        let err = r.rejoin("stranger", "127.0.0.1:2").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!((r.metrics.shards.get(), r.metrics.joins.get()), (1, 0));
        r.shutdown();
    }
}
