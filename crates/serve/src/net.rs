//! TCP front end: the one listener and the one client of the frame
//! protocol.
//!
//! Zero new dependencies: `std::net` sockets carrying the
//! [`proto`](crate::proto) frame format. `Listener` owns the accept loop
//! (its own thread, blocked in `accept` until a connection or a stop
//! arrives), a handler thread per connection that reads frames, hands each
//! payload to a closure and writes the one response frame it returns, and
//! the registry of open connections. [`Server`] (a shard) and
//! [`RouterServer`](crate::router::RouterServer) are thin owners of one:
//! they differ only in the closure. Malformed frames get an `error`
//! response and the connection keeps going — a confused client can't wedge
//! the server. [`Client`] is the only code that connects out: CLI
//! round-trips go through it directly, router forwards and cache warming
//! through a `Pool` of kept-open `Client`s, and health probes through the
//! `Pool` on a connection of their own.
//!
//! Shutdown ordering matters: a `shutdown` request first closes the
//! service to new jobs and stops the listener, and [`Server::wait`]
//! returns only once the queue has drained. A stopped listener refuses new
//! connections at once and closes each open one after the reply to the
//! request it is on — however busy the connection, so a router's kept-open
//! socket breaks before its next reply and the router fails over as it
//! would on a refused connect. A submit already being handled when the
//! service closes gets a `shutting_down` rejection, not a dropped socket.

use crate::fingerprint::{SourceKey, SourceMemo};
use crate::metrics::ServiceMetrics;
use crate::proto::{
    append_field, encode_cache_entries, encode_error, encode_metrics, encode_outcome, encode_pong,
    encode_rejection, read_frame, write_frame, Parsed, SubmitFrame, WireCacheEntry,
};
use crate::service::{JobSpec, ServeConfig, Service};
use crate::session::{SessionConfig, SessionManager};
use scalapart::obs::Counter;
use std::collections::HashMap;
use std::io::Read;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What a frame handler wants done with its reply.
pub enum Handled {
    Reply(String),
    /// Reply, then stop the listener (a `shutdown` request was honoured).
    ReplyThenStop(String),
}

/// Turns one request payload into its reply; shared by every connection.
type Handler = dyn Fn(&[u8]) -> Handled + Send + Sync;

/// A bound socket serving the frame protocol through one [`Handler`].
/// Shared with its own accept thread, hence always behind an `Arc`.
pub(crate) struct Listener {
    addr: SocketAddr,
    stop: AtomicBool,
    /// Set until the accept thread has seen `stop` and closed the socket.
    accepting: AtomicBool,
    /// Clones of accepted connection streams keyed by connection id, so
    /// [`Listener::kill`] can sever them abruptly (crash injection for the
    /// failover tests). Each handler removes its own entry on exit —
    /// holding a clone keeps the socket (and its fd) open even after the
    /// peer closes, so the registry must never outlive the handler.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Listener {
    /// Bind `addr` and start accepting; every frame of every connection
    /// goes through `handle`.
    pub(crate) fn bind(
        addr: &str,
        handle: impl Fn(&[u8]) -> Handled + Send + Sync + 'static,
    ) -> std::io::Result<Arc<Listener>> {
        let socket = TcpListener::bind(addr)?;
        let listener = Arc::new(Listener {
            addr: socket.local_addr()?,
            stop: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            conns: Mutex::new(Vec::new()),
            accept_thread: Mutex::new(None),
        });
        let accept = {
            let listener = listener.clone();
            std::thread::spawn(move || listener.accept_loop(socket, Arc::new(handle)))
        };
        *listener.accept_thread.lock().unwrap() = Some(accept);
        Ok(listener)
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting; handlers exit at their next frame boundary.
    pub(crate) fn stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept thread is blocked in `accept`: a throwaway connection
        // to ourselves makes it look at the flag. A wildcard bind address
        // is not everywhere one that can be connected to; its loopback is.
        let mut wake = self.addr;
        match wake.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        // The connect can fail (no fd to spare, a full backlog): keep at it
        // until one gets through or something else has woken the thread.
        while self.accepting.load(Ordering::SeqCst) {
            if Client::open(&wake, Some(Duration::from_millis(250))).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// [`stop`](Self::stop), and sever every open connection now.
    pub(crate) fn kill(&self) {
        self.stop();
        for (_, conn) in self.conns.lock().unwrap().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// One entry per live handler.
    pub(crate) fn open_connections(&self) -> usize {
        self.conns.lock().unwrap().len()
    }

    /// Block until the accept loop and every handler have exited.
    pub(crate) fn wait(&self) {
        let handle = self.accept_thread.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn accept_loop(self: Arc<Self>, socket: TcpListener, handle: Arc<Handler>) {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        let mut next_conn_id: u64 = 0;
        loop {
            let accepted = socket.accept();
            if self.stop.load(Ordering::SeqCst) {
                break; // woken by `stop`, or a client that raced it
            }
            match accepted {
                Ok((stream, _)) => {
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    if let Ok(clone) = stream.try_clone() {
                        self.conns.lock().unwrap().push((conn_id, clone));
                    }
                    let (listener, handle) = (self.clone(), handle.clone());
                    handlers.push(std::thread::spawn(move || {
                        let _ = serve_connection(stream, &listener, &*handle);
                        // Drop the registry clone with the handler: keeping
                        // it would hold the socket open (CLOSE_WAIT) and
                        // leak one fd per connection ever accepted.
                        let mut conns = listener.conns.lock().unwrap();
                        conns.retain(|(id, _)| *id != conn_id);
                    }));
                }
                Err(_) => {
                    // Transient accept failures (EMFILE/ENFILE under fd
                    // pressure, ECONNABORTED) must not kill the accept
                    // loop — a shard that silently stops serving is worse
                    // than one that briefly backs off. Only the stop flag
                    // ends accept. The back-off is on this failure path
                    // alone: a connection that arrives is accepted at once.
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            handlers.retain(|h| !h.is_finished());
        }
        // Closed before the handlers are waited for: from here on a
        // connect is refused, not left in the backlog of a socket nobody
        // accepts from, where a router would take the shard for slow.
        drop(socket);
        self.accepting.store(false, Ordering::SeqCst);
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// The per-connection frame loop: one response frame per request frame
/// until the peer closes or the stop flag is seen between frames — after
/// each reply, and while waiting for the next frame.
fn serve_connection(
    mut stream: TcpStream,
    listener: &Listener,
    handle: &Handler,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    while !listener.stop.load(Ordering::SeqCst) {
        let mut reader = StopRead {
            stream: &stream,
            stop: &listener.stop,
            mid_frame: false,
            stopped_polls: 0,
        };
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // clean close or drain
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Oversized frame: report and drop the connection — we can
                // no longer find a frame boundary.
                let _ = write_frame(&mut stream, encode_error(&e.to_string()).as_bytes());
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        match handle(&payload) {
            Handled::Reply(resp) => write_frame(&mut stream, resp.as_bytes())?,
            Handled::ReplyThenStop(resp) => {
                let sent = write_frame(&mut stream, resp.as_bytes());
                listener.stop();
                return sent;
            }
        }
    }
    Ok(())
}

/// Makes [`read_frame`] interruptible: the stream has a short read
/// timeout, and between frames (never mid-frame) a raised stop flag reads
/// as a clean EOF. Without this, an idle keep-alive client would pin its
/// handler thread in a blocking `read` forever and shutdown could never
/// join it. A frame already in progress is given a bounded grace period
/// after stop before the connection is abandoned. One per frame.
struct StopRead<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    mid_frame: bool,
    stopped_polls: u32,
}

impl Read for StopRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.mid_frame |= n > 0;
                    return Ok(n);
                }
                Err(e) if is_timeout(&e) => {
                    if self.stop.load(Ordering::SeqCst) {
                        if !self.mid_frame {
                            return Ok(0);
                        }
                        // Mid-frame at shutdown: allow ~2 s to finish.
                        self.stopped_polls += 1;
                        if self.stopped_polls > 40 {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "peer stalled mid-frame during shutdown",
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// One shard: the in-process [`Service`] and its streaming sessions behind
/// a `Listener`.
pub struct Server {
    service: Service,
    /// Streaming-session state (dynamic graphs), shared by all handlers.
    sessions: Arc<SessionManager>,
    listener: Arc<Listener>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// start accepting.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Arc<Server>> {
        Server::bind_with_metrics(addr, cfg, ServiceMetrics::new())
    }

    /// [`bind`](Self::bind) against an existing metric registry — a shard
    /// restarting on the same scrape endpoint keeps cumulative counters
    /// monotone while run-scoped gauges (queue-depth high water) reset.
    pub fn bind_with_metrics(
        addr: &str,
        cfg: ServeConfig,
        metrics: ServiceMetrics,
    ) -> std::io::Result<Arc<Server>> {
        let sessions = Arc::new(SessionManager::new(
            SessionConfig::from_serve(&cfg),
            metrics.clone(),
        ));
        let sources = SourceMemo::new(
            metrics.source_memo_hits.clone(),
            metrics.source_memo_misses.clone(),
        );
        let service = Service::start_with_metrics(cfg, metrics);
        let bound = {
            let (service, sessions) = (service.clone(), sessions.clone());
            Listener::bind(addr, move |payload| {
                serve_frame(&service, &sessions, &sources, payload)
            })
        };
        match bound {
            Ok(listener) => Ok(Arc::new(Server {
                service,
                sessions,
                listener,
            })),
            Err(e) => {
                service.shutdown(); // don't leak the worker pool
                Err(e)
            }
        }
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The underlying in-process service (shared with the TCP front end).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// The streaming-session manager (tests and stats).
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// Request shutdown: stop accepting, drain the queue, join workers.
    pub fn shutdown(&self) {
        self.listener.stop();
        self.service.shutdown();
    }

    /// SIGKILL-equivalent crash injection: stop accepting and sever every
    /// open connection immediately — no drain, no goodbye frames, no
    /// waiting on in-flight compute. Peers observe an abrupt EOF/reset
    /// exactly as if the shard process died, and `kill` returns without
    /// joining handler threads (a handler blocked in `submit_wait` on a
    /// long job would otherwise stall the "crash" for the job's full
    /// duration). The in-process worker pool is left to be reaped by a
    /// later `service().shutdown()` + [`Server::wait`] (a real kill would
    /// take it too, but test processes must not leak running threads
    /// unjoined).
    pub fn kill(&self) {
        self.listener.kill();
    }

    /// Connections currently tracked for [`Server::kill`] — one entry per
    /// live handler. Exposed so tests can pin that closed connections are
    /// pruned (a leak here is an fd leak).
    pub fn open_connections(&self) -> usize {
        self.listener.open_connections()
    }

    /// Block until the accept loop has exited (after [`Server::shutdown`],
    /// from any thread or a `shutdown` frame) and the service has drained.
    pub fn wait(&self) {
        self.listener.wait();
        self.service.shutdown();
    }
}

/// Answer one shard request frame.
fn serve_frame(
    service: &Service,
    sessions: &SessionManager,
    sources: &SourceMemo,
    payload: &[u8],
) -> Handled {
    let req = match Parsed::from_frame(payload) {
        Ok(req) => req,
        Err(msg) => return Handled::Reply(encode_error(&msg)),
    };
    Handled::Reply(match req {
        Parsed::Submit(f) => {
            serve_submit(service, sources, &f).unwrap_or_else(|msg| encode_error(&msg))
        }
        Parsed::Stats => {
            format!(
                "{{\"type\": \"stats\", \"stats\": {}}}",
                service.stats().to_json()
            )
        }
        Parsed::Metrics => encode_metrics(&service.prometheus()),
        Parsed::Shutdown => {
            // Closed before the ack, so a submit racing the drain is
            // rejected; the drain itself runs in [`Server::wait`].
            service.close();
            return Handled::ReplyThenStop("{\"type\": \"ok\", \"draining\": true}".to_string());
        }
        Parsed::Ping => encode_pong(),
        Parsed::CacheDump { limit } => {
            let entries: Vec<WireCacheEntry> = service
                .cache_dump(limit)
                .into_iter()
                .map(|(key, out)| WireCacheEntry {
                    key,
                    sim_time: out.sim_time,
                    result_json: out.result_json.clone(),
                })
                .collect();
            encode_cache_entries("cache", &entries)
        }
        Parsed::CacheLoad { entries } => {
            let loaded = entries
                .into_iter()
                .filter(|e| service.cache_load(e.key, e.sim_time, &e.result_json))
                .count();
            format!("{{\"type\": \"ok\", \"loaded\": {loaded}}}")
        }
        Parsed::SessionOpen {
            session,
            graph,
            coords,
            seed,
        } => sessions.open(&session, graph, coords, seed),
        Parsed::SessionDelta { session, deltas } => sessions.delta(&session, &deltas),
        Parsed::SessionRepartition { session } => sessions.repartition(&session),
        Parsed::SessionClose { session } => sessions.close(&session),
    })
}

/// Answer a submit; `Err` is the message of an `error` reply. A source the
/// memo knows yields the cache key without a graph, and a cached result is
/// then served from the key alone: parse → memo → key → LRU → bytes. Only
/// a result miss (or a source never seen) builds the graph, fingerprints
/// it and queues the job — what every submit used to cost.
fn serve_submit(
    service: &Service,
    sources: &SourceMemo,
    f: &SubmitFrame,
) -> Result<String, String> {
    // Echo the router's correlation tag so it can pin this response to
    // the job it forwarded — appended after the payload so the payload
    // bytes stay identical to a directly-served response.
    let echo = |body: String, route_tag: Option<u64>| match route_tag {
        Some(tag) => append_field(&body, "route_tag", &tag.to_string()),
        None => body,
    };
    let source = f.source()?;
    let source_key = SourceKey::of(&source);
    let mut job = None;
    if let Some(known) = sources.get(&source_key) {
        let known_job = f.job(known.n)?;
        let key = service.cache_key(
            known.input_fp,
            known_job.method,
            known_job.parts,
            known_job.seed,
        );
        if let Some(hit) = service.lookup(&key, known.n) {
            sources.spared();
            return Ok(echo(encode_outcome(&hit), known_job.route_tag));
        }
        job = Some(known_job);
    }
    let (graph, coords) = source.materialise()?;
    // `learn` holds the memo to the fresh fingerprint, so a job checked
    // against the remembered `n` above stands.
    let fresh = sources.learn(source_key, &graph, coords.as_ref().map(|c| c.as_slice()));
    let job = match job {
        Some(job) => job,
        None => f.job(fresh.n)?,
    };
    let key = service.cache_key(fresh.input_fp, job.method, job.parts, job.seed);
    let spec = JobSpec {
        graph,
        coords,
        method: job.method,
        parts: job.parts,
        seed: job.seed,
        deadline_ms: job.deadline_ms,
    };
    let body = match service.submit_keyed(spec, key) {
        Ok(ticket) => encode_outcome(&service.wait(ticket)),
        Err(reject) => encode_rejection(&reject),
    };
    Ok(echo(body, job.route_tag))
}

/// The first socket address `addr` (`HOST:PORT`) resolves to.
pub fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("cannot resolve {addr}"),
        )
    })
}

/// How a round trip to a shard failed — the distinction failover hinges
/// on.
///
/// Only [`ForwardFail::Dead`] may demote a shard and trigger replay. A
/// timeout is *not* death: the shard accepted the connection and may
/// legitimately still be computing (jobs run for seconds), so replaying
/// elsewhere could double-run the job, and demoting on every slow reply
/// would cascade a healthy fleet into `no_shards` — permanently so when
/// `health_interval_ms: 0` disables the probe that could re-admit them.
pub(crate) enum ForwardFail {
    /// Connection-level failure: refused, reset, mid-frame EOF, garbage
    /// framing. The shard is gone or unintelligible — demote and replay.
    Dead,
    /// The shard took the request but no reply arrived within the budget.
    /// Report to the client; leave liveness to the health probe.
    Timeout,
}

/// A minimal blocking client for the frame protocol.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: &SocketAddr) -> std::io::Result<Client> {
        Client::open(addr, None)
    }

    /// The one place a connection is opened. An unreachable address is
    /// death however generous the caller's io budget, hence the separate
    /// `ceiling` on the connect.
    fn open(addr: &SocketAddr, ceiling: Option<Duration>) -> std::io::Result<Client> {
        let stream = match ceiling {
            Some(within) => TcpStream::connect_timeout(addr, within)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Send one raw JSON request and return the raw JSON response.
    pub fn request(&mut self, json: &str) -> std::io::Result<String> {
        self.exchange(json).map_err(|(e, _)| e)
    }

    /// [`exchange`](Self::exchange) with each read and write within `io`.
    fn exchange_within(
        &mut self,
        json: &str,
        io: Duration,
    ) -> Result<String, (std::io::Error, bool)> {
        let budgeted = self.stream.set_read_timeout(Some(io));
        let budgeted = budgeted.and_then(|()| self.stream.set_write_timeout(Some(io)));
        budgeted.map_err(|e| (e, false))?;
        self.exchange(json)
    }

    /// [`request`](Self::request); a failure also says whether any byte of
    /// a reply had arrived by then.
    fn exchange(&mut self, json: &str) -> Result<String, (std::io::Error, bool)> {
        write_frame(&mut self.stream, json.as_bytes()).map_err(|e| (e, false))?;
        let mut reply = ReplyRead {
            stream: &self.stream,
            started: false,
        };
        let read = read_frame(&mut reply).and_then(|payload| {
            let payload = payload.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )
            })?;
            String::from_utf8(payload).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "response is not UTF-8")
            })
        });
        read.map_err(|e| (e, reply.started))
    }
}

/// Reads a reply, noting whether any of it came.
struct ReplyRead<'a> {
    stream: &'a TcpStream,
    started: bool,
}

impl Read for ReplyRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.started |= n > 0;
        Ok(n)
    }
}

/// Idle connections kept per shard address; one more is closed instead.
const MAX_IDLE_PER_SHARD: usize = 8;

/// Kept-open connections to shards, so that a forward costs a round trip
/// and not a connect, an accept and a handler thread as well.
///
/// A connection is in the idle list only between two complete exchanges:
/// it is taken out for a round trip and put back when the whole reply has
/// arrived. One that timed out or failed is dropped — session frames carry
/// no tag, so a late reply left on the wire would be read as the answer to
/// the next request.
pub(crate) struct Pool {
    /// `None` once [`close`](Self::close)d: nothing is kept any more.
    idle: Mutex<Option<HashMap<SocketAddr, Vec<Client>>>>,
    connects: Arc<Counter>,
    reuses: Arc<Counter>,
}

impl Pool {
    /// A pool counting into `sp_route_connects_total` and
    /// `sp_route_conn_reuses_total`.
    pub(crate) fn new(connects: Arc<Counter>, reuses: Arc<Counter>) -> Pool {
        Pool {
            idle: Mutex::new(Some(HashMap::new())),
            connects,
            reuses,
        }
    }

    fn idle(&self) -> std::sync::MutexGuard<'_, Option<HashMap<SocketAddr, Vec<Client>>>> {
        self.idle
            .lock()
            .expect("no pool operation panics under the lock")
    }

    /// Close the idle connections to `addr`: its shard went down or was
    /// replaced, so they lead nowhere or to the wrong process.
    pub(crate) fn purge(&self, addr: &SocketAddr) {
        if let Some(idle) = self.idle().as_mut() {
            idle.remove(addr);
        }
    }

    /// Close every idle connection and keep none from now on.
    pub(crate) fn close(&self) {
        *self.idle() = None;
    }

    fn keep(&self, addr: SocketAddr, client: Client) {
        if let Some(idle) = self.idle().as_mut() {
            let kept = idle.entry(addr).or_default();
            if kept.len() < MAX_IDLE_PER_SHARD {
                kept.push(client);
            }
        }
    }

    /// One budgeted round trip — connect within `connect` if no idle
    /// connection serves, send, read one frame, each read and write within
    /// `io` — with failures split into the two cases failover must treat
    /// differently (see [`ForwardFail`]).
    ///
    /// A kept connection that breaks before any reply byte says nothing
    /// about the shard: it may have restarted, or closed an idle socket.
    /// The frame is then sent once more on a fresh connection, and only
    /// that attempt can find the shard dead. Past the first reply byte the
    /// shard has acted on the frame (a session delta is not idempotent),
    /// so there is no second send.
    pub(crate) fn round_trip(
        &self,
        addr: SocketAddr,
        frame: &str,
        connect: Duration,
        io: Duration,
    ) -> Result<String, ForwardFail> {
        let kept = self
            .idle()
            .as_mut()
            .and_then(|idle| idle.get_mut(&addr)?.pop());
        if let Some(mut kept) = kept {
            self.reuses.inc();
            match kept.exchange_within(frame, io) {
                Ok(resp) => {
                    self.keep(addr, kept);
                    return Ok(resp);
                }
                Err((e, started)) if started || is_timeout(&e) => return Err(classify(e)),
                // Its siblings are as old; start over.
                Err(_) => self.purge(&addr),
            }
        }
        let (fresh, resp) = self.fresh_trip(addr, frame, connect, io)?;
        self.keep(addr, fresh);
        Ok(resp)
    }

    /// [`round_trip`](Self::round_trip) on a connection of its own, handed
    /// back with the reply. A health probe goes this way and drops it: what
    /// it asks is whether the shard still accepts, and a kept connection
    /// answers only whether one handler still runs.
    pub(crate) fn fresh_trip(
        &self,
        addr: SocketAddr,
        frame: &str,
        connect: Duration,
        io: Duration,
    ) -> Result<(Client, String), ForwardFail> {
        self.connects.inc();
        let mut fresh = Client::open(&addr, Some(connect)).map_err(|_| ForwardFail::Dead)?;
        let resp = fresh
            .exchange_within(frame, io)
            .map_err(|(e, _)| classify(e))?;
        Ok((fresh, resp))
    }
}

fn classify(e: std::io::Error) -> ForwardFail {
    if is_timeout(&e) {
        ForwardFail::Timeout
    } else {
        ForwardFail::Dead
    }
}
