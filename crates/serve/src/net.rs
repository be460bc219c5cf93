//! TCP front end: the one listener and the one client of the frame
//! protocol.
//!
//! Zero new dependencies: `std::net` sockets carrying the
//! [`proto`](crate::proto) frame format. `Listener` owns the accept loop
//! (its own thread, non-blocking listener), a handler thread per
//! connection that reads frames, hands each payload to a closure and
//! writes the one response frame it returns, and the registry of open
//! connections. [`Server`] (a shard) and
//! [`RouterServer`](crate::router::RouterServer) are thin owners of one:
//! they differ only in the closure. Malformed frames get an `error`
//! response and the connection keeps going — a confused client can't wedge
//! the server. [`Client`] is the only code that connects out: CLI
//! round-trips, router forwards, cache warming and health probes all go
//! through it.
//!
//! Shutdown ordering matters: a `shutdown` request first closes the
//! service to new jobs and stops the accept loop, and [`Server::wait`]
//! returns only once the queue has drained. In-flight connections finish
//! their current request; submits racing the drain get a `shutting_down`
//! rejection rather than a dropped socket.

use crate::metrics::ServiceMetrics;
use crate::proto::{
    append_field, encode_cache_entries, encode_error, encode_metrics, encode_outcome, encode_pong,
    encode_rejection, read_frame, write_frame, Request, WireCacheEntry,
};
use crate::service::{JobSpec, ServeConfig, Service};
use crate::session::{SessionConfig, SessionManager};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
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
        socket.set_nonblocking(true)?;
        let listener = Arc::new(Listener {
            addr: socket.local_addr()?,
            stop: AtomicBool::new(false),
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
        self.stop.store(true, Ordering::SeqCst);
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
        while !self.stop.load(Ordering::SeqCst) {
            match socket.accept() {
                Ok((stream, _)) => {
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    if let Ok(clone) = stream.try_clone() {
                        self.conns.lock().unwrap().push((conn_id, clone));
                    }
                    let (listener, handle) = (self.clone(), handle.clone());
                    handlers.push(std::thread::spawn(move || {
                        let _ = serve_connection(stream, &listener.stop, &*handle);
                        // Drop the registry clone with the handler: keeping
                        // it would hold the socket open (CLOSE_WAIT) and
                        // leak one fd per connection ever accepted.
                        let mut conns = listener.conns.lock().unwrap();
                        conns.retain(|(id, _)| *id != conn_id);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => {
                    // Transient accept failures (EMFILE/ENFILE under fd
                    // pressure, ECONNABORTED) must not kill the accept
                    // loop — a shard that silently stops serving is worse
                    // than one that briefly backs off. Only the stop flag
                    // ends accept.
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            handlers.retain(|h| !h.is_finished());
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// The per-connection frame loop: one response frame per request frame
/// until the peer closes or the stop flag is seen between frames.
fn serve_connection(
    mut stream: TcpStream,
    stop: &AtomicBool,
    handle: &Handler,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    loop {
        let mut reader = StopRead {
            stream: &stream,
            stop,
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
                stop.store(true, Ordering::SeqCst);
                return sent;
            }
        }
    }
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
        let service = Service::start_with_metrics(cfg, metrics);
        let bound = {
            let (service, sessions) = (service.clone(), sessions.clone());
            Listener::bind(addr, move |payload| {
                serve_frame(&service, &sessions, payload)
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
fn serve_frame(service: &Service, sessions: &SessionManager, payload: &[u8]) -> Handled {
    Handled::Reply(match Request::decode(payload) {
        Err(msg) => encode_error(&msg),
        Ok(Request::Stats) => {
            format!(
                "{{\"type\": \"stats\", \"stats\": {}}}",
                service.stats().to_json()
            )
        }
        Ok(Request::Metrics) => encode_metrics(&service.prometheus()),
        Ok(Request::Shutdown) => {
            // Closed before the ack, so a submit racing the drain is
            // rejected; the drain itself runs in [`Server::wait`].
            service.close();
            return Handled::ReplyThenStop("{\"type\": \"ok\", \"draining\": true}".to_string());
        }
        Ok(Request::Ping) => encode_pong(),
        Ok(Request::CacheDump { limit }) => {
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
        Ok(Request::CacheLoad { entries }) => {
            let loaded = entries
                .into_iter()
                .filter(|e| service.cache_load(e.key, e.sim_time, &e.result_json))
                .count();
            format!("{{\"type\": \"ok\", \"loaded\": {loaded}}}")
        }
        Ok(Request::Submit {
            graph,
            coords,
            method,
            parts,
            seed,
            deadline_ms,
            route_tag,
        }) => {
            let spec = JobSpec {
                graph,
                coords,
                method,
                parts,
                seed,
                deadline_ms,
            };
            let body = match service.submit_wait(spec) {
                Ok(outcome) => encode_outcome(&outcome),
                Err(reject) => encode_rejection(&reject),
            };
            // Echo the router's correlation tag so it can pin this
            // response to the job it forwarded — appended after the
            // payload so the payload bytes stay identical to a
            // directly-served response.
            match route_tag {
                Some(tag) => append_field(&body, "route_tag", &tag.to_string()),
                None => body,
            }
        }
        Ok(Request::SessionOpen {
            session,
            graph,
            coords,
            seed,
        }) => sessions.open(&session, graph, coords, seed),
        Ok(Request::SessionDelta { session, deltas }) => sessions.delta(&session, &deltas),
        Ok(Request::SessionRepartition { session }) => sessions.repartition(&session),
        Ok(Request::SessionClose { session }) => sessions.close(&session),
    })
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
        Ok(Client::over(TcpStream::connect(addr)?))
    }

    fn over(stream: TcpStream) -> Client {
        stream.set_nodelay(true).ok();
        Client { stream }
    }

    /// Send one raw JSON request and return the raw JSON response.
    pub fn request(&mut self, json: &str) -> std::io::Result<String> {
        write_frame(&mut self.stream, json.as_bytes())?;
        match read_frame(&mut self.stream)? {
            Some(payload) => String::from_utf8(payload).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "response is not UTF-8")
            }),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// One budgeted round trip on a fresh connection — connect within
    /// `connect`, send, read one frame, each read and write within `io` —
    /// with failures split into the two cases failover must treat
    /// differently (see [`ForwardFail`]). An unreachable address is death
    /// however generous `io` is, hence the separate connect ceiling.
    pub(crate) fn round_trip(
        addr: SocketAddr,
        frame: &str,
        connect: Duration,
        io: Duration,
    ) -> Result<String, ForwardFail> {
        let open = || {
            let stream = TcpStream::connect_timeout(&addr, connect)?;
            stream.set_read_timeout(Some(io))?;
            stream.set_write_timeout(Some(io))?;
            Ok(Client::over(stream))
        };
        let mut client = open().map_err(|_: std::io::Error| ForwardFail::Dead)?;
        client.request(frame).map_err(|e| {
            if is_timeout(&e) {
                ForwardFail::Timeout
            } else {
                ForwardFail::Dead
            }
        })
    }
}
