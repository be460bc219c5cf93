//! sp-serve: a long-running partitioning service over the ScalaPart
//! pipeline.
//!
//! The paper's partitioner is a batch algorithm; this crate wraps it in a
//! daemon so repeated partitioning requests — the "partition the same
//! mesh at many seeds / part counts" workload of a simulation campaign —
//! amortise process startup and share a result cache. Three layers:
//!
//! - [`service::Service`] — the in-process core: bounded job queue,
//!   worker pool, LRU result cache keyed by input fingerprint, per-job
//!   deadlines with cooperative cancellation, explicit backpressure, and
//!   graceful drain. Usable directly as a library (the loopback tests and
//!   any embedding binary drive this API).
//! - [`net::Server`]/[`net::Client`] — a TCP front end speaking
//!   length-prefixed JSON frames ([`proto`]), built purely on `std::net`:
//!   one listener (accept loop, per-connection frame loop, connection
//!   registry) and one client, shared with the router, which keeps its
//!   connections to the shards open between forwards.
//! - [`router::Router`]/[`router::RouterServer`] — distributed serving: a
//!   coordinator that consistent-hashes jobs ([`ring`]) across backend
//!   shards, with health checks, mid-stream failover replay, and cold
//!   re-admission of a recovered shard (`sp-serve route`).
//!
//! Everything is dependency-free by design, like the rest of the
//! workspace: the wire format is read and written through sp-trace's JSON
//! module (re-exported here as [`json`]), and cache fingerprints reuse
//! sp-trace's platform-stable FNV-1a.
//!
//! Determinism contract: a job's result depends only on
//! `(input fingerprint, method, parts, simulated ranks, seed)` — the
//! cache key. Deadlines and cancellation never alter a completed result;
//! they only decide whether a result is produced at all (see DESIGN.md).

pub mod cache;
pub mod fingerprint;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod ring;
pub mod router;
pub mod service;
pub mod session;

pub use cache::{CacheKey, LruCache};
pub use fingerprint::{fingerprint_graph, fingerprint_input};
pub use metrics::ServiceMetrics;
pub use net::{Client, Server};
pub use ring::Ring;
pub use router::{Router, RouterConfig, RouterServer};
pub use service::{
    JobOutcome, JobSpec, PartitionOutput, ServeConfig, Service, ServiceStats, SubmitError, Ticket,
};
pub use session::SessionManager;
pub use sp_trace::json;
