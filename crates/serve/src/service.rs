//! The in-process partitioning service: a bounded job queue feeding a
//! worker-thread pool, with an LRU result cache in front.
//!
//! Control flow of one request:
//!
//! 1. [`Service::submit`] computes the cache key; a hit returns the stored
//!    result immediately (bit-identical labels, no queueing).
//! 2. A miss tries to enqueue. If the queue is at capacity the submit is
//!    **rejected with a retry-after hint** — explicit backpressure, never
//!    an unbounded queue or a hang. If the service is draining it is
//!    rejected as shutting down.
//! 3. A worker pops the job and runs it on a **fresh simulated machine**
//!    with a deadline-polling [`PipelineObserver`]: when the job's
//!    deadline passes, the next pipeline checkpoint returns `Cancelled`,
//!    the partial work is dropped, and the worker is immediately free for
//!    the next job — cancellation is cooperative, never a thread kill, so
//!    no simulated-rank closure is ever torn down midway.
//! 4. Completed results are validated, serialized once through
//!    [`KWayPartition::to_json`] (the same path the CLI uses), cached, and
//!    handed to the waiting submitter.
//!
//! [`Service::shutdown`] drains gracefully: no new jobs are accepted,
//! queued jobs still run to completion, and workers exit once the queue is
//! empty.

use crate::cache::{CacheKey, LruCache};
use crate::fingerprint::fingerprint_input;
use crate::metrics::ServiceMetrics;
use scalapart::machine::{CostModel, Machine};
use scalapart::obs::{JsonlLog, PhaseProfiler, Record};
use scalapart::{
    recursive_kway_checked_on, Method, PartitionSummary, PipelineObserver, ProfilingObserver,
};
use sp_geometry::Point2;
use sp_graph::Graph;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads running partitioning jobs.
    pub workers: usize,
    /// Bounded queue depth; submits beyond this are rejected.
    pub queue_capacity: usize,
    /// LRU result-cache entries.
    pub cache_capacity: usize,
    /// Simulated ranks each job runs on.
    pub ranks: usize,
    /// Deadline applied to jobs that don't carry their own.
    pub default_deadline_ms: u64,
    /// Retry hint returned with queue-full rejections.
    pub retry_after_ms: u64,
    /// Append structured JSONL job records here (`--obs-log`). `None`
    /// disables the log; metrics are always collected (they are passive
    /// atomics) and exported only when scraped.
    pub obs_log: Option<String>,
    /// Run jobs under the per-phase profiler. On by default; the
    /// passivity tests run with it both on and off and assert
    /// bit-identical results.
    pub profile: bool,
    /// Streaming sessions open at once; `session_open` beyond this is
    /// rejected with a `session_quota` error.
    pub max_sessions: usize,
    /// Deltas accepted per session over its lifetime (quota).
    pub session_max_deltas: u64,
    /// Idle TTL: a session untouched this long is evicted at the next
    /// session operation (no background sweeper thread).
    pub session_idle_ms: u64,
    /// Entries in the streaming result cache, keyed by
    /// `(base fingerprint, delta-chain fingerprint)`.
    pub session_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            ranks: 8,
            default_deadline_ms: 30_000,
            retry_after_ms: 50,
            obs_log: None,
            profile: true,
            max_sessions: 8,
            session_max_deltas: 100_000,
            session_idle_ms: 120_000,
            session_cache_capacity: 64,
        }
    }
}

/// One partitioning request.
#[derive(Clone)]
pub struct JobSpec {
    pub graph: Arc<Graph>,
    pub coords: Option<Arc<Vec<Point2>>>,
    pub method: Method,
    pub parts: usize,
    pub seed: u64,
    /// Per-job deadline; `None` uses the service default.
    pub deadline_ms: Option<u64>,
}

/// A finished partition, as stored in the cache and returned to clients.
pub struct PartitionOutput {
    /// Vertex → part labels.
    pub part: Vec<u32>,
    pub k: usize,
    pub summary: PartitionSummary,
    /// Simulated time the job took on its fresh machine.
    pub sim_time: f64,
    /// Input fingerprint (graph ⊕ coords), echoed to clients.
    pub input_fp: u64,
    /// The partition serialized via `KWayPartition::to_json` — computed
    /// once, shared verbatim by every response that hits this entry.
    pub result_json: String,
}

/// Terminal state of an accepted job.
pub enum JobOutcome {
    /// Finished; `cache_hit` tells whether work was actually done.
    Done {
        job_id: u64,
        result: Arc<PartitionOutput>,
        cache_hit: bool,
        latency_ms: f64,
    },
    /// Deadline passed (in queue or at a pipeline checkpoint).
    Timeout { job_id: u64, latency_ms: f64 },
    /// The job panicked or produced an invalid partition.
    Failed {
        job_id: u64,
        message: String,
        latency_ms: f64,
    },
}

impl JobOutcome {
    /// The service-assigned job ID (threaded through responses and log
    /// records).
    pub fn job_id(&self) -> u64 {
        match self {
            JobOutcome::Done { job_id, .. }
            | JobOutcome::Timeout { job_id, .. }
            | JobOutcome::Failed { job_id, .. } => *job_id,
        }
    }
}

/// Why a submit was not accepted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — retry after the hinted delay.
    QueueFull { retry_after_ms: u64 },
    /// The service is draining and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after_ms } => {
                write!(f, "queue full; retry after {retry_after_ms} ms")
            }
            SubmitError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

/// A submitted job to wait on.
pub enum Ticket {
    /// Cache hit — resolved at submit time.
    Hit(JobOutcome),
    /// Queued — wait for a worker.
    Pending(Arc<Job>),
}

impl Ticket {
    /// The service-assigned job ID.
    pub fn job_id(&self) -> u64 {
        match self {
            Ticket::Hit(outcome) => outcome.job_id(),
            Ticket::Pending(job) => job.id,
        }
    }
}

pub struct Job {
    id: u64,
    spec: JobSpec,
    key: CacheKey,
    enqueued: Instant,
    deadline: Instant,
    slot: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    cache_hits: u64,
    cache_misses: u64,
    evictions: u64,
    rejected: u64,
    timeouts: u64,
    failed: u64,
}

struct State {
    queue: VecDeque<Arc<Job>>,
    active: usize,
    closed: bool,
    cache: LruCache<CacheKey, PartitionOutput>,
    counters: Counters,
    /// Completed-request latencies (ms), newest last, capped.
    latencies: VecDeque<f64>,
}

const LATENCY_WINDOW: usize = 4096;

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    job_ready: Condvar,
    idle: Condvar,
    metrics: ServiceMetrics,
    obs_log: Option<JsonlLog>,
    started: Instant,
    next_job_id: AtomicU64,
}

/// The concurrent partitioning service. Cheap to clone; all clones share
/// one queue, worker pool, and cache.
#[derive(Clone)]
pub struct Service {
    inner: Arc<Inner>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Service {
    /// Start the worker pool with a fresh metric registry.
    pub fn start(cfg: ServeConfig) -> Service {
        Service::start_with_metrics(cfg, ServiceMetrics::new())
    }

    /// Start the worker pool against an existing metric registry (a
    /// restarted shard keeps its scrape endpoint's counters monotone
    /// across drain/restart). Point-in-time gauges — queue depth, its
    /// high-water mark, active workers — describe *this* run only, so
    /// they are reset here: a drained shard that restarts must not
    /// report the previous run's queue-depth high water as its own.
    pub fn start_with_metrics(cfg: ServeConfig, metrics: ServiceMetrics) -> Service {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ranks: cfg.ranks.max(1),
            ..cfg
        };
        metrics.workers.set(cfg.workers as i64);
        metrics.queue_capacity.set(cfg.queue_capacity as i64);
        metrics.queue_depth.set(0);
        metrics.queue_depth_highwater.set(0);
        metrics.workers_active.set(0);
        // A broken log path degrades to "no log" with a warning — the
        // service must come up regardless.
        let obs_log = cfg.obs_log.as_ref().and_then(|p| match JsonlLog::open(p) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("sp-serve: cannot open obs log {p}: {e}; continuing without");
                None
            }
        });
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                active: 0,
                closed: false,
                cache: LruCache::new(cfg.cache_capacity),
                counters: Counters::default(),
                latencies: VecDeque::new(),
            }),
            job_ready: Condvar::new(),
            idle: Condvar::new(),
            metrics,
            obs_log,
            started: Instant::now(),
            next_job_id: AtomicU64::new(1),
            cfg,
        });
        let workers: Vec<JoinHandle<()>> = (0..inner.cfg.workers)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        Service {
            inner,
            workers: Arc::new(Mutex::new(workers)),
        }
    }

    /// The cache key of a job on this service: the request's own fields
    /// plus the configured rank count.
    pub(crate) fn cache_key(
        &self,
        input: u64,
        method: Method,
        parts: usize,
        seed: u64,
    ) -> CacheKey {
        CacheKey {
            input,
            method,
            parts,
            ranks: self.inner.cfg.ranks,
            seed,
        }
    }

    /// Take a job id and record the submit.
    fn announce(&self, key: &CacheKey, n: usize) -> u64 {
        let job_id = self.inner.next_job_id.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.jobs_submitted.inc();
        if let Some(log) = &self.inner.obs_log {
            log.emit(
                Record::new("job_submitted")
                    .u64("job", job_id)
                    .str("method", key.method.name())
                    .u64("parts", key.parts as u64)
                    .u64("seed", key.seed)
                    .u64("n", n as u64)
                    .str("fp", &format!("{:016x}", key.input)),
            );
        }
        job_id
    }

    /// Book a cache hit on `result` for an announced job whose submit
    /// began at `since`.
    fn hit(
        &self,
        mut st: MutexGuard<'_, State>,
        job_id: u64,
        result: Arc<PartitionOutput>,
        since: Instant,
    ) -> JobOutcome {
        let m = &self.inner.metrics;
        st.counters.submitted += 1;
        st.counters.cache_hits += 1;
        st.counters.completed += 1;
        let latency_ms = since.elapsed().as_secs_f64() * 1e3;
        push_latency(&mut st, latency_ms);
        drop(st);
        m.cache_hits.inc();
        m.jobs_completed.inc();
        m.job_latency_ms.observe(latency_ms);
        if let Some(log) = &self.inner.obs_log {
            log.emit(
                Record::new("job_done")
                    .u64("job", job_id)
                    .str("status", "ok")
                    .bool("cache_hit", true)
                    .f64("latency_ms", latency_ms),
            );
        }
        JobOutcome::Done {
            job_id,
            result,
            cache_hit: true,
            latency_ms,
        }
    }

    /// The hit half of [`submit`](Self::submit), for a caller that knows a
    /// job's key and vertex count `n` without holding its graph: a cached
    /// result is served exactly as `submit` would serve it; `None` leaves
    /// no trace (no job id taken, nothing counted), so the caller can
    /// build the graph and submit as if it had never asked.
    pub(crate) fn lookup(&self, key: &CacheKey, n: usize) -> Option<JobOutcome> {
        let now = Instant::now();
        let result = self.inner.state.lock().unwrap().cache.get(key)?;
        // Announced outside the state lock, as `submit` does; the entry
        // may be evicted meanwhile, the result in hand stays good.
        let job_id = self.announce(key, n);
        Some(self.hit(self.inner.state.lock().unwrap(), job_id, result, now))
    }

    /// Submit a job. Returns immediately: either a resolved cache hit, a
    /// pending ticket, or a backpressure rejection.
    pub fn submit(&self, spec: JobSpec) -> Result<Ticket, SubmitError> {
        let input = fingerprint_input(&spec.graph, spec.coords.as_ref().map(|c| c.as_slice()));
        let key = self.cache_key(input, spec.method, spec.parts, spec.seed);
        self.submit_keyed(spec, key)
    }

    /// [`submit`](Self::submit) for a caller that already fingerprinted
    /// the input; `key` must be the spec's own.
    pub(crate) fn submit_keyed(&self, spec: JobSpec, key: CacheKey) -> Result<Ticket, SubmitError> {
        let now = Instant::now();
        let job_id = self.announce(&key, spec.graph.n());
        let m = &self.inner.metrics;
        let mut st = self.inner.state.lock().unwrap();
        if let Some(result) = st.cache.get(&key) {
            return Ok(Ticket::Hit(self.hit(st, job_id, result, now)));
        }
        st.counters.submitted += 1;
        if st.closed {
            st.counters.rejected += 1;
            drop(st);
            m.rejected_shutting_down.inc();
            if let Some(log) = &self.inner.obs_log {
                log.emit(
                    Record::new("job_rejected")
                        .u64("job", job_id)
                        .str("reason", "shutting_down"),
                );
            }
            return Err(SubmitError::ShuttingDown);
        }
        if st.queue.len() >= self.inner.cfg.queue_capacity {
            st.counters.rejected += 1;
            drop(st);
            m.rejected_queue_full.inc();
            if let Some(log) = &self.inner.obs_log {
                log.emit(
                    Record::new("job_rejected")
                        .u64("job", job_id)
                        .str("reason", "queue_full"),
                );
            }
            return Err(SubmitError::QueueFull {
                retry_after_ms: self.inner.cfg.retry_after_ms,
            });
        }
        st.counters.cache_misses += 1;
        let deadline_ms = spec
            .deadline_ms
            .unwrap_or(self.inner.cfg.default_deadline_ms);
        let job = Arc::new(Job {
            id: job_id,
            key,
            deadline: now + Duration::from_millis(deadline_ms),
            enqueued: now,
            spec,
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        st.queue.push_back(job.clone());
        let depth = st.queue.len();
        // Gauge writes stay under the state lock so concurrent pops can't
        // interleave and publish a stale depth. The high-water gauge is
        // the single source of truth for `queue_depth_hwm` in stats.
        m.queue_depth.set(depth as i64);
        m.queue_depth_highwater.set_max(depth as i64);
        drop(st);
        m.cache_misses.inc();
        if let Some(log) = &self.inner.obs_log {
            log.emit(
                Record::new("job_enqueued")
                    .u64("job", job_id)
                    .u64("queue_depth", depth as u64),
            );
        }
        self.inner.job_ready.notify_one();
        Ok(Ticket::Pending(job))
    }

    /// Block until the ticket's job finishes.
    pub fn wait(&self, ticket: Ticket) -> JobOutcome {
        match ticket {
            Ticket::Hit(outcome) => outcome,
            Ticket::Pending(job) => {
                let mut slot = job.slot.lock().unwrap();
                while slot.is_none() {
                    slot = job.done.wait(slot).unwrap();
                }
                slot.take().unwrap()
            }
        }
    }

    /// [`submit`](Self::submit) + [`wait`](Self::wait).
    pub fn submit_wait(&self, spec: JobSpec) -> Result<JobOutcome, SubmitError> {
        let ticket = self.submit(spec)?;
        Ok(self.wait(ticket))
    }

    /// Snapshot of the service counters and queue state.
    pub fn stats(&self) -> ServiceStats {
        let st = self.inner.state.lock().unwrap();
        let c = st.counters;
        let mut lat: Vec<f64> = st.latencies.iter().copied().collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| -> f64 {
            if lat.is_empty() {
                0.0
            } else {
                let idx = ((lat.len() as f64 * p).ceil() as usize).clamp(1, lat.len()) - 1;
                lat[idx]
            }
        };
        ServiceStats {
            workers: self.inner.cfg.workers,
            queue_capacity: self.inner.cfg.queue_capacity,
            queue_depth: st.queue.len(),
            queue_depth_hwm: self.inner.metrics.queue_depth_highwater.get().max(0) as usize,
            active: st.active,
            draining: st.closed,
            submitted: c.submitted,
            completed: c.completed,
            cache_hits: c.cache_hits,
            cache_misses: c.cache_misses,
            cache_evictions: c.evictions,
            rejected: c.rejected,
            timeouts: c.timeouts,
            failed: c.failed,
            cache_entries: st.cache.len(),
            cache_capacity: st.cache.capacity(),
            latency_count: lat.len(),
            latency_p50_ms: q(0.50),
            latency_p90_ms: q(0.90),
            latency_p99_ms: q(0.99),
            latency_max_ms: lat.last().copied().unwrap_or(0.0),
        }
    }

    /// Render the Prometheus text exposition (format 0.0.4) of the
    /// service's metric registry. Scrape-time gauges (uptime, RSS,
    /// cache entries) are refreshed here.
    pub fn prometheus(&self) -> String {
        {
            let st = self.inner.state.lock().unwrap();
            self.inner.metrics.cache_entries.set(st.cache.len() as i64);
        }
        self.inner
            .metrics
            .render(self.inner.started.elapsed().as_secs_f64())
    }

    /// Refuse new jobs from now on (`shutting_down`); queued ones still
    /// run. The first half of [`shutdown`](Self::shutdown), for a caller
    /// that must not block on the drain.
    pub(crate) fn close(&self) {
        self.inner.state.lock().unwrap().closed = true;
        self.inner.job_ready.notify_all();
    }

    /// Graceful drain: stop accepting, let queued jobs finish, join the
    /// workers. Idempotent; concurrent callers all return after the drain.
    pub fn shutdown(&self) {
        self.close();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Late callers (or clones) wait for the queue to empty too.
        let mut st = self.inner.state.lock().unwrap();
        while !st.queue.is_empty() || st.active > 0 {
            st = self.inner.idle.wait(st).unwrap();
        }
    }

    /// Has shutdown been requested?
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().unwrap().closed
    }

    /// The service's metric registry (shared with
    /// [`start_with_metrics`](Self::start_with_metrics) callers).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// The hottest `limit` cache entries, most recently used first —
    /// the donor side of cache warming. Reading does not disturb
    /// recency.
    pub fn cache_dump(&self, limit: usize) -> Vec<(CacheKey, Arc<PartitionOutput>)> {
        let st = self.inner.state.lock().unwrap();
        st.cache.dump(limit)
    }

    /// Install a warmed entry (the recipient side of cache warming).
    /// Returns `false` without installing when the entry cannot be valid
    /// here: a different simulated-rank count (this shard would compute a
    /// different result for the same key), an unparseable result body, or
    /// labels inconsistent with the advertised `k`. Determinism is
    /// preserved because the stored body is the donor's exact bytes — a
    /// later hit replays them verbatim.
    pub fn cache_load(&self, key: CacheKey, sim_time: f64, result_json: &str) -> bool {
        if key.ranks != self.inner.cfg.ranks {
            return false;
        }
        let Ok(v) = crate::json::Value::parse(result_json) else {
            return false;
        };
        let (Some(n), Some(k), Some(arr)) = (
            v.get("n").and_then(crate::json::Value::as_usize),
            v.get("k").and_then(crate::json::Value::as_usize),
            v.get("part").and_then(crate::json::Value::as_arr),
        ) else {
            return false;
        };
        if arr.len() != n || k == 0 {
            return false;
        }
        let mut part = Vec::with_capacity(arr.len());
        for p in arr {
            let Some(p) = p.as_u64() else { return false };
            if p >= k as u64 {
                return false;
            }
            part.push(p as u32);
        }
        let summary = PartitionSummary {
            n,
            k,
            edge_cut: v
                .get("edge_cut")
                .and_then(crate::json::Value::as_f64)
                .unwrap_or(0.0),
            cut_edges: v
                .get("cut_edges")
                .and_then(crate::json::Value::as_usize)
                .unwrap_or(0),
            imbalance: v
                .get("imbalance")
                .and_then(crate::json::Value::as_f64)
                .unwrap_or(0.0),
            comm_volume: v
                .get("comm_volume")
                .and_then(crate::json::Value::as_usize)
                .unwrap_or(0),
        };
        let output = Arc::new(PartitionOutput {
            part,
            k,
            summary,
            sim_time,
            input_fp: key.input,
            result_json: result_json.to_string(),
        });
        let mut st = self.inner.state.lock().unwrap();
        if st.cache.insert(key, output).is_some() {
            st.counters.evictions += 1;
            self.inner.metrics.cache_evictions.inc();
        }
        self.inner.metrics.cache_entries.set(st.cache.len() as i64);
        true
    }
}

fn push_latency(st: &mut State, ms: f64) {
    if st.latencies.len() >= LATENCY_WINDOW {
        st.latencies.pop_front();
    }
    st.latencies.push_back(ms);
}

/// Deadline polling threaded through the pipeline checkpoints.
struct DeadlineObserver {
    deadline: Instant,
}

impl PipelineObserver for DeadlineObserver {
    fn poll_cancel(&mut self) -> bool {
        Instant::now() >= self.deadline
    }
}

fn worker_loop(inner: Arc<Inner>) {
    let m = &inner.metrics;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(j) = st.queue.pop_front() {
                    st.active += 1;
                    m.queue_depth.set(st.queue.len() as i64);
                    m.workers_active.set(st.active as i64);
                    break j;
                }
                if st.closed {
                    inner.idle.notify_all();
                    return;
                }
                st = inner.job_ready.wait(st).unwrap();
            }
        };
        let queue_wait_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        m.queue_wait_ms.observe(queue_wait_ms);
        if let Some(log) = &inner.obs_log {
            log.emit(
                Record::new("job_start")
                    .u64("job", job.id)
                    .f64("queue_wait_ms", queue_wait_ms),
            );
        }
        let run_started = Instant::now();
        let (outcome, profile) = run_job(&inner.cfg, &job, m);
        let run_ms = run_started.elapsed().as_secs_f64() * 1e3;
        m.job_run_ms.observe(run_ms);
        m.worker_busy_ms.add(run_ms as u64);
        if let Some(prof) = &profile {
            m.observe_phases(prof.samples());
            if let Some(log) = &inner.obs_log {
                let mut rec = Record::new("phase_profile");
                rec.u64("job", job.id)
                    .json("phases", &prof.to_json())
                    .f64("total_wall_ms", run_ms);
                if let Some(peak) = scalapart::obs::rss::peak_rss_bytes() {
                    rec.f64("peak_rss_mb", scalapart::obs::rss::bytes_to_mib(peak));
                }
                log.emit(&rec);
            }
        }
        let latency_ms;
        let mut evicted = None;
        {
            let mut st = inner.state.lock().unwrap();
            st.active -= 1;
            m.workers_active.set(st.active as i64);
            latency_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
            match &outcome {
                JobOutcome::Done { result, .. } => {
                    st.counters.completed += 1;
                    evicted = st.cache.insert(job.key, result.clone());
                    if evicted.is_some() {
                        st.counters.evictions += 1;
                    }
                    m.jobs_completed.inc();
                    m.cache_entries.set(st.cache.len() as i64);
                }
                JobOutcome::Timeout { .. } => {
                    st.counters.timeouts += 1;
                    m.jobs_timeout.inc();
                }
                JobOutcome::Failed { .. } => {
                    st.counters.failed += 1;
                    m.jobs_failed.inc();
                }
            }
            push_latency(&mut st, latency_ms);
            if st.queue.is_empty() && st.active == 0 {
                inner.idle.notify_all();
            }
        }
        m.job_latency_ms.observe(latency_ms);
        if let Some(key) = evicted {
            m.cache_evictions.inc();
            if let Some(log) = &inner.obs_log {
                log.emit(Record::new("cache_evict").str("fp", &format!("{:016x}", key.input)));
            }
        }
        if let Some(log) = &inner.obs_log {
            let (status, cache_hit) = match &outcome {
                JobOutcome::Done { cache_hit, .. } => ("ok", *cache_hit),
                JobOutcome::Timeout { .. } => ("timeout", false),
                JobOutcome::Failed { .. } => ("failed", false),
            };
            log.emit(
                Record::new("job_done")
                    .u64("job", job.id)
                    .str("status", status)
                    .bool("cache_hit", cache_hit)
                    .f64("latency_ms", latency_ms)
                    .f64("run_ms", run_ms),
            );
        }
        *job.slot.lock().unwrap() = Some(outcome);
        job.done.notify_all();
    }
}

fn run_job(
    cfg: &ServeConfig,
    job: &Job,
    m: &ServiceMetrics,
) -> (JobOutcome, Option<PhaseProfiler>) {
    let latency = |j: &Job| j.enqueued.elapsed().as_secs_f64() * 1e3;
    if Instant::now() >= job.deadline {
        // Expired while queued: report timeout without starting.
        return (
            JobOutcome::Timeout {
                job_id: job.id,
                latency_ms: latency(job),
            },
            None,
        );
    }
    let spec = &job.spec;
    let graph = spec.graph.clone();
    let coords = spec.coords.clone();
    let (method, parts, seed, ranks) = (spec.method, spec.parts, spec.seed, cfg.ranks);
    let deadline = job.deadline;
    let profile = cfg.profile;
    let superstep_wall = m.superstep_wall_us.clone();
    let occupancy = m.rank_batch_occupancy.clone();
    // Worker threads must survive any panicking job (graceful
    // degradation): a poisoned input becomes a Failed outcome, not a dead
    // worker.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut machine = Machine::new(ranks, CostModel::qdr_infiniband());
        // Host-execution telemetry from the batched superstep executor.
        // The hook observes only — clocks are charged before it fires, so
        // the passivity tests still hold with it installed.
        machine.set_superstep_hook(Box::new(move |info| {
            superstep_wall.observe(info.wall_seconds * 1e6);
            if let Some(pct) = (info.active * 100).checked_div(info.ranks) {
                occupancy.set(pct as i64);
            }
        }));
        let mut deadline_obs = DeadlineObserver { deadline };
        // With profiling on, the profiler wraps the deadline observer —
        // same checkpoints, same cancellation semantics, plus clock/RSS
        // samples at phase boundaries. The passivity tests assert the
        // two paths produce bit-identical partitions.
        let (kp, prof) = if profile {
            let mut obs = ProfilingObserver::wrapping(&mut deadline_obs);
            let kp = recursive_kway_checked_on(
                method,
                &graph,
                coords.as_ref().map(|c| c.as_slice()),
                parts,
                seed,
                &mut machine,
                &mut obs,
            );
            (kp, Some(obs.into_profiler()))
        } else {
            let kp = recursive_kway_checked_on(
                method,
                &graph,
                coords.as_ref().map(|c| c.as_slice()),
                parts,
                seed,
                &mut machine,
                &mut deadline_obs,
            );
            (kp, None)
        };
        (kp.map(|kp| (kp, machine.elapsed())), prof)
    }));
    match run {
        Ok((Ok((kp, sim_time)), prof)) => {
            if let Err(e) = kp.validate(&spec.graph) {
                return (
                    JobOutcome::Failed {
                        job_id: job.id,
                        message: format!("invalid partition: {e}"),
                        latency_ms: latency(job),
                    },
                    prof,
                );
            }
            let result = Arc::new(PartitionOutput {
                summary: kp.summary(&spec.graph),
                result_json: kp.to_json(&spec.graph),
                part: kp.part,
                k: kp.k,
                sim_time,
                input_fp: job.key.input,
            });
            (
                JobOutcome::Done {
                    job_id: job.id,
                    result,
                    cache_hit: false,
                    latency_ms: latency(job),
                },
                prof,
            )
        }
        Ok((Err(scalapart::Cancelled), prof)) => (
            JobOutcome::Timeout {
                job_id: job.id,
                latency_ms: latency(job),
            },
            prof,
        ),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".into());
            (
                JobOutcome::Failed {
                    job_id: job.id,
                    message: msg,
                    latency_ms: latency(job),
                },
                None,
            )
        }
    }
}

/// Counter snapshot exposed through `stats` requests and `--metrics`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceStats {
    pub workers: usize,
    pub queue_capacity: usize,
    pub queue_depth: usize,
    /// Deepest the queue has been since the service started.
    pub queue_depth_hwm: usize,
    pub active: usize,
    pub draining: bool,
    pub submitted: u64,
    pub completed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// LRU evictions from the result cache.
    pub cache_evictions: u64,
    pub rejected: u64,
    pub timeouts: u64,
    pub failed: u64,
    pub cache_entries: usize,
    pub cache_capacity: usize,
    pub latency_count: usize,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    pub latency_p99_ms: f64,
    pub latency_max_ms: f64,
}

impl ServiceStats {
    /// Hit rate over resolved lookups (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// JSON snapshot, same emission conventions as sp-trace's metrics
    /// (shortest round-trip floats via [`sp_trace::json::num`]).
    pub fn to_json(&self) -> String {
        use sp_trace::json::num;
        let mut s = String::with_capacity(512);
        s.push_str("{\"schema\": \"sp-serve-stats-v1\"");
        s.push_str(&format!(", \"workers\": {}", self.workers));
        s.push_str(&format!(", \"queue_capacity\": {}", self.queue_capacity));
        s.push_str(&format!(", \"queue_depth\": {}", self.queue_depth));
        s.push_str(&format!(", \"queue_depth_hwm\": {}", self.queue_depth_hwm));
        s.push_str(&format!(", \"active\": {}", self.active));
        s.push_str(&format!(", \"draining\": {}", self.draining));
        s.push_str(&format!(", \"submitted\": {}", self.submitted));
        s.push_str(&format!(", \"completed\": {}", self.completed));
        s.push_str(&format!(", \"cache_hits\": {}", self.cache_hits));
        s.push_str(&format!(", \"cache_misses\": {}", self.cache_misses));
        s.push_str(&format!(", \"cache_evictions\": {}", self.cache_evictions));
        s.push_str(&format!(", \"hit_rate\": {}", num(self.hit_rate())));
        s.push_str(&format!(", \"rejected\": {}", self.rejected));
        s.push_str(&format!(", \"timeouts\": {}", self.timeouts));
        s.push_str(&format!(", \"failed\": {}", self.failed));
        s.push_str(&format!(", \"cache_entries\": {}", self.cache_entries));
        s.push_str(&format!(", \"cache_capacity\": {}", self.cache_capacity));
        s.push_str(&format!(
            ", \"latency_ms\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
            self.latency_count,
            num(self.latency_p50_ms),
            num(self.latency_p90_ms),
            num(self.latency_p99_ms),
            num(self.latency_max_ms)
        ));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            ranks: 4,
            ..Default::default()
        }
    }

    #[test]
    fn submit_runs_caches_and_reuses_bit_identically() {
        let svc = Service::start(small_cfg());
        let s = spec(16, Method::Rcb, 1);
        let first = svc.submit_wait(s.clone()).unwrap();
        let (labels, fp) = match &first {
            JobOutcome::Done {
                result, cache_hit, ..
            } => {
                assert!(!cache_hit);
                (result.part.clone(), result.input_fp)
            }
            _ => panic!("expected Done"),
        };
        let second = svc.submit_wait(s).unwrap();
        match &second {
            JobOutcome::Done {
                result, cache_hit, ..
            } => {
                assert!(cache_hit, "identical resubmit must hit the cache");
                assert_eq!(result.part, labels);
                assert_eq!(result.input_fp, fp);
            }
            _ => panic!("expected Done"),
        }
        let st = svc.stats();
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.cache_misses, 1);
        assert_eq!(st.completed, 2);
        assert!(st.hit_rate() > 0.49 && st.hit_rate() < 0.51);
        svc.shutdown();
    }

    #[test]
    fn graphs_differing_only_in_edge_weights_get_distinct_cache_entries() {
        // Cache-key correctness end to end: same topology, different edge
        // weights → different fingerprints → two misses, two entries.
        let svc = Service::start(small_cfg());
        let mk = |w: f64| {
            let mut b = sp_graph::GraphBuilder::new(64);
            for i in 0..63u32 {
                b.add_edge(i, i + 1, if i == 31 { w } else { 1.0 });
            }
            Arc::new(b.build())
        };
        let job = |g: Arc<Graph>| JobSpec {
            graph: g,
            coords: None,
            method: Method::ParMetisLike,
            parts: 2,
            seed: 9,
            deadline_ms: None,
        };
        svc.submit_wait(job(mk(1.0))).unwrap();
        svc.submit_wait(job(mk(1000.0))).unwrap();
        let st = svc.stats();
        assert_eq!(st.cache_misses, 2, "distinct weights must not collide");
        assert_eq!(st.cache_entries, 2);
        assert_eq!(st.cache_hits, 0);
        svc.shutdown();
    }

    #[test]
    fn deadline_expiry_cancels_cooperatively_and_worker_survives() {
        let svc = Service::start(ServeConfig {
            workers: 1,
            ..small_cfg()
        });
        let mut s = spec(48, Method::ScalaPart, 2);
        s.deadline_ms = Some(0);
        match svc.submit_wait(s).unwrap() {
            JobOutcome::Timeout { .. } => {}
            _ => panic!("expected Timeout"),
        }
        // The same worker must immediately serve the next job.
        match svc.submit_wait(spec(12, Method::Rcb, 3)).unwrap() {
            JobOutcome::Done { result, .. } => result
                .part
                .iter()
                .for_each(|&p| assert!((p as usize) < result.k)),
            _ => panic!("expected Done after timeout"),
        }
        let st = svc.stats();
        assert_eq!(st.timeouts, 1);
        assert_eq!(st.completed, 1);
        svc.shutdown();
    }

    #[test]
    fn queue_full_submits_are_rejected_not_hung() {
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            ranks: 4,
            ..Default::default()
        });
        // Occupy the worker and fill the 1-slot queue, then overflow.
        let slow = || spec(56, Method::ScalaPart, 4);
        let t1 = svc.submit(slow()).unwrap();
        let mut rejected = 0;
        let mut pending = vec![t1];
        for i in 0..6 {
            match svc.submit(spec(56, Method::ScalaPart, 10 + i)) {
                Ok(t) => pending.push(t),
                Err(SubmitError::QueueFull { retry_after_ms }) => {
                    assert!(retry_after_ms > 0);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected >= 4, "only {rejected} rejections");
        assert_eq!(svc.stats().rejected, rejected);
        for t in pending {
            match svc.wait(t) {
                JobOutcome::Done { .. } => {}
                _ => panic!("accepted job must complete"),
            }
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_capacity: 8,
            ..small_cfg()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| svc.submit(spec(20, Method::Rcb, 100 + i)).unwrap())
            .collect();
        let svc2 = svc.clone();
        let drainer = std::thread::spawn(move || svc2.shutdown());
        for t in tickets {
            match svc.wait(t) {
                JobOutcome::Done { .. } => {}
                _ => panic!("queued job dropped during drain"),
            }
        }
        drainer.join().unwrap();
        assert!(svc.is_closed());
        assert_eq!(svc.stats().completed, 4);
        assert!(matches!(
            svc.submit(spec(8, Method::Rcb, 1)),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn restart_resets_queue_hwm_but_keeps_counters_monotone() {
        // Regression: a drained shard restarting on the same metric
        // registry used to report the previous run's queue-depth high
        // water in its stats JSON.
        let svc = Service::start(ServeConfig {
            workers: 1,
            ..small_cfg()
        });
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| svc.submit(spec(20, Method::Rcb, 200 + i)).unwrap())
            .collect();
        for t in tickets {
            svc.wait(t);
        }
        let first = svc.stats();
        assert!(first.queue_depth_hwm >= 1, "queue never got deep");
        let completed_before = first.completed;
        svc.shutdown();

        let metrics = svc.inner.metrics.clone();
        let svc2 = Service::start_with_metrics(
            ServeConfig {
                workers: 1,
                ..small_cfg()
            },
            metrics.clone(),
        );
        let st = svc2.stats();
        assert_eq!(
            st.queue_depth_hwm, 0,
            "restart must not inherit the previous run's high water"
        );
        assert!(st.to_json().contains("\"queue_depth_hwm\": 0"));
        // The shared registry keeps cumulative counters monotone.
        assert!(metrics.jobs_completed.get() >= completed_before);
        svc2.submit_wait(spec(12, Method::Rcb, 300)).unwrap();
        assert!(svc2.stats().queue_depth_hwm <= 1);
        svc2.shutdown();
    }

    #[test]
    fn stats_json_is_well_formed() {
        let svc = Service::start(small_cfg());
        svc.submit_wait(spec(12, Method::Rcb, 5)).unwrap();
        let j = svc.stats().to_json();
        assert!(j.contains("\"schema\": \"sp-serve-stats-v1\""), "{j}");
        assert!(j.contains("\"queue_depth\": 0"));
        assert!(j.contains("\"p99\""));
        let parsed = crate::json::Value::parse(&j).unwrap();
        assert_eq!(parsed.get("completed").unwrap().as_u64(), Some(1));
        assert!(parsed.get("latency_ms").unwrap().get("max").is_some());
        svc.shutdown();
    }
}
