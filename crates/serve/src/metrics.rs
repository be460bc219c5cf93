//! The service's metric surface: every instrument sp-serve exports,
//! registered once at startup against an [`sp_obs::Registry`].
//!
//! Naming follows Prometheus conventions: `_total` counters, base-unit
//! suffixes (`_milliseconds`, `_bytes`), one `phase` label on the
//! per-phase histograms. The full table is documented in README.md
//! ("Runtime observability").
//!
//! All instruments are atomics (see sp-obs): bumping them from the submit
//! path or a worker takes no lock and cannot perturb job results — the
//! registry itself is only locked at registration (here, once) and at
//! scrape time.

use scalapart::obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

#[derive(Clone)]
pub struct ServiceMetrics {
    pub registry: Arc<Registry>,

    pub jobs_submitted: Arc<Counter>,
    pub jobs_completed: Arc<Counter>,
    pub jobs_timeout: Arc<Counter>,
    pub jobs_failed: Arc<Counter>,
    pub rejected_queue_full: Arc<Counter>,
    pub rejected_shutting_down: Arc<Counter>,

    pub cache_hits: Arc<Counter>,
    pub cache_misses: Arc<Counter>,
    pub cache_evictions: Arc<Counter>,
    pub cache_entries: Arc<Gauge>,
    /// Submits the shard's source memo answered with no graph built, and
    /// those for which a graph was built and fingerprinted.
    pub source_memo_hits: Arc<Counter>,
    pub source_memo_misses: Arc<Counter>,

    pub queue_depth: Arc<Gauge>,
    pub queue_depth_highwater: Arc<Gauge>,
    pub queue_capacity: Arc<Gauge>,
    pub workers: Arc<Gauge>,
    pub workers_active: Arc<Gauge>,
    pub worker_busy_ms: Arc<Counter>,

    pub queue_wait_ms: Arc<Histogram>,
    pub job_latency_ms: Arc<Histogram>,
    pub job_run_ms: Arc<Histogram>,
    /// Per-phase host wall time; indexed like [`PHASES`].
    pub phase_wall_ms: Vec<Arc<Histogram>>,

    /// Host wall time of each simulated superstep's rank closures, fed by
    /// the machine's superstep hook. Microsecond buckets: a superstep is
    /// orders of magnitude shorter than a job.
    pub superstep_wall_us: Arc<Histogram>,
    /// Percentage of ranks that charged nonzero ops in the most recent
    /// superstep — how full the rank batches ran.
    pub rank_batch_occupancy: Arc<Gauge>,

    /// Streaming sessions currently open (see [`crate::session`]).
    pub sessions_active: Arc<Gauge>,
    /// Graph deltas accepted into session overlays.
    pub session_deltas: Arc<Counter>,
    /// Host wall time of `session_repartition` handling (incremental and
    /// full steps land in the same series; the step report distinguishes
    /// them).
    pub session_repartition_ms: Arc<Histogram>,
    /// Sessions evicted for exceeding the idle TTL.
    pub session_evictions: Arc<Counter>,
    /// Streaming result-cache hits (key: base + delta-chain fingerprint).
    pub session_cache_hits: Arc<Counter>,

    pub uptime_seconds: Arc<Gauge>,
    pub resident_memory_bytes: Arc<Gauge>,
    pub peak_resident_memory_bytes: Arc<Gauge>,
}

/// Pipeline phases in checkpoint order — must match the names
/// `ProfilingObserver` attributes spans to.
pub const PHASES: [&str; 4] = ["coarsen", "embed", "partition", "refine"];

impl ServiceMetrics {
    pub fn new() -> ServiceMetrics {
        let r = Arc::new(Registry::new());
        let lat = Histogram::latency_ms_bounds();
        ServiceMetrics {
            jobs_submitted: r.counter("sp_jobs_submitted_total", "Jobs submitted (including cache hits and rejections)"),
            jobs_completed: r.counter("sp_jobs_completed_total", "Jobs finished with a result (cache hits included)"),
            jobs_timeout: r.counter("sp_jobs_timeout_total", "Jobs cancelled at a deadline"),
            jobs_failed: r.counter("sp_jobs_failed_total", "Jobs that panicked or produced an invalid partition"),
            rejected_queue_full: r.counter_with("sp_jobs_rejected_total", "Submits rejected before queueing", &[("reason", "queue_full")]),
            rejected_shutting_down: r.counter_with("sp_jobs_rejected_total", "Submits rejected before queueing", &[("reason", "shutting_down")]),
            cache_hits: r.counter("sp_cache_hits_total", "Result-cache hits"),
            cache_misses: r.counter("sp_cache_misses_total", "Result-cache misses (jobs enqueued)"),
            cache_evictions: r.counter("sp_cache_evictions_total", "LRU evictions from the result cache"),
            cache_entries: r.gauge("sp_cache_entries", "Entries currently in the result cache"),
            source_memo_hits: r.counter("sp_source_memo_hits_total", "Submits answered from a remembered graph source and a cached result (no graph built)"),
            source_memo_misses: r.counter("sp_source_memo_misses_total", "Submits for which the graph was built and fingerprinted"),
            queue_depth: r.gauge("sp_queue_depth", "Jobs waiting in the queue right now"),
            queue_depth_highwater: r.gauge("sp_queue_depth_highwater", "Deepest the queue has been since start"),
            queue_capacity: r.gauge("sp_queue_capacity", "Bounded queue capacity"),
            workers: r.gauge("sp_workers", "Worker threads in the pool"),
            workers_active: r.gauge("sp_workers_active", "Workers currently running a job"),
            worker_busy_ms: r.counter("sp_worker_busy_milliseconds_total", "Total worker milliseconds spent running jobs (divide by workers x uptime for utilization)"),
            queue_wait_ms: r.histogram("sp_queue_wait_milliseconds", "Time from enqueue to worker pickup", &lat),
            job_latency_ms: r.histogram("sp_job_latency_milliseconds", "End-to-end latency of resolved submits", &lat),
            job_run_ms: r.histogram("sp_job_run_milliseconds", "Worker execution time per job (queue wait excluded)", &lat),
            superstep_wall_us: r.histogram(
                "sp_superstep_wall_microseconds",
                "Host wall time per simulated superstep (rank closures only)",
                &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 50000.0],
            ),
            rank_batch_occupancy: r.gauge("sp_rank_batch_occupancy_percent", "Active ranks as a percentage of machine ranks in the last superstep"),
            phase_wall_ms: PHASES
                .iter()
                .map(|p| {
                    r.histogram_with(
                        "sp_phase_wall_milliseconds",
                        "Host wall time per pipeline phase per job",
                        &lat,
                        &[("phase", p)],
                    )
                })
                .collect(),
            sessions_active: r.gauge("sp_sessions_active", "Streaming sessions currently open"),
            session_deltas: r.counter("sp_session_deltas_total", "Graph deltas accepted into session overlays"),
            session_repartition_ms: r.histogram(
                "sp_session_repartition_milliseconds",
                "Host wall time per session_repartition request",
                &lat,
            ),
            session_evictions: r.counter("sp_session_evictions_total", "Sessions evicted after exceeding the idle TTL"),
            session_cache_hits: r.counter("sp_session_cache_hits_total", "Streaming result-cache hits (base + delta-chain fingerprint)"),
            uptime_seconds: r.gauge("sp_uptime_seconds", "Seconds since the service started (sampled at scrape)"),
            resident_memory_bytes: r.gauge("sp_process_resident_memory_bytes", "VmRSS at scrape time (0 where /proc is unavailable)"),
            peak_resident_memory_bytes: r.gauge("sp_process_peak_resident_memory_bytes", "VmHWM at scrape time (0 where /proc is unavailable)"),
            registry: r,
        }
    }

    /// Record one finished profile: feed each phase's wall time into its
    /// labelled histogram series.
    pub fn observe_phases(&self, samples: &[scalapart::obs::PhaseSample]) {
        for s in samples {
            if let Some(i) = PHASES.iter().position(|p| *p == s.phase) {
                self.phase_wall_ms[i].observe(s.wall_ms);
            }
        }
    }

    /// Refresh the scrape-time gauges (uptime, RSS) and render the
    /// Prometheus text exposition.
    pub fn render(&self, uptime_secs: f64) -> String {
        self.uptime_seconds.set(uptime_secs as i64);
        self.resident_memory_bytes
            .set(scalapart::obs::rss::current_rss_bytes().unwrap_or(0) as i64);
        self.peak_resident_memory_bytes
            .set(scalapart::obs::rss::peak_rss_bytes().unwrap_or(0) as i64);
        scalapart::obs::prom::render(&self.registry)
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_lint_clean_from_the_start() {
        let m = ServiceMetrics::new();
        let text = m.render(0.0);
        let errs = scalapart::obs::prom::lint(&text);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(text.contains("# TYPE sp_jobs_submitted_total counter"));
        assert!(text.contains("sp_jobs_rejected_total{reason=\"queue_full\"} 0"));
        assert!(text.contains("sp_phase_wall_milliseconds_bucket{phase=\"embed\""));
        // Streaming-session instruments are registered from the start, so
        // a scrape before any session opens is already lint-clean.
        assert!(text.contains("# TYPE sp_sessions_active gauge"));
        assert!(text.contains("sp_session_deltas_total 0"));
        assert!(text.contains("# TYPE sp_session_repartition_milliseconds histogram"));
    }

    #[test]
    fn phase_observation_lands_in_the_right_series() {
        let m = ServiceMetrics::new();
        m.observe_phases(&[
            scalapart::obs::PhaseSample {
                phase: "embed".into(),
                wall_ms: 5.0,
                rss_bytes: None,
                spans: 1,
            },
            scalapart::obs::PhaseSample {
                phase: "not_a_phase".into(),
                wall_ms: 1.0,
                rss_bytes: None,
                spans: 1,
            },
        ]);
        let i = PHASES.iter().position(|p| *p == "embed").unwrap();
        assert_eq!(m.phase_wall_ms[i].count(), 1);
        let total: u64 = m.phase_wall_ms.iter().map(|h| h.count()).sum();
        assert_eq!(total, 1, "unknown phases are dropped, not mislabelled");
    }
}
