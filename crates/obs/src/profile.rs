//! Per-phase resource profiling: host wall time + peak RSS per pipeline
//! phase, accumulated across recursive bisections.
//!
//! The profiler is deliberately dumb about *what* the phases are — core's
//! `ProfilingObserver` adapter decides where phase boundaries fall (the
//! `PipelineObserver` checkpoints) and calls [`PhaseProfiler::mark`] at
//! each. Everything between two marks is attributed to the marked
//! [`Phase`], the one phase vocabulary the simulated machine keys its
//! clocks by too; recursive bisections re-enter the same phases, so
//! samples accumulate per phase rather than appending a new row each time.
//!
//! RSS is sampled at each mark via [`crate::rss`]; the per-phase figure is
//! the maximum RSS observed at that phase's closing marks — a boundary
//! sample, not a continuous peak, which is the honest trade for staying
//! passive (no sampler thread perturbing the run).

use sp_trace::Phase;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct PhaseSample {
    pub phase: Phase,
    pub wall_ms: f64,
    /// Max RSS in bytes observed at this phase's closing boundaries;
    /// `None` where /proc is unavailable.
    pub rss_bytes: Option<u64>,
    /// How many spans were folded into this row (≥ 1; bisection recursion
    /// revisits phases).
    pub spans: u64,
}

pub struct PhaseProfiler {
    last_mark: Instant,
    samples: Vec<PhaseSample>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfiler {
    pub fn new() -> PhaseProfiler {
        PhaseProfiler {
            last_mark: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Close the span since the previous mark and attribute it to `phase`.
    pub fn mark(&mut self, phase: Phase) {
        let now = Instant::now();
        let wall_ms = now.duration_since(self.last_mark).as_secs_f64() * 1e3;
        self.last_mark = now;
        let rss = crate::rss::current_rss_bytes();
        match self.samples.iter_mut().find(|s| s.phase == phase) {
            Some(s) => {
                s.wall_ms += wall_ms;
                s.rss_bytes = match (s.rss_bytes, rss) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                s.spans += 1;
            }
            None => self.samples.push(PhaseSample {
                phase,
                wall_ms,
                rss_bytes: rss,
                spans: 1,
            }),
        }
    }

    pub fn samples(&self) -> &[PhaseSample] {
        &self.samples
    }

    /// Render the samples as a JSON array for a `phase_profile` record:
    /// `[{"phase":"coarsen","wall_ms":1.2,"rss_mb":34.5,"spans":3},…]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"phase\":\"{}\",\"wall_ms\":{},\"rss_mb\":{},\"spans\":{}}}",
                s.phase.name(),
                sp_trace::json::num(s.wall_ms),
                s.rss_bytes
                    .map(|b| sp_trace::json::num(crate::rss::bytes_to_mib(b)))
                    .unwrap_or_else(|| "null".to_string()),
                s.spans
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_accumulate_per_phase() {
        let mut p = PhaseProfiler::new();
        p.mark(Phase::Coarsen);
        p.mark(Phase::Embed);
        p.mark(Phase::Coarsen); // recursion revisits
        assert_eq!(p.samples().len(), 2);
        let c = &p.samples()[0];
        assert_eq!(c.phase, Phase::Coarsen);
        assert_eq!(c.spans, 2);
        assert!(c.wall_ms >= 0.0);
        let e = &p.samples()[1];
        assert_eq!(e.spans, 1);
    }

    #[test]
    fn json_is_well_formed() {
        let mut p = PhaseProfiler::new();
        p.mark(Phase::Partition);
        let j = p.to_json();
        assert!(j.starts_with('['), "{j}");
        assert!(j.contains("\"phase\":\"partition\""), "{j}");
        assert!(j.contains("\"spans\":1"), "{j}");
        assert!(j.ends_with(']'), "{j}");
        // Empty profiler → empty array, still valid JSON.
        assert_eq!(PhaseProfiler::new().to_json(), "[]");
    }
}
