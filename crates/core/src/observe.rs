//! Pipeline checkpoint instrumentation.
//!
//! [`PipelineObserver`] is a hook trait the pipeline calls at every
//! algorithmic checkpoint — each coarsening matching/contraction, the
//! finished hierarchy, the embedding, the geometric partition, and the
//! refined result. Every method defaults to a no-op, so observation is
//! opt-in and free for normal runs ([`scalapart_bisect`] passes
//! [`NoopObserver`]). Observers see *references into the running
//! pipeline*, never copies: sp-verify's invariant checker validates each
//! intermediate in place without perturbing the run (the machine's clocks
//! are not visible to observers, so a checker cannot change simulated
//! time even by accident).
//!
//! Every job has two entry points: a plain one with no observer
//! ([`scalapart_bisect`], [`run_method`], [`recursive_kway`]) and a full
//! `*_checked` one that takes an observer and every other hook
//! ([`scalapart_bisect_checked`], [`run_method_checked`],
//! [`recursive_kway_checked_on`]). A caller that observes without
//! cancelling unwraps the full one's result.
//!
//! [`scalapart_bisect`]: crate::pipeline::scalapart_bisect
//! [`scalapart_bisect_checked`]: crate::pipeline::scalapart_bisect_checked
//! [`run_method`]: crate::methods::run_method
//! [`run_method_checked`]: crate::methods::run_method_checked
//! [`recursive_kway`]: crate::kway::recursive_kway
//! [`recursive_kway_checked_on`]: crate::kway::recursive_kway_checked_on

use sp_coarsen::{Contraction, Hierarchy, Matching};
use sp_geometry::Point2;
use sp_geopart::GeoPartResult;
use sp_graph::{Bisection, Graph};
use sp_machine::Phase;
use sp_refine::FmStats;

/// Returned by the `*_checked` pipeline entry points when the observer
/// requested cancellation at a checkpoint. The partial work is discarded;
/// the machine the job ran on is left in whatever simulated state it had
/// reached (callers that care use a fresh machine per job, as sp-serve
/// does).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline cancelled at an observer checkpoint")
    }
}

impl std::error::Error for Cancelled {}

/// Per-retained-level coarsening record: sizes on both sides of the
/// contraction step plus the coarsening arena's scratch high-water mark.
/// Emitted through [`PipelineObserver::on_level_stats`] and surfaced in
/// `--obs-log` `phase_profile` records.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LevelStats {
    /// Retained-level index (0 = the input graph's contraction step).
    pub level: usize,
    /// Vertex/edge counts of the finer retained graph.
    pub fine_n: usize,
    pub fine_m: usize,
    /// Vertex/edge counts of the coarser retained graph.
    pub coarse_n: usize,
    pub coarse_m: usize,
    /// [`sp_coarsen::CoarsenArena`] scratch high-water in bytes so far.
    pub arena_bytes: usize,
}

/// Checkpoint hooks through the ScalaPart pipeline. All methods are
/// called on the host (outside any simulated-rank closure), in pipeline
/// order.
pub trait PipelineObserver {
    /// A matching was computed on `g` (the current coarsening level).
    fn on_matching(&mut self, _g: &Graph, _m: &Matching) {}

    /// `fine` was contracted along `m` into `c`.
    fn on_contraction(&mut self, _fine: &Graph, _m: &Matching, _c: &Contraction) {}

    /// A retained hierarchy level was completed (possibly composing two
    /// contractions); carries sizes and arena scratch usage.
    fn on_level_stats(&mut self, _stats: &LevelStats) {}

    /// Coarsening finished with this hierarchy.
    fn on_hierarchy(&mut self, _h: &Hierarchy) {}

    /// The finest graph was embedded.
    fn on_embedding(&mut self, _g: &Graph, _coords: &[Point2]) {}

    /// Geometric partitioning produced `geo` (before strip refinement).
    fn on_geo_partition(&mut self, _g: &Graph, _geo: &GeoPartResult) {}

    /// Strip FM finished; `bi` is the refined bisection.
    fn on_refined(&mut self, _g: &Graph, _bi: &Bisection, _st: &FmStats) {}

    /// Cooperative cancellation poll. The `*_checked` pipeline entry
    /// points call this at every checkpoint (after each matching and
    /// contraction, after the hierarchy, embedding, and geometric
    /// partition, and between recursive-bisection splits); returning
    /// `true` makes them abandon the run and return
    /// [`Err(Cancelled)`](Cancelled). The default never cancels, so the
    /// plain (non-`_checked`) entry points are unaffected. Cancellation is
    /// *only* observed at checkpoints — a long-running stage finishes its
    /// current step first — which is what keeps cancelled runs safe: no
    /// simulated-rank closure is ever interrupted midway.
    fn poll_cancel(&mut self) -> bool {
        false
    }

    /// Children for the two halves of a forked k-way bisection, or `None`
    /// to keep the recursion serial. The k-way recursion asks only where it
    /// could run both halves at once (see [`kway`](crate::kway)); child 0
    /// then sees every checkpoint of the first half, child 1 of the second,
    /// each in that half's serial order, and the two run at the same time.
    /// An observer that counts or orders its calls across the whole run
    /// keeps the default, and with it the serial schedule.
    fn fork(&mut self) -> Option<[Box<dyn PipelineObserver + Send>; 2]> {
        None
    }
}

/// The explicit do-nothing observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl PipelineObserver for NoopObserver {
    fn fork(&mut self) -> Option<[Box<dyn PipelineObserver + Send>; 2]> {
        Some([Box::new(NoopObserver), Box::new(NoopObserver)])
    }
}

/// An observer adapter that attributes host wall time and RSS to pipeline
/// phases using an [`sp_obs::PhaseProfiler`], while forwarding every hook
/// (including `poll_cancel` and `fork`) to an optional inner observer.
///
/// Phase boundaries fall at the pipeline's own checkpoints: everything up
/// to `on_hierarchy` is [`Phase::Coarsen`], up to `on_embedding` is
/// [`Phase::Embed`], up to `on_geo_partition` is [`Phase::Partition`], and
/// up to `on_refined` is [`Phase::Refine`]. Recursive bisections revisit
/// these checkpoints, so samples accumulate per phase across the whole
/// k-way run (the graph-extraction overhead between one bisection's refine
/// and the next one's coarsening lands in the next coarsen span — it is
/// coarsening-side work).
///
/// It forks whenever what it wraps does, so a profiled k-way run keeps the
/// schedule of an unprofiled one. Only methods that do not coarsen fork
/// (see [`kway`](crate::kway)), and those reach no phase checkpoint, so
/// the children need no profiler of their own and no sample is lost.
///
/// Profiling is strictly passive: the profiler reads `Instant::now()` and
/// `/proc/self/status` at checkpoints and never touches the graph,
/// machine, or observer-visible state. The sp-verify passivity fuzz
/// asserts this end to end.
pub struct ProfilingObserver<'a> {
    profiler: sp_obs::PhaseProfiler,
    level_stats: Vec<LevelStats>,
    inner: Option<&'a mut dyn PipelineObserver>,
}

impl Default for ProfilingObserver<'static> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> ProfilingObserver<'a> {
    pub fn new() -> ProfilingObserver<'static> {
        ProfilingObserver {
            profiler: sp_obs::PhaseProfiler::new(),
            level_stats: Vec::new(),
            inner: None,
        }
    }

    /// Profile while also forwarding every checkpoint to `inner` (e.g. an
    /// invariant checker or a deadline canceller).
    pub fn wrapping(inner: &'a mut dyn PipelineObserver) -> ProfilingObserver<'a> {
        ProfilingObserver {
            profiler: sp_obs::PhaseProfiler::new(),
            level_stats: Vec::new(),
            inner: Some(inner),
        }
    }

    pub fn profiler(&self) -> &sp_obs::PhaseProfiler {
        &self.profiler
    }

    pub fn into_profiler(self) -> sp_obs::PhaseProfiler {
        self.profiler
    }

    /// Render the collected level stats as a JSON array for a
    /// `phase_profile` record.
    pub fn level_stats_json(&self) -> String {
        let items: Vec<String> = self
            .level_stats
            .iter()
            .map(|s| {
                format!(
                    "{{\"level\":{},\"fine_n\":{},\"fine_m\":{},\"coarse_n\":{},\"coarse_m\":{},\"arena_bytes\":{}}}",
                    s.level, s.fine_n, s.fine_m, s.coarse_n, s.coarse_m, s.arena_bytes
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
}

impl PipelineObserver for ProfilingObserver<'_> {
    fn on_matching(&mut self, g: &Graph, m: &Matching) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_matching(g, m);
        }
    }

    fn on_contraction(&mut self, fine: &Graph, m: &Matching, c: &Contraction) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_contraction(fine, m, c);
        }
    }

    fn on_level_stats(&mut self, stats: &LevelStats) {
        self.level_stats.push(*stats);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_level_stats(stats);
        }
    }

    fn on_hierarchy(&mut self, h: &Hierarchy) {
        self.profiler.mark(Phase::Coarsen);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_hierarchy(h);
        }
    }

    fn on_embedding(&mut self, g: &Graph, coords: &[Point2]) {
        self.profiler.mark(Phase::Embed);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_embedding(g, coords);
        }
    }

    fn on_geo_partition(&mut self, g: &Graph, geo: &GeoPartResult) {
        self.profiler.mark(Phase::Partition);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_geo_partition(g, geo);
        }
    }

    fn on_refined(&mut self, g: &Graph, bi: &Bisection, st: &FmStats) {
        self.profiler.mark(Phase::Refine);
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_refined(g, bi, st);
        }
    }

    fn poll_cancel(&mut self) -> bool {
        match self.inner.as_deref_mut() {
            Some(inner) => inner.poll_cancel(),
            None => false,
        }
    }

    fn fork(&mut self) -> Option<[Box<dyn PipelineObserver + Send>; 2]> {
        match self.inner.as_deref_mut() {
            Some(inner) => inner.fork(),
            None => NoopObserver.fork(),
        }
    }
}
