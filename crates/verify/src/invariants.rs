//! The pipeline-wide invariant checker: a [`PipelineObserver`] that
//! validates every checkpoint the pipeline exposes and a pair of
//! result/machine checks for the end of a run. Violations are collected,
//! not panicked, so a fuzzing campaign can report every failure with its
//! replay seed instead of dying on the first.

use scalapart::{PipelineObserver, SpResult};
use sp_coarsen::{validate_contraction, validate_matching, Contraction, Hierarchy, Matching};
use sp_embed::check_embedding;
use sp_geometry::Point2;
use sp_geopart::GeoPartResult;
use sp_graph::{Bisection, Graph};
use sp_machine::MachineStats;
use sp_refine::FmStats;
use sp_trace::{check_accounting, crosscheck, TraceRecorder};

/// One detected invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke (stable identifier, e.g. `"cut-accounting"`).
    pub invariant: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Collects violations across all pipeline checkpoints of one run.
pub struct InvariantChecker {
    /// Allowed final weighted imbalance (tolerance of the run's FM config
    /// plus slack for the pre-refinement geometric split).
    pub balance_bound: f64,
    /// Everything that broke, in detection order.
    pub violations: Vec<Violation>,
    /// Checkpoints inspected (a run that checked nothing is itself
    /// suspicious — the fuzz stage reports a `checker-wired` failure when
    /// its canonical run inspected none).
    pub checkpoints: usize,
}

impl InvariantChecker {
    pub fn new(balance_bound: f64) -> Self {
        InvariantChecker {
            balance_bound,
            violations: Vec::new(),
            checkpoints: 0,
        }
    }

    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn fail(&mut self, invariant: &'static str, detail: String) {
        self.violations.push(Violation { invariant, detail });
    }

    fn check(&mut self, invariant: &'static str, r: Result<(), String>) {
        self.checkpoints += 1;
        if let Err(e) = r {
            self.fail(invariant, e);
        }
    }

    /// Final-result invariants: partition validity, cut/edge accounting,
    /// balance, refinement monotonicity, coordinate sanity, simulated-time
    /// sanity.
    pub fn check_result(&mut self, g: &Graph, r: &SpResult) {
        self.check("partition-valid", r.bisection.validate(g));
        self.checkpoints += 1;
        let recomputed = r.bisection.cut_edges(g);
        if recomputed != r.cut {
            self.fail(
                "cut-accounting",
                format!("reported cut {} != recomputed edge cut {recomputed}", r.cut),
            );
        }
        if r.cut > r.cut_before_refine {
            self.fail(
                "refine-monotone",
                format!(
                    "refinement worsened the cut: {} -> {}",
                    r.cut_before_refine, r.cut
                ),
            );
        }
        let imb = r.bisection.imbalance(g);
        if (imb - r.imbalance).abs() > 1e-9 {
            self.fail(
                "imbalance-accounting",
                format!("reported imbalance {} != recomputed {imb}", r.imbalance),
            );
        }
        if imb > self.balance_bound {
            self.fail(
                "balance-bound",
                format!("imbalance {imb} exceeds bound {}", self.balance_bound),
            );
        }
        self.check("embedding-valid", check_embedding(g, &r.coords));
        if !(r.total_time.is_finite() && r.total_time > 0.0) {
            self.fail(
                "time-sane",
                format!("total simulated time {} not finite-positive", r.total_time),
            );
        }
        if r.times.total() > r.total_time * (1.0 + 1e-9) + 1e-12 {
            self.fail(
                "time-accounting",
                format!(
                    "phase walls sum to {} > total {}",
                    r.times.total(),
                    r.total_time
                ),
            );
        }
    }

    /// Machine-side invariants: the accounting snapshot is internally
    /// consistent, and (when a trace was captured) the event stream agrees
    /// with the charged costs.
    pub fn check_machine(&mut self, stats: &MachineStats, rec: Option<&TraceRecorder>) {
        self.check("machine-accounting", check_accounting(stats));
        if let Some(rec) = rec {
            self.check("trace-crosscheck", crosscheck(stats, rec));
        }
    }
}

impl PipelineObserver for InvariantChecker {
    fn on_matching(&mut self, g: &Graph, m: &Matching) {
        self.check("matching-valid", validate_matching(g, m));
    }

    fn on_contraction(&mut self, fine: &Graph, m: &Matching, c: &Contraction) {
        self.check("contraction-valid", validate_contraction(fine, m, c));
    }

    fn on_hierarchy(&mut self, h: &Hierarchy) {
        self.checkpoints += 1;
        for (lvl, pair) in h.levels.windows(2).enumerate() {
            let (fine, coarse) = (&pair[0], &pair[1]);
            if coarse.graph.n() >= fine.graph.n() {
                self.fail(
                    "hierarchy-shrinks",
                    format!(
                        "level {lvl} -> {}: {} -> {} vertices (no shrink)",
                        lvl + 1,
                        fine.graph.n(),
                        coarse.graph.n()
                    ),
                );
            }
            match &fine.map_to_coarser {
                None => self.fail(
                    "hierarchy-maps",
                    format!("level {lvl} has a coarser level but no map"),
                ),
                Some(map) => {
                    if map.len() != fine.graph.n() {
                        self.fail(
                            "hierarchy-maps",
                            format!(
                                "level {lvl} map covers {} of {} vertices",
                                map.len(),
                                fine.graph.n()
                            ),
                        );
                    } else if let Some(&bad) =
                        map.iter().find(|&&cv| cv as usize >= coarse.graph.n())
                    {
                        self.fail(
                            "hierarchy-maps",
                            format!("level {lvl} maps to out-of-range coarse vertex {bad}"),
                        );
                    }
                }
            }
        }
        if let Some(last) = h.levels.last() {
            if last.map_to_coarser.is_some() {
                self.fail(
                    "hierarchy-maps",
                    "coarsest level has a dangling map".to_string(),
                );
            }
        }
    }

    fn on_embedding(&mut self, g: &Graph, coords: &[Point2]) {
        self.check("embedding-valid", check_embedding(g, coords));
    }

    fn on_geo_partition(&mut self, g: &Graph, geo: &GeoPartResult) {
        self.check("geo-partition-valid", geo.validate(g));
    }

    fn on_refined(&mut self, g: &Graph, bi: &Bisection, st: &FmStats) {
        self.checkpoints += 1;
        if st.cut_after > st.cut_before + 1e-9 {
            self.fail(
                "refine-monotone",
                format!("FM worsened the cut: {} -> {}", st.cut_before, st.cut_after),
            );
        }
        let actual = bi.cut(g);
        if (actual - st.cut_after).abs() > 1e-9 * actual.max(1.0) {
            self.fail(
                "refine-accounting",
                format!(
                    "FM reports cut {} but bisection cuts {actual}",
                    st.cut_after
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalapart::{scalapart_bisect_checked, SpConfig};
    use sp_embed::lattice_smooth_with;
    use sp_graph::gen::grid_2d;
    use sp_machine::{CostModel, Machine};

    #[test]
    fn clean_pipeline_run_has_no_violations() {
        let g = grid_2d(32, 32);
        let mut m = Machine::new(16, CostModel::qdr_infiniband());
        let mut chk = InvariantChecker::new(0.15);
        let sp = SpConfig::default();
        let r = scalapart_bisect_checked(&g, &mut m, &sp, &mut chk, &mut lattice_smooth_with)
            .expect("the invariant checker never cancels");
        chk.check_result(&g, &r);
        chk.check_machine(&m.stats(), None);
        assert!(chk.ok(), "violations: {:?}", chk.violations);
        assert!(chk.checkpoints >= 8, "only {} checkpoints", chk.checkpoints);
    }

    #[test]
    fn corrupted_label_is_caught() {
        let g = grid_2d(24, 24);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        let mut chk = InvariantChecker::new(0.15);
        let sp = SpConfig::default();
        let mut r = scalapart_bisect_checked(&g, &mut m, &sp, &mut chk, &mut lattice_smooth_with)
            .expect("the invariant checker never cancels");
        r.bisection.flip(7);
        chk.check_result(&g, &r);
        assert!(!chk.ok());
        assert!(chk
            .violations
            .iter()
            .any(|v| v.invariant == "cut-accounting"));
    }
}
