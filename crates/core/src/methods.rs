//! Unified dispatch over every partitioner in the paper's evaluation:
//! [`run_method`] is the plain entry point, [`run_method_checked`] the
//! full one (caller's machine, observer, cancellation).

use crate::config::SpConfig;
use crate::observe::{Cancelled, NoopObserver, PipelineObserver};
use crate::pipeline::{scalapart_bisect_checked, sp_pg7nl_bisect, PhaseTimes};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_baselines::{multilevel_bisect, rcb_bisect, MultilevelConfig};
use sp_embed::embed_multilevel_seq;
use sp_geometry::Point2;
use sp_geopart::{geometric_partition, GeoConfig};
use sp_graph::distr::Distribution;
use sp_graph::{Bisection, Graph};
use sp_machine::{CostModel, Machine};

/// Every method in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// ScalaPart — the full pipeline.
    ScalaPart,
    /// SP-PG7-NL — ScalaPart's partitioning component only (requires or
    /// receives coordinates).
    SpPg7Nl,
    /// The ParMetis-like multilevel comparator.
    ParMetisLike,
    /// The Pt-Scotch-like multilevel comparator.
    PtScotchLike,
    /// Recursive coordinate bisection (Zoltan).
    Rcb,
    /// Sequential geometric mesh partitioning, 30 tries.
    G30,
    /// Sequential geometric, 7 tries.
    G7,
    /// Sequential geometric, 7 tries, no line separators.
    G7Nl,
}

impl Method {
    pub fn name(self) -> &'static str {
        match self {
            Method::ScalaPart => "ScalaPart",
            Method::SpPg7Nl => "SP-PG7-NL",
            Method::ParMetisLike => "ParMetis",
            Method::PtScotchLike => "Pt-Scotch",
            Method::Rcb => "RCB",
            Method::G30 => "G30",
            Method::G7 => "G7",
            Method::G7Nl => "G7-NL",
        }
    }

    /// The canonical protocol token: `Method::parse(m.proto_name())`
    /// always round-trips. This is the name that goes on the wire (submit
    /// frames, and the router's routing key), unlike [`Method::name`],
    /// whose display forms (`"SP-PG7-NL"`) are not parseable.
    pub fn proto_name(self) -> &'static str {
        match self {
            Method::ScalaPart => "sp",
            Method::SpPg7Nl => "sp-pg7nl",
            Method::ParMetisLike => "parmetis",
            Method::PtScotchLike => "ptscotch",
            Method::Rcb => "rcb",
            Method::G30 => "g30",
            Method::G7 => "g7",
            Method::G7Nl => "g7nl",
        }
    }

    /// Parse a CLI/protocol method name (the `--method` values of the
    /// `scalapart` CLI, shared by the sp-serve request decoder).
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "sp" | "scalapart" => Method::ScalaPart,
            "sp-pg7nl" => Method::SpPg7Nl,
            "rcb" => Method::Rcb,
            "parmetis" => Method::ParMetisLike,
            "ptscotch" => Method::PtScotchLike,
            "g30" => Method::G30,
            "g7" => Method::G7,
            "g7nl" => Method::G7Nl,
            _ => return None,
        })
    }

    /// Does the method need vertex coordinates?
    pub fn needs_coords(self) -> bool {
        matches!(
            self,
            Method::SpPg7Nl | Method::Rcb | Method::G30 | Method::G7 | Method::G7Nl
        )
    }

    /// Does the method build a multilevel hierarchy of the graph it
    /// bisects? The k-way recursion never runs two of these bisections at
    /// once: both halves' hierarchies would be live together.
    pub fn coarsens(self) -> bool {
        matches!(
            self,
            Method::ScalaPart | Method::ParMetisLike | Method::PtScotchLike
        )
    }
}

/// Outcome of one method run.
#[derive(Clone, Debug)]
pub struct MethodResult {
    pub method: Method,
    /// Unweighted separator size |S|.
    pub cut: usize,
    /// Simulated elapsed time (seconds) on the given rank count.
    pub time: f64,
    /// Weighted imbalance.
    pub imbalance: f64,
    /// Phase breakdown (ScalaPart variants only).
    pub phases: Option<PhaseTimes>,
    pub bisection: Bisection,
}

/// Run `method` on `g` with `p` simulated ranks: the plain entry point.
/// `coords` supplies vertex coordinates for the geometric methods; when
/// absent they are produced by the sequential Hu-style embedder, matching
/// the paper's protocol (and, as in the paper, that embedding time is
/// *not* included in the method's reported time).
pub fn run_method(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    p: usize,
    seed: u64,
) -> MethodResult {
    let mut machine = Machine::new(p, CostModel::qdr_infiniband());
    run_method_checked(method, g, coords, &mut machine, seed, &mut NoopObserver)
        .expect("NoopObserver never cancels")
}

/// The full entry point: [`run_method`] on a caller-supplied machine, and
/// cancellable: the observer's
/// [`poll_cancel`](PipelineObserver::poll_cancel) is honoured at the
/// pipeline checkpoints (for [`Method::ScalaPart`]) and at the method
/// entry/exit boundary for the single-shot comparator methods, whose runs
/// are one indivisible step. sp-serve threads per-job deadlines through
/// this.
///
/// It is also the observability entry point: install a recorder on
/// `machine` first and the whole run is traced. The trace and the
/// metrics come back as JSON strings, which the `scalapart` CLI writes to
/// its `--trace` and `--metrics` files:
///
/// ```
/// use scalapart::graph::gen::grid_2d;
/// use scalapart::machine::{CostModel, Machine, Metrics, TraceRecorder};
/// use scalapart::{run_method_checked, Method, NoopObserver};
///
/// let graph = grid_2d(16, 16);
/// let mut machine = Machine::new(4, CostModel::qdr_infiniband());
/// machine.set_recorder(Box::new(TraceRecorder::new(4)));
/// let result = run_method_checked(
///     Method::ScalaPart,
///     &graph,
///     None,
///     &mut machine,
///     42,
///     &mut NoopObserver,
/// )
/// .expect("NoopObserver never cancels");
/// let stats = machine.stats();
/// let rec = machine.take_recorder().and_then(TraceRecorder::downcast).unwrap();
/// let trace = rec.chrome_trace();
/// let metrics = Metrics::build(&stats, Some(&rec)).to_json();
/// assert!(result.cut > 0);
/// assert!(trace.starts_with('['), "a Chrome trace-event array");
/// assert!(metrics.contains("\"schema\": \"sp-metrics-v1\""));
/// ```
pub fn run_method_checked(
    method: Method,
    g: &Graph,
    coords: Option<&[Point2]>,
    machine: &mut Machine,
    seed: u64,
    obs: &mut dyn PipelineObserver,
) -> Result<MethodResult, Cancelled> {
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    let p = machine.p();
    let owned_coords: Option<Vec<Point2>> = if method.needs_coords() && coords.is_none() {
        Some(embed_multilevel_seq(g, seed))
    } else {
        None
    };
    let coords = owned_coords.as_deref().or(coords);
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    let result = match method {
        Method::ScalaPart => {
            let r = scalapart_bisect_checked(
                g,
                machine,
                &SpConfig::default().with_seed(seed),
                obs,
                &mut sp_embed::lattice_smooth_with,
            )?;
            MethodResult {
                method,
                cut: r.cut,
                time: r.total_time,
                imbalance: r.imbalance,
                phases: Some(r.times),
                bisection: r.bisection,
            }
        }
        Method::SpPg7Nl => {
            let coords = coords.expect("SP-PG7-NL needs coordinates");
            let r = sp_pg7nl_bisect(g, coords, machine, &SpConfig::default().with_seed(seed));
            MethodResult {
                method,
                cut: r.cut,
                time: r.total_time,
                imbalance: r.imbalance,
                phases: Some(r.times),
                bisection: r.bisection,
            }
        }
        Method::ParMetisLike | Method::PtScotchLike => {
            let cfg = if method == Method::ParMetisLike {
                MultilevelConfig::parmetis_like(seed)
            } else {
                MultilevelConfig::ptscotch_like(seed)
            };
            let (bi, st) = multilevel_bisect(g, machine, &cfg);
            MethodResult {
                method,
                cut: st.final_cut_edges,
                time: machine.elapsed(),
                imbalance: bi.imbalance(g),
                phases: None,
                bisection: bi,
            }
        }
        Method::Rcb => {
            let coords = coords.expect("RCB needs coordinates");
            let dist = Distribution::block(g.n(), p);
            let r = rcb_bisect(g, coords, &dist, machine);
            MethodResult {
                method,
                cut: r.cut,
                time: machine.elapsed(),
                imbalance: r.bisection.imbalance(g),
                phases: None,
                bisection: r.bisection,
            }
        }
        Method::G30 | Method::G7 | Method::G7Nl => {
            let coords = coords.expect("geometric methods need coordinates");
            let cfg = match method {
                Method::G30 => GeoConfig::g30(),
                Method::G7 => GeoConfig::g7(),
                _ => GeoConfig::g7_nl(),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let r = geometric_partition(g, coords, &cfg, &mut rng);
            // Sequential method: charge its work to a single rank.
            machine.charge_ops(0, (g.m() * cfg.total_tries()) as f64);
            MethodResult {
                method,
                cut: r.cut,
                time: machine.elapsed(),
                imbalance: r.bisection.imbalance(g),
                phases: None,
                bisection: r.bisection,
            }
        }
    };
    if obs.poll_cancel() {
        return Err(Cancelled);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_graph::gen::{grid_2d, grid_2d_coords};

    #[test]
    fn every_method_runs_and_validates() {
        let g = grid_2d(20, 20);
        let coords = grid_2d_coords(20, 20);
        for method in [
            Method::ScalaPart,
            Method::SpPg7Nl,
            Method::ParMetisLike,
            Method::PtScotchLike,
            Method::Rcb,
            Method::G30,
            Method::G7,
            Method::G7Nl,
        ] {
            let r = run_method(method, &g, Some(&coords), 4, 7);
            r.bisection
                .validate(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            assert!(r.cut > 0, "{}", method.name());
            assert_eq!(r.cut, r.bisection.cut_edges(&g), "{}", method.name());
        }
    }

    #[test]
    fn coordinate_free_graphs_get_embedded_automatically() {
        let g = grid_2d(12, 12);
        let r = run_method(Method::Rcb, &g, None, 2, 3);
        r.bisection.validate(&g).unwrap();
    }

    #[test]
    fn run_method_checked_supports_tracing_without_perturbing_results() {
        use sp_machine::TraceRecorder;
        let g = grid_2d(16, 16);
        let mut m = Machine::new(4, CostModel::qdr_infiniband());
        m.set_recorder(Box::new(TraceRecorder::new(4)));
        let r =
            run_method_checked(Method::ScalaPart, &g, None, &mut m, 7, &mut NoopObserver).unwrap();
        r.bisection.validate(&g).unwrap();
        let rec = TraceRecorder::downcast(m.take_recorder().unwrap()).unwrap();
        assert!(!rec.is_empty());
        // Tracing is observation only: identical cut and simulated time.
        let base = run_method(Method::ScalaPart, &g, None, 4, 7);
        assert_eq!(r.cut, base.cut);
        assert_eq!(r.time, base.time);
    }

    #[test]
    fn needs_coords_classification() {
        assert!(Method::Rcb.needs_coords());
        assert!(Method::G30.needs_coords());
        assert!(!Method::ScalaPart.needs_coords());
        assert!(!Method::PtScotchLike.needs_coords());
        assert!(Method::ScalaPart.coarsens());
        assert!(Method::ParMetisLike.coarsens());
        assert!(!Method::SpPg7Nl.coarsens());
        assert!(!Method::Rcb.coarsens());
    }

    #[test]
    fn proto_names_round_trip_through_parse() {
        for m in [
            Method::ScalaPart,
            Method::SpPg7Nl,
            Method::ParMetisLike,
            Method::PtScotchLike,
            Method::Rcb,
            Method::G30,
            Method::G7,
            Method::G7Nl,
        ] {
            assert_eq!(Method::parse(m.proto_name()), Some(m), "{:?}", m);
        }
    }
}
