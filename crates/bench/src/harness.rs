//! Shared experiment harness: graph/coordinate caches and memoised method
//! runs, so the many tables and figures that share sweeps (e.g. Table 3,
//! Table 4, Fig 3, Fig 5/6, Fig 9 all reuse the same method×graph×P grid)
//! compute each point exactly once.

use scalapart::pipeline::PhaseTimes;
use scalapart::{run_method, Method};
use sp_embed::embed_multilevel_seq;
use sp_geometry::Point2;
use sp_graph::{SuiteGraph, TestGraph, TestScale};
use std::collections::HashMap;

/// The paper's processor sweep.
pub fn sweep_p() -> Vec<usize> {
    vec![1, 4, 16, 64, 256, 1024]
}

/// One memoised method run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub method: Method,
    pub graph: SuiteGraph,
    pub p: usize,
    pub cut: usize,
    pub time: f64,
    pub imbalance: f64,
    pub phases: Option<PhaseTimes>,
}

/// Experiment context: caches instantiated graphs, their coordinates
/// (natural, or Hu-style embedded for the coordinate-free kkt_power), and
/// completed runs.
pub struct Experiments {
    pub scale: TestScale,
    pub seed: u64,
    graphs: HashMap<SuiteGraph, TestGraph>,
    coords: HashMap<SuiteGraph, Vec<Point2>>,
    runs: HashMap<(Method, SuiteGraph, usize), RunRecord>,
    /// Verbose progress to stderr.
    pub verbose: bool,
}

impl Experiments {
    pub fn new(scale: TestScale, seed: u64) -> Self {
        Experiments {
            scale,
            seed,
            graphs: HashMap::new(),
            coords: HashMap::new(),
            runs: HashMap::new(),
            verbose: true,
        }
    }

    /// Instantiate (once) a suite graph at the configured scale.
    pub fn graph(&mut self, sg: SuiteGraph) -> &TestGraph {
        let scale = self.scale;
        let seed = self.seed;
        let verbose = self.verbose;
        self.graphs.entry(sg).or_insert_with(|| {
            if verbose {
                eprintln!("[gen] {} ...", sg.name());
            }
            sg.instantiate(scale, seed)
        })
    }

    /// Coordinates for geometric methods: the graph's natural coordinates
    /// where the family has them, otherwise a sequential force-directed
    /// embedding (the paper's protocol, standing in for Hu's Mathematica
    /// code; its time is not charged to any method).
    pub fn coords(&mut self, sg: SuiteGraph) -> Vec<Point2> {
        if let Some(c) = self.coords.get(&sg) {
            return c.clone();
        }
        let seed = self.seed;
        let verbose = self.verbose;
        let t = self.graph(sg);
        let c = match &t.coords {
            Some(c) => c.clone(),
            None => {
                if verbose {
                    eprintln!("[embed] {} (coordinate-free, Hu-style) ...", sg.name());
                }
                embed_multilevel_seq(&t.graph, seed)
            }
        };
        self.coords.insert(sg, c.clone());
        c
    }

    /// Run (or recall) a method on a suite graph at P ranks.
    pub fn run(&mut self, method: Method, sg: SuiteGraph, p: usize) -> RunRecord {
        if let Some(r) = self.runs.get(&(method, sg, p)) {
            return r.clone();
        }
        let seed = self.seed ^ (p as u64).wrapping_mul(0x9E37_79B9);
        let coords = if method.needs_coords() {
            Some(self.coords(sg))
        } else {
            None
        };
        let verbose = self.verbose;
        let t = self.graph(sg);
        if verbose {
            eprintln!("[run] {:<10} {:<18} P={}", method.name(), sg.name(), p);
        }
        let r = run_method(method, &t.graph, coords.as_deref(), p, seed);
        let rec = RunRecord {
            method,
            graph: sg,
            p,
            cut: r.cut,
            time: r.time,
            imbalance: r.imbalance,
            phases: r.phases,
        };
        self.runs.insert((method, sg, p), rec.clone());
        rec
    }

    /// Best (min) and worst (max) cut over a P sweep.
    pub fn cut_range(&mut self, method: Method, sg: SuiteGraph, ps: &[usize]) -> (usize, usize) {
        let cuts: Vec<usize> = ps.iter().map(|&p| self.run(method, sg, p).cut).collect();
        (*cuts.iter().min().unwrap(), *cuts.iter().max().unwrap())
    }

    /// Mean cut over a P sweep.
    pub fn cut_avg(&mut self, method: Method, sg: SuiteGraph, ps: &[usize]) -> f64 {
        let cuts: Vec<usize> = ps.iter().map(|&p| self.run(method, sg, p).cut).collect();
        cuts.iter().sum::<usize>() as f64 / cuts.len() as f64
    }

    /// Total simulated time of a method across all nine graphs at P.
    pub fn total_time(&mut self, method: Method, p: usize) -> f64 {
        SuiteGraph::all()
            .iter()
            .map(|&sg| self.run(method, sg, p).time)
            .sum()
    }

    /// Every memoised run, in deterministic (method, graph, P) order —
    /// the raw data behind all tables, for the per-run metrics artifact.
    pub fn run_records(&self) -> Vec<&RunRecord> {
        let mut v: Vec<&RunRecord> = self.runs.values().collect();
        v.sort_by_key(|r| (r.method.name(), r.graph.name(), r.p));
        v
    }
}

/// Geometric mean of positive values.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.max(1e-30).ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_memoised() {
        let mut ex = Experiments::new(TestScale::Tiny, 1);
        ex.verbose = false;
        let a = ex.run(Method::Rcb, SuiteGraph::Ecology1, 4);
        let b = ex.run(Method::Rcb, SuiteGraph::Ecology1, 4);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn cut_range_orders() {
        let mut ex = Experiments::new(TestScale::Tiny, 2);
        ex.verbose = false;
        let (best, worst) = ex.cut_range(Method::ScalaPart, SuiteGraph::Ecology1, &[1, 16]);
        assert!(best <= worst);
        assert!(best > 0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn coords_exist_for_every_graph() {
        let mut ex = Experiments::new(TestScale::Tiny, 3);
        ex.verbose = false;
        for sg in [SuiteGraph::Ecology1, SuiteGraph::KktPower] {
            let c = ex.coords(sg);
            let n = ex.graph(sg).graph.n();
            assert_eq!(c.len(), n, "{}", sg.name());
        }
    }
}
