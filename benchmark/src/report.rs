//! The result a workload run prints. Names, units, directions and bounds
//! come from `BENCHMARK.json` (see [`crate::spec`]).

use crate::spec::spec;
use std::collections::BTreeMap;

/// User-visible metrics that exist on some workloads only, with the bound
/// `compare` holds them to. `BENCHMARK.json` cannot carry these bounds: an
/// end-to-end row must be printed, never 0, by all six workloads (a batch
/// run with nine samples has no p95, and only `session-stream` migrates
/// anything), and a per-layer row has no `bound` key. Their unit and
/// direction are the per-layer rows of the same name; they are measured
/// with tracing off and printed by every run that has them.
pub const SCOPED: [(&str, f64); 2] = [("op_ms_p95", 0.3), ("migration_ratio", 0.05)];

/// Metrics the program computes rather than times: with the fixed instance
/// list they read bit for bit the same on every run of a commit.
pub const DETERMINISTIC: [&str; 5] = [
    "edge_cut",
    "imbalance_max",
    "sim_time",
    "migration_ratio",
    "ok_ratio",
];

/// Starts the line on which an untraced run prints its scoped metrics as
/// one JSON object; `all` reads it back.
pub const SCOPED_PREFIX: &str = "#scoped ";

/// Metric values by name, with the sample count behind each timing.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// A timing: its value and the number of samples it was read off.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, Some(samples)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    fn samples(&self, name: &str) -> Option<usize> {
        self.values.get(name).and_then(|v| v.1)
    }
}

/// What one workload run produced.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (printed, and the run exits non-zero).
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn new(workload: &'static str, traced: bool) -> RunResult {
        RunResult {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Count one checked op; a failed check is kept for the report.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print every metric by name with its unit (and sample count), then
    /// the one-line JSON object the driver reads. With tracing off the
    /// JSON holds exactly the end-to-end metrics, with tracing on exactly
    /// the per-layer ones.
    pub fn print(&self) {
        let line = |name: &str, unit: &str| {
            let v = self.metrics.get(name).unwrap_or(0.0);
            match self.metrics.samples(name) {
                Some(n) => println!("{:<32} {:>16.6} {:<6} n={n}", name, v, unit),
                None => println!("{:<32} {:>16.6} {unit}", name, v),
            }
        };
        println!(
            "# workload {} (tracing {})",
            self.workload,
            if self.traced { "on" } else { "off" }
        );
        let spec = spec();
        let known = |name: &str| {
            spec.end_to_end
                .iter()
                .chain(&spec.per_layer)
                .any(|r| r.name == name)
        };
        if let Some(stray) = self.metrics.values.keys().find(|name| !known(name)) {
            panic!("metric {stray} is not a row of BENCHMARK.json");
        }
        let entry = |name: &str, unit: &str| {
            let v = self.metrics.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        };
        let rows = if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let mut json: Vec<String> = Vec::new();
        for row in rows {
            line(&row.name, &row.unit);
            json.push(entry(&row.name, &row.unit));
        }
        if !self.traced {
            // The workload-scoped metrics this run has, on a line of
            // their own: the JSON line below has no room for them.
            let scoped: Vec<String> = spec
                .per_layer
                .iter()
                .filter(|row| SCOPED.iter().any(|(name, _)| *name == row.name))
                .filter(|row| self.metrics.get(&row.name).is_some())
                .map(|row| {
                    line(&row.name, &row.unit);
                    entry(&row.name, &row.unit)
                })
                .collect();
            println!("{SCOPED_PREFIX}{{{}}}", scoped.join(", "));
        }
        for f in &self.failures {
            println!("FAILED CHECK: {f}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}
