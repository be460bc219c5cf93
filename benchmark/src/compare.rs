//! `all` — every workload, each run in a process of its own, collected
//! into one result file — and `compare`, which holds two such files
//! against the bounds `BENCHMARK.json` fixes.

use crate::report::{DETERMINISTIC, SCOPED, SCOPED_PREFIX};
use crate::spec::{spec, Better};
use crate::stats::{quartiles, Samples};
use crate::Args;
use sp_serve::json::Value;
use std::process::{Command, ExitCode};

/// Run every workload `repeat` times (seeds `seed`, `seed + 1`, …), one
/// child process per run so `peak_rss_mb` is the workload's own.
pub fn run_all(args: &Args, repeat: usize, out: &str) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in &spec().workloads {
        for r in 0..repeat as u64 {
            let seed = args.seed + r;
            eprintln!("# {workload} seed {seed} trace {}", args.trace as u8);
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    &(args.trace as u8).to_string(),
                ])
                .output()
                .expect("run a workload");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let last = stdout.lines().last().unwrap_or("");
            if !output.status.success() || Value::parse(last).is_err() {
                eprintln!(
                    "{workload} seed {seed} failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                );
                all_correct = false;
                continue;
            }
            let scoped = stdout
                .lines()
                .find_map(|l| l.strip_prefix(SCOPED_PREFIX))
                .unwrap_or("{}");
            runs.push(format!(
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"scoped\": {scoped}, \"result\": {last}}}",
                args.trace as u8
            ));
        }
    }
    let body = format!(
        "{{\"schema\": \"sp-benchmark-results-v1\", \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    );
    if let Err(e) = std::fs::write(out, body) {
        eprintln!("could not write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `workload → metric → [(seed, value)]` of one result file.
struct Results {
    runs: Vec<Run>,
    incorrect: usize,
}

struct Run {
    workload: String,
    seed: u64,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Results {
        runs: Vec::new(),
        incorrect: 0,
    };
    for run in v
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or(format!("{path}: no runs"))?
    {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run without a workload")?;
        let seed = run
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("a run without a seed")?;
        let result = run.get("result").ok_or("a run without a result")?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            out.incorrect += 1;
        }
        let mut metrics = Vec::new();
        for block in [result.get("metrics"), run.get("scoped")]
            .into_iter()
            .flatten()
        {
            if let Value::Obj(fields) = block {
                for (name, m) in fields {
                    if let Some(x) = m.get("value").and_then(Value::as_f64) {
                        metrics.push((name.clone(), x));
                    }
                }
            }
        }
        out.runs.push(Run {
            workload: workload.to_string(),
            seed,
            metrics,
        });
    }
    Ok(out)
}

impl Results {
    fn values(&self, workload: &str, metric: &str) -> Vec<(u64, f64)> {
        self.runs
            .iter()
            .filter(|run| run.workload == workload)
            .filter_map(|run| {
                run.metrics
                    .iter()
                    .find(|(n, _)| n == metric)
                    .map(|(_, x)| (run.seed, *x))
            })
            .collect()
    }
}

/// Quartile distance as a share of the median, when there are runs enough.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let spec = spec();
    let mut rows: Vec<(&str, Better, f64)> = spec
        .end_to_end
        .iter()
        .map(|r| {
            let bound = r.bound.expect("an end-to-end row has a bound");
            (r.name.as_str(), r.better, bound)
        })
        .collect();
    for (name, bound) in SCOPED {
        let row = spec.per_layer.iter().find(|r| r.name == name);
        let row = row.expect("a scoped metric is a per-layer row too");
        rows.push((name, row.better, bound));
    }

    let (mut regressed, mut unresolved, mut differs) = (0, 0, 0);
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse %", "IQR A %", "IQR B %", "bound %"
    );
    for workload in &spec.workloads {
        for (metric, better, bound) in &rows {
            let (va, vb) = (a.values(workload, metric), b.values(workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (xa, xb): (Vec<f64>, Vec<f64>) = (
                va.iter().map(|v| v.1).collect(),
                vb.iter().map(|v| v.1).collect(),
            );
            let (ma, mb) = (
                Samples::new(xa.clone()).median().unwrap(),
                Samples::new(xb.clone()).median().unwrap(),
            );
            let worse = match better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let (sa, sb) = (spread(&xa), spread(&xb));
            // Every run of B better than every run of A resolves a wide spread.
            let lowest = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
            let highest = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
            let b_wins = match better {
                Better::Lower => highest(&xb) < lowest(&xa),
                Better::Higher => highest(&xa) < lowest(&xb),
            };
            let exact = DETERMINISTIC.contains(metric)
                && va.iter().any(|(seed, x)| {
                    vb.iter()
                        .any(|(s, y)| s == seed && x.to_bits() != y.to_bits())
                });
            let verdict = if exact {
                differs += 1;
                "DIFFERS (same seed, other value)"
            } else if worse > *bound {
                regressed += 1;
                "REGRESSED"
            } else if [sa, sb].into_iter().flatten().any(|s| s > *bound) && !b_wins {
                unresolved += 1;
                "unresolved (spread wider than bound)"
            } else {
                "ok"
            };
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |x| format!("{:.2}", x * 100.0));
            println!(
                "{:<15} {:<16} {:>14.4} {:>14.4} {:>8.2} {:>8} {:>8} {:>7.1}  {verdict}",
                workload,
                metric,
                ma,
                mb,
                worse * 100.0,
                pct(sa),
                pct(sb),
                bound * 100.0
            );
        }
    }
    println!(
        "# {regressed} regressed, {unresolved} unresolved, {differs} deterministic mismatches, {} incorrect runs",
        a.incorrect + b.incorrect
    );
    if regressed + differs + a.incorrect + b.incorrect > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
