//! `sp-benchmark`: one benchmark for the whole system (see README.md).
//!
//! ```text
//! sp-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! sp-benchmark all [--seed N] [--repeat R] [--trace 0|1] --out FILE
//! sp-benchmark selfcheck
//! sp-benchmark compare A.json B.json
//! ```

mod batch;
mod compare;
mod report;
mod selfcheck;
mod serve;
mod session;
mod span;
mod spec;
mod stats;

use report::RunResult;
use spec::spec;
use std::process::ExitCode;

/// Where the traced run writes `<workload>.trace.json`.
const OUT_DIR: &str = "benchmark/out";

pub struct Args {
    pub seed: u64,
    /// The op lists are sized for `run_seconds` of `BENCHMARK.json`;
    /// `--seconds` scales them from there.
    pub seconds: u64,
    pub trace: bool,
    /// Small inputs, for `selfcheck`.
    pub reduced: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            seed: 1,
            seconds: spec().run_seconds,
            trace: false,
            reduced: false,
        }
    }
}

/// Host threads of the batch ops: `min(nproc, 4)`.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Set up `reps` times over, discarding all but the last; returns that one
/// and the median set-up time, which is `setup_s`.
pub fn timed_setups<S>(reps: usize, mut make: impl FnMut() -> S, discard: impl Fn(S)) -> (S, f64) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let t = std::time::Instant::now();
        last = Some(make());
        seconds.push(t.elapsed().as_secs_f64());
    }
    let median = stats::Samples::new(seconds)
        .median()
        .expect("at least one set-up");
    (last.expect("at least one set-up"), median)
}

/// splitmix64 of `seed + salt`: every generator and partition seed of a
/// run is one of these, so `--seed` alone fixes all inputs.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An op count scaled from the nominal run length, never below `floor`.
pub fn scaled_ops(nominal: usize, floor: usize, seconds: u64) -> usize {
    let scaled = (nominal as f64 * seconds as f64 / spec().run_seconds as f64).round() as usize;
    scaled.max(floor)
}

pub fn write_trace(args: &Args, workload: &str, tr: &span::Tracer) {
    if args.reduced {
        return;
    }
    let path = format!("{OUT_DIR}/{workload}.trace.json");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tr.to_json(workload)));
    if let Err(e) = written {
        eprintln!("could not write {path}: {e}");
    }
}

pub fn run_workload(name: &str, args: &Args) -> Option<RunResult> {
    let batch = |spec: batch::BatchSpec| {
        batch::run(&if args.reduced { spec.reduced() } else { spec }, args)
    };
    let mut res = match name {
        "sp-grid" => batch(batch::SP_GRID),
        "sp-kkt" => batch(batch::SP_KKT),
        "ml-kkt" => batch(batch::ML_KKT),
        "geo-mesh" => batch(batch::GEO_MESH),
        "serve-mix" => serve::run(args),
        "session-stream" => session::run(args),
        _ => return None,
    };
    if !args.trace {
        // The two end-to-end metrics every workload reads the same way.
        let peak = scalapart::obs::rss::peak_rss_bytes().unwrap_or(0);
        res.metrics
            .set("peak_rss_mb", peak as f64 / (1024.0 * 1024.0));
        let ok = 1.0 - res.failed as f64 / res.attempted.max(1) as f64;
        res.metrics.set("ok_ratio", ok);
    }
    Some(res)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         sp-benchmark all [--seed N] [--seconds S] [--repeat R] [--trace 0|1] --out FILE\n       \
         sp-benchmark selfcheck\n       \
         sp-benchmark compare A.json B.json",
        spec().workloads.join("|")
    );
    ExitCode::from(2)
}

type Flag = (String, String);

/// The command line as `--name value` pairs plus bare words.
fn parse_flags(argv: &[String]) -> Option<(Vec<Flag>, Vec<String>)> {
    let (mut flags, mut words) = (Vec::new(), Vec::new());
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(name) => flags.push((name.to_string(), it.next()?.clone())),
            None => words.push(a.clone()),
        }
    }
    Some((flags, words))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((flags, words)) = parse_flags(&argv) else {
        return usage();
    };
    let mut args = Args::default();
    let (mut workload, mut out, mut repeat) = (None, None, 1usize);
    for (name, value) in &flags {
        let number = value.parse::<u64>();
        match (name.as_str(), number) {
            ("workload", _) => workload = Some(value.clone()),
            ("seed", Ok(n)) => args.seed = n,
            ("seconds", Ok(n)) if n >= 1 => args.seconds = n,
            ("trace", Ok(n)) if n <= 1 => args.trace = n == 1,
            ("repeat", Ok(n)) if n >= 1 => repeat = n as usize,
            ("out", _) => out = Some(value.clone()),
            _ => return usage(),
        }
    }
    match (words.first().map(String::as_str), workload) {
        (None, Some(name)) => match run_workload(&name, &args) {
            Some(res) => {
                println!(
                    "# seed {} seconds {} host threads {} (batch ops)",
                    args.seed,
                    args.seconds,
                    host_threads()
                );
                res.print();
                if res.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            None => usage(),
        },
        (Some("all"), None) => match out {
            Some(out) => compare::run_all(&args, repeat, &out),
            None => usage(),
        },
        (Some("selfcheck"), None) => selfcheck::run(),
        (Some("compare"), None) if words.len() == 3 => compare::run(&words[1], &words[2]),
        _ => usage(),
    }
}
