//! `scalapart` — command-line partitioner.
//!
//! Partition a graph file (Chaco/Metis or MatrixMarket) into k parts with
//! any of the methods from the paper's evaluation, on a simulated P-rank
//! machine; writes one part id per line (vertex order) to `--out`.
//!
//! The simulated machine is observable: `--trace` dumps a Chrome
//! trace-event JSON (one lane per simulated rank; open it at
//! <https://ui.perfetto.dev>) and `--metrics` dumps per-phase and per-rank
//! counters as JSON. Instead of a file, a graph spec builds the graph
//! in-process: `gen:grid:WxH` a grid W vertices wide and H high (with
//! coordinates), `suite:name[:scale]` a graph of the evaluation suite.
//!
//! Examples:
//!   scalapart mesh.graph --parts 8 --ranks 64 --out mesh.part
//!   scalapart power.mtx --format mm --method ptscotch --parts 2
//!   scalapart mesh.graph --coords mesh.xy --method rcb --parts 16
//!   scalapart gen:grid:64x64 --ranks 16 --trace run.trace.json --metrics run.metrics.json

use scalapart::machine::{CostModel, Machine, Metrics, TraceRecorder};
use scalapart::obs::{JsonlLog, Record};
use scalapart::{recursive_kway_checked_on, Method, ProfilingObserver};
use sp_geometry::Point2;
use sp_graph::io::{read_chaco, read_coords, read_matrix_market};
use sp_graph::{parse_graph_spec, Graph};
use std::io::BufReader;
use std::path::PathBuf;

struct Args {
    input: String,
    format: String,
    method: Method,
    parts: usize,
    ranks: usize,
    coords: Option<PathBuf>,
    out: Option<PathBuf>,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    obs_log: Option<PathBuf>,
    seed: u64,
}

const USAGE_HINT: &str =
    "usage: scalapart <graph-file | gen:grid:WxH | suite:name[:scale]> [--method M] [--parts K] [options]; try --help";

/// Usage/input errors: one line of diagnosis, one line of hint, exit 2 —
/// never a panic or a wall of text.
fn fail(msg: &str) -> ! {
    eprintln!("scalapart: {msg}");
    eprintln!("{USAGE_HINT}");
    std::process::exit(2);
}

fn usage() -> ! {
    println!(
        "usage: scalapart <graph-file | gen:grid:WxH | suite:name[:scale]> [options]\n\
         \n\
         options:\n\
           --format chaco|mm       input format (default: by extension, .mtx = mm)\n\
           --method sp|sp-pg7nl|rcb|parmetis|ptscotch|g30|g7|g7nl   (default sp)\n\
           --parts K               number of parts (default 2)\n\
           --ranks P               simulated ranks (default 64)\n\
           --coords FILE           x-y coordinate file (one pair per line)\n\
           --out FILE              write part ids here (default: stdout summary only)\n\
           --json FILE             write labels + quality summary as JSON\n\
                                   (schema sp-partition-v1, shared with sp-serve)\n\
           --trace FILE            write Chrome trace-event JSON of the simulated run\n\
                                   (load in chrome://tracing or ui.perfetto.dev)\n\
           --metrics FILE          write per-phase / per-rank metrics JSON\n\
           --obs-log FILE          append host-runtime JSONL records (run_start,\n\
                                   phase_profile with per-phase wall ms + RSS, run_done)\n\
           --seed N                RNG seed (default 42)"
    );
    std::process::exit(0);
}

fn parse_args() -> Args {
    let mut args = Args {
        input: String::new(),
        format: String::new(),
        method: Method::ScalaPart,
        parts: 2,
        ranks: 64,
        coords: None,
        out: None,
        json: None,
        trace: None,
        metrics: None,
        obs_log: None,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    let mut have_input = false;
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => args.format = value(&mut it, "--format"),
            "--method" => {
                let name = value(&mut it, "--method");
                args.method = Method::parse(&name)
                    .unwrap_or_else(|| fail(&format!("unknown method '{name}'")));
            }
            "--parts" => {
                let v = value(&mut it, "--parts");
                args.parts = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad value for --parts: '{v}'")));
            }
            "--ranks" => {
                let v = value(&mut it, "--ranks");
                args.ranks = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad value for --ranks: '{v}'")));
                if args.ranks == 0 {
                    fail("--ranks must be at least 1");
                }
            }
            "--coords" => args.coords = Some(PathBuf::from(value(&mut it, "--coords"))),
            "--out" => args.out = Some(PathBuf::from(value(&mut it, "--out"))),
            "--json" => args.json = Some(PathBuf::from(value(&mut it, "--json"))),
            "--trace" => args.trace = Some(PathBuf::from(value(&mut it, "--trace"))),
            "--metrics" => args.metrics = Some(PathBuf::from(value(&mut it, "--metrics"))),
            "--obs-log" => args.obs_log = Some(PathBuf::from(value(&mut it, "--obs-log"))),
            "--seed" => {
                let v = value(&mut it, "--seed");
                args.seed = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad value for --seed: '{v}'")));
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => fail(&format!("unknown flag '{other}'")),
            other if !have_input => {
                args.input = other.to_string();
                have_input = true;
            }
            other => fail(&format!("unexpected argument '{other}'")),
        }
    }
    if !have_input {
        fail("no input graph given");
    }
    if args.format.is_empty() {
        args.format = if args.input.ends_with(".mtx") {
            "mm".into()
        } else {
            "chaco".into()
        };
    }
    args
}

fn load_graph(args: &Args) -> (Graph, Option<Vec<Point2>>) {
    if args.input.starts_with("gen:") || args.input.starts_with("suite:") {
        return parse_graph_spec(&args.input)
            .unwrap_or_else(|e| fail(&format!("bad graph spec '{}': {e}", args.input)));
    }
    let file = std::fs::File::open(&args.input)
        .unwrap_or_else(|e| fail(&format!("cannot open {}: {e}", args.input)));
    let reader = BufReader::new(file);
    let graph = match args.format.as_str() {
        "chaco" => read_chaco(reader),
        "mm" => read_matrix_market(reader),
        other => fail(&format!("unknown format '{other}'")),
    }
    .unwrap_or_else(|e| fail(&format!("cannot parse {}: {e}", args.input)));
    let coords = args.coords.as_ref().map(|p| {
        let f = std::fs::File::open(p)
            .unwrap_or_else(|e| fail(&format!("cannot open {}: {e}", p.display())));
        let c = read_coords(BufReader::new(f))
            .unwrap_or_else(|e| fail(&format!("cannot parse {}: {e}", p.display())));
        if c.len() != graph.n() {
            fail(&format!(
                "coords cover {} of {} vertices",
                c.len(),
                graph.n()
            ));
        }
        c
    });
    (graph, coords)
}

fn write_file(path: &PathBuf, body: &str, what: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
    eprintln!("wrote {} ({})", path.display(), what);
}

fn main() {
    let args = parse_args();
    let (graph, coords) = load_graph(&args);
    if args.parts == 0 || args.parts > graph.n() {
        fail(&format!(
            "--parts must be in 1..={} (the vertex count), got {}",
            graph.n(),
            args.parts
        ));
    }
    eprintln!(
        "loaded {}: N = {}, M = {}",
        args.input,
        graph.n(),
        graph.m()
    );

    let mut machine = Machine::new(args.ranks, CostModel::qdr_infiniband());
    let observing = args.trace.is_some() || args.metrics.is_some();
    if observing {
        machine.set_recorder(Box::new(TraceRecorder::new(machine.p())));
    }

    let obs_log = args.obs_log.as_ref().map(|p| {
        let path = p.to_string_lossy();
        let log = JsonlLog::open(&path)
            .unwrap_or_else(|e| fail(&format!("cannot open obs log {path}: {e}")));
        log.emit(
            Record::new("run_start")
                .str("input", &args.input)
                .str("method", args.method.name())
                .u64("parts", args.parts as u64)
                .u64("ranks", args.ranks as u64)
                .u64("seed", args.seed)
                .u64("n", graph.n() as u64)
                .u64("m", graph.m() as u64),
        );
        log
    });

    let t0 = std::time::Instant::now();
    // Every run is profiled: the profiling observer only samples clocks/RSS
    // at checkpoints, forks as an unwatched run does and never cancels, so
    // results are those of an unwatched run (sp-verify fuzzes this).
    let mut prof = ProfilingObserver::new();
    let kp = recursive_kway_checked_on(
        args.method,
        &graph,
        coords.as_deref(),
        args.parts,
        args.seed,
        &mut machine,
        &mut prof,
    )
    .expect("profiling observer never cancels");
    let wall = t0.elapsed();
    kp.validate(&graph).unwrap_or_else(|e| {
        eprintln!("internal error: invalid partition: {e}");
        std::process::exit(1);
    });

    let sim = machine.elapsed();
    let stats = machine.stats();
    let recorder = machine.take_recorder().and_then(TraceRecorder::downcast);
    if args.parts > 2 && observing {
        eprintln!(
            "note: trace/metrics cover the root bisection (k = {} recurses on fresh machines)",
            args.parts
        );
    }
    if let Some(path) = &args.trace {
        let rec = recorder.as_deref().expect("recorder was installed");
        write_file(
            path,
            &rec.chrome_trace(),
            "Chrome trace JSON — open in ui.perfetto.dev",
        );
    }
    if let Some(path) = &args.metrics {
        let metrics = Metrics::build(&stats, recorder.as_deref());
        write_file(path, &metrics.to_json(), "metrics JSON");
    }

    if let Some(log) = &obs_log {
        let mut rec = Record::new("phase_profile");
        rec.str("input", &args.input)
            .str("method", args.method.name())
            .json("phases", &prof.profiler().to_json())
            .json("coarsen_levels", &prof.level_stats_json())
            .f64("total_wall_ms", wall.as_secs_f64() * 1e3);
        if let Some(peak) = scalapart::obs::rss::peak_rss_bytes() {
            rec.f64("peak_rss_mb", scalapart::obs::rss::bytes_to_mib(peak));
        }
        log.emit(&rec);
        log.emit(
            Record::new("run_done")
                .str("input", &args.input)
                .u64("cut", kp.cut_edges(&graph) as u64)
                .f64("sim_time", sim)
                .f64("wall_ms", wall.as_secs_f64() * 1e3),
        );
    }

    println!("method     : {}", args.method.name());
    println!("parts      : {}", args.parts);
    println!("ranks      : {}", args.ranks);
    println!("edge cut   : {}", kp.cut_edges(&graph));
    println!("comm volume: {}", kp.comm_volume(&graph));
    println!("imbalance  : {:.4}", kp.imbalance(&graph));
    println!("sim time   : {sim:.6}s");
    println!("wall time  : {wall:.2?}");
    if let Some(out) = args.out {
        let body: String = kp.part.iter().map(|p| format!("{p}\n")).collect();
        write_file(&out, &body, "part ids");
    }
    if let Some(path) = args.json {
        // Same serialization path as the sp-serve response body.
        write_file(
            &path,
            &kp.to_json(&graph),
            "partition JSON (sp-partition-v1)",
        );
    }
}
