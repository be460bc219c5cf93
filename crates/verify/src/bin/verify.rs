//! `verify` — run the deterministic-simulation verification suite from the
//! command line. Exit code 0 means every selected stage held; exit code 1
//! prints each failure with the seed that replays it; exit code 2 is a
//! usage error.
//!
//! ```text
//! verify [--ranks N] [--schedules N] [--seed HEX] [--graph grid:RxC|delaunay:N|trace:N]
//!        [--replay HEX] [--stages fuzz,passivity,...] [--self-test]
//!        [--multinode-requests N] [--multinode-shards N]
//!        [--incremental-streams N] [--incremental-steps N]
//! ```

use std::cell::OnceCell;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_geometry::Point2;
use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords, trace_mesh};
use sp_graph::Graph;
use sp_verify::multinode::{MIN_REQUESTS, SHARDS};
use sp_verify::{
    run_campaign, run_incremental_campaign, run_multinode_campaign, run_once,
    run_parallel_campaign, run_passivity, run_perturbations, run_repr_campaign, Baseline,
    FuzzConfig, IncrementalFuzzConfig, MultinodeFuzzConfig, Report, Run,
};

/// What every stage reads: the graph, the campaign settings, and the
/// baseline, computed the first time a stage asks for it.
struct Inputs {
    g: Graph,
    coords: Vec<Point2>,
    fuzz: FuzzConfig,
    multinode: MultinodeFuzzConfig,
    incremental: IncrementalFuzzConfig,
    baseline: OnceCell<Baseline>,
}

impl Inputs {
    fn baseline(&self) -> &Baseline {
        self.baseline.get_or_init(|| {
            let b = Baseline::compute(&self.g, self.fuzz.ranks);
            println!(
                "baseline: fingerprint {:#018x}, simulated {:.6}s (serial, no observer)",
                b.fingerprint, b.elapsed
            );
            b
        })
    }
}

type Stage = (&'static str, fn(&Inputs) -> Report);

/// Every stage, in the order they run.
const STAGES: [Stage; 7] = [
    ("fuzz", |i| run_campaign(&i.g, &i.fuzz, i.baseline())),
    ("passivity", |i| run_passivity(&i.g, &i.fuzz, i.baseline())),
    ("parallel", |i| {
        run_parallel_campaign(&i.g, i.fuzz.ranks, i.baseline())
    }),
    ("multinode", |i| run_multinode_campaign(&i.multinode)),
    ("incremental", |i| {
        run_incremental_campaign(&i.g, Some(&i.coords), &i.incremental)
    }),
    ("repr", |i| run_repr_campaign(&i.g)),
    ("perturb", |i| {
        run_perturbations(&i.g, &i.fuzz, i.baseline())
    }),
];

struct Cli {
    graph: String,
    replay: Option<u64>,
    stages: Vec<String>,
    self_test: bool,
    fuzz: FuzzConfig,
    multinode: MultinodeFuzzConfig,
    incremental: IncrementalFuzzConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: verify [--ranks N] [--schedules N] [--seed HEX] \
         [--graph grid:RxC|delaunay:N|trace:N] [--replay HEX] [--stages fuzz,passivity,...] \
         [--self-test] [--multinode-requests N] [--multinode-shards N] \
         [--incremental-streams N] [--incremental-steps N]"
    );
    std::process::exit(2)
}

/// A usage error: one line naming it, then exit 2.
fn reject(msg: String) -> ! {
    eprintln!("verify: {msg}");
    std::process::exit(2)
}

fn parse_u64(s: &str) -> u64 {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.unwrap_or_else(|_| reject(format!("bad number {s:?}")))
}

fn parse_cli() -> Cli {
    let fuzz = FuzzConfig::default();
    let mut cli = Cli {
        graph: "grid:48x48".to_string(),
        replay: None,
        stages: STAGES.iter().map(|(name, _)| name.to_string()).collect(),
        self_test: false,
        multinode: MultinodeFuzzConfig {
            master_seed: fuzz.master_seed,
            ..MultinodeFuzzConfig::default()
        },
        incremental: IncrementalFuzzConfig {
            seed: fuzz.master_seed,
            ..IncrementalFuzzConfig::default()
        },
        fuzz,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || {
            args.next().unwrap_or_else(|| {
                eprintln!("verify: missing value");
                usage()
            })
        };
        match a.as_str() {
            "--ranks" => cli.fuzz.ranks = parse_u64(&val()) as usize,
            "--schedules" => cli.fuzz.schedules = parse_u64(&val()) as usize,
            "--seed" => {
                let seed = parse_u64(&val());
                cli.fuzz.master_seed = seed;
                cli.multinode.master_seed = seed;
                cli.incremental.seed = seed;
            }
            "--graph" => cli.graph = val(),
            "--replay" => cli.replay = Some(parse_u64(&val())),
            "--stages" => cli.stages = val().split(',').map(str::to_string).collect(),
            "--self-test" => cli.self_test = true,
            "--multinode-requests" => cli.multinode.requests = parse_u64(&val()) as usize,
            "--multinode-shards" => cli.multinode.shards = parse_u64(&val()) as usize,
            "--incremental-streams" => cli.incremental.streams = parse_u64(&val()) as usize,
            "--incremental-steps" => cli.incremental.steps = parse_u64(&val()) as usize,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("verify: unknown flag {other:?}");
                usage()
            }
        }
    }
    if cli.fuzz.ranks == 0 {
        reject("--ranks must be at least 1".to_string());
    }
    if !SHARDS.contains(&cli.multinode.shards) {
        reject(format!(
            "--multinode-shards must be in {}..={}, not {}",
            SHARDS.start(),
            SHARDS.end(),
            cli.multinode.shards
        ));
    }
    if cli.multinode.requests < MIN_REQUESTS {
        reject(format!(
            "--multinode-requests must be at least {MIN_REQUESTS}, not {}",
            cli.multinode.requests
        ));
    }
    if let Some(bad) = cli
        .stages
        .iter()
        .find(|s| !STAGES.iter().any(|(n, _)| n == s))
    {
        let names: Vec<&str> = STAGES.iter().map(|(name, _)| *name).collect();
        reject(format!(
            "unknown stage {bad:?} (stages: {})",
            names.join(",")
        ));
    }
    cli
}

fn build_graph(spec: &str) -> (Graph, Vec<Point2>) {
    if let Some(dims) = spec.strip_prefix("grid:") {
        let (r, c) = dims.split_once('x').unwrap_or_else(|| usage());
        let (r, c) = (parse_u64(r) as usize, parse_u64(c) as usize);
        return (grid_2d(r, c), grid_2d_coords(r, c));
    }
    if let Some(n) = spec.strip_prefix("delaunay:") {
        let mut rng = StdRng::seed_from_u64(0xDE1A);
        return delaunay_graph(parse_u64(n) as usize, &mut rng);
    }
    if let Some(n) = spec.strip_prefix("trace:") {
        // The meshed ribbon of the `geo-mesh` benchmark's family.
        let mut rng = StdRng::seed_from_u64(0x7ACE);
        return trace_mesh(parse_u64(n) as usize, &mut rng);
    }
    reject(format!("unknown graph spec {spec:?}"))
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let (g, coords) = build_graph(&cli.graph);
    println!(
        "verify: graph {} (n={} m={}), {} ranks",
        cli.graph,
        g.n(),
        g.m(),
        cli.fuzz.ranks
    );

    if let Some(seed) = cli.replay {
        // Replay a single failing schedule seed from a previous report.
        let run = run_once(&g, &cli.fuzz, Run::Schedule(seed));
        println!(
            "replay seed {seed:#018x}: fingerprint {:#018x}, elapsed {:.6}, {} checkpoint(s)",
            run.fingerprint, run.elapsed, run.checkpoints
        );
        if run.violations.is_empty() {
            println!("replay: no violations");
            return ExitCode::SUCCESS;
        }
        for v in &run.violations {
            println!("replay: {v}");
        }
        return ExitCode::FAILURE;
    }

    let inputs = Inputs {
        g,
        coords,
        fuzz: cli.fuzz,
        multinode: cli.multinode,
        incremental: cli.incremental,
        baseline: OnceCell::new(),
    };
    let mut failed = false;

    if cli.self_test {
        // Inject a deliberate fault and demand the checker catches it,
        // with a replay seed.
        let bad = FuzzConfig {
            corrupt_vertex: Some(11),
            ..inputs.fuzz.clone()
        };
        let report = run_campaign(&inputs.g, &bad, inputs.baseline());
        let caught = report
            .failures
            .iter()
            .find(|f| f.invariant == "cut-accounting" && f.seed.is_some());
        match caught.and_then(|f| f.seed) {
            Some(seed) => println!(
                "self-test: OK — corrupted label caught ({} failure(s), replay seed {seed:#018x})",
                report.failures.len()
            ),
            None => {
                println!("self-test: FAILED — injected corruption was NOT detected");
                failed = true;
            }
        }
    }

    for (name, run) in STAGES {
        if !cli.stages.iter().any(|s| s == name) {
            continue;
        }
        let report = run(&inputs);
        if report.ok() {
            println!("{name}: {}", report.summary);
        } else {
            failed = true;
            for f in &report.failures {
                println!("{f}");
            }
        }
    }

    if failed {
        println!("verify: FAILED");
        ExitCode::FAILURE
    } else {
        println!("verify: all checks passed");
        ExitCode::SUCCESS
    }
}
