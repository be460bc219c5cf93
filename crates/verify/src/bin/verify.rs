//! `verify` — run the deterministic-simulation verification suite from the
//! command line. Exit code 0 means every fuzzed schedule produced
//! bit-identical output with zero invariant violations; exit code 1 prints
//! each violation with the seed that replays it.
//!
//! ```text
//! verify [--ranks N] [--schedules N] [--seed HEX] [--graph grid:RxC|delaunay:N]
//!        [--replay HEX] [--skip-perturb] [--skip-passivity] [--skip-parallel]
//!        [--skip-multinode] [--multinode-requests N] [--multinode-shards N]
//!        [--skip-incremental] [--incremental-streams N] [--incremental-steps N]
//!        [--skip-repr] [--self-test]
//! ```

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sp_geometry::Point2;
use sp_graph::gen::{delaunay_graph, grid_2d, grid_2d_coords};
use sp_graph::Graph;
use sp_verify::{
    run_campaign, run_incremental_campaign, run_multinode_campaign, run_once,
    run_parallel_campaign, run_passivity, run_perturbations, run_repr_campaign, FuzzConfig,
    IncrementalFuzzConfig, MultinodeFuzzConfig, ParallelFuzzConfig, ReprFuzzConfig,
};

struct Cli {
    ranks: usize,
    schedules: usize,
    seed: u64,
    graph: String,
    replay: Option<u64>,
    skip_perturb: bool,
    skip_passivity: bool,
    skip_parallel: bool,
    skip_multinode: bool,
    skip_incremental: bool,
    skip_repr: bool,
    multinode_requests: usize,
    multinode_shards: usize,
    incremental_streams: usize,
    incremental_steps: usize,
    self_test: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: verify [--ranks N] [--schedules N] [--seed HEX] \
         [--graph grid:RxC|delaunay:N] [--replay HEX] [--skip-perturb] \
         [--skip-passivity] [--skip-parallel] [--skip-multinode] \
         [--multinode-requests N] [--multinode-shards N] \
         [--skip-incremental] [--incremental-streams N] \
         [--incremental-steps N] [--skip-repr] [--self-test]"
    );
    std::process::exit(2)
}

fn parse_u64(s: &str) -> u64 {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.unwrap_or_else(|_| {
        eprintln!("verify: bad number {s:?}");
        usage()
    })
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        ranks: 16,
        schedules: 8,
        seed: 0x5CA1_AB1E,
        graph: "grid:48x48".to_string(),
        replay: None,
        skip_perturb: false,
        skip_passivity: false,
        skip_parallel: false,
        skip_multinode: false,
        skip_incremental: false,
        skip_repr: false,
        multinode_requests: MultinodeFuzzConfig::default().requests,
        multinode_shards: MultinodeFuzzConfig::default().shards,
        incremental_streams: IncrementalFuzzConfig::default().streams,
        incremental_steps: IncrementalFuzzConfig::default().steps,
        self_test: false,
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
            "--ranks" => cli.ranks = parse_u64(&val()) as usize,
            "--schedules" => cli.schedules = parse_u64(&val()) as usize,
            "--seed" => cli.seed = parse_u64(&val()),
            "--graph" => cli.graph = val(),
            "--replay" => cli.replay = Some(parse_u64(&val())),
            "--skip-perturb" => cli.skip_perturb = true,
            "--skip-passivity" => cli.skip_passivity = true,
            "--skip-parallel" => cli.skip_parallel = true,
            "--skip-multinode" => cli.skip_multinode = true,
            "--skip-incremental" => cli.skip_incremental = true,
            "--skip-repr" => cli.skip_repr = true,
            "--multinode-requests" => cli.multinode_requests = parse_u64(&val()) as usize,
            "--multinode-shards" => cli.multinode_shards = parse_u64(&val()) as usize,
            "--incremental-streams" => cli.incremental_streams = parse_u64(&val()) as usize,
            "--incremental-steps" => cli.incremental_steps = parse_u64(&val()) as usize,
            "--self-test" => cli.self_test = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("verify: unknown flag {other:?}");
                usage()
            }
        }
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
    eprintln!("verify: unknown graph spec {spec:?}");
    usage()
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let (g, coords) = build_graph(&cli.graph);
    let cfg = FuzzConfig {
        ranks: cli.ranks,
        schedules: cli.schedules,
        master_seed: cli.seed,
        corrupt_vertex: None,
        ..FuzzConfig::default()
    };
    println!(
        "verify: graph {} (n={} m={}), {} ranks",
        cli.graph,
        g.n(),
        g.m(),
        cfg.ranks
    );

    if let Some(seed) = cli.replay {
        // Replay a single failing schedule seed from a previous report.
        let run = run_once(&g, &cfg, Some(seed));
        println!(
            "replay seed {seed:#018x}: fingerprint {:#018x}, elapsed {:.6}, {} checkpoint(s)",
            run.fingerprint, run.elapsed, run.checkpoints
        );
        if run.ok() {
            println!("replay: no violations");
            return ExitCode::SUCCESS;
        }
        for v in &run.violations {
            println!("replay: {v}");
        }
        return ExitCode::FAILURE;
    }

    let mut failed = false;

    if cli.self_test {
        // Inject a deliberate fault and demand the checker catches it.
        let mut bad = cfg.clone();
        bad.corrupt_vertex = Some(11);
        let report = run_campaign(&g, &bad);
        let caught = report
            .failures
            .iter()
            .any(|f| f.violations.iter().any(|v| v.invariant == "cut-accounting"));
        let with_seed = report.failures.iter().any(|f| f.seed.is_some());
        if caught && with_seed {
            let f = report.failures.iter().find(|f| f.seed.is_some()).unwrap();
            println!(
                "self-test: OK — corrupted label caught ({} failure(s), replay seed {:#018x})",
                report.failures.len(),
                f.seed.unwrap()
            );
        } else {
            println!("self-test: FAILED — injected corruption was NOT detected");
            failed = true;
        }
    }

    let report = run_campaign(&g, &cfg);
    println!(
        "fuzz: {} run(s) (baseline + {} schedule(s)), {} checkpoint(s)/run, fingerprint {:#018x}",
        report.runs, cfg.schedules, report.checkpoints, report.baseline_fingerprint
    );
    if report.ok() {
        println!("fuzz: all schedules bit-identical, zero violations");
    } else {
        failed = true;
        for f in &report.failures {
            match f.seed {
                Some(s) => println!(
                    "fuzz: FAILED under schedule seed {s:#018x} (replay with --replay {s:#x}):"
                ),
                None => println!("fuzz: FAILED on the baseline schedule:"),
            }
            for v in &f.violations {
                println!("  {v}");
            }
        }
    }

    if !cli.skip_passivity {
        let report = run_passivity(&g, &cfg);
        if report.ok() {
            println!(
                "passivity: {} run pair(s) bit-identical with observability off/on",
                report.runs.len()
            );
        } else {
            failed = true;
            for r in report.failures() {
                let which = match r.seed {
                    Some(s) => format!("schedule seed {s:#018x}"),
                    None => "the baseline schedule".to_string(),
                };
                println!(
                    "passivity: FAILED on {which}: fingerprint off {:#018x} vs on {:#018x}, \
                     elapsed bits {:#x} vs {:#x}",
                    r.fp_off, r.fp_on, r.elapsed_bits_off, r.elapsed_bits_on
                );
            }
        }
    }

    if !cli.skip_parallel {
        let pcfg = ParallelFuzzConfig::with_ranks(cli.ranks);
        let report = run_parallel_campaign(&g, &pcfg);
        if report.ok() {
            println!(
                "parallel: {} run(s) (serial baseline + batches {:?} × threads {:?}) \
                 bit-identical, fingerprint {:#018x}; {} 8-way run(s) beside them \
                 (SP-PG7-NL on a Delaunay mesh, ParMetis-like on this graph), labels \
                 and root simulated time bit-identical",
                report.runs,
                pcfg.batches,
                pcfg.threads,
                report.baseline_fingerprint,
                report.kway_runs
            );
        } else {
            failed = true;
            for f in &report.failures {
                println!("parallel: FAILED at {f}");
            }
        }
    }

    if !cli.skip_multinode {
        let mcfg = MultinodeFuzzConfig {
            shards: cli.multinode_shards,
            requests: cli.multinode_requests,
            master_seed: cli.seed,
            ..MultinodeFuzzConfig::default()
        };
        let report = run_multinode_campaign(&mcfg);
        if report.passed() {
            println!("multinode: OK — {report}");
        } else {
            failed = true;
            println!("multinode: FAILED — {report}");
            for f in &report.failures {
                println!("multinode:   {f}");
            }
        }
    }

    if !cli.skip_incremental {
        let icfg = IncrementalFuzzConfig {
            streams: cli.incremental_streams,
            steps: cli.incremental_steps,
            seed: cli.seed,
            ..IncrementalFuzzConfig::default()
        };
        let report = run_incremental_campaign(&g, Some(&coords), &icfg);
        if report.ok() {
            println!(
                "incremental: {} step(s) across {} stream(s) ({} incremental, {} full) \
                 bit-identical over threads {:?}, overlay == compacted CSR, \
                 batch framing invisible, rejected batches invisible, cut within \
                 {}x+{} of scratch, fingerprint {:#018x}",
                report.steps_run,
                icfg.streams,
                report.incremental_steps,
                report.full_steps,
                icfg.threads,
                icfg.cut_factor,
                icfg.cut_slack,
                report.fingerprint
            );
        } else {
            failed = true;
            for f in &report.failures {
                println!("incremental: FAILED at {f}");
            }
        }
    }

    if !cli.skip_repr {
        let rcfg = ReprFuzzConfig {
            ranks: cli.ranks,
            ..ReprFuzzConfig::default()
        };
        let report = run_repr_campaign(&g, &rcfg);
        if report.ok() {
            println!(
                "repr: {} pipeline run(s) (reference + compact × threads {:?}) \
                 bit-identical, graph fp {:#018x}, compact {} KiB vs reference {} KiB",
                report.runs,
                rcfg.threads,
                report.graph_fingerprint,
                report.compact_bytes / 1024,
                report.reference_bytes / 1024
            );
        } else {
            failed = true;
            for f in &report.failures {
                println!("repr: FAILED: {f}");
            }
        }
    }

    if !cli.skip_perturb {
        let report = run_perturbations(&g, &cfg);
        for s in &report.scenarios {
            if s.ok() {
                println!("perturb: {} OK", s.name);
            } else {
                failed = true;
                for v in &s.violations {
                    println!("perturb: {} FAILED: {v}", s.name);
                }
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
