//! sp-serve binary: run the partitioning daemon or talk to one.
//!
//! ```text
//! sp-serve serve   --addr 127.0.0.1:7070 [--workers N] [--queue N]
//!                  [--cache N] [--ranks N] [--deadline-ms N] [--metrics FILE]
//!                  [--obs-log FILE]
//! sp-serve submit  --addr 127.0.0.1:7070 --graph gen:grid:32x32
//!                  --method sp --parts 4 [--seed N] [--deadline-ms N]
//!                  [--chaco FILE]
//! sp-serve metrics --addr 127.0.0.1:7070
//! sp-serve shutdown --addr 127.0.0.1:7070
//! sp-serve route   --addr 127.0.0.1:7071 --shard a=127.0.0.1:7070
//!                  [--shard b=HOST:PORT ...] [--health-ms N]
//!                  [--forward-timeout-ms N]
//! ```

use sp_serve::net::{resolve, Client, Server};
use sp_serve::router::{Router, RouterConfig, RouterServer};
use sp_serve::service::ServeConfig;
use sp_trace::json::escape;
use std::process::ExitCode;

const USAGE_HINT: &str =
    "usage: sp-serve <serve|submit|metrics|shutdown|route> --addr HOST:PORT [options]; see --help";

const HELP: &str = "\
sp-serve: long-running partitioning service

subcommands:
  serve      run the daemon (one shard)
  submit     submit one partitioning job and print the response
  metrics    print the Prometheus text exposition of the counters
  shutdown   drain the queue and stop the daemon
  route      run the distributed-serving router over backend shards

serve options:
  --addr HOST:PORT     listen address (default 127.0.0.1:7070)
  --workers N          worker threads (default 2)
  --queue N            bounded queue depth (default 16)
  --cache N            LRU result-cache entries (default 64)
  --ranks N            simulated ranks per job (default 8)
  --deadline-ms N      default per-job deadline (default 30000)
  --metrics FILE       write the final Prometheus exposition once drained
  --obs-log FILE       append structured JSONL job records (job_submitted,
                       job_start, phase_profile, job_done, cache_evict);
                       every job runs under the per-phase wall/RSS profiler

submit options:
  --addr HOST:PORT     server address
  --graph SPEC         gen:grid:WxH or suite:name[:scale]
  --chaco FILE         submit a Chaco graph file instead of --graph
  --method NAME        sp | sp-pg7nl | rcb | parmetis | ptscotch | g30 | g7 | g7nl
  --parts N            number of parts
  --seed N             RNG seed (default 1)
  --deadline-ms N      per-job deadline

route options:
  --addr HOST:PORT     router listen address (default 127.0.0.1:7071)
  --shard NAME=ADDR    a backend shard (repeat per shard; at least one)
  --health-ms N        health-probe period, 0 disables (default 500)
  --forward-timeout-ms N
                       per-attempt shard socket timeout (default 30000)

The router consistent-hashes each submit's cache key across live shards
and relays responses byte-identically; submit/shutdown work against the
router address exactly as against a single shard. metrics against a router
prints the router's own routing counters; scrape each shard for its own.";

fn fail(msg: &str) -> ExitCode {
    eprintln!("sp-serve: {msg}");
    eprintln!("{USAGE_HINT}");
    ExitCode::from(2)
}

struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Pull the value of `--flag`, if present.
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        match self.argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => {
                if i + 1 >= self.argv.len() {
                    return Err(format!("{flag} needs a value"));
                }
                self.argv.remove(i);
                Ok(Some(self.argv.remove(i)))
            }
        }
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.take(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {flag}: {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    if argv.is_empty() {
        return fail("missing subcommand");
    }
    let sub = argv.remove(0);
    let mut args = Args { argv };
    let run = match sub.as_str() {
        "serve" => cmd_serve(&mut args),
        "submit" => cmd_submit(&mut args),
        "metrics" => cmd_metrics(&mut args),
        "shutdown" => cmd_roundtrip(&mut args, "{\"type\": \"shutdown\"}"),
        "route" => cmd_route(&mut args),
        other => return fail(&format!("unknown subcommand {other:?}")),
    };
    match run {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}

fn cmd_serve(args: &mut Args) -> Result<ExitCode, String> {
    let addr = args
        .take("--addr")?
        .unwrap_or_else(|| "127.0.0.1:7070".into());
    let metrics_path = args.take("--metrics")?;
    let mut cfg = ServeConfig::default();
    if let Some(v) = args.take_parsed("--workers")? {
        cfg.workers = v;
    }
    if let Some(v) = args.take_parsed("--queue")? {
        cfg.queue_capacity = v;
    }
    if let Some(v) = args.take_parsed("--cache")? {
        cfg.cache_capacity = v;
    }
    if let Some(v) = args.take_parsed("--ranks")? {
        cfg.ranks = v;
    }
    if let Some(v) = args.take_parsed("--deadline-ms")? {
        cfg.default_deadline_ms = v;
    }
    cfg.obs_log = args.take("--obs-log")?;
    args_done(args)?;
    let server = Server::bind(&addr, cfg).map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    eprintln!("sp-serve: listening on {}", server.local_addr());
    server.wait();
    let stats = server.service().stats();
    eprintln!(
        "sp-serve: drained; {} completed, {} cache hits, {} rejected, {} timeouts",
        stats.completed, stats.cache_hits, stats.rejected, stats.timeouts
    );
    if let Some(path) = metrics_path {
        std::fs::write(&path, server.service().prometheus())
            .map_err(|e| format!("cannot write metrics to {path:?}: {e}"))?;
        eprintln!("sp-serve: metrics written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_route(args: &mut Args) -> Result<ExitCode, String> {
    let addr = args
        .take("--addr")?
        .unwrap_or_else(|| "127.0.0.1:7071".into());
    let mut shards: Vec<(String, String)> = Vec::new();
    while let Some(spec) = args.take("--shard")? {
        let (name, shard_addr) = spec
            .split_once('=')
            .ok_or_else(|| format!("--shard wants NAME=HOST:PORT, got {spec:?}"))?;
        if name.is_empty() || shards.iter().any(|(n, _)| n == name) {
            return Err(format!("shard name {name:?} is empty or repeated"));
        }
        shards.push((name.to_string(), shard_addr.to_string()));
    }
    if shards.is_empty() {
        return Err("route needs at least one --shard NAME=ADDR".into());
    }
    let mut cfg = RouterConfig::default();
    if let Some(v) = args.take_parsed("--health-ms")? {
        cfg.health_interval_ms = v;
    }
    if let Some(v) = args.take_parsed("--forward-timeout-ms")? {
        cfg.forward_timeout_ms = v;
    }
    args_done(args)?;
    let router = Router::new(cfg, &shards).map_err(|e| format!("cannot start router: {e}"))?;
    let server =
        RouterServer::bind(&addr, router).map_err(|e| format!("cannot bind {addr:?}: {e}"))?;
    eprintln!(
        "sp-serve: routing on {} across {} shard(s)",
        server.local_addr(),
        shards.len()
    );
    server.wait();
    eprintln!("sp-serve: router stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &mut Args) -> Result<ExitCode, String> {
    let addr = args.take("--addr")?.ok_or("submit needs --addr")?;
    let graph = args.take("--graph")?;
    let chaco = args.take("--chaco")?;
    let method = args.take("--method")?.ok_or("submit needs --method")?;
    let parts: usize = args.take_parsed("--parts")?.ok_or("submit needs --parts")?;
    let seed: u64 = args.take_parsed("--seed")?.unwrap_or(1);
    let deadline: Option<u64> = args.take_parsed("--deadline-ms")?;
    args_done(args)?;

    let mut req = String::from("{\"type\": \"submit\"");
    match (graph, chaco) {
        (Some(g), None) => req.push_str(&format!(", \"graph\": \"{}\"", escape(&g))),
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            req.push_str(&format!(", \"chaco\": \"{}\"", escape(&text)));
        }
        (Some(_), Some(_)) => return Err("give either --graph or --chaco, not both".into()),
        (None, None) => return Err("submit needs --graph or --chaco".into()),
    }
    req.push_str(&format!(
        ", \"method\": \"{}\", \"parts\": {parts}, \"seed\": {seed}",
        escape(&method)
    ));
    if let Some(d) = deadline {
        req.push_str(&format!(", \"deadline_ms\": {d}"));
    }
    req.push('}');

    let reply = roundtrip(&addr, &req)?;
    println!("{reply}");
    // Exit 0 only for an ok result so scripts can branch on outcome.
    if reply.contains("\"status\": \"ok\"") {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_metrics(args: &mut Args) -> Result<ExitCode, String> {
    let addr = args.take("--addr")?.ok_or("need --addr")?;
    args_done(args)?;
    let reply = roundtrip(&addr, "{\"type\": \"metrics\"}")?;
    // Unwrap the exposition text from the response frame's body field.
    let v = sp_serve::json::Value::parse(&reply).map_err(|e| format!("bad response: {e}"))?;
    match v.get("body").and_then(sp_serve::json::Value::as_str) {
        Some(body) => {
            print!("{body}");
            Ok(ExitCode::SUCCESS)
        }
        None => Err(format!("response has no metrics body: {reply}")),
    }
}

fn cmd_roundtrip(args: &mut Args, req: &str) -> Result<ExitCode, String> {
    let addr = args.take("--addr")?.ok_or("need --addr")?;
    args_done(args)?;
    println!("{}", roundtrip(&addr, req)?);
    Ok(ExitCode::SUCCESS)
}

fn roundtrip(addr: &str, req: &str) -> Result<String, String> {
    let addr = resolve(addr).map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut client = Client::connect(&addr).map_err(|e| format!("cannot connect: {e}"))?;
    client
        .request(req)
        .map_err(|e| format!("request failed: {e}"))
}

fn args_done(args: &mut Args) -> Result<(), String> {
    match args.argv.first() {
        None => Ok(()),
        Some(a) => Err(format!("unknown argument {a:?}")),
    }
}
