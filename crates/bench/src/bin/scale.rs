//! Paper-scale memory sweep: generate each synthetic suite family up to
//! the published vertex counts and record, per size, the wall time and
//! peak RSS of each pipeline-front phase — generation (the parallel
//! direct-CSR builders), compact conversion ([`CompactGraph`]), and
//! arena-backed coarsening — plus the bytes held by the compact versus
//! reference representation and the coarsening arena's scratch
//! high-water. Results land in `BENCH_4.json` at the repo root.
//!
//! Flags:
//!
//! * `--quick` — CI smoke sizes (seconds, not minutes). The committed
//!   `BENCH_4.json` comes from a full run, which reaches the 2^22-vertex
//!   grid and Delaunay instances.
//! * `--assert-rss-mb MB` — exit non-zero if any row's generator adds
//!   more than the budget to the process RSS (CI runs `--quick` with a
//!   budget so memory regressions fail the build).
//!
//! Peak-RSS methodology: each measurement resets the kernel's peak
//! counter (`/proc/self/clear_refs`), records the *base* RSS at reset, and reports both the absolute peak and the
//! delta over base — the delta is what the phase itself added, robust
//! against heap retained from earlier rows. Where the reset write is
//! unavailable the row records `rss_reset: false` and the absolute peak
//! degrades to the process-lifetime high-water mark.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scalapart::coarsen::{CoarsenArena, CoarsenConfig, Hierarchy};
use scalapart::graph::gen::{delaunay_graph, grid_2d, kkt_graph, trace_mesh};
use scalapart::graph::{CompactGraph, Graph};
use scalapart::obs::rss;
use std::time::Instant;

/// One peak-RSS measurement window: reset, run, read.
struct RssWindow {
    reset: bool,
    base_mb: f64,
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

impl RssWindow {
    fn open() -> RssWindow {
        let reset = rss::reset_peak();
        RssWindow {
            reset,
            base_mb: rss::current_rss_bytes().map_or(0.0, mb),
        }
    }

    /// Absolute peak (MiB) and delta over the base at reset.
    fn close(&self) -> (Option<f64>, Option<f64>) {
        let peak = rss::peak_rss_bytes().map(mb);
        (peak, peak.map(|p| (p - self.base_mb).max(0.0)))
    }
}

/// Approximate heap bytes of the reference representation (xadj + adjncy
/// + ewgt + vwgt at their natural widths).
fn reference_bytes(g: &Graph) -> usize {
    (g.n() + 1) * 8 + g.n() * 8 + 2 * g.m() * (4 + 8)
}

struct SweepRow {
    json: String,
    n: usize,
    m: usize,
    /// What generation added to the RSS at the window's reset, in MiB.
    gen_delta: Option<f64>,
}

/// Generate one family instance and run it through compact conversion
/// and arena coarsening, timing each phase.
fn sweep_row(family: &str, label: &str, generate: impl FnOnce() -> Graph) -> SweepRow {
    let win = RssWindow::open();

    let t = Instant::now();
    let g = generate();
    let wall_gen = t.elapsed().as_secs_f64() * 1e3;
    let (gen_peak, gen_delta) = win.close();

    let t = Instant::now();
    let compact = CompactGraph::from_graph(&g);
    let wall_compact = t.elapsed().as_secs_f64() * 1e3;
    let compact_bytes = compact.heap_bytes();
    let ref_bytes = reference_bytes(&g);
    drop(compact);

    let t = Instant::now();
    let mut arena = CoarsenArena::new();
    let h = Hierarchy::build_with_arena(&g, &CoarsenConfig::default(), &mut arena);
    let wall_coarsen = t.elapsed().as_secs_f64() * 1e3;
    let levels = h.depth();
    let coarsest_n = h.coarsest().n();
    let arena_bytes = arena.high_water_bytes();
    drop(h);

    let (peak, _) = win.close();
    // MiB with one decimal, or `null` where the platform has no `/proc`.
    let fmt_opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.1}"),
        None => "null".to_string(),
    };
    eprintln!(
        "{label}: n={} m={} | gen {wall_gen:.0} ms (peak {} MiB, +{} MiB) | \
         compact {wall_compact:.0} ms ({:.1} vs {:.1} MiB) | \
         coarsen {wall_coarsen:.0} ms ({levels} levels -> {coarsest_n}, arena {:.1} MiB)",
        g.n(),
        g.m(),
        fmt_opt(gen_peak),
        fmt_opt(gen_delta),
        compact_bytes as f64 / (1024.0 * 1024.0),
        ref_bytes as f64 / (1024.0 * 1024.0),
        arena_bytes as f64 / (1024.0 * 1024.0),
    );

    SweepRow {
        json: format!(
            "    {{\"family\": \"{family}\", \"graph\": \"{label}\", \"n\": {}, \"m\": {}, \
             \"wall_ms\": {{\"gen\": {wall_gen:.3}, \"compact\": {wall_compact:.3}, \
             \"coarsen\": {wall_coarsen:.3}}}, \
             \"gen_peak_rss_mb\": {}, \"gen_rss_delta_mb\": {}, \"row_peak_rss_mb\": {}, \
             \"rss_reset\": {}, \
             \"compact_bytes\": {compact_bytes}, \"reference_bytes\": {ref_bytes}, \
             \"coarsen_levels\": {levels}, \"coarsest_n\": {coarsest_n}, \
             \"arena_bytes\": {arena_bytes}}}",
            g.n(),
            g.m(),
            fmt_opt(gen_peak),
            fmt_opt(gen_delta),
            fmt_opt(peak),
            win.reset,
        ),
        n: g.n(),
        m: g.m(),
        gen_delta,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut assert_rss_mb = None;
    let mut argv = std::env::args();
    while let Some(a) = argv.next() {
        if a == "--assert-rss-mb" {
            let v = argv.next().expect("--assert-rss-mb needs a value");
            assert_rss_mb = Some(v.parse::<f64>().expect("bad --assert-rss-mb value"));
        }
    }

    let mut json = String::from("{\n  \"bench\": \"scale\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"threads\": {},\n",
        rayon::current_num_threads()
    ));

    // Full mode reaches the paper's 2^22-vertex instances for the grid
    // and Delaunay families (delaunay_n22 is the shape of delaunay_n24 at
    // quarter scale; the full n24 instance is a Paper-scale suite run).
    let grid_side = |n: usize| (n as f64).sqrt().round() as usize;
    let sizes: Vec<(&str, usize)> = if quick {
        vec![
            ("grid", 1 << 16),
            ("delaunay", 1 << 15),
            ("trace", 1 << 14),
            ("kkt", 1 << 14),
        ]
    } else {
        vec![
            ("grid", 1 << 20),
            ("grid", 1 << 22),
            ("delaunay", 1 << 20),
            ("delaunay", 1 << 22),
            ("trace", 1 << 21),
            ("kkt", 1 << 21),
        ]
    };
    json.push_str("  \"sweep\": [\n");
    let mut first = true;
    let mut worst_gen_delta: Option<f64> = None;
    for (family, n) in sizes {
        let label = format!("{family}_2^{}", n.trailing_zeros());
        let row = match family {
            "grid" => {
                let side = grid_side(n);
                sweep_row(family, &label, || grid_2d(side, side))
            }
            "delaunay" => sweep_row(family, &label, || {
                delaunay_graph(n, &mut StdRng::seed_from_u64(0xDE1A)).0
            }),
            "trace" => sweep_row(family, &label, || {
                trace_mesh(n, &mut StdRng::seed_from_u64(0x7ACE)).0
            }),
            "kkt" => sweep_row(family, &label, || {
                let primal = n * 2 / 3;
                kkt_graph(primal, n - primal, 6, &mut StdRng::seed_from_u64(0x77A7))
            }),
            _ => unreachable!(),
        };
        assert!(row.n >= n / 2, "{label}: generated {} of {n}", row.n);
        assert!(row.m > row.n / 2, "{label}: suspicious m={}", row.m);
        if let Some(d) = row.gen_delta {
            worst_gen_delta = Some(worst_gen_delta.map_or(d, |w: f64| w.max(d)));
        }
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&row.json);
    }
    json.push_str("\n  ],\n");

    // ---- Process-lifetime peak + budget gate.
    let lifetime_peak = rss::peak_rss_bytes().map(mb);
    json.push_str(&format!(
        "  \"process_peak_rss_mb\": {}\n}}\n",
        lifetime_peak.map_or("null".to_string(), |x| format!("{x:.2}"))
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_4.json");
    std::fs::write(out, &json).expect("write BENCH_4.json");
    eprintln!("wrote {out}");

    if let Some(budget) = assert_rss_mb {
        // The budget gates the per-row generator deltas, not the process
        // lifetime peak (the heap retained between rows is allocator
        // behaviour, not a per-phase property).
        match worst_gen_delta {
            Some(d) if d > budget => {
                eprintln!("FAIL: generator RSS delta {d:.1} MiB over budget {budget} MiB");
                std::process::exit(1);
            }
            Some(d) => eprintln!("rss budget OK: largest generator delta {d:.1} <= {budget} MiB"),
            None => eprintln!("rss budget: no /proc, skipped"),
        }
    }
}
