//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!   `repro [--scale tiny|bench|paper] [--seed N] [--out DIR] <experiment>...`
//!
//! Experiments: table1 table2 table3 table4 fig1 fig2 fig3 fig4 fig5 fig6
//!              fig7 fig8 fig9 ablation-block ablation-strip ablation-tries
//!              ablation-levels ablation-lattice all
//!
//! Text tables go to stdout; CSVs (and SVGs for fig1/fig2) to `--out`
//! (default `results/`). Absolute numbers come from the simulated machine
//! (see DESIGN.md); the *shapes* are the reproduction target.

use scalapart::machine::Phase::{Coarsen, Embed, Partition};
use scalapart::Method;
use sp_bench::harness::{geomean, sweep_p, Experiments};
use sp_bench::report::{write_csv, write_json, Table};
use sp_graph::{SuiteGraph, TestScale};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = TestScale::Bench;
    let mut seed = 20130101u64;
    let mut out = PathBuf::from("results");
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().map(|s| s.as_str()) {
                    Some("tiny") => TestScale::Tiny,
                    Some("bench") => TestScale::Bench,
                    Some("paper") => TestScale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                seed = it.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bad --seed");
                    std::process::exit(2);
                })
            }
            "--out" => out = PathBuf::from(it.next().expect("--out DIR")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale tiny|bench|paper] [--seed N] [--out DIR] <exp>..."
                );
                return;
            }
            e => experiments.push(e.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "table1",
            "table2",
            "table3",
            "table4",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "ablation-block",
            "ablation-strip",
            "ablation-tries",
            "ablation-levels",
            "ablation-lattice",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    let mut ex = Experiments::new(scale, seed);
    for e in &experiments {
        let table = match e.as_str() {
            "table1" => table1(&mut ex),
            "table2" => table2(&mut ex),
            "table3" => table3(&mut ex),
            "table4" => table4(&mut ex),
            "fig1" => fig1(&mut ex, &out),
            "fig2" => fig2(&mut ex, &out),
            "fig3" => fig_times_all(&mut ex, "fig3: total execution times over all 9 graphs"),
            "fig4" => fig4(&mut ex),
            "fig5" => fig_times_one(&mut ex, SuiteGraph::HugeBubbles, "fig5"),
            "fig6" => fig_times_one(&mut ex, SuiteGraph::G3Circuit, "fig6"),
            "fig7" => fig7(&mut ex),
            "fig8" => fig8(&mut ex),
            "fig9" => fig9(&mut ex),
            "ablation-block" => ablation_block(&mut ex),
            "ablation-strip" => ablation_strip(&mut ex),
            "ablation-tries" => ablation_tries(&mut ex),
            "ablation-levels" => ablation_levels(&mut ex),
            "ablation-lattice" => ablation_lattice(&mut ex),
            other => {
                eprintln!("unknown experiment '{other}', skipping");
                continue;
            }
        };
        println!("{}", table.render());
        if let Err(err) = write_csv(&table, &out, e) {
            eprintln!("warning: could not write {e}.csv: {err}");
        }
    }
    // Per-run metrics artifact: every memoised (method, graph, P) point
    // behind the tables above, machine-readable, next to the CSVs.
    let metrics = run_metrics(&ex);
    if let Err(err) = write_json(&metrics, &out, "run_metrics") {
        eprintln!("warning: could not write run_metrics.json: {err}");
    } else {
        eprintln!("wrote {}", out.join("run_metrics.json").display());
    }
}

/// One row per memoised run: simulated time, cut, imbalance, and the
/// ScalaPart phase split (comp/comm per phase, seconds) where available.
fn run_metrics(ex: &Experiments) -> Table {
    let mut t = Table::new(
        "per-run metrics",
        &[
            "method",
            "graph",
            "P",
            "cut",
            "time_s",
            "imbalance",
            "coarsen_comp_s",
            "coarsen_comm_s",
            "embed_comp_s",
            "embed_comm_s",
            "partition_comp_s",
            "partition_comm_s",
        ],
    );
    for r in ex.run_records() {
        let ph = r.phases.unwrap_or_default();
        t.row(vec![
            r.method.name().into(),
            r.graph.name().into(),
            r.p.to_string(),
            r.cut.to_string(),
            format!("{}", r.time),
            format!("{}", r.imbalance),
            format!("{}", ph.coarsen.comp),
            format!("{}", ph.coarsen.comm),
            format!("{}", ph.embed.comp),
            format!("{}", ph.embed.comm),
            format!("{}", ph.partition.comp),
            format!("{}", ph.partition.comm),
        ]);
    }
    t
}

fn fmt_t(t: f64) -> String {
    format!("{:.3}", t * 1e3) // milliseconds
}

/// Table 1: the test suite (generated sizes next to the paper's).
fn table1(ex: &mut Experiments) -> Table {
    let mut t = Table::new(
        "Table 1: test suite (generated at this scale vs paper)",
        &["graph", "N", "M", "paper N(10^6)", "paper M(10^6)"],
    );
    for sg in SuiteGraph::all() {
        let g = &ex.graph(sg).graph;
        t.row(vec![
            sg.name().into(),
            g.n().to_string(),
            g.m().to_string(),
            format!("{:.2}", sg.paper_n() as f64 / 1e6),
            format!("{:.2}", sg.paper_m() / 1e6),
        ]);
    }
    t
}

/// Table 2: cut sizes of the geometric methods relative to G30 = 1.
fn table2(ex: &mut Experiments) -> Table {
    let ps = sweep_p();
    let mut t = Table::new(
        "Table 2: relative cut-sizes of geometric methods (G30 = 1)",
        &["graph", "G7", "G7-NL", "RCB", "Avg SP", "Best SP"],
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for sg in SuiteGraph::all() {
        let g30 = ex.run(Method::G30, sg, 1).cut.max(1) as f64;
        let g7 = ex.run(Method::G7, sg, 1).cut as f64 / g30;
        let g7nl = ex.run(Method::G7Nl, sg, 1).cut as f64 / g30;
        let rcb = ex.run(Method::Rcb, sg, 1).cut as f64 / g30;
        let avg_sp = ex.cut_avg(Method::ScalaPart, sg, &ps) / g30;
        let (best, _) = ex.cut_range(Method::ScalaPart, sg, &ps);
        let best_sp = best as f64 / g30;
        for (c, v) in cols.iter_mut().zip([g7, g7nl, rcb, avg_sp, best_sp]) {
            c.push(v);
        }
        t.row(vec![
            sg.name().into(),
            format!("{g7:.2}"),
            format!("{g7nl:.2}"),
            format!("{rcb:.2}"),
            format!("{avg_sp:.2}"),
            format!("{best_sp:.2}"),
        ]);
    }
    t.row(
        std::iter::once("Geom. Mean".to_string())
            .chain(cols.iter().map(|c| format!("{:.2}", geomean(c))))
            .collect(),
    );
    t
}

/// Table 3: best–worst cut-size ranges across the P sweep.
fn table3(ex: &mut Experiments) -> Table {
    let ps = sweep_p();
    let mut t = Table::new(
        "Table 3: best - worst cut-sizes (P swept 1..1024)",
        &["graph", "Pt-Scotch", "ParMetis", "ScalaPart", "G30", "RCB"],
    );
    // For the geometric-mean row, relative to best Pt-Scotch per graph.
    let mut rel: Vec<Vec<f64>> = vec![Vec::new(); 8];
    for sg in SuiteGraph::all() {
        let ps_range = ex.cut_range(Method::PtScotchLike, sg, &ps);
        let pm_range = ex.cut_range(Method::ParMetisLike, sg, &ps);
        let sp_range = ex.cut_range(Method::ScalaPart, sg, &ps);
        let g30 = ex.run(Method::G30, sg, 1).cut;
        let rcb = ex.run(Method::Rcb, sg, 1).cut;
        let base = ps_range.0.max(1) as f64;
        for (i, v) in [
            ps_range.0 as f64,
            ps_range.1 as f64,
            pm_range.0 as f64,
            pm_range.1 as f64,
            sp_range.0 as f64,
            sp_range.1 as f64,
            g30 as f64,
            rcb as f64,
        ]
        .into_iter()
        .enumerate()
        {
            rel[i].push(v / base);
        }
        t.row(vec![
            sg.name().into(),
            format!("{} - {}", ps_range.0, ps_range.1),
            format!("{} - {}", pm_range.0, pm_range.1),
            format!("{} - {}", sp_range.0, sp_range.1),
            g30.to_string(),
            rcb.to_string(),
        ]);
    }
    t.row(vec![
        "Geom. Mean (rel.)".into(),
        format!("{:.2} - {:.2}", geomean(&rel[0]), geomean(&rel[1])),
        format!("{:.2} - {:.2}", geomean(&rel[2]), geomean(&rel[3])),
        format!("{:.2} - {:.2}", geomean(&rel[4]), geomean(&rel[5])),
        format!("{:.2}", geomean(&rel[6])),
        format!("{:.2}", geomean(&rel[7])),
    ]);
    t
}

/// Table 4: speed-ups at P = 1024 relative to Pt-Scotch.
fn table4(ex: &mut Experiments) -> Table {
    let p = 1024;
    let mut t = Table::new(
        "Table 4: speed-ups at P=1024 relative to Pt-Scotch (=1)",
        &["graphs", "ParMetis", "RCB", "ScalaPart", "SP-PG7-NL"],
    );
    let speedups = |ex: &mut Experiments, sgs: &[SuiteGraph]| -> [f64; 4] {
        let mut ps_t = 0.0;
        let mut o = [0.0f64; 4];
        for &sg in sgs {
            ps_t += ex.run(Method::PtScotchLike, sg, p).time;
            o[0] += ex.run(Method::ParMetisLike, sg, p).time;
            o[1] += ex.run(Method::Rcb, sg, p).time;
            o[2] += ex.run(Method::ScalaPart, sg, p).time;
            o[3] += ex.run(Method::SpPg7Nl, sg, p).time;
        }
        [ps_t / o[0], ps_t / o[1], ps_t / o[2], ps_t / o[3]]
    };
    let rows: [(&str, Vec<SuiteGraph>); 4] = [
        ("G3_circuit", vec![SuiteGraph::G3Circuit]),
        ("hugebubbles", vec![SuiteGraph::HugeBubbles]),
        ("All Graphs", SuiteGraph::all().to_vec()),
        ("Large 4 graphs", SuiteGraph::largest4().to_vec()),
    ];
    for (name, sgs) in rows {
        let s = speedups(ex, &sgs);
        t.row(vec![
            name.into(),
            format!("{:.2}", s[0]),
            format!("{:.2}", s[1]),
            format!("{:.2}", s[2]),
            format!("{:.2}", s[3]),
        ]);
    }
    t
}

/// Fig 1: the 3×3 lattice/β illustration — lattice occupancy stats + SVG.
fn fig1(ex: &mut Experiments, out: &PathBuf) -> Table {
    use scalapart::svg::render_lattice_svg;
    use scalapart::{scalapart_bisect, SpConfig};
    use sp_machine::{CostModel, Machine};
    let _ = ex;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let (g0, _) = sp_graph::gen::random_geometric_graph(600, 0.07, &mut rng);
    let (g, _) = sp_graph::traversal::largest_component(&g0);
    let mut m = Machine::new(9, CostModel::qdr_infiniband());
    let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
    let q = 3;
    let bb = sp_geometry::Aabb2::from_points(&r.coords)
        .unwrap()
        .inflated(1e-9);
    let mut t = Table::new(
        "Fig 1: 3x3 domain lattice with beta special vertices",
        &["cell", "vertices", "mass", "phi_x", "phi_y"],
    );
    for j in 0..q {
        for i in 0..q {
            let cell = bb.lattice_cell(q, i, j);
            let mut mu = 0.0;
            let mut cnt = 0usize;
            let mut com = sp_geometry::Point2::ZERO;
            for (v, &c) in r.coords.iter().enumerate() {
                if cell.contains(c) {
                    mu += g.vwgt(v as u32);
                    com += c * g.vwgt(v as u32);
                    cnt += 1;
                }
            }
            if mu > 0.0 {
                com = com / mu;
            }
            t.row(vec![
                format!("({i},{j})"),
                cnt.to_string(),
                format!("{mu:.1}"),
                format!("{:.3}", com.x),
                format!("{:.3}", com.y),
            ]);
        }
    }
    let svg = render_lattice_svg(&g, &r.coords, q, 800.0);
    std::fs::create_dir_all(out).ok();
    std::fs::write(out.join("fig1_lattice.svg"), svg).ok();
    t
}

/// Fig 2: strip refinement on delaunay_n16 — strip/separator ratio + SVG.
fn fig2(ex: &mut Experiments, out: &PathBuf) -> Table {
    use scalapart::svg::render_svg;
    use scalapart::{scalapart_bisect, SpConfig};
    use sp_machine::{CostModel, Machine};
    let n = (1usize << 16) / ex.scale.divisor().clamp(1, 64);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(16);
    let (g, _) = sp_graph::gen::delaunay_graph(n.max(1024), &mut rng);
    let mut m = Machine::new(16, CostModel::qdr_infiniband());
    let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
    let mut t = Table::new(
        "Fig 2: strip used to refine the separator (delaunay_n16 analog)",
        &["quantity", "value"],
    );
    t.row(vec!["graph N".into(), g.n().to_string()]);
    t.row(vec![
        "separator before refine".into(),
        r.cut_before_refine.to_string(),
    ]);
    t.row(vec!["separator after refine".into(), r.cut.to_string()]);
    t.row(vec![
        "strip size (vertices)".into(),
        r.strip_size.to_string(),
    ]);
    t.row(vec![
        "strip / separator ratio".into(),
        format!(
            "{:.1} (paper: 5.6)",
            r.strip_size as f64 / r.cut_before_refine.max(1) as f64
        ),
    ]);
    std::fs::create_dir_all(out).ok();
    std::fs::write(
        out.join("fig2_strip.svg"),
        render_svg(&g, &r.coords, Some(&r.bisection), 900.0),
    )
    .ok();
    t
}

/// Figs 3: total times over all graphs vs P for the four parallel methods.
fn fig_times_all(ex: &mut Experiments, title: &str) -> Table {
    let mut t = Table::new(title, &["P", "Pt-Scotch", "ParMetis", "ScalaPart", "RCB"]);
    for p in sweep_p() {
        t.row(vec![
            p.to_string(),
            fmt_t(ex.total_time(Method::PtScotchLike, p)),
            fmt_t(ex.total_time(Method::ParMetisLike, p)),
            fmt_t(ex.total_time(Method::ScalaPart, p)),
            fmt_t(ex.total_time(Method::Rcb, p)),
        ]);
    }
    t.header[1] = "Pt-Scotch(ms)".into();
    t
}

/// Fig 4: RCB vs SP-PG7-NL (partitioning only) total times vs P.
fn fig4(ex: &mut Experiments) -> Table {
    let mut t = Table::new(
        "fig4: RCB vs SP-PG7-NL (ScalaPart excl. coarsen+embed), total over all graphs",
        &["P", "RCB(ms)", "SP-PG7-NL(ms)"],
    );
    for p in sweep_p() {
        t.row(vec![
            p.to_string(),
            fmt_t(ex.total_time(Method::Rcb, p)),
            fmt_t(ex.total_time(Method::SpPg7Nl, p)),
        ]);
    }
    t
}

/// Figs 5/6: per-graph execution time vs P for all methods.
fn fig_times_one(ex: &mut Experiments, sg: SuiteGraph, figname: &str) -> Table {
    let mut t = Table::new(
        &format!("{figname}: execution time for {}", sg.name()),
        &[
            "P",
            "Pt-Scotch(ms)",
            "ParMetis(ms)",
            "ScalaPart(ms)",
            "RCB(ms)",
        ],
    );
    for p in sweep_p() {
        t.row(vec![
            p.to_string(),
            fmt_t(ex.run(Method::PtScotchLike, sg, p).time),
            fmt_t(ex.run(Method::ParMetisLike, sg, p).time),
            fmt_t(ex.run(Method::ScalaPart, sg, p).time),
            fmt_t(ex.run(Method::Rcb, sg, p).time),
        ]);
    }
    t
}

/// Fig 7: ScalaPart component times as fractions of the total, over all
/// graphs.
fn fig7(ex: &mut Experiments) -> Table {
    let mut t = Table::new(
        "fig7: ScalaPart component times (fraction of total, all graphs)",
        &["P", Coarsen.name(), Embed.name(), Partition.name()],
    );
    for p in sweep_p() {
        let mut c = 0.0;
        let mut e = 0.0;
        let mut q = 0.0;
        for sg in SuiteGraph::all() {
            let r = ex.run(Method::ScalaPart, sg, p);
            let ph = r.phases.expect("scalapart phases");
            c += ph.coarsen.total();
            e += ph.embed.total();
            q += ph.partition.total();
        }
        let total = (c + e + q).max(1e-30);
        t.row(vec![
            p.to_string(),
            format!("{:.3}", c / total),
            format!("{:.3}", e / total),
            format!("{:.3}", q / total),
        ]);
    }
    t
}

/// Fig 8: embedding time composition (communication fraction) vs P.
fn fig8(ex: &mut Experiments) -> Table {
    let mut t = Table::new(
        "fig8: embedding time composition (comm fraction, all graphs)",
        &["P", "comp", "comm", "comm fraction"],
    );
    for p in sweep_p() {
        let mut comp = 0.0;
        let mut comm = 0.0;
        for sg in SuiteGraph::all() {
            let r = ex.run(Method::ScalaPart, sg, p);
            let ph = r.phases.expect("scalapart phases");
            comp += ph.embed.comp;
            comm += ph.embed.comm;
        }
        t.row(vec![
            p.to_string(),
            fmt_t(comp),
            fmt_t(comm),
            format!("{:.3}", comm / (comp + comm).max(1e-30)),
        ]);
    }
    t
}

/// Fig 9: times for the four largest graphs at P = 16..1024, plus average.
fn fig9(ex: &mut Experiments) -> Table {
    let mut t = Table::new(
        "fig9: times for the 4 largest graphs (ms)",
        &["P", "graph", "Pt-Scotch", "ParMetis", "ScalaPart"],
    );
    for p in [16usize, 64, 256, 1024] {
        let mut sums = [0.0f64; 3];
        for sg in SuiteGraph::largest4() {
            let ps = ex.run(Method::PtScotchLike, sg, p).time;
            let pm = ex.run(Method::ParMetisLike, sg, p).time;
            let sp = ex.run(Method::ScalaPart, sg, p).time;
            sums[0] += ps;
            sums[1] += pm;
            sums[2] += sp;
            t.row(vec![
                p.to_string(),
                sg.name().into(),
                fmt_t(ps),
                fmt_t(pm),
                fmt_t(sp),
            ]);
        }
        t.row(vec![
            p.to_string(),
            "average".into(),
            fmt_t(sums[0] / 4.0),
            fmt_t(sums[1] / 4.0),
            fmt_t(sums[2] / 4.0),
        ]);
    }
    t
}

/// Ablation: communication block size (1 vs 2–8): embedding comm time and
/// resulting cut.
fn ablation_block(ex: &mut Experiments) -> Table {
    use scalapart::{scalapart_bisect, SpConfig};
    use sp_machine::{CostModel, Machine};
    let t_g = ex.graph(SuiteGraph::DelaunayN20);
    let g = &t_g.graph;
    let mut t = Table::new(
        "ablation: communication block size (delaunay_n20, P=64)",
        &["block", "cut", "embed comm (ms)", "embed total (ms)"],
    );
    for block in [1usize, 2, 4, 8] {
        let cfg = SpConfig {
            block,
            ..Default::default()
        };
        let mut m = Machine::new(64, CostModel::qdr_infiniband());
        let r = scalapart_bisect(g, &mut m, &cfg);
        t.row(vec![
            block.to_string(),
            r.cut.to_string(),
            fmt_t(r.times.embed.comm),
            fmt_t(r.times.embed.total()),
        ]);
    }
    t
}

/// Ablation: strip refinement on/off and strip factor.
fn ablation_strip(ex: &mut Experiments) -> Table {
    use scalapart::{scalapart_bisect, SpConfig};
    use sp_machine::{CostModel, Machine};
    let t_g = ex.graph(SuiteGraph::DelaunayN20);
    let g = &t_g.graph;
    let mut t = Table::new(
        "ablation: strip refinement (delaunay_n20, P=64)",
        &["strip factor", "cut before", "cut after", "strip size"],
    );
    for factor in [0.0, 2.0, 6.0, 12.0] {
        let cfg = SpConfig {
            strip_factor: factor,
            ..Default::default()
        };
        let mut m = Machine::new(64, CostModel::qdr_infiniband());
        let r = scalapart_bisect(g, &mut m, &cfg);
        t.row(vec![
            format!("{factor:.0}"),
            r.cut_before_refine.to_string(),
            r.cut.to_string(),
            r.strip_size.to_string(),
        ]);
    }
    t
}

/// Ablation: number of geometric tries (G30 vs G7 vs G7-NL).
fn ablation_tries(ex: &mut Experiments) -> Table {
    let mut t = Table::new(
        "ablation: geometric try policy (sequential, per graph cut)",
        &["graph", "G30", "G7", "G7-NL"],
    );
    for sg in [
        SuiteGraph::Ecology1,
        SuiteGraph::DelaunayN20,
        SuiteGraph::HugeTrace,
    ] {
        let g30 = ex.run(Method::G30, sg, 1).cut;
        let g7 = ex.run(Method::G7, sg, 1).cut;
        let g7nl = ex.run(Method::G7Nl, sg, 1).cut;
        t.row(vec![
            sg.name().into(),
            g30.to_string(),
            g7.to_string(),
            g7nl.to_string(),
        ]);
    }
    t
}

/// Ablation: retain-every-other-level (4× shrink) vs every level (2×).
fn ablation_levels(ex: &mut Experiments) -> Table {
    use scalapart::{scalapart_bisect, SpConfig};
    use sp_machine::{CostModel, Machine};
    let t_g = ex.graph(SuiteGraph::Ecology1);
    let g = &t_g.graph;
    let mut t = Table::new(
        "ablation: hierarchy shrink rate (ecology1, P=64)",
        &[
            "retained shrink",
            "cut",
            "total time (ms)",
            "embed time (ms)",
        ],
    );
    for every_other in [true, false] {
        let cfg = SpConfig {
            keep_every_other: every_other,
            ..Default::default()
        };
        let mut m = Machine::new(64, CostModel::qdr_infiniband());
        let r = scalapart_bisect(g, &mut m, &cfg);
        t.row(vec![
            if every_other { "~4x (paper)" } else { "~2x" }.into(),
            r.cut.to_string(),
            fmt_t(r.total_time),
            fmt_t(r.times.embed.total()),
        ]);
    }
    t
}

/// Ablation: lattice β repulsion vs exact Barnes–Hut (embedding quality and
/// resulting cut at P=1, where both are available).
fn ablation_lattice(ex: &mut Experiments) -> Table {
    use scalapart::{scalapart_bisect, SpConfig};
    use sp_embed::embed_multilevel_seq;
    use sp_embed::metrics::edge_length_stats;
    use sp_machine::{CostModel, Machine};
    let t_g = ex.graph(SuiteGraph::DelaunayN20);
    let g = t_g.graph.clone();
    let mut t = Table::new(
        "ablation: lattice beta approximation vs exact Barnes-Hut repulsion",
        &["repulsion", "edge-length cv", "geo cut"],
    );
    // Lattice (P = 64 ⇒ 8×8 lattice at the finest level).
    let mut m = Machine::new(64, CostModel::qdr_infiniband());
    let r = scalapart_bisect(&g, &mut m, &SpConfig::default());
    let cv_lattice = edge_length_stats(&g, &r.coords).cv();
    t.row(vec![
        "fixed lattice (P=64)".into(),
        format!("{cv_lattice:.3}"),
        r.cut.to_string(),
    ]);
    // Exact BH: sequential embedding, then the same geometric partitioner.
    let coords = embed_multilevel_seq(&g, 0xE3BED);
    let cv_bh = edge_length_stats(&g, &coords).cv();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let geo =
        sp_geopart::geometric_partition(&g, &coords, &sp_geopart::GeoConfig::g7_nl(), &mut rng);
    t.row(vec![
        "exact Barnes-Hut (seq)".into(),
        format!("{cv_bh:.3}"),
        geo.cut.to_string(),
    ]);
    t
}
