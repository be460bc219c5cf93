//! Baseline comparison for the wallclock harness: parse a committed
//! `BENCH_*.json` snapshot and diff a fresh run against it, flagging
//! wall-clock regressions beyond a tolerance.
//!
//! Documents are read with the workspace's strict JSON reader
//! (`sp_trace::json::Value`), so a hand-edited baseline cannot silently
//! half-parse.

use sp_machine::trace::json::Value;
use std::collections::BTreeMap;

/// One `embed_fastpath` row of a bench document.
#[derive(Clone, Debug)]
pub struct FastRow {
    pub rows: u64,
    pub cols: u64,
    pub q: u64,
    pub wall_ms_reference: f64,
    pub wall_ms_optimized: f64,
}

/// One `pipeline` row: per-phase wall milliseconds keyed by phase name.
#[derive(Clone, Debug)]
pub struct PipeRow {
    pub graph: String,
    pub p: u64,
    pub wall_ms: BTreeMap<String, f64>,
}

/// The measurements a wallclock bench document carries, independent of
/// which `BENCH_*.json` generation wrote it.
#[derive(Clone, Debug, Default)]
pub struct BenchDoc {
    pub fastpath: Vec<FastRow>,
    pub pipeline: Vec<PipeRow>,
}

impl BenchDoc {
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let v = Value::parse(text)?;
        let mut doc = BenchDoc::default();
        for row in v
            .get("embed_fastpath")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            let f = |k: &str| row.get(k).and_then(Value::as_f64);
            doc.fastpath.push(FastRow {
                rows: f("rows").ok_or("fastpath row missing 'rows'")? as u64,
                cols: f("cols").ok_or("fastpath row missing 'cols'")? as u64,
                q: f("q").ok_or("fastpath row missing 'q'")? as u64,
                wall_ms_reference: f("wall_ms_reference").ok_or("missing wall_ms_reference")?,
                wall_ms_optimized: f("wall_ms_optimized").ok_or("missing wall_ms_optimized")?,
            });
        }
        for row in v.get("pipeline").and_then(Value::as_arr).unwrap_or(&[]) {
            let graph = row
                .get("graph")
                .and_then(Value::as_str)
                .ok_or("pipeline row missing 'graph'")?
                .to_string();
            let p = row
                .get("p")
                .and_then(Value::as_f64)
                .ok_or("pipeline row missing 'p'")? as u64;
            let mut wall_ms = BTreeMap::new();
            if let Some(Value::Obj(m)) = row.get("wall_ms") {
                for (phase, val) in m {
                    if let Some(x) = val.as_f64() {
                        wall_ms.insert(phase.clone(), x);
                    }
                }
            }
            doc.pipeline.push(PipeRow { graph, p, wall_ms });
        }
        Ok(doc)
    }
}

/// Result of diffing a fresh run against a committed baseline.
pub struct Comparison {
    /// Human-readable per-row speedup lines (baseline / current; >1 is a
    /// win, <1 a slowdown).
    pub lines: Vec<String>,
    /// Rows slower than `baseline * (1 + tolerance)`.
    pub regressions: Vec<String>,
}

impl Comparison {
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diff `current` against `baseline`. Only rows present in *both*
/// documents are compared (a `--quick` run covers a subset of the full
/// scenario list). `tolerance` is fractional: 0.2 flags anything more
/// than 20% slower than the committed number.
pub fn compare(current: &BenchDoc, baseline: &BenchDoc, tolerance: f64) -> Comparison {
    let mut cmp = Comparison {
        lines: Vec::new(),
        regressions: Vec::new(),
    };
    let limit = 1.0 + tolerance;

    for cur in &current.fastpath {
        let Some(base) = baseline
            .fastpath
            .iter()
            .find(|b| (b.rows, b.cols, b.q) == (cur.rows, cur.cols, cur.q))
        else {
            continue;
        };
        let ratio = base.wall_ms_optimized / cur.wall_ms_optimized.max(1e-9);
        cmp.lines.push(format!(
            "fastpath {}x{} q={}: optimized {:.1} ms vs baseline {:.1} ms ({ratio:.2}x)",
            cur.rows, cur.cols, cur.q, cur.wall_ms_optimized, base.wall_ms_optimized
        ));
        if cur.wall_ms_optimized > base.wall_ms_optimized * limit {
            cmp.regressions.push(format!(
                "fastpath {}x{} q={}: {:.1} ms is >{:.0}% over baseline {:.1} ms",
                cur.rows,
                cur.cols,
                cur.q,
                cur.wall_ms_optimized,
                tolerance * 100.0,
                base.wall_ms_optimized
            ));
        }
    }

    for cur in &current.pipeline {
        let Some(base) = baseline
            .pipeline
            .iter()
            .find(|b| b.graph == cur.graph && b.p == cur.p)
        else {
            continue;
        };
        for (phase, &cur_ms) in &cur.wall_ms {
            let Some(&base_ms) = base.wall_ms.get(phase) else {
                continue;
            };
            let ratio = base_ms / cur_ms.max(1e-9);
            cmp.lines.push(format!(
                "pipeline {} p={} {phase}: {cur_ms:.1} ms vs baseline {base_ms:.1} ms ({ratio:.2}x)",
                cur.graph, cur.p
            ));
            if cur_ms > base_ms * limit {
                cmp.regressions.push(format!(
                    "pipeline {} p={} {phase}: {cur_ms:.1} ms is >{:.0}% over baseline {base_ms:.1} ms",
                    cur.graph,
                    cur.p,
                    tolerance * 100.0
                ));
            }
        }
    }

    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
      "bench": "wallclock",
      "embed_fastpath": [
        {"rows": 64, "cols": 64, "q": 4, "wall_ms_reference": 39.8,
         "wall_ms_optimized": 23.3, "speedup": 1.706,
         "simulated_time": 2.782e-3, "simulated_time_matches": true,
         "peak_rss_mb": 12.5}
      ],
      "pipeline": [
        {"graph": "grid96x96", "p": 4,
         "wall_ms": {"coarsen": 10.0, "embed": 40.0, "partition": 5.0, "refine": 2.0},
         "simulated": {"total": 1.0e-2}, "cut": 100, "peak_rss_mb": null}
      ]
    }"#;

    #[test]
    fn parses_a_real_shaped_document() {
        let doc = BenchDoc::parse(DOC).unwrap();
        assert_eq!(doc.fastpath.len(), 1);
        assert_eq!(doc.fastpath[0].rows, 64);
        assert_eq!(doc.fastpath[0].wall_ms_optimized, 23.3);
        assert_eq!(doc.pipeline.len(), 1);
        assert_eq!(doc.pipeline[0].wall_ms["embed"], 40.0);
        // Graph names are UTF-8, not Latin-1 bytes pushed as chars.
        let named = BenchDoc::parse(&DOC.replace("grid96x96", "gitter-ö96×96")).unwrap();
        assert_eq!(named.pipeline[0].graph, "gitter-ö96×96");
    }

    #[test]
    fn json_corner_cases() {
        assert_eq!(Value::parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(Value::parse(" null ").unwrap(), Value::Null);
        assert_eq!(
            Value::parse(r#""a\"b\n""#).unwrap(),
            Value::Str("a\"b\n".into())
        );
        assert_eq!(Value::parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert!(Value::parse("{\"a\": 1,}").is_err());
        assert!(Value::parse("[1 2]").is_err());
        assert!(Value::parse("{} garbage").is_err());
    }

    #[test]
    fn within_tolerance_passes_and_beyond_fails() {
        let base = BenchDoc::parse(DOC).unwrap();
        let mut cur = base.clone();
        // 10% slower everywhere: inside a 20% tolerance.
        cur.fastpath[0].wall_ms_optimized *= 1.10;
        for v in cur.pipeline[0].wall_ms.values_mut() {
            *v *= 1.10;
        }
        let cmp = compare(&cur, &base, 0.2);
        assert!(cmp.ok(), "{:?}", cmp.regressions);
        assert_eq!(cmp.lines.len(), 5, "1 fastpath + 4 phases compared");

        // One phase 30% slower: flagged by name.
        *cur.pipeline[0].wall_ms.get_mut("embed").unwrap() = 40.0 * 1.30;
        let cmp = compare(&cur, &base, 0.2);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(
            cmp.regressions[0].contains("embed"),
            "{:?}",
            cmp.regressions
        );
    }

    #[test]
    fn rows_missing_from_either_side_are_skipped() {
        let base = BenchDoc::parse(DOC).unwrap();
        let cur = BenchDoc::default();
        // A quick run measuring nothing in common regresses nothing.
        let cmp = compare(&cur, &base, 0.2);
        assert!(cmp.ok() && cmp.lines.is_empty());
    }
}
