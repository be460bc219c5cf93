//! `BENCHMARK.json`, compiled in and parsed once: the one table of
//! workload names, metric names, units, directions and bounds.

use sp_serve::json::Value;
use std::sync::OnceLock;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric row; `bound` is present on the end-to-end rows only.
pub struct Row {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Row>,
    pub per_layer: Vec<Row>,
}

fn rows(spec: &Value, key: &str) -> Vec<Row> {
    let text = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} row without {k}"))
            .to_string()
    };
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .iter()
        .map(|m| Row {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: match text(m, "better").as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => panic!("BENCHMARK.json: better is {other}"),
            },
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let v = Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: workload_names(&v),
            end_to_end: rows(&v, "end_to_end"),
            per_layer: rows(&v, "per_layer"),
        }
    })
}

fn workload_names(spec: &Value) -> Vec<String> {
    spec.get("workloads")
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json: workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("BENCHMARK.json: a workload without a name")
                .to_string()
        })
        .collect()
}
