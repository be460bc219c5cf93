//! Drive the `scalapart` binary as a subprocess and pin down its CLI
//! contract: usage and input errors exit 2 with a one-line hint (never a
//! panic/backtrace), `--json` emits the shared sp-partition-v1 schema,
//! and a good run exits 0.

use scalapart::{recursive_kway, Method};
use sp_graph::gen::{grid_2d, grid_2d_coords};
use std::process::{Command, Output};

fn scalapart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scalapart"))
        .args(args)
        .output()
        .expect("spawn scalapart")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `part` array of an sp-partition-v1 body.
fn labels_of(body: &str) -> Vec<u32> {
    body.split("\"part\": [")
        .nth(1)
        .unwrap()
        .trim_end_matches(&[']', '}'][..])
        .split(',')
        .map(|t| t.trim().parse().unwrap())
        .collect()
}

#[test]
fn usage_errors_exit_2_with_a_one_line_hint() {
    for argv in [
        vec!["gen:grid:8x8", "--frobnicate"],
        vec!["gen:grid:8x8", "--parts", "many"],
        vec!["gen:grid:8x8", "--method", "quantum"],
        vec!["gen:grid:8x8", "--parts"],
        vec!["gen:grid:8x8", "--parts", "0"],
        vec!["gen:grid:8x8", "--parts", "100"],
        vec!["gen:grid:8x8", "--ranks", "0"],
        vec!["gen:grid:8x8", "extra-positional"],
        vec!["gen:gridWxH"],
        vec![],
    ] {
        let out = scalapart(&argv);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{argv:?} → status {:?}, stderr: {}",
            out.status,
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(err.contains("usage: scalapart"), "{argv:?}: {err}");
        assert!(
            !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
            "{argv:?} must not panic: {err}"
        );
        assert!(
            err.lines().count() <= 3,
            "{argv:?}: hint must be short, got:\n{err}"
        );
    }
}

#[test]
fn unreadable_input_exits_2_not_panic() {
    let out = scalapart(&["/no/such/dir/graph.chaco", "--parts", "2"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("cannot open"), "{err}");
    assert!(err.contains("usage: scalapart"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn corrupt_graph_file_exits_2_with_parse_error() {
    let dir = std::env::temp_dir().join(format!("sp-cli-ux-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt.graph");
    // Header says 3 vertices / 5 edges; body disagrees.
    std::fs::write(&path, "3 5\n2\n1\n1\n").unwrap();
    let out = scalapart(&[path.to_str().unwrap(), "--parts", "2"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot parse"), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn good_run_exits_0_and_json_matches_the_shared_schema() {
    let dir = std::env::temp_dir().join(format!("sp-cli-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("part.json");
    let out = scalapart(&[
        "gen:grid:12x12",
        "--method",
        "rcb",
        "--parts",
        "4",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = std::fs::read_to_string(&json_path).unwrap();
    assert!(
        body.starts_with("{\"schema\": \"sp-partition-v1\""),
        "{body}"
    );
    for field in [
        "\"n\": 144",
        "\"k\": 4",
        "\"edge_cut\"",
        "\"imbalance\"",
        "\"comm_volume\"",
        "\"part\": [",
    ] {
        assert!(body.contains(field), "missing {field} in {body}");
    }
    // 144 labels, all < 4.
    let labels = labels_of(&body);
    assert_eq!(labels.len(), 144);
    assert!(labels.iter().all(|&p| p < 4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn grid_spec_is_width_by_height_as_in_a_served_request() {
    // gen:grid:5x2 is 2 rows of 5, the graph an sp-serve submit of the
    // same spec builds; the CLI's defaults are 64 ranks and seed 42.
    let dir = std::env::temp_dir().join(format!("sp-cli-grid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("part.json");
    let out = scalapart(&[
        "gen:grid:5x2",
        "--method",
        "rcb",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let body = std::fs::read_to_string(&json_path).unwrap();
    let g = grid_2d(2, 5);
    let coords = grid_2d_coords(2, 5);
    let kp = recursive_kway(Method::Rcb, &g, Some(&coords), 2, 64, 42);
    assert_eq!(labels_of(&body), kp.part);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_exits_0() {
    let out = scalapart(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--json"));
}
