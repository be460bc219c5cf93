//! The `verify` binary's command line: out-of-range values and unknown
//! stage names are usage errors (exit 2, one line on stderr), and
//! `--stages` runs exactly the stages it names.

use std::process::{Command, Output};

fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_verify"))
        .args(args)
        .output()
        .expect("run verify")
}

#[test]
fn out_of_range_values_and_unknown_stages_exit_2_with_one_line() {
    for args in [
        &["--ranks", "0"][..],
        &["--multinode-shards", "9"],
        &["--stages", "bogus"],
    ] {
        let out = verify(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("verify: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn stages_runs_only_the_named_stage() {
    let out = verify(&["--stages", "repr", "--graph", "grid:8x8"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let reports: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.starts_with("verify: "))
        .collect();
    assert_eq!(reports.len(), 1, "{stdout}");
    assert!(reports[0].starts_with("repr: round trip"), "{stdout}");
}
