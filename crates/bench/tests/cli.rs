//! `figures` flag handling: no experiment, or an unknown one, is a
//! usage error (exit 2, empty stdout) caught before any experiment
//! runs; `--list` prints every id.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn a_missing_or_unknown_experiment_is_a_usage_error() {
    for (args, needle) in [
        (&[][..], "no experiment given"),
        (&["--out", "results"], "no experiment given"),
        (&["fig1", "bogus"], "unknown experiment `bogus`"),
        (&["--out"], "--out needs a value"),
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn list_prints_every_experiment() {
    let out = figures(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let ids: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(ids, bench::ALL_EXPERIMENTS);
}
