//! `runtime` usage errors: every subcommand rejects a malformed,
//! out-of-range or unknown flag with exit 2, an empty stdout, and a
//! stderr message naming the flag — never a vacuous or wrapped run. In
//! `runtime dst`, a seed window that runs past the largest `u64` seed,
//! or a `--seed-range` mixed with `--seeds` / `--seed-base`, is one too.

use std::process::{Command, Output};

fn runtime(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_runtime"))
        .args(args)
        .output()
        .expect("runtime binary runs")
}

fn dst(args: &[&str]) -> Output {
    runtime(&[&["dst"], args].concat())
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = runtime(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not run");
}

#[test]
fn every_subcommand_rejects_bad_flags_with_exit_2() {
    for (args, needle) in [
        (&[][..], "missing command"),
        (&["bogus"], "unknown `bogus` command"),
        (
            &["soak", "--clients", "0"],
            "--clients must be positive, got `0`",
        ),
        (
            &["soak", "--seconds", "ten"],
            "bad value `ten` for --seconds",
        ),
        (&["soak", "--sites"], "--sites needs a value"),
        (&["soak", "--chaos"], "unknown argument `--chaos`"),
        (&["serve", "--shards", "0"], "--shards must be positive"),
        (
            &["serve", "--port", "70000"],
            "bad value `70000` for --port",
        ),
        (&["serve", "stray"], "unknown argument `stray`"),
        (&["client"], "client needs at least one --addr"),
        (
            &["client", "--addr", "nowhere"],
            "bad value `nowhere` for --addr",
        ),
        (
            &["client", "--addr", "127.0.0.1:1", "--count", "0"],
            "--count must be positive",
        ),
        (
            &["wire-soak", "--rate", "nan"],
            "--rate must be positive, got `nan`",
        ),
        (
            &["wire-soak", "--rate", "inf"],
            "--rate must be positive, got `inf`",
        ),
        (&["wire-soak", "--rate", "-150"], "--rate must be positive"),
        (
            &["wire-soak", "--rate", "1e300", "--seconds", "1"],
            "--rate x --seconds: 1e300 req/s over 1000 ms expects more than",
        ),
        (
            &["wire-soak", "--clients", "0"],
            "--clients must be positive",
        ),
        (
            &["wire-soak", "--p99", "fast"],
            "bad value `fast` for --p99",
        ),
        (&["dst", "--seeds", "0"], "--seeds must be positive"),
        (&["dst", "--jobs", "0"], "--jobs must be positive"),
        (&["dst", "--mutation", "bogus"], "--mutation `bogus`"),
        (&["dst", "--seed-range", "5..5"], "bad --seed-range `5..5`"),
        (
            &["dst", "--replay-node", "router"],
            "--replay-node requires --fleet",
        ),
        (
            &["dst", "--fleet", "--replay-node", "router"],
            "--replay-node requires --replay SEED",
        ),
    ] {
        assert_usage_error(args, needle);
    }
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_0() {
    for args in [
        &["--help"][..],
        &["dst", "--check", "-h"],
        &["wire-soak", "--help"],
    ] {
        let out = runtime(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("usage: runtime soak"),
            "{args:?}"
        );
    }
}

#[test]
fn seed_window_past_the_largest_seed_is_a_usage_error() {
    for fleet in [&[][..], &["--fleet"][..]] {
        let args = [
            &["dst"],
            fleet,
            &["--seed-base", "18446744073709551615", "--seeds", "2"],
        ]
        .concat();
        assert_usage_error(&args, "runs past the largest seed");
    }
    // The default 200-seed window overflows too.
    assert_usage_error(
        &["dst", "--seed-base", "18446744073709551600"],
        "runs past the largest seed",
    );
}

#[test]
fn seed_window_ending_at_the_largest_seed_sweeps() {
    let out = dst(&[
        "--seed-base",
        "18446744073709551614",
        "--seeds",
        "2",
        "--check",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with("dst sweep: 2 seed(s) from 18446744073709551614 "),
        "{stdout}"
    );
}

#[test]
fn seed_range_cannot_be_mixed_with_seeds_or_seed_base() {
    for args in [
        &["dst", "--seed-range", "0..10", "--seeds", "5"][..],
        &["dst", "--seeds", "5", "--seed-range", "0..10"][..],
        &["dst", "--seed-range", "0..10", "--seed-base", "3"][..],
        &["dst", "--seed-base", "3", "--seed-range", "0..10"][..],
    ] {
        assert_usage_error(args, "--seed-range cannot be combined");
    }
}
