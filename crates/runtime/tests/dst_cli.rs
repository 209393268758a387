//! `runtime dst` seed-window parsing: a window that runs past the
//! largest `u64` seed, or a `--seed-range` mixed with `--seeds` /
//! `--seed-base`, is a usage error (exit 2), never a wrapped or
//! silently overridden sweep.

use std::process::{Command, Output};

fn dst(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_runtime"))
        .arg("dst")
        .args(args)
        .output()
        .expect("runtime binary runs")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = dst(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must not sweep");
}

#[test]
fn seed_window_past_the_largest_seed_is_a_usage_error() {
    for fleet in [&[][..], &["--fleet"][..]] {
        let args = [
            fleet,
            &["--seed-base", "18446744073709551615", "--seeds", "2"],
        ]
        .concat();
        assert_usage_error(&args, "runs past the largest seed");
    }
    // The default 200-seed window overflows too.
    assert_usage_error(
        &["--seed-base", "18446744073709551600"],
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
        &["--seed-range", "0..10", "--seeds", "5"][..],
        &["--seeds", "5", "--seed-range", "0..10"][..],
        &["--seed-range", "0..10", "--seed-base", "3"][..],
        &["--seed-base", "3", "--seed-range", "0..10"][..],
    ] {
        assert_usage_error(args, "--seed-range cannot be combined");
    }
}
