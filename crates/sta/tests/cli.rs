//! `sta` flag handling: a NaN temperature or a non-positive sizing
//! ratio is a usage error (exit 2, empty stdout, the flag named on
//! stderr), while a temperature list starting with `-` is a value.

use std::process::{Command, Output};

fn sta(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sta"))
        .args(args)
        .output()
        .expect("sta binary runs")
}

#[test]
fn non_finite_temperatures_and_non_positive_ratios_are_usage_errors() {
    for (args, needle) in [
        (
            &["--temps", "nan", "3xINV"][..],
            "--temps must be finite, got `nan`",
        ),
        (
            &["--temps", "27,inf", "3xINV"],
            "--temps must be finite, got `inf`",
        ),
        (
            &["--ratio", "-1", "3xINV"],
            "--ratio must be positive, got `-1`",
        ),
        (
            &["--ratio", "0", "3xINV"],
            "--ratio must be positive, got `0`",
        ),
        (&["3xFOO"], "3xFOO"),
        (&["--examples", "--bogus"], "unknown argument `--bogus`"),
    ] {
        let out = sta(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_temperature_list_starting_with_a_dash_is_a_value() {
    let out = sta(&["--temps", "-50,27,150", "--examples"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("-50.0 °C: period"), "{stdout}");
}
