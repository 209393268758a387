//! `faultsim` flag handling: a non-finite junction temperature is a
//! usage error (exit 2, empty stdout, the flag named on stderr), not a
//! campaign of panicking units.

use std::process::Command;

#[test]
fn non_finite_junction_temperature_is_a_usage_error() {
    for (args, needle) in [
        (
            &["--junction", "nan", "--faults", "5"][..],
            "--junction must be finite",
        ),
        (&["--junction", "-inf"], "--junction must be finite"),
        (&["--tolerance", "0"], "--tolerance must be positive"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_faultsim"))
            .args(args)
            .output()
            .expect("faultsim binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
