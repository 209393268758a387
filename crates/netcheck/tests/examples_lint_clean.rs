//! Every netlist, deck, library, and configuration the repository
//! ships as an example must lint clean: no rule may fire at error
//! severity. Infos (e.g. the intentional-ring note `NC0104`) are fine.

use dsim::builders::ring_oscillator;
use dsim::netlist::{GateOp, Netlist};
use netcheck::{check_deck, check_library, check_netlist, check_sensor_config, Severity};
use sensor::gateunit::GateLevelUnit;
use sensor::unit::SensorConfig;
use stdcell::library::CellLibrary;
use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::{CellConfig, RingOscillator};
use tsense_core::tech::Technology;
use tsense_core::units::{Hertz, Seconds};

#[test]
fn builder_rings_lint_clean() {
    for ops in [
        vec![GateOp::Inv; 5],
        vec![GateOp::Inv; 9],
        vec![GateOp::Inv; 21],
        vec![
            GateOp::Inv,
            GateOp::Inv,
            GateOp::Inv,
            GateOp::Nand,
            GateOp::Nor,
        ],
    ] {
        let mut nl = Netlist::new();
        ring_oscillator(&mut nl, &ops, "ring", 12_000).unwrap();
        let report = check_netlist(&nl);
        assert!(!report.has_errors(), "{ops:?}:\n{}", report.render_text());
        // The loop pass should still *see* the ring and note it.
        assert_eq!(report.count(Severity::Info), 1, "{}", report.render_text());
    }
}

#[test]
fn gate_level_unit_netlist_lints_clean() {
    let unit =
        GateLevelUnit::new(Seconds::from_nanos(1.5), Hertz::from_mega(1000.0), 16, 128).unwrap();
    let report = check_netlist(unit.netlist());
    assert!(!report.has_errors(), "{}", report.render_text());
}

#[test]
fn example_spice_deck_lints_clean() {
    // The deck built by `examples/spice_netlist.rs`: exported cell
    // library text plus a 5-stage inverter ring instance.
    let lib = CellLibrary::um350(2.0);
    let deck_text = format!(
        "{header}VDD vdd 0 DC 3.3
X1 n0 n1 vdd inv
X2 n1 n2 vdd inv
X3 n2 n3 vdd inv
X4 n3 n4 vdd inv
X5 n4 n0 vdd inv
.ic V(n0)=0 V(n1)=3.3 V(n2)=0 V(n3)=3.3 V(n4)=0
.temp 27
.tran 2p 1500p UIC
.end
",
        header = lib.library_text()
    );
    let deck = spicelite::netlist::parse(&deck_text).unwrap();
    let report = check_deck(&deck);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn characterized_library_lints_clean() {
    let lib = CellLibrary::um350(2.0);
    let mut timing = stdcell::liberty::TimingLibrary::new("um350_lint");
    timing.insert(
        lib.characterize_cell(GateKind::Inv, &[-50.0, 27.0, 150.0])
            .unwrap(),
    );
    let report = check_library(&timing);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn paper_sensor_configs_lint_clean() {
    let tech = Technology::um350();
    for mix in CellConfig::paper_fig3_set() {
        let ring = RingOscillator::from_config(&mix, 1.0e-6, 2.0).unwrap();
        let report = check_sensor_config(&SensorConfig::new(ring, tech.clone()));
        assert!(report.is_clean(), "{mix}:\n{}", report.render_text());
    }
    for n in [9usize, 21] {
        let gate = Gate::with_ratio(GateKind::Inv, 1.0e-6, 2.0).unwrap();
        let ring = RingOscillator::uniform(gate, n).unwrap();
        let report = check_sensor_config(&SensorConfig::new(ring, tech.clone()));
        assert!(report.is_clean(), "{n} stages:\n{}", report.render_text());
    }
}

mod cli {
    use std::path::PathBuf;
    use std::process::Command;

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn clean_deck_exits_zero() {
        let path = write_temp(
            "clean_divider.sp",
            "divider\nV1 in 0 DC 3.3\nR1 in out 1k\nR2 out 0 2.2k\n",
        );
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .arg(&path)
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
    }

    #[test]
    fn defective_deck_exits_one_and_reports_json() {
        let path = write_temp("floating_island.sp", "island\nV1 a b DC 1\nR1 a b 1k\n");
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .args(["--json"])
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("\"NC0202\""), "{stdout}");
    }

    #[test]
    fn unparseable_input_fires_nc0001() {
        let path = write_temp("garbage.sp", "t\nQ1 a b c bjt-not-supported\n");
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("NC0001"), "{stdout}");
    }

    #[test]
    fn rules_listing_covers_every_bank() {
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .arg("--rules")
            .output()
            .unwrap();
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        for id in ["NC0101", "NC0201", "NC0301", "NC0401"] {
            assert!(stdout.contains(id), "{stdout}");
        }
    }

    #[test]
    fn help_goes_to_stdout_and_certify_rejects_lint_only_flags() {
        let help = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .arg("--help")
            .output()
            .unwrap();
        assert!(help.status.success(), "{help:?}");
        let stdout = String::from_utf8(help.stdout).unwrap();
        assert!(stdout.starts_with("usage: netcheck"), "{stdout}");
        for flag in [&["--jobs", "2"][..], &["--cache", "dir"], &["--no-cache"]] {
            let out = Command::new(env!("CARGO_BIN_EXE_netcheck"))
                .arg("certify")
                .args(flag)
                .arg("bundle.toml")
                .output()
                .unwrap();
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
            assert!(
                stderr.contains(&format!("unknown argument `{}`", flag[0])),
                "{stderr}"
            );
            assert!(out.stdout.is_empty(), "{flag:?}");
        }
    }
}
