//! `wire` — the real wire-protocol fleet tier as a benchmark: paired
//! open-loop soaks over live TCP, clean and through the seeded chaos
//! proxy, recording throughput, tail latency, and the four fleet
//! invariants.
//!
//! This is the network-boundary analogue of the in-process `soak`
//! experiment: the same supervised cores now sit behind the
//! length-prefixed frame codec, a threaded server with deadlines and
//! backpressure, and a retrying client — so the question becomes
//! *"does the deadline/staleness contract survive a hostile network
//! (latency spikes, truncation, resets, garbage injection) plus a
//! mid-soak crash-recover and a decommission?"*. Both runs must hold
//! all four invariants: honest staleness, no decommissioned shard
//! served, no resurrected cache, at-most-once effects.

use std::fmt::Write as _;
use std::path::Path;

use runtime::{run_wire_soak, RetryPolicy, WireSoakConfig, WireSoakReport};
use wire::chaos::ChaosProfile;

use crate::{render_table, write_artifact};

/// Seed shared by both runs (and CI's seeded chaos smoke soak).
pub const WIRE_SEED: u64 = 42;

fn wire_config(tag: &str, chaos: bool) -> WireSoakConfig {
    // Snapshots are scratch state for the crash-recover leg, not an
    // artifact: keep them out of the results directory.
    let snap_dir = std::env::temp_dir().join(format!(
        "tsense_bench_wire_snap_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&snap_dir).ok();
    let mut cfg = WireSoakConfig {
        seed: WIRE_SEED,
        duration_ms: 2_500,
        rate_hz: 200.0,
        clients: 4,
        chaos: chaos.then(ChaosProfile::hostile),
        client_retry: RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 2,
            max_delay_ms: 40,
            ..RetryPolicy::default()
        },
        crash: Some((1, 1_000)),
        decommission: Some((2, 1_800)),
        ..WireSoakConfig::default()
    };
    cfg.server.snapshot_root = Some(snap_dir);
    cfg
}

fn row(tag: &str, r: &WireSoakReport) -> Vec<String> {
    vec![
        tag.to_string(),
        r.requests.to_string(),
        format!("{:.0}", r.throughput_rps),
        format!("<{}", r.histogram.quantile_ms(0.50)),
        format!("<{}", r.histogram.quantile_ms(0.99)),
        format!("<{}", r.histogram.quantile_ms(0.999)),
        r.server.shed.to_string(),
        r.server.deduped.to_string(),
        r.server.failovers.to_string(),
        r.chaos_faults.map_or("-".into(), |f| f.to_string()),
    ]
}

fn json_block(tag: &str, r: &WireSoakReport) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "  \"{tag}\": {{");
    let _ = writeln!(j, "    \"requests\": {},", r.requests);
    let _ = writeln!(j, "    \"completed\": {},", r.completed);
    let _ = writeln!(j, "    \"failed\": {},", r.failed);
    let _ = writeln!(j, "    \"exhausted\": {},", r.exhausted);
    let _ = writeln!(j, "    \"throughput_rps\": {:.1},", r.throughput_rps);
    let _ = writeln!(j, "    \"mean_latency_ms\": {:.2},", r.histogram.mean_ms());
    let _ = writeln!(j, "    \"p50_ms\": {},", r.histogram.quantile_ms(0.50));
    let _ = writeln!(j, "    \"p99_ms\": {},", r.histogram.quantile_ms(0.99));
    let _ = writeln!(j, "    \"p999_ms\": {},", r.histogram.quantile_ms(0.999));
    let _ = writeln!(j, "    \"max_latency_ms\": {},", r.histogram.max_ms());
    let _ = writeln!(j, "    \"shed\": {},", r.server.shed);
    let _ = writeln!(j, "    \"deduped\": {},", r.server.deduped);
    let _ = writeln!(
        j,
        "    \"duplicate_effects\": {},",
        r.server.duplicate_effects
    );
    let _ = writeln!(j, "    \"failovers\": {},", r.server.failovers);
    let _ = writeln!(j, "    \"bad_frames\": {},", r.server.bad_frames);
    let _ = writeln!(j, "    \"crashes\": {},", r.server.crashes);
    let _ = writeln!(j, "    \"resurrected\": {},", r.server.resurrected);
    let _ = writeln!(
        j,
        "    \"chaos_faults\": {},",
        r.chaos_faults.map_or("null".into(), |f| f.to_string())
    );
    let _ = writeln!(j, "    \"violations\": {},", r.violations.len());
    let _ = writeln!(j, "    \"invariants_ok\": {}", r.invariants_ok());
    j.push_str("  }");
    j
}

/// Runs the experiment; see module docs.
///
/// # Panics
///
/// Panics if a soak cannot start — the harness is a diagnostic tool.
pub fn run(out_dir: &Path) -> String {
    let clean = run_wire_soak(&wire_config("clean", false)).expect("clean wire soak");
    let chaos = run_wire_soak(&wire_config("chaos", true)).expect("chaos wire soak");

    // ---- artifacts ----------------------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {WIRE_SEED},");
    json.push_str(&json_block("clean", &clean));
    json.push_str(",\n");
    json.push_str(&json_block("chaos", &chaos));
    json.push_str("\n}\n");
    write_artifact(out_dir, "BENCH_wire_fleet.json", &json);
    write_artifact(
        out_dir,
        "wire_fleet_clean_hist.txt",
        &clean.histogram.render(),
    );
    write_artifact(
        out_dir,
        "wire_fleet_chaos_hist.txt",
        &chaos.histogram.render(),
    );

    // ---- report -------------------------------------------------------
    let mut report = String::new();
    report
        .push_str("wire — fleet tier over live TCP, clean and through the seeded chaos proxy\n\n");
    report.push_str(&render_table(
        &[
            "run",
            "requests",
            "req/s",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "shed",
            "deduped",
            "failovers",
            "faults",
        ],
        &[row("clean", &clean), row("chaos", &chaos)],
    ));
    report.push('\n');
    for (tag, r) in [("clean", &clean), ("chaos", &chaos)] {
        let _ = writeln!(
            report,
            "{tag}: four fleet invariants (honest staleness, no decommissioned serve, \
             no resurrected cache, at-most-once): {}",
            if r.invariants_ok() { "PASS" } else { "FAIL" }
        );
        for v in &r.violations {
            let _ = writeln!(report, "{tag}:   violation: {v}");
        }
    }
    let _ = writeln!(
        report,
        "chaos: {} network fault(s) injected, {} retried request(s) deduplicated, \
         {} duplicate effect(s): {}",
        chaos.chaos_faults.unwrap_or(0),
        chaos.server.deduped,
        chaos.server.duplicate_effects,
        if chaos.server.duplicate_effects == 0 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_report_passes_its_own_checks() {
        let dir = std::env::temp_dir().join("tsense_bench_wire_test");
        std::fs::remove_dir_all(&dir).ok();
        let report = run(&dir);
        assert!(!report.contains("FAIL"), "{report}");
        let json = std::fs::read_to_string(dir.join("BENCH_wire_fleet.json")).unwrap();
        assert!(json.contains("\"invariants_ok\": true"));
        assert!(json.contains("\"duplicate_effects\": 0"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
