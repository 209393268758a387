//! `faultsim` — seeded fault-injection campaigns over the sensor stack.
//!
//! ```text
//! faultsim [OPTIONS]
//!
//! --seed N       RNG seed for fault sampling (default: 42)
//! --faults N     number of sampled faults; 0 enumerates the whole
//!                universe once (default: 100)
//! --junction T   nominal junction temperature, °C (default: 85)
//! --tolerance T  silent-corruption tolerance, °C (default: 3)
//! --spice        include transistor-level deck faults (slower)
//! --check        fail (exit 1) on any hang/panic/silent corruption or
//!                when fault coverage drops below 90 %
//! --verbose      list every run, not just the alarming ones
//! --json         machine-readable output
//! --help         this text
//! ```
//!
//! Exit status: 0 clean; 1 when `--check` fails; 2 on usage errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use faultsim::{render_json, render_text, run_campaign, CampaignConfig};
use tsense_cli::{Flags, Kind, Switch, Value};

const USAGE: &str = "usage: faultsim [--seed N] [--faults N] [--junction T] [--tolerance T] \
                     [--spice] [--check] [--verbose] [--json]";

/// The `--check` coverage floor.
const COVERAGE_FLOOR: f64 = 0.9;

struct Options {
    config: CampaignConfig,
    check: bool,
    verbose: bool,
    json: bool,
}

fn main() -> ExitCode {
    const FLAGS: &[(&str, Kind)] = &[
        ("--seed", Value),
        ("--faults", Value),
        ("--junction", Value),
        ("--tolerance", Value),
        ("--spice", Switch),
        ("--check", Switch),
        ("--verbose", Switch),
        ("--json", Switch),
    ];
    let f = Flags::parse("faultsim", USAGE, FLAGS, std::env::args().skip(1));
    let config = CampaignConfig::default();
    let opts = Options {
        config: CampaignConfig {
            seed: f.or("--seed", config.seed),
            faults: f.or("--faults", config.faults),
            junction_c: f.finite("--junction", config.junction_c),
            tolerance_c: f.positive("--tolerance", config.tolerance_c),
            with_spice: f.has("--spice"),
            ..config
        },
        check: f.has("--check"),
        verbose: f.has("--verbose"),
        json: f.has("--json"),
    };
    let result = run_campaign(&opts.config);
    if opts.json {
        println!("{}", render_json(&result));
    } else {
        print!("{}", render_text(&result, opts.verbose));
    }
    let clean = result.hung() == 0
        && result.panics == 0
        && result.silent() == 0
        && result.coverage() >= COVERAGE_FLOOR;
    let failure = (!clean).then(|| {
        format!(
            "faultsim: check FAILED (hang {} panic {} silent {} coverage {:.1} % < {:.0} %)",
            result.hung(),
            result.panics,
            result.silent(),
            result.coverage() * 100.0,
            COVERAGE_FLOOR * 100.0,
        )
    });
    tsense_cli::verdict(opts.check, opts.json, failure)
}
