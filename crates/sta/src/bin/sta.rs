//! `sta` — temperature-aware static timing analysis of sensor rings.
//!
//! ```text
//! sta [OPTIONS] [MIX...]
//!
//! MIX            cell mix like `3xINV+2xNAND3` (see `parse_mix`)
//! --examples     analyze every shipped example ring
//! --temps LIST   comma-separated °C (default: -50,27,150)
//! --ratio R      Wp/Wn sizing ratio (default: 2.0)
//! --validate     cross-validate STA against the transient simulator
//! --check        run the NC05xx timing rules on each ring netlist
//! --json         machine-readable output
//! --rules        list the timing rule ids and exit
//! --help         this text
//! ```
//!
//! Exit status: 0 clean; 1 when any timing rule reports an error or any
//! cross-validation point exceeds tolerance; 2 on usage errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use sta::report;
use sta::{
    check_timing, cross_validate, parse_mix, shipped_rings, AnalyticalModel, RingSpec, StaError,
    TimingCheckOptions, CROSS_VALIDATION_TOLERANCE,
};
use tsense_cli::{Flags, Kind, Operands, Switch, Value};

const USAGE: &str = "usage: sta [--examples] [--temps LIST] [--ratio R] [--validate] \
                     [--check] [--json] [--rules] [MIX...]";

struct Options {
    examples: bool,
    temps_c: Vec<f64>,
    ratio: f64,
    validate: bool,
    check: bool,
    json: bool,
    mixes: Vec<String>,
}

fn run_ring(
    spec: &RingSpec,
    opts: &Options,
    model: &AnalyticalModel,
) -> Result<(bool, String), StaError> {
    let mut failed = false;
    let mut out = String::new();
    let mut json_periods: Vec<String> = Vec::new();
    let mut json_validation = String::from("null");
    let mut json_violations = String::from("[]");

    for &temp_c in &opts.temps_c {
        let ring = sta::build_ring(&spec.kinds, model, temp_c)?;
        let analysis = ring.analyze();
        let period_fs = analysis.ring_period_fs()?;
        if opts.json {
            json_periods.push(format!("{{\"temp_c\":{temp_c},\"period_fs\":{period_fs}}}"));
        } else {
            out.push_str(&format!(
                "  {temp_c:>7.1} °C: period {:.4} ns  ({:.3} MHz)\n",
                period_fs * 1e-6,
                1e9 / period_fs
            ));
        }
        if opts.check {
            let violations = check_timing(&ring.netlist, &analysis, &TimingCheckOptions::default());
            if sta::has_errors(&violations) {
                failed = true;
            }
            if opts.json {
                json_violations = report::violations_json(&violations);
            } else if !violations.is_empty() {
                out.push_str(&report::render_violations(&violations));
            }
        }
    }

    if opts.validate {
        let points = cross_validate(&spec.kinds, model, &opts.temps_c)?;
        if opts.json {
            json_validation = report::cross_validation_json(&points);
        }
        for p in &points {
            let ok = p.within_tolerance();
            if !ok {
                failed = true;
            }
            if !opts.json {
                out.push_str(&format!(
                    "  {:>7.1} °C: sta {:.4} ns vs sim {:.4} ns  ({:+.5} %  {})\n",
                    p.temp_c,
                    p.sta_period_fs * 1e-6,
                    p.sim_period_fs * 1e-6,
                    100.0 * p.rel_error,
                    if ok { "ok" } else { "FAIL" }
                ));
            }
        }
    }

    if opts.json {
        out = format!(
            "{{\"ring\":\"{}\",\"stages\":{},\"periods\":[{}],\"validation\":{},\"violations\":{}}}",
            report::json_escape(&spec.name),
            spec.kinds.len(),
            json_periods.join(","),
            json_validation,
            json_violations
        );
    } else {
        out = format!("ring {} ({} stages)\n{out}", spec.name, spec.kinds.len());
    }
    Ok((failed, out))
}

fn main() -> ExitCode {
    const FLAGS: &[(&str, Kind)] = &[
        ("--examples", Switch),
        ("--temps", Value),
        ("--ratio", Value),
        ("--validate", Switch),
        ("--check", Switch),
        ("--json", Switch),
        ("--rules", Switch),
        ("MIX", Operands),
    ];
    let f = Flags::parse("sta", USAGE, FLAGS, std::env::args().skip(1));
    if f.has("--rules") {
        println!(
            "{}  error    STA period contradicts the declared clock period",
            sta::NC0503
        );
        println!(
            "{}  warning  excessive fan-out delay degradation",
            sta::NC0501
        );
        println!("{}  warning  unconstrained timing endpoint", sta::NC0502);
        return ExitCode::SUCCESS;
    }
    let opts = Options {
        examples: f.has("--examples"),
        temps_c: f.finite_list("--temps", vec![-50.0, 27.0, 150.0]),
        ratio: f.positive("--ratio", 2.0),
        validate: f.has("--validate"),
        check: f.has("--check"),
        json: f.has("--json"),
        mixes: f.operands().to_vec(),
    };
    if !opts.examples && opts.mixes.is_empty() {
        f.fail("give a cell mix or --examples");
    }

    let mut specs: Vec<RingSpec> = Vec::new();
    if opts.examples {
        specs.extend(shipped_rings());
    }
    for mix in &opts.mixes {
        match parse_mix(mix) {
            Ok(kinds) => specs.push(RingSpec {
                name: mix.clone(),
                kinds,
            }),
            Err(e) => f.fail(e),
        }
    }

    let model = AnalyticalModel::um350(opts.ratio);
    let mut failed = false;
    let mut json_rings: Vec<String> = Vec::new();
    for spec in &specs {
        match run_ring(spec, &opts, &model) {
            Ok((ring_failed, rendered)) => {
                failed |= ring_failed;
                if opts.json {
                    json_rings.push(rendered);
                } else {
                    println!("{rendered}");
                }
            }
            Err(e) => {
                eprintln!("sta: ring {}: {e}", spec.name);
                failed = true;
            }
        }
    }
    if opts.json {
        println!(
            "{{\"tolerance\":{CROSS_VALIDATION_TOLERANCE},\"rings\":[{}],\"failed\":{failed}}}",
            json_rings.join(",")
        );
    } else if opts.validate {
        println!(
            "cross-validation tolerance: {:.3} %",
            100.0 * CROSS_VALIDATION_TOLERANCE
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
