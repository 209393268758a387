//! The `netcheck` command-line frontend.
//!
//! ```text
//! netcheck [--json] [--sarif FILE] [--rules] [--jobs N] [--cache DIR]
//!          [--no-cache] [--baseline FILE] [--deny-warnings] FILE...
//! netcheck certify [--json] [--sarif FILE] [--rules] [--baseline FILE]
//!          [--deny-warnings] BUNDLE...
//!
//! --json            emit diagnostics (or the certificate) as JSON
//! --sarif FILE      additionally write diagnostics as SARIF 2.1.0
//! --rules           list every rule and exit
//! --jobs N          lint N files in parallel (lint mode)
//! --cache DIR       reuse reports for unchanged files (lint mode)
//! --no-cache        ignore and do not touch the cache (lint mode)
//! --baseline FILE   suppress accepted findings (RULE pattern per line)
//! --deny-warnings   exit nonzero on warnings, not just errors
//! --help            this text
//! ```
//!
//! **Lint mode** (default): each input file is linted according to its
//! extension — `.lib`/`.liberty` files parse as Liberty timing
//! libraries (rule bank `NC03xx`), `.toml` files parse as
//! certification bundles (the sensor-configuration rules plus the
//! NC11xx–NC14xx dataflow lints over the bundle's gate-level unit
//! netlist), anything else parses as a SPICE deck (`NC02xx`). Files
//! that fail to parse fire `NC0001`. Targets fan out over `--jobs`
//! worker threads, and `--cache DIR` memoizes each target's report
//! keyed by content fingerprint, so re-linting an unchanged tree is
//! nearly free.
//!
//! **Certify mode**: each input is a certification bundle (INI subset,
//! see `netcheck::absint::bundle`); the abstract interpreter derives
//! the end-to-end interval chain and prints the certificate with every
//! NC09xx/NC10xx finding.
//!
//! Exit status is unified across both modes by [`netcheck::exit_for`]:
//! `0` clean/proven, `1` if any rule fired at error severity — or at
//! warning severity under `--deny-warnings` — and `2` for usage, I/O,
//! or bundle/model evaluation problems. `--help` prints the usage to
//! stdout and exits `0`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use netcheck::absint::{certify, CertifyBundle};
use netcheck::{
    check_deck, check_library, check_netlist_dataflow, check_sensor_config, exit_for, run_targets,
    AnalysisTarget, Baseline, Diagnostic, DriverOptions, Location, Report, RULES,
};
use tsense_cli::{Flags, Kind, Operands, Switch, Value};
use tsense_core::units::Celsius;

const USAGE: &str = "\
usage: netcheck [--json] [--sarif FILE] [--rules] [--jobs N] [--cache DIR]
                [--no-cache] [--baseline FILE] [--deny-warnings] FILE...
       netcheck certify [--json] [--sarif FILE] [--rules] [--baseline FILE]
                [--deny-warnings] BUNDLE...";

/// Lint mode's flags; certify mode takes all but [`LINT_ONLY`].
const FLAGS: &[(&str, Kind)] = &[
    ("--json", Switch),
    ("--sarif", Value),
    ("--rules", Switch),
    ("--jobs", Value),
    ("--cache", Value),
    ("--no-cache", Switch),
    ("--baseline", Value),
    ("--deny-warnings", Switch),
    ("FILE", Operands),
];

/// The parallel driver's flags, which only lint mode runs.
const LINT_ONLY: [&str; 3] = ["--jobs", "--cache", "--no-cache"];

fn list_rules() {
    for rule in RULES {
        println!("{}  {:<7}  {}", rule.id, rule.severity, rule.summary);
    }
}

#[derive(Clone, Copy, PartialEq)]
enum TargetKind {
    Liberty,
    Bundle,
    Spice,
}

fn kind_of(path: &str) -> TargetKind {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("lib") | Some("liberty") => TargetKind::Liberty,
        Some("toml") => TargetKind::Bundle,
        _ => TargetKind::Spice,
    }
}

/// One input file as a cacheable analysis target.
struct FileTarget {
    path: String,
    text: String,
    kind: TargetKind,
}

impl AnalysisTarget for FileTarget {
    fn path(&self) -> &str {
        &self.path
    }

    fn fingerprint_payload(&self) -> Vec<u8> {
        self.text.clone().into_bytes()
    }

    fn rule_set(&self) -> &str {
        match self.kind {
            TargetKind::Liberty => "liberty",
            TargetKind::Bundle => "bundle+netlist-dataflow",
            TargetKind::Spice => "spice-deck",
        }
    }

    fn analyze(&self) -> Report {
        match self.kind {
            TargetKind::Liberty => match stdcell::liberty::from_liberty(&self.text) {
                Ok(lib) => check_library(&lib),
                Err(e) => parse_failure(format!("not a valid Liberty library: {e}")),
            },
            TargetKind::Spice => match spicelite::netlist::parse(&self.text) {
                Ok(deck) => check_deck(&deck),
                Err(e) => parse_failure(format!("not a valid SPICE deck: {e}")),
            },
            TargetKind::Bundle => check_bundle(&self.path, &self.text),
        }
    }
}

/// Lints a certification bundle: the sensor-configuration rules, then
/// the NC11xx–NC14xx dataflow families over the gate-level unit the
/// bundle describes (built at the nominal 25 °C operating point).
fn check_bundle(path: &str, text: &str) -> Report {
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path);
    let bundle = match CertifyBundle::parse(text, stem) {
        Ok(b) => b,
        Err(e) => return parse_failure(format!("not a valid certification bundle: {e}")),
    };
    let mut report = check_sensor_config(&bundle.config);
    let cfg = &bundle.config;
    let period = match cfg.ring.period(&cfg.tech, Celsius::new(25.0)) {
        Ok(p) => p,
        Err(e) => {
            report.push(Diagnostic::error(
                "NC0001",
                Location::object("ring"),
                format!("ring period model failed at 25 C: {e}"),
            ));
            return report;
        }
    };
    // The dataflow families are structural: the period only picks the
    // clock-domain roots, never a timing margin. Lint at the nominal
    // period clamped to the divider's toggle-loop floor so fast rings
    // still get their netlist checked — whether the *real* period
    // satisfies that floor is NC0905's job under `certify`.
    let floor_ps =
        2.0 * (dsim::builders::DFF_DELAY_FS + dsim::builders::GATE_DELAY_FS) as f64 * 1e-3;
    let lint_period = tsense_core::units::Seconds::from_picos(period.as_picos().max(floor_ps));
    match sensor::gateunit::GateLevelUnit::new(
        lint_period,
        cfg.ref_clock,
        cfg.settle_cycles,
        cfg.window_cycles,
    ) {
        Ok(unit) => report.extend(check_netlist_dataflow(unit.netlist())),
        Err(e) => report.push(Diagnostic::error(
            "NC0001",
            Location::object("gate-level unit"),
            format!("cannot build the gate-level unit for dataflow linting: {e}"),
        )),
    }
    report
}

fn parse_failure(message: String) -> Report {
    let mut report = Report::new();
    report.push(Diagnostic::error(
        "NC0001",
        Location::object("input"),
        message,
    ));
    report
}

/// Parsed command line, shared by both modes.
struct Options {
    json: bool,
    sarif: Option<String>,
    jobs: usize,
    cache: Option<PathBuf>,
    no_cache: bool,
    baseline: Option<String>,
    deny_warnings: bool,
    files: Vec<String>,
}

/// Loads the baseline file when one was given; exit 2 if unreadable.
fn load_baseline(opts: &Options) -> Result<Baseline, ExitCode> {
    match &opts.baseline {
        None => Ok(Baseline::default()),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) => {
                eprintln!("netcheck: cannot read baseline {path}: {e}");
                Err(ExitCode::from(2))
            }
        },
    }
}

/// Writes the SARIF artifact when requested; exit code 2 on I/O error.
fn write_sarif(report: &Report, path: &str) -> Result<(), ExitCode> {
    std::fs::write(path, report.render_sarif()).map_err(|e| {
        eprintln!("netcheck: cannot write SARIF to {path}: {e}");
        ExitCode::from(2)
    })
}

/// Renders, writes SARIF, applies the unified exit policy. Shared by
/// lint and certify so the two modes cannot drift apart.
fn finish(mut report: Report, opts: &Options, baseline: &Baseline) -> ExitCode {
    report = baseline.apply(&report);
    if let Some(path) = &opts.sarif {
        if let Err(code) = write_sarif(&report, path) {
            return code;
        }
    }
    if opts.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    ExitCode::from(exit_for(&report, opts.deny_warnings) as u8)
}

fn run_lint(opts: &Options) -> ExitCode {
    let baseline = match load_baseline(opts) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut targets: Vec<FileTarget> = Vec::new();
    for path in &opts.files {
        match std::fs::read_to_string(path) {
            Ok(text) => targets.push(FileTarget {
                path: path.clone(),
                text,
                kind: kind_of(path),
            }),
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let refs: Vec<&dyn AnalysisTarget> = targets.iter().map(|t| t as _).collect();
    let driver_opts = DriverOptions {
        jobs: opts.jobs,
        cache_dir: if opts.no_cache {
            None
        } else {
            opts.cache.clone()
        },
        ..DriverOptions::default()
    };
    let outcome = run_targets(&refs, &driver_opts);
    if driver_opts.cache_dir.is_some() {
        eprintln!("{}", outcome.stats.render());
    }
    finish(outcome.report, opts, &baseline)
}

fn run_certify(opts: &Options) -> ExitCode {
    let baseline = match load_baseline(opts) {
        Ok(b) => b,
        Err(code) => return code,
    };
    let mut combined = Report::new();
    let mut certificates_json: Vec<String> = Vec::new();
    for path in &opts.files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let stem = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path);
        let bundle = match CertifyBundle::parse(&text, stem) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let cert = match certify(&bundle) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("netcheck: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if opts.json {
            certificates_json.push(cert.render_json());
        } else {
            print!("{}", cert.render_text());
            println!();
        }
        combined.extend(cert.report.clone().with_path(path));
    }
    combined.sort();

    if opts.json {
        println!("[{}]", certificates_json.join(","));
    }
    // `finish` would double-print the diagnostics as JSON; certify's
    // JSON is the certificate array, so only SARIF + exit policy here.
    let combined = baseline.apply(&combined);
    if let Some(path) = &opts.sarif {
        if let Err(code) = write_sarif(&combined, path) {
            return code;
        }
    }
    ExitCode::from(exit_for(&combined, opts.deny_warnings) as u8)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let certify_mode = args.next_if(|a| a == "certify").is_some();
    let spec: Vec<_> = FLAGS
        .iter()
        .copied()
        .filter(|(name, _)| !(certify_mode && LINT_ONLY.contains(name)))
        .collect();
    let flags = Flags::parse("netcheck", USAGE, &spec, args);
    if flags.has("--rules") {
        list_rules();
        return ExitCode::SUCCESS;
    }
    let opts = Options {
        json: flags.has("--json"),
        sarif: flags.get("--sarif"),
        jobs: flags.positive("--jobs", 1),
        cache: flags.get("--cache"),
        no_cache: flags.has("--no-cache"),
        baseline: flags.get("--baseline"),
        deny_warnings: flags.has("--deny-warnings"),
        files: flags.operands().to_vec(),
    };
    if opts.files.is_empty() {
        flags.fail("no input files");
    }
    if certify_mode {
        run_certify(&opts)
    } else {
        run_lint(&opts)
    }
}
