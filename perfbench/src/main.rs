//! The repository benchmark. One command runs one named workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point_read|map_scan|fig3_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! from the repository root. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones; see `perfbench/README.md` for what
//! each workload runs and which layers it should move. The last line
//! of standard output is the JSON result; the exit code is non-zero
//! when an output check failed or the arguments are unusable.

mod fig3;
mod hist;
mod layers;
mod load;
mod report;
mod serving;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use hist::Hist;
use load::mix;
use report::{median, Report};
use serving::{MAP_SCAN, POINT_READ};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PointRead,
    MapScan,
    Fig3Sweep,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "point_read" => Workload::PointRead,
                    "map_scan" => Workload::MapScan,
                    "fig3_sweep" => Workload::Fig3Sweep,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload point_read|map_scan|fig3_sweep --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.line(format!("fingerprint {}", fingerprint(&args)));
    match (args.workload, args.trace) {
        (Workload::PointRead, false) => {
            serving::run(&POINT_READ, args.seed, args.seconds, &mut report)
        }
        (Workload::MapScan, false) => serving::run(&MAP_SCAN, args.seed, args.seconds, &mut report),
        (Workload::Fig3Sweep, false) => fig3_run(&args, &mut report),
        (_, true) => traced_run(&args, &mut report),
    }
    println!("{}", report.json());
    if report.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-ups measured for `fig3_sweep`'s `setup_s`.
const FIG3_SETUPS: usize = 21;

/// What each transient needs before it runs: the cell library, every
/// candidate ring, and its circuit elaborated at every temperature.
fn fig3_setup(configs: &[tsense_core::ring::CellConfig]) -> Result<Duration, String> {
    let t = Instant::now();
    let lib = stdcell::library::CellLibrary::um350(fig3::LIBRARY_RATIO);
    for config in configs {
        let ring = lib.ring_from_config(config).map_err(|e| e.to_string())?;
        for temp in fig3::temps() {
            std::hint::black_box(ring.elaborate(temp).map_err(|e| e.to_string())?);
        }
    }
    Ok(t.elapsed())
}

/// `fig3_sweep` untraced: whole sweeps until the time is spent (at least
/// two), every one checked and digested. Each transient is the same
/// deterministic work in every sweep, so its host time is taken as its
/// fastest over the sweeps: time the hypervisor gave other guests only
/// ever adds to it.
fn fig3_run(args: &Args, report: &mut Report) {
    let configs = match fig3::shortlist() {
        Ok(c) => c,
        Err(e) => return report.fail(format!("fig3 search: {e}")),
    };
    let mut setups = Vec::new();
    for _ in 0..FIG3_SETUPS {
        match fig3_setup(&configs) {
            Ok(t) => setups.push(t.as_secs_f64()),
            Err(e) => return report.fail(format!("fig3 set-up: {e}")),
        }
    }
    let start = Instant::now();
    let cpu0 = report::cpu_seconds();
    let mut totals = Vec::new();
    let mut fastest: Vec<Duration> = Vec::new();
    let mut digests = Vec::new();
    while totals.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let s = match fig3::sweep(fig3::SHORTLIST, false) {
            Ok(s) => s,
            Err(e) => return report.fail(format!("fig3 sweep: {e}")),
        };
        for f in &s.failures {
            report.fail(f.clone());
        }
        if fastest.is_empty() {
            fastest = s.transients.clone();
        }
        for (f, t) in fastest.iter_mut().zip(&s.transients) {
            *f = (*f).min(*t);
        }
        report.attempted += s.transients.len() as u64;
        totals.push(s.total.as_secs_f64());
        digests.push(fig3::digest(&s.periods));
        if totals.len() == 1 {
            report.line(format!(
                "fig3 ranking {:?}; exhaustive winner {}",
                s.ranking, s.winner
            ));
            report.line(format!(
                "fig3 period digest {:016x} ({} simulated periods)",
                digests[0],
                s.periods.len()
            ));
        }
    }
    let cpu_us_per_op = (report::cpu_seconds() - cpu0) * 1e6 / report.attempted.max(1) as f64;
    if digests.iter().any(|d| *d != digests[0]) {
        report.fail(format!(
            "fig3 periods differ between sweeps of one run: {digests:x?}"
        ));
    }
    let us: Vec<f64> = fastest.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    let (p50, p99) = (report::quantile(&us, 0.5), report::quantile(&us, 0.99));
    let floor_s = us.iter().sum::<f64>() / 1e6;
    report.line(format!(
        "fig3_s {:.6} s (median of {} sweeps; fastest-per-transient sum {floor_s:.6} s)",
        median(&totals),
        totals.len()
    ));
    let n = us.len();
    report.line(format!(
        "measure_period p50 {p50:.1} us (n={n} transients, each its fastest of {} sweeps)",
        totals.len()
    ));
    report.line(format!("measure_period p99 {p99:.1} us (n={n})"));
    report.line(format!(
        "cpu_us_per_op {cpu_us_per_op:.1} us (process CPU per transient, searches included)"
    ));
    report.metric("cpu_us_per_op", cpu_us_per_op, "us");
    report.line(format!("transients_per_s {:.3} 1/s", n as f64 / floor_s));
    report.setup(&setups);
    report::peak_rss(report);
}

/// The traced run: the workload's own pass timed layer by layer, plus
/// fixed probes of every other layer, so every per-layer metric is
/// reported on every workload. `fig3_sweep` probes the serving layers
/// with a short `point_read`-shaped pass; the serving workloads probe
/// the science layers with the 5×INV baseline's 9 transients.
fn traced_run(args: &Args, report: &mut Report) {
    let (shape, serve_each) = match args.workload {
        Workload::PointRead => (&POINT_READ, 0.3 * args.seconds),
        Workload::MapScan => (&MAP_SCAN, 0.3 * args.seconds),
        Workload::Fig3Sweep => (&POINT_READ, 0.5),
    };
    let map_entries = match shape.op {
        load::Op::Read => None,
        load::Op::Map { entries } => Some(entries),
    };
    let budget = shape.server_config(0).frame_budget;
    let per = |r: Result<f64, String>, report: &mut Report, what: &str| match r {
        Ok(v) => v,
        Err(e) => {
            report.fail(format!("{what}: {e}"));
            f64::NAN
        }
    };

    // wire
    let (req, resp) = layers::messages(map_entries);
    let (enc, dec, bytes) = match layers::wire_codec(&req, &resp, budget) {
        Ok(x) => x,
        Err(e) => {
            report.fail(format!("wire codec: {e}"));
            (f64::NAN, f64::NAN, 0)
        }
    };
    report.metric("wire.encode_ns", enc, "ns");
    report.metric("wire.decode_ns", dec, "ns");
    report.metric("wire.resp_bytes", bytes as f64, "bytes");
    report.metric(
        "wire.ring_route_ns",
        layers::ring_route_ns(3, mix(args.seed, 800)),
        "ns",
    );

    // runtime::client and runtime::serve, from the workload's pass.
    let Some(tp) = serving::traced_pass(
        shape,
        args.seed,
        Duration::from_secs_f64(serve_each),
        report,
    ) else {
        return;
    };
    let t = &tp.traced;
    for (name, h) in [
        ("client.request", &t.request),
        ("bench.gen_late", &t.gen_late),
        ("latency", &t.latency),
    ] {
        report.line(format!(
            "{name}: p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, max {:.1} us (n={})",
            h.quantile_us(0.5),
            h.quantile_us(0.99),
            h.quantile_us(0.999),
            h.max_ns() as f64 / 1e3,
            h.count()
        ));
    }
    let (req_p50, req_p99) = serving::p50_p99_us(&t.request);
    report.metric("client.request_p50_us", req_p50, "us");
    report.metric("client.request_p99_us", req_p99, "us");
    let answered = (t.ok + t.failed).max(1) as f64;
    report.metric(
        "client.attempts_per_op",
        t.client_attempts as f64 / answered,
        "ratio",
    );
    let ops = t.attempted.max(1) as f64;
    report.metric("serve.shed_frac", tp.serve.shed as f64 / ops, "ratio");
    report.metric(
        "serve.replicated_per_read",
        tp.serve.replicated as f64 / ops,
        "ratio",
    );
    report.metric("serve.deduped", tp.serve.deduped as f64, "count");
    report.metric("serve.failovers", tp.serve.failovers as f64, "count");
    report.metric(
        "serve.fenced_writes",
        tp.serve.fenced_writes as f64,
        "count",
    );
    report.metric("serve.bad_frames", tp.serve.bad_frames as f64, "count");

    // runtime::service: the in-process baseline.
    match layers::service_probe(shape.sites_per_shard, mix(args.seed, 801), 20_000) {
        Ok(sp) => {
            let (p50, p99) = serving::p50_p99_us(&sp.read);
            report.metric("service.read_p50_us", p50, "us");
            report.metric("service.read_p99_us", p99, "us");
            report.metric("service.fresh_frac", sp.fresh_frac, "ratio");
            report.metric("service.degraded_frac", sp.degraded_frac, "ratio");
            report.metric("service.queue_sheds", sp.queue_sheds as f64, "count");
        }
        Err(e) => report.fail(format!("service probe: {e}")),
    }

    // sensor
    let v = per(layers::sensor_measure_ns(), report, "sensor measure");
    report.metric("sensor.measure_ns", v, "ns");
    let v = per(layers::scan_degraded_us(), report, "scan_degraded");
    report.metric("sensor.scan_degraded_us", v, "us");

    // runtime::effect_log, in a scratch directory of the checkout.
    let tmp = std::path::Path::new(".perfbench_tmp");
    let v = per(
        layers::effect_log_append_us(&tmp.join(std::process::id().to_string()), 200),
        report,
        "effect log",
    );
    report.metric("effect_log.append_us", v, "us");
    // Fails, harmlessly, while another run still uses the directory.
    let _ = std::fs::remove_dir(tmp);

    // tsense_core::optimize, stdcell, spicelite, linearity
    let full = args.workload == Workload::Fig3Sweep;
    let untraced = if full {
        match fig3::sweep(fig3::SHORTLIST, false) {
            Ok(s) => Some(s),
            Err(e) => return report.fail(format!("fig3 sweep: {e}")),
        }
    } else {
        None
    };
    let sweep = match fig3::sweep(if full { fig3::SHORTLIST } else { 0 }, true) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("fig3 sweep: {e}")),
    };
    for f in &sweep.failures {
        report.fail(f.clone());
    }
    report.line(format!(
        "fig3 period digest {:016x} ({} simulated periods)",
        fig3::digest(&sweep.periods),
        sweep.periods.len()
    ));
    let tr = sweep.trace.as_ref().expect("traced sweep");
    report.metric(
        "optimize.config_search_ms",
        layers::ms(tr.config_search),
        "ms",
    );
    report.metric("optimize.exhaustive_ms", layers::ms(tr.exhaustive), "ms");
    report.metric("stdcell.elaborate_us", tr.elaborate.quantile_us(0.5), "us");
    let mut periods = Hist::default();
    for d in &sweep.transients {
        periods.record(*d);
    }
    report.metric(
        "stdcell.measure_period_ms",
        periods.quantile_us(0.5) / 1e3,
        "ms",
    );
    report.metric(
        "stdcell.measure_period_max_ms",
        periods.max_ns() as f64 / 1e6,
        "ms",
    );
    report.metric(
        "stdcell.measure_period_count",
        periods.count() as f64,
        "count",
    );
    match layers::spicelite_probe(&sweep.configs, &fig3::temps()) {
        Ok((runs, steps)) => {
            report.metric("spicelite.transient_ms", runs.quantile_us(0.5) / 1e3, "ms");
            report.metric(
                "spicelite.steps",
                steps as f64 / runs.count().max(1) as f64,
                "count",
            );
            let total_ns = runs.mean_ns() * runs.count() as f64;
            report.metric(
                "spicelite.ns_per_step",
                total_ns / steps.max(1) as f64,
                "ns",
            );
        }
        Err(e) => report.fail(format!("spicelite probe: {e}")),
    }
    let v = per(layers::linearity_fit_us(), report, "linearity fit");
    report.metric("linearity.fit_us", v, "us");

    // bench: generator lateness, the untraced pass's whole-step tail,
    // and the cost of tracing itself (traced minus untraced figures of
    // the workload's end-to-end latency statistic).
    report.metric("bench.gen_late_p99_us", t.gen_late.quantile_us(0.99), "us");
    let (u, tr) = (&tp.untraced, &tp.traced);
    // The latency figures are reported here, unbounded, rather than as
    // end-to-end metrics: on a shared 2-vCPU machine they follow the
    // host's steal time from run to run.
    let calm = |s: &load::StepReport, q| s.window_quantile_us(q, serving::CALM);
    report.metric("bench.calm_p50_us", calm(u, 0.5), "us");
    report.metric("bench.calm_p99_us", calm(u, 0.99), "us");
    report.metric("bench.whole_p99_us", u.latency.quantile_us(0.99), "us");
    let (over50, over99) = match &untraced {
        Some(base) => {
            let us = |ds: &[Duration]| -> Vec<f64> {
                ds.iter().map(|d| d.as_secs_f64() * 1e6).collect()
            };
            let (b, t) = (us(&base.transients), us(&sweep.transients));
            (
                report::quantile(&t, 0.5) - report::quantile(&b, 0.5),
                report::quantile(&t, 0.99) - report::quantile(&b, 0.99),
            )
        }
        None => (calm(tr, 0.5) - calm(u, 0.5), calm(tr, 0.99) - calm(u, 0.99)),
    };
    report.metric("bench.trace_overhead_p50_us", over50, "us");
    report.metric("bench.trace_overhead_p99_us", over99, "us");
}

/// Machine and source identity for every result: cores, CPU model,
/// kernel, commit (when run from a git checkout) and a digest of the
/// source tree, which identifies a checkout that is not a git one.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let workload = match args.workload {
        Workload::PointRead => "point_read",
        Workload::MapScan => "map_scan",
        Workload::Fig3Sweep => "fig3_sweep",
    };
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpu\": \"{}\", \"kernel\": \"{kernel}\", \"commit\": \"{commit}\", \"source_digest\": \"{:016x}\", \
         \"network\": \"loopback\", \"client_threads\": {}}}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu.replace('"', "'"),
        source_digest(),
        load::CLIENT_THREADS
    )
}

/// FNV-1a over the paths and bytes of every file under `crates/` and
/// `perfbench/src/`, in sorted order.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    dst::hash::fnv1a64(&bytes)
}
