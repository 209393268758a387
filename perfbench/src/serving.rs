//! The two serving workloads, `point_read` and `map_scan`: an in-process
//! [`WireServer`] on loopback driven by the open-loop generator.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use runtime::{WireClient, WireServer, WireServerConfig, WireServerStats};

use crate::hist::Hist;
use crate::load::{mix, run_step, Op, StepReport, Target, CLIENT_THREADS};
use crate::report::Report;

/// Shard groups and replicas per group of every served fleet.
const SHARDS: usize = 3;
const REPLICATION: usize = 2;
/// A full map must arrive within this long of server start.
const WARM_TIMEOUT: Duration = Duration::from_secs(5);
/// The capacity limit: a step passes when it achieves this share of
/// its offered rate with its p99 (failures counted as misses) within
/// `LIMIT_P99`.
const ACHIEVED_SHARE: f64 = 0.99;
const LIMIT_P99: Duration = Duration::from_millis(25);

/// One serving workload's fixed shape.
pub struct Shape {
    pub name: &'static str,
    pub sites_per_shard: usize,
    pub op: Op,
    /// The fixed-rate step's offered rate, requests per second.
    pub fixed_rps: f64,
}

pub const POINT_READ: Shape = Shape {
    name: "point_read",
    sites_per_shard: 8,
    op: Op::Read,
    fixed_rps: 20_000.0,
};

pub const MAP_SCAN: Shape = Shape {
    name: "map_scan",
    sites_per_shard: 64,
    op: Op::Map {
        entries: SHARDS * 64,
    },
    fixed_rps: 5_000.0,
};

impl Shape {
    pub fn server_config(&self, seed: u64) -> WireServerConfig {
        let total_sites = SHARDS * self.sites_per_shard;
        WireServerConfig {
            shards: SHARDS,
            replication: REPLICATION,
            ack_quorum: REPLICATION - 1,
            sites_per_shard: self.sites_per_shard,
            // NC1501: the budget must carry the largest map response.
            frame_budget: wire::DEFAULT_FRAME_BUDGET.max(wire::max_response_frame_len(total_sites)),
            seed,
            ..WireServerConfig::default()
        }
    }

    fn label(&self) -> &'static str {
        match self.op {
            Op::Read => "read",
            Op::Map { .. } => "map",
        }
    }
}

/// A started server with its connected, warmed clients.
pub struct Fleet {
    pub server: WireServer,
    pub target: Target,
    pub clients: Vec<WireClient>,
    pub next_req_id: AtomicU64,
}

impl Fleet {
    /// Starts a server and connects the clients; returns once every
    /// client has a full answer (for maps: once the first full map is
    /// back, i.e. every group's cache is filled). The returned duration
    /// is the set-up time.
    pub fn start(shape: &Shape, seed: u64) -> Result<(Fleet, Duration), String> {
        let t0 = Instant::now();
        let cfg = shape.server_config(seed);
        let (frame_budget, staleness_bound_ms) = (cfg.frame_budget, cfg.runtime.staleness_bound_ms);
        let server = WireServer::start(cfg, None).map_err(|e| format!("server start: {e}"))?;
        let target = Target {
            addr: server.addr(),
            frame_budget,
            staleness_bound_ms,
            op: shape.op,
        };
        let clients = (0..CLIENT_THREADS)
            .map(|i| target.client(mix(seed, 100 + i as u64)))
            .collect();
        let mut fleet = Fleet {
            server,
            target,
            clients,
            next_req_id: AtomicU64::new(1),
        };
        for i in 0..CLIENT_THREADS {
            fleet.warm(i)?;
        }
        Ok((fleet, t0.elapsed()))
    }

    fn warm(&mut self, client: usize) -> Result<(), String> {
        let give_up = Instant::now() + WARM_TIMEOUT;
        loop {
            let req_id = self
                .next_req_id
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let c = &mut self.clients[client];
            let full = match self.target.op {
                Op::Read => matches!(
                    c.request(req_id, req_id).map(|o| o.outcome),
                    Ok(wire::WireOutcome::Reading { .. })
                ),
                Op::Map { entries } => c
                    .request_map(req_id)
                    .is_ok_and(|m| m.entries.len() == entries),
            };
            if full {
                return Ok(());
            }
            if Instant::now() > give_up {
                return Err(format!("no full answer within {WARM_TIMEOUT:?} of start"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn step(
        &mut self,
        rate: f64,
        duration: Duration,
        windows: usize,
        seed: u64,
        trace: bool,
    ) -> StepReport {
        run_step(
            &self.target,
            &mut self.clients,
            rate,
            duration,
            windows,
            seed,
            &self.next_req_id,
            trace,
        )
    }

    /// Drains the server and checks the counters a clean run must keep.
    pub fn drain(self, report: &mut Report) {
        match self.server.drain() {
            Ok(d) => {
                if d.stats.duplicate_effects != 0 {
                    report.fail(format!(
                        "{} request(s) executed twice on one incarnation",
                        d.stats.duplicate_effects
                    ));
                }
            }
            Err(e) => report.fail(format!("drain: {e}")),
        }
    }
}

/// Counter deltas of one step.
fn delta(after: &WireServerStats, before: &WireServerStats) -> WireServerStats {
    WireServerStats {
        shed: after.shed - before.shed,
        deduped: after.deduped - before.deduped,
        failovers: after.failovers - before.failovers,
        fenced_writes: after.fenced_writes - before.fenced_writes,
        bad_frames: after.bad_frames - before.bad_frames,
        replicated: after.replicated - before.replicated,
        duplicate_effects: after.duplicate_effects - before.duplicate_effects,
        ..WireServerStats::default()
    }
}

/// A step's output checks: honest answers, no duplicate effect, and
/// for reads `replicated == backups × recorded effects`. Short maps are
/// a check failure here; in ladder steps they only fail the step.
fn check_step(
    shape: &Shape,
    step: &StepReport,
    d: &WireServerStats,
    strict: bool,
    report: &mut Report,
) {
    for v in &step.violations {
        report.fail(format!("{}: {v}", shape.name));
    }
    if d.duplicate_effects != 0 {
        report.fail(format!(
            "{}: {} duplicate effects",
            shape.name, d.duplicate_effects
        ));
    }
    let backups = (REPLICATION - 1) as u64;
    match shape.op {
        Op::Read => {
            let recorded = step.ok + step.recorded_failures;
            if step.exhausted == 0 && d.deduped == 0 {
                if d.replicated != backups * recorded {
                    report.fail(format!(
                        "{}: replicated {} != {backups} backup(s) x {recorded} recorded reads",
                        shape.name, d.replicated
                    ));
                }
            } else if d.replicated < backups * step.ok {
                report.fail(format!(
                    "{}: replicated {} < {backups} backup(s) x {} answered reads",
                    shape.name, d.replicated, step.ok
                ));
            }
        }
        Op::Map { entries } => {
            if d.replicated != 0 {
                report.fail(format!(
                    "{}: map requests replicated {} effects",
                    shape.name, d.replicated
                ));
            }
            if strict && step.short_maps > 0 {
                report.fail(format!(
                    "{}: {} map(s) came back with fewer than {entries} rows",
                    shape.name, step.short_maps
                ));
            }
        }
    }
}

/// One graded step: counters around it and the output checks.
#[allow(clippy::too_many_arguments)]
fn graded_step(
    shape: &Shape,
    fleet: &mut Fleet,
    rate: f64,
    duration: Duration,
    windows: usize,
    seed: u64,
    trace: bool,
    strict: bool,
    report: &mut Report,
) -> (StepReport, WireServerStats) {
    let before = fleet.server.stats();
    let step = fleet.step(rate, duration, windows, seed, trace);
    let d = delta(&fleet.server.stats(), &before);
    check_step(shape, &step, &d, strict, report);
    (step, d)
}

/// A ladder step passes when, in the median window, answers keep up
/// with arrivals and the p99 is within the limit. Past capacity the
/// backlog grows in every window, so the verdict does not hang on one
/// stall of the shared machine.
fn passes(step: &StepReport) -> bool {
    step.window_achieved_share() >= ACHIEVED_SHARE
        && step.window_quantile_us(0.99, 0.5) <= LIMIT_P99.as_secs_f64() * 1e6
}

/// Time budget of the untraced run: `FIXED_SHARE` of it on the
/// fixed-rate step, the rest on the capacity ladder.
const FIXED_SHARE: f64 = 0.4;
/// The fixed step's latency figures are this quantile over its windows
/// of each window's p50 and p99: the calmer windows, because on a
/// shared machine whole windows are lost to time the hypervisor gives
/// other guests. The whole step's p50/p99/p99.9 are printed alongside.
pub const CALM: f64 = 0.1;
/// Window of the fixed step's latency figures: 1000 reads (so a window
/// p99 has ten samples beyond it) or 250 maps. Short windows fall
/// between the host's bursts of stolen time, long ones do not.
const FIXED_WINDOW: Duration = Duration::from_millis(50);
/// Server starts measured for `setup_s` before the fixed step.
const SETUP_STARTS: usize = 3;
/// Warm-up at the fixed rate before the fixed step, and before each
/// ladder step.
const WARMUP: Duration = Duration::from_millis(250);
const LADDER_WARMUP: Duration = Duration::from_millis(100);
/// Each ladder step, and the windows its verdict is taken over.
const LADDER_STEP: Duration = Duration::from_millis(1200);
const LADDER_WINDOWS: usize = 12;

fn windows_in(len: Duration, window: Duration) -> usize {
    ((len.as_secs_f64() / window.as_secs_f64()).round() as usize).max(1)
}

/// The untraced run: set-up, fixed-rate step, capacity ladder.
pub fn run(shape: &Shape, seed: u64, seconds: f64, report: &mut Report) {
    let label = shape.label();
    let mut setups = Vec::new();
    let mut fleet = None;
    for i in 0..SETUP_STARTS {
        match Fleet::start(shape, mix(seed, 200 + i as u64)) {
            Ok((f, t)) => {
                setups.push(t.as_secs_f64());
                if let Some(old) = fleet.replace(f) {
                    Fleet::drain(old, report);
                }
            }
            Err(e) => return report.fail(format!("{}: {e}", shape.name)),
        }
    }
    let mut fleet = fleet.expect("at least one start");
    fleet.step(shape.fixed_rps, WARMUP, 1, mix(seed, 300), false);
    let fixed_len = Duration::from_secs_f64(seconds * FIXED_SHARE);
    let windows = windows_in(fixed_len, FIXED_WINDOW);
    let cpu0 = crate::report::cpu_seconds();
    let (step, _) = graded_step(
        shape,
        &mut fleet,
        shape.fixed_rps,
        fixed_len,
        windows,
        mix(seed, 301),
        false,
        true,
        report,
    );
    let cpu_us_per_op = (crate::report::cpu_seconds() - cpu0) * 1e6 / step.attempted.max(1) as f64;
    fleet.drain(report);
    // Before the ladder, whose servers' size depends on the knee.
    crate::report::peak_rss(report);

    report.attempted += step.attempted;
    report.failed += step.failed;
    let n = step.latency.count();
    let (p50, p99) = (
        step.window_quantile_us(0.5, CALM),
        step.window_quantile_us(0.99, CALM),
    );
    let win = format!("{windows} windows of {} ms", FIXED_WINDOW.as_millis());
    report.line(format!(
        "{label}_p50_us {p50:.2} us (lower decile over {win} of the window p50; n={n} at {} req/s)",
        shape.fixed_rps
    ));
    report.line(format!(
        "{label}_p99_us {p99:.2} us (lower decile over {win} of the window p99; n={n})"
    ));
    report.line(format!(
        "  whole step: p50 {:.2} us, p99 {:.2} us, p99.9 {:.2} us, max {:.2} us (n={n})",
        step.latency.quantile_us(0.5),
        step.latency.quantile_us(0.99),
        step.latency.quantile_us(0.999),
        step.latency.max_ns() as f64 / 1e3
    ));
    report.line(format!(
        "{label}_fail_frac {:.6} ({} of {} attempted)",
        step.failed as f64 / step.attempted.max(1) as f64,
        step.failed,
        step.attempted
    ));
    report.line(format!(
        "cpu_us_per_op {cpu_us_per_op:.3} us (process CPU over the fixed step)"
    ));
    // Latency and the knee are printed, not reported as end-to-end
    // metrics: on the shared reference machine they moved between runs
    // of one commit by more than the largest bound the benchmark may set.
    report.metric("cpu_us_per_op", cpu_us_per_op, "us");

    let ladder_budget = Duration::from_secs_f64(seconds * (1.0 - FIXED_SHARE));
    let (offered, achieved) = ladder(shape, seed, ladder_budget, &mut setups, report);
    report.line(format!(
        "{label}_capacity_rps {offered:.0} req/s (highest offered rate whose median window achieved >= {:.0} % \
         with p99 <= {} ms; it served {achieved:.1} answers/s)",
        ACHIEVED_SHARE * 100.0,
        LIMIT_P99.as_millis()
    ));
    report.setup(&setups);
}

/// Finds the knee. A first step offers `SATURATE` times the fixed rate,
/// so the clients send back to back and the answers completed within
/// the step measure the plateau of the achieved-rate curve. The knee
/// lies near and below it, so the search starts at `START` of it, steps
/// by `GROW` until a pass and a failure bracket the knee (one plateau
/// step is a short sample and may read low), then bisects
/// (geometrically) between the highest passing and the lowest failing
/// rate until they are within `RESOLUTION` or the budget is spent. A
/// failing rate is run once more and
/// fails only if both runs fail, so one burst of the shared machine
/// does not end the search low. Every step runs on a freshly started
/// server, so steps inherit neither backlog nor effect log. Returns the
/// highest passing offered rate (the capacity: search points come from
/// the measured plateau, so they differ from run to run) and the
/// answers per second that step served.
fn ladder(
    shape: &Shape,
    seed: u64,
    budget: Duration,
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> (f64, f64) {
    const SATURATE: f64 = 10.0;
    // The first search point, as a share of the plateau, and the step
    // up from a pass (or down from a failure) until both are bracketed.
    const START: f64 = 0.8;
    const GROW: f64 = 1.2;
    // Bracket width at which the search stops: closer than this, pass
    // and fail alternate with the machine's noise.
    const RESOLUTION: f64 = 1.02;
    let start = Instant::now();
    let mut i = 0u64;
    let step_cost = std::cell::Cell::new(Duration::ZERO);
    let mut run = |rate: f64, setups: &mut Vec<f64>, report: &mut Report| -> Option<StepReport> {
        let t0 = Instant::now();
        let (mut fleet, t) = match Fleet::start(shape, mix(seed, 400 + i)) {
            Ok(x) => x,
            Err(e) => {
                report.fail(format!("{}: {e}", shape.name));
                return None;
            }
        };
        setups.push(t.as_secs_f64());
        fleet.step(
            rate.min(shape.fixed_rps),
            LADDER_WARMUP,
            1,
            mix(seed, 500 + i),
            false,
        );
        let (step, _) = graded_step(
            shape,
            &mut fleet,
            rate,
            LADDER_STEP,
            LADDER_WINDOWS,
            mix(seed, 600 + i),
            false,
            false,
            report,
        );
        fleet.drain(report);
        report.line(format!(
            "  ladder step {i}: offered {rate:.0}, served {:.0}/s, achieved share {:.4}, p99 {:.0} us (window medians) -> {}",
            step.window_completed_rps(LADDER_STEP),
            step.window_achieved_share(),
            step.window_quantile_us(0.99, 0.5),
            if passes(&step) { "pass" } else { "fail" }
        ));
        step_cost.set(step_cost.get().max(t0.elapsed()));
        i += 1;
        Some(step)
    };
    let Some(sat) = run(SATURATE * shape.fixed_rps, setups, report) else {
        return (0.0, 0.0);
    };
    let plateau = sat.window_completed_rps(LADDER_STEP);
    report.line(format!("  saturation plateau {plateau:.1} answers/s"));
    let mut best: Option<(f64, f64)> = None;
    let mut worst: Option<f64> = None;
    let mut rate = START * plateau;
    let mut retried = false;
    while start.elapsed() + step_cost.get() <= budget {
        if let (Some((b, _)), Some(w)) = (best, worst) {
            if w / b < RESOLUTION {
                break;
            }
        }
        let Some(step) = run(rate, setups, report) else {
            return (0.0, 0.0);
        };
        let ok = passes(&step);
        if !ok && !retried {
            retried = true;
            continue;
        }
        retried = false;
        if ok {
            best = Some((rate, step.window_completed_rps(LADDER_STEP)));
        } else {
            worst = Some(rate);
        }
        rate = match (best, worst) {
            (Some((b, _)), Some(w)) => (b * w).sqrt(),
            (Some((b, _)), None) => b * GROW,
            (None, _) => rate / GROW,
        };
    }
    best.unwrap_or((0.0, 0.0))
}

/// Latency summary of a traced step, for the per-layer report.
pub struct TracedPass {
    pub untraced: StepReport,
    pub traced: StepReport,
    pub serve: WireServerStats,
}

/// The traced run's serving pass: the fixed-rate step once untraced and
/// once traced on one server, so the difference is the tracing cost.
pub fn traced_pass(
    shape: &Shape,
    seed: u64,
    each: Duration,
    report: &mut Report,
) -> Option<TracedPass> {
    let mut fleet = match Fleet::start(shape, mix(seed, 700)) {
        Ok((f, _)) => f,
        Err(e) => {
            report.fail(format!("{}: {e}", shape.name));
            return None;
        }
    };
    fleet.step(shape.fixed_rps, WARMUP, 1, mix(seed, 701), false);
    let windows = windows_in(each, FIXED_WINDOW);
    let (untraced, _) = graded_step(
        shape,
        &mut fleet,
        shape.fixed_rps,
        each,
        windows,
        mix(seed, 702),
        false,
        true,
        report,
    );
    let (traced, serve) = graded_step(
        shape,
        &mut fleet,
        shape.fixed_rps,
        each,
        windows,
        mix(seed, 703),
        true,
        true,
        report,
    );
    fleet.drain(report);
    report.attempted += untraced.attempted + traced.attempted;
    report.failed += untraced.failed + traced.failed;
    Some(TracedPass {
        untraced,
        traced,
        serve,
    })
}

/// `p50` and `p99` of a histogram in microseconds.
pub fn p50_p99_us(h: &Hist) -> (f64, f64) {
    (h.quantile_us(0.5), h.quantile_us(0.99))
}
