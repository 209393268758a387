//! `runtime` — soak the supervised monitoring service under chaos, or
//! sweep it under deterministic simulation.
//!
//! ```text
//! runtime soak [OPTIONS]
//!
//! --seconds N        total soak length; 80 % storm, 20 % drain
//!                    (default: 10)
//! --seed N           chaos + jitter seed (default: 42)
//! --sites N          sensor sites in the array (default: 9)
//! --faults N         scheduled fault events (default: 2 per second)
//! --clients N        client threads issuing reads (default: 3)
//! --no-chaos         disable fault injection
//! --restart          kill and recover the runtime mid-storm
//! --snapshot-dir P   checkpoint directory (default: a temp dir)
//! --check            fail (exit 1) unless the liveness invariants
//!                    hold: zero late replies, zero silent-stale
//!                    reads, breakers re-closed, recovery restored a
//!                    checkpoint when --restart was given
//! --json             machine-readable output
//! --help             this text
//!
//! runtime serve [OPTIONS]
//!
//! --shards N         service shards behind the ring router (default: 3)
//! --sites N          sensor sites per shard (default: 6)
//! --port P           TCP port to bind on 127.0.0.1 (default: 0 = ephemeral)
//! --seconds N        serve for N seconds, then drain (default: 10)
//! --seed N           router jitter seed (default: 42)
//! --snapshot-dir P   per-shard checkpoint root (default: none)
//! --json             machine-readable final stats
//! --help             this text
//!
//! runtime client [OPTIONS]
//!
//! --addr HOST:PORT   server address (required; repeatable for failover)
//! --key K            die-region key to read (default: 0)
//! --count N          sequential requests to issue (default: 1)
//! --map              request the whole-fleet thermal map instead
//! --json             machine-readable output
//! --help             this text
//!
//! runtime wire-soak [OPTIONS]
//!
//! --seconds N        load duration (default: 5)
//! --rate N           mean Poisson arrival rate, req/s (default: 150)
//! --clients N        client worker threads (default: 4)
//! --seed N           arrivals + chaos seed (default: 42)
//! --chaos            route traffic through the hostile chaos proxy
//! --crash-at MS      crash-and-recover shard 1 at MS (default: midway;
//!                    0 disables)
//! --decommission-at MS
//!                    decommission shard 2 at MS (default: 3/4 point;
//!                    0 disables)
//! --kill-primary-at MS
//!                    hard-kill shard group 0's primary at MS, forcing
//!                    an epoch-bumping backup promotion (default:
//!                    disabled; 0 disables)
//! --snapshot-dir P   per-shard checkpoint root (default: a temp dir)
//! --p99 MS           with --check, also fail if p99 exceeds MS
//! --hist-out P       write the latency histogram artifact to P
//! --check            fail (exit 1) unless the graded fleet invariants
//!                    hold (honest staleness, no decommissioned shard
//!                    served, no resurrected cache, at-most-once, and
//!                    with --kill-primary-at: failover completes)
//! --json             machine-readable output
//! --help             this text
//!
//! runtime dst [OPTIONS]
//!
//! --seeds N          seeds to sweep (default: 200)
//! --seed-base N      first seed (default: 0)
//! --seed-range A..B  sweep the half-open seed range [A, B)
//!                    (cannot be combined with --seeds/--seed-base)
//! --jobs N           worker threads for the sweep; results are merged
//!                    in seed order, so the report is byte-identical at
//!                    any job count (default: 1)
//! --fleet            simulate the multi-node fleet (shards + router +
//!                    clients over a faulty message fabric) instead of
//!                    the single-process service
//! --mutation M       known-bad mutation: none | no-cooldown-rebase,
//!                    or with --fleet: none | no-decommission-check |
//!                    no-epoch-fence (default: none)
//! --replay SEED      replay one seed and print its full trace
//! --replay-node ID   with --fleet --replay: show only one node's
//!                    steps (shard-N | router | client-N | admin)
//! --trace-out P      on violation, write the shrunk failing trace to P
//! --check            fail (exit 1) if any seed violates an invariant
//! --json             machine-readable output
//! --help             this text
//! ```
//!
//! Exit status: 0 clean; 1 when `--check` fails; 2 on usage errors.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;

use dst::{Scenario, SweepOutcome, Violation};
use runtime::{
    render_fleet_trace, render_trace, run_soak, run_wire_soak, FleetConfig, FleetMutation,
    FleetReport, Mutation, RuntimeConfig, RuntimeError, SimConfig, SimReport, SoakConfig,
    SoakReport, WireClient, WireClientConfig, WireOutcome, WireServer, WireServerConfig,
    WireSoakConfig,
};
use tsense_cli::{Flags, Kind, Switch, Value};

const USAGE: &str = "usage: runtime soak [--seconds N] [--seed N] [--sites N] [--faults N] \
                     [--clients N] [--no-chaos] [--restart] [--snapshot-dir P] [--check] [--json]\n\
                     \x20      runtime serve [--shards N] [--sites N] [--port P] [--seconds N] \
                     [--seed N] [--snapshot-dir P] [--json]\n\
                     \x20      runtime client --addr HOST:PORT [--addr ...] [--key K] [--count N] \
                     [--map] [--json]\n\
                     \x20      runtime wire-soak [--seconds N] [--rate N] [--clients N] [--seed N] \
                     [--chaos] [--crash-at MS] [--decommission-at MS] [--kill-primary-at MS] \
                     [--snapshot-dir P] [--p99 MS] [--hist-out P] [--check] [--json]\n\
                     \x20      runtime dst [--fleet] [--seeds N] [--seed-base N] [--seed-range A..B] \
                     [--jobs N] [--mutation M] [--replay SEED] [--replay-node ID] [--trace-out P] \
                     [--check] [--json]";

struct Options {
    soak: SoakConfig,
    seconds: u64,
    chaos: bool,
    restart: bool,
    faults: Option<usize>,
    snapshot_dir: Option<PathBuf>,
    check: bool,
    json: bool,
}

struct DstOptions {
    seeds: u64,
    seed_base: u64,
    jobs: usize,
    fleet: bool,
    mutation: Option<String>,
    replay: Option<u64>,
    replay_node: Option<String>,
    trace_out: Option<PathBuf>,
    check: bool,
    json: bool,
}

fn parse_dst_args(args: impl Iterator<Item = String>) -> DstOptions {
    const FLAGS: &[(&str, Kind)] = &[
        ("--seeds", Value),
        ("--seed-base", Value),
        ("--seed-range", Value),
        ("--jobs", Value),
        ("--fleet", Switch),
        ("--mutation", Value),
        ("--replay", Value),
        ("--replay-node", Value),
        ("--trace-out", Value),
        ("--check", Switch),
        ("--json", Switch),
    ];
    let f = Flags::parse("runtime", USAGE, FLAGS, args);
    let mut opts = DstOptions {
        seeds: f.positive("--seeds", 200),
        seed_base: f.or("--seed-base", 0),
        jobs: f.positive("--jobs", 1),
        fleet: f.has("--fleet"),
        mutation: f.get("--mutation"),
        replay: f.get("--replay"),
        replay_node: f.get("--replay-node"),
        trace_out: f.get("--trace-out"),
        check: f.has("--check"),
        json: f.has("--json"),
    };
    if let Some(range) = f.get::<String>("--seed-range") {
        if f.has("--seeds") || f.has("--seed-base") {
            f.fail("--seed-range cannot be combined with --seeds or --seed-base");
        }
        let bounds = range
            .split_once("..")
            .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)));
        match bounds {
            Some((a, b)) if a < b => (opts.seed_base, opts.seeds) = (a, b - a),
            _ => f.fail(format!("bad --seed-range `{range}` (want A..B with A < B)")),
        }
    }
    if opts.seed_base.checked_add(opts.seeds - 1).is_none() {
        f.fail(format!(
            "seed window of {} seed(s) from {} runs past the largest seed {}",
            opts.seeds,
            opts.seed_base,
            u64::MAX
        ));
    }
    if opts.replay_node.is_some() && !opts.fleet {
        f.fail("--replay-node requires --fleet");
    }
    if opts.replay_node.is_some() && opts.replay.is_none() {
        f.fail("--replay-node requires --replay SEED");
    }
    opts
}

struct ServeOptions {
    shards: usize,
    sites: usize,
    port: u16,
    seconds: u64,
    seed: u64,
    snapshot_dir: Option<PathBuf>,
    json: bool,
}

fn parse_serve_args(args: impl Iterator<Item = String>) -> ServeOptions {
    const FLAGS: &[(&str, Kind)] = &[
        ("--shards", Value),
        ("--sites", Value),
        ("--port", Value),
        ("--seconds", Value),
        ("--seed", Value),
        ("--snapshot-dir", Value),
        ("--json", Switch),
    ];
    let f = Flags::parse("runtime", USAGE, FLAGS, args);
    ServeOptions {
        shards: f.positive("--shards", 3),
        sites: f.positive("--sites", 6),
        port: f.or("--port", 0),
        seconds: f.positive("--seconds", 10),
        seed: f.or("--seed", 42),
        snapshot_dir: f.get("--snapshot-dir"),
        json: f.has("--json"),
    }
}

struct ClientOptions {
    addrs: Vec<std::net::SocketAddr>,
    key: u64,
    count: u64,
    map: bool,
    json: bool,
}

fn parse_client_args(args: impl Iterator<Item = String>) -> ClientOptions {
    const FLAGS: &[(&str, Kind)] = &[
        ("--addr", Value),
        ("--key", Value),
        ("--count", Value),
        ("--map", Switch),
        ("--json", Switch),
    ];
    let f = Flags::parse("runtime", USAGE, FLAGS, args);
    let opts = ClientOptions {
        addrs: f.all("--addr"),
        key: f.or("--key", 0),
        count: f.positive("--count", 1),
        map: f.has("--map"),
        json: f.has("--json"),
    };
    if opts.addrs.is_empty() {
        f.fail("client needs at least one --addr HOST:PORT");
    }
    opts
}

struct WireSoakOptions {
    seconds: u64,
    rate: f64,
    clients: usize,
    seed: u64,
    chaos: bool,
    crash_at: Option<u64>,
    decommission_at: Option<u64>,
    kill_primary_at: Option<u64>,
    snapshot_dir: Option<PathBuf>,
    p99_ms: Option<u64>,
    hist_out: Option<PathBuf>,
    check: bool,
    json: bool,
}

fn parse_wire_soak_args(args: impl Iterator<Item = String>) -> WireSoakOptions {
    const FLAGS: &[(&str, Kind)] = &[
        ("--seconds", Value),
        ("--rate", Value),
        ("--clients", Value),
        ("--seed", Value),
        ("--chaos", Switch),
        ("--crash-at", Value),
        ("--decommission-at", Value),
        ("--kill-primary-at", Value),
        ("--snapshot-dir", Value),
        ("--p99", Value),
        ("--hist-out", Value),
        ("--check", Switch),
        ("--json", Switch),
    ];
    let f = Flags::parse("runtime", USAGE, FLAGS, args);
    WireSoakOptions {
        seconds: f.positive("--seconds", 5),
        rate: f.positive("--rate", 150.0),
        clients: f.positive("--clients", 4),
        seed: f.or("--seed", 42),
        chaos: f.has("--chaos"),
        crash_at: f.get("--crash-at"),
        decommission_at: f.get("--decommission-at"),
        kill_primary_at: f.get("--kill-primary-at"),
        snapshot_dir: f.get("--snapshot-dir"),
        p99_ms: f.get("--p99"),
        hist_out: f.get("--hist-out"),
        check: f.has("--check"),
        json: f.has("--json"),
    }
}

fn parse_soak_args(args: impl Iterator<Item = String>) -> Options {
    const FLAGS: &[(&str, Kind)] = &[
        ("--seconds", Value),
        ("--seed", Value),
        ("--sites", Value),
        ("--faults", Value),
        ("--clients", Value),
        ("--no-chaos", Switch),
        ("--restart", Switch),
        ("--snapshot-dir", Value),
        ("--check", Switch),
        ("--json", Switch),
    ];
    let f = Flags::parse("runtime", USAGE, FLAGS, args);
    let soak = SoakConfig::default();
    Options {
        soak: SoakConfig {
            seed: f.or("--seed", soak.seed),
            sites: f.positive("--sites", soak.sites),
            clients: f.positive("--clients", soak.clients),
            ..soak
        },
        seconds: f.positive("--seconds", 10),
        chaos: !f.has("--no-chaos"),
        restart: f.has("--restart"),
        faults: f.get("--faults"),
        snapshot_dir: f.get("--snapshot-dir"),
        check: f.has("--check"),
        json: f.has("--json"),
    }
}

fn render_json(report: &SoakReport, restart: bool) -> String {
    format!(
        "{{\n  \"requests\": {},\n  \"served_fresh\": {},\n  \"served_degraded\": {},\n  \
         \"served_shed\": {},\n  \"typed_errors\": {},\n  \"deadline_misses\": {},\n  \
         \"late_replies\": {},\n  \"silent_stale\": {},\n  \"injected\": {},\n  \
         \"cleared\": {},\n  \"restarts\": {},\n  \"recovered_seq\": {},\n  \
         \"corrupt_snapshots_skipped\": {},\n  \"breaker_trips\": {},\n  \
         \"breakers_all_closed\": {},\n  \"quarantined_at_end\": {},\n  \
         \"p50_latency_ms\": {},\n  \"p99_latency_ms\": {},\n  \"throughput_per_s\": {:.1},\n  \
         \"elapsed_s\": {:.2},\n  \"liveness_ok\": {}\n}}",
        report.requests,
        report.served_fresh,
        report.served_degraded,
        report.served_shed,
        report.typed_errors,
        report.deadline_misses,
        report.late_replies,
        report.silent_stale,
        report.injected,
        report.cleared,
        report.restarts,
        report
            .recovered_seq
            .map_or("null".into(), |s| s.to_string()),
        report.corrupt_snapshots_skipped,
        report.breaker_trips,
        report.breakers_all_closed,
        report.quarantined_at_end,
        report.p50_latency_ms,
        report.p99_latency_ms,
        report.throughput_per_s,
        report.elapsed_s,
        report.liveness_ok(restart),
    )
}

/// What `runtime dst` needs from a simulator beyond [`Scenario`]: its
/// mutations, its labels, and its report renderers.
trait DstCli: Scenario<Invariant: fmt::Display, Event: fmt::Display> {
    /// The simulator's known-bad mutations; `Default` is the shipped
    /// code.
    type Mutation: Copy + Default + PartialEq + fmt::Display + 'static;
    /// Every mutation, parsed by its display spelling.
    const MUTATIONS: &'static [Self::Mutation];
    /// Names the scenario in the sweep line and the check verdict.
    const LABEL: &'static str;
    /// The `runtime dst` flags that select the scenario.
    const FLAGS: &'static str;
    /// Noun for one event of a shrunk reproducer.
    const EVENT: &'static str;

    /// The default config under `mutation`.
    fn base(mutation: Self::Mutation) -> Self;
    /// The seed a report came from.
    fn seed(report: &Self::Report) -> u64;
    /// One run's counters and violation as JSON.
    fn render_json(report: &Self::Report) -> String;
    /// One run's trace, optionally filtered to a node.
    fn render_trace(report: &Self::Report, node: Option<&str>) -> String;
}

impl DstCli for SimConfig {
    type Mutation = Mutation;
    const MUTATIONS: &'static [Mutation] = &Mutation::ALL;
    const LABEL: &'static str = "dst";
    const FLAGS: &'static str = "";
    const EVENT: &'static str = "event";

    fn base(mutation: Mutation) -> Self {
        SimConfig {
            mutation,
            ..SimConfig::default()
        }
    }

    fn seed(report: &SimReport) -> u64 {
        report.seed
    }

    fn render_json(report: &SimReport) -> String {
        format!(
            "{{\n  \"seed\": {},\n  \"mutation\": \"{}\",\n  \"steps\": {},\n  \"requests\": {},\n  \
             \"served_fresh\": {},\n  \"served_degraded\": {},\n  \"typed_errors\": {},\n  \
             \"deadline_misses\": {},\n  \"injected\": {},\n  \"cleared\": {},\n  \"crashes\": {},\n  \
             \"checkpoints\": {},\n  \"snapshots_skipped\": {},\n  \"violation\": {}\n}}",
            report.seed,
            report.mutation,
            report.steps,
            report.requests,
            report.served_fresh,
            report.served_degraded,
            report.typed_errors,
            report.deadline_misses,
            report.injected,
            report.cleared,
            report.crashes,
            report.checkpoints,
            report.snapshots_skipped,
            violation_json(report.violation.as_ref()),
        )
    }

    fn render_trace(report: &SimReport, _node: Option<&str>) -> String {
        render_trace(report)
    }
}

impl DstCli for FleetConfig {
    type Mutation = FleetMutation;
    const MUTATIONS: &'static [FleetMutation] = &FleetMutation::ALL;
    const LABEL: &'static str = "fleet dst";
    const FLAGS: &'static str = "--fleet ";
    const EVENT: &'static str = "fleet event";

    fn base(mutation: FleetMutation) -> Self {
        FleetConfig {
            mutation,
            ..FleetConfig::default()
        }
    }

    fn seed(report: &FleetReport) -> u64 {
        report.seed
    }

    fn render_json(report: &FleetReport) -> String {
        format!(
            "{{\n  \"seed\": {},\n  \"mutation\": \"{}\",\n  \"steps\": {},\n  \"requests\": {},\n  \
             \"served_fresh\": {},\n  \"served_degraded\": {},\n  \"client_errors\": {},\n  \
             \"client_timeouts\": {},\n  \"failovers\": {},\n  \"promotions\": {},\n  \
             \"fenced_writes\": {},\n  \"acked_effects\": {},\n  \"anti_entropy_repairs\": {},\n  \
             \"stale_discarded\": {},\n  \"duplicates_absorbed\": {},\n  \"crashes\": {},\n  \
             \"decommissions\": {},\n  \"kills\": {},\n  \"violation\": {}\n}}",
            report.seed,
            report.mutation,
            report.steps,
            report.requests,
            report.served_fresh,
            report.served_degraded,
            report.client_errors,
            report.client_timeouts,
            report.failovers,
            report.promotions,
            report.fenced_writes,
            report.acked_effects,
            report.anti_entropy_repairs,
            report.stale_discarded,
            report.duplicates_absorbed,
            report.crashes,
            report.decommissions,
            report.kills,
            violation_json(report.violation.as_ref()),
        )
    }

    fn render_trace(report: &FleetReport, node: Option<&str>) -> String {
        render_fleet_trace(report, node)
    }
}

fn violation_json<I: fmt::Display>(violation: Option<&Violation<I>>) -> String {
    violation.map_or("null".to_string(), |v| {
        format!(
            "{{\"invariant\": \"{}\", \"step\": {}, \"at_ms\": {}, \"task\": \"{}\"}}",
            v.invariant, v.step, v.at_ms, v.task
        )
    })
}

fn render_sweep_json<S: DstCli>(out: &SweepOutcome<S::Report>, seed_base: u64) -> String {
    let violations: Vec<String> = out
        .violations
        .iter()
        .map(|r| {
            let v = S::violation(r).expect("violating report");
            format!(
                "    {{\"seed\": {}, \"invariant\": \"{}\", \"step\": {}, \"at_ms\": {}}}",
                S::seed(r),
                v.invariant,
                v.step,
                v.at_ms
            )
        })
        .collect();
    format!(
        "{{\n  \"seed_base\": {},\n  \"seeds\": {},\n  \"steps\": {},\n  \"requests\": {},\n  \
         \"crashes\": {},\n  \"violations\": [\n{}\n  ]\n}}",
        seed_base,
        out.seeds,
        out.tally.steps,
        out.tally.requests,
        out.tally.crashes,
        violations.join(",\n"),
    )
}

/// Writes the failing trace plus its shrunk reproducer to `path`.
fn write_failure_artifact<S: DstCli>(path: &PathBuf, cfg: &S, report: &S::Report) {
    let mut text = S::render_trace(report, None);
    if let Some(shrunk) = dst::shrink(cfg) {
        let events = shrunk.config.events();
        text.push_str(&format!(
            "\n# shrunk reproducer: seed {} with {} {}(s)\n",
            S::seed(&shrunk.report),
            events.len(),
            S::EVENT,
        ));
        for ev in &events {
            text.push_str(&format!("#   {ev}\n"));
        }
        text.push_str(&S::render_trace(&shrunk.report, None));
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("runtime: could not write trace to {}: {e}", path.display());
    } else {
        eprintln!("runtime: failing trace written to {}", path.display());
    }
}

fn run_dst_cmd<S: DstCli>(opts: DstOptions) -> ExitCode {
    let mutation = match opts.mutation.as_deref() {
        None => S::Mutation::default(),
        Some(m) => match S::MUTATIONS.iter().find(|k| k.to_string() == m) {
            Some(k) => *k,
            None => {
                let names: Vec<String> = S::MUTATIONS.iter().map(|k| k.to_string()).collect();
                tsense_cli::fail(
                    "runtime",
                    USAGE,
                    format!(
                        "--mutation `{m}` is not a {} mutation ({})",
                        S::LABEL,
                        names.join(" | ")
                    ),
                );
            }
        },
    };
    let base = S::base(mutation);

    if let Some(seed) = opts.replay {
        let cfg = base.reseed(seed);
        let report = cfg.run();
        if opts.json {
            println!("{}", S::render_json(&report));
        } else {
            print!("{}", S::render_trace(&report, opts.replay_node.as_deref()));
        }
        let violated = S::violation(&report).is_some();
        if let (Some(path), true) = (&opts.trace_out, violated) {
            write_failure_artifact(path, &cfg, &report);
        }
        if opts.check && violated {
            return ExitCode::from(1);
        }
        return ExitCode::SUCCESS;
    }

    let out = dst::sweep(&base, opts.seed_base, opts.seeds, false, opts.jobs);
    if opts.json {
        println!("{}", render_sweep_json::<S>(&out, opts.seed_base));
    } else {
        println!(
            "{} sweep: {} seed(s) from {} (mutation {}, {} job(s)): {} step(s), {} request(s), \
             {} crash(es), {} violation(s)",
            S::LABEL,
            out.seeds,
            opts.seed_base,
            mutation,
            opts.jobs,
            out.tally.steps,
            out.tally.requests,
            out.tally.crashes,
            out.violations.len()
        );
        for r in &out.violations {
            let v = S::violation(r).expect("violating report");
            println!("  seed {}: {v}", S::seed(r));
        }
    }
    if let (Some(path), Some(first)) = (&opts.trace_out, out.violations.first()) {
        write_failure_artifact(path, &base.reseed(S::seed(first)), first);
    }
    let failure = out.violations.first().map(|first| {
        format!(
            "runtime: {} check FAILED ({} violating seed(s); replay with \
             `runtime dst {}--replay {}{}`)",
            S::LABEL,
            out.violations.len(),
            S::FLAGS,
            S::seed(first),
            if mutation == S::Mutation::default() {
                String::new()
            } else {
                format!(" --mutation {mutation}")
            }
        )
    });
    tsense_cli::verdict(opts.check, opts.json, failure)
}

fn run_serve_cmd(opts: ServeOptions) -> ExitCode {
    let cfg = WireServerConfig {
        shards: opts.shards,
        sites_per_shard: opts.sites,
        seed: opts.seed,
        snapshot_root: opts.snapshot_dir,
        ..WireServerConfig::default()
    };
    let bind = format!("127.0.0.1:{}", opts.port)
        .parse()
        .expect("literal bind address");
    let server = match WireServer::start(cfg, Some(bind)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("runtime: serve failed to start: {e}");
            return ExitCode::from(1);
        }
    };
    if !opts.json {
        println!(
            "serving {} shard(s) x {} site(s) on {} for {} s",
            opts.shards,
            opts.sites,
            server.addr(),
            opts.seconds
        );
    }
    std::thread::sleep(std::time::Duration::from_secs(opts.seconds));
    let report = match server.drain() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runtime: drain failed: {e}");
            return ExitCode::from(1);
        }
    };
    let s = &report.stats;
    if opts.json {
        println!(
            "{{\n  \"connections\": {},\n  \"frames_in\": {},\n  \"responses\": {},\n  \
             \"bad_frames\": {},\n  \"shed\": {},\n  \"deduped\": {},\n  \"failovers\": {},\n  \
             \"idle_closed\": {},\n  \"stalled_closed\": {},\n  \"in_flight_at_drain\": {}\n}}",
            s.connections,
            s.frames_in,
            s.responses,
            s.bad_frames,
            s.shed,
            s.deduped,
            s.failovers,
            s.idle_closed,
            s.stalled_closed,
            report.in_flight_at_drain,
        );
    } else {
        println!(
            "drained: {} connection(s), {} frame(s) in, {} response(s), {} bad frame(s), \
             {} shed, {} deduped, {} failover(s)",
            s.connections, s.frames_in, s.responses, s.bad_frames, s.shed, s.deduped, s.failovers
        );
    }
    ExitCode::SUCCESS
}

fn run_client_cmd(opts: ClientOptions) -> ExitCode {
    let mut client = WireClient::new(WireClientConfig {
        addrs: opts.addrs,
        ..WireClientConfig::default()
    });
    if opts.map {
        match client.request_map(1) {
            Ok(map) => {
                if opts.json {
                    let rows: Vec<String> = map
                        .entries
                        .iter()
                        .map(|e| {
                            format!(
                                "    {{\"shard\": {}, \"site\": {}, \"value_c\": {:.3}, \
                                 \"age_ms\": {}, \"quarantined\": {}}}",
                                e.shard, e.site, e.value_c, e.age_ms, e.quarantined
                            )
                        })
                        .collect();
                    println!("{{\n  \"entries\": [\n{}\n  ]\n}}", rows.join(",\n"));
                } else {
                    for e in &map.entries {
                        println!(
                            "shard {} site {}: {:.3} °C (age {} ms{})",
                            e.shard,
                            e.site,
                            e.value_c,
                            e.age_ms,
                            if e.quarantined { ", quarantined" } else { "" }
                        );
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("runtime: map request failed: {e}");
                ExitCode::from(1)
            }
        }
    } else {
        let mut failed = false;
        for i in 0..opts.count {
            match client.request(i + 1, opts.key.wrapping_add(i)) {
                Ok(out) => {
                    if opts.json {
                        println!(
                            "{{\"key\": {}, \"outcome\": \"{}\", \"origin_shard\": {}, \
                             \"total_age_ms\": {}, \"attempts\": {}, \"latency_ms\": {}}}",
                            opts.key.wrapping_add(i),
                            out.outcome,
                            out.origin_shard,
                            out.total_age_ms,
                            out.attempts,
                            out.latency_ms
                        );
                    } else {
                        println!(
                            "key {}: {} (shard {}, {} attempt(s), {} ms)",
                            opts.key.wrapping_add(i),
                            out.outcome,
                            out.origin_shard,
                            out.attempts,
                            out.latency_ms
                        );
                    }
                    if !matches!(out.outcome, WireOutcome::Reading { .. }) {
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("runtime: request failed: {e}");
                    failed = true;
                }
            }
        }
        if failed {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    }
}

fn run_wire_soak_cmd(opts: WireSoakOptions) -> ExitCode {
    let duration_ms = opts.seconds * 1000;
    let crash = match opts.crash_at {
        Some(0) => None,
        Some(at) => Some((1usize, at)),
        None => Some((1usize, duration_ms / 2)),
    };
    let decommission = match opts.decommission_at {
        Some(0) => None,
        Some(at) => Some((2usize, at)),
        None => Some((2usize, (duration_ms * 3) / 4)),
    };
    let kill_primary = match opts.kill_primary_at {
        Some(0) | None => None,
        Some(at) => Some((0usize, at)),
    };
    let snapshot_root = opts.snapshot_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "tsense-wire-soak-{}-{}",
            std::process::id(),
            opts.seed
        ))
    });
    let mut cfg = WireSoakConfig {
        seed: opts.seed,
        duration_ms,
        rate_hz: opts.rate,
        clients: opts.clients,
        chaos: opts.chaos.then(wire::chaos::ChaosProfile::hostile),
        crash,
        decommission,
        kill_primary,
        ..WireSoakConfig::default()
    };
    cfg.server.snapshot_root = Some(snapshot_root);
    let report = match run_wire_soak(&cfg) {
        Ok(r) => r,
        Err(e @ RuntimeError::BadLoad { .. }) => {
            tsense_cli::fail("runtime", USAGE, format!("--rate x --seconds: {e}"))
        }
        Err(e) => {
            eprintln!("runtime: wire soak failed to run: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(path) = &opts.hist_out {
        if let Err(e) = std::fs::write(path, report.histogram.render()) {
            eprintln!(
                "runtime: could not write histogram to {}: {e}",
                path.display()
            );
        }
    }
    let p99 = report.histogram.quantile_ms(0.99);
    let p999 = report.histogram.quantile_ms(0.999);
    if opts.json {
        let violations: Vec<String> = report
            .violations
            .iter()
            .map(|v| format!("    \"{}\"", v.replace('"', "'")))
            .collect();
        println!(
            "{{\n  \"requests\": {},\n  \"completed\": {},\n  \"failed\": {},\n  \
             \"exhausted\": {},\n  \"throughput_rps\": {:.1},\n  \"p50_ms\": {},\n  \
             \"p99_ms\": {},\n  \"p999_ms\": {},\n  \"shed\": {},\n  \"deduped\": {},\n  \
             \"failovers\": {},\n  \"bad_frames\": {},\n  \"crashes\": {},\n  \
             \"replicated\": {},\n  \"promotions\": {},\n  \"fenced_writes\": {},\n  \
             \"chaos_faults\": {},\n  \"invariants_ok\": {},\n  \"violations\": [\n{}\n  ]\n}}",
            report.requests,
            report.completed,
            report.failed,
            report.exhausted,
            report.throughput_rps,
            report.histogram.quantile_ms(0.50),
            p99,
            p999,
            report.server.shed,
            report.server.deduped,
            report.server.failovers,
            report.server.bad_frames,
            report.server.crashes,
            report.server.replicated,
            report.server.promotions,
            report.server.fenced_writes,
            report.chaos_faults.map_or("null".into(), |f| f.to_string()),
            report.invariants_ok(),
            violations.join(",\n"),
        );
    } else {
        print!("{}", report.render());
    }
    let p99_ok = opts.p99_ms.is_none_or(|bound| p99 <= bound);
    let failure = (!report.invariants_ok() || !p99_ok).then(|| {
        format!(
            "runtime: wire-soak check FAILED ({} request(s), {} violation(s), p99 <{} ms{})",
            report.requests,
            report.violations.len(),
            p99,
            opts.p99_ms
                .map_or(String::new(), |b| format!(" vs bound {b} ms")),
        )
    });
    tsense_cli::verdict(opts.check, opts.json, failure)
}

fn run_soak_cmd(opts: Options) -> ExitCode {
    let total_ms = opts.seconds * 1000;
    let mut cfg = opts.soak;
    cfg.duration_ms = (total_ms * 4) / 5;
    cfg.drain_ms = total_ms - cfg.duration_ms;
    cfg.faults = if opts.chaos {
        opts.faults.unwrap_or((2 * opts.seconds).max(1) as usize)
    } else {
        0
    };
    cfg.restart_at_ms = opts.restart.then_some(cfg.duration_ms / 2);
    let dir = opts.snapshot_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("tsense-soak-{}-{}", std::process::id(), cfg.seed))
    });
    cfg.runtime = RuntimeConfig {
        snapshot_dir: Some(dir),
        ..RuntimeConfig::default()
    };

    let report = match run_soak(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runtime: soak failed to run: {e}");
            return ExitCode::from(1);
        }
    };
    if opts.json {
        println!("{}", render_json(&report, opts.restart));
    } else {
        print!("{}", report.render_text());
    }
    let failure = (!report.liveness_ok(opts.restart)).then(|| {
        format!(
            "runtime: check FAILED (late {} stale {} breakers_closed {} restarts {} \
             recovered {:?})",
            report.late_replies,
            report.silent_stale,
            report.breakers_all_closed,
            report.restarts,
            report.recovered_seq,
        )
    });
    tsense_cli::verdict(opts.check, opts.json, failure)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("soak") => run_soak_cmd(parse_soak_args(args)),
        Some("serve") => run_serve_cmd(parse_serve_args(args)),
        Some("client") => run_client_cmd(parse_client_args(args)),
        Some("wire-soak") => run_wire_soak_cmd(parse_wire_soak_args(args)),
        Some("dst") => match parse_dst_args(args) {
            opts if opts.fleet => run_dst_cmd::<FleetConfig>(opts),
            opts => run_dst_cmd::<SimConfig>(opts),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        cmd => tsense_cli::fail(
            "runtime",
            USAGE,
            format!(
                "{} command (try `soak`, `serve`, `client`, `wire-soak`, or `dst`)",
                cmd.map_or("missing".into(), |c| format!("unknown `{c}`"))
            ),
        ),
    }
}
