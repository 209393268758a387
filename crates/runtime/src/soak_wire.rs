//! Open-loop load soak against the real wire stack, with the PR 8
//! fleet invariants re-asserted on actual TCP bytes.
//!
//! The harness starts a [`WireServer`], optionally fronts it with the
//! seeded [`wire::chaos`] proxy, and drives it with Poisson arrivals:
//! requests are *scheduled* by a seeded exponential process and their
//! latency is measured from the scheduled arrival, not from send — so
//! a stalling server honestly accrues queueing delay instead of
//! silently slowing the load (open-loop, not closed-loop).
//!
//! Mid-run the harness can crash-and-recover one shard group's
//! primary, decommission another, and permanently **kill** a third
//! group's primary (forcing an epoch-bumping backup promotion), then
//! grades the run against the same client-observed invariants the
//! deterministic fleet simulation checks:
//!
//! 1. **Honest staleness** — no reading older than the staleness
//!    bound; `fresh` readings have age 0.
//! 2. **No decommissioned shard served** — no response forwarded from
//!    a shard at or after its decommission stamp.
//! 3. **No resurrected cache** — recovery never restores a cached
//!    median.
//! 4. **At-most-once effects** — no `(incarnation, req_id)` executes
//!    twice; client retries replay the recorded outcome, including
//!    across a primary failover (the dedup map is replicated).
//! 5. **Failover completes** — a configured primary kill must produce
//!    a promotion, and no split-brain double execution with it.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wire::{ChaosProfile, ChaosProxy, WireOutcome};

use crate::client::{ClientError, WireClient, WireClientConfig};
use crate::error::{Result, RuntimeError};
use crate::retry::RetryPolicy;
use crate::serve::{WireServer, WireServerConfig, WireServerStats};

/// Tuning for one wire soak.
#[derive(Debug, Clone)]
pub struct WireSoakConfig {
    /// Seed for arrivals, keys, and chaos.
    pub seed: u64,
    /// Load duration, milliseconds.
    pub duration_ms: u64,
    /// Mean Poisson arrival rate, requests per second.
    pub rate_hz: f64,
    /// Concurrent client workers draining the arrival schedule.
    pub clients: usize,
    /// The server under test.
    pub server: WireServerConfig,
    /// When set, all traffic crosses a chaos proxy with this profile.
    pub chaos: Option<ChaosProfile>,
    /// Client-side retry ladder.
    pub client_retry: RetryPolicy,
    /// Crash-and-recover `(shard, at_ms)` mid-run.
    pub crash: Option<(usize, u64)>,
    /// Decommission `(shard, at_ms)` mid-run.
    pub decommission: Option<(usize, u64)>,
    /// Permanently kill `(shard, at_ms)`'s primary mid-run, forcing
    /// an epoch-bumping promotion of its best backup.
    pub kill_primary: Option<(usize, u64)>,
}

/// Most arrivals one wire soak may expect (`rate_hz × duration`): the
/// schedule is precomputed, so this bounds its memory.
pub(crate) const MAX_ARRIVALS: u64 = 10_000_000;

impl WireSoakConfig {
    /// Checks the offered load before anything is allocated for it:
    /// [`RuntimeError::BadLoad`] when `rate_hz` is not a positive finite
    /// number, or when `rate_hz × duration_ms` expects more than
    /// [`MAX_ARRIVALS`] arrivals.
    fn check_load(&self) -> Result<()> {
        let expected = self.rate_hz * self.duration_ms as f64 / 1_000.0;
        if self.rate_hz.is_finite() && self.rate_hz > 0.0 && expected <= MAX_ARRIVALS as f64 {
            Ok(())
        } else {
            Err(RuntimeError::BadLoad {
                rate_hz: self.rate_hz,
                duration_ms: self.duration_ms,
            })
        }
    }
}

impl Default for WireSoakConfig {
    fn default() -> Self {
        WireSoakConfig {
            seed: 0,
            duration_ms: 3_000,
            rate_hz: 150.0,
            clients: 4,
            server: WireServerConfig::default(),
            chaos: None,
            client_retry: RetryPolicy {
                max_attempts: 4,
                base_delay_ms: 2,
                max_delay_ms: 40,
                multiplier: 2.0,
                jitter: 0.5,
            },
            crash: Some((1, 1_000)),
            decommission: Some((2, 2_000)),
            kill_primary: None,
        }
    }
}

/// Power-of-two latency histogram: bucket 0 holds 0 ms, bucket *i*
/// holds `[2^(i-1), 2^i)` ms.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ms: u64,
    max_ms: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            sum_ms: 0,
            max_ms: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn index(ms: u64) -> usize {
        if ms == 0 {
            0
        } else {
            ((64 - ms.leading_zeros()) as usize).min(63)
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, ms: u64) {
        self.buckets[Self::index(ms)] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample, milliseconds.
    pub fn max_ms(&self) -> u64 {
        self.max_ms
    }

    /// Mean latency, milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive, in ms) of the bucket containing the
    /// `q`-quantile sample, `q` in `[0, 1]` — e.g. `quantile_ms(0.99)`
    /// is a p99 bound. 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max_ms
    }

    /// A plain-text rendering, one non-empty bucket per line — the CI
    /// artifact format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "samples {}  mean {:.2} ms  p50 <{} ms  p99 <{} ms  p999 <{} ms  max {} ms\n",
            self.count,
            self.mean_ms(),
            self.quantile_ms(0.50),
            self.quantile_ms(0.99),
            self.quantile_ms(0.999),
            self.max_ms,
        ));
        for (i, b) in self.buckets.iter().enumerate() {
            if *b == 0 {
                continue;
            }
            let (lo, hi) = if i == 0 {
                (0, 0)
            } else {
                (1u64 << (i - 1), (1u64 << i) - 1)
            };
            out.push_str(&format!("[{lo:>6}..{hi:>6}] ms  {b}\n"));
        }
        out
    }
}

/// What one wire soak did and whether the fleet invariants held.
#[derive(Debug, Clone)]
pub struct WireSoakReport {
    /// Requests scheduled (and sent).
    pub requests: u64,
    /// Requests answered with a reading.
    pub completed: u64,
    /// Requests answered with a typed shard-side failure.
    pub failed: u64,
    /// Requests the client gave up on after its full ladder.
    pub exhausted: u64,
    /// End-to-end latency from scheduled arrival to answer.
    pub histogram: LatencyHistogram,
    /// Completed requests per second of load window.
    pub throughput_rps: f64,
    /// Invariant violations; empty on a healthy run.
    pub violations: Vec<String>,
    /// Final server counters.
    pub server: WireServerStats,
    /// Total faults the chaos proxy injected, when chaos was on.
    pub chaos_faults: Option<u64>,
    /// Chaos proxy counter rendering, when chaos was on.
    pub chaos_summary: Option<String>,
}

impl WireSoakReport {
    /// `true` when requests were scheduled and every graded fleet
    /// invariant held: a soak that sent nothing proves nothing.
    pub fn invariants_ok(&self) -> bool {
        self.requests > 0 && self.violations.is_empty()
    }

    /// A plain-text summary for CLI and CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests {}  completed {}  failed {}  exhausted {}  throughput {:.1} req/s\n",
            self.requests, self.completed, self.failed, self.exhausted, self.throughput_rps
        ));
        out.push_str(&format!(
            "server: shed {}  deduped {}  failovers {}  bad_frames {}  crashes {}\n",
            self.server.shed,
            self.server.deduped,
            self.server.failovers,
            self.server.bad_frames,
            self.server.crashes
        ));
        out.push_str(&format!(
            "replication: replicated {}  promotions {}  fenced_writes {}  rejoin_repairs {}\n",
            self.server.replicated,
            self.server.promotions,
            self.server.fenced_writes,
            self.server.rejoin_repairs
        ));
        if let Some(s) = &self.chaos_summary {
            out.push_str(&format!("chaos: {s}\n"));
        }
        out.push_str(&self.histogram.render());
        if self.violations.is_empty() {
            out.push_str("invariants: ok\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// One answered request as the grader sees it.
struct Sample {
    latency_ms: u64,
    result: std::result::Result<crate::client::ClientOutcome, ClientError>,
}

/// Runs one seeded wire soak to completion and grades it.
///
/// # Errors
///
/// An unschedulable load ([`crate::RuntimeError::BadLoad`]) and server
/// start errors ([`crate::RuntimeError::FrameBudget`] and the
/// per-shard preflight); the load phase itself never fails — bad
/// outcomes become violations in the report.
pub fn run_wire_soak(cfg: &WireSoakConfig) -> Result<WireSoakReport> {
    cfg.check_load()?;
    let server = WireServer::start(cfg.server.clone(), None)?;
    let proxy = match &cfg.chaos {
        Some(profile) => Some(
            ChaosProxy::start(server.addr(), profile.clone(), cfg.seed).map_err(|e| {
                crate::snapshot::SnapshotError::Io {
                    path: std::path::PathBuf::from("<chaos proxy>"),
                    detail: e.to_string(),
                }
            })?,
        ),
        None => None,
    };
    let target = proxy.as_ref().map_or(server.addr(), ChaosProxy::addr);

    // Seeded Poisson arrival schedule, precomputed.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x50A4_11FE);
    let mut arrivals: Vec<(u64, u64, u64)> = Vec::new(); // (req_id, key, at_ms)
    let mut t_ms = 0.0_f64;
    let mut req_id = cfg.seed << 20;
    while (t_ms as u64) < cfg.duration_ms {
        let u: f64 = rng.random();
        let gap_ms = -(1.0 - u).ln() / cfg.rate_hz * 1_000.0;
        t_ms += gap_ms;
        if (t_ms as u64) >= cfg.duration_ms {
            break;
        }
        let key = rng.random_range(0..u64::MAX);
        arrivals.push((req_id, key, t_ms as u64));
        req_id += 1;
    }
    let requests = arrivals.len() as u64;

    let (job_tx, job_rx) = mpsc::channel::<(u64, u64, u64)>();
    for job in &arrivals {
        job_tx.send(*job).expect("receiver alive");
    }
    drop(job_tx);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (sample_tx, sample_rx) = mpsc::channel::<Sample>();

    let start = Instant::now();
    let mut workers = Vec::new();
    for w in 0..cfg.clients.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let sample_tx = sample_tx.clone();
        let client_cfg = WireClientConfig {
            addrs: vec![target],
            retry: cfg.client_retry.clone(),
            frame_budget: cfg.server.frame_budget,
            seed: cfg.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..WireClientConfig::default()
        };
        workers.push(
            thread::Builder::new()
                .name(format!("soak-client-{w}"))
                .spawn(move || {
                    let mut client = WireClient::new(client_cfg);
                    loop {
                        let job = {
                            let rx = job_rx.lock().expect("job queue poisoned");
                            rx.recv()
                        };
                        let Ok((req_id, key, at_ms)) = job else {
                            return;
                        };
                        let due = Duration::from_millis(at_ms);
                        let elapsed = start.elapsed();
                        if elapsed < due {
                            thread::sleep(due - elapsed);
                        }
                        let scheduled = start + due;
                        let result = client.request(req_id, key);
                        let latency_ms = scheduled.elapsed().as_millis() as u64;
                        if sample_tx.send(Sample { latency_ms, result }).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawn soak client"),
        );
    }
    drop(sample_tx);

    // Mid-run fault injection, on the same wall timeline as arrivals.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Fault {
        Crash,
        Decommission,
        KillPrimary,
    }
    let mut events: Vec<(u64, Fault, usize)> = Vec::new(); // (at_ms, fault, shard)
    if let Some((shard, at)) = cfg.crash {
        events.push((at, Fault::Crash, shard));
    }
    if let Some((shard, at)) = cfg.decommission {
        events.push((at, Fault::Decommission, shard));
    }
    if let Some((shard, at)) = cfg.kill_primary {
        events.push((at, Fault::KillPrimary, shard));
    }
    events.sort_unstable();
    let mut decommissioned: Vec<(usize, u64)> = Vec::new(); // (shard, server stamp)
    let mut crash_errors = Vec::new();
    for (at_ms, fault, shard) in events {
        let due = Duration::from_millis(at_ms);
        let elapsed = start.elapsed();
        if elapsed < due {
            thread::sleep(due - elapsed);
        }
        match fault {
            Fault::Crash => {
                if let Err(e) = server.crash_shard(shard) {
                    crash_errors.push(format!("crash of shard {shard} failed: {e}"));
                }
            }
            Fault::Decommission => match server.decommission(shard) {
                Ok(stamp) => decommissioned.push((shard, stamp)),
                Err(e) => crash_errors.push(format!("decommission of shard {shard} failed: {e}")),
            },
            Fault::KillPrimary => {
                if let Err(e) = server.kill_primary(shard) {
                    crash_errors.push(format!("primary kill of shard {shard} failed: {e}"));
                }
            }
        }
    }

    for w in workers {
        drop(w.join());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let chaos_faults = proxy.as_ref().map(|p| p.stats().total_faults());
    let chaos_summary = proxy.as_ref().map(|p| p.stats().render());
    if let Some(p) = proxy {
        p.shutdown();
    }

    // Grade.
    let staleness_bound = cfg.server.runtime.staleness_bound_ms;
    let mut histogram = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut exhausted = 0u64;
    let mut violations = crash_errors;
    while let Ok(sample) = sample_rx.try_recv() {
        histogram.record(sample.latency_ms);
        match sample.result {
            Ok(out) => match &out.outcome {
                WireOutcome::Reading { fresh, age_ms, .. } => {
                    completed += 1;
                    if *fresh && *age_ms != 0 {
                        violations.push(format!(
                            "dishonest freshness: fresh reading with age {age_ms} ms \
                             from shard {}",
                            out.origin_shard
                        ));
                    }
                    if *age_ms > staleness_bound {
                        violations.push(format!(
                            "stale served: age {age_ms} ms past the {staleness_bound} ms \
                             bound from shard {}",
                            out.origin_shard
                        ));
                    }
                    if let Some((_, stamp)) =
                        decommissioned.iter().find(|(s, _)| *s == out.origin_shard)
                    {
                        if out.forwarded_at_ms >= *stamp {
                            violations.push(format!(
                                "decommissioned shard {} served at t={} ms \
                                 (decommissioned at t={stamp} ms)",
                                out.origin_shard, out.forwarded_at_ms
                            ));
                        }
                    }
                }
                WireOutcome::Failed { .. } => failed += 1,
                WireOutcome::Shed { .. } => failed += 1, // client returns sheds only when exhausted mid-ladder
            },
            Err(ClientError::Exhausted { .. }) => exhausted += 1,
            Err(_) => exhausted += 1,
        }
    }
    let server_stats = {
        let report = server.drain()?;
        report.stats
    };
    if server_stats.resurrected > 0 {
        violations.push(format!(
            "resurrected cache: {} recover(ies) came back with a cached median",
            server_stats.resurrected
        ));
    }
    if server_stats.duplicate_effects > 0 {
        violations.push(format!(
            "duplicate effects: {} request(s) executed twice on one incarnation",
            server_stats.duplicate_effects
        ));
    }
    if cfg.crash.is_some() && server_stats.crashes == 0 {
        violations.push("harness: configured crash never happened".into());
    }
    if cfg.kill_primary.is_some() && server_stats.promotions == 0 {
        violations.push(
            "failover incomplete: primary was killed but no backup promotion happened".into(),
        );
    }

    Ok(WireSoakReport {
        requests,
        completed,
        failed,
        exhausted,
        histogram,
        throughput_rps: completed as f64 / wall_s.max(1e-9),
        violations,
        server: server_stats,
        chaos_faults,
        chaos_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_and_merge_are_sane() {
        let mut h = LatencyHistogram::new();
        for ms in [0, 1, 1, 2, 3, 5, 9, 17, 900] {
            h.record(ms);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.max_ms(), 900);
        assert!(h.quantile_ms(0.5) <= 4, "p50 {}", h.quantile_ms(0.5));
        assert!(h.quantile_ms(1.0) >= 512, "p100 {}", h.quantile_ms(1.0));
        let mut other = LatencyHistogram::new();
        other.record(42);
        other.merge(&h);
        assert_eq!(other.count(), 10);
        let r = other.render();
        assert!(r.contains("samples 10"), "{r}");
    }

    #[test]
    fn an_unschedulable_load_is_refused_before_anything_starts() {
        for rate_hz in [f64::NAN, f64::INFINITY, 0.0, -150.0, 1e300, 2e7] {
            let cfg = WireSoakConfig {
                rate_hz,
                duration_ms: 1_000,
                ..WireSoakConfig::default()
            };
            let err = run_wire_soak(&cfg).expect_err("load refused");
            assert!(
                matches!(err, RuntimeError::BadLoad { .. }),
                "{rate_hz}: {err}"
            );
        }
    }

    #[test]
    fn a_soak_that_scheduled_nothing_fails_its_invariants() {
        let report = |requests| WireSoakReport {
            requests,
            completed: requests,
            failed: 0,
            exhausted: 0,
            histogram: LatencyHistogram::new(),
            throughput_rps: 0.0,
            violations: Vec::new(),
            server: WireServerStats::default(),
            chaos_faults: None,
            chaos_summary: None,
        };
        assert!(!report(0).invariants_ok());
        assert!(report(1).invariants_ok());
    }
}
