//! Open-loop load generation over real TCP connections.
//!
//! Each of the [`CLIENT_THREADS`] threads owns one [`WireClient`] (one
//! connection) and half of a Poisson arrival process. Arrival times and
//! keys are drawn one at a time from a per-thread stream seeded by the
//! workload seed, so the generator holds no schedule and its memory
//! stays constant however long a step runs. Latency is measured from
//! each request's *scheduled* send time: a stalled connection makes
//! the requests queued behind it late, and that wait is counted.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use runtime::{ClientError, WireClient, WireClientConfig};
use wire::WireOutcome;

use crate::hist::Hist;
use crate::report::{median, quantile};

/// Client threads, and so TCP connections, of the generator: one per
/// core of the 2-core reference machine.
pub const CLIENT_THREADS: usize = 2;

/// What one request asks of the server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `ClientReq` for a uniform random key.
    Read,
    /// `MapReq`; a full answer has `entries` rows.
    Map { entries: usize },
}

/// Where and how to send.
#[derive(Clone, Copy)]
pub struct Target {
    pub addr: SocketAddr,
    pub frame_budget: usize,
    pub staleness_bound_ms: u64,
    pub op: Op,
}

impl Target {
    pub fn client(&self, seed: u64) -> WireClient {
        WireClient::new(WireClientConfig {
            addrs: vec![self.addr],
            frame_budget: self.frame_budget,
            seed,
            ..WireClientConfig::default()
        })
    }
}

/// SplitMix64: a small seeded stream for arrivals and keys.
pub struct Stream(u64);

impl Stream {
    pub fn new(seed: u64) -> Self {
        Stream(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap of a Poisson process at `rate` per second.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Mixes a seed with a label so every stream of a run is distinct.
pub fn mix(seed: u64, label: u64) -> u64 {
    Stream::new(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One window of a step: the requests *scheduled* in it, their
/// latencies, and the answers that *completed* in it.
#[derive(Default, Clone)]
pub struct Window {
    pub scheduled: u64,
    pub completed: u64,
    pub latency: Hist,
}

/// The outcome of one fixed-rate step.
#[derive(Default, Clone)]
pub struct StepReport {
    /// Requests scheduled in the step, sent or not.
    pub attempted: u64,
    /// Full, honest answers: a `Reading`, or a map with every row.
    pub ok: u64,
    /// Everything else: typed failures, sheds, exhausted ladders,
    /// short maps, and requests still unsent at the step's cut-off.
    pub failed: u64,
    /// `Failed` answers the server recorded as effects (not the
    /// transient `stale-epoch` / `unservable` kinds).
    pub recorded_failures: u64,
    pub exhausted: u64,
    pub short_maps: u64,
    /// Client attempts over all answered requests.
    pub client_attempts: u64,
    /// Scheduled send → answer over the whole step; failures are misses.
    pub latency: Hist,
    /// The same, split into consecutive windows of the step.
    pub windows: Vec<Window>,
    /// Time inside `WireClient::request` / `request_map` (traced).
    pub request: Hist,
    /// Actual send − scheduled send (traced).
    pub gen_late: Hist,
    pub violations: Vec<String>,
}

impl StepReport {
    fn merge(&mut self, o: StepReport) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.failed += o.failed;
        self.recorded_failures += o.recorded_failures;
        self.exhausted += o.exhausted;
        self.short_maps += o.short_maps;
        self.client_attempts += o.client_attempts;
        self.latency.merge(&o.latency);
        self.request.merge(&o.request);
        self.gen_late.merge(&o.gen_late);
        for v in o.violations {
            self.violation(v);
        }
    }

    fn violation(&mut self, v: String) {
        // Keep the report small: any one violation fails the run.
        if self.violations.len() < 8 {
            self.violations.push(v);
        }
    }

    /// The `across`-quantile over windows of each window's
    /// `q`-quantile, µs. With `across` = 0.5 a stall of the shared
    /// machine spoils the windows it falls in, not the step's figure;
    /// a low `across` reads the step's calmer windows.
    pub fn window_quantile_us(&self, q: f64, across: f64) -> f64 {
        let xs: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.latency.count() > 0)
            .map(|w| w.latency.quantile_us(q))
            .collect();
        quantile(&xs, across)
    }

    /// The median over windows of full answers completed in the window,
    /// per second.
    pub fn window_completed_rps(&self, duration: Duration) -> f64 {
        let window_s = duration.as_secs_f64() / self.windows.len().max(1) as f64;
        let xs: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.completed as f64 / window_s)
            .collect();
        median(&xs)
    }

    /// The median over windows of answers completed per request
    /// scheduled. Below capacity it is 1: each window's answers keep up
    /// with its arrivals. Past capacity the backlog grows in every
    /// window and it falls below 1.
    pub fn window_achieved_share(&self) -> f64 {
        let xs: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.scheduled > 0)
            .map(|w| w.completed as f64 / w.scheduled as f64)
            .collect();
        median(&xs)
    }
}

/// Sleeps until `due`. The wake-up lands late by the kernel's timer
/// slack (tens of microseconds); that lateness is part of every
/// latency sample and is reported as `bench.gen_late_p99_us`. Spinning
/// instead would take the cores the in-process server needs.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if now < due {
        thread::sleep(due - now);
    }
}

/// Runs one open-loop step of Poisson arrivals at `rate` per second
/// for `duration`, split into `windows` equal windows, on `clients`
/// (one thread each). Requests still unsent `duration` after the
/// step's end are counted as failed without being sent, so an
/// overloaded step ends in bounded time.
#[allow(clippy::too_many_arguments)]
pub fn run_step(
    target: &Target,
    clients: &mut [WireClient],
    rate: f64,
    duration: Duration,
    windows: usize,
    seed: u64,
    next_req_id: &AtomicU64,
    trace: bool,
) -> StepReport {
    let per_thread = rate / clients.len() as f64;
    let window_s = duration.as_secs_f64() / windows as f64;
    let window_of = |t_s: f64| (t_s / window_s) as usize;
    let start = Instant::now();
    let cutoff = start + 2 * duration;
    // One set of windows for both threads: a window histogram is a few
    // kilobytes, and the generator's memory should stay small next to
    // the server's.
    let shared = Mutex::new(vec![Window::default(); windows]);
    let record = |w: usize, latency: Option<Duration>, done_in: Option<usize>| {
        let mut ws = shared.lock().expect("window lock poisoned");
        ws[w].scheduled += 1;
        match latency {
            Some(d) => ws[w].latency.record(d),
            None => ws[w].latency.record_miss(),
        }
        if let Some(cw) = done_in.and_then(|i| ws.get_mut(i)) {
            cw.completed += 1;
        }
    };
    let parts: Vec<StepReport> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let mut stream = Stream::new(mix(seed, i as u64 + 1));
                let record = &record;
                s.spawn(move || {
                    let mut rep = StepReport::default();
                    let mut t_s = 0.0;
                    loop {
                        t_s += stream.exp_gap_s(per_thread);
                        if t_s >= duration.as_secs_f64() {
                            break;
                        }
                        let key = stream.next_u64();
                        rep.attempted += 1;
                        let w = window_of(t_s).min(windows - 1);
                        let due = start + Duration::from_secs_f64(t_s);
                        if Instant::now() >= cutoff {
                            rep.failed += 1;
                            rep.latency.record_miss();
                            record(w, None, None);
                            continue;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        let req_id = next_req_id.fetch_add(1, Ordering::Relaxed);
                        let ok = send_one(target, client, req_id, key, &mut rep);
                        let done = Instant::now();
                        if trace {
                            rep.gen_late.record(sent - due);
                            rep.request.record(done - sent);
                        }
                        if ok {
                            rep.ok += 1;
                            rep.latency.record(done - due);
                            let done_in = window_of((done - start).as_secs_f64());
                            record(w, Some(done - due), Some(done_in));
                        } else {
                            rep.failed += 1;
                            rep.latency.record_miss();
                            record(w, None, None);
                        }
                    }
                    rep
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = StepReport {
        windows: shared.into_inner().expect("window lock poisoned"),
        ..StepReport::default()
    };
    for p in parts {
        total.merge(p);
    }
    total
}

/// Sends one request and grades the answer; `true` for a full answer.
/// A dishonest answer is a check violation, not a failed operation.
fn send_one(
    target: &Target,
    client: &mut WireClient,
    req_id: u64,
    key: u64,
    rep: &mut StepReport,
) -> bool {
    let bound = target.staleness_bound_ms;
    match target.op {
        Op::Read => match client.request(req_id, key) {
            Ok(out) => {
                rep.client_attempts += u64::from(out.attempts);
                match out.outcome {
                    WireOutcome::Reading { fresh, age_ms, .. } => {
                        if fresh && age_ms != 0 {
                            rep.violation(format!("fresh reading with age {age_ms} ms"));
                        }
                        if age_ms > bound {
                            rep.violation(format!(
                                "reading aged {age_ms} ms past the {bound} ms bound"
                            ));
                        }
                        true
                    }
                    WireOutcome::Failed { kind } => {
                        if kind != "stale-epoch" && kind != "unservable" {
                            rep.recorded_failures += 1;
                        }
                        false
                    }
                    WireOutcome::Shed { .. } => false,
                }
            }
            Err(e) => {
                exhausted(rep, &e);
                false
            }
        },
        Op::Map { entries } => match client.request_map(req_id) {
            Ok(out) => {
                rep.client_attempts += u64::from(out.attempts);
                for e in &out.entries {
                    if e.age_ms > bound {
                        rep.violation(format!(
                            "map row shard {} site {} aged {} ms past the {bound} ms bound",
                            e.shard, e.site, e.age_ms
                        ));
                    }
                }
                if out.entries.len() == entries {
                    true
                } else {
                    rep.short_maps += 1;
                    false
                }
            }
            Err(e) => {
                exhausted(rep, &e);
                false
            }
        },
    }
}

fn exhausted(rep: &mut StepReport, e: &ClientError) {
    rep.exhausted += 1;
    if let ClientError::Exhausted { attempts, .. } = e {
        rep.client_attempts += u64::from(*attempts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_stream_is_seeded_and_poisson() {
        let mut a = Stream::new(mix(7, 1));
        let mut b = Stream::new(mix(7, 1));
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let g = a.exp_gap_s(10_000.0);
            assert_eq!(g, b.exp_gap_s(10_000.0));
            sum += g;
        }
        let mean = sum / n as f64;
        assert!((mean - 1e-4).abs() < 0.02 * 1e-4, "mean gap {mean}");
        assert_ne!(mix(7, 1), mix(7, 2));
    }

    #[test]
    fn window_statistics() {
        let mut step = StepReport::default();
        for w in 0..10u64 {
            let mut win = Window {
                scheduled: 100,
                completed: if w == 3 { 50 } else { 100 },
                ..Window::default()
            };
            for _ in 0..100 {
                win.latency.record_ns((w + 1) * 1_000);
            }
            step.windows.push(win);
        }
        assert_eq!(step.window_quantile_us(0.5, 0.1), 1.0);
        assert_eq!(step.window_quantile_us(0.99, 0.5), 5.0);
        assert_eq!(step.window_achieved_share(), 1.0);
        assert_eq!(step.window_completed_rps(Duration::from_secs(1)), 1000.0);
    }
}
