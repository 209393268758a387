//! The scenario-generic DST driver: one seed sweep and one shrink for
//! every simulator.
//!
//! A simulator plugs in by implementing [`Scenario`] on its config:
//! re-seed it, run it to a report, read the report's first
//! [`Violation`] and its [`Tally`], resolve the config's event list,
//! and pin an explicit one. [`sweep`] then explores a seed window on a
//! worker pool with output byte-identical to a serial loop, and
//! [`shrink`] cuts a failing config's events to a 1-minimal reproducer
//! of the same invariant with [`shrink_events`].

use std::fmt;

use crate::par::run_indexed;
use crate::shrink::shrink_events;

/// One invariant violation, pinned to the scheduler step that produced
/// it. `I` is the simulator's invariant enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation<I> {
    /// Which promise broke.
    pub invariant: I,
    /// Virtual time of the violating step, milliseconds.
    pub at_ms: u64,
    /// Global step index of the violating step.
    pub step: u64,
    /// Label of the task that was stepped.
    pub task: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// `INVARIANT at step N (t=T ms, task TASK): DETAIL` — the one line
/// traces, sweep reports, and failure artifacts print.
impl<I: fmt::Display> fmt::Display for Violation<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at step {} (t={} ms, task {}): {}",
            self.invariant, self.step, self.at_ms, self.task, self.detail
        )
    }
}

/// The per-run counters a sweep totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Scheduler steps executed.
    pub steps: u64,
    /// Client requests issued.
    pub requests: u64,
    /// Crashes simulated.
    pub crashes: u64,
}

/// A seeded, replayable simulation config.
///
/// `run` must be pure: the same config always yields the same report.
/// The event list is everything the shrinker may remove — faults,
/// crashes, administration — in one time-sorted list, and pinning the
/// list a config resolves to must not change its run.
pub trait Scenario: Clone + Sync {
    /// The simulator's invariant enum.
    type Invariant: Copy + PartialEq;
    /// One removable scenario event.
    type Event: Clone;
    /// What one run did and found.
    type Report: Send;

    /// This config with its master seed replaced.
    fn reseed(&self, seed: u64) -> Self;
    /// Runs the config to completion or to its first violation.
    fn run(&self) -> Self::Report;
    /// The run's first invariant violation, if any.
    fn violation(report: &Self::Report) -> Option<&Violation<Self::Invariant>>;
    /// The run's counters.
    fn tally(report: &Self::Report) -> Tally;
    /// The time-sorted event list this config resolves to.
    fn events(&self) -> Vec<Self::Event>;
    /// This config with an explicit event list overriding the seeded
    /// draws.
    fn pin(&self, events: Vec<Self::Event>) -> Self;
}

/// Aggregate of a seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<R> {
    /// Seeds counted (under `stop_at_first` the count stops at the
    /// first violating seed, exactly as a serial loop would).
    pub seeds: u64,
    /// Totals across the counted seeds.
    pub tally: Tally,
    /// Full reports of the seeds that violated an invariant, in seed
    /// order.
    pub violations: Vec<R>,
}

/// Runs `count` seeds starting at `seed_base` on `jobs` worker threads
/// and merges the results in seed order, so the outcome is
/// byte-identical at any job count. Seeds run in waves of `jobs * 4`;
/// `stop_at_first` ends aggregation at the first violating seed (later
/// seeds of that wave may be computed, but are never counted). Workers
/// drop clean reports before the merge, so memory holds only failures.
///
/// # Panics
///
/// Panics if the seed window `seed_base..seed_base + count` does not
/// fit in `u64`.
pub fn sweep<S: Scenario>(
    base: &S,
    seed_base: u64,
    count: u64,
    stop_at_first: bool,
    jobs: usize,
) -> SweepOutcome<S::Report> {
    assert!(
        count == 0 || seed_base.checked_add(count - 1).is_some(),
        "seed window of {count} seed(s) from {seed_base} overflows u64"
    );
    let jobs = jobs.max(1);
    let wave = (jobs * 4) as u64;
    let mut out = SweepOutcome {
        seeds: 0,
        tally: Tally::default(),
        violations: Vec::new(),
    };
    let mut next = 0u64;
    while next < count {
        let len = wave.min(count - next) as usize;
        let first = seed_base + next;
        let results = run_indexed(len, jobs, |i| {
            let report = base.reseed(first + i as u64).run();
            let tally = S::tally(&report);
            (tally, S::violation(&report).is_some().then_some(report))
        });
        for (tally, violating) in results {
            out.seeds += 1;
            out.tally.steps += tally.steps;
            out.tally.requests += tally.requests;
            out.tally.crashes += tally.crashes;
            if let Some(report) = violating {
                out.violations.push(report);
                if stop_at_first {
                    return out;
                }
            }
        }
        next += len as u64;
    }
    out
}

/// A failing config cut down to a 1-minimal reproducer.
#[derive(Debug, Clone)]
pub struct Shrunk<S: Scenario> {
    /// The minimized config: the same seed with its event list pinned.
    pub config: S,
    /// The minimized run, still violating the same invariant.
    pub report: S::Report,
}

/// Shrinks a failing config's whole event list to a 1-minimal set that
/// still reproduces the *same* invariant: dropping any one kept event
/// makes that invariant disappear. Returns `None` when the config does
/// not fail in the first place.
pub fn shrink<S: Scenario>(cfg: &S) -> Option<Shrunk<S>> {
    let target = S::violation(&cfg.run())?.invariant;
    let reproduces = |c: &S| {
        let report = c.run();
        let hit = S::violation(&report).is_some_and(|v| v.invariant == target);
        hit.then_some(report)
    };
    let events = shrink_events(cfg.events(), |evs| {
        reproduces(&cfg.pin(evs.to_vec())).is_some()
    });
    let config = cfg.pin(events);
    let report = reproduces(&config).expect("a shrunk reproducer still fails");
    Some(Shrunk { config, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy simulator: a run "violates" when its seed is a multiple of
    /// `every` and the events `needs` are all present.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        seed: u64,
        every: u64,
        needs: Vec<u32>,
        events: Option<Vec<u32>>,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct ToyReport {
        seed: u64,
        violation: Option<Violation<u8>>,
        tally: Tally,
    }

    impl Scenario for Toy {
        type Invariant = u8;
        type Event = u32;
        type Report = ToyReport;

        fn reseed(&self, seed: u64) -> Self {
            Toy {
                seed,
                ..self.clone()
            }
        }

        fn run(&self) -> ToyReport {
            let events = self.events();
            let hit = self.seed.is_multiple_of(self.every)
                && self.needs.iter().all(|n| events.contains(n));
            ToyReport {
                seed: self.seed,
                violation: hit.then(|| Violation {
                    invariant: 7,
                    at_ms: self.seed,
                    step: self.seed % 13,
                    task: format!("toy-{}", self.seed),
                    detail: String::new(),
                }),
                tally: Tally {
                    steps: self.seed % 17,
                    requests: self.seed % 5,
                    crashes: self.seed % 2,
                },
            }
        }

        fn violation(report: &ToyReport) -> Option<&Violation<u8>> {
            report.violation.as_ref()
        }

        fn tally(report: &ToyReport) -> Tally {
            report.tally
        }

        fn events(&self) -> Vec<u32> {
            self.events.clone().unwrap_or_else(|| (0..12).collect())
        }

        fn pin(&self, events: Vec<u32>) -> Self {
            Toy {
                events: Some(events),
                ..self.clone()
            }
        }
    }

    fn toy(every: u64) -> Toy {
        Toy {
            seed: 0,
            every,
            needs: vec![3, 8],
            events: None,
        }
    }

    /// The serial reference: one seed after another on this thread.
    fn serial(
        base: &Toy,
        seed_base: u64,
        count: u64,
        stop_at_first: bool,
    ) -> SweepOutcome<ToyReport> {
        let mut out = SweepOutcome {
            seeds: 0,
            tally: Tally::default(),
            violations: Vec::new(),
        };
        for seed in seed_base..seed_base + count {
            let report = base.reseed(seed).run();
            out.seeds += 1;
            out.tally.steps += report.tally.steps;
            out.tally.requests += report.tally.requests;
            out.tally.crashes += report.tally.crashes;
            if report.violation.is_some() {
                out.violations.push(report);
                if stop_at_first {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn sweep_matches_the_serial_loop_at_any_job_count() {
        for every in [1, 5, 11, 1_000] {
            let base = toy(every);
            for stop_at_first in [false, true] {
                let reference = serial(&base, 3, 37, stop_at_first);
                for jobs in [1, 2, 4] {
                    assert_eq!(
                        sweep(&base, 3, 37, stop_at_first, jobs),
                        reference,
                        "every={every} stop_at_first={stop_at_first} jobs={jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_reaches_the_top_of_the_seed_space() {
        let out = sweep(&toy(1), u64::MAX - 1, 2, false, 2);
        let seeds: Vec<u64> = out.violations.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![u64::MAX - 1, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn sweep_rejects_a_window_past_the_seed_space() {
        sweep(&toy(1), u64::MAX, 2, false, 1);
    }

    #[test]
    fn shrink_keeps_exactly_the_needed_events() {
        let shrunk = shrink(&toy(1)).expect("seed 0 fails");
        assert_eq!(shrunk.config.events, Some(vec![3, 8]));
        assert_eq!(shrunk.config.seed, 0);
        assert_eq!(shrunk.report.violation.map(|v| v.invariant), Some(7));
    }

    #[test]
    fn shrink_of_a_clean_config_is_none() {
        assert!(shrink(&toy(2).reseed(1)).is_none());
    }
}
