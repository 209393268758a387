//! Smoke test of the deterministic-simulation driver from the umbrella
//! package: both simulators — the single-service runtime and the
//! replicated fleet — sweep a few seeds through the one shared
//! `dst::sweep`, come out clean, and give byte-identical outcomes on
//! one and two worker threads.

use runtime::{FleetConfig, SimConfig};

const SEEDS: u64 = 4;

fn assert_clean_and_job_count_invariant<S>(base: &S)
where
    S: dst::Scenario,
    S::Report: std::fmt::Debug,
{
    let serial = dst::sweep(base, 0, SEEDS, false, 1);
    assert_eq!(serial.seeds, SEEDS);
    assert!(serial.violations.is_empty(), "{:?}", serial.violations);
    assert!(serial.tally.steps > 0 && serial.tally.requests > 0);
    let parallel = dst::sweep(base, 0, SEEDS, false, 2);
    assert_eq!(format!("{parallel:?}"), format!("{serial:?}"));
}

#[test]
fn single_service_sweep_is_clean_at_one_and_two_jobs() {
    assert_clean_and_job_count_invariant(&SimConfig::default());
}

#[test]
fn fleet_sweep_is_clean_at_one_and_two_jobs() {
    assert_clean_and_job_count_invariant(&FleetConfig::default());
}
