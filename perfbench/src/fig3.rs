//! The `fig3_sweep` workload: the paper's Fig. 3 experiment through the
//! public calls of `tsense_core::optimize`, `stdcell` and
//! `tsense_core::linearity` — the science path, no serving layer.

use std::time::{Duration, Instant};

use stdcell::library::CellLibrary;
use stdcell::ring::TransistorRing;
use tsense_core::gate::GateKind;
use tsense_core::linearity::{FitKind, NonLinearity};
use tsense_core::optimize::{config_search, exhaustive_config_search, ConfigPoint, SweepSettings};
use tsense_core::ring::{CellConfig, PeriodCurve};
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Seconds};

use crate::hist::Hist;

/// The library sizing of the paper's fixed-library experiment.
pub const LIBRARY_RATIO: f64 = 1.5;
/// Transistor-level temperatures per candidate: −50 … 150 °C.
pub const TEMPS: usize = 9;
/// Analytical candidates re-simulated at transistor level.
pub const SHORTLIST: usize = 8;

/// The six Fig. 3 mixes, best first, as the analytical model ranks
/// them at this sizing; a change that reorders them changed the model.
pub const EXPECTED_RANKING: [&str; 6] = [
    "5×INV",
    "3×NAND3 + 2×NOR2",
    "3×INV + 2×NAND3",
    "2×INV + 3×NAND3",
    "5×NAND2",
    "2×INV + 3×NOR2",
];
/// The exhaustive search's winner over all 5-stage multisets.
pub const EXPECTED_WINNER: &str = "2×INV + 1×NAND3 + 2×NOR2";

pub fn temps() -> Vec<f64> {
    (0..TEMPS)
        .map(|i| -50.0 + 200.0 * i as f64 / (TEMPS - 1) as f64)
        .collect()
}

/// Per-call timings a traced sweep collects.
#[derive(Default)]
pub struct SweepTrace {
    pub config_search: Duration,
    pub exhaustive: Duration,
    pub elaborate: Hist,
    pub fit: Hist,
}

/// One sweep's results.
pub struct Sweep {
    /// The simulated candidates, baseline last.
    pub configs: Vec<CellConfig>,
    pub ranking: Vec<String>,
    pub winner: String,
    /// The simulated periods, candidate-major, `(SHORTLIST + 1) × TEMPS`.
    pub periods: Vec<f64>,
    /// Host time of each `measure_period` call, same order.
    pub transients: Vec<Duration>,
    pub total: Duration,
    pub trace: Option<SweepTrace>,
    pub failures: Vec<String>,
}

/// The transistor-level candidates: the analytical top `shortlist`
/// plus the 5×INV baseline (last).
pub fn candidates(full: &[ConfigPoint], shortlist: usize) -> Vec<CellConfig> {
    let mut c: Vec<CellConfig> = full
        .iter()
        .take(shortlist)
        .map(|p| p.config.clone())
        .collect();
    c.push(CellConfig::uniform(GateKind::Inv, 5).expect("5×INV is a valid ring"));
    c
}

/// The workload's simulated candidates, from the analytical search.
pub fn shortlist() -> Result<Vec<CellConfig>, String> {
    let full = exhaustive_config_search(
        &Technology::um350(),
        &GateKind::PAPER_SET,
        5,
        1e-6,
        LIBRARY_RATIO,
        &SweepSettings::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(candidates(&full, SHORTLIST))
}

fn nonlinearity(temps: &[f64], periods: &[f64]) -> Result<f64, String> {
    let curve = PeriodCurve::new(
        temps.iter().map(|&t| Celsius::new(t)).collect(),
        periods.iter().map(|&p| Seconds::new(p)).collect(),
    );
    NonLinearity::of_curve(&curve, FitKind::LeastSquares)
        .map(|nl| nl.max_abs_percent())
        .map_err(|e| format!("non-linearity fit: {e}"))
}

/// Runs the experiment once, re-simulating the analytical top
/// `shortlist` (the workload uses [`SHORTLIST`]; the traced run of the
/// other workloads simulates only the baseline). With `trace`, also
/// times each layer call it makes (elaboration is timed as an extra
/// call per point).
pub fn sweep(shortlist: usize, trace: bool) -> Result<Sweep, String> {
    let t0 = Instant::now();
    let tech = Technology::um350();
    let settings = SweepSettings::default();
    let mut tr = trace.then(SweepTrace::default);
    let err = |e: &dyn std::fmt::Display| e.to_string();

    let t = Instant::now();
    let ranked = config_search(
        &tech,
        &CellConfig::paper_fig3_set(),
        1e-6,
        LIBRARY_RATIO,
        &settings,
    )
    .map_err(|e| err(&e))?;
    let config_search_t = t.elapsed();
    let t = Instant::now();
    let full = exhaustive_config_search(
        &tech,
        &GateKind::PAPER_SET,
        5,
        1e-6,
        LIBRARY_RATIO,
        &settings,
    )
    .map_err(|e| err(&e))?;
    let exhaustive_t = t.elapsed();
    if let Some(tr) = tr.as_mut() {
        tr.config_search = config_search_t;
        tr.exhaustive = exhaustive_t;
    }

    let lib = CellLibrary::um350(LIBRARY_RATIO);
    let temps = temps();
    let mut periods = Vec::new();
    let mut transients = Vec::new();
    let mut sim_nl = Vec::new();
    let configs = candidates(&full, shortlist);
    for config in &configs {
        let ring: TransistorRing = lib.ring_from_config(config).map_err(|e| err(&e))?;
        let mut curve = Vec::with_capacity(TEMPS);
        for &temp in &temps {
            if let Some(tr) = tr.as_mut() {
                let t = Instant::now();
                std::hint::black_box(ring.elaborate(temp).map_err(|e| err(&e))?);
                tr.elaborate.record(t.elapsed());
            }
            let t = Instant::now();
            let p = ring.measure_period(temp).map_err(|e| err(&e))?;
            transients.push(t.elapsed());
            curve.push(p);
        }
        let t = Instant::now();
        let nl = nonlinearity(&temps, &curve)?;
        if let Some(tr) = tr.as_mut() {
            tr.fit.record(t.elapsed());
        }
        sim_nl.push((config.to_string(), nl));
        periods.extend(curve);
    }
    let total = t0.elapsed();

    let mut failures = Vec::new();
    let ranking: Vec<String> = ranked.iter().map(|p| p.config.to_string()).collect();
    if ranking != EXPECTED_RANKING {
        failures.push(format!("Fig. 3 ranking changed: {ranking:?}"));
    }
    let winner = full[0].config.to_string();
    if winner != EXPECTED_WINNER {
        failures.push(format!("exhaustive winner changed: {winner}"));
    }
    // The paper checks, as the `figures fig3` experiment states them.
    let inv = CellConfig::uniform(GateKind::Inv, 5).expect("valid ring");
    let pure_inv = full
        .iter()
        .find(|p| p.config == inv)
        .ok_or("5×INV missing from the enumeration")?;
    if !(full[0].max_nl_percent < 0.5 * pure_inv.max_nl_percent && full[0].max_nl_percent < 0.2) {
        failures.push("paper check failed: cell selection does not halve the 5×INV error".into());
    }
    let (inv_name, inv_nl) = sim_nl.last().expect("baseline simulated").clone();
    let best_sim = sim_nl[..shortlist]
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1));
    if let Some(best_sim) = best_sim.filter(|b| b.1 >= inv_nl) {
        failures.push(format!(
            "paper check failed: simulated winner {} at {:.4} % does not beat {inv_name} at {inv_nl:.4} %",
            best_sim.0, best_sim.1
        ));
    }
    Ok(Sweep {
        configs,
        ranking,
        winner,
        periods,
        transients,
        total,
        trace: tr,
        failures,
    })
}

/// FNV-1a over the exact bits of every simulated period, in order: a
/// speed-only solver change must leave it unchanged.
pub fn digest(periods: &[f64]) -> u64 {
    let bytes: Vec<u8> = periods
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    dst::hash::fnv1a64(&bytes)
}
