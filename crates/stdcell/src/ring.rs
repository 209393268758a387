//! Transistor-level ring oscillators built from standard cells.
//!
//! This is the simulation path of the paper's Fig. 1: the ring is a real
//! circuit of Level-1 MOSFETs (including NAND/NOR stack internals) solved
//! by [`spicelite`]'s transient engine, and the period is measured from
//! interpolated threshold crossings — exactly how one would measure an
//! HSPICE run.

use spicelite::circuit::Circuit;
use spicelite::devices::MosModel;
use spicelite::error::{Result, SimError};
use spicelite::transient::{run_transient, TranOptions, TranStats};
use spicelite::waveform::Waveform;
use tsense_core::gate::GateKind;

use crate::cells::{emit_cell, CellSizing};

/// Rising crossings of `n0` that [`TransistorRing::measure_period`]
/// discards as start-up transient before averaging the period.
const STARTUP_CROSSINGS: usize = 3;

/// A period measurement with the solver work that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodMeasurement {
    /// Steady-state oscillation period, seconds.
    pub period: f64,
    /// Transients simulated, each from `t = 0` over a doubled horizon
    /// (1 when the first horizon held enough cycles).
    pub horizons: u32,
    /// Solver counters summed over every horizon (`factor_nonzeros` is
    /// the last horizon's).
    pub stats: TranStats,
}

/// A ring-oscillator description ready to be elaborated at any
/// temperature.
#[derive(Debug, Clone)]
pub struct TransistorRing {
    kinds: Vec<GateKind>,
    sizing: CellSizing,
    nmos: MosModel,
    pmos: MosModel,
    vdd: f64,
}

impl TransistorRing {
    /// Creates a ring of the given stage kinds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDevice`] when the stage count is even or
    /// below 3 (the chain would latch).
    pub fn new(
        kinds: Vec<GateKind>,
        sizing: CellSizing,
        nmos: MosModel,
        pmos: MosModel,
        vdd: f64,
    ) -> Result<Self> {
        if kinds.len() < 3 || kinds.len().is_multiple_of(2) {
            return Err(SimError::InvalidDevice {
                device: "ring".to_string(),
                reason: format!(
                    "{} stages cannot oscillate; need an odd count ≥ 3",
                    kinds.len()
                ),
            });
        }
        Ok(TransistorRing {
            kinds,
            sizing,
            nmos,
            pmos,
            vdd,
        })
    }

    /// A uniform `n`-stage ring (the Fig. 1/2 setup).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransistorRing::new`].
    pub fn uniform(
        kind: GateKind,
        n: usize,
        sizing: CellSizing,
        nmos: MosModel,
        pmos: MosModel,
        vdd: f64,
    ) -> Result<Self> {
        TransistorRing::new(vec![kind; n], sizing, nmos, pmos, vdd)
    }

    /// Stage count.
    #[inline]
    pub fn stage_count(&self) -> usize {
        self.kinds.len()
    }

    /// Supply voltage.
    #[inline]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Elaborates the ring into a circuit at junction temperature
    /// `temp_c`, with alternating initial conditions as the oscillation
    /// kick. Stage outputs are nodes `n0 … n<N-1>`.
    ///
    /// # Errors
    ///
    /// Propagates device-construction failures.
    pub fn elaborate(&self, temp_c: f64) -> Result<Circuit> {
        let mut ckt = Circuit::new();
        ckt.set_temperature(temp_c);
        let vdd = ckt.node("vdd");
        ckt.add_vsource(
            "VDD",
            vdd,
            Circuit::GROUND,
            spicelite::devices::Stimulus::Dc(self.vdd),
        )?;
        let n = self.kinds.len();
        for (i, &kind) in self.kinds.iter().enumerate() {
            let input = ckt.node(&format!("n{i}"));
            let output = ckt.node(&format!("n{}", (i + 1) % n));
            emit_cell(
                &mut ckt,
                kind,
                &format!("U{i}"),
                input,
                output,
                vdd,
                self.sizing,
                &self.nmos,
                &self.pmos,
            )?;
        }
        for i in 0..n {
            let node = ckt.find_node(&format!("n{i}"))?;
            ckt.set_initial_condition(node, if i % 2 == 0 { 0.0 } else { self.vdd });
        }
        Ok(ckt)
    }

    /// Runs a transient of `t_stop` seconds at `temp_c` and returns the
    /// recorded waveform (node `n0` is the conventional probe).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn simulate(&self, temp_c: f64, t_stop: f64, dt: f64) -> Result<Waveform> {
        let ckt = self.elaborate(temp_c)?;
        let opts = TranOptions::to_time(t_stop).with_uic().with_steps(dt, dt);
        run_transient(&ckt, &opts)
    }

    /// Measures the steady-state oscillation period at `temp_c`.
    ///
    /// The simulation horizon starts at an internally estimated guess and
    /// doubles (at most four horizons are run) until enough threshold crossings exist
    /// for a confident average: the first three rising crossings are
    /// discarded as start-up transient, so a horizon needs five.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Measurement`] if the ring never produces
    /// enough crossings (it is not oscillating), or propagates solver
    /// failures.
    pub fn measure_period(&self, temp_c: f64) -> Result<f64> {
        self.measure_period_with_stats(temp_c).map(|m| m.period)
    }

    /// [`TransistorRing::measure_period`], also reporting how many
    /// horizons it simulated and the solver work they took.
    ///
    /// # Errors
    ///
    /// As for [`TransistorRing::measure_period`].
    pub fn measure_period_with_stats(&self, temp_c: f64) -> Result<PeriodMeasurement> {
        // Rough period estimate from the Level-1 saturation current to
        // pick the horizon and step: t ≈ N · C_node·V / I_on per edge pair.
        let c_node = (self.nmos.cg_per_width * self.sizing.wn
            + self.pmos.cg_per_width * self.sizing.wp)
            * 2.5;
        let i_on = 0.5
            * self.nmos.kp
            * (self.sizing.wn / self.sizing.l)
            * (self.vdd - self.nmos.vto).powi(2);
        let est = (self.kinds.len() as f64) * 2.0 * c_node * self.vdd / i_on;
        // ~25 oscillation periods with ~100 points per period: the period
        // is averaged over many cycles, so crossing-interpolation noise
        // stays far below the non-linearity signal being measured.
        self.measure_period_from(temp_c, (est * 25.0).max(0.5e-9), est / 100.0)
    }

    /// The horizon-doubling loop of [`TransistorRing::measure_period`],
    /// starting at `t_stop` with steps no longer than `dt_cap`.
    fn measure_period_from(
        &self,
        temp_c: f64,
        mut t_stop: f64,
        dt_cap: f64,
    ) -> Result<PeriodMeasurement> {
        let threshold = 0.5 * self.vdd;
        let mut stats = TranStats::default();
        for attempt in 0..4 {
            if attempt > 0 {
                t_stop *= 2.0;
            }
            let dt = (t_stop / 4000.0).min(dt_cap);
            let wave = self.simulate(temp_c, t_stop, dt)?;
            let run = wave.stats();
            stats = TranStats {
                accepted_steps: stats.accepted_steps + run.accepted_steps,
                rejected_steps: stats.rejected_steps + run.rejected_steps,
                newton_iterations: stats.newton_iterations + run.newton_iterations,
                factorizations: stats.factorizations + run.factorizations,
                reanalyses: stats.reanalyses + run.reanalyses,
                factor_nonzeros: run.factor_nonzeros,
            };
            match wave.period("n0", threshold, STARTUP_CROSSINGS) {
                Ok(period) => {
                    return Ok(PeriodMeasurement {
                        period,
                        horizons: attempt + 1,
                        stats,
                    })
                }
                Err(SimError::Measurement { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Err(SimError::Measurement {
            message: format!(
                "ring did not produce enough oscillation cycles within {t_stop:.3e} s at {temp_c} °C"
            ),
        })
    }

    /// Measures the period at each listed temperature — the
    /// transistor-level equivalent of the analytical
    /// `RingOscillator::period_curve`.
    ///
    /// # Errors
    ///
    /// Propagates the first measurement failure.
    pub fn period_curve(&self, temps_c: &[f64]) -> Result<Vec<(f64, f64)>> {
        temps_c
            .iter()
            .map(|&t| self.measure_period(t).map(|p| (t, p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spicelite::devices::models_um350;

    fn ring(kind: GateKind, n: usize, ratio: f64) -> TransistorRing {
        let (nmos, pmos) = models_um350();
        TransistorRing::uniform(kind, n, CellSizing::um350(ratio), nmos, pmos, 3.3).unwrap()
    }

    #[test]
    fn even_ring_rejected() {
        let (nmos, pmos) = models_um350();
        assert!(
            TransistorRing::uniform(GateKind::Inv, 4, CellSizing::um350(2.0), nmos, pmos, 3.3)
                .is_err()
        );
    }

    #[test]
    fn five_stage_inverter_ring_oscillates_rail_to_rail() {
        let r = ring(GateKind::Inv, 5, 2.0);
        let wave = r.simulate(27.0, 1.5e-9, 1e-12).unwrap();
        let (lo, hi) = wave.extrema("n0").unwrap();
        assert!(lo < 0.4, "swings low: {lo}");
        assert!(hi > 2.9, "swings high: {hi}");
        let p = wave.period("n0", 1.65, 2).unwrap();
        assert!(p > 30e-12 && p < 1e-9, "period {p}");
    }

    #[test]
    fn period_measurement_is_stable() {
        let r = ring(GateKind::Inv, 5, 2.0);
        let p1 = r.measure_period(27.0).unwrap();
        let p2 = r.measure_period(27.0).unwrap();
        assert!((p1 - p2).abs() / p1 < 1e-9, "deterministic: {p1} vs {p2}");
    }

    #[test]
    fn period_increases_with_temperature() {
        let r = ring(GateKind::Inv, 5, 2.0);
        let curve = r.period_curve(&[-50.0, 27.0, 150.0]).unwrap();
        assert!(curve[0].1 < curve[1].1, "cold faster: {:?}", curve);
        assert!(curve[1].1 < curve[2].1, "hot slower: {:?}", curve);
    }

    #[test]
    fn nand_ring_slower_than_inverter_ring() {
        let inv = ring(GateKind::Inv, 3, 2.0).measure_period(27.0).unwrap();
        let nand = ring(GateKind::Nand2, 3, 2.0).measure_period(27.0).unwrap();
        assert!(
            nand > inv,
            "stacked pull-down + extra load: {nand} vs {inv}"
        );
    }

    #[test]
    fn failed_measurement_reports_the_last_simulated_horizon() {
        // 20 ps horizons never hold five rising crossings of a ring
        // whose period is ~100 ps, so all four attempts (20, 40, 80 and
        // 160 ps) fail; the message must name the longest one run.
        let r = ring(GateKind::Inv, 3, 2.0);
        match r.measure_period_from(27.0, 20e-12, 1e-12) {
            Err(SimError::Measurement { message }) => {
                assert!(message.contains("within 1.600e-10 s"), "{message}");
            }
            other => panic!("expected a measurement failure, got {other:?}"),
        }
    }

    #[test]
    fn solver_counts_are_deterministic() {
        // 5×INV at 27 °C, the Fig. 3 sizing: one horizon of 4000 accepted
        // steps (the last one ends exactly at the horizon) at ~2.25 Newton
        // iterations each, no pivot re-analysis after the first analysis,
        // 32 of the 7 × 7 factor entries stored.
        let r = ring(GateKind::Inv, 5, 1.5);
        let first = r.measure_period_with_stats(27.0).unwrap();
        assert_eq!(r.measure_period_with_stats(27.0).unwrap(), first);
        assert_eq!(first.period, r.measure_period(27.0).unwrap());
        assert_eq!(first.horizons, 1);
        assert_eq!(
            first.stats,
            TranStats {
                accepted_steps: 4000,
                rejected_steps: 0,
                newton_iterations: 9021,
                factorizations: 9021,
                reanalyses: 0,
                factor_nonzeros: 32,
            }
        );
        let s = first.stats;
        assert_eq!(s.factorizations, s.newton_iterations + s.reanalyses);
    }

    #[test]
    fn more_stages_longer_period() {
        let p3 = ring(GateKind::Inv, 3, 2.0).measure_period(27.0).unwrap();
        let p5 = ring(GateKind::Inv, 5, 2.0).measure_period(27.0).unwrap();
        let ratio = p5 / p3;
        assert!(ratio > 1.4 && ratio < 2.0, "≈5/3 expected, got {ratio}");
    }

    #[test]
    fn mixed_ring_elaborates_and_runs() {
        let (nmos, pmos) = models_um350();
        let r = TransistorRing::new(
            vec![
                GateKind::Inv,
                GateKind::Nand3,
                GateKind::Inv,
                GateKind::Nand3,
                GateKind::Inv,
            ],
            CellSizing::um350(2.0),
            nmos,
            pmos,
            3.3,
        )
        .unwrap();
        assert_eq!(r.stage_count(), 5);
        let p = r.measure_period(27.0).unwrap();
        assert!(p > 30e-12 && p < 2e-9, "period {p}");
    }
}
