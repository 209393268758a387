//! Simulation waveforms and measurements.
//!
//! A [`Waveform`] records every unknown (node voltages, then source
//! branch currents) at every accepted time point. Measurement helpers
//! extract the quantities the paper reports: oscillation period and
//! frequency via interpolated threshold crossings, rise/fall times, and
//! peak-to-peak amplitude.

use std::fmt::Write as _;

use crate::circuit::Circuit;
use crate::error::{Result, SimError};
use crate::transient::TranStats;

/// A recorded multi-signal waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    times: Vec<f64>,
    names: Vec<String>,
    /// `data[k]` is the sample vector of signal `k`.
    data: Vec<Vec<f64>>,
    stats: TranStats,
}

impl Waveform {
    /// Creates an empty waveform sized for `circuit`'s unknowns: one
    /// signal per non-ground node (named after the node) and one per
    /// voltage source branch (named `i(<source>)`).
    pub fn for_circuit(circuit: &Circuit) -> Self {
        let mut names: Vec<String> = circuit
            .unknown_node_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        for dev in circuit.devices() {
            if let crate::devices::Device::Vsource { name, .. } = dev {
                names.push(format!("i({name})"));
            }
        }
        let data = names.iter().map(|_| Vec::new()).collect();
        Waveform {
            times: Vec::new(),
            names,
            data,
            stats: TranStats::default(),
        }
    }

    /// The solver work counters of the transient that recorded this
    /// waveform (all zero for one built by hand).
    #[inline]
    pub fn stats(&self) -> TranStats {
        self.stats
    }

    pub(crate) fn set_stats(&mut self, stats: TranStats) {
        self.stats = stats;
    }

    /// Appends one time point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the signal count.
    pub fn push(&mut self, t: f64, x: &[f64]) {
        assert_eq!(x.len(), self.data.len(), "sample width mismatch");
        self.times.push(t);
        for (col, &v) in self.data.iter_mut().zip(x) {
            col.push(v);
        }
    }

    /// The time axis.
    #[inline]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Signal names in storage order.
    #[inline]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of recorded time points.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when nothing has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Samples of a signal by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] when the signal does not exist.
    pub fn signal(&self, name: &str) -> Result<&[f64]> {
        let idx =
            self.names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| SimError::UnknownNode {
                    name: name.to_string(),
                })?;
        Ok(&self.data[idx])
    }

    /// Linear interpolation of a signal at time `t` (clamped to the
    /// recorded span).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for an unknown signal or
    /// [`SimError::Measurement`] on an empty waveform.
    pub fn sample_at(&self, name: &str, t: f64) -> Result<f64> {
        let ys = self.signal(name)?;
        if ys.is_empty() {
            return Err(SimError::Measurement {
                message: "waveform is empty".to_string(),
            });
        }
        if t <= self.times[0] {
            return Ok(ys[0]);
        }
        if t >= *self.times.last().expect("non-empty") {
            return Ok(*ys.last().expect("non-empty"));
        }
        let idx = self.times.partition_point(|&x| x < t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (y0, y1) = (ys[idx - 1], ys[idx]);
        if t1 == t0 {
            return Ok(y1);
        }
        Ok(y0 + (y1 - y0) * (t - t0) / (t1 - t0))
    }

    /// Interpolated times at which `name` crosses `threshold` in the
    /// requested direction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for an unknown signal.
    pub fn crossings(&self, name: &str, threshold: f64, rising: bool) -> Result<Vec<f64>> {
        let ys = self.signal(name)?;
        let mut out = Vec::new();
        for i in 1..ys.len() {
            let (y0, y1) = (ys[i - 1], ys[i]);
            let crosses = if rising {
                y0 < threshold && y1 >= threshold
            } else {
                y0 > threshold && y1 <= threshold
            };
            if crosses && y1 != y0 {
                let frac = (threshold - y0) / (y1 - y0);
                out.push(self.times[i - 1] + frac * (self.times[i] - self.times[i - 1]));
            }
        }
        Ok(out)
    }

    /// Average oscillation period of `name`, from rising crossings of
    /// `threshold`. The first `skip` crossings are discarded (start-up
    /// transient), and at least two crossings must remain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Measurement`] when too few crossings exist.
    pub fn period(&self, name: &str, threshold: f64, skip: usize) -> Result<f64> {
        let cr = self.crossings(name, threshold, true)?;
        if cr.len() < skip + 2 {
            return Err(SimError::Measurement {
                message: format!(
                    "need at least {} rising crossings of {threshold} on `{name}`, found {}",
                    skip + 2,
                    cr.len()
                ),
            });
        }
        let used = &cr[skip..];
        Ok((used[used.len() - 1] - used[0]) / (used.len() - 1) as f64)
    }

    /// Average oscillation frequency (reciprocal of [`Waveform::period`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Waveform::period`].
    pub fn frequency(&self, name: &str, threshold: f64, skip: usize) -> Result<f64> {
        Ok(1.0 / self.period(name, threshold, skip)?)
    }

    /// Time-weighted average of a signal over `[t_start, t_end]`
    /// (trapezoidal integration over the recorded points).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for an unknown signal or
    /// [`SimError::Measurement`] when the window is empty or outside the
    /// recording.
    pub fn average(&self, name: &str, t_start: f64, t_end: f64) -> Result<f64> {
        let ys = self.signal(name)?;
        if t_end <= t_start {
            return Err(SimError::Measurement {
                message: format!("empty averaging window [{t_start:.3e}, {t_end:.3e}]"),
            });
        }
        if self.times.len() < 2
            || t_start < self.times[0]
            || t_end > *self.times.last().expect("non-empty")
        {
            return Err(SimError::Measurement {
                message: "averaging window extends outside the recording".to_string(),
            });
        }
        let mut integral = 0.0;
        let mut t_prev = t_start;
        let mut y_prev = self.sample_at(name, t_start)?;
        for (i, &t) in self.times.iter().enumerate() {
            if t <= t_start {
                continue;
            }
            if t >= t_end {
                break;
            }
            integral += 0.5 * (y_prev + ys[i]) * (t - t_prev);
            t_prev = t;
            y_prev = ys[i];
        }
        let y_end = self.sample_at(name, t_end)?;
        integral += 0.5 * (y_prev + y_end) * (t_end - t_prev);
        Ok(integral / (t_end - t_start))
    }

    /// Minimum and maximum of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for an unknown signal or
    /// [`SimError::Measurement`] on an empty waveform.
    pub fn extrema(&self, name: &str) -> Result<(f64, f64)> {
        let ys = self.signal(name)?;
        if ys.is_empty() {
            return Err(SimError::Measurement {
                message: "waveform is empty".to_string(),
            });
        }
        let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Ok((min, max))
    }

    /// 10 %–90 % rise time of the first rising edge after `after`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Measurement`] when no complete edge exists.
    pub fn rise_time(&self, name: &str, after: f64) -> Result<f64> {
        let (lo, hi) = self.extrema(name)?;
        let t10 = lo + 0.1 * (hi - lo);
        let t90 = lo + 0.9 * (hi - lo);
        let c10: Vec<f64> = self
            .crossings(name, t10, true)?
            .into_iter()
            .filter(|&t| t >= after)
            .collect();
        let c90: Vec<f64> = self
            .crossings(name, t90, true)?
            .into_iter()
            .filter(|&t| t >= after)
            .collect();
        for &a in &c10 {
            if let Some(&b) = c90.iter().find(|&&b| b > a) {
                return Ok(b - a);
            }
        }
        Err(SimError::Measurement {
            message: format!("no complete rising edge on `{name}` after {after:.3e} s"),
        })
    }

    /// Serializes the waveform as CSV (`time` column then one column per
    /// signal), suitable for external plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("time");
        for n in &self.names {
            let _ = write!(out, ",{n}");
        }
        out.push('\n');
        for (i, &t) in self.times.iter().enumerate() {
            let _ = write!(out, "{t:.6e}");
            for col in &self.data {
                let _ = write!(out, ",{:.6e}", col[i]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::Stimulus;

    fn sine_waveform() -> Waveform {
        // A pure 100 MHz sine on node "out".
        let mut ckt = Circuit::new();
        let _ = ckt.node("out");
        let mut w = Waveform::for_circuit(&ckt);
        let f = 100e6;
        for i in 0..=1000 {
            let t = i as f64 * 1e-10; // 100 ns total, 10 points per period
            w.push(t, &[(2.0 * std::f64::consts::PI * f * t).sin()]);
        }
        w
    }

    #[test]
    fn period_of_sine_recovered() {
        let w = sine_waveform();
        let p = w.period("out", 0.0, 2).unwrap();
        assert!((p - 10e-9).abs() < 1e-11, "period {p}");
        let f = w.frequency("out", 0.0, 2).unwrap();
        assert!((f - 100e6).abs() < 1e5);
    }

    #[test]
    fn crossings_alternate_by_direction() {
        let w = sine_waveform();
        let up = w.crossings("out", 0.0, true).unwrap();
        let down = w.crossings("out", 0.0, false).unwrap();
        assert!(!up.is_empty() && !down.is_empty());
        // Rising and falling crossings interleave half a period apart.
        assert!((down[0] - up[0]).abs() - 5e-9 < 1e-10);
    }

    #[test]
    fn extrema_and_sampling() {
        let w = sine_waveform();
        let (lo, hi) = w.extrema("out").unwrap();
        assert!(lo < -0.99 && hi > 0.99);
        let v = w.sample_at("out", 2.5e-9).unwrap();
        assert!((v - 1.0).abs() < 2e-2, "quarter period ≈ peak: {v}");
        // Clamped outside the span.
        assert_eq!(
            w.sample_at("out", -1.0).unwrap(),
            w.signal("out").unwrap()[0]
        );
    }

    #[test]
    fn unknown_signal_reported() {
        let w = sine_waveform();
        assert!(matches!(
            w.signal("nope"),
            Err(SimError::UnknownNode { .. })
        ));
    }

    #[test]
    fn too_few_crossings_is_a_measurement_error() {
        let mut ckt = Circuit::new();
        let _ = ckt.node("out");
        let mut w = Waveform::for_circuit(&ckt);
        w.push(0.0, &[0.0]);
        w.push(1.0, &[1.0]);
        assert!(matches!(
            w.period("out", 0.5, 0),
            Err(SimError::Measurement { .. })
        ));
    }

    #[test]
    fn average_of_square_wave_is_its_duty_value() {
        let mut ckt = Circuit::new();
        let _ = ckt.node("out");
        let mut w = Waveform::for_circuit(&ckt);
        // 25 % duty square wave between 0 and 4 → average 1.
        for i in 0..=400 {
            let t = i as f64 * 1e-9;
            let phase = (i % 4) as f64;
            w.push(t, &[if phase < 1.0 { 4.0 } else { 0.0 }]);
        }
        let avg = w.average("out", 0.0, 400e-9).unwrap();
        assert!((avg - 1.0).abs() < 0.1, "avg {avg}");
        // Constant sub-window.
        let flat = w.average("out", 101e-9, 103e-9).unwrap();
        assert!(flat < 0.6, "inside the low phase: {flat}");
        assert!(w.average("out", 10e-9, 5e-9).is_err());
        assert!(w.average("out", -1.0, 5e-9).is_err());
    }

    #[test]
    fn rise_time_of_ramp() {
        let mut ckt = Circuit::new();
        let _ = ckt.node("out");
        let mut w = Waveform::for_circuit(&ckt);
        // 0→1 linear ramp over 100 ns: 10–90 % takes 80 ns.
        for i in 0..=100 {
            let t = i as f64 * 1e-9;
            w.push(t, &[(t / 100e-9).min(1.0)]);
        }
        let tr = w.rise_time("out", 0.0).unwrap();
        assert!((tr - 80e-9).abs() < 1e-9, "rise {tr}");
    }

    #[test]
    fn branch_current_signal_named_after_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("VDD", a, Circuit::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        let w = Waveform::for_circuit(&ckt);
        assert_eq!(w.names(), &["a".to_string(), "i(VDD)".to_string()]);
        assert!(w.is_empty());
    }

    #[test]
    fn csv_round_trippable_shape() {
        let w = sine_waveform();
        let csv = w.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,out");
        assert_eq!(lines.len(), w.len() + 1);
        assert!(lines[1].contains(','));
    }
}
