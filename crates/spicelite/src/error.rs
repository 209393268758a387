//! Error type of the circuit simulator.

use std::fmt;

/// Errors produced while building or simulating a circuit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A device referenced a node that does not exist in the circuit.
    UnknownNode {
        /// The offending node name.
        name: String,
    },
    /// A device parameter was out of its physical domain.
    InvalidDevice {
        /// Device instance name.
        device: String,
        /// Reason the device is rejected.
        reason: String,
    },
    /// The linear solver met a (numerically) singular matrix. Usually a
    /// floating node or an inconsistent source loop.
    SingularMatrix {
        /// Elimination step at which no usable pivot was found (in the
        /// solver's fill-reducing row order for circuit analyses).
        pivot_row: usize,
    },
    /// Newton–Raphson failed to converge within the iteration budget,
    /// even after gmin and source stepping.
    NoConvergence {
        /// What analysis was running.
        analysis: &'static str,
        /// Iterations spent in the final attempt.
        iterations: usize,
    },
    /// The transient integrator could not proceed (time step underflow).
    StepUnderflow {
        /// Simulation time at which the step collapsed, in seconds.
        at_time: f64,
    },
    /// The transient watchdog budget
    /// ([`TranOptions::max_steps`](crate::transient::TranOptions::max_steps))
    /// was exhausted before the run reached its stop time.
    ConvergenceTimeout {
        /// The step budget that was exhausted.
        steps: u64,
        /// Simulation time reached when the budget ran out, in seconds.
        at_time: f64,
    },
    /// A netlist could not be parsed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A requested measurement could not be extracted from a waveform.
    Measurement {
        /// Description of the problem (e.g. too few crossings).
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownNode { name } => write!(f, "unknown node `{name}`"),
            SimError::InvalidDevice { device, reason } => {
                write!(f, "invalid device `{device}`: {reason}")
            }
            SimError::SingularMatrix { pivot_row } => {
                write!(
                    f,
                    "singular matrix at pivot row {pivot_row} (floating node or source loop?)"
                )
            }
            SimError::NoConvergence {
                analysis,
                iterations,
            } => {
                write!(
                    f,
                    "{analysis} analysis failed to converge after {iterations} iterations"
                )
            }
            SimError::StepUnderflow { at_time } => {
                write!(f, "time step underflow at t = {at_time:.3e} s")
            }
            SimError::ConvergenceTimeout { steps, at_time } => {
                write!(
                    f,
                    "transient watchdog: step budget of {steps} exhausted at t = {at_time:.3e} s"
                )
            }
            SimError::Parse { line, message } => {
                write!(f, "netlist parse error at line {line}: {message}")
            }
            SimError::Measurement { message } => write!(f, "measurement failed: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        assert!(SimError::UnknownNode { name: "out".into() }
            .to_string()
            .contains("out"));
        assert!(SimError::SingularMatrix { pivot_row: 3 }
            .to_string()
            .contains("3"));
        assert!(SimError::NoConvergence {
            analysis: "DC",
            iterations: 100
        }
        .to_string()
        .contains("DC"));
        assert!(SimError::Parse {
            line: 7,
            message: "bad token".into()
        }
        .to_string()
        .contains("line 7"));
    }

    #[test]
    fn error_is_send_sync() {
        fn ok<E: std::error::Error + Send + Sync + 'static>() {}
        ok::<SimError>();
    }
}
