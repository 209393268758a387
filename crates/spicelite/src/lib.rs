//! # spicelite — a small transistor-level circuit simulator
//!
//! A from-scratch analog simulator sized for the circuits of the DATE'05
//! smart-temperature-sensor reproduction: ring oscillators and standard
//! cells of a few dozen devices. It implements the classic SPICE
//! architecture:
//!
//! * **Modified nodal analysis** with a fill-reducing, pivot-reusing LU
//!   that the compiled circuit stamps slot by slot, each set of parallel
//!   duplicate transistors and capacitors simulated once ([`linalg`],
//!   [`mna`]);
//! * **Newton–Raphson** DC with gmin and source stepping ([`dc`]);
//! * **Transient** analysis with backward-Euler/trapezoidal companions
//!   and adaptive step control ([`transient`]);
//! * **Devices**: resistor, capacitor, independent voltage source
//!   (DC/pulse/PWL) and a Level-1 MOSFET with linear threshold tempco and
//!   power-law mobility roll-off ([`devices`]);
//! * **Netlists**: a SPICE-subset text format with `.subckt` expansion
//!   ([`netlist`]);
//! * **Measurements**: period/frequency by interpolated threshold
//!   crossings, rise/fall times, extrema ([`waveform`]).
//!
//! ## Modelling notes
//!
//! The MOSFET is 3-terminal: the bulk is implicitly tied to the source
//! rail and body effect is *not* modelled (`γ = 0`). Series stacks still
//! behave correctly to first order because source degeneration arises
//! from the real circuit topology. Device capacitances are linear
//! (voltage-independent), attached by
//! [`circuit::Circuit::add_mosfet_with_caps`].
//!
//! ## Example: a ring oscillator from scratch
//!
//! ```
//! use spicelite::circuit::Circuit;
//! use spicelite::devices::{models_um350, Stimulus};
//! use spicelite::transient::{run_transient, TranOptions};
//!
//! let (nmos, pmos) = models_um350();
//! let mut ckt = Circuit::new();
//! let vdd = ckt.node("vdd");
//! ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))?;
//! let n = 5;
//! for i in 0..n {
//!     let input = ckt.node(&format!("n{i}"));
//!     let output = ckt.node(&format!("n{}", (i + 1) % n));
//!     ckt.add_mosfet_with_caps(format!("MN{i}"), output, input, Circuit::GROUND,
//!                              nmos.clone(), 1.0e-6, 0.35e-6)?;
//!     ckt.add_mosfet_with_caps(format!("MP{i}"), output, input, vdd,
//!                              pmos.clone(), 2.0e-6, 0.35e-6)?;
//! }
//! // Kick the ring: seed alternating initial conditions.
//! for i in 0..n {
//!     let node = ckt.find_node(&format!("n{i}"))?;
//!     ckt.set_initial_condition(node, if i % 2 == 0 { 0.0 } else { 3.3 });
//! }
//! let wave = run_transient(&ckt, &TranOptions::to_time(1.5e-9).with_uic())?;
//! let period = wave.period("n0", 1.65, 2)?;
//! assert!(period > 10e-12 && period < 1.5e-9);
//! # Ok::<(), spicelite::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Validation deliberately writes `!(x > 0.0)` instead of `x <= 0.0`:
// the negated form also rejects NaN, which the comparison form lets
// through silently.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod circuit;
pub mod dc;
pub mod devices;
pub mod error;
pub mod linalg;
pub mod mna;
pub mod netlist;
pub mod transient;
pub mod waveform;

pub use circuit::{Circuit, NodeId};
pub use dc::{dc_sweep, solve_dc, DcSolution, SolverOptions};
pub use devices::{MosModel, MosPolarity, Stimulus};
pub use error::{Result, SimError};
pub use transient::{run_transient, Integrator, TranOptions, TranStats};
pub use waveform::Waveform;
