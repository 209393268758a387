//! DC operating-point analysis: Newton–Raphson with gmin and source
//! stepping.
//!
//! The solver relinearizes the circuit around the current guess
//! ([`crate::mna`]), solves the linear system, damps the update and
//! iterates to convergence. When plain Newton fails (strongly
//! nonlinear bias points), two homotopies are tried in order: *gmin
//! stepping* (start with large leak conductances and relax them) and
//! *source stepping* (ramp the supplies from zero).

use crate::circuit::{Circuit, NodeId};
use crate::error::{Result, SimError};
use crate::linalg::{vec_norm_inf, LuCounts, PivotedLu};
use crate::mna::{node_voltage, CapCompanion, CapStamp, StampProgram};

/// Tolerances and iteration limits of the Newton solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Maximum Newton iterations per attempt.
    pub max_iterations: usize,
    /// Absolute voltage tolerance, volts.
    pub vtol: f64,
    /// Relative tolerance against the solution magnitude.
    pub reltol: f64,
    /// Maximum per-unknown update per iteration (damping), volts.
    pub max_step: f64,
    /// Baseline leak conductance, siemens.
    pub gmin: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 200,
            vtol: 1e-6,
            reltol: 1e-4,
            max_step: 0.5,
            gmin: 1e-12,
        }
    }
}

/// A solved operating point (node voltages + source branch currents).
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    x: Vec<f64>,
    n_nodes: usize,
}

impl DcSolution {
    pub(crate) fn new(x: Vec<f64>, n_nodes: usize) -> Self {
        DcSolution { x, n_nodes }
    }

    /// The raw unknown vector (node voltages then branch currents).
    #[inline]
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }

    /// Voltage of a node by id.
    #[inline]
    pub fn node_voltage(&self, node: NodeId) -> f64 {
        node_voltage(&self.x, node)
    }

    /// Voltage of a node by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownNode`] for an unknown name.
    pub fn voltage(&self, circuit: &Circuit, name: &str) -> Result<f64> {
        Ok(self.node_voltage(circuit.find_node(name)?))
    }

    /// Branch current of the `k`-th voltage source (device order).
    /// Positive current flows *into* the source's positive terminal
    /// (SPICE convention: a sourcing supply reads negative).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn source_current(&self, k: usize) -> f64 {
        self.x[self.n_nodes + k]
    }
}

/// The Newton–Raphson solver of one analysis: the compiled circuit plus
/// the slot arrays, factorization and iterate storage that every solve
/// reuses (shared by DC and each transient step).
///
/// Internally everything is in the program's fill-reducing row order;
/// [`Newton::solve`] takes and returns natural-order vectors.
pub(crate) struct Newton<'c> {
    program: StampProgram<'c>,
    /// The conductances that do not depend on the iterate, as last
    /// stamped, in slot form (see [`StampProgram`]).
    base_a: Vec<f64>,
    /// The sources of the current solve.
    base_z: Vec<f64>,
    /// The gmin and, in a transient, the capacitor companion conductances
    /// that `base_a` was stamped with (gmin NaN before the first solve).
    base_gmin: f64,
    base_geq: Option<Vec<f64>>,
    /// `base_a`/`base_z` plus the MOSFET stamps of the current iteration.
    a: Vec<f64>,
    z: Vec<f64>,
    lu: PivotedLu,
    /// The iterate, in program row order, then the ground potential 0.
    x: Vec<f64>,
    /// The converged iterate, in natural order.
    out: Vec<f64>,
    iterations: u64,
}

impl<'c> Newton<'c> {
    pub(crate) fn new(circuit: &'c Circuit) -> Self {
        let program = StampProgram::compile(circuit);
        let lu = PivotedLu::new(program.pattern().clone());
        let slots = vec![0.0; program.pattern().len() + 1];
        let rows = vec![0.0; program.pattern().n() + 1];
        Newton {
            base_a: slots.clone(),
            base_z: rows.clone(),
            base_gmin: f64::NAN,
            base_geq: None,
            a: slots,
            z: rows.clone(),
            program,
            lu,
            x: rows,
            out: vec![0.0; circuit.unknown_count()],
            iterations: 0,
        }
    }

    /// Newton iterations run so far, and the factorization counters.
    pub(crate) fn counts(&self) -> (u64, LuCounts) {
        (self.iterations, self.lu.counts())
    }

    /// One full Newton solve from the guess `x0`.
    ///
    /// `time`/`cap_companions` select the analysis context, with one
    /// companion per entry of [`Newton::capacitors`]; see
    /// [`crate::mna::assemble`].
    ///
    /// # Panics
    ///
    /// Panics if `x0` is not one value per unknown of the circuit.
    pub(crate) fn solve(
        &mut self,
        x0: &[f64],
        time: Option<f64>,
        cap_companions: Option<&[CapCompanion]>,
        gmin: f64,
        source_scale: f64,
        opts: &SolverOptions,
    ) -> Result<&[f64]> {
        let analysis = if time.is_some() {
            "transient step"
        } else {
            "DC"
        };
        assert_eq!(x0.len(), self.out.len(), "guess does not match the circuit");
        if self.out.is_empty() {
            return Ok(&self.out);
        }
        self.load(x0);
        let rows = self.program.rows();
        // A fixed-step transient keeps its conductances from step to step.
        let companions =
            time.map(|_| cap_companions.expect("transient assembly requires capacitor companions"));
        if !self.base_conductances_match(gmin, companions) {
            self.program
                .stamp_conductances(&mut self.base_a, time.is_some(), companions, gmin);
            self.base_gmin = gmin;
            self.base_geq = companions.map(|c| c.iter().map(|c| c.geq).collect());
        }
        self.program
            .stamp_sources(&mut self.base_z, time, cap_companions, source_scale);
        for iter in 0..opts.max_iterations {
            self.iterations += 1;
            self.a.copy_from_slice(&self.base_a);
            self.z.copy_from_slice(&self.base_z);
            self.program
                .stamp_nonlinear(&mut self.a, &mut self.z, &self.x);
            // The right-hand side becomes the new iterate; the discard
            // slot and row of ground stay out of the solve.
            let n = self.out.len();
            self.lu
                .solve(&self.a[..self.a.len() - 1], &mut self.z[..n])?;
            // Damped update.
            let mut max_delta = 0.0_f64;
            for (xi, xn) in self.x[..n].iter_mut().zip(&self.z[..n]) {
                let mut delta = xn - *xi;
                if delta > opts.max_step {
                    delta = opts.max_step;
                } else if delta < -opts.max_step {
                    delta = -opts.max_step;
                }
                // Clamping maps ±∞ to ±max_step, but a NaN passes through
                // and `f64::max` would silently drop it.
                if !delta.is_finite() {
                    return Err(SimError::NoConvergence {
                        analysis,
                        iterations: iter + 1,
                    });
                }
                max_delta = max_delta.max(delta.abs());
                *xi += delta;
            }
            if max_delta < opts.vtol + opts.reltol * vec_norm_inf(&self.x) {
                for (o, &r) in self.out.iter_mut().zip(rows) {
                    *o = self.x[r];
                }
                return Ok(&self.out);
            }
        }
        Err(SimError::NoConvergence {
            analysis,
            iterations: opts.max_iterations,
        })
    }

    /// Makes the natural-order `x0` the iterate.
    pub(crate) fn load(&mut self, x0: &[f64]) {
        for (&v, &r) in x0.iter().zip(self.program.rows()) {
            self.x[r] = v;
        }
    }

    /// The iterate in program row order, then the ground potential 0:
    /// after a successful [`Newton::solve`], its solution.
    pub(crate) fn iterate(&self) -> &[f64] {
        &self.x
    }

    /// The compiled capacitors, whose terminal rows index
    /// [`Newton::iterate`] and whose companions a transient step passes in
    /// this order.
    pub(crate) fn capacitors(&self) -> &[CapStamp] {
        self.program.capacitors()
    }

    /// `true` when `base_a` already holds the conductances for `gmin`
    /// and these transient `companions` (`None` in DC).
    fn base_conductances_match(&self, gmin: f64, companions: Option<&[CapCompanion]>) -> bool {
        self.base_gmin == gmin
            && match (companions, &self.base_geq) {
                (None, None) => true,
                (Some(c), Some(geq)) => {
                    c.len() == geq.len() && c.iter().zip(geq).all(|(c, &g)| c.geq == g)
                }
                _ => false,
            }
    }

    /// The DC operating point from the guess `x0`: plain Newton, then
    /// gmin stepping, then source stepping.
    pub(crate) fn operating_point(
        &mut self,
        x0: Vec<f64>,
        opts: &SolverOptions,
    ) -> Result<Vec<f64>> {
        // Plain Newton.
        if let Ok(x) = self.solve(&x0, None, None, opts.gmin, 1.0, opts) {
            return Ok(x.to_vec());
        }

        // Gmin stepping: solve with a large leak, relax geometrically.
        let mut x = x0.clone();
        let mut gmin = 1e-2;
        let mut ok = true;
        while gmin >= opts.gmin {
            match self.solve(&x, None, None, gmin, 1.0, opts) {
                Ok(sol) => x.copy_from_slice(sol),
                Err(_) => {
                    ok = false;
                    break;
                }
            }
            gmin /= 100.0;
        }
        if ok {
            if let Ok(sol) = self.solve(&x, None, None, opts.gmin, 1.0, opts) {
                return Ok(sol.to_vec());
            }
        }

        // Source stepping: ramp the supplies from 10 % to 100 %.
        let mut x = x0;
        for step in 1..=10 {
            let scale = step as f64 / 10.0;
            let sol = self
                .solve(&x, None, None, opts.gmin, scale, opts)
                .map_err(|_| SimError::NoConvergence {
                    analysis: "DC",
                    iterations: opts.max_iterations,
                })?;
            x.copy_from_slice(sol);
        }
        Ok(x)
    }
}

/// The unknown vector seeded from the circuit's declared initial
/// conditions (zero elsewhere).
pub(crate) fn initial_guess(circuit: &Circuit) -> Vec<f64> {
    let mut x0 = vec![0.0; circuit.unknown_count()];
    for &(node, v) in circuit.initial_conditions() {
        if !node.is_ground() {
            x0[node.index() - 1] = v;
        }
    }
    x0
}

/// Solves the DC operating point of `circuit`.
///
/// Initial conditions declared on the circuit seed the Newton guess (they
/// are not enforced as constraints in DC; use them to pick a stable
/// equilibrium of multistable circuits).
///
/// # Errors
///
/// Returns [`SimError::NoConvergence`] when Newton, gmin stepping and
/// source stepping all fail, or [`SimError::SingularMatrix`] for a
/// structurally defective circuit.
pub fn solve_dc(circuit: &Circuit, opts: &SolverOptions) -> Result<DcSolution> {
    let x = Newton::new(circuit).operating_point(initial_guess(circuit), opts)?;
    Ok(DcSolution::new(x, circuit.unknown_node_count()))
}

/// Sweeps the DC value of the named voltage source over `values`,
/// solving the operating point at each step (warm-started from the
/// previous solution, as SPICE's `.dc` does).
///
/// Returns `(value, solution)` pairs in sweep order.
///
/// # Errors
///
/// Returns [`SimError::InvalidDevice`] when the source does not exist,
/// or propagates solver failures at any sweep point.
pub fn dc_sweep(
    circuit: &Circuit,
    source: &str,
    values: &[f64],
    opts: &SolverOptions,
) -> Result<Vec<(f64, DcSolution)>> {
    let mut work = circuit.clone();
    let n_nodes = work.unknown_node_count();
    let mut out = Vec::with_capacity(values.len());
    let mut seed: Option<Vec<f64>> = None;
    for &v in values {
        work.set_vsource_value(source, v)?;
        let mut newton = Newton::new(&work);
        // Warm-started Newton; fall back to the full homotopy ladder.
        let warm = seed
            .as_deref()
            .and_then(|x0| newton.solve(x0, None, None, opts.gmin, 1.0, opts).ok())
            .map(<[f64]>::to_vec);
        let x = match warm {
            Some(x) => x,
            None => newton.operating_point(initial_guess(&work), opts)?,
        };
        seed = Some(x.clone());
        out.push((v, DcSolution::new(x, n_nodes)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::{models_um350, Stimulus};

    #[test]
    fn resistor_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(3.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 2e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
        assert!((op.voltage(&ckt, "b").unwrap() - 1.0).abs() < 1e-5);
        assert!((op.source_current(0) + 1e-3).abs() < 1e-7);
    }

    #[test]
    fn nmos_diode_connected_bias() {
        // Diode-connected NMOS pulled up through a resistor: the gate
        // voltage settles a bit above Vth.
        let (nmos, _) = models_um350();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        ckt.add_resistor("R1", vdd, d, 100e3).unwrap();
        ckt.add_mosfet("M1", d, d, Circuit::GROUND, nmos.clone(), 2e-6, 0.35e-6)
            .unwrap();
        let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
        let vd = op.voltage(&ckt, "d").unwrap();
        assert!(vd > nmos.vto && vd < 1.5, "v(d) = {vd}");
        // KCL check: resistor current equals device current.
        let ir = (3.3 - vd) / 100e3;
        assert!(ir > 1e-6, "device is conducting");
    }

    #[test]
    fn cmos_inverter_transfer_extremes() {
        let (nmos, pmos) = models_um350();
        let build = |vin: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let inn = ckt.node("in");
            let out = ckt.node("out");
            ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
                .unwrap();
            ckt.add_vsource("VIN", inn, Circuit::GROUND, Stimulus::Dc(vin))
                .unwrap();
            ckt.add_mosfet("MN", out, inn, Circuit::GROUND, nmos.clone(), 1e-6, 0.35e-6)
                .unwrap();
            ckt.add_mosfet("MP", out, inn, vdd, pmos.clone(), 2e-6, 0.35e-6)
                .unwrap();
            ckt
        };
        let lo = build(0.0);
        let op = solve_dc(&lo, &SolverOptions::default()).unwrap();
        assert!(
            (op.voltage(&lo, "out").unwrap() - 3.3).abs() < 0.01,
            "input low → output high"
        );
        let hi = build(3.3);
        let op = solve_dc(&hi, &SolverOptions::default()).unwrap();
        assert!(
            op.voltage(&hi, "out").unwrap() < 0.01,
            "input high → output low"
        );
    }

    #[test]
    fn cmos_inverter_switching_threshold_moves_with_ratio() {
        // A stronger PMOS pushes the switching threshold upward.
        let (nmos, pmos) = models_um350();
        let vm = |wp: f64| {
            // Bisection on the input for v(out) = vdd/2.
            let eval = |vin: f64| {
                let mut ckt = Circuit::new();
                let vdd = ckt.node("vdd");
                let inn = ckt.node("in");
                let out = ckt.node("out");
                ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
                    .unwrap();
                ckt.add_vsource("VIN", inn, Circuit::GROUND, Stimulus::Dc(vin))
                    .unwrap();
                ckt.add_mosfet("MN", out, inn, Circuit::GROUND, nmos.clone(), 1e-6, 0.35e-6)
                    .unwrap();
                ckt.add_mosfet("MP", out, inn, vdd, pmos.clone(), wp, 0.35e-6)
                    .unwrap();
                let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
                op.voltage(&ckt, "out").unwrap()
            };
            let (mut lo, mut hi) = (0.5, 2.8);
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if eval(mid) > 1.65 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let vm_weak = vm(1e-6);
        let vm_strong = vm(4e-6);
        assert!(
            vm_strong > vm_weak + 0.1,
            "weak {vm_weak} strong {vm_strong}"
        );
        // Both thresholds are inside the rails, away from them.
        assert!(vm_weak > 0.8 && vm_strong < 2.5);
    }

    #[test]
    fn initial_conditions_select_latch_state() {
        // Two cross-coupled inverters (a latch). Seeding picks the state.
        let (nmos, pmos) = models_um350();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let q = ckt.node("q");
        let qb = ckt.node("qb");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        for (name, inn, out) in [("i1", q, qb), ("i2", qb, q)] {
            ckt.add_mosfet(
                format!("MN{name}"),
                out,
                inn,
                Circuit::GROUND,
                nmos.clone(),
                1e-6,
                0.35e-6,
            )
            .unwrap();
            ckt.add_mosfet(
                format!("MP{name}"),
                out,
                inn,
                vdd,
                pmos.clone(),
                2e-6,
                0.35e-6,
            )
            .unwrap();
        }
        ckt.set_initial_condition(q, 3.3);
        ckt.set_initial_condition(qb, 0.0);
        let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
        let (vq, vqb) = (
            op.voltage(&ckt, "q").unwrap(),
            op.voltage(&ckt, "qb").unwrap(),
        );
        assert!(vq > 3.0 && vqb < 0.3, "latched high/low: q={vq} qb={vqb}");
    }

    #[test]
    fn floating_node_is_singular_without_gmin() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        // b floats entirely — only the solver's gmin ties it down.
        let _ = b;
        // With gmin the solve still succeeds (gmin ties b to ground).
        let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
        assert!((op.voltage(&ckt, "a").unwrap() - 1.0).abs() < 1e-6);
        assert!(op.voltage(&ckt, "b").unwrap().abs() < 1e-6);
    }

    #[test]
    fn dc_sweep_traces_the_inverter_vtc() {
        let (nmos, pmos) = models_um350();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inn = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        ckt.add_vsource("VIN", inn, Circuit::GROUND, Stimulus::Dc(0.0))
            .unwrap();
        ckt.add_mosfet("MN", out, inn, Circuit::GROUND, nmos, 1e-6, 0.35e-6)
            .unwrap();
        ckt.add_mosfet("MP", out, inn, vdd, pmos, 2e-6, 0.35e-6)
            .unwrap();
        let values: Vec<f64> = (0..=33).map(|i| 3.3 * i as f64 / 33.0).collect();
        let sweep = dc_sweep(&ckt, "VIN", &values, &SolverOptions::default()).unwrap();
        assert_eq!(sweep.len(), 34);
        // Monotone falling VTC from rail to rail.
        let outs: Vec<f64> = sweep
            .iter()
            .map(|(_, s)| s.voltage(&ckt, "out").unwrap())
            .collect();
        assert!(outs[0] > 3.29);
        assert!(outs[33] < 0.01);
        for w in outs.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "monotone VTC");
        }
        // The original circuit is untouched by the sweep.
        let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
        assert!((op.voltage(&ckt, "out").unwrap() - 3.3).abs() < 0.01);
    }

    #[test]
    fn dc_sweep_unknown_source_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(
            dc_sweep(&ckt, "nope", &[1.0], &SolverOptions::default()),
            Err(SimError::InvalidDevice { .. })
        ));
    }

    #[test]
    fn isource_into_resistor_sets_ohms_law_voltage() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_isource("I1", Circuit::GROUND, a, 1e-3).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 2.2e3).unwrap();
        let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
        assert!((op.voltage(&ckt, "a").unwrap() - 2.2).abs() < 1e-6);
    }

    #[test]
    fn nan_update_is_not_converged() {
        // A NaN source value reaches the right-hand side but not the
        // matrix: the LU succeeds and returns an all-NaN update, which
        // must not pass the convergence test.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(f64::NAN))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let opts = SolverOptions::default();
        let x0 = vec![0.0; ckt.unknown_count()];
        assert!(matches!(
            Newton::new(&ckt).solve(&x0, None, None, opts.gmin, 1.0, &opts),
            Err(SimError::NoConvergence {
                analysis: "DC",
                iterations: 1
            })
        ));
        match solve_dc(&ckt, &opts) {
            Err(SimError::NoConvergence { .. }) => {}
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let ckt = Circuit::new();
        let op = solve_dc(&ckt, &SolverOptions::default()).unwrap();
        assert!(op.unknowns().is_empty());
    }

    /// A five-inverter ring with device capacitances, kicked by
    /// alternating initial conditions.
    fn inverter_ring() -> Circuit {
        let (nmos, pmos) = models_um350();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        for i in 0..5 {
            let input = ckt.node(&format!("n{i}"));
            let output = ckt.node(&format!("n{}", (i + 1) % 5));
            ckt.add_mosfet_with_caps(
                format!("MN{i}"),
                output,
                input,
                Circuit::GROUND,
                nmos.clone(),
                1e-6,
                0.35e-6,
            )
            .unwrap();
            ckt.add_mosfet_with_caps(
                format!("MP{i}"),
                output,
                input,
                vdd,
                pmos.clone(),
                1.5e-6,
                0.35e-6,
            )
            .unwrap();
        }
        for i in 0..5 {
            let node = ckt.find_node(&format!("n{i}")).unwrap();
            ckt.set_initial_condition(node, if i % 2 == 0 { 0.0 } else { 3.3 });
        }
        ckt
    }

    /// Newton's iteration on the natural, device-by-device system of
    /// [`crate::mna::assemble`], every linear solve a fresh dense LU: the
    /// solution and the iterations it took.
    fn dense_newton(
        ckt: &Circuit,
        x0: &[f64],
        time: f64,
        comps: &[CapCompanion],
        opts: &SolverOptions,
    ) -> (Vec<f64>, u64) {
        let mut x = x0.to_vec();
        for iter in 1..=opts.max_iterations {
            let mut sys = crate::mna::assemble(ckt, &x, Some(time), Some(comps), opts.gmin, 1.0);
            let mut z = sys.z.clone();
            sys.a.solve_in_place(&mut z).unwrap();
            let mut max_delta = 0.0_f64;
            for (xi, zi) in x.iter_mut().zip(&z) {
                let delta = (zi - *xi).clamp(-opts.max_step, opts.max_step);
                max_delta = max_delta.max(delta.abs());
                *xi += delta;
            }
            if max_delta < opts.vtol + opts.reltol * vec_norm_inf(&x) {
                return (x, iter as u64);
            }
        }
        panic!("dense Newton did not converge");
    }

    #[test]
    fn reanalysis_mid_transient_matches_a_fresh_dense_solve() {
        // Backward-Euler steps of 1 ps on the slot path, then one step of
        // 1e-21 s: its companion conductances are 1e9 times larger, the
        // reused pivots fail the threshold and the LU re-analyses. The
        // step must still match Newton on the device-by-device system
        // with a fresh dense LU per iteration.
        let ckt = inverter_ring();
        let opts = SolverOptions::default();
        let mut newton = Newton::new(&ckt);
        let mut x = initial_guess(&ckt);
        let mut t = 0.0;
        for (k, h) in [1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1e-21]
            .into_iter()
            .enumerate()
        {
            newton.load(&x);
            let it = newton.iterate();
            let comps: Vec<CapCompanion> = newton
                .capacitors()
                .iter()
                .map(|c| {
                    let geq = c.farads / h;
                    let v = it[c.a as usize] - it[c.b as usize];
                    CapCompanion { geq, jeq: -geq * v }
                })
                .collect();
            let iterations = newton.counts().0;
            let x_new = newton
                .solve(&x, Some(t + h), Some(&comps), opts.gmin, 1.0, &opts)
                .unwrap()
                .to_vec();
            let reanalyses = newton.counts().1.reanalyses;
            if k < 5 {
                assert_eq!(reanalyses, 0, "step {k} kept its pivots");
            } else {
                assert_eq!(reanalyses, 1, "the short step re-analyses");
                let device_comps: Vec<CapCompanion> = ckt
                    .devices()
                    .iter()
                    .filter_map(|d| match d {
                        crate::devices::Device::Capacitor { a, b, farads, .. } => {
                            let geq = farads / h;
                            let v = node_voltage(&x, *a) - node_voltage(&x, *b);
                            Some(CapCompanion { geq, jeq: -geq * v })
                        }
                        _ => None,
                    })
                    .collect();
                let (want, dense_iterations) = dense_newton(&ckt, &x, t + h, &device_comps, &opts);
                assert_eq!(
                    newton.counts().0 - iterations,
                    dense_iterations,
                    "Newton iterations"
                );
                // The node voltages, that is: the supply current of this step
                // is the difference of companion currents about 1e10 times
                // larger than it, so rounding leaves it only about 1e-5
                // relative accuracy on either path.
                let n_nodes = ckt.unknown_node_count();
                for (i, (g, w)) in x_new[..n_nodes].iter().zip(&want).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-10 * w.abs().max(1.0),
                        "unknown {i}: slot path {g:e} vs dense {w:e}"
                    );
                }
            }
            x = x_new;
            t += h;
        }
    }
}
