//! Modified nodal analysis: assembling the linearized system.
//!
//! Unknown vector layout: node voltages for nodes `1..n` (ground excluded)
//! followed by one branch current per voltage source, in device order.
//! [`assemble`], [`MnaSystem`] and [`node_voltage`] use this natural
//! layout.
//!
//! The solvers compile a circuit once per analysis into a stamp program:
//! terminals are resolved to matrix rows and temperature-dependent device
//! constants are evaluated. The compiler reads the structural pattern off
//! the stamps (each MOSFET owns its drain/gate/source entries even when
//! cut off, since `gm = 0` is still a stamp) and renumbers the rows in a
//! greedy minimum-degree order, so the solver's LU fills as little as
//! possible ([`crate::linalg`]). That order never leaves the Newton
//! solver: it permutes the iterate on entry and back on return.
//!
//! Assembly is split by what changes when. The linear part is stamped
//! into a base system: its conductances (gmin leaks, resistors, capacitor
//! companion conductances, voltage-source incidences) only when gmin or
//! the companion conductances change (three times in a fixed-step
//! transient: its first two steps and its shortened last one), and its
//! sources (companion currents, independent sources) once per Newton
//! solve. Each iteration copies the base and
//! adds only the MOSFET linearizations (Newton–Raphson relinearizes them
//! around every guess `x`). Capacitors are stamped from caller-provided
//! Norton companions so that DC (open), backward-Euler and trapezoidal
//! integration all share this code path.
//!
//! Within each pass every matrix and right-hand-side entry receives its
//! contributions in device order, whatever the row order, so an ordered
//! assembly is exactly the natural one permuted.

use crate::circuit::{Circuit, NodeId};
use crate::devices::{eval_nmos, Device, MosPolarity, Stimulus};
use crate::linalg::{min_degree_order, Matrix};

/// A row (and column) of the unknown vector; `None` for ground.
type Row = Option<usize>;

#[inline]
fn row_of(node: NodeId) -> Row {
    if node.is_ground() {
        None
    } else {
        Some(node.index() - 1)
    }
}

#[inline]
fn row_voltage(x: &[f64], row: Row) -> f64 {
    row.map_or(0.0, |i| x[i])
}

/// Norton companion model of one capacitor for the current time step:
/// `i = geq·v + jeq` (with `v` the voltage across the capacitor).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapCompanion {
    /// Companion conductance, siemens.
    pub geq: f64,
    /// Companion current source, amperes.
    pub jeq: f64,
}

/// The assembled linear system `A·x = z`.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    /// System matrix.
    pub a: Matrix,
    /// Right-hand side.
    pub z: Vec<f64>,
    n_nodes: usize,
}

impl MnaSystem {
    fn new(n_unknowns: usize, n_nodes: usize) -> Self {
        MnaSystem {
            a: Matrix::zeros(n_unknowns, n_unknowns),
            z: vec![0.0; n_unknowns],
            n_nodes,
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        self.conductance(self.row(a), self.row(b), g);
    }

    /// Stamps a current source driving `amps` from node `a` into node `b`
    /// (i.e. the current leaves `a` and enters `b`).
    pub fn stamp_current(&mut self, a: NodeId, b: NodeId, amps: f64) {
        self.current(self.row(a), self.row(b), amps);
    }

    /// Stamps a transconductance: a current `g·(vc − vd)` flowing from
    /// node `a` into node `b`.
    pub fn stamp_transconductance(&mut self, a: NodeId, b: NodeId, c: NodeId, d: NodeId, g: f64) {
        self.transconductance(self.row(a), self.row(b), self.row(c), self.row(d), g);
    }

    /// Stamps a voltage source occupying branch row `branch_row`
    /// (absolute row index in the unknown vector) forcing
    /// `v(pos) − v(neg) = volts`.
    pub fn stamp_vsource(&mut self, branch_row: usize, pos: NodeId, neg: NodeId, volts: f64) {
        assert!(
            branch_row < self.a.n_cols(),
            "branch row outside the system"
        );
        self.incidence(branch_row, self.row(pos), self.row(neg));
        self.z[branch_row] = volts;
    }

    /// Number of unknown node voltages (rows before the branch block).
    #[inline]
    pub fn node_rows(&self) -> usize {
        self.n_nodes
    }

    /// The row of a caller-supplied node, checked against the matrix
    /// (the row helpers below add entries without a column check).
    fn row(&self, node: NodeId) -> Row {
        let row = row_of(node);
        assert!(
            row.is_none_or(|i| i < self.a.n_cols()),
            "node outside the system"
        );
        row
    }

    // The row helpers: every stamp goes through these. Callers guarantee
    // that every row is below `a.n_cols()`.

    #[inline]
    fn conductance(&mut self, a: Row, b: Row, g: f64) {
        if let Some(i) = a {
            self.a.accumulate(i, i, g);
        }
        if let Some(j) = b {
            self.a.accumulate(j, j, g);
        }
        if let (Some(i), Some(j)) = (a, b) {
            self.a.accumulate(i, j, -g);
            self.a.accumulate(j, i, -g);
        }
    }

    #[inline]
    fn current(&mut self, a: Row, b: Row, amps: f64) {
        if let Some(i) = a {
            self.z[i] -= amps;
        }
        if let Some(j) = b {
            self.z[j] += amps;
        }
    }

    #[inline]
    fn transconductance(&mut self, a: Row, b: Row, c: Row, d: Row, g: f64) {
        for (row, sign) in [(a, 1.0), (b, -1.0)] {
            if let Some(i) = row {
                if let Some(k) = c {
                    self.a.accumulate(i, k, sign * g);
                }
                if let Some(k) = d {
                    self.a.accumulate(i, k, -sign * g);
                }
            }
        }
    }

    /// The matrix half of a voltage source: its branch row and column.
    #[inline]
    fn incidence(&mut self, branch_row: usize, pos: Row, neg: Row) {
        if let Some(i) = pos {
            self.a.accumulate(i, branch_row, 1.0);
            self.a.accumulate(branch_row, i, 1.0);
        }
        if let Some(j) = neg {
            self.a.accumulate(j, branch_row, -1.0);
            self.a.accumulate(branch_row, j, -1.0);
        }
    }
}

/// Reads the voltage of `node` from an unknown vector.
#[inline]
pub fn node_voltage(x: &[f64], node: NodeId) -> f64 {
    row_voltage(x, row_of(node))
}

/// One linear device of a [`StampProgram`]: terminals resolved to rows,
/// constants evaluated at the circuit temperature.
#[derive(Debug, Clone, Copy)]
enum Stamp<'c> {
    Conductance {
        a: Row,
        b: Row,
        g: f64,
    },
    Capacitor {
        a: Row,
        b: Row,
    },
    Vsource {
        pos: Row,
        neg: Row,
        branch_row: usize,
        stimulus: &'c Stimulus,
    },
    Isource {
        from: Row,
        to: Row,
        amps: f64,
    },
}

/// One MOSFET of a [`StampProgram`], the only device whose stamp
/// depends on the iterate.
#[derive(Debug, Clone, Copy)]
struct MosStamp {
    d: Row,
    g: Row,
    s: Row,
    /// `+1` for NMOS, `−1` for PMOS (potentials are mirrored).
    sign: f64,
    /// `KP(T)·W/L`.
    beta: f64,
    /// `Vth(T)`.
    vth: f64,
    lambda: f64,
}

/// A circuit compiled for repeated MNA assembly at its temperature.
///
/// Compiling walks the devices once: node terminals become matrix rows,
/// resistors become conductances, and every MOSFET's `KP(T)·W/L` and
/// `Vth(T)` are evaluated. [`StampProgram::compile`] then renumbers the
/// rows in a fill-reducing order (see [`crate::linalg`]).
///
/// Assembly has three passes. [`StampProgram::stamp_conductances`] and
/// [`StampProgram::stamp_sources`] stamp the matrix and right-hand-side
/// entries that do not depend on the iterate; the solver reruns them only
/// when their inputs change. [`StampProgram::stamp_nonlinear`] adds the
/// MOSFET linearizations, once per Newton iteration. Each pass adds its
/// contributions in device order.
#[derive(Debug, Clone)]
pub(crate) struct StampProgram<'c> {
    stamps: Vec<Stamp<'c>>,
    mosfets: Vec<MosStamp>,
    /// Rows of the node unknowns, which carry the gmin leaks.
    node_rows: Vec<usize>,
    /// `rows[i]`: the row of unknown `i` of the natural layout.
    rows: Vec<usize>,
    n_nodes: usize,
    n_unknowns: usize,
}

impl<'c> StampProgram<'c> {
    /// Compiles `circuit` at its current temperature, with its rows in
    /// greedy minimum-degree order.
    ///
    /// # Panics
    ///
    /// Panics if a device terminal is not a node of `circuit`.
    pub(crate) fn compile(circuit: &'c Circuit) -> Self {
        let mut program = StampProgram::compile_natural(circuit);
        let n = program.size();
        let mut rows = vec![0; n];
        for (k, u) in min_degree_order(n, &program.pattern())
            .into_iter()
            .enumerate()
        {
            rows[u] = k;
        }
        let relabel = |r: &mut Row| {
            if let Some(i) = r {
                *i = rows[*i];
            }
        };
        for stamp in &mut program.stamps {
            match stamp {
                Stamp::Conductance { a, b, .. } | Stamp::Capacitor { a, b } => {
                    relabel(a);
                    relabel(b);
                }
                Stamp::Vsource {
                    pos,
                    neg,
                    branch_row,
                    ..
                } => {
                    relabel(pos);
                    relabel(neg);
                    *branch_row = rows[*branch_row];
                }
                Stamp::Isource { from, to, .. } => {
                    relabel(from);
                    relabel(to);
                }
            }
        }
        for m in &mut program.mosfets {
            relabel(&mut m.d);
            relabel(&mut m.g);
            relabel(&mut m.s);
        }
        for r in &mut program.node_rows {
            *r = rows[*r];
        }
        program.rows = rows;
        program
    }

    /// Compiles `circuit` with its rows in the natural layout of
    /// [`MnaSystem`] (node voltages, then branch currents).
    fn compile_natural(circuit: &'c Circuit) -> Self {
        let temp = circuit.temperature();
        let n_nodes = circuit.unknown_node_count();
        let row = |node: NodeId| {
            assert!(
                node.index() < circuit.node_count(),
                "device terminal is not a node of this circuit"
            );
            row_of(node)
        };
        let mut branch_row = n_nodes;
        let mut stamps = Vec::new();
        let mut mosfets = Vec::new();
        for dev in circuit.devices() {
            match dev {
                Device::Resistor { a, b, ohms, .. } => stamps.push(Stamp::Conductance {
                    a: row(*a),
                    b: row(*b),
                    g: 1.0 / ohms,
                }),
                Device::Capacitor { a, b, .. } => stamps.push(Stamp::Capacitor {
                    a: row(*a),
                    b: row(*b),
                }),
                Device::Vsource {
                    pos, neg, stimulus, ..
                } => {
                    stamps.push(Stamp::Vsource {
                        pos: row(*pos),
                        neg: row(*neg),
                        branch_row,
                        stimulus,
                    });
                    branch_row += 1;
                }
                Device::Isource { from, to, amps, .. } => stamps.push(Stamp::Isource {
                    from: row(*from),
                    to: row(*to),
                    amps: *amps,
                }),
                Device::Mosfet {
                    d,
                    g,
                    s,
                    model,
                    w,
                    l,
                    ..
                } => mosfets.push(MosStamp {
                    d: row(*d),
                    g: row(*g),
                    s: row(*s),
                    sign: match model.polarity {
                        MosPolarity::Nmos => 1.0,
                        MosPolarity::Pmos => -1.0,
                    },
                    beta: model.kp_at(temp) * w / l,
                    vth: model.vth(temp),
                    lambda: model.lambda,
                }),
            }
        }
        let size = branch_row.max(1);
        StampProgram {
            stamps,
            mosfets,
            node_rows: (0..n_nodes).collect(),
            rows: (0..size).collect(),
            n_nodes,
            n_unknowns: branch_row,
        }
    }

    /// Rows (and columns) of the system.
    fn size(&self) -> usize {
        self.n_unknowns.max(1)
    }

    /// `rows()[i]`: the row of unknown `i` of the natural layout.
    pub(crate) fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The structural pattern, row-major: every entry that some assembly
    /// may stamp, whatever the operating point. A cut-off MOSFET still
    /// owns its drain/source × drain/gate/source entries.
    pub(crate) fn pattern(&self) -> Vec<bool> {
        let n = self.size();
        let mut pattern = vec![false; n * n];
        let mut set = |r: Row, c: Row| {
            if let (Some(r), Some(c)) = (r, c) {
                pattern[r * n + c] = true;
            }
        };
        for &r in &self.node_rows {
            set(Some(r), Some(r));
        }
        for stamp in &self.stamps {
            match *stamp {
                Stamp::Conductance { a, b, .. } | Stamp::Capacitor { a, b } => {
                    for r in [a, b] {
                        for c in [a, b] {
                            set(r, c);
                        }
                    }
                }
                Stamp::Vsource {
                    pos,
                    neg,
                    branch_row,
                    ..
                } => {
                    for t in [pos, neg] {
                        set(t, Some(branch_row));
                        set(Some(branch_row), t);
                    }
                }
                Stamp::Isource { .. } => {}
            }
        }
        for m in &self.mosfets {
            for r in [m.d, m.s] {
                for c in [m.d, m.g, m.s] {
                    set(r, c);
                }
            }
        }
        pattern
    }

    /// A zeroed system of the right size for this program.
    pub(crate) fn system(&self) -> MnaSystem {
        MnaSystem::new(self.size(), self.n_nodes)
    }

    /// Clears `sys` and stamps the linearization around the guess `x`
    /// into it. Arguments as for [`assemble`], with `x` in this
    /// program's row order.
    ///
    /// # Panics
    ///
    /// As for [`StampProgram::stamp_conductances`].
    pub(crate) fn assemble_into(
        &self,
        sys: &mut MnaSystem,
        x: &[f64],
        time: Option<f64>,
        cap_companions: Option<&[CapCompanion]>,
        gmin: f64,
        source_scale: f64,
    ) {
        self.stamp_conductances(sys, time.is_some(), cap_companions, gmin);
        self.stamp_sources(sys, time, cap_companions, source_scale);
        self.stamp_nonlinear(sys, x);
    }

    /// Clears `sys.a` and stamps the conductances that do not depend on
    /// the iterate: gmin node and channel leaks, resistors, the capacitor
    /// companions of a `transient` step and the voltage-source
    /// incidences. Arguments as for [`assemble`].
    ///
    /// # Panics
    ///
    /// Panics if `sys` does not have this program's size (as made by
    /// [`StampProgram::system`]), or if `cap_companions` is shorter than
    /// the number of capacitors when a transient step is assembled.
    pub(crate) fn stamp_conductances(
        &self,
        sys: &mut MnaSystem,
        transient: bool,
        cap_companions: Option<&[CapCompanion]>,
        gmin: f64,
    ) {
        self.check_size(sys);
        sys.a.clear();

        // Convergence leak on every node.
        if gmin > 0.0 {
            for &i in &self.node_rows {
                sys.conductance(Some(i), None, gmin);
            }
        }

        let mut cap_index = 0usize;
        for stamp in &self.stamps {
            match *stamp {
                Stamp::Conductance { a, b, g } => sys.conductance(a, b, g),
                Stamp::Capacitor { a, b } => {
                    if transient {
                        let comp = cap_companions
                            .expect("transient assembly requires capacitor companions")[cap_index];
                        sys.conductance(a, b, comp.geq);
                    }
                    cap_index += 1;
                }
                Stamp::Vsource {
                    pos,
                    neg,
                    branch_row,
                    ..
                } => sys.incidence(branch_row, pos, neg),
                Stamp::Isource { .. } => {}
            }
        }

        // Channel leaks keep the matrix regular when a device is cut off.
        if gmin > 0.0 {
            for m in &self.mosfets {
                sys.conductance(m.d, m.s, gmin);
            }
        }
    }

    /// Clears `sys.z` and stamps the sources: the capacitor companion
    /// currents of a transient step and the independent sources at
    /// `time`. Arguments as for [`assemble`].
    ///
    /// # Panics
    ///
    /// As for [`StampProgram::stamp_conductances`].
    pub(crate) fn stamp_sources(
        &self,
        sys: &mut MnaSystem,
        time: Option<f64>,
        cap_companions: Option<&[CapCompanion]>,
        source_scale: f64,
    ) {
        self.check_size(sys);
        sys.z.fill(0.0);
        let mut cap_index = 0usize;
        for stamp in &self.stamps {
            match *stamp {
                Stamp::Conductance { .. } => {}
                Stamp::Capacitor { a, b } => {
                    if time.is_some() {
                        let comp = cap_companions
                            .expect("transient assembly requires capacitor companions")[cap_index];
                        sys.current(a, b, comp.jeq);
                    }
                    cap_index += 1;
                }
                Stamp::Vsource {
                    branch_row,
                    stimulus,
                    ..
                } => {
                    let t = time.unwrap_or(0.0);
                    sys.z[branch_row] = source_scale * stimulus.value_at(t);
                }
                Stamp::Isource { from, to, amps } => sys.current(from, to, source_scale * amps),
            }
        }
    }

    fn check_size(&self, sys: &MnaSystem) {
        let size = self.size();
        assert!(
            sys.a.n_rows() == size && sys.a.n_cols() == size && sys.z.len() == size,
            "system does not match the program"
        );
    }

    /// Adds every MOSFET's linearization around the guess `x` (in this
    /// program's row order) to `sys`.
    pub(crate) fn stamp_nonlinear(&self, sys: &mut MnaSystem, x: &[f64]) {
        for &MosStamp {
            d,
            g,
            s,
            sign,
            beta,
            vth,
            lambda,
        } in &self.mosfets
        {
            // Work in a frame where the device is N-type: mirror all
            // potentials for PMOS. Conductance stamps are invariant under
            // mirroring; the companion current flips sign.
            let vd = sign * row_voltage(x, d);
            let vg = sign * row_voltage(x, g);
            let vs = sign * row_voltage(x, s);
            let reversed = vd < vs;
            let (nd, ns, vdx, vsx) = if reversed {
                (s, d, vs, vd)
            } else {
                (d, s, vd, vs)
            };
            let (op, _region) = eval_nmos(vdx, vg, vsx, beta, vth, lambda);
            debug_assert!(!op.reversed, "frame already oriented");
            // i(nd→ns) = gm·(vg − v_ns) + gds·(v_nd − v_ns) + sign·jeq
            let jeq = op.ids - op.gm * (vg - vsx) - op.gds * (vdx - vsx);
            sys.conductance(nd, ns, op.gds);
            sys.transconductance(nd, ns, g, ns, op.gm);
            sys.current(nd, ns, sign * jeq);
        }
    }
}

/// Assembles the MNA system for the guess `x`.
///
/// * `time`: `None` for DC (time-varying sources evaluate at `t = 0`,
///   capacitors open), `Some(t)` for a transient step.
/// * `cap_companions`: one entry per capacitor device in device order
///   (required iff `time.is_some()`).
/// * `gmin`: leak conductance stamped from every node to ground and
///   across every MOSFET channel (convergence aid).
/// * `source_scale`: multiplier on every independent source (source
///   stepping uses values < 1).
///
/// Compiles the circuit afresh; the solvers, which assemble repeatedly,
/// keep one compiled program and one system instead.
///
/// # Panics
///
/// Panics if `cap_companions` is shorter than the number of capacitors
/// when a transient step is assembled.
pub fn assemble(
    circuit: &Circuit,
    x: &[f64],
    time: Option<f64>,
    cap_companions: Option<&[CapCompanion]>,
    gmin: f64,
    source_scale: f64,
) -> MnaSystem {
    let program = StampProgram::compile_natural(circuit);
    let mut sys = program.system();
    program.assemble_into(&mut sys, x, time, cap_companions, gmin, source_scale);
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{models_um350, Stimulus};

    #[test]
    fn resistor_divider_assembles_and_solves() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        let x = vec![0.0; ckt.unknown_count()];
        let mut sys = assemble(&ckt, &x, None, None, 1e-12, 1.0);
        let mut rhs = sys.z.clone();
        sys.a.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - 2.0).abs() < 1e-9, "v(a)");
        assert!((rhs[1] - 1.0).abs() < 1e-6, "v(b)");
        // Branch current: 1 mA flowing out of the source's positive
        // terminal through R1–R2 (MNA convention: current pos→neg inside
        // the source, so the unknown is −1 mA).
        assert!((rhs[2] + 1e-3).abs() < 1e-8, "i(V1) = {}", rhs[2]);
    }

    #[test]
    fn current_stamp_sign_convention() {
        // 1 A pushed into node b through a 1 Ω resistor to ground: v(b) = 1 V.
        let mut ckt = Circuit::new();
        let b = ckt.node("b");
        ckt.add_resistor("R", b, Circuit::GROUND, 1.0).unwrap();
        let x = vec![0.0; ckt.unknown_count()];
        let mut sys = assemble(&ckt, &x, None, None, 0.0, 1.0);
        sys.stamp_current(Circuit::GROUND, b, 1.0);
        let mut rhs = sys.z.clone();
        sys.a.solve_in_place(&mut rhs).unwrap();
        assert!((rhs[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_open_in_dc_companion_in_transient() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-12).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let x = vec![0.0; ckt.unknown_count()];
        let dc = assemble(&ckt, &x, None, None, 0.0, 1.0);
        assert!(
            (dc.a[(0, 0)] - 1e-3).abs() < 1e-12,
            "only the resistor in DC"
        );
        let comps = [CapCompanion {
            geq: 2e-3,
            jeq: 0.0,
        }];
        let tr = assemble(&ckt, &x, Some(1e-9), Some(&comps), 0.0, 1.0);
        assert!((tr.a[(0, 0)] - 3e-3).abs() < 1e-12, "resistor + companion");
    }

    #[test]
    fn nmos_source_follower_stamp_directions() {
        // NMOS: drain at 3.3 V, gate at 2 V, source through 10 kΩ to
        // ground. The source node must settle positive (device conducts
        // d→s, raising the source).
        let (nmos, _) = models_um350();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let s = ckt.node("s");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        ckt.add_vsource("VG", g, Circuit::GROUND, Stimulus::Dc(2.0))
            .unwrap();
        ckt.add_mosfet("M1", vdd, g, s, nmos, 10e-6, 0.35e-6)
            .unwrap();
        ckt.add_resistor("RS", s, Circuit::GROUND, 10e3).unwrap();
        // One Newton step from a reasonable guess must push v(s) upward.
        let mut x = vec![0.0; ckt.unknown_count()];
        x[0] = 3.3;
        x[1] = 2.0;
        let mut sys = assemble(&ckt, &x, None, None, 1e-12, 1.0);
        let mut rhs = sys.z.clone();
        sys.a.solve_in_place(&mut rhs).unwrap();
        let vs_new = rhs[2];
        assert!(vs_new > 0.1, "source node must rise, got {vs_new}");
    }

    #[test]
    fn source_scale_scales_rhs() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_vsource("V1", a, Circuit::GROUND, Stimulus::Dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let x = vec![0.0; ckt.unknown_count()];
        let sys = assemble(&ckt, &x, None, None, 0.0, 0.5);
        assert!((sys.z[1] - 1.0).abs() < 1e-12, "half the 2 V source");
    }

    #[test]
    fn reused_system_matches_a_fresh_assembly() {
        // Solving destroys the system; re-stamping it in place, in the
        // fill-reducing row order, must give exactly the entries of a
        // freshly allocated natural-order assembly, permuted, and every
        // stamped entry must lie within the structural pattern.
        let (nmos, pmos) = models_um350();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        ckt.add_vsource("VIN", inp, Circuit::GROUND, Stimulus::Dc(1.2))
            .unwrap();
        ckt.add_mosfet_with_caps("MN", out, inp, Circuit::GROUND, nmos, 1e-6, 0.35e-6)
            .unwrap();
        ckt.add_mosfet_with_caps("MP", out, inp, vdd, pmos, 2e-6, 0.35e-6)
            .unwrap();
        ckt.set_temperature(85.0);
        let comps: Vec<CapCompanion> = (0..6)
            .map(|k| CapCompanion {
                geq: 1e-4 * (k + 1) as f64,
                jeq: -3e-6 * k as f64,
            })
            .collect();
        let program = StampProgram::compile(&ckt);
        let rows = program.rows().to_vec();
        assert_ne!(rows, [0, 1, 2, 3, 4], "the order is not the natural one");
        let pattern = program.pattern();
        let mut sys = program.system();
        let mut ordered = [0.0; 5];
        for x in [[3.3, 1.2, 0.4, -1e-4, 0.0], [3.3, 1.2, 2.9, -2e-4, 1e-6]] {
            for (&v, &r) in x.iter().zip(&rows) {
                ordered[r] = v;
            }
            program.assemble_into(&mut sys, &ordered, Some(1e-9), Some(&comps), 1e-12, 1.0);
            let fresh = assemble(&ckt, &x, Some(1e-9), Some(&comps), 1e-12, 1.0);
            for (i, &ri) in rows.iter().enumerate() {
                assert_eq!(sys.z[ri].to_bits(), fresh.z[i].to_bits());
                for (j, &rj) in rows.iter().enumerate() {
                    assert_eq!(sys.a[(ri, rj)].to_bits(), fresh.a[(i, j)].to_bits());
                    if sys.a[(ri, rj)] != 0.0 {
                        assert!(pattern[ri * 5 + rj], "entry ({i}, {j}) outside the pattern");
                    }
                }
            }
            let mut rhs = sys.z.clone();
            sys.a.solve_in_place(&mut rhs).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "not a node of this circuit")]
    fn foreign_node_rejected_at_compile() {
        let mut other = Circuit::new();
        other.node("a");
        let far = other.node("b");
        let mut ckt = Circuit::new();
        ckt.add_resistor("R1", far, Circuit::GROUND, 1e3).unwrap();
        let _ = StampProgram::compile(&ckt);
    }

    #[test]
    fn node_voltage_helper() {
        let x = [1.5, 2.5];
        assert_eq!(node_voltage(&x, NodeId::GROUND), 0.0);
        assert_eq!(node_voltage(&x, NodeId(1)), 1.5);
        assert_eq!(node_voltage(&x, NodeId(2)), 2.5);
    }
}
