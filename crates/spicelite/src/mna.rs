//! Modified nodal analysis: assembling the linearized system.
//!
//! Unknown vector layout: node voltages for nodes `1..n` (ground excluded)
//! followed by one branch current per voltage source, in device order.
//! [`assemble`], [`MnaSystem`] and [`node_voltage`] use this natural
//! layout, one stamp per device.
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
//! The compiler also simulates each device of a set of parallel
//! duplicates once. MOSFETs with the same drain, gate and source rows and
//! bit-identical polarity, `β`, `Vth` and `λ` (the three PMOS of a NAND3
//! pull-up) become one stamp of multiplicity `m`, whose current and
//! conductances are `m` times one device's, so the conductance floor and
//! the gmin channel leak keep their per-device meaning. Capacitors on the
//! same unordered node pair become one of the summed capacitance; the
//! transient integrates these merged capacitors.
//!
//! Every stamp is resolved at compile time to slots of the structural
//! pattern ([`crate::linalg`]'s `SlotPattern`), so assembly is a list of
//! indexed adds into the LU's own input array; stamps into the row or
//! column of ground go to one discard slot. Assembly is split by what
//! changes when. The linear part is stamped into base slots: its
//! conductances (gmin leaks, resistors, capacitor companion conductances,
//! voltage-source incidences) only when gmin or the companion
//! conductances change (three times in a fixed-step transient: its first
//! two steps and its last one, which absorbs the rounding remainder of
//! the horizon), and its sources (companion currents, independent
//! sources) once per Newton solve. Each iteration copies the base slots
//! and adds only the MOSFET linearizations (Newton–Raphson relinearizes
//! them around every guess `x`). Capacitors are stamped from
//! caller-provided Norton companions so that DC (open), backward-Euler
//! and trapezoidal integration all share this code path.
//!
//! Within each pass every matrix and right-hand-side entry receives its
//! contributions in stamp order, whatever the row order.

use crate::circuit::{Circuit, NodeId};
use crate::devices::{eval_nmos, Device, MosPolarity, Stimulus};
use crate::linalg::{min_degree_order, Matrix, SlotPattern};

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
}

impl MnaSystem {
    /// Stamps a current source driving `amps` from node `a` into node `b`
    /// (i.e. the current leaves `a` and enters `b`).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not a row of the system.
    pub fn stamp_current(&mut self, a: NodeId, b: NodeId, amps: f64) {
        if let Some(i) = self.row(a) {
            self.z[i] -= amps;
        }
        if let Some(j) = self.row(b) {
            self.z[j] += amps;
        }
    }

    /// The row of a caller-supplied node, checked against the matrix.
    fn row(&self, node: NodeId) -> Row {
        let row = row_of(node);
        assert!(
            row.is_none_or(|i| i < self.a.n_cols()),
            "node outside the system"
        );
        row
    }
}

/// Reads the voltage of `node` from an unknown vector.
#[inline]
pub fn node_voltage(x: &[f64], node: NodeId) -> f64 {
    row_of(node).map_or(0.0, |i| x[i])
}

/// Adds the conductance `g` to the slots of `(a, a)`, `(b, b)`, `(a, b)`
/// and `(b, a)`.
#[inline]
fn conductance(a: &mut [f64], [aa, bb, ab, ba]: [u32; 4], g: f64) {
    a[aa as usize] += g;
    a[bb as usize] += g;
    a[ab as usize] -= g;
    a[ba as usize] -= g;
}

/// The slots of `(a, a)`, `(b, b)`, `(a, b)` and `(b, a)`: a conductance
/// between rows `a` and `b`.
fn pair_slots(slot: &mut impl FnMut(usize, usize) -> u32, a: usize, b: usize) -> [u32; 4] {
    [slot(a, a), slot(b, b), slot(a, b), slot(b, a)]
}

/// Drives `amps` out of row `from` and into row `to`.
#[inline]
fn current(z: &mut [f64], from: u32, to: u32, amps: f64) {
    z[from as usize] -= amps;
    z[to as usize] += amps;
}

/// One linear device of a [`StampProgram`]: matrix entries resolved to
/// slots of the program's pattern, right-hand-side rows to rows of the
/// program (ground is the discard row `size`), constants evaluated at
/// the circuit temperature.
#[derive(Debug, Clone, Copy)]
enum Stamp<'c> {
    /// A conductance between two rows: the slots of `(a, a)`, `(b, b)`,
    /// `(a, b)` and `(b, a)`.
    Conductance {
        slots: [u32; 4],
        g: f64,
    },
    /// The slots of `(pos, branch)`, `(branch, pos)`, `(neg, branch)`
    /// and `(branch, neg)`.
    Vsource {
        slots: [u32; 4],
        branch_row: u32,
        stimulus: &'c Stimulus,
    },
    Isource {
        from: u32,
        to: u32,
        amps: f64,
    },
}

/// One MOSFET of a [`StampProgram`], the only device whose stamp
/// depends on the iterate.
#[derive(Debug, Clone, Copy)]
struct MosStamp {
    /// Rows of the drain, gate and source (`size` for ground).
    d: u32,
    g: u32,
    s: u32,
    /// Slots of `(d, d)`, `(s, s)`, `(d, s)`, `(s, d)`, `(d, g)` and
    /// `(s, g)`.
    slots: [u32; 6],
    /// `+1` for NMOS, `−1` for PMOS (potentials are mirrored).
    sign: f64,
    /// `KP(T)·W/L`.
    beta: f64,
    /// `Vth(T)`.
    vth: f64,
    lambda: f64,
    /// Devices merged into this one: identical, in parallel.
    m: f64,
}

impl MosStamp {
    /// Equal keys mark parallel duplicates: the same terminals, polarity
    /// and constants, bit for bit.
    fn key(&self) -> (u32, u32, u32, [u64; 4]) {
        let bits = [self.sign, self.beta, self.vth, self.lambda].map(f64::to_bits);
        (self.d, self.g, self.s, bits)
    }
}

/// One capacitor of a [`StampProgram`]: in a compiled solver program,
/// every capacitor between one pair of nodes merged into one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapStamp {
    /// Rows of the terminals (`size` for ground).
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) farads: f64,
    /// The slots of `(a, a)`, `(b, b)`, `(a, b)` and `(b, a)`.
    slots: [u32; 4],
}

impl CapStamp {
    /// The unordered node pair.
    fn key(&self) -> (u32, u32) {
        (self.a.min(self.b), self.a.max(self.b))
    }
}

/// The devices of a [`StampProgram`], lowered to slots and rows.
#[derive(Debug, Clone)]
struct Stamps<'c> {
    /// Resistors and sources, in device order.
    linear: Vec<Stamp<'c>>,
    caps: Vec<CapStamp>,
    mosfets: Vec<MosStamp>,
    /// Diagonal slots of the node unknowns, which carry the gmin leaks.
    node_diagonals: Vec<u32>,
}

impl Stamps<'_> {
    /// Merges parallel duplicates: MOSFETs of equal [`MosStamp::key`]
    /// into one of multiplicity `m`, capacitors on the same node pair
    /// into one of the summed capacitance. Both lists end up sorted by
    /// their rows.
    fn merge_parallel(&mut self) {
        self.mosfets.sort_by_key(MosStamp::key);
        self.mosfets.dedup_by(|dup, kept| {
            let same = dup.key() == kept.key();
            if same {
                kept.m += dup.m;
            }
            same
        });
        self.caps.sort_by_key(CapStamp::key);
        self.caps.dedup_by(|dup, kept| {
            let same = dup.key() == kept.key();
            if same {
                kept.farads += dup.farads;
            }
            same
        });
    }
}

/// A circuit compiled for repeated MNA assembly at its temperature.
///
/// Compiling walks the devices twice. The first walk marks every matrix
/// entry some stamp can touch: that is the structural pattern, from
/// which [`StampProgram::compile`] derives a fill-reducing row order
/// (see [`crate::linalg`]). The second walk resolves every stamp to
/// slots of the pattern in that order ([`SlotPattern`]), turns
/// resistors into conductances and evaluates every MOSFET's `KP(T)·W/L`
/// and `Vth(T)`. [`StampProgram::compile`] then merges parallel
/// duplicates (see the module docs).
///
/// Assembly stamps a slot array (one value per pattern entry, then the
/// discard slot of ground) and a right-hand side (one value per row,
/// then the discard row of ground), in three passes.
/// [`StampProgram::stamp_conductances`] and
/// [`StampProgram::stamp_sources`] stamp the entries that do not depend
/// on the iterate; the solver reruns them only when their inputs change.
/// [`StampProgram::stamp_nonlinear`] adds the MOSFET linearizations,
/// once per Newton iteration. Each pass adds its contributions in stamp
/// order: resistors and sources in device order, then capacitors, then
/// MOSFETs.
#[derive(Debug, Clone)]
pub(crate) struct StampProgram<'c> {
    stamps: Stamps<'c>,
    pattern: SlotPattern,
    /// `rows[i]`: the row of unknown `i` of the natural layout.
    rows: Vec<usize>,
}

impl<'c> StampProgram<'c> {
    /// Compiles `circuit` at its current temperature for the solver: its
    /// rows in greedy minimum-degree order, its parallel duplicates
    /// merged (MOSFETs with the same terminals, polarity and constants
    /// into one of multiplicity `m`; capacitors on the same node pair
    /// into one of the summed capacitance), its capacitors in row order.
    ///
    /// # Panics
    ///
    /// Panics if a device terminal is not a node of `circuit`.
    pub(crate) fn compile(circuit: &'c Circuit) -> Self {
        StampProgram::build(circuit, true)
    }

    /// Compiles `circuit` device by device, with its rows in the natural
    /// layout of [`MnaSystem`] (node voltages, then branch currents).
    fn compile_natural(circuit: &'c Circuit) -> Self {
        StampProgram::build(circuit, false)
    }

    fn build(circuit: &'c Circuit, reduce: bool) -> Self {
        let size = circuit.unknown_count().max(1);
        let natural: Vec<usize> = (0..size).collect();
        let mut pattern = vec![false; size * size];
        StampProgram::lower(circuit, &natural, |r, c| {
            if r < size && c < size {
                pattern[r * size + c] = true;
            }
            0
        });
        let rows = if reduce {
            let mut rows = vec![0; size];
            for (k, u) in min_degree_order(size, &pattern).into_iter().enumerate() {
                rows[u] = k;
            }
            rows
        } else {
            natural
        };
        let mut ordered_pattern = vec![false; size * size];
        for (pos, _) in pattern.iter().enumerate().filter(|(_, &p)| p) {
            ordered_pattern[rows[pos / size] * size + rows[pos % size]] = true;
        }
        let pattern = SlotPattern::new(size, &ordered_pattern);
        let mut stamps = StampProgram::lower(circuit, &rows, |r, c| pattern.slot(r, c));
        if reduce {
            stamps.merge_parallel();
        }
        StampProgram {
            stamps,
            pattern,
            rows,
        }
    }

    /// Lowers the devices of `circuit` with unknown `i` of the natural
    /// layout on row `rows[i]`, ground on row `rows.len()`, and every
    /// matrix entry `(r, c)` resolved by `slot(r, c)`.
    fn lower(
        circuit: &'c Circuit,
        rows: &[usize],
        mut slot: impl FnMut(usize, usize) -> u32,
    ) -> Stamps<'c> {
        let temp = circuit.temperature();
        let n_nodes = circuit.unknown_node_count();
        let ground = rows.len();
        let row = |node: NodeId| {
            assert!(
                node.index() < circuit.node_count(),
                "device terminal is not a node of this circuit"
            );
            if node.is_ground() {
                ground
            } else {
                rows[node.index() - 1]
            }
        };
        let mut stamps = Stamps {
            linear: Vec::new(),
            caps: Vec::new(),
            mosfets: Vec::new(),
            node_diagonals: Vec::new(),
        };
        let mut branch = n_nodes;
        for dev in circuit.devices() {
            match dev {
                Device::Resistor { a, b, ohms, .. } => stamps.linear.push(Stamp::Conductance {
                    slots: pair_slots(&mut slot, row(*a), row(*b)),
                    g: 1.0 / ohms,
                }),
                Device::Capacitor { a, b, farads, .. } => {
                    let (a, b) = (row(*a), row(*b));
                    stamps.caps.push(CapStamp {
                        a: a as u32,
                        b: b as u32,
                        farads: *farads,
                        slots: pair_slots(&mut slot, a, b),
                    });
                }
                Device::Vsource {
                    pos, neg, stimulus, ..
                } => {
                    let (p, n, br) = (row(*pos), row(*neg), rows[branch]);
                    stamps.linear.push(Stamp::Vsource {
                        slots: [slot(p, br), slot(br, p), slot(n, br), slot(br, n)],
                        branch_row: br as u32,
                        stimulus,
                    });
                    branch += 1;
                }
                Device::Isource { from, to, amps, .. } => stamps.linear.push(Stamp::Isource {
                    from: row(*from) as u32,
                    to: row(*to) as u32,
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
                } => {
                    let (d, g, s) = (row(*d), row(*g), row(*s));
                    let [dd, ss, ds, sd] = pair_slots(&mut slot, d, s);
                    let (dg, sg) = (slot(d, g), slot(s, g));
                    stamps.mosfets.push(MosStamp {
                        d: d as u32,
                        g: g as u32,
                        s: s as u32,
                        slots: [dd, ss, ds, sd, dg, sg],
                        sign: match model.polarity {
                            MosPolarity::Nmos => 1.0,
                            MosPolarity::Pmos => -1.0,
                        },
                        beta: model.kp_at(temp) * w / l,
                        vth: model.vth(temp),
                        lambda: model.lambda,
                        m: 1.0,
                    });
                }
            }
        }
        stamps
            .node_diagonals
            .extend(rows[..n_nodes].iter().map(|&r| slot(r, r)));
        stamps
    }

    /// Rows (and columns) of the system.
    fn size(&self) -> usize {
        self.pattern.n()
    }

    /// `rows()[i]`: the row of unknown `i` of the natural layout.
    pub(crate) fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The structural pattern: every entry that some assembly may stamp,
    /// whatever the operating point. A cut-off MOSFET still owns its
    /// drain/source × drain/gate/source entries.
    pub(crate) fn pattern(&self) -> &SlotPattern {
        &self.pattern
    }

    /// The system linearized around the guess `x`, in this program's row
    /// order, with `x[size]` the ground potential 0. Other arguments as
    /// for [`assemble`].
    ///
    /// # Panics
    ///
    /// As for [`StampProgram::stamp_conductances`].
    fn assemble(
        &self,
        x: &[f64],
        time: Option<f64>,
        cap_companions: Option<&[CapCompanion]>,
        gmin: f64,
        source_scale: f64,
    ) -> MnaSystem {
        let n = self.size();
        let mut a = vec![0.0; self.pattern.len() + 1];
        let mut z = vec![0.0; n + 1];
        self.stamp_conductances(&mut a, time.is_some(), cap_companions, gmin);
        self.stamp_sources(&mut z, time, cap_companions, source_scale);
        self.stamp_nonlinear(&mut a, &mut z, x);
        z.truncate(n);
        let mut sys = MnaSystem {
            a: Matrix::zeros(n, n),
            z,
        };
        self.pattern.scatter(&a, &mut sys.a);
        sys
    }

    /// The capacitors, whose companions `cap_companions` lists in this
    /// order.
    pub(crate) fn capacitors(&self) -> &[CapStamp] {
        &self.stamps.caps
    }

    /// The companions of a transient step, one per capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `cap_companions` is `None` or shorter than the list of
    /// capacitors.
    fn companions<'a>(&self, cap_companions: Option<&'a [CapCompanion]>) -> &'a [CapCompanion] {
        &cap_companions.expect("transient assembly requires capacitor companions")
            [..self.stamps.caps.len()]
    }

    /// Overwrites the slot array `a` with the conductances that do not
    /// depend on the iterate: gmin node and channel leaks, resistors,
    /// voltage-source incidences and the capacitor companions of a
    /// `transient` step. Arguments as for [`assemble`], with one
    /// companion per entry of [`StampProgram::capacitors`].
    ///
    /// # Panics
    ///
    /// Panics if `a` is not one value per pattern slot plus the discard
    /// slot, or if `cap_companions` is shorter than the list of
    /// capacitors when a transient step is assembled.
    pub(crate) fn stamp_conductances(
        &self,
        a: &mut [f64],
        transient: bool,
        cap_companions: Option<&[CapCompanion]>,
        gmin: f64,
    ) {
        assert_eq!(
            a.len(),
            self.pattern.len() + 1,
            "slots do not match the program"
        );
        a.fill(0.0);

        // Convergence leak on every node.
        if gmin > 0.0 {
            for &s in &self.stamps.node_diagonals {
                a[s as usize] += gmin;
            }
        }

        for stamp in &self.stamps.linear {
            match *stamp {
                Stamp::Conductance { slots, g } => conductance(a, slots, g),
                Stamp::Vsource {
                    slots: [pb, bp, nb, bn],
                    ..
                } => {
                    a[pb as usize] += 1.0;
                    a[bp as usize] += 1.0;
                    a[nb as usize] -= 1.0;
                    a[bn as usize] -= 1.0;
                }
                Stamp::Isource { .. } => {}
            }
        }

        if transient {
            let comps = self.companions(cap_companions);
            for (cap, comp) in self.stamps.caps.iter().zip(comps) {
                conductance(a, cap.slots, comp.geq);
            }
        }

        // Channel leaks keep the matrix regular when a device is cut off.
        if gmin > 0.0 {
            for mos in &self.stamps.mosfets {
                let [dd, ss, ds, sd, ..] = mos.slots;
                conductance(a, [dd, ss, ds, sd], mos.m * gmin);
            }
        }
    }

    /// Overwrites the right-hand side `z` with the sources: the
    /// independent sources at `time` and the capacitor companion
    /// currents of a transient step. Arguments as for
    /// [`StampProgram::stamp_conductances`].
    ///
    /// # Panics
    ///
    /// Panics if `z` is not one value per row plus the discard row, or
    /// if `cap_companions` is shorter than the list of capacitors when a
    /// transient step is assembled.
    pub(crate) fn stamp_sources(
        &self,
        z: &mut [f64],
        time: Option<f64>,
        cap_companions: Option<&[CapCompanion]>,
        source_scale: f64,
    ) {
        assert_eq!(z.len(), self.size() + 1, "rows do not match the program");
        z.fill(0.0);
        for stamp in &self.stamps.linear {
            match *stamp {
                Stamp::Conductance { .. } => {}
                Stamp::Vsource {
                    branch_row,
                    stimulus,
                    ..
                } => {
                    let t = time.unwrap_or(0.0);
                    z[branch_row as usize] = source_scale * stimulus.value_at(t);
                }
                Stamp::Isource { from, to, amps } => current(z, from, to, source_scale * amps),
            }
        }
        if time.is_some() {
            let comps = self.companions(cap_companions);
            for (cap, comp) in self.stamps.caps.iter().zip(comps) {
                current(z, cap.a, cap.b, comp.jeq);
            }
        }
    }

    /// Adds every MOSFET's linearization around the guess `x` (in this
    /// program's row order, with `x[size]` the ground potential 0) to
    /// the slot array `a` and the right-hand side `z`.
    pub(crate) fn stamp_nonlinear(&self, a: &mut [f64], z: &mut [f64], x: &[f64]) {
        for &MosStamp {
            d,
            g,
            s,
            slots: [dd, ss, ds, sd, dg, sg],
            sign,
            beta,
            vth,
            lambda,
            m,
        } in &self.stamps.mosfets
        {
            // Work in a frame where the device is N-type: mirror all
            // potentials for PMOS. Conductance stamps are invariant under
            // mirroring; the companion current flips sign.
            let vd = sign * x[d as usize];
            let vg = sign * x[g as usize];
            let vs = sign * x[s as usize];
            let reversed = vd < vs;
            // The conducting drain `nd` and source `ns`, and the slots of
            // (nd, nd), (ns, ns), (nd, ns), (ns, nd), (nd, g), (ns, g).
            let (nd, ns, vdx, vsx, [nn, mm, nm, mn, ng, mg]) = if reversed {
                (s, d, vs, vd, [ss, dd, sd, ds, sg, dg])
            } else {
                (d, s, vd, vs, [dd, ss, ds, sd, dg, sg])
            };
            let (op, _region) = eval_nmos(vdx, vg, vsx, beta, vth, lambda);
            debug_assert!(!op.reversed, "frame already oriented");
            // `m` devices in parallel, each with its own conductance floor.
            let (ids, gm, gds) = (m * op.ids, m * op.gm, m * op.gds);
            // i(nd→ns) = gm·(vg − v_ns) + gds·(v_nd − v_ns) + sign·jeq
            let jeq = ids - gm * (vg - vsx) - gds * (vdx - vsx);
            conductance(a, [nn, mm, nm, mn], gds);
            a[ng as usize] += gm;
            a[nm as usize] -= gm;
            a[mg as usize] -= gm;
            a[mm as usize] += gm;
            current(z, nd, ns, sign * jeq);
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
/// keep one compiled program and stamp its slots instead.
///
/// # Panics
///
/// Panics if `x` has fewer values than the circuit has unknowns, or if
/// `cap_companions` is shorter than the number of capacitors when a
/// transient step is assembled.
pub fn assemble(
    circuit: &Circuit,
    x: &[f64],
    time: Option<f64>,
    cap_companions: Option<&[CapCompanion]>,
    gmin: f64,
    source_scale: f64,
) -> MnaSystem {
    let program = StampProgram::compile_natural(circuit);
    let n = circuit.unknown_count();
    let mut xg = vec![0.0; program.size() + 1];
    xg[..n].copy_from_slice(&x[..n]);
    program.assemble(&xg, time, cap_companions, gmin, source_scale)
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
    fn parallel_duplicates_merge_at_compile() {
        // A NAND3 pull-up: three identical PMOS on the same (d, g, s)
        // rows merge into one of multiplicity 3; a fourth one of another
        // width and a fifth with drain and source swapped do not merge.
        // Capacitors merge by unordered node pair, farads summed.
        let (_, pmos) = models_um350();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, Stimulus::Dc(3.3))
            .unwrap();
        for k in 0..3 {
            ckt.add_mosfet(format!("MP{k}"), out, a, vdd, pmos.clone(), 1.5e-6, 0.35e-6)
                .unwrap();
        }
        ckt.add_mosfet("MW", out, a, vdd, pmos.clone(), 3e-6, 0.35e-6)
            .unwrap();
        ckt.add_mosfet("MS", vdd, a, out, pmos, 1.5e-6, 0.35e-6)
            .unwrap();
        ckt.add_capacitor("C1", a, out, 1e-15).unwrap();
        ckt.add_capacitor("C2", out, a, 2e-15).unwrap();
        ckt.add_capacitor("C3", out, Circuit::GROUND, 4e-15)
            .unwrap();
        let program = StampProgram::compile(&ckt);
        let mut m: Vec<f64> = program.stamps.mosfets.iter().map(|s| s.m).collect();
        m.sort_by(f64::total_cmp);
        assert_eq!(m, [1.0, 1.0, 3.0]);
        let mut farads: Vec<f64> = program.capacitors().iter().map(|c| c.farads).collect();
        farads.sort_by(f64::total_cmp);
        assert_eq!(farads, [1e-15 + 2e-15, 4e-15]);
        // The device-by-device program keeps every device.
        let natural = StampProgram::compile_natural(&ckt);
        assert_eq!(natural.stamps.mosfets.len(), 5);
        assert_eq!(natural.capacitors().len(), 3);
    }

    mod reduction {
        use super::*;
        use proptest::prelude::*;

        /// A random circuit: `nodes` nodes (0 is ground) and a supply on
        /// node 1.
        struct Spec {
            nodes: usize,
            /// `(d, g, s, pmos, width)`, each one device.
            mosfets: Vec<(usize, usize, usize, bool, f64)>,
            /// `(a, b, farads)`.
            caps: Vec<(usize, usize, f64)>,
            /// `(a, b, ohms)`.
            resistors: Vec<(usize, usize, f64)>,
        }

        impl Spec {
            /// The circuit with the supply and the devices `keep` selects.
            fn circuit(&self, keep: impl Fn(usize) -> bool) -> Circuit {
                let (nmos, pmos) = models_um350();
                let mut ckt = Circuit::new();
                let nodes: Vec<NodeId> = (0..=self.nodes)
                    .map(|i| {
                        if i == 0 {
                            Circuit::GROUND
                        } else {
                            ckt.node(&format!("n{i}"))
                        }
                    })
                    .collect();
                ckt.add_vsource("VDD", nodes[1], Circuit::GROUND, Stimulus::Dc(3.3))
                    .unwrap();
                let mut k = 0;
                for (i, &(d, g, s, p, w)) in self.mosfets.iter().enumerate() {
                    if keep(k) {
                        let model = if p { pmos.clone() } else { nmos.clone() };
                        ckt.add_mosfet(
                            format!("M{i}"),
                            nodes[d],
                            nodes[g],
                            nodes[s],
                            model,
                            w,
                            0.35e-6,
                        )
                        .unwrap();
                    }
                    k += 1;
                }
                for (i, &(a, b, c)) in self.caps.iter().enumerate() {
                    if keep(k) {
                        ckt.add_capacitor(format!("C{i}"), nodes[a], nodes[b], c)
                            .unwrap();
                    }
                    k += 1;
                }
                for (i, &(a, b, r)) in self.resistors.iter().enumerate() {
                    if keep(k) {
                        ckt.add_resistor(format!("R{i}"), nodes[a], nodes[b], r)
                            .unwrap();
                    }
                    k += 1;
                }
                ckt
            }

            fn devices(&self) -> usize {
                self.mosfets.len() + self.caps.len() + self.resistors.len()
            }
        }

        /// Per-capacitor companions with `geq = k·C` and
        /// `jeq = C·(q(a) − q(b))`: what a transient step builds when
        /// every capacitor on a node pair shares one voltage history, so
        /// that merged and separate capacitors are the same system.
        fn companions(caps: impl Iterator<Item = (f64, f64, f64)>, k: f64) -> Vec<CapCompanion> {
            caps.map(|(c, qa, qb)| CapCompanion {
                geq: k * c,
                jeq: c * (qa - qb),
            })
            .collect()
        }

        /// `|got − want| ≤ 1e-12·scale`, entry by entry.
        fn check_close(
            got: &[f64],
            want: &[f64],
            scale: &[f64],
            what: &str,
        ) -> std::result::Result<(), TestCaseError> {
            for (i, ((&g, &w), &s)) in got.iter().zip(want).zip(scale).enumerate() {
                prop_assert!(
                    (g - w).abs() <= 1e-12 * s,
                    "{what}[{i}]: reduced {g:e} vs device-by-device {w:e} (scale {s:e})"
                );
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn reduced_program_assembles_the_device_by_device_system(
                nodes in 2usize..=5,
                mos in prop::collection::vec(
                    ((0usize..6, 0usize..6, 0usize..6), any::<bool>(), 0usize..2, 1usize..4, 0usize..4),
                    1..6,
                ),
                caps in prop::collection::vec((0usize..6, 0usize..6, 0.1f64..10.0, 1usize..3, any::<bool>()), 0..8),
                resistors in prop::collection::vec((0usize..6, 0usize..6, 1e3f64..1e5), 0..3),
                volts in prop::collection::vec(-0.5f64..4.0, 6),
                q in prop::collection::vec(-1.0f64..1.0, 6),
                k in 1e12f64..5e12,
            ) {
                // Devices with duplicates (`copies`), near-duplicates that
                // must stay apart (another width, drain and source
                // swapped), gates tied to drains, ground terminals, and
                // parallel and anti-parallel capacitors. No device has both
                // terminals of a branch on one node: its stamps would cancel
                // each other, and the rounding of that cancellation is not
                // what this test measures.
                let at = |i: usize| i % (nodes + 1);
                let apart = |a: usize, b: usize| if a == b { (a, at(b + 1)) } else { (a, b) };
                let mut spec = Spec { nodes, mosfets: Vec::new(), caps: Vec::new(), resistors: Vec::new() };
                for &((d, g, s), p, w, copies, variant) in &mos {
                    let (d, s) = apart(at(d), at(s));
                    let g = if variant == 3 { d } else { at(g) };
                    let w = [1e-6, 1.5e-6][w];
                    for _ in 0..copies {
                        spec.mosfets.push((d, g, s, p, w));
                    }
                    match variant {
                        1 => spec.mosfets.push((d, g, s, p, 2.0 * w)),
                        2 => spec.mosfets.push((s, g, d, p, w)),
                        _ => {}
                    }
                }
                for &(a, b, c, copies, anti) in &caps {
                    let (a, b) = apart(at(a), at(b));
                    for _ in 0..copies {
                        spec.caps.push((a, b, c * 1e-15));
                    }
                    if anti {
                        spec.caps.push((b, a, 0.5 * c * 1e-15));
                    }
                }
                spec.resistors = resistors.iter().map(|&(a, b, r)| { let (a, b) = apart(at(a), at(b)); (a, b, r) }).collect();

                let ckt = spec.circuit(|_| true);
                let n = ckt.unknown_count();
                let mut x = volts[..nodes].to_vec();
                x.push(-2e-4);
                // The potential q of each node for the companion currents.
                let q_of = |node: usize| if node == 0 { 0.0 } else { q[node - 1] };

                let program = StampProgram::compile(&ckt);
                let rows = program.rows().to_vec();
                let mut natural_of = vec![None; n + 1];
                let mut ordered = vec![0.0; n + 1];
                for (i, &r) in rows.iter().enumerate() {
                    natural_of[r] = Some(i);
                    ordered[r] = x[i];
                }
                let q_row = |r: u32| natural_of[r as usize].map_or(0.0, |i| q_of(i + 1));
                let reduced_comps = companions(
                    program.capacitors().iter().map(|c| (c.farads, q_row(c.a), q_row(c.b))),
                    k,
                );
                let device_comps = |s: &Spec, keep: &dyn Fn(usize) -> bool| {
                    let base = s.mosfets.len();
                    companions(
                        s.caps
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| keep(base + i))
                            .map(|(_, &(a, b, c))| (c, q_of(a), q_of(b))),
                        k,
                    )
                };
                let reduced = program.assemble(&ordered, Some(1e-9), Some(&reduced_comps), 1e-12, 1.0);
                let all = device_comps(&spec, &|_| true);
                let want = assemble(&ckt, &x, Some(1e-9), Some(&all), 1e-12, 1.0);

                // The error scale of each entry: the sum of its
                // contributions' magnitudes, device by device.
                let mut a_scale = vec![0.0; n * n];
                let mut z_scale = vec![0.0; n];
                for dev in 0..spec.devices() {
                    let keep = |i: usize| i == dev;
                    let one = assemble(&spec.circuit(keep), &x, Some(1e-9), Some(&device_comps(&spec, &keep)), 1e-12, 1.0);
                    for (i, s) in a_scale.iter_mut().enumerate() {
                        *s += one.a[(i / n, i % n)].abs();
                    }
                    for (s, z) in z_scale.iter_mut().zip(&one.z) {
                        *s += z.abs();
                    }
                }

                let mut got_a = vec![0.0; n * n];
                let mut want_a = vec![0.0; n * n];
                let mut got_z = vec![0.0; n];
                for i in 0..n {
                    got_z[i] = reduced.z[rows[i]];
                    for j in 0..n {
                        got_a[i * n + j] = reduced.a[(rows[i], rows[j])];
                        want_a[i * n + j] = want.a[(i, j)];
                    }
                }
                check_close(&got_a, &want_a, &a_scale, "A")?;
                check_close(&got_z, &want.z, &z_scale, "z")?;

                // Exact duplicates merged, near-duplicates kept apart.
                let mut distinct_mos: Vec<_> = spec.mosfets.iter()
                    .map(|&(d, g, s, p, w)| (d, g, s, p, w.to_bits()))
                    .collect();
                distinct_mos.sort_unstable();
                distinct_mos.dedup();
                prop_assert_eq!(program.stamps.mosfets.len(), distinct_mos.len());
                let mut distinct_caps: Vec<_> = spec.caps.iter()
                    .map(|&(a, b, _)| (a.min(b), a.max(b)))
                    .collect();
                distinct_caps.sort_unstable();
                distinct_caps.dedup();
                prop_assert_eq!(program.capacitors().len(), distinct_caps.len());
            }
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
