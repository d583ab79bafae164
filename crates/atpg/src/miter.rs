//! A complete untestability check: a Tseitin fault miter solved by the
//! crate's CDCL solver (Larrabee, "Test pattern generation using Boolean
//! satisfiability", IEEE TCAD 1992; TEGUS, 1996).
//!
//! The good circuit is encoded once per netlist into a base solver. A
//! fault's check restores a work solver from that base and adds only the
//! fault's part:
//!
//! * the faulty copy of the fault's fanout cone (outside the cone the
//!   faulty value *is* the good value, so the good variable is reused);
//! * excitation: the good value at the fault site is the opposite of the
//!   stuck value;
//! * an *active-path* (D-chain) variable `a(n)` per cone net, with
//!   `a(n) → good(n) ≠ faulty(n)`, `a(n) → ∨ a(fanout)` for a net that is
//!   not a primary output, and `a(origin)` asserted. A test sensitises a
//!   path of differing nets from the origin to an output, so the clauses
//!   are satisfiable exactly when the fault is detectable.
//!
//! UNSAT is therefore a proof that no input pattern detects the fault,
//! and a model is a test: [`MiterSession::model_cube`] reads the model's
//! values of the primary inputs in the cone's transitive fanin and leaves
//! every other input X. Those inputs fix every good and faulty value in
//! the cone, so any fill of the X positions detects the fault. Only the
//! transitive fanin of the cone and the cone's own variables are decision
//! variables, so the search never branches on logic that cannot influence
//! the fault.
//!
//! The same session also proves constant nets
//! ([`MiterSession::check_constant`]): the good circuit alone, plus the
//! unit "the net takes the other value", decided over the net's
//! transitive fanin. UNSAT proves the net constant under every input, and
//! a model is an input pattern that drives it to the other value. The
//! ATPG engine settles each net its random phase saw at only one value
//! this way (unless constants it already proved force the net's gate),
//! simulates each refuting model to drop further candidates, and hands
//! the proven constants to the untestability pre-pass: the
//! simulate-then-prove scheme of SAT sweeping (Kuehlmann et al., "Robust
//! Boolean reasoning for equivalence checking and functional property
//! verification", IEEE TCAD 2002).

use fbist_bits::{Cube, Trit};
use fbist_fault::{Fault, FaultSite};
use fbist_netlist::{CsrAdjacency, GateId, GateKind, Netlist};
use fbist_sim::SimError;

use crate::sat::{lit, Answer, Lit, Solver};

/// Conflicts one check may spend before it answers
/// [`SatVerdict::Unknown`].
pub const CONFLICT_BUDGET: u64 = 10_000;

/// The answer of the SAT check for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatVerdict {
    /// No input pattern detects the fault.
    Untestable,
    /// Some input pattern detects the fault.
    Testable,
    /// The conflict budget ran out first.
    Unknown,
}

/// The answer of the good-circuit check for one candidate constant net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstantVerdict {
    /// The net holds the candidate value under every input pattern.
    Constant,
    /// Some input pattern drives the net to the other value.
    Toggles,
    /// The conflict budget ran out first.
    Unknown,
}

/// The good-circuit encoding of one combinational netlist, shared
/// read-only by every [`MiterSession`].
///
/// Variable layout for `n` nets: good value of net `i` is variable `i`,
/// its faulty value `n + i`, its active-path flag `2n + i`; variable `3n`
/// is constant true; XOR/XNOR gates of more than two inputs own a chain of
/// auxiliary variables after that, one good and one faulty run per gate.
///
/// # Example
///
/// ```
/// use fbist_netlist::bench;
/// use fbist_fault::{Fault, FaultSite};
/// use fbist_atpg::{FaultMiter, SatVerdict};
///
/// // y = OR(a, NOT a) is constant 1, so y stuck-at-1 is redundant
/// let n = bench::parse("INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n").unwrap();
/// let miter = FaultMiter::new(&n)?;
/// let mut session = miter.session();
/// let y = n.find("y").unwrap();
/// assert_eq!(session.check(Fault::stuck_at(FaultSite::GateOutput(y), true)), SatVerdict::Untestable);
/// assert_eq!(session.check(Fault::stuck_at(FaultSite::GateOutput(y), false)), SatVerdict::Testable);
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultMiter {
    n: usize,
    fi: CsrAdjacency,
    fo: CsrAdjacency,
    kinds: Vec<GateKind>,
    is_po: Vec<bool>,
    /// The primary inputs' nets, in input-position order.
    inputs: Vec<u32>,
    /// First auxiliary variable of gate `i`'s good XOR chain; its faulty
    /// chain follows directly.
    aux: Vec<u32>,
    base: Solver,
}

impl FaultMiter {
    /// Encodes the good circuit of a combinational netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] for sequential netlists and
    /// [`SimError::Netlist`] for invalid ones.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        if !netlist.is_combinational() {
            return Err(SimError::SequentialNetlist {
                dffs: netlist.dffs().len(),
            });
        }
        netlist.levelize()?;
        let n = netlist.gate_count();
        let fi = netlist.fanins_csr();
        let kinds = netlist.kinds();
        let mut aux = vec![0u32; n];
        let mut next = 3 * n as u32 + 1;
        for (i, a) in aux.iter_mut().enumerate() {
            *a = next;
            next += 2 * xor_aux_count(kinds[i], fi.of(i).len());
        }
        let mut is_po = vec![false; n];
        for &o in netlist.outputs() {
            is_po[o.index()] = true;
        }
        let mut miter = FaultMiter {
            n,
            fo: netlist.fanouts_csr(),
            fi,
            kinds,
            is_po,
            inputs: netlist.inputs().iter().map(|i| i.index() as u32).collect(),
            aux,
            base: Solver::new(),
        };
        let mut base = Solver::new();
        base.add_vars(next as usize);
        let mut clause = Vec::new();
        clause.push(miter.constant(true));
        base.add_clause(&mut clause);
        let mut ins = Vec::new();
        for i in 0..n {
            ins.clear();
            ins.extend(miter.fi.of(i).iter().map(|f| lit(f.index() as u32, true)));
            let z = lit(i as u32, true);
            encode_gate(
                &mut base,
                &mut clause,
                miter.kinds[i],
                z,
                &ins,
                miter.aux[i],
            );
        }
        miter.base = base;
        Ok(miter)
    }

    /// A reusable check session.
    pub fn session(&self) -> MiterSession<'_> {
        MiterSession {
            miter: self,
            work: Solver::new(),
            mark: vec![0; self.n],
            tfi: vec![0; self.n],
            epoch: 0,
            cone: Vec::new(),
            stack: Vec::new(),
            ins: Vec::new(),
            clause: Vec::new(),
        }
    }

    /// The literal of constant `value`.
    fn constant(&self, value: bool) -> Lit {
        lit(3 * self.n as u32, value)
    }

    fn faulty(&self, i: usize) -> u32 {
        (self.n + i) as u32
    }

    fn active(&self, i: usize) -> u32 {
        (2 * self.n + i) as u32
    }
}

/// Auxiliary variables one plane of a gate's XOR chain needs.
fn xor_aux_count(kind: GateKind, arity: usize) -> u32 {
    match kind {
        GateKind::Xor | GateKind::Xnor => arity.saturating_sub(2) as u32,
        _ => 0,
    }
}

/// Adds the Tseitin clauses of `z = kind(ins)`. A wide XOR/XNOR chains
/// through the auxiliary variables starting at `aux`.
fn encode_gate(
    s: &mut Solver,
    clause: &mut Vec<Lit>,
    kind: GateKind,
    z: Lit,
    ins: &[Lit],
    aux: u32,
) {
    let mut add = |s: &mut Solver, lits: &[Lit]| {
        clause.clear();
        clause.extend_from_slice(lits);
        s.add_clause(clause);
    };
    match kind {
        GateKind::Input | GateKind::Dff => {}
        GateKind::Const0 => add(s, &[z ^ 1]),
        GateKind::Const1 => add(s, &[z]),
        GateKind::Buff => equal(s, &mut add, z, ins[0]),
        GateKind::Not => equal(s, &mut add, z, ins[0] ^ 1),
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            // AND: z → every input, all inputs → z; OR is the dual on
            // complemented literals, the inverting kinds complement z
            let (z, flip) = match kind {
                GateKind::And => (z, 0),
                GateKind::Nand => (z ^ 1, 0),
                GateKind::Or => (z ^ 1, 1),
                _ => (z, 1),
            };
            for &x in ins {
                add(s, &[z ^ 1, x ^ flip]);
            }
            clause.clear();
            clause.push(z);
            clause.extend(ins.iter().map(|&x| x ^ flip ^ 1));
            s.add_clause(clause);
        }
        GateKind::Xor | GateKind::Xnor => {
            let z = if kind == GateKind::Xnor { z ^ 1 } else { z };
            match ins.len() {
                1 => equal(s, &mut add, z, ins[0]),
                k => {
                    let mut acc = ins[0];
                    for (j, &x) in ins[1..].iter().enumerate() {
                        let out = if j + 2 == k {
                            z
                        } else {
                            lit(aux + j as u32, true)
                        };
                        xor2(s, &mut add, out, acc, x);
                        acc = out;
                    }
                }
            }
        }
    }
}

fn equal(s: &mut Solver, add: &mut impl FnMut(&mut Solver, &[Lit]), z: Lit, x: Lit) {
    add(s, &[z ^ 1, x]);
    add(s, &[z, x ^ 1]);
}

fn xor2(s: &mut Solver, add: &mut impl FnMut(&mut Solver, &[Lit]), z: Lit, a: Lit, b: Lit) {
    add(s, &[z ^ 1, a, b]);
    add(s, &[z ^ 1, a ^ 1, b ^ 1]);
    add(s, &[z, a ^ 1, b]);
    add(s, &[z, a, b ^ 1]);
}

/// A reusable check over one [`FaultMiter`]: the work solver and the
/// cone buffers, so checking many faults allocates only while a check
/// outgrows every earlier one.
pub struct MiterSession<'m> {
    miter: &'m FaultMiter,
    work: Solver,
    /// Cone membership stamp (`mark[i] == epoch`).
    mark: Vec<u32>,
    /// Transitive-fanin stamp of the current check.
    tfi: Vec<u32>,
    epoch: u32,
    cone: Vec<u32>,
    stack: Vec<u32>,
    ins: Vec<Lit>,
    clause: Vec<Lit>,
}

impl MiterSession<'_> {
    /// Decides whether any input pattern detects `fault`, within
    /// [`CONFLICT_BUDGET`] conflicts. A pure function of the netlist and
    /// the fault.
    pub fn check(&mut self, fault: Fault) -> SatVerdict {
        self.check_with_budget(fault, CONFLICT_BUDGET)
    }

    pub(crate) fn check_with_budget(&mut self, fault: Fault, budget: u64) -> SatVerdict {
        let m = self.miter;
        let epoch = self.begin();
        let stuck = fault.stuck_value();
        let (origin, branch) = match fault.site() {
            FaultSite::GateOutput(g) => (g.index(), None),
            FaultSite::GateInput { gate, pin } => (gate.index(), Some(pin as usize)),
        };

        // the fanout cone, origin first
        self.cone.clear();
        self.cone.push(origin as u32);
        self.mark[origin] = epoch;
        let mut k = 0;
        while k < self.cone.len() {
            let c = self.cone[k] as usize;
            k += 1;
            for &f in m.fo.of(c) {
                if self.mark[f.index()] != epoch {
                    self.mark[f.index()] = epoch;
                    self.cone.push(f.index() as u32);
                }
            }
        }

        // the faulty cone and excitation
        match branch {
            None => {
                self.unit(lit(origin as u32, !stuck));
                self.unit(lit(m.faulty(origin), stuck));
            }
            Some(pin) => {
                let src = m.fi.of(origin)[pin].index();
                self.unit(lit(src as u32, !stuck));
            }
        }
        for k in 0..self.cone.len() {
            let c = self.cone[k] as usize;
            if c == origin && branch.is_none() {
                continue;
            }
            self.ins.clear();
            for (p, &x) in m.fi.of(c).iter().enumerate() {
                let x = x.index();
                self.ins.push(if c == origin && branch == Some(p) {
                    m.constant(stuck)
                } else if self.mark[x] == epoch {
                    lit(m.faulty(x), true)
                } else {
                    lit(x as u32, true)
                });
            }
            let aux = m.aux[c] + xor_aux_count(m.kinds[c], self.ins.len());
            let z = lit(m.faulty(c), true);
            encode_gate(
                &mut self.work,
                &mut self.clause,
                m.kinds[c],
                z,
                &self.ins,
                aux,
            );
        }

        // the active path
        for k in 0..self.cone.len() {
            let c = self.cone[k] as usize;
            let a = lit(m.active(c), false);
            let (g, f) = (lit(c as u32, true), lit(m.faulty(c), true));
            self.add(&[a, g, f]);
            self.add(&[a, g ^ 1, f ^ 1]);
            if !m.is_po[c] {
                self.clause.clear();
                self.clause.push(a);
                self.clause
                    .extend(m.fo.of(c).iter().map(|fo| lit(m.active(fo.index()), true)));
                self.work.add_clause(&mut self.clause);
            }
        }
        self.unit(lit(m.active(origin), true));

        // decide only what can influence the fault: the cone's planes and
        // active flags, and the good values of its transitive fanin
        for k in 0..self.cone.len() {
            let c = self.cone[k] as usize;
            self.work.set_decision(m.faulty(c));
            self.work.set_decision(m.active(c));
            self.decide_aux(c, 1);
        }
        self.stack.clear();
        self.stack.extend_from_slice(&self.cone);
        for &c in &self.cone {
            self.tfi[c as usize] = epoch;
        }
        self.decide_fanin();

        match self.work.solve(budget) {
            Answer::Unsat => SatVerdict::Untestable,
            Answer::Sat => SatVerdict::Testable,
            Answer::Unknown => SatVerdict::Unknown,
        }
    }

    /// Decides whether `net` holds `value` under every input pattern,
    /// within [`CONFLICT_BUDGET`] conflicts: the good circuit plus the
    /// unit `net = ¬value`, deciding only the net's transitive fanin.
    /// Only [`ConstantVerdict::Constant`] is a proof. A pure function of
    /// the netlist, the net and the value.
    pub fn check_constant(&mut self, net: GateId, value: bool) -> ConstantVerdict {
        self.check_constant_with_budget(net, value, CONFLICT_BUDGET)
    }

    pub(crate) fn check_constant_with_budget(
        &mut self,
        net: GateId,
        value: bool,
        budget: u64,
    ) -> ConstantVerdict {
        let epoch = self.begin();
        let i = net.index();
        self.unit(lit(i as u32, !value));
        self.stack.clear();
        self.stack.push(i as u32);
        self.tfi[i] = epoch;
        self.decide_fanin();
        match self.work.solve(budget) {
            Answer::Unsat => ConstantVerdict::Constant,
            Answer::Sat => ConstantVerdict::Toggles,
            Answer::Unknown => ConstantVerdict::Unknown,
        }
    }

    /// Restores the work solver to the good circuit and opens a new
    /// stamp epoch, which it returns.
    fn begin(&mut self) -> u32 {
        self.work.restore(&self.miter.base);
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.tfi.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Makes the good values of the transitive fanin of the nets on the
    /// stack (already stamped into `tfi`) decision variables.
    fn decide_fanin(&mut self) {
        let m = self.miter;
        let epoch = self.epoch;
        while let Some(x) = self.stack.pop() {
            let x = x as usize;
            self.work.set_decision(x as u32);
            self.decide_aux(x, 0);
            for &f in m.fi.of(x) {
                if self.tfi[f.index()] != epoch {
                    self.tfi[f.index()] = epoch;
                    self.stack.push(f.index() as u32);
                }
            }
        }
    }

    /// Marks gate `i`'s XOR-chain variables of one plane (0 good, 1
    /// faulty) as decision variables.
    fn decide_aux(&mut self, i: usize, plane: u32) {
        let m = self.miter;
        let count = xor_aux_count(m.kinds[i], m.fi.of(i).len());
        for v in 0..count {
            self.work.set_decision(m.aux[i] + plane * count + v);
        }
    }

    fn unit(&mut self, l: Lit) {
        self.add(&[l]);
    }

    fn add(&mut self, lits: &[Lit]) {
        self.clause.clear();
        self.clause.extend_from_slice(lits);
        self.work.add_clause(&mut self.clause);
    }

    /// The input cube of the last satisfiable check: each primary input
    /// in the checked cone's (or net's) transitive fanin takes its model
    /// value, every other input stays X. After [`SatVerdict::Testable`]
    /// every fill detects the fault; after [`ConstantVerdict::Toggles`]
    /// every fill drives the net to the other value.
    pub fn model_cube(&self) -> Cube {
        let m = self.miter;
        let mut cube = Cube::all_x(m.inputs.len());
        for (k, &i) in m.inputs.iter().enumerate() {
            if self.tfi[i as usize] == self.epoch {
                if let Some(v) = self.work.model_value(i) {
                    cube.set(k, Trit::from_bool(v));
                }
            }
        }
        cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Podem, PodemConfig, PodemOutcome};
    use fbist_fault::{reference, FaultList};
    use fbist_netlist::{bench, embedded};

    /// Checks every fault of `faults` against PODEM's resolved outcome at
    /// a large budget: a SAT model must detect its fault, UNSAT must never
    /// meet a PODEM test, SAT never a PODEM proof. Returns the verdict
    /// counts `[untestable, testable, unknown]`.
    fn check_against_podem(n: &Netlist, faults: &FaultList) -> [usize; 3] {
        let miter = FaultMiter::new(n).unwrap();
        let mut session = miter.session();
        let podem = Podem::with_config(
            n,
            PodemConfig {
                backtrack_limit: 2000,
            },
        )
        .unwrap();
        let mut counts = [0; 3];
        for (_, fault) in faults.iter() {
            let verdict = session.check(fault);
            let name = fault.describe(n);
            match (verdict, podem.generate(fault)) {
                (SatVerdict::Untestable, PodemOutcome::Test(cube)) => {
                    panic!("{name}: SAT proof contradicts PODEM test {cube}")
                }
                (SatVerdict::Testable, PodemOutcome::Untestable) => {
                    panic!("{name}: SAT model contradicts a PODEM proof")
                }
                _ => {}
            }
            if verdict == SatVerdict::Testable {
                let cube = session.model_cube();
                for fill in [false, true] {
                    assert!(
                        reference::naive_detects(n, fault, &cube.fill_const(fill)),
                        "{name}: the SAT cube {cube} (fill {fill}) does not detect the fault"
                    );
                }
            }
            counts[verdict as usize] += 1;
        }
        counts
    }

    #[test]
    fn embedded_circuits_are_all_testable() {
        for n in [embedded::c17(), embedded::adder4(), embedded::majority()] {
            let [untestable, testable, unknown] = check_against_podem(&n, &FaultList::full(&n));
            assert_eq!((untestable, unknown), (0, 0), "{}", n.name());
            assert!(testable > 0);
        }
    }

    #[test]
    fn redundancies_are_proven() {
        // y = OR(a, NOT a) ≡ 1; z's branch of the reconvergent a; w is a
        // wide XOR with a repeated net, exercising the auxiliary chain
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\nOUTPUT(w)\n\
                   na = NOT(a)\ny = OR(a, na)\nx = AND(a, b)\nz = AND(x, na)\n\
                   w = XOR(a, b, c, a)\n";
        let n = bench::parse(src).unwrap();
        let [untestable, testable, unknown] = check_against_podem(&n, &FaultList::full(&n));
        assert!(untestable >= 2, "{untestable} proven");
        assert!(testable > 0);
        assert_eq!(unknown, 0);
    }

    #[test]
    fn constant_nets_are_proven_and_toggling_nets_refuted() {
        // y = OR(a, NOT a) is constant 1; x = AND(a, b) takes both values
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(x)\n\
                   na = NOT(a)\ny = OR(a, na)\nx = AND(a, b)\n";
        let n = bench::parse(src).unwrap();
        let miter = FaultMiter::new(&n).unwrap();
        let mut session = miter.session();
        let (y, x) = (n.find("y").unwrap(), n.find("x").unwrap());
        assert_eq!(session.check_constant(y, true), ConstantVerdict::Constant);
        assert_eq!(session.check_constant(y, false), ConstantVerdict::Toggles);
        // a refutation's model cube drives the net to the other value
        let sim = fbist_sim::PackedSimulator::new(&n).unwrap();
        for v in [false, true] {
            assert_eq!(session.check_constant(x, v), ConstantVerdict::Toggles);
            let cube = session.model_cube();
            for fill in [false, true] {
                let (_, values) = sim.simulate_full(&cube.fill_const(fill));
                assert_eq!(values[x.index()], !v, "cube {cube}, fill {fill}");
            }
        }
    }

    #[test]
    fn a_spent_budget_is_unknown_never_a_constant() {
        // d = XOR(w, z) with twin XORs w and z is constant 0, but refuting
        // d = 1 takes a conflict: one is the whole budget here
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(d)\n\
                   w = XOR(b, a)\nz = XOR(a, b)\nd = XOR(w, z)\n";
        let n = bench::parse(src).unwrap();
        let miter = FaultMiter::new(&n).unwrap();
        let mut session = miter.session();
        let d = n.find("d").unwrap();
        assert_eq!(
            session.check_constant_with_budget(d, false, 1),
            ConstantVerdict::Unknown
        );
        assert_eq!(session.check_constant(d, false), ConstantVerdict::Constant);
    }

    #[test]
    fn c1908_quarter_verdicts_never_contradict_podem() {
        let profile = fbist_genbench::profile("c1908").unwrap().scaled(0.25);
        let n = fbist_genbench::generate(&profile, 1);
        let [untestable, testable, _] = check_against_podem(&n, &FaultList::collapsed(&n));
        assert!(untestable > 0 && testable > 0, "{untestable} / {testable}");
    }

    #[test]
    fn verdicts_are_a_pure_function_of_the_fault() {
        // one session over every fault, forwards and backwards, and a fresh
        // session per fault all agree
        let profile = fbist_genbench::profile("c1908").unwrap().scaled(0.25);
        let n = fbist_genbench::generate(&profile, 1);
        let faults = FaultList::collapsed(&n);
        let miter = FaultMiter::new(&n).unwrap();
        let mut session = miter.session();
        let forward: Vec<SatVerdict> = faults
            .iter()
            .map(|(_, f)| session.check_with_budget(f, 30))
            .collect();
        let mut backward: Vec<SatVerdict> = faults
            .iter()
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .map(|(_, f)| session.check_with_budget(f, 30))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // a constant check between two fault checks changes neither
        let interleaved: Vec<SatVerdict> = faults
            .iter()
            .enumerate()
            .map(|(k, (_, f))| {
                session.check_constant(GateId::from_index(k % n.gate_count()), k % 2 == 0);
                session.check_with_budget(f, 30)
            })
            .collect();
        assert_eq!(forward, interleaved);
        for (k, (_, f)) in faults.iter().enumerate().step_by(17) {
            assert_eq!(miter.session().check_with_budget(f, 30), forward[k]);
        }
    }
}
