//! A static implication engine over the two-bit Kleene domain ([`Tv`]).
//!
//! Each net holds a two-bit set of the binary values it may still take:
//! `0b01` = only 0, `0b10` = only 1, `0b11` = unknown (X). Assumptions
//! intersect sets; an empty intersection is a contradiction, proving the
//! assumed scenario impossible in the fault-free circuit. The engine
//! propagates *direct* implications — forward gate evaluation plus the
//! classical backward rules (all-inputs forced, last-free-input forced,
//! parity completion) — to a fixpoint. It is deliberately incomplete (no
//! learning, no recursion): everything it proves is sound, cheap, and
//! fault-independent, which is exactly what the FIRE-style untestability
//! pre-pass in [`crate::untestable`] needs. What it cannot prove, the SAT
//! fault miter of `fbist-atpg` decides.
//!
//! Queries are epoch-stamped overlays over a baseline computed once by
//! constant propagation from `CONST0`/`CONST1` gates and from any proven
//! constant nets the caller supplies ([`Implicator::with_constants`]), so
//! thousands of per-fault queries reuse the same allocation with
//! O(changed) reset cost.

use fbist_netlist::{
    eval_tv, tv_from_bool, tv_not, GateId, GateKind, Netlist, NetlistError, Tv, TV_ONE, TV_X,
    TV_ZERO,
};

#[inline]
fn tv_definite(v: Tv) -> Option<bool> {
    match v {
        TV_ZERO => Some(false),
        TV_ONE => Some(true),
        _ => None,
    }
}

/// The implication engine. Create once per netlist, query many times.
pub struct Implicator {
    kinds: Vec<GateKind>,
    fanin: Vec<Vec<u32>>,
    fanout: Vec<Vec<u32>>,
    /// Baseline values (constant propagation from CONST gates).
    base: Vec<Tv>,
    /// Per-query overlay, valid where `stamp == epoch`.
    cur: Vec<Tv>,
    stamp: Vec<u32>,
    /// "In worklist" marker, valid where `queued == epoch`.
    queued: Vec<u32>,
    epoch: u32,
    queue: Vec<u32>,
    /// Nets written for the first time in the current epoch: the nets
    /// [`Implicator::with_constants`] copies into the baseline.
    touched: Vec<u32>,
    contra: bool,
}

impl Implicator {
    /// Builds the engine, computing the constant-propagation baseline.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists —
    /// implications are only meaningful on a DAG.
    pub fn new(netlist: &Netlist) -> Result<Implicator, NetlistError> {
        Implicator::with_constants(netlist, &[])
    }

    /// Builds the engine with `constants` in the baseline: each
    /// `(net, value)` pair fixes the net, and the baseline also holds
    /// every value the pairs imply. Every pair must hold under every
    /// input pattern (a SAT-proven constant, say), or the engine's proofs
    /// are unsound.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    ///
    /// # Panics
    ///
    /// Panics if the pairs imply a contradiction, which no set of true
    /// constants does.
    pub(crate) fn with_constants(
        netlist: &Netlist,
        constants: &[(GateId, bool)],
    ) -> Result<Implicator, NetlistError> {
        let order = netlist.levelize()?;
        let n = netlist.gate_count();
        let kinds = netlist.kinds();
        let fanin: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                netlist
                    .gate(GateId::from_index(i))
                    .fanin()
                    .iter()
                    .map(|f| f.index() as u32)
                    .collect()
            })
            .collect();
        let fanout: Vec<Vec<u32>> = netlist
            .fanouts()
            .into_iter()
            .map(|fo| fo.into_iter().map(|g| g.index() as u32).collect())
            .collect();
        let mut base = vec![TV_X; n];
        for &id in &order {
            let i = id.index();
            base[i] = match kinds[i] {
                GateKind::Input | GateKind::Dff => TV_X,
                GateKind::Const0 => TV_ZERO,
                GateKind::Const1 => TV_ONE,
                k => eval_tv(k, fanin[i].len(), |p| base[fanin[i][p] as usize]),
            };
        }
        let mut imp = Implicator {
            kinds,
            fanin,
            fanout,
            cur: base.clone(),
            base,
            stamp: vec![0; n],
            queued: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
            touched: Vec::new(),
            contra: false,
        };
        // The given constants join the baseline with everything they
        // imply, forwards and backwards. Forward evaluation from `CONST`
        // gates leaves a baseline every rule already holds on; so does
        // this fixpoint, and a query can then only ever narrow more than
        // it would from a baseline without the constants.
        if !constants.is_empty() {
            imp.begin();
            for &(net, v) in constants {
                imp.set(net.index(), tv_from_bool(v));
            }
            imp.propagate();
            assert!(!imp.contra, "the given constants contradict the circuit");
            for &i in &imp.touched {
                imp.base[i as usize] = imp.cur[i as usize];
            }
        }
        Ok(imp)
    }

    /// The baseline constant value of every net: `Some(v)` where constant
    /// propagation from `CONST` gates and the given constants fixes the
    /// net, `None` otherwise.
    pub fn baseline_constants(&self) -> Vec<Option<bool>> {
        self.base.iter().map(|&v| tv_definite(v)).collect()
    }

    /// `true` if simultaneously assuming every `(net, value)` pair leads to
    /// a contradiction in the fault-free circuit — i.e. the scenario is
    /// provably impossible.
    pub fn contradicts(&mut self, assumptions: &[(GateId, bool)]) -> bool {
        self.begin();
        for &(g, v) in assumptions {
            self.set(g.index(), tv_from_bool(v));
        }
        self.propagate();
        self.contra
    }

    /// Proves a net constant, if possible: `Some(v)` when the net is fixed
    /// to `v` either by baseline constant propagation or because assuming
    /// the opposite value is contradictory.
    pub fn implied_constant(&mut self, net: GateId) -> Option<bool> {
        if let Some(v) = tv_definite(self.base[net.index()]) {
            return Some(v);
        }
        if self.contradicts(&[(net, true)]) {
            Some(false)
        } else if self.contradicts(&[(net, false)]) {
            Some(true)
        } else {
            None
        }
    }

    fn begin(&mut self) {
        if self.epoch == u32::MAX - 1 {
            // Practically unreachable; reset the stamps rather than wrap.
            self.stamp.fill(0);
            self.queued.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
        self.touched.clear();
        self.contra = false;
    }

    #[inline]
    fn value(&self, i: usize) -> Tv {
        if self.stamp[i] == self.epoch {
            self.cur[i]
        } else {
            self.base[i]
        }
    }

    /// Intersects `v` into net `i`'s value set, recording a contradiction
    /// if it becomes empty and scheduling affected gates otherwise.
    fn set(&mut self, i: usize, v: Tv) {
        if self.contra {
            return;
        }
        let old = self.value(i);
        let nv = old & v;
        if nv == old {
            return;
        }
        if nv == 0 {
            self.contra = true;
            return;
        }
        if self.stamp[i] != self.epoch {
            self.touched.push(i as u32);
        }
        self.cur[i] = nv;
        self.stamp[i] = self.epoch;
        self.enqueue(i);
        for k in 0..self.fanout[i].len() {
            let f = self.fanout[i][k] as usize;
            self.enqueue(f);
        }
    }

    #[inline]
    fn enqueue(&mut self, g: usize) {
        if self.queued[g] != self.epoch {
            self.queued[g] = self.epoch;
            self.queue.push(g as u32);
        }
    }

    fn propagate(&mut self) {
        while !self.contra {
            let g = match self.queue.pop() {
                Some(g) => g as usize,
                None => break,
            };
            self.queued[g] = 0; // allow re-scheduling if new info arrives
            self.process(g);
        }
    }

    /// Forward-evaluates gate `g` and applies its backward rules.
    fn process(&mut self, g: usize) {
        let kind = self.kinds[g];
        match kind {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => return,
            _ => {}
        }
        // Forward: the output is compatible with evaluating current pins.
        let np = self.fanin[g].len();
        let fwd = eval_tv(kind, np, |p| self.value(self.fanin[g][p] as usize));
        self.set(g, fwd);
        if self.contra {
            return;
        }
        // Backward: what the output value forces onto the pins.
        let out = self.value(g);
        match kind {
            GateKind::Not => {
                let d = self.fanin[g][0] as usize;
                self.set(d, tv_not(out));
            }
            GateKind::Buff => {
                let d = self.fanin[g][0] as usize;
                self.set(d, out);
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let ctrl = tv_from_bool(kind.controlling_value().expect("and/or family"));
                let noncontrol = tv_not(ctrl);
                let base_out = if kind.is_inverting() {
                    tv_not(out)
                } else {
                    out
                };
                if base_out == noncontrol {
                    // e.g. AND output 1: every input must be 1.
                    for p in 0..np {
                        let d = self.fanin[g][p] as usize;
                        self.set(d, noncontrol);
                        if self.contra {
                            return;
                        }
                    }
                } else if base_out == ctrl {
                    // e.g. AND output 0 with all pins but one already 1:
                    // the remaining pin must be 0.
                    let mut candidate = None;
                    for p in 0..np {
                        if self.value(self.fanin[g][p] as usize) != noncontrol {
                            if candidate.is_some() {
                                return; // more than one pin could control
                            }
                            candidate = Some(p);
                        }
                    }
                    if let Some(p) = candidate {
                        let d = self.fanin[g][p] as usize;
                        self.set(d, ctrl);
                    }
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let out_b = match tv_definite(out) {
                    Some(b) => b,
                    None => return,
                };
                // Parity completion: with exactly one X pin, it is forced.
                let mut parity = false;
                let mut free = None;
                for p in 0..np {
                    match tv_definite(self.value(self.fanin[g][p] as usize)) {
                        Some(b) => parity ^= b,
                        None => {
                            if free.is_some() {
                                return;
                            }
                            free = Some(p);
                        }
                    }
                }
                if let Some(p) = free {
                    let need = if kind == GateKind::Xnor {
                        !out_b
                    } else {
                        out_b
                    };
                    let d = self.fanin[g][p] as usize;
                    self.set(d, tv_from_bool(need ^ parity));
                }
            }
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::bench;

    fn imp(src: &str) -> (Implicator, fbist_netlist::Netlist) {
        let n = bench::parse(src).unwrap();
        (Implicator::new(&n).unwrap(), n)
    }

    #[test]
    fn baseline_constant_propagation() {
        let src = "INPUT(a)\nOUTPUT(y)\nz = CONST0()\nw = AND(a, z)\ny = OR(w, a)\n";
        let (imp, n) = imp(src);
        let consts = imp.baseline_constants();
        assert_eq!(consts[n.find("z").unwrap().index()], Some(false));
        assert_eq!(consts[n.find("w").unwrap().index()], Some(false));
        assert_eq!(consts[n.find("y").unwrap().index()], None);
    }

    #[test]
    fn conflicting_reconvergence_contradicts() {
        // y = AND(a, NOT a) can never be 1.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = AND(a, na)\n";
        let (mut imp, n) = imp(src);
        let y = n.find("y").unwrap();
        assert!(imp.contradicts(&[(y, true)]));
        assert!(!imp.contradicts(&[(y, false)]));
        assert_eq!(imp.implied_constant(y), Some(false));
        assert_eq!(imp.implied_constant(n.find("a").unwrap()), None);
    }

    #[test]
    fn backward_last_free_input() {
        // y = OR(a, b): y=1 with a=0 forces b=1; asking also b=0 contradicts.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n";
        let (mut imp, n) = imp(src);
        let (a, b, y) = (
            n.find("a").unwrap(),
            n.find("b").unwrap(),
            n.find("y").unwrap(),
        );
        assert!(imp.contradicts(&[(y, true), (a, false), (b, false)]));
        assert!(!imp.contradicts(&[(y, true), (a, false)]));
    }

    #[test]
    fn xor_parity_completion() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n";
        let (mut imp, n) = imp(src);
        let (a, b, y) = (
            n.find("a").unwrap(),
            n.find("b").unwrap(),
            n.find("y").unwrap(),
        );
        assert!(imp.contradicts(&[(y, true), (a, true), (b, true)]));
        assert!(!imp.contradicts(&[(y, true), (a, true), (b, false)]));
    }

    #[test]
    fn queries_are_independent() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n";
        let (mut imp, n) = imp(src);
        let (a, y) = (n.find("a").unwrap(), n.find("y").unwrap());
        for _ in 0..100 {
            assert!(imp.contradicts(&[(a, true), (y, false)]));
            assert!(!imp.contradicts(&[(a, true), (y, true)]));
        }
    }

    #[test]
    fn dff_is_a_free_source() {
        // Sequential feedback never makes the single-timeframe engine loop
        // or conclude anything about Q from D.
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n";
        let (mut imp, n) = imp(src);
        let q = n.find("q").unwrap();
        assert!(!imp.contradicts(&[(q, true)]));
        assert!(!imp.contradicts(&[(q, false)]));
    }
}
