//! Reference fault simulation, used as correctness oracles.
//!
//! Two oracles check the fanout-free-region simulator in
//! [`crate::FaultSimulator`]:
//!
//! * [`naive_detects`] re-implements fault detection in the most direct
//!   way possible — full circuit re-evaluation per (fault, pattern) pair
//!   with scalar booleans — orders of magnitude slower by design;
//! * [`ConeOracle`] is the bit-parallel per-fault path the region
//!   simulator replaced: every fault injected and swept event-wise
//!   through its own fanout cone, one detection word per block and fault.
//!
//! Do not use either for real workloads.

use fbist_bits::{pack, BitVec, SimWord};
use fbist_netlist::{GateId, GateKind, Netlist};
use fbist_sim::SimError;

use crate::model::{Fault, FaultList, FaultSite};
use crate::sim::{FaultSimulator, Scratch};

/// Per-fault cone propagation: each fault injected into a block of good
/// values and swept event-wise through its fanout cone until the faulty
/// values die out, the detection word read at the primary outputs.
///
/// This is the simulator's per-fault path before fanout-free regions,
/// kept as the oracle its detection words are checked against word for
/// word.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_fault::{reference::ConeOracle, FaultList, FaultSimulator};
/// use fbist_bits::BitVec;
///
/// let c17 = embedded::c17();
/// let faults = FaultList::collapsed(&c17);
/// let patterns: Vec<BitVec> = (0..32u64).map(|v| BitVec::from_u64(5, v)).collect();
/// let words = ConeOracle::new(&c17)?.block_words::<1>(&patterns, &faults);
/// let dict = FaultSimulator::new(&c17)?.dictionary(&patterns, &faults);
/// for (fid, _) in faults.iter() {
///     for p in 0..patterns.len() {
///         assert_eq!(words[0][fid.index()].lane(p), dict.get(p, fid.index()));
///     }
/// }
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConeOracle {
    sim: FaultSimulator,
}

impl ConeOracle {
    /// Builds the oracle for a combinational netlist.
    ///
    /// # Errors
    ///
    /// As [`FaultSimulator::new`].
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        Ok(ConeOracle {
            sim: FaultSimulator::new(netlist)?,
        })
    }

    /// Splits `patterns` into consecutive blocks of `64·W` and returns,
    /// per block and per fault of `faults` (in list order), the detection
    /// word: lane `k` of block `b` is 1 iff pattern `b·64·W + k` detects
    /// the fault. Lanes past the last pattern are 0.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the input count.
    pub fn block_words<const W: usize>(
        &self,
        patterns: &[BitVec],
        faults: &FaultList,
    ) -> Vec<Vec<SimWord<W>>> {
        let good_sim = self.sim.good_simulator();
        let mut good = good_sim.value_buffer::<W>();
        let mut scratch = Scratch::<W>::new(good.len());
        patterns
            .chunks(SimWord::<W>::LANES)
            .map(|chunk| {
                let pi_words = pack::pack_patterns::<W>(good_sim.input_count(), chunk);
                good_sim.eval_block_into(&pi_words, &mut good);
                scratch.next_block(&good);
                let lane_mask = pack::lane_mask::<W>(chunk.len());
                faults
                    .iter()
                    .map(|(_, fault)| self.propagate(&good, fault, &mut scratch) & lane_mask)
                    .collect()
            })
            .collect()
    }

    /// Injects `fault` into one block of good values and sweeps its own
    /// cone.
    fn propagate<const W: usize>(
        &self,
        good: &[SimWord<W>],
        fault: Fault,
        scratch: &mut Scratch<W>,
    ) -> SimWord<W> {
        let (origin, faulty) = self.sim.inject(good, fault);
        if faulty == good[origin] {
            return SimWord::ZERO; // never excited in this block
        }
        self.sim.sweep(good, origin, faulty, scratch)
    }
}

/// Evaluates every net of a combinational netlist for one pattern, with an
/// optional fault injected. Returns per-net boolean values.
///
/// # Panics
///
/// Panics if the netlist is sequential/invalid or the pattern width is
/// wrong.
pub fn evaluate(netlist: &Netlist, pattern: &BitVec, fault: Option<Fault>) -> Vec<bool> {
    assert!(
        netlist.is_combinational(),
        "reference sim is combinational-only"
    );
    assert_eq!(pattern.width(), netlist.inputs().len(), "pattern width");
    let order = netlist.levelize().expect("valid netlist");
    let mut values = vec![false; netlist.gate_count()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = pattern.get(k);
    }
    // apply output fault on a primary input immediately
    if let Some(f) = fault {
        if let FaultSite::GateOutput(g) = f.site() {
            if netlist.gate(g).kind() == GateKind::Input {
                values[g.index()] = f.stuck_value();
            }
        }
    }
    for &id in &order {
        let g = netlist.gate(id);
        if g.kind() == GateKind::Input {
            continue;
        }
        let read = |pin: usize, fid: GateId| -> bool {
            if let Some(f) = fault {
                if let FaultSite::GateInput { gate, pin: fpin } = f.site() {
                    if gate == id && fpin as usize == pin {
                        return f.stuck_value();
                    }
                }
            }
            values[fid.index()]
        };
        let fanin_vals: Vec<bool> = g
            .fanin()
            .iter()
            .enumerate()
            .map(|(p, &f)| read(p, f))
            .collect();
        let mut v = match g.kind() {
            GateKind::And => fanin_vals.iter().all(|&b| b),
            GateKind::Nand => !fanin_vals.iter().all(|&b| b),
            GateKind::Or => fanin_vals.iter().any(|&b| b),
            GateKind::Nor => !fanin_vals.iter().any(|&b| b),
            GateKind::Xor => fanin_vals.iter().filter(|&&b| b).count() % 2 == 1,
            GateKind::Xnor => fanin_vals.iter().filter(|&&b| b).count() % 2 == 0,
            GateKind::Not => !fanin_vals[0],
            GateKind::Buff => fanin_vals[0],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Input | GateKind::Dff => unreachable!(),
        };
        if let Some(f) = fault {
            if f.site() == FaultSite::GateOutput(id) {
                v = f.stuck_value();
            }
        }
        values[id.index()] = v;
    }
    values
}

/// `true` iff `pattern` detects `fault` (some primary output differs
/// between the good and the faulty circuit).
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_fault::{Fault, FaultSite, reference};
/// use fbist_bits::BitVec;
///
/// let c17 = embedded::c17();
/// let g = c17.find("22").unwrap();
/// let f = Fault::stuck_at(FaultSite::GateOutput(g), false);
/// // all-zero inputs drive 22 to 0, so stuck-at-0 there is NOT detected
/// assert!(!reference::naive_detects(&c17, f, &BitVec::zeros(5)));
/// ```
pub fn naive_detects(netlist: &Netlist, fault: Fault, pattern: &BitVec) -> bool {
    let good = evaluate(netlist, pattern, None);
    let bad = evaluate(netlist, pattern, Some(fault));
    netlist
        .outputs()
        .iter()
        .any(|o| good[o.index()] != bad[o.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::bench;

    #[test]
    fn good_evaluation_matches_truth_table() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
        let n = bench::parse(src).unwrap();
        for v in 0u64..4 {
            let p = BitVec::from_u64(2, v);
            let vals = evaluate(&n, &p, None);
            let y = n.find("y").unwrap();
            assert_eq!(vals[y.index()], v == 3);
        }
    }

    #[test]
    fn output_fault_on_pi() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n";
        let n = bench::parse(src).unwrap();
        let f = Fault::stuck_at(FaultSite::GateOutput(n.find("a").unwrap()), true);
        assert!(naive_detects(&n, f, &BitVec::zeros(1)));
        assert!(!naive_detects(&n, f, &BitVec::ones(1)));
    }

    #[test]
    fn input_pin_fault_localized() {
        let src = "INPUT(a)\nOUTPUT(x)\nOUTPUT(y)\nx = NOT(a)\ny = BUFF(a)\n";
        let n = bench::parse(src).unwrap();
        let x = n.find("x").unwrap();
        let f = Fault::stuck_at(FaultSite::GateInput { gate: x, pin: 0 }, true);
        // a=0: pin forced 1 -> x=0 (good x=1): detected via x, y unaffected
        let p = BitVec::zeros(1);
        let good = evaluate(&n, &p, None);
        let bad = evaluate(&n, &p, Some(f));
        assert_ne!(good[x.index()], bad[x.index()]);
        let y = n.find("y").unwrap();
        assert_eq!(good[y.index()], bad[y.index()]);
    }
}
