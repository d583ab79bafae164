//! FIRE-style fault-independent identification of untestable faults.
//!
//! For every stuck-at fault the pass assumes the *necessary* good-machine
//! conditions for detection and asks the implication engine whether they
//! are jointly satisfiable:
//!
//! * a stem fault `s/v` needs `s = v̄` (excitation) and a structural path
//!   from `s` to an observation point (observability);
//! * a pin fault on pin `p` of gate `g` with driver `d` needs `d = v̄`,
//!   every *other* pin of `g` at a non-controlling value (the effect must
//!   pass through `g` — side pins cannot carry it), and therefore `g`'s
//!   output at the value those pins force.
//!
//! A contradiction proves no test exists, so the fault is untestable. The
//! verdicts are then closed over structural equivalence classes from
//! [`fbist_fault::collapse`]: equivalent faults share their exact test
//! sets, so one proven member settles the whole class, and the pass
//! queries no further member of a class it has proven.
//!
//! The caller may also hand the pass nets proven constant under every
//! input (the ATPG engine proves them with its SAT fault miter, see
//! `fbist_atpg::MiterSession::check_constant`). They join the implication
//! baseline, so every query starts from them, and the observability pass
//! treats them like `CONST`-driven nets: a constant at a gate's
//! controlling value blocks the gate's other pins. Without constants the
//! caller passes an empty slice.
//!
//! Everything proven here is sound; the pass is deliberately incomplete
//! (a `false` entry means "not proven", not "testable"). The ATPG engine
//! runs it before PODEM, whose searches the SAT fault miter completes:
//! `fbist_atpg::prove_redundancy` classifies every fault exactly.

use fbist_fault::collapse::collapse;
use fbist_fault::{FaultList, FaultSite};
use fbist_netlist::{GateId, GateKind, Netlist, NetlistError};

use crate::implication::Implicator;
use crate::structure::Structure;

/// Marks the faults of `faults` that are statically provably untestable,
/// given `constants`: `(net, value)` pairs that hold under every input
/// pattern (pass `&[]` when none are known).
///
/// Returns a mask parallel to the fault list: `mask[i]` is `true` iff
/// fault `i` is proven untestable. Sound and conservative — `false`
/// only means the cheap analysis could not decide. More constants only
/// ever prove more faults.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn untestable_faults(
    netlist: &Netlist,
    faults: &FaultList,
    constants: &[(GateId, bool)],
) -> Result<Vec<bool>, NetlistError> {
    let mut imp = Implicator::with_constants(netlist, constants)?;
    let order = netlist.levelize()?;
    let structure = Structure::compute(netlist, &order, imp.baseline_constants());
    let collapsed = collapse(netlist, faults);
    let mut class_proven = vec![false; collapsed.representatives.len()];

    let mut assumptions = Vec::with_capacity(8);
    for (id, fault) in faults.iter() {
        let class = collapsed.class_of[id.index()];
        if class_proven[class] {
            continue;
        }
        let v = fault.stuck_value();
        assumptions.clear();
        let proven = match fault.site() {
            FaultSite::GateOutput(s) => {
                // Unobservable stem, or excitation (s = v̄) impossible.
                if !structure.obs[s.index()] {
                    true
                } else {
                    assumptions.push((s, !v));
                    imp.contradicts(&assumptions)
                }
            }
            FaultSite::GateInput { gate, pin } => {
                let g = netlist.gate(gate);
                if !structure.obs[gate.index()] && g.kind() != GateKind::Dff {
                    true
                } else {
                    let d = g.fanin()[pin as usize];
                    assumptions.push((d, !v));
                    match g.kind().controlling_value() {
                        Some(c) => {
                            // Side pins must sit at the non-controlling
                            // value for the effect to pass through g,
                            // which then fixes g's good output too.
                            for (p, &side) in g.fanin().iter().enumerate() {
                                if p != pin as usize {
                                    assumptions.push((side, !c));
                                }
                            }
                            let out = v == g.kind().is_inverting();
                            assumptions.push((gate, out));
                        }
                        None => {
                            if matches!(g.kind(), GateKind::Not | GateKind::Buff) {
                                let out = v == g.kind().is_inverting();
                                assumptions.push((gate, out));
                            }
                            // XOR family: any side values propagate, and
                            // the output depends on them — only the
                            // excitation condition is necessary. DFF D
                            // pins likewise get excitation only.
                        }
                    }
                    imp.contradicts(&assumptions)
                }
            }
        };
        class_proven[class] |= proven;
    }

    // Close the verdicts over structural equivalence classes.
    Ok(collapsed
        .class_of
        .iter()
        .map(|&class| class_proven[class])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_fault::Fault;
    use fbist_netlist::bench;

    fn proven(src: &str) -> (Vec<bool>, FaultList, Netlist) {
        let n = bench::parse(src).unwrap();
        let faults = FaultList::full(&n);
        let mask = untestable_faults(&n, &faults, &[]).unwrap();
        (mask, faults, n)
    }

    fn describe_proven(mask: &[bool], faults: &FaultList, n: &Netlist) -> Vec<String> {
        faults
            .iter()
            .filter(|(id, _)| mask[id.index()])
            .map(|(_, f)| f.describe(n))
            .collect()
    }

    #[test]
    fn irredundant_circuit_has_no_untestable_faults() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";
        let (mask, _, _) = proven(src);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn classic_redundancy_is_proven() {
        // y = OR(a, NOT a) is constant 1: y/1 can't be excited, and the
        // pin faults needing the sibling non-controlling contradict too.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let (mask, faults, n) = proven(src);
        let named = describe_proven(&mask, &faults, &n);
        assert!(named.contains(&"y/1".to_owned()), "{named:?}");
        // The sa-0 pin faults and y/0 flip the always-1 output, so they
        // ARE detectable and must not be claimed.
        assert!(!named.contains(&"a->y.0/0".to_owned()), "{named:?}");
        assert!(!named.contains(&"y/0".to_owned()), "{named:?}");
    }

    #[test]
    fn unobservable_cone_is_untestable() {
        // w = AND(y, CONST0): every fault on y's cone is unobservable.
        let src = "INPUT(a)\nOUTPUT(w)\nz = CONST0()\ny = NOT(a)\nw = AND(y, z)\n";
        let (mask, faults, n) = proven(src);
        let named = describe_proven(&mask, &faults, &n);
        assert!(named.contains(&"y/0".to_owned()), "{named:?}");
        assert!(named.contains(&"y/1".to_owned()), "{named:?}");
        assert!(named.contains(&"a/0".to_owned()), "{named:?}");
        // w/1 is excitable? w is constant 0; stuck-at-1 flips the PO:
        // detectable. w/0 agrees with the constant: untestable.
        assert!(named.contains(&"w/0".to_owned()), "{named:?}");
        assert!(!named.contains(&"w/1".to_owned()), "{named:?}");
    }

    #[test]
    fn same_net_on_both_pins_is_untestable() {
        // y = AND(a, a): a pin fault needs the other pin non-controlling
        // while its own driver is controlling — same net, contradiction.
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n";
        let (mask, faults, n) = proven(src);
        let named = describe_proven(&mask, &faults, &n);
        assert!(named.contains(&"a->y.0/1".to_owned()), "{named:?}");
        assert!(named.contains(&"a->y.1/1".to_owned()), "{named:?}");
        // stuck-at-0 pin faults collapse with y/0, which is testable.
        assert!(!named.contains(&"y/0".to_owned()), "{named:?}");
    }

    #[test]
    fn verdicts_close_over_equivalence_classes() {
        // In y = OR(a, na), pin fault a->y.0/1 is equivalent to y/1
        // (OR input sa-1 ≡ output sa-1); y/1 is proven, so the class is.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let (mask, faults, n) = proven(src);
        let named = describe_proven(&mask, &faults, &n);
        assert!(named.contains(&"a->y.0/1".to_owned()), "{named:?}");
        assert!(named.contains(&"na->y.1/1".to_owned()), "{named:?}");
    }

    #[test]
    fn shared_constant_cone_faults_are_not_claimed() {
        // t1 and t2 are both constant controlling pins of h but share
        // the driver s: s/1 (and c/1, h/1) flips h 0 -> 1 on every
        // pattern, so they are detectable and must never be proven.
        // s/0 and h/0 agree with the baseline constant: untestable.
        let src = "OUTPUT(h)\nc = CONST0()\ns = BUFF(c)\n\
                   t1 = BUFF(s)\nt2 = BUFF(s)\nh = AND(t1, t2)\n";
        let (mask, faults, n) = proven(src);
        let named = describe_proven(&mask, &faults, &n);
        for f in ["s/1", "c/1", "h/1"] {
            assert!(!named.contains(&f.to_owned()), "{f} claimed: {named:?}");
        }
        for f in ["s/0", "h/0"] {
            assert!(named.contains(&f.to_owned()), "{f} missing: {named:?}");
        }
    }

    #[test]
    fn proven_faults_are_never_detected_by_exhaustive_patterns() {
        // Exhaustive check on a small redundant circuit: no input pattern
        // detects any proven-untestable fault.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(w)\n\
                   na = NOT(a)\nr = OR(a, na)\ny = AND(r, b)\nw = NAND(a, b)\n";
        let n = bench::parse(src).unwrap();
        let faults = FaultList::full(&n);
        let mask = untestable_faults(&n, &faults, &[]).unwrap();
        assert!(mask.iter().any(|&m| m), "expected some proven faults");
        let order = n.levelize().unwrap();
        for (id, f) in faults.iter() {
            if !mask[id.index()] {
                continue;
            }
            for pat in 0u32..4 {
                let assign = |i: usize| (pat >> i) & 1 == 1;
                let good = eval_all(&n, &order, None, assign);
                let bad = eval_all(&n, &order, Some(f), assign);
                for &o in n.outputs() {
                    assert_eq!(
                        good[o.index()],
                        bad[o.index()],
                        "fault {} detected by pattern {pat:02b}",
                        f.describe(&n)
                    );
                }
            }
        }
    }

    /// Tiny single-pattern true-value simulator with optional fault
    /// injection, for exhaustive cross-checks.
    fn eval_all(
        n: &Netlist,
        order: &[fbist_netlist::GateId],
        fault: Option<Fault>,
        assign: impl Fn(usize) -> bool,
    ) -> Vec<bool> {
        let mut val = vec![false; n.gate_count()];
        for &id in order {
            let g = n.gate(id);
            let mut v = match g.kind() {
                GateKind::Input => assign(n.input_position(id).expect("input")),
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                GateKind::Dff => false,
                kind => {
                    let pins: Vec<u64> = g
                        .fanin()
                        .iter()
                        .enumerate()
                        .map(|(p, f)| {
                            let mut b = val[f.index()];
                            if let Some(flt) = fault {
                                if flt.site()
                                    == (FaultSite::GateInput {
                                        gate: id,
                                        pin: p as u32,
                                    })
                                {
                                    b = flt.stuck_value();
                                }
                            }
                            b as u64
                        })
                        .collect();
                    fbist_netlist::eval_packed(kind, &pins) & 1 == 1
                }
            };
            if let Some(flt) = fault {
                if flt.site() == FaultSite::GateOutput(id) {
                    v = flt.stuck_value();
                }
            }
            val[id.index()] = v;
        }
        val
    }
}
