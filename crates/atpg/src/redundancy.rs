//! Redundancy identification with the SAT-completed ATPG, the prover
//! behind `fbist check`.
//!
//! Every stuck-at fault of the circuit's full-scan core is classified by
//! the default [`Atpg`] run (less compaction, which comes after every
//! verdict): detected, proven untestable (by the static pre-pass or a SAT
//! proof), or unknown (the SAT check ran out of its
//! [`CONFLICT_BUDGET`](crate::CONFLICT_BUDGET)). The run targets one
//! representative per structural equivalence class and its verdicts are
//! expanded over the classes, since equivalent faults share their test
//! sets. Within the budget the classification is exact: a fault that is
//! not untestable or unknown has a test.

use fbist_fault::collapse::collapse;
use fbist_fault::{FaultId, FaultList};
use fbist_netlist::{full_scan, GateId, Netlist};
use fbist_sim::SimError;

use crate::engine::{Atpg, AtpgConfig};

/// The redundancy [`prove_redundancy`] finds in one circuit.
#[derive(Debug, Clone)]
pub struct Redundancy {
    /// The netlist the verdicts refer to: the circuit itself when it is
    /// combinational, else its full-scan core.
    pub netlist: Netlist,
    /// Every stuck-at fault of [`Redundancy::netlist`]
    /// ([`FaultList::full`]).
    pub faults: FaultList,
    /// The faults proven untestable, in list order.
    pub untestable: Vec<FaultId>,
    /// The faults neither tested nor proven untestable, in list order: the
    /// SAT check ran out of budget. None of them is in `untestable`.
    pub unknown: Vec<FaultId>,
    /// The non-source nets proven constant, as `(net, value)` in net
    /// order (see [`Atpg::constant_nets`]).
    pub constants: Vec<(GateId, bool)>,
}

/// Classifies every stuck-at fault of `netlist` (full-scanned if it is
/// sequential) with the default ATPG run, uncompacted, on `jobs` workers
/// (`0` = the process-wide pool default), and proves its constant nets.
/// Results are identical at every `jobs`.
///
/// # Errors
///
/// Returns [`SimError::Netlist`] for a netlist that fails validation.
pub fn prove_redundancy(netlist: &Netlist, jobs: usize) -> Result<Redundancy, SimError> {
    netlist.validate()?;
    let netlist = if netlist.is_combinational() {
        netlist.clone()
    } else {
        full_scan(netlist).into_combinational()
    };
    let atpg = Atpg::new(&netlist)?;
    let faults = FaultList::full(&netlist);
    let classes = collapse(&netlist, &faults);
    let result = atpg.run(
        &classes.representatives,
        &AtpgConfig {
            jobs,
            compact: false,
            ..AtpgConfig::default()
        },
    );
    let members = |reps: &[FaultId]| {
        let mut hit = vec![false; classes.representatives.len()];
        for id in reps {
            hit[id.index()] = true;
        }
        (0..faults.len())
            .filter(|&i| hit[classes.class_of[i]])
            .map(FaultId::from_index)
            .collect::<Vec<_>>()
    };
    let untestable = members(&result.untestable);
    let unknown = members(&result.aborted);
    let constants = atpg.constant_nets(&result.patterns);
    Ok(Redundancy {
        netlist,
        faults,
        untestable,
        unknown,
        constants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::{bench, embedded};

    fn described(r: &Redundancy, ids: &[FaultId]) -> Vec<String> {
        ids.iter()
            .map(|&id| r.faults.get(id).describe(&r.netlist))
            .collect()
    }

    #[test]
    fn twin_xor_constant_and_its_faults_are_proven() {
        // d = XOR(w, z) of twin XORs is constant 0: d/0 is untestable,
        // and so is every fault whose effect d's XOR cancels
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(d)\n\
                   w = XOR(a, b)\nz = XOR(b, a)\nd = XOR(w, z)\n";
        let n = bench::parse(src).unwrap();
        let r = prove_redundancy(&n, 1).unwrap();
        assert_eq!(r.constants, vec![(n.find("d").unwrap(), false)]);
        let named = described(&r, &r.untestable);
        assert!(named.contains(&"d/0".to_owned()), "{named:?}");
        assert!(!named.contains(&"d/1".to_owned()), "{named:?}");
        assert!(r.unknown.is_empty());
    }

    #[test]
    fn sequential_circuits_are_proven_on_their_full_scan_core() {
        let n = embedded::johnson3();
        let r = prove_redundancy(&n, 1).unwrap();
        assert!(r.netlist.is_combinational());
        assert_eq!(r.faults.len(), FaultList::full(&r.netlist).len());
        assert!(r.unknown.is_empty());
    }
}
