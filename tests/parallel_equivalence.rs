//! Differential suite pinning the parallel pipeline to the sequential one.
//!
//! For **every** genbench profile (scaled to a small, fast gate budget —
//! the parallel machinery is identical at every size) and for a TPG from
//! each family (accumulator-based `add`, LFSR-based `lfsr`), the `jobs=4`
//! flow must produce
//!
//! 1. a byte-identical Detection Matrix,
//! 2. an identical reduction anatomy (essential rows, residual, event
//!    log), and
//! 3. an identical final cover / [`ReseedingReport`]
//!
//! compared to `jobs=1` with the same seed. This is the workspace's
//! determinism-under-parallelism contract: job counts may only change
//! wall-clock time, never a single bit of any artefact.

use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::Netlist;
use fbist_setcover::reduce;
use set_covering_reseeding::prelude::*;

/// Gate budget the profiles are scaled down to: the suite exercises every
/// interface shape (up to 207 scan inputs) while staying test-fast.
const GATE_BUDGET: f64 = 70.0;

const TAU: usize = 7;

fn small(p: &CircuitProfile) -> CircuitProfile {
    let factor = (GATE_BUDGET / p.gates as f64).min(1.0);
    p.scaled(factor)
}

fn circuit(p: &CircuitProfile) -> Netlist {
    let n = generate(&small(p), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

fn assert_equivalent(netlist: &Netlist, tpg: TpgKind, label: &str) {
    let base = FlowConfig::new(tpg).with_tau(TAU);
    let flow = ReseedingFlow::new(netlist).expect("combinational circuit");

    // 1. byte-identical Detection Matrix
    let init1 = flow.builder().build(&base.clone().with_jobs(1));
    let init4 = flow.builder().build(&base.clone().with_jobs(4));
    assert_eq!(init1.triplets, init4.triplets, "{label}: triplets differ");
    assert_eq!(
        init1.matrix.row_major(),
        init4.matrix.row_major(),
        "{label}: Detection Matrix differs between jobs=1 and jobs=4"
    );

    // 2. identical reduction anatomy on that matrix
    let red1 = reduce(&init1.matrix, &base.solve.reducer);
    let red4 = reduce(&init4.matrix, &base.solve.reducer);
    assert_eq!(red1, red4, "{label}: reduction anatomy differs");

    // 3. identical final cover and report, end to end
    let report1 = flow.run(&base.clone().with_jobs(1));
    let report4 = flow.run(&base.clone().with_jobs(4));
    assert_eq!(report1, report4, "{label}: final report differs");
    assert!(report1.covers_all_target_faults(), "{label}: must cover F");
}

#[test]
fn every_profile_is_jobs_invariant_with_accumulator_tpg() {
    for p in all_profiles() {
        let n = circuit(&p);
        assert_equivalent(&n, TpgKind::Adder, &p.name);
    }
}

#[test]
fn every_profile_is_jobs_invariant_with_lfsr_tpg() {
    for p in all_profiles() {
        let n = circuit(&p);
        assert_equivalent(&n, TpgKind::Lfsr, &p.name);
    }
}

#[test]
fn sweep_and_gatsby_are_jobs_invariant_end_to_end() {
    // the two remaining parallel inner loops, exercised through their
    // public entry points on one representative profile
    let p = genbench_profile("mid256").unwrap();
    let n = circuit(&p);

    let taus = [0, 3, 15];
    let curve1 = tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Adder).with_jobs(1), &taus).unwrap();
    let curve4 = tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Adder).with_jobs(4), &taus).unwrap();
    assert_eq!(curve1, curve4, "sweep curve differs between job counts");

    let faults = FaultList::collapsed(&n);
    let g = Gatsby::new(&n).unwrap();
    let cfg = |jobs| GatsbyConfig {
        jobs,
        max_rounds: 24,
        ..GatsbyConfig::default()
    };
    let g1 = g.run(&faults, &cfg(1));
    let g4 = g.run(&faults, &cfg(4));
    assert_eq!(g1.triplets, g4.triplets, "GATSBY triplets differ");
    assert_eq!(g1.test_length, g4.test_length);
    assert_eq!(g1.covered, g4.covered);
    assert_eq!(g1.fault_sim_calls, g4.fault_sim_calls);
}

#[test]
fn simulation_counters_are_jobs_invariant() {
    // blocks, lanes and the region simulator's root sweeps against fault
    // evaluations are pure functions of the work: every block range runs
    // its own memo, so the pool's scheduling cannot move a count
    let p = genbench_profile("mid256").unwrap();
    let n = circuit(&p);
    let counters = |jobs| {
        let flow = ReseedingFlow::new(&n).expect("combinational circuit");
        let cfg = FlowConfig::new(TpgKind::Adder)
            .with_tau(TAU)
            .with_jobs(jobs);
        flow.run(&cfg);
        tradeoff_sweep_with(&flow, &cfg, &[0, 7, 31]);
        let fsim = flow.builder().fault_simulator();
        (fsim.good_simulator().occupancy(), fsim.cone_sweeps())
    };
    let (occupancy, sweeps) = counters(1);
    assert_eq!(
        (occupancy, sweeps),
        counters(4),
        "counters differ between jobs=1 and jobs=4"
    );
    assert!(
        0 < sweeps.roots && sweeps.roots < sweeps.faults,
        "{sweeps:?}"
    );
}
