//! Differential suite pinning the Detection-Matrix build — cross-row
//! batched, with patterns expanded per block range — to the per-row
//! fault-simulation oracle.
//!
//! For **every** genbench profile (scaled to a small, fast gate budget —
//! the batching machinery is identical at every size), a TPG from each
//! family (accumulator-based `add`, LFSR-based `lfsr`), `jobs ∈ {1, 4}`
//! and `τ ∈ {0, 3, 31, 63}`, every row of `matrix_for`'s Detection
//! Matrix must equal [`FaultSimulator::detects`] on that triplet's own
//! expansion, and at `τ = 63` every index of
//! `first_detection_matrix_for` must equal [`FaultSimulator::run`]'s
//! first detection. The per-row calls share nothing with the build but
//! the simulator's gate kernels: no plan, no lane groups, no masked
//! dropping, no block-range partition — so the build may only change
//! wall-clock time, never a single bit of any artefact. It is a
//! cross-width check too: the build plans all rows together, so the
//! simulator's width rule widens it (to 8 words on most profiles),
//! while a row alone has at most 64 lanes and runs at width 1.
//!
//! The suite also pins the build's reason to exist: on every profile
//! scaled to a uniform instance size, the batched planner packs the τ=3
//! pattern streams into 64-lane words at ≥ 90 % occupancy (a row
//! simulated alone is stuck at `(τ+1)/64 = 6.25 %`), and the
//! `PackedSimulator` lane counters agree with the plan.
//!
//! [`FaultSimulator::detects`]: set_covering_reseeding::fault::FaultSimulator::detects
//! [`FaultSimulator::run`]: set_covering_reseeding::fault::FaultSimulator::run

use fbist_fault::BatchPlan;
use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::Netlist;
use set_covering_reseeding::prelude::*;

/// Gate budget for the equivalence half: exercises every interface shape
/// while staying test-fast.
const GATE_BUDGET: f64 = 70.0;

/// Uniform gate target for the occupancy half: large enough that every
/// profile's ATPG yields a pattern stream whose final shared block no
/// longer dominates the lane count.
const OCCUPANCY_GATES: f64 = 600.0;

/// Below one block, half a block, and exactly one 64-lane block per row.
const TAUS: [usize; 4] = [0, 3, 31, 63];

fn circuit_at(p: &CircuitProfile, factor: f64) -> Netlist {
    let n = generate(&p.scaled(factor), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

fn small(p: &CircuitProfile) -> Netlist {
    circuit_at(p, (GATE_BUDGET / p.gates as f64).min(1.0))
}

/// `matrix_for` against per-row `detects` across jobs × τ, and
/// `first_detection_matrix_for` at τ = 63 against per-row `run`, on one
/// shared ATPG run (exactly how the τ-sweep reuses it).
fn assert_build_matches_oracle(netlist: &Netlist, tpg_kind: TpgKind, label: &str) {
    let cfg = FlowConfig::new(tpg_kind);
    let builder = InitialReseedingBuilder::new(netlist).expect("combinational circuit");
    let base = builder.atpg_base(&cfg);
    let (patterns, faults) = (&base.atpg.patterns, &base.target_faults);
    let tpg = tpg_kind.build(netlist.inputs().len());
    let fsim = builder.fault_simulator();
    let (seed, build, width) = (cfg.seed, cfg.matrix_build, SimdWidth::Auto);
    for jobs in [1, 4] {
        for tau in TAUS {
            let (triplets, matrix) =
                builder.matrix_for(&*tpg, patterns, faults, tau, seed, jobs, build, width);
            let rows = triplets
                .iter()
                .map(|t| fsim.detects(&tpg.expand(t), faults));
            assert!(
                matrix == DetectionMatrix::from_rows(faults.len(), rows.collect()),
                "{label} τ={tau} jobs={jobs}: Detection Matrix differs from the per-row oracle"
            );
        }
        let tau = TAUS[TAUS.len() - 1];
        let (triplets, fdm) = builder
            .first_detection_matrix_for(&*tpg, patterns, faults, tau, seed, jobs, build, width);
        for (r, t) in triplets.iter().enumerate() {
            let run = fsim.run(&tpg.expand(t), faults);
            for (c, &first) in run.first_detection.iter().enumerate() {
                assert_eq!(
                    fdm.first(r, c),
                    first,
                    "{label} τ={tau} jobs={jobs}: first detection ({r},{c})"
                );
            }
        }
    }
}

#[test]
fn every_profile_matches_per_row_with_accumulator_tpg() {
    for p in all_profiles() {
        assert_build_matches_oracle(&small(&p), TpgKind::Adder, &p.name);
    }
}

#[test]
fn every_profile_matches_per_row_with_lfsr_tpg() {
    for p in all_profiles() {
        assert_build_matches_oracle(&small(&p), TpgKind::Lfsr, &p.name);
    }
}

/// The batched planner must fill the 64-lane words it uses to ≥ 90 % at
/// τ = 3 (a row simulated alone occupies 4 of 64 lanes — 6.25 %), and
/// the simulator's lane counters must agree with the plan exactly.
///
/// The bound is on 64-lane words, not on blocks: the plan's width is the
/// simulator's rule for the lane count (`fbist_bits::simd::width_for`),
/// and a wide last block pads up to `64·W − 1` dead lanes, which costs
/// the rule's block-count trade, not the packing. So the plan must also
/// leave every block but the last full.
fn assert_planner_occupancy(name: &str) {
    let p = genbench_profile(name).expect("profile registered");
    let n = circuit_at(&p, OCCUPANCY_GATES / p.gates as f64);
    let builder = InitialReseedingBuilder::new(&n).expect("combinational circuit");
    let cfg = FlowConfig::new(TpgKind::Adder).with_tau(3);
    builder.fault_simulator().good_simulator().reset_occupancy();
    let init = builder.build(&cfg);

    // the plan is a pure function of the row lengths: every row is τ+1 = 4
    // expanded patterns
    let plan = BatchPlan::new(&vec![4; init.triplet_count()]);
    let words: usize = plan
        .blocks()
        .iter()
        .map(|b| b.lanes_used.div_ceil(64))
        .sum();
    let packed = plan.total_lanes() as f64 / (64 * words) as f64;
    assert!(
        packed >= 0.9,
        "{name}: batched planner fills its 64-lane words to {packed:.3} < 0.9 ({} rows)",
        init.triplet_count()
    );
    assert_eq!(
        plan.block_count(),
        plan.total_lanes().div_ceil(plan.lane_capacity()),
        "{name}: a block other than the last is not full"
    );

    // and the simulator actually evaluated exactly those blocks
    let counted = builder.fault_simulator().good_simulator().occupancy();
    assert_eq!(
        counted.blocks as usize,
        plan.block_count(),
        "{name}: blocks"
    );
    assert_eq!(counted.lanes as usize, plan.total_lanes(), "{name}: lanes");
    assert!((counted.ratio() - plan.occupancy()).abs() < 1e-12, "{name}");
}

macro_rules! occupancy_tests {
    ($($test:ident => $profile:literal),+ $(,)?) => {$(
        #[test]
        fn $test() {
            assert_planner_occupancy($profile);
        }
    )+};
}

// one test per profile so the harness runs them in parallel (the τ=3
// build is ATPG-dominated at the uniform 600-gate scale)
occupancy_tests! {
    occupancy_c499 => "c499",
    occupancy_c880 => "c880",
    occupancy_c1355 => "c1355",
    occupancy_c1908 => "c1908",
    occupancy_c7552 => "c7552",
    occupancy_s420 => "s420",
    occupancy_s641 => "s641",
    occupancy_s820 => "s820",
    occupancy_s838 => "s838",
    occupancy_s953 => "s953",
    occupancy_s1238 => "s1238",
    occupancy_s1423 => "s1423",
    occupancy_s5378 => "s5378",
    occupancy_s9234 => "s9234",
    occupancy_s13207 => "s13207",
    occupancy_s15850 => "s15850",
    occupancy_tiny64 => "tiny64",
    occupancy_mid256 => "mid256",
    occupancy_big3500 => "big3500",
    occupancy_xl7000 => "xl7000",
}

#[test]
fn occupancy_macro_covers_every_profile() {
    // fail loudly if a profile is ever added without an occupancy test
    assert_eq!(all_profiles().len(), 20, "update occupancy_tests! above");
}
