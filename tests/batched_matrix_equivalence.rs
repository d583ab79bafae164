//! Differential suite pinning the cross-row batched matrix-build engine
//! to the per-row one.
//!
//! For **every** genbench profile (scaled to a small, fast gate budget —
//! the batching machinery is identical at every size), a TPG from each
//! family (accumulator-based `add`, LFSR-based `lfsr`), `jobs ∈ {1, 4}`
//! and `τ ∈ {0, 3, 31}`, the batched engine must produce a Detection
//! Matrix **byte-for-byte identical** to the per-row engine's, and the
//! τ-sweep must trace the identical curve. This is the construction-side
//! twin of the `parallel_equivalence` (jobs) contract: the matrix-build
//! engine may only change wall-clock time, never a single bit of any
//! artefact.
//!
//! The suite also pins the engine's reason to exist: on every profile
//! scaled to a uniform instance size, the batched planner packs the τ=3
//! pattern streams at ≥ 90 % lane occupancy (the per-row build is stuck
//! at `(τ+1)/64 = 6.25 %`), and the `PackedSimulator` lane counters agree
//! with the plan.

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

const TAUS: [usize; 3] = [0, 3, 31];

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

/// Batched vs per-row `matrix_for`, byte-for-byte, across jobs × τ, on
/// one shared ATPG run (exactly how the τ-sweep reuses it).
fn assert_engines_equivalent(netlist: &Netlist, tpg_kind: TpgKind, label: &str) {
    let cfg = FlowConfig::new(tpg_kind);
    let builder = InitialReseedingBuilder::new(netlist).expect("combinational circuit");
    let base = builder.build(&cfg);
    let tpg = tpg_kind.build(netlist.inputs().len());

    for tau in TAUS {
        let build = |jobs: usize, engine: MatrixBuild| {
            builder.matrix_for(
                tpg.as_ref(),
                &base.atpg.patterns,
                &base.target_faults,
                tau,
                cfg.seed,
                jobs,
                engine,
                SimdWidth::Auto,
            )
        };
        let (ref_triplets, ref_matrix) = build(1, MatrixBuild::PerRow);
        for jobs in [1, 4] {
            for engine in [MatrixBuild::PerRow, MatrixBuild::Batched, MatrixBuild::Auto] {
                let (triplets, matrix) = build(jobs, engine);
                assert_eq!(
                    ref_triplets, triplets,
                    "{label} τ={tau} jobs={jobs} {engine}: triplets differ"
                );
                assert_eq!(
                    ref_matrix.row_major(),
                    matrix.row_major(),
                    "{label} τ={tau} jobs={jobs} {engine}: Detection Matrix \
                     differs from per-row/jobs=1"
                );
            }
        }
    }
}

#[test]
fn every_profile_matches_per_row_with_accumulator_tpg() {
    for p in all_profiles() {
        assert_engines_equivalent(&small(&p), TpgKind::Adder, &p.name);
    }
}

#[test]
fn every_profile_matches_per_row_with_lfsr_tpg() {
    for p in all_profiles() {
        assert_engines_equivalent(&small(&p), TpgKind::Lfsr, &p.name);
    }
}

#[test]
fn sweep_points_are_engine_invariant() {
    // the τ-sweep drives matrix_for through its other public entry point;
    // the whole curve (reports included) must be engine-invariant, for
    // both a serial and a 4-worker pool
    for p in [
        genbench_profile("tiny64").unwrap(),
        genbench_profile("mid256").unwrap(),
    ] {
        let n = small(&p);
        for jobs in [1, 4] {
            let curve = |engine: MatrixBuild| {
                tradeoff_sweep(
                    &n,
                    &FlowConfig::new(TpgKind::Adder)
                        .with_jobs(jobs)
                        .with_matrix_build(engine),
                    &TAUS,
                )
                .unwrap()
            };
            let per_row = curve(MatrixBuild::PerRow);
            assert_eq!(
                per_row,
                curve(MatrixBuild::Batched),
                "{} jobs={jobs}: batched sweep curve differs",
                p.name
            );
            assert_eq!(
                per_row,
                curve(MatrixBuild::Auto),
                "{} jobs={jobs}: auto sweep curve differs",
                p.name
            );
        }
    }
}

/// The batched planner must reach ≥ 90 % lane occupancy at τ = 3 (the
/// per-row build occupies 4 of 64 lanes — 6.25 %), and the simulator's
/// lane counters must agree with the plan exactly.
fn assert_planner_occupancy(name: &str) {
    let p = genbench_profile(name).expect("profile registered");
    let n = circuit_at(&p, OCCUPANCY_GATES / p.gates as f64);
    let builder = InitialReseedingBuilder::new(&n).expect("combinational circuit");
    // W = 1 pinned: the ≥ 90 % bound and the block counters below are
    // stated against the narrow 64-lane plan (a wider block pads its tail
    // lanes, which is the width knob's business, not the planner's —
    // width-aware counters are pinned by `simd_width_equivalence`)
    let cfg = FlowConfig::new(TpgKind::Adder)
        .with_tau(3)
        .with_matrix_build(MatrixBuild::Batched)
        .with_simd_width(SimdWidth::W1);
    builder.fault_simulator().good_simulator().reset_occupancy();
    let init = builder.build(&cfg);

    // the plan is a pure function of the row lengths: every row is τ+1 = 4
    // expanded patterns
    let plan = BatchPlan::new(&vec![4; init.triplet_count()]);
    assert!(
        plan.occupancy() >= 0.9,
        "{name}: batched planner occupancy {:.3} < 0.9 ({} rows)",
        plan.occupancy(),
        init.triplet_count()
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
