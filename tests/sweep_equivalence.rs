//! Oracle suite for the τ-sweep: every point of [`tradeoff_sweep`] must
//! equal [`ReseedingFlow::run`] at that τ, byte for byte.
//!
//! The sweep derives every point's Detection Matrix by thresholding one
//! first-detection pass at `max(taus)`; `run` takes that pass at its
//! single τ. Their agreement pins the thresholding: a matrix cut from a
//! pass at a larger τ must equal the one simulated at τ itself (which
//! `tests/batched_matrix_equivalence.rs` holds to per-row simulation).
//! The suite covers **every** genbench profile (scaled
//! to a small, fast gate budget — the thresholding machinery is identical
//! at every size), a TPG from each family (accumulator-based `add`,
//! LFSR-based `lfsr`) and `jobs ∈ {1, 4}`, on a τ list that is
//! deliberately unsorted and duplicated.
//!
//! Every cover trims from the first-detection indices instead of
//! re-simulating: each selected triplet's new faults are its matrix row
//! minus the faults already covered, and its test length is one past the
//! largest first index among them. Every such report must be
//! byte-identical to the public, re-simulating `ReseedingFlow::finish`:
//! a store-backed sweep over the default 8-point τ list against `finish`
//! on the thresholded matrix, and `run` without a store at
//! `τ ∈ {0, 3, 31, 63}` against `finish` on `InitialReseedingBuilder::build`,
//! for every profile at `jobs ∈ {1, 4}`.
//!
//! It also pins the shared pass's reason to exist: on `mid256` at full
//! scale with `--taus 0,3,7,15,31,63`, one sweep runs **exactly one**
//! Detection-Matrix simulation pass (the builder's pass counter) and
//! evaluates strictly fewer 64-lane blocks (the `PackedSimulator` lane
//! counters) than six separate runs.
//!
//! [`tradeoff_sweep`]: reseed_core::tradeoff_sweep
//! [`ReseedingFlow::run`]: reseed_core::ReseedingFlow::run

use std::sync::atomic::{AtomicUsize, Ordering};

use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::Netlist;
use set_covering_reseeding::prelude::*;
use set_covering_reseeding::reseed::{InitialReseeding, SweepPoint};
use set_covering_reseeding::store::encode_to_vec;

/// Gate budget for the per-profile half: exercises every interface shape
/// while staying test-fast.
const GATE_BUDGET: f64 = 70.0;

/// Deliberately unsorted, duplicated τ list: the sweep must dedupe,
/// simulate once at max = 7, and still emit one point per input τ in
/// input order.
const TAUS: [usize; 4] = [7, 0, 3, 3];

fn small(p: &CircuitProfile) -> Netlist {
    let n = generate(&p.scaled((GATE_BUDGET / p.gates as f64).min(1.0)), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

/// The sweep point `run` implies at `tau`.
fn point_of_run(flow: &ReseedingFlow, config: &FlowConfig, tau: usize) -> SweepPoint {
    let report = flow.run(&config.clone().with_tau(tau));
    SweepPoint {
        tau,
        triplets: report.triplet_count(),
        test_length: report.test_length(),
        rom_bits: report.rom_bits(),
        report,
    }
}

/// Every sweep point against `run` at its τ, across jobs, for one
/// profile and TPG.
fn assert_sweep_matches_runs(netlist: &Netlist, tpg: TpgKind, label: &str) {
    let flow = ReseedingFlow::new(netlist).unwrap();
    for jobs in [1usize, 4] {
        let config = FlowConfig::new(tpg).with_jobs(jobs);
        let curve = tradeoff_sweep(netlist, &config, &TAUS).unwrap();
        assert_eq!(curve.len(), TAUS.len(), "{label}");
        for (point, &tau) in curve.iter().zip(&TAUS) {
            assert_eq!(
                *point,
                point_of_run(&flow, &config, tau),
                "{label} jobs={jobs} τ={tau}: sweep point differs from run"
            );
        }
    }
}

/// The `fbist sweep` default τ list.
const DEFAULT_TAUS: [usize; 8] = [0, 3, 7, 15, 31, 63, 127, 255];

/// A store-backed sweep over the default τ list against the public
/// `finish`, which re-simulates each selected triplet, on the same
/// thresholded first-detection matrix: the cover artifacts must be
/// byte-identical.
fn assert_index_accounting_matches_resimulation(netlist: &Netlist, tpg: TpgKind, label: &str) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let oracle = ReseedingFlow::new(netlist).unwrap();
    let builder = oracle.builder();
    let generator = tpg.build(netlist.inputs().len());
    for jobs in [1usize, 4] {
        let config = FlowConfig::new(tpg).with_jobs(jobs);
        let dir = std::env::temp_dir().join(format!(
            "fbist-sweep-trim-{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("temp store opens");
        let flow = ReseedingFlow::with_store(netlist, store).unwrap();
        let curve = tradeoff_sweep_with(&flow, &config, &DEFAULT_TAUS);
        let _ = std::fs::remove_dir_all(&dir);

        let base = builder.atpg_base(&config);
        let (triplets, fdm) = builder.first_detection_matrix_for(
            &*generator,
            &base.atpg.patterns,
            &base.target_faults,
            255,
            config.seed,
            jobs,
            config.matrix_build,
            config.simd_width,
        );
        for (point, &tau) in curve.iter().zip(&DEFAULT_TAUS) {
            let initial = InitialReseeding {
                triplets: triplets.iter().map(|t| t.with_tau(tau)).collect(),
                matrix: fdm.at_tau(tau),
                target_faults: base.target_faults.clone(),
                universe_size: base.universe_size,
                atpg: base.atpg.clone(),
            };
            let resimulated = oracle.finish(&config.clone().with_tau(tau), &initial);
            assert_eq!(
                encode_to_vec(&point.report),
                encode_to_vec(&resimulated),
                "{label} jobs={jobs} τ={tau}: index accounting differs from re-simulation"
            );
        }
    }
}

/// `run` on a flow without a store against the public `finish`, which
/// re-simulates each selected triplet, on `build`'s matrix at the same
/// τ: the encoded reports must be byte-identical.
fn assert_run_matches_resimulation(netlist: &Netlist, tpg: TpgKind, label: &str) {
    let flow = ReseedingFlow::new(netlist).unwrap();
    for jobs in [1usize, 4] {
        for tau in [0usize, 3, 31, 63] {
            let config = FlowConfig::new(tpg).with_jobs(jobs).with_tau(tau);
            let resimulated = flow.finish(&config, &flow.builder().build(&config));
            assert_eq!(
                encode_to_vec(&flow.run(&config)),
                encode_to_vec(&resimulated),
                "{label} jobs={jobs} τ={tau}: run's index accounting differs from re-simulation"
            );
        }
    }
}

macro_rules! sweep_equivalence_tests {
    ($($test:ident => $profile:literal),+ $(,)?) => {$(
        mod $test {
            use super::*;

            #[test]
            fn add() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_sweep_matches_runs(&small(&p), TpgKind::Adder, $profile);
            }

            #[test]
            fn lfsr() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_sweep_matches_runs(&small(&p), TpgKind::Lfsr, $profile);
            }

            #[test]
            fn trim_from_indices() {
                let p = genbench_profile($profile).expect("profile registered");
                let netlist = small(&p);
                assert_index_accounting_matches_resimulation(&netlist, TpgKind::Adder, $profile);
                assert_run_matches_resimulation(&netlist, TpgKind::Adder, $profile);
            }
        }
    )+};
}

// one module per profile so the harness runs them in parallel
sweep_equivalence_tests! {
    sweep_c499 => "c499",
    sweep_c880 => "c880",
    sweep_c1355 => "c1355",
    sweep_c1908 => "c1908",
    sweep_c7552 => "c7552",
    sweep_s420 => "s420",
    sweep_s641 => "s641",
    sweep_s820 => "s820",
    sweep_s838 => "s838",
    sweep_s953 => "s953",
    sweep_s1238 => "s1238",
    sweep_s1423 => "s1423",
    sweep_s5378 => "s5378",
    sweep_s9234 => "s9234",
    sweep_s13207 => "s13207",
    sweep_s15850 => "s15850",
    sweep_tiny64 => "tiny64",
    sweep_mid256 => "mid256",
    sweep_big3500 => "big3500",
    sweep_xl7000 => "xl7000",
}

#[test]
fn sweep_macro_covers_every_profile() {
    // fail loudly if a profile is ever added without a sweep test
    assert_eq!(all_profiles().len(), 20, "update sweep_equivalence_tests!");
}

/// The shared pass, end to end on `mid256` at full scale: one sweep over
/// `--taus 0,3,7,15,31,63` reproduces six separate runs byte for byte
/// while performing exactly one matrix simulation pass and evaluating
/// strictly fewer 64-lane blocks.
#[test]
fn mid256_sweep_is_one_pass_and_fewer_blocks_than_runs() {
    let n = generate(&genbench_profile("mid256").unwrap(), 1);
    let taus = [0usize, 3, 7, 15, 31, 63];
    let config = FlowConfig::new(TpgKind::Adder);
    let flow = ReseedingFlow::new(&n).unwrap();
    let sim = flow.builder().fault_simulator().good_simulator();

    sim.reset_occupancy();
    let runs: Vec<SweepPoint> = taus
        .iter()
        .map(|&tau| point_of_run(&flow, &config, tau))
        .collect();
    let run_blocks = sim.occupancy().blocks;
    assert_eq!(
        flow.builder().matrix_sim_passes(),
        taus.len() as u64,
        "one pass per run"
    );

    flow.builder().reset_matrix_sim_passes();
    sim.reset_occupancy();
    let curve = tradeoff_sweep_with(&flow, &config, &taus);
    let sweep_blocks = sim.occupancy().blocks;

    assert_eq!(curve, runs, "sweep must be byte-identical to the runs");
    assert_eq!(
        flow.builder().matrix_sim_passes(),
        1,
        "the sweep must run exactly one matrix simulation pass"
    );
    // every run and the sweep trim from first-detection indices, so the
    // blocks are their matrix passes: six at τ ≤ 63 against one at 63
    assert!(
        sweep_blocks < run_blocks,
        "the sweep evaluated {sweep_blocks} blocks, six runs {run_blocks} — \
         expected strictly fewer"
    );
}
