//! Differential suite pinning the fault-parallel ATPG engine to its
//! serial self.
//!
//! For **every** genbench profile (scaled to a small, fast gate budget —
//! the round/dictionary machinery is identical at every size), every fill
//! mode, static learning off *and* on, and `jobs ∈ {1, 4}`, the engine
//! must produce a **byte-for-byte identical** [`AtpgResult`] — patterns, detection flags, untestable and
//! aborted lists, and every statistic. This is the ATPG-level sibling of
//! the `parallel_equivalence` (flow jobs), `sparse_dense_equivalence`
//! (backend) and `batched_matrix_equivalence` (matrix engine) contracts:
//! PODEM cube generation is a pure function of the fault and every
//! don't-care fill comes from a per-fault RNG stream derived from the
//! master seed, so the worker count may only change wall-clock time,
//! never a single bit of any artefact. The `atpg` stage key excludes
//! `AtpgConfig::jobs` on the strength of exactly this suite.
//!
//! The suite also pins the outcome-reconciliation bugfix at full scale:
//! on `c880` the default configuration aborts a fault that a later
//! pattern covers fortuitously — it must be reported detected, never
//! double-counted as aborted too.
//!
//! A second test per profile compares the pre-pass (and the SAT
//! escalation it turns on) against the pure-PODEM run: only fault
//! classifications may move, from aborted to untestable.
//!
//! Finally it pins the PODEM search itself to recorded goldens on three
//! full-scale profiles: the digest of the encoded unpruned `AtpgResult`
//! and the summed `PodemStats` of a search over every collapsed fault.
//! Any change to decision order, backtracking or implication counting
//! moves them; the pre-pass may only move fault classifications.

use fbist_atpg::{Podem, PodemConfig, PodemOutcome};
use fbist_fault::FaultList;
use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::Netlist;
use set_covering_reseeding::prelude::*;
use set_covering_reseeding::store::{encode_to_vec, Digest};

/// Gate budget for the per-profile equivalence half: exercises every
/// interface shape while staying test-fast.
const GATE_BUDGET: f64 = 70.0;

fn small(p: &CircuitProfile) -> Netlist {
    let n = generate(&p.scaled((GATE_BUDGET / p.gates as f64).min(1.0)), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

/// Serial vs 4-worker ATPG, byte-for-byte, across every fill mode and
/// with static learning both off and on, for one netlist — plus the
/// reconciliation invariant (no fault may be reported both given-up and
/// detected). Learning seeds every PODEM search from a database built
/// once per run, so it must not introduce any worker-count dependence.
fn assert_atpg_equivalent(netlist: &Netlist, label: &str) {
    let atpg = Atpg::new(netlist).unwrap();
    let faults = FaultList::collapsed(netlist);
    for fill in [FillMode::Random, FillMode::Zeros, FillMode::Ones] {
        for static_learning in [false, true] {
            let run = |jobs: usize| {
                atpg.run(
                    &faults,
                    &AtpgConfig {
                        jobs,
                        fill,
                        static_learning,
                        ..AtpgConfig::default()
                    },
                )
            };
            let serial = run(1);
            let parallel = run(4);
            assert_eq!(
                serial, parallel,
                "{label} fill={fill:?} learning={static_learning}: \
                 jobs=4 AtpgResult differs from serial"
            );
            for id in serial.aborted.iter().chain(&serial.untestable) {
                assert!(
                    !serial.detected.get(id.index()),
                    "{label} fill={fill:?} learning={static_learning}: \
                     fault {} double-counted",
                    id.index()
                );
            }
        }
    }
}

/// Pre-pass on against off, at `jobs ∈ {1, 4}`: the untestability
/// pre-pass and the SAT escalation it enables may only move faults from
/// aborted to untestable. Patterns, detections, random-phase detections
/// and PODEM tests stay equal; every fault aborted with the pre-pass on
/// aborts without it, and every fault untestable without it stays
/// untestable.
fn assert_classification_only(netlist: &Netlist, label: &str) {
    let atpg = Atpg::new(netlist).unwrap();
    let faults = FaultList::collapsed(netlist);
    for jobs in [1, 4] {
        let run = |static_prepass: bool| {
            atpg.run(
                &faults,
                &AtpgConfig {
                    jobs,
                    static_prepass,
                    ..AtpgConfig::default()
                },
            )
        };
        let (off, on) = (run(false), run(true));
        let ctx = format!("{label} jobs={jobs}");
        assert_eq!(off.patterns, on.patterns, "{ctx}: a pattern moved");
        assert_eq!(off.detected, on.detected, "{ctx}: a detection moved");
        assert_eq!(off.random_detected, on.random_detected, "{ctx}");
        assert_eq!(off.podem_tests, on.podem_tests, "{ctx}");
        for id in &on.aborted {
            assert!(
                off.aborted.contains(id),
                "{ctx}: fault {} aborts only with the pre-pass on",
                id.index()
            );
        }
        for id in &off.untestable {
            assert!(
                on.untestable.contains(id),
                "{ctx}: fault {} untestable only with the pre-pass off",
                id.index()
            );
        }
    }
}

macro_rules! atpg_equivalence_tests {
    ($($test:ident => $profile:literal),+ $(,)?) => {$(
        mod $test {
            use super::*;

            #[test]
            fn serial_vs_parallel() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_atpg_equivalent(&small(&p), $profile);
            }

            #[test]
            fn prepass_moves_classification_only() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_classification_only(&small(&p), $profile);
            }
        }
    )+};
}

// one module per profile so the harness runs them in parallel
atpg_equivalence_tests! {
    atpg_c499 => "c499",
    atpg_c880 => "c880",
    atpg_c1355 => "c1355",
    atpg_c1908 => "c1908",
    atpg_c7552 => "c7552",
    atpg_s420 => "s420",
    atpg_s641 => "s641",
    atpg_s820 => "s820",
    atpg_s838 => "s838",
    atpg_s953 => "s953",
    atpg_s1238 => "s1238",
    atpg_s1423 => "s1423",
    atpg_s5378 => "s5378",
    atpg_s9234 => "s9234",
    atpg_s13207 => "s13207",
    atpg_s15850 => "s15850",
    atpg_tiny64 => "tiny64",
    atpg_mid256 => "mid256",
    atpg_big3500 => "big3500",
    atpg_xl7000 => "xl7000",
}

#[test]
fn atpg_macro_covers_every_profile() {
    // fail loudly if a profile is ever added without an ATPG test
    assert_eq!(all_profiles().len(), 20, "update atpg_equivalence_tests!");
}

/// The reconciliation bugfix at full scale: default-config `c880` aborts
/// a fault that a later pattern detects fortuitously. Without the final
/// filter the fault appears in `aborted` *and* `detected`, double-counting
/// the statistics (this exact overlap is how the bug was found).
#[test]
fn c880_aborted_faults_are_reconciled_against_detections() {
    let n = generate(&genbench_profile("c880").unwrap(), 1);
    let atpg = Atpg::new(&n).unwrap();
    let faults = FaultList::collapsed(&n);
    let r = atpg.run(&faults, &AtpgConfig::default());
    assert!(!r.aborted.is_empty(), "c880 default config aborts faults");
    for id in r.aborted.iter().chain(&r.untestable) {
        assert!(
            !r.detected.get(id.index()),
            "fault {} reported aborted/untestable *and* detected",
            id.index()
        );
    }
    // the lists partition cleanly: every target fault is detected,
    // given-up, or simply uncovered — never two of those at once
    assert!(r.detected.count_ones() + r.untestable.len() + r.aborted.len() <= r.total_faults);
}

/// A profile at full scale, full-scanned if sequential.
fn full(profile: &str) -> Netlist {
    let n = generate(&genbench_profile(profile).expect("profile registered"), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

/// The store's FNV digest of an encoded `AtpgResult`.
fn result_digest(r: &AtpgResult) -> String {
    let mut d = Digest::new("atpg-golden");
    d.bytes(&encode_to_vec(r));
    d.finish().to_hex()
}

/// Summed search statistics and outcome counts of one PODEM search per
/// collapsed fault, `[decisions, backtracks, implications, tests,
/// untestable, aborted]`, plus a digest of every cube in fault order.
fn podem_totals(netlist: &Netlist, faults: &FaultList) -> ([usize; 6], String) {
    let podem = Podem::with_config(
        netlist,
        PodemConfig {
            backtrack_limit: 400,
            learning: None,
        },
    )
    .unwrap();
    let mut session = podem.session();
    let mut t = [0usize; 6];
    let mut cubes = Digest::new("podem-cubes");
    for (_, fault) in faults.iter() {
        let (outcome, stats) = session.generate_with_stats(fault);
        t[0] += stats.decisions;
        t[1] += stats.backtracks;
        t[2] += stats.implications;
        match outcome {
            PodemOutcome::Test(cube) => {
                t[3] += 1;
                cubes.str(&cube.to_string());
            }
            PodemOutcome::Untestable => t[4] += 1,
            PodemOutcome::Aborted => t[5] += 1,
        }
    }
    (t, cubes.finish().to_hex())
}

/// Checks one profile against its goldens, then checks that the pre-pass
/// leaves the pattern sequence and the detected set alone.
fn assert_matches_golden(profile: &str, totals: [usize; 6], cubes: &str, digest: &str) {
    let n = full(profile);
    let atpg = Atpg::new(&n).unwrap();
    let faults = FaultList::collapsed(&n);
    let (got_totals, got_cubes) = podem_totals(&n, &faults);
    assert_eq!(
        got_totals, totals,
        "{profile}: summed PODEM [decisions, backtracks, implications, \
         tests, untestable, aborted] moved"
    );
    assert_eq!(got_cubes, cubes, "{profile}: a PODEM cube moved");
    let off = atpg.run(
        &faults,
        &AtpgConfig {
            static_prepass: false,
            ..AtpgConfig::default()
        },
    );
    assert_eq!(
        result_digest(&off),
        digest,
        "{profile}: unpruned AtpgResult digest moved"
    );
    let on = atpg.run(
        &faults,
        &AtpgConfig {
            static_prepass: true,
            ..AtpgConfig::default()
        },
    );
    assert_eq!(
        off.patterns, on.patterns,
        "{profile}: pre-pass moved a pattern"
    );
    assert_eq!(
        off.detected, on.detected,
        "{profile}: pre-pass moved a detection"
    );
}

#[test]
fn golden_search_mid256() {
    assert_matches_golden(
        "mid256",
        [29893, 21201, 51943, 791, 58, 29],
        "709907ea9a0e23f821991cf14b525c00",
        "766d89dfc392a69c543956d23fc30505",
    );
}

#[test]
fn golden_search_s953() {
    assert_matches_golden(
        "s953",
        [73425, 57007, 131826, 1323, 71, 113],
        "f98729c3aa9e739d4b8517253d9bbb4e",
        "6334fca8faa4c84cdbf4caf4ff1f4e29",
    );
}

#[test]
fn golden_search_c880() {
    assert_matches_golden(
        "c880",
        [86636, 70863, 158752, 1183, 70, 142],
        "6b7a2f6e08793cc9f73e29c0ee4e6aa8",
        "a7f369e4a2391b75ce5147ce6b461a06",
    );
}
