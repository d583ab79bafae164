//! Differential suite pinning the fault-parallel ATPG engine to its
//! serial self.
//!
//! For **every** genbench profile (scaled to a small, fast gate budget —
//! the round/dictionary machinery is identical at every size), SAT
//! completion on *and* off (pure PODEM), and `jobs ∈ {1, 4}`, the engine
//! must produce a **byte-for-byte identical** [`AtpgResult`] — patterns, detection flags, untestable and
//! aborted lists, and every statistic. This is the ATPG-level sibling of
//! the `parallel_equivalence` (flow jobs) and
//! `batched_matrix_equivalence` (matrix engine) contracts:
//! PODEM cube generation is a pure function of the fault and every
//! don't-care fill comes from a per-fault RNG stream derived from the
//! master seed, so the worker count may only change wall-clock time,
//! never a single bit of any artefact. The `atpg` stage key excludes
//! `AtpgConfig::jobs` on the strength of exactly this suite.
//!
//! The suite also pins the outcome-reconciliation bugfix at full scale:
//! on `c880` pure PODEM aborts a fault that a later pattern covers
//! fortuitously — it must be reported detected, never double-counted as
//! aborted too.
//!
//! A second test per profile holds the default run (the pre-pass plus SAT
//! completion) to its contract against the pure-PODEM run (see
//! [`assert_sat_contract`]). SAT cubes change the PODEM phase's patterns,
//! so only the random phase must match exactly.
//!
//! Finally it pins the PODEM search itself to recorded goldens on three
//! full-scale profiles: the digest of the encoded pure-PODEM `AtpgResult`
//! and the summed `PodemStats` of a search over every collapsed fault.
//! Any change to decision order, backtracking or implication counting
//! moves them. Three digests of the default (SAT-completed) `AtpgResult`
//! are pinned next to them: the whole encoded result, everything but the
//! order of its `untestable` list, and the sorted `untestable` set. A
//! change that only moves faults between the pre-pass and the PODEM
//! phase's verdicts (the pre-pass lists its faults first) moves the first
//! alone.

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

/// Serial vs 4-worker ATPG, byte-for-byte, with SAT completion both on
/// and off, for one netlist — plus the
/// reconciliation invariant (no fault may be reported both given-up and
/// detected). SAT cubes are a pure function of the fault, like PODEM's,
/// so they must not introduce any worker-count dependence.
fn assert_atpg_equivalent(netlist: &Netlist, label: &str) {
    let atpg = Atpg::new(netlist).unwrap();
    let faults = FaultList::collapsed(netlist);
    for static_prepass in [true, false] {
        let run = |jobs: usize| {
            atpg.run(
                &faults,
                &AtpgConfig {
                    jobs,
                    static_prepass,
                    ..AtpgConfig::default()
                },
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(
            serial, parallel,
            "{label} sat={static_prepass}: jobs=4 AtpgResult differs from serial"
        );
        for id in serial.aborted.iter().chain(&serial.untestable) {
            assert!(
                !serial.detected.get(id.index()),
                "{label} sat={static_prepass}: fault {} double-counted",
                id.index()
            );
        }
    }
}

/// The contract between a default run (`on`: the pre-pass plus SAT
/// completion) and the pure-PODEM reference (`off`) of the same faults:
///
/// * the random phase is identical;
/// * in each run, detected, untestable and aborted are disjoint and
///   cover every fault;
/// * untestable(off) ⊆ untestable(on), and no fault untestable in one
///   run is detected in the other;
/// * aborted(on) ⊆ aborted(off), and coverage(on) ≥ coverage(off).
fn assert_sat_contract(off: &AtpgResult, on: &AtpgResult, ctx: &str) {
    assert_eq!(
        off.random_detected, on.random_detected,
        "{ctx}: random phase moved"
    );
    for (run, r) in [("off", off), ("on", on)] {
        let mut classes = vec![0usize; r.total_faults];
        for id in r.untestable.iter().chain(&r.aborted) {
            classes[id.index()] += 1;
        }
        for (i, k) in classes.into_iter().enumerate() {
            assert_eq!(
                k + usize::from(r.detected.get(i)),
                1,
                "{ctx} {run}: fault {i} is not in exactly one class"
            );
        }
    }
    for id in &off.untestable {
        assert!(
            on.untestable.contains(id),
            "{ctx}: fault {} untestable only with SAT off",
            id.index()
        );
    }
    for (a, b) in [(off, on), (on, off)] {
        for id in &a.untestable {
            assert!(
                !b.detected.get(id.index()),
                "{ctx}: fault {} untestable in one run, detected in the other",
                id.index()
            );
        }
    }
    for id in &on.aborted {
        assert!(
            off.aborted.contains(id),
            "{ctx}: fault {} aborts only with SAT on",
            id.index()
        );
    }
    assert!(
        on.coverage() >= off.coverage(),
        "{ctx}: coverage {} with SAT < {} without",
        on.coverage(),
        off.coverage()
    );
}

/// The default run against pure PODEM at `jobs ∈ {1, 4}`, held to
/// [`assert_sat_contract`]. (The test's name predates SAT completion,
/// when the pre-pass could move only classifications.)
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
        assert_sat_contract(&run(false), &run(true), &format!("{label} jobs={jobs}"));
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

/// The reconciliation bugfix at full scale: pure-PODEM `c880` aborts a
/// fault that a later pattern detects fortuitously. Without the final
/// filter the fault appears in `aborted` *and* `detected`, double-counting
/// the statistics (this exact overlap is how the bug was found). SAT
/// completion leaves the default config nothing to abort, so the test
/// runs the pure-PODEM config.
#[test]
fn c880_aborted_faults_are_reconciled_against_detections() {
    let n = generate(&genbench_profile("c880").unwrap(), 1);
    let atpg = Atpg::new(&n).unwrap();
    let faults = FaultList::collapsed(&n);
    let r = atpg.run(
        &faults,
        &AtpgConfig {
            static_prepass: false,
            ..AtpgConfig::default()
        },
    );
    assert!(!r.aborted.is_empty(), "pure-PODEM c880 aborts faults");
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

/// The digest of everything an `AtpgResult` decides except the order of
/// its `untestable` list: the patterns in order, the detection flags,
/// `random_detected`, `podem_tests` and the `aborted` list.
fn outcome_digest(r: &AtpgResult) -> String {
    let mut d = Digest::new("atpg-outcome");
    d.usize(r.patterns.len());
    for p in &r.patterns {
        d.usize(p.width());
        d.u64_slice(p.as_words());
    }
    d.usize(r.detected.width());
    d.u64_slice(r.detected.as_words());
    d.usize(r.random_detected);
    d.usize(r.podem_tests);
    d.usize(r.aborted.len());
    for id in &r.aborted {
        d.usize(id.index());
    }
    d.finish().to_hex()
}

/// The digest of the sorted `untestable` set of an `AtpgResult`.
fn untestable_digest(r: &AtpgResult) -> String {
    let mut ids: Vec<usize> = r.untestable.iter().map(|id| id.index()).collect();
    ids.sort_unstable();
    let mut d = Digest::new("atpg-untestable");
    d.usize(ids.len());
    for id in ids {
        d.usize(id);
    }
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

/// Checks one profile against its pure-PODEM goldens and its SAT-on
/// digest, then holds the two runs to [`assert_sat_contract`].
fn assert_matches_golden(
    profile: &str,
    totals: [usize; 6],
    cubes: &str,
    digest: &str,
    sat_digests: [&str; 3],
) {
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
        "{profile}: pure-PODEM AtpgResult digest moved"
    );
    let on = atpg.run(&faults, &AtpgConfig::default());
    let [full, outcome, untestable] = sat_digests;
    assert_eq!(
        outcome_digest(&on),
        outcome,
        "{profile}: a SAT-completed pattern, detection or count moved"
    );
    assert_eq!(
        untestable_digest(&on),
        untestable,
        "{profile}: the SAT-completed untestable set moved"
    );
    assert_eq!(
        result_digest(&on),
        full,
        "{profile}: SAT-completed AtpgResult digest moved"
    );
    assert_sat_contract(&off, &on, profile);
}

#[test]
fn golden_search_mid256() {
    assert_matches_golden(
        "mid256",
        [29893, 21201, 51943, 791, 58, 29],
        "709907ea9a0e23f821991cf14b525c00",
        "766d89dfc392a69c543956d23fc30505",
        [
            "3d9aa44bdcd366ad9e87ea08bf288bb4",
            "9cd4d9a61cdddb4ed2ccee0c73b12fec",
            "91061aa58520685cf2e95e1d47938518",
        ],
    );
}

#[test]
fn golden_search_s953() {
    assert_matches_golden(
        "s953",
        [73425, 57007, 131826, 1323, 71, 113],
        "f98729c3aa9e739d4b8517253d9bbb4e",
        "6334fca8faa4c84cdbf4caf4ff1f4e29",
        [
            "1e66f608337467aba5acc382cdfa3562",
            "2d300afbceb6c240b4168a2afd562c2c",
            "b634b2bb428030daf9fcf4b996759c46",
        ],
    );
}

#[test]
fn golden_search_c880() {
    assert_matches_golden(
        "c880",
        [86636, 70863, 158752, 1183, 70, 142],
        "6b7a2f6e08793cc9f73e29c0ee4e6aa8",
        "a7f369e4a2391b75ce5147ce6b461a06",
        [
            "648933f1fe257f70cb60b179447dc2f9",
            "64f00e07e684dc462bd6079acbd9b519",
            "5edea97a70c05e9964c377fdec392481",
        ],
    );
}
