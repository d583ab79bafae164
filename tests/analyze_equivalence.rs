//! Differential suite pinning the static-analysis pre-pass to the ATPG
//! ground truth.
//!
//! Three contracts, each over **every** genbench profile (scaled to a
//! small, fast gate budget — the analyses are size-uniform):
//!
//! 1. **`fbist check` is clean on every profile.** The generator never
//!    emits floating nets, dead constants, or structurally unobservable
//!    logic, and `analyze` must not invent any — its warning-level
//!    findings would otherwise poison the exit code of `fbist check` in
//!    CI pipelines over these circuits. (Provably untestable faults and
//!    implied constants are Info by design: real circuits legitimately
//!    contain redundancy, so they never flip the exit code.)
//! 2. **The pre-pass never loses a detection.** `static_prepass` prunes
//!    only statically-*proven* untestable faults among the random phase's
//!    survivors, and turns on SAT completion. The random phase must be
//!    identical with the knob on and off, at `jobs ∈ {1, 4}`; every fault
//!    detected with the knob off is detected with it on unless it aborts,
//!    and coverage never drops. SAT cubes change the PODEM phase's
//!    patterns, so patterns are not compared.
//! 3. **Every pruned fault really is untestable.** With the knob on, the
//!    pre-pass part of `untestable` is the full-list mask minus the
//!    random-phase detections, in index order — and since no pattern
//!    detects a proven fault, that is the mask itself. The mask is the
//!    pass's with every SAT-proven constant net in its baseline, as the
//!    engine runs it. No pruned fault is aborted or detected.
//!
//! A proptest half cross-checks soundness on random circuits: a fault
//! proven untestable by [`untestable_faults`] is never detected by random
//! pattern sets nor by the full ATPG-generated test set.
//!
//! The SAT fault miter that completes PODEM is held to exhaustive
//! truth tables of the random circuit (≤ 4 inputs, so ≤ 16 patterns
//! enumerate the whole input space): it must prove exactly the faults no
//! input pattern detects, never running out of budget on circuits this
//! small, and every model cube it returns must detect its fault under any
//! fill. Its constant-net check must prove exactly the nets the truth
//! table holds constant, and the pre-pass handed those constants must
//! prove a superset of the plain mask and still no detectable fault.
//! [`prove_redundancy`], the prover behind `fbist check`, is held to the
//! same tables: exactly the undetectable faults, exactly the constant
//! nets, and no unknowns.

use fbist_atpg::{prove_redundancy, ConstantVerdict, FaultMiter, SatVerdict};
use fbist_fault::FaultId;
use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::{eval_trit, GateId};
use proptest::prelude::*;
use set_covering_reseeding::prelude::*;

/// Gate budget for the per-profile half: exercises every interface shape
/// while staying test-fast.
const GATE_BUDGET: f64 = 70.0;

fn small(p: &CircuitProfile) -> Netlist {
    generate(&p.scaled((GATE_BUDGET / p.gates as f64).min(1.0)), 1)
}

fn scanned(n: &Netlist) -> Netlist {
    if n.is_combinational() {
        n.clone()
    } else {
        full_scan(n).into_combinational()
    }
}

/// Contract 1: `analyze` reports nothing of warning severity or worse on
/// a generated profile — neither on the circuit as written (DFFs intact)
/// nor on its full-scan version.
fn assert_check_clean(netlist: &Netlist, label: &str) {
    for (variant, n) in [
        ("as-written", netlist.clone()),
        ("full-scan", scanned(netlist)),
    ] {
        let report = analyze(&n);
        assert!(
            !report.has_findings(),
            "{label} ({variant}): fbist check not clean:\n{}",
            report.render_text()
        );
    }
}

/// Contracts 2 and 3: prepass-on vs prepass-off ATPG, plus pruned-fault
/// classification, for one netlist.
fn assert_prepass_equivalent(netlist: &Netlist, label: &str) {
    let n = scanned(netlist);
    let atpg = Atpg::new(&n).unwrap();
    let faults = FaultList::collapsed(&n);
    // the engine's pre-pass starts from the nets the miter proves
    // constant; a constant net is seen at one value only, so the random
    // phase makes every one of them a candidate
    let miter = FaultMiter::new(&n).unwrap();
    let mut session = miter.session();
    let constants: Vec<(GateId, bool)> = n
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .filter_map(|(id, _)| {
            [false, true]
                .into_iter()
                .find(|&v| session.check_constant(id, v) == ConstantVerdict::Constant)
                .map(|v| (id, v))
        })
        .collect();
    let statically_proven = untestable_faults(&n, &faults, &constants).unwrap();
    let pruned: Vec<FaultId> = faults
        .iter()
        .map(|(id, _)| id)
        .filter(|id| statically_proven[id.index()])
        .collect();
    for jobs in [1usize, 4] {
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
        let off = run(false);
        let on = run(true);
        // the random phase runs before the pre-pass, so it is identical
        assert_eq!(
            off.random_detected, on.random_detected,
            "{label} jobs={jobs}: random-phase statistics changed"
        );
        // the pre-pass runs on the random phase's survivors, so its part
        // of `untestable` is the full-list mask minus the random-phase
        // detections, in index order; a proven fault is detected by no
        // pattern, so that subtraction removes nothing
        let random_phase_detected: Vec<FaultId> = pruned
            .iter()
            .copied()
            .filter(|id| off.detected.get(id.index()) || on.detected.get(id.index()))
            .collect();
        assert!(
            random_phase_detected.is_empty(),
            "{label} jobs={jobs}: pruned faults {random_phase_detected:?} detected — unsound proof"
        );
        assert_eq!(
            on.untestable.get(..pruned.len()),
            Some(&pruned[..]),
            "{label} jobs={jobs}: the pre-pass part of `untestable` is not the full-list mask"
        );
        // detection is preserved: a fault detected without the pre-pass
        // is detected with it unless it aborts (it is testable, so it is
        // never proven untestable)
        for (id, f) in faults.iter() {
            let i = id.index();
            assert!(
                !off.detected.get(i) || on.detected.get(i) || on.aborted.contains(&id),
                "{label} jobs={jobs}: {} detected only without the pre-pass",
                f.describe(&n)
            );
            if statically_proven[i] {
                assert!(
                    !on.aborted.contains(&id),
                    "{label} jobs={jobs}: pruned fault {} still aborted",
                    f.describe(&n)
                );
            }
        }
        assert!(
            on.coverage() >= off.coverage(),
            "{label} jobs={jobs}: prepass lost coverage"
        );
        assert!(
            on.untestable.len() >= off.untestable.len(),
            "{label} jobs={jobs}: prepass lost untestable classifications"
        );
    }
}

macro_rules! analyze_equivalence_tests {
    ($($test:ident => $profile:literal),+ $(,)?) => {$(
        mod $test {
            use super::*;

            #[test]
            fn check_is_clean() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_check_clean(&small(&p), $profile);
            }

            #[test]
            fn prepass_preserves_detection() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_prepass_equivalent(&small(&p), $profile);
            }
        }
    )+};
}

// one module per profile so the harness runs them in parallel
analyze_equivalence_tests! {
    analyze_c499 => "c499",
    analyze_c880 => "c880",
    analyze_c1355 => "c1355",
    analyze_c1908 => "c1908",
    analyze_c7552 => "c7552",
    analyze_s420 => "s420",
    analyze_s641 => "s641",
    analyze_s820 => "s820",
    analyze_s838 => "s838",
    analyze_s953 => "s953",
    analyze_s1238 => "s1238",
    analyze_s1423 => "s1423",
    analyze_s5378 => "s5378",
    analyze_s9234 => "s9234",
    analyze_s13207 => "s13207",
    analyze_s15850 => "s15850",
    analyze_tiny64 => "tiny64",
    analyze_mid256 => "mid256",
    analyze_big3500 => "big3500",
    analyze_xl7000 => "xl7000",
}

/// Hand-written dead-logic fixtures: constant cones *with fanout* feeding
/// gates through two or more controlling pins — a class genbench never
/// emits, and exactly where an unsound observability analysis would prune
/// testable faults (a single fault in a shared upstream driver flips every
/// controlling pin at once and is detectable).
const DEAD_LOGIC_FIXTURES: &[(&str, &str)] = &[
    (
        "shared-const0-and",
        "INPUT(a)\nINPUT(b)\nOUTPUT(h)\nOUTPUT(w)\n\
         c = CONST0()\ns = BUFF(c)\nt1 = BUFF(s)\nt2 = BUFF(s)\n\
         h = AND(t1, t2)\nw = NAND(a, b)\n",
    ),
    (
        "shared-const1-or",
        "INPUT(a)\nOUTPUT(y)\nk = CONST1()\nu = BUFF(k)\n\
         p = BUFF(u)\nq = BUFF(u)\ny = OR(p, q, a)\n",
    ),
    (
        "independent-const-pins",
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
         c0 = CONST0()\nc1 = CONST0()\nb0 = BUFF(c0)\nb1 = BUFF(c1)\n\
         y = AND(b0, b1, a)\nz = NOR(a, b)\n",
    ),
    (
        "const-fanout-same-net-pins",
        "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\n\
         c = CONST1()\nm = BUFF(c)\ny = NOR(m, m)\nz = AND(a, c)\n",
    ),
];

/// The dead-logic fixtures go through the same prepass-on/off contracts
/// as the genbench profiles: detection must be byte-identical and every
/// pruned fault really untestable, even with shared-fanout constant cones.
#[test]
fn dead_logic_fixtures_prepass_preserves_detection() {
    for (label, src) in DEAD_LOGIC_FIXTURES {
        let n = bench::parse(src).expect(label);
        assert_prepass_equivalent(&n, label);
    }
}

/// The shared-cone fixtures contain dead logic (constant nets) but every
/// gate still has a sensitisable path to an output — `fbist check` must
/// flag the constants without inventing `unobservable` findings.
#[test]
fn dead_logic_fixtures_have_no_false_unobservable_findings() {
    for (label, src) in ["shared-const0-and", "const-fanout-same-net-pins"]
        .iter()
        .map(|l| {
            DEAD_LOGIC_FIXTURES
                .iter()
                .find(|(name, _)| name == l)
                .expect("fixture registered")
        })
    {
        let n = bench::parse(src).expect(label);
        let report = analyze(&n);
        let codes: Vec<&str> = report.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"constant-net"), "{label}: {codes:?}");
        assert!(
            !codes.contains(&"unobservable"),
            "{label}: false unobservable finding:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn analyze_macro_covers_every_profile() {
    // fail loudly if a profile is ever added without an analyze test
    assert_eq!(
        all_profiles().len(),
        20,
        "update analyze_equivalence_tests!"
    );
}

/// Strategy: a random small netlist with *deliberate* redundancy — gates
/// may reuse one net on several pins and reconverge through inverters, so
/// the untestability pre-pass has something to prove. CONST0/CONST1 gates
/// are emitted too; their nets get reused like any other, producing
/// constant cones with fanout and gates with several constant controlling
/// pins — the class where observability blocking must stay sound.
fn arb_redundant_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..5, 5usize..30, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        let mut n = Netlist::new("prop");
        let mut nets = Vec::new();
        for i in 0..inputs {
            nets.push(n.add_input(format!("i{i}")));
        }
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for g in 0..gates {
            let kinds = [
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Not,
                GateKind::Buff,
                GateKind::Const0,
                GateKind::Const1,
            ];
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            let fanin_count = match kind {
                GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Not | GateKind::Buff => 1,
                _ => 2,
            };
            // duplicates allowed on purpose: AND(x, x)-style gates and
            // reconvergent pairs are where untestable faults live
            let fanin: Vec<_> = (0..fanin_count)
                .map(|_| nets[(next() % nets.len() as u64) as usize])
                .collect();
            let id = n.add_gate(kind, format!("g{g}"), fanin).unwrap();
            nets.push(id);
        }
        for k in 0..2.min(nets.len()) {
            n.add_output(nets[nets.len() - 1 - k]);
        }
        n
    })
}

/// Good-circuit truth tables: net values for every input pattern. The
/// random netlists have at most 4 inputs, so the full space is ≤ 16 rows.
fn truth_tables(n: &Netlist) -> Vec<Vec<bool>> {
    let order = n.levelize().expect("combinational");
    let width = n.inputs().len();
    (0..1u32 << width)
        .map(|pat| {
            let mut val = vec![false; n.gate_count()];
            for &id in &order {
                let g = n.gate(id);
                val[id.index()] = match g.kind() {
                    GateKind::Input => (pat >> n.input_position(id).expect("input")) & 1 == 1,
                    GateKind::Const0 => false,
                    GateKind::Const1 => true,
                    GateKind::Dff => false,
                    kind => {
                        let pins: Vec<Trit> = g
                            .fanin()
                            .iter()
                            .map(|f| Trit::from_bool(val[f.index()]))
                            .collect();
                        eval_trit(kind, &pins) == Trit::One
                    }
                };
            }
            val
        })
        .collect()
}

/// Per-pattern detection masks for every fault: row `p` answers "which
/// faults does input pattern `p` alone detect".
fn detection_tables(n: &Netlist, faults: &FaultList) -> Vec<BitVec> {
    let fsim = FaultSimulator::new(n).unwrap();
    let width = n.inputs().len();
    (0..1u32 << width)
        .map(|pat| {
            let p = BitVec::from_u64(width, pat as u64);
            fsim.detects(std::slice::from_ref(&p), faults)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness: a statically-proven untestable fault is never detected —
    /// not by random patterns, not by the full ATPG test set.
    #[test]
    fn proven_untestable_faults_are_never_detected(
        netlist in arb_redundant_netlist(),
        pseed in any::<u64>(),
    ) {
        let faults = FaultList::full(&netlist);
        let mask = untestable_faults(&netlist, &faults, &[]).unwrap();
        let fsim = FaultSimulator::new(&netlist).unwrap();

        // random pattern sets
        let w = netlist.inputs().len();
        let mut s = pseed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let random: Vec<BitVec> = (0..32).map(|_| BitVec::random_with(w, &mut next)).collect();
        let detected = fsim.detects(&random, &faults);

        // the full ATPG run (targets the same list, generates its own set)
        let atpg = Atpg::new(&netlist).unwrap();
        let r = atpg.run(&faults, &AtpgConfig::default());
        let atpg_detected = fsim.detects(&r.patterns, &faults);

        for (id, f) in faults.iter() {
            if !mask[id.index()] {
                continue;
            }
            prop_assert!(
                !detected.get(id.index()),
                "random patterns detect proven-untestable {}",
                f.describe(&netlist)
            );
            prop_assert!(
                !atpg_detected.get(id.index()) && !r.detected.get(id.index()),
                "ATPG detects proven-untestable {}",
                f.describe(&netlist)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness and completeness of the SAT fault miter: for every fault
    /// of the full list, UNSAT exactly when no input pattern detects it.
    /// `prove_redundancy` classifies the same list the same way, with no
    /// fault left unknown.
    #[test]
    fn sat_miter_proves_exactly_the_undetectable_faults(netlist in arb_redundant_netlist()) {
        let faults = FaultList::full(&netlist);
        let detected = detection_tables(&netlist, &faults);
        let undetectable: Vec<FaultId> = faults
            .iter()
            .map(|(id, _)| id)
            .filter(|id| detected.iter().all(|d| !d.get(id.index())))
            .collect();
        let r = prove_redundancy(&netlist, 1).unwrap();
        prop_assert_eq!(r.faults.as_slice(), faults.as_slice());
        prop_assert_eq!(&r.untestable, &undetectable);
        prop_assert!(r.unknown.is_empty(), "unknown faults {:?}", r.unknown);
        let miter = FaultMiter::new(&netlist).unwrap();
        let mut session = miter.session();
        for (id, f) in faults.iter() {
            let detectable = detected.iter().any(|d| d.get(id.index()));
            let verdict = session.check(f);
            prop_assert!(
                verdict != SatVerdict::Unknown,
                "budget spent on {}", f.describe(&netlist)
            );
            prop_assert_eq!(
                verdict == SatVerdict::Untestable,
                !detectable,
                "{} is {} but the miter says {:?}",
                f.describe(&netlist),
                if detectable { "detectable" } else { "undetectable" },
                verdict
            );
        }
    }

    /// Soundness of SAT-proven constants: the miter proves a net constant
    /// exactly when the truth table holds it at that value, refutes every
    /// other candidate with a table row at the other value, and the
    /// pre-pass handed the proven constants proves a superset of the plain
    /// mask and still no fault any input pattern detects. `prove_redundancy`
    /// proves the same constants.
    #[test]
    fn sat_proven_constants_hold_and_strengthen_the_prepass(netlist in arb_redundant_netlist()) {
        let tables = truth_tables(&netlist);
        let miter = FaultMiter::new(&netlist).unwrap();
        let mut session = miter.session();
        let mut constants = Vec::new();
        for (id, g) in netlist.iter() {
            if g.kind().is_source() {
                continue;
            }
            for v in [false, true] {
                let verdict = session.check_constant(id, v);
                let constant = tables.iter().all(|row| row[id.index()] == v);
                prop_assert!(
                    verdict != ConstantVerdict::Unknown,
                    "budget spent on {}={}", g.name(), v
                );
                prop_assert_eq!(
                    verdict == ConstantVerdict::Constant,
                    constant,
                    "{}={} is {} in the truth table but the miter says {:?}",
                    g.name(),
                    v,
                    if constant { "constant" } else { "not constant" },
                    verdict
                );
                match verdict {
                    ConstantVerdict::Constant => constants.push((id, v)),
                    ConstantVerdict::Toggles => {
                        // the model cube drives the net to the other value
                        let cube = session.model_cube();
                        for fill in [false, true] {
                            let p = cube.fill_const(fill);
                            let row = (0..p.width()).fold(0, |r, k| r | (p.get(k) as usize) << k);
                            prop_assert_eq!(
                                tables[row][id.index()], !v,
                                "the model cube {} of {}={} misses the other value", cube, g.name(), v
                            );
                        }
                    }
                    ConstantVerdict::Unknown => {}
                }
            }
        }
        prop_assert_eq!(&prove_redundancy(&netlist, 1).unwrap().constants, &constants);

        let faults = FaultList::full(&netlist);
        let detected = detection_tables(&netlist, &faults);
        let plain = untestable_faults(&netlist, &faults, &[]).unwrap();
        let with_constants = untestable_faults(&netlist, &faults, &constants).unwrap();
        for (id, f) in faults.iter() {
            prop_assert!(
                !plain[id.index()] || with_constants[id.index()],
                "the constants dropped the plain verdict on {}",
                f.describe(&netlist)
            );
            if with_constants[id.index()] {
                prop_assert!(
                    detected.iter().all(|det| !det.get(id.index())),
                    "the pre-pass with constants claims {} untestable but a pattern detects it",
                    f.describe(&netlist)
                );
            }
        }
    }

    /// Soundness of SAT tests: every `Testable` verdict's model cube
    /// detects its fault when filled at random, with zeros and with ones.
    #[test]
    fn sat_model_cubes_detect_their_faults(netlist in arb_redundant_netlist(), fseed in any::<u64>()) {
        let faults = FaultList::full(&netlist);
        let miter = FaultMiter::new(&netlist).unwrap();
        let mut session = miter.session();
        let mut s = fseed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        for (_, f) in faults.iter() {
            if session.check(f) != SatVerdict::Testable {
                continue;
            }
            let cube = session.model_cube();
            for (fill, p) in [
                ("random", cube.fill_with(&mut next)),
                ("zeros", cube.fill_const(false)),
                ("ones", cube.fill_const(true)),
            ] {
                prop_assert!(
                    fbist_fault::reference::naive_detects(&netlist, f, &p),
                    "{} cube {} filled with {} ({}) misses the fault",
                    f.describe(&netlist), cube, fill, p
                );
            }
        }
    }
}
