//! Cost of the static analyses against the ATPG wall clock they amortise.
//!
//! Two cheap passes — `analyze`, the static half of `fbist check`
//! (structural diagnostics, implied constants and the SCOAP report; the
//! SAT half is an ATPG run like `atpg_wall/prepass`), and the
//! untestability pre-pass (`AtpgConfig::static_prepass`'s Phase 2
//! implication pass, here over the whole fault list and without proven
//! constants) — are timed on the `mid256` and `big3500` mimics, next to
//! the `big3500` deterministic ATPG run with the knob off
//! (`atpg_wall/full`, pure PODEM) and on (`atpg_wall/prepass`). The
//! knob-on run is the whole default engine: it proves the nets its random
//! phase never toggled constant with the SAT fault miter, runs the
//! pre-pass on the survivors with those constants in its baseline, and
//! completes PODEM with SAT, so the constant proofs are timed inside
//! `atpg_wall/prepass`, not in `prepass/*`. CI's push-gated
//! `analyze-bench` job bounds the pre-pass at ≤5 % of the pure-PODEM ATPG
//! wall clock from the `BENCH_results.json` the criterion shim writes.
//!
//! Before timing, the bench asserts the semantic contract pinned for every
//! profile by `tests/analyze_equivalence.rs`: the same random phase with
//! the knob on and off, no fault aborting only with it on, no proof lost,
//! coverage no lower, and a strict reduction of the PODEM target count on
//! a profile that aborts faults.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_analyze::{analyze, untestable_faults};
use fbist_atpg::{Atpg, AtpgConfig};
use fbist_bench::build_circuit;
use fbist_fault::FaultList;
use fbist_genbench::profile;

fn bench_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyze");
    group.sample_size(10);

    for name in ["mid256", "big3500"] {
        let p = profile(name).expect("paper-scale mimic");
        let netlist = build_circuit(&p, 1);
        let faults = FaultList::collapsed(&netlist);

        // The check pass must be clean on generator output and the
        // pre-pass must prove something, or the timings measure a no-op.
        let report = analyze(&netlist);
        assert!(
            !report.has_findings(),
            "{name}: generator output not check-clean:\n{}",
            report.render_text()
        );
        let proven = untestable_faults(&netlist, &faults, &[]).expect("validated netlist");
        assert!(
            proven.iter().any(|&m| m),
            "{name}: pre-pass proves no fault untestable — timing a no-op"
        );

        group.bench_with_input(BenchmarkId::new("check", name), &name, |b, _| {
            b.iter(|| analyze(&netlist))
        });
        group.bench_with_input(BenchmarkId::new("prepass", name), &name, |b, _| {
            b.iter(|| untestable_faults(&netlist, &faults, &[]))
        });
    }

    // ATPG wall clock, knob off vs on, on the profile whose aborted
    // faults the pre-pass exists for.
    let p = profile("big3500").expect("paper-scale mimic");
    let netlist = build_circuit(&p, 1);
    let atpg = Atpg::new(&netlist).expect("combinational mimic");
    let faults = FaultList::collapsed(&netlist);
    let run = |static_prepass: bool| {
        atpg.run(
            &faults,
            &AtpgConfig {
                static_prepass,
                ..AtpgConfig::default()
            },
        )
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(
        off.random_detected, on.random_detected,
        "pre-pass changed the random phase"
    );
    assert!(
        on.aborted.iter().all(|id| off.aborted.contains(id)),
        "a fault aborts only with the pre-pass on"
    );
    assert!(
        off.untestable.iter().all(|id| on.untestable.contains(id)),
        "the pre-pass lost an untestability proof"
    );
    assert!(
        on.coverage() >= off.coverage(),
        "the pre-pass lost coverage"
    );
    assert!(
        !off.aborted.is_empty(),
        "big3500 no longer aborts faults — move the PODEM-target assertion \
         to a profile that does"
    );
    // PODEM targets = faults surviving random detection and static
    // pruning. Pruned faults are never randomly detected, so any pruning
    // strictly shrinks the PODEM workload.
    let pruned = untestable_faults(&netlist, &faults, &[])
        .expect("validated netlist")
        .iter()
        .filter(|&&m| m)
        .count();
    let podem_off = off.total_faults - off.random_detected;
    let podem_on = on.total_faults - pruned - on.random_detected;
    assert!(
        pruned > 0 && podem_on < podem_off,
        "pre-pass must strictly reduce PODEM targets ({podem_off} -> {podem_on})"
    );

    for (label, static_prepass) in [("full", false), ("prepass", true)] {
        group.bench_with_input(
            BenchmarkId::new("atpg_wall", label),
            &static_prepass,
            |b, &static_prepass| b.iter(|| run(static_prepass)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
