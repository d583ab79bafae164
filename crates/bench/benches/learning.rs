//! Cost and payoff of static learning against the ATPG wall clock.
//!
//! The learned-implication database ([`LearnedImplications`]) is built
//! once per netlist and then consulted for free — by the Phase-0
//! untestability pre-pass and by every PODEM search. This bench times the
//! build on the `big3500` mimic (`learn/big3500`) next to the
//! deterministic ATPG run with the PR-8 pre-pass only
//! (`atpg_wall/prepass`) and with learning on top (`atpg_wall/learning`).
//! CI's push-gated `learning-bench` job bounds the database build at
//! ≤5 % of the pre-pass-only ATPG wall clock from `BENCH_results.json`;
//! in practice learning *pays for itself outright* — the learning run's
//! total wall clock (database build included) is below the pre-pass-only
//! baseline, because every learned-pruned fault and every
//! learning-seeded search skips PODEM backtracking that dominates the
//! budget-limited aborts.
//!
//! Before timing, the bench asserts the semantic contract pinned for
//! every profile by `tests/analyze_equivalence.rs`, at full `big3500`
//! scale:
//!
//! * the learned pre-pass proves a strict superset of the plain
//!   pre-pass's untestable faults;
//! * with learning on, strictly fewer faults are aborted than the
//!   pre-pass-only baseline (705 → 634 on `big3500`);
//! * the proven-untestable set is no smaller. Since the SAT fault miter
//!   proves what PODEM cannot, both runs prove the same 3136 faults on
//!   `big3500`, so learning no longer *grows* it;
//! * fault coverage never drops (it in fact *rises*: searches seeded
//!   with learned implications find tests for faults the unseeded
//!   search aborted, and every such fault is a genuine detection).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_analyze::{untestable_faults, untestable_faults_with, LearnedImplications};
use fbist_atpg::{Atpg, AtpgConfig};
use fbist_bench::build_circuit;
use fbist_fault::FaultList;
use fbist_genbench::profile;

fn bench_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("learning");
    group.sample_size(10);

    let p = profile("big3500").expect("paper-scale mimic");
    let netlist = build_circuit(&p, 1);
    let faults = FaultList::collapsed(&netlist);

    // The database must prove strictly more than the plain pre-pass, or
    // the timings measure learning that learned nothing.
    let db = LearnedImplications::learn(&netlist).expect("combinational mimic");
    let plain = untestable_faults(&netlist, &faults).expect("validated netlist");
    let learned = untestable_faults_with(&netlist, &faults, Some(&db)).expect("validated netlist");
    for (i, (&p, &l)) in plain.iter().zip(&learned).enumerate() {
        assert!(
            !p || l,
            "fault {i}: proven by the plain pass, lost with learning"
        );
    }
    let plain_count = plain.iter().filter(|&&m| m).count();
    let learned_count = learned.iter().filter(|&&m| m).count();
    assert!(
        learned_count > plain_count,
        "learning proves nothing beyond the plain pre-pass \
         ({plain_count} -> {learned_count}) — timing a no-op"
    );

    // ATPG payoff contract: strictly fewer aborts, no fewer proofs,
    // coverage no worse than the pre-pass-only baseline.
    let atpg = Atpg::new(&netlist).expect("combinational mimic");
    let run = |static_learning: bool| {
        atpg.run(
            &faults,
            &AtpgConfig {
                static_prepass: true,
                static_learning,
                ..AtpgConfig::default()
            },
        )
    };
    let prepass = run(false);
    let learning = run(true);
    assert!(
        !prepass.aborted.is_empty(),
        "big3500 no longer aborts faults — move the payoff assertions to a \
         profile that does"
    );
    assert!(
        learning.aborted.len() < prepass.aborted.len(),
        "learning must strictly reduce aborted faults ({} -> {})",
        prepass.aborted.len(),
        learning.aborted.len()
    );
    assert!(
        learning.untestable.len() >= prepass.untestable.len(),
        "learning must not shrink the proven-untestable set ({} -> {})",
        prepass.untestable.len(),
        learning.untestable.len()
    );
    assert!(
        learning.coverage() >= prepass.coverage(),
        "learning dropped fault coverage ({:.4} -> {:.4})",
        prepass.coverage(),
        learning.coverage()
    );

    group.bench_with_input(BenchmarkId::new("learn", "big3500"), &(), |b, ()| {
        b.iter(|| LearnedImplications::learn(&netlist))
    });
    for (label, static_learning) in [("prepass", false), ("learning", true)] {
        group.bench_with_input(
            BenchmarkId::new("atpg_wall", label),
            &static_learning,
            |b, &static_learning| b.iter(|| run(static_learning)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_learning);
criterion_main!(benches);
