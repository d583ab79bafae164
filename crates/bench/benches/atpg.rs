//! Serial vs. fault-parallel deterministic ATPG.
//!
//! Measures `Atpg::run` — the Phase-3 PODEM rounds fanned over the
//! `mini-rayon` pool — on the `mid256` mimic at `jobs = 1` against
//! `jobs = 4`. The two variants are bit-identical by construction
//! (asserted below before timing, and pinned for every profile by
//! `tests/atpg_equivalence.rs`), so the ratio is pure speedup — or, on a
//! single-core host, pure round/dictionary overhead, which CI's `bench`
//! job bounds at ≤8 % over serial from the `BENCH_results.json` the
//! criterion shim writes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_atpg::{Atpg, AtpgConfig};
use fbist_bench::build_circuit;
use fbist_fault::FaultList;
use fbist_genbench::profile;

fn bench_atpg(c: &mut Criterion) {
    let p = profile("mid256").expect("paper-scale mimic");
    let netlist = build_circuit(&p, 1);
    let atpg = Atpg::new(&netlist).expect("combinational mimic");
    let faults = FaultList::collapsed(&netlist);

    let run = |jobs: usize| {
        atpg.run(
            &faults,
            &AtpgConfig {
                jobs,
                ..AtpgConfig::default()
            },
        )
    };
    assert_eq!(
        run(1),
        run(4),
        "parallel ATPG must be bit-identical to serial"
    );

    // fixed IDs so BENCH_results.json keys stay comparable across
    // machines with different core counts
    let mut group = c.benchmark_group("atpg");
    group.sample_size(10);
    for (label, jobs) in [("serial", 1), ("parallel", 4)] {
        group.bench_with_input(BenchmarkId::new("jobs", label), &jobs, |b, &jobs| {
            b.iter(|| run(jobs));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_atpg);
criterion_main!(benches);
