//! Parallel vs. sequential Detection-Matrix construction.
//!
//! Measures `InitialReseedingBuilder::matrix_for` — the dominant cost of
//! `table1`/`table2`/`figure2` and of every `ReseedingFlow::run` — at
//! `jobs = 1` against `jobs =` all available cores. The two variants are
//! bit-identical by construction (asserted below before timing), so the
//! ratio is pure speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_bench::build_circuit;
use fbist_genbench::profile;
use reseed_core::{FlowConfig, InitialReseedingBuilder, SimdWidth, TpgKind};

fn bench_par_matrix(c: &mut Criterion) {
    let p = profile("s1238").expect("paper circuit").scaled(0.3);
    let netlist = build_circuit(&p, 1);
    let cfg = FlowConfig::new(TpgKind::Adder).with_tau(31);
    let builder = InitialReseedingBuilder::new(&netlist).expect("combinational mimic");
    let base = builder.build(&cfg);
    let tpg = cfg.tpg.build(netlist.inputs().len());

    let run = |jobs: usize| {
        builder.matrix_for(
            &tpg,
            &base.atpg.patterns,
            &base.target_faults,
            cfg.tau,
            cfg.seed,
            jobs,
            cfg.matrix_build,
            SimdWidth::Auto,
        )
    };
    let hw = mini_rayon::jobs().max(2);
    assert_eq!(
        run(1).1.row_major(),
        run(hw).1.row_major(),
        "parallel matrix must be bit-identical to sequential"
    );

    // fixed IDs ("1" and "all") so BENCH_results.json keys stay
    // comparable across machines with different core counts
    let mut group = c.benchmark_group("par_matrix");
    group.sample_size(10);
    for (label, jobs) in [("1", 1), ("all", hw)] {
        group.bench_with_input(BenchmarkId::new("jobs", label), &jobs, |b, &jobs| {
            b.iter(|| run(jobs));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_matrix);
criterion_main!(benches);
