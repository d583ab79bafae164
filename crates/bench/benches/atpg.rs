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
//!
//! The two variants are timed in one interleaved loop of [`PAIRS`]
//! pairs, alternating which runs first, rather than as two batches one
//! after the other: a change in host load then slows both alike instead
//! of deciding the ratio.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_atpg::{Atpg, AtpgConfig};
use fbist_bench::build_circuit;
use fbist_fault::FaultList;
use fbist_genbench::profile;

/// Interleaved (serial, parallel) pairs timed per run.
const PAIRS: usize = 200;

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
    let variants = [("serial", 1), ("parallel", 4)];
    let mut times: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..PAIRS {
        for v in [pair % 2, 1 - pair % 2] {
            let start = Instant::now();
            black_box(run(variants[v].1));
            times[v].push(start.elapsed());
        }
    }
    let mut group = c.benchmark_group("atpg");
    group.sample_size(PAIRS);
    for ((label, jobs), times) in variants.into_iter().zip(&times) {
        group.bench_with_input(BenchmarkId::new("jobs", label), &jobs, |b, _| {
            b.iter_custom(|iters| times[..iters as usize].iter().sum())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_atpg);
criterion_main!(benches);
