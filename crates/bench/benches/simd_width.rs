//! Narrow vs. wide SIMD simulation blocks.
//!
//! Measures the batched Detection-Matrix build (`matrix_for`, the flow's
//! dominant cost) at `jobs = 1` and the default `τ = 31` with the block
//! width pinned to `W = 1` (the historical 64-lane engine) and resolved
//! by `auto` (the widest `[u64; W]` whose block count still shrinks —
//! `W = 8` on these pattern streams), on a mid-size and a c7552-scale
//! circuit. The two widths are bit-identical by construction (asserted
//! below before timing), so every ratio is pure speedup: a W-wide block
//! runs one levelised sweep where the narrow engine runs W, trading them
//! for `[u64; W]` lane arithmetic the autovectorizer lowers to 128- to
//! 512-bit SIMD.
//!
//! CI consumes the merged `BENCH_results.json` entries and fails if
//! `auto` is ever slower than `W = 1` (parity is the floor on scalar-ish
//! runners; SIMD-capable hosts see the real win).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_bench::build_circuit;
use fbist_genbench::profile;
use reseed_core::{FlowConfig, InitialReseedingBuilder, SimdWidth, TpgKind};

fn bench_simd_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_width");
    group.sample_size(10);
    for name in ["mid256", "big3500"] {
        let p = profile(name).expect("profile registered");
        let netlist = build_circuit(&p, 1);
        let cfg = FlowConfig::new(TpgKind::Adder);
        let builder = InitialReseedingBuilder::new(&netlist).expect("combinational circuit");
        let base = builder.build(&cfg);
        let tpg = cfg.tpg.build(netlist.inputs().len());

        // the planner hands the full cross-row lane stream to the width
        // resolver, so `auto` actually widens
        let run = |width: SimdWidth| {
            builder.matrix_for(
                tpg.as_ref(),
                &base.atpg.patterns,
                &base.target_faults,
                31,
                cfg.seed,
                1,
                cfg.matrix_build,
                width,
            )
        };
        assert_eq!(
            run(SimdWidth::W1).1.row_major(),
            run(SimdWidth::Auto).1.row_major(),
            "wide matrix must be bit-identical to narrow ({name})"
        );
        for (label, width) in [("w1", SimdWidth::W1), ("auto", SimdWidth::Auto)] {
            group.bench_with_input(BenchmarkId::new(label, name), &width, |b, &width| {
                b.iter(|| run(width))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simd_width);
criterion_main!(benches);
