//! Ablation A: how much the essentiality/dominance reduction buys.
//!
//! The paper's §4 claim: "the reduction process is highly effective … the
//! size of the reduced matrix allows dealing with it with an exact
//! algorithm". Compared here: solve time with reductions off / paper
//! (essential + row dominance) / all (incl. column dominance).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbist_setcover::generate::detection_shaped;
use fbist_setcover::{solve, ExactConfig, ReducerConfig, SolveConfig};

fn configs() -> Vec<(&'static str, SolveConfig)> {
    let exact = ExactConfig {
        node_limit: 2_000_000,
    };
    vec![
        (
            "no_reduction",
            SolveConfig {
                reducer: ReducerConfig::none(),
                exact,
                ..SolveConfig::default()
            },
        ),
        (
            "paper_reduction",
            SolveConfig {
                reducer: ReducerConfig::default(),
                exact,
                ..SolveConfig::default()
            },
        ),
        (
            "all_reductions",
            SolveConfig {
                reducer: ReducerConfig::all(),
                exact,
                ..SolveConfig::default()
            },
        ),
    ]
}

fn bench_reduction_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduction_ablation");
    group.sample_size(10);
    for &(rows, cols) in &[(40usize, 120usize), (80, 240)] {
        let m = detection_shaped(rows, cols, 17);
        for (name, cfg) in configs() {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{rows}x{cols}")),
                &m,
                |b, m| b.iter(|| solve(m, &cfg)),
            );
        }
        // sanity: all three agree on the optimum
        let ks: Vec<usize> = configs()
            .iter()
            .map(|(_, cfg)| solve(&m, cfg).cardinality())
            .collect();
        assert!(
            ks.windows(2).all(|w| w[0] == w[1]),
            "reduction changed the optimum: {ks:?}"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reduction_ablation);
criterion_main!(benches);
