//! Regenerates **Table 2** of the paper: the anatomy of the set-covering
//! computation — initial Detection-Matrix size, the effect of the
//! essentiality/dominance reduction, and how many triplets come from
//! necessity vs. from the exact solver (the paper's "LINGO" column).
//!
//! ```text
//! cargo run -p fbist-bench --release --bin table2 [-- --scale 0.15 \
//!     --circuits c499,s1238 --tau 31 --greedy --jobs 0]
//! ```
//!
//! Shapes to check against the paper:
//! * the reduction shrinks the matrix massively (often to empty — the
//!   paper's c499, c880, c1355, c1908, s820, s838, s953, s1423, s15850
//!   solve by necessary triplets alone);
//! * other circuits split between solver-only and mixed solutions.

use fbist_bench::{build_circuit, display_name, suite_from_args, Args, JOBS_FLAGS, SUITE_FLAGS};
use fbist_setcover::{Engine, SolveConfig};
use reseed_core::{FlowConfig, ReseedingFlow, TpgKind};

fn main() {
    let args = Args::from_env(
        "table2",
        &[
            JOBS_FLAGS,
            SUITE_FLAGS,
            &[("--tau", true), ("--greedy", false)],
        ],
    );
    let suite = suite_from_args(&args);
    let jobs = args.install_jobs();
    let tau: usize = args.num("--tau", 31);
    let greedy = args.has("--greedy");

    println!(
        "# Table 2 — set-covering algorithm anatomy (scale {}, τ = {tau}, seed {}, engine {}, jobs {jobs})",
        suite.scale,
        suite.seed,
        if greedy { "greedy" } else { "exact" }
    );
    println!(
        "{:<10} {:>14} | {:>4} {:>11} {:>5} {:>6} {:>6} {:>6} {:>9}",
        "circuit", "initial MxF", "tpg", "residual", "iter", "domin", "necess", "solver", "total"
    );

    for p in &suite.profiles {
        let netlist = build_circuit(p, suite.seed);
        let flow = match ReseedingFlow::new(&netlist) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{}: {e}", p.name);
                continue;
            }
        };
        let mut first = true;
        for tpg in TpgKind::PAPER {
            let mut cfg = FlowConfig::new(tpg).with_tau(tau).with_seed(suite.seed);
            if greedy {
                cfg = cfg.with_solve(SolveConfig {
                    engine: Engine::Greedy,
                    ..SolveConfig::default()
                });
            }
            let report = flow.run(&cfg);
            let initial = if first {
                format!("{}x{}", report.initial_triplets, report.target_faults)
            } else {
                String::new()
            };
            println!(
                "{:<10} {:>14} | {:>4} {:>11} {:>5} {:>6} {:>6} {:>6} {:>9}",
                if first { display_name(p) } else { "" },
                initial,
                tpg.name(),
                format!("{}x{}", report.residual.0, report.residual.1),
                report.reduction_iterations,
                report.dominated_rows,
                report.necessary_count(),
                report.solver_count(),
                format!(
                    "{}{}",
                    report.triplet_count(),
                    if report.solution_optimal { "" } else { "~" }
                ),
            );
            first = false;
            assert!(report.covers_all_target_faults());
        }
    }
    println!("# '~' marks non-proven-optimal totals (greedy engine or node budget)");
}
