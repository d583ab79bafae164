//! Regenerates **Figure 2** of the paper: the trade-off between the number
//! of reseedings and the global test length, on s1238 with the adder-based
//! accumulator.
//!
//! In the paper, growing the test length from 5 427 to 15 551 drives the
//! triplet count down 11 → 7 → 5 → 4 → … → 2. The shape to check is the
//! monotone staircase: larger τ ⇒ longer (untrimmed) sequences ⇒ denser
//! detection-matrix rows ⇒ fewer triplets, with diminishing returns.
//!
//! ```text
//! cargo run -p fbist-bench --release --bin figure2 [-- --scale 0.35 \
//!     --circuit s1238 --tpg add --taus 0,3,7,15,31,63,127,255,511 --jobs 0]
//! ```

use fbist_bench::{build_circuit, Args, JOBS_FLAGS};
use fbist_genbench::profile;
use reseed_core::{tradeoff_sweep, FlowConfig, TpgKind};

fn main() {
    let args = Args::from_env(
        "figure2",
        &[
            JOBS_FLAGS,
            &[
                ("--circuit", true),
                ("--scale", true),
                ("--seed", true),
                ("--tpg", true),
                ("--taus", true),
            ],
        ],
    );
    let jobs = args.install_jobs();
    let circuit = args.flag("--circuit").unwrap_or_else(|| "s1238".to_owned());
    let scale: f64 = args.num("--scale", 0.35);
    let seed: u64 = args.num("--seed", 1);
    let tpg = match args.flag("--tpg").as_deref() {
        None | Some("add") => TpgKind::Adder,
        Some("sub") => TpgKind::Subtracter,
        Some("mul") => TpgKind::Multiplier,
        Some("lfsr") => TpgKind::Lfsr,
        Some(other) => args.fail(&format!(
            "invalid value for --tpg: {other:?} (expected add, sub, mul or lfsr)"
        )),
    };
    let taus: Vec<usize> = match args.flag("--taus") {
        Some(list) => reseed_core::parse_tau_list(&list).unwrap_or_else(|e| args.fail(&e)),
        None => vec![0, 3, 7, 15, 31, 63, 127, 255, 511],
    };

    let p = profile(&circuit)
        .unwrap_or_else(|| panic!("unknown profile {circuit:?}"))
        .scaled(scale);
    let netlist = build_circuit(&p, seed);
    let tau_max = taus.iter().copied().max().unwrap_or(0);
    let workers = mini_rayon::max_workers(0);
    reseed_core::admit_tau(tau_max, netlist.inputs().len(), workers)
        .unwrap_or_else(|e| args.fail(&e));
    let cfg = FlowConfig::new(tpg).with_seed(seed);
    let curve = tradeoff_sweep(&netlist, &cfg, &taus).expect("combinational mimic");

    println!(
        "# Figure 2 — trade-off reseedings vs. test length ({circuit} @ scale {scale}, TPG {tpg}, seed {seed}, jobs {jobs})"
    );
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "tau", "#triplets", "test_length", "rom_bits"
    );
    for pt in &curve {
        println!(
            "{:>6} {:>10} {:>12} {:>10}",
            pt.tau, pt.triplets, pt.test_length, pt.rom_bits
        );
    }
    // ASCII rendition of the staircase
    let kmax = curve.iter().map(|p| p.triplets).max().unwrap_or(1);
    println!("\n# triplets vs test length (each ▇ column ∝ #triplets)");
    for pt in &curve {
        let bar = "▇".repeat(pt.triplets * 40 / kmax.max(1));
        println!("len {:>7} | {bar} {}", pt.test_length, pt.triplets);
    }
    // the paper's Figure-2 shape. This is an empirical property of the
    // instance, not a guarantee: a solve cut short by its node budget
    // can return a (still fully covering) larger cover at a larger τ.
    let monotone = curve.windows(2).all(|w| w[1].triplets <= w[0].triplets);
    println!(
        "\n# monotone non-increasing triplet count: {}",
        if monotone {
            "yes (matches Figure 2)"
        } else {
            "no (legal — the solver does not guarantee monotonicity)"
        }
    );
}
