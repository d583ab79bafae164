//! The Figure-2 trade-off: number of reseedings vs. global test length.
//!
//! Run with `cargo run --release --example tradeoff_sweep`.
//!
//! Sweeps the evolution length τ on an s1238 mimic with the adder
//! accumulator (the paper's Figure-2 setup) and prints the staircase, the
//! ROM cost under both storage models, and the crossover analysis.

use set_covering_reseeding::prelude::*;
use set_covering_reseeding::reseed::{solution_rom_bits, AreaModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = genbench_profile("s1238")
        .expect("paper circuit")
        .scaled(0.25);
    let netlist = genbench_generate(&profile, 1);
    println!("UUT: {netlist}");

    let config = FlowConfig::new(TpgKind::Adder);
    let taus = [0usize, 3, 7, 15, 31, 63, 127, 255];
    let curve = tradeoff_sweep(&netlist, &config, &taus)?;

    println!(
        "\n{:>6} {:>10} {:>12} {:>14} {:>14}",
        "tau", "#triplets", "test_length", "rom(per-τ)", "rom(common-τ)"
    );
    for point in &curve {
        let triplets: Vec<Triplet> = point
            .report
            .selected
            .iter()
            .map(|s| s.triplet.clone())
            .collect();
        println!(
            "{:>6} {:>10} {:>12} {:>14} {:>14}",
            point.tau,
            point.triplets,
            point.test_length,
            solution_rom_bits(&triplets, AreaModel::PerTripletTau),
            solution_rom_bits(&triplets, AreaModel::CommonTau),
        );
    }

    // the paper's observation: a low number of reseedings needs a larger
    // test length; many reseedings shorten the test but cost ROM area
    let first = &curve[0];
    let last = &curve[curve.len() - 1];
    println!(
        "\ntrade-off: {}x fewer triplets for {:.1}x the test length",
        first.triplets as f64 / last.triplets.max(1) as f64,
        last.test_length as f64 / first.test_length.max(1) as f64
    );
    // guaranteed at every point: full target-fault coverage. (The triplet
    // count usually shrinks as τ grows — it does on this instance — but
    // a solve cut short by its node budget does not guarantee
    // monotonicity, so the example does not assert it.)
    assert!(
        curve.iter().all(|p| p.report.covers_all_target_faults()),
        "every sweep point must cover all target faults"
    );
    Ok(())
}
