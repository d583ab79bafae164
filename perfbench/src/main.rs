//! `perfbench` — end-to-end and per-layer benchmark of the reseeding flow.
//!
//! ```text
//! perfbench --workload reseed-cold|sweep-cold|serve-warm --seed N
//!           --seconds S --trace 0|1 --fbist PATH --scratch DIR
//!           [--trace-out FILE]
//! ```
//!
//! Runs one workload for `S` seconds, checks every output, and prints a
//! human-readable summary on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run additionally replays the work decomposed into layer calls, with a
//! span around each, reports the per-layer metrics instead and writes
//! the spans as JSON to `FILE`. See `README.md`.

mod cold;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;

use util::{json_num, json_str};

/// End-to-end metrics, in output order: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s_p50", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p95", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("fault_coverage", "ratio"),
    ("rom_bits", "bits"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics of the traced run: (name, unit). Every workload
/// reports all of them; a layer a workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("atpg.run_s", "s"),
    ("atpg.patterns", "count"),
    ("atpg.podem_tests", "count"),
    ("atpg.untestable", "count"),
    ("atpg.aborted", "count"),
    ("atpg.podem_yield", "ratio"),
    ("core.matrix_s", "s"),
    ("core.matrix_sim_passes", "count"),
    ("tpg.expand_s", "s"),
    ("tpg.patterns_expanded", "count"),
    ("fault.sim_blocks", "count"),
    ("fault.sim_lanes", "count"),
    ("fault.occupancy", "ratio"),
    ("setcover.matrix_ones", "count"),
    ("setcover.threshold_s", "s"),
    ("setcover.reduce_s", "s"),
    ("setcover.reduction_iterations", "count"),
    ("setcover.dominated_rows", "count"),
    ("setcover.solve_s", "s"),
    ("setcover.solver_nodes", "count"),
    ("core.finish_s", "s"),
    ("core.trim_s", "s"),
    ("core.trim_patterns_resimulated", "count"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("genbench.generate_s", "s"),
    ("core.flow_new_s", "s"),
    ("serve.cover_hit_ratio", "ratio"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("cli.self_ms_mean", "ms"),
    ("pool.cpu_over_wall", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// The per-layer counters that must repeat exactly across the two
/// traced passes (one at jobs=1, one at all cores).
const DETERMINISTIC: &[&str] = &[
    "atpg.patterns",
    "atpg.podem_tests",
    "atpg.untestable",
    "atpg.aborted",
    "atpg.podem_yield",
    "core.matrix_sim_passes",
    "setcover.matrix_ones",
    "setcover.reduction_iterations",
    "setcover.dominated_rows",
    "setcover.solver_nodes",
    "core.trim_patterns_resimulated",
    "rom_bits",
    "fault_coverage",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `fbist` binary `serve-warm` drives.
    pub fbist: PathBuf,
    /// Private directory for stores.
    pub scratch: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Operations attempted and failed, with a stderr line per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {what}");
        }
    }
}

/// What a workload hands back: the operation tally, the end-to-end
/// metrics, and (traced runs only) the per-layer metrics plus the
/// deterministic counters of the two traced passes.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub e2e: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentile metrics, for the summary.
    pub samples: Vec<(&'static str, usize)>,
    pub layers: BTreeMap<&'static str, f64>,
    pub traces: Vec<trace::Tracer>,
}

impl Outcome {
    /// Checks that the layer spans account for the traced pass: the part
    /// of the `pass` root no span covers stays under 5 % of its wall.
    pub fn check_attributed(&mut self, tracer: &trace::Tracer) {
        let wall = tracer.total("pass", "pass");
        let unattributed = tracer
            .self_by_name("pass")
            .get("pass")
            .copied()
            .unwrap_or(0.0);
        self.tally.op(
            unattributed <= 0.05 * wall,
            &format!(
                "layer spans leave {unattributed:.4} s of the {wall:.4} s traced pass unattributed"
            ),
        );
    }

    /// Compares the deterministic counters of two traced passes.
    pub fn check_deterministic(
        &mut self,
        a: &BTreeMap<&'static str, f64>,
        b: &BTreeMap<&'static str, f64>,
        what: &str,
    ) {
        for name in DETERMINISTIC {
            let (x, y) = (a.get(name), b.get(name));
            self.tally.op(
                x == y,
                &format!("{what}: counter {name} differs ({x:?} vs {y:?})"),
            );
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_owned())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        fbist: PathBuf::from(get("--fbist")?),
        scratch: PathBuf::from(get("--scratch")?),
        trace_out: get("--trace-out").ok().map(PathBuf::from),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "reseed-cold" => cold::run(&args, cold::RESEED_COLD),
        "sweep-cold" => cold::run(&args, cold::SWEEP_COLD),
        "serve-warm" => serve::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (reseed-cold, sweep-cold, serve-warm)"
            );
            std::process::exit(2);
        }
    };
    let t = &outcome.tally;
    outcome.e2e.insert(
        "success_rate",
        1.0 - t.failed as f64 / t.attempted.max(1) as f64,
    );
    print_summary(&args, &outcome);
    if let (true, Some(path)) = (args.trace, &args.trace_out) {
        let body: Vec<String> = outcome.traces.iter().map(trace::Tracer::to_json).collect();
        let json = format!(
            "{{\"workload\": {}, \"seed\": {}, \"traces\": [{}]}}\n",
            json_str(&args.workload),
            args.seed,
            body.join(",\n")
        );
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let table: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    let source = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = source.get(name).copied().map_or(0.0, metric_value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        metrics.join(", ")
    );
}

/// A metric as reported: an empty sum reads -0.0, printed as plain 0.
fn metric_value(v: f64) -> f64 {
    v + 0.0
}

/// Every end-to-end metric by name and unit (plus `error_rate` and the
/// sample counts), and in traced runs every per-layer metric, on stderr.
fn print_summary(args: &Args, outcome: &Outcome) {
    let t = &outcome.tally;
    eprintln!(
        "perfbench: workload {} seed {} ({} s measured)",
        args.workload, args.seed, args.seconds
    );
    for (name, unit) in END_TO_END {
        let v = outcome.e2e.get(name).copied().map_or(0.0, metric_value);
        eprintln!("  {name:<32} {v:>14.6} {unit}");
    }
    eprintln!(
        "  {:<32} {:>14.6} ratio  ({} failed of {} attempted)",
        "error_rate",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for (name, n) in &outcome.samples {
        eprintln!("  {name:<32} {n:>14} samples");
    }
    if args.trace {
        eprintln!("  per layer (traced pass):");
        for (name, unit) in PER_LAYER {
            let v = outcome.layers.get(name).copied().map_or(0.0, metric_value);
            eprintln!("  {name:<32} {v:>14.6} {unit}");
        }
    }
}
