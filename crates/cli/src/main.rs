//! `fbist` — command-line front end for the set-covering reseeding flow.
//!
//! ```text
//! fbist gen <profile> [--scale F] [--seed N] [--out FILE]
//! fbist stats <file.bench>
//! fbist check <file.bench|profile> [--json]
//! fbist atpg <file.bench|profile> [--seed N]
//! fbist reseed <file.bench|profile> [--tpg add|sub|mul|lfsr|mplfsr|wrand] [--tau N]
//! fbist sweep <file.bench|profile> [--tpg KIND] [--taus 0,7,31,...]
//! fbist compare <file.bench|profile> [--tpg KIND] [--tau N]
//! fbist lp <file.bench|profile> [--tpg KIND] [--tau N]
//! fbist serve [--store DIR]
//! fbist profiles
//! ```
//!
//! Circuits are resolved in a fixed namespace order: explicit `.bench`
//! paths first (a `.bench` suffix or a path separator), then built-in
//! profile names (`fbist profiles` lists them), then embedded circuits —
//! so a stray file or directory in the working directory can never shadow
//! a profile name. All subcommands are thin wrappers over the workspace
//! libraries, and all accept `--jobs N` (0 = auto; also via the
//! `FBIST_JOBS` environment variable) to size the worker pool the
//! parallel stages run on; results are identical for every job count.
//! The fault simulator picks its block width itself, so no flag sets
//! it. The Detection Matrix has one build, the cross-row batched one,
//! which expands each triplet's patterns only for the block range that
//! simulates them, so it takes no engine flag. Every subcommand
//! checks its arguments against one table of the flags it reads before
//! it runs, so an unknown flag, a repeated flag or a flag missing its
//! value is a usage error (exit status 2), never ignored. ATPG lets
//! static analysis and SAT decide what PODEM cannot: the static
//! untestability pre-pass prunes the faults the random phase leaves, and
//! a PODEM search that backtracks hands its fault to a SAT fault miter,
//! whose proof ends it untestable and whose model is its test.
//!
//! Output to a closed pipe (`fbist sweep mid256 | head -1`) ends the
//! process quietly with status 0.
//!
//! `reseed`, `sweep` and `serve` additionally accept `--store DIR` (also
//! via the `FBIST_STORE` environment variable; `--no-store` overrides
//! both) to attach the content-addressed artifact store: finished stages
//! are answered from disk when their keyed inputs match, byte-identically
//! to computing them. Store hit/miss statistics go to stderr so stdout
//! stays diffable.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use fbist_analyze::{push_capped, Finding, Implicator, Severity};
use fbist_atpg::{Atpg, AtpgConfig, Redundancy, CONFLICT_BUDGET};
use fbist_fault::{ConeSweeps, FaultId, FaultList};
use fbist_genbench::{all_profiles, generate, profile};
use fbist_netlist::{bench, full_scan, Netlist, NetlistStats};
use fbist_setcover::lp;
use fbist_sim::LaneOccupancy;
use fbist_store::ArtifactStore;
use reseed_core::flags::{check_flags, flag, parse_num, Flag};
use reseed_core::{
    export, tradeoff_sweep_with, FlowConfig, Gatsby, GatsbyConfig, InitialReseedingBuilder,
    ReseedingFlow, TpgKind,
};

/// `print!` to stdout, ending the process quietly once the reader has
/// closed the pipe (see [`exit_if_pipe_closed`]).
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` with the closed-pipe handling of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod serve;

fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        eprintln!("fbist: writing output: {}", exit_if_pipe_closed(e));
        std::process::exit(1);
    }
}

/// Ends the process quietly with status 0 when a write failed because
/// the reader closed the pipe (`fbist sweep mid256 | head -1`); any other
/// write error comes back as its message.
pub(crate) fn exit_if_pipe_closed(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    e.to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A usage error (a flag the subcommand does not list, given twice or
    // missing its value) exits 2, so scripts can tell "the invocation
    // was wrong" from "the run failed" (1). `check` also reports findings
    // with 1 and maps all of its own errors onto 2.
    if let Err(msg) = check_usage(&args) {
        return fail(&msg, 2);
    }
    if args.first().map(String::as_str) == Some("check") {
        return match cmd_check(&args[1..]) {
            Ok(findings) => ExitCode::from(u8::from(findings)),
            Err(msg) => fail(&msg, 2),
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(&msg, 1),
    }
}

/// Prints `msg` and the usage text; the process exits with `code`.
fn fail(msg: &str, code: u8) -> ExitCode {
    eprintln!("fbist: {msg}");
    eprintln!();
    eprintln!("{USAGE}");
    ExitCode::from(code)
}

const USAGE: &str = "\
usage:
  fbist profiles
  fbist gen <profile> [--scale F] [--seed N] [--out FILE]
  fbist stats <circuit>
  fbist check <circuit> [--json]
  fbist atpg <circuit> [--seed N]
  fbist reseed <circuit> [--tpg KIND] [--tau N] [--seed N] [--scale F]
               [--csv FILE] [--rom FILE]
  fbist sweep <circuit> [--tpg KIND] [--taus 0,7,31] [--scale F]
  fbist compare <circuit> [--tpg KIND] [--tau N] [--scale F]
  fbist lp <circuit> [--tpg KIND] [--tau N] [--scale F]
  fbist serve [--store DIR]

<circuit> is resolved as: an explicit .bench path (`.bench` suffix or a
path separator), else a built-in profile name, else an embedded circuit.
KIND is one of add, sub, mul, lfsr, mplfsr, wrand.
--taus takes a non-empty comma-separated list; duplicate values are
computed once, order is preserved, and every τ (like --tau) must not
exceed 16777215.
Every subcommand also accepts --jobs N (worker threads; 0 = auto, also
settable via the FBIST_JOBS environment variable); results are
identical for every job count. Any other flag a subcommand does not
list is a usage error (exit 2), and so is a flag given twice or a flag
missing its value; other failures exit 1.
check runs the static analyses (structural errors, floating nets,
unobservable logic, dead and implied constants, a SCOAP
hard-to-test-region report), then classifies every stuck-at fault of
the circuit (of its full-scan core if sequential) with the ATPG below:
untestable-faults counts the proven untestable faults, sat-untestable
those beyond the implication pass, unknown-faults those whose SAT check
spent its budget, and sat-constant lists the nets SAT proves constant
beyond the implied ones. It exits 0 when clean, 1 when anything of
warning severity or worse was found, 2 on a usage error; --json emits
the report as stable machine-readable JSON on stdout (the
\"testability\" section lists the hardest fault sites by SCOAP
difficulty).
ATPG prunes statically-proven-untestable faults among those the random
phase leaves before any PODEM effort is spent on them, and a PODEM
search that backtracks hands its fault to a SAT fault miter (within
10000 conflicts): a proof ends the search untestable, a model is the
fault's test, and only a spent budget lets PODEM continue.
reseed, sweep and serve accept --store DIR (default: the FBIST_STORE
environment variable) to cache finished stages in a content-addressed
artifact store, and --no-store to force recomputation; cached answers
are byte-identical to computed ones. serve reads line-delimited
`reseed ...`/`sweep ...` requests from stdin, taking the flags above
minus --jobs, --store, --no-store, --csv and --rom (blank line or `flush`
evaluates the batch, `quit` or EOF exits), answers `ok <id> ...` /
`err <id> ...` on stdout in submission order, and reports per-request
store statistics on stderr. It keeps up to 8 circuits resident between
requests; a request that panics answers `err <id> internal: ...` and the
rest of its batch is still answered.";

/// Checks `args` against the flag table of its subcommand (an unknown or
/// missing subcommand is left to [`run`]).
fn check_usage(args: &[String]) -> Result<(), String> {
    match args.split_first() {
        Some((cmd, rest)) => match subcommand_flags(cmd) {
            Some(flags) => check_flags(cmd, rest, flags),
            None => Ok(()),
        },
        None => Ok(()),
    }
}

/// Runs a command line whose flags [`check_usage`] accepted.
fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    apply_jobs(args)?;
    match cmd.as_str() {
        "profiles" => cmd_profiles(),
        "gen" => cmd_gen(rest),
        "stats" => cmd_stats(rest),
        // reachable only via run()'s tests: main() intercepts `check`
        // before run() so it can map the report onto its exit codes
        "check" => cmd_check(rest).map(|_| ()),
        "atpg" => cmd_atpg(rest),
        "reseed" => cmd_reseed(rest),
        "sweep" => cmd_sweep(rest),
        "compare" => cmd_compare(rest),
        "lp" => cmd_lp(rest),
        "serve" => serve::cmd_serve(rest),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

// ---------------------------------------------------------------- helpers

/// The throughput knobs every subcommand takes, each pinned
/// result-neutral by the equivalence suite its `THROUGHPUT_KNOBS` entry
/// names (`cargo run -p xtask -- lint` checks that every flag here has
/// one). `--jobs` sizes the worker pool; a `fbist serve` request takes
/// none, since the server's pool is sized once.
const KNOB_FLAGS: &[Flag] = &[("--jobs", true)];
/// Profile synthesis in [`load_circuit`].
pub(crate) const CIRCUIT_FLAGS: &[Flag] = &[("--scale", true), ("--seed", true)];
/// A `reseed` request, one-shot or as a `fbist serve` line.
pub(crate) const RESEED_FLAGS: &[Flag] = &[("--tpg", true), ("--tau", true)];
/// A `sweep` request, one-shot or as a `fbist serve` line.
pub(crate) const SWEEP_FLAGS: &[Flag] = &[("--tpg", true), ("--taus", true)];
/// The artifact store, see [`resolve_store`].
const STORE_FLAGS: &[Flag] = &[("--store", true), ("--no-store", false)];

/// The flags each subcommand accepts, or `None` for an unknown
/// subcommand.
fn subcommand_flags(cmd: &str) -> Option<&'static [&'static [Flag]]> {
    Some(match cmd {
        "profiles" => &[KNOB_FLAGS],
        "gen" => &[KNOB_FLAGS, CIRCUIT_FLAGS, &[("--out", true)]],
        "stats" => &[KNOB_FLAGS, CIRCUIT_FLAGS],
        "check" => &[KNOB_FLAGS, CIRCUIT_FLAGS, &[("--json", false)]],
        "atpg" => &[KNOB_FLAGS, CIRCUIT_FLAGS],
        "reseed" => &[
            KNOB_FLAGS,
            CIRCUIT_FLAGS,
            RESEED_FLAGS,
            STORE_FLAGS,
            &[("--csv", true), ("--rom", true)],
        ],
        "sweep" => &[KNOB_FLAGS, CIRCUIT_FLAGS, SWEEP_FLAGS, STORE_FLAGS],
        "compare" | "lp" => &[KNOB_FLAGS, CIRCUIT_FLAGS, RESEED_FLAGS],
        "serve" => &[KNOB_FLAGS, STORE_FLAGS],
        _ => return None,
    })
}

/// Parses `--jobs` and installs it as the process-wide worker count.
/// `0` (and an absent flag) means auto: `FBIST_JOBS` if set, else all
/// available cores. Job counts only affect wall-clock time — results are
/// bit-identical for every value.
fn apply_jobs(args: &[String]) -> Result<(), String> {
    if let Some(v) = flag(args, "--jobs") {
        mini_rayon::set_jobs(mini_rayon::parse_jobs(&v)?);
    }
    Ok(())
}

/// The flow configuration a `reseed`, `sweep`, `compare` or `lp`
/// invocation or a `fbist serve` request describes: `--tpg` over the
/// defaults. The caller sets τ (`--tau`, or per point for `--taus`).
pub(crate) fn flow_config(args: &[String]) -> Result<FlowConfig, String> {
    Ok(FlowConfig::new(parse_tpg(args)?))
}

/// Resolves the artifact store: `--no-store` disables it outright,
/// `--store DIR` opens (creating if needed) the given directory, else the
/// `FBIST_STORE` environment variable supplies the directory, else no
/// store. Open failures — the path is a file, the directory cannot be
/// created or written — surface as clear errors instead of a silently
/// cold cache.
fn resolve_store(args: &[String]) -> Result<Option<ArtifactStore>, String> {
    resolve_store_from(args, std::env::var("FBIST_STORE").ok())
}

fn resolve_store_from(
    args: &[String],
    env: Option<String>,
) -> Result<Option<ArtifactStore>, String> {
    if args.iter().any(|a| a == "--no-store") {
        return Ok(None);
    }
    // `check_flags` has already rejected a `--store` without a directory
    let dir = flag(args, "--store").or_else(|| env.filter(|s| !s.is_empty()));
    match dir {
        None => Ok(None),
        Some(d) => ArtifactStore::open(std::path::Path::new(&d))
            .map(Some)
            .map_err(|e| format!("opening artifact store: {e}")),
    }
}

/// Builds a flow with the store from `args` attached (if any).
fn flow_for(args: &[String], netlist: &Netlist) -> Result<ReseedingFlow, String> {
    match resolve_store(args)? {
        Some(store) => ReseedingFlow::with_store(netlist, store),
        None => ReseedingFlow::new(netlist),
    }
    .map_err(|e| e.to_string())
}

/// Per-run store statistics, on stderr so stdout stays diffable between
/// cold and warm runs. Silent when no store is attached.
fn print_store_stats(flow: &ReseedingFlow) {
    let stages = flow.stages();
    if let Some(store) = stages.store() {
        let s = stages.stats();
        eprintln!(
            "fbist: store {}: cover {}/{}, first-detection {}/{}, atpg {}/{} (hits/misses), matrix_sim_passes={}",
            store.root().display(),
            s.cover_hits,
            s.cover_misses,
            s.first_detection_hits,
            s.first_detection_misses,
            s.atpg_hits,
            s.atpg_misses,
            flow.builder().matrix_sim_passes()
        );
        eprintln!(
            "fbist: {}",
            simd_stats_line(occupancy(flow), cone_sweeps(flow))
        );
    }
}

/// The lane-occupancy counters of the simulator that builds `flow`'s
/// Detection Matrices.
fn occupancy(flow: &ReseedingFlow) -> LaneOccupancy {
    flow.builder()
        .fault_simulator()
        .good_simulator()
        .occupancy()
}

/// The cone-sweep counters of the simulator that builds `flow`'s
/// Detection Matrices.
fn cone_sweeps(flow: &ReseedingFlow) -> ConeSweeps {
    flow.builder().fault_simulator().cone_sweeps()
}

/// One-line SIMD summary for stderr stats: the simulator's width-aware
/// lane-occupancy counters (a wide block contributes `64·W` lanes of
/// capacity, so the ratio stays honest at every width) and its
/// region-root sweeps against fault evaluations.
fn simd_stats_line(occ: LaneOccupancy, sweeps: ConeSweeps) -> String {
    format!(
        "sim_blocks={} sim_lanes={}/{} occupancy={:.3} cone_sweeps={}/{}",
        occ.blocks,
        occ.lanes,
        occ.capacity,
        occ.ratio(),
        sweeps.roots,
        sweeps.faults
    )
}

/// Parses `--tau` with a default, rejecting values over the bound via
/// the shared [`reseed_core::check_tau`] diagnostic.
fn parse_tau(args: &[String], default: usize) -> Result<usize, String> {
    reseed_core::check_tau("--tau", parse_num(args, "--tau", default)?)
}

/// Parses `--taus` for the sweep subcommand via the shared
/// [`reseed_core::parse_tau_list`] rules (non-empty, bounded,
/// order-preserving dedup); an absent flag yields the default list.
fn parse_taus(args: &[String]) -> Result<Vec<usize>, String> {
    match flag(args, "--taus") {
        None => Ok(vec![0, 3, 7, 15, 31, 63, 127, 255]),
        Some(list) => reseed_core::parse_tau_list(&list),
    }
}

fn parse_tpg(args: &[String]) -> Result<TpgKind, String> {
    match flag(args, "--tpg").as_deref() {
        None | Some("add") => Ok(TpgKind::Adder),
        Some("sub") => Ok(TpgKind::Subtracter),
        Some("mul") => Ok(TpgKind::Multiplier),
        Some("lfsr") => Ok(TpgKind::Lfsr),
        Some("mplfsr") => Ok(TpgKind::MultiPolyLfsr),
        Some("wrand") => Ok(TpgKind::Weighted),
        Some(other) => Err(format!("unknown TPG kind {other:?}")),
    }
}

/// Loads a circuit. Namespaces are resolved in a fixed order:
///
/// 1. an **explicit `.bench` path** — the name ends in `.bench` or
///    contains a path separator;
/// 2. a **built-in profile** name (synthesised with `--scale`/`--seed`);
/// 3. an **embedded circuit** (`c17`, …);
/// 4. as a last resort, any other *existing file* (legacy extensionless
///    bench files — names that also match a profile or embedded circuit
///    resolve to those first, so nothing in the cwd can shadow them).
///
/// Sequential netlists are full-scanned. Errors name the namespace that
/// failed instead of a bare I/O message.
fn load_circuit(args: &[String]) -> Result<Netlist, String> {
    CircuitSource::of(args)?.load()
}

/// [`load_circuit`] plus the flow configuration of a `reseed`, `sweep`,
/// `compare` or `lp` invocation (τ left to the caller, as in
/// [`flow_config`]), rejecting a TPG the circuit's inputs cannot seed.
fn circuit_and_config(args: &[String]) -> Result<(Netlist, FlowConfig), String> {
    let n = load_circuit(args)?;
    let cfg = flow_config(args)?;
    cfg.tpg.check_inputs(n.inputs().len())?;
    Ok((n, cfg))
}

/// The most gates `--scale` may ask a profile for: about 14× the largest
/// built-in profile, so a mistyped scale is an error instead of an
/// allocation that exhausts memory.
const MAX_SCALED_GATES: f64 = 100_000.0;

/// Parses `--scale` for a profile of `gates` gates: a positive, finite
/// factor that synthesises at most [`MAX_SCALED_GATES`] gates.
fn parse_scale(args: &[String], gates: usize) -> Result<f64, String> {
    let scale: f64 = parse_num(args, "--scale", 1.0)?;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(format!(
            "invalid value for --scale: {scale} (expected a positive number)"
        ));
    }
    if gates as f64 * scale > MAX_SCALED_GATES {
        return Err(format!(
            "invalid value for --scale: {scale} (a {gates}-gate profile may grow to at most \
             {MAX_SCALED_GATES} gates)"
        ));
    }
    Ok(scale)
}

/// Where a circuit argument resolves to, before anything is read or
/// generated (the namespace order of [`load_circuit`]).
pub(crate) enum CircuitSource<'a> {
    /// A `.bench` file: its content can change between loads.
    File(&'a str),
    /// A built-in profile or embedded circuit: a pure function of the
    /// name, `--scale` and `--seed`.
    Generated {
        name: &'a str,
        scale: f64,
        seed: u64,
    },
}

impl CircuitSource<'_> {
    /// Resolves the circuit argument of `args`.
    pub(crate) fn of(args: &[String]) -> Result<CircuitSource<'_>, String> {
        let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
            return Err("missing circuit argument".into());
        };
        let scale = parse_scale(args, profile(name).map_or(0, |p| p.gates))?;
        let seed: u64 = parse_num(args, "--seed", 1)?;
        let explicit_path = name.ends_with(".bench")
            || name.contains('/')
            || name.contains(std::path::MAIN_SEPARATOR);
        if explicit_path {
            Ok(CircuitSource::File(name))
        } else if profile(name).is_some() || fbist_netlist::embedded::by_name(name).is_some() {
            Ok(CircuitSource::Generated { name, scale, seed })
        } else if std::path::Path::new(name).exists() {
            Ok(CircuitSource::File(name))
        } else {
            Err(format!(
                "circuit {name:?} not found in any namespace: not a .bench file path, \
                 not a built-in profile (see `fbist profiles`), and not an embedded circuit"
            ))
        }
    }

    /// Reads or generates the circuit as written (no full scan).
    fn load_raw(&self) -> Result<Netlist, String> {
        match *self {
            CircuitSource::File(name) => read_bench_file(name),
            CircuitSource::Generated { name, scale, seed } => match profile(name) {
                Some(p) => Ok(generate(&p.scaled(scale), seed)),
                None => fbist_netlist::embedded::by_name(name)
                    .ok_or_else(|| format!("no embedded circuit {name:?}")),
            },
        }
    }

    /// Reads or generates the circuit, full-scanned if it is sequential.
    pub(crate) fn load(&self) -> Result<Netlist, String> {
        let n = self.load_raw()?;
        Ok(if n.is_combinational() {
            n
        } else {
            full_scan(&n).into_combinational()
        })
    }
}

/// [`load_circuit`] without the full-scan conversion: `check` analyses
/// the circuit as written, so flip-flop diagnostics (unconnected DFFs,
/// scan-observed `D` pins) stay visible instead of being rewritten into
/// pseudo-ports first.
fn load_circuit_raw(args: &[String]) -> Result<Netlist, String> {
    CircuitSource::of(args)?.load_raw()
}

/// Reads and parses a `.bench` file, with errors that name the file
/// namespace (a directory is a common cwd-shadowing accident and gets a
/// direct message instead of a raw `EISDIR`).
fn read_bench_file(name: &str) -> Result<Netlist, String> {
    let path = std::path::Path::new(name);
    if path.is_dir() {
        return Err(format!(
            "circuit path {name:?} is a directory, not a .bench file"
        ));
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading .bench file {name}: {e}"))?;
    bench::parse_named(&text, name).map_err(|e| format!("parsing .bench file {name}: {e}"))
}

// ------------------------------------------------------------- subcommands

fn cmd_profiles() -> Result<(), String> {
    outln!("built-in circuit profiles (paper suite + extras):");
    for p in all_profiles() {
        outln!("  {p}");
    }
    outln!(
        "worker pool: {} jobs (override with --jobs N or FBIST_JOBS)",
        mini_rayon::jobs()
    );
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("gen: missing profile name".into());
    };
    let p = profile(name).ok_or_else(|| format!("no such profile {name:?}"))?;
    let scale = parse_scale(args, p.gates)?;
    let seed: u64 = parse_num(args, "--seed", 1)?;
    let n = generate(&p.scaled(scale), seed);
    let text = bench::to_bench(&n);
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
            outln!("wrote {} ({})", path, NetlistStats::of(&n));
        }
        None => out!("{text}"),
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let n = load_circuit(args)?;
    let s = NetlistStats::of(&n);
    outln!("{s}");
    outln!("  by kind:");
    for (kind, count) in &s.by_kind {
        outln!("    {kind:<6} {count}");
    }
    let faults = FaultList::full(&n);
    let collapsed = FaultList::collapsed(&n);
    outln!(
        "  faults: {} full, {} collapsed ({:.1} %)",
        faults.len(),
        collapsed.len(),
        100.0 * collapsed.len() as f64 / faults.len().max(1) as f64
    );
    Ok(())
}

/// `fbist check`: the static analyses plus the redundancy the
/// SAT-completed ATPG proves, on `--jobs` workers. Returns whether the
/// report contains warning-or-worse findings (the exit-1 condition);
/// `main` maps that and every error onto the documented exit codes.
fn cmd_check(args: &[String]) -> Result<bool, String> {
    apply_jobs(args)?;
    let n = load_circuit_raw(args)?;
    let mut report = fbist_analyze::analyze(&n);
    // a circuit with structural errors has no full-scan core to prove on
    if n.validate().is_ok() {
        let r = fbist_atpg::prove_redundancy(&n, 0).map_err(|e| e.to_string())?;
        push_redundancy(&mut report.findings, &r);
    }
    if args.iter().any(|a| a == "--json") {
        outln!("{}", report.to_json());
    } else {
        out!("{}", report.render_text());
    }
    Ok(report.has_findings())
}

/// The findings `check` adds from the SAT-completed ATPG, all of info
/// severity: one `sat-constant` per constant net the implication engine
/// cannot prove, then `untestable-faults` (the exact count),
/// `sat-untestable` (those beyond the implication pass) and
/// `unknown-faults` (budget spent). A count of zero adds nothing.
fn push_redundancy(findings: &mut Vec<Finding>, r: &Redundancy) {
    let n = &r.netlist;
    let mut imp = Implicator::new(n).expect("validated netlist");
    let constants: Vec<String> = r
        .constants
        .iter()
        .filter(|&&(id, _)| imp.implied_constant(id).is_none())
        .map(|&(id, v)| format!("net {:?} is constant {} by SAT", n.gate(id).name(), v as u8))
        .collect();
    push_capped(findings, Severity::Info, "sat-constant", constants);
    // the implication pass proves no testable fault, so running it on the
    // untestable ones alone (whole equivalence classes, which it closes
    // over) finds everything it proves, at a fraction of the cost
    let plain = fbist_analyze::untestable_faults(n, &r.faults.subset(&r.untestable), &[])
        .expect("validated netlist");
    let beyond: Vec<FaultId> = r
        .untestable
        .iter()
        .zip(plain)
        .filter(|&(_, proven)| !proven)
        .map(|(&id, _)| id)
        .collect();
    let total = r.faults.len();
    let mut push = |code, ids: &[FaultId], what: String| {
        if ids.is_empty() {
            return;
        }
        let sample: Vec<String> = ids
            .iter()
            .take(5)
            .map(|&id| r.faults.get(id).describe(n))
            .collect();
        let more = if ids.len() > sample.len() {
            ", ..."
        } else {
            ""
        };
        findings.push(Finding {
            severity: Severity::Info,
            code,
            message: format!("{what} ({}{more})", sample.join(", ")),
        });
    };
    push(
        "untestable-faults",
        &r.untestable,
        format!(
            "{} of {total} stuck-at faults are provably untestable",
            r.untestable.len()
        ),
    );
    push(
        "sat-untestable",
        &beyond,
        format!(
            "SAT proves {} faults untestable beyond the implication pass",
            beyond.len()
        ),
    );
    push(
        "unknown-faults",
        &r.unknown,
        format!(
            "{} of {total} faults are unknown: their SAT check spent its {CONFLICT_BUDGET}-conflict budget",
            r.unknown.len()
        ),
    );
}

fn cmd_atpg(args: &[String]) -> Result<(), String> {
    let mut cfg = AtpgConfig::default();
    cfg.seed = parse_num(args, "--seed", cfg.seed)?;
    let n = load_circuit(args)?;
    let faults = FaultList::collapsed(&n);
    let atpg = Atpg::new(&n).map_err(|e| e.to_string())?;
    let r = atpg.run(&faults, &cfg);
    outln!(
        "{}: {} patterns, coverage {:.2} % (efficiency {:.2} %), {} random-phase detections, {} PODEM tests, {} untestable, {} aborted",
        n.name(),
        r.patterns.len(),
        100.0 * r.coverage(),
        100.0 * r.efficiency(),
        r.random_detected,
        r.podem_tests,
        r.untestable.len(),
        r.aborted.len()
    );
    Ok(())
}

fn cmd_reseed(args: &[String]) -> Result<(), String> {
    let (n, cfg) = circuit_and_config(args)?;
    let cfg = cfg.with_tau(parse_tau(args, 31)?);
    let flow = flow_for(args, &n)?;
    let report = flow.run(&cfg);
    print_store_stats(&flow);
    if let Some(path) = flag(args, "--csv") {
        std::fs::write(&path, export::to_csv(&report))
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote triplet CSV to {path}");
    }
    if let Some(path) = flag(args, "--rom") {
        std::fs::write(&path, export::to_rom_image(&report))
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote seed ROM image to {path}");
    }
    outln!("{report}");
    outln!(
        "  matrix {}x{} → residual {}x{} in {} iterations ({} dominated rows)",
        report.initial_triplets,
        report.target_faults,
        report.residual.0,
        report.residual.1,
        report.reduction_iterations,
        report.dominated_rows
    );
    outln!(
        "  solver: {} nodes, optimal: {}; ROM: {} bits",
        report.solver_nodes,
        report.solution_optimal,
        report.rom_bits()
    );
    for (i, t) in report.selected.iter().enumerate() {
        outln!(
            "  triplet {:>3} {} τ={:<5} +{} faults, {} patterns{}",
            i,
            if t.necessary {
                "[necessary]"
            } else {
                "[solver]   "
            },
            t.triplet.tau(),
            t.new_faults,
            t.test_length,
            if i < 8 {
                format!("  {}", t.triplet)
            } else {
                String::new()
            }
        );
        if i == 16 && report.selected.len() > 18 {
            outln!("  … {} more", report.selected.len() - 17);
            break;
        }
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let (n, cfg) = circuit_and_config(args)?;
    let taus = parse_taus(args)?;
    let flow = flow_for(args, &n)?;
    let curve = tradeoff_sweep_with(&flow, &cfg, &taus);
    print_store_stats(&flow);
    outln!(
        "{} [{}] — reseedings vs. test length (Figure 2)",
        n.name(),
        cfg.tpg
    );
    outln!(
        "  {:>6} {:>10} {:>12} {:>10}",
        "tau",
        "#triplets",
        "test_length",
        "rom_bits"
    );
    for p in curve {
        outln!(
            "  {:>6} {:>10} {:>12} {:>10}",
            p.tau,
            p.triplets,
            p.test_length,
            p.rom_bits
        );
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let (n, cfg) = circuit_and_config(args)?;
    let cfg = cfg.with_tau(parse_tau(args, 31)?);
    let (tpg, tau) = (cfg.tpg, cfg.tau);
    let flow = ReseedingFlow::new(&n).map_err(|e| e.to_string())?;
    let report = flow.run(&cfg);
    let gatsby = Gatsby::new(&n).map_err(|e| e.to_string())?;
    let init = flow.builder().build(&cfg);
    let gres = gatsby.run(
        &init.target_faults,
        &GatsbyConfig {
            tpg,
            tau,
            ..GatsbyConfig::default()
        },
    );
    outln!(
        "{} [{}] τ={tau} — set covering vs GATSBY-GA (Table 1)",
        n.name(),
        tpg
    );
    outln!(
        "  set covering : {:>4} triplets, test length {:>7}, covers {}/{}",
        report.triplet_count(),
        report.test_length(),
        report.covered_faults,
        report.target_faults
    );
    outln!(
        "  gatsby       : {:>4} triplets, test length {:>7}, covers {}/{} ({} fault-sim calls)",
        gres.triplet_count(),
        gres.test_length,
        gres.covered,
        gres.target_faults,
        gres.fault_sim_calls
    );
    let delta = gres.triplet_count() as i64 - report.triplet_count() as i64;
    outln!("  improvement  : {delta:+} triplets");
    Ok(())
}

fn cmd_lp(args: &[String]) -> Result<(), String> {
    let (n, cfg) = circuit_and_config(args)?;
    let cfg = cfg.with_tau(parse_tau(args, 31)?);
    let builder = InitialReseedingBuilder::new(&n).map_err(|e| e.to_string())?;
    let init = builder.build(&cfg);
    out!("{}", lp::to_lp(&init.matrix));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn tau_boundary_is_exact() {
        // the largest supported value is accepted; the next one is not
        let max = FlowConfig::MAX_TAU.to_string();
        assert_eq!(
            parse_tau(&args(&["--tau", &max]), 31),
            Ok(FlowConfig::MAX_TAU)
        );
        let over = (FlowConfig::MAX_TAU + 1).to_string();
        let err = parse_tau(&args(&["--tau", &over]), 31).unwrap_err();
        assert!(err.contains("exceeds the supported maximum"), "{err}");
        assert_eq!(parse_tau(&args(&[]), 31), Ok(31));
    }

    #[test]
    fn taus_dedupe_preserves_first_occurrence_order() {
        assert_eq!(
            parse_taus(&args(&["--taus", "7, 0,7,3 ,0"])),
            Ok(vec![7, 0, 3])
        );
        let max = FlowConfig::MAX_TAU.to_string();
        assert_eq!(
            parse_taus(&args(&["--taus", &format!("0,{max}")])),
            Ok(vec![0, FlowConfig::MAX_TAU])
        );
    }

    #[test]
    fn taus_reject_empty_bad_and_oversized_values() {
        let empty = parse_taus(&args(&["--taus", " "])).unwrap_err();
        assert!(empty.contains("empty τ list"), "{empty}");
        let bad = parse_taus(&args(&["--taus", "1,,2"])).unwrap_err();
        assert!(bad.contains("invalid τ value"), "{bad}");
        let over = (FlowConfig::MAX_TAU + 1).to_string();
        let huge = parse_taus(&args(&["--taus", &format!("0,{over}")])).unwrap_err();
        assert!(huge.contains("exceeds the supported maximum"), "{huge}");
    }

    #[test]
    fn taus_default_is_the_documented_list() {
        assert_eq!(
            parse_taus(&args(&[])),
            Ok(vec![0, 3, 7, 15, 31, 63, 127, 255])
        );
    }

    #[test]
    fn no_store_beats_both_flag_and_env() {
        assert!(resolve_store_from(&args(&["--no-store"]), None)
            .unwrap()
            .is_none());
        assert!(
            resolve_store_from(&args(&["--no-store", "--store", "/tmp/x"]), None)
                .unwrap()
                .is_none()
        );
        assert!(
            resolve_store_from(&args(&["--no-store"]), Some("/tmp/x".into()))
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn absent_store_flag_falls_back_to_env_then_none() {
        assert!(resolve_store_from(&args(&[]), None).unwrap().is_none());
        assert!(resolve_store_from(&args(&[]), Some(String::new()))
            .unwrap()
            .is_none());
        let dir = std::env::temp_dir().join(format!("fbist-cli-env-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = resolve_store_from(&args(&[]), Some(dir.display().to_string()))
            .unwrap()
            .expect("env var must attach a store");
        assert_eq!(store.root(), dir.as_path());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn store_flag_creates_and_opens_the_directory() {
        let dir = std::env::temp_dir().join(format!(
            "fbist-cli-store-{}/nested/deep",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = resolve_store_from(&args(&["--store", &dir.display().to_string()]), None)
            .unwrap()
            .expect("--store must attach a store");
        assert!(dir.is_dir(), "open must create the directory");
        assert_eq!(store.root(), dir.as_path());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn store_flag_rejects_files_and_missing_values() {
        // a file where the directory should be → a clear error naming it
        let file =
            std::env::temp_dir().join(format!("fbist-cli-store-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let err =
            resolve_store_from(&args(&["--store", &file.display().to_string()]), None).unwrap_err();
        assert!(
            err.contains("opening artifact store") && err.contains("not a directory"),
            "{err}"
        );
        let _ = std::fs::remove_file(file);
        // a missing or flag-like value is a usage error, not a store named "--jobs"
        for bad in [
            &["reseed", "c17", "--store"][..],
            &["sweep", "c17", "--store", "--jobs", "1"],
        ] {
            let err = check_usage(&args(bad)).unwrap_err();
            assert!(
                err.contains("\"--store\" for `") && err.contains("expects a value"),
                "{err}"
            );
        }
    }
}
