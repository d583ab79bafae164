//! Shared harness for the table/figure binaries and Criterion benches.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation artefacts:
//!
//! | Binary    | Artefact | Content |
//! |-----------|----------|---------|
//! | `table1`  | Table 1  | per circuit × TPG: `#Triplets` and `Test Length`, set covering vs. GATSBY-GA |
//! | `table2`  | Table 2  | per circuit: initial matrix size; per TPG: residual size, #necessary, #solver triplets |
//! | `figure2` | Figure 2 | τ sweep on s1238/adder: triplets vs. test length |
//!
//! All binaries accept `--scale F` (default 0.15) to size the synthetic
//! mimics, `--seed N` and `--jobs N`; `table1` and `table2` also take
//! `--circuits a,b,c` to restrict the suite; see `EXPERIMENTS.md` for the
//! recorded runs. Each binary checks its arguments against its own flag
//! table with `fbist`'s rules ([`reseed_core::flags`]): an unknown,
//! repeated, value-less or unparsable flag exits with status 2.

#![forbid(unsafe_code)]

use fbist_genbench::{generate, paper_suite, profile, CircuitProfile};
use fbist_netlist::Netlist;
use reseed_core::flags::{self, Flag};

/// Default scale factor for the synthetic mimics used by the committed
/// experiment tables (kept modest so the whole suite runs in minutes).
pub const DEFAULT_SCALE: f64 = 0.15;

/// `--jobs`, which every binary accepts (see [`Args::install_jobs`]).
pub const JOBS_FLAGS: &[Flag] = &[("--jobs", true)];

/// The suite selection of [`suite_from_args`].
pub const SUITE_FLAGS: &[Flag] = &[("--scale", true), ("--seed", true), ("--circuits", true)];

/// A binary's command line, checked against its flag tables.
pub struct Args {
    bin: &'static str,
    args: Vec<String>,
}

impl Args {
    /// Checks the process arguments against `tables` (the binary's flag
    /// tables); on a usage error, prints `<bin>: <message>` and exits
    /// with status 2.
    pub fn from_env(bin: &'static str, tables: &[&[Flag]]) -> Args {
        Args::new(bin, std::env::args().skip(1).collect(), tables)
            .unwrap_or_else(|msg| usage_error(bin, &msg))
    }

    /// Checks `args` against `tables`, returning the usage error message
    /// on failure.
    fn new(bin: &'static str, args: Vec<String>, tables: &[&[Flag]]) -> Result<Args, String> {
        flags::check_flags(bin, &args, tables)?;
        Ok(Args { bin, args })
    }

    /// The value of flag `name`, if given.
    pub fn flag(&self, name: &str) -> Option<String> {
        flags::flag(&self.args, name)
    }

    /// Whether switch `name` is given.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The parsed value of flag `name`, `default` if absent; a value that
    /// does not parse exits with status 2.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        flags::parse_num(&self.args, name, default).unwrap_or_else(|msg| self.fail(&msg))
    }

    /// Prints `msg` as a usage error and exits with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_error(self.bin, msg)
    }

    /// Parses `--jobs` (0 = auto), installs it process-wide, and returns
    /// the resolved worker count for display. Job counts change
    /// wall-clock time only, never results; a value that does not parse
    /// exits with status 2, so a typo can never silently benchmark the
    /// wrong configuration.
    pub fn install_jobs(&self) -> usize {
        if let Some(v) = self.flag("--jobs") {
            match mini_rayon::parse_jobs(&v) {
                Ok(n) => mini_rayon::set_jobs(n),
                Err(e) => self.fail(&e),
            }
        }
        mini_rayon::jobs()
    }
}

fn usage_error(bin: &str, msg: &str) -> ! {
    eprintln!("{bin}: {msg}");
    std::process::exit(2)
}

/// The circuit selection for a harness run.
pub struct Suite {
    /// Profiles to run, already scaled.
    pub profiles: Vec<CircuitProfile>,
    /// Scale factor applied.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
}

/// Builds the circuit suite from CLI args: `--scale`, `--seed`,
/// `--circuits c499,s1238,…` (default: the full 16-circuit paper suite).
pub fn suite_from_args(args: &Args) -> Suite {
    let scale: f64 = args.num("--scale", DEFAULT_SCALE);
    let seed: u64 = args.num("--seed", 1);
    let names: Vec<String> = match args.flag("--circuits") {
        Some(list) => list.split(',').map(|s| s.trim().to_owned()).collect(),
        None => paper_suite().iter().map(|p| p.name.clone()).collect(),
    };
    let profiles = names
        .iter()
        .filter_map(|n| profile(n))
        .map(|p| p.scaled(scale))
        .collect();
    Suite {
        profiles,
        scale,
        seed,
    }
}

/// Generates the (full-scan combinational) netlist for a scaled profile.
pub fn build_circuit(p: &CircuitProfile, seed: u64) -> Netlist {
    generate(p, seed)
}

/// Strips a `@scale` suffix for display.
pub fn display_name(p: &CircuitProfile) -> &str {
    p.name.split('@').next().unwrap_or(&p.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        let words = line.split_whitespace().map(str::to_owned).collect();
        Args::new("test", words, &[JOBS_FLAGS, SUITE_FLAGS])
    }

    #[test]
    fn default_suite_is_paper_suite() {
        let s = suite_from_args(&args("").unwrap());
        assert_eq!(s.profiles.len(), 16);
        assert!(s.profiles[0].name.starts_with("c499"));
    }

    #[test]
    fn circuit_restriction() {
        let s = suite_from_args(&args("--circuits c499,s1238").unwrap());
        assert_eq!(s.profiles.len(), 2);
    }

    #[test]
    fn flags_parse() {
        let a = args("--scale 0.5").unwrap();
        assert_eq!(a.num("--scale", 1.0), 0.5);
        assert_eq!(a.num("--seed", 7u64), 7);
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        assert!(args("--scael 0.5").is_err());
        assert!(args("--seed 1 --seed 2").is_err());
        assert!(args("--scale").is_err());
    }

    #[test]
    fn display_strips_scale() {
        let p = profile("c499").unwrap().scaled(0.5);
        assert_eq!(display_name(&p), "c499");
    }
}
