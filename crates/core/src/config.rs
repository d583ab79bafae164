//! Flow configuration.

use fbist_atpg::AtpgConfig;
use fbist_bits::SimdWidth;
use fbist_setcover::SolveConfig;
use fbist_tpg::{
    AccumulatorOp, AccumulatorTpg, Lfsr, MultiPolyLfsr, PatternGenerator, WeightedTpg,
};

/// Which hardware module plays the TPG role.
///
/// The paper's Table 1 evaluates the first three (accumulator-based
/// adder / subtracter / multiplier); the LFSR variants connect the method
/// back to classical reseeding, and the weighted generator is an ablation
/// extra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpgKind {
    /// Adder-based accumulator (`S ← S + θ`).
    Adder,
    /// Subtracter-based accumulator (`S ← S − θ`).
    Subtracter,
    /// Multiplier-based accumulator (`S ← S × θ`).
    Multiplier,
    /// Single-polynomial maximal LFSR.
    Lfsr,
    /// Multiple-polynomial LFSR (θ selects among 8 polynomials).
    MultiPolyLfsr,
    /// Weighted pseudo-random generator (unbiased, 4/8).
    Weighted,
}

impl TpgKind {
    /// The paper's three accumulator TPGs, in Table-1 column order.
    pub const PAPER: [TpgKind; 3] = [TpgKind::Adder, TpgKind::Subtracter, TpgKind::Multiplier];

    /// Short name used in reports (`add`, `sub`, `mul`, `lfsr`, `mplfsr`,
    /// `wrand`).
    pub fn name(self) -> &'static str {
        match self {
            TpgKind::Adder => "add",
            TpgKind::Subtracter => "sub",
            TpgKind::Multiplier => "mul",
            TpgKind::Lfsr => "lfsr",
            TpgKind::MultiPolyLfsr => "mplfsr",
            TpgKind::Weighted => "wrand",
        }
    }

    /// Rejects, naming the generator and the input count, a circuit with
    /// fewer inputs than the generator can seed: the LFSR families run a
    /// register of at least two bits, so a one-input circuit's patterns
    /// cannot be loaded into it.
    ///
    /// # Errors
    ///
    /// A message for the request boundary when `inputs` is too few.
    pub fn check_inputs(self, inputs: usize) -> Result<(), String> {
        let needed = match self {
            TpgKind::Lfsr | TpgKind::MultiPolyLfsr => 2,
            _ => 0,
        };
        if inputs < needed {
            return Err(format!(
                "TPG {} needs a circuit with at least {needed} inputs, this one has {inputs}",
                self.name()
            ));
        }
        Ok(())
    }

    /// Instantiates the generator at the given register width.
    pub fn build(self, width: usize) -> Box<dyn PatternGenerator> {
        match self {
            TpgKind::Adder => Box::new(AccumulatorTpg::new(width, AccumulatorOp::Add)),
            TpgKind::Subtracter => Box::new(AccumulatorTpg::new(width, AccumulatorOp::Sub)),
            TpgKind::Multiplier => Box::new(AccumulatorTpg::new(width, AccumulatorOp::Mul)),
            TpgKind::Lfsr => Box::new(Lfsr::maximal(width.max(2))),
            TpgKind::MultiPolyLfsr => Box::new(MultiPolyLfsr::standard_bank(width.max(2), 8)),
            TpgKind::Weighted => Box::new(WeightedTpg::new(width, 4)),
        }
    }
}

impl std::fmt::Display for TpgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Selects nothing: there is one Detection-Matrix build, the cross-row
/// batched one (see `fbist_fault::BatchPlan`). The type stays only so
/// that the benchmark harness, which passes [`FlowConfig::matrix_build`]
/// to both matrix builders, still compiles; no code in this workspace
/// reads it. It is deleted with `ROADMAP.md` item 5, once the harness
/// calls only flow-level APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatrixBuild {
    /// The only build.
    #[default]
    Batched,
}

/// Validates one τ value against [`FlowConfig::MAX_TAU`], naming the
/// originating flag in the error — the single owner of the user-facing
/// bound diagnostic, shared by `--tau`, `--taus` and every front end.
///
/// # Errors
///
/// Returns the diagnostic when `tau` exceeds the bound.
pub fn check_tau(flag_name: &str, tau: usize) -> Result<usize, String> {
    if tau > FlowConfig::MAX_TAU {
        Err(format!(
            "{flag_name}: τ = {tau} exceeds the supported maximum {} \
             (a triplet expands to τ + 1 patterns)",
            FlowConfig::MAX_TAU
        ))
    } else {
        Ok(tau)
    }
}

/// Parses a comma-separated τ list as the `fbist sweep`/`figure2` front
/// ends accept it: values trimmed, each bounded by
/// [`FlowConfig::MAX_TAU`], duplicates removed (first occurrence wins —
/// each duplicate would silently repeat the whole covering computation),
/// order preserved. One shared implementation so every front end
/// validates identically.
///
/// # Errors
///
/// Returns a message naming the offending value for an empty list, an
/// unparsable entry, or a τ over the bound.
pub fn parse_tau_list(list: &str) -> Result<Vec<usize>, String> {
    if list.trim().is_empty() {
        return Err(
            "--taus: empty τ list (expected comma-separated values, e.g. --taus 0,7,31)".into(),
        );
    }
    let mut taus: Vec<usize> = Vec::new();
    for s in list.split(',') {
        let s = s.trim();
        let tau: usize = s
            .parse()
            .map_err(|_| format!("--taus: invalid τ value {s:?}"))?;
        check_tau("--taus", tau)?;
        if !taus.contains(&tau) {
            taus.push(tau);
        }
    }
    Ok(taus)
}

/// Configuration of the full reseeding flow.
///
/// Construct with [`FlowConfig::new`] and customise with the `with_*`
/// builder methods:
///
/// ```
/// use reseed_core::{FlowConfig, TpgKind};
///
/// let cfg = FlowConfig::new(TpgKind::Multiplier)
///     .with_tau(63)
///     .with_seed(42)
///     .with_trim(false);
/// assert_eq!(cfg.tau, 63);
/// assert_eq!(cfg.tpg.name(), "mul");
/// ```
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// TPG selection.
    pub tpg: TpgKind,
    /// Evolution length applied to every initial triplet ("experimentally
    /// tuned and fixed equal for all the triplets of T", §3.1).
    pub tau: usize,
    /// Master RNG seed (drives ATPG, random δ, fills).
    pub seed: u64,
    /// ATPG settings used to produce `ATPGTS` and `F`.
    pub atpg: AtpgConfig,
    /// Set-covering pipeline settings (reductions + engine).
    pub solve: SolveConfig,
    /// Trim each selected triplet's tail patterns that add no coverage
    /// (the paper's global-test-length accounting, §4).
    pub trim: bool,
    /// Worker threads for the parallel stages (Detection-Matrix rows, the
    /// τ sweep, GATSBY fitness evaluation). `0` defers to the global
    /// [`mini_rayon::jobs`] default (`FBIST_JOBS` / available
    /// parallelism). Results are bit-identical for every value.
    pub jobs: usize,
    /// Selects nothing (see [`MatrixBuild`]); no code in this workspace
    /// reads it.
    pub matrix_build: MatrixBuild,
    /// Selects nothing (see [`SimdWidth`]): the fault simulator picks its
    /// block width itself. No code in this workspace reads it.
    pub simd_width: SimdWidth,
}

impl FlowConfig {
    /// Largest supported evolution length `τ` (2²⁴ − 1 = 16 777 215).
    ///
    /// A triplet expands to `τ + 1` patterns, so this caps a single
    /// triplet's test set at 16 Mi patterns — orders of magnitude beyond
    /// any BIST schedule — while keeping every downstream quantity safely
    /// representable: `τ + 1` can never wrap `usize`, per-stream pattern
    /// indices (the sweep's first-detection indices, the batch planner's
    /// `LaneGroup::start`) fit comfortably in `u32`, and the ROM τ-field
    /// stays bounded. [`with_tau`](Self::with_tau) and the `fbist` CLI
    /// enforce the bound at the configuration boundary.
    pub const MAX_TAU: usize = (1 << 24) - 1;

    /// Default flow for a TPG: `τ = 31`, reductions + exact solver, trim on.
    pub fn new(tpg: TpgKind) -> FlowConfig {
        FlowConfig {
            tpg,
            tau: 31,
            seed: 0xDA7E_2001,
            atpg: AtpgConfig::default(),
            solve: SolveConfig::default(),
            trim: true,
            jobs: 0,
            matrix_build: MatrixBuild::Batched,
            simd_width: SimdWidth::Auto,
        }
    }

    /// Sets the evolution length `τ`.
    ///
    /// # Panics
    ///
    /// Panics if `tau` exceeds [`MAX_TAU`](Self::MAX_TAU) — unvalidated
    /// values this large would otherwise overflow `τ + 1` arithmetic deep
    /// inside the expansion and batch-planning layers (front ends like
    /// the CLI reject them with an error instead of panicking).
    pub fn with_tau(mut self, tau: usize) -> FlowConfig {
        assert!(
            tau <= Self::MAX_TAU,
            "τ = {tau} exceeds FlowConfig::MAX_TAU = {}",
            Self::MAX_TAU
        );
        self.tau = tau;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> FlowConfig {
        self.seed = seed;
        self.atpg.seed = seed ^ 0xA7B6;
        self
    }

    /// Enables/disables tail trimming.
    pub fn with_trim(mut self, trim: bool) -> FlowConfig {
        self.trim = trim;
        self
    }

    /// Replaces the set-covering configuration.
    pub fn with_solve(mut self, solve: SolveConfig) -> FlowConfig {
        self.solve = solve;
        self
    }

    /// Replaces the ATPG configuration.
    pub fn with_atpg(mut self, atpg: AtpgConfig) -> FlowConfig {
        self.atpg = atpg;
        self
    }

    /// Sets the worker-thread count (`0` = global default). Purely a
    /// throughput knob: every job count computes the same results. Also
    /// reaches the fault-parallel ATPG rounds, unless
    /// [`AtpgConfig::jobs`] pins its own count.
    pub fn with_jobs(mut self, jobs: usize) -> FlowConfig {
        self.jobs = jobs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain() {
        let cfg = FlowConfig::new(TpgKind::Lfsr).with_tau(7).with_seed(5);
        assert_eq!(cfg.tau, 7);
        assert_eq!(cfg.seed, 5);
        assert!(cfg.trim);
    }

    #[test]
    fn lfsr_families_need_two_inputs() {
        for kind in [TpgKind::Lfsr, TpgKind::MultiPolyLfsr] {
            let msg = kind.check_inputs(1).unwrap_err();
            assert!(msg.contains(kind.name()) && msg.contains("has 1"), "{msg}");
            assert!(kind.check_inputs(2).is_ok());
        }
        for kind in TpgKind::PAPER.into_iter().chain([TpgKind::Weighted]) {
            assert!(kind.check_inputs(1).is_ok(), "{kind}");
        }
    }

    #[test]
    fn tpg_kinds_build_at_width() {
        for kind in [
            TpgKind::Adder,
            TpgKind::Subtracter,
            TpgKind::Multiplier,
            TpgKind::Lfsr,
            TpgKind::MultiPolyLfsr,
            TpgKind::Weighted,
        ] {
            let g = kind.build(24);
            assert_eq!(g.width(), 24, "{kind}");
        }
    }

    #[test]
    fn tau_list_parsing_validates_dedupes_and_keeps_order() {
        assert_eq!(parse_tau_list("7, 0,7,3 ,0"), Ok(vec![7, 0, 3]));
        assert_eq!(
            parse_tau_list(&format!("0,{}", FlowConfig::MAX_TAU)),
            Ok(vec![0, FlowConfig::MAX_TAU])
        );
        assert!(parse_tau_list(" ").unwrap_err().contains("empty τ list"));
        assert!(parse_tau_list("1,,2")
            .unwrap_err()
            .contains("invalid τ value"));
        assert!(parse_tau_list(&format!("{}", FlowConfig::MAX_TAU + 1))
            .unwrap_err()
            .contains("exceeds the supported maximum"));
        // the boundary is exact, and the flag name lands in the message
        assert_eq!(
            check_tau("--tau", FlowConfig::MAX_TAU),
            Ok(FlowConfig::MAX_TAU)
        );
        assert!(check_tau("--tau", FlowConfig::MAX_TAU + 1)
            .unwrap_err()
            .starts_with("--tau:"));
    }

    #[test]
    fn max_tau_is_accepted() {
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(FlowConfig::MAX_TAU);
        assert_eq!(cfg.tau, FlowConfig::MAX_TAU);
    }

    #[test]
    #[should_panic(expected = "exceeds FlowConfig::MAX_TAU")]
    fn over_max_tau_panics() {
        let _ = FlowConfig::new(TpgKind::Adder).with_tau(FlowConfig::MAX_TAU + 1);
    }

    #[test]
    fn paper_order() {
        let names: Vec<&str> = TpgKind::PAPER.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["add", "sub", "mul"]);
    }
}
