//! The reseedings-vs-test-length trade-off (paper Figure 2).
//!
//! # One simulation, every τ: the first-detection derivation
//!
//! A sweep point at evolution length `τ` needs the Detection Matrix whose
//! cell `(i, j)` says "triplet `i`'s `τ + 1`-pattern expansion detects
//! fault `j`". Instead of one fault simulation per point, a sweep runs
//! **one** pass at `τ_max = max(taus)`:
//!
//! 1. Pattern generators expand *prefix-stably*: pattern `k` of a
//!    triplet's stream depends only on `(δ, θ, k)` — `τ` just says where
//!    the stream stops (the [`PatternGenerator`] contract). So the
//!    `τ`-expansion is exactly the first `τ + 1` patterns of the
//!    `τ_max`-expansion.
//! 2. Detection is a monotone OR over a row's patterns, so "detected at
//!    `τ`" ⇔ "the *earliest* detecting pattern index is `≤ τ`".
//! 3. One simulation at `τ_max` recording that earliest index per
//!    `(triplet, fault)` pair (free from the detection word's lowest set
//!    lane — [`FaultSimulator::first_detections_blocks`]) therefore
//!    determines every `τ ≤ τ_max` matrix by thresholding:
//!    [`FirstDetectionMatrix::at_tau`]. No re-simulation, and *nothing
//!    to approximate* — the thresholded matrix is the simulated one, bit
//!    for bit.
//!
//! Everything per-point after the matrix (triplet `τ` fields, reduction,
//! solving, trimming) runs from per-point configuration and seeds, so
//! every [`SweepPoint`] — report included — is bit-identical to
//! [`ReseedingFlow::run`] at its τ, for every profile × TPG × jobs
//! combination (`tests/sweep_equivalence.rs`). Which build a
//! sweep uses is decided in one place, `ReseedingFlow`'s shared cover
//! computation: a single τ without a store takes the detection-only
//! build that `run` uses.
//!
//! [`PatternGenerator`]: fbist_tpg::PatternGenerator
//! [`FaultSimulator::first_detections_blocks`]: fbist_fault::FaultSimulator::first_detections_blocks
//! [`FirstDetectionMatrix::at_tau`]: fbist_setcover::FirstDetectionMatrix::at_tau

use fbist_netlist::Netlist;
use fbist_sim::SimError;

use crate::config::FlowConfig;
use crate::flow::ReseedingFlow;
use crate::report::ReseedingReport;

/// One point of the trade-off curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Evolution length used for the initial triplets.
    pub tau: usize,
    /// Triplets in the optimal solution (`#Reseedings`).
    pub triplets: usize,
    /// Global (trimmed) test length.
    pub test_length: usize,
    /// ROM bits for the solution.
    pub rom_bits: usize,
    /// The full report for this point.
    pub report: ReseedingReport,
}

/// Sweeps the evolution length `τ` and returns one optimal reseeding per
/// value — the data behind the paper's Figure 2 (on s1238 with the adder
/// accumulator, raising the test length from 5 427 to 15 551 drops the
/// solution from 11 to 2 triplets).
///
/// The ATPG run is shared across all τ values, and so is the
/// Detection-Matrix fault simulation: one first-detection pass at
/// `max(taus)` from which every point's matrix is derived by
/// thresholding. Duplicate τ values are computed once and share their
/// point.
///
/// The per-point work is independent, so points evaluate in parallel on
/// the workspace pool (`config.jobs`; `0` = global default). Each point's
/// RNG streams are derived from `config.seed` alone — never from the
/// worker that happens to compute it — so the curve is bit-identical for
/// every job count, and points come back in the order of `taus`.
///
/// # Errors
///
/// Propagates [`SimError`] from flow construction.
///
/// # Panics
///
/// Panics if a τ exceeds [`FlowConfig::MAX_TAU`] (front ends validate
/// before calling).
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use reseed_core::{tradeoff_sweep, FlowConfig, TpgKind};
///
/// let curve = tradeoff_sweep(
///     &embedded::c17(),
///     &FlowConfig::new(TpgKind::Adder),
///     &[0, 7, 31],
/// )?;
/// assert_eq!(curve.len(), 3);
/// // what the flow guarantees at every point: the solution covers every
/// // target fault (triplet counts usually shrink as τ grows, but the
/// // greedy/local-search solver does not promise monotonicity)
/// assert!(curve.iter().all(|p| p.report.covers_all_target_faults()));
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
pub fn tradeoff_sweep(
    netlist: &Netlist,
    config: &FlowConfig,
    taus: &[usize],
) -> Result<Vec<SweepPoint>, SimError> {
    let flow = ReseedingFlow::new(netlist)?;
    Ok(tradeoff_sweep_with(&flow, config, taus))
}

/// [`tradeoff_sweep`] on a prebuilt flow — lets callers reuse the flow's
/// simulators and store across sweeps and read its builder counters
/// afterwards (`matrix_sim_passes`, lane occupancy).
///
/// Cover-cache-first:
///
/// 1. each unique τ is looked up in the store as a `cover` artifact —
///    warm points decode without touching ATPG or the simulator;
/// 2. only the *missing* τ values are computed, from one ATPG base (the
///    shared first-detection pass resolving through the `first-detection`
///    stage, so even a cover-cold sweep can skip its simulation if an
///    earlier run saturated the matrix artifact), and written back;
/// 3. every point — cached or computed — redistributes onto the input τ
///    list.
///
/// The ATPG stage resolves lazily: a fully cover-warm sweep never runs
/// ATPG at all (the acceptance criterion behind `fbist serve`'s warm
/// latency).
pub fn tradeoff_sweep_with(
    flow: &ReseedingFlow,
    config: &FlowConfig,
    taus: &[usize],
) -> Vec<SweepPoint> {
    if taus.is_empty() {
        return Vec::new();
    }
    let mut uniq: Vec<usize> = taus.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let stages = flow.stages();
    let netlist = flow.builder().netlist();
    let mut slots: Vec<Option<SweepPoint>> = uniq
        .iter()
        .map(|&tau| {
            stages
                .cover_get(netlist, &config.clone().with_tau(tau))
                .map(|report| point_from(tau, report))
        })
        .collect();
    let missing: Vec<usize> = uniq
        .iter()
        .zip(&slots)
        .filter(|(_, slot)| slot.is_none())
        .map(|(&tau, _)| tau)
        .collect();
    if !missing.is_empty() {
        let base = stages.atpg_base(flow.builder(), config);
        let reports = flow.covers_from_base(base, config, &missing);
        for (&tau, report) in missing.iter().zip(reports) {
            let i = uniq
                .binary_search(&tau)
                .expect("computed τ comes from uniq");
            slots[i] = Some(point_from(tau, report));
        }
    }
    // one point per *input* τ, in input order; duplicates share their
    // unique point's result (the computation is deterministic, so this is
    // indistinguishable from recomputing — minus the wasted work). Each
    // unique point is moved into its τ's last occurrence, so a
    // duplicate-free list — the common case — copies nothing.
    let idx_of = |tau: &usize| uniq.binary_search(tau).expect("uniq contains every τ");
    let mut remaining = vec![0usize; uniq.len()];
    for tau in taus {
        remaining[idx_of(tau)] += 1;
    }
    taus.iter()
        .map(|tau| {
            let i = idx_of(tau);
            remaining[i] -= 1;
            if remaining[i] == 0 {
                slots[i].take().expect("each slot is taken exactly once")
            } else {
                slots[i].clone().expect("slot still occupied")
            }
        })
        .collect()
}

fn point_from(tau: usize, report: ReseedingReport) -> SweepPoint {
    SweepPoint {
        tau,
        triplets: report.triplet_count(),
        test_length: report.test_length(),
        rom_bits: report.rom_bits(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpgKind;
    use fbist_genbench::{generate, profile};

    #[test]
    fn sweep_covers_all_faults_at_every_point() {
        // what the flow guarantees per point. (On this circuit the curve
        // happens to be monotone too, but that is an empirical property of
        // the instance — the greedy/local-search solver does not guarantee
        // it, so it is not asserted here; `tests/sweep_equivalence.rs`
        // pins every point against `run`.)
        let n = generate(&profile("tiny64").unwrap(), 4);
        let curve = tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Adder), &[0, 3, 15, 63]).unwrap();
        assert_eq!(curve.len(), 4);
        for p in &curve {
            assert!(p.report.covers_all_target_faults(), "τ={}", p.tau);
        }
    }

    #[test]
    fn greedy_curve_can_be_non_monotone_but_always_covers() {
        // Documented counterexample for the old "triplets never increase
        // with τ" claim: optimal covers are monotone (a τ-cover is also a
        // τ'-cover for τ' > τ, rows only gain coverage), but the fallback
        // heuristics promise no such thing. Under the Chvátal greedy
        // engine this instance steps UP from 10 to 11 triplets between
        // τ = 17 and τ = 18. Deterministic, so pinned exactly; if a
        // solver change moves the counterexample, find another instead of
        // re-asserting monotonicity — the guaranteed invariant is full
        // coverage, nothing more.
        use fbist_netlist::full_scan;
        use fbist_setcover::{Engine, SolveConfig};
        let n = generate(&profile("tiny64").unwrap().scaled(0.35), 4);
        let n = if n.is_combinational() {
            n
        } else {
            full_scan(&n).into_combinational()
        };
        let mut cfg = FlowConfig::new(TpgKind::Adder);
        cfg.solve = SolveConfig {
            engine: Engine::Greedy,
            ..SolveConfig::default()
        };
        let curve = tradeoff_sweep(&n, &cfg, &[17, 18]).unwrap();
        assert_eq!(
            (curve[0].triplets, curve[1].triplets),
            (10, 11),
            "known non-monotone greedy step moved — update the counterexample"
        );
        for p in &curve {
            assert!(p.report.covers_all_target_faults(), "τ={}", p.tau);
        }
    }

    #[test]
    fn tau_zero_equals_atpg_length() {
        // with τ=0 and trimming, every selected triplet contributes exactly
        // one pattern → test length = #triplets
        let n = generate(&profile("tiny64").unwrap(), 4);
        let curve = tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Adder), &[0]).unwrap();
        assert_eq!(curve[0].test_length, curve[0].triplets);
    }

    #[test]
    fn sweep_points_carry_reports() {
        let n = generate(&profile("tiny64").unwrap(), 4);
        let curve = tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Lfsr), &[7]).unwrap();
        assert_eq!(curve[0].report.tau, 7);
        assert_eq!(curve[0].rom_bits, curve[0].report.rom_bits());
    }

    #[test]
    fn curve_invariant_in_jobs() {
        let n = generate(&profile("tiny64").unwrap(), 4);
        let taus = [0, 3, 7, 15];
        let serial =
            tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Adder).with_jobs(1), &taus).unwrap();
        for jobs in [2, 8] {
            let par = tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Adder).with_jobs(jobs), &taus)
                .unwrap();
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn single_tau_sweep_is_one_detection_only_pass_equal_to_run() {
        // one distinct τ (even duplicated) and no store: the detection-only
        // build `run` uses, one pass, never the first-detection stage
        let n = generate(&profile("tiny64").unwrap(), 4);
        let flow = ReseedingFlow::new(&n).unwrap();
        let cfg = FlowConfig::new(TpgKind::Adder);
        let curve = tradeoff_sweep_with(&flow, &cfg, &[7, 7]);
        assert_eq!(flow.builder().matrix_sim_passes(), 1);
        assert_eq!(flow.stages().stats().first_detection_misses, 0);
        assert_eq!(curve[0], curve[1], "duplicate τ points are identical");
        assert_eq!(curve[0].report, flow.run(&cfg.clone().with_tau(7)));
        // two distinct τ: one shared first-detection pass
        flow.builder().reset_matrix_sim_passes();
        let _ = tradeoff_sweep_with(&flow, &cfg, &[7, 15]);
        assert_eq!(flow.builder().matrix_sim_passes(), 1);
        assert_eq!(flow.stages().stats().first_detection_misses, 1);
    }

    #[test]
    fn empty_tau_list_yields_empty_curve() {
        let n = generate(&profile("tiny64").unwrap(), 4);
        let curve = tradeoff_sweep(&n, &FlowConfig::new(TpgKind::Adder), &[]).unwrap();
        assert!(curve.is_empty());
    }
}
