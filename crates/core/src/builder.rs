//! The Initial Reseeding Builder (paper §3.1).
//!
//! Builds the starting solution `T` — one triplet per ATPG pattern — and
//! the Detection Matrix by fault-simulating each triplet's expanded test
//! set against the target fault list `F`.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use fbist_atpg::{Atpg, AtpgResult};
use fbist_bits::BitVec;
use fbist_fault::{BatchPlan, FaultList, FaultSimulator};
use fbist_netlist::Netlist;
use fbist_setcover::{DetectionMatrix, FirstDetectionMatrix};
use fbist_sim::SimError;
use fbist_tpg::{PatternGenerator, Triplet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{FlowConfig, MatrixBuild};
use fbist_bits::SimdWidth;

/// The simulation-independent half of an [`InitialReseeding`]: one shared
/// ATPG run and the target fault list it defines.
///
/// The τ-sweep builds this once and derives every point's triplets and
/// Detection Matrix from it — re-running ATPG per τ would change nothing
/// (the run does not depend on `τ`) and waste the sweep's dominant
/// fixed cost.
#[derive(Debug)]
pub struct AtpgBase {
    /// The raw ATPG outcome (pattern set, coverage, untestable faults…).
    pub atpg: AtpgResult,
    /// The target fault list `F` (the faults `ATPGTS` covers).
    pub target_faults: FaultList,
    /// The collapsed universe `F` was selected from.
    pub universe_size: usize,
}

/// The initial reseeding `T` plus everything derived while building it.
#[derive(Debug)]
pub struct InitialReseeding {
    /// One triplet per ATPG pattern (`θᵢ = pᵢ`, random `δᵢ`, common `τ`).
    pub triplets: Vec<Triplet>,
    /// The Detection Matrix: rows = triplets, columns = faults of `F`.
    pub matrix: DetectionMatrix,
    /// The target fault list `F` (the faults `ATPGTS` covers).
    pub target_faults: FaultList,
    /// The collapsed universe `F` was selected from.
    pub universe_size: usize,
    /// The raw ATPG outcome (pattern set, coverage, untestable faults…).
    pub atpg: AtpgResult,
}

impl InitialReseeding {
    /// Number of initial triplets `M` (= `|ATPGTS|`).
    pub fn triplet_count(&self) -> usize {
        self.triplets.len()
    }
}

/// Builder for [`InitialReseeding`]. See the module docs.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use reseed_core::{FlowConfig, InitialReseedingBuilder, TpgKind};
///
/// let netlist = embedded::c17();
/// let config = FlowConfig::new(TpgKind::Adder).with_tau(3);
/// let initial = InitialReseedingBuilder::new(&netlist)?.build(&config);
/// assert_eq!(initial.matrix.rows(), initial.triplet_count());
/// assert_eq!(initial.matrix.cols(), initial.target_faults.len());
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct InitialReseedingBuilder {
    netlist: Netlist,
    atpg: Atpg,
    fsim: FaultSimulator,
    /// Matrix-simulation pass counter (see
    /// [`matrix_sim_passes`](Self::matrix_sim_passes)). Atomic because the
    /// builder is shared by reference across the sweep's worker pool.
    matrix_passes: AtomicU64,
}

impl InitialReseedingBuilder {
    /// Creates a builder for a combinational netlist (apply
    /// [`full_scan`](fbist_netlist::full_scan) to sequential ones first).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] or [`SimError::Netlist`]
    /// like the underlying engines.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        Ok(InitialReseedingBuilder {
            netlist: netlist.clone(),
            atpg: Atpg::new(netlist)?,
            fsim: FaultSimulator::new(netlist)?,
            matrix_passes: AtomicU64::new(0),
        })
    }

    /// Runs ATPG and derives the target fault list — the shared,
    /// τ-independent base of every initial reseeding.
    ///
    /// This is the paper's (ATPGTS, F): `F` is defined as the faults the
    /// ATPG test set covers — untestable/aborted faults are excluded,
    /// exactly like TestGen's "guarantees complete covering of F". The
    /// run depends only on the netlist and `config.atpg`, never on `τ`,
    /// which is what lets the τ-sweep build it once.
    pub fn atpg_base(&self, config: &FlowConfig) -> AtpgBase {
        let universe = FaultList::collapsed(&self.netlist);
        // the flow-level worker count reaches the PODEM phase unless the
        // ATPG fragment pins its own; either way `jobs` never enters the
        // `atpg` stage key — it cannot change a single result bit
        let mut acfg = config.atpg.clone();
        if acfg.jobs == 0 {
            acfg.jobs = config.jobs;
        }
        let atpg = self.atpg.run(&universe, &acfg);
        let target_faults = universe.subset(&atpg.detected_ids());
        AtpgBase {
            atpg,
            target_faults,
            universe_size: universe.len(),
        }
    }

    /// Runs ATPG and constructs the initial reseeding and Detection Matrix
    /// for the configured TPG and `τ`.
    pub fn build(&self, config: &FlowConfig) -> InitialReseeding {
        // 1. the shared ATPG base (ATPGTS, F)
        let base = self.atpg_base(config);

        // 2. One triplet per ATPG pattern, expanded and fault-simulated.
        let tpg = config.tpg.build(self.netlist.inputs().len());
        let (triplets, matrix) = self.matrix_for(
            &tpg,
            &base.atpg.patterns,
            &base.target_faults,
            config.tau,
            config.seed,
            config.jobs,
            config.matrix_build,
            config.simd_width,
        );

        InitialReseeding {
            triplets,
            matrix,
            target_faults: base.target_faults,
            universe_size: base.universe_size,
            atpg: base.atpg,
        }
    }

    /// Shared blocks handed to one pool dispatch, at least. A shared block
    /// is a full fault-simulation unit (good-circuit eval + one cone
    /// propagation per undropped fault), so a few of them already
    /// amortise the dispatch; keeping the chunk small load-balances
    /// blocks whose masked-dropping savings differ. A range grows past
    /// this only to hold one whole row (see
    /// [`block_partials`](Self::block_partials)).
    const BLOCK_CHUNK: usize = 4;

    /// Builds triplets and the Detection Matrix for an explicit pattern
    /// list and fault list (used by [`ReseedingFlow`](crate::ReseedingFlow)
    /// to build from a shared ATPG run).
    ///
    /// `jobs` fans the construction out across the pool (`0` = global
    /// default); `build` and `simd_width` select nothing (see
    /// [`MatrixBuild`] and [`SimdWidth`]). Every RNG draw happens in the
    /// serial prologue below, so the triplet stream — and therefore the
    /// matrix — is a pure function of `(seed, patterns, tau)`: the result
    /// is bit-identical for every job count.
    ///
    /// The rows' expanded pattern streams are planned into shared blocks
    /// ([`BatchPlan`]); *block ranges* fan out over the pool, each
    /// expanding only the rows it touches, and rows are reassembled in
    /// index order from the partial detection sets each range reports —
    /// the union over any partition of the block axis is the same, so
    /// worker count and scheduling can never change a bit.
    ///
    /// # Panics
    ///
    /// Panics if `τ + 1` or the total lane count overflows `usize`.
    #[allow(clippy::too_many_arguments)]
    pub fn matrix_for(
        &self,
        tpg: &dyn PatternGenerator,
        patterns: &[BitVec],
        target_faults: &FaultList,
        tau: usize,
        seed: u64,
        jobs: usize,
        _build: MatrixBuild,
        _simd_width: SimdWidth,
    ) -> (Vec<Triplet>, DetectionMatrix) {
        self.matrix_passes.fetch_add(1, Ordering::Relaxed);
        let triplets = derive_triplets(tpg, patterns, tau, seed);
        let partials = self.block_partials(
            tpg,
            &triplets,
            tau,
            jobs,
            |plan: &BatchPlan, range, rows: &[Vec<BitVec>]| {
                self.fsim.detects_blocks(plan, range, rows, target_faults)
            },
        );
        let matrix =
            DetectionMatrix::from_partial_rows(triplets.len(), target_faults.len(), partials);
        (triplets, matrix)
    }

    /// The shared half of both builds: plan shared blocks from the row
    /// lengths, fan *block ranges* out over the pool, and concatenate the
    /// per-range `(row, partial)` results. Keeping plan construction and
    /// range partitioning in one place is what makes the "same plan, same
    /// partitioning" half of the first-detection bit-identity contract
    /// hold by construction — the detection and first-detection builds
    /// differ only in the simulator call and the merge.
    ///
    /// Each range expands only the rows
    /// [`BatchPlan::row_span`] names, so memory holds the patterns of a
    /// few ranges, not of the whole matrix. A range spans at least
    /// [`Self::BLOCK_CHUNK`] blocks and at least one row's `τ + 1` lanes:
    /// a row then touches at most two ranges, so no row is expanded more
    /// than twice however large `τ` grows.
    ///
    /// # Panics
    ///
    /// Panics if `τ + 1` or the total lane count overflows `usize` —
    /// callers going through [`FlowConfig::with_tau`] are bounded far
    /// below this by [`FlowConfig::MAX_TAU`], but the builders take a raw
    /// `usize`, so the arithmetic is checked instead of wrapping silently
    /// in release builds.
    fn block_partials<T: Send>(
        &self,
        tpg: &dyn PatternGenerator,
        triplets: &[Triplet],
        tau: usize,
        jobs: usize,
        simulate: impl Fn(&BatchPlan, Range<usize>, &[Vec<BitVec>]) -> Vec<(usize, T)> + Sync,
    ) -> Vec<(usize, T)> {
        // every triplet expands to τ + 1 patterns (PatternGenerator::expand)
        let len = tau
            .checked_add(1)
            .expect("τ + 1 overflows usize — bound τ by FlowConfig::MAX_TAU");
        let plan = BatchPlan::new(&vec![len; triplets.len()]);
        let chunk = Self::BLOCK_CHUNK.max(len.div_ceil(plan.lane_capacity()));
        let ranges = plan.block_count().div_ceil(chunk);
        let partials = mini_rayon::par_map_indexed(jobs, ranges, |i| {
            let range = i * chunk..((i + 1) * chunk).min(plan.block_count());
            let rows: Vec<Vec<BitVec>> = triplets[plan.row_span(range.clone())]
                .iter()
                .map(|t| tpg.expand(t))
                .collect();
            simulate(&plan, range, &rows)
        });
        partials.into_iter().flatten().collect()
    }

    /// Builds triplets at `tau_max` and the **first-detection matrix**:
    /// per `(triplet, fault)` pair, the earliest expanded-pattern index
    /// that detects — one simulation pass from which the Detection Matrix
    /// of *every* `τ ≤ tau_max` is derivable by thresholding
    /// ([`FirstDetectionMatrix::at_tau`]).
    ///
    /// The serial RNG prologue and the block-range fan-out are exactly
    /// [`matrix_for`](Self::matrix_for)'s — same seeds, same plan, same
    /// partitioning — so the triplets equal `matrix_for(.., τ, ..)`'s up
    /// to their `τ` field, and
    /// `first_detection_matrix_for(.., tau_max, ..).1.at_tau(τ)` is
    /// bit-identical to `matrix_for(.., τ, ..).1` for every
    /// `τ ≤ tau_max` and every job count. Per-range partials are merged
    /// with an elementwise `min` ([`merge_first_detections`]), which is
    /// partition-invariant like the detection union and moves each row's
    /// first partial in instead of copying it.
    ///
    /// [`merge_first_detections`]: fbist_fault::merge_first_detections
    ///
    /// # Panics
    ///
    /// Panics if `tau_max + 1` or the total lane count overflows `usize`.
    #[allow(clippy::too_many_arguments)]
    pub fn first_detection_matrix_for(
        &self,
        tpg: &dyn PatternGenerator,
        patterns: &[BitVec],
        target_faults: &FaultList,
        tau_max: usize,
        seed: u64,
        jobs: usize,
        _build: MatrixBuild,
        _simd_width: SimdWidth,
    ) -> (Vec<Triplet>, FirstDetectionMatrix) {
        self.matrix_passes.fetch_add(1, Ordering::Relaxed);
        let triplets = derive_triplets(tpg, patterns, tau_max, seed);
        let partials = self.block_partials(
            tpg,
            &triplets,
            tau_max,
            jobs,
            |plan: &BatchPlan, range, rows: &[Vec<BitVec>]| {
                self.fsim
                    .first_detections_blocks(plan, range, rows, target_faults)
            },
        );
        let firsts =
            fbist_fault::merge_first_detections(triplets.len(), target_faults.len(), partials);
        let matrix = FirstDetectionMatrix::from_rows(target_faults.len(), firsts);
        (triplets, matrix)
    }

    /// Number of Detection-Matrix simulation passes this builder has run
    /// ([`matrix_for`](Self::matrix_for) and
    /// [`first_detection_matrix_for`](Self::first_detection_matrix_for)
    /// each count one, whatever their engine or job count).
    ///
    /// This is the sweep's efficiency contract made observable: a sweep
    /// pays exactly **one** pass whatever its τ count, where separate runs
    /// pay one each — asserted in `tests/sweep_equivalence.rs` together
    /// with the
    /// [`LaneOccupancy`](fbist_sim::LaneOccupancy) counters.
    pub fn matrix_sim_passes(&self) -> u64 {
        self.matrix_passes.load(Ordering::Relaxed)
    }

    /// Resets the matrix-pass counter to zero.
    pub fn reset_matrix_sim_passes(&self) {
        self.matrix_passes.store(0, Ordering::Relaxed);
    }

    /// The underlying fault simulator (shared with the flow for trimming).
    pub fn fault_simulator(&self) -> &FaultSimulator {
        &self.fsim
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }
}

/// Serial triplet prologue shared by both matrix builds: derive every
/// triplet (and thus consume the full RNG stream) before any worker
/// starts, in pattern order. Worker identity and completion order can
/// never leak into the δ values, and the stream does not depend on `tau`
/// (`seed_for` never reads it) — so triplets derived at different `τ`
/// differ *only* in their `τ` field, the keystone of the τ-sweep's
/// derive-don't-resimulate guarantee.
pub(crate) fn derive_triplets(
    tpg: &dyn PatternGenerator,
    patterns: &[BitVec],
    tau: usize,
    seed: u64,
) -> Vec<Triplet> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7129_55D1);
    let mut word = move || rng.gen::<u64>();
    patterns
        .iter()
        .map(|p| tpg.seed_for(p, &mut word).with_tau(tau))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpgKind;
    use fbist_netlist::embedded;

    fn build(tpg: TpgKind, tau: usize) -> InitialReseeding {
        let n = embedded::c17();
        let cfg = FlowConfig::new(tpg).with_tau(tau);
        InitialReseedingBuilder::new(&n).unwrap().build(&cfg)
    }

    #[test]
    fn rows_cover_all_target_faults() {
        for tpg in [TpgKind::Adder, TpgKind::Lfsr, TpgKind::Weighted] {
            let init = build(tpg, 4);
            let all: Vec<usize> = (0..init.matrix.rows()).collect();
            assert!(
                init.matrix.is_cover(&all),
                "{tpg}: initial reseeding must cover F by construction"
            );
        }
    }

    #[test]
    fn tau_zero_matrix_is_pattern_dictionary() {
        // with τ=0 each row is exactly the detection set of its ATPG pattern
        let n = embedded::c17();
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(0);
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let init = b.build(&cfg);
        let dict = b
            .fault_simulator()
            .dictionary(&init.atpg.patterns, &init.target_faults);
        for r in 0..init.matrix.rows() {
            for c in 0..init.matrix.cols() {
                assert_eq!(init.matrix.get(r, c), dict.get(r, c), "({r},{c})");
            }
        }
    }

    #[test]
    fn larger_tau_never_loses_coverage_per_row() {
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let cfg0 = FlowConfig::new(TpgKind::Adder).with_tau(0);
        let init0 = b.build(&cfg0);
        let cfg8 = FlowConfig::new(TpgKind::Adder).with_tau(8);
        let init8 = b.build(&cfg8);
        // row weights can only grow with τ (pattern 0 is identical)
        for r in 0..init0.matrix.rows() {
            assert!(
                init8.matrix.row_weight(r) >= init0.matrix.row_weight(r),
                "row {r}"
            );
        }
    }

    #[test]
    fn matrix_dimensions() {
        let init = build(TpgKind::Subtracter, 2);
        assert_eq!(init.matrix.rows(), init.atpg.patterns.len());
        assert_eq!(init.matrix.cols(), init.target_faults.len());
        assert!(init.universe_size >= init.target_faults.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = build(TpgKind::Adder, 3);
        let b = build(TpgKind::Adder, 3);
        assert_eq!(a.triplets, b.triplets);
        assert_eq!(a.matrix.row_major(), b.matrix.row_major());
    }

    /// c17's ATPG base, and both builds over it.
    struct C17 {
        b: InitialReseedingBuilder,
        base: AtpgBase,
        seed: u64,
    }

    impl C17 {
        fn new() -> C17 {
            let b = InitialReseedingBuilder::new(&embedded::c17()).unwrap();
            let cfg = FlowConfig::new(TpgKind::Adder);
            let base = b.atpg_base(&cfg);
            C17 {
                b,
                base,
                seed: cfg.seed,
            }
        }

        fn adder(&self) -> Box<dyn PatternGenerator> {
            TpgKind::Adder.build(self.b.netlist().inputs().len())
        }

        fn matrix(
            &self,
            tpg: &dyn PatternGenerator,
            tau: usize,
            jobs: usize,
        ) -> (Vec<Triplet>, DetectionMatrix) {
            let (patterns, faults) = (&self.base.atpg.patterns, &self.base.target_faults);
            let (build, width) = (MatrixBuild::Batched, SimdWidth::Auto);
            self.b
                .matrix_for(tpg, patterns, faults, tau, self.seed, jobs, build, width)
        }

        fn firsts(
            &self,
            tpg: &dyn PatternGenerator,
            tau: usize,
            jobs: usize,
        ) -> (Vec<Triplet>, FirstDetectionMatrix) {
            let (patterns, faults) = (&self.base.atpg.patterns, &self.base.target_faults);
            let (build, width) = (MatrixBuild::Batched, SimdWidth::Auto);
            self.b.first_detection_matrix_for(
                tpg, patterns, faults, tau, self.seed, jobs, build, width,
            )
        }
    }

    /// Counts the patterns [`PatternGenerator::expand`] hands out.
    struct CountingTpg {
        inner: Box<dyn PatternGenerator>,
        expanded: AtomicU64,
    }

    impl PatternGenerator for CountingTpg {
        fn width(&self) -> usize {
            self.inner.width()
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn expand(&self, triplet: &Triplet) -> Vec<BitVec> {
            let patterns = self.inner.expand(triplet);
            self.expanded
                .fetch_add(patterns.len() as u64, Ordering::Relaxed);
            patterns
        }
        fn seed_for(&self, pattern: &BitVec, word_source: &mut dyn FnMut() -> u64) -> Triplet {
            self.inner.seed_for(pattern, word_source)
        }
    }

    #[test]
    fn large_tau_expands_each_row_at_most_twice() {
        // at τ = 4095 one row spans eight 512-lane blocks, so a build
        // that re-expanded whole rows per block would blow far past
        // 2 · rows · (τ + 1)
        let c17 = C17::new();
        let faults = &c17.base.target_faults;
        let tau = 4095;
        let tpg = CountingTpg {
            inner: c17.adder(),
            expanded: AtomicU64::new(0),
        };
        let bound = 2 * c17.base.atpg.patterns.len() as u64 * (tau as u64 + 1);
        let expanded = || tpg.expanded.swap(0, Ordering::Relaxed);
        for jobs in [1, 4] {
            let (triplets, matrix) = c17.matrix(&tpg, tau, jobs);
            let count = expanded();
            assert!(count <= bound, "jobs={jobs}: {count} > {bound}");
            let (_, fdm) = c17.firsts(&tpg, tau, jobs);
            let count = expanded();
            assert!(count <= bound, "jobs={jobs}: {count} > {bound}");

            // the per-row oracle: each row's expansion simulated alone
            let runs: Vec<_> = triplets
                .iter()
                .map(|t| c17.b.fault_simulator().run(&tpg.expand(t), faults))
                .collect();
            for (r, run) in runs.iter().enumerate() {
                for c in 0..faults.len() {
                    assert_eq!(matrix.get(r, c), run.detected.get(c), "jobs={jobs}");
                    assert_eq!(fdm.first(r, c), run.first_detection[c], "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "τ + 1 overflows usize")]
    fn matrix_build_rejects_tau_overflow() {
        // without the check this would wrap to len = 0 in release builds
        // and plan empty rows for a nonsense τ
        let c17 = C17::new();
        let _ = c17.matrix(&*c17.adder(), usize::MAX, 1);
    }

    #[test]
    fn first_detection_matrix_thresholds_to_every_tau() {
        // one first-detection pass at τ_max must reproduce matrix_for's
        // triplets (up to the τ field) and matrix at every smaller τ
        let c17 = C17::new();
        let tpg = c17.adder();
        let (trip_max, fdm) = c17.firsts(&*tpg, 9, 1);
        for tau in [0usize, 1, 3, 9] {
            let (trip, matrix) = c17.matrix(&*tpg, tau, 1);
            let derived: Vec<_> = trip_max.iter().map(|t| t.with_tau(tau)).collect();
            assert_eq!(trip, derived, "τ={tau}: triplets");
            assert_eq!(
                matrix.row_major(),
                fdm.at_tau(tau).row_major(),
                "τ={tau}: thresholded matrix differs"
            );
        }
    }

    #[test]
    fn first_detection_matrix_is_job_invariant() {
        let c17 = C17::new();
        let tpg = c17.adder();
        let serial = c17.firsts(&*tpg, 9, 1);
        for jobs in [2, 4, 16] {
            assert_eq!(c17.firsts(&*tpg, 9, jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn no_detection_sentinels_agree_across_crates() {
        // the simulator's sentinel feeds FirstDetectionMatrix::from_rows
        // unchanged — the two constants are one contract
        assert_eq!(
            FaultSimulator::NO_DETECTION,
            FirstDetectionMatrix::NO_DETECTION
        );
    }

    #[test]
    fn matrix_pass_counter_counts_builds() {
        let c17 = C17::new();
        assert_eq!(c17.b.matrix_sim_passes(), 0, "ATPG alone is not a pass");
        let _ = c17.b.build(&FlowConfig::new(TpgKind::Adder).with_tau(3));
        assert_eq!(c17.b.matrix_sim_passes(), 1);
        let _ = c17.firsts(&*c17.adder(), 7, 1);
        assert_eq!(c17.b.matrix_sim_passes(), 2);
        c17.b.reset_matrix_sim_passes();
        assert_eq!(c17.b.matrix_sim_passes(), 0);
    }

    #[test]
    fn matrix_is_bit_identical_for_every_job_count() {
        let n = embedded::c17();
        let b = InitialReseedingBuilder::new(&n).unwrap();
        let base = FlowConfig::new(TpgKind::Adder).with_tau(9);
        let serial = b.build(&base.clone().with_jobs(1));
        for jobs in [2, 4, 16] {
            let par = b.build(&base.clone().with_jobs(jobs));
            assert_eq!(serial.triplets, par.triplets, "jobs={jobs}");
            assert_eq!(
                serial.matrix.row_major(),
                par.matrix.row_major(),
                "jobs={jobs}"
            );
        }
    }
}
