//! The end-to-end reseeding flow (paper Figure 1).

use fbist_bits::{for_each_set_bit, BitVec};
use fbist_fault::FaultId;
use fbist_netlist::Netlist;
use fbist_setcover::{reduce, solve_with, DetectionMatrix, ReductionEvent};
use fbist_sim::SimError;
use fbist_store::{ArtifactStore, DigestBytes, StageKey};
use fbist_tpg::Triplet;

use crate::builder::{AtpgBase, InitialReseeding, InitialReseedingBuilder};
use crate::config::FlowConfig;
use crate::report::{ReseedingReport, SelectedTriplet};
use crate::stage::{cover_key_from, sweep_digest_from, StageCache};

/// The complete set-covering reseeding flow:
/// ATPG → initial reseeding → Detection Matrix → reduction → exact solve →
/// trimming → [`ReseedingReport`].
///
/// The flow is a DAG of keyed stages (`netlist → atpg → first-detection →
/// cover`) resolved through a [`StageCache`]. [`ReseedingFlow::new`]
/// attaches no store — every stage computes, exactly the historical
/// behaviour; [`ReseedingFlow::with_store`] answers stages from a
/// content-addressed [`ArtifactStore`] when their keyed inputs match,
/// byte-identically to computing them (`tests/store_equivalence.rs`).
///
/// See the [crate-level documentation](crate) for a quickstart.
#[derive(Debug)]
pub struct ReseedingFlow {
    builder: InitialReseedingBuilder,
    stages: StageCache,
}

impl ReseedingFlow {
    /// Creates a flow for a combinational netlist, with no artifact
    /// store: every stage computes.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying engines (sequential or
    /// invalid netlists).
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        Ok(ReseedingFlow {
            builder: InitialReseedingBuilder::new(netlist)?,
            stages: StageCache::disabled(),
        })
    }

    /// Creates a flow whose stages read and populate `store`. A warm
    /// store answers the whole `run` from the `cover` artifact without
    /// simulating anything.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the underlying engines (sequential or
    /// invalid netlists).
    pub fn with_store(netlist: &Netlist, store: ArtifactStore) -> Result<Self, SimError> {
        Ok(ReseedingFlow {
            builder: InitialReseedingBuilder::new(netlist)?,
            stages: StageCache::with_store(store),
        })
    }

    /// Access to the initial-reseeding builder (for callers that want the
    /// intermediate artefacts).
    pub fn builder(&self) -> &InitialReseedingBuilder {
        &self.builder
    }

    /// The stage cache fronting this flow's store (disabled for flows
    /// built with [`ReseedingFlow::new`]).
    pub fn stages(&self) -> &StageCache {
        &self.stages
    }

    /// Content digest of this flow's netlist
    /// ([`circuit_digest`](crate::circuit_digest)), hashed once per flow.
    pub fn circuit_digest(&self) -> DigestBytes {
        self.stages.circuit(self.builder.netlist())
    }

    /// [`cover_stage_key`](crate::cover_stage_key) of `config` for this
    /// flow's netlist, without hashing the netlist again.
    pub fn cover_key(&self, config: &FlowConfig) -> StageKey {
        cover_key_from(self.circuit_digest(), config)
    }

    /// [`sweep_request_digest`](crate::sweep_request_digest) of `config`
    /// and `taus` for this flow's netlist, without hashing the netlist
    /// again.
    pub fn sweep_digest(&self, config: &FlowConfig, taus: &[usize]) -> DigestBytes {
        sweep_digest_from(self.circuit_digest(), config, taus)
    }

    /// Runs the full flow: answered from the `cover` artifact when the
    /// store holds one under this configuration's key, computed stage by
    /// stage otherwise, each stage answering from the [`StageCache`]'s
    /// resident artifact or the store before it computes.
    pub fn run(&self, config: &FlowConfig) -> ReseedingReport {
        if let Some(report) = self.stages.cover_get(self.builder.netlist(), config) {
            return report;
        }
        let base = self.stages.atpg_base_shared(&self.builder, config);
        self.run_from_base(&base, config)
    }

    /// [`run`](Self::run) after its `cover` lookup, on an ATPG base the
    /// caller already holds, for a caller that needs the base too (`fbist
    /// compare` hands its target faults to GATSBY) and so runs ATPG once.
    /// `base` must be this flow's [`StageCache::atpg_base`] under `config`.
    pub fn run_from_base(&self, base: &AtpgBase, config: &FlowConfig) -> ReseedingReport {
        self.covers_from_base(base, config, &[config.tau])
            .pop()
            .expect("one report per τ")
    }

    /// Computes the report of every τ in `uniq` (sorted, deduplicated,
    /// non-empty) from one ATPG base and records each as a `cover`
    /// artifact, for [`run`](Self::run) and the τ-sweep alike.
    ///
    /// Every cover takes one first-detection pass at `max(uniq)`
    /// ([`StageCache::first_detection`], which with a store resolves
    /// through the saturating `first-detection` stage, resident artifact
    /// first, and then answers every later τ up to its `τ_max`),
    /// borrowed rather than cloned, thresholds it per point
    /// ([`FirstDetectionMatrix::at_tau`]) and trims from the same first
    /// indices ([`FirstDetectionMatrix::max_first_in`]), so no selected
    /// row is simulated again.
    ///
    /// [`FirstDetectionMatrix::at_tau`]: fbist_setcover::FirstDetectionMatrix::at_tau
    /// [`FirstDetectionMatrix::max_first_in`]: fbist_setcover::FirstDetectionMatrix::max_first_in
    pub(crate) fn covers_from_base(
        &self,
        base: &AtpgBase,
        config: &FlowConfig,
        uniq: &[usize],
    ) -> Vec<ReseedingReport> {
        let netlist = self.builder.netlist();
        let tpg = config.tpg.build(netlist.inputs().len());
        let tau_max = *uniq.last().expect("at least one τ");
        let (triplets_max, cached) =
            self.stages
                .first_detection_shared(&self.builder, &*tpg, base, config, tau_max);
        let fdm = &cached.matrix;
        let sizes = Sizes {
            target_faults: base.target_faults.len(),
            universe: base.universe_size,
            atpg_coverage: base.atpg.coverage(),
        };
        let reports = mini_rayon::par_map_indexed(config.jobs, uniq.len(), |i| {
            // derived instead of re-simulated: same δ/θ (the RNG
            // prologue never reads τ), same matrix (prefix property +
            // thresholding), same trim (prefix property again)
            let tau = uniq[i];
            self.cover(
                &config.clone().with_tau(tau),
                &fdm.at_tau(tau),
                sizes,
                |row| triplets_max[row].with_tau(tau),
                |row, new| fdm.max_first_in(row, new).map_or(0, |f| f as usize + 1),
            )
        });
        for (&tau, report) in uniq.iter().zip(&reports) {
            self.stages
                .cover_put(netlist, &config.clone().with_tau(tau), report);
        }
        reports
    }

    /// Runs reduction, solving and trimming on a prebuilt initial
    /// reseeding. Each selected triplet's useful prefix comes from one
    /// fault simulation of its expansion against the faults it newly
    /// covers. The flow itself trims from first-detection indices and
    /// never calls this; it is the re-simulating reference the oracle
    /// tests hold [`run`](Self::run) to, and the entry point for callers
    /// that bring their own [`InitialReseeding`].
    pub fn finish(&self, config: &FlowConfig, initial: &InitialReseeding) -> ReseedingReport {
        let tpg = config.tpg.build(self.builder.netlist().inputs().len());
        let fsim = self.builder.fault_simulator();
        let sizes = Sizes {
            target_faults: initial.target_faults.len(),
            universe: initial.universe_size,
            atpg_coverage: initial.atpg.coverage(),
        };
        self.cover(
            config,
            &initial.matrix,
            sizes,
            |row| initial.triplets[row].clone(),
            |row, new| {
                let mut ids = Vec::new();
                for_each_set_bit(new.as_words(), |i| ids.push(FaultId::from_index(i)));
                let patterns = tpg.expand(&initial.triplets[row]);
                fsim.run(&patterns, &initial.target_faults.subset(&ids))
                    .useful_prefix_len()
            },
        )
    }

    /// Reduction, solving, and the paper's §4 trimming and incremental
    /// accounting over `matrix` — the one accounting loop behind every
    /// report.
    ///
    /// Selected rows are applied necessary-first. A row's new faults are
    /// its matrix row minus the faults earlier rows covered; with
    /// trimming, its test length is `useful_len(row, new)`, the index one
    /// past the last pattern that first-detects one of them (at least 1),
    /// and its triplet's `τ` shrinks to match. Untrimmed, the triplet
    /// keeps all of its patterns.
    fn cover(
        &self,
        config: &FlowConfig,
        matrix: &DetectionMatrix,
        sizes: Sizes,
        triplet: impl Fn(usize) -> Triplet,
        useful_len: impl Fn(usize, &BitVec) -> usize,
    ) -> ReseedingReport {
        // ---- Matrix Reducer + solver (LINGO stand-in) -------------------
        let reduction = reduce(matrix, &config.solve.reducer);
        let solution = solve_with(matrix, &config.solve, &reduction);
        let dominated_rows = reduction
            .log
            .iter()
            .filter(|e| matches!(e, ReductionEvent::RowDominated { .. }))
            .count();

        // ---- order: necessary triplets first, then solver triplets ------
        let necessary = solution.necessary().iter().map(|&r| (r, true));
        let order = necessary.chain(solution.solver_chosen().iter().map(|&r| (r, false)));

        // ---- trimming & incremental accounting (paper §4) ---------------
        let cols = matrix.cols();
        let mut remaining = BitVec::ones(cols).as_words().to_vec();
        let mut selected = Vec::new();
        let mut covered = 0usize;
        for (row, necessary) in order {
            let words = matrix.row_major().row_words(row);
            let new: Vec<u64> = words.iter().zip(&remaining).map(|(w, r)| w & r).collect();
            for (r, n) in remaining.iter_mut().zip(&new) {
                *r &= !n;
            }
            let new = BitVec::from_word_vec(cols, new);
            let new_faults = new.count_ones();
            let triplet = triplet(row);
            let (kept_triplet, test_length) = if config.trim {
                // a solver-selected triplet always adds coverage, but be
                // defensive: keep at least pattern 0
                let len = useful_len(row, &new).max(1);
                (triplet.with_tau(len - 1), len)
            } else {
                let len = triplet.pattern_count();
                (triplet, len)
            };
            covered += new_faults;
            selected.push(SelectedTriplet {
                triplet: kept_triplet,
                necessary,
                new_faults,
                test_length,
            });
        }

        ReseedingReport {
            circuit: self.builder.netlist().name().to_owned(),
            tpg: config.tpg.name().to_owned(),
            tau: config.tau,
            selected,
            initial_triplets: matrix.rows(),
            target_faults: sizes.target_faults,
            fault_universe: sizes.universe,
            residual: solution.residual_size(),
            reduction_iterations: solution.reduction_iterations(),
            dominated_rows,
            solution_optimal: solution.is_optimal(),
            solver_nodes: solution.solver_nodes(),
            covered_faults: covered,
            atpg_coverage: sizes.atpg_coverage,
        }
    }
}

/// The report fields a cover takes from its ATPG base.
#[derive(Clone, Copy)]
struct Sizes {
    target_faults: usize,
    universe: usize,
    atpg_coverage: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpgKind;
    use fbist_genbench::{generate, profile};
    use fbist_netlist::embedded;

    #[test]
    fn c17_flow_covers_everything_minimally() {
        let n = embedded::c17();
        let flow = ReseedingFlow::new(&n).unwrap();
        let report = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(7));
        assert!(report.covers_all_target_faults());
        assert!(report.solution_optimal);
        assert!(report.triplet_count() >= 1);
        assert!(report.triplet_count() <= report.initial_triplets);
        assert!(report.test_length() >= report.triplet_count());
    }

    #[test]
    fn flow_keys_equal_the_netlist_keys() {
        let n = embedded::c17();
        let flow = ReseedingFlow::new(&n).unwrap();
        let config = FlowConfig::new(TpgKind::Lfsr).with_tau(5);
        assert_eq!(flow.circuit_digest(), crate::circuit_digest(&n));
        assert_eq!(flow.cover_key(&config), crate::cover_stage_key(&n, &config));
        assert_eq!(
            flow.sweep_digest(&config, &[7, 0, 7]),
            crate::sweep_request_digest(&n, &config, &[0, 7])
        );
    }

    #[test]
    fn bigger_tau_gives_fewer_or_equal_triplets_usually() {
        // the Figure-2 monotonicity: more evolution → denser rows → the
        // optimal cover cannot grow beyond the τ=0 optimum on c17
        let n = embedded::c17();
        let flow = ReseedingFlow::new(&n).unwrap();
        let k0 = flow
            .run(&FlowConfig::new(TpgKind::Adder).with_tau(0))
            .triplet_count();
        let k31 = flow
            .run(&FlowConfig::new(TpgKind::Adder).with_tau(31))
            .triplet_count();
        assert!(k31 <= k0, "{k31} > {k0}");
    }

    #[test]
    fn trimming_reduces_or_keeps_test_length() {
        let p = profile("tiny64").unwrap();
        let n = generate(&p, 2);
        let flow = ReseedingFlow::new(&n).unwrap();
        let trimmed = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(15));
        let full = flow.run(
            &FlowConfig::new(TpgKind::Adder)
                .with_tau(15)
                .with_trim(false),
        );
        assert!(trimmed.test_length() <= full.test_length());
        assert_eq!(trimmed.triplet_count(), full.triplet_count());
        assert!(trimmed.covers_all_target_faults());
        assert!(full.covers_all_target_faults());
    }

    #[test]
    fn all_tpg_kinds_complete_the_flow() {
        let n = embedded::c17();
        let flow = ReseedingFlow::new(&n).unwrap();
        for kind in [
            TpgKind::Adder,
            TpgKind::Subtracter,
            TpgKind::Multiplier,
            TpgKind::Lfsr,
            TpgKind::MultiPolyLfsr,
            TpgKind::Weighted,
        ] {
            let report = flow.run(&FlowConfig::new(kind).with_tau(7));
            assert!(report.covers_all_target_faults(), "{kind}");
        }
    }

    #[test]
    fn synthetic_circuit_flow_and_table2_fields() {
        let p = profile("tiny64").unwrap();
        let n = generate(&p, 5);
        let flow = ReseedingFlow::new(&n).unwrap();
        let report = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(31));
        assert!(report.covers_all_target_faults());
        assert_eq!(
            report.triplet_count(),
            report.necessary_count() + report.solver_count()
        );
        assert!(report.fault_universe >= report.target_faults);
        assert!(report.reduction_iterations >= 1);
        assert!(report.to_string().contains(&p.name));
    }

    #[test]
    fn necessary_triplets_come_first() {
        let p = profile("tiny64").unwrap();
        let n = generate(&p, 3);
        let flow = ReseedingFlow::new(&n).unwrap();
        let report = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(15));
        let first_solver = report.selected.iter().position(|t| !t.necessary);
        if let Some(pos) = first_solver {
            assert!(
                report.selected[pos..].iter().all(|t| !t.necessary),
                "necessary triplets must precede solver triplets"
            );
        }
    }

    #[test]
    fn index_accounting_matches_simulation_row_by_row() {
        // sweeps and run() both trim from first-detection indices; every
        // selected triplet's kept prefix, simulated against the faults
        // still uncovered, detects exactly its new faults and
        // first-detects one on its last pattern
        let tiny = generate(&profile("tiny64").unwrap(), 1);
        for netlist in [embedded::c17(), tiny] {
            let flow = ReseedingFlow::new(&netlist).unwrap();
            let config = FlowConfig::new(TpgKind::Adder);
            let taus = [0usize, 7, 31, 100];
            let swept = crate::tradeoff_sweep_with(&flow, &config, &taus);
            let tpg = config.tpg.build(netlist.inputs().len());
            let base = flow.builder().atpg_base(&config);
            let fsim = flow.builder().fault_simulator();
            for (point, &tau) in swept.iter().zip(&taus) {
                let run = flow.run(&config.clone().with_tau(tau));
                assert_eq!(point.report, run, "{} τ={tau}", netlist.name());
                let mut remaining = base.target_faults.clone();
                for (i, t) in run.selected.iter().enumerate() {
                    let res = fsim.run(&tpg.expand(&t.triplet), &remaining);
                    let label = format!("{} τ={tau} row {i}", netlist.name());
                    assert_eq!(res.detected_count(), t.new_faults, "{label}");
                    assert_eq!(res.useful_prefix_len(), t.test_length, "{label}");
                    assert!(t.test_length <= tau + 1, "{label}");
                    let left: Vec<FaultId> = remaining
                        .iter()
                        .filter(|(id, _)| !res.detected.get(id.index()))
                        .map(|(id, _)| id)
                        .collect();
                    remaining = remaining.subset(&left);
                }
                assert!(remaining.is_empty(), "{} τ={tau}", netlist.name());
                assert!(run.covers_all_target_faults());
            }
        }
    }

    #[test]
    fn every_selected_triplet_contributes() {
        // minimality implies every triplet covers at least one fault no
        // earlier triplet covered (the paper's Definition of minimal)
        let n = embedded::c17();
        let flow = ReseedingFlow::new(&n).unwrap();
        let report = flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(7));
        for (i, t) in report.selected.iter().enumerate() {
            assert!(t.new_faults > 0, "triplet {i} adds nothing");
        }
    }
}
