//! The end-to-end reseeding flow (paper Figure 1).

use fbist_netlist::Netlist;
use fbist_setcover::{reduce, solve_with, ReductionEvent};
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
    /// stage (each stage checking the store first) otherwise.
    pub fn run(&self, config: &FlowConfig) -> ReseedingReport {
        if let Some(report) = self.stages.cover_get(self.builder.netlist(), config) {
            return report;
        }
        let base = self.stages.atpg_base(&self.builder, config);
        self.covers_from_base(base, config, &[config.tau])
            .pop()
            .expect("one report per τ")
    }

    /// Computes the report of every τ in `uniq` (sorted, deduplicated,
    /// non-empty) from one ATPG base and records each as a `cover`
    /// artifact, for [`run`](Self::run) and the τ-sweep alike. This is the
    /// one place the flow decides how the Detection Matrix is built:
    ///
    /// * **two or more τ, or a store attached:** one first-detection pass
    ///   at `max(uniq)`, thresholded per point
    ///   ([`FirstDetectionMatrix::at_tau`]). With a store the pass
    ///   resolves through the saturating `first-detection` stage, which
    ///   then answers every later τ up to its `τ_max`.
    /// * **exactly one τ and no store:** the detection-only
    ///   [`InitialReseedingBuilder::matrix_for`] build.
    ///
    /// Both builds give byte-identical reports
    /// (`tests/sweep_equivalence.rs`), so no option selects between them.
    ///
    /// [`FirstDetectionMatrix::at_tau`]: fbist_setcover::FirstDetectionMatrix::at_tau
    pub(crate) fn covers_from_base(
        &self,
        base: AtpgBase,
        config: &FlowConfig,
        uniq: &[usize],
    ) -> Vec<ReseedingReport> {
        let netlist = self.builder.netlist();
        let tpg = config.tpg.build(netlist.inputs().len());
        let reports = match *uniq {
            // A single point has nothing to amortise first-detection
            // indices over, and they cost memory. Whole-process peak RSS
            // (`ru_maxrss`, release build, x86-64 Linux, jobs = 1) of
            // `fbist reseed <c> --tau 31`, which builds here, against
            // `fbist sweep <c> --taus 30,31`, which builds first
            // detections: c1908 5.4 vs 8.8 MB, mid256 3.7 vs 4.4 MB,
            // s953 4.2 vs 5.8 MB, c7552 14.0 vs 69.6 MB.
            [tau] if !self.stages.is_enabled() => {
                let (triplets, matrix) = self.builder.matrix_for(
                    &*tpg,
                    &base.atpg.patterns,
                    &base.target_faults,
                    tau,
                    config.seed,
                    config.jobs,
                    config.matrix_build,
                    config.simd_width,
                );
                let initial = InitialReseeding {
                    triplets,
                    matrix,
                    target_faults: base.target_faults,
                    universe_size: base.universe_size,
                    atpg: base.atpg,
                };
                vec![self.finish(&config.clone().with_tau(tau), &initial)]
            }
            _ => {
                let tau_max = *uniq.last().expect("at least one τ");
                let (triplets_max, fdm) =
                    self.stages
                        .first_detection(&self.builder, &*tpg, &base, config, tau_max);
                mini_rayon::par_map_indexed(config.jobs, uniq.len(), |i| {
                    let tau = uniq[i];
                    // derived instead of re-simulated: same δ/θ (the RNG
                    // prologue never reads τ), same matrix (prefix
                    // property + thresholding)
                    let initial = InitialReseeding {
                        triplets: triplets_max.iter().map(|t| t.with_tau(tau)).collect(),
                        matrix: fdm.at_tau(tau),
                        target_faults: base.target_faults.clone(),
                        universe_size: base.universe_size,
                        atpg: base.atpg.clone(),
                    };
                    self.finish(&config.clone().with_tau(tau), &initial)
                })
            }
        };
        for (&tau, report) in uniq.iter().zip(&reports) {
            self.stages
                .cover_put(netlist, &config.clone().with_tau(tau), report);
        }
        reports
    }

    /// Runs reduction, solving and trimming on a prebuilt initial
    /// reseeding (lets the τ-sweep share one ATPG run and one matrix
    /// pass across its points).
    pub fn finish(&self, config: &FlowConfig, initial: &InitialReseeding) -> ReseedingReport {
        // ---- Matrix Reducer + solver (LINGO stand-in) -------------------
        let reduction = reduce(&initial.matrix, &config.solve.reducer);
        let solution = solve_with(&initial.matrix, &config.solve, &reduction);
        let dominated_rows = reduction
            .log
            .iter()
            .filter(|e| matches!(e, ReductionEvent::RowDominated { .. }))
            .count();

        // ---- order: necessary triplets first, then solver triplets ------
        let mut order: Vec<(usize, bool)> = Vec::new();
        for &r in solution.necessary() {
            order.push((r, true));
        }
        for &r in solution.solver_chosen() {
            order.push((r, false));
        }

        // ---- trimming & incremental accounting (paper §4) ---------------
        let tpg = config.tpg.build(self.builder.netlist().inputs().len());
        let fsim = self.builder.fault_simulator();
        let mut remaining_ids: Vec<fbist_fault::FaultId> =
            initial.target_faults.iter().map(|(id, _)| id).collect();
        let mut selected = Vec::with_capacity(order.len());
        let mut covered = 0usize;
        for (row, necessary) in order {
            let triplet = &initial.triplets[row];
            let ts = tpg.expand(triplet);
            let remaining = initial.target_faults.subset(&remaining_ids);
            let res = fsim.run(&ts, &remaining);
            let new_faults = res.detected_count();
            let (kept_triplet, test_length): (Triplet, usize) = if config.trim {
                let useful = res.useful_prefix_len();
                // a solver-selected triplet always adds coverage, but be
                // defensive: keep at least pattern 0
                let len = useful.max(1);
                (triplet.with_tau(len - 1), len)
            } else {
                (triplet.clone(), ts.len())
            };
            covered += new_faults;
            // drop the newly covered faults from the remaining list
            let mut next_remaining = Vec::with_capacity(remaining_ids.len() - new_faults);
            for (sub, &orig) in remaining_ids.iter().enumerate() {
                if !res.detected.get(sub) {
                    next_remaining.push(orig);
                }
            }
            remaining_ids = next_remaining;
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
            initial_triplets: initial.triplet_count(),
            target_faults: initial.target_faults.len(),
            fault_universe: initial.universe_size,
            residual: solution.residual_size(),
            reduction_iterations: solution.reduction_iterations(),
            dominated_rows,
            solution_optimal: solution.is_optimal(),
            solver_nodes: solution.solver_nodes(),
            covered_faults: covered,
            atpg_coverage: initial.atpg.coverage(),
        }
    }
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
