//! The keyed stage DAG: `netlist → atpg_base → first_detection → cover`.
//!
//! Every expensive step of the flow is a *stage*: a pure function of the
//! circuit and a canonicalised [`FlowConfig`] fragment containing exactly
//! the knobs its output depends on. [`StageCache`] fronts each stage with
//! the content-addressed [`ArtifactStore`]: check the store under the
//! stage's key, compute on a miss, write back. With no store attached
//! every stage degrades to the plain computation — bit for bit the same
//! results, the cache only ever short-circuits work whose output is
//! already known.
//!
//! # What is in a key — and what deliberately is not
//!
//! | stage | keyed on |
//! |-------|----------|
//! | `atpg` | circuit, ATPG settings (seed, batches, backtrack limit, compaction, static pre-pass and, with it, the SAT escalation constants and a proven-constants marker) |
//! | `first-detection` | `atpg` inputs + TPG kind + flow seed (**not** τ — see below) |
//! | `cover` | `first-detection` inputs + τ + solver settings + trim |
//!
//! Pure throughput knobs — `jobs`, both the flow-level count and
//! [`AtpgConfig::jobs`], which gates the fault-parallel PODEM rounds —
//! are **excluded** from every key: the workspace pins them
//! bit-identical (the `parallel_equivalence` and `atpg_equivalence`
//! suites), so an artifact computed under any of them answers all of
//! them. That exclusion is what makes a store warmed by a 4-job run
//! answer a 1-job query byte-identically — asserted by
//! `tests/store_equivalence.rs` and the key-invariance tests below. The
//! SIMD block width is no knob at all: the fault simulator picks it
//! ([`fbist_bits::simd::width_for`]).
//!
//! The first-detection artifact is not keyed on τ because it *saturates*
//! instead: one pass at `τ_max` determines every `τ ≤ τ_max` matrix by
//! thresholding ([`FirstDetectionMatrix::at_tau`]). The artifact records
//! the `τ_max` it was simulated at; a request at or below it is a hit, a
//! request above it recomputes at the larger τ and overwrites, so the
//! artifact only ever grows.
//!
//! Invalidation is purely structural: changing a keyed input changes the
//! key, so stale artifacts are never *read* — they are orphaned on disk
//! (delete the store directory to reclaim the space).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use fbist_atpg::AtpgConfig;
use fbist_netlist::Netlist;
use fbist_setcover::{Engine, FirstDetectionMatrix, SolveConfig};
use fbist_store::{
    encode_to_vec, Artifact, ArtifactStore, DecodeError, Digest, DigestBytes, Reader, StageKey,
    Writer,
};
use fbist_tpg::{PatternGenerator, Triplet};

use crate::builder::{derive_triplets, AtpgBase, InitialReseedingBuilder};
use crate::config::FlowConfig;
use crate::report::{ReseedingReport, SelectedTriplet};

// ---------------------------------------------------------------------------
// canonical config fragments → stage keys
// ---------------------------------------------------------------------------

/// Content digest of a netlist — the root of every stage key.
pub fn circuit_digest(netlist: &Netlist) -> DigestBytes {
    let mut d = Digest::new("fbist/netlist");
    d.bytes(&encode_to_vec(netlist));
    d.finish()
}

/// Hashes the ATPG-relevant fragment: every [`AtpgConfig`] field *except*
/// `jobs`. The run is a pure function of (circuit, these fields);
/// `AtpgConfig::jobs` only sizes the PODEM worker pool and is pinned
/// bit-identical by `tests/atpg_equivalence.rs`, so it joins the excluded
/// throughput-knob set — an artifact computed at any worker count answers
/// every worker count.
fn hash_atpg_fragment(d: &mut Digest, atpg: &AtpgConfig) {
    d.u64(atpg.seed);
    d.usize(atpg.random_batch);
    d.usize(atpg.max_random_batches);
    d.usize(atpg.random_stall_batches);
    d.usize(atpg.backtrack_limit);
    // where a fill mode was once hashed: cubes are always filled from
    // the fault's own RNG stream, and the constant keeps existing keys
    d.u8(0);
    d.bool(atpg.compact);
    // static_prepass IS keyed, unlike the throughput knobs: it turns on
    // the untestability pre-pass and SAT completion, which reclassify
    // faults and change the PODEM phase's patterns, so runs that differ
    // in it are not interchangeable artifacts.
    d.bool(atpg.static_prepass);
    // SAT completion's threshold and conflict budget decide which
    // searches the miter settles, and with what tests
    if atpg.static_prepass {
        d.usize(fbist_atpg::ESCALATE_AT);
        d.u64(fbist_atpg::CONFLICT_BUDGET);
        // the pre-pass starts from the SAT-proven constant nets, which
        // reorders the untestable list
        d.str("proven-constants");
    }
}

/// The knobs deliberately **excluded** from every stage key, by config
/// path, with the equivalence suite that pins each one bit-identical.
/// `xtask lint` greps this manifest and cross-checks it against the
/// suites under `tests/`, so the exclusion list cannot silently drift:
/// adding an unkeyed knob without a pinning suite (or deleting a suite
/// that a listed knob relies on) fails CI.
pub const THROUGHPUT_KNOBS: &[(&str, &str)] = &[
    ("jobs", "parallel_equivalence"),
    ("atpg.jobs", "atpg_equivalence"),
    ("solve.engine.jobs", "parallel_equivalence"),
];

/// Hashes the solver-relevant fragment of [`SolveConfig`]: reductions,
/// engine (with the local-search parameters that shape the cover —
/// everything except its `jobs`), and the exact-node budget.
fn hash_solve_fragment(d: &mut Digest, solve: &SolveConfig) {
    d.bool(solve.reducer.essentiality);
    d.bool(solve.reducer.row_dominance);
    d.bool(solve.reducer.col_dominance);
    match solve.engine {
        Engine::Exact => d.u8(0),
        Engine::Greedy => d.u8(1),
        Engine::LocalSearch(ls) => {
            d.u8(2);
            d.usize(ls.iterations);
            d.usize(ls.ruin_size);
            d.f64_bits(ls.temperature);
            d.f64_bits(ls.cooling);
            d.u64(ls.seed);
            d.usize(ls.restarts);
            // ls.jobs deliberately not hashed: restart evaluation order
            // is pinned independent of the worker count
        }
    }
    d.u64(solve.exact.node_limit);
}

fn atpg_key_from(circuit: DigestBytes, config: &FlowConfig) -> StageKey {
    let mut d = Digest::new("fbist/stage/atpg");
    d.bytes(&circuit.0);
    hash_atpg_fragment(&mut d, &config.atpg);
    StageKey::new("atpg", d.finish())
}

fn first_detection_key_from(circuit: DigestBytes, config: &FlowConfig) -> StageKey {
    let mut d = Digest::new("fbist/stage/first-detection");
    d.bytes(&circuit.0);
    hash_atpg_fragment(&mut d, &config.atpg);
    d.str(config.tpg.name());
    d.u64(config.seed);
    // NOT τ: the artifact saturates over τ (module docs)
    StageKey::new("first-detection", d.finish())
}

pub(crate) fn cover_key_from(circuit: DigestBytes, config: &FlowConfig) -> StageKey {
    let mut d = Digest::new("fbist/stage/cover");
    d.bytes(&circuit.0);
    hash_atpg_fragment(&mut d, &config.atpg);
    d.str(config.tpg.name());
    d.u64(config.seed);
    d.usize(config.tau);
    hash_solve_fragment(&mut d, &config.solve);
    d.bool(config.trim);
    StageKey::new("cover", d.finish())
}

/// The `atpg` stage key for a circuit and configuration. Keyed on the
/// circuit content and the ATPG settings alone.
pub fn atpg_stage_key(netlist: &Netlist, config: &FlowConfig) -> StageKey {
    atpg_key_from(circuit_digest(netlist), config)
}

/// The `first-detection` stage key: the `atpg` inputs plus TPG kind and
/// flow seed. τ is *not* keyed — the stored artifact covers every τ up
/// to its recorded `τ_max` by thresholding.
pub fn first_detection_stage_key(netlist: &Netlist, config: &FlowConfig) -> StageKey {
    first_detection_key_from(circuit_digest(netlist), config)
}

/// The `cover` stage key: everything the final report depends on —
/// circuit, ATPG fragment, TPG, seed, τ, solver fragment, trim.
pub fn cover_stage_key(netlist: &Netlist, config: &FlowConfig) -> StageKey {
    cover_key_from(circuit_digest(netlist), config)
}

/// Canonical digest of a whole sweep request: the cover fragment minus τ
/// plus the *sorted, deduplicated* τ list — invariant under τ order and
/// duplicates, exactly like the sweep's own semantics ([`tradeoff_sweep`]
/// dedupes and shares points). `fbist serve` uses this to coalesce
/// identical in-flight requests.
///
/// [`tradeoff_sweep`]: crate::tradeoff_sweep
pub fn sweep_request_digest(netlist: &Netlist, config: &FlowConfig, taus: &[usize]) -> DigestBytes {
    sweep_digest_from(circuit_digest(netlist), config, taus)
}

pub(crate) fn sweep_digest_from(
    circuit: DigestBytes,
    config: &FlowConfig,
    taus: &[usize],
) -> DigestBytes {
    let mut uniq: Vec<usize> = taus.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let mut d = Digest::new("fbist/request/sweep");
    d.bytes(&circuit.0);
    hash_atpg_fragment(&mut d, &config.atpg);
    d.str(config.tpg.name());
    d.u64(config.seed);
    hash_solve_fragment(&mut d, &config.solve);
    d.bool(config.trim);
    d.u64_slice(&uniq.iter().map(|&t| t as u64).collect::<Vec<u64>>());
    d.finish()
}

// ---------------------------------------------------------------------------
// artifacts owned by this crate
// ---------------------------------------------------------------------------

impl Artifact for AtpgBase {
    const KIND: &'static str = "atpg";

    fn encode(&self, w: &mut Writer) {
        self.atpg.encode(w);
        self.target_faults.encode(w);
        w.usize(self.universe_size);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let atpg = fbist_atpg::AtpgResult::decode(r)?;
        let target_faults = fbist_fault::FaultList::decode(r)?;
        let universe_size = r.usize()?;
        if target_faults.len() > universe_size {
            return Err(DecodeError::Invalid(format!(
                "{} target faults exceed the universe of {universe_size}",
                target_faults.len()
            )));
        }
        Ok(AtpgBase {
            atpg,
            target_faults,
            universe_size,
        })
    }
}

/// The stored `first-detection` artifact: the matrix plus the `τ_max` it
/// was simulated at, which bounds the τ range it can answer exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedFirstDetection {
    /// Evolution length the recorded pass simulated to.
    pub tau_max: usize,
    /// First-detection indices for every `(triplet, fault)` pair
    /// observed within `τ_max`.
    pub matrix: FirstDetectionMatrix,
}

impl Artifact for CachedFirstDetection {
    const KIND: &'static str = "first-detection";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.tau_max);
        self.matrix.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tau_max = r.usize()?;
        let matrix = FirstDetectionMatrix::decode(r)?;
        Ok(CachedFirstDetection { tau_max, matrix })
    }
}

impl Artifact for SelectedTriplet {
    const KIND: &'static str = "selected-triplet";

    fn encode(&self, w: &mut Writer) {
        self.triplet.encode(w);
        w.bool(self.necessary);
        w.usize(self.new_faults);
        w.usize(self.test_length);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SelectedTriplet {
            triplet: Triplet::decode(r)?,
            necessary: r.bool()?,
            new_faults: r.usize()?,
            test_length: r.usize()?,
        })
    }
}

impl Artifact for ReseedingReport {
    const KIND: &'static str = "cover";

    fn encode(&self, w: &mut Writer) {
        w.str(&self.circuit);
        w.str(&self.tpg);
        w.usize(self.tau);
        w.usize(self.selected.len());
        for s in &self.selected {
            s.encode(w);
        }
        w.usize(self.initial_triplets);
        w.usize(self.target_faults);
        w.usize(self.fault_universe);
        w.usize(self.residual.0);
        w.usize(self.residual.1);
        w.usize(self.reduction_iterations);
        w.usize(self.dominated_rows);
        w.bool(self.solution_optimal);
        w.u64(self.solver_nodes);
        w.usize(self.covered_faults);
        w.f64_bits(self.atpg_coverage);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let circuit = r.str()?;
        let tpg = r.str()?;
        let tau = r.usize()?;
        let n = r.usize()?;
        let mut selected = Vec::with_capacity(n.min(r.remaining() / 8));
        for _ in 0..n {
            selected.push(SelectedTriplet::decode(r)?);
        }
        Ok(ReseedingReport {
            circuit,
            tpg,
            tau,
            selected,
            initial_triplets: r.usize()?,
            target_faults: r.usize()?,
            fault_universe: r.usize()?,
            residual: (r.usize()?, r.usize()?),
            reduction_iterations: r.usize()?,
            dominated_rows: r.usize()?,
            solution_optimal: r.bool()?,
            solver_nodes: r.u64()?,
            covered_faults: r.usize()?,
            atpg_coverage: r.f64_bits()?,
        })
    }
}

// ---------------------------------------------------------------------------
// the stage cache
// ---------------------------------------------------------------------------

/// Hit/miss counters per cached stage, plus the observable efficiency
/// numbers `fbist serve` reports per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageStats {
    /// `atpg` stage store hits.
    pub atpg_hits: u64,
    /// `atpg` stage computations (store misses or store disabled).
    pub atpg_misses: u64,
    /// `first-detection` stage store hits (recorded `τ_max` sufficed).
    pub first_detection_hits: u64,
    /// `first-detection` stage computations.
    pub first_detection_misses: u64,
    /// `cover` stage store hits.
    pub cover_hits: u64,
    /// `cover` stage computations.
    pub cover_misses: u64,
}

impl StageStats {
    /// `true` if no stage ever computed — everything was answered from
    /// the store.
    pub fn fully_warm(&self) -> bool {
        self.atpg_misses == 0 && self.first_detection_misses == 0 && self.cover_misses == 0
    }

    /// Counter-wise difference against an earlier snapshot (for
    /// per-request deltas).
    #[must_use]
    pub fn since(&self, earlier: &StageStats) -> StageStats {
        StageStats {
            atpg_hits: self.atpg_hits - earlier.atpg_hits,
            atpg_misses: self.atpg_misses - earlier.atpg_misses,
            first_detection_hits: self.first_detection_hits - earlier.first_detection_hits,
            first_detection_misses: self.first_detection_misses - earlier.first_detection_misses,
            cover_hits: self.cover_hits - earlier.cover_hits,
            cover_misses: self.cover_misses - earlier.cover_misses,
        }
    }
}

/// The flow's gateway to the artifact store: one object through which
/// `flow.rs`, `builder.rs` and `sweep.rs` resolve every stage, instead
/// of threading ad-hoc intermediates.
///
/// A disabled cache (no store attached, [`StageCache::disabled`])
/// computes everything inline and counts misses only — the flow behaves
/// exactly as if the cache did not exist.
#[derive(Debug, Default)]
pub struct StageCache {
    store: Option<ArtifactStore>,
    /// The bound netlist's content digest, computed once on first use —
    /// every key derives from it.
    circuit: OnceLock<DigestBytes>,
    atpg_hits: AtomicU64,
    atpg_misses: AtomicU64,
    fd_hits: AtomicU64,
    fd_misses: AtomicU64,
    cover_hits: AtomicU64,
    cover_misses: AtomicU64,
}

impl StageCache {
    /// A cache with no store: every stage computes, nothing persists.
    pub fn disabled() -> StageCache {
        StageCache::default()
    }

    /// A cache backed by a store.
    pub fn with_store(store: ArtifactStore) -> StageCache {
        StageCache {
            store: Some(store),
            ..StageCache::default()
        }
    }

    /// `true` when a store is attached.
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StageStats {
        StageStats {
            atpg_hits: self.atpg_hits.load(Ordering::Relaxed),
            atpg_misses: self.atpg_misses.load(Ordering::Relaxed),
            first_detection_hits: self.fd_hits.load(Ordering::Relaxed),
            first_detection_misses: self.fd_misses.load(Ordering::Relaxed),
            cover_hits: self.cover_hits.load(Ordering::Relaxed),
            cover_misses: self.cover_misses.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn circuit(&self, netlist: &Netlist) -> DigestBytes {
        *self.circuit.get_or_init(|| circuit_digest(netlist))
    }

    /// Resolves the `atpg` stage: store hit or
    /// [`InitialReseedingBuilder::atpg_base`] + write-back.
    pub fn atpg_base(&self, builder: &InitialReseedingBuilder, config: &FlowConfig) -> AtpgBase {
        let Some(store) = &self.store else {
            self.atpg_misses.fetch_add(1, Ordering::Relaxed);
            return builder.atpg_base(config);
        };
        let key = atpg_key_from(self.circuit(builder.netlist()), config);
        if let Some(base) = store.get::<AtpgBase>(key) {
            self.atpg_hits.fetch_add(1, Ordering::Relaxed);
            return base;
        }
        self.atpg_misses.fetch_add(1, Ordering::Relaxed);
        let base = builder.atpg_base(config);
        store.put(key, &base);
        base
    }

    /// Resolves the `first-detection` stage at `tau_max`: a stored
    /// artifact whose recorded `τ_max` is `≥ tau_max` is a hit (its
    /// thresholded matrices are exact for every requested τ); anything
    /// less recomputes at `tau_max` and overwrites, so the artifact only
    /// grows. The returned triplets are derived at `tau_max` from the
    /// serial RNG prologue — never simulated, so a hit costs zero
    /// simulation passes.
    pub fn first_detection(
        &self,
        builder: &InitialReseedingBuilder,
        tpg: &dyn PatternGenerator,
        base: &AtpgBase,
        config: &FlowConfig,
        tau_max: usize,
    ) -> (Vec<Triplet>, FirstDetectionMatrix) {
        let stored = self.store.as_ref().map(|store| {
            let key = first_detection_key_from(self.circuit(builder.netlist()), config);
            (store, key)
        });
        if let Some((store, key)) = stored {
            let hit = store.get::<CachedFirstDetection>(key).filter(|cached| {
                cached.tau_max >= tau_max
                    && cached.matrix.rows() == base.atpg.patterns.len()
                    && cached.matrix.cols() == base.target_faults.len()
            });
            if let Some(cached) = hit {
                self.fd_hits.fetch_add(1, Ordering::Relaxed);
                let triplets = derive_triplets(tpg, &base.atpg.patterns, tau_max, config.seed);
                return (triplets, cached.matrix);
            }
        }
        self.fd_misses.fetch_add(1, Ordering::Relaxed);
        let (triplets, matrix) = builder.first_detection_matrix_for(
            tpg,
            &base.atpg.patterns,
            &base.target_faults,
            tau_max,
            config.seed,
            config.jobs,
            config.matrix_build,
            config.simd_width,
        );
        if let Some((store, key)) = stored {
            store.put(
                key,
                &CachedFirstDetection {
                    tau_max,
                    matrix: matrix.clone(),
                },
            );
        }
        (triplets, matrix)
    }

    /// Looks up the `cover` stage for `config` (the configured τ is part
    /// of the key). `None` means compute — and then
    /// [`cover_put`](Self::cover_put).
    pub fn cover_get(&self, netlist: &Netlist, config: &FlowConfig) -> Option<ReseedingReport> {
        let Some(store) = &self.store else {
            return None;
        };
        let key = cover_key_from(self.circuit(netlist), config);
        match store.get::<ReseedingReport>(key) {
            Some(report) => {
                self.cover_hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => None,
        }
    }

    /// Records a computed cover. Counts the miss (pair it with a failed
    /// [`cover_get`](Self::cover_get)).
    pub fn cover_put(&self, netlist: &Netlist, config: &FlowConfig, report: &ReseedingReport) {
        self.cover_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(store) = &self.store {
            let key = cover_key_from(self.circuit(netlist), config);
            store.put(key, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpgKind;
    use fbist_netlist::embedded;

    fn cfg() -> FlowConfig {
        FlowConfig::new(TpgKind::Adder).with_tau(7)
    }

    /// Every key for every stage, in one place, for invariance sweeps.
    fn all_keys(netlist: &Netlist, config: &FlowConfig) -> Vec<StageKey> {
        vec![
            atpg_stage_key(netlist, config),
            first_detection_stage_key(netlist, config),
            cover_stage_key(netlist, config),
        ]
    }

    #[test]
    fn throughput_knobs_never_change_any_stage_key() {
        // jobs is pinned bit-identical by the equivalence suites, so no
        // stage key may depend on it — otherwise a warm store would go
        // cold when a user merely changes the worker count
        let n = embedded::c17();
        let base_keys = all_keys(&n, &cfg());
        assert_eq!(all_keys(&n, &cfg().with_jobs(7)), base_keys, "jobs leaked");
        // the ATPG engine's own worker count is a throughput knob too
        // (fault-parallel PODEM rounds, pinned by atpg_equivalence)
        let mut atpg_jobs = cfg();
        atpg_jobs.atpg.jobs = 5;
        assert_eq!(all_keys(&n, &atpg_jobs), base_keys, "atpg.jobs leaked");
        // local-search jobs are a throughput knob too
        let mut ls = cfg();
        ls.solve.engine = Engine::LocalSearch(fbist_setcover::LocalSearchConfig {
            jobs: 9,
            ..Default::default()
        });
        let mut ls_serial = ls.clone();
        ls_serial.solve.engine = Engine::LocalSearch(fbist_setcover::LocalSearchConfig {
            jobs: 1,
            ..Default::default()
        });
        assert_eq!(all_keys(&n, &ls), all_keys(&n, &ls_serial));
    }

    #[test]
    fn semantic_knobs_change_the_keys_they_feed() {
        let n = embedded::c17();
        let base = cfg();
        // seed feeds every stage (with_seed also reseeds ATPG)
        for key_fn in [atpg_stage_key, first_detection_stage_key, cover_stage_key] {
            assert_ne!(
                key_fn(&n, &base.clone().with_seed(1)),
                key_fn(&n, &base),
                "seed must change every stage key"
            );
        }
        // τ feeds only the cover stage
        let retau = base.clone().with_tau(15);
        assert_eq!(atpg_stage_key(&n, &retau), atpg_stage_key(&n, &base));
        assert_eq!(
            first_detection_stage_key(&n, &retau),
            first_detection_stage_key(&n, &base)
        );
        assert_ne!(cover_stage_key(&n, &retau), cover_stage_key(&n, &base));
        // the TPG feeds first-detection and cover, not ATPG
        let lfsr = FlowConfig::new(TpgKind::Lfsr).with_tau(7);
        assert_eq!(atpg_stage_key(&n, &lfsr), atpg_stage_key(&n, &base));
        assert_ne!(
            first_detection_stage_key(&n, &lfsr),
            first_detection_stage_key(&n, &base)
        );
        assert_ne!(cover_stage_key(&n, &lfsr), cover_stage_key(&n, &base));
        // trim and the solver engine feed only the cover
        let untrimmed = base.clone().with_trim(false);
        assert_eq!(atpg_stage_key(&n, &untrimmed), atpg_stage_key(&n, &base));
        assert_ne!(cover_stage_key(&n, &untrimmed), cover_stage_key(&n, &base));
        let mut greedy = base.clone();
        greedy.solve.engine = Engine::Greedy;
        assert_ne!(cover_stage_key(&n, &greedy), cover_stage_key(&n, &base));
        // static_prepass changes the ATPG fault classification, so it
        // feeds every stage downstream of atpg — it is NOT a throughput
        // knob even though coverage over detected faults is unchanged
        let mut unpruned = base.clone();
        unpruned.atpg.static_prepass = false;
        for key_fn in [atpg_stage_key, first_detection_stage_key, cover_stage_key] {
            assert_ne!(
                key_fn(&n, &unpruned),
                key_fn(&n, &base),
                "static_prepass must change every stage key"
            );
        }
        assert_ne!(
            sweep_request_digest(&n, &unpruned, &[0, 7]),
            sweep_request_digest(&n, &base, &[0, 7])
        );
        // the circuit feeds everything
        let other = embedded::majority();
        for key_fn in [atpg_stage_key, first_detection_stage_key, cover_stage_key] {
            assert_ne!(key_fn(&other, &base), key_fn(&n, &base));
        }
    }

    #[test]
    fn c17_default_atpg_key_is_pinned() {
        // The `atpg` artifact of a config is only reusable while the run
        // it caches is unchanged. A change to what ATPG computes for the
        // same config (here: SAT-proven constants in the pre-pass, which
        // reorder the untestable list) must move this key, and re-pinning
        // it is the deliberate bump.
        let key = atpg_stage_key(&embedded::c17(), &FlowConfig::new(TpgKind::Adder));
        assert_eq!(key.digest.to_hex(), "95c723cd2c1aeb10719304ebbe0585c1");
    }

    #[test]
    fn sweep_digest_is_invariant_under_tau_order_and_duplicates() {
        let n = embedded::c17();
        let base = cfg();
        let canonical = sweep_request_digest(&n, &base, &[0, 3, 15]);
        for taus in [vec![15, 3, 0], vec![0, 3, 15, 15, 3], vec![3, 3, 0, 15, 0]] {
            assert_eq!(
                sweep_request_digest(&n, &base, &taus),
                canonical,
                "taus: {taus:?}"
            );
        }
        assert_ne!(sweep_request_digest(&n, &base, &[0, 3]), canonical);
        assert_eq!(
            sweep_request_digest(&n, &base.clone().with_jobs(4), &[0, 3, 15]),
            canonical,
            "jobs must NOT change the digest"
        );
    }

    #[test]
    fn sweep_digest_ignores_throughput_knobs() {
        let n = embedded::c17();
        let base = cfg();
        let canonical = sweep_request_digest(&n, &base, &[0, 7]);
        assert_eq!(
            sweep_request_digest(&n, &base.with_jobs(3), &[0, 7]),
            canonical
        );
    }

    #[test]
    fn disabled_cache_counts_misses_and_computes() {
        let n = embedded::c17();
        let builder = InitialReseedingBuilder::new(&n).unwrap();
        let cache = StageCache::disabled();
        assert!(!cache.is_enabled());
        let config = cfg();
        let base = cache.atpg_base(&builder, &config);
        assert!(!base.target_faults.is_empty());
        assert_eq!(cache.stats().atpg_misses, 1);
        assert_eq!(cache.stats().atpg_hits, 0);
        assert!(cache.cover_get(&n, &config).is_none());
        assert!(!cache.stats().fully_warm());
    }
}
