//! The complete ATPG engine: random phase + PODEM + compaction.
//!
//! The PODEM phase is *fault-parallel*: undetected target faults are
//! consumed in deterministic rounds of [`PODEM_ROUND`], each round's cube
//! searches fan out over the `mini-rayon` pool, and fills + fault-dropping
//! are applied serially in fault-index order. Cube generation is a pure
//! function of the fault and every don't-care fill is drawn from a
//! per-fault RNG stream derived from the master seed, so the test set,
//! drop results and [`AtpgResult`] are bit-identical at any worker count —
//! `jobs` is a pure throughput knob, pinned by `tests/atpg_equivalence.rs`.

use fbist_bits::{pack, BitVec, Trit};
use fbist_fault::{FaultId, FaultList, FaultSimulator};
use fbist_netlist::{eval_trit, GateId, GateKind, Netlist};
use fbist_sim::SimError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::miter::{ConstantVerdict, FaultMiter, CONFLICT_BUDGET};
use crate::podem::{Podem, PodemConfig, PodemOutcome};

/// Target faults PODEM'd per deterministic round — one packed simulation
/// block's worth, so a fully accepted round drops faults in a single
/// 64-lane pass. Fixed: round boundaries are part of the algorithm and
/// never depend on `jobs`.
const PODEM_ROUND: usize = 64;

/// Round targets handed to one pool task at a time, amortising one
/// reusable [`PodemSession`](crate::PodemSession) (and its O(netlist)
/// buffers) over the chunk. Fixed for the same reason as [`PODEM_ROUND`]:
/// chunking only groups work, results are position-ordered either way.
const PODEM_CHUNK: usize = 8;

/// Configuration of an [`Atpg`] run.
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// RNG seed; equal seeds give bit-identical results.
    pub seed: u64,
    /// Patterns per random batch (one packed block).
    pub random_batch: usize,
    /// Hard cap on the number of random batches.
    pub max_random_batches: usize,
    /// Stop the random phase after this many consecutive batches that
    /// detect nothing new.
    pub random_stall_batches: usize,
    /// PODEM backtrack budget per fault.
    pub backtrack_limit: usize,
    /// Run the reverse-order compaction pass.
    pub compact: bool,
    /// Worker threads for the PODEM phase (`0` = the process-wide pool
    /// default, i.e. `--jobs` / `FBIST_JOBS` / core count). A pure
    /// throughput knob: results are bit-identical at any value.
    pub jobs: usize,
    /// Let static analysis and SAT decide what PODEM cannot. On by
    /// default, it does two things:
    ///
    /// * the static untestability pre-pass (`fbist-analyze`) removes
    ///   provably untestable faults from the random phase's survivors
    ///   before PODEM targets them. Its baseline holds the nets the
    ///   random phase saw at only one value that the SAT fault miter
    ///   proves constant;
    /// * a PODEM search that reaches [`ESCALATE_AT`](crate::ESCALATE_AT)
    ///   backtracks hands its fault to the SAT fault miter
    ///   ([`FaultMiter`](crate::FaultMiter)), within
    ///   [`CONFLICT_BUDGET`](crate::CONFLICT_BUDGET) conflicts: a proof
    ///   ends the search untestable, a model ends it with the model's test
    ///   cube, and only a spent budget lets the same search continue.
    ///
    /// `false` is the pure-PODEM reference run of the differential suites
    /// and the goldens. The random phase is the same either way, but SAT
    /// cubes change the PODEM phase's patterns and so its fortuitous
    /// detections, and faults that pure PODEM aborts on end detected or
    /// untestable. Unlike `jobs`, the flag is therefore part of the `atpg`
    /// stage key.
    pub static_prepass: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0x5EED_CAFE,
            random_batch: 64,
            max_random_batches: 64,
            random_stall_batches: 3,
            backtrack_limit: 400,
            compact: true,
            jobs: 0,
            static_prepass: true,
        }
    }
}

/// Result of an ATPG run — the paper's `(ATPGTS, F)` pair plus statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgResult {
    /// The generated (compacted) test set `ATPGTS`.
    pub patterns: Vec<BitVec>,
    /// Per-fault detection flag, indexed like the target list.
    pub detected: BitVec,
    /// Faults proven untestable by PODEM.
    pub untestable: Vec<FaultId>,
    /// Faults on which PODEM exhausted its backtrack budget.
    pub aborted: Vec<FaultId>,
    /// Faults detected during the random phase.
    pub random_detected: usize,
    /// Number of PODEM-produced patterns (before compaction).
    pub podem_tests: usize,
    /// Total faults targeted.
    pub total_faults: usize,
}

impl AtpgResult {
    /// Fault coverage over the target list, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected.count_ones() as f64 / self.total_faults as f64
        }
    }

    /// Coverage over the *testable* faults (excludes proven-untestable), the
    /// figure usually quoted as "fault efficiency".
    pub fn efficiency(&self) -> f64 {
        let testable = self.total_faults - self.untestable.len();
        if testable == 0 {
            1.0
        } else {
            self.detected.count_ones() as f64 / testable as f64
        }
    }

    /// Ids of the detected faults, in target-list order. This is the
    /// paper's fault list `F`: the set the reseeding must re-cover.
    pub fn detected_ids(&self) -> Vec<FaultId> {
        (0..self.total_faults)
            .filter(|&i| self.detected.get(i))
            .map(FaultId::from_index)
            .collect()
    }
}

/// The full ATPG engine.
///
/// See the [crate-level documentation](crate) for the role it plays in the
/// reseeding flow and an end-to-end example.
#[derive(Debug)]
pub struct Atpg {
    netlist: Netlist,
    fsim: FaultSimulator,
}

impl Atpg {
    /// Builds the engine for a combinational netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] for sequential netlists and
    /// [`SimError::Netlist`] for invalid ones.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        // the fault simulator validates exactly as PODEM does (sequential,
        // then levelisation), so `run` cannot fail building its sessions
        let fsim = FaultSimulator::new(netlist)?;
        Ok(Atpg {
            netlist: netlist.clone(),
            fsim,
        })
    }

    /// The targeted netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Runs ATPG against `faults`.
    pub fn run(&self, faults: &FaultList, config: &AtpgConfig) -> AtpgResult {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let width = self.netlist.inputs().len();
        let mut detected = BitVec::zeros(faults.len());
        let mut patterns: Vec<BitVec> = Vec::new();
        let mut random_detected = 0usize;

        // Not-yet-detected faults in target-list order, maintained
        // incrementally (one ordered retain per batch/round) instead of
        // rebuilt from `detected` after every test.
        let mut remaining: Vec<FaultId> = faults.iter().map(|(id, _)| id).collect();

        // ---- Phase 1: random patterns with fault dropping -------------
        //
        // With the pre-pass on, the phase also records, per net, whether
        // its good value was seen at 0 and at 1: the constant candidates
        // of Phase 2.
        let mut seen = Seen::new(if config.static_prepass {
            self.netlist.gate_count()
        } else {
            0
        });
        let mut stall = 0usize;
        for _ in 0..config.max_random_batches {
            if remaining.is_empty() || stall >= config.random_stall_batches {
                break;
            }
            let batch: Vec<BitVec> = (0..config.random_batch)
                .map(|_| BitVec::random_with(width, &mut || rng.gen::<u64>()))
                .collect();
            if config.static_prepass {
                seen.observe(&self.fsim, &batch);
            }
            let res = self.fsim.run(&batch, &faults.subset(&remaining));
            if res.detected_count() == 0 {
                stall += 1;
                continue;
            }
            stall = 0;
            random_detected += res.detected_count();
            // keep only the patterns that first-detect something
            let mut useful: Vec<usize> = res
                .first_detection
                .iter()
                .flatten()
                .map(|&p| p as usize)
                .collect();
            useful.sort_unstable();
            useful.dedup();
            for &p in &useful {
                patterns.push(batch[p].clone());
            }
            for (sub, &orig) in remaining.iter().enumerate() {
                if res.detected.get(sub) {
                    detected.set(orig.index(), true);
                }
            }
            remaining.retain(|id| !detected.get(id.index()));
        }

        // ---- Phase 2: static untestability pre-pass on the survivors ---
        //
        // First the fault miter settles each net the random phase saw at
        // only one value: UNSAT on "the net takes the other value" proves
        // it constant. The proven constants join the pre-pass baseline,
        // where they drive implications and observability blocking.
        // Statically-proven untestable faults are recorded and removed
        // from the target list, so PODEM spends no budget on them. Running
        // the pass after the random phase proves the same faults, in the
        // same index order, as running it on the full list: a provably
        // untestable fault is detected by no pattern, so the random phase
        // never drops one.
        //
        // A fault the constants let the pass prove would otherwise have
        // reached Phase 3 and ended untestable there (or aborted, had the
        // miter's budget run out). An untestable target adds no pattern,
        // and the rounds of Phase 3 accept the same serial test sequence
        // whichever untestable faults leave the queue. So the constants
        // only move faults into this block of `untestable`.
        let miter = config
            .static_prepass
            .then(|| FaultMiter::new(&self.netlist).expect("netlist already validated"));
        let mut untestable: Vec<FaultId> = Vec::new();
        if let Some(miter) = &miter {
            let constants = if remaining.is_empty() {
                Vec::new()
            } else {
                proven_constants(&self.netlist, &self.fsim, miter, &mut seen, CONFLICT_BUDGET)
            };
            let mut proven = fbist_analyze::untestable_faults(
                &self.netlist,
                &faults.subset(&remaining),
                &constants,
            )
            .expect("netlist already validated")
            .into_iter();
            remaining.retain(|&id| {
                let untestable_here = proven.next().expect("one verdict per survivor");
                if untestable_here {
                    untestable.push(id);
                }
                !untestable_here
            });
        }

        // ---- Phase 3: fault-parallel PODEM in deterministic rounds -----
        //
        // Each round takes the next PODEM_ROUND undetected faults in index
        // order, searches their cubes in parallel (a pure function of the
        // fault), then applies fills + drops serially in index order. A
        // candidate whose target an earlier *accepted* pattern of the same
        // round already covers is discarded — exactly the fault the serial
        // loop would have skipped — so the accepted test sequence, and with
        // it every statistic, is independent of the worker count.
        let mut podem = Podem::with_config(
            &self.netlist,
            PodemConfig {
                backtrack_limit: config.backtrack_limit,
            },
        )
        .expect("netlist already validated");
        if let Some(miter) = miter {
            podem.escalate_to_sat(miter);
        }
        let mut aborted = Vec::new();
        let mut podem_tests = 0usize;
        // Faults PODEM has not yet attempted, in index order. Untestable
        // and aborted faults leave this queue but stay in `remaining`: a
        // later pattern may still cover an aborted fault fortuitously.
        let queue: Vec<FaultId> = remaining.clone();
        let mut cursor = 0usize;
        while cursor < queue.len() {
            let mut targets: Vec<FaultId> = Vec::with_capacity(PODEM_ROUND);
            while cursor < queue.len() && targets.len() < PODEM_ROUND {
                let fid = queue[cursor];
                cursor += 1;
                if !detected.get(fid.index()) {
                    targets.push(fid);
                }
            }
            if targets.is_empty() {
                break;
            }

            // Parallel part: generate a cube per target and fill it from
            // the target's own seed-derived RNG stream. Chunks reuse one
            // PODEM session each; results come back in target order.
            let n_chunks = targets.len().div_ceil(PODEM_CHUNK);
            let outcomes: Vec<RoundOutcome> =
                mini_rayon::par_map_indexed(config.jobs, n_chunks, |ci| {
                    let lo = ci * PODEM_CHUNK;
                    let hi = (lo + PODEM_CHUNK).min(targets.len());
                    let mut session = podem.session();
                    targets[lo..hi]
                        .iter()
                        .map(|&fid| match session.generate(faults.get(fid)) {
                            PodemOutcome::Test(cube) => {
                                let mut fill_rng =
                                    StdRng::seed_from_u64(fill_stream_seed(config.seed, fid));
                                RoundOutcome::Test(cube.fill_with(&mut || fill_rng.gen::<u64>()))
                            }
                            PodemOutcome::Untestable => RoundOutcome::Untestable,
                            PodemOutcome::Aborted => RoundOutcome::Aborted,
                        })
                        .collect::<Vec<RoundOutcome>>()
                })
                .into_iter()
                .flatten()
                .collect();

            // Serial part, in fault-index order. The (no-dropping) pattern
            // × target dictionary tells each apply step whether an earlier
            // accepted pattern of this round already covers its target.
            let candidates: Vec<BitVec> = outcomes
                .iter()
                .filter_map(|o| match o {
                    RoundOutcome::Test(p) => Some(p.clone()),
                    _ => None,
                })
                .collect();
            let dict = (!candidates.is_empty())
                .then(|| self.fsim.dictionary(&candidates, &faults.subset(&targets)));
            let mut row = 0usize;
            let round_start = patterns.len();
            for (j, &fid) in targets.iter().enumerate() {
                match &outcomes[j] {
                    RoundOutcome::Test(pattern) => {
                        let this_row = row;
                        row += 1;
                        if detected.get(fid.index()) {
                            continue; // covered within this round — skip
                        }
                        let dict = dict.as_ref().expect("candidate implies dictionary");
                        // a release check: the dictionary is already built,
                        // and a cube that misses its own target must never
                        // be counted as a test
                        assert!(
                            dict.get(this_row, j),
                            "test cube failed to detect its own fault {}",
                            faults.get(fid).describe(&self.netlist)
                        );
                        podem_tests += 1;
                        patterns.push(pattern.clone());
                        // credit this pattern's fortuitous detections among
                        // the round's targets so later apply steps see them
                        for (k, &other) in targets.iter().enumerate() {
                            if dict.get(this_row, k) {
                                detected.set(other.index(), true);
                            }
                        }
                    }
                    RoundOutcome::Untestable => {
                        if !detected.get(fid.index()) {
                            untestable.push(fid);
                        }
                    }
                    RoundOutcome::Aborted => {
                        if !detected.get(fid.index()) {
                            aborted.push(fid);
                        }
                    }
                }
            }

            // One batched drop pass for the whole round's accepted
            // patterns (≤ one packed 64-lane block) against everything
            // still undetected, instead of one `detects` call per test.
            if patterns.len() > round_start {
                let round = &patterns[round_start..];
                let det = self.fsim.detects(round, &faults.subset(&remaining));
                for (sub, &orig) in remaining.iter().enumerate() {
                    if det.get(sub) {
                        detected.set(orig.index(), true);
                    }
                }
            }
            remaining.retain(|id| !detected.get(id.index()));
        }

        // A fault PODEM gave up on can still be covered fortuitously by a
        // later round's pattern: report it detected, not aborted, so the
        // statistics never double-count (same for untestable, defensively
        // — a proven-redundant fault can never be detected).
        untestable.retain(|id| !detected.get(id.index()));
        aborted.retain(|id| !detected.get(id.index()));

        // ---- Phase 4: reverse-order compaction --------------------------
        if config.compact && patterns.len() > 1 {
            patterns = self.compacted_or_fallback(patterns, faults, detected.count_ones());
        }

        AtpgResult {
            patterns,
            detected,
            untestable,
            aborted,
            random_detected,
            podem_tests,
            total_faults: faults.len(),
        }
    }

    /// The non-source nets the SAT fault miter proves constant within
    /// [`CONFLICT_BUDGET`] conflicts, as `(net, value)` in net order: the
    /// proof [`Atpg::run`]'s pre-pass starts from, over every net. The
    /// all-zeros pattern and `patterns` pick the candidates, and a
    /// candidate whose check runs out of budget is left out. Patterns only
    /// save checks (a net they drive to both values needs none), so any
    /// set gives the same answer; a test set such as
    /// [`AtpgResult::patterns`] toggles most nets that are not constant.
    pub fn constant_nets(&self, patterns: &[BitVec]) -> Vec<(GateId, bool)> {
        let mut seen = Seen::new(self.netlist.gate_count());
        seen.observe(&self.fsim, &[BitVec::zeros(self.netlist.inputs().len())]);
        seen.observe(&self.fsim, patterns);
        let miter = FaultMiter::new(&self.netlist).expect("netlist already validated");
        proven_constants(
            &self.netlist,
            &self.fsim,
            &miter,
            &mut seen,
            CONFLICT_BUDGET,
        )
    }

    /// Reverse-order compaction with a real (release-mode) coverage check:
    /// keeps each pattern that first-detects some fault when the set is
    /// replayed in reverse. If the compacted set were ever to cover a
    /// different number of faults than `expected_detected`, the
    /// uncompacted set is returned instead and a warning is printed —
    /// a short test set must never ship silently.
    fn compacted_or_fallback(
        &self,
        patterns: Vec<BitVec>,
        faults: &FaultList,
        expected_detected: usize,
    ) -> Vec<BitVec> {
        let reversed: Vec<BitVec> = patterns.iter().rev().cloned().collect();
        let res = self.fsim.run(&reversed, faults);
        if res.detected.count_ones() != expected_detected {
            eprintln!(
                "fbist-atpg: compaction changed coverage ({} != {} faults); \
                 keeping the uncompacted test set",
                res.detected.count_ones(),
                expected_detected
            );
            return patterns;
        }
        let mut keep: Vec<usize> = res
            .first_detection
            .iter()
            .flatten()
            .map(|&p| p as usize)
            .collect();
        keep.sort_unstable();
        keep.dedup();
        keep.iter().map(|&p| reversed[p].clone()).collect()
    }
}

/// Per net, whether the random phase saw its good value at 0 and at 1.
struct Seen {
    zero: Vec<bool>,
    one: Vec<bool>,
    /// Good-circuit value buffer, one word per net.
    values: Vec<u64>,
}

impl Seen {
    fn new(nets: usize) -> Seen {
        Seen {
            zero: vec![false; nets],
            one: vec![false; nets],
            values: vec![0; nets],
        }
    }

    /// Records every net's good values under `patterns`: one good-circuit
    /// evaluation per 64-pattern block.
    fn observe(&mut self, fsim: &FaultSimulator, patterns: &[BitVec]) {
        let sim = fsim.good_simulator();
        for chunk in patterns.chunks(pack::BLOCK) {
            let pi_words = pack::pack_patterns(sim.input_count(), chunk);
            sim.eval_block_into(&pi_words, &mut self.values);
            let mask = pack::lane_mask(chunk.len());
            for (i, &v) in self.values.iter().enumerate() {
                self.zero[i] |= !v & mask != 0;
                self.one[i] |= v & mask != 0;
            }
        }
    }

    /// The value a net was seen at, if it was seen at exactly one.
    fn only(&self, i: usize) -> Option<bool> {
        (self.zero[i] != self.one[i]).then_some(self.one[i])
    }
}

/// The non-source nets `seen` holds at one value that are constant at
/// it, as `(net, value)` in net order. Candidates are visited in
/// topological order: one whose gate the constants found so far (and
/// `CONST` gates) already force is constant without a check, since a
/// gate of constant inputs is constant; the miter settles every other
/// one within `budget` conflicts, and a refuted or unknown candidate is
/// left out. A refutation's model is an input pattern that drives its
/// net to the other value; simulating it into `seen` drops every later
/// candidate it toggles too, so one check can refute many candidates.
/// Neither shortcut drops a constant the checks would prove; both only
/// save SAT checks (over 80 % of them on c1908, big3500 and c7552). A pure
/// function of the netlist and `seen`.
fn proven_constants(
    netlist: &Netlist,
    fsim: &FaultSimulator,
    miter: &FaultMiter,
    seen: &mut Seen,
    budget: u64,
) -> Vec<(GateId, bool)> {
    let mut known: Vec<Option<bool>> = vec![None; netlist.gate_count()];
    let mut session = miter.session();
    let mut pins = Vec::new();
    for id in netlist.levelize().expect("netlist already validated") {
        let g = netlist.gate(id);
        let i = id.index();
        match g.kind() {
            GateKind::Const0 | GateKind::Const1 => known[i] = Some(g.kind() == GateKind::Const1),
            kind if !kind.is_source() => {
                let Some(v) = seen.only(i) else { continue };
                pins.clear();
                pins.extend(
                    g.fanin()
                        .iter()
                        .map(|f| known[f.index()].map_or(Trit::X, Trit::from_bool)),
                );
                let forced = eval_trit(kind, &pins).to_bool();
                debug_assert!(
                    forced.is_none_or(|f| f == v),
                    "a constant was seen at its other value"
                );
                if forced.is_some() {
                    known[i] = Some(v);
                    continue;
                }
                match session.check_constant_with_budget(id, v, budget) {
                    ConstantVerdict::Constant => known[i] = Some(v),
                    ConstantVerdict::Toggles => {
                        seen.observe(fsim, &[session.model_cube().fill_const(false)]);
                        debug_assert!(seen.only(i).is_none(), "the model toggles its net");
                    }
                    ConstantVerdict::Unknown => {}
                }
            }
            _ => {}
        }
    }
    netlist
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .filter_map(|(id, _)| Some((id, known[id.index()]?)))
        .collect()
}

/// One target fault's round outcome: a filled candidate pattern, or the
/// search verdict.
enum RoundOutcome {
    Test(BitVec),
    Untestable,
    Aborted,
}

/// Derives the don't-care fill stream seed for one fault: a SplitMix64
/// mix of the master seed and the fault index, so every fault owns an
/// independent deterministic stream and no fill ever depends on how many
/// cubes other workers produced.
fn fill_stream_seed(seed: u64, fid: FaultId) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(fid.index() as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::{bench, embedded};

    #[test]
    fn c17_full_coverage_and_deterministic() {
        let n = embedded::c17();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let cfg = AtpgConfig::default();
        let r1 = atpg.run(&faults, &cfg);
        let r2 = atpg.run(&faults, &cfg);
        assert!((r1.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(r1.patterns, r2.patterns, "same seed, same result");
        assert!(r1.untestable.is_empty());
        assert!(r1.aborted.is_empty());
    }

    #[test]
    fn new_rejects_sequential_netlists() {
        let n = embedded::johnson3();
        assert!(!n.is_combinational());
        assert!(matches!(
            Atpg::new(&n),
            Err(SimError::SequentialNetlist { dffs: 3 })
        ));
    }

    #[test]
    fn adder_full_coverage() {
        let n = embedded::adder4();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let r = atpg.run(&faults, &AtpgConfig::default());
        assert!(
            (r.coverage() - 1.0).abs() < 1e-12,
            "coverage {}",
            r.coverage()
        );
        // the compacted set must stay well below exhaustive (512)
        assert!(r.patterns.len() < 100, "{} patterns", r.patterns.len());
    }

    #[test]
    fn compaction_preserves_coverage() {
        let n = embedded::adder4();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let mut cfg = AtpgConfig {
            compact: false,
            ..Default::default()
        };
        let full = atpg.run(&faults, &cfg);
        cfg.compact = true;
        let compacted = atpg.run(&faults, &cfg);
        assert_eq!(full.detected.count_ones(), compacted.detected.count_ones());
        assert!(compacted.patterns.len() <= full.patterns.len());
        // verify compacted patterns really cover everything claimed
        let check = atpg.fsim.detects(&compacted.patterns, &faults);
        assert_eq!(check.count_ones(), compacted.detected.count_ones());
    }

    #[test]
    fn redundancy_is_reported() {
        let src =
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nna = NOT(a)\ny = OR(a, na)\nz = AND(a, b)\n";
        let n = bench::parse(src).unwrap();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::full(&n);
        let r = atpg.run(&faults, &AtpgConfig::default());
        assert!(!r.untestable.is_empty());
        assert!(r.coverage() < 1.0);
        assert!(
            (r.efficiency() - 1.0).abs() < 1e-12,
            "all testable faults found"
        );
    }

    #[test]
    fn podem_only_run_works() {
        let n = embedded::c17();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let cfg = AtpgConfig {
            max_random_batches: 0,
            ..AtpgConfig::default()
        };
        let r = atpg.run(&faults, &cfg);
        assert!((r.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(r.random_detected, 0);
        assert!(r.podem_tests > 0);
    }

    #[test]
    fn jobs_is_a_pure_throughput_knob() {
        // bit-identical AtpgResult at any worker count (the full-profile
        // sweep lives in tests/atpg_equivalence.rs)
        let n = embedded::adder4();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let run = |jobs| {
            atpg.run(
                &faults,
                &AtpgConfig {
                    jobs,
                    ..AtpgConfig::default()
                },
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(3));
    }

    #[test]
    fn only_proven_constants_reach_the_prepass() {
        // under the all-zeros pattern every net but e is seen at 0 only;
        // of the candidates w, z and d only d = XOR(w, z) of the twin
        // XORs is constant, and e = NOT(d) is then forced. At a
        // one-conflict budget d's check answers Unknown, which must leave
        // both out
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(e)\n\
                   w = XOR(b, a)\nz = XOR(a, b)\nd = XOR(w, z)\ne = NOT(d)\n";
        let n = bench::parse(src).unwrap();
        let atpg = Atpg::new(&n).unwrap();
        let miter = FaultMiter::new(&n).unwrap();
        let d = n.find("d").unwrap();
        let e = n.find("e").unwrap();
        let prove = |budget| {
            let mut seen = Seen::new(n.gate_count());
            seen.observe(&atpg.fsim, &[BitVec::zeros(2)]);
            proven_constants(&n, &atpg.fsim, &miter, &mut seen, budget)
        };
        assert_eq!(prove(CONFLICT_BUDGET), vec![(d, false), (e, true)]);
        assert_eq!(prove(1), vec![]);
    }

    #[test]
    fn compaction_falls_back_when_coverage_would_change() {
        // the release-mode guard: handed an expected coverage the
        // compacted set cannot reach, the engine must keep the
        // uncompacted patterns instead of shipping a short set
        let n = embedded::adder4();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let r = atpg.run(
            &faults,
            &AtpgConfig {
                compact: false,
                ..AtpgConfig::default()
            },
        );
        let impossible = r.detected.count_ones() + 1;
        let kept = atpg.compacted_or_fallback(r.patterns.clone(), &faults, impossible);
        assert_eq!(kept, r.patterns, "mismatch must return the input set");
        // and with the true coverage the pass compacts as usual
        let compacted =
            atpg.compacted_or_fallback(r.patterns.clone(), &faults, r.detected.count_ones());
        assert!(compacted.len() <= r.patterns.len());
        let check = atpg.fsim.detects(&compacted, &faults);
        assert_eq!(check.count_ones(), r.detected.count_ones());
    }

    #[test]
    fn aborted_and_untestable_never_overlap_detected() {
        // a zero backtrack budget aborts on the redundant reconvergent
        // fault; any abort that a later pattern covers fortuitously must
        // be reported as detected, never double-counted in both lists
        let src =
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nna = NOT(a)\nx = AND(a, b)\ny = AND(x, na)\nz = OR(a, b)\n";
        let n = bench::parse(src).unwrap();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::full(&n);
        let r = atpg.run(
            &faults,
            &AtpgConfig {
                backtrack_limit: 0,
                max_random_batches: 0,
                ..AtpgConfig::default()
            },
        );
        assert!(!r.aborted.is_empty(), "budget 0 must abort something");
        for id in r.aborted.iter().chain(&r.untestable) {
            assert!(
                !r.detected.get(id.index()),
                "fault {} reported given-up *and* detected",
                id.index()
            );
        }
    }

    /// The contract between a SAT-completed run (`on`) and the pure-PODEM
    /// reference (`off`) of the same faults: an identical random phase,
    /// detected/untestable/aborted disjoint and covering every fault in
    /// both, sound classifications across the runs, and the SAT run never
    /// worse.
    fn assert_sat_contract(off: &AtpgResult, on: &AtpgResult) {
        assert_eq!(off.random_detected, on.random_detected);
        for r in [off, on] {
            let mut seen = vec![0u8; r.total_faults];
            for id in r.untestable.iter().chain(&r.aborted) {
                seen[id.index()] += 1;
            }
            for (i, &k) in seen.iter().enumerate() {
                assert_eq!(
                    k + r.detected.get(i) as u8,
                    1,
                    "fault {i} classified {k} times"
                );
            }
        }
        for id in &off.untestable {
            assert!(
                on.untestable.contains(id),
                "fault {} lost its proof",
                id.index()
            );
        }
        for id in &on.untestable {
            assert!(
                !off.detected.get(id.index()),
                "fault {} proven yet detected",
                id.index()
            );
        }
        for id in &on.aborted {
            assert!(
                off.aborted.contains(id),
                "fault {} aborts only with SAT",
                id.index()
            );
        }
        assert!(on.coverage() >= off.coverage());
    }

    #[test]
    fn static_prepass_keeps_the_sat_contract() {
        // Prepass on vs off on a circuit with one redundancy: the contract
        // holds, both runs prove the same faults, and every statically
        // pruned fault is reported untestable.
        let src =
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nna = NOT(a)\ny = OR(a, na)\nz = AND(a, b)\n";
        let n = bench::parse(src).unwrap();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::full(&n);
        let off = atpg.run(
            &faults,
            &AtpgConfig {
                static_prepass: false,
                ..AtpgConfig::default()
            },
        );
        let on = atpg.run(&faults, &AtpgConfig::default());
        assert_sat_contract(&off, &on);
        assert_eq!(off.detected, on.detected);
        // same untestable faults as a set (order may differ)
        let mut a = off.untestable.clone();
        let mut b = on.untestable.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(!on.untestable.is_empty());
        // every statically pruned fault is reported untestable
        let mask = fbist_analyze::untestable_faults(&n, &faults, &[]).unwrap();
        for (id, _) in faults.iter() {
            if mask[id.index()] {
                assert!(on.untestable.contains(&id));
                assert!(!on.detected.get(id.index()));
            }
        }
    }

    #[test]
    fn static_prepass_upgrades_aborts_to_untestable() {
        // With a zero backtrack budget PODEM aborts on the redundant
        // fault; the prepass settles it statically instead.
        let src =
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nna = NOT(a)\nx = AND(a, b)\ny = AND(x, na)\nz = OR(a, b)\n";
        let n = bench::parse(src).unwrap();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::full(&n);
        let cfg = AtpgConfig {
            backtrack_limit: 0,
            max_random_batches: 0,
            static_prepass: false,
            ..AtpgConfig::default()
        };
        let off = atpg.run(&faults, &cfg);
        let on = atpg.run(
            &faults,
            &AtpgConfig {
                static_prepass: true,
                ..cfg
            },
        );
        assert_eq!(off.detected, on.detected);
        assert!(
            on.aborted.len() < off.aborted.len(),
            "prepass must shrink the aborted list ({} vs {})",
            on.aborted.len(),
            off.aborted.len()
        );
        assert!(on.untestable.len() > off.untestable.len());
    }

    #[test]
    fn sat_completion_settles_aborts_the_prepass_cannot() {
        // the static pre-pass alone leaves faults for PODEM to abort on;
        // with the pre-pass on, the SAT miter settles them at their first
        // backtrack, proving some beyond the static pre-pass and testing
        // the rest
        let profile = fbist_genbench::profile("c1908").unwrap().scaled(0.25);
        let n = fbist_genbench::generate(&profile, 1);
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let run = |static_prepass| {
            atpg.run(
                &faults,
                &AtpgConfig {
                    backtrack_limit: 100,
                    static_prepass,
                    ..AtpgConfig::default()
                },
            )
        };
        let (off, on) = (run(false), run(true));
        assert_sat_contract(&off, &on);
        assert!(!off.aborted.is_empty() && on.aborted.is_empty());
        let mask = fbist_analyze::untestable_faults(&n, &faults, &[]).unwrap();
        assert!(
            on.untestable.iter().any(|id| !mask[id.index()]),
            "no fault proven beyond the static pre-pass"
        );
    }

    #[test]
    fn detected_ids_match_flags() {
        let n = embedded::c17();
        let atpg = Atpg::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let r = atpg.run(&faults, &AtpgConfig::default());
        let ids = r.detected_ids();
        assert_eq!(ids.len(), r.detected.count_ones());
        for id in ids {
            assert!(r.detected.get(id.index()));
        }
    }
}
