//! Bit-parallel stuck-at fault simulation by fanout-free region.
//!
//! A *fanout-free region* (FFR) is a tree of gates whose every member but
//! the root drives exactly one gate pin and no primary output; its root is
//! a fanout stem, a primary output, or a gate that drives nothing. A
//! single stuck-at fault inside a region can leave the region only through
//! its root, along the one path from the faulty gate up the tree. So per
//! block of patterns the simulator evaluates the good circuit once and
//! then, for each fault, ANDs three lane masks (critical-path tracing,
//! Abramovici, Menon and Miller, DAC 1983, applied to bit-parallel words
//! as in HOPE, Lee and Ha, IEEE TCAD 1996):
//!
//! * **excitation** — the lanes where the fault changes its gate's output
//!   (for a pin fault this already includes the pin's sensitization
//!   through its own gate);
//! * **path sensitization** — the lanes where every gate on the tree path
//!   to the region root passes a flip of that pin through: the other pins
//!   of an AND/NAND are 1, of an OR/NOR are 0 (XOR, XNOR, NOT and BUFF
//!   always pass). Memoised per gate per block, so a region's paths are
//!   traced once however many faults share them;
//! * **root observability** — the lanes where flipping the root changes
//!   some primary output: 1 everywhere for a PO root, otherwise one
//!   event-driven sweep of the flipped root through its fanout cone, run
//!   once per root per block and only when some live, excited,
//!   path-sensitized fault reaches it.
//!
//! The product is exact for single stuck-at faults: inside a region there
//! is no reconvergence, and a flip that reaches the root is, lane by lane,
//! the root flipped in an otherwise good circuit. Every detection word
//! therefore equals the one a separate cone sweep per fault computes —
//! [`crate::reference::ConeOracle`] keeps that per-fault path as the test
//! oracle — while a block runs one sweep per reached stem instead of one
//! per fault.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use fbist_bits::{pack, simd, BitMatrix, BitVec, SimWord, SIMD_WIDTHS};
use fbist_netlist::{CsrAdjacency, GateId, GateKind, Netlist};
use fbist_sim::{PackedSimulator, SimError};

use crate::batch::BatchPlan;
use crate::model::{Fault, FaultList, FaultSite};

/// Outcome of a fault-simulation run over an ordered pattern set.
#[derive(Debug, Clone)]
pub struct FaultSimResult {
    /// `detected.get(i)` — whether fault `i` of the list was detected.
    pub detected: BitVec,
    /// For each fault, the index of the first pattern that detects it.
    pub first_detection: Vec<Option<u32>>,
    /// Number of faults in the target list.
    pub total_faults: usize,
}

impl FaultSimResult {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detected.count_ones()
    }

    /// Fault coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected_count() as f64 / self.total_faults as f64
        }
    }

    /// Index one past the last pattern that *first*-detects some fault —
    /// i.e. the length the pattern set can be trimmed to without losing
    /// coverage. Returns 0 if nothing is detected.
    ///
    /// This is exactly the per-triplet test-length trimming rule of the
    /// paper's Section 4 ("deleting from each test set the last subsequence
    /// of patterns not contributing to the fault coverage").
    pub fn useful_prefix_len(&self) -> usize {
        self.first_detection
            .iter()
            .flatten()
            .map(|&p| p as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Bit-parallel stuck-at fault simulator.
///
/// For every block of `64·W` patterns the good circuit is simulated once.
/// Each fault's detection word is then its excitation mask ANDed with the
/// sensitization of its path to its fanout-free-region root (traced over
/// the good values, memoised per gate) and with the root's observability
/// — one event-driven sweep of the flipped root through its fanout cone
/// per block, shared by every fault of the region (see the module docs).
/// The words are exactly those of a separate cone sweep per fault.
/// [`cone_sweeps`](Self::cone_sweeps) counts the sweeps against the
/// fault evaluations.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_fault::{FaultList, FaultSimulator};
/// use fbist_bits::BitVec;
///
/// let sim = FaultSimulator::new(&embedded::c17())?;
/// let faults = FaultList::collapsed(sim.netlist());
/// let res = sim.run(&[BitVec::ones(5)], &faults);
/// assert!(res.coverage() > 0.0);
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultSimulator {
    sim: PackedSimulator,
    rank: Vec<u32>,
    /// Flat fanout/fanin adjacency and per-gate kinds: the whole working
    /// set of the cone sweeps and the path tracing in contiguous arrays,
    /// instead of pointer-chasing through `Gate` structs (heap `Vec` +
    /// name `String` per gate).
    fo: CsrAdjacency,
    fi: CsrAdjacency,
    kinds: Vec<GateKind>,
    is_po: Vec<bool>,
    /// The fanout-free-region tree: for a gate with exactly one fanout
    /// pin that is not a primary output, the `(gate, pin)` it drives;
    /// `(ROOT, 0)` for a region root (a stem, a PO or a dangling gate).
    next: Vec<(u32, u32)>,
    /// Each gate's region root (itself for a root).
    root: Vec<u32>,
    counters: ConeCounters,
}

/// `next` mark of a gate that roots its own fanout-free region.
const ROOT: u32 = u32::MAX;

/// Cone-sweep counters of a [`FaultSimulator`]: how many root
/// observability sweeps ran against how many fault detection words were
/// evaluated.
///
/// Both are pure functions of the simulated blocks, faults and masks
/// (each block range runs its own memo), so they are identical for every
/// job count — like [`fbist_sim::LaneOccupancy`], which they sit next to
/// in the stats lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConeSweeps {
    /// Event-driven sweeps of a flipped region root.
    pub roots: u64,
    /// Fault detection words evaluated.
    pub faults: u64,
}

/// The atomic totals behind [`ConeSweeps`]: shared by every worker that
/// simulates through one `&FaultSimulator`, added to once per run.
#[derive(Debug, Default)]
struct ConeCounters {
    roots: AtomicU64,
    faults: AtomicU64,
}

impl Clone for ConeCounters {
    fn clone(&self) -> Self {
        ConeCounters {
            roots: AtomicU64::new(self.roots.load(Ordering::Relaxed)),
            faults: AtomicU64::new(self.faults.load(Ordering::Relaxed)),
        }
    }
}

/// Per-run scratch space, reused across faults and blocks; generic over
/// the SIMD width `W` of the faulty-value words.
///
/// `faulty` mirrors the block's good values outside a sweep: a sweep
/// writes the values it changes, lists them in `touched`, and restores
/// them before it returns, so gate evaluation reads one array.
///
/// The event queue is a bitset over topological *ranks*: enqueueing a gate
/// sets the bit of its rank, and the sweep pops bits in ascending rank
/// order with word scans. Ranks are unique, so this visits gates in
/// exactly the order a rank-keyed priority queue would — without any heap
/// traffic. Every bit is cleared as it is popped, so the bitset is empty
/// again when a sweep finishes and needs no per-sweep reset.
pub(crate) struct Scratch<const W: usize> {
    faulty: Vec<SimWord<W>>,
    touched: Vec<u32>,
    pending: Vec<u64>,
    /// Per-block memo, valid where `memo_stamp` equals `block`: a region
    /// root's observability, any other gate's path sensitization.
    memo: Vec<SimWord<W>>,
    memo_stamp: Vec<u32>,
    block: u32,
    /// Gates of a path being traced, bottom first.
    chain: Vec<u32>,
    /// This run's [`ConeSweeps`], added to the simulator's totals at the
    /// end of the run.
    sweeps: ConeSweeps,
}

impl<const W: usize> Scratch<W> {
    pub(crate) fn new(n: usize) -> Scratch<W> {
        Scratch {
            faulty: vec![SimWord::ZERO; n],
            touched: Vec::new(),
            pending: vec![0; n.div_ceil(64)],
            memo: vec![SimWord::ZERO; n],
            memo_stamp: vec![0; n],
            block: 0,
            chain: Vec::new(),
            sweeps: ConeSweeps::default(),
        }
    }

    /// Starts a block: mirrors its good values and invalidates the
    /// per-block memo.
    pub(crate) fn next_block(&mut self, good: &[SimWord<W>]) {
        self.faulty.copy_from_slice(good);
        self.block = self.block.wrapping_add(1);
        if self.block == 0 {
            self.memo_stamp.fill(0);
            self.block = 1;
        }
    }
}

impl FaultSimulator {
    /// Builds a fault simulator for a combinational netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] for sequential netlists
    /// (apply [`fbist_netlist::full_scan`] first) and [`SimError::Netlist`]
    /// for invalid ones.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        let sim = PackedSimulator::new(netlist)?;
        let mut rank = vec![0u32; netlist.gate_count()];
        for (i, &g) in sim.order().iter().enumerate() {
            rank[g.index()] = i as u32;
        }
        let mut is_po = vec![false; netlist.gate_count()];
        for &o in netlist.outputs() {
            is_po[o.index()] = true;
        }
        let fo = netlist.fanouts_csr();
        let fi = netlist.fanins_csr();
        // the region tree: a gate continues its region into the one pin
        // it drives unless it is a PO; everything else is a root
        let mut next = vec![(ROOT, 0); netlist.gate_count()];
        for (g, link) in next.iter_mut().enumerate() {
            if let [h] = fo.of(g) {
                if !is_po[g] {
                    let pin = fi.of(h.index()).iter().position(|f| f.index() == g);
                    *link = (
                        h.index() as u32,
                        pin.expect("a fanout reads its driver") as u32,
                    );
                }
            }
        }
        // roots rank above their region, so reverse topological order
        // resolves every gate's successor first
        let mut root = vec![0u32; netlist.gate_count()];
        for &g in sim.order().iter().rev() {
            root[g.index()] = match next[g.index()].0 {
                ROOT => g.index() as u32,
                h => root[h as usize],
            };
        }
        Ok(FaultSimulator {
            sim,
            rank,
            fo,
            fi,
            kinds: netlist.kinds(),
            is_po,
            next,
            root,
            counters: ConeCounters::default(),
        })
    }

    /// Cone-sweep counters accumulated since construction or the last
    /// [`reset_cone_sweeps`](Self::reset_cone_sweeps).
    pub fn cone_sweeps(&self) -> ConeSweeps {
        ConeSweeps {
            roots: self.counters.roots.load(Ordering::Relaxed),
            faults: self.counters.faults.load(Ordering::Relaxed),
        }
    }

    /// Resets the cone-sweep counters to zero.
    pub fn reset_cone_sweeps(&self) {
        self.counters.roots.store(0, Ordering::Relaxed);
        self.counters.faults.store(0, Ordering::Relaxed);
    }

    /// Adds a finished run's counts to the totals.
    fn record_sweeps<const W: usize>(&self, s: &Scratch<W>) {
        self.counters
            .roots
            .fetch_add(s.sweeps.roots, Ordering::Relaxed);
        self.counters
            .faults
            .fetch_add(s.sweeps.faults, Ordering::Relaxed);
    }

    /// Gate `i`'s fanouts (CSR slice).
    #[inline]
    fn fanouts_of(&self, i: usize) -> &[GateId] {
        self.fo.of(i)
    }

    /// Gate `i`'s fanins (CSR slice).
    #[inline]
    fn fanins_of(&self, i: usize) -> &[GateId] {
        self.fi.of(i)
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.sim.netlist()
    }

    /// The underlying good-circuit simulator.
    pub fn good_simulator(&self) -> &PackedSimulator {
        &self.sim
    }

    /// Simulates the pattern set against the fault list **with fault
    /// dropping**, returning one bit per fault: detected or not.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the input count.
    pub fn detects(&self, patterns: &[BitVec], faults: &FaultList) -> BitVec {
        self.run(patterns, faults).detected
    }

    /// Simulates the pattern set against the fault list with dropping,
    /// recording each fault's first detecting pattern. The block width is
    /// [`simd::width_for`]'s pick for the pattern count.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the input count.
    pub fn run(&self, patterns: &[BitVec], faults: &FaultList) -> FaultSimResult {
        self.run_wide(patterns, faults, simd::width_for(patterns.len()))
    }

    /// [`run`](Self::run) at an explicit SIMD width. Pattern lanes keep
    /// their flat stream order inside each `64·W`-lane block, so the
    /// detected set *and* every first-detection index are byte-identical
    /// at every width.
    ///
    /// # Panics
    ///
    /// Panics if `width_words` is unsupported or a pattern's width
    /// differs from the input count.
    fn run_wide(
        &self,
        patterns: &[BitVec],
        faults: &FaultList,
        width_words: usize,
    ) -> FaultSimResult {
        match width_words {
            1 => self.run_w::<1>(patterns, faults),
            2 => self.run_w::<2>(patterns, faults),
            4 => self.run_w::<4>(patterns, faults),
            8 => self.run_w::<8>(patterns, faults),
            w => panic!("unsupported SIMD width {w} (expected one of {SIMD_WIDTHS:?})"),
        }
    }

    fn run_w<const W: usize>(&self, patterns: &[BitVec], faults: &FaultList) -> FaultSimResult {
        let n = self.netlist().gate_count();
        let lanes = SimWord::<W>::LANES;
        let mut good = vec![SimWord::<W>::ZERO; n];
        let mut scratch = Scratch::<W>::new(n);
        let mut detected = BitVec::zeros(faults.len());
        let mut first_detection = vec![None; faults.len()];
        let mut remaining = faults.len();

        for (block_idx, chunk) in patterns.chunks(lanes).enumerate() {
            if remaining == 0 {
                break;
            }
            let base = (block_idx * lanes) as u32;
            let pi_words = pack::pack_patterns_w::<W>(self.sim.input_count(), chunk);
            self.sim.eval_block_into_w(&pi_words, &mut good);
            self.sim.record_occupancy_wide(chunk.len(), lanes);
            scratch.next_block(&good);
            let lane_mask = pack::lane_mask_w::<W>(chunk.len());
            for (fid, fault) in faults.iter() {
                if detected.get(fid.index()) {
                    continue;
                }
                let det = self.detect(&good, fault, lane_mask, &mut scratch);
                if !det.is_zero() {
                    detected.set(fid.index(), true);
                    first_detection[fid.index()] = Some(base + det.trailing_zeros());
                    remaining -= 1;
                }
            }
        }
        self.record_sweeps(&scratch);
        FaultSimResult {
            detected,
            first_detection,
            total_faults: faults.len(),
        }
    }

    /// Cross-row batched fault simulation over a consecutive range of a
    /// [`BatchPlan`]'s blocks: simulates many rows' pattern streams
    /// through shared blocks and returns `(row, detected)` partials for
    /// the rows whose lane groups appear in the range.
    ///
    /// `rows` holds the patterns of exactly the rows
    /// [`plan.row_span(range)`](BatchPlan::row_span) names, in order, so
    /// a caller expands only what the range touches; the returned row
    /// indices are the plan's. The good circuit is evaluated once per
    /// *shared* block and every fault once per shared block — against
    /// the per-row [`detects`](Self::detects) loop this cuts both counts
    /// by up to `64·W / (τ + 1)` while producing **bit-identical rows**:
    /// OR the partials of any partition of the block axis into ranges
    /// and row `i` equals `detects(&row_i, f)`. Detection of a row is the
    /// OR of its lanes' primary-output differences, which does not depend
    /// on which block a lane lives in — which is what lets callers fan
    /// ranges out across a worker pool.
    ///
    /// Within the range, *masked dropping* is applied: once every row
    /// with lanes in a later block has already detected a fault inside
    /// this range, the fault's evaluation is skipped for that block.
    /// Dropping can never change a row's detected set — detection is a
    /// monotone OR over lanes, so skipping lanes that can only re-detect
    /// an already-detected `(row, fault)` pair removes redundant work
    /// only (the same argument that makes per-row fault dropping exact).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for the plan, `rows` does not
    /// hold one stream per row of the span, or a pattern's width differs
    /// from the input count.
    pub fn detects_blocks(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[Vec<BitVec>],
        faults: &FaultList,
    ) -> Vec<(usize, BitVec)> {
        self.blocks_sweep(
            plan,
            range,
            rows,
            faults,
            || BitVec::zeros(faults.len()),
            |partial, fi| !partial.get(fi),
            |partial, fi, _first_idx| partial.set(fi, true),
        )
    }

    /// The shared block loop of both batched engines: packs each shared
    /// block, evaluates the good circuit once, builds every fault's
    /// masked-dropping lane mask from the rows `alive` still admits,
    /// evaluates a fault only when its mask is nonzero, and reports each hit
    /// group to `record` together with the row-local index of its lowest
    /// detecting lane (= the group's earliest hit pattern).
    ///
    /// [`detects_blocks`](Self::detects_blocks) and
    /// [`first_detections_blocks`](Self::first_detections_blocks) are
    /// both this loop with different partials, so their packing,
    /// occupancy accounting, masked dropping and lane attribution cannot
    /// drift apart — which is half of the first-detection engine's
    /// bit-identity contract. The plan carries the SIMD width; this
    /// dispatches to the monomorphised sweep for it.
    #[allow(clippy::too_many_arguments)]
    fn blocks_sweep<P>(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[Vec<BitVec>],
        faults: &FaultList,
        new_partial: impl Fn() -> P,
        alive: impl Fn(&P, usize) -> bool,
        record: impl FnMut(&mut P, usize, u32),
    ) -> Vec<(usize, P)> {
        match plan.width_words() {
            1 => self.blocks_sweep_w::<1, P>(plan, range, rows, faults, new_partial, alive, record),
            2 => self.blocks_sweep_w::<2, P>(plan, range, rows, faults, new_partial, alive, record),
            4 => self.blocks_sweep_w::<4, P>(plan, range, rows, faults, new_partial, alive, record),
            8 => self.blocks_sweep_w::<8, P>(plan, range, rows, faults, new_partial, alive, record),
            w => unreachable!("BatchPlan guarantees a supported width, got {w}"),
        }
    }

    /// The width-`W` monomorphisation of the shared block loop. Lane
    /// groups address the flat `0..64·W` lane space and all detection
    /// words are [`SimWord<W>`]; everything else is identical to the
    /// classic 64-lane loop, which *is* the `W = 1` instantiation.
    #[allow(clippy::too_many_arguments)]
    fn blocks_sweep_w<const W: usize, P>(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[Vec<BitVec>],
        faults: &FaultList,
        new_partial: impl Fn() -> P,
        alive: impl Fn(&P, usize) -> bool,
        mut record: impl FnMut(&mut P, usize, u32),
    ) -> Vec<(usize, P)> {
        debug_assert_eq!(
            plan.width_words(),
            W,
            "plan width / monomorphisation mismatch"
        );
        let span = plan.row_span(range.clone());
        assert_eq!(
            rows.len(),
            span.len(),
            "block range {range:?} touches rows {span:?}: pass exactly their streams"
        );
        let blocks = &plan.blocks()[range];
        let first_row = span.start;
        let mut partial: Vec<P> = span.map(|_| new_partial()).collect();

        let n = self.netlist().gate_count();
        let mut good = vec![SimWord::<W>::ZERO; n];
        let mut scratch = Scratch::<W>::new(n);
        let mut pi_words = vec![SimWord::<W>::ZERO; self.sim.input_count()];
        for block in blocks {
            pi_words.fill(SimWord::ZERO);
            for g in &block.groups {
                let row = &rows[g.row as usize - first_row];
                let start = g.start as usize;
                pack::pack_patterns_at_w(
                    &mut pi_words,
                    g.lane_offset as usize,
                    &row[start..start + g.len as usize],
                );
            }
            self.sim.eval_block_into_w(&pi_words, &mut good);
            self.sim
                .record_occupancy_wide(block.lanes_used, SimWord::<W>::LANES);
            scratch.next_block(&good);
            for (fid, fault) in faults.iter() {
                let fi = fid.index();
                let mut mask = SimWord::<W>::ZERO;
                for g in &block.groups {
                    if alive(&partial[g.row as usize - first_row], fi) {
                        mask |= g.mask_w();
                    }
                }
                if mask.is_zero() {
                    continue; // masked dropping: nobody here still needs it
                }
                let det = self.detect(&good, fault, mask, &mut scratch);
                if det.is_zero() {
                    continue;
                }
                for g in &block.groups {
                    let hit = det & g.mask_w();
                    if !hit.is_zero() {
                        // the mask only admitted alive rows, and lanes
                        // ascend in stream order, so the lowest set lane
                        // is the group's earliest hit pattern
                        let first_idx = g.start + (hit.trailing_zeros() - g.lane_offset as u32);
                        record(&mut partial[g.row as usize - first_row], fi, first_idx);
                    }
                }
            }
        }
        self.record_sweeps(&scratch);
        partial
            .into_iter()
            .enumerate()
            .map(|(i, p)| (first_row + i, p))
            .collect()
    }

    /// Sentinel first-detection index: the pair was never detected.
    ///
    /// Used by [`first_detections_blocks`](Self::first_detections_blocks)
    /// and [`merge_first_detections`] instead of `Option<u32>` so
    /// partials can be merged with a plain elementwise `min` (the
    /// sentinel is the identity of `min`). Real pattern indices
    /// are always `< u32::MAX`; the flow layer bounds `τ` far below that
    /// (`FlowConfig::MAX_TAU`).
    pub const NO_DETECTION: u32 = u32::MAX;

    /// Cross-row batched *first-detection* simulation over a consecutive
    /// range of a [`BatchPlan`]'s blocks: for each row with lane groups
    /// in the range, the index (within the row's own pattern stream) of
    /// the earliest detecting pattern *within the range* per fault, or
    /// [`NO_DETECTION`](Self::NO_DETECTION) if the range detects nothing
    /// for that pair. `rows` holds the patterns of the rows
    /// [`plan.row_span(range)`](BatchPlan::row_span) names, exactly as
    /// for [`detects_blocks`](Self::detects_blocks).
    ///
    /// This is the engine behind the single-simulation τ-sweep: row `i`
    /// detects fault `j` at `τ` iff its first index is `≤ τ`, so one pass
    /// at the largest `τ` yields every smaller τ's matrix by
    /// thresholding. Lanes ascend in stream order, so the lowest set lane
    /// of a group's masked detection word is its first detection.
    ///
    /// [`merge_first_detections`] over the partials of **any** partition
    /// of the block axis recovers, per row, `run(&row, f).first_detection`
    /// (with `NO_DETECTION` for `None`): the global first detection is
    /// the minimum over the per-range ones. Masked dropping is exact as
    /// in `detects_blocks`: once a row's first index for a fault is fixed,
    /// later blocks can only offer larger indices.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds for the plan, `rows` does not
    /// hold one stream per row of the span, or a pattern's width differs
    /// from the input count.
    pub fn first_detections_blocks(
        &self,
        plan: &BatchPlan,
        range: Range<usize>,
        rows: &[Vec<BitVec>],
        faults: &FaultList,
    ) -> Vec<(usize, Vec<u32>)> {
        self.blocks_sweep(
            plan,
            range,
            rows,
            faults,
            || vec![Self::NO_DETECTION; faults.len()],
            |partial, fi| partial[fi] == Self::NO_DETECTION,
            |partial, fi, first_idx| partial[fi] = first_idx,
        )
    }

    /// Builds the full pattern × fault detection dictionary (no dropping):
    /// cell `(p, f)` is 1 iff pattern `p` detects fault `f`.
    ///
    /// With the paper's triplet-expansion convention and `τ = 0`, this *is*
    /// the initial Detection Matrix. The block width is
    /// [`simd::width_for`]'s pick for the pattern count.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the input count.
    pub fn dictionary(&self, patterns: &[BitVec], faults: &FaultList) -> BitMatrix {
        self.dictionary_wide(patterns, faults, simd::width_for(patterns.len()))
    }

    /// [`dictionary`](Self::dictionary) at an explicit SIMD width —
    /// bit-identical cells at every width (lane `k` of a `64·W`-lane
    /// block is pattern `base + k` either way).
    ///
    /// # Panics
    ///
    /// Panics if `width_words` is unsupported or a pattern's width
    /// differs from the input count.
    fn dictionary_wide(
        &self,
        patterns: &[BitVec],
        faults: &FaultList,
        width_words: usize,
    ) -> BitMatrix {
        match width_words {
            1 => self.dictionary_w::<1>(patterns, faults),
            2 => self.dictionary_w::<2>(patterns, faults),
            4 => self.dictionary_w::<4>(patterns, faults),
            8 => self.dictionary_w::<8>(patterns, faults),
            w => panic!("unsupported SIMD width {w} (expected one of {SIMD_WIDTHS:?})"),
        }
    }

    fn dictionary_w<const W: usize>(&self, patterns: &[BitVec], faults: &FaultList) -> BitMatrix {
        let n = self.netlist().gate_count();
        let lanes = SimWord::<W>::LANES;
        let mut good = vec![SimWord::<W>::ZERO; n];
        let mut scratch = Scratch::<W>::new(n);
        let mut m = BitMatrix::new(patterns.len(), faults.len());
        for (block_idx, chunk) in patterns.chunks(lanes).enumerate() {
            let base = block_idx * lanes;
            let pi_words = pack::pack_patterns_w::<W>(self.sim.input_count(), chunk);
            self.sim.eval_block_into_w(&pi_words, &mut good);
            self.sim.record_occupancy_wide(chunk.len(), lanes);
            scratch.next_block(&good);
            let lane_mask = pack::lane_mask_w::<W>(chunk.len());
            for (fid, fault) in faults.iter() {
                let mut det = self.detect(&good, fault, lane_mask, &mut scratch);
                while !det.is_zero() {
                    let lane = det.trailing_zeros() as usize;
                    m.set(base + lane, fid.index(), true);
                    det.clear_lowest();
                }
            }
        }
        self.record_sweeps(&scratch);
        m
    }

    /// The detection word of `fault` in one block, restricted to `mask`
    /// (1 = some primary output differs in that lane): excitation ∧ mask
    /// ∧ sensitization of the path to the region root ∧ the root's
    /// observability, each factor evaluated only while the product is
    /// still nonzero.
    fn detect<const W: usize>(
        &self,
        good: &[SimWord<W>],
        fault: Fault,
        mask: SimWord<W>,
        s: &mut Scratch<W>,
    ) -> SimWord<W> {
        s.sweeps.faults += 1;
        let (gate, faulty) = self.inject(good, fault);
        let det = (faulty ^ good[gate]) & mask;
        if det.is_zero() {
            return det;
        }
        let det = det & self.path_sensitization(good, gate, s);
        if det.is_zero() {
            return det;
        }
        det & self.observability(good, self.root[gate] as usize, s)
    }

    /// The gate whose output `fault` changes first, and that output's
    /// faulty value under the block's good values.
    pub(crate) fn inject<const W: usize>(
        &self,
        good: &[SimWord<W>],
        fault: Fault,
    ) -> (usize, SimWord<W>) {
        let forced = if fault.stuck_value() {
            SimWord::<W>::MAX
        } else {
            SimWord::<W>::ZERO
        };
        match fault.site() {
            FaultSite::GateOutput(g) => (g.index(), forced),
            FaultSite::GateInput { gate, pin } => {
                let g = gate.index();
                let fanin = self.fanins_of(g);
                let v = eval_forced(self.kinds[g], fanin, pin as usize, forced, |i| good[i]);
                (g, v)
            }
        }
    }

    /// The lanes in which a flip of `gate`'s output reaches its region
    /// root: the AND of the pin sensitizations along the tree path,
    /// memoised per gate for the current block.
    fn path_sensitization<const W: usize>(
        &self,
        good: &[SimWord<W>],
        gate: usize,
        s: &mut Scratch<W>,
    ) -> SimWord<W> {
        // climb to the root or to the first gate already traced
        let mut g = gate;
        let mut sens = SimWord::<W>::MAX;
        s.chain.clear();
        while self.next[g].0 != ROOT {
            if s.memo_stamp[g] == s.block {
                sens = s.memo[g];
                break;
            }
            s.chain.push(g as u32);
            g = self.next[g].0 as usize;
        }
        // then trace back down, memoising every gate passed
        while let Some(c) = s.chain.pop() {
            let (h, pin) = self.next[c as usize];
            sens &= self.pin_sensitization(good, h as usize, pin as usize);
            s.memo[c as usize] = sens;
            s.memo_stamp[c as usize] = s.block;
        }
        sens
    }

    /// The lanes in which `gate`'s output follows a flip of input `pin`
    /// under the good values of its other pins.
    fn pin_sensitization<const W: usize>(
        &self,
        good: &[SimWord<W>],
        gate: usize,
        pin: usize,
    ) -> SimWord<W> {
        let others = self
            .fanins_of(gate)
            .iter()
            .enumerate()
            .filter(|&(p, _)| p != pin)
            .map(|(_, f)| good[f.index()]);
        match self.kinds[gate] {
            GateKind::And | GateKind::Nand => others.fold(SimWord::MAX, |a, v| a & v),
            GateKind::Or | GateKind::Nor => others.fold(SimWord::MAX, |a, v| a & !v),
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buff => SimWord::MAX,
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {
                unreachable!("region trees only continue into logic gate pins")
            }
        }
    }

    /// The lanes in which flipping region root `root` changes some
    /// primary output: everywhere for a PO, otherwise one cone sweep,
    /// memoised for the current block.
    fn observability<const W: usize>(
        &self,
        good: &[SimWord<W>],
        root: usize,
        s: &mut Scratch<W>,
    ) -> SimWord<W> {
        if self.is_po[root] {
            return SimWord::MAX;
        }
        if s.memo_stamp[root] != s.block {
            s.sweeps.roots += 1;
            let obs = self.sweep(good, root, !good[root], s);
            s.memo[root] = obs;
            s.memo_stamp[root] = s.block;
        }
        s.memo[root]
    }

    /// Sets `origin`'s output to `value` in one block of good values,
    /// propagates the change event-wise through the fanout cone and
    /// returns the `64·W`-lane detection word (1 = some primary output
    /// differs in that lane). The caller masks invalid lanes.
    pub(crate) fn sweep<const W: usize>(
        &self,
        good: &[SimWord<W>],
        origin: usize,
        value: SimWord<W>,
        s: &mut Scratch<W>,
    ) -> SimWord<W> {
        s.faulty[origin] = value;
        s.touched.push(origin as u32);
        let mut min_w = usize::MAX;
        let mut max_w = 0usize;
        for &fo in self.fanouts_of(origin) {
            let r = self.rank[fo.index()] as usize;
            s.pending[r >> 6] |= 1u64 << (r & 63);
            min_w = min_w.min(r >> 6);
            max_w = max_w.max(r >> 6);
        }

        // Event-driven sweep in topological rank order: pop set bits of
        // the pending bitset ascending. Each gate is visited at most once
        // (enqueued gates always rank above the gate that enqueues them),
        // so its fanins are final when its bit pops.
        let order = self.sim.order();
        let mut w = min_w;
        while w <= max_w {
            let word = s.pending[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let b = word.trailing_zeros() as usize;
            s.pending[w] = word & (word - 1);
            let idx = order[(w << 6) | b].index();
            let kind = self.kinds[idx];
            if kind == GateKind::Dff {
                continue; // state boundary: effects stop at D pins
            }
            let v = eval_mixed(kind, self.fanins_of(idx), |i| s.faulty[i]);
            if v != good[idx] {
                s.faulty[idx] = v;
                s.touched.push(idx as u32);
                for &fo in self.fanouts_of(idx) {
                    let r = self.rank[fo.index()] as usize;
                    s.pending[r >> 6] |= 1u64 << (r & 63);
                    max_w = max_w.max(r >> 6);
                }
            }
        }

        // Detection: any touched primary output differing from good;
        // restoring the touched values ends the sweep.
        let mut det = SimWord::<W>::ZERO;
        for t in s.touched.drain(..) {
            let t = t as usize;
            if self.is_po[t] {
                det |= s.faulty[t] ^ good[t];
            }
            s.faulty[t] = good[t];
        }
        det
    }
}

/// Merges `(row, partial)` first-detection results from
/// [`FaultSimulator::first_detections_blocks`] into `rows` rows of
/// `width` indices by elementwise `min` — the one owner of the
/// first-detection merge semantics. `min` is associative and commutative
/// with [`FaultSimulator::NO_DETECTION`] as identity, so any partition of
/// the block axis and any merge order yield the same indices.
///
/// A row's first partial is moved in, not copied, so the merge holds no
/// second `rows × width` buffer; a row no partial names detects nothing.
///
/// # Panics
///
/// Panics if a partial names a row out of range or is not `width` wide.
pub fn merge_first_detections(
    rows: usize,
    width: usize,
    partials: impl IntoIterator<Item = (usize, Vec<u32>)>,
) -> Vec<Vec<u32>> {
    let mut acc: Vec<Option<Vec<u32>>> = vec![None; rows];
    for (row, partial) in partials {
        assert_eq!(
            partial.len(),
            width,
            "first-detection partial for row {row} is not {width} wide"
        );
        match &mut acc[row] {
            Some(a) => {
                for (a, v) in a.iter_mut().zip(&partial) {
                    *a = (*a).min(*v);
                }
            }
            slot => *slot = Some(partial),
        }
    }
    acc.into_iter()
        .map(|row| row.unwrap_or_else(|| vec![FaultSimulator::NO_DETECTION; width]))
        .collect()
}

/// Evaluates a gate reading width-`W` values through `read`.
#[inline]
fn eval_mixed<const W: usize>(
    kind: GateKind,
    fanin: &[GateId],
    read: impl Fn(usize) -> SimWord<W>,
) -> SimWord<W> {
    type S<const W: usize> = SimWord<W>;
    match kind {
        GateKind::And => fanin.iter().fold(S::MAX, |a, f| a & read(f.index())),
        GateKind::Nand => !fanin.iter().fold(S::MAX, |a, f| a & read(f.index())),
        GateKind::Or => fanin.iter().fold(S::ZERO, |a, f| a | read(f.index())),
        GateKind::Nor => !fanin.iter().fold(S::ZERO, |a, f| a | read(f.index())),
        GateKind::Xor => fanin.iter().fold(S::ZERO, |a, f| a ^ read(f.index())),
        GateKind::Xnor => !fanin.iter().fold(S::ZERO, |a, f| a ^ read(f.index())),
        GateKind::Not => !read(fanin[0].index()),
        GateKind::Buff => read(fanin[0].index()),
        GateKind::Const0 => S::ZERO,
        GateKind::Const1 => S::MAX,
        GateKind::Input | GateKind::Dff => unreachable!("sources are assigned"),
    }
}

/// Evaluates a gate with one input pin forced to a constant word.
#[inline]
fn eval_forced<const W: usize>(
    kind: GateKind,
    fanin: &[GateId],
    forced_pin: usize,
    forced_word: SimWord<W>,
    read: impl Fn(usize) -> SimWord<W>,
) -> SimWord<W> {
    type S<const W: usize> = SimWord<W>;
    let pin_val = |p: usize, f: &GateId| {
        if p == forced_pin {
            forced_word
        } else {
            read(f.index())
        }
    };
    match kind {
        GateKind::And => fanin
            .iter()
            .enumerate()
            .fold(S::MAX, |a, (p, f)| a & pin_val(p, f)),
        GateKind::Nand => !fanin
            .iter()
            .enumerate()
            .fold(S::MAX, |a, (p, f)| a & pin_val(p, f)),
        GateKind::Or => fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a | pin_val(p, f)),
        GateKind::Nor => !fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a | pin_val(p, f)),
        GateKind::Xor => fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a ^ pin_val(p, f)),
        GateKind::Xnor => !fanin
            .iter()
            .enumerate()
            .fold(S::ZERO, |a, (p, f)| a ^ pin_val(p, f)),
        GateKind::Not => !forced_word,
        GateKind::Buff => forced_word,
        _ => unreachable!("input-pin faults exist only on gates with pins"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fbist_netlist::{bench, embedded};

    fn exhaustive_patterns(width: usize) -> Vec<BitVec> {
        (0..(1u64 << width))
            .map(|v| BitVec::from_u64(width, v))
            .collect()
    }

    #[test]
    fn c17_exhaustive_full_coverage() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let res = sim.run(&exhaustive_patterns(5), &faults);
        assert_eq!(res.detected_count(), faults.len(), "c17 is fully testable");
        assert!((res.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_reference_on_c17() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::full(&n);
        let patterns = exhaustive_patterns(5);
        let dict = sim.dictionary(&patterns, &faults);
        for (fid, fault) in faults.iter() {
            for (p, pattern) in patterns.iter().enumerate() {
                let expect = reference::naive_detects(&n, fault, pattern);
                assert_eq!(
                    dict.get(p, fid.index()),
                    expect,
                    "fault {} pattern {}",
                    fault.describe(&n),
                    pattern
                );
            }
        }
    }

    #[test]
    fn matches_naive_reference_on_adder() {
        let n = embedded::adder4();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        // pseudo-random subset of patterns
        let mut state = 0xDEADBEEFCAFEBABEu64;
        let patterns: Vec<BitVec> = (0..80)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                BitVec::from_u64(9, state)
            })
            .collect();
        let dict = sim.dictionary(&patterns, &faults);
        for (fid, fault) in faults.iter() {
            for (p, pattern) in patterns.iter().enumerate().step_by(7) {
                let expect = reference::naive_detects(&n, fault, pattern);
                assert_eq!(dict.get(p, fid.index()), expect, "{}", fault.describe(&n));
            }
        }
    }

    #[test]
    fn first_detection_is_first() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let patterns = exhaustive_patterns(5);
        let res = sim.run(&patterns, &faults);
        let dict = sim.dictionary(&patterns, &faults);
        for (fid, _f) in faults.iter() {
            let expect = (0..patterns.len()).find(|&p| dict.get(p, fid.index()));
            assert_eq!(res.first_detection[fid.index()].map(|v| v as usize), expect);
        }
    }

    #[test]
    fn useful_prefix_trims_tail() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let mut patterns = exhaustive_patterns(5);
        // duplicate the whole set: the second half adds nothing
        let dup = patterns.clone();
        patterns.extend(dup);
        let res = sim.run(&patterns, &faults);
        assert!(res.useful_prefix_len() <= 32);
        assert!(res.useful_prefix_len() > 0);
    }

    #[test]
    fn undetectable_fault_reported() {
        // y = OR(a, NOT(a)) is constant 1: y stuck-at-1 is undetectable.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let n = bench::parse(src).unwrap();
        let sim = FaultSimulator::new(&n).unwrap();
        let y = n.find("y").unwrap();
        let f = Fault::stuck_at(FaultSite::GateOutput(y), true);
        let faults = FaultList::from_faults(vec![f]);
        let res = sim.run(&exhaustive_patterns(1), &faults);
        assert_eq!(res.detected_count(), 0);
        assert_eq!(res.first_detection[0], None);
    }

    #[test]
    fn input_pin_fault_differs_from_stem() {
        // a fans out to two XOR pins; branch fault flips one path only.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = XOR(a, b)\ny = BUFF(a)\n";
        let n = bench::parse(src).unwrap();
        let sim = FaultSimulator::new(&n).unwrap();
        let x = n.find("x").unwrap();
        let branch = Fault::stuck_at(FaultSite::GateInput { gate: x, pin: 0 }, false);
        let stem = Fault::stuck_at(FaultSite::GateOutput(n.find("a").unwrap()), false);
        let faults = FaultList::from_faults(vec![branch, stem]);
        // pattern a=1, b=0: branch fault flips x only; stem also flips y.
        let p: BitVec = "01".parse().unwrap();
        let dict = sim.dictionary(&[p], &faults);
        assert!(dict.get(0, 0));
        assert!(dict.get(0, 1));
        // now check with naive: branch fault must NOT affect y
        let pat: BitVec = "01".parse().unwrap();
        assert!(reference::naive_detects(&n, branch, &pat));
    }

    #[test]
    fn detects_equals_run_detected() {
        let n = embedded::majority();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let patterns = exhaustive_patterns(3);
        assert_eq!(
            sim.detects(&patterns, &faults),
            sim.run(&patterns, &faults).detected
        );
    }

    /// Every row's detection set and first-detection indices from
    /// [`detects_blocks`](FaultSimulator::detects_blocks) and
    /// [`first_detections_blocks`](FaultSimulator::first_detections_blocks)
    /// over the width-`w` plan, in ranges of `chunk` blocks, merged.
    fn blocks_in_chunks(
        sim: &FaultSimulator,
        rows: &[Vec<BitVec>],
        faults: &FaultList,
        w: usize,
        chunk: usize,
    ) -> (Vec<BitVec>, Vec<Vec<u32>>) {
        let plan = BatchPlan::with_width(&rows.iter().map(Vec::len).collect::<Vec<_>>(), w);
        let mut detected = vec![BitVec::zeros(faults.len()); rows.len()];
        let mut partials = Vec::new();
        let mut lo = 0;
        while lo < plan.block_count() {
            let hi = plan.block_count().min(lo.saturating_add(chunk));
            let span = &rows[plan.row_span(lo..hi)];
            for (row, bits) in sim.detects_blocks(&plan, lo..hi, span, faults) {
                detected[row].union_with(&bits);
            }
            partials.extend(sim.first_detections_blocks(&plan, lo..hi, span, faults));
            lo = hi;
        }
        let firsts = merge_first_detections(rows.len(), faults.len(), partials);
        (detected, firsts)
    }

    /// Rows of the given lengths of random adder4 patterns: empty,
    /// sub-block, straddling a shared-block boundary and multi-block.
    fn mixed_rows(lengths: &[usize]) -> Vec<Vec<BitVec>> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut pat = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            BitVec::from_u64(9, state)
        };
        lengths
            .iter()
            .map(|&len| (0..len).map(|_| pat()).collect())
            .collect()
    }

    #[test]
    fn blocks_match_per_row_run() {
        // rows of wildly different lengths must come back bit-identical
        // to the per-row path, detection sets and first indices alike
        let n = embedded::adder4();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let rows = mixed_rows(&[0, 4, 1, 60, 130, 7, 0, 64, 33]);
        let (detected, firsts) = blocks_in_chunks(&sim, &rows, &faults, 1, usize::MAX);
        for (i, row) in rows.iter().enumerate() {
            let per_row = sim.run(row, &faults);
            assert_eq!(detected[i], sim.detects(row, &faults), "row {i}");
            for (f, &first) in firsts[i].iter().enumerate() {
                let expect = per_row.first_detection[f].unwrap_or(FaultSimulator::NO_DETECTION);
                assert_eq!(first, expect, "row {i} fault {f}");
            }
        }
    }

    #[test]
    fn first_detections_agree_with_dictionary() {
        // the batched first index must be the row-local index of the first
        // 1-cell in the exhaustive (no-dropping) dictionary
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let rows: Vec<Vec<BitVec>> = (0..5)
            .map(|r| (0..13u64).map(|v| BitVec::from_u64(5, v * 3 + r)).collect())
            .collect();
        let (_, firsts) = blocks_in_chunks(&sim, &rows, &faults, 1, usize::MAX);
        for (i, row) in rows.iter().enumerate() {
            let dict = sim.dictionary(row, &faults);
            for (fid, _f) in faults.iter() {
                let expect = (0..row.len()).find(|&p| dict.get(p, fid.index()));
                assert_eq!(
                    firsts[i][fid.index()],
                    expect.map_or(FaultSimulator::NO_DETECTION, |v| v as u32),
                    "row {i} fault {fid:?}"
                );
            }
        }
    }

    #[test]
    fn block_partitions_are_invariant() {
        // the union and min merges that let core fan block ranges across
        // the pool must give the same rows for every partition, at every
        // width
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let rows: Vec<Vec<BitVec>> = (0..9)
            .map(|r| (0..43u64).map(|v| BitVec::from_u64(5, v * 7 + r)).collect())
            .collect();
        let whole = blocks_in_chunks(&sim, &rows, &faults, 1, usize::MAX);
        for w in [1usize, 2, 4, 8] {
            for chunk in [1usize, 2, 3] {
                let parts = blocks_in_chunks(&sim, &rows, &faults, w, chunk);
                assert_eq!(parts, whole, "W={w} chunk={chunk}");
            }
        }
    }

    #[test]
    fn every_simd_width_matches_width_one() {
        // detection sets, first-detection indices and dictionary cells
        // must be byte-identical at W = 1, 2, 4, 8
        let n = embedded::adder4();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let rows = mixed_rows(&[0, 4, 1, 60, 130, 7, 0, 300, 33]);
        let flat: Vec<BitVec> = rows.iter().flatten().cloned().collect();
        let run1 = sim.run_wide(&flat, &faults, 1);
        let dict1 = sim.dictionary_wide(&flat, &faults, 1);
        let blocks1 = blocks_in_chunks(&sim, &rows, &faults, 1, usize::MAX);
        for w in [2usize, 4, 8] {
            let runw = sim.run_wide(&flat, &faults, w);
            assert_eq!(runw.detected, run1.detected, "run detected W={w}");
            assert_eq!(
                runw.first_detection, run1.first_detection,
                "run first detection W={w}"
            );
            assert_eq!(sim.dictionary_wide(&flat, &faults, w), dict1, "dict W={w}");
            let blocks = blocks_in_chunks(&sim, &rows, &faults, w, usize::MAX);
            assert_eq!(blocks, blocks1, "blocks W={w}");
        }
    }

    #[test]
    fn every_engine_takes_its_width_from_the_one_rule() {
        // 64, 65, 256 and 512 patterns make the rule pick W = 1, 2, 4
        // and 8: one block of 64·W lanes each, whichever engine runs it
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        for (count, w) in [(64usize, 1usize), (65, 2), (256, 4), (512, 8)] {
            assert_eq!(simd::width_for(count), w);
            let patterns: Vec<BitVec> = (0..count as u64).map(|v| BitVec::from_u64(5, v)).collect();
            let plan = BatchPlan::new(&[count]);
            assert_eq!(plan.width_words(), w, "plan at {count}");
            let engines: [&dyn Fn(); 4] = [
                &|| drop(sim.run(&patterns, &faults)),
                &|| drop(sim.detects(&patterns, &faults)),
                &|| drop(sim.dictionary(&patterns, &faults)),
                &|| drop(sim.detects_blocks(&plan, 0..1, std::slice::from_ref(&patterns), &faults)),
            ];
            for (e, engine) in engines.iter().enumerate() {
                sim.good_simulator().reset_occupancy();
                engine();
                let occ = sim.good_simulator().occupancy();
                assert_eq!(
                    (occ.blocks, occ.lanes, occ.capacity),
                    (1, count as u64, 64 * w as u64),
                    "engine {e} at {count} patterns"
                );
            }
        }
    }

    #[test]
    fn batched_occupancy_beats_per_row() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        // 16 rows of 4 patterns (τ = 3 shape)
        let rows: Vec<Vec<BitVec>> = (0..16)
            .map(|r| (0..4u64).map(|v| BitVec::from_u64(5, v + r)).collect())
            .collect();
        sim.good_simulator().reset_occupancy();
        for row in &rows {
            let _ = sim.detects(row, &faults);
        }
        let per_row = sim.good_simulator().occupancy();
        assert_eq!(per_row.blocks, 16);
        assert!(per_row.ratio() < 0.1, "per-row ratio {}", per_row.ratio());

        sim.good_simulator().reset_occupancy();
        let plan = BatchPlan::new(&[4; 16]);
        let _ = sim.detects_blocks(&plan, 0..1, &rows, &faults);
        let batched = sim.good_simulator().occupancy();
        assert_eq!(batched.blocks, 1);
        assert_eq!(batched.ratio(), 1.0);
    }

    #[test]
    fn region_tree_roots_stems_outputs_and_dangling_gates() {
        // a is a stem, p a PO that also feeds q, d dangles; b, x, n and q
        // chain into their only readers
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(p)\nOUTPUT(y)\n\
                   x = AND(a, b)\nn = NOT(x)\np = OR(n, a)\nq = BUFF(p)\n\
                   y = XOR(q, a)\nd = NAND(c, c)\n";
        let n = bench::parse(src).unwrap();
        let sim = FaultSimulator::new(&n).unwrap();
        let id = |name: &str| n.find(name).unwrap().index();
        for root in ["a", "p", "y", "d"] {
            assert_eq!(sim.next[id(root)].0, ROOT, "{root} is a root");
            assert_eq!(sim.root[id(root)] as usize, id(root));
        }
        // c drives two pins of one gate: a stem too
        assert_eq!(sim.next[id("c")].0, ROOT);
        assert_eq!(sim.next[id("b")], (id("x") as u32, 1));
        assert_eq!(sim.next[id("x")], (id("n") as u32, 0));
        assert_eq!(sim.next[id("n")], (id("p") as u32, 0));
        assert_eq!(sim.next[id("q")], (id("y") as u32, 0));
        assert_eq!(sim.root[id("x")] as usize, id("p"));
        assert_eq!(sim.root[id("q")] as usize, id("y"));
    }

    #[test]
    fn every_width_matches_the_cone_oracle() {
        fn check<const W: usize>(n: &Netlist, patterns: &[BitVec]) {
            let sim = FaultSimulator::new(n).unwrap();
            let faults = FaultList::full(n);
            let words = reference::ConeOracle::new(n)
                .unwrap()
                .block_words::<W>(patterns, &faults);
            let dict = sim.dictionary_wide(patterns, &faults, W);
            for (fid, f) in faults.iter() {
                for (p, _) in patterns.iter().enumerate() {
                    let word = words[p / SimWord::<W>::LANES][fid.index()];
                    assert_eq!(
                        dict.get(p, fid.index()),
                        word.lane(p % SimWord::<W>::LANES),
                        "W={W} {} pattern {p}",
                        f.describe(n)
                    );
                }
            }
        }
        for n in [embedded::c17(), embedded::adder4(), embedded::majority()] {
            let width = n.inputs().len();
            let patterns: Vec<BitVec> = (0..700u64)
                .map(|v| BitVec::from_u64(width, v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7))
                .collect();
            check::<1>(&n, &patterns);
            check::<2>(&n, &patterns);
            check::<4>(&n, &patterns);
            check::<8>(&n, &patterns);
        }
    }

    #[test]
    fn cone_sweeps_count_one_sweep_per_reached_root() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::full(&n);
        let _ = sim.dictionary(&exhaustive_patterns(5), &faults);
        let sweeps = sim.cone_sweeps();
        // one block: every fault evaluated once, each non-PO root swept
        // at most once
        let stems = (0..n.gate_count())
            .filter(|&g| sim.next[g].0 == ROOT && !sim.is_po[g])
            .count() as u64;
        assert_eq!(sweeps.faults, faults.len() as u64);
        assert!(0 < sweeps.roots && sweeps.roots <= stems, "{sweeps:?}");
        sim.reset_cone_sweeps();
        assert_eq!(sim.cone_sweeps(), ConeSweeps::default());
    }

    #[test]
    fn empty_pattern_set_detects_nothing() {
        let n = embedded::c17();
        let sim = FaultSimulator::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let res = sim.run(&[], &faults);
        assert_eq!(res.detected_count(), 0);
        assert_eq!(res.useful_prefix_len(), 0);
    }
}
