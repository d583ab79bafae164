//! The PODEM test-generation algorithm (Goel, 1981).
//!
//! PODEM searches the space of primary-input assignments directly (rather
//! than internal net values, as the D-algorithm does), which makes the
//! search complete with a simple decision stack: every internal conflict is
//! repaired by flipping the most recent unflipped PI decision.
//!
//! Fault effects are tracked with a *two-plane* three-valued simulation:
//! each net carries a (good, faulty) pair of [`Trit`]s; the classical
//! five-valued `D`/`D̄` appear as the pairs `(1,0)` / `(0,1)`. This handles
//! stem and branch faults uniformly.
//!
//! Backtracking undoes instead of re-simulating: every plane write is
//! logged on a trail of old values, each decision remembers the trail
//! length it started from, and a flip rolls the trail back to that mark
//! before forward-simulating the flipped input alone.
//!
//! A session of an engine built for the full ATPG flow (see
//! `Podem::escalate_to_sat`) hands the fault to the SAT fault miter at
//! its first backtrack ([`ESCALATE_AT`]), and the verdict settles the
//! search: a proof ends it untestable, a model ends it with the model's
//! test cube ([`MiterSession::model_cube`]), and only a spent conflict
//! budget lets the same search continue to its backtrack limit. PODEM is
//! the fast path for the faults it solves without backtracking; SAT
//! decides every other one.

use fbist_bits::{Cube, Trit};
use fbist_fault::{Fault, FaultSite};
use fbist_netlist::{CsrAdjacency, GateId, GateKind, Netlist};
use fbist_sim::SimError;

use crate::miter::{FaultMiter, MiterSession, SatVerdict};
use crate::testability::Testability;

/// Backtracks after which a search of the full ATPG flow hands the fault
/// to the SAT fault miter, whose verdict settles the search.
pub const ESCALATE_AT: usize = 1;

/// Tuning knobs for the PODEM search.
#[derive(Debug, Clone)]
pub struct PodemConfig {
    /// Maximum number of backtracks before giving up with
    /// [`PodemOutcome::Aborted`].
    pub backtrack_limit: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 1000,
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test cube whose every fill detects the fault.
    Test(Cube),
    /// The fault is proven untestable (redundant).
    Untestable,
    /// The backtrack budget was exhausted.
    Aborted,
}

impl PodemOutcome {
    /// The test cube, if one was found.
    pub fn cube(&self) -> Option<&Cube> {
        match self {
            PodemOutcome::Test(c) => Some(c),
            _ => None,
        }
    }
}

/// Search statistics of one PODEM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodemStats {
    /// Number of PI decisions taken.
    pub decisions: usize,
    /// Number of backtracks (decision flips).
    pub backtracks: usize,
    /// Number of full two-plane implications (simulations).
    pub implications: usize,
}

/// A PODEM test generator bound to one combinational netlist.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_fault::{Fault, FaultSite, FaultList};
/// use fbist_atpg::{Podem, PodemOutcome};
///
/// let c17 = embedded::c17();
/// let podem = Podem::new(&c17)?;
/// let fault = FaultList::collapsed(&c17).get(fbist_fault::FaultId::from_index(0));
/// match podem.generate(fault) {
///     PodemOutcome::Test(cube) => assert_eq!(cube.width(), 5),
///     other => panic!("c17 faults are testable, got {other:?}"),
/// }
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Podem {
    netlist: Netlist,
    order: Vec<GateId>,
    rank: Vec<u32>,
    /// Flat fanout/fanin adjacency and per-gate kinds: the implication
    /// sweep's whole working set in contiguous arrays, instead of
    /// pointer-chasing through `Gate` structs (heap `Vec` + name `String`
    /// per gate).
    fo: CsrAdjacency,
    fi: CsrAdjacency,
    kinds: Vec<GateKind>,
    testability: Testability,
    config: PodemConfig,
    is_po: Vec<bool>,
    /// Good-plane values under the all-X input assignment — the start
    /// state of every search. Fault-independent, so it is computed once
    /// here and every [`PodemSession`] begins a fault with two plane
    /// `memcpy`s plus cone-local fault injection instead of a full
    /// two-plane gate sweep.
    baseline: Vec<Tv>,
    /// The SAT fault miter searches escalate to, if any.
    miter: Option<FaultMiter>,
}

/// Two-bit Kleene encoding of a three-valued net value: bit 0 = "can be
/// 0", bit 1 = "can be 1". `Zero = 0b01`, `One = 0b10`, `X = 0b11`
/// (`0b00` is never constructed).
///
/// The encoding exists for one reason: it makes the three-valued gate
/// evaluation in the implication sweep **branchless** ([`eval_tv`] folds
/// plain AND/OR words over the fanins), where the [`Trit`] `match`
/// version costs an unpredictable branch per fanin read. The
/// `tv_eval_matches_eval_trit` test pins the two evaluations against each
/// other for every gate kind and value combination.
type Tv = u8;
const TV_ZERO: Tv = 0b01;
const TV_ONE: Tv = 0b10;
const TV_X: Tv = 0b11;

#[cfg(test)]
fn tv_of(t: Trit) -> Tv {
    match t {
        Trit::Zero => TV_ZERO,
        Trit::One => TV_ONE,
        Trit::X => TV_X,
    }
}

#[inline]
fn tv_from_bool(b: bool) -> Tv {
    if b {
        TV_ONE
    } else {
        TV_ZERO
    }
}

/// Kleene NOT: swap the can-be-0 and can-be-1 bits.
#[inline]
fn tv_not(v: Tv) -> Tv {
    ((v & 1) << 1) | (v >> 1)
}

/// Branchless three-valued gate evaluation over fanin *positions*
/// (`read(p)` returns the encoded value of fanin `p`). Equals
/// [`eval_trit`](fbist_netlist::eval_trit) under the encoding for every
/// gate kind.
///
/// AND: can-be-0 = OR of fanin can-be-0 bits, can-be-1 = AND of can-be-1
/// bits — one `|=` and one `&=` per fanin, no branches. OR is the dual;
/// XOR composes pairwise with the 4-term product rule.
#[inline]
fn eval_tv(kind: GateKind, arity: usize, read: impl Fn(usize) -> Tv) -> Tv {
    #[inline]
    fn xor2(a: Tv, b: Tv) -> Tv {
        // c0 = a0 b0 | a1 b1 ; c1 = a0 b1 | a1 b0
        (((a & b) | ((a >> 1) & (b >> 1))) & 1) | ((((a & (b >> 1)) | ((a >> 1) & b)) & 1) << 1)
    }
    match kind {
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let mut or_acc: Tv = 0;
            let mut and_acc: Tv = 0b11;
            for p in 0..arity {
                let v = read(p);
                or_acc |= v;
                and_acc &= v;
            }
            match kind {
                GateKind::And => (or_acc & 0b01) | (and_acc & 0b10),
                GateKind::Nand => tv_not((or_acc & 0b01) | (and_acc & 0b10)),
                GateKind::Or => (or_acc & 0b10) | (and_acc & 0b01),
                _ => tv_not((or_acc & 0b10) | (and_acc & 0b01)),
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut r = TV_ZERO;
            for p in 0..arity {
                r = xor2(r, read(p));
            }
            if kind == GateKind::Xnor {
                tv_not(r)
            } else {
                r
            }
        }
        GateKind::Not => tv_not(read(0)),
        GateKind::Buff => read(0),
        GateKind::Const0 => TV_ZERO,
        GateKind::Const1 => TV_ONE,
        GateKind::Input | GateKind::Dff => {
            panic!("{kind} is a source; its value is assigned, not evaluated")
        }
    }
}

struct Planes {
    good: Vec<Tv>,
    faulty: Vec<Tv>,
}

impl Planes {
    /// `true` if the net provably carries a fault effect (D or D̄): both
    /// planes specified and different — exactly when `g ^ f == 0b11`.
    #[inline]
    fn has_d(&self, net: GateId) -> bool {
        (self.good[net.index()] ^ self.faulty[net.index()]) == 0b11
    }

    /// `true` if the net could still change (either plane unresolved).
    #[inline]
    fn fluid(&self, net: GateId) -> bool {
        self.good[net.index()] == TV_X || self.faulty[net.index()] == TV_X
    }
}

/// Per-search scratch: the fault's fanout cone and reusable buffers, so
/// the decision loop allocates nothing per implication — and, via
/// [`Search::rebind`], nothing per *fault* either beyond cone-bounded
/// work.
///
/// The *cone* is the fault origin plus its transitive fanouts — the only
/// nets whose faulty-plane value can ever differ from the good plane.
/// Outside it the faulty plane is a verbatim copy of the good plane, and
/// the D-frontier can only ever contain cone gates, so both the two-plane
/// simulation and the frontier scan are restricted to it (values and
/// decisions are bit-identical to the full-circuit sweep).
struct Search {
    /// Cone membership stamp: net `i` is in the current fault's cone iff
    /// `cone_mark[i] == cone_epoch` — restamping a new cone is O(cone),
    /// not O(netlist).
    cone_mark: Vec<u32>,
    cone_epoch: u32,
    seen: Vec<u32>,
    epoch: u32,
    /// Event bitset over topological ranks for incremental resimulation
    /// (empty between calls; see [`Podem::resimulate`]).
    pending: Vec<u64>,
    /// `is_d[i]` — net `i` currently carries a fault effect (D or D̄).
    /// Maintained by the resimulation so the D-frontier scan can probe
    /// only the fanouts of D nets instead of the whole cone.
    is_d: Vec<bool>,
    /// Nets that carried a D at some point (lazy-deleted: filter through
    /// `is_d` before use). Bounded by the cone size.
    d_list: Vec<u32>,
    in_d_list: Vec<bool>,
    /// Reusable candidate buffer for the frontier scan.
    cand: Vec<u32>,
    /// Reusable DFS stack (cone restamp and X-path probe).
    stack: Vec<GateId>,
    /// Old values of every plane write since [`Search::rebind`], oldest
    /// first. A decision records the trail length before its implication;
    /// rolling back to that mark restores the planes of the assignment
    /// without it (each mark holds the unique fixpoint of the PI
    /// assignment at that point). Each implication writes a net at most
    /// once, so the trail never exceeds #PIs × #gates entries.
    trail: Vec<Undo>,
}

/// One trail entry: a net and its plane values before a write.
#[derive(Clone, Copy)]
struct Undo {
    net: u32,
    good: Tv,
    faulty: Tv,
}

impl Search {
    fn new(n: usize) -> Search {
        Search {
            cone_mark: vec![0; n],
            cone_epoch: 0,
            seen: vec![0; n],
            epoch: 0,
            pending: vec![0; n.div_ceil(64)],
            is_d: vec![false; n],
            d_list: Vec::new(),
            in_d_list: vec![false; n],
            cand: Vec::new(),
            stack: Vec::new(),
            trail: Vec::new(),
        }
    }

    #[inline]
    fn in_cone(&self, i: usize) -> bool {
        self.cone_mark[i] == self.cone_epoch
    }

    /// Rebinds the scratch to `fault`: forgets the previous fault's D
    /// records (bounded by its cone) and restamps the new cone.
    fn rebind(&mut self, podem: &Podem, fault: Fault) {
        for &i in &self.d_list {
            self.is_d[i as usize] = false;
            self.in_d_list[i as usize] = false;
        }
        self.d_list.clear();
        self.trail.clear();
        if self.cone_epoch == u32::MAX {
            self.cone_mark.fill(0);
            self.cone_epoch = 0;
        }
        self.cone_epoch += 1;
        let origin = match fault.site() {
            FaultSite::GateOutput(g) => g,
            FaultSite::GateInput { gate, .. } => gate,
        };
        self.cone_mark[origin.index()] = self.cone_epoch;
        self.stack.clear();
        self.stack.push(origin);
        while let Some(g) = self.stack.pop() {
            for &fo in podem.fanouts_of(g.index()) {
                if self.cone_mark[fo.index()] != self.cone_epoch {
                    self.cone_mark[fo.index()] = self.cone_epoch;
                    self.stack.push(fo);
                }
            }
        }
    }

    /// Writes net `i`'s planes, logging the old values on the trail and
    /// recording the new D status (fault effects exist only in the cone).
    #[inline]
    fn write(&mut self, planes: &mut Planes, i: usize, good: Tv, faulty: Tv) {
        self.trail.push(Undo {
            net: i as u32,
            good: planes.good[i],
            faulty: planes.faulty[i],
        });
        planes.good[i] = good;
        planes.faulty[i] = faulty;
        if self.in_cone(i) {
            let d = (good ^ faulty) == 0b11;
            self.is_d[i] = d;
            if d && !self.in_d_list[i] {
                self.in_d_list[i] = true;
                self.d_list.push(i as u32);
            }
        }
    }

    /// Rolls the planes back to trail length `mark`, newest write first,
    /// with each net's D status. `d_list` needs no repair: a restored D
    /// was a D once before, so it is already listed.
    fn undo_to(&mut self, mark: usize, planes: &mut Planes) {
        for u in self.trail.drain(mark..).rev() {
            let i = u.net as usize;
            planes.good[i] = u.good;
            planes.faulty[i] = u.faulty;
            if self.cone_mark[i] == self.cone_epoch {
                self.is_d[i] = (u.good ^ u.faulty) == 0b11;
            }
        }
    }
}

impl Podem {
    /// Builds a PODEM engine for a combinational netlist (this includes
    /// computing SCOAP guidance).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] for sequential netlists and
    /// [`SimError::Netlist`] for invalid ones.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        Self::with_config(netlist, PodemConfig::default())
    }

    /// Builds a PODEM engine with explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`Podem::new`].
    pub fn with_config(netlist: &Netlist, config: PodemConfig) -> Result<Self, SimError> {
        if !netlist.is_combinational() {
            return Err(SimError::SequentialNetlist {
                dffs: netlist.dffs().len(),
            });
        }
        let order = netlist.levelize()?;
        let mut rank = vec![0u32; netlist.gate_count()];
        for (i, &g) in order.iter().enumerate() {
            rank[g.index()] = i as u32;
        }
        let mut is_po = vec![false; netlist.gate_count()];
        for &o in netlist.outputs() {
            is_po[o.index()] = true;
        }
        let fi = netlist.fanins_csr();
        let kinds = netlist.kinds();
        // the all-X good plane every search starts from (one sweep, ever)
        let mut baseline = vec![TV_X; netlist.gate_count()];
        for &id in &order {
            let idx = id.index();
            let kind = kinds[idx];
            if kind == GateKind::Input {
                continue;
            }
            let fanin = fi.of(idx);
            let v = eval_tv(kind, fanin.len(), |p| baseline[fanin[p].index()]);
            baseline[idx] = v;
        }
        Ok(Podem {
            netlist: netlist.clone(),
            order,
            rank,
            fo: netlist.fanouts_csr(),
            fi,
            kinds,
            testability: Testability::analyze(netlist)?,
            config,
            is_po,
            baseline,
            miter: None,
        })
    }

    /// Makes every search of this engine's sessions hand its fault to
    /// `miter`, the fault miter of this engine's netlist, at
    /// [`ESCALATE_AT`] backtracks: a proof ends the search `Untestable`, a
    /// model ends it with the model's cube, and an `Unknown` verdict lets
    /// the search continue.
    pub(crate) fn escalate_to_sat(&mut self, miter: FaultMiter) {
        self.miter = Some(miter);
    }

    /// Gate `i`'s fanins (CSR slice).
    #[inline]
    fn fanins_of(&self, i: usize) -> &[GateId] {
        self.fi.of(i)
    }

    /// Gate `i`'s fanouts (CSR slice).
    #[inline]
    fn fanouts_of(&self, i: usize) -> &[GateId] {
        self.fo.of(i)
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Generates a test for `fault`. See [`PodemOutcome`].
    ///
    /// Convenience wrapper that builds a one-shot [`PodemSession`]; callers
    /// targeting many faults should hold a session and reuse it. An engine
    /// built with [`Podem::new`] or [`Podem::with_config`] is pure PODEM:
    /// only the full ATPG flow escalates searches to the SAT check.
    pub fn generate(&self, fault: Fault) -> PodemOutcome {
        self.session().generate(fault)
    }

    /// Generates a test and reports search statistics (one-shot session).
    pub fn generate_with_stats(&self, fault: Fault) -> (PodemOutcome, PodemStats) {
        self.session().generate_with_stats(fault)
    }

    /// Creates a reusable search session.
    ///
    /// A session owns the per-search buffers (planes, cone stamps, event
    /// bitset, decision stack), so generating tests for many faults
    /// through one session costs cone-bounded rebinding per fault instead
    /// of `O(netlist)` allocations and a full two-plane sweep. Outcomes
    /// are bit-identical to one-shot [`Podem::generate`] calls: sessions
    /// only recycle memory, never search state.
    pub fn session(&self) -> PodemSession<'_> {
        let npis = self.netlist.inputs().len();
        let n = self.netlist.gate_count();
        PodemSession {
            podem: self,
            search: Search::new(n),
            planes: Planes {
                good: vec![TV_X; n],
                faulty: vec![TV_X; n],
            },
            pi: vec![Trit::X; npis],
            stack: Vec::new(),
            miter: None,
            #[cfg(test)]
            restores_checked: 0,
        }
    }

    /// The net whose good value must become `!stuck` to excite `fault`.
    fn excitation_net(&self, fault: Fault) -> GateId {
        match fault.site() {
            FaultSite::GateOutput(g) => g,
            FaultSite::GateInput { gate, pin } => self.netlist.gate(gate).fanin()[pin as usize],
        }
    }

    /// Incrementally re-propagates the planes after the PI at position
    /// `pos` was assigned `v`: event-driven re-evaluation through the
    /// pending rank bitset, exactly like the packed fault simulator's
    /// sweep. Only the region whose value actually changes is revisited.
    fn resimulate(&self, pos: usize, v: bool, fault: Fault, s: &mut Search, planes: &mut Planes) {
        let id = self.netlist.inputs()[pos];
        let i = id.index();
        let v = tv_from_bool(v);
        // the faulty plane of a stuck primary input never moves
        let fv = if fault.site() == FaultSite::GateOutput(id) {
            tv_from_bool(fault.stuck_value())
        } else {
            v
        };
        if planes.good[i] == v && planes.faulty[i] == fv {
            return;
        }
        s.write(planes, i, v, fv);
        let mut min_w = usize::MAX;
        let mut max_w = 0usize;
        for &fo in self.fanouts_of(i) {
            let r = self.rank[fo.index()] as usize;
            s.pending[r >> 6] |= 1u64 << (r & 63);
            min_w = min_w.min(r >> 6);
            max_w = max_w.max(r >> 6);
        }
        self.propagate_events(fault, s, planes, min_w, max_w);
    }

    /// Drains the pending-rank event bitset: re-evaluates enqueued gates
    /// in topological order, propagating further events only where a
    /// plane value actually changes. Shared by [`Podem::resimulate`] (PI
    /// reassignments) and [`PodemSession`]'s fault injection.
    fn propagate_events(
        &self,
        fault: Fault,
        s: &mut Search,
        planes: &mut Planes,
        min_w: usize,
        mut max_w: usize,
    ) {
        let stuck = tv_from_bool(fault.stuck_value());
        let mut w = min_w;
        while w <= max_w {
            let word = s.pending[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let b = word.trailing_zeros() as usize;
            s.pending[w] = word & (word - 1);
            let id = self.order[(w << 6) | b];
            let idx = id.index();
            let kind = self.kinds[idx];
            let fanin = self.fanins_of(idx);
            let ng = eval_tv(kind, fanin.len(), |p| planes.good[fanin[p].index()]);
            let nf = if !s.in_cone(idx) {
                ng
            } else if fault.site() == FaultSite::GateOutput(id) {
                stuck
            } else {
                match fault.site() {
                    // the branch-faulted gate reads one pin forced to the
                    // stuck value
                    FaultSite::GateInput { gate, pin } if gate == id => {
                        let pin = pin as usize;
                        eval_tv(kind, fanin.len(), |p| {
                            if p == pin {
                                stuck
                            } else {
                                planes.faulty[fanin[p].index()]
                            }
                        })
                    }
                    _ => eval_tv(kind, fanin.len(), |p| planes.faulty[fanin[p].index()]),
                }
            };
            if ng != planes.good[idx] || nf != planes.faulty[idx] {
                s.write(planes, idx, ng, nf);
                for &fo in self.fanouts_of(idx) {
                    let r = self.rank[fo.index()] as usize;
                    s.pending[r >> 6] |= 1u64 << (r & 63);
                    max_w = max_w.max(r >> 6);
                }
            }
        }
    }

    /// Injects `fault` into planes currently holding the all-X baseline in
    /// both planes: forces the faulty value at the fault origin and
    /// event-propagates the difference through the cone.
    ///
    /// Reaches exactly the values the old full two-plane sweep computed
    /// (the circuit is acyclic, so event-driven re-evaluation in rank
    /// order reaches the same fixpoint), but costs O(cone events), and
    /// nothing at all when the all-X faulty value equals the baseline.
    fn inject(&self, fault: Fault, s: &mut Search, planes: &mut Planes) {
        let stuck = tv_from_bool(fault.stuck_value());
        let origin = match fault.site() {
            FaultSite::GateOutput(g) => g,
            FaultSite::GateInput { gate, .. } => gate,
        };
        let idx = origin.index();
        let nf = match fault.site() {
            FaultSite::GateOutput(_) => stuck,
            FaultSite::GateInput { pin, .. } => {
                let fanin = self.fanins_of(idx);
                let pin = pin as usize;
                eval_tv(self.kinds[idx], fanin.len(), |p| {
                    if p == pin {
                        stuck
                    } else {
                        planes.faulty[fanin[p].index()]
                    }
                })
            }
        };
        if nf == planes.faulty[idx] {
            return;
        }
        s.write(planes, idx, planes.good[idx], nf);
        let mut min_w = usize::MAX;
        let mut max_w = 0usize;
        for &fo in self.fanouts_of(idx) {
            let r = self.rank[fo.index()] as usize;
            s.pending[r >> 6] |= 1u64 << (r & 63);
            min_w = min_w.min(r >> 6);
            max_w = max_w.max(r >> 6);
        }
        self.propagate_events(fault, s, planes, min_w, max_w);
    }

    /// The planes of `pi` computed from scratch: one full two-plane sweep
    /// in topological order, the oracle for trail rollbacks.
    #[cfg(test)]
    fn full_sweep(&self, pi: &[Trit], fault: Fault) -> Planes {
        let n = self.netlist.gate_count();
        let stuck = tv_from_bool(fault.stuck_value());
        let mut p = Planes {
            good: vec![TV_X; n],
            faulty: vec![TV_X; n],
        };
        for &id in &self.order {
            let idx = id.index();
            let kind = self.kinds[idx];
            let fanin = self.fanins_of(idx);
            let (good, faulty) = if kind == GateKind::Input {
                let pos = self
                    .netlist
                    .input_position(id)
                    .expect("combinational input");
                (tv_of(pi[pos]), tv_of(pi[pos]))
            } else {
                let good = eval_tv(kind, fanin.len(), |k| p.good[fanin[k].index()]);
                let faulty = eval_tv(kind, fanin.len(), |k| match fault.site() {
                    FaultSite::GateInput { gate, pin } if gate == id && k == pin as usize => stuck,
                    _ => p.faulty[fanin[k].index()],
                });
                (good, faulty)
            };
            p.good[idx] = good;
            p.faulty[idx] = if fault.site() == FaultSite::GateOutput(id) {
                stuck
            } else {
                faulty
            };
        }
        p
    }

    /// Picks the next objective `(net, value)`; `None` signals a conflict
    /// (fault unexcitable or unpropagatable under the current assignment).
    fn objective(
        &self,
        planes: &Planes,
        fault: Fault,
        search: &mut Search,
    ) -> Option<(GateId, bool)> {
        let stuck = fault.stuck_value();
        // 1. Excitation: the good value at the fault site must be !stuck.
        let site_net = self.excitation_net(fault);
        match planes.good[site_net.index()] {
            TV_X => return Some((site_net, !stuck)),
            v if v == tv_from_bool(stuck) => return None,
            _ => {}
        }

        // 2. Propagation: the lowest-observability D-frontier gate with an
        //    X-path to a PO. A frontier gate necessarily reads a net that
        //    currently carries D (or is the branch-faulted gate itself),
        //    so only the fanouts of live D nets are probed. They are
        //    sorted into ascending index order — the order the
        //    full-netlist scan used — and the (expensive) X-path check
        //    runs only when a gate would beat the current best; ties keep
        //    the earlier gate, so this picks exactly the gate the
        //    filter-then-min scan picked.
        search.cand.clear();
        for li in 0..search.d_list.len() {
            let net = search.d_list[li] as usize;
            if !search.is_d[net] {
                continue;
            }
            for &fo in self.fanouts_of(net) {
                search.cand.push(fo.index() as u32);
            }
        }
        if let FaultSite::GateInput { gate, .. } = fault.site() {
            search.cand.push(gate.index() as u32);
        }
        search.cand.sort_unstable();
        search.cand.dedup();
        let mut best_gate: Option<(u32, GateId)> = None;
        for ci in 0..search.cand.len() {
            let id = GateId::from_index(search.cand[ci] as usize);
            if !self.in_d_frontier(id, planes, fault) {
                continue;
            }
            let co = self.testability.co(id);
            if best_gate.is_some_and(|(c, _)| co >= c) {
                continue;
            }
            if self.x_path_to_po(id, planes, search) {
                best_gate = Some((co, id));
            }
        }
        let (_, gate) = best_gate?;
        let g = self.netlist.gate(gate);
        // Set one still-X input to the non-controlling value (XOR-family:
        // pick the cheaper polarity).
        let forced_pin = match fault.site() {
            FaultSite::GateInput { gate: fg, pin } if fg == gate => Some(pin as usize),
            _ => None,
        };
        let mut best: Option<(u32, GateId, bool)> = None;
        for (p, &f) in g.fanin().iter().enumerate() {
            // candidate inputs are the *fluid* ones: either plane still X.
            // (The good plane alone is not enough — with reconvergent fault
            // effects the good value can be fully determined while the
            // faulty plane still depends on unassigned PIs.)
            if Some(p) == forced_pin || !planes.fluid(f) {
                continue;
            }
            let val = match g.kind().controlling_value() {
                Some(c) => !c,
                None => self.testability.cc0(f) > self.testability.cc1(f),
            };
            let cost = self.testability.cc(f, val);
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, f, val));
            }
        }
        best.map(|(_, net, val)| (net, val))
    }

    /// `true` if the fault effect can still advance through `id` — the
    /// per-gate D-frontier membership test. A frontier gate necessarily has
    /// a fanin carrying D (or is the branch-faulted gate itself), and D
    /// values exist only inside the fault cone, so callers only probe cone
    /// gates.
    fn in_d_frontier(&self, id: GateId, planes: &Planes, fault: Fault) -> bool {
        let g = self.netlist.gate(id);
        let kind = g.kind();
        if kind == GateKind::Input || kind.is_state() || !planes.fluid(id) {
            return false;
        }
        if g.fanin().iter().any(|&f| planes.has_d(f)) {
            return true;
        }
        if let FaultSite::GateInput { gate, pin } = fault.site() {
            if gate == id {
                // the branch fault is excited iff the source net's good
                // value differs from the stuck value
                let src = g.fanin()[pin as usize];
                let gv = planes.good[src.index()];
                return gv != TV_X && gv != tv_from_bool(fault.stuck_value());
            }
        }
        false
    }

    /// `true` if some path of still-fluid nets leads from `from` to a
    /// primary output.
    fn x_path_to_po(&self, from: GateId, planes: &Planes, s: &mut Search) -> bool {
        s.epoch += 1;
        if s.epoch == 0 {
            s.seen.fill(0);
            s.epoch = 1;
        }
        s.stack.clear();
        s.stack.push(from);
        s.seen[from.index()] = s.epoch;
        while let Some(g) = s.stack.pop() {
            if self.is_po[g.index()] {
                return true;
            }
            for &fo in self.fanouts_of(g.index()) {
                if s.seen[fo.index()] != s.epoch && planes.fluid(fo) {
                    s.seen[fo.index()] = s.epoch;
                    s.stack.push(fo);
                }
            }
        }
        false
    }

    /// Maps an internal objective to a primary-input assignment by walking
    /// backward through X-valued nets, guided by SCOAP controllability.
    fn backtrace(&self, mut net: GateId, mut val: bool, planes: &Planes) -> Option<(usize, bool)> {
        loop {
            let g = self.netlist.gate(net);
            match g.kind() {
                GateKind::Input => {
                    // only an unassigned PI is a valid decision variable
                    if planes.good[net.index()] != TV_X {
                        return None;
                    }
                    return self.netlist.input_position(net).map(|p| (p, val));
                }
                GateKind::Const0 | GateKind::Const1 => return None,
                GateKind::Not => {
                    val = !val;
                    net = g.fanin()[0];
                }
                GateKind::Buff => {
                    net = g.fanin()[0];
                }
                GateKind::Dff => return None,
                kind => {
                    let v_needed = val ^ kind.is_inverting();
                    // walk through fluid nets (either plane X): a fluid net
                    // always has a fluid fanin, and a fluid PI is exactly an
                    // unassigned PI, so the walk terminates at a decision
                    // variable. Selection folds over the fluid fanins
                    // directly; `<` / `>=` replicate the first-min and
                    // last-max tie-breaks of the Iterator adapters.
                    let fluid = g.fanin().iter().copied().filter(|&f| planes.fluid(f));
                    let (next, next_val) = match kind.controlling_value() {
                        Some(c) if v_needed == c => {
                            // any single input at c decides: take the easiest
                            let mut best: Option<(u32, GateId)> = None;
                            for f in fluid {
                                let k = self.testability.cc(f, c);
                                if best.is_none_or(|(bk, _)| k < bk) {
                                    best = Some((k, f));
                                }
                            }
                            let (_, n) = best?;
                            (n, c)
                        }
                        Some(c) => {
                            // all inputs must be !c: attack the hardest first
                            let mut best: Option<(u32, GateId)> = None;
                            for f in fluid {
                                let k = self.testability.cc(f, !c);
                                if best.is_none_or(|(bk, _)| k >= bk) {
                                    best = Some((k, f));
                                }
                            }
                            let (_, n) = best?;
                            (n, !c)
                        }
                        None => {
                            // XOR-family: parity target; pick the easiest
                            // polarity of the easiest input (heuristic — the
                            // decision search guarantees correctness).
                            let mut best: Option<(u32, GateId)> = None;
                            for f in fluid {
                                let k = self.testability.cc0(f).min(self.testability.cc1(f));
                                if best.is_none_or(|(bk, _)| k < bk) {
                                    best = Some((k, f));
                                }
                            }
                            let (_, n) = best?;
                            let v = self.testability.cc1(n) < self.testability.cc0(n);
                            (n, v)
                        }
                    };
                    net = next;
                    val = next_val;
                }
            }
        }
    }
}

/// A reusable PODEM search session — see [`Podem::session`].
///
/// Holds every per-search buffer so a batch of faults shares one set of
/// O(netlist) allocations. Starting a fault costs two plane `memcpy`s
/// from the precomputed all-X baseline plus cone-bounded fault injection,
/// instead of the full two-plane sweep a cold start needs.
pub struct PodemSession<'p> {
    podem: &'p Podem,
    search: Search,
    planes: Planes,
    pi: Vec<Trit>,
    /// Decision stack, oldest first.
    stack: Vec<Decision>,
    /// The SAT check, opened at the first escalation.
    miter: Option<MiterSession<'p>>,
    /// Trail rollbacks checked against a from-scratch sweep.
    #[cfg(test)]
    restores_checked: usize,
}

/// One PI decision of the search.
#[derive(Clone, Copy)]
struct Decision {
    /// Position of the PI.
    pos: usize,
    /// Its current value.
    val: bool,
    /// Whether the other value was already tried.
    flipped: bool,
    /// Trail length before the decision's implication.
    mark: usize,
}

impl<'p> PodemSession<'p> {
    /// The engine this session searches with.
    pub fn podem(&self) -> &Podem {
        self.podem
    }

    /// Generates a test for `fault`. See [`PodemOutcome`].
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        self.generate_with_stats(fault).0
    }

    /// The outcome the SAT fault miter settles `fault` with, if the engine
    /// escalates and the check answers within its conflict budget.
    fn sat_outcome(&mut self, fault: Fault) -> Option<PodemOutcome> {
        let podem: &'p Podem = self.podem;
        let miter = podem.miter.as_ref()?;
        let session = self.miter.get_or_insert_with(|| miter.session());
        match session.check(fault) {
            SatVerdict::Untestable => Some(PodemOutcome::Untestable),
            SatVerdict::Testable => Some(PodemOutcome::Test(session.model_cube())),
            SatVerdict::Unknown => None,
        }
    }

    /// Asserts that the rolled-back planes and D flags equal a
    /// from-scratch sweep of the current PI assignment.
    #[cfg(test)]
    fn check_restored(&mut self, fault: Fault) {
        let want = self.podem.full_sweep(&self.pi, fault);
        assert!(
            want.good == self.planes.good && want.faulty == self.planes.faulty,
            "trail rollback diverged from a full sweep on {}",
            fault.describe(&self.podem.netlist)
        );
        for i in 0..want.good.len() {
            if self.search.in_cone(i) {
                assert_eq!(self.search.is_d[i], want.has_d(GateId::from_index(i)));
            }
        }
        self.restores_checked += 1;
    }

    /// Generates a test and reports search statistics.
    pub fn generate_with_stats(&mut self, fault: Fault) -> (PodemOutcome, PodemStats) {
        let podem = self.podem;
        let mut stats = PodemStats::default();

        // Rebind the reused buffers to this fault: all-X PIs, baseline
        // planes, fresh cone stamp, cone-local fault injection. Every
        // later PI change is propagated incrementally (identical values —
        // the circuit is acyclic, so event-driven re-evaluation in rank
        // order reaches the same fixpoint as a full sweep).
        self.pi.fill(Trit::X);
        self.stack.clear();
        self.planes.good.copy_from_slice(&podem.baseline);
        self.planes.faulty.copy_from_slice(&podem.baseline);
        self.search.rebind(podem, fault);
        podem.inject(fault, &mut self.search, &mut self.planes);

        loop {
            stats.implications += 1;
            if podem
                .netlist
                .outputs()
                .iter()
                .any(|&o| self.planes.has_d(o))
            {
                let mut cube = Cube::all_x(self.pi.len());
                for (k, &t) in self.pi.iter().enumerate() {
                    cube.set(k, t);
                }
                return (PodemOutcome::Test(cube), stats);
            }

            let objective = podem.objective(&self.planes, fault, &mut self.search);
            let next = objective.and_then(|(net, val)| podem.backtrace(net, val, &self.planes));
            let (pos, val) = match next {
                Some((pos, val)) => {
                    stats.decisions += 1;
                    self.stack.push(Decision {
                        pos,
                        val,
                        flipped: false,
                        mark: self.search.trail.len(),
                    });
                    (pos, val)
                }
                None => {
                    // conflict → backtrack: drop the exhausted decisions,
                    // roll the planes back to before the newest untried
                    // one, and flip it
                    let d = loop {
                        match self.stack.pop() {
                            Some(d) if !d.flipped => break d,
                            Some(d) => self.pi[d.pos] = Trit::X,
                            None => return (PodemOutcome::Untestable, stats),
                        }
                    };
                    stats.backtracks += 1;
                    if stats.backtracks > podem.config.backtrack_limit {
                        return (PodemOutcome::Aborted, stats);
                    }
                    if stats.backtracks == ESCALATE_AT {
                        if let Some(outcome) = self.sat_outcome(fault) {
                            return (outcome, stats);
                        }
                    }
                    self.pi[d.pos] = Trit::X;
                    self.search.undo_to(d.mark, &mut self.planes);
                    #[cfg(test)]
                    self.check_restored(fault);
                    self.stack.push(Decision {
                        val: !d.val,
                        flipped: true,
                        ..d
                    });
                    (d.pos, !d.val)
                }
            };
            self.pi[pos] = Trit::from_bool(val);
            podem.resimulate(pos, val, fault, &mut self.search, &mut self.planes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_fault::{reference, FaultList};
    use fbist_netlist::{bench, embedded, eval_trit};

    #[test]
    fn tv_eval_matches_eval_trit() {
        // the branchless two-bit evaluation must agree with the reference
        // three-valued evaluation on every (kind, values) combination of
        // up to 3 fanins
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let trits = [Trit::Zero, Trit::One, Trit::X];
        for kind in kinds {
            for n in 1..=3usize {
                for combo in 0..3usize.pow(n as u32) {
                    let vals: Vec<Trit> = (0..n)
                        .map(|i| trits[(combo / 3usize.pow(i as u32)) % 3])
                        .collect();
                    let expect = tv_of(eval_trit(kind, &vals));
                    let got = eval_tv(kind, n, |p| tv_of(vals[p]));
                    assert_eq!(got, expect, "{kind} {vals:?}");
                }
            }
        }
        for v in [Trit::Zero, Trit::One, Trit::X] {
            assert_eq!(
                eval_tv(GateKind::Not, 1, |_| tv_of(v)),
                tv_of(eval_trit(GateKind::Not, &[v]))
            );
            assert_eq!(eval_tv(GateKind::Buff, 1, |_| tv_of(v)), tv_of(v));
        }
        assert_eq!(eval_tv(GateKind::Const0, 0, |_| TV_X), TV_ZERO);
        assert_eq!(eval_tv(GateKind::Const1, 0, |_| TV_X), TV_ONE);
    }

    /// Every cube PODEM returns must detect its fault under both constant
    /// fills (the X-positions are genuinely don't-care).
    fn check_cube_detects(netlist: &Netlist, fault: Fault, cube: &Cube) {
        for fill in [false, true] {
            let p = cube.fill_const(fill);
            assert!(
                reference::naive_detects(netlist, fault, &p),
                "cube {cube} (fill {fill}) misses fault {}",
                fault.describe(netlist)
            );
        }
    }

    #[test]
    fn c17_all_faults_testable() {
        let n = embedded::c17();
        let podem = Podem::new(&n).unwrap();
        let faults = FaultList::full(&n);
        for (_, fault) in faults.iter() {
            match podem.generate(fault) {
                PodemOutcome::Test(cube) => check_cube_detects(&n, fault, &cube),
                other => panic!("{}: {other:?}", fault.describe(&n)),
            }
        }
    }

    #[test]
    fn adder_all_faults_testable() {
        let n = embedded::adder4();
        let podem = Podem::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let mut tested = 0;
        for (_, fault) in faults.iter() {
            match podem.generate(fault) {
                PodemOutcome::Test(cube) => {
                    check_cube_detects(&n, fault, &cube);
                    tested += 1;
                }
                other => panic!("{}: {other:?}", fault.describe(&n)),
            }
        }
        assert!(tested > 50);
    }

    #[test]
    fn redundant_fault_proven_untestable() {
        // y = OR(a, NOT(a)) ≡ 1: y stuck-at-1 is redundant.
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n";
        let n = bench::parse(src).unwrap();
        let podem = Podem::new(&n).unwrap();
        let y = n.find("y").unwrap();
        let f = Fault::stuck_at(FaultSite::GateOutput(y), true);
        assert_eq!(podem.generate(f), PodemOutcome::Untestable);
        // ...but stuck-at-0 there is testable by anything.
        let f0 = Fault::stuck_at(FaultSite::GateOutput(y), false);
        assert!(matches!(podem.generate(f0), PodemOutcome::Test(_)));
    }

    #[test]
    fn unobservable_fault_untestable() {
        // dead-end logic: z has no path to an output.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nz = OR(a, b)\n";
        let n = bench::parse(src).unwrap();
        let podem = Podem::new(&n).unwrap();
        let z = n.find("z").unwrap();
        let f = Fault::stuck_at(FaultSite::GateOutput(z), false);
        assert_eq!(podem.generate(f), PodemOutcome::Untestable);
    }

    #[test]
    fn branch_fault_cube_found() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = XOR(a, b)\ny = BUFF(a)\n";
        let n = bench::parse(src).unwrap();
        let podem = Podem::new(&n).unwrap();
        let x = n.find("x").unwrap();
        let f = Fault::stuck_at(FaultSite::GateInput { gate: x, pin: 0 }, false);
        match podem.generate(f) {
            PodemOutcome::Test(cube) => check_cube_detects(&n, f, &cube),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cube_leaves_irrelevant_inputs_x() {
        // 8 inputs, fault only depends on one AND cone of 2.
        let src = "\
INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nINPUT(g)\nINPUT(h)
OUTPUT(y)\nOUTPUT(z)
y = AND(a, b)
z = OR(c, d, e, f, g, h)
";
        let n = bench::parse(src).unwrap();
        let podem = Podem::new(&n).unwrap();
        let y = n.find("y").unwrap();
        let f = Fault::stuck_at(FaultSite::GateOutput(y), false);
        match podem.generate(f) {
            PodemOutcome::Test(cube) => {
                check_cube_detects(&n, f, &cube);
                assert!(cube.specified_count() <= 2, "cube {cube} over-specified");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_are_recorded() {
        let n = embedded::c17();
        let podem = Podem::new(&n).unwrap();
        let faults = FaultList::collapsed(&n);
        let (outcome, stats) =
            podem.generate_with_stats(faults.get(fbist_fault::FaultId::from_index(0)));
        assert!(matches!(outcome, PodemOutcome::Test(_)));
        assert!(stats.implications >= 1);
        assert!(stats.decisions >= 1);
    }

    /// Searches every collapsed fault of `n` at `budget` through one
    /// session, whose every backtrack checks the trail rollback against a
    /// full sweep. Returns the rollbacks checked and the faults aborted.
    fn check_rollbacks(n: &Netlist, budget: usize) -> (usize, usize) {
        let podem = Podem::with_config(
            n,
            PodemConfig {
                backtrack_limit: budget,
            },
        )
        .unwrap();
        let mut session = podem.session();
        let mut aborted = 0;
        for (_, fault) in FaultList::collapsed(n).iter() {
            match session.generate(fault) {
                PodemOutcome::Test(cube) => check_cube_detects(n, fault, &cube),
                PodemOutcome::Aborted => aborted += 1,
                PodemOutcome::Untestable => {}
            }
        }
        (session.restores_checked, aborted)
    }

    #[test]
    fn trail_rollback_equals_a_full_sweep() {
        let (c17, _) = check_rollbacks(&embedded::c17(), 1000);
        let (adder, _) = check_rollbacks(&embedded::adder4(), 1000);
        let profile = fbist_genbench::profile("c1908").unwrap().scaled(0.25);
        let (gen, aborted) = check_rollbacks(&fbist_genbench::generate(&profile, 1), 8);
        assert!(aborted > 0, "the genbench netlist must abort at budget 8");
        assert!(gen > 0, "no rollback checked (c17 {c17}, adder4 {adder})");
    }

    #[test]
    fn sat_completion_settles_every_search_that_backtracks() {
        // an escalating session returns every search a plain one ends
        // without backtracking unchanged; every other search ends at its
        // first backtrack with the miter's verdict: a proof only where the
        // plain search proves or aborts, a cube (that detects the fault
        // under both constant fills) only where it finds a test or aborts
        let profile = fbist_genbench::profile("c1908").unwrap().scaled(0.25);
        let n = fbist_genbench::generate(&profile, 1);
        let plain = Podem::with_config(
            &n,
            PodemConfig {
                backtrack_limit: 100,
            },
        )
        .unwrap();
        let mut escalating = plain.clone();
        escalating.escalate_to_sat(FaultMiter::new(&n).unwrap());
        let (mut p, mut e) = (plain.session(), escalating.session());
        let (mut sat_tests, mut settled_aborts) = (0, 0);
        for (_, fault) in FaultList::collapsed(&n).iter() {
            let (po, ps) = p.generate_with_stats(fault);
            let (eo, es) = e.generate_with_stats(fault);
            if ps.backtracks < ESCALATE_AT || es.backtracks > ESCALATE_AT {
                // no backtrack, or a spent conflict budget: plain PODEM
                assert_eq!((&eo, es), (&po, ps));
                continue;
            }
            match (&po, &eo) {
                (PodemOutcome::Untestable, PodemOutcome::Untestable) => {}
                (PodemOutcome::Test(_), PodemOutcome::Test(cube)) => {
                    check_cube_detects(&n, fault, cube);
                    sat_tests += 1;
                }
                (PodemOutcome::Aborted, PodemOutcome::Test(cube)) => {
                    check_cube_detects(&n, fault, cube);
                    settled_aborts += 1;
                }
                (PodemOutcome::Aborted, PodemOutcome::Untestable) => settled_aborts += 1,
                (po, eo) => panic!("{}: plain {po:?}, SAT {eo:?}", fault.describe(&n)),
            }
        }
        assert!(sat_tests > 0, "no test came from a SAT model");
        assert!(settled_aborts > 0, "no abort settled by the SAT check");
        // the public entry points never escalate
        assert!(plain.miter.is_none());
    }

    #[test]
    fn abort_on_tiny_budget() {
        // A reconvergent circuit where the first decisions usually need
        // revision; with a zero backtrack budget PODEM must abort rather
        // than loop. (If it finds a test without backtracking, that is
        // also acceptable — we only require termination.)
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nna = NOT(a)\nx = AND(a, b)\ny = AND(x, na)\n";
        let n = bench::parse(src).unwrap();
        let podem = Podem::with_config(&n, PodemConfig { backtrack_limit: 0 }).unwrap();
        let y = n.find("y").unwrap();
        // y is constant 0 (a & !a): y/0 is redundant; proving it requires
        // exhausting decisions, which costs backtracks → Aborted with 0.
        let f = Fault::stuck_at(FaultSite::GateOutput(y), false);
        let out = podem.generate(f);
        assert!(
            matches!(out, PodemOutcome::Aborted | PodemOutcome::Untestable),
            "{out:?}"
        );
    }
}
