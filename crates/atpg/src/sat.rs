//! A small deterministic CDCL SAT solver for the fault-miter check.
//!
//! Conflict-driven clause learning in the MiniSat mould: two watched
//! literals with a blocker, first-UIP learning with local clause
//! minimisation, VSIDS variable activity, phase saving, Luby restarts and
//! a conflict budget. Clauses live in one flat `u32` arena (`len`, then
//! the literals), so a solver restored from a base copy with
//! [`Solver::restore`] reuses every buffer it already owns.
//!
//! Nothing here depends on hashing, time or thread count: VSIDS ties are
//! broken by the lower variable index, so the same clauses added in the
//! same order always take the same search, conflict for conflict.
//!
//! Only variables marked with [`Solver::set_decision`] are ever decided.
//! Unit propagation still runs over every clause, so an `Unsat` answer is
//! a refutation of the whole clause set whatever the marking; a `Sat`
//! answer is a model of it when every clause not yet satisfied can be
//! completed by the unmarked variables (the miter marks the whole
//! relevant part of the circuit, see `miter.rs`).

/// A literal: `2·var` is "var is true", `2·var + 1` is "var is false".
pub(crate) type Lit = u32;

/// The literal "`var` has value `value`".
#[inline]
pub(crate) fn lit(var: u32, value: bool) -> Lit {
    2 * var + u32::from(!value)
}

#[inline]
fn var_of(l: Lit) -> usize {
    (l >> 1) as usize
}

#[inline]
fn neg(l: Lit) -> Lit {
    l ^ 1
}

/// Per-variable value: false, true, or unassigned.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;
/// `reason` of a decision or a level-0 unit.
const NO_REASON: u32 = u32::MAX;
/// `heap_pos` of a variable outside the decision heap.
const NOT_IN_HEAP: u32 = u32::MAX;
/// Conflicts per Luby restart unit.
const RESTART_UNIT: u64 = 64;
/// VSIDS activity decay per conflict.
const DECAY: f64 = 0.95;

/// The answer of one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Answer {
    Sat,
    Unsat,
    /// The conflict budget ran out first.
    Unknown,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    /// Some other literal of the clause: when it is true the clause is
    /// satisfied and the arena is not touched.
    blocker: Lit,
}

/// The solver state. Clauses may only be added before [`Solver::solve`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Solver {
    /// Clause arena: at `cref`, the length, then the literals. The two
    /// watched literals are the first two.
    arena: Vec<u32>,
    /// `watches[l]`: clauses watching literal `l`, visited when `l`
    /// becomes false.
    watches: Vec<Vec<Watch>>,
    /// Unit clauses, asserted at level 0 when solving starts.
    units: Vec<Lit>,
    /// An empty clause was added.
    empty: bool,
    value: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    decision: Vec<bool>,
    /// Saved phase: the value a variable last had.
    phase: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    /// Binary max-heap of decision variables by (activity, lower index).
    heap: Vec<u32>,
    heap_pos: Vec<u32>,
    trail: Vec<Lit>,
    /// Trail length at the start of each decision level.
    trail_lim: Vec<u32>,
    qhead: usize,
    conflicts: u64,
    // conflict-analysis scratch
    seen: Vec<bool>,
    learnt: Vec<Lit>,
    to_clear: Vec<u32>,
}

impl Solver {
    /// An empty solver.
    pub(crate) fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Makes `self` an exact copy of `base`, reusing `self`'s buffers:
    /// after the first call of a session nothing is allocated unless
    /// `self` grows past its high-water mark.
    pub(crate) fn restore(&mut self, base: &Solver) {
        self.arena.clone_from(&base.arena);
        self.watches.clone_from(&base.watches);
        self.units.clone_from(&base.units);
        self.empty = base.empty;
        self.value.clone_from(&base.value);
        self.level.clone_from(&base.level);
        self.reason.clone_from(&base.reason);
        self.decision.clone_from(&base.decision);
        self.phase.clone_from(&base.phase);
        self.activity.clone_from(&base.activity);
        self.var_inc = base.var_inc;
        self.heap.clone_from(&base.heap);
        self.heap_pos.clone_from(&base.heap_pos);
        self.trail.clone_from(&base.trail);
        self.trail_lim.clone_from(&base.trail_lim);
        self.qhead = base.qhead;
        self.conflicts = base.conflicts;
        self.seen.clone_from(&base.seen);
        self.learnt.clone_from(&base.learnt);
        self.to_clear.clone_from(&base.to_clear);
    }

    /// Adds `count` variables, none of them a decision variable yet.
    pub(crate) fn add_vars(&mut self, count: usize) {
        let n = self.value.len() + count;
        self.value.resize(n, UNDEF);
        self.level.resize(n, 0);
        self.reason.resize(n, NO_REASON);
        self.decision.resize(n, false);
        self.phase.resize(n, false);
        self.activity.resize(n, 0.0);
        self.heap_pos.resize(n, NOT_IN_HEAP);
        self.seen.resize(n, false);
        self.watches.resize_with(2 * n, Vec::new);
    }

    /// Lets the search decide `var` (idempotent).
    pub(crate) fn set_decision(&mut self, var: u32) {
        let v = var as usize;
        if !self.decision[v] {
            self.decision[v] = true;
            self.heap_insert(var);
        }
    }

    /// Conflicts met so far.
    #[cfg(test)]
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The value of `var` after a `Sat` answer (`None`: not assigned).
    pub(crate) fn model_value(&self, var: u32) -> Option<bool> {
        match self.value[var as usize] {
            UNDEF => None,
            v => Some(v == TRUE),
        }
    }

    /// Adds a clause. Duplicate literals are merged and tautologies
    /// dropped; `lits` is used as scratch.
    pub(crate) fn add_clause(&mut self, lits: &mut Vec<Lit>) {
        debug_assert!(self.trail.is_empty(), "clauses are added before solving");
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0] == neg(w[1])) {
            return;
        }
        match lits.len() {
            0 => self.empty = true,
            1 => self.units.push(lits[0]),
            _ => {
                self.attach(lits);
            }
        }
    }

    /// Stores a clause of two or more literals and watches its first two.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        let cref = self.arena.len() as u32;
        self.arena.push(lits.len() as u32);
        self.arena.extend_from_slice(lits);
        self.watches[lits[0] as usize].push(Watch {
            cref,
            blocker: lits[1],
        });
        self.watches[lits[1] as usize].push(Watch {
            cref,
            blocker: lits[0],
        });
        cref
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> u8 {
        match self.value[var_of(l)] {
            UNDEF => UNDEF,
            v => v ^ (l & 1) as u8,
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = var_of(l);
        self.value[v] = u8::from(l & 1 == 0);
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation over the watch lists; returns a conflicting
    /// clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let false_lit = neg(self.trail[self.qhead]);
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit as usize]);
            let mut conflict = None;
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let c = w.cref as usize;
                let len = self.arena[c] as usize;
                // the false literal goes to position 1
                if self.arena[c + 1] == false_lit {
                    self.arena.swap(c + 1, c + 2);
                }
                let first = self.arena[c + 1];
                let watch = Watch {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first) == TRUE {
                    ws[j] = watch;
                    j += 1;
                    continue;
                }
                let replacement =
                    (2..len).find(|&k| self.lit_value(self.arena[c + 1 + k]) != FALSE);
                if let Some(k) = replacement {
                    let l = self.arena[c + 1 + k];
                    self.arena[c + 2] = l;
                    self.arena[c + 1 + k] = false_lit;
                    self.watches[l as usize].push(watch);
                    continue;
                }
                ws[j] = watch;
                j += 1;
                if self.lit_value(first) == FALSE {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.enqueue(first, w.cref);
                }
            }
            ws.truncate(j);
            self.watches[false_lit as usize] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP analysis of the conflicting clause `confl`: leaves the
    /// learnt clause in `self.learnt` (asserting literal first, a literal
    /// of the backjump level second) and returns the backjump level.
    fn analyze(&mut self, mut confl: u32) -> u32 {
        self.learnt.clear();
        self.learnt.push(0);
        let current = self.decision_level();
        let mut path = 0usize;
        let mut skip_first = false;
        let mut idx = self.trail.len();
        loop {
            let c = confl as usize;
            let len = self.arena[c] as usize;
            for k in usize::from(skip_first)..len {
                let q = self.arena[c + 1 + k];
                let v = var_of(q);
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v as u32);
                    if self.level[v] >= current {
                        path += 1;
                    } else {
                        self.learnt.push(q);
                    }
                }
            }
            let p = loop {
                idx -= 1;
                let p = self.trail[idx];
                if self.seen[var_of(p)] {
                    break p;
                }
            };
            self.seen[var_of(p)] = false;
            path -= 1;
            if path == 0 {
                self.learnt[0] = neg(p);
                break;
            }
            confl = self.reason[var_of(p)];
            skip_first = true;
        }

        // local minimisation: drop a literal whose reason's other literals
        // are all in the clause (or fixed at level 0)
        self.to_clear.clear();
        self.to_clear
            .extend(self.learnt[1..].iter().map(|&l| var_of(l) as u32));
        let mut keep = 1;
        for k in 1..self.learnt.len() {
            let l = self.learnt[k];
            let r = self.reason[var_of(l)];
            let redundant = r != NO_REASON && {
                let c = r as usize;
                let len = self.arena[c] as usize;
                (1..len).all(|m| {
                    let v = var_of(self.arena[c + 1 + m]);
                    self.seen[v] || self.level[v] == 0
                })
            };
            if !redundant {
                self.learnt[keep] = l;
                keep += 1;
            }
        }
        self.learnt.truncate(keep);
        for &v in &self.to_clear {
            self.seen[v as usize] = false;
        }

        if self.learnt.len() == 1 {
            return 0;
        }
        let mut best = 1;
        for k in 2..self.learnt.len() {
            if self.level[var_of(self.learnt[k])] > self.level[var_of(self.learnt[best])] {
                best = k;
            }
        }
        self.learnt.swap(1, best);
        self.level[var_of(self.learnt[1])]
    }

    /// Undoes every assignment above decision level `lvl`.
    fn backjump(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let lim = self.trail_lim[lvl as usize] as usize;
        for k in (lim..self.trail.len()).rev() {
            let l = self.trail[k];
            let v = var_of(l);
            self.phase[v] = l & 1 == 0;
            self.value[v] = UNDEF;
            self.reason[v] = NO_REASON;
            if self.decision[v] && self.heap_pos[v] == NOT_IN_HEAP {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = lim;
    }

    /// Searches for a model of the clauses, giving up after `budget`
    /// conflicts. Call once per clause set.
    pub(crate) fn solve(&mut self, budget: u64) -> Answer {
        if self.empty {
            return Answer::Unsat;
        }
        for k in 0..self.units.len() {
            let l = self.units[k];
            match self.lit_value(l) {
                FALSE => return Answer::Unsat,
                TRUE => {}
                _ => self.enqueue(l, NO_REASON),
            }
        }
        let mut restart = 1u64;
        let mut until_restart = luby(restart) * RESTART_UNIT;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                if self.decision_level() == 0 {
                    return Answer::Unsat;
                }
                if self.conflicts >= budget {
                    return Answer::Unknown;
                }
                let lvl = self.analyze(confl);
                self.backjump(lvl);
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.enqueue(asserting, NO_REASON);
                } else {
                    let learnt = std::mem::take(&mut self.learnt);
                    let cref = self.attach(&learnt);
                    self.learnt = learnt;
                    self.enqueue(asserting, cref);
                }
                self.var_inc /= DECAY;
                until_restart = until_restart.saturating_sub(1);
                continue;
            }
            if until_restart == 0 {
                restart += 1;
                until_restart = luby(restart) * RESTART_UNIT;
                self.backjump(0);
            }
            let Some(v) = self.pick_branch() else {
                return Answer::Sat;
            };
            self.trail_lim.push(self.trail.len() as u32);
            let l = lit(v, self.phase[v as usize]);
            self.enqueue(l, NO_REASON);
        }
    }

    /// The unassigned decision variable of highest activity (lowest index
    /// among equals).
    fn pick_branch(&mut self) -> Option<u32> {
        while let Some(&v) = self.heap.first() {
            self.heap_remove_top();
            if self.value[v as usize] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    fn bump(&mut self, var: u32) {
        let v = var as usize;
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v] != NOT_IN_HEAP {
            self.heap_up(self.heap_pos[v] as usize);
        }
    }

    /// Heap order: higher activity first, then lower index.
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_insert(&mut self, var: u32) {
        self.heap_pos[var as usize] = self.heap.len() as u32;
        self.heap.push(var);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_remove_top(&mut self) {
        let top = self.heap.swap_remove(0);
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap_pos[self.heap[0] as usize] = 0;
            self.heap_down(0);
        }
    }

    fn heap_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.before(v, p) {
                break;
            }
            self.heap[i] = p;
            self.heap_pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn heap_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.before(c, v) {
                break;
            }
            self.heap[i] = c;
            self.heap_pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }
}

/// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ... (1-based).
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A solver over `vars` decision variables and `clauses` given as
    /// signed 1-based DIMACS literals.
    fn solver(vars: usize, clauses: &[Vec<i32>]) -> Solver {
        let mut s = Solver::new();
        s.add_vars(vars);
        for v in 0..vars as u32 {
            s.set_decision(v);
        }
        for c in clauses {
            let mut lits: Vec<Lit> = c
                .iter()
                .map(|&d| lit(d.unsigned_abs() - 1, d > 0))
                .collect();
            s.add_clause(&mut lits);
        }
        s
    }

    fn satisfied(clauses: &[Vec<i32>], model: impl Fn(u32) -> bool) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|&d| model(d.unsigned_abs() - 1) == (d > 0)))
    }

    #[test]
    fn luby_sequence() {
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    /// Pigeonhole PHP(p, h): p pigeons, h holes, variable `x(i, j)` =
    /// pigeon i sits in hole j.
    fn pigeonhole(p: usize, h: usize) -> Vec<Vec<i32>> {
        let x = |i: usize, j: usize| (i * h + j + 1) as i32;
        let mut clauses: Vec<Vec<i32>> =
            (0..p).map(|i| (0..h).map(|j| x(i, j)).collect()).collect();
        for j in 0..h {
            for a in 0..p {
                for b in a + 1..p {
                    clauses.push(vec![-x(a, j), -x(b, j)]);
                }
            }
        }
        clauses
    }

    #[test]
    fn pigeonhole_4_into_3_is_unsat() {
        let mut s = solver(12, &pigeonhole(4, 3));
        assert_eq!(s.solve(u64::MAX), Answer::Unsat);
        // and 3 pigeons fit into 3 holes
        let clauses = pigeonhole(3, 3);
        let mut s = solver(9, &clauses);
        assert_eq!(s.solve(u64::MAX), Answer::Sat);
        assert!(satisfied(&clauses, |v| s.model_value(v) == Some(true)));
    }

    #[test]
    fn random_3cnf_agrees_with_brute_force() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut sat, mut unsat) = (0, 0);
        for round in 0..400 {
            let vars = 3 + round % 10; // 3..=12
            let count = (vars as f64 * (3.0 + (round % 5) as f64 * 0.5)) as usize;
            let clauses: Vec<Vec<i32>> = (0..count)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = (next() % vars as u64) as i32 + 1;
                            if next() & 1 == 0 {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            let brute = (0..1u32 << vars).any(|m| satisfied(&clauses, |v| (m >> v) & 1 == 1));
            let mut s = solver(vars, &clauses);
            match s.solve(u64::MAX) {
                Answer::Sat => {
                    assert!(
                        brute,
                        "round {round}: SAT claimed on an unsatisfiable formula"
                    );
                    assert!(
                        satisfied(&clauses, |v| s.model_value(v) == Some(true)),
                        "round {round}: the model violates a clause"
                    );
                    sat += 1;
                }
                Answer::Unsat => {
                    assert!(
                        !brute,
                        "round {round}: UNSAT claimed on a satisfiable formula"
                    );
                    unsat += 1;
                }
                Answer::Unknown => panic!("round {round}: unbounded solve gave up"),
            }
        }
        assert!(
            sat > 50 && unsat > 50,
            "{sat} sat / {unsat} unsat: too lopsided"
        );
    }

    #[test]
    fn spent_budget_is_unknown_at_the_same_conflict() {
        // PHP(7, 6) needs far more than 50 conflicts
        let clauses = pigeonhole(7, 6);
        let run = || {
            let mut s = solver(42, &clauses);
            (s.solve(50), s.conflicts(), s.trail.clone())
        };
        let first = run();
        assert_eq!(first.0, Answer::Unknown);
        assert_eq!(first.1, 50);
        for _ in 0..3 {
            assert_eq!(run(), first, "a budgeted search must replay exactly");
        }
    }

    #[test]
    fn restore_replays_the_base_search() {
        let clauses = pigeonhole(5, 4);
        let base = solver(20, &clauses);
        let mut work = Solver::new();
        let mut answers = Vec::new();
        for _ in 0..3 {
            work.restore(&base);
            answers.push((work.solve(u64::MAX), work.conflicts()));
        }
        assert_eq!(answers[0].0, Answer::Unsat);
        assert!(answers.iter().all(|a| *a == answers[0]));
    }
}
