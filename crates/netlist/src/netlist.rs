//! The netlist data structure.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::gate::GateKind;

/// Identifier of a gate and, equivalently, of the net it drives.
///
/// Ids are dense indices into the owning [`Netlist`]'s gate table; they are
/// only meaningful relative to that netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Only valid for indices obtained from
    /// the same netlist.
    #[inline]
    pub fn from_index(i: usize) -> GateId {
        GateId(i as u32)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One gate instance: a kind, its fanin nets and a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    kind: GateKind,
    fanin: Vec<GateId>,
    name: String,
}

impl Gate {
    /// The gate's Boolean function.
    #[inline]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The fanin nets (driver ids), in pin order.
    #[inline]
    pub fn fanin(&self) -> &[GateId] {
        &self.fanin
    }

    /// The gate / net name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A per-gate adjacency (fanins or fanouts) flattened into CSR form:
/// `of(i)` is one contiguous slice of a single allocation, so inner-loop
/// sweeps (fault propagation, PODEM implication) walk flat memory instead
/// of pointer-chasing a `Vec` per gate.
///
/// Built by [`Netlist::fanouts_csr`] / [`Netlist::fanins_csr`]; the slice
/// contents and order match [`Netlist::fanouts`] and the gates' fanin
/// lists exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrAdjacency {
    start: Vec<u32>,
    flat: Vec<GateId>,
}

impl CsrAdjacency {
    /// Gate `i`'s adjacent gates.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn of(&self, i: usize) -> &[GateId] {
        &self.flat[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Errors produced while building or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate name was used twice.
    DuplicateName(String),
    /// A fanin id does not refer to an existing gate.
    DanglingFanin {
        /// The gate whose fanin is broken.
        gate: String,
        /// The offending id.
        fanin: GateId,
    },
    /// The fanin count is invalid for the gate kind.
    BadArity {
        /// The gate with the wrong number of fanins.
        gate: String,
        /// Its kind.
        kind: GateKind,
        /// The number of fanins it was given.
        got: usize,
    },
    /// The combinational part of the netlist contains a cycle.
    CombinationalCycle {
        /// A gate participating in the cycle.
        gate: String,
        /// The full cycle as gate names: each gate feeds the next, and the
        /// last feeds the first. Empty when the path was not recovered.
        cycle: Vec<String>,
    },
    /// A referenced name does not exist (reported by the `.bench` parser).
    UnknownName(String),
    /// An output refers to a gate id outside the netlist.
    DanglingOutput(GateId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate gate name {n:?}"),
            NetlistError::DanglingFanin { gate, fanin } => {
                write!(f, "gate {gate:?} has dangling fanin {fanin}")
            }
            NetlistError::BadArity { gate, kind, got } => {
                write!(
                    f,
                    "gate {gate:?} of kind {kind} has invalid fanin count {got}"
                )
            }
            NetlistError::CombinationalCycle { gate, cycle } => {
                write!(f, "combinational cycle through gate {gate:?}")?;
                if !cycle.is_empty() {
                    let path = cycle.join(" -> ");
                    write!(f, ": {path} -> {}", cycle[0])?;
                }
                Ok(())
            }
            NetlistError::UnknownName(n) => write!(f, "reference to unknown name {n:?}"),
            NetlistError::DanglingOutput(id) => write!(f, "output refers to unknown gate {id}"),
        }
    }
}

impl Error for NetlistError {}

/// A gate-level netlist.
///
/// See the [crate-level documentation](crate) for the modelling conventions
/// and a construction example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    dffs: Vec<GateId>,
    by_name: HashMap<String, GateId>,
}

impl Netlist {
    /// Creates an empty netlist with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already in use (inputs are typically added
    /// first; use [`Netlist::add_gate`] for fallible insertion).
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        self.add_gate(GateKind::Input, name, Vec::new())
            .expect("input name already in use")
    }

    /// Adds a gate and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken,
    /// [`NetlistError::BadArity`] if the fanin count is invalid for `kind`,
    /// or [`NetlistError::DanglingFanin`] if a fanin id is out of range.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        name: impl Into<String>,
        fanin: Vec<GateId>,
    ) -> Result<GateId, NetlistError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        let (lo, hi) = kind.fanin_arity();
        if fanin.len() < lo || fanin.len() > hi {
            return Err(NetlistError::BadArity {
                gate: name,
                kind,
                got: fanin.len(),
            });
        }
        for &f in &fanin {
            if f.index() >= self.gates.len() {
                return Err(NetlistError::DanglingFanin {
                    gate: name,
                    fanin: f,
                });
            }
        }
        let id = GateId(self.gates.len() as u32);
        self.by_name.insert(name.clone(), id);
        if kind == GateKind::Input {
            self.inputs.push(id);
        }
        if kind == GateKind::Dff {
            self.dffs.push(id);
        }
        self.gates.push(Gate { kind, fanin, name });
        Ok(id)
    }

    /// Adds a D flip-flop whose `D` pin is connected later with
    /// [`Netlist::connect_dff`]. This two-phase construction is what makes
    /// sequential feedback loops (`q = DFF(d); d = NOT(q)`) expressible.
    ///
    /// A netlist containing a still-unconnected DFF fails
    /// [`Netlist::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_dff(&mut self, name: impl Into<String>) -> Result<GateId, NetlistError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = GateId(self.gates.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.dffs.push(id);
        self.gates.push(Gate {
            kind: GateKind::Dff,
            fanin: Vec::new(),
            name,
        });
        Ok(id)
    }

    /// Connects the `D` pin of a flip-flop created by [`Netlist::add_dff`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if `dff` is not an unconnected
    /// DFF, or [`NetlistError::DanglingFanin`] if `d` is out of range.
    pub fn connect_dff(&mut self, dff: GateId, d: GateId) -> Result<(), NetlistError> {
        if d.index() >= self.gates.len() {
            return Err(NetlistError::DanglingFanin {
                gate: self.gates[dff.index()].name.clone(),
                fanin: d,
            });
        }
        let g = &mut self.gates[dff.index()];
        if g.kind != GateKind::Dff || !g.fanin.is_empty() {
            return Err(NetlistError::BadArity {
                gate: g.name.clone(),
                kind: g.kind,
                got: g.fanin.len(),
            });
        }
        g.fanin.push(d);
        Ok(())
    }

    /// Declares `id` as a primary output. A net may be listed as output more
    /// than once only if the caller insists; duplicates are ignored.
    pub fn add_output(&mut self, id: GateId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Number of gates (including inputs and flip-flops).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of *logic* gates (excluding inputs, constants and flip-flops),
    /// the count conventionally reported for the ISCAS benchmarks.
    pub fn logic_gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !g.kind.is_source() && !g.kind.is_state())
            .count()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks a gate up by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// D flip-flops, in declaration order.
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// `true` if the netlist has no state elements.
    pub fn is_combinational(&self) -> bool {
        self.dffs.is_empty()
    }

    /// Iterates over `(id, gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Position of `id` in the primary-input list, if it is an input.
    pub fn input_position(&self, id: GateId) -> Option<usize> {
        self.inputs.iter().position(|&i| i == id)
    }

    /// Fanout adjacency: for every net, the list of gates it feeds
    /// (each occurrence of a multiple connection listed once per pin).
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &f in &g.fanin {
                out[f.index()].push(GateId(i as u32));
            }
        }
        out
    }

    /// The fanout adjacency of [`fanouts`](Self::fanouts) in CSR form.
    pub fn fanouts_csr(&self) -> CsrAdjacency {
        let fanouts = self.fanouts();
        let mut start = Vec::with_capacity(self.gates.len() + 1);
        let mut flat = Vec::new();
        start.push(0u32);
        for fos in &fanouts {
            flat.extend_from_slice(fos);
            start.push(flat.len() as u32);
        }
        CsrAdjacency { start, flat }
    }

    /// The fanin adjacency (each gate's ordered input pins) in CSR form.
    pub fn fanins_csr(&self) -> CsrAdjacency {
        let mut start = Vec::with_capacity(self.gates.len() + 1);
        let mut flat = Vec::new();
        start.push(0u32);
        for g in &self.gates {
            flat.extend_from_slice(&g.fanin);
            start.push(flat.len() as u32);
        }
        CsrAdjacency { start, flat }
    }

    /// Every gate's kind, indexed by gate id — a flat copy for inner
    /// loops that should not touch the full [`Gate`] structs.
    pub fn kinds(&self) -> Vec<GateKind> {
        self.gates.iter().map(|g| g.kind()).collect()
    }

    /// Computes a topological order of the *combinational* gates: sources
    /// (inputs, constants, DFF outputs) first, then every logic gate after
    /// all of its fanins. DFF gates themselves are placed at the end (their
    /// `D` input is a combinational sink).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// part is cyclic.
    pub fn levelize(&self) -> Result<Vec<GateId>, NetlistError> {
        let n = self.gates.len();
        // Kahn's algorithm over the combinational dependence graph. A gate
        // is a *source* for evaluation purposes if its value is assigned
        // rather than computed: primary inputs, constants, and DFF outputs
        // (the Q value comes from the previous cycle). The DFF gate itself
        // therefore never appears as a dependence of anything.
        let is_assigned = |k: GateKind| -> bool { k.is_source() || k.is_state() };
        let succ = self.comb_succ();
        let mut indeg = vec![0usize; n];
        for s in &succ {
            for &w in s {
                indeg[w as usize] += 1;
            }
        }
        let mut order: Vec<GateId> = Vec::with_capacity(n);
        let mut queue: Vec<u32> = Vec::new();
        for (i, g) in self.gates.iter().enumerate() {
            if is_assigned(g.kind) {
                order.push(GateId(i as u32));
            } else if indeg[i] == 0 {
                queue.push(i as u32);
            }
        }
        queue.sort_unstable(); // deterministic tie-break by id
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            order.push(GateId(g));
            for &s in &succ[g as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() != n {
            // Recover the full cycle path via the shared SCC pass so the
            // error names every gate on it, not just one.
            let cycles = self.combinational_cycles();
            let cycle: Vec<String> = cycles
                .first()
                .map(|c| {
                    c.iter()
                        .map(|&g| self.gates[g.index()].name.clone())
                        .collect()
                })
                .unwrap_or_default();
            let culprit = cycle.first().cloned().unwrap_or_else(|| {
                (0..n)
                    .find(|&i| !is_assigned(self.gates[i].kind) && indeg[i] > 0)
                    .map(|i| self.gates[i].name.clone())
                    .unwrap_or_default()
            });
            return Err(NetlistError::CombinationalCycle {
                gate: culprit,
                cycle,
            });
        }
        Ok(order)
    }

    /// The combinational dependence graph as successor lists: an edge
    /// `d → g` for every logic gate `g` reading a net `d` that is itself
    /// computed (not a primary input, constant, or DFF output).
    fn comb_succ(&self) -> Vec<Vec<u32>> {
        let is_assigned = |k: GateKind| -> bool { k.is_source() || k.is_state() };
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            if is_assigned(g.kind) {
                continue;
            }
            for &f in &g.fanin {
                if is_assigned(self.gates[f.index()].kind) {
                    continue;
                }
                succ[f.index()].push(i as u32);
            }
        }
        succ
    }

    /// Every combinational cycle in the netlist, one representative
    /// (shortest) cycle per cyclic strongly connected component, as gate-id
    /// paths where each gate feeds the next and the last feeds the first.
    ///
    /// Empty for a valid (acyclic) netlist. Sequential feedback through
    /// flip-flops is not a combinational cycle.
    pub fn combinational_cycles(&self) -> Vec<Vec<GateId>> {
        let succ = self.comb_succ();
        crate::topo::cyclic_sccs(&succ)
            .iter()
            .map(|comp| {
                crate::topo::cycle_path(&succ, comp)
                    .into_iter()
                    .map(|i| GateId(i as u32))
                    .collect()
            })
            .collect()
    }

    /// Validates the netlist: arities, output references, and combinational
    /// acyclicity.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for g in &self.gates {
            let (lo, hi) = g.kind.fanin_arity();
            if g.fanin.len() < lo || g.fanin.len() > hi {
                return Err(NetlistError::BadArity {
                    gate: g.name.clone(),
                    kind: g.kind,
                    got: g.fanin.len(),
                });
            }
        }
        for &o in &self.outputs {
            if o.index() >= self.gates.len() {
                return Err(NetlistError::DanglingOutput(o));
            }
        }
        self.levelize()?;
        Ok(())
    }

    /// The transitive fanout cone of `root`: every gate whose value can be
    /// affected by the net `root`, **including** `root` itself, in
    /// topological order consistent with `order` (pass the result of
    /// [`Netlist::levelize`]). Cut at DFF boundaries.
    pub fn fanout_cone(&self, root: GateId, order: &[GateId]) -> Vec<GateId> {
        let mut in_cone = vec![false; self.gates.len()];
        in_cone[root.index()] = true;
        let mut cone = Vec::new();
        for &id in order {
            let g = &self.gates[id.index()];
            let hit = in_cone[id.index()]
                || (!g.kind.is_source()
                    && !g.kind.is_state()
                    && g.fanin.iter().any(|f| in_cone[f.index()]));
            if hit {
                in_cone[id.index()] = true;
                cone.push(id);
            }
        }
        cone
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} DFFs, {} gates",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.dffs.len(),
            self.logic_gate_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> Netlist {
        let mut n = Netlist::new("and2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, "y", vec![a, b]).unwrap();
        n.add_output(y);
        n
    }

    #[test]
    fn build_and_query() {
        let n = and2();
        assert_eq!(n.gate_count(), 3);
        assert_eq!(n.logic_gate_count(), 1);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert!(n.is_combinational());
        assert_eq!(n.find("y"), Some(GateId(2)));
        assert_eq!(n.find("zzz"), None);
        assert_eq!(n.gate(GateId(2)).kind(), GateKind::And);
        assert_eq!(n.input_position(GateId(1)), Some(1));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut n = and2();
        let e = n.add_gate(GateKind::Not, "y", vec![GateId(0)]);
        assert!(matches!(e, Err(NetlistError::DuplicateName(_))));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut n = and2();
        let e = n.add_gate(GateKind::Not, "n1", vec![GateId(0), GateId(1)]);
        assert!(matches!(e, Err(NetlistError::BadArity { .. })));
        let e = n.add_gate(GateKind::And, "n2", vec![]);
        assert!(matches!(e, Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn dangling_fanin_rejected() {
        let mut n = and2();
        let e = n.add_gate(GateKind::Not, "n1", vec![GateId(99)]);
        assert!(matches!(e, Err(NetlistError::DanglingFanin { .. })));
    }

    #[test]
    fn levelize_orders_fanins_first() {
        let n = and2();
        let order = n.levelize().unwrap();
        let pos: Vec<usize> = (0..3)
            .map(|i| order.iter().position(|&g| g == GateId(i)).unwrap())
            .collect();
        assert!(pos[0] < pos[2] && pos[1] < pos[2]);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn fanouts_computed() {
        let n = and2();
        let fo = n.fanouts();
        assert_eq!(fo[0], vec![GateId(2)]);
        assert_eq!(fo[2], Vec::<GateId>::new());
    }

    #[test]
    fn dff_breaks_cycles() {
        // q = DFF(d); d = NOT(q) — a valid sequential loop.
        let mut n = Netlist::new("toggle");
        // create placeholder input to feed first NOT before DFF exists:
        // build order: dff after not is impossible (not needs dff id), so
        // build: dff with temporary fanin then fix? Instead: not(q) requires
        // q first; dff requires d first. Use two steps: add input clk-less
        // trick: add NOT gate on a const first.
        let c = n.add_gate(GateKind::Const0, "c0", vec![]).unwrap();
        let d = n.add_gate(GateKind::Not, "d", vec![c]).unwrap();
        let q = n.add_gate(GateKind::Dff, "q", vec![d]).unwrap();
        let y = n.add_gate(GateKind::Buff, "y", vec![q]).unwrap();
        n.add_output(y);
        assert!(!n.is_combinational());
        assert_eq!(n.dffs().len(), 1);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn combinational_cycle_detected() {
        // Build a cycle by hand: a = AND(b, i); b = BUFF(a). We must create
        // ids before referencing, so create with a self-loop via two passes:
        // use add_gate with forward reference — not allowed. Emulate with a
        // buffer chain then mutate? The public API prevents cycles by
        // construction (ids must exist), which is itself worth asserting.
        let mut n = Netlist::new("nocycle");
        let i = n.add_input("i");
        let e = n.add_gate(GateKind::Buff, "b", vec![GateId(5)]);
        assert!(e.is_err());
        let b = n.add_gate(GateKind::Buff, "b", vec![i]).unwrap();
        n.add_output(b);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn fanout_cone_contains_root_and_sinks() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::And, "x", vec![a, b]).unwrap();
        let y = n.add_gate(GateKind::Not, "y", vec![x]).unwrap();
        let z = n.add_gate(GateKind::Or, "z", vec![a, y]).unwrap();
        n.add_output(z);
        let order = n.levelize().unwrap();
        let cone = n.fanout_cone(x, &order);
        assert!(cone.contains(&x) && cone.contains(&y) && cone.contains(&z));
        assert!(!cone.contains(&b));
        let cone_b = n.fanout_cone(b, &order);
        assert!(cone_b.contains(&x) && cone_b.contains(&z));
    }

    #[test]
    fn display_summary() {
        let n = and2();
        let s = n.to_string();
        assert!(s.contains("2 inputs"));
        assert!(s.contains("1 gates"));
    }
}
