//! Gate-level netlist representation for the functional-BIST tool chain.
//!
//! This crate provides the structural substrate of the workspace: a compact
//! gate-level intermediate representation ([`Netlist`]), the ISCAS `.bench`
//! interchange format ([`mod@bench`]), the full-scan transformation that turns a
//! sequential circuit into the combinational view tested by scan-based BIST
//! ([`scan`]), levelisation for the bit-parallel simulators, and a handful of
//! embedded real benchmark circuits ([`embedded`]).
//!
//! # Model
//!
//! Every gate drives exactly one net, so nets are identified with the
//! [`GateId`] of their driver — the classical representation used in the
//! ATPG and fault-simulation literature. Primary inputs are zero-fanin gates
//! of kind [`GateKind::Input`]; primary outputs are a designated list of
//! nets. D flip-flops are single-input gates ([`GateKind::Dff`]) whose
//! output is the `Q` net; the full-scan transform replaces them by
//! pseudo-input / pseudo-output pairs.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::{GateKind, Netlist};
//!
//! let mut n = Netlist::new("mux");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let s = n.add_input("s");
//! let ns = n.add_gate(GateKind::Not, "ns", vec![s])?;
//! let t0 = n.add_gate(GateKind::And, "t0", vec![a, ns])?;
//! let t1 = n.add_gate(GateKind::And, "t1", vec![b, s])?;
//! let y = n.add_gate(GateKind::Or, "y", vec![t0, t1])?;
//! n.add_output(y);
//! assert_eq!(n.gate_count(), 7);
//! assert!(n.validate().is_ok());
//! # Ok::<(), fbist_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod embedded;
mod gate;
mod netlist;
pub mod scan;
pub mod stats;
pub mod topo;

pub use gate::{
    eval_packed, eval_trit, eval_tv, tv_from_bool, tv_not, tv_of, GateKind, Tv, TV_ONE, TV_X,
    TV_ZERO,
};
pub use netlist::{CsrAdjacency, Gate, GateId, Netlist, NetlistError};
pub use scan::{full_scan, ScanView};
pub use stats::NetlistStats;
pub use topo::{cycle_path, cyclic_sccs};
