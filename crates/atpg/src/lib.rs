//! Deterministic test pattern generation (ATPG) for stuck-at faults.
//!
//! The paper derives its initial reseeding from "the test set `ATPGTS`
//! provided by a commercial gate-level ATPG tool" (TestGen). This crate is
//! that tool's stand-in:
//!
//! * [`testability`] — SCOAP-style controllability/observability estimates
//!   used to guide search (now computed by `fbist-analyze`, the shared
//!   home for netlist measures, and re-exported here);
//! * [`Podem`] — the PODEM algorithm (Goel 1981) over a two-plane
//!   (good/faulty) three-valued simulation, complete for combinational
//!   stuck-at faults: returns a test cube, a proof of untestability, or an
//!   abort after a backtrack budget;
//! * [`FaultMiter`] — a SAT fault miter over the crate's CDCL solver that
//!   decides every fault within a conflict budget: a proof of
//!   untestability, or a model whose test cube detects the fault. It also
//!   proves nets constant;
//! * [`prove_redundancy`] — every fault of a circuit classified as
//!   detected, untestable or unknown by one [`Atpg`] run, plus its
//!   constant nets: the redundancy report of `fbist check`;
//! * [`Atpg`] — the full engine: a random-pattern phase with fault
//!   dropping, a static untestability pre-pass on the survivors that
//!   starts from the nets the random phase never toggled and the miter
//!   proves constant, a deterministic PODEM phase that hands every search
//!   reaching its first backtrack to the fault miter, and reverse-order
//!   compaction. Its output — the compacted pattern list plus the list
//!   of faults it covers — is exactly the `(ATPGTS, F)` pair the
//!   reseeding flow starts from.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::embedded;
//! use fbist_fault::FaultList;
//! use fbist_atpg::{Atpg, AtpgConfig};
//!
//! let c17 = embedded::c17();
//! let faults = FaultList::collapsed(&c17);
//! let result = Atpg::new(&c17)?.run(&faults, &AtpgConfig::default());
//! assert!((result.coverage() - 1.0).abs() < 1e-9); // c17 is fully testable
//! assert!(!result.patterns.is_empty());
//! # Ok::<(), fbist_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod miter;
mod podem;
mod redundancy;
mod sat;
pub use fbist_analyze::testability;

pub use engine::{Atpg, AtpgConfig, AtpgResult};
pub use miter::{ConstantVerdict, FaultMiter, MiterSession, SatVerdict, CONFLICT_BUDGET};
pub use podem::{Podem, PodemConfig, PodemOutcome, PodemSession, PodemStats, ESCALATE_AT};
pub use redundancy::{prove_redundancy, Redundancy};
