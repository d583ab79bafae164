//! Single-stuck-at fault modelling and bit-parallel fault simulation.
//!
//! The paper's detection matrix has one column per stuck-at fault of the
//! unit under test and one row per reseeding triplet; cell `(i, j)` is 1
//! iff triplet `i`'s expanded test set detects fault `j`. This crate
//! provides everything needed to fill that matrix:
//!
//! * [`Fault`], [`FaultSite`], [`FaultList`] — the classical single
//!   stuck-at fault universe over gate output nets (stems) and gate input
//!   pins (branches);
//! * [`collapse`] — structural equivalence collapsing (union-find over the
//!   textbook gate rules), which shrinks the universe ~2.5× without losing
//!   information;
//! * [`FaultSimulator`] — a `64·W`-way bit-parallel fault simulator
//!   with fault dropping, plus a detection-dictionary builder. It
//!   simulates by fanout-free region: critical-path tracing inside each
//!   region and one event-driven cone sweep per region root, not per
//!   fault ([`reference::ConeOracle`] keeps the per-fault path as the
//!   oracle);
//! * [`BatchPlan`] — the cross-row batch planner behind
//!   [`FaultSimulator::detects_blocks`] and
//!   [`FaultSimulator::first_detections_blocks`], which fills every
//!   simulation lane when many rows are simulated at once.
//!
//! # Cross-row batching: lane groups and masked dropping
//!
//! A [`BatchPlan`] concatenates the `τ + 1`-pattern streams of all
//! Detection-Matrix rows into shared blocks, with a [`LaneGroup`] per
//! row segment in each block. A fault's detection word for a block is
//! ANDed with each group's lane mask, and a nonzero intersection marks
//! `(row, f)` detected. *Masked dropping* skips a
//! fault's evaluation for a block once every row with lanes there has
//! already detected it. That is exact, because a row detects `f` iff
//! **some** lane of **some** of its groups differs at a primary output
//! — a monotone OR, which a skipped lane could only re-confirm (the
//! argument that makes classical per-row fault dropping exact). The
//! batched matrix therefore equals per-row [`FaultSimulator::detects`]
//! and [`FaultSimulator::run`] on each row's stream — pinned for every
//! profile × TPG × `jobs` × `τ` by the `batched_matrix_equivalence`
//! suite, which keeps those per-row calls as its oracle.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::embedded;
//! use fbist_fault::{FaultList, FaultSimulator};
//! use fbist_bits::BitVec;
//!
//! let c17 = embedded::c17();
//! let faults = FaultList::collapsed(&c17);
//! let sim = FaultSimulator::new(&c17)?;
//! // Exhaustive patterns detect every c17 fault.
//! let patterns: Vec<BitVec> = (0..32u64).map(|v| BitVec::from_u64(5, v)).collect();
//! let detected = sim.detects(&patterns, &faults);
//! assert_eq!(detected.count_ones(), faults.len());
//! # Ok::<(), fbist_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod checkpoint;
pub mod collapse;
mod model;
pub mod reference;
mod sim;

pub use batch::{BatchBlock, BatchPlan, LaneGroup};
pub use checkpoint::checkpoint_faults;
pub use model::{Fault, FaultId, FaultList, FaultSite};
pub use sim::{merge_first_detections, ConeSweeps, FaultSimResult, FaultSimulator};
