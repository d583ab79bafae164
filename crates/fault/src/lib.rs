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
//!   [`FaultSimulator::detects_batch`], which fills every simulation lane
//!   when many rows are simulated at once.
//!
//! # Cross-row batching: lane groups and masked dropping
//!
//! The matrix build hands the simulator one pattern stream per triplet
//! row. Simulated per row, each stream occupies its own 64-lane blocks:
//! a row of `τ + 1` patterns wastes `63 − τ (mod 64)` lanes of its last
//! block — 50 % dead lanes at the default `τ = 31`, 94 % at `τ = 3` —
//! and the good-circuit evaluation plus every fault's evaluation is
//! repeated for every row.
//!
//! [`BatchPlan`] instead concatenates the streams of all rows (in row
//! order) into *shared* blocks. Each block carries up to 64 consecutive
//! patterns of the global stream, and a [`LaneGroup`] records which lanes
//! belong to which row; a row whose stream crosses a block boundary simply
//! splits into groups in consecutive blocks. Every block except possibly
//! the last is completely full, so the good circuit is evaluated — and
//! each fault's detection word computed — once per *shared* block: up to
//! `64 / (τ + 1)`× fewer of both than the per-row build.
//!
//! Detection is attributed through the groups: fault `f`'s 64-bit
//! detection word for a block is ANDed with each group's lane mask, and a
//! nonzero intersection marks `(row, f)` detected. *Masked dropping*
//! removes redundant work on top: once every row with lanes in a block has
//! already detected `f`, the fault's evaluation is skipped for that
//! block, and rows that already detected `f` are masked out of its
//! detection word elsewhere. Dropping can never change a row's detected
//! set, because a row detects `f` iff **some** lane of **some** of its
//! groups differs at a primary output — a monotone OR over the row's
//! lanes. Skipping a lane is only ever done when the `(row, f)` pair is
//! already detected, i.e. when the OR is already 1, so the skipped lane
//! could only have re-confirmed a known detection (the same argument that
//! makes classical per-row fault dropping exact). The batched matrix is
//! therefore bit-identical to the per-row one — pinned for every
//! profile × TPG × `jobs` × `τ` combination by the
//! `batched_matrix_equivalence` suite.
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
