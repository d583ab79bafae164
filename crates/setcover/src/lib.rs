//! Unicost set covering for reseeding computation.
//!
//! This crate implements the optimization core of the paper: given a
//! Boolean *Detection Matrix* `D` (rows = candidate reseeding triplets,
//! columns = faults), find a minimum-cardinality set of rows whose union
//! covers every column:
//!
//! ```text
//! minimise  Σᵢ xᵢ      subject to  D·x ≥ 1,  x ∈ {0,1}^M
//! ```
//!
//! The solution pipeline mirrors the paper's Figure 1:
//!
//! 1. [`reduce`] — iterate *essentiality* (a column covered by exactly one
//!    row forces that row) and *dominance* (a row whose column set is
//!    contained in another's is deleted; optionally the dual reduction on
//!    columns) until fixpoint, with a full event log;
//! 2. the residual matrix — usually tiny — goes to an exact
//!    branch-and-bound ([`ExactSolver`], standing in for the commercial
//!    LINGO package), warm-started from the Chvátal greedy heuristic
//!    ([`greedy_cover`]) under a node budget; a budget of 0 returns the
//!    greedy cover itself;
//! 3. the final [`CoverSolution`] distinguishes *necessary* (essential)
//!    rows from solver-chosen rows, exactly like the paper's Table 2.
//!
//! [`lp`] exports instances in LP textual format for use with external ILP
//! solvers, preserving the paper's LINGO workflow.
//!
//! # One implementation
//!
//! The reducer and the solver scan packed `BitVec` words. The flow's
//! Detection Matrices are dense (23–87 % ones on every genbench profile
//! across the default τ list), and on all of them the word scans reduce
//! faster than adjacency-list bookkeeping would; the reducer leaves the
//! solver at most a tiny residual. §3.3 of the paper keeps local search
//! and metaheuristics for residuals too large for an exact method; no
//! workload here leaves one, so there is a single engine.
//!
//! # Example
//!
//! ```
//! use fbist_setcover::{DetectionMatrix, solve, SolveConfig};
//! use fbist_bits::BitVec;
//!
//! // 4 triplets × 4 faults; optimal cover is rows {1, 2}.
//! let rows: Vec<BitVec> = ["1100", "0111", "1001", "0010"]
//!     .iter().map(|s| s.parse().unwrap()).collect();
//! let m = DetectionMatrix::from_rows(4, rows);
//! let sol = solve(&m, &SolveConfig::default());
//! assert_eq!(sol.cardinality(), 2);
//! assert!(m.is_cover(&sol.rows()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod first;
pub mod generate;
mod greedy;
pub mod lp;
mod matrix;
mod reduce;
mod solution;

pub use exact::{ExactConfig, ExactResult, ExactSolver};
pub use first::{Cells, FirstDetectionMatrix};
pub use greedy::greedy_cover;
pub use matrix::DetectionMatrix;
pub use reduce::{reduce, reduce_with, Backend, ReducerConfig, Reduction, ReductionEvent};
pub use solution::{solve, solve_with, CoverSolution, SolveConfig};
