//! Optimal reseeding via set covering — the DATE 2001 flow.
//!
//! This crate is the paper's primary contribution, assembled from the
//! workspace substrates. It implements the computation flow of the paper's
//! Figure 1:
//!
//! ```text
//!  ATPG (ATPGTS, F) ──► Initial Reseeding Builder ──► Detection Matrix
//!                                                          │
//!                              Matrix Reducer (essentiality + dominance)
//!                                                          │
//!                              Exact solver (LINGO stand-in) on residual
//!                                                          │
//!                      Reseeding solution N = necessary ∪ solver triplets
//! ```
//!
//! plus the trade-off machinery behind the paper's Figure 2 (sweeping the
//! evolution length `τ`) and a GATSBY-style genetic-algorithm baseline for
//! the Table 1 comparison.
//!
//! # Quickstart
//!
//! ```
//! use fbist_genbench::{generate, profile};
//! use reseed_core::{FlowConfig, ReseedingFlow, TpgKind};
//!
//! // a small synthetic circuit and an adder-accumulator TPG
//! let netlist = generate(&profile("tiny64").unwrap(), 1);
//! let config = FlowConfig::new(TpgKind::Adder).with_tau(15);
//! let report = ReseedingFlow::new(&netlist)?.run(&config);
//!
//! // the reseeding covers every ATPG-detected fault, with provably
//! // minimum triplet count
//! assert!(report.covers_all_target_faults());
//! assert!(report.solution_optimal);
//! assert!(report.triplet_count() <= report.initial_triplets);
//! # Ok::<(), fbist_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod builder;
mod config;
pub mod export;
pub mod flags;
mod flow;
pub mod gatsby;
mod report;
mod stage;
mod sweep;
mod verify;

pub use area::{rom_bits_per_triplet, solution_rom_bits, AreaModel};
pub use builder::{AtpgBase, InitialReseeding, InitialReseedingBuilder};
pub use config::{
    admit_tau, check_tau, parse_tau_list, FlowConfig, MatrixBuild, TpgKind, PATTERN_MEMORY_BUDGET,
};
pub use fbist_bits::SimdWidth;
pub use fbist_setcover::FirstDetectionMatrix;
pub use flow::ReseedingFlow;
pub use gatsby::{Gatsby, GatsbyConfig, GatsbyResult};
pub use report::{ReseedingReport, SelectedTriplet};
pub use stage::{
    atpg_stage_key, circuit_digest, cover_stage_key, first_detection_stage_key,
    sweep_request_digest, CachedFirstDetection, StageCache, StageStats, THROUGHPUT_KNOBS,
};
pub use sweep::{tradeoff_sweep, tradeoff_sweep_with, SweepPoint};
pub use verify::{verify_against, verify_report, Verification};
