//! # Set-covering reseeding for functional BIST
//!
//! A full Rust reproduction of *"On Applying the Set Covering Model to
//! Reseeding"* (Chiusano, Di Carlo, Prinetto, Wunderlich — DATE 2001):
//! computing a minimum set of TPG reseeding triplets `(δ, θ, τ)` that
//! covers all ATPG-detectable stuck-at faults of a unit under test, by
//! reduction to unicost set covering.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`bits`] | `fbist-bits` | bit vectors, cubes, bit matrices |
//! | [`analyze`] | `fbist-analyze` | static analysis, implications, untestability |
//! | [`netlist`] | `fbist-netlist` | gate-level IR, `.bench` I/O, full-scan |
//! | [`genbench`] | `fbist-genbench` | synthetic ISCAS-like circuits |
//! | [`sim`] | `fbist-sim` | packed / sequential / 3-valued / event simulation |
//! | [`fault`] | `fbist-fault` | stuck-at faults, collapsing, fault simulation |
//! | [`atpg`] | `fbist-atpg` | PODEM + SCOAP + full ATPG engine |
//! | [`tpg`] | `fbist-tpg` | accumulator & LFSR pattern generators |
//! | [`setcover`] | `fbist-setcover` | reduction + exact/greedy set covering |
//! | [`store`] | `fbist-store` | content-addressed artifact store for flow stages |
//! | [`reseed`] | `reseed-core` | the paper's flow, sweep, GATSBY baseline |
//!
//! # Quickstart
//!
//! ```
//! use set_covering_reseeding::prelude::*;
//!
//! // synthesise a benchmark mimic, run the full Figure-1 flow
//! let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), 1);
//! let report = ReseedingFlow::new(&netlist)?
//!     .run(&FlowConfig::new(TpgKind::Adder).with_tau(31));
//! assert!(report.covers_all_target_faults());
//! # Ok::<(), fbist_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fbist_analyze as analyze;
pub use fbist_atpg as atpg;
pub use fbist_bits as bits;
pub use fbist_fault as fault;
pub use fbist_genbench as genbench;
pub use fbist_netlist as netlist;
pub use fbist_setcover as setcover;
pub use fbist_sim as sim;
pub use fbist_store as store;
pub use fbist_tpg as tpg;
pub use reseed_core as reseed;

/// The most common imports in one place.
pub mod prelude {
    pub use fbist_analyze::{analyze, untestable_faults, AnalysisReport, Severity};
    pub use fbist_atpg::{compact_cubes, Atpg, AtpgConfig, AtpgResult};
    pub use fbist_bits::{BitMatrix, BitVec, Cube, Trit};
    pub use fbist_fault::{checkpoint_faults, Fault, FaultList, FaultSimulator};
    pub use fbist_genbench::generate as genbench_generate;
    pub use fbist_genbench::profile as genbench_profile;
    pub use fbist_netlist::{bench, embedded, full_scan, GateKind, Netlist};
    pub use fbist_setcover::{solve, DetectionMatrix, FirstDetectionMatrix, SolveConfig};
    pub use fbist_sim::{Misr, PackedSimulator, SeqSimulator};
    pub use fbist_store::{ArtifactStore, StageKey};
    pub use fbist_tpg::{
        AccumulatorOp, AccumulatorTpg, Lfsr, MultiPolyLfsr, PatternGenerator, Triplet,
    };
    pub use reseed_core::{
        tradeoff_sweep, tradeoff_sweep_with, verify_report, AtpgBase, FlowConfig, Gatsby,
        GatsbyConfig, InitialReseedingBuilder, MatrixBuild, ReseedingFlow, ReseedingReport,
        SimdWidth, StageCache, TpgKind,
    };
}
