//! Gate-level logic simulation.
//!
//! Four simulators and a signature register, one per use case in the
//! reseeding flow:
//!
//! * [`PackedSimulator`] — bit-parallel combinational simulation: one
//!   [`SimWord<W>`](fbist_bits::SimWord) per net carries `64·W` pattern
//!   lanes. This is the workhorse behind fault simulation and
//!   detection-matrix construction.
//! * [`SeqSimulator`] — cycle-accurate sequential simulation of netlists
//!   with flip-flops, 64 lanes wide (64 independent executions).
//! * [`TritSimulator`] — three-valued (`0`/`1`/`X`) single-pattern
//!   simulation of [`Cube`](fbist_bits::Cube)s, used to reason about
//!   partially specified patterns.
//! * [`EventSimulator`] — classic single-pattern event-driven simulation,
//!   kept as a cross-check and for the ablation benchmarks.
//! * [`Misr`] — multiple-input signature register for output-response
//!   compaction, the observation side of a real BIST datapath.
//!
//! The two bit-parallel simulators evaluate every gate through
//! [`fbist_netlist::eval_word`], the workspace's one two-valued word
//! evaluator.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::embedded;
//! use fbist_sim::PackedSimulator;
//! use fbist_bits::BitVec;
//!
//! let c17 = embedded::c17();
//! let sim = PackedSimulator::new(&c17)?;
//! let responses = sim.simulate_patterns(&[BitVec::ones(5)]);
//! assert_eq!(responses.len(), 1);
//! assert_eq!(responses[0].width(), 2);
//! # Ok::<(), fbist_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod event;
mod misr;
mod packed;
mod seq;
mod threeval;

pub use error::SimError;
pub use event::EventSimulator;
pub use misr::Misr;
pub use packed::{LaneOccupancy, PackedSimulator};
pub use seq::SeqSimulator;
pub use threeval::TritSimulator;

use fbist_bits::SimWord;
use fbist_netlist::{eval_word, GateId, GateKind, Netlist};

/// Evaluates every non-source gate of `netlist` in `order`, reading and
/// writing the flat `values` array (one [`SimWord<W>`] per net). Input
/// and DFF values must already be assigned.
#[inline]
pub(crate) fn sweep<const W: usize>(
    netlist: &Netlist,
    order: &[GateId],
    values: &mut [SimWord<W>],
) {
    for &id in order {
        let g = netlist.gate(id);
        let k = g.kind();
        if k == GateKind::Input || k == GateKind::Dff {
            continue;
        }
        values[id.index()] = eval_word(k, g.fanin(), |_, f| values[f.index()]);
    }
}
