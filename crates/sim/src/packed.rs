//! Bit-parallel combinational simulation over [`SimWord`] blocks.

use std::sync::atomic::{AtomicU64, Ordering};

use fbist_bits::{pack, BitVec, SimWord};
use fbist_netlist::{GateId, Netlist};

use crate::{sweep, SimError};

/// Lane-occupancy statistics of a [`PackedSimulator`].
///
/// Every evaluated block carries its full lane capacity (`64·W` lanes at
/// SIMD width `W`) whether or not the lanes hold real patterns; the ratio
/// of used lanes to available lanes is the direct measure of how much
/// bit-parallel bandwidth a workload wastes. A Detection-Matrix row
/// simulated alone occupies only `τ + 1 (mod 64)` lanes of its last
/// block (6.25 % at `τ = 3`); the cross-row batched build exists to push
/// this toward 100 %. Capacity is counted per block rather than assumed, so
/// the ratio stays truthful when blocks of different widths mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOccupancy {
    /// Blocks evaluated since construction or the last reset.
    pub blocks: u64,
    /// Pattern lanes actually occupied across those blocks.
    pub lanes: u64,
    /// Total lane capacity of those blocks (`Σ 64·W` over blocks).
    pub capacity: u64,
}

impl LaneOccupancy {
    /// Occupied fraction of the available lanes, in `[0, 1]` (1.0 when no
    /// block was evaluated yet).
    pub fn ratio(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.lanes as f64 / self.capacity as f64
        }
    }
}

/// Bit-parallel combinational simulator.
///
/// One [`SimWord<W>`] per net holds the net's value under up to `64·W`
/// input patterns simultaneously (flat lane `k` = pattern `k`). A full
/// evaluation of the circuit under one block costs one pass over the
/// levelised gate list, each gate through [`fbist_netlist::eval_word`].
/// The fault simulator picks `W` per workload
/// ([`fbist_bits::simd::width_for`]); the pattern-level helpers here run
/// at `W = 1`.
///
/// The simulator owns a clone of the netlist and its topological order, so
/// it can be handed around independently of the original.
///
/// # Example
///
/// ```
/// use fbist_netlist::embedded;
/// use fbist_sim::PackedSimulator;
/// use fbist_bits::BitVec;
///
/// let adder = embedded::adder4();
/// let sim = PackedSimulator::new(&adder)?;
/// // inputs are a0..a3, b0..b3, cin; compute 3 + 5
/// let mut p = BitVec::zeros(9);
/// p.set(0, true); p.set(1, true);       // a = 0b0011
/// p.set(4, true); p.set(6, true);       // b = 0b0101
/// let r = sim.simulate_patterns(&[p]);
/// // outputs are s0..s3, cout; 3 + 5 = 8 = 0b1000
/// assert_eq!(r[0].to_u64(), Some(0b01000));
/// # Ok::<(), fbist_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct PackedSimulator {
    netlist: Netlist,
    order: Vec<GateId>,
    /// Occupancy counters (see [`LaneOccupancy`]). Atomic so that callers
    /// sharing one simulator across a worker pool can record without
    /// locking; totals are deterministic because the set of evaluated
    /// blocks is.
    blocks_evaluated: AtomicU64,
    lanes_occupied: AtomicU64,
    lane_capacity: AtomicU64,
}

impl Clone for PackedSimulator {
    fn clone(&self) -> Self {
        PackedSimulator {
            netlist: self.netlist.clone(),
            order: self.order.clone(),
            blocks_evaluated: AtomicU64::new(self.blocks_evaluated.load(Ordering::Relaxed)),
            lanes_occupied: AtomicU64::new(self.lanes_occupied.load(Ordering::Relaxed)),
            lane_capacity: AtomicU64::new(self.lane_capacity.load(Ordering::Relaxed)),
        }
    }
}

impl PackedSimulator {
    /// Builds a simulator for a combinational netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SequentialNetlist`] if the netlist contains
    /// flip-flops (apply [`fbist_netlist::full_scan`] first) and
    /// [`SimError::Netlist`] if it fails levelisation.
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        if !netlist.is_combinational() {
            return Err(SimError::SequentialNetlist {
                dffs: netlist.dffs().len(),
            });
        }
        let order = netlist.levelize()?;
        Ok(PackedSimulator {
            netlist: netlist.clone(),
            order,
            blocks_evaluated: AtomicU64::new(0),
            lanes_occupied: AtomicU64::new(0),
            lane_capacity: AtomicU64::new(0),
        })
    }

    /// Records one evaluated block of `lane_capacity` total lanes (`64·W`
    /// at SIMD width `W`) with `lanes_used` of them occupied.
    ///
    /// Called by the block-level drivers (the fault simulator and
    /// [`simulate_patterns`](Self::simulate_patterns)), which know how many
    /// lanes of the block carried real patterns.
    pub fn record_occupancy(&self, lanes_used: usize, lane_capacity: usize) {
        self.blocks_evaluated.fetch_add(1, Ordering::Relaxed);
        self.lanes_occupied
            .fetch_add(lanes_used as u64, Ordering::Relaxed);
        self.lane_capacity
            .fetch_add(lane_capacity as u64, Ordering::Relaxed);
    }

    /// Occupancy counters accumulated so far.
    pub fn occupancy(&self) -> LaneOccupancy {
        LaneOccupancy {
            blocks: self.blocks_evaluated.load(Ordering::Relaxed),
            lanes: self.lanes_occupied.load(Ordering::Relaxed),
            capacity: self.lane_capacity.load(Ordering::Relaxed),
        }
    }

    /// Resets the occupancy counters to zero.
    pub fn reset_occupancy(&self) {
        self.blocks_evaluated.store(0, Ordering::Relaxed);
        self.lanes_occupied.store(0, Ordering::Relaxed);
        self.lane_capacity.store(0, Ordering::Relaxed);
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The topological evaluation order (sources first).
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.netlist.inputs().len()
    }

    /// Allocates a width-`W` value buffer (one [`SimWord<W>`] per net).
    pub fn value_buffer<const W: usize>(&self) -> Vec<SimWord<W>> {
        vec![SimWord::ZERO; self.netlist.gate_count()]
    }

    /// Evaluates one `64·W`-lane block in place. Lane `k` of the block
    /// behaves exactly like lane `k % 64` of 64-lane block `k / 64`.
    ///
    /// `pi_words[k]` is the packed word of primary input `k` (see
    /// [`fbist_bits::pack`]); on return `values[net]` holds every net's
    /// packed value.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words` is shorter than the input count or `values`
    /// shorter than the gate count.
    pub fn eval_block_into<const W: usize>(
        &self,
        pi_words: &[SimWord<W>],
        values: &mut [SimWord<W>],
    ) {
        for (k, &pi) in self.netlist.inputs().iter().enumerate() {
            values[pi.index()] = pi_words[k];
        }
        sweep(&self.netlist, &self.order, values);
    }

    /// Extracts the packed primary-output words from a value buffer.
    pub fn output_words<const W: usize>(&self, values: &[SimWord<W>]) -> Vec<SimWord<W>> {
        self.netlist
            .outputs()
            .iter()
            .map(|o| values[o.index()])
            .collect()
    }

    /// Simulates an arbitrary number of patterns, returning one response
    /// [`BitVec`] (over the primary outputs) per pattern.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from the input count.
    pub fn simulate_patterns(&self, patterns: &[BitVec]) -> Vec<BitVec> {
        let mut responses = Vec::with_capacity(patterns.len());
        let mut values = self.value_buffer::<1>();
        for chunk in patterns.chunks(pack::BLOCK) {
            let pi_words = pack::pack_patterns(self.input_count(), chunk);
            self.eval_block_into(&pi_words, &mut values);
            self.record_occupancy(chunk.len(), pack::BLOCK);
            let po_words = self.output_words(&values);
            responses.extend(pack::unpack_patterns(&po_words, chunk.len()));
        }
        responses
    }

    /// Simulates a single pattern and also returns the full per-net value
    /// map (as booleans), useful for debugging and for the event-driven
    /// simulator cross-checks.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the input count.
    pub fn simulate_full(&self, pattern: &BitVec) -> (BitVec, Vec<bool>) {
        let mut values = self.value_buffer::<1>();
        let pi_words = pack::pack_patterns(self.input_count(), std::slice::from_ref(pattern));
        self.eval_block_into(&pi_words, &mut values);
        let po_words = self.output_words(&values);
        let response = pack::unpack_patterns(&po_words, 1).remove(0);
        let nets = values.iter().map(|w| w.lane(0)).collect();
        (response, nets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::{bench, embedded};

    #[test]
    fn c17_known_vectors() {
        let sim = PackedSimulator::new(&embedded::c17()).unwrap();
        // inputs 1,2,3,6,7 ; outputs 22,23
        // all zeros: 10=NAND(0,0)=1, 11=1, 16=NAND(0,1)=1, 19=1,
        //            22=NAND(1,1)=0, 23=NAND(1,1)=0
        let r = sim.simulate_patterns(&[BitVec::zeros(5)]);
        assert_eq!(r[0].to_u64(), Some(0b00));
        // all ones: 10=NAND(1,1)=0, 11=0, 16=NAND(1,0)=1, 19=NAND(0,1)=1,
        //           22=NAND(0,1)=1, 23=NAND(1,1)=0
        let r = sim.simulate_patterns(&[BitVec::ones(5)]);
        assert_eq!(r[0].to_u64(), Some(0b01));
    }

    #[test]
    fn adder_exhaustive() {
        let sim = PackedSimulator::new(&embedded::adder4()).unwrap();
        // exhaustive over a, b, cin: 512 patterns
        let mut patterns = Vec::new();
        let mut expect = Vec::new();
        for a in 0u64..16 {
            for b in 0u64..16 {
                for cin in 0u64..2 {
                    let mut p = BitVec::zeros(9);
                    for i in 0..4 {
                        p.set(i, (a >> i) & 1 == 1);
                        p.set(4 + i, (b >> i) & 1 == 1);
                    }
                    p.set(8, cin == 1);
                    patterns.push(p);
                    expect.push(a + b + cin);
                }
            }
        }
        let responses = sim.simulate_patterns(&patterns);
        for (r, e) in responses.iter().zip(&expect) {
            assert_eq!(r.to_u64(), Some(*e & 0x1F), "sum mismatch");
        }
    }

    #[test]
    fn rejects_sequential() {
        let err = PackedSimulator::new(&embedded::johnson3()).unwrap_err();
        assert!(matches!(err, SimError::SequentialNetlist { dffs: 3 }));
    }

    #[test]
    fn block_boundaries() {
        // 130 patterns crosses two block boundaries
        let sim = PackedSimulator::new(&embedded::majority()).unwrap();
        let patterns: Vec<BitVec> = (0..130u64).map(|v| BitVec::from_u64(3, v % 8)).collect();
        let rs = sim.simulate_patterns(&patterns);
        assert_eq!(rs.len(), 130);
        for (p, r) in patterns.iter().zip(&rs) {
            let bits = p.to_u64().unwrap();
            let maj = (bits.count_ones() >= 2) as u64;
            assert_eq!(r.to_u64(), Some(maj | ((1 - maj) << 1)));
        }
    }

    #[test]
    fn simulate_full_exposes_internals() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = AND(a, b)\ny = NOT(m)\n";
        let n = bench::parse(src).unwrap();
        let sim = PackedSimulator::new(&n).unwrap();
        let p: BitVec = "11".parse().unwrap();
        let (r, nets) = sim.simulate_full(&p);
        assert_eq!(r.to_u64(), Some(0));
        let m = n.find("m").unwrap();
        assert!(nets[m.index()]);
    }

    #[test]
    fn wide_eval_matches_narrow_blocks() {
        // lane k of a W = 4 block == lane k%64 of W = 1 block k/64, for
        // every net: the flat-lane contract the fault engines build on.
        let sim = PackedSimulator::new(&embedded::adder4()).unwrap();
        let patterns: Vec<BitVec> = (0..200u64).map(|v| BitVec::from_u64(9, v * 29)).collect();
        let mut wide = sim.value_buffer::<4>();
        sim.eval_block_into(&pack::pack_patterns(9, &patterns), &mut wide);
        let mut narrow = sim.value_buffer::<1>();
        for (b, chunk) in patterns.chunks(pack::BLOCK).enumerate() {
            sim.eval_block_into(&pack::pack_patterns(9, chunk), &mut narrow);
            for (net, w) in wide.iter().enumerate() {
                assert_eq!(w.0[b], narrow[net].0[0], "net {net} sub-block {b}");
            }
        }
        let outs = sim.output_words(&wide);
        assert_eq!(
            pack::unpack_patterns(&outs, 200),
            sim.simulate_patterns(&patterns)
        );
    }

    #[test]
    fn occupancy_tracks_capacity_per_block() {
        // a W = 1 block and a W = 4 block mix in one ratio
        let sim = PackedSimulator::new(&embedded::majority()).unwrap();
        sim.record_occupancy(10, SimWord::<1>::LANES);
        sim.record_occupancy(200, SimWord::<4>::LANES);
        let occ = sim.occupancy();
        assert_eq!(occ.blocks, 2);
        assert_eq!(occ.lanes, 210);
        assert_eq!(occ.capacity, 320);
        assert!((occ.ratio() - 210.0 / 320.0).abs() < 1e-12);
        sim.reset_occupancy();
        assert_eq!(sim.occupancy().ratio(), 1.0);
    }

    #[test]
    fn constants_evaluate() {
        let src = "OUTPUT(y)\nc1 = CONST1()\nc0 = CONST0()\ny = AND(c1, c0)\n";
        let n = bench::parse(src).unwrap();
        let sim = PackedSimulator::new(&n).unwrap();
        let r = sim.simulate_patterns(&[BitVec::zeros(0)]);
        assert_eq!(r[0].to_u64(), Some(0));
    }
}
