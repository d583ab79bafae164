//! Width-parametric simulation words: `[u64; W]` blocks of pattern lanes.
//!
//! The bit-parallel simulators carry one word per net, where each bit is
//! one pattern *lane*. [`SimWord<W>`] generalises that word from a single
//! `u64` (64 lanes) to `W` of them (`64·W` lanes, `W ∈ {1, 2, 4, 8}`),
//! monomorphised through a generic const parameter. All operations are
//! plain safe-Rust array loops — the autovectorizer lowers them to
//! 128/256/512-bit SIMD where the target supports it, so the crate keeps
//! `#![forbid(unsafe_code)]` and no target-feature detection is needed.
//!
//! # Lane numbering
//!
//! Lane `k` of a `W`-wide block is bit `k % 64` of word `k / 64` — i.e.
//! the flat lane space `0..64·W` runs through word 0's bits first, then
//! word 1's, and so on. Every cross-width contract in the workspace
//! (detection ORs, first-detection minimums, occupancy accounting) reduces
//! in this flat-lane order, which is what makes results byte-identical at
//! every width: a `W`-wide block is exactly `W` consecutive 64-lane blocks
//! evaluated together.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// The simulation-block widths the workspace instantiates, in words.
pub const SIMD_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// A `64·W`-lane simulation word: `W` `u64`s treated as one flat lane
/// space (see the module docs for the lane numbering contract).
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimWord<const W: usize>(pub [u64; W]);

impl<const W: usize> SimWord<W> {
    /// Number of pattern lanes the word carries.
    pub const LANES: usize = 64 * W;

    /// The all-zero word.
    pub const ZERO: SimWord<W> = SimWord([0; W]);

    /// The all-ones word.
    pub const MAX: SimWord<W> = SimWord([u64::MAX; W]);

    /// Whether every lane is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        let mut acc = 0u64;
        for &w in &self.0 {
            acc |= w;
        }
        acc == 0
    }

    /// The value of flat lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= Self::LANES`.
    #[inline]
    pub fn lane(&self, k: usize) -> bool {
        assert!(k < Self::LANES, "lane {k} out of range");
        (self.0[k / 64] >> (k % 64)) & 1 == 1
    }

    /// Sets flat lane `k` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `k >= Self::LANES`.
    #[inline]
    pub fn set_lane(&mut self, k: usize) {
        assert!(k < Self::LANES, "lane {k} out of range");
        self.0[k / 64] |= 1u64 << (k % 64);
    }

    /// Index of the lowest set flat lane, or `Self::LANES` if zero —
    /// the `W`-word generalisation of `u64::trailing_zeros`.
    #[inline]
    pub fn trailing_zeros(&self) -> u32 {
        let mut tz = 0u32;
        for &w in &self.0 {
            if w != 0 {
                return tz + w.trailing_zeros();
            }
            tz += 64;
        }
        tz
    }

    /// Number of set lanes.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears the lowest set lane (no-op on zero) — the `W`-word
    /// `det &= det - 1` idiom for iterating set lanes.
    #[inline]
    pub fn clear_lowest(&mut self) {
        for w in &mut self.0 {
            if *w != 0 {
                *w &= *w - 1;
                return;
            }
        }
    }
}

impl<const W: usize> Default for SimWord<W> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const W: usize> fmt::Debug for SimWord<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimWord[")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

macro_rules! simword_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt, $assign_op:tt) => {
        impl<const W: usize> $trait for SimWord<W> {
            type Output = SimWord<W>;
            #[inline]
            fn $method(self, rhs: SimWord<W>) -> SimWord<W> {
                let mut out = [0u64; W];
                for i in 0..W {
                    out[i] = self.0[i] $op rhs.0[i];
                }
                SimWord(out)
            }
        }
        impl<const W: usize> $assign_trait for SimWord<W> {
            #[inline]
            fn $assign_method(&mut self, rhs: SimWord<W>) {
                for i in 0..W {
                    self.0[i] $assign_op rhs.0[i];
                }
            }
        }
    };
}

simword_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &, &=);
simword_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |, |=);
simword_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^, ^=);

impl<const W: usize> Not for SimWord<W> {
    type Output = SimWord<W>;
    #[inline]
    fn not(self) -> SimWord<W> {
        let mut out = [0u64; W];
        for (o, w) in out.iter_mut().zip(self.0) {
            *o = !w;
        }
        SimWord(out)
    }
}

/// The simulation-block width, in words, for a workload of `total_lanes`
/// packed pattern lanes: the narrowest width with the fewest blocks.
///
/// The widths are tried in doubling order, and each doubling is kept only
/// while the block count *strictly* shrinks. A kept doubling halves the
/// number of sweep passes at equal word-operation cost, so it never
/// loses; one that leaves the block count unchanged would only pad dead
/// lanes (each block costs `W` word-ops per gate). Small workloads (an
/// ATPG round's 64 candidates, one 32-pattern triplet stream) therefore
/// stay at `W = 1`, while a cross-row matrix build, planned from the lane
/// count of all its rows together, widens. Every width computes the same
/// detections (see the module docs), so this is the fault simulator's
/// only width policy and no caller sets a width.
pub fn width_for(total_lanes: usize) -> usize {
    let mut best = 1usize;
    let mut blocks = total_lanes.div_ceil(64);
    for cand in [2usize, 4, 8] {
        let b = total_lanes.div_ceil(64 * cand);
        if b < blocks {
            blocks = b;
            best = cand;
        } else {
            break;
        }
    }
    best
}

/// Selects nothing: the fault simulator picks its block width itself
/// ([`width_for`]). The type stays only so that the benchmark harness,
/// which passes `FlowConfig::simd_width` to both matrix builders, still
/// compiles; no code in this workspace reads it. It is deleted with
/// `ROADMAP.md` item 5, once the harness calls only flow-level APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdWidth {
    /// The only value.
    #[default]
    Auto,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_numbering_is_flat() {
        let mut w = SimWord::<4>::ZERO;
        w.set_lane(0);
        w.set_lane(63);
        w.set_lane(64);
        w.set_lane(255);
        assert_eq!(w.0[0], (1 << 63) | 1);
        assert_eq!(w.0[1], 1);
        assert_eq!(w.0[3], 1 << 63);
        assert!(w.lane(64));
        assert!(!w.lane(65));
        assert_eq!(w.count_ones(), 4);
    }

    #[test]
    fn trailing_zeros_is_first_flat_lane() {
        assert_eq!(SimWord::<2>::ZERO.trailing_zeros(), 128);
        let mut w = SimWord::<2>::ZERO;
        w.set_lane(100);
        w.set_lane(120);
        assert_eq!(w.trailing_zeros(), 100);
        w.clear_lowest();
        assert_eq!(w.trailing_zeros(), 120);
        w.clear_lowest();
        assert!(w.is_zero());
    }

    #[test]
    fn bit_ops_are_elementwise() {
        let a = SimWord::<2>([0b1100, 0b1010]);
        let b = SimWord::<2>([0b1010, 0b0110]);
        assert_eq!((a & b).0, [0b1000, 0b0010]);
        assert_eq!((a | b).0, [0b1110, 0b1110]);
        assert_eq!((a ^ b).0, [0b0110, 0b1100]);
        assert_eq!((!SimWord::<2>::ZERO), SimWord::<2>::MAX);
        let mut c = a;
        c |= b;
        c &= !b;
        assert_eq!(c, a & !b);
    }

    #[test]
    fn width_widens_only_while_blocks_shrink() {
        // tiny workloads stay narrow
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(64), 1);
        // 128 lanes: 2 blocks -> 1 at W=2, no further shrink at W=4
        assert_eq!(width_for(128), 2);
        assert_eq!(width_for(65), 2);
        // 256 lanes: shrinks through W=4, not W=8
        assert_eq!(width_for(256), 4);
        // >= 512 lanes: every doubling shrinks
        assert_eq!(width_for(512), 8);
        assert_eq!(width_for(1 << 20), 8);
    }
}
