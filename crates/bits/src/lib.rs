//! Bit-level building blocks for the functional-BIST tool chain.
//!
//! This crate provides the low-level data types shared by the whole
//! workspace:
//!
//! * [`BitVec`] — an arbitrary-width bit vector with *modular* arithmetic
//!   (`+`, `-`, `*` mod `2^w`), the value domain of test patterns, TPG
//!   state registers and seeds;
//! * [`Cube`] — a three-valued (`0`/`1`/`X`) test cube, produced by the
//!   ATPG and consumed by pattern fill;
//! * [`Trit`] — a single three-valued logic value;
//! * [`BitMatrix`] — a dense two-dimensional bit matrix, the backing store
//!   of the paper's *Detection Matrix*;
//! * [`pack`] — helpers to transpose pattern sets into the `64·W`-lane
//!   packed ("bit-parallel") layout used by the logic and fault
//!   simulators;
//! * [`SimWord`] / [`simd::width_for`] — the width-parametric `[u64; W]`
//!   simulation block word and the rule that picks `W` for a workload.
//!
//! # Example
//!
//! ```
//! use fbist_bits::BitVec;
//!
//! // An 80-bit accumulator step: S' = S + theta (mod 2^80).
//! let s = BitVec::from_u64(80, 0xFFFF_FFFF_FFFF_FFFF);
//! let theta = BitVec::from_u64(80, 1);
//! let next = s.wrapping_add(&theta);
//! assert_eq!(next.get(64), true); // carry propagated into the high limb
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitvec;
mod cube;
mod matrix;
pub mod pack;
pub mod simd;

pub use bitvec::{BitVec, ParseBitVecError};
pub use cube::{Cube, Trit};
pub use matrix::BitMatrix;
pub use simd::{SimWord, SimdWidth, SIMD_WIDTHS};

/// Number of bits in one storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to store `bits` bits.
///
/// ```
/// assert_eq!(fbist_bits::words_for(0), 0);
/// assert_eq!(fbist_bits::words_for(64), 1);
/// assert_eq!(fbist_bits::words_for(65), 2);
/// ```
#[inline]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask selecting the valid bits of the last storage word of a `bits`-bit
/// value, or all ones when the width is a multiple of 64.
///
/// ```
/// assert_eq!(fbist_bits::tail_mask(64), u64::MAX);
/// assert_eq!(fbist_bits::tail_mask(3), 0b111);
/// ```
#[inline]
pub const fn tail_mask(bits: usize) -> u64 {
    let rem = bits % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// Calls `f` with the index of each set bit of `words` (bit `i % 64` of
/// word `i / 64`), in ascending order, without allocating.
///
/// ```
/// let mut seen = Vec::new();
/// fbist_bits::for_each_set_bit(&[0b101, 1 << 63], |i| seen.push(i));
/// assert_eq!(seen, [0, 2, 127]);
/// ```
#[inline]
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in words.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            f(wi * WORD_BITS + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}
