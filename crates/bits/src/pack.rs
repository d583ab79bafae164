//! Transposition between pattern-major and signal-major bit layouts.
//!
//! The logic and fault simulators in this workspace are *bit-parallel*: one
//! [`SimWord<W>`] per circuit signal carries the value of that signal under
//! up to `64·W` different input patterns simultaneously (flat lane `k` of
//! the word is the value under pattern `k` — see [`SimWord`] for the lane
//! numbering contract). Test sets, on the other hand, are naturally
//! stored pattern-major (one [`BitVec`] per pattern, one bit per input).
//! This module converts between the two layouts at any width; a 64-lane
//! caller uses `W = 1`, since `SimWord<1>` is one `u64`.
//!
//! # Example
//!
//! ```
//! use fbist_bits::{BitVec, pack};
//!
//! let patterns = vec![
//!     "01".parse::<BitVec>().unwrap(), // pattern 0: in0=1, in1=0
//!     "10".parse::<BitVec>().unwrap(), // pattern 1: in0=0, in1=1
//! ];
//! let words = pack::pack_patterns::<1>(2, &patterns);
//! assert_eq!(words[0].0[0] & 0b11, 0b01); // in0 is 1 under pattern 0 only
//! assert_eq!(words[1].0[0] & 0b11, 0b10); // in1 is 1 under pattern 1 only
//! ```

use crate::bitvec::BitVec;
use crate::simd::SimWord;

/// Lanes per `u64` word of a [`SimWord`].
pub const BLOCK: usize = 64;

/// Packs up to `64·W` patterns into signal-major [`SimWord`]s.
///
/// Returns one word per input signal; flat lane `k` of word `i` is the
/// value of input `i` under pattern `k`. Patterns beyond the first `64·W`
/// are ignored.
///
/// # Panics
///
/// Panics if any pattern's width differs from `inputs`.
pub fn pack_patterns<const W: usize>(inputs: usize, patterns: &[BitVec]) -> Vec<SimWord<W>> {
    let mut words = vec![SimWord::<W>::ZERO; inputs];
    let take = patterns.len().min(SimWord::<W>::LANES);
    pack_patterns_at(&mut words, 0, &patterns[..take]);
    words
}

/// Unpacks signal-major [`SimWord`]s back into `count` pattern-major
/// [`BitVec`]s. Inverse of [`pack_patterns`] for `count <= 64·W`.
pub fn unpack_patterns<const W: usize>(words: &[SimWord<W>], count: usize) -> Vec<BitVec> {
    assert!(
        count <= SimWord::<W>::LANES,
        "cannot unpack more than {} patterns",
        SimWord::<W>::LANES
    );
    (0..count)
        .map(|k| {
            let mut p = BitVec::zeros(words.len());
            for (i, w) in words.iter().enumerate() {
                if w.lane(k) {
                    p.set(i, true);
                }
            }
            p
        })
        .collect()
}

/// The low `n` bits of one `u64` word (all 64 from `n >= 64`).
#[inline]
const fn word_mask(n: usize) -> u64 {
    if n >= BLOCK {
        u64::MAX
    } else if n == 0 {
        0
    } else {
        (1u64 << n) - 1
    }
}

/// A [`SimWord`] mask with the low `n` flat lanes set — selects the valid
/// pattern lanes of a partially filled block.
///
/// ```
/// use fbist_bits::{pack, SimWord};
/// assert_eq!(pack::lane_mask::<1>(64), SimWord::MAX);
/// assert_eq!(pack::lane_mask::<1>(3), SimWord([0b111]));
/// assert_eq!(pack::lane_mask::<2>(70), SimWord([u64::MAX, 0b11_1111]));
/// ```
#[inline]
pub fn lane_mask<const W: usize>(n: usize) -> SimWord<W> {
    let mut out = SimWord::<W>::ZERO;
    for (i, w) in out.0.iter_mut().enumerate() {
        *w = word_mask(n.saturating_sub(i * BLOCK));
    }
    out
}

/// A [`SimWord`] mask with `len` flat lanes set starting at lane `start`
/// — selects one *lane group* of a shared block (the lanes one batched
/// row occupies).
///
/// ```
/// use fbist_bits::{pack, SimWord};
/// assert_eq!(pack::lane_group_mask::<1>(2, 3), SimWord([0b11100]));
/// assert_eq!(pack::lane_group_mask::<2>(60, 6), SimWord([0xF << 60, 0b11]));
/// assert_eq!(pack::lane_group_mask::<1>(5, 0), SimWord::ZERO);
/// ```
///
/// # Panics
///
/// Panics (checked arithmetic, never silent wraparound) if the group
/// overruns the flat lane space: `start + len > 64·W`.
#[inline]
pub fn lane_group_mask<const W: usize>(start: usize, len: usize) -> SimWord<W> {
    match start.checked_add(len) {
        Some(end) if end <= SimWord::<W>::LANES => {}
        _ => panic!("lane group overruns the block"),
    }
    let mut out = SimWord::<W>::ZERO;
    for (i, w) in out.0.iter_mut().enumerate() {
        let lo = start.saturating_sub(i * BLOCK).min(BLOCK);
        let hi = (start + len).saturating_sub(i * BLOCK).min(BLOCK);
        *w = word_mask(hi) & !word_mask(lo);
    }
    out
}

/// Packs patterns into an existing block of signal-major [`SimWord`]s,
/// occupying the flat lanes `lane_offset..lane_offset + patterns.len()`.
///
/// This is the building block of cross-row batching: several pattern
/// segments from different rows share one block, each at its own lane
/// offset. Lanes outside the group are left untouched.
///
/// # Panics
///
/// Panics if the group overruns the flat lane space or a pattern's width
/// differs from `words.len()`.
pub fn pack_patterns_at<const W: usize>(
    words: &mut [SimWord<W>],
    lane_offset: usize,
    patterns: &[BitVec],
) {
    assert!(
        lane_offset + patterns.len() <= SimWord::<W>::LANES,
        "lane group overruns the block: offset {lane_offset} + {} patterns",
        patterns.len()
    );
    for (k, p) in patterns.iter().enumerate() {
        assert_eq!(p.width(), words.len(), "pattern {k} width mismatch");
        scatter_pattern(words, lane_offset + k, p);
    }
}

/// Sets flat lane `lane` of `words[i]` for every set bit `i` of `p`,
/// scanning the pattern word-at-a-time (one `trailing_zeros` per set bit
/// instead of one `get` per input).
#[inline]
fn scatter_pattern<const W: usize>(words: &mut [SimWord<W>], lane: usize, p: &BitVec) {
    let wi = lane / BLOCK;
    let bit = 1u64 << (lane % BLOCK);
    for (i, &pw) in p.as_words().iter().enumerate() {
        let mut m = pw;
        while m != 0 {
            words[i * BLOCK + m.trailing_zeros() as usize].0[wi] |= bit;
            m &= m - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns(count: u64, width: usize, step: u64) -> Vec<BitVec> {
        (0..count)
            .map(|v| BitVec::from_u64(width, v * step))
            .collect()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let p = patterns(10, 7, 37);
        assert_eq!(unpack_patterns(&pack_patterns::<1>(7, &p), 10), p);
    }

    #[test]
    fn pack_unpack_roundtrip_wide() {
        let p = patterns(200, 9, 37);
        assert_eq!(unpack_patterns(&pack_patterns::<4>(9, &p), 200), p);
    }

    #[test]
    fn wide_block_is_consecutive_narrow_blocks() {
        // lane k of a W = 4 block == lane k%64 of W = 1 block k/64: the
        // flat-lane contract that makes every width byte-identical.
        let p = patterns(130, 7, 31);
        let wide = pack_patterns::<4>(7, &p);
        for (b, chunk) in p.chunks(BLOCK).enumerate() {
            let narrow = pack_patterns::<1>(7, chunk);
            for i in 0..7 {
                assert_eq!(wide[i].0[b], narrow[i].0[0], "input {i} word {b}");
            }
        }
        for w in &wide {
            assert_eq!(w.0[3], 0, "lanes past the pattern count stay 0");
        }
    }

    #[test]
    fn packing_ignores_patterns_past_the_block() {
        let p = patterns(130, 5, 1);
        let words = pack_patterns::<2>(5, &p);
        assert_eq!(unpack_patterns(&words, 128), p[..128]);
    }

    #[test]
    fn empty_pattern_set() {
        assert_eq!(pack_patterns::<1>(4, &[]), vec![SimWord::ZERO; 4]);
        assert!(unpack_patterns::<1>(&[], 0).is_empty());
    }

    #[test]
    fn lane_masks() {
        assert_eq!(lane_mask::<1>(1), SimWord([1]));
        assert_eq!(lane_mask::<1>(63).count_ones(), 63);
        assert_eq!(lane_mask::<1>(0), SimWord::ZERO);
    }

    #[test]
    fn lane_masks_wide() {
        assert_eq!(lane_mask::<2>(0), SimWord::ZERO);
        assert_eq!(lane_mask::<2>(128), SimWord::MAX);
        let m = lane_mask::<2>(70);
        assert_eq!(m.0, [u64::MAX, 0b11_1111]);
        assert_eq!(m.count_ones(), 70);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let p = vec![BitVec::zeros(3)];
        let _ = pack_patterns::<1>(4, &p);
    }

    /// Packing two segments at their offsets equals packing their
    /// concatenation in one go.
    fn pack_at_matches_whole_block<const W: usize>(split: usize, total: usize) {
        let a = patterns(split as u64, 6, 11);
        let b = patterns((total - split) as u64, 6, 23);
        let mut concat = a.clone();
        concat.extend(b.iter().cloned());
        let mut words = vec![SimWord::<W>::ZERO; 6];
        pack_patterns_at(&mut words, 0, &a);
        pack_patterns_at(&mut words, split, &b);
        assert_eq!(words, pack_patterns::<W>(6, &concat));
    }

    #[test]
    fn pack_at_matches_whole_block_packing() {
        // the same segments at W = 1 and, straddling a word, at W = 4
        pack_at_matches_whole_block::<1>(5, 12);
        pack_at_matches_whole_block::<4>(5, 12);
        pack_at_matches_whole_block::<4>(60, 127);
    }

    #[test]
    fn lane_group_masks_tile_the_block() {
        // groups tile the flat lane space at W = 1 and W = 4 alike
        fn tiles<const W: usize>(cuts: &[usize]) {
            let mut acc = SimWord::<W>::ZERO;
            for pair in cuts.windows(2) {
                let m = lane_group_mask::<W>(pair[0], pair[1] - pair[0]);
                assert_eq!(acc & m, SimWord::ZERO, "{pair:?} overlaps");
                assert_eq!(m.count_ones() as usize, pair[1] - pair[0]);
                acc |= m;
            }
            assert_eq!(acc, SimWord::MAX);
        }
        tiles::<1>(&[0, 10, 63, 64]);
        tiles::<4>(&[0, 10, 63, 64, 70, 128, 255, 256]);
        assert_eq!(lane_group_mask::<1>(63, 1), SimWord([1 << 63]));
        assert_eq!(lane_group_mask::<4>(63, 1), SimWord([1 << 63, 0, 0, 0]));
    }

    #[test]
    fn lane_group_masks_wide() {
        // a group straddling word boundaries sets exactly its flat lanes
        let m = lane_group_mask::<4>(60, 10);
        assert_eq!(m.0, [0xF000_0000_0000_0000, 0b11_1111, 0, 0]);
        assert_eq!(m.count_ones(), 10);
        assert_eq!(m.trailing_zeros(), 60);
        assert_eq!(lane_group_mask::<4>(0, 256), SimWord::MAX);
        assert_eq!(lane_group_mask::<4>(100, 0), SimWord::ZERO);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lane_group_overrun_panics() {
        let mut words = vec![SimWord::<1>::ZERO; 2];
        let patterns = vec![BitVec::zeros(2); 10];
        pack_patterns_at(&mut words, 60, &patterns);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lane_group_mask_overrun_panics() {
        let _ = lane_group_mask::<1>(60, 5);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn lane_group_mask_overflow_panics_not_wraps() {
        // start + len overflows usize; without checked arithmetic the sum
        // wraps into range and silently yields a bogus in-range mask
        let _ = lane_group_mask::<8>(usize::MAX, 2);
    }
}
