//! Arbitrary-width bit vectors with modular arithmetic.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::{tail_mask, words_for, WORD_BITS};

/// An arbitrary-width bit vector.
///
/// `BitVec` is the fundamental value type of this workspace: it represents a
/// test pattern applied to the primary inputs of a circuit, the state
/// register of an accumulator- or LFSR-based test pattern generator, and the
/// seed values `δ` / `θ` of a reseeding triplet.
///
/// Bit 0 is the least-significant bit. All arithmetic is performed modulo
/// `2^width`, exactly like a hardware register of that width.
///
/// The internal representation always keeps the unused high bits of the last
/// storage word at zero, so equality and hashing are structural.
///
/// # Example
///
/// ```
/// use fbist_bits::BitVec;
///
/// let a: BitVec = "1011".parse()?; // MSB-first textual form
/// assert_eq!(a.width(), 4);
/// assert_eq!(a.to_u64(), Some(0b1011));
/// let b = a.wrapping_add(&BitVec::from_u64(4, 0b0101));
/// assert_eq!(b.to_u64(), Some(0)); // 11 + 5 = 16 ≡ 0 (mod 2^4)
/// # Ok::<(), fbist_bits::ParseBitVecError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    width: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of the given width.
    ///
    /// ```
    /// let z = fbist_bits::BitVec::zeros(100);
    /// assert!(z.is_zero());
    /// assert_eq!(z.width(), 100);
    /// ```
    pub fn zeros(width: usize) -> Self {
        BitVec {
            width,
            words: vec![0; words_for(width)],
        }
    }

    /// Creates an all-one bit vector of the given width.
    ///
    /// ```
    /// let o = fbist_bits::BitVec::ones(65);
    /// assert_eq!(o.count_ones(), 65);
    /// ```
    pub fn ones(width: usize) -> Self {
        let mut v = BitVec {
            width,
            words: vec![u64::MAX; words_for(width)],
        };
        v.normalize();
        v
    }

    /// Creates a bit vector holding `value` zero-extended (or truncated) to
    /// `width` bits.
    ///
    /// ```
    /// let v = fbist_bits::BitVec::from_u64(8, 0x1_F0); // truncated to 8 bits
    /// assert_eq!(v.to_u64(), Some(0xF0));
    /// ```
    pub fn from_u64(width: usize, value: u64) -> Self {
        let mut v = BitVec::zeros(width);
        if !v.words.is_empty() {
            v.words[0] = value;
        }
        v.normalize();
        v
    }

    /// Creates a bit vector from a little-endian slice of bools
    /// (`bits[0]` becomes bit 0).
    ///
    /// ```
    /// let v = fbist_bits::BitVec::from_bits(&[true, false, true]);
    /// assert_eq!(v.to_u64(), Some(0b101));
    /// ```
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a bit vector of the given width from raw little-endian words.
    ///
    /// Extra words are ignored; missing words are zero; unused high bits of
    /// the last word are cleared.
    pub fn from_words(width: usize, words: &[u64]) -> Self {
        let n = words_for(width);
        let mut w: Vec<u64> = words.iter().copied().take(n).collect();
        w.resize(n, 0);
        let mut v = BitVec { width, words: w };
        v.normalize();
        v
    }

    /// Creates a bit vector of the given width by taking ownership of a
    /// little-endian word buffer, avoiding [`from_words`](Self::from_words)'
    /// copy — the constructor of choice when a hot loop has just filled the
    /// buffer (e.g. word-at-a-time pattern generation).
    ///
    /// The buffer is resized to the exact storage size (extra words dropped,
    /// missing words zero) and unused high bits of the last word are cleared.
    pub fn from_word_vec(width: usize, mut words: Vec<u64>) -> Self {
        words.resize(words_for(width), 0);
        let mut v = BitVec { width, words };
        v.normalize();
        v
    }

    /// Creates a uniformly random bit vector using the supplied word source.
    ///
    /// The closure is called once per 64-bit storage word. Taking a closure
    /// rather than an RNG trait keeps this crate dependency-free; callers
    /// typically pass `|| rng.gen()`.
    ///
    /// ```
    /// use fbist_bits::BitVec;
    /// let mut state = 0x1234_5678_9abc_def0u64;
    /// let mut next = || { state ^= state << 13; state ^= state >> 7; state ^= state << 17; state };
    /// let v = BitVec::random_with(130, &mut next);
    /// assert_eq!(v.width(), 130);
    /// ```
    pub fn random_with<F: FnMut() -> u64>(width: usize, mut word_source: F) -> Self {
        let mut v = BitVec {
            width,
            words: (0..words_for(width)).map(|_| word_source()).collect(),
        };
        v.normalize();
        v
    }

    /// Width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// `true` if the width is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Value of bit `i` (bit 0 is the LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let w = i / WORD_BITS;
        let b = i % WORD_BITS;
        if value {
            self.words[w] |= 1u64 << b;
        } else {
            self.words[w] &= !(1u64 << b);
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn toggle(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// `true` if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The underlying little-endian storage words.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The value as a `u64` if the width allows it, i.e. if all bits above
    /// bit 63 are zero.
    pub fn to_u64(&self) -> Option<u64> {
        if self.words.len() <= 1 {
            Some(self.words.first().copied().unwrap_or(0))
        } else if self.words[1..].iter().all(|&w| w == 0) {
            Some(self.words[0])
        } else {
            None
        }
    }

    /// Iterator over the bits from LSB (bit 0) to MSB.
    ///
    /// ```
    /// let v = fbist_bits::BitVec::from_u64(3, 0b110);
    /// let bits: Vec<bool> = v.iter().collect();
    /// assert_eq!(bits, vec![false, true, true]);
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter { vec: self, idx: 0 }
    }

    /// Returns a copy zero-extended or truncated to `new_width` bits.
    ///
    /// ```
    /// let v = fbist_bits::BitVec::from_u64(8, 0xAB);
    /// assert_eq!(v.resized(4).to_u64(), Some(0xB));
    /// assert_eq!(v.resized(16).to_u64(), Some(0xAB));
    /// ```
    pub fn resized(&self, new_width: usize) -> BitVec {
        let mut out = BitVec::from_words(new_width, &self.words);
        out.normalize();
        out
    }

    /// Modular addition: `(self + rhs) mod 2^width`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn wrapping_add(&self, rhs: &BitVec) -> BitVec {
        self.check_width(rhs, "wrapping_add");
        let mut out = BitVec::zeros(self.width);
        let mut carry = 0u64;
        for i in 0..self.words.len() {
            let (s1, c1) = self.words[i].overflowing_add(rhs.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.normalize();
        out
    }

    /// Modular subtraction: `(self - rhs) mod 2^width`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn wrapping_sub(&self, rhs: &BitVec) -> BitVec {
        self.check_width(rhs, "wrapping_sub");
        let mut out = BitVec::zeros(self.width);
        let mut borrow = 0u64;
        for i in 0..self.words.len() {
            let (d1, b1) = self.words[i].overflowing_sub(rhs.words[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.words[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        out.normalize();
        out
    }

    /// Modular multiplication: `(self * rhs) mod 2^width`
    /// (schoolbook over 64-bit limbs).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn wrapping_mul(&self, rhs: &BitVec) -> BitVec {
        self.check_width(rhs, "wrapping_mul");
        let n = self.words.len();
        let mut acc = vec![0u64; n];
        for i in 0..n {
            if self.words[i] == 0 {
                continue;
            }
            let mut carry = 0u128;
            for j in 0..n - i {
                let prod =
                    (self.words[i] as u128) * (rhs.words[j] as u128) + acc[i + j] as u128 + carry;
                acc[i + j] = prod as u64;
                carry = prod >> 64;
            }
        }
        let mut out = BitVec {
            width: self.width,
            words: acc,
        };
        out.normalize();
        out
    }

    /// Two's-complement negation: `(0 - self) mod 2^width`.
    pub fn wrapping_neg(&self) -> BitVec {
        BitVec::zeros(self.width).wrapping_sub(self)
    }

    /// Adds one modulo `2^width`, in place. Returns `true` on wrap-around to
    /// zero. Useful for exhaustive enumeration of small widths.
    pub fn increment(&mut self) -> bool {
        for w in &mut self.words {
            let (s, carry) = w.overflowing_add(1);
            *w = s;
            if !carry {
                break;
            }
        }
        self.normalize();
        // wrap-around happened exactly when the truncated result is zero
        // (covers widths that are not word multiples, where the carry never
        // leaves the top storage word)
        self.is_zero()
    }

    /// Logical shift left by one bit (the MSB is dropped).
    pub fn shl1(&self) -> BitVec {
        let mut out = BitVec::zeros(self.width);
        let mut carry = 0u64;
        for i in 0..self.words.len() {
            out.words[i] = (self.words[i] << 1) | carry;
            carry = self.words[i] >> 63;
        }
        out.normalize();
        out
    }

    /// Logical shift right by one bit (a zero enters at the MSB).
    pub fn shr1(&self) -> BitVec {
        let mut out = BitVec::zeros(self.width);
        let n = self.words.len();
        for i in 0..n {
            let hi = if i + 1 < n {
                self.words[i + 1] << 63
            } else {
                0
            };
            out.words[i] = (self.words[i] >> 1) | hi;
        }
        out.normalize();
        out
    }

    /// Even parity of all bits (`true` if the number of set bits is odd).
    pub fn parity(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    /// Index of the lowest set bit, if any.
    pub fn lowest_set_bit(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Concatenates `self` (low part) with `high` (high part).
    ///
    /// ```
    /// use fbist_bits::BitVec;
    /// let lo = BitVec::from_u64(4, 0xA);
    /// let hi = BitVec::from_u64(4, 0x5);
    /// assert_eq!(lo.concat(&hi).to_u64(), Some(0x5A));
    /// ```
    pub fn concat(&self, high: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.width + high.width);
        for i in 0..self.width {
            if self.get(i) {
                out.set(i, true);
            }
        }
        for i in 0..high.width {
            if high.get(i) {
                out.set(self.width + i, true);
            }
        }
        out
    }

    /// Hamming distance to `rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn hamming_distance(&self, rhs: &BitVec) -> usize {
        self.check_width(rhs, "hamming_distance");
        self.words
            .iter()
            .zip(&rhs.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    #[inline]
    fn normalize(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= tail_mask(self.width);
        }
        if self.width == 0 {
            self.words.clear();
        }
    }

    #[inline]
    fn check_width(&self, rhs: &BitVec, op: &str) {
        assert_eq!(
            self.width, rhs.width,
            "{op}: width mismatch ({} vs {})",
            self.width, rhs.width
        );
    }
}

impl Default for BitVec {
    fn default() -> Self {
        BitVec::zeros(0)
    }
}

impl PartialOrd for BitVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitVec {
    /// Numeric comparison; a shorter vector compares as if zero-extended.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let n = self.words.len().max(other.words.len());
        for i in (0..n).rev() {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// Iterator over the bits of a [`BitVec`], LSB first.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.idx < self.vec.width {
            let b = self.vec.get(self.idx);
            self.idx += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.width - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bits(&bits)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec<{}>({})", self.width, self)
    }
}

impl fmt::Display for BitVec {
    /// MSB-first binary rendering, e.g. `1011` for the 4-bit value 11.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "ε");
        }
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.words.is_empty() {
            return write!(f, "0");
        }
        let mut started = false;
        for (i, w) in self.words.iter().enumerate().rev() {
            if started {
                write!(f, "{w:016x}")?;
            } else if *w != 0 || i == 0 {
                write!(f, "{w:x}")?;
                started = true;
            }
        }
        Ok(())
    }
}

impl fmt::Binary for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when parsing a [`BitVec`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBitVecError {
    offending: char,
    position: usize,
}

impl fmt::Display for ParseBitVecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid character {:?} at position {} (expected '0', '1' or '_')",
            self.offending, self.position
        )
    }
}

impl Error for ParseBitVecError {}

impl FromStr for BitVec {
    type Err = ParseBitVecError;

    /// Parses an MSB-first binary string; `_` separators are ignored.
    ///
    /// ```
    /// use fbist_bits::BitVec;
    /// let v: BitVec = "1010_0001".parse()?;
    /// assert_eq!(v.to_u64(), Some(0xA1));
    /// # Ok::<(), fbist_bits::ParseBitVecError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut bits = Vec::with_capacity(s.len());
        for (position, c) in s.chars().enumerate() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                '_' => {}
                offending => {
                    return Err(ParseBitVecError {
                        offending,
                        position,
                    })
                }
            }
        }
        bits.reverse(); // textual MSB-first -> storage LSB-first
        Ok(BitVec::from_bits(&bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert!(z.is_zero());
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.get(0));
        assert!(o.get(69));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(8);
        let _ = v.get(8);
    }

    #[test]
    fn add_carry_across_words() {
        let a = BitVec::from_words(128, &[u64::MAX, 0]);
        let b = BitVec::from_u64(128, 1);
        let s = a.wrapping_add(&b);
        assert_eq!(s.as_words(), &[0, 1]);
    }

    #[test]
    fn add_wraps_at_width() {
        let a = BitVec::from_u64(4, 15);
        let b = BitVec::from_u64(4, 1);
        assert!(a.wrapping_add(&b).is_zero());
    }

    #[test]
    fn sub_borrows_across_words() {
        let a = BitVec::from_words(128, &[0, 1]);
        let b = BitVec::from_u64(128, 1);
        let d = a.wrapping_sub(&b);
        assert_eq!(d.as_words(), &[u64::MAX, 0]);
    }

    #[test]
    fn sub_is_add_inverse() {
        let a = BitVec::from_u64(17, 0x1F0F3);
        let b = BitVec::from_u64(17, 0x0ABCD);
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn mul_matches_u64_for_small_widths() {
        for (x, y) in [(3u64, 5u64), (255, 255), (1000, 999), (0, 42)] {
            let a = BitVec::from_u64(16, x);
            let b = BitVec::from_u64(16, y);
            assert_eq!(
                a.wrapping_mul(&b).to_u64().unwrap(),
                (x.wrapping_mul(y)) & 0xFFFF,
                "{x} * {y}"
            );
        }
    }

    #[test]
    fn mul_cross_word() {
        // (2^64 + 1)^2 = 2^128 + 2^65 + 1; mod 2^128 -> bits 65 and 0.
        let a = BitVec::from_words(128, &[1, 1]);
        let sq = a.wrapping_mul(&a);
        assert!(sq.get(0));
        assert!(sq.get(65));
        assert_eq!(sq.count_ones(), 2);
    }

    #[test]
    fn neg_roundtrip() {
        let a = BitVec::from_u64(12, 100);
        assert!(a.wrapping_add(&a.wrapping_neg()).is_zero());
    }

    #[test]
    fn shifts() {
        let a = BitVec::from_words(70, &[1u64 << 63, 0]);
        assert!(a.shl1().get(64));
        let b = BitVec::from_words(70, &[0, 1]);
        assert!(b.shr1().get(63));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let v: BitVec = "10110".parse().unwrap();
        assert_eq!(v.to_string(), "10110");
        assert_eq!(v.to_u64(), Some(0b10110));
        assert!("10x1".parse::<BitVec>().is_err());
    }

    #[test]
    fn concat_order() {
        let lo: BitVec = "11".parse().unwrap();
        let hi: BitVec = "00".parse().unwrap();
        assert_eq!(lo.concat(&hi).to_string(), "0011");
    }

    #[test]
    fn ordering_is_numeric() {
        let a = BitVec::from_u64(8, 5);
        let b = BitVec::from_u64(8, 200);
        assert!(a < b);
        let c = BitVec::from_words(128, &[0, 1]);
        assert!(b < c);
    }

    #[test]
    fn resize_truncates_and_extends() {
        let v = BitVec::from_u64(16, 0xFFFF);
        assert_eq!(v.resized(8).count_ones(), 8);
        assert_eq!(v.resized(32).count_ones(), 16);
    }

    #[test]
    fn hamming() {
        let a: BitVec = "1100".parse().unwrap();
        let b: BitVec = "1010".parse().unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn to_u64_refuses_wide_values() {
        let mut v = BitVec::zeros(65);
        v.set(64, true);
        assert_eq!(v.to_u64(), None);
        v.set(64, false);
        assert_eq!(v.to_u64(), Some(0));
    }

    #[test]
    fn increment_wraps() {
        let mut v = BitVec::ones(3);
        assert!(v.increment(), "wrap must be reported");
        assert!(v.is_zero());
    }

    #[test]
    fn increment_reports_wrap_on_non_word_widths() {
        // regression: the carry never leaves the storage word for widths
        // that are not multiples of 64, but the wrap must still be reported
        for width in [1usize, 3, 63, 64, 65, 100] {
            let mut v = BitVec::ones(width);
            assert!(v.increment(), "width {width}: wrap not reported");
            assert!(v.is_zero(), "width {width}");
            // and a non-wrapping increment reports false
            let mut v = BitVec::zeros(width);
            assert!(!v.increment(), "width {width}: false wrap");
            assert_eq!(v.count_ones(), 1);
        }
    }

    #[test]
    fn lowest_set_bit_scan() {
        let mut v = BitVec::zeros(130);
        assert_eq!(v.lowest_set_bit(), None);
        v.set(100, true);
        assert_eq!(v.lowest_set_bit(), Some(100));
        v.set(3, true);
        assert_eq!(v.lowest_set_bit(), Some(3));
    }
}
