//! Three-valued test cubes.

use std::fmt;
use std::str::FromStr;

use crate::bitvec::{BitVec, ParseBitVecError};

/// A single three-valued logic value: `0`, `1` or don't-care (`X`).
///
/// ```
/// use fbist_bits::Trit;
/// assert_eq!(Trit::from_bool(true), Trit::One);
/// assert_eq!(Trit::X.to_bool(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Trit {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
    /// Unspecified / don't-care.
    #[default]
    X,
}

impl Trit {
    /// Converts a concrete boolean into a trit.
    pub fn from_bool(b: bool) -> Trit {
        if b {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// The concrete value, or `None` for `X`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::X => None,
        }
    }
}

impl fmt::Display for Trit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Trit::Zero => "0",
            Trit::One => "1",
            Trit::X => "X",
        })
    }
}

/// A test *cube*: a partially specified input assignment.
///
/// A cube over `w` inputs assigns each input one of `0`, `1`, `X`. It is the
/// natural output of a deterministic ATPG (only the inputs needed to excite
/// and propagate a fault are specified) and the input of pattern *fill*,
/// which replaces the `X` positions by concrete values.
///
/// Internally a cube is a pair of [`BitVec`]s: a *care* mask (`1` where the
/// bit is specified) and a *value* plane that is kept at zero wherever the
/// care bit is clear, so structural equality equals semantic equality.
///
/// # Example
///
/// ```
/// use fbist_bits::{Cube, Trit};
///
/// let mut c: Cube = "1X0".parse()?; // MSB-first, like BitVec
/// assert_eq!(c.get(0), Trit::Zero);
/// assert_eq!(c.get(1), Trit::X);
/// assert_eq!(c.get(2), Trit::One);
/// c.set(1, Trit::One);
/// assert!(c.is_fully_specified());
/// # Ok::<(), fbist_bits::ParseBitVecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    care: BitVec,
    value: BitVec,
}

impl Cube {
    /// Creates a cube of the given width with every position `X`.
    pub fn all_x(width: usize) -> Cube {
        Cube {
            care: BitVec::zeros(width),
            value: BitVec::zeros(width),
        }
    }

    /// Creates a fully specified cube from a concrete pattern.
    pub fn from_pattern(pattern: &BitVec) -> Cube {
        Cube {
            care: BitVec::ones(pattern.width()),
            value: pattern.clone(),
        }
    }

    /// Width in positions.
    pub fn width(&self) -> usize {
        self.care.width()
    }

    /// The care mask: bit `i` set iff position `i` is specified.
    pub fn care(&self) -> &BitVec {
        &self.care
    }

    /// The value plane (zero at unspecified positions).
    pub fn value(&self) -> &BitVec {
        &self.value
    }

    /// Value at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn get(&self, i: usize) -> Trit {
        if !self.care.get(i) {
            Trit::X
        } else if self.value.get(i) {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// Sets position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set(&mut self, i: usize, t: Trit) {
        match t {
            Trit::X => {
                self.care.set(i, false);
                self.value.set(i, false);
            }
            Trit::Zero => {
                self.care.set(i, true);
                self.value.set(i, false);
            }
            Trit::One => {
                self.care.set(i, true);
                self.value.set(i, true);
            }
        }
    }

    /// Number of specified (non-`X`) positions.
    pub fn specified_count(&self) -> usize {
        self.care.count_ones()
    }

    /// `true` if no position is `X`.
    pub fn is_fully_specified(&self) -> bool {
        self.care.count_ones() == self.care.width()
    }

    /// `true` if `pattern` is contained in this cube, i.e. the pattern
    /// matches every specified position.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn contains(&self, pattern: &BitVec) -> bool {
        let diff = &self.value ^ pattern;
        (&diff & &self.care).is_zero()
    }

    /// Fills every `X` position from the supplied word source, producing a
    /// concrete pattern (random fill).
    ///
    /// ```
    /// use fbist_bits::Cube;
    /// let c: Cube = "1XX0".parse().unwrap();
    /// let p = c.fill_with(&mut || u64::MAX);
    /// assert_eq!(p.to_string(), "1110"); // Xs filled with 1s
    /// ```
    pub fn fill_with<F: FnMut() -> u64>(&self, word_source: &mut F) -> BitVec {
        let w = self.width();
        let random = BitVec::random_with(w, word_source);
        // value where cared, random elsewhere
        &self.value | &(&random & &!&self.care)
    }

    /// Fills every `X` position with `bit`.
    pub fn fill_const(&self, bit: bool) -> BitVec {
        if bit {
            &self.value | &!&self.care
        } else {
            self.value.clone()
        }
    }
}

impl fmt::Display for Cube {
    /// MSB-first rendering with `X` for don't-cares, e.g. `1X0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width() == 0 {
            return write!(f, "ε");
        }
        for i in (0..self.width()).rev() {
            write!(f, "{}", self.get(i))?;
        }
        Ok(())
    }
}

impl FromStr for Cube {
    type Err = ParseBitVecError;

    /// Parses an MSB-first string of `0`, `1`, `X`/`x`/`-`; `_` is ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let cleaned: Vec<char> = s.chars().filter(|&c| c != '_').collect();
        let width = cleaned.len();
        let mut cube = Cube::all_x(width);
        for (pos, c) in cleaned.into_iter().enumerate() {
            let i = width - 1 - pos;
            match c {
                '0' => cube.set(i, Trit::Zero),
                '1' => cube.set(i, Trit::One),
                'X' | 'x' | '-' => {}
                _ => {
                    // reuse BitVec's error by delegating to its parser
                    return Err("?".parse::<BitVec>().unwrap_err());
                }
            }
        }
        Ok(cube)
    }
}

// Bit-wise operator plumbing used above; defined on references to avoid
// consuming operands.
impl std::ops::BitAnd for &BitVec {
    type Output = BitVec;
    fn bitand(self, rhs: &BitVec) -> BitVec {
        assert_eq!(self.width(), rhs.width(), "bitand: width mismatch");
        let words: Vec<u64> = self
            .as_words()
            .iter()
            .zip(rhs.as_words())
            .map(|(a, b)| a & b)
            .collect();
        BitVec::from_words(self.width(), &words)
    }
}

impl std::ops::BitOr for &BitVec {
    type Output = BitVec;
    fn bitor(self, rhs: &BitVec) -> BitVec {
        assert_eq!(self.width(), rhs.width(), "bitor: width mismatch");
        let words: Vec<u64> = self
            .as_words()
            .iter()
            .zip(rhs.as_words())
            .map(|(a, b)| a | b)
            .collect();
        BitVec::from_words(self.width(), &words)
    }
}

impl std::ops::BitXor for &BitVec {
    type Output = BitVec;
    fn bitxor(self, rhs: &BitVec) -> BitVec {
        assert_eq!(self.width(), rhs.width(), "bitxor: width mismatch");
        let words: Vec<u64> = self
            .as_words()
            .iter()
            .zip(rhs.as_words())
            .map(|(a, b)| a ^ b)
            .collect();
        BitVec::from_words(self.width(), &words)
    }
}

impl std::ops::Not for &BitVec {
    type Output = BitVec;
    fn not(self) -> BitVec {
        let words: Vec<u64> = self.as_words().iter().map(|a| !a).collect();
        BitVec::from_words(self.width(), &words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_x_roundtrip() {
        let c = Cube::all_x(5);
        assert_eq!(c.specified_count(), 0);
        assert_eq!(c.to_string(), "XXXXX");
        assert!(!c.is_fully_specified());
    }

    #[test]
    fn set_get() {
        let mut c = Cube::all_x(4);
        c.set(0, Trit::One);
        c.set(3, Trit::Zero);
        assert_eq!(c.get(0), Trit::One);
        assert_eq!(c.get(1), Trit::X);
        assert_eq!(c.get(3), Trit::Zero);
        assert_eq!(c.to_string(), "0XX1");
        c.set(0, Trit::X);
        assert_eq!(c.get(0), Trit::X);
        assert_eq!(c.specified_count(), 1);
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["1X0", "XXXX", "0101", "1-0"] {
            let c: Cube = s.parse().unwrap();
            let canon = s.replace('-', "X");
            assert_eq!(c.to_string(), canon);
        }
        assert!("10Z".parse::<Cube>().is_err());
    }

    #[test]
    fn contains_pattern() {
        let c: Cube = "1X0".parse().unwrap();
        assert!(c.contains(&"110".parse().unwrap()));
        assert!(c.contains(&"100".parse().unwrap()));
        assert!(!c.contains(&"101".parse().unwrap()));
    }

    #[test]
    fn fill_respects_cares() {
        let c: Cube = "1XX0".parse().unwrap();
        assert_eq!(c.fill_const(false).to_string(), "1000");
        assert_eq!(c.fill_const(true).to_string(), "1110");
        let filled = c.fill_with(&mut || 0b0110);
        assert!(c.contains(&filled));
    }

    #[test]
    fn from_pattern_is_fully_specified() {
        let p: BitVec = "1010".parse().unwrap();
        let c = Cube::from_pattern(&p);
        assert!(c.is_fully_specified());
        assert!(c.contains(&p));
    }
}
