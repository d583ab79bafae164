//! Dense two-dimensional bit matrices.

use std::fmt;

use crate::bitvec::BitVec;
use crate::{tail_mask, words_for, WORD_BITS};

/// A dense `rows × cols` bit matrix with word-packed rows.
///
/// `BitMatrix` is the backing store of the paper's *Detection Matrix*
/// (rows = triplets, columns = faults). Rows are contiguous in memory so
/// the subset tests that drive the dominance reduction compile down to a
/// handful of word operations per row pair.
///
/// # Example
///
/// ```
/// use fbist_bits::BitMatrix;
///
/// let mut m = BitMatrix::new(2, 100);
/// m.set(0, 3, true);
/// m.set(1, 3, true);
/// m.set(1, 99, true);
/// assert!(m.row_is_subset(0, 1)); // row 0 ⊆ row 1
/// assert!(!m.row_is_subset(1, 0));
/// assert_eq!(m.count_row(1), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        let words_per_row = words_for(cols);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Builds a matrix from per-row [`BitVec`]s.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from `cols`.
    pub fn from_rows(cols: usize, rows: &[BitVec]) -> Self {
        let mut m = BitMatrix::new(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.width(), cols, "row {r} width mismatch");
            let base = r * m.words_per_row;
            m.data[base..base + m.words_per_row].copy_from_slice(row.as_words());
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.check(row, col);
        let w = self.words_per_row * row + col / WORD_BITS;
        (self.data[w] >> (col % WORD_BITS)) & 1 == 1
    }

    /// Sets cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.check(row, col);
        let w = self.words_per_row * row + col / WORD_BITS;
        let b = col % WORD_BITS;
        if value {
            self.data[w] |= 1u64 << b;
        } else {
            self.data[w] &= !(1u64 << b);
        }
    }

    #[inline]
    fn check(&self, row: usize, col: usize) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
    }

    /// The packed words of one row.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        let base = row * self.words_per_row;
        &self.data[base..base + self.words_per_row]
    }

    /// Copies a row out as a [`BitVec`].
    pub fn row(&self, row: usize) -> BitVec {
        BitVec::from_words(self.cols, self.row_words(row))
    }

    /// ORs a [`BitVec`] into a row (in-place accumulation), the primitive
    /// behind assembling rows from independently computed partials.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `bits` is not `cols` wide.
    pub fn or_bits_into_row(&mut self, row: usize, bits: &BitVec) {
        assert!(
            row < self.rows,
            "row {row} out of range ({} rows)",
            self.rows
        );
        assert_eq!(
            bits.width(),
            self.cols,
            "row {row}: partial width {} != matrix cols {}",
            bits.width(),
            self.cols
        );
        let base = row * self.words_per_row;
        for (i, &w) in bits.as_words().iter().enumerate() {
            self.data[base + i] |= w;
        }
    }

    /// ORs `src` row into `dst` row (in place accumulation).
    pub fn or_row_into(&mut self, src: usize, dst: usize) {
        assert!(src < self.rows && dst < self.rows);
        let (s, d) = (src * self.words_per_row, dst * self.words_per_row);
        for i in 0..self.words_per_row {
            let v = self.data[s + i];
            self.data[d + i] |= v;
        }
    }

    /// Number of set bits in a row.
    pub fn count_row(&self, row: usize) -> usize {
        self.row_words(row)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of set bits in a row, restricted to the columns selected by
    /// `mask` (a `cols`-bit vector).
    pub fn count_row_masked(&self, row: usize, mask: &BitVec) -> usize {
        debug_assert_eq!(mask.width(), self.cols);
        self.row_words(row)
            .iter()
            .zip(mask.as_words())
            .map(|(w, m)| (w & m).count_ones() as usize)
            .sum()
    }

    /// `true` if row `a` ⊆ row `b` (every set bit of `a` is set in `b`).
    pub fn row_is_subset(&self, a: usize, b: usize) -> bool {
        self.row_words(a)
            .iter()
            .zip(self.row_words(b))
            .all(|(x, y)| x & !y == 0)
    }

    /// `true` if row `a` ⊆ row `b` when both are restricted to the columns
    /// selected by `mask`.
    pub fn row_is_subset_masked(&self, a: usize, b: usize, mask: &BitVec) -> bool {
        debug_assert_eq!(mask.width(), self.cols);
        self.row_words(a)
            .iter()
            .zip(self.row_words(b))
            .zip(mask.as_words())
            .all(|((x, y), m)| (x & m) & !(y & m) == 0)
    }

    /// `true` if rows `a` and `b` are identical on the columns selected by
    /// `mask`.
    pub fn rows_equal_masked(&self, a: usize, b: usize, mask: &BitVec) -> bool {
        self.row_words(a)
            .iter()
            .zip(self.row_words(b))
            .zip(mask.as_words())
            .all(|((x, y), m)| x & m == y & m)
    }

    /// Indices of the rows that cover column `col` (have a 1 there).
    pub fn rows_covering(&self, col: usize) -> Vec<usize> {
        (0..self.rows).filter(|&r| self.get(r, col)).collect()
    }

    /// Indices of the columns set in `row`.
    pub fn cols_of_row(&self, row: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_col_of_row(row, |c| out.push(c));
        out
    }

    /// Calls `f` with each set column of `row`, in ascending order, without
    /// allocating.
    #[inline]
    pub fn for_each_col_of_row(&self, row: usize, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.row_words(row).iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                f(wi * WORD_BITS + b);
                bits &= bits - 1;
            }
        }
    }

    /// The transposed matrix (columns become rows). Used to accelerate
    /// per-column queries in the covering reductions.
    pub fn transposed(&self) -> BitMatrix {
        let mut t = BitMatrix::new(self.cols, self.rows);
        for r in 0..self.rows {
            for c in self.cols_of_row(r) {
                t.set(c, r, true);
            }
        }
        t
    }

    /// OR of the selected rows as a [`BitVec`] over the columns.
    pub fn union_of_rows(&self, rows: &[usize]) -> BitVec {
        let mut acc = vec![0u64; self.words_per_row];
        for &r in rows {
            for (a, w) in acc.iter_mut().zip(self.row_words(r)) {
                *a |= w;
            }
        }
        if let Some(last) = acc.last_mut() {
            *last &= tail_mask(self.cols);
        }
        BitVec::from_words(self.cols, &acc)
    }

    /// Total number of set cells.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Density: fraction of cells set (`0.0` for an empty matrix).
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.count_ones() as f64 / cells as f64
        }
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "BitMatrix {}x{} ({} ones)",
            self.rows,
            self.cols,
            self.count_ones()
        )?;
        if self.rows <= 16 && self.cols <= 80 {
            for r in 0..self.rows {
                writeln!(f, "  {}", {
                    let mut s = String::with_capacity(self.cols);
                    for c in 0..self.cols {
                        s.push(if self.get(r, c) { '1' } else { '.' });
                    }
                    s
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BitMatrix {
        // rows over 5 cols:
        // r0: 1 1 0 0 0
        // r1: 1 1 1 0 0
        // r2: 0 0 0 1 1
        let mut m = BitMatrix::new(3, 5);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 3), (2, 4)] {
            m.set(r, c, true);
        }
        m
    }

    #[test]
    fn get_set() {
        let mut m = BitMatrix::new(4, 130);
        m.set(3, 129, true);
        assert!(m.get(3, 129));
        assert!(!m.get(3, 128));
        m.set(3, 129, false);
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        let m = BitMatrix::new(1, 1);
        let _ = m.get(0, 1);
    }

    #[test]
    fn subset_relations() {
        let m = sample();
        assert!(m.row_is_subset(0, 1));
        assert!(!m.row_is_subset(1, 0));
        assert!(!m.row_is_subset(0, 2));
        assert!(m.row_is_subset(0, 0));
    }

    #[test]
    fn masked_subset() {
        let m = sample();
        // restrict to columns {0}: rows 0 and 1 equal there
        let mut mask = BitVec::zeros(5);
        mask.set(0, true);
        assert!(m.row_is_subset_masked(1, 0, &mask));
        assert!(m.rows_equal_masked(0, 1, &mask));
    }

    #[test]
    fn counting() {
        let m = sample();
        assert_eq!(m.count_row(1), 3);
        assert_eq!(m.count_ones(), 7);
        let mut mask = BitVec::ones(5);
        mask.set(0, false);
        assert_eq!(m.count_row_masked(1, &mask), 2);
    }

    #[test]
    fn cover_queries() {
        let m = sample();
        assert_eq!(m.rows_covering(0), vec![0, 1]);
        assert_eq!(m.rows_covering(4), vec![2]);
        assert_eq!(m.cols_of_row(2), vec![3, 4]);
    }

    #[test]
    fn for_each_col_matches_cols_of_row_across_words() {
        let mut m = BitMatrix::new(2, 150);
        for c in [0, 63, 64, 100, 149] {
            m.set(1, c, true);
        }
        let mut seen = Vec::new();
        m.for_each_col_of_row(1, |c| seen.push(c));
        assert_eq!(seen, m.cols_of_row(1));
        assert_eq!(seen, vec![0, 63, 64, 100, 149]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transposed();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert!(t.get(2, 1));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn union_rows() {
        let m = sample();
        let u = m.union_of_rows(&[0, 2]);
        assert_eq!(u.count_ones(), 4);
        let all = m.union_of_rows(&[0, 1, 2]);
        assert_eq!(all.count_ones(), 5);
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = vec![
            "10010".parse::<BitVec>().unwrap(),
            "01100".parse::<BitVec>().unwrap(),
        ];
        let m = BitMatrix::from_rows(5, &rows);
        assert_eq!(m.row(0), rows[0]);
        assert_eq!(m.row(1), rows[1]);
    }

    #[test]
    fn density_bounds() {
        let m = sample();
        let d = m.density();
        assert!(d > 0.0 && d < 1.0);
        assert_eq!(BitMatrix::new(0, 0).density(), 0.0);
    }
}
