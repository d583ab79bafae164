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

    /// Builds a matrix from its packed row-major words: row `r` is
    /// `data[r * words_for(cols)..][..words_for(cols)]`, column `c` bit
    /// `c % 64` of word `c / 64`.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly `rows` rows of words, or a
    /// row sets a bit at or beyond `cols`.
    pub fn from_words(rows: usize, cols: usize, data: Vec<u64>) -> Self {
        let words_per_row = words_for(cols);
        assert_eq!(
            data.len(),
            rows * words_per_row,
            "{rows}x{cols} matrix needs {} words",
            rows * words_per_row
        );
        if words_per_row > 0 {
            let tail = tail_mask(cols);
            assert!(
                data.chunks_exact(words_per_row)
                    .all(|row| row[words_per_row - 1] & !tail == 0),
                "a row sets a bit beyond column {cols}"
            );
        }
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data,
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
    pub fn for_each_col_of_row(&self, row: usize, f: impl FnMut(usize)) {
        crate::for_each_set_bit(self.row_words(row), f);
    }

    /// The transposed matrix (columns become rows). Used to accelerate
    /// per-column queries in the covering reductions.
    ///
    /// Works on 64 × 64 bit blocks: the words 64 consecutive rows hold at
    /// one column word are gathered, transposed (`transpose_block`) and
    /// scattered as the words 64 consecutive columns hold at one row
    /// word. Rows past the last are read as zero, so no result row sets a
    /// bit beyond `rows`.
    pub fn transposed(&self) -> BitMatrix {
        let mut t = BitMatrix::new(self.cols, self.rows);
        let mut block = [0u64; WORD_BITS];
        for rb in 0..t.words_per_row {
            let rows = rb * WORD_BITS..self.rows.min((rb + 1) * WORD_BITS);
            for cw in 0..self.words_per_row {
                block.fill(0);
                for (k, r) in rows.clone().enumerate() {
                    block[k] = self.data[r * self.words_per_row + cw];
                }
                transpose_block(&mut block);
                let cols = cw * WORD_BITS..self.cols.min((cw + 1) * WORD_BITS);
                for (k, c) in cols.enumerate() {
                    t.data[c * t.words_per_row + rb] = block[k];
                }
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

/// Transposes a 64 × 64 bit block in place: bit `c` of word `r` moves to
/// bit `r` of word `c`. Six rounds swap the off-diagonal quadrants of
/// ever smaller sub-blocks (32, 16, …, 1 bits wide), each a masked
/// shift-and-xor over word pairs.
fn transpose_block(a: &mut [u64; WORD_BITS]) {
    let mut width = WORD_BITS / 2;
    let mut mask = u64::MAX >> width;
    while width != 0 {
        let mut k = 0;
        while k < WORD_BITS {
            let t = ((a[k] >> width) ^ a[k + width]) & mask;
            a[k] ^= t << width;
            a[k + width] ^= t;
            // the next row whose `width` bit is clear
            k = (k + width + 1) & !width;
        }
        width /= 2;
        mask ^= mask << width;
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
