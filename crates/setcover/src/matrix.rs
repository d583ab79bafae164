//! The Detection Matrix.

use std::fmt;

use fbist_bits::{BitMatrix, BitVec};

/// The paper's Detection Matrix: rows are candidate reseeding triplets,
/// columns are target faults, and cell `(i, j)` is 1 iff triplet `i`'s test
/// set detects fault `j`.
///
/// The matrix is immutable once built; the reduction and the solvers track
/// activity with external masks, so row/column indices remain stable and
/// can always be mapped back to triplets and faults.
///
/// # Example
///
/// ```
/// use fbist_setcover::DetectionMatrix;
/// use fbist_bits::BitVec;
///
/// let rows: Vec<BitVec> = ["101", "011"].iter().map(|s| s.parse().unwrap()).collect();
/// let m = DetectionMatrix::from_rows(3, rows);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert!(m.is_cover(&[0, 1]));
/// assert!(!m.is_cover(&[0]));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DetectionMatrix {
    rows: BitMatrix,
    cols_t: BitMatrix,
}

impl DetectionMatrix {
    /// Builds a matrix from per-row detection sets.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from `cols`, naming the offending
    /// row index and both widths.
    pub fn from_rows(cols: usize, rows: Vec<BitVec>) -> DetectionMatrix {
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.width(),
                cols,
                "DetectionMatrix::from_rows: row {i} is {} bits wide but the \
                 matrix has {cols} columns",
                row.width()
            );
        }
        DetectionMatrix::from_bit_matrix(BitMatrix::from_rows(cols, &rows))
    }

    /// Builds a matrix from a raw [`BitMatrix`] (rows × cols), taking
    /// the column-major copy as its [`transposed`](BitMatrix::transposed).
    pub fn from_bit_matrix(m: BitMatrix) -> DetectionMatrix {
        let t = m.transposed();
        DetectionMatrix { rows: m, cols_t: t }
    }

    /// Number of rows (triplets).
    pub fn rows(&self) -> usize {
        self.rows.rows()
    }

    /// Number of columns (faults).
    pub fn cols(&self) -> usize {
        self.rows.cols()
    }

    /// Cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.rows.get(row, col)
    }

    /// Row-major view.
    pub fn row_major(&self) -> &BitMatrix {
        &self.rows
    }

    /// Column-major view (the transpose, one row per fault).
    pub fn col_major(&self) -> &BitMatrix {
        &self.cols_t
    }

    /// The column set covered by a row, as a [`BitVec`].
    pub fn row_coverage(&self, row: usize) -> BitVec {
        self.rows.row(row)
    }

    /// Number of columns a row covers.
    pub fn row_weight(&self, row: usize) -> usize {
        self.rows.count_row(row)
    }

    /// Number of rows covering a column.
    pub fn col_weight(&self, col: usize) -> usize {
        self.cols_t.count_row(col)
    }

    /// Indices of the rows covering `col`.
    pub fn covering_rows(&self, col: usize) -> Vec<usize> {
        self.cols_t.cols_of_row(col)
    }

    /// Union of the coverage of the given rows.
    pub fn union_coverage(&self, rows: &[usize]) -> BitVec {
        self.rows.union_of_rows(rows)
    }

    /// `true` if the given rows cover every column.
    pub fn is_cover(&self, rows: &[usize]) -> bool {
        self.union_coverage(rows).count_ones() == self.cols()
    }

    /// Columns not covered by any row at all (a valid instance for the
    /// reseeding flow has none; they can appear in synthetic instances).
    pub fn uncoverable_cols(&self) -> Vec<usize> {
        (0..self.cols())
            .filter(|&c| self.col_weight(c) == 0)
            .collect()
    }

    /// Fraction of 1-cells.
    pub fn density(&self) -> f64 {
        self.rows.density()
    }

    /// The sub-instance induced by the given (sorted or not) active rows
    /// and columns, together with the index maps back to `self`.
    ///
    /// Used to hand a *residual* matrix to the exact solver after
    /// reduction.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> (DetectionMatrix, SubMap) {
        let mut m = BitMatrix::new(rows.len(), cols.len());
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                if self.get(r, c) {
                    m.set(ri, ci, true);
                }
            }
        }
        (
            DetectionMatrix::from_bit_matrix(m),
            SubMap {
                row_map: rows.to_vec(),
                col_map: cols.to_vec(),
            },
        )
    }
}

impl fmt::Debug for DetectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DetectionMatrix {}x{} (density {:.3})",
            self.rows(),
            self.cols(),
            self.density()
        )
    }
}

/// Index maps from a [`DetectionMatrix::submatrix`] back to the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubMap {
    /// `row_map[i]` = original index of sub-row `i`.
    pub row_map: Vec<usize>,
    /// `col_map[j]` = original index of sub-column `j`.
    pub col_map: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DetectionMatrix {
        let rows: Vec<BitVec> = ["11000", "01110", "00011", "01010"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        DetectionMatrix::from_rows(5, rows)
    }

    #[test]
    fn weights_and_coverings() {
        let m = sample();
        assert_eq!(m.row_weight(0), 2);
        // col 1 is set in "01110", "00011" and "01010" (bit 1 of each)
        assert_eq!(m.col_weight(1), 3);
        assert_eq!(m.covering_rows(0), vec![2]);
        assert_eq!(m.col_weight(0), 1);
    }

    #[test]
    fn cover_checks() {
        let m = sample();
        assert!(m.is_cover(&[0, 1, 2]));
        assert!(!m.is_cover(&[0, 1]));
        assert!(!m.is_cover(&[]));
    }

    #[test]
    fn uncoverable_detection() {
        let rows: Vec<BitVec> = ["10", "10"].iter().map(|s| s.parse().unwrap()).collect();
        let m = DetectionMatrix::from_rows(2, rows);
        assert_eq!(m.uncoverable_cols(), vec![0]);
    }

    #[test]
    fn submatrix_maps_back() {
        let m = sample();
        let (sub, map) = m.submatrix(&[1, 3], &[1, 2, 3]);
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.cols(), 3);
        for ri in 0..2 {
            for ci in 0..3 {
                assert_eq!(sub.get(ri, ci), m.get(map.row_map[ri], map.col_map[ci]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "row 1 is 4 bits wide but the matrix has 5 columns")]
    fn from_rows_rejects_width_mismatch_with_diagnostic() {
        let rows: Vec<BitVec> = ["11000", "0111"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let _ = DetectionMatrix::from_rows(5, rows);
    }

    #[test]
    fn col_major_is_transpose() {
        let m = sample();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                assert_eq!(m.get(r, c), m.col_major().get(c, r));
            }
        }
    }
}
