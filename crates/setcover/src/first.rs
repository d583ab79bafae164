//! The first-detection matrix: one simulation, every τ's Detection Matrix.

use std::fmt;

use fbist_bits::BitMatrix;

use crate::matrix::DetectionMatrix;

/// A Detection Matrix augmented with *when*: for every `(triplet, fault)`
/// pair that is ever detected, the index of the earliest expanded pattern
/// of the triplet's stream that detects the fault.
///
/// # Why thresholding is exact
///
/// A [`DetectionMatrix`] at evolution length `τ` has cell `(i, j)` set iff
/// *some* pattern of triplet `i`'s `τ + 1`-pattern expansion detects fault
/// `j`. Pattern generators expand **prefix-stably**: pattern `k` of a
/// triplet's stream is a pure function of `(δ, θ, k)`, independent of `τ`
/// (`τ` only says where the stream stops — see the
/// `fbist_tpg::PatternGenerator` contract). Therefore the `τ`-expansion is
/// exactly the first `τ + 1` patterns of any longer expansion, and
///
/// > cell `(i, j)` at `τ`  ⇔  `first[i][j] ≤ τ`
///
/// where `first[i][j]` is the earliest detecting index in the longest
/// stream simulated. One fault-simulation pass at `τ_max` thus determines
/// the Detection Matrix of **every** `τ ≤ τ_max` — [`at_tau`] derives them
/// by comparing stored indices against `τ`, without touching a simulator,
/// and the result is bit-identical to re-simulating at `τ` (pinned by
/// `tests/sweep_equivalence.rs` across every profile × TPG × jobs
/// combination).
///
/// [`at_tau`]: FirstDetectionMatrix::at_tau
///
/// # Storage
///
/// Detected pairs only, in CSR form: per row a sorted slice of
/// `(column, first_index)` entries. Never-detected pairs are simply
/// absent, so the sentinel used by the fault simulator (`u32::MAX`, see
/// [`NO_DETECTION`]) never needs storing, and [`at_tau`]'s derivation
/// work is `O(nnz)` threshold comparisons on top of allocating the
/// (inherently dense) output `DetectionMatrix`.
///
/// [`NO_DETECTION`]: FirstDetectionMatrix::NO_DETECTION
///
/// # Example
///
/// ```
/// use fbist_setcover::FirstDetectionMatrix;
///
/// const NONE: u32 = FirstDetectionMatrix::NO_DETECTION;
/// // 2 triplets × 3 faults: row 0 detects fault 0 at pattern 0 and
/// // fault 2 at pattern 5; row 1 detects fault 1 at pattern 2.
/// let m = FirstDetectionMatrix::from_rows(3, vec![vec![0, NONE, 5], vec![NONE, 2, NONE]]);
/// assert_eq!(m.nnz(), 3);
/// let at0 = m.at_tau(0); // only pattern 0 exists
/// assert!(at0.get(0, 0) && !at0.get(0, 2) && !at0.get(1, 1));
/// let at5 = m.at_tau(5); // all first detections in range
/// assert!(at5.get(0, 0) && at5.get(0, 2) && at5.get(1, 1));
/// assert_eq!(m.first(0, 2), Some(5));
/// assert_eq!(m.first(1, 0), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct FirstDetectionMatrix {
    rows: usize,
    cols: usize,
    /// CSR row boundaries: row `r`'s entries live at
    /// `row_ptr[r]..row_ptr[r + 1]` in `col_idx`/`first`.
    row_ptr: Vec<usize>,
    /// Column (fault) index per entry, ascending within each row.
    col_idx: Vec<u32>,
    /// Earliest detecting pattern index per entry.
    first: Vec<u32>,
}

impl FirstDetectionMatrix {
    /// Sentinel "never detected" index accepted by [`from_rows`] — the
    /// same value `fbist_fault::FaultSimulator::NO_DETECTION` reports, so
    /// simulator output feeds in unchanged.
    ///
    /// [`from_rows`]: FirstDetectionMatrix::from_rows
    pub const NO_DETECTION: u32 = u32::MAX;

    /// Builds the matrix from dense per-row first-detection indices
    /// ([`NO_DETECTION`](Self::NO_DETECTION) = the pair is never
    /// detected), compressing to CSR.
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from `cols` (naming the offending
    /// row and both widths) or `cols` does not fit `u32`.
    pub fn from_rows(cols: usize, rows: Vec<Vec<u32>>) -> FirstDetectionMatrix {
        assert!(
            u32::try_from(cols).is_ok(),
            "FirstDetectionMatrix::from_rows: {cols} columns do not fit u32"
        );
        let row_count = rows.len();
        let mut row_ptr = Vec::with_capacity(row_count + 1);
        let mut col_idx = Vec::new();
        let mut first = Vec::new();
        row_ptr.push(0);
        // consume the dense rows as they are packed, so the dense and
        // packed forms are never both whole in memory
        for (r, row) in rows.into_iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "FirstDetectionMatrix::from_rows: row {r} has {} entries but \
                 the matrix has {cols} columns",
                row.len()
            );
            for (c, &idx) in row.iter().enumerate() {
                if idx != Self::NO_DETECTION {
                    col_idx.push(c as u32);
                    first.push(idx);
                }
            }
            row_ptr.push(col_idx.len());
        }
        FirstDetectionMatrix {
            rows: row_count,
            cols,
            row_ptr,
            col_idx,
            first,
        }
    }

    /// Rebuilds a matrix from raw CSR parts — the inverse of
    /// [`csr_parts`](Self::csr_parts), used by the artifact store to
    /// deserialise without densifying. Every structural invariant is
    /// validated, so untrusted (on-disk) bytes fail with a message
    /// instead of corrupting downstream thresholding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: wrong
    /// `row_ptr` length or endpoints, non-monotone `row_ptr`, mismatched
    /// `col_idx`/`first` lengths, columns out of range or not strictly
    /// ascending within a row, or a stored
    /// [`NO_DETECTION`](Self::NO_DETECTION) sentinel (never-detected
    /// pairs must be absent, not stored).
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        first: Vec<u32>,
    ) -> Result<FirstDetectionMatrix, String> {
        if u32::try_from(cols).is_err() {
            return Err(format!("{cols} columns do not fit u32"));
        }
        if row_ptr.len() != rows + 1 {
            return Err(format!(
                "row_ptr has {} entries for {rows} rows (need rows + 1)",
                row_ptr.len()
            ));
        }
        if row_ptr[0] != 0 {
            return Err(format!("row_ptr must start at 0, found {}", row_ptr[0]));
        }
        if *row_ptr.last().expect("non-empty: rows + 1 ≥ 1") != col_idx.len() {
            return Err(format!(
                "row_ptr ends at {} but there are {} entries",
                row_ptr.last().expect("non-empty"),
                col_idx.len()
            ));
        }
        if col_idx.len() != first.len() {
            return Err(format!(
                "{} columns vs {} first-detection indices",
                col_idx.len(),
                first.len()
            ));
        }
        for r in 0..rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            if lo > hi {
                return Err(format!("row_ptr not monotone at row {r} ({lo} > {hi})"));
            }
            let mut prev: Option<u32> = None;
            for i in lo..hi {
                let c = col_idx[i];
                if c as usize >= cols {
                    return Err(format!("row {r}: column {c} out of range ({cols} columns)"));
                }
                if prev.is_some_and(|p| p >= c) {
                    return Err(format!("row {r}: columns not strictly ascending at {c}"));
                }
                if first[i] == Self::NO_DETECTION {
                    return Err(format!("row {r}, column {c}: stored NO_DETECTION sentinel"));
                }
                prev = Some(c);
            }
        }
        Ok(FirstDetectionMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            first,
        })
    }

    /// The raw CSR storage `(row_ptr, col_idx, first)` — the exact
    /// internal representation, for serialisation.
    /// [`from_csr`](Self::from_csr) round-trips it.
    pub fn csr_parts(&self) -> (&[usize], &[u32], &[u32]) {
        (&self.row_ptr, &self.col_idx, &self.first)
    }

    /// Number of rows (triplets).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (faults).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (ever-detected) cells.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row `r`'s CSR slices: `(columns, first_indices)`, columns
    /// ascending.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range row.
    pub fn row_entries(&self, row: usize) -> (&[u32], &[u32]) {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_idx[lo..hi], &self.first[lo..hi])
    }

    /// The earliest pattern index at which `row` detects `col`, or `None`
    /// if it never does.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn first(&self, row: usize, col: usize) -> Option<u32> {
        assert!(col < self.cols, "column {col} out of range");
        let (cols, firsts) = self.row_entries(row);
        cols.binary_search(&(col as u32)).ok().map(|i| firsts[i])
    }

    /// The largest stored first-detection index (`None` for an all-zero
    /// matrix). `at_tau(max_first())` is the densest derivable matrix;
    /// larger `τ` cannot add a cell.
    pub fn max_first(&self) -> Option<u32> {
        self.first.iter().copied().max()
    }

    /// Derives the Detection Matrix at evolution length `tau` by
    /// thresholding: cell `(i, j)` is set iff the stored first-detection
    /// index is `≤ tau`. No simulation happens — see the type-level docs
    /// for why this is exactly the matrix a fresh simulation at `tau`
    /// would produce, provided `tau` does not exceed the `τ_max` the
    /// matrix was simulated at (entries beyond `τ_max` were never
    /// observed, so larger `tau` silently saturates at the `τ_max`
    /// matrix).
    pub fn at_tau(&self, tau: usize) -> DetectionMatrix {
        let mut m = BitMatrix::new(self.rows, self.cols);
        for row in 0..self.rows {
            let (cols, firsts) = self.row_entries(row);
            for (&c, &f) in cols.iter().zip(firsts) {
                if f as usize <= tau {
                    m.set(row, c as usize, true);
                }
            }
        }
        DetectionMatrix::from_bit_matrix(m)
    }
}

impl fmt::Debug for FirstDetectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FirstDetectionMatrix {}x{} ({} detected cells)",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: u32 = FirstDetectionMatrix::NO_DETECTION;

    fn sample() -> FirstDetectionMatrix {
        FirstDetectionMatrix::from_rows(
            4,
            vec![
                vec![0, 3, NONE, 7],
                vec![NONE, NONE, NONE, NONE],
                vec![2, NONE, 0, NONE],
            ],
        )
    }

    #[test]
    fn csr_shape_and_lookups() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row_entries(0), (&[0u32, 1, 3][..], &[0u32, 3, 7][..]));
        assert_eq!(m.row_entries(1), (&[][..], &[][..]));
        assert_eq!(m.first(0, 1), Some(3));
        assert_eq!(m.first(0, 2), None);
        assert_eq!(m.first(2, 2), Some(0));
        assert_eq!(m.max_first(), Some(7));
    }

    #[test]
    fn thresholding_sweeps_cells_in() {
        let m = sample();
        for tau in 0..10 {
            let d = m.at_tau(tau);
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    let expect = m.first(r, c).is_some_and(|f| f as usize <= tau);
                    assert_eq!(d.get(r, c), expect, "τ={tau} ({r},{c})");
                }
            }
        }
        // τ beyond max_first saturates: no new cells can appear
        assert_eq!(
            m.at_tau(7).row_major(),
            m.at_tau(1_000_000).row_major(),
            "saturated matrices must be identical"
        );
    }

    #[test]
    fn at_tau_zero_keeps_only_initial_patterns() {
        let m = sample();
        let d = m.at_tau(0);
        assert!(d.get(0, 0) && d.get(2, 2));
        assert_eq!(d.row_major().count_ones(), 2);
    }

    #[test]
    fn empty_and_all_zero_matrices() {
        let empty = FirstDetectionMatrix::from_rows(3, Vec::new());
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.at_tau(5).rows(), 0);
        assert_eq!(empty.max_first(), None);
        let zero = FirstDetectionMatrix::from_rows(2, vec![vec![NONE, NONE]]);
        assert_eq!(zero.nnz(), 0);
        assert_eq!(zero.at_tau(100).row_weight(0), 0);
    }

    #[test]
    #[should_panic(expected = "row 1 has 2 entries but the matrix has 3 columns")]
    fn width_mismatch_panics_with_diagnostic() {
        let _ = FirstDetectionMatrix::from_rows(3, vec![vec![NONE, 1, NONE], vec![0, 1]]);
    }

    #[test]
    fn csr_parts_round_trip_through_from_csr() {
        let m = sample();
        let (row_ptr, col_idx, first) = m.csr_parts();
        let back = FirstDetectionMatrix::from_csr(
            m.rows(),
            m.cols(),
            row_ptr.to_vec(),
            col_idx.to_vec(),
            first.to_vec(),
        )
        .unwrap();
        assert_eq!(back, m);
        // the degenerate empty matrix round-trips too
        let empty = FirstDetectionMatrix::from_rows(3, Vec::new());
        let (p, c, f) = empty.csr_parts();
        let back = FirstDetectionMatrix::from_csr(0, 3, p.to_vec(), c.to_vec(), f.to_vec());
        assert_eq!(back.unwrap(), empty);
    }

    #[test]
    fn from_csr_validates_every_invariant() {
        let m = sample();
        let (p, c, f) = m.csr_parts();
        let (p, c, f) = (p.to_vec(), c.to_vec(), f.to_vec());
        // wrong row_ptr length
        assert!(
            FirstDetectionMatrix::from_csr(2, 4, p.clone(), c.clone(), f.clone())
                .unwrap_err()
                .contains("row_ptr")
        );
        // bad start
        let mut bad = p.clone();
        bad[0] = 1;
        assert!(
            FirstDetectionMatrix::from_csr(3, 4, bad, c.clone(), f.clone())
                .unwrap_err()
                .contains("start at 0")
        );
        // bad end
        let mut bad = p.clone();
        *bad.last_mut().unwrap() += 1;
        assert!(
            FirstDetectionMatrix::from_csr(3, 4, bad, c.clone(), f.clone())
                .unwrap_err()
                .contains("ends at")
        );
        // non-monotone
        let mut bad = p.clone();
        bad[1] = p[2] + 1;
        bad[2] = p[2];
        assert!(
            FirstDetectionMatrix::from_csr(3, 4, bad, c.clone(), f.clone()).is_err(),
            "non-monotone row_ptr must be rejected"
        );
        // length mismatch between col_idx and first
        let mut bad = f.clone();
        bad.pop();
        assert!(
            FirstDetectionMatrix::from_csr(3, 4, p.clone(), c.clone(), bad)
                .unwrap_err()
                .contains("first-detection indices")
        );
        // column out of range
        let mut bad = c.clone();
        bad[0] = 9;
        assert!(
            FirstDetectionMatrix::from_csr(3, 4, p.clone(), bad, f.clone())
                .unwrap_err()
                .contains("out of range")
        );
        // duplicate / descending columns
        let mut bad = c.clone();
        bad[1] = bad[0];
        assert!(
            FirstDetectionMatrix::from_csr(3, 4, p.clone(), bad, f.clone())
                .unwrap_err()
                .contains("ascending")
        );
        // stored sentinel
        let mut bad = f.clone();
        bad[0] = NONE;
        assert!(
            FirstDetectionMatrix::from_csr(3, 4, p.clone(), c.clone(), bad)
                .unwrap_err()
                .contains("NO_DETECTION")
        );
    }
}
