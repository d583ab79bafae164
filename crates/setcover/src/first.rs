//! The first-detection matrix: one simulation, every τ's Detection Matrix.

use std::fmt;

use fbist_bits::{for_each_set_bit, words_for, BitMatrix, BitVec, WORD_BITS};

use crate::matrix::DetectionMatrix;

/// A Detection Matrix augmented with *when*: for every `(triplet, fault)`
/// pair, the index of the earliest expanded pattern of the triplet's
/// stream that detects the fault, or "never" within `τ_max`.
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
/// and the result is bit-identical to re-simulating at `τ` (pinned
/// against per-row simulation by `tests/batched_matrix_equivalence.rs`,
/// and across τ by `tests/sweep_equivalence.rs`, for every profile × TPG
/// × jobs combination).
///
/// The same prefix argument gives the paper's §4 trimming: a triplet kept
/// for a set of faults needs exactly `1 + max first[i][j]` patterns over
/// those faults ([`max_first_in`]), so the flow trims without simulating.
///
/// [`at_tau`]: FirstDetectionMatrix::at_tau
/// [`max_first_in`]: FirstDetectionMatrix::max_first_in
///
/// # Storage
///
/// One dense cell per `(row, column)`, row-major, in the narrowest
/// unsigned type that holds every index `≤ τ_max` plus a "never detected"
/// sentinel (the type's maximum): `u8` for `τ_max < 255`, `u16` for
/// `τ_max < 65535`, `u32` beyond ([`Cells`]). The flow's matrices are
/// 23–87 % dense, so a byte or two per cell is smaller than any sparse
/// form, and [`at_tau`] is one compare per cell packed straight into
/// words.
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
    tau_max: usize,
    cells: Cells,
}

/// The row-major cells of a [`FirstDetectionMatrix`]. Each variant's
/// maximum value is the "never detected" sentinel; every other cell is a
/// first-detection index `≤ τ_max`.
#[derive(Clone, PartialEq, Eq)]
pub enum Cells {
    /// For `τ_max < 255`.
    U8(Vec<u8>),
    /// For `255 ≤ τ_max < 65535`.
    U16(Vec<u16>),
    /// For `65535 ≤ τ_max < u32::MAX`.
    U32(Vec<u32>),
}

/// Runs `$body` with `$v` bound to the cell vector of whichever width
/// `$cells` holds.
macro_rules! with_cells {
    ($cells:expr, $v:ident => $body:expr) => {
        match $cells {
            Cells::U8($v) => $body,
            Cells::U16($v) => $body,
            Cells::U32($v) => $body,
        }
    };
}

/// A cell type: its maximum is the sentinel.
trait Cell: Copy + Ord {
    const NONE: Self;

    /// `index` (a pattern index below the sentinel, or
    /// [`FirstDetectionMatrix::NO_DETECTION`]) in this width.
    fn narrow(index: u32) -> Self;

    fn widen(self) -> u32;

    /// The largest cell value `≤ tau` that is not the sentinel, so that
    /// `cell <= threshold(tau)` ⇔ the cell is an index `≤ tau`.
    fn threshold(tau: usize) -> Self {
        let below_none = Self::NONE.widen() - 1;
        Self::narrow(u32::try_from(tau).map_or(below_none, |t| t.min(below_none)))
    }
}

macro_rules! impl_cell {
    ($($t:ty),*) => {$(
        impl Cell for $t {
            const NONE: $t = <$t>::MAX;

            #[inline]
            fn narrow(index: u32) -> $t {
                if index == FirstDetectionMatrix::NO_DETECTION {
                    Self::NONE
                } else {
                    index as $t
                }
            }

            #[inline]
            fn widen(self) -> u32 {
                u32::from(self)
            }
        }
    )*};
}

impl_cell!(u8, u16, u32);

impl Cells {
    /// Bytes per cell for a matrix simulated to `tau_max`: the narrowest
    /// width whose maximum (the sentinel) exceeds every index `≤ tau_max`.
    pub fn bytes_for(tau_max: usize) -> usize {
        if tau_max < usize::from(u8::MAX) {
            1
        } else if tau_max < usize::from(u16::MAX) {
            2
        } else {
            4
        }
    }

    /// Bytes per cell of this storage (1, 2 or 4).
    pub fn bytes_per_cell(&self) -> usize {
        match self {
            Cells::U8(_) => 1,
            Cells::U16(_) => 2,
            Cells::U32(_) => 4,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        with_cells!(self, v => v.len())
    }

    /// `true` when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `len` sentinel cells of the width `tau_max` needs.
    fn undetected(len: usize, tau_max: usize) -> Cells {
        match Cells::bytes_for(tau_max) {
            1 => Cells::U8(vec![u8::NONE; len]),
            2 => Cells::U16(vec![u16::NONE; len]),
            _ => Cells::U32(vec![u32::NONE; len]),
        }
    }
}

impl FirstDetectionMatrix {
    /// Sentinel "never detected" index accepted by [`from_rows`] and
    /// [`merge_min`] — the same value
    /// `fbist_fault::FaultSimulator::NO_DETECTION` reports, so simulator
    /// output feeds in unchanged. Stored cells use their own width's
    /// maximum instead ([`Cells`]).
    ///
    /// [`from_rows`]: FirstDetectionMatrix::from_rows
    /// [`merge_min`]: FirstDetectionMatrix::merge_min
    pub const NO_DETECTION: u32 = u32::MAX;

    /// A `rows × cols` matrix for a pass simulated to `tau_max` in which
    /// nothing is detected yet; [`merge_min`](Self::merge_min) fills it.
    ///
    /// # Panics
    ///
    /// Panics if `rows × cols` overflows `usize` or `tau_max` is not
    /// below [`NO_DETECTION`](Self::NO_DETECTION).
    pub fn undetected(rows: usize, cols: usize, tau_max: usize) -> FirstDetectionMatrix {
        let len = rows
            .checked_mul(cols)
            .unwrap_or_else(|| panic!("{rows} × {cols} first-detection cells overflow usize"));
        assert!(
            tau_max < Self::NO_DETECTION as usize,
            "τ_max = {tau_max} collides with the NO_DETECTION sentinel"
        );
        FirstDetectionMatrix {
            rows,
            cols,
            tau_max,
            cells: Cells::undetected(len, tau_max),
        }
    }

    /// Lowers row `row`'s cells to the elementwise minimum with
    /// `partial` ([`NO_DETECTION`](Self::NO_DETECTION) = no detection
    /// there). `min` is associative and commutative with the sentinel as
    /// identity, so partials of any partition of a row's patterns merge
    /// to the same cells in any order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, `partial` is not `cols` wide, or
    /// an index exceeds `τ_max`.
    pub fn merge_min(&mut self, row: usize, partial: &[u32]) {
        assert!(
            row < self.rows,
            "row {row} out of range ({} rows)",
            self.rows
        );
        assert_eq!(
            partial.len(),
            self.cols,
            "first-detection partial for row {row} is not {} wide",
            self.cols
        );
        let tau_max = self.tau_max;
        let (lo, hi) = (row * self.cols, (row + 1) * self.cols);
        with_cells!(&mut self.cells, v => merge_row(&mut v[lo..hi], partial, tau_max));
    }

    /// Builds the matrix from dense per-row first-detection indices
    /// ([`NO_DETECTION`](Self::NO_DETECTION) = the pair is never
    /// detected). `τ_max` is taken to be the largest index given (0 if
    /// there is none).
    ///
    /// # Panics
    ///
    /// Panics if a row's length differs from `cols`, naming the offending
    /// row and both widths.
    pub fn from_rows(cols: usize, rows: Vec<Vec<u32>>) -> FirstDetectionMatrix {
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "FirstDetectionMatrix::from_rows: row {r} has {} entries but \
                 the matrix has {cols} columns",
                row.len()
            );
        }
        let tau_max = rows
            .iter()
            .flatten()
            .filter(|&&i| i != Self::NO_DETECTION)
            .max()
            .map_or(0, |&i| i as usize);
        let mut m = FirstDetectionMatrix::undetected(rows.len(), cols, tau_max);
        for (r, row) in rows.into_iter().enumerate() {
            m.merge_min(r, &row);
        }
        m
    }

    /// Rebuilds a matrix from its parts — the inverse of
    /// [`cells`](Self::cells), used by the artifact store. Every
    /// invariant is validated, so untrusted (on-disk) cells fail with a
    /// message instead of corrupting downstream thresholding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: `rows ×
    /// cols` overflows, `τ_max` reaches the sentinel, the cell width is
    /// not the one `τ_max` needs ([`Cells::bytes_for`]), the cell count
    /// is not `rows × cols`, or a cell exceeds `τ_max` without being the
    /// sentinel.
    pub fn from_cells(
        rows: usize,
        cols: usize,
        tau_max: usize,
        cells: Cells,
    ) -> Result<FirstDetectionMatrix, String> {
        let len = rows
            .checked_mul(cols)
            .ok_or_else(|| format!("{rows} × {cols} cells overflow usize"))?;
        if tau_max >= Self::NO_DETECTION as usize {
            return Err(format!("τ_max = {tau_max} reaches the sentinel"));
        }
        if cells.bytes_per_cell() != Cells::bytes_for(tau_max) {
            return Err(format!(
                "{}-byte cells for τ_max = {tau_max}, which needs {}-byte cells",
                cells.bytes_per_cell(),
                Cells::bytes_for(tau_max)
            ));
        }
        if cells.len() != len {
            return Err(format!(
                "{} cells for a {rows} × {cols} matrix",
                cells.len()
            ));
        }
        let bad = with_cells!(&cells, v => first_out_of_range(v, tau_max));
        if let Some((i, value)) = bad {
            return Err(format!(
                "cell ({}, {}) holds {value}, beyond τ_max = {tau_max}",
                i / cols,
                i % cols
            ));
        }
        Ok(FirstDetectionMatrix {
            rows,
            cols,
            tau_max,
            cells,
        })
    }

    /// The row-major cells, for serialisation;
    /// [`from_cells`](Self::from_cells) round-trips them.
    pub fn cells(&self) -> &Cells {
        &self.cells
    }

    /// Number of rows (triplets).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (faults).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The evolution length the matrix answers exactly up to: every
    /// stored index is `≤ τ_max`.
    pub fn tau_max(&self) -> usize {
        self.tau_max
    }

    /// Number of ever-detected cells.
    pub fn nnz(&self) -> usize {
        with_cells!(&self.cells, v => v.iter().filter_map(|&c| found(c)).count())
    }

    /// The earliest pattern index at which `row` detects `col`, or `None`
    /// if it never does.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn first(&self, row: usize, col: usize) -> Option<u32> {
        assert!(row < self.rows, "row {row} out of range");
        assert!(col < self.cols, "column {col} out of range");
        let i = row * self.cols + col;
        with_cells!(&self.cells, v => found(v[i]))
    }

    /// The largest first-detection index (`None` for an all-zero
    /// matrix). `at_tau(max_first())` is the densest derivable matrix;
    /// larger `τ` cannot add a cell.
    pub fn max_first(&self) -> Option<u32> {
        with_cells!(&self.cells, v => v.iter().filter_map(|&c| found(c)).max())
    }

    /// The largest first-detection index of `row` over the columns set in
    /// `cols` that the row detects, or `None` if it detects none of them.
    /// For the faults a selected triplet newly covers, `1 +` this is the
    /// triplet's useful prefix: the paper's trimmed test length.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `cols` is not
    /// [`cols()`](Self::cols) wide.
    pub fn max_first_in(&self, row: usize, cols: &BitVec) -> Option<u32> {
        assert!(row < self.rows, "row {row} out of range");
        assert_eq!(cols.width(), self.cols, "column mask width");
        let (lo, hi) = (row * self.cols, (row + 1) * self.cols);
        with_cells!(&self.cells, v => max_over(&v[lo..hi], cols))
    }

    /// Derives the Detection Matrix at evolution length `tau` by
    /// thresholding: cell `(i, j)` is set iff the stored first-detection
    /// index is `≤ tau`. No simulation happens — see the type-level docs
    /// for why this is exactly the matrix a fresh simulation at `tau`
    /// would produce, provided `tau` does not exceed
    /// [`tau_max`](Self::tau_max) (larger `tau` silently saturates at the
    /// `τ_max` matrix). The row-major matrix is packed straight from the
    /// cells, 64 compares per word; the column-major copy is its
    /// 64 × 64 word-block [`transposed`](BitMatrix::transposed).
    pub fn at_tau(&self, tau: usize) -> DetectionMatrix {
        let (rows, cols) = (self.rows, self.cols);
        let words = with_cells!(&self.cells, v => threshold(v, rows, cols, tau));
        DetectionMatrix::from_bit_matrix(BitMatrix::from_words(rows, cols, words))
    }
}

fn found<T: Cell>(cell: T) -> Option<u32> {
    (cell != T::NONE).then(|| cell.widen())
}

fn merge_row<T: Cell>(cells: &mut [T], partial: &[u32], tau_max: usize) {
    for (c, (cell, &index)) in cells.iter_mut().zip(partial).enumerate() {
        assert!(
            index == FirstDetectionMatrix::NO_DETECTION || index as usize <= tau_max,
            "column {c}: first index {index} exceeds τ_max = {tau_max}"
        );
        *cell = (*cell).min(T::narrow(index));
    }
}

fn first_out_of_range<T: Cell>(cells: &[T], tau_max: usize) -> Option<(usize, u32)> {
    cells
        .iter()
        .position(|&c| c != T::NONE && c.widen() as usize > tau_max)
        .map(|i| (i, cells[i].widen()))
}

fn max_over<T: Cell>(row: &[T], cols: &BitVec) -> Option<u32> {
    let mut best: Option<T> = None;
    for_each_set_bit(cols.as_words(), |c| {
        let cell = row[c];
        if cell != T::NONE && best.is_none_or(|b| cell > b) {
            best = Some(cell);
        }
    });
    best.map(Cell::widen)
}

/// Packs `cell <= threshold(tau)` for every cell into row-major words.
fn threshold<T: Cell>(cells: &[T], rows: usize, cols: usize, tau: usize) -> Vec<u64> {
    let t = T::threshold(tau);
    let mut words = Vec::with_capacity(rows * words_for(cols));
    if cols == 0 {
        return words;
    }
    for row in cells.chunks_exact(cols) {
        let mut full = row.chunks_exact(WORD_BITS);
        words.extend((&mut full).map(|chunk| {
            let (lo, hi) = chunk.split_at(WORD_BITS / 2);
            u64::from(pack_half(lo, t)) | u64::from(pack_half(hi, t)) << 32
        }));
        let rest = full.remainder();
        if !rest.is_empty() {
            words.push(
                rest.iter()
                    .enumerate()
                    .fold(0, |acc, (k, &c)| acc | u64::from(c <= t) << k),
            );
        }
    }
    words
}

/// Bit `k` set iff `half[k] <= t`, for exactly 32 cells: a fixed-length
/// fold into a `u32` the compiler turns into vector compares on baseline
/// x86-64, where a 64-bit fold stays one cell at a time (3× slower).
#[inline]
fn pack_half<T: Cell>(half: &[T], t: T) -> u32 {
    let half: &[T; 32] = half.try_into().expect("32 cells");
    half.iter()
        .enumerate()
        .fold(0, |acc, (k, &c)| acc | u32::from(c <= t) << k)
}

impl fmt::Debug for FirstDetectionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FirstDetectionMatrix {}x{} (τ_max {}, {}-byte cells)",
            self.rows,
            self.cols,
            self.tau_max,
            self.cells.bytes_per_cell()
        )
    }
}

impl fmt::Debug for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}-byte cells", self.len(), self.bytes_per_cell())
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
    fn shape_and_lookups() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.tau_max(), 7);
        assert_eq!(m.nnz(), 5);
        assert_eq!(
            m.cells(),
            &Cells::U8(vec![0, 3, 255, 7, 255, 255, 255, 255, 2, 255, 0, 255])
        );
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
                    assert_eq!(d.col_major().get(c, r), expect, "τ={tau} ({c},{r})ᵀ");
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
    fn thresholding_spans_word_and_row_block_boundaries() {
        // 130 × 70: three row blocks of 64 and two column words. Rows
        // 64..128, the whole middle block, detect every fault at 300..=306
        // only, so the block is empty below τ = 300 and full from 306.
        let (rows, cols) = (130usize, 70usize);
        let dense: Vec<Vec<u32>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| match (r, (r * 31 + c * 17) % 11) {
                        (64..128, _) => 300 + ((r * 3 + c) % 7) as u32,
                        (_, 0) => NONE,
                        (_, k) => (k * 40) as u32,
                    })
                    .collect()
            })
            .collect();
        let m = FirstDetectionMatrix::from_rows(cols, dense.clone());
        assert_eq!(m.tau_max(), 400);
        assert_eq!(m.cells().bytes_per_cell(), 2);
        for tau in [0usize, 39, 40, 200, 299, 305, 306, 399, 400, 70_000] {
            let d = m.at_tau(tau);
            for (r, row) in dense.iter().enumerate() {
                for (c, &f) in row.iter().enumerate() {
                    let expect = f != NONE && f as usize <= tau;
                    assert_eq!(d.get(r, c), expect, "τ={tau} ({r},{c})");
                    assert_eq!(d.col_major().get(c, r), expect, "τ={tau} ({c},{r})ᵀ");
                }
            }
            // the middle block is one column-major word per fault
            let middle = match tau {
                0..300 => Some(0),
                306.. => Some(u64::MAX),
                _ => None,
            };
            if let Some(word) = middle {
                for c in 0..cols {
                    assert_eq!(d.col_major().row_words(c)[1], word, "τ={tau} column {c}");
                }
            }
        }
    }

    #[test]
    fn thresholding_packs_full_words_at_every_cell_width() {
        // 3 × 130: two full 64-cell words and a 2-cell tail per row, in
        // u8, u16 and u32 cells
        for (tau_max, bytes) in [(200u32, 1), (400, 2), (70_000, 4)] {
            let dense: Vec<Vec<u32>> = (0..3u32)
                .map(|r| {
                    (0..130u32)
                        .map(|c| match (r * 7 + c * 13) % 5 {
                            0 => NONE,
                            _ => (r * 7919 + c * 104_729) % (tau_max + 1),
                        })
                        .collect()
                })
                .collect();
            let mut m = FirstDetectionMatrix::undetected(3, 130, tau_max as usize);
            for (r, row) in dense.iter().enumerate() {
                m.merge_min(r, row);
            }
            assert_eq!(m.cells().bytes_per_cell(), bytes);
            for tau in [0, tau_max / 3, tau_max / 2, tau_max] {
                let d = m.at_tau(tau as usize);
                for (r, row) in dense.iter().enumerate() {
                    for (c, &f) in row.iter().enumerate() {
                        let expect = f != NONE && f <= tau;
                        assert_eq!(d.get(r, c), expect, "τ_max={tau_max} τ={tau} ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn cell_width_follows_tau_max() {
        for (tau_max, bytes) in [
            (0, 1),
            (254, 1),
            (255, 2),
            (65534, 2),
            (65535, 4),
            (1 << 24, 4),
        ] {
            assert_eq!(Cells::bytes_for(tau_max), bytes, "τ_max={tau_max}");
            let mut m = FirstDetectionMatrix::undetected(2, 3, tau_max);
            assert_eq!(m.cells().bytes_per_cell(), bytes);
            // the largest index still fits below the sentinel
            m.merge_min(1, &[NONE, tau_max as u32, 0]);
            assert_eq!(m.first(1, 1), Some(tau_max as u32));
            assert_eq!(m.first(1, 0), None);
            assert_eq!(m.at_tau(tau_max).row_weight(1), 2);
            assert_eq!(m.at_tau(usize::MAX).row_weight(1), 2);
            if tau_max > 0 {
                assert_eq!(m.at_tau(tau_max - 1).row_weight(1), 1);
            }
        }
    }

    #[test]
    fn merge_min_is_order_independent() {
        let parts = [vec![5, NONE, 9], vec![3, 8, NONE], vec![NONE, 2, 9]];
        let merged = |order: &[usize]| {
            let mut m = FirstDetectionMatrix::undetected(1, 3, 9);
            for &i in order {
                m.merge_min(0, &parts[i]);
            }
            m
        };
        let expect = FirstDetectionMatrix::from_rows(3, vec![vec![3, 2, 9]]);
        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            assert_eq!(merged(&order), expect, "{order:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds τ_max")]
    fn merge_rejects_indices_beyond_tau_max() {
        FirstDetectionMatrix::undetected(1, 2, 7).merge_min(0, &[8, NONE]);
    }

    #[test]
    fn max_first_in_reads_only_masked_detected_columns() {
        let m = sample();
        let mask = |bits: &[bool]| BitVec::from_bits(bits);
        assert_eq!(m.max_first_in(0, &mask(&[true, true, true, true])), Some(7));
        assert_eq!(
            m.max_first_in(0, &mask(&[true, true, true, false])),
            Some(3)
        );
        assert_eq!(m.max_first_in(0, &mask(&[false, false, true, false])), None);
        assert_eq!(m.max_first_in(1, &mask(&[true; 4])), None);
        assert_eq!(
            m.max_first_in(2, &mask(&[true, false, true, false])),
            Some(2)
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
        assert_eq!(empty.at_tau(5).cols(), 3);
        assert_eq!(empty.max_first(), None);
        let zero = FirstDetectionMatrix::from_rows(2, vec![vec![NONE, NONE]]);
        assert_eq!(zero.nnz(), 0);
        assert_eq!(zero.at_tau(100).row_weight(0), 0);
        let no_cols = FirstDetectionMatrix::from_rows(0, vec![vec![], vec![]]);
        assert_eq!(no_cols.at_tau(3).rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row 1 has 2 entries but the matrix has 3 columns")]
    fn width_mismatch_panics_with_diagnostic() {
        let _ = FirstDetectionMatrix::from_rows(3, vec![vec![NONE, 1, NONE], vec![0, 1]]);
    }

    #[test]
    fn cells_round_trip_through_from_cells() {
        let m = sample();
        let back = FirstDetectionMatrix::from_cells(3, 4, 7, m.cells().clone()).unwrap();
        assert_eq!(back, m);
        let empty = FirstDetectionMatrix::from_rows(3, Vec::new());
        let back = FirstDetectionMatrix::from_cells(0, 3, 0, empty.cells().clone());
        assert_eq!(back.unwrap(), empty);
    }

    #[test]
    fn from_cells_validates_every_invariant() {
        let m = sample();
        let cells = m.cells().clone();
        let err = |rows, cols, tau_max, cells| {
            FirstDetectionMatrix::from_cells(rows, cols, tau_max, cells).unwrap_err()
        };
        assert!(err(usize::MAX, 2, 7, cells.clone()).contains("overflow"));
        assert!(err(3, 4, 300, cells.clone()).contains("needs 2-byte cells"));
        assert!(err(2, 4, 7, cells.clone()).contains("12 cells for a 2 × 4"));
        // 7 is out of range once τ_max says 6
        assert!(err(3, 4, 6, cells.clone()).contains("cell (0, 3) holds 7"));
        assert!(err(1, 1, u32::MAX as usize, Cells::U32(vec![0])).contains("sentinel"));
    }
}
