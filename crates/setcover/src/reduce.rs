//! Essentiality and dominance reduction.
//!
//! The paper (§3.2): *"the Detection Matrix is simplified using
//! essentiality and dominance methods … iteratively applied until the
//! matrix cannot be reduced any more"*. These are the classical covering-
//! table reductions from two-level logic minimisation (McCluskey):
//!
//! * **Essentiality** — a column covered by exactly one active row forces
//!   that row into every solution ("necessary triplet"); the row and every
//!   column it covers leave the table.
//! * **Row dominance** — an active row whose active-column set is a subset
//!   of another active row's is never needed and is deleted.
//! * **Column dominance** (dual, optional) — if every row covering column
//!   `d` also covers column `c`, then satisfying `d` implies satisfying
//!   `c`; the weaker constraint `c` is deleted. The paper does not use it;
//!   it is exposed for the ablation study.
//!
//! The reducer runs masked word scans over the packed matrix: one masked
//! popcount per column for essentiality, and `O(R²)` subset tests per
//! fixpoint round for dominance. The flow's matrices are 23–87 % dense,
//! where these word scans beat adjacency-list bookkeeping.

use fbist_bits::BitVec;

use crate::matrix::DetectionMatrix;

/// Which reductions to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducerConfig {
    /// Apply the essentiality rule.
    pub essentiality: bool,
    /// Apply row dominance.
    pub row_dominance: bool,
    /// Apply column dominance (off by default — the paper's reducer uses
    /// essentiality and row dominance only).
    pub col_dominance: bool,
}

impl Default for ReducerConfig {
    fn default() -> Self {
        ReducerConfig {
            essentiality: true,
            row_dominance: true,
            col_dominance: false,
        }
    }
}

impl ReducerConfig {
    /// Everything off — the ablation baseline (hand the full matrix to the
    /// solver).
    pub fn none() -> ReducerConfig {
        ReducerConfig {
            essentiality: false,
            row_dominance: false,
            col_dominance: false,
        }
    }

    /// Everything on, including column dominance.
    pub fn all() -> ReducerConfig {
        ReducerConfig {
            essentiality: true,
            row_dominance: true,
            col_dominance: true,
        }
    }
}

/// One step of the reduction, for auditability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionEvent {
    /// `row` is essential: it is the only active row covering `col`.
    Essential {
        /// The forced row.
        row: usize,
        /// The column that forced it.
        col: usize,
    },
    /// `row`'s active columns are a subset of `by`'s; `row` is deleted.
    RowDominated {
        /// The deleted row.
        row: usize,
        /// The dominating row.
        by: usize,
    },
    /// Constraint `col` is implied by constraint `implied_by`; deleted.
    ColDominated {
        /// The deleted (weaker) column.
        col: usize,
        /// The column that implies it.
        implied_by: usize,
    },
    /// `col` is covered by an essential row; deleted from the table.
    ColSatisfied {
        /// The satisfied column.
        col: usize,
        /// The essential row covering it.
        by: usize,
    },
    /// `col` has no covering row at all (degenerate instance); deleted.
    ColUncoverable {
        /// The uncoverable column.
        col: usize,
    },
}

/// Result of [`reduce`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// Rows forced into every solution ("necessary triplets"), in
    /// discovery order.
    pub essential_rows: Vec<usize>,
    /// Still-active rows after reduction (candidates for the solver).
    pub active_rows: Vec<usize>,
    /// Still-active (uncovered, non-redundant) columns.
    pub active_cols: Vec<usize>,
    /// Columns that no row covers (degenerate; excluded from the cover
    /// obligation).
    pub uncoverable_cols: Vec<usize>,
    /// The full event log.
    pub log: Vec<ReductionEvent>,
    /// Number of fixpoint iterations.
    pub iterations: usize,
}

impl Reduction {
    /// `true` if the residual matrix is empty — the essential rows alone
    /// form the (unique minimal) solution, as happens on several of the
    /// paper's circuits (c499, c880, c1355, …).
    pub fn is_closed(&self) -> bool {
        self.active_cols.is_empty()
    }

    /// Residual matrix dimensions `(rows, cols)`.
    pub fn residual_size(&self) -> (usize, usize) {
        (self.active_rows.len(), self.active_cols.len())
    }
}

/// Selects nothing: there is one covering implementation. The type
/// stays only so that the benchmark harness, which passes
/// [`SolveConfig::backend`] to [`reduce_with`], still compiles; no code
/// in this workspace reads it. It is deleted with `ROADMAP.md` item 5,
/// once the harness calls only flow-level APIs.
///
/// [`SolveConfig::backend`]: crate::SolveConfig::backend
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The only implementation.
    #[default]
    Dense,
}

/// [`reduce`], with a [`Backend`] that selects nothing.
pub fn reduce_with(
    matrix: &DetectionMatrix,
    config: &ReducerConfig,
    _backend: Backend,
) -> Reduction {
    reduce(matrix, config)
}

/// Applies the configured reductions to fixpoint. See the module docs.
pub fn reduce(matrix: &DetectionMatrix, config: &ReducerConfig) -> Reduction {
    let (nr, nc) = (matrix.rows(), matrix.cols());
    let mut row_active = BitVec::ones(nr);
    let mut col_active = BitVec::ones(nc);
    let mut essential_rows = Vec::new();
    let mut uncoverable = Vec::new();
    let mut log = Vec::new();
    let mut iterations = 0;

    // Pre-pass: drop columns nothing covers (degenerate instances only).
    for c in 0..nc {
        if matrix.col_weight(c) == 0 {
            col_active.set(c, false);
            uncoverable.push(c);
            log.push(ReductionEvent::ColUncoverable { col: c });
        }
    }

    loop {
        iterations += 1;
        let mut changed = false;

        // ---- essentiality ------------------------------------------------
        if config.essentiality {
            // iterate until no new essentials inside this phase
            let mut found = true;
            while found {
                found = false;
                for c in 0..nc {
                    if !col_active.get(c) {
                        continue;
                    }
                    let cnt = matrix.col_major().count_row_masked(c, &row_active);
                    if cnt == 1 {
                        // locate the single active covering row
                        let row = matrix
                            .covering_rows(c)
                            .into_iter()
                            .find(|&r| row_active.get(r))
                            .expect("count said one");
                        log.push(ReductionEvent::Essential { row, col: c });
                        essential_rows.push(row);
                        row_active.set(row, false);
                        // retire every column the essential row covers
                        for cc in matrix.row_major().cols_of_row(row) {
                            if col_active.get(cc) {
                                col_active.set(cc, false);
                                log.push(ReductionEvent::ColSatisfied { col: cc, by: row });
                            }
                        }
                        changed = true;
                        found = true;
                    }
                }
            }
        }

        // ---- row dominance ----------------------------------------------
        if config.row_dominance {
            let active: Vec<usize> = (0..nr).filter(|&r| row_active.get(r)).collect();
            let weights: Vec<usize> = active
                .iter()
                .map(|&r| matrix.row_major().count_row_masked(r, &col_active))
                .collect();
            for (ai, &r) in active.iter().enumerate() {
                if !row_active.get(r) {
                    continue;
                }
                // a row covering nothing active is trivially dominated
                // (by any other row); prefer reporting a real dominator.
                for (bi, &k) in active.iter().enumerate() {
                    if r == k || !row_active.get(k) {
                        continue;
                    }
                    if weights[ai] > weights[bi] {
                        continue; // cannot be a subset of a lighter row
                    }
                    if weights[ai] == weights[bi] && r < k {
                        continue; // tie-break: keep the lower index
                    }
                    if matrix.row_major().row_is_subset_masked(r, k, &col_active) {
                        log.push(ReductionEvent::RowDominated { row: r, by: k });
                        row_active.set(r, false);
                        changed = true;
                        break;
                    }
                }
            }
        }

        // ---- column dominance ---------------------------------------------
        if config.col_dominance {
            let active: Vec<usize> = (0..nc).filter(|&c| col_active.get(c)).collect();
            let weights: Vec<usize> = active
                .iter()
                .map(|&c| matrix.col_major().count_row_masked(c, &row_active))
                .collect();
            for (ci, &c) in active.iter().enumerate() {
                if !col_active.get(c) {
                    continue;
                }
                for (di, &d) in active.iter().enumerate() {
                    if c == d || !col_active.get(d) {
                        continue;
                    }
                    // drop c if rows(d) ⊆ rows(c): d is the tighter constraint
                    if weights[di] > weights[ci] {
                        continue;
                    }
                    if weights[di] == weights[ci] && d > c {
                        continue; // tie-break: keep the lower index
                    }
                    if matrix.col_major().row_is_subset_masked(d, c, &row_active) {
                        log.push(ReductionEvent::ColDominated {
                            col: c,
                            implied_by: d,
                        });
                        col_active.set(c, false);
                        changed = true;
                        break;
                    }
                }
            }
        }

        if !changed {
            break;
        }
    }

    Reduction {
        essential_rows,
        active_rows: (0..nr).filter(|&r| row_active.get(r)).collect(),
        active_cols: (0..nc).filter(|&c| col_active.get(c)).collect(),
        uncoverable_cols: uncoverable,
        log,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&str]) -> DetectionMatrix {
        let cols = rows[0].len();
        DetectionMatrix::from_rows(cols, rows.iter().map(|s| s.parse().unwrap()).collect())
    }

    #[test]
    fn essential_row_detected() {
        // col 0 covered only by row 2 (string is MSB-first: last char = col 0)
        let mat = m(&["110", "010", "001"]);
        let r = reduce(&mat, &ReducerConfig::default());
        assert!(r.essential_rows.contains(&2));
        assert!(r
            .log
            .iter()
            .any(|e| matches!(e, ReductionEvent::Essential { row: 2, col: 0 })));
    }

    #[test]
    fn essential_cascade_closes_matrix() {
        // r0 essential for col2 ("100"), covering col2 leaves cols 1,0;
        // r1 = "011" wait — choose: r0=100, r1=110, r2=011.
        // col2 only in r0? "100"=col2; "110"=cols2,1 → col2 covered by r0,r1.
        // Use: r0=101 (cols 2,0), r1=010 (col 1), r2=110 (cols 2,1).
        // col0 essential → r0 forced, retires cols 2,0; col1: rows r1,r2
        // remain → not closed. Then row dominance: r1 ⊆ r2 on active {col1}?
        // r1 covers col1, r2 covers col1 → equal on active; tie keeps r1.
        // Second essentiality pass: col1 now covered by 1 active row → r1
        // essential → closed.
        let mat = m(&["101", "010", "110"]);
        let r = reduce(&mat, &ReducerConfig::default());
        assert!(r.is_closed(), "{r:?}");
        assert_eq!(r.essential_rows, vec![0, 1]);
    }

    #[test]
    fn row_dominance_removes_subsets() {
        let mat = m(&["1100", "1110", "0011"]);
        let r = reduce(
            &mat,
            &ReducerConfig {
                essentiality: false,
                row_dominance: true,
                col_dominance: false,
            },
        );
        // row 0 ⊂ row 1
        assert!(!r.active_rows.contains(&0));
        assert!(r.active_rows.contains(&1));
        assert!(r
            .log
            .iter()
            .any(|e| matches!(e, ReductionEvent::RowDominated { row: 0, by: 1 })));
    }

    #[test]
    fn equal_rows_keep_lower_index() {
        let mat = m(&["110", "110", "001"]);
        let r = reduce(
            &mat,
            &ReducerConfig {
                essentiality: false,
                row_dominance: true,
                col_dominance: false,
            },
        );
        assert!(r.active_rows.contains(&0));
        assert!(!r.active_rows.contains(&1));
    }

    #[test]
    fn col_dominance_drops_implied_constraint() {
        // col layout (MSB first strings of width 2): col1, col0.
        // rows: r0=11, r1=01 → rows(col1)={0}, rows(col0)={0,1}.
        // rows(col1) ⊆ rows(col0) → covering col1 implies col0 → drop col0.
        let mat = m(&["11", "01"]);
        let r = reduce(
            &mat,
            &ReducerConfig {
                essentiality: false,
                row_dominance: false,
                col_dominance: true,
            },
        );
        assert_eq!(r.active_cols, vec![1]);
        assert!(r.log.iter().any(|e| matches!(
            e,
            ReductionEvent::ColDominated {
                col: 0,
                implied_by: 1
            }
        )));
    }

    #[test]
    fn reduction_preserves_optimum() {
        // brute-force check on a batch of pseudo-random instances
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let nr = 3 + (next() % 6) as usize;
            let nc = 2 + (next() % 6) as usize;
            let mut rows = Vec::new();
            for _ in 0..nr {
                let mut v = BitVec::zeros(nc);
                for c in 0..nc {
                    if next() % 3 == 0 {
                        v.set(c, true);
                    }
                }
                rows.push(v);
            }
            // ensure coverable: last row covers everything
            rows.push(BitVec::ones(nc));
            let mat = DetectionMatrix::from_rows(nc, rows);
            let opt_full = brute_force_optimum(&mat);
            for cfg in [ReducerConfig::default(), ReducerConfig::all()] {
                let r = reduce(&mat, &cfg);
                // optimum after reduction = essentials + optimum of residual
                let (sub, _) = mat.submatrix(&r.active_rows, &r.active_cols);
                let opt_res = brute_force_optimum(&sub);
                assert_eq!(
                    r.essential_rows.len() + opt_res,
                    opt_full,
                    "reduction changed the optimum (cfg {cfg:?})"
                );
            }
        }
    }

    /// Smallest cover size by exhaustive subset enumeration (rows ≤ 20).
    fn brute_force_optimum(m: &DetectionMatrix) -> usize {
        let nr = m.rows();
        assert!(nr <= 20, "brute force is for tiny instances");
        if m.cols() == 0 {
            return 0;
        }
        let mut best = usize::MAX;
        for mask in 0u32..(1u32 << nr) {
            let size = mask.count_ones() as usize;
            if size >= best {
                continue;
            }
            let rows: Vec<usize> = (0..nr).filter(|&r| (mask >> r) & 1 == 1).collect();
            if m.is_cover(&rows) {
                best = size;
            }
        }
        best
    }

    use fbist_bits::BitVec;

    #[test]
    fn uncoverable_columns_isolated() {
        let mat = m(&["10", "10"]);
        let r = reduce(&mat, &ReducerConfig::default());
        assert_eq!(r.uncoverable_cols, vec![0]);
        assert!(!r.active_cols.contains(&0));
    }

    #[test]
    fn no_reductions_is_identity() {
        let mat = m(&["110", "011", "101"]);
        let r = reduce(&mat, &ReducerConfig::none());
        assert!(r.essential_rows.is_empty());
        assert_eq!(r.active_rows.len(), 3);
        assert_eq!(r.active_cols.len(), 3);
    }
}
