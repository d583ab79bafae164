//! The Chvátal greedy heuristic.

use fbist_bits::BitVec;

use crate::matrix::DetectionMatrix;

/// Greedy set covering: repeatedly pick the row covering the most still-
/// uncovered columns (ties broken toward the lower row index), guaranteeing
/// an `H(d)`-factor approximation (`d` = largest row weight) — the standard
/// fallback when the residual matrix is too large for the exact solver.
///
/// Each pick is a full `rows × cols/64` masked rescan.
///
/// Columns no row covers are ignored (they cannot constrain any solution).
///
/// # Example
///
/// ```
/// use fbist_setcover::{greedy_cover, DetectionMatrix};
/// use fbist_bits::BitVec;
///
/// let rows: Vec<BitVec> = ["1110", "0011", "1000"]
///     .iter().map(|s| s.parse().unwrap()).collect();
/// let m = DetectionMatrix::from_rows(4, rows);
/// let cover = greedy_cover(&m);
/// assert!(m.is_cover(&cover));
/// assert_eq!(cover, vec![0, 1]); // row 0 covers 3, then row 1 finishes
/// ```
pub fn greedy_cover(matrix: &DetectionMatrix) -> Vec<usize> {
    let mut uncovered = BitVec::zeros(matrix.cols());
    for c in 0..matrix.cols() {
        if matrix.col_weight(c) > 0 {
            uncovered.set(c, true);
        }
    }
    let mut chosen = Vec::new();
    while uncovered.count_ones() > 0 {
        let mut best_row = usize::MAX;
        let mut best_gain = 0usize;
        for r in 0..matrix.rows() {
            let gain = matrix.row_major().count_row_masked(r, &uncovered);
            if gain > best_gain {
                best_gain = gain;
                best_row = r;
            }
        }
        if best_row == usize::MAX {
            break; // defensive: nothing can progress
        }
        chosen.push(best_row);
        let cov = matrix.row_coverage(best_row);
        uncovered = &uncovered & &!&cov;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&str]) -> DetectionMatrix {
        let cols = rows[0].len();
        DetectionMatrix::from_rows(cols, rows.iter().map(|s| s.parse().unwrap()).collect())
    }

    #[test]
    fn picks_largest_first() {
        let mat = m(&["0111", "1100", "1000"]);
        let cover = greedy_cover(&mat);
        assert_eq!(cover[0], 0);
        assert!(mat.is_cover(&cover));
    }

    #[test]
    fn handles_empty_matrix() {
        let mat = DetectionMatrix::from_rows(0, vec![]);
        assert!(greedy_cover(&mat).is_empty());
    }

    #[test]
    fn ignores_uncoverable_columns() {
        let mat = m(&["10", "10"]);
        assert_eq!(greedy_cover(&mat), vec![0]);
    }

    /// Pins the documented tie-break contract: among rows of equal gain the
    /// *lower row index* is selected, at the first pick and at every later
    /// pick once earlier picks have reshuffled the gains. The exact solver's
    /// warm start, and so every node count, depends on this order.
    #[test]
    fn ties_break_toward_the_lower_row_index() {
        // all three rows tie at gain 2 → row 0 wins; covering {0,1} zeroes
        // row 1's gain, so row 2 finishes. Expected exact order: [0, 2].
        let mat = m(&["0011", "0011", "1100"]);
        assert_eq!(greedy_cover(&mat), vec![0, 2]);

        // a mid-run tie: row 0 (gain 3) is picked first; on the remaining
        // columns {4,3} rows 1 and 2 then tie at gain 2 — row 1 must win.
        let mat = m(&["00111", "11000", "11000", "10000"]);
        assert_eq!(greedy_cover(&mat), vec![0, 1]);
    }

    #[test]
    fn greedy_is_valid_on_random_instances() {
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30 {
            let nr = 4 + (next() % 10) as usize;
            let nc = 3 + (next() % 20) as usize;
            let mut rows = Vec::new();
            for _ in 0..nr {
                let mut v = fbist_bits::BitVec::zeros(nc);
                for c in 0..nc {
                    if next() % 4 == 0 {
                        v.set(c, true);
                    }
                }
                rows.push(v);
            }
            rows.push(fbist_bits::BitVec::ones(nc));
            let mat = DetectionMatrix::from_rows(nc, rows);
            assert!(mat.is_cover(&greedy_cover(&mat)));
        }
    }

    #[test]
    fn known_log_factor_worst_case() {
        // classical greedy trap: two "half" rows are optimal but greedy
        // takes the big diagonal rows; still must return a valid cover.
        let mat = m(&[
            "11110000", // greedy bait
            "00001111", "10101010", "01010101",
        ]);
        let cover = greedy_cover(&mat);
        assert!(mat.is_cover(&cover));
        assert!(cover.len() <= 3);
    }
}
