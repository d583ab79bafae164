//! Exact branch-and-bound set covering — the LINGO stand-in.
//!
//! The paper hands the reduced Detection Matrix to LINGO, a commercial
//! integer-programming package. The minimum cardinality of a cover is
//! solver-independent, so this branch-and-bound produces the same optimum:
//!
//! * **Branching** on the uncovered column with the fewest covering rows
//!   (most-constrained-first): every cover must pick one of them, so the
//!   enumeration is complete;
//! * **Lower bound** from a greedily built set of pairwise *independent*
//!   columns (no row covers two of them) — each needs its own row;
//! * **Warm start** from the Chvátal greedy cover.
//!
//! A node budget keeps worst cases bounded; hitting it downgrades the
//! result to "best found" with `optimal = false`. A budget of 0 is the
//! Chvátal greedy cover itself, with `optimal = false` and `nodes = 0`.

use fbist_bits::BitVec;

use crate::greedy::greedy_cover;
use crate::matrix::DetectionMatrix;

/// Configuration for [`ExactSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactConfig {
    /// Search-node budget; `u64::MAX` for a truly exhaustive run, 0 to
    /// return the greedy warm start unimproved.
    pub node_limit: u64,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            node_limit: 5_000_000,
        }
    }
}

/// Result of an exact solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactResult {
    /// The best cover found (minimum cardinality when `optimal`).
    pub rows: Vec<usize>,
    /// Search nodes expanded.
    pub nodes: u64,
    /// `true` if the search completed within the node budget, proving
    /// optimality.
    pub optimal: bool,
}

/// Branch-and-bound unicost set-covering solver.
///
/// # Example
///
/// ```
/// use fbist_setcover::{DetectionMatrix, ExactSolver};
/// use fbist_bits::BitVec;
///
/// let rows: Vec<BitVec> = ["00001111", "00110000", "01000000", "01010101", "10101010"]
///     .iter().map(|s| s.parse().unwrap()).collect();
/// let m = DetectionMatrix::from_rows(8, rows);
/// let res = ExactSolver::new().solve(&m);
/// assert!(res.optimal);
/// assert_eq!(res.rows.len(), 2); // {01010101, 10101010} — greedy needs 4
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    config: ExactConfig,
}

impl ExactSolver {
    /// Creates a solver with the default node budget.
    pub fn new() -> ExactSolver {
        ExactSolver::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: ExactConfig) -> ExactSolver {
        ExactSolver { config }
    }

    /// Solves the instance. Columns no row covers are ignored.
    pub fn solve(&self, matrix: &DetectionMatrix) -> ExactResult {
        let mut coverable = BitVec::zeros(matrix.cols());
        for c in 0..matrix.cols() {
            if matrix.col_weight(c) > 0 {
                coverable.set(c, true);
            }
        }
        if coverable.count_ones() == 0 {
            return ExactResult {
                rows: Vec::new(),
                nodes: 0,
                optimal: true,
            };
        }

        let mut best = greedy_cover(matrix);
        let mut search = Search {
            matrix,
            node_limit: self.config.node_limit,
            nodes: 0,
            truncated: false,
            best_len: best.len(),
            best: &mut best,
        };
        let mut chosen = Vec::new();
        search.recurse(&coverable, &mut chosen);
        let truncated = search.truncated;
        let nodes = search.nodes;
        ExactResult {
            rows: best,
            nodes,
            optimal: !truncated,
        }
    }
}

struct Search<'a> {
    matrix: &'a DetectionMatrix,
    node_limit: u64,
    nodes: u64,
    truncated: bool,
    best_len: usize,
    best: &'a mut Vec<usize>,
}

impl Search<'_> {
    fn recurse(&mut self, uncovered: &BitVec, chosen: &mut Vec<usize>) {
        if self.nodes >= self.node_limit {
            self.truncated = true;
            return;
        }
        self.nodes += 1;

        if uncovered.count_ones() == 0 {
            if chosen.len() < self.best_len {
                self.best_len = chosen.len();
                *self.best = chosen.clone();
            }
            return;
        }
        if chosen.len() + 1 >= self.best_len {
            return; // even a single perfect row cannot improve
        }
        if chosen.len() + self.lower_bound(uncovered) >= self.best_len {
            return;
        }

        // Most-constrained column: fewest covering rows.
        let mut branch_col = usize::MAX;
        let mut branch_deg = usize::MAX;
        let mut c = uncovered.lowest_set_bit();
        while let Some(col) = c {
            let deg = self.matrix.col_weight(col);
            if deg < branch_deg {
                branch_deg = deg;
                branch_col = col;
                if deg == 1 {
                    break;
                }
            }
            // advance to next set bit above `col`
            c = next_set_bit(uncovered, col + 1);
        }
        debug_assert_ne!(branch_col, usize::MAX);

        // Order candidate rows by coverage of the uncovered set, descending
        // (find good solutions early → tighter pruning).
        let mut candidates = self.matrix.covering_rows(branch_col);
        candidates.sort_by_key(|&r| {
            std::cmp::Reverse(self.matrix.row_major().count_row_masked(r, uncovered))
        });
        for r in candidates {
            let next = &(uncovered.clone()) & &!&self.matrix.row_coverage(r);
            chosen.push(r);
            self.recurse(&next, chosen);
            chosen.pop();
            if self.truncated {
                return;
            }
        }
    }

    /// Independent-column lower bound: greedily pick uncovered columns such
    /// that no row covers two picked ones; each needs a distinct row.
    fn lower_bound(&self, uncovered: &BitVec) -> usize {
        let mut remaining = uncovered.clone();
        let mut lb = 0;
        while let Some(c) = remaining.lowest_set_bit() {
            lb += 1;
            // blank out every column covered by any row that covers c
            let mut blanket = BitVec::zeros(self.matrix.cols());
            for r in self.matrix.covering_rows(c) {
                blanket = &blanket | &self.matrix.row_coverage(r);
            }
            remaining = &remaining & &!&blanket;
        }
        lb
    }
}

fn next_set_bit(v: &BitVec, from: usize) -> Option<usize> {
    (from..v.width()).find(|&i| v.get(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&str]) -> DetectionMatrix {
        let cols = rows[0].len();
        DetectionMatrix::from_rows(cols, rows.iter().map(|s| s.parse().unwrap()).collect())
    }

    fn brute_force_optimum(m: &DetectionMatrix) -> usize {
        let nr = m.rows();
        assert!(nr <= 20);
        let coverable: Vec<usize> = (0..m.cols()).filter(|&c| m.col_weight(c) > 0).collect();
        let mut best = usize::MAX;
        for mask in 0u32..(1u32 << nr) {
            let size = mask.count_ones() as usize;
            if size >= best {
                continue;
            }
            let rows: Vec<usize> = (0..nr).filter(|&r| (mask >> r) & 1 == 1).collect();
            let cov = m.union_coverage(&rows);
            if coverable.iter().all(|&c| cov.get(c)) {
                best = size;
            }
        }
        best
    }

    #[test]
    fn beats_greedy_on_trap() {
        let mat = m(&["00001111", "00110000", "01000000", "01010101", "10101010"]);
        let greedy = greedy_cover(&mat);
        let exact = ExactSolver::new().solve(&mat);
        assert!(exact.optimal);
        assert_eq!(exact.rows.len(), 2);
        assert!(greedy.len() > exact.rows.len());
        assert!(mat.is_cover(&exact.rows));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut state = 0x5151_5151u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let nr = 3 + (next() % 9) as usize;
            let nc = 3 + (next() % 14) as usize;
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
            rows.push(BitVec::ones(nc)); // guarantee coverability
            let mat = DetectionMatrix::from_rows(nc, rows);
            let res = ExactSolver::new().solve(&mat);
            assert!(res.optimal);
            assert!(mat.is_cover(&res.rows), "round {round}");
            assert_eq!(res.rows.len(), brute_force_optimum(&mat), "round {round}");
        }
    }

    #[test]
    fn empty_and_degenerate_instances() {
        let mat = DetectionMatrix::from_rows(0, vec![]);
        let res = ExactSolver::new().solve(&mat);
        assert!(res.optimal);
        assert!(res.rows.is_empty());

        // only uncoverable columns
        let mat = m(&["00", "00"]);
        let res = ExactSolver::new().solve(&mat);
        assert!(res.rows.is_empty());
        assert!(res.optimal);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        // a moderately hard random instance with a tiny budget
        let mut state = 0x77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nc = 40;
        let mut rows: Vec<BitVec> = Vec::new();
        for _ in 0..30 {
            let mut v = BitVec::zeros(nc);
            for c in 0..nc {
                if next() % 4 == 0 {
                    v.set(c, true);
                }
            }
            rows.push(v);
        }
        // patch uncovered columns onto pseudo-random rows (no all-ones row,
        // so the optimum stays well above 1 and the search has real work)
        for c in 0..nc {
            if !rows.iter().any(|r| r.get(c)) {
                let idx = (next() % 30) as usize;
                rows[idx].set(c, true);
            }
        }
        let mat = DetectionMatrix::from_rows(nc, rows);
        let res = ExactSolver::with_config(ExactConfig { node_limit: 3 }).solve(&mat);
        // must still return the greedy warm start as a valid cover
        assert!(mat.is_cover(&res.rows));
        assert!(!res.optimal);
    }

    #[test]
    fn single_column_instance() {
        let mat = m(&["1", "1", "1"]);
        let res = ExactSolver::new().solve(&mat);
        assert_eq!(res.rows.len(), 1);
        assert!(res.optimal);
    }

    #[test]
    fn lower_bound_is_sound() {
        // partition instance: optimum equals the number of diagonal blocks
        let mat = m(&["1100", "0011"]);
        let res = ExactSolver::new().solve(&mat);
        assert_eq!(res.rows.len(), 2);
    }
}
