//! The end-to-end solve pipeline (reduce → exact branch-and-bound) and
//! its result.

use std::fmt;

use crate::exact::{ExactConfig, ExactSolver};
use crate::matrix::DetectionMatrix;
use crate::reduce::{reduce, Backend, ReducerConfig, Reduction};

/// Configuration of [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveConfig {
    /// Reductions to apply before the solver.
    pub reducer: ReducerConfig,
    /// Node budget for the exact solver on the residual matrix; a budget
    /// of 0 keeps its Chvátal greedy warm start.
    pub exact: ExactConfig,
    /// Selects nothing (see [`Backend`]); no code in this workspace
    /// reads it.
    pub backend: Backend,
}

/// A set-covering solution in the paper's terms: the *necessary* triplets
/// found by essentiality plus the triplets chosen by the solver on the
/// residual matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverSolution {
    necessary: Vec<usize>,
    solver_chosen: Vec<usize>,
    optimal: bool,
    reduction_iterations: usize,
    residual_size: (usize, usize),
    solver_nodes: u64,
}

impl CoverSolution {
    /// Rows forced by essentiality ("necessary triplets", Table 2).
    pub fn necessary(&self) -> &[usize] {
        &self.necessary
    }

    /// Rows chosen by the solver on the residual matrix ("LINGO triplets",
    /// Table 2).
    pub fn solver_chosen(&self) -> &[usize] {
        &self.solver_chosen
    }

    /// All selected rows: necessary first, then solver-chosen.
    pub fn rows(&self) -> Vec<usize> {
        let mut out = self.necessary.clone();
        out.extend_from_slice(&self.solver_chosen);
        out
    }

    /// Solution cardinality (the paper's `#Triplets`).
    pub fn cardinality(&self) -> usize {
        self.necessary.len() + self.solver_chosen.len()
    }

    /// `true` when the solver proved minimality of its part (a run that
    /// exhausts its node budget, a zero budget included, reports `false`).
    pub fn is_optimal(&self) -> bool {
        self.optimal
    }

    /// Residual matrix size `(rows, cols)` handed to the solver.
    pub fn residual_size(&self) -> (usize, usize) {
        self.residual_size
    }

    /// Reduction fixpoint iterations.
    pub fn reduction_iterations(&self) -> usize {
        self.reduction_iterations
    }

    /// Search nodes spent by the exact solver (0 at a zero budget).
    pub fn solver_nodes(&self) -> u64 {
        self.solver_nodes
    }
}

impl fmt::Display for CoverSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} triplets ({} necessary + {} solver{})",
            self.cardinality(),
            self.necessary.len(),
            self.solver_chosen.len(),
            if self.optimal { ", optimal" } else { "" }
        )
    }
}

/// Solves a Detection Matrix with the default configuration
/// (essentiality + row dominance, then exact branch-and-bound).
pub fn solve(matrix: &DetectionMatrix, config: &SolveConfig) -> CoverSolution {
    let reduction = reduce(matrix, &config.reducer);
    solve_with(matrix, config, &reduction)
}

/// Solves using a precomputed [`Reduction`] (lets callers inspect or log
/// the reduction separately without paying for it twice).
pub fn solve_with(
    matrix: &DetectionMatrix,
    config: &SolveConfig,
    reduction: &Reduction,
) -> CoverSolution {
    let residual_size = reduction.residual_size();
    let (solver_chosen, optimal, nodes) = if reduction.active_cols.is_empty() {
        (Vec::new(), true, 0)
    } else {
        let (sub, map) = matrix.submatrix(&reduction.active_rows, &reduction.active_cols);
        let res = ExactSolver::with_config(config.exact).solve(&sub);
        (
            res.rows.iter().map(|&r| map.row_map[r]).collect(),
            res.optimal,
            res.nodes,
        )
    };
    CoverSolution {
        necessary: reduction.essential_rows.clone(),
        solver_chosen,
        optimal,
        reduction_iterations: reduction.iterations,
        residual_size,
        solver_nodes: nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_bits::BitVec;

    fn m(rows: &[&str]) -> DetectionMatrix {
        let cols = rows[0].len();
        DetectionMatrix::from_rows(cols, rows.iter().map(|s| s.parse().unwrap()).collect())
    }

    #[test]
    fn closed_by_reduction() {
        // col0 only in r2, col2 only in r0 → both essential, covering all.
        let mat = m(&["110", "010", "001"]);
        let sol = solve(&mat, &SolveConfig::default());
        assert!(sol.solver_chosen().is_empty());
        assert_eq!(sol.necessary(), &[2, 0]);
        assert!(sol.is_optimal());
        assert!(mat.is_cover(&sol.rows()));
    }

    #[test]
    fn mixed_necessary_and_solver() {
        // col 4 (leftmost) only in row 0 → essential, retires cols {4,3}.
        // Remaining cols {2,1,0} over rows 1..4 need the solver.
        let mat = m(&[
            "11000", // essential via col 4
            "00110", "00011", "00101",
        ]);
        let sol = solve(&mat, &SolveConfig::default());
        assert_eq!(sol.necessary(), &[0]);
        assert!(!sol.solver_chosen().is_empty());
        assert!(mat.is_cover(&sol.rows()));
        assert!(sol.is_optimal());
        assert_eq!(sol.cardinality(), 3); // 0 + {e.g. 1&2 or 3&2}
    }

    #[test]
    fn engines_agree_on_validity() {
        // the default budget proves the optimum of 2; budget 0 keeps the
        // greedy warm start, which needs 4 rows here
        let mat = m(&["00001111", "00110000", "01000000", "01010101", "10101010"]);
        for (node_limit, rows, optimal) in
            [(ExactConfig::default().node_limit, 2, true), (0, 4, false)]
        {
            let cfg = SolveConfig {
                reducer: crate::reduce::ReducerConfig::none(),
                exact: ExactConfig { node_limit },
                ..SolveConfig::default()
            };
            let sol = solve(&mat, &cfg);
            assert!(mat.is_cover(&sol.rows()), "node_limit={node_limit}");
            assert_eq!(sol.cardinality(), rows, "node_limit={node_limit}");
            assert_eq!(sol.is_optimal(), optimal, "node_limit={node_limit}");
            assert_eq!(
                sol.solver_nodes() == 0,
                node_limit == 0,
                "node_limit={node_limit}"
            );
        }
    }

    #[test]
    fn reduction_plus_solver_is_optimal() {
        // random cross-check against a no-reduction exact run
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..25 {
            let nr = 4 + (next() % 8) as usize;
            let nc = 4 + (next() % 10) as usize;
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
            rows.push(BitVec::ones(nc));
            let mat = DetectionMatrix::from_rows(nc, rows);
            let with_red = solve(&mat, &SolveConfig::default());
            let without = solve(
                &mat,
                &SolveConfig {
                    reducer: crate::reduce::ReducerConfig::none(),
                    ..SolveConfig::default()
                },
            );
            assert!(with_red.is_optimal() && without.is_optimal());
            assert_eq!(with_red.cardinality(), without.cardinality());
            assert!(mat.is_cover(&with_red.rows()));
        }
    }

    #[test]
    fn display_summarises() {
        let mat = m(&["10", "01"]);
        let sol = solve(&mat, &SolveConfig::default());
        let s = sol.to_string();
        assert!(s.contains("2 triplets"), "{s}");
        assert!(s.contains("2 necessary"), "{s}");
    }
}
