//! Compressed sparse row/column storage for LP constraint matrices.
//!
//! The bound-engine LPs are extremely sparse: a Shannon elemental row has at
//! most 4 nonzeros and a statistic row at most 2, while the reference
//! tableau ([`crate::solve_dense`]) is a dense `m × (n + m)`.
//! [`CsrMatrix`] stores only the nonzeros, row-major; [`CscMatrix`] is its
//! column-major transpose, which is what the revised simplex needs for
//! pricing (`yᵀA_j`) and FTRAN (`B⁻¹A_j`) — both walk one *column* at a
//! time.

/// A row-major compressed sparse matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from sparse rows of `(column, value)` pairs.
    ///
    /// Duplicate column indices within a row are summed (matching the
    /// dense builder's `add` semantics); explicit zeros (including summed
    /// cancellations) are dropped.
    pub fn from_rows(n_cols: usize, rows: &[Vec<(usize, f64)>]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for row in rows {
            scratch.clear();
            scratch.extend_from_slice(row);
            scratch.sort_unstable_by_key(|&(j, _)| j);
            let mut k = 0;
            while k < scratch.len() {
                let (j, mut v) = scratch[k];
                assert!(j < n_cols, "column index {j} out of range");
                k += 1;
                while k < scratch.len() && scratch[k].0 == j {
                    v += scratch[k].1;
                    k += 1;
                }
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n_rows: rows.len(),
            n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column, value)` entries of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Column-major transpose.
    pub fn to_csc(&self) -> CscMatrix {
        let mut col_counts = vec![0usize; self.n_cols];
        for &j in &self.col_idx {
            col_counts[j] += 1;
        }
        let mut col_ptr = Vec::with_capacity(self.n_cols + 1);
        col_ptr.push(0usize);
        for j in 0..self.n_cols {
            col_ptr.push(col_ptr[j] + col_counts[j]);
        }
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        for i in 0..self.n_rows {
            for (j, v) in self.row(i) {
                let slot = cursor[j];
                row_idx[slot] = i;
                values[slot] = v;
                cursor[j] += 1;
            }
        }
        CscMatrix {
            col_ptr,
            row_idx,
            values,
        }
    }
}

/// A column-major compressed sparse matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// The `(row, value)` entries of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Dot product of column `j` with a dense vector (`yᵀA_j`).
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        self.col(j).map(|(i, v)| v * y[i]).sum()
    }

    /// Scatter column `j` into a dense vector that the caller has zeroed.
    pub fn scatter_col(&self, j: usize, out: &mut [f64]) {
        for (i, v) in self.col(j) {
            out[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(
            4,
            &[
                vec![(0, 1.0), (2, -2.0)],
                vec![],
                vec![(3, 4.0), (0, 0.5), (0, 0.5)],
            ],
        )
    }

    #[test]
    fn from_rows_merges_duplicates_and_drops_zeros() {
        let m = CsrMatrix::from_rows(3, &[vec![(1, 2.0), (1, -2.0), (0, 3.0)]]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 3.0)]);
    }

    #[test]
    fn shape_and_row_access() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, -2.0)]);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 1.0), (3, 4.0)]);
    }

    #[test]
    fn csc_transpose_round_trips() {
        let m = sample();
        let c = m.to_csc();
        assert_eq!((0..4).map(|j| c.col(j).count()).sum::<usize>(), m.nnz());
        assert_eq!(c.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 1.0)]);
        assert_eq!(c.col(1).count(), 0);
        assert_eq!(c.col(2).collect::<Vec<_>>(), vec![(0, -2.0)]);
        assert_eq!(c.col_dot(3, &[0.0, 0.0, 2.0]), 8.0);
        let mut dense = vec![0.0; 3];
        c.scatter_col(0, &mut dense);
        assert_eq!(dense, vec![1.0, 0.0, 1.0]);
    }
}
