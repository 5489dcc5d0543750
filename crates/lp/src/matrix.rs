//! A minimal dense row-major matrix used by the simplex tableau.

/// Dense row-major matrix of `f64`.
///
/// This is deliberately minimal: the simplex implementation only needs
/// indexed access, row operations and resizing at construction time.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Read entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Write entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Add `v` to entry `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] += v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Divide every entry of row `r` by `divisor`.
    pub fn scale_row(&mut self, r: usize, divisor: f64) {
        for v in self.row_mut(r) {
            *v /= divisor;
        }
    }

    /// `row[target] -= factor * row[source]`, for `target != source`.
    ///
    /// This is the simplex elimination step; it borrows the two rows
    /// disjointly via `split_at_mut`.
    pub fn eliminate_row(&mut self, target: usize, source: usize, factor: f64) {
        assert_ne!(target, source, "cannot eliminate a row against itself");
        if factor == 0.0 {
            return;
        }
        let cols = self.cols;
        let (lo, hi, source_first) = if source < target {
            (source, target, true)
        } else {
            (target, source, false)
        };
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let low_row = &mut head[lo * cols..lo * cols + cols];
        let high_row = &mut tail[..cols];
        let (src, dst) = if source_first {
            (low_row as &[f64], high_row)
        } else {
            (high_row as &[f64], low_row)
        };
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d -= factor * *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_values() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.row(0).len(), 4);
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(m.get(r, c), 0.0);
            }
        }
    }

    #[test]
    fn set_get_add_round_trip() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 1, 3.5);
        m.add(0, 1, 1.5);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn scale_row_divides_every_entry() {
        let mut m = DenseMatrix::zeros(2, 3);
        for c in 0..3 {
            m.set(1, c, (c as f64 + 1.0) * 2.0);
        }
        m.scale_row(1, 2.0);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn eliminate_row_subtracts_multiple_of_source() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        m.eliminate_row(1, 0, 2.0);
        assert_eq!(m.row(1), &[2.0, 1.0, 0.0]);
        // both orders work
        m.eliminate_row(0, 1, -1.0);
        assert_eq!(m.row(0), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn eliminate_row_with_zero_factor_is_noop() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(0).copy_from_slice(&[1.0, 1.0]);
        m.row_mut(1).copy_from_slice(&[2.0, 2.0]);
        m.eliminate_row(1, 0, 0.0);
        assert_eq!(m.row(1), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "cannot eliminate")]
    fn eliminate_row_same_row_panics() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.eliminate_row(1, 1, 1.0);
    }
}
