//! The stencil2row layout transformation (paper §3.2, Eq. 5–8).
//!
//! stencil2row reshapes the input into **two** compact matrices A and B.
//! For an input element at (row `x`, column `y`) and kernel edge `n_k`:
//!
//! * **Matrix A** (Eq. 5): defined iff `(y+1) mod (n_k+1) != 0`, mapping to
//!   row `⌊y/(n_k+1)⌋`, column `n_k·x + y mod (n_k+1)`. A thus *drops*
//!   every input column ≡ `n_k (mod n_k+1)`.
//! * **Matrix B** (Eq. 6): the same map applied to `y - n_k`; B covers the
//!   columns A drops (and vice versa: B drops columns ≡ `n_k−1`).
//!
//! Row `g` of matrix A concatenates, for every input row `x`, the `n_k`
//! input elements `[g(n_k+1), g(n_k+1)+n_k)` of that row; row `g` of B the
//! elements `[g(n_k+1)+n_k, g(n_k+1)+2n_k)`. Together a row pair covers a
//! `2n_k`-wide column band — all the data the dual tessellation needs to
//! complete outputs in column group `g`.
//!
//! ConvStencil never materializes these matrices in global memory
//! (they are built implicitly in shared memory, tile by tile; see
//! `planes`); the explicit constructors here are the executable
//! specification the implicit path is tested against, and they feed the
//! Table 3 memory measurements and breakdown variant I.

use serde::{Deserialize, Serialize};

/// Which of the two stencil2row matrices a mapping refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    A,
    B,
}

/// Eq. 5: map input (x, y) to (row, col) of stencil2row matrix A, or
/// `None` if column `y` is dropped from A.
// The explicit `% (nk+1) == 0` mirrors Eq. 5's mod condition verbatim.
#[allow(clippy::manual_is_multiple_of)]
#[inline]
pub fn map_a(x: usize, y: usize, nk: usize) -> Option<(usize, usize)> {
    if (y + 1) % (nk + 1) == 0 {
        return None;
    }
    Some((y / (nk + 1), nk * x + y % (nk + 1)))
}

/// Eq. 6: map input (x, y) to (row, col) of stencil2row matrix B, or
/// `None` if `y < n_k` (before B's first band) or dropped from B.
#[allow(clippy::manual_is_multiple_of)]
#[inline]
pub fn map_b(x: usize, y: usize, nk: usize) -> Option<(usize, usize)> {
    if y < nk {
        return None;
    }
    let yb = y - nk;
    if (yb + 1) % (nk + 1) == 0 {
        return None;
    }
    Some((yb / (nk + 1), nk * x + yb % (nk + 1)))
}

/// Inverse of [`map_a`]: the input (x, y) stored at (row, col) of A.
#[inline]
pub fn unmap_a(row: usize, col: usize, nk: usize) -> (usize, usize) {
    let x = col / nk;
    let off = col % nk;
    (x, row * (nk + 1) + off)
}

/// Inverse of [`map_b`].
#[inline]
pub fn unmap_b(row: usize, col: usize, nk: usize) -> (usize, usize) {
    let x = col / nk;
    let off = col % nk;
    (x, row * (nk + 1) + off + nk)
}

/// An explicitly materialized stencil2row matrix (testing / variant I /
/// Table 3 measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil2Row {
    pub side: Side,
    /// `rows x cols`, row-major.
    pub data: Vec<f64>,
    pub rows: usize,
    pub cols: usize,
}

impl Stencil2Row {
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

/// Build both stencil2row matrices of a padded 2D array (`prows x pcols`,
/// row-major). Matrix dims follow Eq. 7/8 with rows rounded up for
/// non-divisible widths; elements with no source (beyond the input edge)
/// are zero.
pub fn build_2d(
    padded: &[f64],
    prows: usize,
    pcols: usize,
    nk: usize,
) -> (Stencil2Row, Stencil2Row) {
    assert_eq!(padded.len(), prows * pcols);
    let rows_a = pcols.div_ceil(nk + 1);
    let rows_b = pcols.saturating_sub(nk).div_ceil(nk + 1).max(1);
    let cols = nk * prows;
    let mut a = Stencil2Row {
        side: Side::A,
        data: vec![0.0; rows_a * cols],
        rows: rows_a,
        cols,
    };
    let mut b = Stencil2Row {
        side: Side::B,
        data: vec![0.0; rows_b * cols],
        rows: rows_b,
        cols,
    };
    for x in 0..prows {
        for y in 0..pcols {
            let v = padded[x * pcols + y];
            if let Some((r, c)) = map_a(x, y, nk) {
                if r < rows_a {
                    a.data[r * cols + c] = v;
                }
            }
            if let Some((r, c)) = map_b(x, y, nk) {
                if r < rows_b {
                    b.data[r * cols + c] = v;
                }
            }
        }
    }
    (a, b)
}

/// Build the 1D stencil2row matrices: §4.1 — `⌈n/(n_k+1)⌉` rows of `n_k`
/// columns each.
pub fn build_1d(padded: &[f64], nk: usize) -> (Stencil2Row, Stencil2Row) {
    build_2d(padded, 1, padded.len(), nk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_a_drops_every_nk_plus_1th_column() {
        let nk = 7;
        for y in 0..64 {
            let dropped = map_a(0, y, nk).is_none();
            assert_eq!(dropped, (y + 1) % 8 == 0, "y = {y}");
        }
    }

    #[test]
    fn map_a_matches_eq5_example() {
        // Input (x=1, y=9), nk=7: row = 9/8 = 1, col = 7*1 + 9%8 = 8.
        assert_eq!(map_a(1, 9, 7), Some((1, 8)));
        // y = 7 is dropped ((7+1) % 8 == 0).
        assert_eq!(map_a(3, 7, 7), None);
    }

    #[test]
    fn map_b_covers_what_a_drops() {
        let nk = 7;
        for y in nk..200 {
            let in_a = map_a(0, y, nk).is_some();
            let in_b = map_b(0, y, nk).is_some();
            assert!(in_a || in_b, "column {y} lost by both matrices");
        }
    }

    #[test]
    fn maps_are_inverted_by_unmaps() {
        let nk = 5;
        for x in 0..10 {
            for y in 0..60 {
                if let Some((r, c)) = map_a(x, y, nk) {
                    assert_eq!(unmap_a(r, c, nk), (x, y));
                }
                if let Some((r, c)) = map_b(x, y, nk) {
                    assert_eq!(unmap_b(r, c, nk), (x, y));
                }
            }
        }
    }

    #[test]
    fn row_g_of_a_concatenates_column_bands() {
        // 3 input rows x 16 cols, nk = 3: row 0 of A should be
        // [in[0][0..3], in[1][0..3], in[2][0..3]].
        let prows = 3;
        let pcols = 16;
        let padded: Vec<f64> = (0..prows * pcols).map(|i| i as f64).collect();
        let (a, b) = build_2d(&padded, prows, pcols, 3);
        assert_eq!(a.rows, 4); // ceil(16/4)
        assert_eq!(a.cols, 9); // 3 * 3
        let row0: Vec<f64> = (0..9).map(|c| a.get(0, c)).collect();
        assert_eq!(
            row0,
            vec![0.0, 1.0, 2.0, 16.0, 17.0, 18.0, 32.0, 33.0, 34.0]
        );
        // Row 0 of B: columns 3..6 of each input row.
        let row0b: Vec<f64> = (0..9).map(|c| b.get(0, c)).collect();
        assert_eq!(
            row0b,
            vec![3.0, 4.0, 5.0, 19.0, 20.0, 21.0, 35.0, 36.0, 37.0]
        );
    }

    #[test]
    fn combined_size_matches_eq7_eq8() {
        // Table 3: stencil2row total = 2 nk / (nk + 1) of the input.
        let prows = 64;
        let pcols = 64; // divisible by nk+1 = 8
        let padded = vec![1.0; prows * pcols];
        let (a, b) = build_2d(&padded, prows, pcols, 7);
        assert_eq!(a.rows, 8);
        assert_eq!(a.cols, 7 * 64);
        let total = (a.data.len() + b.data.len()) as f64;
        let factor = total / padded.len() as f64;
        assert!((factor - 1.75).abs() < 1e-9, "factor = {factor}");
    }

    #[test]
    fn every_input_value_is_recoverable() {
        // A ∪ B covers all columns >= nothing dropped by both; check values.
        let prows = 4;
        let pcols = 24;
        let padded: Vec<f64> = (0..prows * pcols).map(|i| (i as f64).sin()).collect();
        let nk = 5;
        let (a, b) = build_2d(&padded, prows, pcols, nk);
        for x in 0..prows {
            for y in 0..pcols {
                let v = padded[x * pcols + y];
                let from_a = map_a(x, y, nk).map(|(r, c)| a.get(r, c));
                let from_b = map_b(x, y, nk).and_then(|(r, c)| (r < b.rows).then(|| b.get(r, c)));
                let got = from_a.or(from_b);
                assert_eq!(got, Some(v), "input ({x},{y}) unrecoverable");
            }
        }
    }

    #[test]
    fn build_1d_shape() {
        let padded: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let (a, b) = build_1d(&padded, 7);
        assert_eq!(a.rows, 4);
        assert_eq!(a.cols, 7);
        assert_eq!(a.get(1, 0), 8.0); // group 1 starts at column 8
        assert_eq!(b.get(0, 0), 7.0); // B starts at column nk
    }
}
