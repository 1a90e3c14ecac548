//! Dual tessellation (paper §3.3, Fig. 3) — host-side executable
//! specification.
//!
//! One dual tessellation takes, for a chosen output row `x0` and a band of
//! 8 column groups starting at `g0`:
//!
//! 1. an `8 x n_k²` tile of stencil2row matrix A (rows = groups
//!    `g0..g0+8`, columns starting at `n_k·x0`) multiplied by weight
//!    matrix A → **vitrolite A** (half-result matrix A);
//! 2. the corresponding tile of stencil2row matrix B times weight matrix B,
//!    accumulated on vitrolite A (saving one MMA per tessellation, as the
//!    paper notes);
//! 3. the sum *is* the tessellation: entry `[ga][j]` (for `j <= n_k`) is
//!    the complete stencil output at row `x0`, column
//!    `(g0 + ga)(n_k + 1) + j` in valid-convolution coordinates.
//!
//! Because `j` spans `n_k + 1` values and consecutive groups are
//! `n_k + 1` columns apart, each tessellation completes `8(n_k + 1)`
//! contiguous outputs of one output row — the paper's Box-2D49P example
//! `[3][3:66]`: 64 contiguous outputs (center-origin row 3 = valid row 0).
//!
//! The device pipeline (`planes`) performs exactly this arithmetic with
//! simulated `m8n8k4` fragments; tests here verify the algebraic identity
//! against the naive reference, independent of any device machinery.

use crate::stencil2row::Stencil2Row;
use crate::weights::{WeightMatrices, FRAG_N};

/// Result tile of one dual tessellation: 8 group-rows x 8 columns.
pub type TessTile = [f64; 64];

/// Element of a stencil2row matrix tile, 0.0 outside the stored bounds
/// (reads past the right edge multiply the zero-padded weight rows).
#[inline]
fn tile_elem(m: &Stencil2Row, row: usize, col: usize) -> f64 {
    if row < m.rows && col < m.cols {
        m.get(row, col)
    } else {
        0.0
    }
}

/// Perform one dual tessellation on explicitly materialized stencil2row
/// matrices. `x0` is the output row; `g0` the first column group.
pub fn host_dual_tessellation(
    a: &Stencil2Row,
    b: &Stencil2Row,
    w: &WeightMatrices,
    x0: usize,
    g0: usize,
) -> TessTile {
    let nk = w.nk;
    let base = nk * x0;
    let mut out = [0.0; 64];
    // Step 1: vitrolite A = tile_A x W_A; step 2 accumulates
    // tile_B x W_B on it (fused, as in the implementation).
    for ga in 0..8 {
        for j in 0..FRAG_N {
            let mut sum = 0.0;
            for p in 0..w.krows {
                sum += tile_elem(a, g0 + ga, base + p) * w.a_at(p, j);
            }
            for p in 0..w.krows {
                sum += tile_elem(b, g0 + ga, base + p) * w.b_at(p, j);
            }
            out[ga * 8 + j] = sum;
        }
    }
    out
}

/// Compute only vitrolite A (used by structure tests: its last column must
/// be zero, its first complete).
pub fn host_vitrolite_a(a: &Stencil2Row, w: &WeightMatrices, x0: usize, g0: usize) -> TessTile {
    let base = w.nk * x0;
    let mut out = [0.0; 64];
    for ga in 0..8 {
        for j in 0..FRAG_N {
            let mut sum = 0.0;
            for p in 0..w.krows {
                sum += tile_elem(a, g0 + ga, base + p) * w.a_at(p, j);
            }
            out[ga * 8 + j] = sum;
        }
    }
    out
}

/// Compute only vitrolite B.
pub fn host_vitrolite_b(b: &Stencil2Row, w: &WeightMatrices, x0: usize, g0: usize) -> TessTile {
    let base = w.nk * x0;
    let mut out = [0.0; 64];
    for ga in 0..8 {
        for j in 0..FRAG_N {
            let mut sum = 0.0;
            for p in 0..w.krows {
                sum += tile_elem(b, g0 + ga, base + p) * w.b_at(p, j);
            }
            out[ga * 8 + j] = sum;
        }
    }
    out
}

/// Run a full 2D stencil over a padded array using host-side dual
/// tessellations only (no simulator): returns the valid-convolution
/// output, `(prows - n_k + 1) x (pcols - n_k + 1)`, row-major.
/// This is the bridge used to validate the layout+weights pipeline
/// end-to-end before any device execution is involved.
pub fn host_convstencil_2d(
    a: &Stencil2Row,
    b: &Stencil2Row,
    w: &WeightMatrices,
    prows: usize,
    pcols: usize,
) -> Vec<f64> {
    let nk = w.nk;
    let out_rows = prows - nk + 1;
    let out_cols = pcols - nk + 1;
    let mut out = vec![0.0; out_rows * out_cols];
    let groups = pcols.div_ceil(nk + 1);
    for x0 in 0..out_rows {
        let mut g0 = 0;
        while g0 < groups {
            let tile = host_dual_tessellation(a, b, w, x0, g0);
            for ga in 0..8 {
                let g = g0 + ga;
                for j in 0..=nk {
                    let y = g * (nk + 1) + j;
                    if y < out_cols {
                        out[x0 * out_cols + y] = tile[ga * 8 + j];
                    }
                }
            }
            g0 += 8;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil2row::build_2d;
    use stencil_core::{fill_pseudorandom, Kernel2D};

    /// Naive valid convolution (top-left origin) over a padded array.
    fn naive_valid_conv(padded: &[f64], prows: usize, pcols: usize, k: &Kernel2D) -> Vec<f64> {
        let nk = k.nk();
        let out_rows = prows - nk + 1;
        let out_cols = pcols - nk + 1;
        let mut out = vec![0.0; out_rows * out_cols];
        for x in 0..out_rows {
            for y in 0..out_cols {
                let mut sum = 0.0;
                for kx in 0..nk {
                    for ky in 0..nk {
                        sum += padded[(x + kx) * pcols + y + ky] * k.weight_tl(kx, ky);
                    }
                }
                out[x * out_cols + y] = sum;
            }
        }
        out
    }

    fn random_padded(prows: usize, pcols: usize, seed: u64) -> Vec<f64> {
        let mut v = vec![0.0; prows * pcols];
        fill_pseudorandom(&mut v, seed);
        v
    }

    #[test]
    fn tessellation_identity_box49() {
        let k = Kernel2D::box_uniform(3); // n_k = 7
        let (prows, pcols) = (16, 80);
        let padded = random_padded(prows, pcols, 77);
        let (a, b) = build_2d(&padded, prows, pcols, 7);
        let w = WeightMatrices::new(k.nk(), k.weights());
        let want = naive_valid_conv(&padded, prows, pcols, &k);
        let out_cols = pcols - 6;
        for x0 in [0usize, 3, 9] {
            let tile = host_dual_tessellation(&a, &b, &w, x0, 0);
            for ga in 0..8 {
                for j in 0..=7usize {
                    let y = ga * 8 + j;
                    if j <= 7 && y < out_cols {
                        let got = tile[ga * 8 + j];
                        let expect = want[x0 * out_cols + y];
                        assert!(
                            (got - expect).abs() < 1e-12,
                            "x0={x0} ga={ga} j={j}: {got} vs {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vitrolite_a_structure() {
        // First column complete results, last column zero (Fig. 3).
        let k = Kernel2D::box_uniform(3);
        let (prows, pcols) = (12, 80);
        let padded = random_padded(prows, pcols, 5);
        let (a, b) = build_2d(&padded, prows, pcols, 7);
        let w = WeightMatrices::new(k.nk(), k.weights());
        let vit_a = host_vitrolite_a(&a, &w, 2, 0);
        let vit_b = host_vitrolite_b(&b, &w, 2, 0);
        let want = naive_valid_conv(&padded, prows, pcols, &k);
        let out_cols = pcols - 6;
        for ga in 0..8 {
            // A's last column is zero; B's first column is zero.
            assert_eq!(vit_a[ga * 8 + 7], 0.0);
            assert_eq!(vit_b[ga * 8], 0.0);
            // A's first column alone is the complete result at j = 0.
            let y = ga * 8;
            if y < out_cols {
                assert!((vit_a[ga * 8] - want[2 * out_cols + y]).abs() < 1e-12);
            }
            // B's last column alone is the complete result at j = n_k.
            let y = ga * 8 + 7;
            if y < out_cols {
                assert!((vit_b[ga * 8 + 7] - want[2 * out_cols + y]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn full_host_pipeline_matches_reference_nk3() {
        let k = Kernel2D::star(0.5, &[0.125]); // Heat-2D, n_k = 3
        let (prows, pcols) = (20, 50);
        let padded = random_padded(prows, pcols, 31);
        let (a, b) = build_2d(&padded, prows, pcols, 3);
        let w = WeightMatrices::new(k.nk(), k.weights());
        let got = host_convstencil_2d(&a, &b, &w, prows, pcols);
        let want = naive_valid_conv(&padded, prows, pcols, &k);
        stencil_core::assert_close_default(&got, &want);
    }

    #[test]
    fn full_host_pipeline_matches_reference_nk5() {
        let k = Kernel2D::box_uniform(2);
        let (prows, pcols) = (14, 37); // awkward, non-divisible width
        let padded = random_padded(prows, pcols, 13);
        let (a, b) = build_2d(&padded, prows, pcols, 5);
        let w = WeightMatrices::new(k.nk(), k.weights());
        let got = host_convstencil_2d(&a, &b, &w, prows, pcols);
        let want = naive_valid_conv(&padded, prows, pcols, &k);
        stencil_core::assert_close_default(&got, &want);
    }

    #[test]
    fn full_host_pipeline_matches_reference_nk7_star() {
        let k = Kernel2D::star(0.4, &[0.10, 0.03, 0.02]); // Star-2D13P
        let (prows, pcols) = (18, 64);
        let padded = random_padded(prows, pcols, 99);
        let (a, b) = build_2d(&padded, prows, pcols, 7);
        let w = WeightMatrices::new(k.nk(), k.weights());
        let got = host_convstencil_2d(&a, &b, &w, prows, pcols);
        let want = naive_valid_conv(&padded, prows, pcols, &k);
        stencil_core::assert_close_default(&got, &want);
    }

    #[test]
    fn paper_example_first_tessellation_indexes() {
        // Box-2D49P: the first dual tessellation yields results [3][3:66]
        // in center-origin coordinates = valid row 0, columns 0..64.
        let k = Kernel2D::box_uniform(3);
        let (prows, pcols) = (10, 72);
        let padded = random_padded(prows, pcols, 55);
        let (a, b) = build_2d(&padded, prows, pcols, 7);
        let w = WeightMatrices::new(k.nk(), k.weights());
        let tile = host_dual_tessellation(&a, &b, &w, 0, 0);
        let want = naive_valid_conv(&padded, prows, pcols, &k);
        let out_cols = pcols - 6;
        for y in 0..64 {
            let (ga, j) = (y / 8, y % 8);
            assert!(
                (tile[ga * 8 + j] - want[y]).abs() < 1e-12,
                "valid column {y} ({ga},{j}) wrong"
            );
        }
        let _ = out_cols;
    }
}
