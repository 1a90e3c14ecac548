//! Closed-form analytical model of ConvStencil (paper Eq. 7–15 and the
//! §3.3 quantitative performance analysis), used to cross-check the
//! simulator's measured event counts and to regenerate Table 3.

use stencil_core::Shape;
use tcu_sim::DeviceConfig;

/// Rows of one stencil2row matrix for an input with `n` columns (Eq. 7).
pub fn stencil2row_rows(n: usize, nk: usize) -> usize {
    n.div_ceil(nk + 1)
}

/// Columns of one stencil2row matrix for an input with `m` rows (Eq. 8).
pub fn stencil2row_cols(m: usize, nk: usize) -> usize {
    nk * m
}

/// Memory-expansion factor of the im2row layout relative to the input.
///
/// For a sparse (star) kernel only the columns of non-zero weights are
/// materialized, so the factor is the shape's point count — Table 3 lists
/// 5 for Heat-2D and 13 for Star-2D13P, not `n_k²`.
pub fn im2row_expansion(points: usize) -> f64 {
    points as f64
}

/// Memory-expansion factor of the two stencil2row matrices combined:
/// `2 · n_k / (n_k + 1)` (from Eq. 7/8; 1.5 for n_k = 3 up to 1.75 for
/// n_k = 7 — Table 3's stencil2row column).
pub fn stencil2row_expansion(nk: usize) -> f64 {
    2.0 * nk as f64 / (nk + 1) as f64
}

/// Memory saving of stencil2row over im2row in percent (Table 3's last
/// column; 70.00 % for Heat-2D up to 96.43 % for Box-2D49P).
pub fn memory_saving_pct(shape: Shape) -> f64 {
    let s2r = stencil2row_expansion(shape.nk());
    let i2r = im2row_expansion(shape.points());
    100.0 * (1.0 - s2r / i2r)
}

/// Eq. 11: ratio of stencil2row to im2row memory for a dense (box) kernel.
pub fn stencil2row_im2row_ratio(nk: usize) -> f64 {
    2.0 / ((nk + 1) as f64 * nk as f64)
}

/// MMA instructions in one dual tessellation: `2 ⌈n_k² / 4⌉` (§3.3).
pub fn mmas_per_dual_tessellation(nk: usize) -> u64 {
    2 * (nk as u64 * nk as u64).div_ceil(4)
}

/// Number of dual tessellations for an `m x n` output: `mn / (8(n_k+1))`
/// (§3.3, "the number of required dual tessellations").
pub fn dual_tessellations(m: usize, n: usize, nk: usize) -> u64 {
    (m as u64 * n as u64) / (8 * (nk as u64 + 1))
}

/// Eq. 13: total MMA count for ConvStencil on an `m x n` problem.
pub fn convstencil_mma_count(m: usize, n: usize, nk: usize) -> u64 {
    dual_tessellations(m, n, nk) * mmas_per_dual_tessellation(nk)
}

/// Eq. 14: ConvStencil compute time in seconds on the given device.
pub fn convstencil_compute_time(m: usize, n: usize, nk: usize, cfg: &DeviceConfig) -> f64 {
    convstencil_mma_count(m, n, nk) as f64 * cfg.cpi_dmma as f64
        / (cfg.clock_hz * cfg.total_tcus() as f64)
}

/// MMA count of GEMM-based convolution computing the same stencil:
/// `n_k² · m · n / 32` (the numerator of Eq. 15) — a matrix-vector product
/// that wastes 7 of 8 accumulator columns.
pub fn gemm_conv_mma_count(m: usize, n: usize, nk: usize) -> u64 {
    (nk as u64 * nk as u64) * (m as u64) * (n as u64) / 32
}

/// Eq. 15: GEMM-based-convolution compute time in seconds.
pub fn gemm_conv_compute_time(m: usize, n: usize, nk: usize, cfg: &DeviceConfig) -> f64 {
    gemm_conv_mma_count(m, n, nk) as f64 * cfg.cpi_dmma as f64
        / (cfg.clock_hz * cfg.total_tcus() as f64)
}

/// Tensor Core fragment-column utilization of the dual-tessellation weight
/// matrices: `n_k / 8` useful columns for weight A plus the `j = n_k`
/// column completed by weight B — `(n_k + 1) / 8` of the 8 accumulator
/// columns produce complete results. The §3.3 claim "12.5 % → 87.5 %"
/// compares one useful column of the matrix-vector mapping (1/8) with the
/// 7 weight columns of the n_k = 7 weight matrix (7/8).
pub fn weight_matrix_utilization(nk: usize) -> f64 {
    nk.min(8) as f64 / 8.0
}

/// Accumulator-column utilization of a dual tessellation (complete outputs
/// per 8-wide accumulator).
pub fn accumulator_utilization(nk: usize) -> f64 {
    (nk + 1).min(8) as f64 / 8.0
}

/// One row of the regenerated Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    pub shape: Shape,
    pub im2row_factor: f64,
    pub stencil2row_factor: f64,
    pub saving_pct: f64,
}

/// Regenerate Table 3 analytically.
pub fn table3() -> Vec<Table3Row> {
    Shape::table3()
        .into_iter()
        .map(|shape| Table3Row {
            shape,
            im2row_factor: im2row_expansion(shape.points()),
            stencil2row_factor: stencil2row_expansion(shape.nk()),
            saving_pct: memory_saving_pct(shape),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper_values() {
        // (im2row, stencil2row, saving %) from the paper's Table 3.
        let expected = [
            (Shape::Heat2D, 5.0, 1.5, 70.00),
            (Shape::Box2D9P, 9.0, 1.5, 83.33),
            (Shape::Star2D9P, 9.0, 5.0 / 3.0, 81.48),
            (Shape::Box2D25P, 25.0, 5.0 / 3.0, 93.33),
            (Shape::Star2D13P, 13.0, 1.75, 86.54),
            (Shape::Box2D49P, 49.0, 1.75, 96.43),
        ];
        let rows = table3();
        for ((shape, i2r, s2r, saving), row) in expected.iter().zip(&rows) {
            assert_eq!(row.shape, *shape);
            assert!((row.im2row_factor - i2r).abs() < 1e-9, "{shape:?}");
            assert!((row.stencil2row_factor - s2r).abs() < 0.01, "{shape:?}");
            assert!((row.saving_pct - saving).abs() < 0.01, "{shape:?} saving");
        }
    }

    #[test]
    fn mma_count_per_tessellation() {
        assert_eq!(mmas_per_dual_tessellation(7), 26); // 2 * ceil(49/4)
        assert_eq!(mmas_per_dual_tessellation(3), 6); // 2 * ceil(9/4)
        assert_eq!(mmas_per_dual_tessellation(5), 14); // 2 * ceil(25/4)
    }

    #[test]
    fn eq13_matches_formula_shape() {
        // N_MMA = 2mn / (8(nk+1)) * ceil(nk^2/4)
        let (m, n, nk) = (1024, 1024, 7);
        let expected = 2 * (m as u64 * n as u64) / (8 * 8) * 13;
        assert_eq!(convstencil_mma_count(m, n, nk), expected);
    }

    #[test]
    fn convstencil_beats_gemm_conv_in_compute_for_nk_ge_3() {
        let cfg = DeviceConfig::a100();
        for nk in [3, 5, 7] {
            let cs = convstencil_compute_time(512, 512, nk, &cfg);
            let gc = gemm_conv_compute_time(512, 512, nk, &cfg);
            assert!(cs < gc, "nk = {nk}: {cs} >= {gc}");
        }
    }

    #[test]
    fn utilization_claim() {
        // §3.3: 12.5 % (matrix-vector) -> 87.5 % (nk = 7 weight matrix).
        assert!((weight_matrix_utilization(7) - 0.875).abs() < 1e-12);
        assert!((accumulator_utilization(7) - 1.0).abs() < 1e-12);
        assert!((weight_matrix_utilization(1) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn stencil2row_dims_match_eq_7_8() {
        assert_eq!(stencil2row_rows(10240, 7), 1280);
        assert_eq!(stencil2row_cols(10240, 7), 71680);
        // Non-divisible sizes round up.
        assert_eq!(stencil2row_rows(100, 7), 13);
    }

    #[test]
    fn eq11_is_the_box_ratio() {
        // stencil2row/im2row for a box kernel: 2 / ((nk+1) nk).
        for nk in [3usize, 5, 7] {
            let direct = stencil2row_expansion(nk) / (nk * nk) as f64;
            assert!((direct - stencil2row_im2row_ratio(nk)).abs() < 1e-12);
        }
    }
}
