//! Weight matrices A and B for dual tessellation (paper §3.3, Fig. 3).
//!
//! For a 2D kernel with edge `n_k` (weights `w[dx][c]`, top-left origin):
//!
//! * **Weight matrix A** is `n_k²` rows of `n_k` stacked *lower-triangular*
//!   `n_k x n_k` blocks, one per kernel row `dx`:
//!   `W_A[n_k·dx + c][j] = w[dx][c - j]` for `c >= j`, else 0.
//!   Its first column therefore contains all `n_k²` weights in order and
//!   its `j = n_k` column (the 8th fragment column for `n_k = 7`) is all
//!   zeros.
//! * **Weight matrix B** stacks *upper-triangular* blocks:
//!   `W_B[n_k·dx + q][j] = w[dx][n_k - j + q]` for `q < j`, else 0.
//!   Its first column is all zeros and its `j = n_k` column contains all
//!   weights — the mirror of A, so vitrolite A + vitrolite B aligns into
//!   complete stencil results (the "tessellation" step).
//!
//! Both matrices are padded to 8 columns (the FP64 fragment width) and to
//! a multiple of 4 rows (the fragment k-dimension), stored row-major with
//! row stride 8 so they can be loaded directly as `4x8` B-fragments.
//!
//! The 1D construction is the single-block special case (`n_k` rows): one
//! constructor, [`WeightMatrices::new`], takes a kernel's rows.

use tcu_sim::{BlockCtx, FragB};

/// Fragment width of the FP64 Tensor Core accumulator.
pub const FRAG_N: usize = 8;
/// Fragment depth (k) of one FP64 MMA.
pub const FRAG_K: usize = 4;

/// The dual-tessellation weight matrices for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMatrices {
    /// Kernel edge length.
    pub nk: usize,
    /// Logical row count before padding: `h·n_k` for `h` kernel rows
    /// (`n_k²` in 2D, `n_k` in 1D).
    pub logical_rows: usize,
    /// Padded row count: `4 ⌈logical_rows / 4⌉`.
    pub krows: usize,
    /// Weight matrix A, `krows x 8` row-major.
    pub a: Vec<f64>,
    /// Weight matrix B, `krows x 8` row-major.
    pub b: Vec<f64>,
}

impl WeightMatrices {
    /// Number of MMA instructions one dual tessellation issues with these
    /// matrices: `2 · krows / 4 = 2 ⌈n_k²/4⌉`.
    pub fn mmas_per_tessellation(&self) -> usize {
        2 * self.krows / FRAG_K
    }

    #[inline]
    pub fn a_at(&self, row: usize, col: usize) -> f64 {
        self.a[row * FRAG_N + col]
    }

    #[inline]
    pub fn b_at(&self, row: usize, col: usize) -> f64 {
        self.b[row * FRAG_N + col]
    }

    /// Build from a kernel's rows: `taps` holds `h` rows of `nk` weights,
    /// row-major with the top-left tap first — a 2D kernel or 3D kernel
    /// plane (`h = n_k`, dense; star kernels simply carry zeros), or a 1D
    /// kernel (`h = 1`, the single-block case of §4.1).
    pub fn new(nk: usize, taps: &[f64]) -> Self {
        assert!(
            nk < FRAG_N,
            "kernel edge {nk} exceeds the fragment width; ConvStencil supports n_k <= 7"
        );
        assert!(
            taps.len().is_multiple_of(nk),
            "{} taps are not whole rows of {nk}",
            taps.len()
        );
        let logical_rows = taps.len();
        let krows = logical_rows.div_ceil(FRAG_K) * FRAG_K;
        let mut a = vec![0.0; krows * FRAG_N];
        let mut b = vec![0.0; krows * FRAG_N];
        for (dx, w) in taps.chunks_exact(nk).enumerate() {
            for c in 0..nk {
                let row = nk * dx + c;
                // Lower-triangular block: column j gets w[dx][c - j].
                for j in 0..=c {
                    a[row * FRAG_N + j] = w[c - j];
                }
                // Upper-triangular block: q = c here; column j > q gets
                // w[dx][nk - j + q].
                for j in (c + 1)..=nk {
                    b[row * FRAG_N + j] = w[nk - j + c];
                }
            }
        }
        Self {
            nk,
            logical_rows,
            krows,
            a,
            b,
        }
    }
}

/// Most `B` fragments one weight matrix splits into: `⌈7² / 4⌉`, for the
/// largest kernel edge ConvStencil supports.
pub(crate) const MAX_WEIGHT_FRAGS: usize = (7 * 7usize).div_ceil(FRAG_K);

/// A weight-matrix pair staged in one block's shared memory, with the
/// register-resident `B` fragments loaded from it once per block (§3.2),
/// held on the stack.
pub(crate) struct StagedWeights {
    a: [FragB; MAX_WEIGHT_FRAGS],
    b: [FragB; MAX_WEIGHT_FRAGS],
    frags: usize,
}

impl StagedWeights {
    /// Store `w.a` at shared offset `wa_off` and `w.b` right after it
    /// (`krows x 8`, row stride 8, so every `4 x 8` fragment is 32
    /// consecutive elements), then load both matrices' fragments.
    pub(crate) fn stage(ctx: &mut BlockCtx, w: &WeightMatrices, wa_off: usize) -> Self {
        let wb_off = wa_off + w.krows * FRAG_N;
        ctx.smem_store_span(wa_off, &w.a);
        ctx.smem_store_span(wb_off, &w.b);
        let frags = w.krows / FRAG_K;
        assert!(
            frags <= MAX_WEIGHT_FRAGS,
            "weight matrix of {frags} fragments"
        );
        let mut staged = Self {
            a: [FragB::zero(); MAX_WEIGHT_FRAGS],
            b: [FragB::zero(); MAX_WEIGHT_FRAGS],
            frags,
        };
        let frag_len = FRAG_K * FRAG_N;
        for (k, f) in staged.a[..frags].iter_mut().enumerate() {
            *f = ctx.load_frag_b(wa_off + k * frag_len, FRAG_N);
        }
        for (k, f) in staged.b[..frags].iter_mut().enumerate() {
            *f = ctx.load_frag_b(wb_off + k * frag_len, FRAG_N);
        }
        staged
    }

    /// Weight matrix A's fragments.
    pub(crate) fn a(&self) -> &[FragB] {
        &self.a[..self.frags]
    }

    /// Weight matrix B's fragments.
    pub(crate) fn b(&self) -> &[FragB] {
        &self.b[..self.frags]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{Kernel1D, Kernel2D};

    fn from_kernel2d(k: &Kernel2D) -> WeightMatrices {
        WeightMatrices::new(k.nk(), k.weights())
    }

    fn numbered_kernel(nk: usize) -> Kernel2D {
        // w[dx][c] = n_k·dx + c + 1, i.e. a1..a49 of the paper's figure.
        let r = (nk - 1) / 2;
        Kernel2D::new(r, (1..=nk * nk).map(|i| i as f64).collect())
    }

    #[test]
    fn first_column_of_a_holds_all_weights_in_order() {
        let w = from_kernel2d(&numbered_kernel(7));
        for p in 0..49 {
            assert_eq!(w.a_at(p, 0), (p + 1) as f64, "a{} misplaced", p + 1);
        }
        // Padded rows are zero.
        for p in 49..w.krows {
            for j in 0..FRAG_N {
                assert_eq!(w.a_at(p, j), 0.0);
            }
        }
    }

    #[test]
    fn last_column_of_a_is_zero_and_of_b_is_complete() {
        let w = from_kernel2d(&numbered_kernel(7));
        for p in 0..w.krows {
            assert_eq!(w.a_at(p, 7), 0.0, "A column n_k must be zero");
        }
        for p in 0..49 {
            assert_eq!(
                w.b_at(p, 7),
                (p + 1) as f64,
                "B column n_k holds a{}",
                p + 1
            );
        }
        for p in 0..w.krows {
            assert_eq!(w.b_at(p, 0), 0.0, "B column 0 must be zero");
        }
    }

    #[test]
    fn a_blocks_are_lower_triangular_matching_figure_3() {
        let w = from_kernel2d(&numbered_kernel(7));
        // Figure 3 row samples: row 1 = [a2 a1 0 0 0 0 0 0].
        let row1: Vec<f64> = (0..8).map(|j| w.a_at(1, j)).collect();
        assert_eq!(row1, vec![2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Row 6 = [a7 a6 a5 a4 a3 a2 a1 0].
        let row6: Vec<f64> = (0..8).map(|j| w.a_at(6, j)).collect();
        assert_eq!(row6, vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
        // Row 7 (block 1 start) = [a8 0 0 0 0 0 0 0].
        let row7: Vec<f64> = (0..8).map(|j| w.a_at(7, j)).collect();
        assert_eq!(row7, vec![8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // Row 47 = [a48 a47 a46 a45 a44 a43 0 0].
        let row47: Vec<f64> = (0..8).map(|j| w.a_at(47, j)).collect();
        assert_eq!(row47, vec![48.0, 47.0, 46.0, 45.0, 44.0, 43.0, 0.0, 0.0]);
        // Row 48 = [a49 a48 a47 a46 a45 a44 a43 0].
        let row48: Vec<f64> = (0..8).map(|j| w.a_at(48, j)).collect();
        assert_eq!(row48, vec![49.0, 48.0, 47.0, 46.0, 45.0, 44.0, 43.0, 0.0]);
    }

    #[test]
    fn b_blocks_are_upper_triangular_matching_figure_3() {
        let w = from_kernel2d(&numbered_kernel(7));
        // Row 0 of B = [0 a7 a6 a5 a4 a3 a2 a1].
        let row0: Vec<f64> = (0..8).map(|j| w.b_at(0, j)).collect();
        assert_eq!(row0, vec![0.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        // Row 5 of B = [0 0 0 0 0 0 a7 a6].
        let row5: Vec<f64> = (0..8).map(|j| w.b_at(5, j)).collect();
        assert_eq!(row5, vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 6.0]);
        // Row 6 of B = [0 0 0 0 0 0 0 a7].
        let row6: Vec<f64> = (0..8).map(|j| w.b_at(6, j)).collect();
        assert_eq!(row6, vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0]);
        // Row 7 (block 1) = [0 a14 a13 a12 a11 a10 a9 a8].
        let row7: Vec<f64> = (0..8).map(|j| w.b_at(7, j)).collect();
        assert_eq!(row7, vec![0.0, 14.0, 13.0, 12.0, 11.0, 10.0, 9.0, 8.0]);
    }

    #[test]
    fn column_sums_of_a_plus_b_cover_every_weight_once() {
        // For any output column j in 0..=nk, each kernel weight appears
        // exactly once across W_A[:, j] and W_B[:, j].
        let nk = 5;
        let w = from_kernel2d(&numbered_kernel(nk));
        let total: f64 = (1..=nk * nk).map(|i| i as f64).sum();
        for j in 0..=nk {
            let sum: f64 = (0..w.krows).map(|p| w.a_at(p, j) + w.b_at(p, j)).sum();
            assert!((sum - total).abs() < 1e-9, "column {j} sums to {sum}");
        }
    }

    #[test]
    fn mma_count_matches_paper_formula() {
        for nk in [3usize, 5, 7] {
            let r = (nk - 1) / 2;
            let k = Kernel2D::box_uniform(r);
            let w = from_kernel2d(&k);
            assert_eq!(
                w.mmas_per_tessellation() as u64,
                2 * ((nk * nk) as u64).div_ceil(4)
            );
        }
    }

    #[test]
    fn kernel1d_weight_structure() {
        let k = Kernel1D::new((1..=7).map(|i| i as f64).collect());
        let w = WeightMatrices::new(k.nk(), k.weights());
        assert_eq!(w.krows, 8);
        for p in 0..7 {
            assert_eq!(w.a_at(p, 0), (p + 1) as f64);
            assert_eq!(w.b_at(p, 7), (p + 1) as f64);
            assert_eq!(w.a_at(p, 7), 0.0);
            assert_eq!(w.b_at(p, 0), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "n_k <= 7")]
    fn oversized_kernel_rejected() {
        from_kernel2d(&Kernel2D::box_uniform(4));
    }
}
