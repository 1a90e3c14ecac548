//! The simulated 1D ConvStencil pipeline (paper §4.1): the plane-stack
//! core ([`crate::planes`]) on one output row of a kernel of height 1.
//!
//! The stencil2row matrices shrink to `⌈n/(n_k+1)⌉` rows of `n_k` columns;
//! the computation is otherwise identical to 2D: dual tessellations over
//! 8-group bands, `2⌈n_k/4⌉` MMAs each, producing `8(n_k+1)` contiguous
//! outputs. One thread block covers about 1024 outputs (Table 4's 1D block
//! size) in whole bands — 128 groups for `n_k = 7`. What is left here is
//! the 1D grid glue: the extended array is the one-row plane's only row.

use crate::error::ConvStencilError;
use crate::plan::{copy_aligned, resize_for_overwrite, Plan2D, ScatterLut};
use crate::planes::{PlaneKind, PlaneStack};
use crate::stencil::{run_applications_from, ExplicitBuffers};
use crate::variants::VariantConfig;
use stencil_core::{Boundary, Grid1D, Kernel1D};
use tcu_sim::{BufferId, Device};

/// Geometry for the 1D pipeline: a one-row [`Plan2D`] of a height-1
/// kernel, plus the 1D grid glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan1D {
    /// Output length.
    pub n: usize,
    /// Extended array length (interior cell 0 sits at `row.lc`).
    pub ext_len: usize,
    /// The one-row plane plan the plane stack runs.
    pub row: Plan2D,
}

impl Plan1D {
    /// Plan an `n`-cell 1D problem for an `nk`-wide kernel.
    pub fn try_new(n: usize, nk: usize, variant: VariantConfig) -> Result<Self, ConvStencilError> {
        if !(nk % 2 == 1 && (3..=7).contains(&nk)) {
            return Err(ConvStencilError::UnsupportedNk { nk });
        }
        if n == 0 {
            return Err(ConvStencilError::ZeroSizedGrid { dims: vec![n] });
        }
        // Cover ~1024 outputs per block (Table 4), in whole 8-group bands.
        let block_groups = 1024 / (nk + 1) / 8 * 8;
        let row = Plan2D::try_with_block(1, n, nk, 1, 1, block_groups, variant)?;
        Ok(Self {
            n,
            ext_len: row.ext_cols,
            row,
        })
    }

    /// Build the extended array from a 1D grid.
    pub fn try_build_ext(&self, grid: &Grid1D) -> Result<Vec<f64>, ConvStencilError> {
        let mut ext = Vec::new();
        self.try_build_ext_into(grid, &mut ext)?;
        Ok(ext)
    }

    /// [`Plan1D::try_build_ext`] into recycled storage: `ext` is resized
    /// to the extended array and every element overwritten. On error `ext`
    /// is left untouched.
    pub fn try_build_ext_into(
        &self,
        grid: &Grid1D,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError> {
        if grid.len() != self.n {
            return Err(ConvStencilError::ShapeMismatch {
                expected: vec![self.n],
                got: vec![grid.len()],
            });
        }
        let h = grid.halo();
        if h < self.row.radius {
            return Err(ConvStencilError::HaloTooSmall {
                halo: h,
                radius: self.row.radius,
            });
        }
        // Ext column c holds padded cell c + h - lc; the rest is zero.
        resize_for_overwrite(ext, self.ext_len);
        copy_aligned(ext, self.row.lc, grid.padded(), h);
        Ok(())
    }

    /// Extract the interior from an extended array.
    pub fn extract_into(&self, ext: &[f64], grid: &mut Grid1D) {
        let (h, lc) = (grid.halo(), self.row.lc);
        grid.padded_mut()[h..h + self.n].copy_from_slice(&ext[lc..lc + self.n]);
    }
}

/// Precompiled 1D executor: a one-plane stack (on Tensor Cores exactly
/// when the variant uses them) over the one-row plan.
#[derive(Debug, Clone)]
pub struct Exec1D {
    pub plan: Plan1D,
    stack: PlaneStack,
}

impl Exec1D {
    /// Build an executor for `kernel` on an `n`-cell interior. The kernel
    /// is used as-is (apply temporal fusion before constructing).
    pub fn try_new(
        kernel: &Kernel1D,
        n: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        let plan = Plan1D::try_new(n, kernel.nk(), variant)?;
        let plane = PlaneKind::of(variant.use_tcu, kernel.nk(), kernel.weights());
        let stack = PlaneStack::try_new(&plan.row, variant, 1, vec![plane], 1)?;
        Ok(Self { plan, stack })
    }

    /// Read access to the scatter lookup table.
    pub fn lut(&self) -> &ScatterLut {
        self.stack.lut()
    }

    /// Mutable access to the scatter lookup table — diagnostic hook for
    /// the static verifier's negative controls (`check --mutate-lut`,
    /// mutation property tests). Kernels never call this.
    pub fn lut_mut(&mut self) -> &mut ScatterLut {
        self.stack.lut_mut()
    }

    /// Run the static plan verifier over this executor's plan, lookup
    /// table, and weight matrices (see [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        self.stack.verify(&self.plan.row)
    }

    /// The explicit variant's global stencil2row matrices; `None` for the
    /// implicit variants.
    pub fn alloc_explicit(&self, dev: &mut Device) -> Option<ExplicitBuffers> {
        self.stack.alloc_explicit(&self.plan.row, dev)
    }

    /// One application: read `ext_in`, write interior of `ext_out`.
    /// `explicit` must be `Some` iff the variant is explicit (variant I).
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        self.stack
            .try_run_application(&self.plan.row, 1, dev, ext_in, ext_out, explicit)
    }
}

/// `apps` applications of the generic loop (`stencil::run_applications`) over
/// a borrowed initial extended array. Kept under its 1D name because
/// the repository benchmark (`perfbench/`) calls it.
pub fn try_run_1d_applications_bc(
    dev: &mut Device,
    exec: &Exec1D,
    ext0: &[f64],
    apps: usize,
    boundary: Boundary,
) -> Result<Vec<f64>, ConvStencilError> {
    run_applications_from::<Kernel1D>(dev, exec, ext0, apps, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec2d::try_halo_exchange_2d;
    use stencil_core::reference::run1d;
    use stencil_core::{assert_close_default, fuse1d};

    fn check(kernel: &Kernel1D, n: usize, apps: usize, variant: VariantConfig) {
        let mut grid = Grid1D::new(n, kernel.radius());
        grid.fill_random(8);
        let exec = Exec1D::try_new(kernel, n, variant).unwrap();
        let mut dev = Device::a100();
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        let ext =
            try_run_1d_applications_bc(&mut dev, &exec, &ext0, apps, Boundary::Dirichlet).unwrap();
        let mut got = Grid1D::new(n, kernel.radius());
        exec.plan.extract_into(&ext, &mut got);
        let want = run1d(&grid, kernel, apps);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn heat1d_fused_matches_reference() {
        let fused = fuse1d(&Kernel1D::new(vec![0.25, 0.5, 0.25]), 3);
        check(&fused, 4096, 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn oned5p_matches_reference() {
        let k = Kernel1D::new(vec![0.0625, 0.25, 0.375, 0.25, 0.0625]);
        check(&k, 3000, 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn nk3_unfused_matches_reference() {
        check(
            &Kernel1D::new(vec![0.25, 0.5, 0.25]),
            1000,
            3,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn all_variants_agree_on_1d() {
        let kernel = fuse1d(&Kernel1D::new(vec![0.3, 0.4, 0.3]), 3);
        let n = 2048;
        let mut grid = Grid1D::new(n, kernel.radius());
        grid.fill_random(77);
        let want = run1d(&grid, &kernel, 1).interior();
        for (name, variant) in VariantConfig::breakdown() {
            let exec = Exec1D::try_new(&kernel, n, variant).unwrap();
            let mut dev = Device::a100();
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            let ext =
                try_run_1d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            let mut got = Grid1D::new(n, kernel.radius());
            exec.plan.extract_into(&ext, &mut got);
            assert_close_default(&got.interior(), &want);
            if variant.use_tcu {
                assert!(dev.counters.dmma_ops > 0, "{name}");
            }
        }
    }

    #[test]
    fn mma_count_is_2_ceil_nk_over_4_per_band() {
        let kernel = fuse1d(&Kernel1D::new(vec![0.25, 0.5, 0.25]), 3); // nk=7
        let n = 8192; // exactly 8 blocks of 128 groups
        let exec = Exec1D::try_new(&kernel, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid1D::new(n, 3);
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        try_run_1d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        // Bands = n / (8 * (nk+1)) = 128; each 2*ceil(7/4) = 4 MMAs.
        assert_eq!(dev.counters.dmma_ops, (8192 / 64) * 4);
    }

    #[test]
    fn block_covers_1024_outputs_at_nk7() {
        let plan = Plan1D::try_new(100_000, 7, VariantConfig::conv_stencil()).unwrap();
        assert_eq!(plan.row.block_groups * (plan.row.nk + 1), 1024);
    }

    #[test]
    fn periodic_wrap_is_the_column_wrap_of_the_one_row_plan() {
        let mut dev = Device::a100();
        let plan = Plan1D::try_new(2, 7, VariantConfig::conv_stencil()).unwrap();
        let ext = dev.alloc(plan.ext_len);
        assert_eq!(
            try_halo_exchange_2d(&mut dev, ext, &plan.row),
            Err(ConvStencilError::InteriorTooSmall {
                interior: 2,
                radius: 3
            })
        );
        let plan = Plan1D::try_new(100, 7, VariantConfig::conv_stencil()).unwrap();
        let cells: Vec<f64> = (0..plan.ext_len).map(|i| i as f64).collect();
        let ext = dev.alloc_from(&cells);
        let launches = dev.launch_stats.kernel_launches;
        try_halo_exchange_2d(&mut dev, ext, &plan.row).unwrap();
        // Row radius 0: the row wrap launches nothing.
        assert_eq!(dev.launch_stats.kernel_launches, launches + 1);
        let (lc, got) = (plan.row.lc, dev.download(ext));
        for i in 0..3 {
            assert_eq!(got[lc - 3 + i], cells[lc + 100 - 3 + i]);
            assert_eq!(got[lc + 100 + i], cells[lc + i]);
        }
    }

    #[test]
    fn plan_is_one_row_of_a_height_1_kernel() {
        for (nk, groups) in [(3, 256), (5, 168), (7, 128)] {
            let plan = Plan1D::try_new(10_000, nk, VariantConfig::conv_stencil()).unwrap();
            let row = &plan.row;
            assert_eq!((row.m, row.kernel_rows, row.block_rows), (1, 1, 1));
            assert_eq!((row.ext_rows, row.lr, row.tile_rows()), (1, 0, 1));
            assert_eq!(row.block_groups, groups, "nk={nk}");
            assert_eq!(row.layout.raw_cols, nk, "nk={nk}");
            assert_eq!(row.krows, nk.div_ceil(4) * 4, "nk={nk}");
            assert_eq!(plan.ext_len, row.ext_cols);
        }
    }
}
