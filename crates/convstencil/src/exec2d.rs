//! The simulated 2D ConvStencil pipeline: the one-plane case of the
//! plane-stack core ([`crate::planes`]), on the paper's 2D block shape of
//! 32 output rows x 8 column groups (Table 4), plus the 2D periodic halo
//! exchange.

use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut};
use crate::planes::{PlaneKind, PlaneStack};
use crate::stencil::{run_applications_from, ExplicitBuffers};
use crate::variants::VariantConfig;
use stencil_core::{Boundary, Kernel2D};
use tcu_sim::{BufferId, Device, Phase};

/// Precompiled 2D executor: plan + LUT + weights for one kernel/problem.
#[derive(Debug, Clone)]
pub struct Exec2D {
    pub plan: Plan2D,
    stack: PlaneStack,
}

impl Exec2D {
    /// Build an executor for `kernel` on an `m x n` interior. The kernel
    /// is used as-is (apply temporal fusion before constructing).
    pub fn try_new(
        kernel: &Kernel2D,
        m: usize,
        n: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        let plan = Plan2D::try_new_2d(m, n, kernel.nk(), variant)?;
        Self::try_with_plan(kernel, plan, variant)
    }

    /// Build with an explicit plan (the block-shape ablation varies the
    /// rows per block).
    pub fn try_with_plan(
        kernel: &Kernel2D,
        plan: Plan2D,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        if (plan.nk, plan.kernel_rows) != (kernel.nk(), kernel.nk()) {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!(
                    "plan n_k {} (kernel height {}) != kernel n_k {}",
                    plan.nk,
                    plan.kernel_rows,
                    kernel.nk()
                ),
            });
        }
        // One kernel plane, on Tensor Cores exactly when the variant uses
        // them.
        let plane = PlaneKind::of(variant.use_tcu, kernel.nk(), kernel.weights());
        let stack = PlaneStack::try_new(&plan, variant, 1, vec![plane], 1)?;
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

    /// Run the static plan verifier over this executor's layout, lookup
    /// table, and weight matrices (see [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        self.stack.verify(&self.plan)
    }

    /// Allocate the explicit variant's scratch (whole-problem stencil2row
    /// A/B in global memory); `None` for the implicit variants.
    pub fn alloc_explicit(&self, dev: &mut Device) -> Option<ExplicitBuffers> {
        self.stack.alloc_explicit(&self.plan, dev)
    }

    /// Run one application: read `ext_in`, write interior rows of
    /// `ext_out`. `explicit` must be `Some` iff the variant is explicit;
    /// scratch misuse and device launch faults surface as errors.
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        self.stack
            .try_run_application(&self.plan, 1, dev, ext_in, ext_out, explicit)
    }
}

/// Simulated periodic halo exchange on an extended 2D array (or the one
/// row of a 1D array): two device kernels (column wrap within interior
/// rows, then full-row wrap so the corners inherit the wrapped columns).
/// Counted like any other kernel — periodic codes pay their exchange. A
/// kernel of row radius 0 (1D) has no rows to wrap: the row wrap
/// launches nothing, and only the columns must cover the radius.
pub fn try_halo_exchange_2d(
    dev: &mut Device,
    ext: BufferId,
    plan: &Plan2D,
) -> Result<(), ConvStencilError> {
    let (m, n, r, lr) = (plan.m, plan.n, plan.radius, plan.lr);
    if m < lr || n < r {
        return Err(ConvStencilError::InteriorTooSmall {
            interior: if lr > 0 { m.min(n) } else { n },
            radius: r,
        });
    }
    let (lc, cols) = (plan.lc, plan.ext_cols);
    // Kernel 1: column wrap for every interior row.
    let rows_per_block = 64usize;
    dev.set_write_hint(rows_per_block * 2 * r);
    dev.try_launch(m.div_ceil(rows_per_block), 64, |bid, ctx| {
        ctx.phase(Phase::HaloExchange);
        let x0 = bid * rows_per_block;
        let x1 = (x0 + rows_per_block).min(m);
        let mut left = vec![0.0f64; r];
        let mut right = vec![0.0f64; r];
        for x in x0..x1 {
            let row = (x + lr) * cols;
            ctx.gmem_read_span_into(ext, row + lc + n - r, &mut left);
            ctx.gmem_write_span(ext, row + lc - r, &left);
            ctx.gmem_read_span_into(ext, row + lc, &mut right);
            ctx.gmem_write_span(ext, row + lc + n, &right);
        }
    })?;
    // Kernel 2: full-row wrap for the lr halo rows on each side (one block
    // per wrapped row pair).
    if lr == 0 {
        return Ok(());
    }
    dev.set_write_hint(2 * cols);
    dev.try_launch(lr, 64, |bid, ctx| {
        ctx.phase(Phase::HaloExchange);
        let i = bid;
        let mut vals = vec![0.0f64; cols];
        // Top halo ext row i <- ext row m + i.
        ctx.gmem_read_span_into(ext, (m + i) * cols, &mut vals);
        ctx.gmem_write_span(ext, i * cols, &vals);
        // Bottom halo ext row lr + m + i <- ext row lr + i.
        ctx.gmem_read_span_into(ext, (lr + i) * cols, &mut vals);
        ctx.gmem_write_span(ext, (lr + m + i) * cols, &vals);
    })?;
    Ok(())
}

/// `apps` applications of the generic loop (`stencil::run_applications`) over
/// a borrowed initial extended array. Kept under its 2D name because
/// the repository benchmark (`perfbench/`) calls it.
pub fn try_run_2d_applications_bc(
    dev: &mut Device,
    exec: &Exec2D,
    ext0: &[f64],
    apps: usize,
    boundary: Boundary,
) -> Result<Vec<f64>, ConvStencilError> {
    run_applications_from::<Kernel2D>(dev, exec, ext0, apps, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::reference::run2d;
    use stencil_core::{assert_close_default, fuse2d, Grid2D, Kernel2D};

    fn check_variant(kernel: &Kernel2D, m: usize, n: usize, apps: usize, variant: VariantConfig) {
        let mut grid = Grid2D::new(m, n, kernel.radius());
        grid.fill_random(42);
        let exec = Exec2D::try_new(kernel, m, n, variant).unwrap();
        let mut dev = Device::a100();
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        let ext =
            try_run_2d_applications_bc(&mut dev, &exec, &ext0, apps, Boundary::Dirichlet).unwrap();
        let mut got = Grid2D::new(m, n, kernel.radius());
        exec.plan.extract_into(&ext, &mut got);
        let want = run2d(&grid, kernel, apps);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn full_variant_box49_matches_reference() {
        check_variant(
            &Kernel2D::box_uniform(3),
            64,
            130,
            2,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn full_variant_heat2d_unfused_matches_reference() {
        check_variant(
            &Kernel2D::star(0.5, &[0.125]),
            70,
            96,
            3,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn full_variant_heat2d_fused_matches_fused_reference() {
        let fused = fuse2d(&Kernel2D::star(0.5, &[0.125]), 3);
        check_variant(&fused, 48, 80, 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn full_variant_nk5_matches_reference() {
        check_variant(
            &Kernel2D::box_uniform(2),
            40,
            100,
            2,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn all_breakdown_variants_agree_numerically() {
        let kernel = fuse2d(&Kernel2D::box_uniform(1), 3); // fused Box-2D9P
        let (m, n) = (40, 72);
        let mut grid = Grid2D::new(m, n, kernel.radius());
        grid.fill_random(7);
        let want = run2d(&grid, &kernel, 1).interior();
        for (name, variant) in VariantConfig::breakdown() {
            let exec = Exec2D::try_new(&kernel, m, n, variant).unwrap();
            let mut dev = Device::a100();
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            let ext =
                try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            let mut got = Grid2D::new(m, n, kernel.radius());
            exec.plan.extract_into(&ext, &mut got);
            assert_close_default(&got.interior(), &want);
            // Sanity on the ledgers.
            if variant.use_tcu {
                assert!(dev.counters.dmma_ops > 0, "{name}: no MMAs issued");
            } else {
                assert!(dev.counters.cuda_fma_ops > 0, "{name}: no FMAs issued");
                assert_eq!(dev.counters.dmma_ops, 0, "{name}");
            }
            if variant.explicit_global {
                assert_eq!(dev.launch_stats.kernel_launches, 2, "{name}");
            } else {
                assert_eq!(dev.launch_stats.kernel_launches, 1, "{name}");
            }
        }
    }

    #[test]
    fn mma_count_matches_eq13() {
        // Divisible geometry: m multiple of 32, n multiple of 8(nk+1).
        let kernel = Kernel2D::box_uniform(3);
        let (m, n) = (64, 128);
        let exec = Exec2D::try_new(&kernel, m, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid2D::new(m, n, 3);
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        let expect = crate::model::convstencil_mma_count(m, n, 7);
        assert_eq!(dev.counters.dmma_ops, expect);
    }

    #[test]
    fn padding_removes_load_bank_conflicts() {
        let kernel = Kernel2D::box_uniform(3);
        let run = |variant: VariantConfig| {
            let exec = Exec2D::try_new(&kernel, 64, 128, variant).unwrap();
            let mut dev = Device::a100();
            let mut grid = Grid2D::new(64, 128, 3);
            grid.fill_random(3);
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            dev.counters
        };
        let unpadded = run(VariantConfig::implicit_tcu());
        let padded = run(VariantConfig::implicit_tcu_padded());
        assert!(
            unpadded.load_bank_conflicts_per_request() > 0.2,
            "unpadded BC/R = {}",
            unpadded.load_bank_conflicts_per_request()
        );
        assert!(
            padded.load_bank_conflicts_per_request() < 0.05,
            "padded BC/R = {}",
            padded.load_bank_conflicts_per_request()
        );
    }

    #[test]
    fn lut_variant_eliminates_divmod_and_branches() {
        let kernel = Kernel2D::box_uniform(3);
        let run = |variant: VariantConfig| {
            let exec = Exec2D::try_new(&kernel, 64, 128, variant).unwrap();
            let mut dev = Device::a100();
            let grid = Grid2D::new(64, 128, 3);
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            dev.counters
        };
        let iv = run(VariantConfig::implicit_tcu_padded());
        let v = run(VariantConfig::conv_stencil());
        assert!(iv.int_divmod_ops > 0 && iv.branch_ops > 0);
        assert_eq!(v.int_divmod_ops, 0);
        assert_eq!(v.branch_ops, 0);
    }

    #[test]
    fn global_reads_are_coalesced() {
        let kernel = Kernel2D::box_uniform(3);
        let exec = Exec2D::try_new(&kernel, 64, 128, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid2D::new(64, 128, 3);
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        let uga = dev.counters.uncoalesced_global_access_pct();
        assert!(uga < 5.0, "UGA = {uga}%");
    }

    #[test]
    fn explicit_variant_pays_global_traffic() {
        let kernel = fuse2d(&Kernel2D::box_uniform(1), 3);
        let run = |variant: VariantConfig| {
            let exec = Exec2D::try_new(&kernel, 64, 128, variant).unwrap();
            let mut dev = Device::a100();
            let grid = Grid2D::new(64, 128, 3);
            let ext0 = exec.plan.try_build_ext(&grid).unwrap();
            try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            dev.counters
        };
        let explicit = run(VariantConfig::explicit_cuda());
        let implicit = run(VariantConfig::implicit_cuda());
        let gbytes = |c: &tcu_sim::Counters| c.global_read_bytes + c.global_write_bytes;
        assert!(
            gbytes(&explicit) as f64 > 2.0 * gbytes(&implicit) as f64,
            "explicit {} vs implicit {}",
            gbytes(&explicit),
            gbytes(&implicit)
        );
    }
}
