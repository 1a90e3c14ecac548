//! The simulated 2D ConvStencil device pipeline.
//!
//! One *application* (one launch in the implicit variants, two in the
//! explicit variant I) advances the grid by one (possibly fused) kernel
//! step:
//!
//! 1. **Scatter** — each block reads its input tile from global memory
//!    with sector-aligned coalesced warp reads and builds the stencil2row
//!    A/B tiles in shared memory. Addressing goes through the
//!    host-precomputed LUT (variant V, branch-free, dirty elements dumped
//!    into the padding area) or through div/mod + conditional branches
//!    (variants I–IV).
//! 2. **Compute** — per output row, one dual tessellation per 8-group
//!    band: `2⌈n_k²/4⌉` `m8n8k4` MMAs against the register-resident weight
//!    fragments (loaded once per block). Variants I/II replace this with
//!    CUDA-core dot products over the same shared tiles.
//! 3. **Write-back** — each tessellation's `8(n_k+1)` contiguous outputs,
//!    clipped at column `n`, go to the extended output array as one
//!    coalesced span, written in place (see [`crate::epilogue`]).
//!
//! Variant I first materializes the full stencil2row matrices in global
//! memory with a separate transform kernel, then computes from them.

use crate::epilogue::write_row;
use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut};
use crate::scatter::{AccessLedger, LutScatter};
use crate::stencil::run_applications;
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::{StagedWeights, WeightMatrices};
use stencil_core::{Boundary, Kernel2D};
use tcu_sim::{BlockCtx, BufferId, Device, FragAcc, Phase, INACTIVE};

/// Stack-buffer capacity for one tessellation band's `8(n_k+1)` outputs
/// (shared-memory capacity keeps `n_k` far below 31 in any valid plan).
pub(crate) const MAX_BAND_F64: usize = 256;

/// Precompiled 2D executor: plan + LUT + weights for one kernel/problem.
#[derive(Debug, Clone)]
pub struct Exec2D {
    pub plan: Plan2D,
    pub variant: VariantConfig,
    pub weights: WeightMatrices,
    lut: ScatterLut,
    /// Per-tile-row shared-store charges of the LUT scatter.
    ledger: AccessLedger,
    /// Non-zero kernel points `(kx, ky, w)` for the CUDA-core path.
    points: Vec<(usize, usize, f64)>,
    /// For the CUDA path: input column -> (in_a, group, offset) lookup.
    colmap: Vec<(bool, usize, usize)>,
}

/// Scratch global buffers for the explicit variant.
#[derive(Debug, Clone, Copy)]
pub struct ExplicitBuffers {
    pub s2r_a: BufferId,
    pub s2r_b: BufferId,
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

    /// Build with an explicit plan (the 3D executor uses plane-shaped
    /// blocks).
    pub fn try_with_plan(
        kernel: &Kernel2D,
        plan: Plan2D,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        if plan.nk != kernel.nk() {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!("plan n_k {} != kernel n_k {}", plan.nk, kernel.nk()),
            });
        }
        if !plan.block_groups.is_multiple_of(8) {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!(
                    "groups per block must be a multiple of 8 (got {})",
                    plan.block_groups
                ),
            });
        }
        let weights = WeightMatrices::from_kernel2d(kernel);
        let lut = plan.build_scatter_lut(variant);
        let ledger = AccessLedger::new(format!(
            "2D plan {}x{} n_k={} ({} tile rows x {} lanes)",
            plan.m,
            plan.n,
            plan.nk,
            plan.block_rows + plan.nk - 1,
            plan.span_aligned
        ));
        let nk = plan.nk;
        let mut points = Vec::new();
        for kx in 0..nk {
            for ky in 0..nk {
                let w = kernel.weight_tl(kx, ky);
                if w != 0.0 {
                    points.push((kx, ky, w));
                }
            }
        }
        let mut colmap = Vec::with_capacity(plan.span);
        for c in 0..plan.span {
            let entry = match crate::stencil2row::map_a(0, c, nk) {
                Some((g, col)) if g < plan.block_groups => (true, g, col),
                _ => {
                    let (g, col) = crate::stencil2row::map_b(0, c, nk)
                        .expect("column dropped by both stencil2row matrices");
                    (false, g, col)
                }
            };
            colmap.push(entry);
        }
        Ok(Self {
            plan,
            variant,
            weights,
            lut,
            ledger,
            points,
            colmap,
        })
    }

    /// Shared-memory f64 elements one block needs.
    pub fn shared_len(&self) -> usize {
        self.plan.layout.total
    }

    /// Read access to the scatter lookup table.
    pub fn lut(&self) -> &ScatterLut {
        &self.lut
    }

    /// Mutable access to the scatter lookup table — diagnostic hook for
    /// the static verifier's negative controls (`check --mutate-lut`,
    /// mutation property tests). Kernels never call this.
    pub fn lut_mut(&mut self) -> &mut ScatterLut {
        self.ledger.clear();
        &mut self.lut
    }

    /// Run the static plan verifier over this executor's layout, lookup
    /// table, and weight matrices (see [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        verify_plan::verify_layout_2d(&self.plan, self.variant)?;
        verify_plan::verify_lut_2d(&self.plan, &self.lut, self.variant)?;
        verify_plan::verify_weights(&self.weights)
    }

    /// Declare the regions initcheck must not flag: per-group-row padding
    /// columns past the rows this block actually stages (fragment k-chunk
    /// overreads legitimately touch them, and dirty-bits slots absorb
    /// same-phase duplicate stores there) plus the layout tail. No-op
    /// when the sanitizer is off.
    fn declare_exempt(&self, ctx: &mut BlockCtx, tile_rows: usize) {
        let lay = &self.plan.layout;
        let used = self.plan.nk * tile_rows;
        for off in [lay.a_off, lay.b_off] {
            for g in 0..lay.tile_rows {
                ctx.sanitize_exempt(off + g * lay.stride + used, lay.stride - used);
            }
            let staged = lay.tile_rows * lay.stride;
            ctx.sanitize_exempt(off + staged, lay.b_off - lay.a_off - staged);
        }
    }

    /// Allocate the explicit-variant scratch matrices (whole-problem
    /// stencil2row A/B in global memory).
    pub fn alloc_explicit(&self, dev: &mut Device) -> ExplicitBuffers {
        let (rows_a, rows_b, cols) = self.explicit_dims();
        ExplicitBuffers {
            s2r_a: dev.alloc(rows_a * cols),
            s2r_b: dev.alloc(rows_b * cols),
        }
    }

    /// (rows of global A, rows of global B, columns) for the explicit
    /// variant. Rows cover all block groups so the compute stage can read
    /// uniformly.
    fn explicit_dims(&self) -> (usize, usize, usize) {
        let p = &self.plan;
        let rows = p.blocks_g * p.block_groups;
        (rows, rows, p.nk * p.ext_rows)
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
        if self.variant.explicit_global {
            let bufs = explicit.ok_or(ConvStencilError::ScratchMismatch { expected: true })?;
            self.run_transform_kernel(dev, ext_in, bufs)?;
            self.run_compute_kernel(dev, ext_in, ext_out, Some(bufs))
        } else {
            if explicit.is_some() {
                return Err(ConvStencilError::ScratchMismatch { expected: false });
            }
            self.run_compute_kernel(dev, ext_in, ext_out, None)
        }
    }

    /// Variant-I transform kernel: build the full stencil2row matrices in
    /// global memory. 32 extended rows per block; scattered (uncoalesced)
    /// global writes — the cost this variant exists to demonstrate.
    fn run_transform_kernel(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        bufs: ExplicitBuffers,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        let nk = p.nk;
        let (rows_a, rows_b, cols) = self.explicit_dims();
        let rows_per_block = 32usize;
        let num_blocks = p.ext_rows.div_ceil(rows_per_block);
        let first = p.lc - p.radius; // ext column where the conv window starts
        dev.set_write_hint(rows_per_block * 2 * p.span);
        dev.try_launch(num_blocks, 64, |bid, ctx| {
            ctx.phase(Phase::LayoutTransform);
            let r0 = bid * rows_per_block;
            let r1 = (r0 + rows_per_block).min(p.ext_rows);
            let mut a_addrs = [INACTIVE; 32];
            let mut a_vals = [0.0f64; 32];
            let mut b_addrs = [INACTIVE; 32];
            let mut b_vals = [0.0f64; 32];
            let mut vals = vec![0.0f64; p.ext_cols];
            for r in r0..r1 {
                ctx.gmem_read_span_into(ext_in, r * p.ext_cols, &mut vals);
                let mut lane = 0usize;
                for (c, &v) in vals.iter().enumerate() {
                    let Some(c_rel) = c.checked_sub(first) else {
                        continue;
                    };
                    // Address arithmetic: flat->(row,col) plus two group
                    // div/mods, and two validity branches per element.
                    ctx.count_divmod(2);
                    ctx.count_branch(2);
                    ctx.count_int(4);
                    a_addrs[lane] = match crate::stencil2row::map_a(r, c_rel, nk) {
                        Some((g, col)) if g < rows_a => g * cols + col,
                        _ => INACTIVE,
                    };
                    b_addrs[lane] = match crate::stencil2row::map_b(r, c_rel, nk) {
                        Some((g, col)) if g < rows_b => g * cols + col,
                        _ => INACTIVE,
                    };
                    a_vals[lane] = v;
                    b_vals[lane] = v;
                    lane += 1;
                    if lane == 32 {
                        ctx.gmem_write_warp(bufs.s2r_a, &a_addrs, &a_vals);
                        ctx.gmem_write_warp(bufs.s2r_b, &b_addrs, &b_vals);
                        lane = 0;
                    }
                }
                if lane > 0 {
                    ctx.gmem_write_warp(bufs.s2r_a, &a_addrs[..lane], &a_vals[..lane]);
                    ctx.gmem_write_warp(bufs.s2r_b, &b_addrs[..lane], &b_vals[..lane]);
                }
            }
        })?;
        Ok(())
    }

    /// The main kernel: stage shared tiles (from global stencil2row
    /// matrices in the explicit variant, from the input via LUT/branches
    /// otherwise), then compute and write back.
    fn run_compute_kernel(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        let num_blocks = p.num_blocks();
        dev.try_launch_into(ext_out, num_blocks, self.shared_len(), |bid, ctx| {
            let bx = bid / p.blocks_g;
            let bg = bid % p.blocks_g;
            let rows_here = p.block_rows.min(p.m - bx * p.block_rows);
            let tile_rows = rows_here + p.nk - 1;
            ctx.phase(Phase::SmemScatter);
            match explicit {
                Some(bufs) => self.stage_from_global(ctx, bufs, bx, tile_rows, bg),
                None => self.scatter(ctx, ext_in, bx, bg, tile_rows),
            }
            if self.variant.use_tcu {
                self.compute_tcu(ctx, ext_out, bx, bg, rows_here);
            } else {
                self.compute_cuda(ctx, ext_out, bx, bg, rows_here);
            }
        })?;
        Ok(())
    }

    /// Implicit scatter: coalesced global reads of the block's input tile,
    /// stored into the shared stencil2row tiles.
    fn scatter(
        &self,
        ctx: &mut BlockCtx,
        ext_in: BufferId,
        bx: usize,
        bg: usize,
        tile_rows: usize,
    ) {
        self.declare_exempt(ctx, tile_rows);
        let p = &self.plan;
        let read0 = p.read_col0(bg);
        LutScatter {
            lut: self.lut.entries(),
            lanes: p.span_aligned,
            lut_mode: self.variant.dirty_bits_lut,
            ledger: &self.ledger,
        }
        .run(ctx, ext_in, tile_rows, 0, |t| {
            (bx * p.block_rows + t) * p.ext_cols + read0
        });
    }

    /// Explicit-variant staging: copy the block's tile rows of the global
    /// stencil2row matrices into shared (coalesced reads, contiguous
    /// stores).
    fn stage_from_global(
        &self,
        ctx: &mut BlockCtx,
        bufs: ExplicitBuffers,
        bx: usize,
        tile_rows: usize,
        bg: usize,
    ) {
        self.declare_exempt(ctx, tile_rows);
        let p = &self.plan;
        let lay = &p.layout;
        let (rows_a, rows_b, cols) = self.explicit_dims();
        let col0 = p.nk * (bx * p.block_rows);
        let width = (p.nk * tile_rows).min(cols - col0);
        let mut addrs = [0usize; 32];
        let mut vals = vec![0.0f64; width];
        for ga in 0..p.block_groups {
            let g = bg * p.block_groups + ga;
            for (buf, rows, base_off) in [
                (bufs.s2r_a, rows_a, lay.a_off),
                (bufs.s2r_b, rows_b, lay.b_off),
            ] {
                if g >= rows {
                    continue;
                }
                ctx.gmem_read_span_into(buf, g * cols + col0, &mut vals);
                ctx.count_int(width as u64);
                let mut i = 0;
                while i < width {
                    let lanes = 32.min(width - i);
                    for (l, a) in addrs.iter_mut().enumerate().take(lanes) {
                        *a = base_off + ga * lay.stride + i + l;
                    }
                    ctx.smem_store(&addrs[..lanes], &vals[i..i + lanes]);
                    i += lanes;
                }
            }
        }
    }

    /// Tensor-core compute: dual tessellations per output row and 8-group
    /// band, then coalesced write-back.
    fn compute_tcu(
        &self,
        ctx: &mut BlockCtx,
        ext_out: BufferId,
        bx: usize,
        bg: usize,
        rows_here: usize,
    ) {
        let p = &self.plan;
        let lay = &p.layout;
        let nk = p.nk;
        // Weight staging is shared-memory traffic, so it stays in the
        // scatter phase; the MMA loop below is the tessellation proper.
        let w = StagedWeights::stage(ctx, &self.weights, lay.wa_off);
        ctx.phase(Phase::Tessellation);
        let bands = p.block_groups / 8;
        // A tessellation band emits 8(nk+1) contiguous outputs; nk is
        // bounded far below 31 by shared-memory capacity, so a fixed
        // stack buffer replaces the old per-block heap vector.
        assert!(
            8 * (nk + 1) <= MAX_BAND_F64,
            "n_k too large for band buffer"
        );
        let mut band_buf = [0.0f64; MAX_BAND_F64];
        let out_vals = &mut band_buf[..8 * (nk + 1)];
        for xr in 0..rows_here {
            for band in 0..bands {
                let mut acc = FragAcc::zero();
                let shift = band * 8 * lay.stride + nk * xr;
                let chains = [(lay.a_off + shift, w.a()), (lay.b_off + shift, w.b())];
                ctx.mma_chains(lay.stride, &chains, &mut acc);
                // Tessellation result: acc[ga][j], j in 0..=nk, is the
                // output at column (bg·BG + band·8 + ga)(nk+1) + j.
                for ga in 0..8 {
                    for j in 0..=nk {
                        out_vals[ga * (nk + 1) + j] = acc.get(ga, j);
                    }
                }
                let row_base = p.ext_idx(bx * p.block_rows + xr, 0);
                let y0 = (bg * p.block_groups + band * 8) * (nk + 1);
                write_row(ctx, ext_out, row_base, y0, p.n, out_vals);
            }
        }
    }

    /// CUDA-core compute (variants I/II): per-point dot products over the
    /// shared stencil2row tiles, exploiting kernel sparsity.
    fn compute_cuda(
        &self,
        ctx: &mut BlockCtx,
        ext_out: BufferId,
        bx: usize,
        bg: usize,
        rows_here: usize,
    ) {
        let p = &self.plan;
        let lay = &p.layout;
        let nk = p.nk;
        ctx.phase(Phase::Tessellation);
        let out_width = p.block_groups * (nk + 1);
        let mut addrs = [0usize; 32];
        let mut vals = [0.0f64; 32];
        let mut sums = [0.0f64; 32];
        for xr in 0..rows_here {
            let mut yl0 = 0usize;
            while yl0 < out_width {
                let lanes = 32.min(out_width - yl0);
                sums[..lanes].fill(0.0);
                for &(kx, ky, w) in &self.points {
                    let t = xr + kx;
                    for l in 0..lanes {
                        let c = yl0 + l + ky;
                        // colmap holds the offset for input row 0; shift by
                        // nk per input row (Eq. 5/6's n_k·x term).
                        let (in_a, g, off) = self.colmap[c];
                        let base = if in_a { lay.a_off } else { lay.b_off };
                        addrs[l] = base + g * lay.stride + nk * t + off;
                    }
                    ctx.smem_load(&addrs[..lanes], &mut vals[..lanes]);
                    ctx.count_fma(lanes as u64);
                    ctx.count_int(lanes as u64);
                    for l in 0..lanes {
                        sums[l] += w * vals[l];
                    }
                }
                let row_base = p.ext_idx(bx * p.block_rows + xr, 0);
                let y0 = bg * p.block_groups * (nk + 1) + yl0;
                write_row(ctx, ext_out, row_base, y0, p.n, &sums[..lanes]);
                yl0 += lanes;
            }
        }
    }
}

/// Simulated periodic halo exchange on an extended 2D array: two device
/// kernels (column wrap within interior rows, then full-row wrap so the
/// corners inherit the wrapped columns). Counted like any other kernel —
/// periodic codes pay their exchange.
pub fn try_halo_exchange_2d(
    dev: &mut Device,
    ext: BufferId,
    plan: &Plan2D,
) -> Result<(), ConvStencilError> {
    let (m, n, r) = (plan.m, plan.n, plan.radius);
    if m < r || n < r {
        return Err(ConvStencilError::InteriorTooSmall {
            interior: m.min(n),
            radius: r,
        });
    }
    let (lr, lc, cols) = (plan.lr, plan.lc, plan.ext_cols);
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
    // Kernel 2: full-row wrap for the r halo rows on each side (one block
    // per wrapped row pair).
    dev.set_write_hint(2 * cols);
    dev.try_launch(r, 64, |bid, ctx| {
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
    run_applications::<Kernel2D>(dev, exec, ext0.to_vec(), apps, boundary)
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
