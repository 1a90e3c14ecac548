//! The simulated 1D ConvStencil pipeline (paper §4.1).
//!
//! The stencil2row matrices shrink to `⌈n/(n_k+1)⌉` rows of `n_k` columns;
//! the computation is otherwise identical to 2D: dual tessellations over
//! 8-group bands, `2⌈n_k/4⌉` MMAs each, producing `8(n_k+1)` contiguous
//! outputs. One thread block covers 1024 outputs (Table 4's 1D block
//! size) — 128 groups for `n_k = 7`.

use crate::epilogue::write_row;
use crate::error::ConvStencilError;
use crate::plan::{copy_aligned, resize_for_overwrite, LUT_SKIP};
use crate::planes::{column_map, declare_exempt, unpack_band};
use crate::scatter::{AccessLedger, LutScatter};
use crate::stencil::{explicit_scratch, run_applications_from, ExplicitBuffers};
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::{StagedWeights, WeightMatrices, FRAG_K};
use stencil_core::{Boundary, Kernel1D};
use tcu_sim::{conflict_free_pad, BlockCtx, BufferId, Device, FragAcc, Phase, INACTIVE};

/// Geometry for the 1D pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan1D {
    pub nk: usize,
    pub radius: usize,
    /// Output length.
    pub n: usize,
    /// Column groups per block.
    pub block_groups: usize,
    pub blocks: usize,
    /// Extended array geometry (offset of interior cell 0 is `lc`).
    pub ext_len: usize,
    pub lc: usize,
    pub span: usize,
    pub pre: usize,
    pub span_aligned: usize,
    /// Shared row stride of the stencil2row tiles.
    pub stride: usize,
    pub raw_cols: usize,
    pub pad: usize,
    pub a_off: usize,
    pub b_off: usize,
    pub wa_off: usize,
    pub wb_off: usize,
    pub shared_total: usize,
    pub krows: usize,
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
        let radius = (nk - 1) / 2;
        let krows = nk.div_ceil(FRAG_K) * FRAG_K;
        // Cover ~1024 outputs per block (Table 4), in multiples of 8
        // groups.
        let block_groups = ((1024 / (nk + 1)) / 8 * 8).max(8);
        let groups_needed = n.div_ceil(nk + 1);
        let blocks = groups_needed.div_ceil(block_groups);
        let lc = 4;
        let covered = blocks * block_groups * (nk + 1);
        let ext_len = (lc + covered + nk).div_ceil(4) * 4;
        let span = block_groups * (nk + 1) + nk - 1;
        let first = lc - radius;
        let pre = first - (first & !3);
        let span_aligned = (pre + span).div_ceil(4) * 4;
        let raw_cols = nk;
        let pad = if variant.padding {
            let p = conflict_free_pad(raw_cols, 32);
            if variant.dirty_bits_lut && p == 0 {
                16
            } else {
                p
            }
        } else {
            0
        };
        let stride = raw_cols + pad;
        // Fragment chunks read up to krows elements from a row; anything
        // past the stride lands in the following row (zero weights), and
        // the final row needs a tail margin.
        let tail = krows.saturating_sub(stride);
        let tile_size = block_groups * stride + tail;
        let a_off = 0;
        let b_off = tile_size;
        let wa_off = 2 * tile_size;
        let wb_off = wa_off + krows * 8;
        let shared_total = wb_off + krows * 8;
        Ok(Self {
            nk,
            radius,
            n,
            block_groups,
            blocks,
            ext_len,
            lc,
            span,
            pre,
            span_aligned,
            stride,
            raw_cols,
            pad,
            a_off,
            b_off,
            wa_off,
            wb_off,
            shared_total,
            krows,
        })
    }

    pub fn read_col0(&self, b: usize) -> usize {
        ((self.lc - self.radius) & !3) + b * self.block_groups * (self.nk + 1)
    }

    /// Build the extended array from a 1D grid.
    pub fn try_build_ext(&self, grid: &stencil_core::Grid1D) -> Result<Vec<f64>, ConvStencilError> {
        let mut ext = Vec::new();
        self.try_build_ext_into(grid, &mut ext)?;
        Ok(ext)
    }

    /// [`Plan1D::try_build_ext`] into recycled storage: `ext` is resized
    /// to the extended array and every element overwritten. On error `ext`
    /// is left untouched.
    pub fn try_build_ext_into(
        &self,
        grid: &stencil_core::Grid1D,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError> {
        if grid.len() != self.n {
            return Err(ConvStencilError::ShapeMismatch {
                expected: vec![self.n],
                got: vec![grid.len()],
            });
        }
        let h = grid.halo();
        if h < self.radius {
            return Err(ConvStencilError::HaloTooSmall {
                halo: h,
                radius: self.radius,
            });
        }
        // Ext column c holds padded cell c + h - lc; the rest is zero.
        resize_for_overwrite(ext, self.ext_len);
        copy_aligned(ext, self.lc, grid.padded(), h);
        Ok(())
    }

    /// Extract the interior from an extended array.
    pub fn extract_into(&self, ext: &[f64], grid: &mut stencil_core::Grid1D) {
        let h = grid.halo();
        grid.padded_mut()[h..h + self.n].copy_from_slice(&ext[self.lc..self.lc + self.n]);
    }
}

/// Precompiled 1D executor.
#[derive(Debug, Clone)]
pub struct Exec1D {
    pub plan: Plan1D,
    pub variant: VariantConfig,
    pub weights: WeightMatrices,
    /// `(A shared address, B shared address)` per aligned read lane.
    lut: Vec<[u32; 2]>,
    /// Shared-store charges of the LUT scatter (one tile row).
    ledger: AccessLedger,
    /// Non-zero kernel taps for the CUDA-core path.
    taps: Vec<(usize, f64)>,
    /// Input column -> (in_a, group, offset).
    colmap: Vec<(bool, usize, usize)>,
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
        let weights = WeightMatrices::from_kernel1d(kernel);
        let nk = plan.nk;
        let mut lut = vec![[LUT_SKIP, LUT_SKIP]; plan.span_aligned];
        for (i, e) in lut.iter_mut().enumerate() {
            let c = i as isize - plan.pre as isize;
            if c < 0 || c as usize >= plan.span {
                if variant.dirty_bits_lut {
                    e[0] = (plan.a_off + plan.raw_cols) as u32;
                    e[1] = (plan.b_off + plan.raw_cols) as u32;
                }
                continue;
            }
            let c = c as usize;
            let g = c / (nk + 1);
            let off = c % (nk + 1);
            e[0] = if off != nk && g < plan.block_groups {
                (plan.a_off + g * plan.stride + off) as u32
            } else if variant.dirty_bits_lut {
                (plan.a_off + g.min(plan.block_groups - 1) * plan.stride + plan.raw_cols) as u32
            } else {
                LUT_SKIP
            };
            e[1] = match c.checked_sub(nk) {
                Some(cb) if cb < plan.span - nk => {
                    let gb = cb / (nk + 1);
                    let offb = cb % (nk + 1);
                    if offb != nk && gb < plan.block_groups {
                        (plan.b_off + gb * plan.stride + offb) as u32
                    } else if variant.dirty_bits_lut {
                        (plan.b_off + gb.min(plan.block_groups - 1) * plan.stride + plan.raw_cols)
                            as u32
                    } else {
                        LUT_SKIP
                    }
                }
                _ if variant.dirty_bits_lut => (plan.b_off + plan.raw_cols) as u32,
                _ => LUT_SKIP,
            };
        }
        let taps: Vec<(usize, f64)> = kernel
            .weights()
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0.0)
            .map(|(i, &w)| (i, w))
            .collect();
        let colmap = column_map(plan.span, nk, plan.block_groups);
        let ledger = AccessLedger::new(format!(
            "1D plan n={} n_k={} (1 tile row x {} lanes)",
            plan.n, plan.nk, plan.span_aligned
        ));
        Ok(Self {
            plan,
            variant,
            weights,
            lut,
            ledger,
            taps,
            colmap,
        })
    }

    pub fn shared_len(&self) -> usize {
        self.plan.shared_total
    }

    /// Read access to the scatter lookup table.
    pub fn lut(&self) -> &[[u32; 2]] {
        &self.lut
    }

    /// Mutable access to the scatter lookup table — diagnostic hook for
    /// the static verifier's negative controls (`check --mutate-lut`,
    /// mutation property tests). Kernels never call this.
    pub fn lut_mut(&mut self) -> &mut Vec<[u32; 2]> {
        self.ledger.clear();
        &mut self.lut
    }

    /// Run the static plan verifier over this executor's plan, lookup
    /// table, and weight matrices (see [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        verify_plan::verify_plan_1d(&self.plan, self.variant)?;
        verify_plan::verify_lut_1d(&self.plan, &self.lut, self.variant)?;
        verify_plan::verify_weights(&self.weights)
    }

    /// One application: read `ext_in`, write interior of `ext_out`.
    ///
    /// The explicit variant (I) materializes the stencil2row matrices in
    /// global scratch first; pass buffers from [`Exec1D::alloc_explicit`].
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        let explicit = explicit_scratch(self.variant, explicit)?;
        if let Some(bufs) = explicit {
            self.run_transform(dev, ext_in, bufs)?;
        }
        self.run_compute(dev, ext_in, ext_out, explicit)
    }

    /// The explicit variant's global stencil2row matrices; `None` for the
    /// implicit variants.
    pub fn alloc_explicit(&self, dev: &mut Device) -> Option<ExplicitBuffers> {
        let len = self.plan.blocks * self.plan.block_groups * self.plan.nk;
        self.variant.explicit_global.then(|| ExplicitBuffers {
            s2r_a: dev.alloc(len),
            s2r_b: dev.alloc(len),
        })
    }

    fn run_transform(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        bufs: ExplicitBuffers,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        let nk = p.nk;
        let rows = p.blocks * p.block_groups;
        let chunk = 4096usize;
        let num_blocks = p.ext_len.div_ceil(chunk);
        let first = p.lc - p.radius;
        dev.set_write_hint(2 * chunk);
        dev.try_launch(num_blocks, 64, |bid, ctx| {
            ctx.phase(Phase::LayoutTransform);
            let c0 = bid * chunk;
            let c1 = (c0 + chunk).min(p.ext_len);
            let mut vals = vec![0.0f64; c1 - c0];
            ctx.gmem_read_span_into(ext_in, c0, &mut vals);
            let mut a_addrs = [INACTIVE; 32];
            let mut b_addrs = [INACTIVE; 32];
            let mut a_vals = [0.0f64; 32];
            let mut lane = 0;
            for (idx, &v) in vals.iter().enumerate() {
                let Some(c) = (c0 + idx).checked_sub(first) else {
                    continue;
                };
                ctx.count_divmod(2);
                ctx.count_branch(2);
                ctx.count_int(4);
                let g = c / (nk + 1);
                let off = c % (nk + 1);
                a_addrs[lane] = if off != nk && g < rows {
                    g * nk + off
                } else {
                    INACTIVE
                };
                b_addrs[lane] = match c.checked_sub(nk) {
                    Some(cb) if (cb + 1) % (nk + 1) != 0 && cb / (nk + 1) < rows => {
                        Some(cb / (nk + 1) * nk + cb % (nk + 1))
                    }
                    _ => None,
                }
                .unwrap_or(INACTIVE);
                a_vals[lane] = v;
                lane += 1;
                if lane == 32 {
                    ctx.gmem_write_warp(bufs.s2r_a, &a_addrs, &a_vals);
                    ctx.gmem_write_warp(bufs.s2r_b, &b_addrs, &a_vals);
                    lane = 0;
                }
            }
            if lane > 0 {
                ctx.gmem_write_warp(bufs.s2r_a, &a_addrs[..lane], &a_vals[..lane]);
                ctx.gmem_write_warp(bufs.s2r_b, &b_addrs[..lane], &a_vals[..lane]);
            }
        })?;
        Ok(())
    }

    fn run_compute(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plan;
        dev.try_launch_into(ext_out, p.blocks, self.shared_len(), |bid, ctx| {
            ctx.phase(Phase::SmemScatter);
            declare_exempt(
                ctx,
                [p.a_off, p.b_off],
                p.block_groups,
                p.stride,
                p.raw_cols,
            );
            match explicit {
                Some(bufs) => self.stage_from_global(ctx, bufs, bid),
                None => self.scatter(ctx, ext_in, bid),
            }
            if self.variant.use_tcu {
                self.compute_tcu(ctx, ext_out, bid);
            } else {
                self.compute_cuda(ctx, ext_out, bid);
            }
        })?;
        Ok(())
    }

    fn scatter(&self, ctx: &mut BlockCtx, ext_in: BufferId, bid: usize) {
        let read0 = self.plan.read_col0(bid);
        LutScatter {
            lut: &self.lut,
            lanes: self.plan.span_aligned,
            lut_mode: self.variant.dirty_bits_lut,
            ledger: &self.ledger,
        }
        .run(ctx, ext_in, 1, 0, |_| read0);
    }

    fn stage_from_global(&self, ctx: &mut BlockCtx, bufs: ExplicitBuffers, bid: usize) {
        let p = &self.plan;
        let nk = p.nk;
        let g0 = bid * p.block_groups;
        // Read a contiguous span of both matrices and store rows into the
        // strided shared layout.
        let mut vals = vec![0.0f64; p.block_groups * nk];
        let mut addrs = [0usize; 32];
        let mut avals = [0.0f64; 32];
        for (buf, base_off) in [(bufs.s2r_a, p.a_off), (bufs.s2r_b, p.b_off)] {
            ctx.gmem_read_span_into(buf, g0 * nk, &mut vals);
            ctx.count_int(vals.len() as u64);
            let mut lane = 0usize;
            for g in 0..p.block_groups {
                for off in 0..nk {
                    addrs[lane] = base_off + g * p.stride + off;
                    avals[lane] = vals[g * nk + off];
                    lane += 1;
                    if lane == 32 {
                        ctx.smem_store(&addrs, &avals);
                        lane = 0;
                    }
                }
            }
            if lane > 0 {
                ctx.smem_store(&addrs[..lane], &avals[..lane]);
            }
        }
    }

    fn compute_tcu(&self, ctx: &mut BlockCtx, ext_out: BufferId, bid: usize) {
        let p = &self.plan;
        let nk = p.nk;
        // Weight staging is shared-memory traffic: scatter phase.
        let w = StagedWeights::stage(ctx, &self.weights, p.wa_off);
        ctx.phase(Phase::Tessellation);
        let bands = p.block_groups / 8;
        // 1D plans cap n_k at 7, so a band's 8(nk+1) outputs fit 64 f64
        // of stack — no per-block heap buffer.
        let mut band_buf = [0.0f64; 64];
        let out_vals = &mut band_buf[..8 * (nk + 1)];
        for band in 0..bands {
            let mut acc = FragAcc::zero();
            let shift = band * 8 * p.stride;
            let chains = [(p.a_off + shift, w.a()), (p.b_off + shift, w.b())];
            ctx.mma_chains(p.stride, &chains, &mut acc);
            unpack_band(&acc, nk, out_vals);
            let y0 = (bid * p.block_groups + band * 8) * (nk + 1);
            write_row(ctx, ext_out, p.lc, y0, p.n, out_vals);
        }
    }

    fn compute_cuda(&self, ctx: &mut BlockCtx, ext_out: BufferId, bid: usize) {
        let p = &self.plan;
        ctx.phase(Phase::Tessellation);
        let out_width = p.block_groups * (p.nk + 1);
        let mut addrs = [0usize; 32];
        let mut vals = [0.0f64; 32];
        let mut sums = [0.0f64; 32];
        let mut yl0 = 0usize;
        while yl0 < out_width {
            let lanes = 32.min(out_width - yl0);
            sums[..lanes].fill(0.0);
            for &(ki, w) in &self.taps {
                for l in 0..lanes {
                    let (in_a, g, off) = self.colmap[yl0 + l + ki];
                    let base = if in_a { p.a_off } else { p.b_off };
                    addrs[l] = base + g * p.stride + off;
                }
                ctx.smem_load(&addrs[..lanes], &mut vals[..lanes]);
                ctx.count_fma(lanes as u64);
                ctx.count_int(lanes as u64);
                for l in 0..lanes {
                    sums[l] += w * vals[l];
                }
            }
            let y0 = bid * out_width + yl0;
            write_row(ctx, ext_out, p.lc, y0, p.n, &sums[..lanes]);
            yl0 += lanes;
        }
    }
}

/// Simulated periodic halo exchange on an extended 1D array.
pub fn try_halo_exchange_1d(
    dev: &mut Device,
    ext: BufferId,
    plan: &Plan1D,
) -> Result<(), ConvStencilError> {
    let (n, r, lc) = (plan.n, plan.radius, plan.lc);
    if n < r {
        return Err(ConvStencilError::InteriorTooSmall {
            interior: n,
            radius: r,
        });
    }
    dev.set_write_hint(2 * r);
    dev.try_launch(1, 64, |_, ctx| {
        ctx.phase(Phase::HaloExchange);
        let mut vals = vec![0.0f64; r];
        ctx.gmem_read_span_into(ext, lc + n - r, &mut vals);
        ctx.gmem_write_span(ext, lc - r, &vals);
        ctx.gmem_read_span_into(ext, lc, &mut vals);
        ctx.gmem_write_span(ext, lc + n, &vals);
    })?;
    Ok(())
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
    use stencil_core::reference::run1d;
    use stencil_core::{assert_close_default, fuse1d, Grid1D};

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
        assert_eq!(plan.block_groups * (plan.nk + 1), 1024);
    }
}
