//! The simulated 3D ConvStencil pipeline (paper §4.2).
//!
//! A 3D stencil decomposes into `n_k` 2D stencils — one per z-plane of the
//! kernel — whose results are summed. Each thread block covers one output
//! plane band (8 output rows x 64 output columns, Table 4's 8x64 block),
//! builds the stencil2row tiles of all `n_k` input planes in shared
//! memory, and accumulates the per-plane dual tessellations in the same
//! MMA accumulator (one fragment store per output, not one per plane).
//!
//! For star-shaped 3D kernels the off-center planes contain a single
//! non-zero weight; per §4.2 those "small planes" are computed on the
//! simulated CUDA cores and added to the Tensor-Core result, while the
//! dense center plane goes through dual tessellation.

use crate::epilogue::write_row;
use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut};
use crate::scatter::{AccessLedger, LutScatter};
use crate::stencil::run_applications;
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::{StagedWeights, WeightMatrices};
use stencil_core::{Boundary, Grid3D, Kernel3D};
use tcu_sim::{BlockCtx, BufferId, Device, FragAcc, FragB, Phase, INACTIVE};

/// Most z planes a kernel has: the largest supported kernel edge
/// (`Plan2D::try_new_3d_plane` rejects any larger).
const MAX_PLANES: usize = 7;

/// How one kernel plane is computed.
#[derive(Debug, Clone)]
enum PlaneKind {
    /// All-zero plane: skipped entirely.
    Empty,
    /// Small plane (§4.2): CUDA-core taps `(kx, ky, w)`.
    Scalar(Vec<(usize, usize, f64)>),
    /// Dense plane: dual tessellation with these weight matrices.
    Mma(WeightMatrices),
}

/// Precompiled 3D executor.
#[derive(Debug, Clone)]
pub struct Exec3D {
    /// Per-plane 2D plan (block shape 8 x 64).
    pub plane_plan: Plan2D,
    pub variant: VariantConfig,
    pub d: usize,
    pub nk: usize,
    pub radius: usize,
    planes: Vec<PlaneKind>,
    lut: ScatterLut,
    /// Per-tile-row shared-store charges of the LUT scatter (any slot).
    ledger: AccessLedger,
    /// Output planes per block (z-sliding window; each block stages
    /// `bz + n_k - 1` input-plane tile pairs and reuses them across its
    /// `bz` output planes, so global reads stay ~1x instead of n_k x).
    pub bz: usize,
    /// Offset of input-plane slot `s`'s tile pair in shared memory
    /// (`bz + n_k - 1` slots).
    slot_off: Vec<usize>,
    /// Offset of plane `dz`'s weight matrices (MMA planes only).
    weight_off: Vec<usize>,
    shared_total: usize,
    /// Input column -> (in_a, group, offset) for the scalar path.
    colmap: Vec<(bool, usize, usize)>,
    /// Maximum non-zero taps treated as a "small plane".
    pub scalar_plane_threshold: usize,
}

/// Global scratch for the explicit (variant I) 3D pipeline: the
/// stencil2row matrices of every extended input plane.
#[derive(Debug, Clone, Copy)]
pub struct ExplicitBuffers3D {
    pub s2r_a: BufferId,
    pub s2r_b: BufferId,
    /// Rows per plane section.
    pub rows: usize,
    /// Columns of each matrix.
    pub cols: usize,
}

impl Exec3D {
    /// Build an executor for `kernel` on a `d x m x n` interior.
    pub fn try_new(
        kernel: &Kernel3D,
        d: usize,
        m: usize,
        n: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        let nk = kernel.nk();
        let radius = kernel.radius();
        if d == 0 {
            return Err(ConvStencilError::ZeroSizedGrid {
                dims: vec![d, m, n],
            });
        }
        let plane_plan = Plan2D::try_new_3d_plane(m, n, nk, variant)?;
        let lut = plane_plan.build_scatter_lut(variant);
        let scalar_plane_threshold = 2;
        let mut planes = Vec::with_capacity(nk);
        for dz in 0..nk {
            let pk = kernel.plane(dz as isize - radius as isize);
            let pts = pk.points();
            if pts == 0 {
                planes.push(PlaneKind::Empty);
            } else if pts <= scalar_plane_threshold || !variant.use_tcu {
                let mut taps = Vec::with_capacity(pts);
                for kx in 0..nk {
                    for ky in 0..nk {
                        let w = pk.weight_tl(kx, ky);
                        if w != 0.0 {
                            taps.push((kx, ky, w));
                        }
                    }
                }
                planes.push(PlaneKind::Scalar(taps));
            } else {
                planes.push(PlaneKind::Mma(WeightMatrices::from_kernel2d(&pk)));
            }
        }
        // Shared layout: one tile pair per input-plane slot of the
        // z-sliding window, then weight regions for the MMA planes.
        // Choose the largest bz <= 8 whose slots fit the 164 KiB budget.
        let tile_pair = 2 * plane_plan.layout.b_off; // a tile + b tile
        let weights_total: usize = planes
            .iter()
            .filter_map(|p| match p {
                PlaneKind::Mma(w) => Some(2 * w.krows * 8),
                _ => None,
            })
            .sum();
        let capacity = 164 * 1024 / 8;
        let bz = (1..=8usize)
            .rev()
            .find(|bz| (bz + nk - 1) * tile_pair + weights_total <= capacity)
            .ok_or_else(|| ConvStencilError::PlanInvariant {
                reason: "even a single-plane window exceeds shared memory".to_string(),
            })?;
        let slots = bz + nk - 1;
        let mut slot_off = Vec::with_capacity(slots);
        let mut cursor = 0usize;
        for _ in 0..slots {
            slot_off.push(cursor);
            cursor += tile_pair;
        }
        let mut weight_off = vec![usize::MAX; nk];
        for (dz, p) in planes.iter().enumerate() {
            if let PlaneKind::Mma(w) = p {
                weight_off[dz] = cursor;
                cursor += 2 * w.krows * 8;
            }
        }
        let shared_total = cursor.max(64);
        // Scalar-path column map (same for every plane).
        let mut colmap = Vec::with_capacity(plane_plan.span);
        for c in 0..plane_plan.span {
            let entry = match crate::stencil2row::map_a(0, c, nk) {
                Some((g, col)) if g < plane_plan.block_groups => (true, g, col),
                _ => {
                    let (g, col) = crate::stencil2row::map_b(0, c, nk)
                        .expect("column dropped by both stencil2row matrices");
                    (false, g, col)
                }
            };
            colmap.push(entry);
        }
        let ledger = AccessLedger::new(format!(
            "3D plane plan {}x{}x{} n_k={} ({} tile rows x {} lanes)",
            d,
            plane_plan.m,
            plane_plan.n,
            nk,
            plane_plan.block_rows + nk - 1,
            plane_plan.span_aligned
        ));
        Ok(Self {
            plane_plan,
            variant,
            d,
            nk,
            radius,
            planes,
            lut,
            ledger,
            bz,
            slot_off,
            weight_off,
            shared_total,
            colmap,
            scalar_plane_threshold,
        })
    }

    pub fn shared_len(&self) -> usize {
        self.shared_total
    }

    /// Read access to the shared per-plane scatter lookup table.
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

    /// Run the static plan verifier over the plane plan, the shared
    /// scatter lookup table, and every MMA plane's weight matrices (see
    /// [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        verify_plan::verify_layout_2d(&self.plane_plan, self.variant)?;
        verify_plan::verify_lut_2d(&self.plane_plan, &self.lut, self.variant)?;
        for p in &self.planes {
            if let PlaneKind::Mma(w) = p {
                verify_plan::verify_weights(w)?;
            }
        }
        Ok(())
    }

    /// Declare one plane slot's padding columns and layout tail exempt
    /// from initcheck (fragment k-chunk overreads and dirty-bits
    /// duplicate stores legitimately touch them). No-op when the
    /// sanitizer is off.
    fn declare_plane_exempt(&self, ctx: &mut BlockCtx, base_off: usize, tile_rows: usize) {
        let lay = &self.plane_plan.layout;
        let used = self.nk * tile_rows;
        for off in [base_off + lay.a_off, base_off + lay.b_off] {
            for g in 0..lay.tile_rows {
                ctx.sanitize_exempt(off + g * lay.stride + used, lay.stride - used);
            }
            let staged = lay.tile_rows * lay.stride;
            ctx.sanitize_exempt(off + staged, lay.b_off - lay.a_off - staged);
        }
    }

    /// Allocate variant-I scratch: per-plane stencil2row matrices in
    /// global memory.
    pub fn alloc_explicit(&self, dev: &mut Device) -> ExplicitBuffers3D {
        let p = &self.plane_plan;
        let rows = p.blocks_g * p.block_groups;
        let cols = p.nk * p.ext_rows;
        let len = self.ext_planes() * rows * cols;
        ExplicitBuffers3D {
            s2r_a: dev.alloc(len),
            s2r_b: dev.alloc(len),
            rows,
            cols,
        }
    }

    /// Variant-I transform kernel: materialize the stencil2row matrices of
    /// every extended plane in global memory (scattered writes, div/mod
    /// addressing — the costs the explicit layout pays).
    fn run_transform_kernel(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        bufs: ExplicitBuffers3D,
    ) -> Result<(), ConvStencilError> {
        let p = &self.plane_plan;
        let nk = self.nk;
        let ps = self.plane_size();
        let rows_per_block = 32usize;
        let blocks_per_plane = p.ext_rows.div_ceil(rows_per_block);
        let num_blocks = self.ext_planes() * blocks_per_plane;
        let first = p.lc - p.radius;
        dev.set_write_hint(rows_per_block * 2 * p.span);
        dev.try_launch(num_blocks, 64, |bid, ctx| {
            ctx.phase(Phase::LayoutTransform);
            let plane = bid / blocks_per_plane;
            let chunk = bid % blocks_per_plane;
            let r0 = chunk * rows_per_block;
            let r1 = (r0 + rows_per_block).min(p.ext_rows);
            let sec = plane * bufs.rows * bufs.cols;
            let mut a_addrs = [INACTIVE; 32];
            let mut b_addrs = [INACTIVE; 32];
            let mut vals32 = [0.0f64; 32];
            let mut vals = vec![0.0f64; p.ext_cols];
            for r in r0..r1 {
                ctx.gmem_read_span_into(ext_in, plane * ps + r * p.ext_cols, &mut vals);
                let mut lane = 0usize;
                for (c, &v) in vals.iter().enumerate() {
                    let Some(c_rel) = c.checked_sub(first) else {
                        continue;
                    };
                    ctx.count_divmod(2);
                    ctx.count_branch(2);
                    ctx.count_int(4);
                    a_addrs[lane] = match crate::stencil2row::map_a(r, c_rel, nk) {
                        Some((g, col)) if g < bufs.rows => sec + g * bufs.cols + col,
                        _ => INACTIVE,
                    };
                    b_addrs[lane] = match crate::stencil2row::map_b(r, c_rel, nk) {
                        Some((g, col)) if g < bufs.rows => sec + g * bufs.cols + col,
                        _ => INACTIVE,
                    };
                    vals32[lane] = v;
                    lane += 1;
                    if lane == 32 {
                        ctx.gmem_write_warp(bufs.s2r_a, &a_addrs, &vals32);
                        ctx.gmem_write_warp(bufs.s2r_b, &b_addrs, &vals32);
                        lane = 0;
                    }
                }
                if lane > 0 {
                    ctx.gmem_write_warp(bufs.s2r_a, &a_addrs[..lane], &vals32[..lane]);
                    ctx.gmem_write_warp(bufs.s2r_b, &b_addrs[..lane], &vals32[..lane]);
                }
            }
        })?;
        Ok(())
    }

    /// Variant-I staging: copy the block's tile rows of a plane's global
    /// stencil2row matrices into shared.
    #[allow(clippy::too_many_arguments)]
    fn stage_plane_from_global(
        &self,
        ctx: &mut BlockCtx,
        bufs: ExplicitBuffers3D,
        plane: usize,
        base_off: usize,
        bx: usize,
        bg: usize,
        tile_rows: usize,
    ) {
        self.declare_plane_exempt(ctx, base_off, tile_rows);
        let p = &self.plane_plan;
        let lay = &p.layout;
        let sec = plane * bufs.rows * bufs.cols;
        let col0 = p.nk * (bx * p.block_rows);
        let width = (p.nk * tile_rows).min(bufs.cols - col0);
        let mut addrs = [0usize; 32];
        let mut vals = vec![0.0f64; width];
        for ga in 0..p.block_groups {
            let g = bg * p.block_groups + ga;
            if g >= bufs.rows {
                continue;
            }
            for (buf, off) in [
                (bufs.s2r_a, base_off + lay.a_off),
                (bufs.s2r_b, base_off + lay.b_off),
            ] {
                ctx.gmem_read_span_into(buf, sec + g * bufs.cols + col0, &mut vals);
                ctx.count_int(width as u64);
                let mut i = 0;
                while i < width {
                    let lanes = 32.min(width - i);
                    for (l, a) in addrs[..lanes].iter_mut().enumerate() {
                        *a = off + ga * lay.stride + i + l;
                    }
                    ctx.smem_store(&addrs[..lanes], &vals[i..i + lanes]);
                    i += lanes;
                }
            }
        }
    }

    /// Extended-array planes (input window depth).
    pub fn ext_planes(&self) -> usize {
        self.d + self.nk - 1
    }

    /// Size of one extended plane in f64.
    pub fn plane_size(&self) -> usize {
        self.plane_plan.ext_rows * self.plane_plan.ext_cols
    }

    /// Build the 3D extended array from a grid.
    pub fn try_build_ext(&self, grid: &Grid3D) -> Result<Vec<f64>, ConvStencilError> {
        if (grid.depth(), grid.rows(), grid.cols())
            != (self.d, self.plane_plan.m, self.plane_plan.n)
        {
            return Err(ConvStencilError::ShapeMismatch {
                expected: vec![self.d, self.plane_plan.m, self.plane_plan.n],
                got: vec![grid.depth(), grid.rows(), grid.cols()],
            });
        }
        let h = grid.halo();
        if h < self.radius {
            return Err(ConvStencilError::HaloTooSmall {
                halo: h,
                radius: self.radius,
            });
        }
        // Ext plane p holds padded plane p + h - radius.
        let ps = self.plane_size();
        let pcols = grid.padded_cols();
        let grid_ps = grid.padded_rows() * pcols;
        let mut ext = vec![0.0; self.ext_planes() * ps];
        for (p, ext_plane) in ext.chunks_exact_mut(ps).enumerate() {
            let pz = p + h - self.radius;
            if let Some(plane) = grid.padded().get(pz * grid_ps..(pz + 1) * grid_ps) {
                self.plane_plan.fill_ext_plane(ext_plane, plane, pcols, h);
            }
        }
        Ok(ext)
    }

    /// Extract the interior into `grid`.
    pub fn extract_into(&self, ext: &[f64], grid: &mut Grid3D) {
        let ps = self.plane_size();
        let (pcols, h) = (grid.padded_cols(), grid.halo());
        let grid_ps = grid.padded_rows() * pcols;
        for z in 0..self.d {
            let plane = &ext[(z + self.radius) * ps..(z + self.radius + 1) * ps];
            let dst = &mut grid.padded_mut()[(z + h) * grid_ps..(z + h + 1) * grid_ps];
            self.plane_plan.extract_plane(plane, dst, pcols, h);
        }
    }

    /// One application: read `ext_in`, write interior planes of `ext_out`.
    /// `explicit` must be `Some` iff the variant is explicit (variant I).
    pub fn try_run_application(
        &self,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers3D>,
    ) -> Result<(), ConvStencilError> {
        if self.variant.explicit_global {
            let bufs = explicit.ok_or(ConvStencilError::ScratchMismatch { expected: true })?;
            self.run_transform_kernel(dev, ext_in, bufs)?;
        } else if explicit.is_some() {
            return Err(ConvStencilError::ScratchMismatch { expected: false });
        }
        let p = &self.plane_plan;
        let blocks_per_plane = p.num_blocks();
        let z_blocks = self.d.div_ceil(self.bz);
        let num_blocks = z_blocks * blocks_per_plane;
        let ps = self.plane_size();
        dev.try_launch_into(ext_out, num_blocks, self.shared_len(), |bid, ctx| {
            let zb = bid / blocks_per_plane;
            let rem = bid % blocks_per_plane;
            let bx = rem / p.blocks_g;
            let bg = rem % p.blocks_g;
            let rows_here = p.block_rows.min(p.m - bx * p.block_rows);
            let tile_rows = rows_here + self.nk - 1;
            let z0 = zb * self.bz;
            let planes_here = self.bz.min(self.d - z0);
            ctx.phase(Phase::SmemScatter);
            // Stage the z-window's input planes once; every output plane
            // of the block reuses them.
            for slot in 0..planes_here + self.nk - 1 {
                match explicit {
                    Some(bufs) => self.stage_plane_from_global(
                        ctx,
                        bufs,
                        z0 + slot,
                        self.slot_off[slot],
                        bx,
                        bg,
                        tile_rows,
                    ),
                    None => self.scatter_plane(
                        ctx,
                        ext_in,
                        (z0 + slot) * ps,
                        self.slot_off[slot],
                        bx,
                        bg,
                        tile_rows,
                    ),
                }
            }
            // Stage weight fragments for the MMA planes (once per block).
            let mut staged: [Option<StagedWeights>; MAX_PLANES] = [const { None }; MAX_PLANES];
            for (dz, plane) in self.planes.iter().enumerate() {
                if let PlaneKind::Mma(w) = plane {
                    staged[dz] = Some(StagedWeights::stage(ctx, w, self.weight_off[dz]));
                }
            }
            ctx.phase(Phase::Tessellation);
            for z_local in 0..planes_here {
                self.compute(
                    ctx,
                    ext_out,
                    z0 + z_local,
                    z_local,
                    bx,
                    bg,
                    rows_here,
                    &staged,
                );
            }
        })?;
        Ok(())
    }

    /// Scatter one extended input plane into the tile pair at `base_off`.
    #[allow(clippy::too_many_arguments)]
    fn scatter_plane(
        &self,
        ctx: &mut BlockCtx,
        ext_in: BufferId,
        plane_base: usize,
        base_off: usize,
        bx: usize,
        bg: usize,
        tile_rows: usize,
    ) {
        self.declare_plane_exempt(ctx, base_off, tile_rows);
        let p = &self.plane_plan;
        let read0 = p.read_col0(bg);
        LutScatter {
            lut: self.lut.entries(),
            lanes: p.span_aligned,
            lut_mode: self.variant.dirty_bits_lut,
            ledger: &self.ledger,
        }
        .run(ctx, ext_in, tile_rows, base_off, |t| {
            plane_base + (bx * p.block_rows + t) * p.ext_cols + read0
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn compute(
        &self,
        ctx: &mut BlockCtx,
        ext_out: BufferId,
        z: usize,
        z_local: usize,
        bx: usize,
        bg: usize,
        rows_here: usize,
        staged: &[Option<StagedWeights>; MAX_PLANES],
    ) {
        let p = &self.plane_plan;
        let lay = &p.layout;
        let nk = self.nk;
        let ps = self.plane_size();
        let bands = p.block_groups / 8;
        let band_width = 8 * (nk + 1);
        assert!(band_width <= crate::exec2d::MAX_BAND_F64);
        let mut band_buf = [0.0f64; crate::exec2d::MAX_BAND_F64];
        let out_vals = &mut band_buf[..band_width];
        let mut addrs = [0usize; 32];
        let mut lvals = [0.0f64; 32];
        // Each MMA plane's A and B chains, bases relative to band 0 and
        // output row 0, in plane order.
        let mut chains: [(usize, &[FragB]); 2 * MAX_PLANES] = [(0, &[]); 2 * MAX_PLANES];
        let mut n_chains = 0;
        for (dz, w) in staged.iter().enumerate() {
            if let Some(w) = w {
                let off = self.slot_off[z_local + dz];
                chains[n_chains] = (off + lay.a_off, w.a());
                chains[n_chains + 1] = (off + lay.b_off, w.b());
                n_chains += 2;
            }
        }
        let mut band_chains = chains;
        for xr in 0..rows_here {
            for band in 0..bands {
                // MMA planes accumulate in one fragment, in one call.
                let shift = band * 8 * lay.stride + nk * xr;
                for (c, &(base, frags)) in band_chains.iter_mut().zip(&chains[..n_chains]) {
                    *c = (base + shift, frags);
                }
                let mut acc = FragAcc::zero();
                ctx.mma_chains(lay.stride, &band_chains[..n_chains], &mut acc);
                for ga in 0..8 {
                    for j in 0..=nk {
                        out_vals[ga * (nk + 1) + j] = acc.get(ga, j);
                    }
                }
                // Scalar (small) planes: CUDA-core taps over the shared
                // tiles, added into the same results (§4.2 hybrid).
                let yband = (band * 8) * (nk + 1);
                for (dz, plane) in self.planes.iter().enumerate() {
                    let PlaneKind::Scalar(taps) = plane else {
                        continue;
                    };
                    let off = self.slot_off[z_local + dz];
                    for &(kx, ky, w) in taps {
                        let t = xr + kx;
                        let mut i = 0usize;
                        while i < band_width {
                            let lanes = 32.min(band_width - i);
                            for l in 0..lanes {
                                let c = yband + i + l + ky;
                                let (in_a, g, col) = self.colmap[c];
                                let base = if in_a { lay.a_off } else { lay.b_off };
                                addrs[l] = off + base + g * lay.stride + nk * t + col;
                            }
                            ctx.smem_load(&addrs[..lanes], &mut lvals[..lanes]);
                            ctx.count_fma(lanes as u64);
                            ctx.count_int(lanes as u64);
                            for l in 0..lanes {
                                out_vals[i + l] += w * lvals[l];
                            }
                            i += lanes;
                        }
                    }
                }
                // Write back into the output plane.
                let row_base = (z + self.radius) * ps + p.ext_idx(bx * p.block_rows + xr, 0);
                let y0 = (bg * p.block_groups + band * 8) * (nk + 1);
                write_row(ctx, ext_out, row_base, y0, p.n, out_vals);
            }
        }
    }
}

/// Simulated periodic halo exchange on an extended 3D array: column wrap,
/// row wrap (per interior plane), then full-plane wrap so the halo planes
/// inherit fully wrapped contents.
pub fn try_halo_exchange_3d(
    dev: &mut Device,
    ext: BufferId,
    exec: &Exec3D,
) -> Result<(), ConvStencilError> {
    let p = &exec.plane_plan;
    let (d, m, n, r) = (exec.d, p.m, p.n, exec.radius);
    if d < r || m < r || n < r {
        return Err(ConvStencilError::InteriorTooSmall {
            interior: d.min(m).min(n),
            radius: r,
        });
    }
    let (lr, lc, cols) = (p.lr, p.lc, p.ext_cols);
    let ps = exec.plane_size();
    // Kernel 1: column wrap for every interior (plane, row). Writes are
    // buffered into the launch arena at push time, so one scratch vec can
    // carry both sides of each row.
    dev.set_write_hint(m * 2 * r);
    dev.try_launch(d, 64, |z, ctx| {
        ctx.phase(Phase::HaloExchange);
        let base = (z + r) * ps;
        let mut vals = vec![0.0f64; r];
        for x in 0..m {
            let row = base + (x + lr) * cols;
            ctx.gmem_read_span_into(ext, row + lc + n - r, &mut vals);
            ctx.gmem_write_span(ext, row + lc - r, &vals);
            ctx.gmem_read_span_into(ext, row + lc, &mut vals);
            ctx.gmem_write_span(ext, row + lc + n, &vals);
        }
    })?;
    // Kernel 2: row wrap within each interior plane.
    dev.set_write_hint(2 * r * cols);
    dev.try_launch(d, 64, |z, ctx| {
        ctx.phase(Phase::HaloExchange);
        let base = (z + r) * ps;
        let mut vals = vec![0.0f64; cols];
        for i in 0..r {
            ctx.gmem_read_span_into(ext, base + (m + i) * cols, &mut vals);
            ctx.gmem_write_span(ext, base + i * cols, &vals);
            ctx.gmem_read_span_into(ext, base + (lr + i) * cols, &mut vals);
            ctx.gmem_write_span(ext, base + (lr + m + i) * cols, &vals);
        }
    })?;
    // Kernel 3: full-plane wrap.
    dev.set_write_hint(2 * ps);
    dev.try_launch(r, 64, |i, ctx| {
        ctx.phase(Phase::HaloExchange);
        let mut vals = vec![0.0f64; ps];
        ctx.gmem_read_span_into(ext, (d + i) * ps, &mut vals);
        ctx.gmem_write_span(ext, i * ps, &vals);
        ctx.gmem_read_span_into(ext, (r + i) * ps, &mut vals);
        ctx.gmem_write_span(ext, (r + d + i) * ps, &vals);
    })?;
    Ok(())
}

/// `apps` applications of the generic loop (`stencil::run_applications`) over
/// a borrowed initial extended array. Kept under its 3D name because
/// the repository benchmark (`perfbench/`) calls it.
pub fn try_run_3d_applications_bc(
    dev: &mut Device,
    exec: &Exec3D,
    ext0: &[f64],
    apps: usize,
    boundary: Boundary,
) -> Result<Vec<f64>, ConvStencilError> {
    run_applications::<Kernel3D>(dev, exec, ext0.to_vec(), apps, boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::reference::run3d;
    use stencil_core::{assert_close_default, Kernel3D};

    fn check(kernel: &Kernel3D, dims: (usize, usize, usize), apps: usize, variant: VariantConfig) {
        let (d, m, n) = dims;
        let mut grid = Grid3D::new(d, m, n, kernel.radius());
        grid.fill_random(5);
        let exec = Exec3D::try_new(kernel, d, m, n, variant).unwrap();
        let mut dev = Device::a100();
        let ext0 = exec.try_build_ext(&grid).unwrap();
        let ext =
            try_run_3d_applications_bc(&mut dev, &exec, &ext0, apps, Boundary::Dirichlet).unwrap();
        let mut got = Grid3D::new(d, m, n, kernel.radius());
        exec.extract_into(&ext, &mut got);
        let want = run3d(&grid, kernel, apps);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn box3d27p_matches_reference() {
        check(
            &Kernel3D::box_uniform(1),
            (12, 20, 40),
            2,
            VariantConfig::conv_stencil(),
        );
    }

    #[test]
    fn heat3d_star_matches_reference_with_hybrid_planes() {
        let k = Kernel3D::star(0.4, &[0.1]);
        check(&k, (10, 16, 70), 2, VariantConfig::conv_stencil());
    }

    #[test]
    fn heat3d_uses_both_tcu_and_cuda_paths() {
        // §4.2: small planes on CUDA cores, the center plane on TCUs.
        let k = Kernel3D::star(0.4, &[0.1]);
        let exec = Exec3D::try_new(&k, 8, 8, 64, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid3D::new(8, 8, 64, 1);
        let ext0 = exec.try_build_ext(&grid).unwrap();
        try_run_3d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        assert!(dev.counters.dmma_ops > 0, "center plane must use MMAs");
        assert!(
            dev.counters.cuda_fma_ops > 0,
            "small planes must use CUDA cores"
        );
    }

    #[test]
    fn box3d_mma_count_is_three_planes_of_2d() {
        let k = Kernel3D::box_uniform(1); // nk = 3
        let (d, m, n) = (8, 16, 64); // divisible by block 8 x 64
        let exec = Exec3D::try_new(&k, d, m, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid3D::new(d, m, n, 1);
        let ext0 = exec.try_build_ext(&grid).unwrap();
        try_run_3d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        // Per output plane: mn/(8*4) tessellations x 2*ceil(9/4)=6 MMAs,
        // once per input plane (3); times d output planes.
        let per_plane = (m as u64 * n as u64) / 32 * 6;
        assert_eq!(dev.counters.dmma_ops, 3 * per_plane * d as u64);
    }

    #[test]
    fn cuda_variant_runs_all_planes_scalar() {
        let k = Kernel3D::box_uniform(1);
        let exec = Exec3D::try_new(&k, 6, 8, 32, VariantConfig::implicit_cuda()).unwrap();
        let mut dev = Device::a100();
        let mut grid = Grid3D::new(6, 8, 32, 1);
        grid.fill_random(3);
        let ext0 = exec.try_build_ext(&grid).unwrap();
        let ext =
            try_run_3d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        assert_eq!(dev.counters.dmma_ops, 0);
        assert!(dev.counters.cuda_fma_ops > 0);
        let mut got = Grid3D::new(6, 8, 32, 1);
        exec.extract_into(&ext, &mut got);
        let want = run3d(&grid, &k, 1);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn all_breakdown_variants_agree_on_3d() {
        let k = Kernel3D::box_uniform(1);
        let (d, m, n) = (6, 10, 40);
        let mut grid = Grid3D::new(d, m, n, 1);
        grid.fill_random(21);
        let want = run3d(&grid, &k, 1);
        for (name, variant) in crate::variants::VariantConfig::breakdown() {
            let exec = Exec3D::try_new(&k, d, m, n, variant).unwrap();
            let mut dev = Device::a100();
            let ext0 = exec.try_build_ext(&grid).unwrap();
            let ext =
                try_run_3d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
            let mut got = Grid3D::new(d, m, n, 1);
            exec.extract_into(&ext, &mut got);
            assert_close_default(&got.interior(), &want.interior());
            if variant.explicit_global {
                assert_eq!(dev.launch_stats.kernel_launches, 2, "{name}");
                assert!(
                    dev.counters.uncoalesced_global_access_pct() > 5.0,
                    "{name}: explicit transform should scatter"
                );
            }
        }
    }

    #[test]
    fn awkward_dimensions_still_match() {
        let k = Kernel3D::star(0.5, &[1.0 / 12.0]);
        check(&k, (5, 11, 37), 2, VariantConfig::conv_stencil());
    }
}
