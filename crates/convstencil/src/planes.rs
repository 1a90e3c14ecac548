//! The plane-stack core of every pipeline (paper §4.1–4.2).
//!
//! A 3D stencil splits into one 2D stencil per kernel z-plane, and the
//! plane results are summed; a 2D stencil is the one-plane case, and a 1D
//! stencil the one-plane case of a kernel of height 1 over a one-row
//! plane. [`PlaneStack`] runs such a stack of kernel planes over `d`
//! output planes of one in-plane [`Plan2D`]. One *application* (one launch in
//! the implicit variants, two in the explicit variant I) advances the
//! grid by one (possibly fused) kernel step:
//!
//! 1. **Staging** — each thread block covers one tile of the plane plan
//!    for a z-window of up to `bz` output planes, and builds the
//!    stencil2row A/B tiles of the window's `bz + 2·rz` input planes in
//!    shared memory, one slot each. The implicit variants read each tile
//!    row with coalesced warp reads and store it through the
//!    host-precomputed LUT (variant V, branch-free, dirty elements dumped
//!    into the padding area) or through div/mod + conditional branches
//!    (variants II–IV). Variant I first materializes the stencil2row
//!    matrices of every input plane in global memory with a transform
//!    kernel, then copies the block's rows from them.
//! 2. **Compute** — per output row and 8-group band, the MMA planes run
//!    their dual tessellations (`2⌈h·n_k/4⌉` `m8n8k4` MMAs each, against
//!    register-resident weight fragments staged once per block) into one
//!    accumulator. CUDA-core planes — the small off-centre planes of star
//!    kernels (§4.2), and every plane of variants I/II — add their taps
//!    over the same shared tiles, 32 lanes at a time: per band, or across
//!    the block's whole output row when the stack is a single CUDA-core
//!    plane.
//! 3. **Write-back** — each band's `8(n_k+1)` contiguous outputs (each
//!    32-lane group's, for a single CUDA-core plane), clipped at column
//!    `n`, go to the output plane as one coalesced span, written in place
//!    (see [`crate::epilogue`]).

use crate::epilogue::write_row;
use crate::error::ConvStencilError;
use crate::plan::{Plan2D, ScatterLut};
use crate::scatter::{AccessLedger, LutScatter};
use crate::stencil::{explicit_scratch, ExplicitBuffers};
use crate::stencil2row::{map_a, map_b};
use crate::variants::VariantConfig;
use crate::verify_plan;
use crate::weights::{StagedWeights, WeightMatrices};
use tcu_sim::{BlockCtx, BufferId, Device, FragAcc, FragB, Phase, INACTIVE};

/// Stack-buffer capacity for one tessellation band's `8(n_k+1)` outputs
/// (shared-memory capacity keeps `n_k` far below 31 in any valid plan).
const MAX_BAND_F64: usize = 256;

/// Extended rows one variant-I transform block covers.
const TRANSFORM_ROWS: usize = 32;

/// Extended columns one variant-I transform block covers of a plane that
/// is a single extended row.
const TRANSFORM_COLS: usize = 4096;

/// Most kernel planes a stack has: the largest supported kernel edge.
const MAX_PLANES: usize = 7;

/// Shared memory a block may use, in f64 (the A100's 164 KiB).
const SHARED_CAPACITY_F64: usize = 164 * 1024 / 8;

/// How one kernel plane is computed.
#[derive(Debug, Clone)]
pub(crate) enum PlaneKind {
    /// All-zero plane: skipped entirely.
    Empty,
    /// CUDA-core taps `(kx, ky, w)`.
    Scalar(Vec<(usize, usize, f64)>),
    /// Dual tessellation with these weight matrices.
    Mma(WeightMatrices),
}

impl PlaneKind {
    /// The plane's non-zero weights as CUDA-core taps, row-major; `taps`
    /// holds the plane's rows of `nk` weights, top-left first.
    pub(crate) fn scalar(nk: usize, taps: &[f64]) -> Self {
        let taps = taps
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0.0)
            .map(|(i, &w)| (i / nk, i % nk, w))
            .collect();
        Self::Scalar(taps)
    }

    /// The plane as dual-tessellation weight matrices (`taps` as for
    /// [`PlaneKind::scalar`]).
    pub(crate) fn mma(nk: usize, taps: &[f64]) -> Self {
        Self::Mma(WeightMatrices::new(nk, taps))
    }

    /// The plane on Tensor Cores when `use_tcu`, else on CUDA cores.
    pub(crate) fn of(use_tcu: bool, nk: usize, taps: &[f64]) -> Self {
        if use_tcu {
            Self::mma(nk, taps)
        } else {
            Self::scalar(nk, taps)
        }
    }
}

/// Where one block sits: row block `bx`, column-group block `bg`, first
/// output plane `z0`, the output rows it writes and the input rows its
/// tiles stage.
#[derive(Debug, Clone, Copy)]
struct Tile {
    bx: usize,
    bg: usize,
    z0: usize,
    rows_here: usize,
    tile_rows: usize,
}

/// Kernel planes, lookup table, shared layout and column map of one
/// stack; the in-plane [`Plan2D`] and the z-window are the executor's.
#[derive(Debug, Clone)]
pub(crate) struct PlaneStack {
    variant: VariantConfig,
    /// Output planes.
    pub(crate) d: usize,
    /// Kernel z radius: output plane `z` reads extended input planes
    /// `z ..= z + 2·rz`.
    pub(crate) rz: usize,
    /// Kernel planes in z order (`2·rz + 1`).
    planes: Vec<PlaneKind>,
    lut: ScatterLut,
    /// Per-tile-row shared-store charges of the LUT scatter (any slot).
    ledger: AccessLedger,
    /// Offset of input-plane slot `s`'s tile pair in shared memory
    /// (`window + 2·rz` slots).
    slot_off: Vec<usize>,
    /// Offset of plane `dz`'s weight matrices (MMA planes only).
    weight_off: Vec<usize>,
    shared_total: usize,
    /// Outputs of a block row one compute pass completes and writes: an
    /// 8-group band, where the MMA accumulator and the planes' sums meet;
    /// or, when the stack is one CUDA-core plane, one 32-lane group, so
    /// its lane groups run across the whole row.
    pass_width: usize,
    /// Input column -> (in A, group, offset) for the CUDA-core taps.
    colmap: Vec<(bool, usize, usize)>,
}

impl PlaneStack {
    /// Lay out `planes` (in z order, an odd count) over `d` output planes
    /// of `plan`: one tile pair per input-plane slot of the largest
    /// z-window up to `max_window` that fits shared memory, then the
    /// weight regions of the MMA planes.
    pub(crate) fn try_new(
        plan: &Plan2D,
        variant: VariantConfig,
        d: usize,
        planes: Vec<PlaneKind>,
        max_window: usize,
    ) -> Result<Self, ConvStencilError> {
        let rz = planes.len() / 2;
        let tile_pair = 2 * plan.layout.b_off; // a tile + b tile
        let weights_len = |p: &PlaneKind| match p {
            PlaneKind::Mma(w) => 2 * w.krows * 8,
            _ => 0,
        };
        let weights_total: usize = planes.iter().map(weights_len).sum();
        let window = (1..=max_window)
            .rev()
            .find(|bz| (bz + 2 * rz) * tile_pair + weights_total <= SHARED_CAPACITY_F64)
            .ok_or_else(|| ConvStencilError::PlanInvariant {
                reason: "even a single-plane window exceeds shared memory".to_string(),
            })?;
        let slot_off: Vec<usize> = (0..window + 2 * rz).map(|s| s * tile_pair).collect();
        let mut cursor = slot_off.len() * tile_pair;
        let mut weight_off = vec![usize::MAX; planes.len()];
        for (dz, p) in planes.iter().enumerate() {
            if let PlaneKind::Mma(_) = p {
                weight_off[dz] = cursor;
                cursor += weights_len(p);
            }
        }
        let ledger = AccessLedger::new(format!(
            "plane stack {}x{}x{} n_k={} ({} tile rows x {} lanes)",
            d,
            plan.m,
            plan.n,
            plan.nk,
            plan.tile_rows(),
            plan.span_aligned
        ));
        let pass_width = match planes[..] {
            [PlaneKind::Scalar(_)] => 32,
            _ => 8 * (plan.nk + 1),
        };
        Ok(Self {
            variant,
            d,
            rz,
            planes,
            lut: plan.build_scatter_lut(variant),
            ledger,
            slot_off,
            weight_off,
            // Never below the plan's own one-plane layout, which keeps a
            // weight region even when no plane runs on Tensor Cores.
            shared_total: cursor.max(plan.layout.total),
            pass_width,
            colmap: column_map(plan.span, plan.nk, plan.block_groups),
        })
    }

    /// Output planes per block the slots hold.
    pub(crate) fn window(&self) -> usize {
        self.slot_off.len() - 2 * self.rz
    }

    pub(crate) fn lut(&self) -> &ScatterLut {
        &self.lut
    }

    pub(crate) fn lut_mut(&mut self) -> &mut ScatterLut {
        self.ledger.clear();
        &mut self.lut
    }

    /// Run the static plan verifier over the plane plan, the shared
    /// scatter lookup table, and every MMA plane's weight matrices (see
    /// [`crate::verify_plan`]).
    pub(crate) fn verify(&self, plan: &Plan2D) -> Result<(), ConvStencilError> {
        verify_plan::verify_layout_2d(plan, self.variant)?;
        verify_plan::verify_lut_2d(plan, &self.lut, self.variant)?;
        for p in &self.planes {
            if let PlaneKind::Mma(w) = p {
                verify_plan::verify_weights(w)?;
            }
        }
        Ok(())
    }

    /// Extended-array planes (input window depth).
    pub(crate) fn ext_planes(&self) -> usize {
        self.d + 2 * self.rz
    }

    /// Variant I's scratch: the stencil2row matrices of every extended
    /// input plane in global memory. `None` for the implicit variants.
    pub(crate) fn alloc_explicit(
        &self,
        plan: &Plan2D,
        dev: &mut Device,
    ) -> Option<ExplicitBuffers> {
        let (rows, cols) = explicit_dims(plan);
        let len = self.ext_planes() * rows * cols;
        self.variant.explicit_global.then(|| ExplicitBuffers {
            s2r_a: dev.alloc(len),
            s2r_b: dev.alloc(len),
        })
    }

    /// One application over `plan` with a z-window of `bz` output planes
    /// per block: read `ext_in`, write the interior of `ext_out`.
    /// `explicit` must be `Some` iff the variant is explicit (variant I).
    pub(crate) fn try_run_application(
        &self,
        p: &Plan2D,
        bz: usize,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        let explicit = explicit_scratch(self.variant, explicit)?;
        if let Some(bufs) = explicit {
            self.run_transform(p, dev, ext_in, bufs)?;
        }
        let blocks_per_plane = p.num_blocks();
        let num_blocks = self.d.div_ceil(bz) * blocks_per_plane;
        let lay = &p.layout;
        dev.try_launch_into(ext_out, num_blocks, self.shared_total, |bid, ctx| {
            let rem = bid % blocks_per_plane;
            let bx = rem / p.blocks_g;
            let rows_here = p.block_rows.min(p.m - bx * p.block_rows);
            let tile = Tile {
                bx,
                bg: rem % p.blocks_g,
                z0: bid / blocks_per_plane * bz,
                rows_here,
                tile_rows: rows_here + p.kernel_rows - 1,
            };
            let planes_here = bz.min(self.d - tile.z0);
            ctx.phase(Phase::SmemScatter);
            // Stage the z-window's input planes once; every output plane
            // of the block reuses them.
            for slot in 0..planes_here + 2 * self.rz {
                let off = self.slot_off[slot];
                let offs = [off + lay.a_off, off + lay.b_off];
                declare_exempt(ctx, offs, lay.tile_rows, lay.stride, p.nk * tile.tile_rows);
                match explicit {
                    Some(bufs) => self.stage(ctx, p, bufs, tile, slot),
                    None => self.scatter(ctx, p, ext_in, tile, slot),
                }
            }
            // Weight fragments of the MMA planes, staged once per block.
            let mut staged: [Option<StagedWeights>; MAX_PLANES] = [const { None }; MAX_PLANES];
            for (dz, plane) in self.planes.iter().enumerate() {
                if let PlaneKind::Mma(w) = plane {
                    staged[dz] = Some(StagedWeights::stage(ctx, w, self.weight_off[dz]));
                }
            }
            ctx.phase(Phase::Tessellation);
            for z_local in 0..planes_here {
                self.compute(ctx, p, ext_out, tile, z_local, &staged);
            }
        })?;
        Ok(())
    }

    /// Variant-I transform kernel: materialize the stencil2row matrices of
    /// every extended plane in global memory. A block covers 32 extended
    /// rows; a plane that is a single extended row (a height-1 kernel on
    /// a one-row interior) is cut into 4096-column blocks instead.
    /// Scattered (uncoalesced) global writes and div/mod addressing — the
    /// costs this variant exists to demonstrate.
    fn run_transform(
        &self,
        p: &Plan2D,
        dev: &mut Device,
        ext_in: BufferId,
        bufs: ExplicitBuffers,
    ) -> Result<(), ConvStencilError> {
        let nk = p.nk;
        let (rows, cols) = explicit_dims(p);
        let plane_len = p.ext_rows * p.ext_cols;
        let block_cols = if p.ext_rows == 1 {
            TRANSFORM_COLS
        } else {
            p.ext_cols
        };
        let col_blocks = p.ext_cols.div_ceil(block_cols);
        let blocks_per_plane = p.ext_rows.div_ceil(TRANSFORM_ROWS) * col_blocks;
        let first = p.lc - p.radius; // ext column where the conv window starts
        dev.set_write_hint(TRANSFORM_ROWS.min(p.ext_rows) * 2 * block_cols.min(p.span));
        dev.try_launch(self.ext_planes() * blocks_per_plane, 64, |bid, ctx| {
            ctx.phase(Phase::LayoutTransform);
            let plane = bid / blocks_per_plane;
            let rem = bid % blocks_per_plane;
            let r0 = rem / col_blocks * TRANSFORM_ROWS;
            let r1 = (r0 + TRANSFORM_ROWS).min(p.ext_rows);
            let c0 = rem % col_blocks * block_cols;
            let sec = plane * rows * cols;
            let mut a_addrs = [INACTIVE; 32];
            let mut b_addrs = [INACTIVE; 32];
            let mut vals32 = [0.0f64; 32];
            let mut vals = vec![0.0f64; block_cols.min(p.ext_cols - c0)];
            for r in r0..r1 {
                let row = plane * plane_len + r * p.ext_cols;
                ctx.gmem_read_span_into(ext_in, row + c0, &mut vals);
                let mut lane = 0usize;
                for (c, &v) in (c0..).zip(&vals) {
                    let Some(c_rel) = c.checked_sub(first) else {
                        continue;
                    };
                    // Address arithmetic: flat->(row,col) plus two group
                    // div/mods, and two validity branches per element.
                    ctx.count_divmod(2);
                    ctx.count_branch(2);
                    ctx.count_int(4);
                    a_addrs[lane] = match map_a(r, c_rel, nk) {
                        Some((g, col)) if g < rows => sec + g * cols + col,
                        _ => INACTIVE,
                    };
                    b_addrs[lane] = match map_b(r, c_rel, nk) {
                        Some((g, col)) if g < rows => sec + g * cols + col,
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

    /// Implicit staging: coalesced global reads of the block's input tile
    /// on plane `z0 + slot`, stored into the slot's shared stencil2row
    /// tiles through the LUT.
    fn scatter(&self, ctx: &mut BlockCtx, p: &Plan2D, ext_in: BufferId, tile: Tile, slot: usize) {
        let plane_base = (tile.z0 + slot) * p.ext_rows * p.ext_cols;
        let read0 = p.read_col0(tile.bg);
        LutScatter {
            lut: self.lut.entries(),
            lanes: p.span_aligned,
            lut_mode: self.variant.dirty_bits_lut,
            ledger: &self.ledger,
        }
        .run(ctx, ext_in, tile.tile_rows, self.slot_off[slot], |t| {
            plane_base + (tile.bx * p.block_rows + t) * p.ext_cols + read0
        });
    }

    /// Explicit-variant staging: copy the block's tile rows of plane
    /// `z0 + slot`'s global stencil2row matrices into the slot (coalesced
    /// reads, contiguous stores). In a plane that is a single extended
    /// row the block's group rows lie back to back in global memory, and
    /// without padding in shared memory too: one read and one store then
    /// move each matrix's rows.
    fn stage(
        &self,
        ctx: &mut BlockCtx,
        p: &Plan2D,
        bufs: ExplicitBuffers,
        tile: Tile,
        slot: usize,
    ) {
        let lay = &p.layout;
        let off = self.slot_off[slot];
        let (rows, cols) = explicit_dims(p);
        let sec = (tile.z0 + slot) * rows * cols;
        let col0 = p.nk * (tile.bx * p.block_rows);
        let len = (p.nk * tile.tile_rows).min(cols - col0);
        let run = if p.ext_rows == 1 && lay.stride == len {
            p.block_groups
        } else {
            1
        };
        let mut vals = vec![0.0f64; run * len];
        for ga in (0..p.block_groups).step_by(run) {
            let g = tile.bg * p.block_groups + ga;
            for (buf, base) in [(bufs.s2r_a, lay.a_off), (bufs.s2r_b, lay.b_off)] {
                ctx.gmem_read_span_into(buf, sec + g * cols + col0, &mut vals);
                ctx.count_int(vals.len() as u64);
                ctx.smem_store_span(off + base + ga * lay.stride, &vals);
            }
        }
    }

    /// Compute output plane `z0 + z_local` of the block, one pass of
    /// `pass_width` outputs at a time per output row: the MMA planes'
    /// dual tessellations into one accumulator, then the CUDA-core
    /// planes' taps, then the write-back.
    fn compute(
        &self,
        ctx: &mut BlockCtx,
        p: &Plan2D,
        ext_out: BufferId,
        tile: Tile,
        z_local: usize,
        staged: &[Option<StagedWeights>; MAX_PLANES],
    ) {
        let lay = &p.layout;
        let nk = p.nk;
        let row_width = p.block_groups * (nk + 1);
        assert!(
            self.pass_width <= MAX_BAND_F64,
            "n_k too large for band buffer"
        );
        let mut band_buf = [0.0f64; MAX_BAND_F64];
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
        let out_plane = (tile.z0 + z_local + self.rz) * p.ext_rows * p.ext_cols;
        for xr in 0..tile.rows_here {
            for ypass in (0..row_width).step_by(self.pass_width) {
                let out_vals = &mut band_buf[..self.pass_width.min(row_width - ypass)];
                if n_chains > 0 {
                    // A pass is one band: the MMA planes accumulate in one
                    // fragment, in one call.
                    let shift = ypass / (nk + 1) * lay.stride + nk * xr;
                    for (c, &(base, frags)) in band_chains.iter_mut().zip(&chains[..n_chains]) {
                        *c = (base + shift, frags);
                    }
                    let mut acc = FragAcc::zero();
                    ctx.mma_chains(lay.stride, &band_chains[..n_chains], &mut acc);
                    unpack_band(&acc, nk, out_vals);
                } else {
                    out_vals.fill(0.0);
                }
                // CUDA-core planes: taps over the shared tiles, added into
                // the same results (§4.2 hybrid), one 32-lane group at a
                // time.
                for (dz, plane) in self.planes.iter().enumerate() {
                    let PlaneKind::Scalar(taps) = plane else {
                        continue;
                    };
                    let off = self.slot_off[z_local + dz];
                    for (i, lanes_out) in out_vals.chunks_mut(32).enumerate() {
                        let lanes = lanes_out.len();
                        for &(kx, ky, w) in taps {
                            // colmap holds the offset for input row 0;
                            // shift by nk per input row (Eq. 5/6's n_k·x
                            // term).
                            let t = xr + kx;
                            for l in 0..lanes {
                                let (in_a, g, col) = self.colmap[ypass + 32 * i + l + ky];
                                let base = if in_a { lay.a_off } else { lay.b_off };
                                addrs[l] = off + base + g * lay.stride + nk * t + col;
                            }
                            ctx.smem_load(&addrs[..lanes], &mut lvals[..lanes]);
                            ctx.count_fma(lanes as u64);
                            ctx.count_int(lanes as u64);
                            for l in 0..lanes {
                                lanes_out[l] += w * lvals[l];
                            }
                        }
                    }
                }
                let row_base = out_plane + p.ext_idx(tile.bx * p.block_rows + xr, 0);
                let y0 = tile.bg * row_width + ypass;
                write_row(ctx, ext_out, row_base, y0, p.n, out_vals);
            }
        }
    }
}

/// (rows, columns) of one plane's global stencil2row matrices in the
/// explicit variant. Rows cover all block groups so staging reads
/// uniformly.
fn explicit_dims(p: &Plan2D) -> (usize, usize) {
    (p.blocks_g * p.block_groups, p.nk * p.ext_rows)
}

/// For each input column `c` of a block's span, the stencil2row tile that
/// keeps it for the CUDA-core taps: `(in A, group, column)` at input row
/// 0 (Eq. 5, or Eq. 6 where A drops the column or its group lies past the
/// block's `groups`). Input row `x` adds `n_k·x` to the column.
pub(crate) fn column_map(span: usize, nk: usize, groups: usize) -> Vec<(bool, usize, usize)> {
    (0..span)
        .map(|c| match map_a(0, c, nk) {
            Some((g, col)) if g < groups => (true, g, col),
            _ => {
                let (g, col) =
                    map_b(0, c, nk).expect("column dropped by both stencil2row matrices");
                (false, g, col)
            }
        })
        .collect()
}

/// Declare one tile pair (A and B at `offs`, `groups` rows of `stride`
/// each) exempt from initcheck where a block legitimately reads or
/// overwrites unstaged words: each row's columns past the `used` it
/// stages (fragment k-chunk overreads, dirty-bits duplicate stores) and
/// the tail up to the next tile. No-op when the sanitizer is off.
pub(crate) fn declare_exempt(
    ctx: &mut BlockCtx,
    offs: [usize; 2],
    groups: usize,
    stride: usize,
    used: usize,
) {
    let staged = groups * stride;
    let tile = offs[1] - offs[0];
    for off in offs {
        for g in 0..groups {
            ctx.sanitize_exempt(off + g * stride + used, stride - used);
        }
        ctx.sanitize_exempt(off + staged, tile - staged);
    }
}

/// Unpack one dual tessellation: `acc[ga][j]`, `j` in `0..=n_k`, is the
/// band's output `ga·(n_k+1) + j`.
pub(crate) fn unpack_band(acc: &FragAcc, nk: usize, out: &mut [f64]) {
    for ga in 0..8 {
        for j in 0..=nk {
            out[ga * (nk + 1) + j] = acc.get(ga, j);
        }
    }
}
