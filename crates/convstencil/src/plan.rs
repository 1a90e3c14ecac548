//! Execution planning for the simulated ConvStencil pipelines: block
//! geometry, the shared-memory layout of the implicit stencil2row tiles,
//! the extended device array, and the host-precomputed scatter lookup
//! table (§3.4, "Lookup Table").
//!
//! Geometry follows the paper's Table 4: a 2D thread block covers
//! 32 output rows x 8 column groups (= 64 output columns for `n_k = 7`),
//! which makes the stencil2row A tile exactly `8 x 266` doubles for
//! Box-2D49P — the very matrix the paper's Fig. 5 pads to 268 columns.
//!
//! One plan type serves every dimension: its kernel height `h` is `n_k`
//! for 2D stencils and 3D kernel planes, and 1 for 1D, which plans as one
//! output row of a height-1 kernel (§4.1).

use crate::error::ConvStencilError;
use crate::variants::VariantConfig;
use crate::weights::FRAG_K;
use serde::{Deserialize, Serialize};
use stencil_core::Grid2D;
use tcu_sim::conflict_free_pad;

/// Sentinel LUT address: element not stored (branch variants skip it).
pub const LUT_SKIP: u32 = u32::MAX;

/// Shared-memory layout of one block: stencil2row A/B tiles plus the two
/// weight matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedLayout {
    /// Group-rows per tile (the block's column groups).
    pub tile_rows: usize,
    /// Useful f64 columns per tile row.
    pub raw_cols: usize,
    /// Allocated row stride (raw_cols + padding).
    pub stride: usize,
    /// Padding elements per row (0 without the padding optimization).
    pub pad: usize,
    /// Offset of the stencil2row A tile.
    pub a_off: usize,
    /// Offset of the stencil2row B tile.
    pub b_off: usize,
    /// Offset of weight matrix A (krows x 8, stride 8).
    pub wa_off: usize,
    /// Offset of weight matrix B.
    pub wb_off: usize,
    /// Total shared f64 elements required.
    pub total: usize,
}

impl SharedLayout {
    /// Compute the layout for a block of `block_rows` output rows and
    /// `block_groups` column groups with kernel edge `nk`, kernel height
    /// `kernel_rows` and padded weight-row count `krows`.
    pub fn new(
        nk: usize,
        kernel_rows: usize,
        block_rows: usize,
        block_groups: usize,
        krows: usize,
        variant: VariantConfig,
    ) -> Self {
        // A tile row holds nk elements per input row over
        // block_rows + kernel_rows - 1 input rows (266 for Box-2D49P's
        // 32-row block — the paper's Fig. 5 example; nk in 1D).
        let raw_cols = nk * (block_rows + kernel_rows - 1);
        let pad = if variant.padding {
            let p = conflict_free_pad(raw_cols, 32);
            if variant.dirty_bits_lut && p == 0 {
                // Dirty bits need at least one dump slot; +16 keeps the
                // stride in the same conflict-free residue class.
                16
            } else {
                p
            }
        } else {
            0
        };
        let stride = raw_cols + pad;
        // The fragment k-chunks of the last output row read up to
        // nk*(block_rows-1) + krows elements into a tile row; whatever
        // extends past the stride lands in the next row (garbage times the
        // zero-padded weight rows — numerically inert, exactly as on real
        // hardware). The last tile row needs a tail margin to absorb it.
        let tail = (nk * block_rows.saturating_sub(1) + krows).saturating_sub(stride);
        let tile_size = block_groups * stride + tail;
        let a_off = 0;
        let b_off = tile_size;
        let wa_off = 2 * tile_size;
        let wb_off = wa_off + krows * 8;
        let total = wb_off + krows * 8;
        Self {
            tile_rows: block_groups,
            raw_cols,
            stride,
            pad,
            a_off,
            b_off,
            wa_off,
            wb_off,
            total,
        }
    }

    /// Dirty-bits dump slot for tile row `row` of the A tile.
    ///
    /// Always-on check (not `debug_assert!`): without at least one padding
    /// slot the dump address would alias the next tile row's useful
    /// columns, silently corrupting results in release builds.
    pub fn dirty_a(&self, row: usize) -> usize {
        assert!(self.pad >= 1, "dirty bits need padding");
        self.a_off + row.min(self.tile_rows - 1) * self.stride + self.raw_cols
    }

    /// Dirty-bits dump slot for tile row `row` of the B tile.
    pub fn dirty_b(&self, row: usize) -> usize {
        assert!(self.pad >= 1, "dirty bits need padding");
        self.b_off + row.min(self.tile_rows - 1) * self.stride + self.raw_cols
    }
}

/// Full plan for one 2D ConvStencil pipeline, one 3D plane, or the one
/// row of a 1D pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plan2D {
    pub nk: usize,
    /// Column radius `(n_k - 1) / 2`.
    pub radius: usize,
    /// Kernel rows `h`: `n_k` for 2D and 3D planes, 1 for 1D.
    pub kernel_rows: usize,
    /// Output interior rows / columns.
    pub m: usize,
    pub n: usize,
    /// Output rows per block (32 per Table 4 in 2D, 8 in 3D).
    pub block_rows: usize,
    /// Column groups per block, a multiple of 8 (8 in 2D — 64 columns at
    /// n_k = 7).
    pub block_groups: usize,
    /// Blocks along rows / along column-group bands.
    pub blocks_x: usize,
    pub blocks_g: usize,
    /// Extended device array geometry.
    pub ext_rows: usize,
    pub ext_cols: usize,
    /// Row/column offsets of interior (0,0) inside the extended array
    /// (`lr` is the kernel's row radius `(h - 1) / 2`).
    pub lr: usize,
    pub lc: usize,
    /// Input columns a block logically needs.
    pub span: usize,
    /// Elements before the logical span in the sector-aligned read window.
    pub pre: usize,
    /// Sector-aligned elements each block reads per input row.
    pub span_aligned: usize,
    /// Shared layout.
    pub layout: SharedLayout,
    /// Padded weight-matrix rows (`4⌈h·n_k/4⌉`).
    pub krows: usize,
}

impl Plan2D {
    /// Plan with the paper's 2D block shape (32 x 8 groups).
    pub fn try_new_2d(
        m: usize,
        n: usize,
        nk: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        Self::try_with_block(m, n, nk, nk, 32, 8, variant)
    }

    /// Plan with the paper's 3D per-plane block shape: 8 rows x about 64
    /// columns, in whole 8-group tessellation bands (16 groups at
    /// `n_k = 3`, 8 at `n_k = 5` and `7`).
    pub fn try_new_3d_plane(
        m: usize,
        n: usize,
        nk: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        if !(nk % 2 == 1 && (3..=7).contains(&nk)) {
            return Err(ConvStencilError::UnsupportedNk { nk });
        }
        let groups = 64 / (nk + 1) / 8 * 8;
        Self::try_with_block(m, n, nk, nk, 8, groups, variant)
    }

    /// Plan with an explicit kernel height (`kernel_rows`, odd and at
    /// most `nk`) and block shape, validating the kernel edge, grid
    /// extents, block shape, and layout invariants.
    pub fn try_with_block(
        m: usize,
        n: usize,
        nk: usize,
        kernel_rows: usize,
        block_rows: usize,
        block_groups: usize,
        variant: VariantConfig,
    ) -> Result<Self, ConvStencilError> {
        if !(nk % 2 == 1 && (3..=7).contains(&nk)) {
            return Err(ConvStencilError::UnsupportedNk { nk });
        }
        if kernel_rows.is_multiple_of(2) || kernel_rows > nk {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!("kernel height {kernel_rows} is not odd and at most n_k {nk}"),
            });
        }
        if m == 0 || n == 0 {
            return Err(ConvStencilError::ZeroSizedGrid { dims: vec![m, n] });
        }
        if block_rows == 0 || block_groups == 0 {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!("block shape {block_rows} x {block_groups} has a zero extent"),
            });
        }
        // A block computes whole 8-group tessellation bands.
        if !block_groups.is_multiple_of(8) {
            return Err(ConvStencilError::PlanInvariant {
                reason: format!("groups per block must be a multiple of 8 (got {block_groups})"),
            });
        }
        let radius = (nk - 1) / 2;
        let krows = (kernel_rows * nk).div_ceil(FRAG_K) * FRAG_K;
        let groups_needed = n.div_ceil(nk + 1);
        let blocks_g = groups_needed.div_ceil(block_groups);
        let blocks_x = m.div_ceil(block_rows);
        let lr = (kernel_rows - 1) / 2;
        let lc = 4; // sector-aligned interior column offset (>= radius)
        let covered = blocks_g * block_groups * (nk + 1);
        let ext_rows = m + kernel_rows - 1;
        let ext_cols = (lc + covered + nk).div_ceil(4) * 4;
        let span = block_groups * (nk + 1) + nk - 1;
        // Block bg reads ext columns starting at lc - radius + bg·BG(nk+1);
        // the bg-dependent part is a multiple of 4, so alignment padding is
        // uniform across blocks.
        let first = lc - radius;
        let aligned_first = first & !3;
        let pre = first - aligned_first;
        let span_aligned = (pre + span).div_ceil(4) * 4;
        let layout = SharedLayout::new(nk, kernel_rows, block_rows, block_groups, krows, variant);
        if variant.dirty_bits_lut && layout.pad == 0 {
            return Err(ConvStencilError::PlanInvariant {
                reason: "dirty bits need padding (dirty_bits_lut requires the padding \
                         optimization)"
                    .to_string(),
            });
        }
        Ok(Self {
            nk,
            radius,
            kernel_rows,
            m,
            n,
            block_rows,
            block_groups,
            blocks_x,
            blocks_g,
            ext_rows,
            ext_cols,
            lr,
            lc,
            span,
            pre,
            span_aligned,
            layout,
            krows,
        })
    }

    /// Total thread blocks per kernel launch.
    pub fn num_blocks(&self) -> usize {
        self.blocks_x * self.blocks_g
    }

    /// Input rows the tiles of a full block stage: `block_rows + h - 1`.
    pub fn tile_rows(&self) -> usize {
        self.block_rows + self.kernel_rows - 1
    }

    /// First extended-array column block `bg` reads (sector-aligned).
    pub fn read_col0(&self, bg: usize) -> usize {
        ((self.lc - self.radius) & !3) + bg * self.block_groups * (self.nk + 1)
    }

    /// Extended-array column where output column group `g0 = bg·BG` starts.
    pub fn write_col0(&self, bg: usize) -> usize {
        self.lc + bg * self.block_groups * (self.nk + 1)
    }

    /// Flat extended-array index of interior cell (x, y).
    pub fn ext_idx(&self, x: usize, y: usize) -> usize {
        (x + self.lr) * self.ext_cols + y + self.lc
    }

    /// Build the extended array from a grid (interior + available halo;
    /// zero beyond). The grid's halo must be at least `radius`.
    pub fn try_build_ext(&self, grid: &Grid2D) -> Result<Vec<f64>, ConvStencilError> {
        let mut ext = Vec::new();
        self.try_build_ext_into(grid, &mut ext)?;
        Ok(ext)
    }

    /// [`Plan2D::try_build_ext`] into recycled storage: `ext` is resized
    /// to the extended array and every element overwritten, so nothing of
    /// its previous contents survives. On error `ext` is left untouched.
    pub fn try_build_ext_into(
        &self,
        grid: &Grid2D,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError> {
        if grid.rows() != self.m || grid.cols() != self.n {
            return Err(ConvStencilError::ShapeMismatch {
                expected: vec![self.m, self.n],
                got: vec![grid.rows(), grid.cols()],
            });
        }
        let h = grid.halo();
        if h < self.radius {
            return Err(ConvStencilError::HaloTooSmall {
                halo: h,
                radius: self.radius,
            });
        }
        resize_for_overwrite(ext, self.ext_rows * self.ext_cols);
        self.fill_ext_plane(ext, grid.padded(), grid.padded_cols(), h);
        Ok(())
    }

    /// Write the extended plane `ext` from a padded plane with `pcols`
    /// columns and halo `h`, one row slice at a time: ext row `r` holds
    /// padded row `r + h - lr`, and ext column `c` padded column
    /// `c + h - lc`. Cells outside the padded plane are zeroed, so every
    /// element of `ext` is written.
    pub(crate) fn fill_ext_plane(&self, ext: &mut [f64], padded: &[f64], pcols: usize, h: usize) {
        for (r, ext_row) in ext.chunks_exact_mut(self.ext_cols).enumerate() {
            let px = r + h - self.lr;
            match padded.get(px * pcols..(px + 1) * pcols) {
                Some(row) => copy_aligned(ext_row, self.lc, row, h),
                None => ext_row.fill(0.0),
            }
        }
    }

    /// Extract the interior from an extended array into `grid`.
    pub fn extract_into(&self, ext: &[f64], grid: &mut Grid2D) {
        assert_eq!(ext.len(), self.ext_rows * self.ext_cols);
        let (pcols, h) = (grid.padded_cols(), grid.halo());
        self.extract_plane(ext, grid.padded_mut(), pcols, h);
    }

    /// Copy the interior rows of the extended plane `ext` into a padded
    /// plane with `pcols` columns and halo `h`, one row slice at a time.
    pub(crate) fn extract_plane(&self, ext: &[f64], padded: &mut [f64], pcols: usize, h: usize) {
        for x in 0..self.m {
            let dst = (x + h) * pcols + h;
            let src = self.ext_idx(x, 0);
            padded[dst..dst + self.n].copy_from_slice(&ext[src..src + self.n]);
        }
    }

    /// Host-precomputed scatter LUT (§3.4): for each (tile row `t`, read
    /// lane `i`) the pair of shared addresses the element is stored to in
    /// the A and B tiles ([`LUT_SKIP`] when the variant drops it).
    ///
    /// With `dirty_bits_lut`, unused elements map to the padding dump
    /// slots instead of being skipped — the scatter becomes branch-free.
    pub fn build_scatter_lut(&self, variant: VariantConfig) -> ScatterLut {
        let nk = self.nk;
        let tile_rows = self.tile_rows();
        let lay = &self.layout;
        let mut entries = vec![[LUT_SKIP, LUT_SKIP]; tile_rows * self.span_aligned];
        for t in 0..tile_rows {
            for i in 0..self.span_aligned {
                let e = &mut entries[t * self.span_aligned + i];
                // A side.
                let ca = i as isize - self.pre as isize;
                let mut a_addr = None;
                let mut a_row = 0usize;
                if ca >= 0 && (ca as usize) < self.span {
                    let c = ca as usize;
                    let ga = c / (nk + 1);
                    let off = c % (nk + 1);
                    a_row = ga;
                    if off != nk && ga < self.block_groups {
                        a_addr = Some(lay.a_off + ga * lay.stride + nk * t + off);
                    }
                }
                e[0] = match a_addr {
                    Some(a) => a as u32,
                    None if variant.dirty_bits_lut => lay.dirty_a(a_row) as u32,
                    None => LUT_SKIP,
                };
                // B side.
                let cb = i as isize - self.pre as isize - nk as isize;
                let mut b_addr = None;
                let mut b_row = 0usize;
                if cb >= 0 && (cb as usize) < self.span - nk {
                    let c = cb as usize;
                    let gb = c / (nk + 1);
                    let off = c % (nk + 1);
                    b_row = gb;
                    if off != nk && gb < self.block_groups {
                        b_addr = Some(lay.b_off + gb * lay.stride + nk * t + off);
                    }
                }
                e[1] = match b_addr {
                    Some(a) => a as u32,
                    None if variant.dirty_bits_lut => lay.dirty_b(b_row) as u32,
                    None => LUT_SKIP,
                };
            }
        }
        ScatterLut {
            entries,
            span_aligned: self.span_aligned,
        }
    }
}

/// The host-precomputed lookup table driving the shared-memory scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScatterLut {
    entries: Vec<[u32; 2]>,
    span_aligned: usize,
}

impl ScatterLut {
    /// (A address, B address) for tile row `t`, lane `i`.
    #[inline]
    pub fn get(&self, t: usize, i: usize) -> [u32; 2] {
        self.entries[t * self.span_aligned + i]
    }

    /// Every entry, row-major (`span_aligned` lanes per tile row).
    pub(crate) fn entries(&self) -> &[[u32; 2]] {
        &self.entries
    }

    /// Overwrite the entry for tile row `t`, lane `i`.
    ///
    /// Diagnostic hook for the static verifier's negative controls (the
    /// `check --mutate-lut` CLI path and the mutation property tests);
    /// kernels never call this.
    pub fn set(&mut self, t: usize, i: usize, entry: [u32; 2]) {
        self.entries[t * self.span_aligned + i] = entry;
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Size `ext` to `len` elements for a transform that then writes every
/// one of them. Storage too small to recycle is replaced by zeroed storage
/// from the allocator, which costs no more than a fresh array always did.
pub(crate) fn resize_for_overwrite(ext: &mut Vec<f64>, len: usize) {
    if ext.capacity() < len {
        *ext = vec![0.0; len];
    } else {
        ext.resize(len, 0.0);
    }
}

/// `dst[c] = src[c + from - to]` for every `c` where both exist, and
/// `dst[c] = 0` for every other `c`: one row copy between two layouts
/// whose column `to` of `dst` and column `from` of `src` hold the same
/// cell, writing each element of `dst` once.
pub(crate) fn copy_aligned(dst: &mut [f64], to: usize, src: &[f64], from: usize) {
    let lead = to.min(from);
    let (head, body) = dst.split_at_mut(to - lead);
    let src = &src[from - lead..];
    let len = body.len().min(src.len());
    head.fill(0.0);
    body[..len].copy_from_slice(&src[..len]);
    body[len..].fill(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil2row::{map_a, map_b};

    fn v5() -> VariantConfig {
        VariantConfig::conv_stencil()
    }

    #[test]
    fn copy_aligned_matches_the_per_cell_shift() {
        let src: Vec<f64> = (0..9).map(|i| i as f64 + 0.5).collect();
        for dst_len in [0, 4, 9, 14] {
            for to in 0..dst_len.max(1) {
                for from in 0..src.len() {
                    // Stale contents must not survive the copy.
                    let mut got = vec![-1.0; dst_len];
                    copy_aligned(&mut got, to, &src, from);
                    let want: Vec<f64> = (0..dst_len)
                        .map(|c| src.get((c + from).wrapping_sub(to)).copied().unwrap_or(0.0))
                        .collect();
                    assert_eq!(got, want, "dst_len {dst_len} to {to} from {from}");
                }
            }
        }
    }

    #[test]
    fn box49_tile_matches_paper_fig5_geometry() {
        // 32-row block, n_k = 7: A tile rows are 266 doubles, padded to 268.
        let plan = Plan2D::try_new_2d(256, 512, 7, v5()).unwrap();
        assert_eq!(plan.layout.raw_cols, 266);
        assert_eq!(plan.layout.stride, 268);
        assert_eq!(plan.layout.pad, 2);
    }

    #[test]
    fn unpadded_variant_has_raw_stride() {
        let plan = Plan2D::try_new_2d(256, 512, 7, VariantConfig::implicit_tcu()).unwrap();
        assert_eq!(plan.layout.stride, plan.layout.raw_cols);
    }

    #[test]
    fn shared_fits_a100_capacity() {
        for nk in [3, 5, 7] {
            let plan = Plan2D::try_new_2d(1024, 1024, nk, v5()).unwrap();
            assert!(
                plan.layout.total * 8 <= 164 * 1024,
                "nk={nk}: {} B",
                plan.layout.total * 8
            );
        }
    }

    #[test]
    fn block_counts_cover_output() {
        let plan = Plan2D::try_new_2d(100, 130, 3, v5()).unwrap();
        assert_eq!(plan.blocks_x, 4); // ceil(100/32)
                                      // groups: ceil(130/4) = 33; blocks_g = ceil(33/8) = 5.
        assert_eq!(plan.blocks_g, 5);
        assert!(plan.blocks_g * plan.block_groups * (plan.nk + 1) >= 130);
    }

    #[test]
    fn ext_roundtrip_preserves_interior_and_halo_window() {
        let mut g = Grid2D::new(20, 30, 3);
        g.fill_random(17);
        let plan = Plan2D::try_new_2d(20, 30, 7, v5()).unwrap();
        let ext = plan.try_build_ext(&g).unwrap();
        // Interior maps through ext_idx.
        for x in 0..20 {
            for y in 0..30 {
                assert_eq!(ext[plan.ext_idx(x, y)], g.get(x, y));
            }
        }
        // The conv window's top-left (interior (0,0) shifted by -radius)
        // is the grid's halo value.
        let tl = ext[(plan.lr - 3) * plan.ext_cols + plan.lc - 3];
        assert_eq!(tl, g.get_rel(0, 0, -3, -3));
        // Round-trip extraction.
        let mut g2 = Grid2D::new(20, 30, 3);
        plan.extract_into(&ext, &mut g2);
        assert_eq!(g.interior(), g2.interior());
    }

    #[test]
    fn read_and_write_columns_are_sector_aligned() {
        for nk in [3, 5, 7] {
            let plan = Plan2D::try_new_2d(64, 200, nk, v5()).unwrap();
            for bg in 0..plan.blocks_g {
                assert_eq!(plan.read_col0(bg) % 4, 0, "nk={nk} bg={bg}");
                assert_eq!(plan.write_col0(bg) % 4, 0, "nk={nk} bg={bg}");
            }
            assert_eq!(plan.ext_cols % 4, 0);
        }
    }

    #[test]
    fn lut_agrees_with_eq5_eq6_maps() {
        // LUT addresses must match the analytical stencil2row mapping for
        // the block-local coordinate frame.
        let plan = Plan2D::try_new_2d(64, 128, 7, v5()).unwrap();
        let lut = plan.build_scatter_lut(v5());
        let nk = plan.nk;
        let lay = &plan.layout;
        for t in 0..plan.tile_rows() {
            for i in 0..plan.span_aligned {
                let [a, b] = lut.get(t, i);
                let c = i as isize - plan.pre as isize;
                if c >= 0 && (c as usize) < plan.span {
                    let c = c as usize;
                    match map_a(t, c, nk) {
                        Some((row, col)) if row < plan.block_groups => {
                            assert_eq!(a as usize, lay.a_off + row * lay.stride + col);
                        }
                        _ => {
                            // Dirty: must point into a padding slot.
                            let rel = (a as usize - lay.a_off) % lay.stride;
                            assert!(rel >= lay.raw_cols, "A dirty at useful col");
                        }
                    }
                    match map_b(t, c, nk) {
                        Some((row, col)) if row < plan.block_groups => {
                            assert_eq!(b as usize, lay.b_off + row * lay.stride + col);
                        }
                        _ => {
                            let rel = (b as usize - lay.b_off) % lay.stride;
                            assert!(rel >= lay.raw_cols, "B dirty at useful col");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn branch_variant_lut_skips_instead_of_dirtying() {
        let plan = Plan2D::try_new_2d(64, 128, 7, VariantConfig::implicit_tcu()).unwrap();
        let lut = plan.build_scatter_lut(VariantConfig::implicit_tcu());
        let mut skips = 0;
        for t in 0..plan.tile_rows() {
            for i in 0..plan.span_aligned {
                let [a, b] = lut.get(t, i);
                if a == LUT_SKIP {
                    skips += 1;
                }
                if b == LUT_SKIP {
                    skips += 1;
                }
            }
        }
        assert!(skips > 0, "branch variant must skip dropped elements");
    }

    #[test]
    fn lut_never_writes_weights_region() {
        let plan = Plan2D::try_new_2d(96, 96, 5, v5()).unwrap();
        let lut = plan.build_scatter_lut(v5());
        for t in 0..plan.tile_rows() {
            for i in 0..plan.span_aligned {
                for addr in lut.get(t, i) {
                    assert!((addr as usize) < plan.layout.wa_off);
                }
            }
        }
    }

    #[test]
    fn plane_plan_for_3d_blocks() {
        let plan = Plan2D::try_new_3d_plane(128, 128, 3, v5()).unwrap();
        assert_eq!(plan.block_rows, 8);
        assert_eq!(plan.block_groups, 16); // 64 output columns

        // Whole 8-group bands: 48 columns at n_k = 5, 64 at n_k = 7.
        for nk in [5, 7] {
            let plan = Plan2D::try_new_3d_plane(128, 128, nk, v5()).unwrap();
            assert_eq!(plan.block_groups, 8, "nk={nk}");
        }
    }

    #[test]
    fn try_constructors_report_typed_errors() {
        assert_eq!(
            Plan2D::try_new_2d(64, 64, 4, v5()),
            Err(ConvStencilError::UnsupportedNk { nk: 4 })
        );
        assert_eq!(
            Plan2D::try_new_2d(64, 64, 9, v5()),
            Err(ConvStencilError::UnsupportedNk { nk: 9 })
        );
        assert_eq!(
            Plan2D::try_new_2d(0, 64, 3, v5()),
            Err(ConvStencilError::ZeroSizedGrid { dims: vec![0, 64] })
        );
        for (kernel_rows, rows, groups) in [(5, 0, 8), (5, 8, 10), (2, 8, 8), (7, 8, 8)] {
            assert!(matches!(
                Plan2D::try_with_block(64, 64, 5, kernel_rows, rows, groups, v5()),
                Err(ConvStencilError::PlanInvariant { .. })
            ));
        }
    }

    #[test]
    fn try_build_ext_rejects_bad_grids() {
        let plan = Plan2D::try_new_2d(20, 30, 7, v5()).unwrap();
        let wrong_shape = Grid2D::new(21, 30, 3);
        assert!(matches!(
            plan.try_build_ext(&wrong_shape),
            Err(ConvStencilError::ShapeMismatch { .. })
        ));
        let thin_halo = Grid2D::new(20, 30, 1);
        assert_eq!(
            plan.try_build_ext(&thin_halo),
            Err(ConvStencilError::HaloTooSmall { halo: 1, radius: 3 })
        );
    }

    #[test]
    fn dirty_bits_without_padding_is_a_plan_error() {
        let mut variant = v5();
        variant.padding = false;
        // dirty_bits_lut still set: the plan must refuse rather than let
        // dirty dumps alias useful columns.
        assert!(matches!(
            Plan2D::try_new_2d(64, 64, 7, variant),
            Err(ConvStencilError::PlanInvariant { .. })
        ));
    }
}
