//! The simulated 3D ConvStencil pipeline (paper §4.2).
//!
//! A 3D stencil decomposes into `n_k` 2D stencils — one per z-plane of the
//! kernel — whose results are summed: the plane-stack core
//! ([`crate::planes`]) with every kernel plane. Each thread block covers
//! one output plane band (8 output rows x whole 8-group column bands, up
//! to Table 4's 8x64 block) for a z-window of output planes, builds the
//! stencil2row tiles of the window's input planes in shared memory once,
//! and accumulates the per-plane dual tessellations in the same MMA
//! accumulator (one fragment store per output, not one per plane).
//!
//! For star-shaped 3D kernels the off-center planes contain a single
//! non-zero weight; per §4.2 those "small planes" are computed on the
//! simulated CUDA cores and added to the Tensor-Core result, while the
//! dense center plane goes through dual tessellation.

use crate::error::ConvStencilError;
use crate::plan::{resize_for_overwrite, Plan2D, ScatterLut};
use crate::planes::{PlaneKind, PlaneStack};
use crate::stencil::{run_applications_from, ExplicitBuffers};
use crate::variants::VariantConfig;
use stencil_core::{Boundary, Grid3D, Kernel3D};
use tcu_sim::{BufferId, Device, Phase};

/// Most non-zero taps a kernel plane has to count as a "small plane"
/// (§4.2) and run on CUDA cores.
const SMALL_PLANE_TAPS: usize = 2;

/// Largest z-window: output planes per block.
const MAX_WINDOW: usize = 8;

/// Precompiled 3D executor.
#[derive(Debug, Clone)]
pub struct Exec3D {
    /// Per-plane 2D plan (8 output rows x whole 8-group bands).
    pub plane_plan: Plan2D,
    /// Output planes per block (z-sliding window; each block stages
    /// `bz + n_k - 1` input-plane tile pairs and reuses them across its
    /// `bz` output planes, so global reads stay ~1x instead of n_k x).
    pub bz: usize,
    stack: PlaneStack,
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
        let (nk, radius) = (kernel.nk(), kernel.radius());
        if d == 0 {
            return Err(ConvStencilError::ZeroSizedGrid {
                dims: vec![d, m, n],
            });
        }
        let plane_plan = Plan2D::try_new_3d_plane(m, n, nk, variant)?;
        let planes = (0..nk)
            .map(|dz| {
                let plane = kernel.plane(dz as isize - radius as isize);
                match plane.points() {
                    0 => PlaneKind::Empty,
                    pts if pts <= SMALL_PLANE_TAPS || !variant.use_tcu => {
                        PlaneKind::scalar(nk, plane.weights())
                    }
                    _ => PlaneKind::mma(nk, plane.weights()),
                }
            })
            .collect();
        // The window is fitted to shared memory, not clamped to `d`: the
        // slot count places the weight regions, and so their bank
        // conflicts.
        let stack = PlaneStack::try_new(&plane_plan, variant, d, planes, MAX_WINDOW)?;
        Ok(Self {
            plane_plan,
            bz: stack.window(),
            stack,
        })
    }

    /// Read access to the shared per-plane scatter lookup table.
    pub fn lut(&self) -> &ScatterLut {
        self.stack.lut()
    }

    /// Mutable access to the scatter lookup table — diagnostic hook for
    /// the static verifier's negative controls (`check --mutate-lut`,
    /// mutation property tests). Kernels never call this.
    pub fn lut_mut(&mut self) -> &mut ScatterLut {
        self.stack.lut_mut()
    }

    /// Run the static plan verifier over the plane plan, the shared
    /// scatter lookup table, and every MMA plane's weight matrices (see
    /// [`crate::verify_plan`]).
    pub fn verify(&self) -> Result<(), ConvStencilError> {
        self.stack.verify(&self.plane_plan)
    }

    /// Allocate variant-I scratch: per-plane stencil2row matrices in
    /// global memory; `None` for the implicit variants.
    pub fn alloc_explicit(&self, dev: &mut Device) -> Option<ExplicitBuffers> {
        self.stack.alloc_explicit(&self.plane_plan, dev)
    }

    /// Extended-array planes (input window depth).
    pub fn ext_planes(&self) -> usize {
        self.stack.ext_planes()
    }

    /// Size of one extended plane in f64.
    pub fn plane_size(&self) -> usize {
        self.plane_plan.ext_rows * self.plane_plan.ext_cols
    }

    /// Build the 3D extended array from a grid.
    pub fn try_build_ext(&self, grid: &Grid3D) -> Result<Vec<f64>, ConvStencilError> {
        let mut ext = Vec::new();
        self.try_build_ext_into(grid, &mut ext)?;
        Ok(ext)
    }

    /// [`Exec3D::try_build_ext`] into recycled storage: `ext` is resized
    /// to the extended array and every element overwritten. On error `ext`
    /// is left untouched.
    pub fn try_build_ext_into(
        &self,
        grid: &Grid3D,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError> {
        let (d, p) = (self.stack.d, &self.plane_plan);
        if (grid.depth(), grid.rows(), grid.cols()) != (d, p.m, p.n) {
            return Err(ConvStencilError::ShapeMismatch {
                expected: vec![d, p.m, p.n],
                got: vec![grid.depth(), grid.rows(), grid.cols()],
            });
        }
        let (h, rz) = (grid.halo(), self.stack.rz);
        if h < rz {
            return Err(ConvStencilError::HaloTooSmall {
                halo: h,
                radius: rz,
            });
        }
        // Ext plane p holds padded plane p + h - rz.
        let ps = self.plane_size();
        let pcols = grid.padded_cols();
        let grid_ps = grid.padded_rows() * pcols;
        resize_for_overwrite(ext, self.ext_planes() * ps);
        for (p, ext_plane) in ext.chunks_exact_mut(ps).enumerate() {
            let pz = p + h - rz;
            match grid.padded().get(pz * grid_ps..(pz + 1) * grid_ps) {
                Some(plane) => self.plane_plan.fill_ext_plane(ext_plane, plane, pcols, h),
                None => ext_plane.fill(0.0),
            }
        }
        Ok(())
    }

    /// Extract the interior into `grid`.
    pub fn extract_into(&self, ext: &[f64], grid: &mut Grid3D) {
        let ps = self.plane_size();
        let (pcols, h) = (grid.padded_cols(), grid.halo());
        let grid_ps = grid.padded_rows() * pcols;
        let rz = self.stack.rz;
        for z in 0..self.stack.d {
            let plane = &ext[(z + rz) * ps..(z + rz + 1) * ps];
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
        explicit: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        self.stack
            .try_run_application(&self.plane_plan, self.bz, dev, ext_in, ext_out, explicit)
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
    let (d, m, n, r) = (exec.stack.d, p.m, p.n, exec.stack.rz);
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
    run_applications_from::<Kernel3D>(dev, exec, ext0, apps, boundary)
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
