//! The one place the dimension enters the pipeline (paper §4.2).
//!
//! 1D, 2D and 3D share the stencil2row layout, dual tessellation and the
//! LUT + dirty-bits scatter; they differ only in their grid, their
//! executor (all three are one plane-stack core, `planes`: 3D with several
//! kernel planes, 2D with one, 1D with one plane of a height-1 kernel over
//! one row) and their reference. [`Stencil`]
//! is that difference, implemented by [`Kernel1D`], [`Kernel2D`] and
//! [`Kernel3D`]; the runner ([`crate::api::ConvStencil`]) and the
//! application loop (`run_applications`) are written once against it.

use crate::api::MAX_NK;
use crate::error::ConvStencilError;
use crate::exec1d::Exec1D;
use crate::exec2d::{try_halo_exchange_2d, Exec2D};
use crate::exec3d::{try_halo_exchange_3d, Exec3D};
use crate::variants::VariantConfig;
use std::fmt::Debug;
use stencil_core::reference::{run1d, run2d, run3d};
use stencil_core::{
    auto_fusion_degree, fuse1d, fuse2d, fuse3d, run1d_periodic, run2d_periodic, run3d_periodic,
    Boundary, Grid1D, Grid2D, Grid3D, HaloGrid, Kernel1D, Kernel2D, Kernel3D, Shape,
};
use tcu_sim::{BufferId, Device};

/// Global scratch of the explicit variant (I): the stencil2row matrices A
/// and B of every extended input plane (one plane in 1D and 2D).
#[derive(Debug, Clone, Copy)]
pub struct ExplicitBuffers {
    pub s2r_a: BufferId,
    pub s2r_b: BufferId,
}

/// The scratch an application of `variant` runs with: `scratch` must be
/// `Some` exactly for the explicit variant.
pub(crate) fn explicit_scratch(
    variant: VariantConfig,
    scratch: Option<ExplicitBuffers>,
) -> Result<Option<ExplicitBuffers>, ConvStencilError> {
    match (variant.explicit_global, scratch) {
        (true, Some(_)) | (false, None) => Ok(scratch),
        (expected, _) => Err(ConvStencilError::ScratchMismatch { expected }),
    }
}

/// What one dimension supplies to the generic pipeline.
pub trait Stencil: Clone + Debug {
    /// The halo grid the kernel advances.
    type Grid: HaloGrid;
    /// Plan, lookup table and weights for one kernel on one grid extent.
    type Exec;
    /// Number of spatial axes.
    const DIM: u32;

    fn radius(&self) -> usize;
    /// Flattened weights, row-major over the dense `n_k^DIM` support.
    fn weights(&self) -> &[f64];
    /// Rebuild from a radius and `(2r+1)^DIM` flattened weights.
    fn from_weights(radius: usize, weights: Vec<f64>) -> Self;
    /// The shape's kernel, if the shape has this dimension.
    fn from_shape(shape: Shape) -> Option<Self>;
    /// `t`-fold temporal fusion (§3.3).
    fn fuse(&self, t: usize) -> Self;
    /// Fusion degree picked when none is requested.
    fn auto_fusion(&self) -> usize {
        auto_fusion_degree(self.radius(), MAX_NK)
    }
    fn nk(&self) -> usize {
        2 * self.radius() + 1
    }

    /// Plan the executor for an interior of extent `dims`.
    fn exec(&self, dims: &[usize], variant: VariantConfig) -> Result<Self::Exec, ConvStencilError>;
    /// Static plan verification (see [`crate::verify_plan`]).
    fn verify(exec: &Self::Exec) -> Result<(), ConvStencilError>;
    /// Host layout transform: the grid as the executor's extended array,
    /// written over every element of `ext` (left untouched on error).
    fn try_build_ext_into(
        exec: &Self::Exec,
        grid: &Self::Grid,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError>;
    /// Copy the interior of an extended array back into `grid`.
    fn extract_into(exec: &Self::Exec, ext: &[f64], grid: &mut Self::Grid);
    /// On-device periodic wrap of the extended array's halo.
    fn halo_exchange(
        dev: &mut Device,
        ext: BufferId,
        exec: &Self::Exec,
    ) -> Result<(), ConvStencilError>;
    fn try_run_application(
        exec: &Self::Exec,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        scratch: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError>;
    /// The explicit variant's scratch; `None` for the implicit variants.
    fn alloc_explicit(exec: &Self::Exec, dev: &mut Device) -> Option<ExplicitBuffers>;

    /// `apps` frozen-halo applications (the grid's halo must cover the
    /// radius).
    fn frozen_halo_reference(&self, grid: &Self::Grid, apps: usize) -> Self::Grid;
    /// `steps` plain steps on the torus.
    fn periodic_reference(&self, grid: &Self::Grid, steps: usize) -> Self::Grid;
}

impl Stencil for Kernel1D {
    type Grid = Grid1D;
    type Exec = Exec1D;
    const DIM: u32 = 1;

    fn radius(&self) -> usize {
        Kernel1D::radius(self)
    }
    fn weights(&self) -> &[f64] {
        Kernel1D::weights(self)
    }
    fn from_weights(_radius: usize, weights: Vec<f64>) -> Self {
        Kernel1D::new(weights)
    }
    fn from_shape(shape: Shape) -> Option<Self> {
        shape.kernel1d()
    }
    fn fuse(&self, t: usize) -> Self {
        fuse1d(self, t)
    }
    fn exec(&self, dims: &[usize], variant: VariantConfig) -> Result<Exec1D, ConvStencilError> {
        Exec1D::try_new(self, dims[0], variant)
    }
    fn verify(exec: &Exec1D) -> Result<(), ConvStencilError> {
        exec.verify()
    }
    fn try_build_ext_into(
        exec: &Exec1D,
        grid: &Grid1D,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError> {
        exec.plan.try_build_ext_into(grid, ext)
    }
    fn extract_into(exec: &Exec1D, ext: &[f64], grid: &mut Grid1D) {
        exec.plan.extract_into(ext, grid)
    }
    fn halo_exchange(
        dev: &mut Device,
        ext: BufferId,
        exec: &Exec1D,
    ) -> Result<(), ConvStencilError> {
        try_halo_exchange_2d(dev, ext, &exec.plan.row)
    }
    fn try_run_application(
        exec: &Exec1D,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        scratch: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, scratch)
    }
    fn alloc_explicit(exec: &Exec1D, dev: &mut Device) -> Option<ExplicitBuffers> {
        exec.alloc_explicit(dev)
    }
    fn frozen_halo_reference(&self, grid: &Grid1D, apps: usize) -> Grid1D {
        run1d(grid, self, apps)
    }
    fn periodic_reference(&self, grid: &Grid1D, steps: usize) -> Grid1D {
        run1d_periodic(grid, self, steps)
    }
}

impl Stencil for Kernel2D {
    type Grid = Grid2D;
    type Exec = Exec2D;
    const DIM: u32 = 2;

    fn radius(&self) -> usize {
        Kernel2D::radius(self)
    }
    fn weights(&self) -> &[f64] {
        Kernel2D::weights(self)
    }
    fn from_weights(radius: usize, weights: Vec<f64>) -> Self {
        Kernel2D::new(radius, weights)
    }
    fn from_shape(shape: Shape) -> Option<Self> {
        shape.kernel2d()
    }
    fn fuse(&self, t: usize) -> Self {
        fuse2d(self, t)
    }
    fn exec(&self, dims: &[usize], variant: VariantConfig) -> Result<Exec2D, ConvStencilError> {
        Exec2D::try_new(self, dims[0], dims[1], variant)
    }
    fn verify(exec: &Exec2D) -> Result<(), ConvStencilError> {
        exec.verify()
    }
    fn try_build_ext_into(
        exec: &Exec2D,
        grid: &Grid2D,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError> {
        exec.plan.try_build_ext_into(grid, ext)
    }
    fn extract_into(exec: &Exec2D, ext: &[f64], grid: &mut Grid2D) {
        exec.plan.extract_into(ext, grid)
    }
    fn halo_exchange(
        dev: &mut Device,
        ext: BufferId,
        exec: &Exec2D,
    ) -> Result<(), ConvStencilError> {
        try_halo_exchange_2d(dev, ext, &exec.plan)
    }
    fn try_run_application(
        exec: &Exec2D,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        scratch: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, scratch)
    }
    fn alloc_explicit(exec: &Exec2D, dev: &mut Device) -> Option<ExplicitBuffers> {
        exec.alloc_explicit(dev)
    }
    fn frozen_halo_reference(&self, grid: &Grid2D, apps: usize) -> Grid2D {
        run2d(grid, self, apps)
    }
    fn periodic_reference(&self, grid: &Grid2D, steps: usize) -> Grid2D {
        run2d_periodic(grid, self, steps)
    }
}

/// 3D never fuses on its own: fusing grows both the number of kernel
/// planes and the per-plane cost, so the paper applies fusion to 1D/2D
/// only (§4.2).
impl Stencil for Kernel3D {
    type Grid = Grid3D;
    type Exec = Exec3D;
    const DIM: u32 = 3;

    fn radius(&self) -> usize {
        Kernel3D::radius(self)
    }
    fn weights(&self) -> &[f64] {
        Kernel3D::weights(self)
    }
    fn from_weights(radius: usize, weights: Vec<f64>) -> Self {
        Kernel3D::new(radius, weights)
    }
    fn from_shape(shape: Shape) -> Option<Self> {
        shape.kernel3d()
    }
    fn fuse(&self, t: usize) -> Self {
        fuse3d(self, t)
    }
    fn auto_fusion(&self) -> usize {
        1
    }
    fn exec(&self, dims: &[usize], variant: VariantConfig) -> Result<Exec3D, ConvStencilError> {
        Exec3D::try_new(self, dims[0], dims[1], dims[2], variant)
    }
    fn verify(exec: &Exec3D) -> Result<(), ConvStencilError> {
        exec.verify()
    }
    fn try_build_ext_into(
        exec: &Exec3D,
        grid: &Grid3D,
        ext: &mut Vec<f64>,
    ) -> Result<(), ConvStencilError> {
        exec.try_build_ext_into(grid, ext)
    }
    fn extract_into(exec: &Exec3D, ext: &[f64], grid: &mut Grid3D) {
        exec.extract_into(ext, grid)
    }
    fn halo_exchange(
        dev: &mut Device,
        ext: BufferId,
        exec: &Exec3D,
    ) -> Result<(), ConvStencilError> {
        try_halo_exchange_3d(dev, ext, exec)
    }
    fn try_run_application(
        exec: &Exec3D,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        scratch: Option<ExplicitBuffers>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, scratch)
    }
    fn alloc_explicit(exec: &Exec3D, dev: &mut Device) -> Option<ExplicitBuffers> {
        exec.alloc_explicit(dev)
    }
    fn frozen_halo_reference(&self, grid: &Grid3D, apps: usize) -> Grid3D {
        run3d(grid, self, apps)
    }
    fn periodic_reference(&self, grid: &Grid3D, steps: usize) -> Grid3D {
        run3d_periodic(grid, self, steps)
    }
}

/// Host storage of one run's extended arrays: the extended array (the
/// ping-pong pair's first buffer, and the final array a run hands back)
/// and the storage of the pair's second buffer. A default value holds
/// nothing and releases each array as soon as a run is done with it.
#[derive(Debug, Default)]
pub struct WorkArrays {
    pub(crate) ext: Vec<f64>,
    pub(crate) spare: Vec<f64>,
    /// Keep both arrays' storage for the next run. Unset, each array is
    /// released as soon as the run is done with it (the second buffer
    /// before the result grid is allocated, the extended array once it is
    /// extracted), so a run peaks at the memory it always did.
    pub(crate) keep: bool,
}

impl WorkArrays {
    /// f64 values held over both arrays' storage.
    pub(crate) fn capacity(&self) -> usize {
        self.ext.capacity() + self.spare.capacity()
    }
}

/// Run `apps` applications over a ping-pong buffer pair seeded with the
/// extended array `work.ext`, leaving the final extended array in
/// `work.ext` (on error, whatever the pair last held). The second buffer
/// is a copy of the first written into `work.spare`'s storage, which it
/// returns to when the run ends unless `work.keep` is unset. Either way,
/// on success and on error, the device holds nothing of the run
/// afterwards. Under periodic boundaries the halo is wrapped on-device
/// before every application, which also makes temporal fusion exact.
pub(crate) fn run_applications<K: Stencil>(
    dev: &mut Device,
    exec: &K::Exec,
    work: &mut WorkArrays,
    apps: usize,
    boundary: Boundary,
) -> Result<(), ConvStencilError> {
    let mut copy = std::mem::take(&mut work.spare);
    copy.clear();
    copy.extend_from_slice(&work.ext);
    let a = dev.alloc_vec(std::mem::take(&mut work.ext));
    let b = dev.alloc_vec(copy);
    let scratch = K::alloc_explicit(exec, dev);
    let (mut cur, mut next) = (a, b);
    let applied = (0..apps).try_for_each(|_| {
        if boundary == Boundary::Periodic {
            K::halo_exchange(dev, cur, exec)?;
        }
        K::try_run_application(exec, dev, cur, next, scratch)?;
        std::mem::swap(&mut cur, &mut next);
        Ok(())
    });
    // The device never touches the ping-pong buffers again: move the
    // final extended array out instead of copying the whole grid.
    work.ext = dev.take_buffer(cur);
    if work.keep {
        work.spare = dev.take_buffer(next);
    } else {
        dev.free(next);
    }
    if let Some(s) = scratch {
        dev.free(s.s2r_a);
        dev.free(s.s2r_b);
    }
    applied
}

/// [`run_applications`] over a borrowed initial extended array, on
/// storage of its own that it releases: returns the final extended array.
pub(crate) fn run_applications_from<K: Stencil>(
    dev: &mut Device,
    exec: &K::Exec,
    ext0: &[f64],
    apps: usize,
    boundary: Boundary,
) -> Result<Vec<f64>, ConvStencilError> {
    let mut work = WorkArrays {
        ext: ext0.to_vec(),
        ..WorkArrays::default()
    };
    run_applications::<K>(dev, exec, &mut work, apps, boundary)?;
    Ok(work.ext)
}
