//! The one place the dimension enters the pipeline (paper §4.2).
//!
//! 1D, 2D and 3D share the stencil2row layout, dual tessellation and the
//! LUT + dirty-bits scatter; they differ only in their grid, their
//! executor (3D decomposes into planes) and their reference. [`Stencil`]
//! is that difference, implemented by [`Kernel1D`], [`Kernel2D`] and
//! [`Kernel3D`]; the runner ([`crate::api::ConvStencil`]) and the
//! application loop (`run_applications`) are written once against it.

use crate::api::MAX_NK;
use crate::error::ConvStencilError;
use crate::exec1d::{try_halo_exchange_1d, Exec1D};
use crate::exec2d::{try_halo_exchange_2d, Exec2D, ExplicitBuffers};
use crate::exec3d::{try_halo_exchange_3d, Exec3D, ExplicitBuffers3D};
use crate::variants::VariantConfig;
use std::fmt::Debug;
use stencil_core::reference::{run1d, run2d, run3d};
use stencil_core::{
    auto_fusion_degree, fuse1d, fuse2d, fuse3d, run1d_periodic, run2d_periodic, run3d_periodic,
    Boundary, Grid1D, Grid2D, Grid3D, HaloGrid, Kernel1D, Kernel2D, Kernel3D, Shape,
};
use tcu_sim::{BufferId, Device};

/// What one dimension supplies to the generic pipeline.
pub trait Stencil: Clone + Debug {
    /// The halo grid the kernel advances.
    type Grid: HaloGrid;
    /// Plan, lookup table and weights for one kernel on one grid extent.
    type Exec;
    /// Global stencil2row scratch of the explicit variant (I).
    type Scratch: Copy;
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
    /// Host layout transform: the grid as the executor's extended array.
    fn try_build_ext(exec: &Self::Exec, grid: &Self::Grid) -> Result<Vec<f64>, ConvStencilError>;
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
        scratch: Option<Self::Scratch>,
    ) -> Result<(), ConvStencilError>;
    /// The explicit variant's scratch; `None` for the implicit variants.
    fn alloc_explicit(exec: &Self::Exec, dev: &mut Device) -> Option<Self::Scratch>;

    /// `apps` frozen-halo applications (the grid's halo must cover the
    /// radius).
    fn frozen_halo_reference(&self, grid: &Self::Grid, apps: usize) -> Self::Grid;
    /// `steps` plain steps on the torus.
    fn periodic_reference(&self, grid: &Self::Grid, steps: usize) -> Self::Grid;
}

impl Stencil for Kernel1D {
    type Grid = Grid1D;
    type Exec = Exec1D;
    type Scratch = (BufferId, BufferId);
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
    fn try_build_ext(exec: &Exec1D, grid: &Grid1D) -> Result<Vec<f64>, ConvStencilError> {
        exec.plan.try_build_ext(grid)
    }
    fn extract_into(exec: &Exec1D, ext: &[f64], grid: &mut Grid1D) {
        exec.plan.extract_into(ext, grid)
    }
    fn halo_exchange(
        dev: &mut Device,
        ext: BufferId,
        exec: &Exec1D,
    ) -> Result<(), ConvStencilError> {
        try_halo_exchange_1d(dev, ext, &exec.plan)
    }
    fn try_run_application(
        exec: &Exec1D,
        dev: &mut Device,
        ext_in: BufferId,
        ext_out: BufferId,
        scratch: Option<Self::Scratch>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, scratch)
    }
    fn alloc_explicit(exec: &Exec1D, dev: &mut Device) -> Option<Self::Scratch> {
        exec.variant
            .explicit_global
            .then(|| exec.alloc_explicit(dev))
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
    type Scratch = ExplicitBuffers;
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
    fn try_build_ext(exec: &Exec2D, grid: &Grid2D) -> Result<Vec<f64>, ConvStencilError> {
        exec.plan.try_build_ext(grid)
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
        exec.variant
            .explicit_global
            .then(|| exec.alloc_explicit(dev))
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
    type Scratch = ExplicitBuffers3D;
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
    fn try_build_ext(exec: &Exec3D, grid: &Grid3D) -> Result<Vec<f64>, ConvStencilError> {
        exec.try_build_ext(grid)
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
        scratch: Option<ExplicitBuffers3D>,
    ) -> Result<(), ConvStencilError> {
        exec.try_run_application(dev, ext_in, ext_out, scratch)
    }
    fn alloc_explicit(exec: &Exec3D, dev: &mut Device) -> Option<ExplicitBuffers3D> {
        exec.variant
            .explicit_global
            .then(|| exec.alloc_explicit(dev))
    }
    fn frozen_halo_reference(&self, grid: &Grid3D, apps: usize) -> Grid3D {
        run3d(grid, self, apps)
    }
    fn periodic_reference(&self, grid: &Grid3D, steps: usize) -> Grid3D {
        run3d_periodic(grid, self, steps)
    }
}

/// Run `apps` applications over a fresh ping-pong buffer pair seeded
/// with the extended array `ext0`, and return the final extended array.
/// Under periodic boundaries the halo is wrapped on-device before every
/// application, which also makes temporal fusion exact.
pub(crate) fn run_applications<K: Stencil>(
    dev: &mut Device,
    exec: &K::Exec,
    ext0: Vec<f64>,
    apps: usize,
    boundary: Boundary,
) -> Result<Vec<f64>, ConvStencilError> {
    let copy = ext0.clone();
    let a = dev.alloc_vec(ext0);
    let b = dev.alloc_vec(copy);
    let scratch = K::alloc_explicit(exec, dev);
    let (mut cur, mut next) = (a, b);
    for _ in 0..apps {
        if boundary == Boundary::Periodic {
            K::halo_exchange(dev, cur, exec)?;
        }
        K::try_run_application(exec, dev, cur, next, scratch)?;
        std::mem::swap(&mut cur, &mut next);
    }
    // The device never touches the ping-pong buffers again: move the
    // final extended array out instead of copying the whole grid.
    Ok(dev.take_buffer(cur))
}
