//! # stencil-core — stencil substrate for the ConvStencil reproduction
//!
//! Grids, kernels, reference executors, and temporal kernel fusion:
//!
//! * [`grid`] — 1D/2D/3D halo (ghost-zone) grids.
//! * [`kernel`] — star/box/custom stencil kernels (paper §2.1).
//! * [`shapes`] — the paper's named benchmark shapes (Tables 3 & 4).
//! * [`mod@reference`] — naive CPU executors; the numerical ground truth for
//!   every simulated algorithm, in both frozen-halo and valid-mode
//!   boundary semantics.
//! * [`boundary`] — Dirichlet / periodic boundary conditions, halo
//!   refresh, and periodic reference executors (fusion is exact on a
//!   torus).
//! * [`fusion`] — temporal kernel fusion by self-convolution (paper §3.3).
//! * [`verify`] — tolerance-based comparison helpers.

pub mod boundary;
pub mod fusion;
pub mod grid;
pub mod kernel;
pub mod reference;
pub mod shapes;
pub mod verify;

pub use boundary::{
    refresh_halo_1d, refresh_halo_2d, refresh_halo_3d, run1d_periodic, run2d_periodic,
    run3d_periodic, Boundary,
};
pub use fusion::{auto_fusion_degree, compose1d, compose2d, compose3d, fuse1d, fuse2d, fuse3d};
pub use grid::{fill_pseudorandom, Grid1D, Grid2D, Grid3D, HaloGrid};
pub use kernel::{Kernel1D, Kernel2D, Kernel3D};
pub use shapes::{AnyKernel, Shape};
pub use verify::{
    assert_close, assert_close_default, check_close, check_close_default, max_abs_diff,
    max_mixed_err, VerifyError, DEFAULT_TOL,
};
