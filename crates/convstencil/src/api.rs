//! High-level ConvStencil front end: pick a kernel, run `t` time steps on
//! the simulated device, get the result grid plus a performance report.
//!
//! One generic runner, [`ConvStencil<K>`], serves every dimension; the
//! kernel type supplies what differs (see [`crate::stencil`]).
//!
//! Temporal kernel fusion (§3.3) is applied automatically in 1D/2D:
//! radius-1 kernels fuse 3 steps into one n_k = 7 application (Fig. 4's
//! Box-2D9P → Box-2D49P), exactly the configuration the paper evaluates.
//! Fusion approximates a boundary ring of width `fusion·r − r` (the halo
//! is frozen per application rather than per step); deep-interior results
//! equal plain stepping, and every result equals the frozen-halo
//! application of the fused kernel exactly — see `stencil_core::fusion`.
//!
//! Steps not divisible by the fusion degree run their remainder through a
//! smaller fused kernel, so any step count is supported exactly.

use crate::error::ConvStencilError;
use crate::stencil::{run_applications, Stencil, WorkArrays};
use crate::variants::VariantConfig;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use stencil_core::boundary::wrap;
use stencil_core::{
    check_close, Boundary, HaloGrid, Kernel1D, Kernel2D, Kernel3D, VerifyError, DEFAULT_TOL,
};
use tcu_sim::{
    CostBreakdown, CostModel, Counters, Device, DeviceConfig, FaultPlan, LaunchStats, Phase,
    SanitizerReport, Span, Trace,
};

/// Largest kernel edge the FP64 fragment supports (n_k + 1 <= 8).
pub const MAX_NK: usize = 7;

/// Performance report of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Event ledger of everything the run executed.
    pub counters: Counters,
    pub launch_stats: LaunchStats,
    /// Stencil points per time step.
    pub points: u64,
    /// Time steps advanced.
    pub steps: u64,
    /// Modelled cost (paper Eq. 2–4 over the ledger).
    pub cost: CostBreakdown,
    /// Modelled throughput (paper Eq. 16).
    pub gstencils_per_sec: f64,
    /// Extra factor already applied to `gstencils_per_sec` (1.0 for
    /// everything except the TCStencil analog's FP64 adjustment, 0.25);
    /// projections to other problem sizes must re-apply it.
    pub throughput_scale: f64,
    /// Faults the device's [`FaultPlan`] injected (all classes), summed
    /// over every attempt of this run.
    pub faults_injected: u64,
    /// Corruptions the verified mode detected (failed sample checks plus
    /// failed launches). Zero outside verified execution.
    pub faults_detected: u64,
    /// Full re-runs the verified mode performed after detections.
    pub retries: u64,
    /// True when verified execution exhausted its retries and fell back to
    /// the naive CPU reference result.
    pub degraded: bool,
    /// True when the result was checked against the naive reference
    /// (verified execution).
    pub verified: bool,
    /// Per-phase span timeline (device + host spans). Present only when
    /// the runner had tracing enabled (see `with_tracing`); the span
    /// counter deltas sum exactly to `counters`.
    pub trace: Option<Trace>,
    /// Dynamic sanitizer findings (initcheck/memcheck/racecheck plus the
    /// per-phase bank-conflict histogram), merged over every launch of
    /// the run. Present only when the runner had the sanitizer enabled
    /// (see `with_sanitizer`).
    pub sanitizer: Option<SanitizerReport>,
}

impl RunReport {
    fn from_device(dev: &mut Device, points: u64, steps: u64) -> Self {
        let model = CostModel::new(dev.config.clone());
        let cost = model.evaluate(&dev.counters, &dev.launch_stats);
        let gstencils_per_sec =
            model.gstencils_per_sec(&dev.counters, &dev.launch_stats, points, steps);
        Self {
            counters: dev.counters,
            launch_stats: dev.launch_stats,
            points,
            steps,
            cost,
            gstencils_per_sec,
            throughput_scale: 1.0,
            faults_injected: dev.counters.faults_injected(),
            faults_detected: 0,
            retries: 0,
            degraded: false,
            verified: false,
            trace: dev.tracing().then(|| dev.take_trace()),
            sanitizer: dev.sanitizing().then(|| dev.take_sanitizer_report()),
        }
    }
}

/// What one device's attempts at a run came to (see
/// [`ConvStencil::try_run_attempts`]).
#[derive(Debug)]
pub struct Attempts<G> {
    /// The first output that passed its check; `None` when the retries
    /// ran out or the device died first.
    pub accepted: Option<G>,
    /// Failed attempts: device errors plus failed checks.
    pub detected: u64,
    /// Attempts after the first, each under a new fault epoch.
    pub retries: u64,
}

/// Record a host-side scope (reference verify, retry marker) in the
/// device's trace. Counters stay zero, so traced runs keep the
/// spans-sum-to-ledger invariant; a no-op when tracing is off.
fn push_host_span(dev: &mut Device, phase: Phase, wall_ns: u64) {
    let launch = dev.launch_attempts();
    dev.push_span(Span {
        phase,
        launch,
        counters: Counters::default(),
        modeled_sec: 0.0,
        wall_ns,
    });
}

/// Run the static plan verifier under a traced host `Verify` span (a
/// plain call when tracing is off). Rejections surface as
/// [`ConvStencilError::PlanInvalid`] before any launch.
fn verify_statically(
    dev: &mut Device,
    check: impl FnOnce() -> Result<(), ConvStencilError>,
) -> Result<(), ConvStencilError> {
    let start = Instant::now();
    let res = check();
    push_host_span(dev, Phase::Verify, start.elapsed().as_nanos() as u64);
    res
}

/// Configuration for verified execution: how the simulated result is
/// spot-checked against the naive CPU reference and how hard to retry.
///
/// Only the sampled tiles need reference values, and after `steps` steps
/// a cell depends only on inputs within `radius · steps` of it, so the
/// reference is computed on each tile's dependency cone (see
/// [`ConvStencil::tile_reference`]), once per run. The whole grid is
/// computed instead when the check covers it (`sample_tiles == 0`, or
/// tiles covering the interior), when the cones together are no smaller
/// than the grid, and when a verified run degrades and returns the
/// reference as its result.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VerifyConfig {
    /// Mixed absolute/relative tolerance for the residual checks.
    pub tol: f64,
    /// Full re-runs allowed after a detected corruption before the runner
    /// degrades to the reference result (a dead device gets none).
    pub max_retries: u64,
    /// Sampled tiles compared per attempt. `0` compares the entire grid
    /// (strongest, costs one full reference pass).
    pub sample_tiles: usize,
    /// Contiguous elements per sampled tile.
    pub tile: usize,
    /// Seed of the tile-placement hash (deterministic placement).
    pub seed: u64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            tol: DEFAULT_TOL,
            max_retries: 2,
            sample_tiles: 16,
            tile: 32,
            seed: 0x5EED,
        }
    }
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The flat interior ranges a [`VerifyConfig`] samples from an interior
/// of `len` cells, in tile order: the whole interior when `sample_tiles`
/// is `0` or the tiles would cover it, otherwise `sample_tiles` tiles of
/// `tile` cells placed by a hash of the seed.
fn sample_ranges(len: usize, cfg: &VerifyConfig) -> Vec<Range<usize>> {
    if cfg.sample_tiles == 0 || cfg.sample_tiles * cfg.tile >= len {
        return std::iter::once(0..len).collect();
    }
    (0..cfg.sample_tiles)
        .map(|t| {
            let start = (mix64(cfg.seed ^ mix64(t as u64 + 1)) % len as u64) as usize;
            start..(start + cfg.tile).min(len)
        })
        .collect()
}

/// `check_close` on a piece starting at flat index `start`: a mismatch
/// reports its index in the whole interior.
fn check_piece(got: &[f64], want: &[f64], tol: f64, start: usize) -> Result<(), VerifyError> {
    check_close(got, want, tol).map_err(|e| match e {
        VerifyError::Mismatch {
            index,
            left,
            right,
            mixed_err,
            tol,
        } => VerifyError::Mismatch {
            index: start + index,
            left,
            right,
            mixed_err,
            tol,
        },
        other => other,
    })
}

/// Compare `got` against `want` on the configured sample tiles (or in
/// full), reporting the first offending flat interior index. Verified
/// execution gets the same answer from [`SampledReference::check`]
/// without a full reference.
pub fn check_samples(got: &[f64], want: &[f64], cfg: &VerifyConfig) -> Result<(), VerifyError> {
    if got.len() != want.len() {
        return Err(VerifyError::LengthMismatch {
            left: got.len(),
            right: want.len(),
        });
    }
    for r in sample_ranges(got.len(), cfg) {
        check_piece(&got[r.clone()], &want[r.clone()], cfg.tol, r.start)?;
    }
    Ok(())
}

/// Interior cells of an extent.
fn volume(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Index, in row-major storage of extent `ext(a)` on axis `a`, of the
/// cell whose axis-`a` coordinate is `coord(a, c[a])`, where `c` is
/// flat index `flat` of an extent `dims` (last axis fastest).
fn storage_index(
    dims: &[usize],
    mut flat: usize,
    ext: impl Fn(usize) -> usize,
    coord: impl Fn(usize, usize) -> usize,
) -> usize {
    let (mut index, mut stride) = (0, 1);
    for (a, &d) in dims.iter().enumerate().rev() {
        index += coord(a, flat % d) * stride;
        flat /= d;
        stride *= ext(a);
    }
    index
}

/// The flat interior range `r` of a grid (extent `dims`, halo `halo`)
/// cut into its contiguous row pieces: `(flat index, padded index,
/// length)` per piece, in flat order.
fn row_pieces(
    dims: &[usize],
    halo: usize,
    r: Range<usize>,
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let cols = dims[dims.len() - 1];
    let mut flat = r.start;
    std::iter::from_fn(move || {
        if flat >= r.end {
            return None;
        }
        let len = (cols - flat % cols).min(r.end - flat);
        let padded = storage_index(dims, flat, |a| dims[a] + 2 * halo, |_, c| c + halo);
        let piece = (flat, padded, len);
        flat += len;
        Some(piece)
    })
}

/// The grid box a flat interior range's reference is computed on: the
/// range's bounding box grown by the dependency-cone margin.
struct Window {
    /// Interior coordinate of the window's first interior cell, per axis
    /// (negative only on a periodic window, which unrolls the torus).
    origin: Vec<isize>,
    /// Interior extent, per axis.
    dims: Vec<usize>,
}

/// Expected values of the cells a [`VerifyConfig`] samples, computed once
/// from a run's input grid and checked against every attempt's output.
/// Built by [`ConvStencil::sampled_reference`].
#[derive(Debug, Clone)]
pub struct SampledReference {
    /// Interior cells of the grid the reference was computed for.
    len: usize,
    /// Sampled flat interior ranges, in tile order.
    ranges: Vec<Range<usize>>,
    /// Expected values of `ranges`, concatenated in order.
    want: Vec<f64>,
    tol: f64,
}

impl SampledReference {
    /// The sampled flat interior ranges and their expected values, in
    /// tile order.
    pub fn tiles(&self) -> impl Iterator<Item = (Range<usize>, &[f64])> + '_ {
        let mut want = self.want.as_slice();
        self.ranges.iter().map(move |r| {
            let (tile, rest) = want.split_at(r.len());
            want = rest;
            (r.clone(), tile)
        })
    }

    /// Compare `got` in place on the sampled ranges. Same answer as
    /// [`check_samples`] on `got`'s interior and the full reference's,
    /// first offending flat interior index included.
    pub fn check<G: HaloGrid>(&self, got: &G) -> Result<(), VerifyError> {
        let dims = got.dims();
        if volume(&dims) != self.len {
            return Err(VerifyError::LengthMismatch {
                left: volume(&dims),
                right: self.len,
            });
        }
        let data = got.padded();
        for (r, want) in self.tiles() {
            for (flat, padded, len) in row_pieces(&dims, got.halo(), r.clone()) {
                let at = flat - r.start;
                check_piece(
                    &data[padded..padded + len],
                    &want[at..at + len],
                    self.tol,
                    flat,
                )?;
            }
        }
        Ok(())
    }
}

/// The ConvStencil runner, generic over the dimension: the kernel type
/// `K` ([`Kernel1D`], [`Kernel2D`] or [`Kernel3D`]) supplies the grid,
/// executor and reference through [`Stencil`]; planning, the fusion
/// split, verification and reporting are written once here.
///
/// From its second one-shot run on ([`ConvStencil::try_run`],
/// [`ConvStencil::try_run_verified_with`]) a runner keeps the host working
/// arrays of its last run and reuses them on the next one: two extended
/// arrays, about 16.3 MiB for a fused 1024² 2D grid. A runner run once
/// holds nothing; a clone starts as a new runner; dropping the runner
/// frees the arrays. [`ConvStencil::try_run_attempts`] runs on a
/// caller-owned device and the arrays its caller passes.
#[derive(Debug, Clone)]
pub struct ConvStencil<K: Stencil> {
    kernel: K,
    fused: K,
    fusion: usize,
    variant: VariantConfig,
    device: DeviceConfig,
    boundary: Boundary,
    fault: Option<FaultPlan>,
    tracing: bool,
    sanitize: bool,
    work: Workspace,
}

/// The working arrays a runner keeps between one-shot runs. The first
/// run keeps nothing: it allocates and releases its arrays exactly as a
/// run without a workspace does, so a runner used once costs and holds
/// what it always did. Every later run keeps what it used. A run takes
/// the arrays out for its duration, so concurrent runs of one runner
/// never wait on each other (a run that finds them taken starts without
/// any).
#[derive(Default)]
struct Workspace(Mutex<WorkArrays>);

impl Workspace {
    /// Run `f` on the kept arrays and keep what it leaves in them, on
    /// success and on error; from now on runs keep their arrays.
    fn with<T>(&self, f: impl FnOnce(&mut WorkArrays) -> T) -> T {
        let lock = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let mut arrays = std::mem::take(&mut *lock());
        let out = f(&mut arrays);
        arrays.keep = true;
        *lock() = arrays;
        out
    }
}

/// Cloned runners start without working arrays.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Reports the kept storage's size, not the arrays' values.
impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let held = match self.0.try_lock() {
            Ok(arrays) => arrays.capacity(),
            Err(_) => 0,
        };
        f.debug_struct("Workspace")
            .field("held_f64", &held)
            .finish()
    }
}

/// 1D runner (§4.1).
pub type ConvStencil1D = ConvStencil<Kernel1D>;
/// 2D runner.
pub type ConvStencil2D = ConvStencil<Kernel2D>;
/// 3D runner (§4.2; never fuses on its own, see [`Stencil::auto_fusion`]).
pub type ConvStencil3D = ConvStencil<Kernel3D>;

/// The grid itself when its halo already covers `radius`, otherwise a
/// copy re-haloed to `radius` (new halo cells zero).
fn rehalo<G: HaloGrid>(grid: &G, radius: usize) -> Cow<'_, G> {
    if grid.halo() >= radius {
        Cow::Borrowed(grid)
    } else {
        Cow::Owned(grid.with_halo(radius))
    }
}

/// Stencil points of a grid, or [`ConvStencilError::ZeroSizedGrid`].
fn points<G: HaloGrid>(grid: &G) -> Result<u64, ConvStencilError> {
    let dims = grid.dims();
    if dims.contains(&0) {
        return Err(ConvStencilError::ZeroSizedGrid { dims });
    }
    Ok(dims.iter().product::<usize>() as u64)
}

impl<K: Stencil> ConvStencil<K> {
    /// Build with the kernel's automatic temporal fusion: up to
    /// n_k = 7 in 1D/2D, none in 3D.
    #[must_use = "the runner is the only handle to the planned pipeline; check the Err for why planning failed"]
    pub fn try_new(kernel: K) -> Result<Self, ConvStencilError> {
        let fusion = kernel.auto_fusion();
        Self::try_with_fusion(kernel, fusion)
    }

    /// Build with an explicit fusion degree (1 = none). A kernel wider
    /// than [`MAX_NK`] is [`ConvStencilError::UnsupportedNk`] at any
    /// degree; [`ConvStencilError::FusionTooDeep`] means a degree above 1
    /// pushed a valid kernel past [`MAX_NK`].
    #[must_use = "the runner is the only handle to the planned pipeline; check the Err for why planning failed"]
    pub fn try_with_fusion(kernel: K, fusion: usize) -> Result<Self, ConvStencilError> {
        if fusion < 1 {
            return Err(ConvStencilError::PlanInvariant {
                reason: "fusion degree must be >= 1".to_string(),
            });
        }
        if kernel.nk() > MAX_NK {
            return Err(ConvStencilError::UnsupportedNk { nk: kernel.nk() });
        }
        if 2 * kernel.radius() * fusion >= MAX_NK {
            return Err(ConvStencilError::FusionTooDeep {
                radius: kernel.radius(),
                fusion,
                max_nk: MAX_NK,
            });
        }
        let fused = kernel.fuse(fusion);
        Ok(Self {
            kernel,
            fused,
            fusion,
            variant: VariantConfig::conv_stencil(),
            device: DeviceConfig::a100(),
            boundary: Boundary::Dirichlet,
            fault: None,
            tracing: false,
            sanitize: false,
            work: Workspace::default(),
        })
    }

    /// Choose the boundary condition. Under [`Boundary::Periodic`] the
    /// halo is wrapped on-device before every application and temporal
    /// fusion is *exact* (a fused application equals `t` plain steps
    /// everywhere on the torus).
    pub fn with_boundary(mut self, boundary: Boundary) -> Self {
        self.boundary = boundary;
        self
    }

    /// Use a specific optimization variant (Fig. 6 breakdown).
    pub fn with_variant(mut self, variant: VariantConfig) -> Self {
        self.variant = variant;
        self
    }

    /// Use a custom device configuration.
    pub fn with_device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Inject deterministic faults (see [`FaultPlan`]) into every device
    /// this runner creates. Combine with
    /// [`ConvStencil::try_run_verified`] to detect and recover from them.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Enable per-phase span tracing: every run's `RunReport` carries a
    /// [`Trace`] whose span counter deltas sum to the run's ledger.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable the stencil sanitizer: every plan is proved correct by the
    /// static verifier before launch ([`ConvStencilError::PlanInvalid`]
    /// on rejection) and every run's `RunReport` carries a
    /// [`SanitizerReport`] with the dynamic shadow-memory findings. Off
    /// by default — the default path allocates no shadow state.
    pub fn with_sanitizer(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// The automatic (or requested) fusion degree.
    pub fn fusion(&self) -> usize {
        self.fusion
    }

    /// The kernel actually executed per application.
    pub fn fused_kernel(&self) -> &K {
        &self.fused
    }

    /// The unfused kernel this runner was planned from.
    pub fn base_kernel(&self) -> &K {
        &self.kernel
    }

    /// The optimization variant this runner executes.
    pub fn variant(&self) -> VariantConfig {
        self.variant
    }

    /// The configured boundary condition.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Build a device configured exactly like this runner's own implicit
    /// device (tracing, sanitizer), but with an explicit
    /// fault-plan override. The multi-device runtime uses this to give
    /// every pool slot an independent [`FaultPlan`] and health state.
    pub fn pool_device(&self, fault: Option<FaultPlan>) -> Device {
        let mut dev = self.make_device();
        dev.set_fault_plan(fault);
        dev
    }

    /// CPU ground truth for `steps` time steps, mirroring the device
    /// decomposition exactly (same fusion split, same frozen-halo
    /// semantics per application; periodic boundaries wrap instead, where
    /// fusion is exact). Public as the runtime's degrade-to-reference
    /// backend.
    #[must_use = "the reference result is the whole point of calling this"]
    pub fn run_reference(&self, grid: &K::Grid, steps: usize) -> K::Grid {
        if self.boundary == Boundary::Periodic {
            return self.kernel.periodic_reference(grid, steps);
        }
        let mut current = Cow::Borrowed(grid);
        for (kernel, apps) in self.schedule(steps) {
            let out = match rehalo(current.as_ref(), kernel.radius()) {
                Cow::Borrowed(g) => kernel.frozen_halo_reference(g, apps),
                Cow::Owned(work) => {
                    let mut out = current.as_ref().clone();
                    out.copy_interior(&kernel.frozen_halo_reference(&work, apps));
                    out
                }
            };
            current = Cow::Owned(out);
        }
        current.into_owned()
    }

    /// CPU reference of the flat interior range `cells` after `steps`
    /// steps, computed on the range's dependency cone instead of the
    /// whole grid; bit-identical to
    /// `run_reference(grid, steps).interior()[cells]`.
    ///
    /// The cone is the range's bounding box grown on every axis by
    /// `radius · steps` of the base kernel, the sum of radius x
    /// applications over the fusion schedule (remainder kernel included).
    /// Under Dirichlet boundaries the box is clipped to the interior and
    /// keeps the grid's own halo, which `run_reference` re-halos and
    /// freezes exactly as on the full grid; under periodic boundaries it
    /// is filled by wrapped indices, an unrolled torus that is exact at
    /// its centre even when the box is longer than the axis. Cells the
    /// window's own edges corrupt lie outside the cone.
    pub fn tile_reference(&self, grid: &K::Grid, steps: usize, cells: Range<usize>) -> Vec<f64> {
        let mut want = Vec::with_capacity(cells.len());
        if !cells.is_empty() {
            let win = self.window(&grid.dims(), steps, cells.clone());
            self.push_window_reference(grid, steps, cells, &win, &mut want);
        }
        want
    }

    /// Append the reference of `cells`, computed on `win`, to `want`.
    fn push_window_reference(
        &self,
        grid: &K::Grid,
        steps: usize,
        cells: Range<usize>,
        win: &Window,
        want: &mut Vec<f64>,
    ) {
        let dims = grid.dims();
        let h = grid.halo();
        // The window's halo, and the grid padded coordinate of window
        // padded coordinate `p` on axis `a`.
        let halo = match self.boundary {
            Boundary::Dirichlet => h,
            Boundary::Periodic => 0,
        };
        let source = |a: usize, p: usize| match self.boundary {
            Boundary::Dirichlet => win.origin[a] as usize + p,
            Boundary::Periodic => wrap(win.origin[a] + p as isize, dims[a]) + h,
        };
        let mut window = K::Grid::zeros(&win.dims, halo);
        let padded: Vec<usize> = win.dims.iter().map(|d| d + 2 * halo).collect();
        let (cols, lead) = padded.split_last().expect("a grid has at least one axis");
        let src = grid.padded();
        for (row, out) in window.padded_mut().chunks_exact_mut(*cols).enumerate() {
            let base = storage_index(lead, row, |a| dims[a] + 2 * h, source)
                * (dims[dims.len() - 1] + 2 * h);
            for (p, o) in out.iter_mut().enumerate() {
                *o = src[base + source(lead.len(), p)];
            }
        }
        let out = self.run_reference(&window, steps);
        for (flat, _, len) in row_pieces(&dims, 0, cells) {
            let at = storage_index(
                &dims,
                flat,
                |a| padded[a],
                |a, c| (c as isize - win.origin[a]) as usize + halo,
            );
            want.extend_from_slice(&out.padded()[at..at + len]);
        }
    }

    /// The window [`ConvStencil::tile_reference`] computes a non-empty
    /// flat interior range on.
    fn window(&self, dims: &[usize], steps: usize, cells: Range<usize>) -> Window {
        let margin = (self.kernel.radius() * steps) as isize;
        let coord = |flat: usize, a: usize| flat / volume(&dims[a + 1..]) % dims[a];
        let (first, last) = (cells.start, cells.end - 1);
        // Axes before the first one on which the ends differ are fixed,
        // that axis spans first..=last, and the range wraps the full
        // extent of every later axis.
        let split = (0..dims.len())
            .position(|a| coord(first, a) != coord(last, a))
            .unwrap_or(dims.len());
        let (mut origin, mut extent) = (Vec::new(), Vec::new());
        for (a, &n) in dims.iter().enumerate() {
            let (lo, hi) = match a.cmp(&split) {
                std::cmp::Ordering::Less => (coord(first, a), coord(first, a) + 1),
                std::cmp::Ordering::Equal => (coord(first, a), coord(last, a) + 1),
                std::cmp::Ordering::Greater => (0, n),
            };
            let (lo, hi) = (lo as isize - margin, hi as isize + margin);
            let (lo, hi) = match self.boundary {
                Boundary::Dirichlet => (lo.max(0), hi.min(n as isize)),
                Boundary::Periodic => (lo, hi),
            };
            origin.push(lo);
            extent.push((hi - lo) as usize);
        }
        Window {
            origin,
            dims: extent,
        }
    }

    /// The reference values `cfg` samples from `grid` after `steps`
    /// steps, computed once so every attempt of a verified run (or every
    /// retry of a runtime chunk) is checked against the same values.
    pub fn sampled_reference(
        &self,
        grid: &K::Grid,
        steps: usize,
        cfg: &VerifyConfig,
    ) -> SampledReference {
        self.expected(grid, steps, cfg).0
    }

    /// [`ConvStencil::sampled_reference`], plus the full reference grid
    /// when it was computed: the tiles' cones are used only while they
    /// hold fewer cells than the grid, which also sends a check of the
    /// whole interior to the full pass.
    fn expected(
        &self,
        grid: &K::Grid,
        steps: usize,
        cfg: &VerifyConfig,
    ) -> (SampledReference, Option<K::Grid>) {
        let dims = grid.dims();
        let len = volume(&dims);
        let ranges = sample_ranges(len, cfg);
        let windows: Vec<Option<Window>> = ranges
            .iter()
            .map(|r| (!r.is_empty()).then(|| self.window(&dims, steps, r.clone())))
            .collect();
        let mut want = Vec::with_capacity(ranges.iter().map(Range::len).sum());
        let full = if windows
            .iter()
            .flatten()
            .map(|w| volume(&w.dims))
            .sum::<usize>()
            < len
        {
            for (r, win) in ranges.iter().zip(&windows) {
                if let Some(win) = win {
                    self.push_window_reference(grid, steps, r.clone(), win, &mut want);
                }
            }
            None
        } else {
            let full = self.run_reference(grid, steps);
            for r in &ranges {
                for (_, at, n) in row_pieces(&dims, full.halo(), r.clone()) {
                    want.extend_from_slice(&full.padded()[at..at + n]);
                }
            }
            Some(full)
        };
        let sampled = SampledReference {
            len,
            ranges,
            want,
            tol: cfg.tol,
        };
        (sampled, full)
    }

    /// Advance `steps` time steps; returns the result grid and the report.
    ///
    /// Kernel fusion is a Tensor-Core densification technique (§3.3,
    /// Fig. 4), so the CUDA-core breakdown variants (I/II) run unfused —
    /// fusing would only inflate their FLOP count.
    #[must_use = "dropping the result discards the advanced grid, the run report, and any error"]
    pub fn try_run(
        &self,
        grid: &K::Grid,
        steps: usize,
    ) -> Result<(K::Grid, RunReport), ConvStencilError> {
        let points = points(grid)?;
        let mut dev = self.make_device();
        let out = self
            .work
            .with(|work| self.try_run_on(&mut dev, grid, steps, work))?;
        let report = RunReport::from_device(&mut dev, points, steps as u64);
        Ok((out, report))
    }

    /// Verified execution with the default [`VerifyConfig`]: the simulated
    /// result is checked against the naive CPU reference, corrupted runs
    /// are retried (under a fresh fault epoch), and if every retry is
    /// corrupted the reference result itself is returned with
    /// `report.degraded = true`.
    #[must_use = "dropping the result discards the advanced grid, the run report, and any error"]
    pub fn try_run_verified(
        &self,
        grid: &K::Grid,
        steps: usize,
    ) -> Result<(K::Grid, RunReport), ConvStencilError> {
        self.try_run_verified_with(grid, steps, VerifyConfig::default())
    }

    /// Verified execution with an explicit [`VerifyConfig`].
    #[must_use = "dropping the result discards the advanced grid, the run report, and any error"]
    pub fn try_run_verified_with(
        &self,
        grid: &K::Grid,
        steps: usize,
        cfg: VerifyConfig,
    ) -> Result<(K::Grid, RunReport), ConvStencilError> {
        let points = points(grid)?;
        let reference_start = Instant::now();
        let (want, full) = self.expected(grid, steps, &cfg);
        let reference_ns = reference_start.elapsed().as_nanos() as u64;
        let mut dev = self.make_device();
        push_host_span(&mut dev, Phase::Verify, reference_ns);
        let attempts = self.work.with(|work| {
            self.try_run_attempts(&mut dev, grid, steps, work, Some(&want), cfg.max_retries)
        })?;
        let degraded = attempts.accepted.is_none();
        let result = match attempts.accepted.or(full) {
            Some(out) => out,
            None => {
                // Degraded with only the sampled cells computed: the
                // reference result is the whole grid.
                let start = Instant::now();
                let full = self.run_reference(grid, steps);
                push_host_span(&mut dev, Phase::Verify, start.elapsed().as_nanos() as u64);
                full
            }
        };
        let mut report = RunReport::from_device(&mut dev, points, steps as u64);
        report.verified = true;
        report.faults_detected = attempts.detected;
        report.retries = attempts.retries;
        report.degraded = degraded;
        Ok((result, report))
    }

    /// The same-device rung of the attempt ladder: run on `dev`, check
    /// the output against `expected` when given, and after a device error
    /// or a failed check advance the fault epoch and run again, at most
    /// `max_retries` more times and never on a dead device. Other errors
    /// propagate. Each check pushes a host `Verify` span and each retry a
    /// `Retry` span. Counters accumulate on `dev`'s ledger, so one device
    /// can serve many chunks and jobs.
    ///
    /// A verified one-shot run is this rung on its own device, falling
    /// back to the reference when it is exhausted; a runtime job chunk is
    /// this rung on its active pool device, falling back to the breaker,
    /// migration and the reference.
    #[must_use = "dropping the result discards the accepted grid and the attempt counts"]
    pub fn try_run_attempts(
        &self,
        dev: &mut Device,
        grid: &K::Grid,
        steps: usize,
        work: &mut WorkArrays,
        expected: Option<&SampledReference>,
        max_retries: u64,
    ) -> Result<Attempts<K::Grid>, ConvStencilError> {
        points(grid)?;
        let mut attempts = Attempts {
            accepted: None,
            detected: 0,
            retries: 0,
        };
        loop {
            match self.try_run_on(dev, grid, steps, work) {
                Ok(out) => {
                    let passed = expected.is_none_or(|want| {
                        let start = Instant::now();
                        let check = want.check(&out);
                        push_host_span(dev, Phase::Verify, start.elapsed().as_nanos() as u64);
                        check.is_ok()
                    });
                    if passed {
                        attempts.accepted = Some(out);
                        return Ok(attempts);
                    }
                }
                Err(ConvStencilError::Device(_)) => {}
                Err(other) => return Err(other),
            }
            attempts.detected += 1;
            if dev.is_dead() || attempts.retries == max_retries {
                return Ok(attempts);
            }
            dev.advance_fault_epoch();
            attempts.retries += 1;
            push_host_span(dev, Phase::Retry, 0);
        }
    }

    fn make_device(&self) -> Device {
        let mut dev = Device::new(self.device.clone());
        dev.set_fault_plan(self.fault);
        dev.set_tracing(self.tracing);
        dev.set_sanitizer(self.sanitize);
        dev
    }

    /// The applications `steps` decompose into: full applications of the
    /// fused kernel, then one application of the remainder fused kernel,
    /// so any step count is supported exactly. CUDA-core variants run
    /// unfused.
    fn schedule(&self, steps: usize) -> Vec<(Cow<'_, K>, usize)> {
        let (fusion, fused) = if self.variant.use_tcu {
            (self.fusion, &self.fused)
        } else {
            (1, &self.kernel)
        };
        let mut apps = Vec::with_capacity(2);
        if steps / fusion > 0 {
            apps.push((Cow::Borrowed(fused), steps / fusion));
        }
        if !steps.is_multiple_of(fusion) {
            apps.push((Cow::Owned(self.kernel.fuse(steps % fusion)), 1));
        }
        apps
    }

    /// One full run on an existing device (counters accumulate), on the
    /// host working arrays `work`.
    fn try_run_on(
        &self,
        dev: &mut Device,
        grid: &K::Grid,
        steps: usize,
        work: &mut WorkArrays,
    ) -> Result<K::Grid, ConvStencilError> {
        let mut current = Cow::Borrowed(grid);
        for (kernel, apps) in self.schedule(steps) {
            current = Cow::Owned(self.try_run_apps(dev, &current, &kernel, apps, work)?);
        }
        Ok(current.into_owned())
    }

    fn try_run_apps(
        &self,
        dev: &mut Device,
        grid: &K::Grid,
        kernel: &K,
        apps: usize,
        work: &mut WorkArrays,
    ) -> Result<K::Grid, ConvStencilError> {
        let exec = kernel.exec(&grid.dims(), self.variant)?;
        if self.sanitize {
            verify_statically(dev, || K::verify(&exec))?;
        }
        K::try_build_ext_into(&exec, &rehalo(grid, kernel.radius()), &mut work.ext)?;
        run_applications::<K>(dev, &exec, work, apps, self.boundary)?;
        let mut out = grid.clone();
        K::extract_into(&exec, &work.ext, &mut out);
        if !work.keep {
            work.ext = Vec::new();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::reference::{run1d, run2d, run3d};
    use stencil_core::{assert_close_default, Grid1D, Grid2D, Grid3D, Shape};

    #[test]
    fn heat2d_auto_fuses_to_3() {
        let cs = ConvStencil2D::try_new(Shape::Heat2D.kernel2d().unwrap()).unwrap();
        assert_eq!(cs.fusion(), 3);
        assert_eq!(cs.fused_kernel().nk(), 7);
    }

    #[test]
    fn box2d49p_does_not_fuse() {
        let cs = ConvStencil2D::try_new(Shape::Box2D49P.kernel2d().unwrap()).unwrap();
        assert_eq!(cs.fusion(), 1);
    }

    #[test]
    fn fused_run_equals_fused_reference() {
        // ConvStencil with fusion 3 for 6 steps == two frozen-halo
        // applications of the fused kernel.
        let kernel = Shape::Heat2D.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid2D::new(48, 80, cs.fused_kernel().radius());
        grid.fill_random(12);
        let (got, report) = cs.try_run(&grid, 6).unwrap();
        let want = run2d(&grid, cs.fused_kernel(), 2);
        assert_close_default(&got.interior(), &want.interior());
        assert_eq!(report.steps, 6);
        assert!(report.gstencils_per_sec > 0.0);
    }

    #[test]
    fn fused_run_matches_plain_stepping_in_deep_interior() {
        let kernel = Shape::Heat2D.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid2D::new(64, 64, 3);
        grid.fill_random(9);
        let (got, _) = cs.try_run(&grid, 3).unwrap();
        let want = run2d(&grid, &kernel, 3);
        // Depth >= fusion·r = 3 from the boundary: exact agreement.
        for x in 3..61 {
            for y in 3..61 {
                let (a, b) = (got.get(x, y), want.get(x, y));
                assert!(
                    (a - b).abs() / a.abs().max(1.0) < 1e-10,
                    "({x},{y}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn remainder_steps_are_exact() {
        // 4 steps at fusion 3 = one fused app + one single-step app; must
        // equal naive stepping in the deep interior.
        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid2D::new(48, 48, 4);
        grid.fill_random(3);
        let (got, report) = cs.try_run(&grid, 4).unwrap();
        assert_eq!(report.steps, 4);
        let want = run2d(&grid, &kernel, 4);
        for x in 4..44 {
            for y in 4..44 {
                let (a, b) = (got.get(x, y), want.get(x, y));
                assert!((a - b).abs() / a.abs().max(1.0) < 1e-10);
            }
        }
    }

    #[test]
    fn oned_api_runs_heat1d() {
        let kernel = Shape::Heat1D.kernel1d().unwrap();
        let cs = ConvStencil1D::try_new(kernel.clone()).unwrap();
        assert_eq!(cs.fusion(), 3);
        let mut grid = Grid1D::new(5000, 3);
        grid.fill_random(2);
        let (got, report) = cs.try_run(&grid, 3).unwrap();
        let want = run1d(&grid, cs.fused_kernel(), 1);
        assert_close_default(&got.interior(), &want.interior());
        assert!(report.counters.dmma_ops > 0);
    }

    /// 200 runs on one device: global memory after every run equals its
    /// size after the first, so nothing a run allocates outlives it.
    fn assert_runs_release_device_memory(variant: VariantConfig) {
        let kernel = Shape::Heat1D.kernel1d().unwrap();
        let cs = ConvStencil1D::try_new(kernel)
            .unwrap()
            .with_variant(variant);
        let mut grid = Grid1D::new(4096, cs.fused_kernel().radius());
        grid.fill_random(6);
        let mut dev = cs.pool_device(None);
        let mut after_first = None;
        for run in 0..200 {
            let attempts = cs
                .try_run_attempts(&mut dev, &grid, 3, &mut WorkArrays::default(), None, 0)
                .unwrap();
            assert!(attempts.accepted.is_some());
            let held = *after_first.get_or_insert(dev.global_len());
            assert_eq!(dev.global_len(), held, "{} run {run}", variant.label());
        }
    }

    #[test]
    fn repeated_runs_release_device_memory_variant_v() {
        assert_runs_release_device_memory(VariantConfig::conv_stencil());
    }

    #[test]
    fn repeated_runs_release_device_memory_explicit_variant_i() {
        assert_runs_release_device_memory(VariantConfig::explicit_cuda());
    }

    #[test]
    fn threed_api_runs_heat3d() {
        let kernel = Shape::Heat3D.kernel3d().unwrap();
        let cs = ConvStencil3D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid3D::new(8, 16, 32, 1);
        grid.fill_random(4);
        let (got, report) = cs.try_run(&grid, 2).unwrap();
        let want = run3d(&grid, &kernel, 2);
        assert_close_default(&got.interior(), &want.interior());
        assert_eq!(report.points, 8 * 16 * 32);
    }

    #[test]
    fn periodic_2d_fused_equals_t_periodic_steps_exactly() {
        // On a torus, fusion is exact *everywhere* — no boundary ring.
        let kernel = Shape::Heat2D.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel.clone())
            .unwrap()
            .with_boundary(Boundary::Periodic);
        let mut grid = Grid2D::new(40, 72, 3);
        grid.fill_random(31);
        let (got, _) = cs.try_run(&grid, 6).unwrap();
        let want = stencil_core::run2d_periodic(&grid, &kernel, 6);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn periodic_1d_matches_reference_everywhere() {
        let kernel = Shape::Heat1D.kernel1d().unwrap();
        let cs = ConvStencil1D::try_new(kernel.clone())
            .unwrap()
            .with_boundary(Boundary::Periodic);
        let mut grid = Grid1D::new(3000, 3);
        grid.fill_random(7);
        let (got, _) = cs.try_run(&grid, 6).unwrap();
        let want = stencil_core::run1d_periodic(&grid, &kernel, 6);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn periodic_3d_matches_reference_everywhere() {
        let kernel = Shape::Box3D27P.kernel3d().unwrap();
        let cs = ConvStencil3D::try_new(kernel.clone())
            .unwrap()
            .with_boundary(Boundary::Periodic);
        let mut grid = Grid3D::new(8, 12, 40, 1);
        grid.fill_random(9);
        let (got, _) = cs.try_run(&grid, 2).unwrap();
        let want = stencil_core::run3d_periodic(&grid, &kernel, 2);
        assert_close_default(&got.interior(), &want.interior());
    }

    #[test]
    fn periodic_conserves_mass() {
        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel)
            .unwrap()
            .with_boundary(Boundary::Periodic);
        let mut grid = Grid2D::new(48, 48, 3);
        grid.fill_random(2);
        let before: f64 = grid.interior().iter().sum();
        let (out, _) = cs.try_run(&grid, 9).unwrap();
        let after: f64 = out.interior().iter().sum();
        assert!((before - after).abs() / before < 1e-12);
    }

    #[test]
    fn report_is_serializable_shape() {
        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel).unwrap();
        let mut grid = Grid2D::new(32, 32, 3);
        grid.fill_random(1);
        let (_, report) = cs.try_run(&grid, 3).unwrap();
        assert!(report.cost.total > 0.0);
        assert!(report.cost.parallel_efficiency > 0.0 && report.cost.parallel_efficiency <= 1.0);
    }
}
