//! Shared infrastructure for the baseline systems: a uniform `System`
//! interface over the paper's benchmark shapes, plus device-side grid
//! helpers.

use convstencil::RunReport;
use serde::{Deserialize, Serialize};
use stencil_core::{Grid1D, Grid2D, Grid3D, Shape};
use tcu_sim::{BlockCtx, BufferId, CostModel, Device};

/// Problem size for any dimensionality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProblemSize {
    D1(usize),
    D2(usize, usize),
    D3(usize, usize, usize),
}

impl ProblemSize {
    pub fn points(&self) -> u64 {
        match *self {
            ProblemSize::D1(n) => n as u64,
            ProblemSize::D2(m, n) => (m * n) as u64,
            ProblemSize::D3(d, m, n) => (d * m * n) as u64,
        }
    }

    pub fn dim(&self) -> usize {
        match self {
            ProblemSize::D1(_) => 1,
            ProblemSize::D2(..) => 2,
            ProblemSize::D3(..) => 3,
        }
    }
}

impl std::fmt::Display for ProblemSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProblemSize::D1(n) => write!(f, "{n}"),
            ProblemSize::D2(m, n) => write!(f, "{m}x{n}"),
            ProblemSize::D3(d, m, n) => write!(f, "{d}x{m}x{n}"),
        }
    }
}

/// Result of running a system on a shape: the interior output (for
/// correctness checks) and the performance report.
#[derive(Debug, Clone)]
pub struct SystemResult {
    pub output: Vec<f64>,
    pub report: RunReport,
}

/// A stencil computing system (ConvStencil or a baseline analog).
pub trait StencilSystem {
    fn name(&self) -> &'static str;
    /// Whether the system supports this shape (TCStencil, e.g., has no 3D
    /// path — matching the original system's published scope).
    fn supports(&self, shape: Shape) -> bool;
    /// Run `steps` time steps of `shape` at `size` on a deterministic
    /// pseudo-random grid (`seed`). Returns `None` for unsupported shapes.
    fn run(&self, shape: Shape, size: ProblemSize, steps: usize, seed: u64)
        -> Option<SystemResult>;
}

/// Deterministic input grids shared by every system so outputs are
/// comparable.
pub fn make_grid1d(n: usize, halo: usize, seed: u64) -> Grid1D {
    let mut g = Grid1D::new(n, halo);
    g.fill_random(seed);
    g
}

pub fn make_grid2d(m: usize, n: usize, halo: usize, seed: u64) -> Grid2D {
    let mut g = Grid2D::new(m, n, halo);
    g.fill_random(seed);
    g
}

pub fn make_grid3d(d: usize, m: usize, n: usize, halo: usize, seed: u64) -> Grid3D {
    let mut g = Grid3D::new(d, m, n, halo);
    g.fill_random(seed);
    g
}

/// Build a [`RunReport`] from a device ledger.
pub fn report_from_device(dev: &Device, points: u64, steps: u64) -> RunReport {
    let model = CostModel::new(dev.config.clone());
    RunReport {
        counters: dev.counters,
        launch_stats: dev.launch_stats,
        points,
        steps,
        cost: model.evaluate(&dev.counters, &dev.launch_stats),
        gstencils_per_sec: model.gstencils_per_sec(&dev.counters, &dev.launch_stats, points, steps),
        throughput_scale: 1.0,
        faults_injected: dev.counters.faults_injected(),
        faults_detected: 0,
        retries: 0,
        degraded: false,
        verified: false,
        trace: None,
        sanitizer: None,
    }
}

/// Stage a rectangular tile of a padded 2D device array into shared
/// memory at `smem_off` with row stride `smem_stride` (coalesced global
/// reads, contiguous shared stores). Returns nothing; counts everything.
#[allow(clippy::too_many_arguments)]
pub fn stage_tile_to_shared(
    ctx: &mut BlockCtx,
    buf: BufferId,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    pcols: usize,
    smem_off: usize,
    smem_stride: usize,
) {
    let mut addrs: Vec<usize> = Vec::with_capacity(32);
    for t in 0..rows {
        let vals = ctx.gmem_read_span(buf, (row0 + t) * pcols + col0, cols);
        let mut i = 0;
        while i < cols {
            let lanes = 32.min(cols - i);
            addrs.clear();
            addrs.extend((0..lanes).map(|l| smem_off + t * smem_stride + i + l));
            ctx.smem_store(&addrs, &vals[i..i + lanes]);
            i += lanes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_size_points() {
        assert_eq!(ProblemSize::D1(100).points(), 100);
        assert_eq!(ProblemSize::D2(10, 20).points(), 200);
        assert_eq!(ProblemSize::D3(2, 3, 4).points(), 24);
        assert_eq!(ProblemSize::D3(2, 3, 4).dim(), 3);
    }

    #[test]
    fn grids_are_deterministic_per_seed() {
        let a = make_grid2d(8, 8, 1, 5);
        let b = make_grid2d(8, 8, 1, 5);
        assert_eq!(a, b);
        let c = make_grid2d(8, 8, 1, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn stage_tile_roundtrips() {
        let mut dev = Device::a100();
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let buf = dev.alloc_from(&data); // 10x10
        let probe = dev.alloc(16);
        dev.launch(1, 256, |_, ctx| {
            stage_tile_to_shared(ctx, buf, 2, 3, 4, 4, 10, 0, 5);
            // Shared (1,2) should be input (3, 5) = 35.
            let mut out = [0.0];
            ctx.smem_load(&[5 + 2], &mut out);
            ctx.gmem_write_span(probe, 0, &out);
        });
        assert_eq!(dev.download(probe)[0], 35.0);
    }
}
