//! [`StencilSystem`] adapter for ConvStencil itself, so the benchmark
//! harness can drive it uniformly alongside the baselines.

use crate::common::{
    make_grid1d, make_grid2d, make_grid3d, ProblemSize, StencilSystem, SystemResult,
};
use convstencil::{ConvStencil1D, ConvStencil2D, ConvStencil3D};
use stencil_core::{AnyKernel, Shape};

/// ConvStencil with its default configuration (variant V, auto fusion).
#[derive(Debug, Clone, Default)]
pub struct ConvStencilSystem;

impl StencilSystem for ConvStencilSystem {
    fn name(&self) -> &'static str {
        "ConvStencil"
    }

    fn supports(&self, _shape: Shape) -> bool {
        true
    }

    fn run(
        &self,
        shape: Shape,
        size: ProblemSize,
        steps: usize,
        seed: u64,
    ) -> Option<SystemResult> {
        match (shape.kernel(), size) {
            (AnyKernel::D1(k), ProblemSize::D1(n)) => {
                let g = make_grid1d(n, k.radius(), seed);
                let cs = ConvStencil1D::try_new(k).expect("shipped kernels plan");
                let (out, report) = cs.try_run(&g, steps).expect("the simulated run succeeds");
                Some(SystemResult {
                    output: out.interior(),
                    report,
                })
            }
            (AnyKernel::D2(k), ProblemSize::D2(m, n)) => {
                let g = make_grid2d(m, n, k.radius(), seed);
                let cs = ConvStencil2D::try_new(k).expect("shipped kernels plan");
                let (out, report) = cs.try_run(&g, steps).expect("the simulated run succeeds");
                Some(SystemResult {
                    output: out.interior(),
                    report,
                })
            }
            (AnyKernel::D3(k), ProblemSize::D3(d, m, n)) => {
                let g = make_grid3d(d, m, n, k.radius(), seed);
                let cs = ConvStencil3D::try_new(k).expect("shipped kernels plan");
                let (out, report) = cs.try_run(&g, steps).expect("the simulated run succeeds");
                Some(SystemResult {
                    output: out.interior(),
                    report,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveGpu;

    /// ConvStencil's fused applications freeze the halo per application
    /// rather than per step, so cross-system agreement holds in the deep
    /// interior (distance > steps * radius_max from the boundary).
    #[test]
    fn agrees_with_naive_in_deep_interior_2d() {
        let shape = Shape::Heat2D;
        let size = ProblemSize::D2(48, 48);
        let steps = 3;
        let cs = ConvStencilSystem.run(shape, size, steps, 42).unwrap();
        let naive = NaiveGpu.run(shape, size, steps, 42).unwrap();
        let margin = steps * 3;
        for x in margin..48 - margin {
            for y in margin..48 - margin {
                let (a, b) = (cs.output[x * 48 + y], naive.output[x * 48 + y]);
                assert!(
                    (a - b).abs() / a.abs().max(1.0) < 1e-10,
                    "({x},{y}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn runs_every_benchmark_shape() {
        for &shape in Shape::benchmarks() {
            let size = match shape.dim() {
                1 => ProblemSize::D1(2048),
                2 => ProblemSize::D2(32, 64),
                _ => ProblemSize::D3(6, 8, 32),
            };
            let r = ConvStencilSystem.run(shape, size, 3, 7).unwrap();
            assert!(r.report.gstencils_per_sec > 0.0, "{shape}");
            assert!(r.report.counters.dmma_ops > 0, "{shape} must use TCUs");
        }
    }
}
