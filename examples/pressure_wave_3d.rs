//! 3D pressure smoothing — exercises the §4.2 plane decomposition with
//! hybrid Tensor-Core / CUDA-core scheduling on a Heat-3D (7-point star)
//! kernel, plus the baseline comparison API.
//!
//! ```sh
//! cargo run --release --example pressure_wave_3d
//! ```

use convstencil_repro::baselines::{
    Brick, ConvStencilSystem, DrStencil, ProblemSize, StencilSystem,
};
use convstencil_repro::convstencil::{ConvStencil3D, ConvStencilError};
use convstencil_repro::stencil_core::{reference, Grid3D, Kernel3D, Shape};

fn main() -> Result<(), ConvStencilError> {
    let kernel = Kernel3D::star(0.4, &[0.1]);
    let (d, m, n) = (24, 64, 128);

    // A pressure pulse in the centre of the volume.
    let mut volume = Grid3D::new(d, m, n, 1);
    volume.set(d / 2, m / 2, n / 2, 1000.0);

    let cs = ConvStencil3D::try_new(kernel.clone())?;
    let (result, report) = cs.try_run(&volume, 4)?;

    // The pulse spreads: total mass is conserved by the sum-one kernel.
    let total: f64 = result.interior().iter().sum();
    let peak = result.interior().iter().cloned().fold(0.0, f64::max);
    println!("after 4 steps: total = {total:.1} (should stay 1000), peak = {peak:.2}");
    assert!((total - 1000.0).abs() < 1e-6);

    // §4.2 hybrid: the star's off-centre planes (single points) run on
    // the simulated CUDA cores, the dense centre plane on the TCUs.
    println!(
        "hybrid scheduling: {} FP64 MMAs (centre planes) + {} CUDA FMAs (small planes)",
        report.counters.dmma_ops, report.counters.cuda_fma_ops
    );
    assert!(report.counters.dmma_ops > 0 && report.counters.cuda_fma_ops > 0);

    // Numerics vs the naive reference.
    let want = reference::run3d(&volume, &kernel, 4);
    convstencil_repro::stencil_core::assert_close_default(&result.interior(), &want.interior());
    println!("matches the naive 3D reference to < 1e-10");

    // Quick comparison against two baseline systems on the same workload.
    println!("\nmodelled GStencils/s on this volume (Heat-3D, 4 steps):");
    for sys in [
        &ConvStencilSystem as &dyn StencilSystem,
        &DrStencil::new(3),
        &Brick,
    ] {
        let r = sys
            .run(Shape::Heat3D, ProblemSize::D3(d, m, n), 4, 9)
            .unwrap();
        println!("  {:<14} {:>7.1}", sys.name(), r.report.gstencils_per_sec);
    }
    Ok(())
}
