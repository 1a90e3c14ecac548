//! Periodic boundaries: diffusion on a torus, where temporal kernel
//! fusion is *exact* — a fused 7x7 application equals three plain 3x3
//! steps at every point, because the on-device halo exchange supplies the
//! true wrapped neighbourhood before each application.
//!
//! ```sh
//! cargo run --release --example periodic_torus
//! ```

use convstencil_repro::convstencil::{ConvStencil2D, ConvStencilError};
use convstencil_repro::stencil_core::{run2d_periodic, Boundary, Grid2D, Shape};

fn main() -> Result<(), ConvStencilError> {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let (m, n) = (96, 160);

    // A blob near the edge, so wrap-around actually matters.
    let mut grid = Grid2D::new(m, n, 3);
    for x in 0..8 {
        for y in 0..8 {
            grid.set(x, y, 50.0);
        }
    }

    let cs = ConvStencil2D::try_new(kernel.clone())?.with_boundary(Boundary::Periodic);
    let steps = 9;
    let (out, report) = cs.try_run(&grid, steps)?;

    // Exactness everywhere, including the wrapped corners.
    let want = run2d_periodic(&grid, &kernel, steps);
    let err = convstencil_repro::stencil_core::max_mixed_err(&out.interior(), &want.interior());
    println!(
        "max error vs the periodic reference (all {} points): {err:.2e}",
        m * n
    );
    assert!(err < 1e-10);

    // Mass is conserved exactly on the torus (no absorbing boundary).
    let before: f64 = grid.interior().iter().sum();
    let after: f64 = out.interior().iter().sum();
    println!("total mass: {before:.6} -> {after:.6} (conserved)");
    assert!((before - after).abs() / before < 1e-12);

    // The blob has wrapped: the opposite corner now holds heat.
    let far_corner = out.get(m - 1, n - 1);
    println!("heat at the opposite corner after wrap-around: {far_corner:.4}");
    assert!(far_corner > 0.0);

    println!(
        "\nmodelled {:.1} GStencils/s over {} steps ({} halo-exchange + compute launches)",
        report.gstencils_per_sec, report.steps, report.launch_stats.kernel_launches
    );
    Ok(())
}
