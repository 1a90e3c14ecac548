//! Quickstart: run a 2D heat stencil through ConvStencil and check the
//! result against the naive reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use convstencil_repro::convstencil::{ConvStencil2D, ConvStencilError};
use convstencil_repro::stencil_core::{reference, Grid2D, Kernel2D};

fn main() -> Result<(), ConvStencilError> {
    // A 5-point heat kernel (Heat-2D in the paper): centre 0.5, each
    // axis neighbour 0.125.
    let kernel = Kernel2D::star(0.5, &[0.125]);

    // A 512x512 grid with a halo wide enough for the fused kernel
    // (ConvStencil automatically fuses 3 steps of a radius-1 kernel into
    // one 7x7 application — paper §3.3).
    let mut grid = Grid2D::new(512, 512, 3);
    grid.fill_random(42);

    // Build the runner and advance 6 time steps on the simulated A100.
    let cs = ConvStencil2D::try_new(kernel.clone())?;
    println!(
        "kernel: {}x{} (radius {}), fusion degree {} -> n_k = {}",
        kernel.nk(),
        kernel.nk(),
        kernel.radius(),
        cs.fusion(),
        cs.fused_kernel().nk()
    );
    let (result, report) = cs.try_run(&grid, 6)?;

    // Verify: 6 steps at fusion 3 = two applications of the fused kernel.
    let expected = reference::run2d(&grid, cs.fused_kernel(), 2);
    let err =
        convstencil_repro::stencil_core::max_mixed_err(&result.interior(), &expected.interior());
    println!("max error vs reference: {err:.2e}");
    assert!(err < 1e-10, "ConvStencil result must match the reference");

    // The performance report: event ledger + modelled cost (paper Eq. 2-4).
    println!("\n-- simulated device report --");
    println!("FP64 MMA instructions : {}", report.counters.dmma_ops);
    println!(
        "global traffic        : {:.1} MB read, {:.1} MB written",
        report.counters.global_read_bytes as f64 / 1e6,
        report.counters.global_write_bytes as f64 / 1e6
    );
    println!(
        "uncoalesced accesses  : {:.2} %",
        report.counters.uncoalesced_global_access_pct()
    );
    println!(
        "bank conflicts/request: {:.2}",
        report.counters.bank_conflicts_per_request()
    );
    println!(
        "modelled throughput   : {:.1} GStencils/s ({} points x {} steps)",
        report.gstencils_per_sec, report.points, report.steps
    );
    Ok(())
}
