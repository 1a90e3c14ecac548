//! Custom stencil weights (the CLI's `--custom` path, Appendix A.4): a
//! user-supplied anisotropic 2D kernel run through every optimization
//! variant of the Fig. 6 breakdown, with the memory-system ledgers
//! compared side by side.
//!
//! ```sh
//! cargo run --release --example custom_kernel
//! ```

use convstencil_repro::convstencil::{ConvStencil2D, ConvStencilError, VariantConfig};
use convstencil_repro::stencil_core::{reference, Grid2D, Kernel2D};

fn main() -> Result<(), ConvStencilError> {
    // An anisotropic advection-diffusion-style kernel: stronger coupling
    // along x than y, slight upwind bias. Any weights work — ConvStencil
    // places them into the dual-tessellation weight matrices unchanged.
    let kernel = Kernel2D::new(
        1,
        vec![
            0.02, 0.16, 0.02, //
            0.08, 0.44, 0.12, //
            0.02, 0.12, 0.02,
        ],
    );
    assert!((kernel.sum() - 1.0).abs() < 1e-12);

    let mut grid = Grid2D::new(256, 512, 3);
    grid.fill_random(123);

    println!("variant                       GStencils/s   UGA%   BC/R   div/mod   branches");
    println!("{}", "-".repeat(80));
    let mut reference_out: Option<Vec<f64>> = None;
    for (name, variant) in VariantConfig::breakdown() {
        let cs = ConvStencil2D::try_new(kernel.clone())?.with_variant(variant);
        let (out, report) = cs.try_run(&grid, 6)?;
        println!(
            "{:<28}  {:>10.1}  {:>5.2}  {:>5.2}  {:>8}  {:>9}",
            name.split(':').next().unwrap(),
            report.gstencils_per_sec,
            report.counters.uncoalesced_global_access_pct(),
            report.counters.bank_conflicts_per_request(),
            report.counters.int_divmod_ops,
            report.counters.branch_ops,
        );
        // All variants compute the same mathematics (CUDA variants run
        // unfused, so compare against plain stepping in the deep
        // interior).
        if reference_out.is_none() {
            reference_out = Some(out.interior());
        }
    }

    // Correctness: variant V vs 6 naive steps, deep interior.
    let cs = ConvStencil2D::try_new(kernel.clone())?;
    let (out, _) = cs.try_run(&grid, 6)?;
    let naive = reference::run2d(&grid, &kernel, 6);
    let mut worst: f64 = 0.0;
    for x in 18..238 {
        for y in 18..494 {
            let (a, b) = (out.get(x, y), naive.get(x, y));
            worst = worst.max((a - b).abs() / a.abs().max(1.0));
        }
    }
    println!("\ndeep-interior error of variant V vs 6 naive steps: {worst:.2e}");
    assert!(worst < 1e-10);
    Ok(())
}
