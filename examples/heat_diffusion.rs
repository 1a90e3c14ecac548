//! Heat diffusion on a 2D plate — the motivating workload class of the
//! paper's introduction (fluid dynamics / earth modelling / weather all
//! reduce to iterated stencils).
//!
//! A hot spot diffuses across a cold plate with fixed-temperature
//! (Dirichlet) edges; ConvStencil advances the field and we track the
//! temperature profile over time.
//!
//! ```sh
//! cargo run --release --example heat_diffusion
//! ```

use convstencil_repro::convstencil::{ConvStencil2D, ConvStencilError};
use convstencil_repro::stencil_core::{Grid2D, Kernel2D};

const N: usize = 384;

/// Render a coarse ASCII heat map of the field.
fn render(grid: &Grid2D) {
    let cells = 24;
    let step = N / cells;
    let ramp = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for by in 0..cells {
        let mut line = String::new();
        for bx in 0..cells {
            let mut sum = 0.0;
            for x in 0..step {
                for y in 0..step {
                    sum += grid.get(by * step + x, bx * step + y);
                }
            }
            let avg = sum / (step * step) as f64;
            let idx = ((avg / 100.0) * (ramp.len() - 1) as f64).round() as usize;
            line.push(ramp[idx.min(ramp.len() - 1)]);
        }
        println!("  {line}");
    }
}

fn main() -> Result<(), ConvStencilError> {
    // Diffusion kernel: classic 5-point explicit Euler step.
    let kernel = Kernel2D::star(0.5, &[0.125]);
    let cs = ConvStencil2D::try_new(kernel)?;

    // Cold plate with a 100-degree hot square in the middle.
    let mut plate = Grid2D::new(N, N, 3);
    for x in N / 2 - 24..N / 2 + 24 {
        for y in N / 2 - 24..N / 2 + 24 {
            plate.set(x, y, 100.0);
        }
    }

    let mut total_gstencils = 0.0;
    let mut epochs = 0;
    println!("t = 0:");
    render(&plate);
    for epoch in 1..=3 {
        let steps = 60;
        let (next, report) = cs.try_run(&plate, steps)?;
        plate = next;
        total_gstencils += report.gstencils_per_sec;
        epochs += 1;
        println!("\nt = {} steps:", epoch * steps);
        render(&plate);
        // Energy (away from the absorbing boundary) is conserved by the
        // sum-one kernel until heat reaches the edges.
        let total: f64 = plate.interior().iter().sum();
        println!(
            "  total heat = {:.0}   peak = {:.1}   modelled {:.1} GStencils/s",
            total,
            plate.interior().iter().cloned().fold(0.0, f64::max),
            report.gstencils_per_sec
        );
    }
    println!(
        "\naverage modelled throughput: {:.1} GStencils/s over {} epochs",
        total_gstencils / epochs as f64,
        epochs
    );
    Ok(())
}
