//! 1D signal smoothing: iterated binomial filtering of a noisy waveform
//! through the 1D ConvStencil pipeline (paper §4.1).
//!
//! Repeatedly applying the 3-tap binomial kernel [1/4, 1/2, 1/4]
//! converges to Gaussian smoothing; ConvStencil's automatic temporal
//! fusion turns every 3 applications into a single 7-tap fused kernel,
//! which is also demonstrated explicitly.
//!
//! ```sh
//! cargo run --release --example signal_smoothing_1d
//! ```

use convstencil_repro::convstencil::{ConvStencil1D, ConvStencilError};
use convstencil_repro::stencil_core::{fuse1d, Grid1D, Kernel1D};

fn main() -> Result<(), ConvStencilError> {
    let n = 1 << 18;
    // Noisy composite signal: two tones + deterministic noise.
    let mut signal = Grid1D::new(n, 3);
    let mut noise = Grid1D::new(n, 3);
    noise.fill_random(7);
    for i in 0..n {
        let t = i as f64 / n as f64;
        let clean = (t * 40.0 * std::f64::consts::TAU).sin()
            + 0.4 * (t * 160.0 * std::f64::consts::TAU).sin();
        signal.set(i, clean + 0.8 * (noise.get(i) - 0.5));
    }

    let kernel = Kernel1D::new(vec![0.25, 0.5, 0.25]);
    let cs = ConvStencil1D::try_new(kernel.clone())?;
    println!(
        "binomial kernel fused {}x -> {} taps: {:?}",
        cs.fusion(),
        cs.fused_kernel().nk(),
        cs.fused_kernel().weights()
    );

    // High-frequency energy before/after: measure the mean squared
    // difference between neighbours.
    let roughness = |g: &Grid1D| -> f64 {
        let v = g.interior();
        v.windows(2).map(|w| (w[1] - w[0]).powi(2)).sum::<f64>() / (v.len() - 1) as f64
    };

    println!("roughness before: {:.5}", roughness(&signal));
    let (smoothed, report) = cs.try_run(&signal, 12)?;
    println!("roughness after 12 passes: {:.5}", roughness(&smoothed));
    assert!(roughness(&smoothed) < 0.05 * roughness(&signal));

    // The fused kernel is exactly the 3-fold self-convolution: verify the
    // binomial coefficients 1,6,15,20,15,6,1 over 64.
    let fused = fuse1d(&kernel, 3);
    let binomial: Vec<f64> = [1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0]
        .iter()
        .map(|c| c / 64.0)
        .collect();
    for (a, b) in fused.weights().iter().zip(&binomial) {
        assert!((a - b).abs() < 1e-12);
    }
    println!("fused weights are the binomial(6) coefficients / 64 — verified");

    println!(
        "\nmodelled: {:.1} GStencils/s, {} FP64 MMAs, {:.2}% uncoalesced",
        report.gstencils_per_sec,
        report.counters.dmma_ops,
        report.counters.uncoalesced_global_access_pct()
    );
    Ok(())
}
