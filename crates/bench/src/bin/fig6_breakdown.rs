//! Regenerates paper Fig. 6: the performance breakdown of ConvStencil's
//! optimizations (variants I–V) on Heat-1D, Box-2D9P and Box-3D27P.
//!
//! Bars are modelled GStencils/s projected to the paper's Table 4 sizes;
//! the percentages are the incremental speedup of each optimization, the
//! quantity Fig. 6 annotates.

use convstencil::{ConvStencil1D, ConvStencil2D, ConvStencil3D, RunReport, VariantConfig};
use convstencil_baselines::ProblemSize;
use convstencil_bench::report::{banner, fmt_delta_pct, render_table};
use convstencil_bench::{project_report, quick_mode, workload_for, BenchRecord};
use std::time::Instant;
use stencil_core::{Grid1D, Grid2D, Grid3D, Shape};
use tcu_sim::DeviceConfig;

fn run_variant(shape: Shape, size: ProblemSize, steps: usize, variant: VariantConfig) -> RunReport {
    match (shape.dim(), size) {
        (1, ProblemSize::D1(n)) => {
            let k = shape.kernel1d().unwrap();
            let mut g = Grid1D::new(n, k.radius());
            g.fill_random(7);
            ConvStencil1D::try_new(k)
                .expect("shipped kernels plan")
                .with_variant(variant)
                .try_run(&g, steps)
                .expect("the simulated run succeeds")
                .1
        }
        (2, ProblemSize::D2(m, n)) => {
            let k = shape.kernel2d().unwrap();
            let mut g = Grid2D::new(m, n, k.radius());
            g.fill_random(7);
            ConvStencil2D::try_new(k)
                .expect("shipped kernels plan")
                .with_variant(variant)
                .try_run(&g, steps)
                .expect("the simulated run succeeds")
                .1
        }
        (3, ProblemSize::D3(d, m, n)) => {
            let k = shape.kernel3d().unwrap();
            let mut g = Grid3D::new(d, m, n, k.radius());
            g.fill_random(7);
            ConvStencil3D::try_new(k)
                .expect("shipped kernels plan")
                .with_variant(variant)
                .try_run(&g, steps)
                .expect("the simulated run succeeds")
                .1
        }
        _ => unreachable!(),
    }
}

fn main() {
    let cfg = DeviceConfig::a100();
    let quick = quick_mode();
    print!(
        "{}",
        banner("Figure 6: Performance breakdown of ConvStencil")
    );
    // Paper's incremental speedups, for reference in the output:
    // Heat-1D: 22%, 76%, 1%, 4% | Box-2D9P: 170%, 68%, 14%, 19% |
    // Box-3D27P: 67%, 44%, 10%, 13%.
    let paper_deltas = [
        ("Heat-1D", ["-", "+22%", "+76%", "+1%", "+4%"]),
        ("Box-2D9P", ["-", "+170%", "+68%", "+14%", "+19%"]),
        ("Box-3D27P", ["-", "+67%", "+44%", "+10%", "+13%"]),
    ];
    let mut bench_records: Vec<BenchRecord> = Vec::new();
    for (si, shape) in [Shape::Heat1D, Shape::Box2D9P, Shape::Box3D27P]
        .iter()
        .enumerate()
    {
        let mut w = workload_for(*shape);
        if quick {
            w = w.quick();
        }
        let mut rows = vec![vec![
            "Variant".to_string(),
            "GStencils/s (projected)".to_string(),
            "Step speedup".to_string(),
            "Paper".to_string(),
        ]];
        let mut prev: Option<f64> = None;
        let variants = VariantConfig::breakdown();
        let last_variant = variants.len() - 1;
        for (vi, (name, variant)) in variants.into_iter().enumerate() {
            let run_start = Instant::now();
            let report = run_variant(*shape, w.measure_size, w.measure_steps, variant);
            let wall_ms = run_start.elapsed().as_secs_f64() * 1e3;
            let proj = project_report(&report, &cfg, w.paper_size.points(), w.paper_iters);
            // One BENCH record per shape, for the fully-optimized variant.
            if vi == last_variant {
                bench_records.push(BenchRecord {
                    workload: shape.name().to_string(),
                    modeled_ms: report.cost.total * 1e3,
                    wall_ms,
                    gstencils_per_sec: proj.gstencils_per_sec,
                    counters: report.counters,
                });
            }
            let delta = prev
                .map(|p| fmt_delta_pct(proj.gstencils_per_sec, p))
                .unwrap_or_else(|| "-".to_string());
            rows.push(vec![
                name.to_string(),
                format!("{:.1}", proj.gstencils_per_sec),
                delta,
                paper_deltas[si].1[vi].to_string(),
            ]);
            prev = Some(proj.gstencils_per_sec);
        }
        print!("{}", banner(shape.name()));
        print!("{}", render_table(&rows));
        convstencil_bench::maybe_write_csv(&format!("fig6_{}", shape.cli_name()), &rows);
    }
    convstencil_bench::maybe_write_bench_json("fig6_breakdown", &bench_records);
}
