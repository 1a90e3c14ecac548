//! Validates the §3.1/§3.3 performance model: Eq. 13's MMA count against
//! the simulator's instruction ledger, Eq. 14 vs Eq. 15 compute times,
//! and the Tensor Core utilization claim (12.5% -> 87.5%).

use convstencil::model;
use convstencil::{ConvStencil2D, VariantConfig};
use convstencil_bench::report::{banner, render_table};
use stencil_core::{Grid2D, Shape};
use tcu_sim::DeviceConfig;

fn main() {
    let cfg = DeviceConfig::a100();
    print!(
        "{}",
        banner("Eq. 13: predicted vs measured MMA count (per fused application)")
    );
    let mut rows = vec![vec![
        "Shape".to_string(),
        "n_k".to_string(),
        "Eq. 13 N_MMA".to_string(),
        "Simulator DMMA".to_string(),
        "Match".to_string(),
    ]];
    let (m, n) = (512usize, 512usize);
    for shape in [
        Shape::Heat2D,
        Shape::Box2D9P,
        Shape::Star2D13P,
        Shape::Box2D49P,
    ] {
        let k = shape.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(k)
            .expect("shipped kernels plan")
            .with_variant(VariantConfig::conv_stencil());
        let nk = cs.fused_kernel().nk();
        let mut grid = Grid2D::new(m, n, cs.fused_kernel().radius());
        grid.fill_random(1);
        let (_, report) = cs
            .try_run(&grid, cs.fusion())
            .expect("the simulated run succeeds");
        let predicted = model::convstencil_mma_count(m, n, nk);
        rows.push(vec![
            shape.name().to_string(),
            nk.to_string(),
            predicted.to_string(),
            report.counters.dmma_ops.to_string(),
            if predicted == report.counters.dmma_ops {
                "exact".into()
            } else {
                "DIFFERS".into()
            },
        ]);
    }
    print!("{}", render_table(&rows));

    print!(
        "{}",
        banner("Eq. 14 vs Eq. 15: ConvStencil vs GEMM-based convolution compute time (10240^2)")
    );
    let mut rows = vec![vec![
        "n_k".to_string(),
        "T_compute ConvStencil (ms)".to_string(),
        "T_compute GEMM-conv (ms)".to_string(),
        "Ratio".to_string(),
    ]];
    for nk in [3usize, 5, 7] {
        let t_cs = model::convstencil_compute_time(10_240, 10_240, nk, &cfg) * 1e3;
        let t_gc = model::gemm_conv_compute_time(10_240, 10_240, nk, &cfg) * 1e3;
        rows.push(vec![
            nk.to_string(),
            format!("{t_cs:.3}"),
            format!("{t_gc:.3}"),
            format!("{:.2}x", t_gc / t_cs),
        ]);
    }
    print!("{}", render_table(&rows));

    print!(
        "{}",
        banner("Tensor Core utilization (§3.3 claim: 12.5% -> 87.5%)")
    );
    println!(
        "matrix-vector mapping: {:.1}% | dual-tessellation weight matrix (n_k = 7): {:.1}% | accumulator columns completed: {:.1}%",
        100.0 * model::weight_matrix_utilization(1),
        100.0 * model::weight_matrix_utilization(7),
        100.0 * model::accumulator_utilization(7),
    );

    print!(
        "{}",
        banner("§3.2 claim: memory reduction 70.0%-96.4% across Table 3 shapes")
    );
    let savings: Vec<f64> = model::table3().iter().map(|r| r.saving_pct).collect();
    println!(
        "min {:.1}%  max {:.1}%  (paper: 70.0% .. 96.4%)",
        savings.iter().cloned().fold(f64::INFINITY, f64::min),
        savings.iter().cloned().fold(0.0, f64::max)
    );
}
