//! Ablations over ConvStencil's design choices (DESIGN.md §3/§5):
//!
//! 1. **Fusion degree** (Heat-2D): t = 1, 2, 3 — the §3.3 claim that
//!    fusing to n_k = 7 densifies the Tensor Core work.
//! 2. **Block geometry** (Box-2D49P): output rows per block — Table 4's
//!    32-row choice vs smaller/larger tiles (halo re-read vs occupancy).
//! 3. **3D z-window** (Heat-3D): sliding-window depth bz = 1 (the naive
//!    plane-per-block decomposition, which re-reads each input plane
//!    n_k times) vs the full window.

use convstencil::exec2d::{try_run_2d_applications_bc, Exec2D};
use convstencil::exec3d::{try_run_3d_applications_bc, Exec3D};
use convstencil::plan::Plan2D;
use convstencil::{ConvStencil2D, VariantConfig};
use convstencil_bench::report::{banner, render_table};
use convstencil_bench::{project_report, quick_mode};
use stencil_core::{Boundary, Grid2D, Grid3D, Shape};
use tcu_sim::{CostModel, Device, DeviceConfig};

fn main() {
    let cfg = DeviceConfig::a100();
    let quick = quick_mode();
    let size = if quick { 512 } else { 1024 };

    // --- Ablation 1: fusion degree -----------------------------------
    print!("{}", banner("Ablation: temporal fusion degree (Heat-2D)"));
    let mut rows = vec![vec![
        "fusion t".to_string(),
        "n_k".to_string(),
        "MMAs/point/step".to_string(),
        "GStencils/s (projected)".to_string(),
    ]];
    for t in 1..=3usize {
        let kernel = Shape::Heat2D.kernel2d().unwrap();
        let cs = ConvStencil2D::try_with_fusion(kernel, t).expect("shipped kernels plan");
        let mut grid = Grid2D::new(size, size, 3);
        grid.fill_random(1);
        let steps = 6; // divisible by 1, 2, 3
        let (_, report) = cs
            .try_run(&grid, steps)
            .expect("the simulated run succeeds");
        let proj = project_report(&report, &cfg, 10_240 * 10_240, 10_240);
        rows.push(vec![
            t.to_string(),
            (2 * t + 1).to_string(),
            format!(
                "{:.3}",
                report.counters.dmma_ops as f64 / (size * size) as f64 / steps as f64
            ),
            format!("{:.1}", proj.gstencils_per_sec),
        ]);
    }
    print!("{}", render_table(&rows));
    println!(
        "Fusing to n_k = 7 amortizes global traffic and fills the fragment (paper §3.3/Fig. 4)."
    );

    // --- Ablation 2: block rows --------------------------------------
    print!("{}", banner("Ablation: output rows per block (Box-2D49P)"));
    let mut rows = vec![vec![
        "block rows".to_string(),
        "tile cols (stride)".to_string(),
        "shared KiB".to_string(),
        "GStencils/s (projected)".to_string(),
    ]];
    let kernel = Shape::Box2D49P.kernel2d().unwrap();
    for br in [8usize, 16, 32, 64] {
        let variant = VariantConfig::conv_stencil();
        let plan =
            Plan2D::try_with_block(size, size, 7, br, 8, variant).expect("a valid block shape");
        if plan.layout.total * 8 > 164 * 1024 {
            rows.push(vec![
                br.to_string(),
                "-".into(),
                "exceeds shared".into(),
                "-".into(),
            ]);
            continue;
        }
        let exec = Exec2D::try_with_plan(&kernel, plan.clone(), variant)
            .expect("the plan fits the kernel");
        let mut dev = Device::a100();
        let mut grid = Grid2D::new(size, size, 3);
        grid.fill_random(2);
        let ext0 = exec
            .plan
            .try_build_ext(&grid)
            .expect("the grid halo covers the radius");
        try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet)
            .expect("the simulated run succeeds");
        let model = CostModel::new(cfg.clone());
        // Project to the paper geometry.
        let scale = (10_240.0f64 * 10_240.0) / (size * size) as f64;
        let counters = dev.counters.scaled(scale * 10_240.0);
        let stats = tcu_sim::LaunchStats {
            kernel_launches: 10_240,
            total_blocks: (dev.launch_stats.total_blocks as f64 * scale * 10_240.0) as u64,
        };
        let g = model.gstencils_per_sec(&counters, &stats, 10_240 * 10_240, 10_240);
        rows.push(vec![
            br.to_string(),
            format!("{} ({})", plan.layout.raw_cols, plan.layout.stride),
            format!("{:.0}", plan.layout.total as f64 * 8.0 / 1024.0),
            format!("{g:.1}"),
        ]);
    }
    print!("{}", render_table(&rows));
    println!("32 rows (Table 4, the 266->268 tile of Fig. 5) balances halo re-reads against shared capacity.");

    // --- Ablation 3: 3D z-window -------------------------------------
    print!("{}", banner("Ablation: 3D z-sliding window (Heat-3D)"));
    let kernel3 = Shape::Heat3D.kernel3d().unwrap();
    let (d, mn) = if quick { (8, 128) } else { (16, 256) };
    let mut rows = vec![vec![
        "z-window (output planes/block)".to_string(),
        "global reads B/pt".to_string(),
        "GStencils/s (projected)".to_string(),
    ]];
    for constrain in [true, false] {
        let mut exec = Exec3D::try_new(&kernel3, d, mn, mn, VariantConfig::conv_stencil())
            .expect("a valid 3D problem");
        if constrain {
            // bz = 1: the naive decomposition (each block one output
            // plane, re-reading its n_k input planes).
            exec.bz = 1;
        }
        let bz = exec.bz;
        let mut dev = Device::a100();
        let mut grid = Grid3D::new(d, mn, mn, 1);
        grid.fill_random(3);
        let ext0 = exec
            .try_build_ext(&grid)
            .expect("the grid halo covers the radius");
        try_run_3d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet)
            .expect("the simulated run succeeds");
        let points = (d * mn * mn) as u64;
        let model = CostModel::new(cfg.clone());
        let scale = (1024.0f64.powi(3)) / points as f64;
        let counters = dev.counters.scaled(scale * 1024.0);
        let stats = tcu_sim::LaunchStats {
            kernel_launches: 1024,
            total_blocks: (dev.launch_stats.total_blocks as f64 * scale * 1024.0) as u64,
        };
        let g = model.gstencils_per_sec(&counters, &stats, 1024u64.pow(3), 1024);
        rows.push(vec![
            bz.to_string(),
            format!(
                "{:.1}",
                dev.counters.global_read_bytes as f64 / points as f64
            ),
            format!("{g:.1}"),
        ]);
    }
    print!("{}", render_table(&rows));
    println!("The sliding window keeps plane reads ~1x instead of n_k x (DESIGN.md §4, 3D decomposition).");
}
