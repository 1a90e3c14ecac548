//! Criterion: one benchmark per regenerated table/figure path, at reduced
//! scale, so `cargo bench` exercises every experiment end to end. The
//! paper-formatted artifacts come from the `fig*`/`table*` binaries
//! (DESIGN.md §3); these benches time the machinery behind them.

use convstencil::model;
use convstencil::{ConvStencil1D, ConvStencil2D, VariantConfig};
use convstencil_baselines::{figure7_systems, DrStencil, ProblemSize, StencilSystem, TcStencil};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stencil_core::{Grid1D, Grid2D, Shape};

fn bench_fig6_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_breakdown");
    group.sample_size(10);
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let mut grid = Grid2D::new(128, 128, 3);
    grid.fill_random(1);
    for (name, variant) in VariantConfig::breakdown() {
        let label = name.split(':').next().unwrap().trim().to_string();
        group.bench_function(BenchmarkId::new("box2d9p_128", label), |b| {
            let cs = ConvStencil2D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant);
            b.iter(|| cs.try_run(black_box(&grid), 3).unwrap())
        });
    }
    group.finish();
}

fn bench_fig7_systems(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_sota");
    group.sample_size(10);
    for sys in figure7_systems() {
        group.bench_function(BenchmarkId::new("heat2d_96", sys.name()), |b| {
            b.iter(|| sys.run(Shape::Heat2D, ProblemSize::D2(96, 96), 3, 1))
        });
    }
    group.finish();
}

fn bench_fig8_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_vs_drstencil_t3");
    group.sample_size(10);
    for size in [128usize, 256] {
        group.bench_function(BenchmarkId::new("convstencil_heat2d", size), |b| {
            let sys = convstencil_baselines::ConvStencilSystem;
            b.iter(|| sys.run(Shape::Heat2D, ProblemSize::D2(size, size), 3, 1))
        });
        group.bench_function(BenchmarkId::new("drstencil_t3_heat2d", size), |b| {
            let sys = DrStencil::new(3);
            b.iter(|| sys.run(Shape::Heat2D, ProblemSize::D2(size, size), 3, 1))
        });
    }
    group.finish();
}

fn bench_table3_and_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("tables");
    group.bench_function("table3_closed_forms", |b| b.iter(model::table3));
    group.sample_size(10);
    group.bench_function("table5_conflict_measurement", |b| {
        b.iter(|| TcStencil.run(Shape::Heat2D, ProblemSize::D2(96, 96), 1, 1))
    });
    group.bench_function("heat1d_pipeline", |b| {
        let kernel = Shape::Heat1D.kernel1d().unwrap();
        let mut grid = Grid1D::new(1 << 15, 3);
        grid.fill_random(2);
        let cs = ConvStencil1D::try_new(kernel).unwrap();
        b.iter(|| cs.try_run(black_box(&grid), 3).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig6_variants,
    bench_fig7_systems,
    bench_fig8_pair,
    bench_table3_and_model
);
criterion_main!(benches);
