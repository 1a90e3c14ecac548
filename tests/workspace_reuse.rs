//! A runner recycles the host working arrays of its one-shot runs (from
//! its second run on). Recycled storage must never show through: every
//! run of one long-lived runner, over grids of changing contents and
//! shapes, after failed runs too, must equal the run of a new runner bit
//! for bit, ledger and launch shape included.

use convstencil_repro::convstencil::{
    ConvStencil, ConvStencil1D, ConvStencil2D, ConvStencil3D, ConvStencilError, Exec1D, Exec2D,
    Exec3D, Stencil, VariantConfig,
};
use convstencil_repro::stencil_core::{Boundary, Grid1D, Grid2D, Grid3D, HaloGrid, Shape};
use convstencil_repro::tcu_sim::{DeviceError, FaultPlan};

fn bits<G: HaloGrid>(grid: &G) -> Vec<u64> {
    grid.padded().iter().map(|v| v.to_bits()).collect()
}

/// Run `grid` on the long-lived runner `kept` and on a new runner from
/// `make`; both must agree in output bits, counters and launch shape.
fn assert_matches_fresh<K: Stencil>(
    case: &str,
    kept: &ConvStencil<K>,
    make: &impl Fn() -> ConvStencil<K>,
    grid: &K::Grid,
    steps: usize,
) {
    let (got, report) = kept.try_run(grid, steps).unwrap();
    let (want, fresh) = make().try_run(grid, steps).unwrap();
    assert!(bits(&got) == bits(&want), "{case}: output bits differ");
    assert_eq!(report.counters, fresh.counters, "{case}: counters");
    assert_eq!(
        report.launch_stats, fresh.launch_stats,
        "{case}: launch stats"
    );
}

/// Grid A, grid B of the same shape twice (the runner keeps its arrays
/// from its second run on, so the third run is the first to reuse them at
/// one shape), then a grid of another shape, then the first shape again.
fn sequence<K: Stencil>(
    case: &str,
    make: impl Fn() -> ConvStencil<K>,
    grids: &[K::Grid],
    steps: usize,
) {
    let kept = make();
    for (i, grid) in grids.iter().enumerate() {
        assert_matches_fresh(&format!("{case} run {i}"), &kept, &make, grid, steps);
    }
}

fn boundaries() -> [(&'static str, Boundary); 2] {
    [
        ("dirichlet", Boundary::Dirichlet),
        ("periodic", Boundary::Periodic),
    ]
}

/// Dirichlet grids carry the base kernel's halo (the re-halo path runs),
/// periodic grids the fused radius.
fn halo<K: Stencil>(cs: &ConvStencil<K>, boundary: Boundary) -> usize {
    match boundary {
        Boundary::Dirichlet => cs.base_kernel().radius(),
        Boundary::Periodic => cs.fused_kernel().radius(),
    }
}

#[test]
fn reuse_matches_fresh_runners_1d() {
    let kernel = Shape::Heat1D.kernel1d().unwrap();
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let make = || {
                ConvStencil1D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary)
            };
            let h = halo(&make(), boundary);
            let grids: Vec<Grid1D> = [(3000, 1), (3000, 2), (3000, 3), (1700, 4), (3000, 5)]
                .into_iter()
                .map(|(n, seed)| {
                    let mut g = Grid1D::new(n, h);
                    g.fill_random(seed);
                    g
                })
                .collect();
            sequence(&format!("1d {label} {bname}"), make, &grids, 4);
        }
    }
}

#[test]
fn reuse_matches_fresh_runners_2d() {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let make = || {
                ConvStencil2D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary)
            };
            let h = halo(&make(), boundary);
            let shapes = [
                (40, 72, 1),
                (40, 72, 2),
                (40, 72, 3),
                (56, 40, 4),
                (40, 72, 5),
            ];
            let grids: Vec<Grid2D> = shapes
                .into_iter()
                .map(|(m, n, seed)| {
                    let mut g = Grid2D::new(m, n, h);
                    g.fill_random(seed);
                    g
                })
                .collect();
            sequence(&format!("2d {label} {bname}"), make, &grids, 4);
        }
    }
}

#[test]
fn reuse_matches_fresh_runners_3d() {
    let kernel = Shape::Box3D27P.kernel3d().unwrap();
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let make = || {
                ConvStencil3D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary)
            };
            let h = halo(&make(), boundary);
            let shapes = [
                (6, 12, 40, 1),
                (6, 12, 40, 2),
                (6, 12, 40, 3),
                (4, 16, 24, 4),
                (6, 12, 40, 5),
            ];
            let grids: Vec<Grid3D> = shapes
                .into_iter()
                .map(|(d, m, n, seed)| {
                    let mut g = Grid3D::new(d, m, n, h);
                    g.fill_random(seed);
                    g
                })
                .collect();
            sequence(&format!("3d {label} {bname}"), make, &grids, 2);
        }
    }
}

/// Warm a runner up to reuse, kill its device part-way through a run,
/// then run clean on the same runner: the failure keeps its typed
/// variant and the clean run equals a new runner's.
fn failed_run_then_clean<K: Stencil>(
    case: &str,
    make: impl Fn() -> ConvStencil<K>,
    grid: &K::Grid,
    steps: usize,
) {
    let quiet = FaultPlan::quiet(7);
    let make_quiet = || make().with_fault_plan(quiet);
    let mut kept = make_quiet();
    for _ in 0..2 {
        kept.try_run(grid, steps).unwrap();
    }
    // Launch attempt 0 completes, attempt 1 finds the device dead.
    kept = kept.with_fault_plan(quiet.with_device_death_at(1));
    match kept.try_run(grid, steps) {
        Err(ConvStencilError::Device(DeviceError::DeviceLost { launch_attempt: 1 })) => {}
        other => panic!("{case}: expected DeviceLost at attempt 1, got {other:?}"),
    }
    kept = kept.with_fault_plan(quiet);
    assert_matches_fresh(case, &kept, &make_quiet, grid, steps);
}

#[test]
fn clean_run_after_a_device_death_matches_a_fresh_runner() {
    for (label, variant) in [
        ("V", VariantConfig::conv_stencil()),
        ("I", VariantConfig::explicit_cuda()),
    ] {
        for (bname, boundary) in boundaries() {
            let k1 = Shape::Heat1D.kernel1d().unwrap();
            let make1 = || {
                ConvStencil1D::try_new(k1.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary)
            };
            let mut g1 = Grid1D::new(3000, halo(&make1(), boundary));
            g1.fill_random(21);
            failed_run_then_clean(&format!("1d {label} {bname}"), make1, &g1, 6);

            let k2 = Shape::Box2D9P.kernel2d().unwrap();
            let make2 = || {
                ConvStencil2D::try_new(k2.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary)
            };
            let mut g2 = Grid2D::new(40, 72, halo(&make2(), boundary));
            g2.fill_random(22);
            failed_run_then_clean(&format!("2d {label} {bname}"), make2, &g2, 6);

            let k3 = Shape::Box3D27P.kernel3d().unwrap();
            let make3 = || {
                ConvStencil3D::try_new(k3.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary)
            };
            let mut g3 = Grid3D::new(6, 12, 40, halo(&make3(), boundary));
            g3.fill_random(23);
            failed_run_then_clean(&format!("3d {label} {bname}"), make3, &g3, 2);
        }
    }
}

/// Storage left over from an earlier, larger transform, poisoned with NaN.
fn stale(len: usize) -> Vec<f64> {
    vec![f64::NAN; len + 4096]
}

fn assert_shape_mismatch(case: &str, res: Result<(), ConvStencilError>) {
    assert!(
        matches!(res, Err(ConvStencilError::ShapeMismatch { .. })),
        "{case}: expected ShapeMismatch, got {res:?}"
    );
}

/// A transform into recycled storage that fails on a wrong shape leaves
/// the storage as it was; the next transform into it equals a transform
/// into new storage.
#[test]
fn build_ext_into_recycled_storage_after_a_shape_mismatch() {
    let v = VariantConfig::conv_stencil();

    let exec = Exec1D::try_new(&Shape::Heat1D.kernel1d().unwrap(), 500, v).unwrap();
    let mut grid = Grid1D::new(500, 1);
    grid.fill_random(31);
    let mut ext = stale(exec.plan.ext_len);
    let before = ext.len();
    let res = exec.plan.try_build_ext_into(&Grid1D::new(499, 1), &mut ext);
    assert_shape_mismatch("1d", res);
    assert_eq!(ext.len(), before, "1d: a failed transform resized");
    exec.plan.try_build_ext_into(&grid, &mut ext).unwrap();
    let fresh = exec.plan.try_build_ext(&grid).unwrap();
    assert!(ext
        .iter()
        .map(|v| v.to_bits())
        .eq(fresh.iter().map(|v| v.to_bits())));

    let exec = Exec2D::try_new(&Shape::Box2D9P.kernel2d().unwrap(), 40, 72, v).unwrap();
    let mut grid = Grid2D::new(40, 72, 1);
    grid.fill_random(32);
    let mut ext = stale(exec.plan.ext_rows * exec.plan.ext_cols);
    let res = exec
        .plan
        .try_build_ext_into(&Grid2D::new(40, 71, 1), &mut ext);
    assert_shape_mismatch("2d", res);
    exec.plan.try_build_ext_into(&grid, &mut ext).unwrap();
    let fresh = exec.plan.try_build_ext(&grid).unwrap();
    assert!(ext
        .iter()
        .map(|v| v.to_bits())
        .eq(fresh.iter().map(|v| v.to_bits())));

    let exec = Exec3D::try_new(&Shape::Box3D27P.kernel3d().unwrap(), 6, 12, 40, v).unwrap();
    let mut grid = Grid3D::new(6, 12, 40, 1);
    grid.fill_random(33);
    let mut ext = stale(exec.ext_planes() * exec.plane_size());
    let res = exec.try_build_ext_into(&Grid3D::new(5, 12, 40, 1), &mut ext);
    assert_shape_mismatch("3d", res);
    exec.try_build_ext_into(&grid, &mut ext).unwrap();
    let fresh = exec.try_build_ext(&grid).unwrap();
    assert!(ext
        .iter()
        .map(|v| v.to_bits())
        .eq(fresh.iter().map(|v| v.to_bits())));
}
