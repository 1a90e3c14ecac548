//! Integration: ConvStencil (every dimension, every Table 4 shape, every
//! optimization variant) against the naive CPU reference.

use convstencil_repro::convstencil::{
    ConvStencil1D, ConvStencil2D, ConvStencil3D, ConvStencilError, VariantConfig, MAX_NK,
};
use convstencil_repro::stencil_core::{
    reference, Boundary, Grid1D, Grid2D, Grid3D, Kernel1D, Kernel2D, Kernel3D, Shape,
};

/// Deep-interior comparison (fusion approximates a boundary ring; see
/// DESIGN.md §4).
fn assert_core_2d(got: &Grid2D, want: &Grid2D, margin: usize) {
    for x in margin..got.rows() - margin {
        for y in margin..got.cols() - margin {
            let (a, b) = (got.get(x, y), want.get(x, y));
            assert!(
                (a - b).abs() / a.abs().max(b.abs()).max(1.0) < 1e-10,
                "({x},{y}): {a} vs {b}"
            );
        }
    }
}

#[test]
fn every_2d_benchmark_shape_matches_reference() {
    for shape in [
        Shape::Heat2D,
        Shape::Box2D9P,
        Shape::Star2D13P,
        Shape::Box2D49P,
    ] {
        let kernel = shape.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid2D::new(96, 160, cs.fused_kernel().radius());
        grid.fill_random(shape.points() as u64);
        let steps = 2 * cs.fusion();
        let (got, report) = cs.try_run(&grid, steps).unwrap();
        let want = reference::run2d(&grid, &kernel, steps);
        assert_core_2d(&got, &want, steps * kernel.radius() + 1);
        assert!(report.counters.dmma_ops > 0, "{shape}");
        assert_eq!(
            report.counters.int_divmod_ops, 0,
            "{shape}: variant V has a LUT"
        );
    }
}

#[test]
fn every_variant_matches_on_2d() {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let mut grid = Grid2D::new(64, 96, 3);
    grid.fill_random(5);
    let want = reference::run2d(&grid, &kernel, 3);
    for (name, variant) in VariantConfig::breakdown() {
        let cs = ConvStencil2D::try_new(kernel.clone())
            .unwrap()
            .with_variant(variant);
        let (got, _) = cs.try_run(&grid, 3).unwrap();
        // CUDA variants run unfused (exact); TCU variants fuse (ring
        // approximation) — compare the deep interior for all.
        assert_core_2d(&got, &want, 10);
        let _ = name;
    }
}

#[test]
fn one_dimensional_shapes_match_reference() {
    for shape in [Shape::Heat1D, Shape::OneD5P] {
        let kernel = shape.kernel1d().unwrap();
        let cs = ConvStencil1D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid1D::new(10_000, cs.fused_kernel().radius());
        grid.fill_random(3);
        let steps = 2 * cs.fusion();
        let (got, _) = cs.try_run(&grid, steps).unwrap();
        let want = reference::run1d(&grid, &kernel, steps);
        let margin = steps * kernel.radius() + 1;
        for i in margin..10_000 - margin {
            let (a, b) = (got.get(i), want.get(i));
            assert!(
                (a - b).abs() / a.abs().max(1.0) < 1e-10,
                "{shape} [{i}]: {a} vs {b}"
            );
        }
    }
}

#[test]
fn three_dimensional_shapes_match_reference() {
    for shape in [Shape::Heat3D, Shape::Box3D27P] {
        let kernel = shape.kernel3d().unwrap();
        let cs = ConvStencil3D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid3D::new(12, 24, 72, 1);
        grid.fill_random(8);
        let (got, report) = cs.try_run(&grid, 3).unwrap();
        let want = reference::run3d(&grid, &kernel, 3);
        convstencil_repro::stencil_core::assert_close_default(&got.interior(), &want.interior());
        assert!(report.counters.dmma_ops > 0, "{shape}");
    }
}

#[test]
fn arbitrary_grid_shapes_are_handled() {
    // Non-divisible, skinny and tiny grids through the full pipeline.
    let kernel = Shape::Heat2D.kernel2d().unwrap();
    for (m, n) in [(33, 257), (8, 8), (100, 17), (65, 1000)] {
        let cs = ConvStencil2D::try_new(kernel.clone()).unwrap();
        let mut grid = Grid2D::new(m, n, 3);
        grid.fill_random((m * n) as u64);
        let (got, _) = cs.try_run(&grid, 3).unwrap();
        let want = reference::run2d(&grid, cs.fused_kernel(), 1);
        convstencil_repro::stencil_core::assert_close_default(&got.interior(), &want.interior());
    }
}

#[test]
fn long_runs_stay_stable() {
    // 30 steps of a sum-one kernel on a bounded field stays bounded.
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let cs = ConvStencil2D::try_new(kernel).unwrap();
    let mut grid = Grid2D::new(64, 64, 3);
    grid.fill_random(1);
    let (out, report) = cs.try_run(&grid, 30).unwrap();
    assert!(out
        .interior()
        .iter()
        .all(|v| v.is_finite() && v.abs() < 2.0));
    assert_eq!(report.steps, 30);
    assert_eq!(report.launch_stats.kernel_launches, 10); // 30 steps / fusion 3
}

/// One constructor rule in every dimension: a kernel wider than `MAX_NK`
/// is `UnsupportedNk` at any fusion degree, and `FusionTooDeep` means a
/// degree above 1 pushed an otherwise valid kernel past `MAX_NK`.
#[test]
fn constructor_validation_is_the_same_in_every_dimension() {
    let too_wide = ConvStencilError::UnsupportedNk { nk: 9 };
    let k1 = Kernel1D::new(vec![1.0 / 9.0; 9]);
    let (k2, k3) = (Kernel2D::box_uniform(4), Kernel3D::box_uniform(4));
    assert_eq!(ConvStencil1D::try_new(k1.clone()).unwrap_err(), too_wide);
    assert_eq!(ConvStencil2D::try_new(k2.clone()).unwrap_err(), too_wide);
    assert_eq!(ConvStencil3D::try_new(k3.clone()).unwrap_err(), too_wide);
    for fusion in [1, 2] {
        assert_eq!(
            ConvStencil1D::try_with_fusion(k1.clone(), fusion).unwrap_err(),
            too_wide
        );
        assert_eq!(
            ConvStencil2D::try_with_fusion(k2.clone(), fusion).unwrap_err(),
            too_wide
        );
        assert_eq!(
            ConvStencil3D::try_with_fusion(k3.clone(), fusion).unwrap_err(),
            too_wide
        );
    }
    let too_deep = ConvStencilError::FusionTooDeep {
        radius: 1,
        fusion: 4,
        max_nk: MAX_NK,
    };
    let heat1d = Shape::Heat1D.kernel1d().unwrap();
    let heat2d = Shape::Heat2D.kernel2d().unwrap();
    let heat3d = Shape::Heat3D.kernel3d().unwrap();
    assert_eq!(
        ConvStencil1D::try_with_fusion(heat1d.clone(), 4).unwrap_err(),
        too_deep
    );
    assert_eq!(
        ConvStencil2D::try_with_fusion(heat2d.clone(), 4).unwrap_err(),
        too_deep
    );
    assert_eq!(
        ConvStencil3D::try_with_fusion(heat3d.clone(), 4).unwrap_err(),
        too_deep
    );
    // The widest valid kernels are accepted; only 3D declines to fuse
    // on its own.
    assert_eq!(ConvStencil1D::try_new(heat1d).unwrap().fusion(), 3);
    assert_eq!(ConvStencil2D::try_new(heat2d).unwrap().fusion(), 3);
    assert_eq!(ConvStencil3D::try_new(heat3d).unwrap().fusion(), 1);
    assert!(ConvStencil3D::try_new(Kernel3D::box_uniform(3)).is_ok());
}

/// A 3D grid whose halo is thinner than the kernel radius runs through
/// the shared re-halo step, exactly like the same grid re-haloed by hand
/// (output, ledger and reference alike).
#[test]
fn thin_halo_3d_grid_matches_its_rehaloed_copy() {
    let kernel = Kernel3D::star(0.4, &[0.1, 0.05]);
    for boundary in [Boundary::Dirichlet, Boundary::Periodic] {
        let cs = ConvStencil3D::try_new(kernel.clone())
            .unwrap()
            .with_boundary(boundary);
        let mut thin = Grid3D::new(6, 10, 40, 1);
        thin.fill_random(5);
        let wide = thin.with_halo(kernel.radius());
        let (got, got_report) = cs.try_run(&thin, 2).unwrap();
        let (want, want_report) = cs.try_run(&wide, 2).unwrap();
        assert_eq!(got.halo(), 1);
        assert_eq!(got.interior(), want.interior(), "{boundary:?}");
        assert_eq!(got_report.counters, want_report.counters);
        assert_eq!(got_report.launch_stats, want_report.launch_stats);
        assert_eq!(
            cs.run_reference(&thin, 2).interior(),
            cs.run_reference(&wide, 2).interior()
        );
    }
}
