//! Integration tests for deterministic fault injection (`tcu_sim::fault`)
//! and verified-retry execution (`convstencil::api`): seeded faults must
//! reproduce bit-for-bit, verified mode must detect injected corruption
//! and recover, and the degraded path must fall back to the naive
//! reference.

use convstencil_repro::convstencil::{ConvStencil2D, VerifyConfig};
use convstencil_repro::stencil_core::{check_close_default, reference, Boundary, Grid2D, Shape};
use convstencil_repro::tcu_sim::FaultPlan;

fn heat2d_runner() -> ConvStencil2D {
    ConvStencil2D::try_new(Shape::Heat2D.kernel2d().unwrap()).unwrap()
}

fn test_grid(m: usize, n: usize, halo: usize, seed: u64) -> Grid2D {
    let mut g = Grid2D::new(m, n, halo);
    g.fill_random(seed);
    g
}

/// Exhaustive verification: every element checked, up to 3 retries.
fn full_check(max_retries: u64) -> VerifyConfig {
    VerifyConfig {
        sample_tiles: 0,
        max_retries,
        ..VerifyConfig::default()
    }
}

#[test]
fn same_seed_reproduces_faults_bit_for_bit() {
    let plan = FaultPlan::quiet(0xFA17).with_dmma_flip_rate(0.01);
    let cs = heat2d_runner().with_fault_plan(plan);
    let grid = test_grid(48, 64, 3, 7);
    let (out_a, rep_a) = cs.try_run(&grid, 3).unwrap();
    let (out_b, rep_b) = cs.try_run(&grid, 3).unwrap();
    assert!(rep_a.faults_injected > 0, "plan should actually fire");
    assert_eq!(rep_a.faults_injected, rep_b.faults_injected);
    assert_eq!(rep_a.counters, rep_b.counters);
    // Bit-for-bit identical corrupted output.
    assert_eq!(out_a.interior(), out_b.interior());
}

#[test]
fn different_seeds_fault_differently() {
    let grid = test_grid(48, 64, 3, 7);
    let run = |seed: u64| {
        let plan = FaultPlan::quiet(seed).with_dmma_flip_rate(0.01);
        heat2d_runner()
            .with_fault_plan(plan)
            .try_run(&grid, 3)
            .unwrap()
            .0
            .interior()
    };
    assert_ne!(run(1), run(2), "distinct seeds should corrupt differently");
}

#[test]
fn injected_corruption_actually_corrupts() {
    let grid = test_grid(48, 64, 3, 7);
    let clean = heat2d_runner().try_run(&grid, 3).unwrap().0;
    let plan = FaultPlan::quiet(0xBAD).with_dmma_flip_rate(0.01);
    let faulty = heat2d_runner()
        .with_fault_plan(plan)
        .try_run(&grid, 3)
        .unwrap()
        .0;
    assert!(
        check_close_default(&clean.interior(), &faulty.interior()).is_err(),
        "injected faults should be visible in the output"
    );
}

#[test]
fn verified_mode_detects_and_recovers() {
    let grid = test_grid(48, 64, 3, 7);
    let want = reference::run2d(&grid, heat2d_runner().fused_kernel(), 1);
    let mut recovered_after_detection = false;
    for seed in 0..24u64 {
        let plan = FaultPlan::quiet(seed).with_dmma_flip_rate(0.002);
        let cs = heat2d_runner().with_fault_plan(plan);
        let (out, report) = cs.try_run_verified_with(&grid, 3, full_check(3)).unwrap();
        assert!(report.verified);
        // Whatever happened — clean run, detect+retry, or degrade — the
        // returned grid must match the ground truth everywhere.
        check_close_default(&out.interior(), &want.interior())
            .unwrap_or_else(|e| panic!("seed {seed}: verified output wrong: {e}"));
        if report.faults_detected > 0 && report.retries > 0 && !report.degraded {
            recovered_after_detection = true;
        }
    }
    assert!(
        recovered_after_detection,
        "no seed in the sweep exercised the detect-then-recover path"
    );
}

#[test]
fn certain_launch_failure_degrades_to_reference() {
    let plan = FaultPlan::quiet(3).with_launch_fail_rate(1.0);
    let cs = heat2d_runner().with_fault_plan(plan);
    let grid = test_grid(40, 56, 3, 11);
    let (out, report) = cs.try_run_verified_with(&grid, 3, full_check(2)).unwrap();
    assert!(report.degraded, "every launch fails; must degrade");
    assert!(report.verified);
    assert_eq!(report.retries, 2);
    assert!(
        report.faults_detected >= 3,
        "each attempt counts a detection"
    );
    // The degraded result IS the naive reference.
    let want = reference::run2d(&grid, heat2d_runner().fused_kernel(), 1);
    check_close_default(&out.interior(), &want.interior()).unwrap();
}

#[test]
fn quiet_plan_changes_nothing() {
    let grid = test_grid(32, 48, 3, 5);
    let clean = heat2d_runner().try_run(&grid, 3).unwrap();
    let quiet = heat2d_runner()
        .with_fault_plan(FaultPlan::quiet(9))
        .try_run(&grid, 3)
        .unwrap();
    assert_eq!(clean.0.interior(), quiet.0.interior());
    assert_eq!(quiet.1.faults_injected, 0);
}

#[test]
fn verified_periodic_boundary_matches_torus_reference() {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let cs = ConvStencil2D::try_new(kernel.clone())
        .unwrap()
        .with_boundary(Boundary::Periodic)
        .with_fault_plan(FaultPlan::quiet(21).with_smem_corrupt_rate(0.0005));
    let mut grid = Grid2D::new(24, 40, 1);
    grid.fill_random(13);
    let (out, report) = cs.try_run_verified_with(&grid, 2, full_check(3)).unwrap();
    assert!(report.verified);
    let want = convstencil_repro::stencil_core::run2d_periodic(&grid, &kernel, 2);
    check_close_default(&out.interior(), &want.interior()).unwrap();
}

#[test]
fn sanitizer_localizes_injected_smem_corruption() {
    // Cross-validation of the fault layer against the sanitizer's shadow
    // memory: every injected shared-memory corruption must surface as a
    // recorded fault site in the scatter phase — localized, counted
    // exactly, and without polluting the violation report (a corrupted
    // *value* is still a *written* word).
    use convstencil_repro::tcu_sim::Phase;
    let plan = FaultPlan::quiet(7).with_smem_corrupt_rate(0.01);
    let cs = heat2d_runner().with_fault_plan(plan).with_sanitizer(true);
    let grid = test_grid(48, 64, 3, 7);
    let (_, report) = cs.try_run(&grid, 3).unwrap();
    let san = report.sanitizer.expect("sanitizer report requested");
    assert!(
        report.counters.smem_faults_injected > 0,
        "plan should actually fire"
    );
    assert_eq!(
        san.fault_sites.len() as u64,
        report.counters.smem_faults_injected,
        "every injected corruption must be localized"
    );
    assert!(san
        .fault_sites
        .iter()
        .all(|s| s.phase == Phase::SmemScatter));
    assert!(san.is_clean(), "corruption is not a coverage violation");
}
