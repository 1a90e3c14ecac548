//! Integration tests for the stencil sanitizer: the dynamic
//! shadow-memory checker (`tcu_sim::sanitize`) and the static plan
//! verifier (`convstencil::verify_plan`).
//!
//! The shipped 1D/2D/3D kernels must run *clean* — zero
//! initcheck/memcheck/racecheck findings and zero bank-conflict replays
//! on load phases (the paper's §3.4 Conflicts-Removal claim, Table 5's
//! "BC/R ~ 0"). The unpadded variant III is the negative control: the
//! sanitizer must flag its strided fragment loads with exactly the
//! conflicts the device ledger counts.

use convstencil_repro::convstencil::{
    ConvStencil1D, ConvStencil2D, ConvStencil3D, ConvStencilError, Exec2D, VariantConfig,
};
use convstencil_repro::stencil_core::{Grid1D, Grid2D, Grid3D, Kernel1D, Kernel2D, Kernel3D};
use convstencil_repro::tcu_sim::ViolationKind;

fn grid2d(m: usize, n: usize, halo: usize) -> Grid2D {
    Grid2D::from_fn(m, n, halo, |x, y| ((x * 31 + y * 7) % 97) as f64 * 0.25)
}

#[test]
fn shipped_1d_kernel_runs_clean_under_sanitizer() {
    let kernel = Kernel1D::new(vec![0.25, 0.5, 0.25]);
    let line = Grid1D::from_fn(4096, kernel.radius(), |i| (i % 31) as f64);
    let (_, report) = ConvStencil1D::try_new(kernel)
        .unwrap()
        .with_sanitizer(true)
        .try_run(&line, 2)
        .unwrap();
    let san = report.sanitizer.expect("sanitizer report requested");
    assert!(san.is_clean(), "1D violations:\n{}", san.render());
    assert_eq!(
        san.load_conflicts.iter().sum::<u64>(),
        0,
        "1D load phases must be bank-conflict free"
    );
}

#[test]
fn shipped_2d_kernel_runs_clean_under_sanitizer() {
    let kernel = Kernel2D::box_uniform(1);
    // 70 rows: the last block stages a partial tile, exercising the
    // partial-rows exemption geometry.
    let grid = grid2d(70, 96, 1);
    let (_, report) = ConvStencil2D::try_new(kernel)
        .unwrap()
        .with_sanitizer(true)
        .try_run(&grid, 2)
        .unwrap();
    let san = report.sanitizer.expect("sanitizer report requested");
    assert!(san.is_clean(), "2D violations:\n{}", san.render());
    assert_eq!(
        san.load_conflicts.iter().sum::<u64>(),
        0,
        "2D load phases must be bank-conflict free (Fig. 5 padding)"
    );
    assert_eq!(report.counters.shared_read_conflicts, 0);
}

#[test]
fn shipped_3d_kernel_runs_clean_under_sanitizer() {
    let kernel = Kernel3D::box_uniform(1);
    let vol = Grid3D::from_fn(24, 24, 48, kernel.radius(), |x, y, z| {
        ((x * 7 + y * 3 + z) % 53) as f64
    });
    let (_, report) = ConvStencil3D::try_new(kernel)
        .unwrap()
        .with_sanitizer(true)
        .try_run(&vol, 1)
        .unwrap();
    let san = report.sanitizer.expect("sanitizer report requested");
    assert!(san.is_clean(), "3D violations:\n{}", san.render());
    assert_eq!(san.load_conflicts.iter().sum::<u64>(), 0);
}

#[test]
fn breakdown_variants_split_exactly_on_padding() {
    // The sanitizer reproduces Table 5's banking story: every variant's
    // memory coverage is sound, but only the padded layouts (IV, V) are
    // replay free — unpadded TCU loads (III, and the raw strides of
    // I/II) are flagged.
    let grid = grid2d(64, 96, 1);
    for (name, variant) in VariantConfig::breakdown() {
        let (_, report) = ConvStencil2D::try_new(Kernel2D::box_uniform(1))
            .unwrap()
            .with_variant(variant)
            .with_sanitizer(true)
            .try_run(&grid, 1)
            .unwrap();
        let san = report.sanitizer.unwrap();
        assert_eq!(
            san.init_total + san.mem_total + san.race_total,
            0,
            "variant {name} coverage findings:\n{}",
            san.render()
        );
        if variant.padding {
            assert!(
                san.is_clean(),
                "variant {name} violations:\n{}",
                san.render()
            );
        } else if variant.use_tcu {
            assert!(
                san.bank_total > 0,
                "unpadded TCU variant {name} must be flagged"
            );
        }
    }
}

#[test]
fn unpadded_variant_iii_is_flagged_by_bankcheck() {
    // Variant III: TCU compute on the raw (unpadded) stride — the exact
    // layout Fig. 5 shows causing strided-load bank conflicts.
    let grid = grid2d(64, 96, 1);
    let (_, report) = ConvStencil2D::try_new(Kernel2D::box_uniform(1))
        .unwrap()
        .with_variant(VariantConfig::implicit_tcu())
        .with_sanitizer(true)
        .try_run(&grid, 1)
        .unwrap();
    let san = report.sanitizer.unwrap();
    assert!(!san.is_clean(), "unpadded strided loads must be flagged");
    assert!(san.bank_total > 0);
    assert_eq!(
        san.bank_total, report.counters.shared_read_conflicts,
        "bankcheck must agree with the device conflict ledger"
    );
    assert!(san
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::BankCheck));
    // Bankcheck is the only dirty laundry: coverage itself is sound.
    assert_eq!(san.init_total + san.mem_total + san.race_total, 0);
}

#[test]
fn sanitizer_off_means_no_report_and_no_shadow_cost() {
    let grid = grid2d(40, 64, 1);
    let runner = ConvStencil2D::try_new(Kernel2D::box_uniform(1)).unwrap();
    let (out_plain, report) = runner.try_run(&grid, 2).unwrap();
    assert!(report.sanitizer.is_none(), "no report unless requested");
    // Sanitizing is observe-only: identical results and ledger.
    let (out_san, report_san) = runner
        .clone()
        .with_sanitizer(true)
        .try_run(&grid, 2)
        .unwrap();
    assert_eq!(report.counters, report_san.counters);
    for x in 0..grid.rows() {
        for y in 0..grid.cols() {
            assert_eq!(out_plain.get(x, y).to_bits(), out_san.get(x, y).to_bits());
        }
    }
}

#[test]
fn static_verifier_rejects_mutated_lut_before_launch() {
    let variant = VariantConfig::conv_stencil();
    let mut exec = Exec2D::try_new(&Kernel2D::box_uniform(1), 64, 64, variant).unwrap();
    exec.verify().expect("shipped plan must verify");
    let lane = exec.plan.pre;
    let old = exec.lut().get(2, lane);
    exec.lut_mut().set(2, lane, [old[0] ^ 1, old[1]]);
    let err = exec.verify().unwrap_err();
    assert!(matches!(err, ConvStencilError::PlanInvalid { .. }));
}
