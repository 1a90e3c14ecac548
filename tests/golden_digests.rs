//! Golden digests: the output bits and the full counter ledger of every
//! dimension x Fig. 6 variant x boundary condition at small shapes, plus
//! one chunked, checkpointed and resumed 1D runtime job.
//!
//! The table pins results bit for bit, so a refactor of the pipeline can
//! be checked without keeping a second implementation alive. Each entry
//! holds two CRC-64s: one over the padded output grid (`f64::to_bits`,
//! little-endian, halo included) and one over the ledger rendered as
//! `name=value;` pairs (`Counters::field_pairs`, then `LaunchStats`).
//! Only an intended change of outputs or ledgers may regenerate it; a
//! failure prints the whole current table.

use std::fmt::Write as _;
use std::path::PathBuf;

use convstencil_repro::convstencil::{
    ConvStencil1D, ConvStencil2D, ConvStencil3D, VariantConfig, VerifyConfig,
};
use convstencil_repro::runtime::{crc64, Job, JobPayload, Runtime, RuntimeConfig};
use convstencil_repro::stencil_core::{Boundary, Grid1D, Grid2D, Grid3D, Shape};
use convstencil_repro::tcu_sim::{Counters, LaunchStats};

/// `(case, crc64 of the output bits, crc64 of the ledger)`, one line each.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("1d/I/dirichlet", 0xf74268c41761868a, 0xbd3e6c55c94726a3),
    ("2d/I/dirichlet", 0x1656f5523d50db8c, 0xe26583a30c484040),
    ("3d-heat-3d/I/dirichlet", 0x8e9a63169169151f, 0xcba2a8278bf63795),
    ("3d-box-3d27p/I/dirichlet", 0x91a9e30e3c710e93, 0x0b11768ccd0b6e4d),
    ("1d/I/periodic", 0xb0a599e1c2f9a90b, 0xc8c447201b7500e7),
    ("2d/I/periodic", 0xa5ac97e2b6443b4d, 0x1a2509cac23a1aef),
    ("3d-heat-3d/I/periodic", 0x8c031f25eeba0c30, 0x96311991c78724d0),
    ("3d-box-3d27p/I/periodic", 0xa40eb12072684a3b, 0x69b6fd850a26b7b6),
    ("1d/II/dirichlet", 0xf74268c41761868a, 0xa49eb9fa678d6252),
    ("2d/II/dirichlet", 0x1656f5523d50db8c, 0x416a8f10c2846bb7),
    ("3d-heat-3d/II/dirichlet", 0x8e9a63169169151f, 0xdf28aa3e8a9f8dad),
    ("3d-box-3d27p/II/dirichlet", 0x91a9e30e3c710e93, 0x8cdc47d98b1df2a2),
    ("1d/II/periodic", 0xb0a599e1c2f9a90b, 0xdd733792ba6ad552),
    ("2d/II/periodic", 0xa5ac97e2b6443b4d, 0x3049c1526ed60092),
    ("3d-heat-3d/II/periodic", 0x8c031f25eeba0c30, 0xe554af9db0fba12e),
    ("3d-box-3d27p/II/periodic", 0xa40eb12072684a3b, 0x9801768dda10765b),
    ("1d/III/dirichlet", 0x6265d6cdf3ce0cbf, 0x725a3e764b0a53b2),
    ("2d/III/dirichlet", 0x6055e51b505850c3, 0x5d9d185edaca614e),
    ("3d-heat-3d/III/dirichlet", 0x3d546ecac7eb6ad9, 0xd717b25f493c2bea),
    ("3d-box-3d27p/III/dirichlet", 0xc0ed1ba5a261c84f, 0xedb7b928fa9277ce),
    ("1d/III/periodic", 0xfb9612824733944a, 0x50075b5a23446bc8),
    ("2d/III/periodic", 0x18fe1ac1b922f923, 0x650ce16c90f29cdf),
    ("3d-heat-3d/III/periodic", 0xacfdf2c00112dc54, 0x3aa0c816cc0fe6ad),
    ("3d-box-3d27p/III/periodic", 0x733b131ecec5ad59, 0xaa07b7183d5982d9),
    ("1d/IV/dirichlet", 0x6265d6cdf3ce0cbf, 0xf3ee04f76a03373a),
    ("2d/IV/dirichlet", 0x6055e51b505850c3, 0x13cff68231c8e105),
    ("3d-heat-3d/IV/dirichlet", 0x3d546ecac7eb6ad9, 0x0ddd360c874c71ec),
    ("3d-box-3d27p/IV/dirichlet", 0xc0ed1ba5a261c84f, 0xc2b767eb59f25f2e),
    ("1d/IV/periodic", 0xfb9612824733944a, 0xd1b361db024d0f40),
    ("2d/IV/periodic", 0x18fe1ac1b922f923, 0x82473d9a341ea7ea),
    ("3d-heat-3d/IV/periodic", 0xacfdf2c00112dc54, 0xb52ef741c80e689f),
    ("3d-box-3d27p/IV/periodic", 0x733b131ecec5ad59, 0x5d4a021671f099fe),
    ("1d/V/dirichlet", 0x6265d6cdf3ce0cbf, 0x49dc8ed195b1820a),
    ("2d/V/dirichlet", 0x6055e51b505850c3, 0xcee9b226dab15c38),
    ("3d-heat-3d/V/dirichlet", 0x3d546ecac7eb6ad9, 0xca9e57e0afda0e35),
    ("3d-box-3d27p/V/dirichlet", 0xc0ed1ba5a261c84f, 0x3371ebd43bb149b6),
    ("1d/V/periodic", 0xfb9612824733944a, 0xb2d19416546f5af0),
    ("2d/V/periodic", 0x18fe1ac1b922f923, 0x5599bc627da440b1),
    ("3d-heat-3d/V/periodic", 0xacfdf2c00112dc54, 0x1904c89ecce4d97e),
    ("3d-box-3d27p/V/periodic", 0x733b131ecec5ad59, 0xad7ad98c0ebf72da),
    ("ref-1d/I/dirichlet/base-halo", 0x32ae966905d590dd, 0x0000000000000000),
    ("ref-2d/I/dirichlet/base-halo", 0x450ddcf7415b7f8d, 0x0000000000000000),
    ("ref-1d/I/dirichlet/fused-halo", 0xa59bcd68401ec85a, 0x0000000000000000),
    ("ref-2d/I/dirichlet/fused-halo", 0x6172ca676e2b295b, 0x0000000000000000),
    ("ref-3d/I/dirichlet", 0xf2c0a0c9c632254e, 0x0000000000000000),
    ("ref-1d/I/periodic/base-halo", 0x120a0138aa6ab4cb, 0x0000000000000000),
    ("ref-2d/I/periodic/base-halo", 0x195b4f663cccaf04, 0x0000000000000000),
    ("ref-1d/I/periodic/fused-halo", 0x7e723a77cd096271, 0x0000000000000000),
    ("ref-2d/I/periodic/fused-halo", 0x986d27fc38eeed46, 0x0000000000000000),
    ("ref-3d/I/periodic", 0x1ee8d6f020298ac1, 0x0000000000000000),
    ("ref-1d/V/dirichlet/base-halo", 0x490c828a01c3fd2a, 0x0000000000000000),
    ("ref-2d/V/dirichlet/base-halo", 0xfdba5834997e9ade, 0x0000000000000000),
    ("ref-1d/V/dirichlet/fused-halo", 0x45dd6a795aa55d73, 0x0000000000000000),
    ("ref-2d/V/dirichlet/fused-halo", 0xdcc45aa9480b63f2, 0x0000000000000000),
    ("ref-3d/V/dirichlet", 0xf2c0a0c9c632254e, 0x0000000000000000),
    ("ref-1d/V/periodic/base-halo", 0x120a0138aa6ab4cb, 0x0000000000000000),
    ("ref-2d/V/periodic/base-halo", 0x195b4f663cccaf04, 0x0000000000000000),
    ("ref-1d/V/periodic/fused-halo", 0x7e723a77cd096271, 0x0000000000000000),
    ("ref-2d/V/periodic/fused-halo", 0x986d27fc38eeed46, 0x0000000000000000),
    ("ref-3d/V/periodic", 0x1ee8d6f020298ac1, 0x0000000000000000),
    ("job-1d/resumed", 0x9b53cf24aebf3f4c, 0x9011b76a45ddefb0),
];

fn digest(padded: &[f64], counters: &Counters, launch: &LaunchStats) -> (u64, u64) {
    let bits: Vec<u8> = padded
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let mut ledger = String::new();
    for (name, value) in counters.field_pairs() {
        write!(ledger, "{name}={value};").unwrap();
    }
    write!(
        ledger,
        "kernel_launches={};total_blocks={}",
        launch.kernel_launches, launch.total_blocks
    )
    .unwrap();
    (crc64(&bits), crc64(ledger.as_bytes()))
}

fn boundaries() -> [(&'static str, Boundary); 2] {
    [
        ("dirichlet", Boundary::Dirichlet),
        ("periodic", Boundary::Periodic),
    ]
}

/// Short variant tag: the Roman numeral of the Fig. 6 breakdown label.
fn tag(label: &str) -> &str {
    label.split(':').next().unwrap()
}

/// One-shot runs. Dirichlet grids carry the base kernel's halo, thinner
/// than the fused radius, so the re-halo step runs; periodic grids carry
/// the fused radius.
fn one_shot_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let kernel = Shape::Heat1D.kernel1d().unwrap();
            let cs = ConvStencil1D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            let halo = match boundary {
                Boundary::Dirichlet => kernel.radius(),
                Boundary::Periodic => cs.fused_kernel().radius(),
            };
            let mut grid = Grid1D::new(3000, halo);
            grid.fill_random(11);
            let (got, r) = cs.try_run(&grid, 4).unwrap();
            let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
            out.push((format!("1d/{}/{bname}", tag(label)), a, b));

            let kernel = Shape::Box2D9P.kernel2d().unwrap();
            let cs = ConvStencil2D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            let halo = match boundary {
                Boundary::Dirichlet => kernel.radius(),
                Boundary::Periodic => cs.fused_kernel().radius(),
            };
            let mut grid = Grid2D::new(40, 72, halo);
            grid.fill_random(12);
            let (got, r) = cs.try_run(&grid, 4).unwrap();
            let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
            out.push((format!("2d/{}/{bname}", tag(label)), a, b));

            for shape in [Shape::Heat3D, Shape::Box3D27P] {
                let kernel = shape.kernel3d().unwrap();
                let cs = ConvStencil3D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary);
                let mut grid = Grid3D::new(6, 12, 40, kernel.radius());
                grid.fill_random(13);
                let (got, r) = cs.try_run(&grid, 2).unwrap();
                let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
                let name = shape.name().to_lowercase();
                out.push((format!("3d-{name}/{}/{bname}", tag(label)), a, b));
            }
        }
    }
    out
}

/// CPU references of the same problems (the ledger column is zero): the
/// fused decomposition with a thin halo and with one that covers the
/// fused radius, for both the Tensor-Core and the unfused CUDA-core
/// schedules, and the periodic reference.
fn reference_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let digest_ref =
        |padded: &[f64]| digest(padded, &Counters::default(), &LaunchStats::default()).0;
    for (label, variant) in [VariantConfig::breakdown()[0], VariantConfig::breakdown()[4]] {
        for (bname, boundary) in boundaries() {
            for wide in [false, true] {
                let case = format!(
                    "{}/{bname}/{}",
                    tag(label),
                    if wide { "fused-halo" } else { "base-halo" }
                );
                let kernel = Shape::Heat1D.kernel1d().unwrap();
                let cs = ConvStencil1D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary);
                let halo = if wide { cs.fused_kernel() } else { &kernel }.radius();
                let mut grid = Grid1D::new(3000, halo);
                grid.fill_random(21);
                let got = cs.run_reference(&grid, 4);
                out.push((format!("ref-1d/{case}"), digest_ref(got.padded()), 0));

                let kernel = Shape::Box2D9P.kernel2d().unwrap();
                let cs = ConvStencil2D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary);
                let halo = if wide { cs.fused_kernel() } else { &kernel }.radius();
                let mut grid = Grid2D::new(40, 72, halo);
                grid.fill_random(22);
                let got = cs.run_reference(&grid, 4);
                out.push((format!("ref-2d/{case}"), digest_ref(got.padded()), 0));
            }
            let kernel = Shape::Heat3D.kernel3d().unwrap();
            let cs = ConvStencil3D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            let mut grid = Grid3D::new(6, 12, 40, kernel.radius());
            grid.fill_random(23);
            let got = cs.run_reference(&grid, 2);
            let case = format!("ref-3d/{}/{bname}", tag(label));
            out.push((case, digest_ref(got.padded()), 0));
        }
    }
    out
}

/// Heat-1D through the runtime: chunks of 3 steps, a checkpoint after
/// each, verified against the reference, halted after two checkpoints and
/// resumed from the newest one.
fn resumed_job_digest() -> (String, u64, u64) {
    let dir: PathBuf = std::env::temp_dir().join(format!("cs_golden_job_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kernel = Shape::Heat1D.kernel1d().unwrap();
    let runner = ConvStencil1D::try_new(kernel.clone()).unwrap();
    let mut grid = Grid1D::new(4096, kernel.radius());
    grid.fill_random(14);
    let config = RuntimeConfig {
        devices: 2,
        checkpoint_every: 3,
        checkpoint_dir: Some(dir.clone()),
        verify: Some(VerifyConfig::default()),
        halt_after_checkpoints: Some(2),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(config);
    rt.submit(Job {
        name: "golden".to_string(),
        payload: JobPayload::D1 { runner, grid },
        steps: 12,
    })
    .unwrap();
    let first = rt.run_next().unwrap().unwrap();
    assert!(first.halted, "the job must halt at its checkpoint limit");
    let (done, warnings) = rt.resume(Some("golden")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert!(!done.halted);
    assert_eq!(done.report.steps_done, 12);
    let JobPayload::D1 { grid, .. } = &done.payload else {
        panic!("the job came back with a non-1D payload");
    };
    let (a, b) = digest(
        grid.padded(),
        &done.report.counters,
        &done.report.launch_stats,
    );
    ("job-1d/resumed".to_string(), a, b)
}

#[test]
fn outputs_and_ledgers_match_the_golden_table() {
    let mut got = one_shot_digests();
    got.extend(reference_digests());
    got.push(resumed_job_digest());
    let table: String = got
        .iter()
        .map(|(name, a, b)| format!("    ({name:?}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, a, b)| (name.to_string(), a, b))
        .collect();
    assert!(
        got == want,
        "outputs or ledgers differ from the golden table; current table:\n{table}"
    );
}
