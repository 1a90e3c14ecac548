//! One attempt ladder: a verified one-shot run is the one-device,
//! one-chunk case of a runtime job. Both climb the same same-device rung
//! (`ConvStencil::try_run_attempts`) and fall back to the same reference,
//! so under any fault plan a job on one device with `checkpoint_every: 0`
//! must equal `try_run_verified_with` at `max_retries: 1` bit for bit:
//! output, counters, launch stats, detections, retries and degradation.

use convstencil_repro::convstencil::{
    ConvStencil, ConvStencil1D, ConvStencil2D, Stencil, VerifyConfig,
};
use convstencil_repro::runtime::{Job, JobPayload, Runtime, RuntimeConfig};
use convstencil_repro::stencil_core::{Grid1D, Grid2D, HaloGrid, Shape};
use convstencil_repro::tcu_sim::FaultPlan;

const STEPS: usize = 6;

fn verify() -> VerifyConfig {
    VerifyConfig {
        max_retries: 1,
        ..VerifyConfig::default()
    }
}

/// The seven plans, each with the `(faults_detected, retries, degraded)`
/// it leads to in 1D and 2D: a clean pass; silent corruption of both
/// kinds and launch failures on every attempt, which exhaust the retry
/// and degrade; launch failures that a retry recovers from; an ECC burst
/// a retry rides out; and a device that dies at its second launch, which
/// gets no retry.
fn plans() -> Vec<(&'static str, FaultPlan, (u64, u64, bool))> {
    let quiet = FaultPlan::quiet(2);
    vec![
        ("quiet", quiet, (0, 0, false)),
        (
            "smem-corrupt 0.02",
            quiet.with_smem_corrupt_rate(0.02),
            (2, 1, true),
        ),
        (
            "dmma-flip 1.0",
            quiet.with_dmma_flip_rate(1.0),
            (2, 1, true),
        ),
        (
            "launch-fail 1.0",
            quiet.with_launch_fail_rate(1.0),
            (2, 1, true),
        ),
        (
            "launch-fail 0.3",
            quiet.with_launch_fail_rate(0.3),
            (1, 1, false),
        ),
        ("ecc-burst", quiet.with_ecc_burst(1, 1), (1, 1, false)),
        ("device-death", quiet.with_device_death_at(1), (1, 0, true)),
    ]
}

/// What both paths must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    bits: Vec<u64>,
    counters: Vec<(&'static str, u64)>,
    launches: (u64, u64),
    faults_detected: u64,
    retries: u64,
    degraded: bool,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn one_shot<K: Stencil>(runner: &ConvStencil<K>, grid: &K::Grid, plan: FaultPlan) -> Outcome {
    let (out, report) = runner
        .clone()
        .with_fault_plan(plan)
        .try_run_verified_with(grid, STEPS, verify())
        .unwrap();
    Outcome {
        bits: bits(&out.interior()),
        counters: report.counters.field_pairs().to_vec(),
        launches: (
            report.launch_stats.kernel_launches,
            report.launch_stats.total_blocks,
        ),
        faults_detected: report.faults_detected,
        retries: report.retries,
        degraded: report.degraded,
    }
}

fn job(payload: JobPayload, plan: FaultPlan) -> Outcome {
    let mut rt = Runtime::new(RuntimeConfig {
        devices: 1,
        device_faults: vec![Some(plan)],
        checkpoint_every: 0,
        verify: Some(verify()),
        ..RuntimeConfig::default()
    });
    rt.submit(Job {
        name: "ladder".to_string(),
        payload,
        steps: STEPS as u64,
    })
    .unwrap();
    let outcome = rt.run_next().unwrap().unwrap();
    let report = outcome.report;
    assert_eq!(report.steps_done, STEPS as u64);
    Outcome {
        bits: bits(&outcome.payload.interior()),
        counters: report.counters.field_pairs().to_vec(),
        launches: (
            report.launch_stats.kernel_launches,
            report.launch_stats.total_blocks,
        ),
        faults_detected: report.faults_detected,
        retries: report.retries,
        degraded: report.degraded,
    }
}

/// Run every plan both ways on `runner` and `grid`; `payload` wraps them
/// as a job payload of their dimension.
fn assert_ladders_agree<K: Stencil>(
    dim: &str,
    runner: ConvStencil<K>,
    grid: K::Grid,
    payload: fn(ConvStencil<K>, K::Grid) -> JobPayload,
) {
    for (name, plan, ladder) in plans() {
        let want = one_shot(&runner, &grid, plan);
        let got = job(payload(runner.clone(), grid.clone()), plan);
        assert_eq!(got, want, "{dim} {name}");
        let path = (want.faults_detected, want.retries, want.degraded);
        assert_eq!(path, ladder, "{dim} {name}");
    }
}

#[test]
fn a_one_device_one_chunk_job_equals_a_verified_one_shot_run_1d() {
    let runner = ConvStencil1D::try_new(Shape::Heat1D.kernel1d().unwrap()).unwrap();
    let mut grid = Grid1D::new(4096, runner.fused_kernel().radius());
    grid.fill_random(17);
    assert_ladders_agree("1d", runner, grid, |runner, grid| JobPayload::D1 {
        runner,
        grid,
    });
}

#[test]
fn a_one_device_one_chunk_job_equals_a_verified_one_shot_run_2d() {
    let runner = ConvStencil2D::try_new(Shape::Box2D9P.kernel2d().unwrap()).unwrap();
    let mut grid = Grid2D::new(48, 48, runner.fused_kernel().radius());
    grid.fill_random(18);
    assert_ladders_agree("2d", runner, grid, |runner, grid| JobPayload::D2 {
        runner,
        grid,
    });
}
