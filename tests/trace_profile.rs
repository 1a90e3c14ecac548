//! Integration tests for the observability layer: per-phase span tracing
//! (`tcu_sim::trace`), profile rollups (`convstencil::profile`), and the
//! JSONL export format.
//!
//! The load-bearing invariant: a traced run's span counter deltas sum
//! *exactly* to the run's ledger (`RunReport::counters`) — in every
//! dimensionality, and through verified-retry execution with injected
//! faults, where host-side Verify/Retry spans carry zero counters and
//! aborted launches contribute a `launch_fault` span.
//!
//! Span `wall_ns` is measured: each block timestamps its phase switches,
//! and a launch's phase spans never hold more time than the launch took.

use convstencil_repro::convstencil::exec2d::{try_run_2d_applications_bc, Exec2D};
use convstencil_repro::convstencil::profile::Profile;
use convstencil_repro::convstencil::{
    ConvStencil1D, ConvStencil2D, ConvStencil3D, RunReport, VariantConfig, VerifyConfig,
};
use convstencil_repro::stencil_core::{Boundary, Grid1D, Grid2D, Grid3D, Shape};
use convstencil_repro::tcu_sim::{Device, FaultPlan, Phase, Trace};
use std::time::{Duration, Instant};

fn assert_spans_sum_to_ledger(report: &RunReport) -> Trace {
    let trace = report.trace.clone().expect("tracing was enabled");
    assert!(!trace.is_empty(), "traced run produced no spans");
    assert_eq!(
        trace.total_counters(),
        report.counters,
        "span counter deltas must sum exactly to the run ledger"
    );
    trace
}

#[test]
fn traced_1d_run_spans_sum_to_report_counters() {
    let mut g = Grid1D::new(4000, 3);
    g.fill_random(5);
    let cs = ConvStencil1D::try_new(Shape::Heat1D.kernel1d().unwrap())
        .unwrap()
        .with_tracing(true);
    let (_, report) = cs.try_run(&g, 3).unwrap();
    let trace = assert_spans_sum_to_ledger(&report);
    assert!(trace
        .spans
        .iter()
        .any(|s| s.phase == Phase::Tessellation && s.counters.dmma_ops > 0));
}

#[test]
fn traced_2d_run_spans_sum_to_report_counters() {
    let mut g = Grid2D::new(96, 96, 3);
    g.fill_random(11);
    let cs = ConvStencil2D::try_new(Shape::Box2D9P.kernel2d().unwrap())
        .unwrap()
        .with_tracing(true);
    let (_, report) = cs.try_run(&g, 4).unwrap();
    let trace = assert_spans_sum_to_ledger(&report);
    for phase in [Phase::SmemScatter, Phase::Tessellation, Phase::Epilogue] {
        assert!(
            trace.spans.iter().any(|s| s.phase == phase),
            "missing phase {phase:?}"
        );
    }
}

#[test]
fn traced_3d_run_spans_sum_to_report_counters() {
    let mut g = Grid3D::new(8, 16, 24, 1);
    g.fill_random(3);
    let cs = ConvStencil3D::try_new(Shape::Heat3D.kernel3d().unwrap())
        .unwrap()
        .with_tracing(true);
    let (_, report) = cs.try_run(&g, 2).unwrap();
    assert_spans_sum_to_ledger(&report);
}

#[test]
fn untraced_run_carries_no_trace() {
    let mut g = Grid2D::new(64, 64, 3);
    g.fill_random(1);
    let cs = ConvStencil2D::try_new(Shape::Box2D9P.kernel2d().unwrap()).unwrap();
    let (_, report) = cs.try_run(&g, 2).unwrap();
    assert!(report.trace.is_none());
}

#[test]
fn verified_run_with_faults_keeps_the_sum_invariant() {
    let mut g = Grid2D::new(64, 64, 3);
    g.fill_random(7);
    let cs = ConvStencil2D::try_new(Shape::Heat2D.kernel2d().unwrap())
        .unwrap()
        .with_tracing(true)
        .with_fault_plan(FaultPlan::quiet(0xFA17).with_dmma_flip_rate(0.01));
    let cfg = VerifyConfig {
        sample_tiles: 0,
        max_retries: 3,
        ..VerifyConfig::default()
    };
    let (_, report) = cs.try_run_verified_with(&g, 3, cfg).unwrap();
    assert!(report.verified);
    let trace = assert_spans_sum_to_ledger(&report);
    // Host-side verify spans are present and carry zero device work.
    let verify_spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.phase == Phase::Verify)
        .collect();
    assert!(!verify_spans.is_empty());
    for s in &verify_spans {
        assert_eq!(s.counters, Default::default());
    }
    // Every retry left a marker span.
    let retry_marks = trace
        .spans
        .iter()
        .filter(|s| s.phase == Phase::Retry)
        .count() as u64;
    assert_eq!(retry_marks, report.retries);
}

#[test]
fn injected_launch_failures_appear_as_launch_fault_spans() {
    let mut g = Grid2D::new(64, 64, 3);
    g.fill_random(2);
    let cs = ConvStencil2D::try_new(Shape::Heat2D.kernel2d().unwrap())
        .unwrap()
        .with_tracing(true)
        .with_fault_plan(FaultPlan::quiet(3).with_launch_fail_rate(1.0));
    let cfg = VerifyConfig {
        max_retries: 1,
        ..VerifyConfig::default()
    };
    // Every launch fails, so verified execution degrades to the
    // reference; the trace must still account for the aborted launches.
    let (_, report) = cs.try_run_verified_with(&g, 3, cfg).unwrap();
    assert!(report.degraded);
    let trace = assert_spans_sum_to_ledger(&report);
    let faults: u64 = trace
        .spans
        .iter()
        .filter(|s| s.phase == Phase::LaunchFault)
        .map(|s| s.counters.launch_faults_injected)
        .sum();
    assert_eq!(faults, report.counters.launch_faults_injected);
    assert!(faults > 0);
}

#[test]
fn trace_jsonl_round_trips_through_the_codec() {
    let mut g = Grid2D::new(96, 96, 3);
    g.fill_random(13);
    let cs = ConvStencil2D::try_new(Shape::Box2D9P.kernel2d().unwrap())
        .unwrap()
        .with_tracing(true);
    let (_, report) = cs.try_run(&g, 3).unwrap();
    let trace = report.trace.unwrap();
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count(), trace.len());
    let back = Trace::from_jsonl(&jsonl).unwrap();
    assert_eq!(back.len(), trace.len());
    assert_eq!(back.total_counters(), trace.total_counters());
    for (a, b) in back.spans.iter().zip(trace.spans.iter()) {
        assert_eq!(a.phase, b.phase);
        assert_eq!(a.launch, b.launch);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.wall_ns, b.wall_ns);
        assert!((a.modeled_sec - b.modeled_sec).abs() <= f64::EPSILON * b.modeled_sec.abs());
    }
}

#[test]
fn profile_total_row_is_the_run_ledger() {
    let mut g = Grid2D::new(96, 96, 3);
    g.fill_random(17);
    let cs = ConvStencil2D::try_new(Shape::Box2D9P.kernel2d().unwrap())
        .unwrap()
        .with_tracing(true);
    let (_, report) = cs.try_run(&g, 4).unwrap();
    let profile = Profile::from_trace(report.trace.as_ref().unwrap());
    assert_eq!(profile.total.counters, report.counters);
    let per_phase_dmma: u64 = profile.phases.iter().map(|p| p.counters.dmma_ops).sum();
    assert_eq!(per_phase_dmma, report.counters.dmma_ops);
    let table = profile.render_table();
    assert!(table.lines().last().unwrap().starts_with("total"));
}

#[test]
fn phase_wall_time_is_measured_and_bounded_by_the_launch() {
    let mut dev = Device::a100();
    dev.set_tracing(true);
    let blocks = 3;
    let nap = Duration::from_millis(2);
    let start = Instant::now();
    dev.launch(blocks, 64, |_, ctx| {
        // A phase the cost model charges heavily but that takes no host
        // time, then a cheap-to-model phase that does.
        ctx.phase(Phase::SmemScatter);
        ctx.count_divmod(1 << 30);
        ctx.phase(Phase::Tessellation);
        ctx.count_fma(1);
        std::thread::sleep(nap);
    });
    let launch_ns = start.elapsed().as_nanos() as u64;
    let trace = dev.take_trace();
    let wall = |phase: Phase| -> u64 {
        trace
            .spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.wall_ns)
            .sum()
    };
    // Measured, not split by modeled time: the sleeping phase holds at
    // least its sleep, the modeled-heavy phase almost nothing.
    assert!(wall(Phase::Tessellation) >= blocks as u64 * nap.as_nanos() as u64);
    assert!(wall(Phase::SmemScatter) < wall(Phase::Tessellation));
    let spans_ns = trace.total_wall_ns();
    assert!(
        spans_ns <= launch_ns,
        "phase spans hold {spans_ns} ns of a {launch_ns} ns launch"
    );
    assert_eq!(trace.total_counters(), dev.counters);
}

#[test]
fn traced_run_phase_time_is_at_most_its_wall_time() {
    let mut g = Grid2D::new(128, 128, 3);
    g.fill_random(19);
    let cs = ConvStencil2D::try_new(Shape::Box2D9P.kernel2d().unwrap())
        .unwrap()
        .with_tracing(true);
    let start = Instant::now();
    let (_, report) = cs.try_run(&g, 6).unwrap();
    let run_ns = start.elapsed().as_nanos() as u64;
    let trace = assert_spans_sum_to_ledger(&report);
    let spans_ns = trace.total_wall_ns();
    assert!(spans_ns > 0);
    assert!(
        spans_ns <= run_ns,
        "phase spans hold {spans_ns} ns of a {run_ns} ns run"
    );
}

#[test]
fn untraced_device_records_no_spans() {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let mut g = Grid2D::new(64, 64, kernel.radius());
    g.fill_random(23);
    let exec = Exec2D::try_new(&kernel, 64, 64, VariantConfig::conv_stencil()).unwrap();
    let mut dev = Device::a100();
    let ext0 = exec.plan.try_build_ext(&g).unwrap();
    try_run_2d_applications_bc(&mut dev, &exec, &ext0, 2, Boundary::Dirichlet).unwrap();
    assert!(dev.counters.dmma_ops > 0);
    assert!(dev.trace().is_empty());
}
