//! Host-performance gate over the Fig. 6 workloads.
//!
//! Times Heat-1D, Box-2D9P and Box-3D27P end-to-end (fully-optimized
//! variant) and records the fastest wall-clock of at least `PERF_RUNS`
//! runs spanning at least `PERF_MIN_WALL_S` seconds, the
//! stencil throughput it implies, and the heap allocation ledger. Without
//! flags it measures the quick workloads and enforces the committed
//! `results/BENCH_perf.json` baseline; `--full` also measures the full
//! Table-4 reduced sizes; `--update-baseline` rewrites the baseline
//! instead of gating.
//!
//! Thresholds (see `convstencil_bench::perf`): a deterministic gate on
//! allocation calls and bytes (`PERF_GATE_MAX_ALLOC_RATIO`, default 1.5)
//! and a wall-clock gate on the min-of-runs throughput
//! (`PERF_GATE_MIN_RATIO`, default 0.7).
//!
//! The table also shows the median minor page faults per run, read from
//! `/proc/self/stat` (`-` where it does not exist). It is not gated and
//! not part of the baseline. Every run builds a new runner, so no run
//! reuses a runner's working arrays.

use convstencil::{ConvStencil1D, ConvStencil2D, ConvStencil3D};
use convstencil_baselines::ProblemSize;
use convstencil_bench::alloc_counter::{self, CountingAlloc};
use convstencil_bench::perf::{
    gate_violations, minor_faults, parse_perf_json, perf_baseline_path, write_perf_json,
    GateThresholds, PerfRecord, PERF_MIN_WALL_S, PERF_RUNS,
};
use convstencil_bench::report::{banner, render_table};
use convstencil_bench::{workload_for, Workload};
use std::time::Instant;
use stencil_core::{Grid1D, Grid2D, Grid3D, Shape};

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn run_workload(shape: Shape, size: ProblemSize, steps: usize) {
    match size {
        ProblemSize::D1(n) => {
            let k = shape.kernel1d().unwrap();
            let mut g = Grid1D::new(n, k.radius());
            g.fill_random(7);
            let _ = ConvStencil1D::try_new(k)
                .expect("shipped kernels plan")
                .try_run(&g, steps)
                .expect("the simulated run succeeds");
        }
        ProblemSize::D2(m, n) => {
            let k = shape.kernel2d().unwrap();
            let mut g = Grid2D::new(m, n, k.radius());
            g.fill_random(7);
            let _ = ConvStencil2D::try_new(k)
                .expect("shipped kernels plan")
                .try_run(&g, steps)
                .expect("the simulated run succeeds");
        }
        ProblemSize::D3(d, m, n) => {
            let k = shape.kernel3d().unwrap();
            let mut g = Grid3D::new(d, m, n, k.radius());
            g.fill_random(7);
            let _ = ConvStencil3D::try_new(k)
                .expect("shipped kernels plan")
                .try_run(&g, steps)
                .expect("the simulated run succeeds");
        }
    }
}

/// One timed run, with the minor page faults it took.
fn measure_once(shape: Shape, mode: &str, w: &Workload) -> (PerfRecord, Option<u64>) {
    let faults0 = minor_faults();
    alloc_counter::reset();
    let start = Instant::now();
    run_workload(shape, w.measure_size, w.measure_steps);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = alloc_counter::snapshot();
    let faults = minor_faults().zip(faults0).map(|(end, begin)| end - begin);
    let points = w.measure_size.points() as f64 * w.measure_steps as f64;
    let record = PerfRecord {
        workload: shape.name().to_string(),
        mode: mode.to_string(),
        wall_ms: wall_s * 1e3,
        points_per_sec: points / wall_s,
        allocs: stats.calls,
        alloc_bytes: stats.bytes,
    };
    (record, faults)
}

/// The fastest of at least `PERF_RUNS` runs that together take at least
/// `PERF_MIN_WALL_S`, with the smallest allocation ledger seen (the
/// ledger repeats once lazy set-up is done), and the median minor page
/// faults per run.
fn measure(shape: Shape, mode: &str, w: &Workload) -> (PerfRecord, Option<u64>) {
    let start = Instant::now();
    let (mut runs, mut faults) = (Vec::new(), Vec::new());
    while runs.len() < PERF_RUNS || start.elapsed().as_secs_f64() < PERF_MIN_WALL_S {
        let (run, f) = measure_once(shape, mode, w);
        runs.push(run);
        faults.extend(f);
    }
    let fastest = runs
        .iter()
        .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .expect("PERF_RUNS is positive");
    let record = PerfRecord {
        allocs: runs.iter().map(|r| r.allocs).min().unwrap_or(0),
        alloc_bytes: runs.iter().map(|r| r.alloc_bytes).min().unwrap_or(0),
        ..fastest.clone()
    };
    faults.sort_unstable();
    (record, faults.get(faults.len() / 2).copied())
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let update = args.iter().any(|a| a == "--update-baseline");
    print!("{}", banner("Perf gate: Fig. 6 workload wall-clock"));
    let (mut records, mut faults) = (Vec::new(), Vec::new());
    for shape in [Shape::Heat1D, Shape::Box2D9P, Shape::Box3D27P] {
        let w = workload_for(shape);
        let mut modes = vec![("quick", w.quick())];
        if full {
            modes.push(("full", w));
        }
        for (mode, w) in &modes {
            let (record, f) = measure(shape, mode, w);
            records.push(record);
            faults.push(f);
        }
    }
    let mut rows = vec![vec![
        "Workload".to_string(),
        "Mode".to_string(),
        "Wall (ms)".to_string(),
        "Points/s".to_string(),
        "Allocs".to_string(),
        "Alloc MiB".to_string(),
        "Minor faults".to_string(),
    ]];
    for (r, f) in records.iter().zip(&faults) {
        rows.push(vec![
            r.workload.clone(),
            r.mode.clone(),
            format!("{:.2}", r.wall_ms),
            format!("{:.3e}", r.points_per_sec),
            r.allocs.to_string(),
            format!("{:.1}", r.alloc_bytes as f64 / (1 << 20) as f64),
            f.map_or_else(|| "-".to_string(), |f| f.to_string()),
        ]);
    }
    print!("{}", render_table(&rows));
    if update {
        let path = write_perf_json(&records).expect("write BENCH_perf.json");
        println!("[perf-gate] baseline updated: {}", path.display());
        return;
    }
    let path = perf_baseline_path();
    let body = match std::fs::read_to_string(&path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!(
                "[perf-gate] no baseline at {} ({e}); run with --update-baseline to record one",
                path.display()
            );
            std::process::exit(1);
        }
    };
    let baseline = parse_perf_json(&body);
    let defaults = GateThresholds::default();
    let thresholds = GateThresholds {
        min_points_ratio: env_f64("PERF_GATE_MIN_RATIO", defaults.min_points_ratio),
        max_alloc_ratio: env_f64("PERF_GATE_MAX_ALLOC_RATIO", defaults.max_alloc_ratio),
    };
    let violations = gate_violations(&baseline, &records, &thresholds);
    if violations.is_empty() {
        println!(
            "[perf-gate] PASS: {} record(s) within thresholds (min throughput ratio {}, max alloc ratio {})",
            records.len(),
            thresholds.min_points_ratio,
            thresholds.max_alloc_ratio
        );
    } else {
        for v in &violations {
            eprintln!("[perf-gate] FAIL: {v}");
        }
        std::process::exit(1);
    }
}
