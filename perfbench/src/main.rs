//! perfbench: the repository benchmark.
//!
//! One process, one thread, a closed loop: each op starts when the last
//! one ends. Every op's output and counter ledger is checked. Untraced
//! runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) replay each op through the library's public calls with a
//! span around each call and report the per-layer split.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot-2d --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed op or check
//! makes the exit code 1.

mod alloc;
mod catalog;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use spans::{Layer, Spans};
use stats::{attribute, keep_sampling, median};
use workloads::{wrong_cell_frac, CkptProbe, OpOutput, Scratch, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 11;

/// The held-out seed checked beside the given one.
fn held_out_seed(seed: u64) -> u64 {
    seed ^ 0x005E_ED0F_F5E7_0000
}

const MIB: f64 = (1u64 << 20) as f64;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
       perfbench --write-manifest   (regenerate BENCHMARK.json from the catalog)
workloads: job-1d-ckpt, oneshot-2d, oneshot-3d";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteManifest,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--write-manifest" {
            return Ok(Command::WriteManifest);
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::WriteManifest) => {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
            return match std::fs::write(&path, catalog::manifest_json()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", path.display());
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            result.print(&args);
            if result.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run's results.
struct RunResult {
    values: BTreeMap<&'static str, f64>,
    /// Timed ops (untraced runs) or traced pairs (traced runs).
    samples: usize,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl RunResult {
    fn print(&self, args: &Args) {
        let mode = if args.trace { "traced" } else { "untraced" };
        println!(
            "perfbench workload={} seed={} held_out_seed={} mode={mode} seconds={} samples={} attempted={} failed={}",
            args.workload,
            args.seed,
            held_out_seed(args.seed),
            args.seconds,
            self.samples,
            self.attempted,
            self.failed
        );
        println!(
            "  {:<32} {:>16} {:<11} {:<9} {:<7} layer",
            "metric", "value", "unit", "kind", "better"
        );
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(v) = self.values.get(m.name) {
                println!(
                    "  {:<32} {:>16.6} {:<11} {:<9} {:<7} {}",
                    m.name,
                    v,
                    m.unit,
                    m.kind.label(),
                    m.better.label(),
                    m.layer
                );
            }
        }
        for p in &self.problems {
            eprintln!("perfbench: FAILED: {p}");
        }
        let reported: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = reported
            .iter()
            .map(|m| {
                let v = self.values[m.name];
                // JSON has no NaN or infinity; such a value is already a
                // reported problem.
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let scratch = Scratch::new()?;

    // Set-up: generate inputs, make the op's directory, run one untimed
    // warm-up op. Repeated; the median is setup_s. The checks of the
    // warm-up output below are outside the set-up time.
    let mut setup_s = Vec::new();
    let mut first: Option<(Box<dyn Workload>, OpOutput)> = None;
    let mut problems = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        let w = workloads::build(&args.workload, args.seed)?;
        let dir = scratch.fresh()?;
        let (out, _) = w.op(&dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        scratch.remove(&dir)?;
        match &first {
            None => first = Some((w, out)),
            Some((_, base)) => {
                if let Err(e) = out.same_as(base) {
                    problems.push(format!("warm-up ops disagree: {e}"));
                }
            }
        }
    }
    let (w, base) = first.expect("at least one set-up round");

    // The first op is checked in full; later ops must repeat it exactly.
    if let Err(e) = w.full_check(&base, &scratch) {
        problems.push(format!("seed {}: {e}", args.seed));
    }
    let wrong = wrong_cell_frac(&base.interior, &w.truth());

    // A held-out seed must pass the same check with the same launch shape.
    let held_seed = held_out_seed(args.seed);
    let held = workloads::build(&args.workload, held_seed)?;
    let dir = scratch.fresh()?;
    let held_op = held.op(&dir);
    scratch.remove(&dir)?;
    let (held_out, _) = held_op?;
    if let Err(e) = held.full_check(&held_out, &scratch) {
        problems.push(format!("held-out seed {held_seed}: {e}"));
    }
    if held_out.launch != base.launch {
        problems.push(format!(
            "held-out seed {held_seed} launches {:?}, seed {} launches {:?}",
            held_out.launch, args.seed, base.launch
        ));
    }
    drop(held);

    let mut result = if args.trace {
        traced_run(w.as_ref(), &base, &scratch, args.seconds)?
    } else {
        untraced_run(w.as_ref(), &base, &scratch, args.seconds)?
    };
    result.values.insert("setup_s", median(&setup_s));
    result.values.insert("wrong_cell_frac", wrong);
    result.values.insert(
        "failed_ratio",
        result.failed as f64 / result.attempted as f64,
    );
    problems.append(&mut result.problems);
    for (name, v) in &result.values {
        if !v.is_finite() {
            problems.push(format!("{name} is {v}"));
        }
    }
    result.problems = problems;
    Ok(result)
}

/// The closed loop of untraced ops: the end-to-end metrics.
fn untraced_run(
    w: &dyn Workload,
    base: &OpOutput,
    scratch: &Scratch,
    seconds: f64,
) -> Result<RunResult, String> {
    let (mut op_ms, mut peak_mib) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let start = Instant::now();
    while keep_sampling(attempted, start.elapsed().as_secs_f64(), seconds) {
        attempted += 1;
        let dir = scratch.fresh()?;
        let res = w.op(&dir);
        scratch.remove(&dir)?;
        match res.and_then(|(out, stats)| out.same_as(base).map(|()| stats)) {
            Ok(stats) => {
                op_ms.push(stats.wall.as_secs_f64() * 1e3);
                peak_mib.push(stats.peak_bytes as f64 / MIB);
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("op {attempted}: {e}"));
            }
        }
    }
    if op_ms.is_empty() {
        return Err(format!("no op succeeded: {}", problems.join("; ")));
    }
    let best_ms = op_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let mut values = BTreeMap::new();
    values.insert("op_ms_min", best_ms);
    values.insert("op_ms_p50", median(&op_ms));
    values.insert("mpts_per_s", w.points_steps() / best_ms / 1e3);
    values.insert("heap_peak_mib", median(&peak_mib));
    values.insert("modeled_gstencils", base.modeled_gstencils);
    Ok(RunResult {
        values,
        samples: op_ms.len(),
        attempted,
        failed,
        problems,
    })
}

/// One traced op, with the untraced op it was paired with.
struct TracedRecord {
    wall_ns: u64,
    untraced_ns: u64,
    layer_ns: [u64; Layer::ALL.len()],
    plan_calls: u64,
    layout_bytes: u64,
    phase_modeled_ms: [f64; 4],
    probe: CkptProbe,
    allocs: u64,
    alloc_bytes: u64,
}

/// Pairs of (untraced op, traced replay): the per-layer split.
fn traced_run(
    w: &dyn Workload,
    base: &OpOutput,
    scratch: &Scratch,
    seconds: f64,
) -> Result<RunResult, String> {
    let mut records = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let start = Instant::now();
    while keep_sampling(attempted / 2, start.elapsed().as_secs_f64(), seconds) {
        attempted += 2;
        let (job_dir, replay_dir) = (scratch.fresh()?, scratch.fresh()?);
        let record = traced_pair(w, base, &job_dir, &replay_dir);
        scratch.remove(&job_dir)?;
        scratch.remove(&replay_dir)?;
        match record {
            Ok(r) => records.push(r),
            Err(e) => {
                failed += 2;
                problems.push(format!("pair {}: {e}", attempted / 2));
            }
        }
    }
    if records.is_empty() {
        return Err(format!("no traced op succeeded: {}", problems.join("; ")));
    }

    // Report the whole split of the fastest traced op (the one least
    // disturbed by other load on the host), so its layers and the
    // unattributed remainder sum exactly to its wall time.
    let r = records
        .iter()
        .min_by_key(|r| r.wall_ns)
        .expect("at least one record");
    let fastest_untraced = records.iter().map(|r| r.untraced_ns).min().unwrap();
    let untraced_ms: Vec<f64> = records.iter().map(|r| r.untraced_ns as f64 / 1e6).collect();
    let split = attribute(r.wall_ns, &r.layer_ns)?;
    let ms = |ns: u64| ns as f64 / 1e6;
    let layer_ms = |l: Layer| ms(r.layer_ns[l.index()]);
    let c = &base.counters;
    let events = c.dmma_ops
        + c.shared_read_requests
        + c.shared_write_requests
        + c.global_read_requests
        + c.global_write_requests;

    let mut v = BTreeMap::new();
    for layer in Layer::ALL {
        v.insert(layer.metric(), layer_ms(layer));
    }
    v.insert("plan.calls", r.plan_calls as f64);
    v.insert("layout.mib", r.layout_bytes as f64 / MIB);
    v.insert(
        "device.ns_per_event",
        layer_ms(Layer::Device) * 1e6 / events as f64,
    );
    v.insert("device.launches", base.launch.kernel_launches as f64);
    v.insert("device.blocks", base.launch.total_blocks as f64);
    v.insert("device.dmma_ops", c.dmma_ops as f64);
    v.insert(
        "device.gmem_sectors",
        (c.global_read_sectors + c.global_write_sectors) as f64,
    );
    v.insert(
        "device.smem_requests",
        (c.shared_read_requests + c.shared_write_requests) as f64,
    );
    v.insert(
        "device.smem_conflicts",
        (c.shared_read_conflicts + c.shared_write_conflicts) as f64,
    );
    v.insert("device.modeled_ms", base.modeled_ms);
    let [scatter, tessellation, epilogue, halo] = r.phase_modeled_ms;
    v.insert("device.scatter.modeled_ms", scatter);
    v.insert("device.tessellation.modeled_ms", tessellation);
    v.insert("device.epilogue.modeled_ms", epilogue);
    v.insert("device.halo.modeled_ms", halo);
    v.insert("runtime.chunks", base.job.chunks as f64);
    v.insert("runtime.retries", base.job.retries as f64);
    v.insert("runtime.migrations", base.job.migrations as f64);
    v.insert("checkpoint.encode_ms", ms(r.probe.encode_ns));
    v.insert("checkpoint.load_ms", ms(r.probe.load_ns));
    v.insert("checkpoint.disk_mib", r.probe.disk_bytes as f64 / MIB);
    v.insert("checkpoint.files", r.probe.files as f64);
    v.insert(
        "checkpoint.mib_per_file",
        if r.probe.files == 0 {
            0.0
        } else {
            r.probe.disk_bytes as f64 / MIB / r.probe.files as f64
        },
    );
    v.insert("allocs", r.allocs as f64);
    v.insert("alloc_mib", r.alloc_bytes as f64 / MIB);
    v.insert("trace.op_ms", ms(r.wall_ns));
    v.insert("unattributed.ms", ms(split.unattributed_ns));
    v.insert("unattributed.frac", split.unattributed_frac);
    v.insert(
        "trace.overhead_frac",
        r.wall_ns as f64 / fastest_untraced as f64 - 1.0,
    );
    v.insert("op_ms_p50", median(&untraced_ms));
    Ok(RunResult {
        values: v,
        samples: records.len(),
        attempted,
        failed,
        problems,
    })
}

/// An untraced op, then its traced replay, which must reproduce the op's
/// output bits and full ledger.
fn traced_pair(
    w: &dyn Workload,
    base: &OpOutput,
    job_dir: &Path,
    replay_dir: &Path,
) -> Result<TracedRecord, String> {
    let (out, stats) = w.op(job_dir)?;
    out.same_as(base)?;
    let mut spans = Spans::start();
    let traced = w.traced(replay_dir, &mut spans)?;
    traced
        .out
        .same_as(&out)
        .map_err(|e| format!("traced replay vs untraced op: {e}"))?;
    if traced.out.modeled_gstencils.to_bits() != out.modeled_gstencils.to_bits() {
        return Err("traced replay models a different throughput".to_string());
    }
    let probe = w.checkpoint_probe(job_dir, replay_dir)?.unwrap_or_default();
    Ok(TracedRecord {
        wall_ns: spans.wall_ns(),
        untraced_ns: stats.wall.as_nanos() as u64,
        layer_ns: spans.all_ns(),
        plan_calls: spans.calls(Layer::Plan),
        layout_bytes: spans.layout_bytes,
        phase_modeled_ms: traced.phase_modeled_ms,
        probe,
        allocs: stats.allocs,
        alloc_bytes: stats.alloc_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Command, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let Ok(Command::Run(a)) = args("--workload oneshot-2d --seed 7 --seconds 10 --trace 1")
        else {
            panic!("expected a run");
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("oneshot-2d", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload oneshot-2d --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload oneshot-2d --seed 1 --trace 0").is_err());
        assert!(args("--workload oneshot-2d --seed -1 --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn held_out_seed_differs_from_the_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_ne!(held_out_seed(seed), seed);
        }
    }
}
