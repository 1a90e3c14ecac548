//! `run` / `resume` subcommands: the resilient-runtime face of the CLI.
//!
//! `run` executes a stencil job on the multi-device runtime (device
//! pool, circuit breakers, deadlines, checkpoint/restart) instead of the
//! one-shot path; `resume` continues from the newest valid checkpoint.
//!
//! Exit codes: `0` success, `1` pipeline/runtime error (including a
//! missed deadline), `2` usage, `3` corrupt or unreadable checkpoint
//! state (a distinct code with a one-line machine-parseable stderr
//! message — scripts can match `error=artifact_read`). Corrupt
//! checkpoints never panic.

use crate::{axes, parse_custom, parse_problem, problem};
use convstencil::ConvStencilError;
use convstencil_runtime::{Job, JobEvent, JobOutcome, JobPayload, Runtime, RuntimeConfig};
use std::path::PathBuf;
use stencil_core::Shape;
use tcu_sim::FaultPlan;

/// Exit code for corrupt/unreadable checkpoint state.
pub const EXIT_ARTIFACT_READ: i32 = 3;

/// Parsed `run` subcommand.
#[derive(Debug, Clone)]
pub struct RunCmd {
    pub shape: Shape,
    pub sizes: Vec<usize>,
    pub steps: usize,
    pub custom_weights: Option<Vec<f64>>,
    pub quick: bool,
    pub sanitize: bool,
    /// `--devices N`: pool size.
    pub devices: usize,
    /// `--checkpoint-every K`: chunk + checkpoint cadence in timesteps
    /// (0 = single chunk, no mid-job checkpoints).
    pub checkpoint_every: u64,
    /// `--checkpoint-dir DIR`.
    pub checkpoint_dir: PathBuf,
    /// `--deadline-ms MS`: host wall-clock budget.
    pub deadline_ms: Option<u64>,
    /// `--cost-deadline-ms MS`: deterministic cost-model budget.
    pub cost_deadline_ms: Option<u64>,
    /// `--job NAME`: checkpoint file prefix.
    pub job: String,
    /// `--kill-device-at L`: chaos demo — device 0 dies stickily at
    /// launch attempt L, forcing the migrate/degrade ladder.
    pub kill_device_at: Option<u64>,
    /// Hidden test hook `--halt-after-checkpoints N`: stop cleanly after
    /// N checkpoints (simulated crash whose last act was a checkpoint).
    pub halt_after_checkpoints: Option<u64>,
}

/// Parsed `resume` subcommand.
#[derive(Debug, Clone)]
pub struct ResumeCmd {
    pub checkpoint_dir: PathBuf,
    /// Restrict to one job's checkpoints; `None` resumes the newest of
    /// any job in the directory.
    pub job: Option<String>,
    pub devices: usize,
    pub checkpoint_every: u64,
    pub deadline_ms: Option<u64>,
    pub cost_deadline_ms: Option<u64>,
    pub halt_after_checkpoints: Option<u64>,
}

pub fn runtime_usage(dim: usize) -> String {
    let sizes = axes(dim).join(" ");
    format!(
        "usage: convstencil_{dim}d run <shape> <{sizes}> <time_iteration_size> [options]\n\
         \x20      convstencil_{dim}d resume [--checkpoint-dir DIR] [--job NAME] [options]\n\
         runtime options:\n\
         \x20 --devices N             device-pool size (default 2)\n\
         \x20 --checkpoint-every K    checkpoint every K timesteps (default 1)\n\
         \x20 --checkpoint-dir DIR    checkpoint directory (default checkpoints)\n\
         \x20 --deadline-ms MS        host wall-clock budget, checked between chunks\n\
         \x20 --cost-deadline-ms MS   modelled-time budget (deterministic), checked\n\
         \x20                         between chunks\n\
         \x20 --job NAME              job name / checkpoint file prefix (default job)\n\
         \x20 --kill-device-at L      chaos: device 0 dies at launch attempt L\n\
         \x20 --quick --sanitize --custom w..   as in the one-shot form"
    )
}

fn parse_u64_opt(argv: &[String], i: usize, flag: &str, dim: usize) -> Result<u64, String> {
    argv.get(i + 1)
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| format!("{flag} needs an integer\n{}", runtime_usage(dim)))
}

/// Parse `run <shape> <sizes...> <steps> [options]` (argv excludes the
/// leading `run`).
pub fn parse_run(dim: usize, argv: &[String]) -> Result<RunCmd, String> {
    if argv.is_empty() || argv.iter().any(|a| a == "--help") || argv.len() < dim + 2 {
        return Err(runtime_usage(dim));
    }
    let (shape, sizes) = parse_problem(dim, argv, &runtime_usage(dim))?;
    let steps = argv[dim + 1]
        .parse::<usize>()
        .map_err(|_| runtime_usage(dim))?;
    let mut cmd = RunCmd {
        shape,
        sizes,
        steps,
        custom_weights: None,
        quick: false,
        sanitize: false,
        devices: 2,
        checkpoint_every: 1,
        checkpoint_dir: PathBuf::from("checkpoints"),
        deadline_ms: None,
        cost_deadline_ms: None,
        job: "job".to_string(),
        kill_device_at: None,
        halt_after_checkpoints: None,
    };
    let mut i = dim + 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => cmd.quick = true,
            "--sanitize" => cmd.sanitize = true,
            "--devices" => {
                cmd.devices = parse_u64_opt(argv, i, "--devices", dim)? as usize;
                i += 1;
            }
            "--checkpoint-every" => {
                cmd.checkpoint_every = parse_u64_opt(argv, i, "--checkpoint-every", dim)?;
                i += 1;
            }
            "--checkpoint-dir" => {
                let path = argv
                    .get(i + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| {
                        format!("--checkpoint-dir needs a path\n{}", runtime_usage(dim))
                    })?;
                cmd.checkpoint_dir = PathBuf::from(path);
                i += 1;
            }
            "--deadline-ms" => {
                cmd.deadline_ms = Some(parse_u64_opt(argv, i, "--deadline-ms", dim)?);
                i += 1;
            }
            "--cost-deadline-ms" => {
                cmd.cost_deadline_ms = Some(parse_u64_opt(argv, i, "--cost-deadline-ms", dim)?);
                i += 1;
            }
            "--job" => {
                let name = argv
                    .get(i + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| format!("--job needs a name\n{}", runtime_usage(dim)))?;
                cmd.job = name.clone();
                i += 1;
            }
            "--kill-device-at" => {
                cmd.kill_device_at = Some(parse_u64_opt(argv, i, "--kill-device-at", dim)?);
                i += 1;
            }
            "--halt-after-checkpoints" => {
                cmd.halt_after_checkpoints =
                    Some(parse_u64_opt(argv, i, "--halt-after-checkpoints", dim)?);
                i += 1;
            }
            "--custom" => {
                let vals = parse_custom(&argv[i + 1..], shape)?;
                i += vals.len();
                cmd.custom_weights = Some(vals);
            }
            other => return Err(format!("unknown option '{other}'\n{}", runtime_usage(dim))),
        }
        i += 1;
    }
    Ok(cmd)
}

/// Parse `resume [options]` (argv excludes the leading `resume`).
pub fn parse_resume(dim: usize, argv: &[String]) -> Result<ResumeCmd, String> {
    if argv.iter().any(|a| a == "--help") {
        return Err(runtime_usage(dim));
    }
    let mut cmd = ResumeCmd {
        checkpoint_dir: PathBuf::from("checkpoints"),
        job: None,
        devices: 2,
        checkpoint_every: 1,
        deadline_ms: None,
        cost_deadline_ms: None,
        halt_after_checkpoints: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--checkpoint-dir" => {
                let path = argv
                    .get(i + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| {
                        format!("--checkpoint-dir needs a path\n{}", runtime_usage(dim))
                    })?;
                cmd.checkpoint_dir = PathBuf::from(path);
                i += 1;
            }
            "--job" => {
                let name = argv
                    .get(i + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| format!("--job needs a name\n{}", runtime_usage(dim)))?;
                cmd.job = Some(name.clone());
                i += 1;
            }
            "--devices" => {
                cmd.devices = parse_u64_opt(argv, i, "--devices", dim)? as usize;
                i += 1;
            }
            "--checkpoint-every" => {
                cmd.checkpoint_every = parse_u64_opt(argv, i, "--checkpoint-every", dim)?;
                i += 1;
            }
            "--deadline-ms" => {
                cmd.deadline_ms = Some(parse_u64_opt(argv, i, "--deadline-ms", dim)?);
                i += 1;
            }
            "--cost-deadline-ms" => {
                cmd.cost_deadline_ms = Some(parse_u64_opt(argv, i, "--cost-deadline-ms", dim)?);
                i += 1;
            }
            "--halt-after-checkpoints" => {
                cmd.halt_after_checkpoints =
                    Some(parse_u64_opt(argv, i, "--halt-after-checkpoints", dim)?);
                i += 1;
            }
            other => return Err(format!("unknown option '{other}'\n{}", runtime_usage(dim))),
        }
        i += 1;
    }
    Ok(cmd)
}

/// The job payload of a `run` command: the one-shot problem, with the
/// grid capped harder per axis (`--quick` harder still).
fn build_payload(cmd: &RunCmd) -> Result<JobPayload, ConvStencilError> {
    let caps =
        |axes: usize, quick: usize, full: usize| vec![if cmd.quick { quick } else { full }; axes];
    let (shape, custom, sizes) = (cmd.shape, cmd.custom_weights.as_deref(), &cmd.sizes[..]);
    Ok(match shape.dim() {
        1 => {
            let (runner, grid) = problem(shape, custom, sizes, &caps(1, 1 << 16, 1 << 20))?;
            let runner = runner.with_sanitizer(cmd.sanitize);
            JobPayload::D1 { runner, grid }
        }
        2 => {
            let (runner, grid) = problem(shape, custom, sizes, &caps(2, 256, 1024))?;
            let runner = runner.with_sanitizer(cmd.sanitize);
            JobPayload::D2 { runner, grid }
        }
        _ => {
            let (runner, grid) = problem(shape, custom, sizes, &caps(3, 64, 128))?;
            let runner = runner.with_sanitizer(cmd.sanitize);
            JobPayload::D3 { runner, grid }
        }
    })
}

fn print_outcome(outcome: &JobOutcome, warnings: &[String]) {
    for w in warnings {
        eprintln!("warning: {w}");
    }
    let r = &outcome.report;
    if let Some(step) = r.resumed_from_step {
        println!("[runtime] resumed job '{}' from step {step}", outcome.name);
    }
    println!(
        "[runtime] job '{}': {}/{} steps{}",
        outcome.name,
        r.steps_done,
        r.steps_total,
        if outcome.halted {
            " (halted at test hook)"
        } else {
            ""
        }
    );
    println!(
        "[runtime] retries = {}, migrations = {}, faults detected = {}, degraded = {}",
        r.retries, r.migrations, r.faults_detected, r.degraded
    );
    println!(
        "[runtime] checkpoints written = {}, modeled cost = {:.3} ms",
        r.checkpoints_written, r.modeled_cost_ms
    );
    for event in &r.events {
        match event {
            JobEvent::BreakerOpened { device } => {
                println!("[runtime] circuit breaker OPEN on device {device}");
            }
            JobEvent::Migrated { from, to, at_step } => {
                println!("[runtime] migrated device {from} -> {to} at step {at_step}");
            }
            JobEvent::DegradedToReference { at_step } => {
                println!("[runtime] degraded to reference backend at step {at_step}");
            }
            _ => {}
        }
    }
    if let Some(san) = &r.sanitizer {
        println!(
            "[sanitize] {} violation(s) across all chunks",
            san.total_violations()
        );
    }
}

/// One-line, machine-parseable error report + exit code. `ArtifactRead`
/// (corrupt/missing checkpoint state) gets its own exit code and a
/// `key=value` stderr line so scripts can tell it from other failures.
fn report_error(dim: usize, e: &ConvStencilError) -> i32 {
    if let ConvStencilError::ArtifactRead { path, reason } = e {
        let reason_one_line = reason.replace('\n', " ");
        eprintln!(
            "convstencil_{dim}d: error=artifact_read path=\"{path}\" reason=\"{reason_one_line}\""
        );
        EXIT_ARTIFACT_READ
    } else {
        eprintln!("convstencil_{dim}d: error: {e}");
        1
    }
}

/// `run` entry point; returns the process exit code.
pub fn main_run(dim: usize, argv: &[String]) -> i32 {
    let cmd = match parse_run(dim, argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let payload = match build_payload(&cmd) {
        Ok(p) => p,
        Err(e) => return report_error(dim, &e),
    };
    let mut device_faults: Vec<Option<FaultPlan>> = Vec::new();
    if let Some(at) = cmd.kill_device_at {
        device_faults.push(Some(FaultPlan::quiet(0xC0FFEE).with_device_death_at(at)));
    }
    let config = RuntimeConfig {
        devices: cmd.devices,
        device_faults,
        checkpoint_every: cmd.checkpoint_every,
        checkpoint_dir: Some(cmd.checkpoint_dir.clone()),
        wall_budget_ms: cmd.deadline_ms,
        cost_budget_ms: cmd.cost_deadline_ms,
        halt_after_checkpoints: cmd.halt_after_checkpoints,
        ..RuntimeConfig::default()
    };
    let mut runtime = Runtime::new(config);
    if let Err(e) = runtime.submit(Job {
        name: cmd.job.clone(),
        payload,
        steps: cmd.steps as u64,
    }) {
        return report_error(dim, &e);
    }
    match runtime.run_next() {
        Some(Ok(outcome)) => {
            print_outcome(&outcome, &[]);
            0
        }
        Some(Err(e)) => report_error(dim, &e),
        None => {
            eprintln!("convstencil_{dim}d: error: job queue empty");
            1
        }
    }
}

/// `resume` entry point; returns the process exit code.
pub fn main_resume(dim: usize, argv: &[String]) -> i32 {
    let cmd = match parse_resume(dim, argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let config = RuntimeConfig {
        devices: cmd.devices,
        checkpoint_every: cmd.checkpoint_every,
        checkpoint_dir: Some(cmd.checkpoint_dir.clone()),
        wall_budget_ms: cmd.deadline_ms,
        cost_budget_ms: cmd.cost_deadline_ms,
        halt_after_checkpoints: cmd.halt_after_checkpoints,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(config);
    match runtime.resume(cmd.job.as_deref()) {
        Ok((outcome, warnings)) => {
            print_outcome(&outcome, &warnings);
            0
        }
        Err(e) => report_error(dim, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_flags_parse() {
        let c = parse_run(
            2,
            &sv(&[
                "box2d1r",
                "64",
                "64",
                "8",
                "--devices",
                "3",
                "--checkpoint-every",
                "2",
                "--checkpoint-dir",
                "ckpt",
                "--deadline-ms",
                "5000",
                "--cost-deadline-ms",
                "100",
                "--job",
                "demo",
                "--kill-device-at",
                "4",
                "--quick",
            ]),
        )
        .unwrap();
        assert_eq!(c.devices, 3);
        assert_eq!(c.checkpoint_every, 2);
        assert_eq!(c.checkpoint_dir, PathBuf::from("ckpt"));
        assert_eq!(c.deadline_ms, Some(5000));
        assert_eq!(c.cost_deadline_ms, Some(100));
        assert_eq!(c.job, "demo");
        assert_eq!(c.kill_device_at, Some(4));
        assert!(c.quick);
    }

    #[test]
    fn run_requires_shape_sizes_steps() {
        assert!(parse_run(2, &sv(&["box2d1r", "64", "64"])).is_err());
        assert!(parse_run(2, &sv(&["nope2d", "64", "64", "4"])).is_err());
        assert!(parse_run(2, &sv(&["box2d1r", "64", "64", "4", "--devices"])).is_err());
    }

    #[test]
    fn resume_flags_parse() {
        let c = parse_resume(2, &sv(&["--checkpoint-dir", "ckpt", "--job", "demo"])).unwrap();
        assert_eq!(c.checkpoint_dir, PathBuf::from("ckpt"));
        assert_eq!(c.job.as_deref(), Some("demo"));
        let c = parse_resume(2, &sv(&[])).unwrap();
        assert!(c.job.is_none());
        assert!(parse_resume(2, &sv(&["--bogus"])).is_err());
    }

    #[test]
    fn resume_from_missing_dir_is_exit_code_3_not_a_panic() {
        let code = main_resume(
            2,
            &sv(&["--checkpoint-dir", "/nonexistent/convstencil-ckpts"]),
        );
        assert_eq!(code, EXIT_ARTIFACT_READ);
    }

    #[test]
    fn resume_from_corrupt_checkpoint_is_exit_code_3_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("cli_resume_bad_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("job.step00000002.ckpt"), "not a checkpoint").unwrap();
        let code = main_resume(2, &sv(&["--checkpoint-dir", dir.to_str().unwrap()]));
        assert_eq!(code, EXIT_ARTIFACT_READ);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_then_resume_round_trip() {
        let dir = std::env::temp_dir().join(format!("cli_run_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = [
            "box2d1r",
            "48",
            "48",
            "4",
            "--quick",
            "--checkpoint-every",
            "1",
            "--job",
            "cli-rt",
            "--checkpoint-dir",
        ];
        let mut halted: Vec<String> = sv(&base);
        halted.push(dir.to_str().unwrap().to_string());
        halted.extend(sv(&["--halt-after-checkpoints", "2"]));
        assert_eq!(main_run(2, &halted), 0);
        let code = main_resume(
            2,
            &sv(&[
                "--checkpoint-dir",
                dir.to_str().unwrap(),
                "--job",
                "cli-rt",
                "--checkpoint-every",
                "1",
            ]),
        );
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
