//! Shared implementation of the Appendix-A command-line interface:
//! `convstencil_1d`, `convstencil_2d`, `convstencil_3d`.
//!
//! Invocation grammar (paper Appendix A.4):
//!
//! ```text
//! convstencil_{x}d shape input_size... time_iteration_size [options]
//! ```
//!
//! * `shape`: `1d1r`/`1d2r` (1D), `star2d1r`/`box2d1r`/`star2d3r`/`box2d3r`
//!   (2D), `star3d1r`/`box3d1r` (3D).
//! * `input_size`: one value per dimension.
//! * `time_iteration_size`: number of time steps.
//! * `--help`: print usage; `--custom w1 w2 ...`: custom kernel weights
//!   (row-major over the shape's dense support); `--breakdown`: print the
//!   per-variant breakdown; `--quick`: cap the simulated size.
//!
//! Output format matches the artifact (A.5): computation time and
//! GStencil/s. Time is the *modelled* device time of the full problem
//! (this is a simulator; see DESIGN.md).

use convstencil::{ConvStencil, ConvStencilError, Profile, RunReport, Stencil, VariantConfig};
pub mod runtime_cmd;
pub use runtime_cmd::{main_resume, main_run, EXIT_ARTIFACT_READ};
use std::path::PathBuf;
use stencil_core::{fill_pseudorandom, HaloGrid, Kernel1D, Kernel2D, Kernel3D, Shape};
use tcu_sim::{CostModel, DeviceConfig, LaunchStats, Trace};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct CliArgs {
    pub shape: Shape,
    pub sizes: Vec<usize>,
    pub steps: usize,
    pub custom_weights: Option<Vec<f64>>,
    pub breakdown: bool,
    pub quick: bool,
    /// Print the per-phase profile table of each measured run.
    pub profile: bool,
    /// Export the span trace of the measured run(s) as JSONL.
    pub trace: Option<PathBuf>,
    /// Run under the stencil sanitizer: static plan verification before
    /// launch plus the dynamic shadow-memory report after.
    pub sanitize: bool,
    /// `check` subcommand: verify the plan statically and exit without
    /// running (nonzero exit on rejection).
    pub check: bool,
    /// Hidden: corrupt one LUT entry before `check` — negative control
    /// proving the verifier rejects a mutated plan.
    pub mutate_lut: bool,
}

/// Parse argv for a given dimensionality; returns `Err(usage)` on any
/// problem.
pub fn parse_args(dim: usize, argv: &[String]) -> Result<CliArgs, String> {
    if argv.iter().any(|a| a == "--help") {
        return Err(usage(dim));
    }
    let (argv, check) = match argv.first().map(String::as_str) {
        Some("check") => (&argv[1..], true),
        _ => (argv, false),
    };
    // `check` verifies a plan without running it, so the step count is
    // optional there.
    if argv.len() < dim + 1 + usize::from(!check) {
        return Err(usage(dim));
    }
    let (shape, sizes) = parse_problem(dim, argv, &usage(dim))?;
    let (steps, opts_start) = if argv.len() > dim + 1 && !argv[dim + 1].starts_with("--") {
        (
            argv[dim + 1].parse::<usize>().map_err(|_| usage(dim))?,
            dim + 2,
        )
    } else if check {
        (1, dim + 1)
    } else {
        return Err(usage(dim));
    };
    let mut custom_weights = None;
    let mut breakdown = false;
    let mut quick = false;
    let mut profile = false;
    let mut trace = None;
    let mut sanitize = false;
    let mut mutate_lut = false;
    let mut i = opts_start;
    while i < argv.len() {
        match argv[i].as_str() {
            "--breakdown" => breakdown = true,
            "--quick" => quick = true,
            "--profile" => profile = true,
            "--sanitize" => sanitize = true,
            "--mutate-lut" => mutate_lut = true,
            "--trace" => {
                let path = argv
                    .get(i + 1)
                    .filter(|p| !p.starts_with("--"))
                    .ok_or_else(|| format!("--trace needs an output path\n{}", usage(dim)))?;
                trace = Some(PathBuf::from(path));
                i += 1;
            }
            "--custom" => {
                let vals = parse_custom(&argv[i + 1..], shape)?;
                i += vals.len();
                custom_weights = Some(vals);
            }
            other => return Err(format!("unknown option '{other}'\n{}", usage(dim))),
        }
        i += 1;
    }
    Ok(CliArgs {
        shape,
        sizes,
        steps,
        custom_weights,
        breakdown,
        quick,
        profile,
        trace,
        sanitize,
        check,
        mutate_lut,
    })
}

/// The `<shape> <sizes...>` prefix shared by every command of a
/// `dim`-dimensional binary; errors carry `usage`.
fn parse_problem(dim: usize, argv: &[String], usage: &str) -> Result<(Shape, Vec<usize>), String> {
    let shape = Shape::from_cli_name(&argv[0])
        .ok_or_else(|| format!("unknown shape '{}'\n{usage}", argv[0]))?;
    if shape.dim() != dim {
        return Err(format!(
            "shape {} is {}-dimensional; this binary is convstencil_{dim}d\n{usage}",
            argv[0],
            shape.dim(),
        ));
    }
    let sizes = argv[1..1 + dim]
        .iter()
        .map(|a| a.parse::<usize>().map_err(|_| usage.to_string()))
        .collect::<Result<_, _>>()?;
    Ok((shape, sizes))
}

/// The `--custom` weights following the flag: one per point of the
/// shape's dense `n_k^dim` support.
fn parse_custom(argv: &[String], shape: Shape) -> Result<Vec<f64>, String> {
    let need = shape.nk().pow(shape.dim() as u32);
    let vals: Vec<f64> = argv
        .iter()
        .take(need)
        .map(|a| a.parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| "invalid --custom weights".to_string())?;
    if vals.len() != need {
        return Err(format!(
            "--custom needs {need} weights for {}",
            shape.name()
        ));
    }
    Ok(vals)
}

/// Axis names of a `dim`-dimensional problem, outermost first.
fn axes(dim: usize) -> &'static [&'static str] {
    &["d", "m", "n"][3 - dim..]
}

/// Usage text per dimensionality.
pub fn usage(dim: usize) -> String {
    let shapes = match dim {
        1 => "1d1r | 1d2r",
        2 => "star2d1r | box2d1r | star2d2r | box2d2r | star2d3r | box2d3r",
        _ => "star3d1r | box3d1r",
    };
    let sizes = axes(dim).join(" ");
    format!(
        "usage: convstencil_{dim}d <shape> <{sizes}> <time_iteration_size> [options]\n\
         \x20      convstencil_{dim}d check <shape> <{sizes}> [time_iteration_size] [options]\n\
         shapes: {shapes}\n\
         options:\n  --help       print this help\n  --custom w.. custom stencil kernel weights\n  --breakdown  per-optimization breakdown (Fig. 6 variants)\n  --quick      cap the simulated grid (results projected to the full size)\n  --profile    print the per-phase profile of each measured run\n  --trace FILE export the measured run's span trace as JSONL\n  --sanitize   run under the stencil sanitizer (static plan verification\n\x20              + dynamic shadow-memory checks; nonzero exit on findings)\n\
         the check subcommand verifies the plan statically (Conflicts-Removal\n\
         properties: LUT totality/injectivity, dirty bits in padding, weight\n\
         band structure, conflict-free banking) and exits without running.\n\
         the run / resume subcommands execute on the resilient multi-device\n\
         runtime (checkpoint/restart, circuit breakers, deadlines); see\n\
         `convstencil_{dim}d run --help`."
    )
}

/// The kernel a command asks for: the custom weights if given, else the
/// shape's own.
fn kernel_for<K: Stencil>(shape: Shape, custom: Option<&[f64]>) -> Result<K, ConvStencilError> {
    match custom {
        Some(w) => Ok(K::from_weights(shape.radius(), w.to_vec())),
        None => K::from_shape(shape).ok_or_else(|| ConvStencilError::InvalidKernel {
            reason: format!("shape {} has no {}D kernel", shape.name(), K::DIM),
        }),
    }
}

/// The runner and the seeded grid of one command: `sizes` capped per axis
/// at `caps`, halo equal to the base kernel's radius. Shared by the
/// one-shot and `run` commands.
fn problem<K: Stencil>(
    shape: Shape,
    custom: Option<&[f64]>,
    sizes: &[usize],
    caps: &[usize],
) -> Result<(ConvStencil<K>, K::Grid), ConvStencilError> {
    let kernel = kernel_for::<K>(shape, custom)?;
    let dims: Vec<usize> = sizes.iter().zip(caps).map(|(&s, &c)| s.min(c)).collect();
    let mut grid = K::Grid::zeros(&dims, kernel.radius());
    fill_pseudorandom(grid.padded_mut(), 42);
    Ok((ConvStencil::try_new(kernel)?, grid))
}

/// The variants a command runs: the Fig. 6 breakdown or ConvStencil alone.
fn variants(breakdown: bool) -> Vec<(&'static str, VariantConfig)> {
    if breakdown {
        VariantConfig::breakdown().to_vec()
    } else {
        vec![("ConvStencil", VariantConfig::conv_stencil())]
    }
}

fn project_gstencils(
    report: &RunReport,
    cfg: &DeviceConfig,
    points: u64,
    steps: u64,
) -> (f64, f64) {
    let scale = points as f64 / report.points as f64 * steps as f64 / report.steps as f64;
    let counters = report.counters.scaled(scale);
    let launches = ((report.launch_stats.kernel_launches as f64 * steps as f64
        / report.steps as f64)
        .round() as u64)
        .max(1);
    let blocks = ((report.launch_stats.total_blocks as f64 * scale).round() as u64).max(launches);
    let stats = LaunchStats {
        kernel_launches: launches,
        total_blocks: blocks,
    };
    let model = CostModel::new(cfg.clone());
    let total = model.evaluate(&counters, &stats).total;
    let g = model.gstencils_per_sec(&counters, &stats, points, steps) * report.throughput_scale;
    (total, g)
}

/// Run one configuration and print the artifact-format output. Returns
/// the modelled GStencils/s and whether the sanitizer (when requested
/// with `--sanitize`) came back clean, so binaries can exit nonzero on
/// findings; or a typed error for any pipeline failure (bad kernel,
/// zero-sized grid, device fault, ...).
///
/// Oversized grids are capped for simulation (`--quick` caps harder);
/// the report is projected back to the requested problem (same
/// per-point event rates, exact step count).
pub fn try_run_and_print_checked(args: &CliArgs) -> Result<(f64, bool), ConvStencilError> {
    let side = |quick: usize, full: usize| if args.quick { quick } else { full };
    match args.shape.dim() {
        1 => one_shot::<Kernel1D>(args, &[side(1 << 26, 1 << 29)]),
        2 => one_shot::<Kernel2D>(args, &[side(512, 2048); 2]),
        _ => one_shot::<Kernel3D>(args, &[side(32, 64), side(128, 256), side(128, 256)]),
    }
}

fn one_shot<K: Stencil>(args: &CliArgs, caps: &[usize]) -> Result<(f64, bool), ConvStencilError> {
    let cfg = DeviceConfig::a100();
    let steps_sim = args.steps.clamp(1, 6);
    let extent: Vec<String> = axes(args.sizes.len())
        .iter()
        .zip(&args.sizes)
        .map(|(axis, size)| format!("{axis} = {size}"))
        .collect();
    println!(
        "INFO: shape = {}, {}, times = {}",
        args.shape.cli_name(),
        extent.join(", "),
        args.steps
    );
    let (runner, grid) = problem::<K>(
        args.shape,
        args.custom_weights.as_deref(),
        &args.sizes,
        caps,
    )?;
    let points: u64 = args.sizes.iter().map(|&s| s as u64).product();
    let tracing = args.profile || args.trace.is_some();
    let mut merged_trace = Trace::new();
    let mut last = 0.0;
    let mut sanitize_clean = true;
    for (name, variant) in variants(args.breakdown) {
        let report = runner
            .clone()
            .with_variant(variant)
            .with_tracing(tracing)
            .with_sanitizer(args.sanitize)
            .try_run(&grid, steps_sim)?
            .1;
        let (time, gstencils) = project_gstencils(&report, &cfg, points, args.steps as u64);
        if args.breakdown {
            println!("{name}:");
        } else {
            println!("ConvStencil({}D):", K::DIM);
        }
        println!("Time = {:.0}[ms]", time * 1e3);
        println!("GStencil/s = {gstencils:.6}");
        if let Some(san) = &report.sanitizer {
            let load_replays: u64 = san.load_conflicts.iter().sum();
            if san.is_clean() {
                println!(
                    "[sanitize] clean: 0 violations, {load_replays} load-phase bank \
                     conflict replays, {} fault sites",
                    san.fault_sites.len()
                );
            } else {
                sanitize_clean = false;
                println!(
                    "[sanitize] {} violation(s) (init {}, mem {}, race {}, bank {}):",
                    san.total_violations(),
                    san.init_total,
                    san.mem_total,
                    san.race_total,
                    san.bank_total
                );
                print!("{}", san.render());
            }
        }
        if let Some(trace) = &report.trace {
            if args.profile {
                println!("\nPer-phase profile of the measured run ({name}):");
                print!("{}", Profile::from_trace(trace).render_table());
            }
            merged_trace.merge(trace.clone());
        }
        last = gstencils;
    }
    if let Some(path) = &args.trace {
        convstencil_bench::atomic_write(path, merged_trace.to_jsonl().as_bytes()).map_err(|e| {
            ConvStencilError::ArtifactWrite {
                path: path.display().to_string(),
                reason: e.to_string(),
            }
        })?;
        println!(
            "[trace] wrote {} spans to {}",
            merged_trace.len(),
            path.display()
        );
    }
    Ok((last, sanitize_clean))
}

/// `check` subcommand: build the plan(s) for the requested shape/size,
/// run the static verifier, and report. Returns `Ok(true)` when every
/// checked plan verifies, `Ok(false)` when any is rejected (binaries
/// exit nonzero). With `--mutate-lut` one lookup-table entry is
/// corrupted first — the negative control demonstrating rejection.
pub fn try_run_check(args: &CliArgs) -> Result<bool, ConvStencilError> {
    match args.shape.dim() {
        1 => check::<Kernel1D>(args, |exec| exec.lut_mut().set(0, 0, [1, 1])),
        2 => check::<Kernel2D>(args, |exec| exec.lut_mut().set(0, 0, [1, 1])),
        _ => check::<Kernel3D>(args, |exec| exec.lut_mut().set(0, 0, [1, 1])),
    }
}

/// [`try_run_check`] for one dimension; `mutate_lut` corrupts one
/// lookup-table entry of that dimension's executor.
fn check<K: Stencil>(
    args: &CliArgs,
    mutate_lut: impl Fn(&mut K::Exec),
) -> Result<bool, ConvStencilError> {
    let kernel = kernel_for::<K>(args.shape, args.custom_weights.as_deref())?;
    let mut all_ok = true;
    for (name, variant) in variants(args.breakdown) {
        let mut exec = kernel.exec(&args.sizes, variant)?;
        if args.mutate_lut {
            mutate_lut(&mut exec);
        }
        match K::verify(&exec) {
            Ok(()) => println!(
                "[check] {name}: plan verified (LUT total + injective, dirty bits \
                 in padding, weights banded, banking conflict-free)"
            ),
            Err(e) => {
                all_ok = false;
                println!("[check] {name}: REJECTED: {e}");
            }
        }
    }
    Ok(all_ok)
}

/// Shared binary entry point: parse argv, dispatch the `check`, `run`,
/// and `resume` subcommands vs. a one-shot run, and return the process
/// exit code — `0` on success, `1` on a pipeline error, a rejected
/// plan, or sanitizer findings, `2` on a usage error, `3` on corrupt or
/// unreadable checkpoint state (see [`runtime_cmd`]).
pub fn main_for(dim: usize, argv: &[String]) -> i32 {
    match argv.first().map(String::as_str) {
        Some("run") => return main_run(dim, &argv[1..]),
        Some("resume") => return main_resume(dim, &argv[1..]),
        _ => {}
    }
    let args = match parse_args(dim, argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if args.check {
        return match try_run_check(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!(
                    "convstencil_{dim}d: error checking {}: {e}",
                    args.shape.name()
                );
                1
            }
        };
    }
    match try_run_and_print_checked(&args) {
        Ok((_, clean)) if clean => 0,
        Ok(_) => {
            eprintln!("convstencil_{dim}d: sanitizer reported violations");
            1
        }
        Err(e) => {
            eprintln!(
                "convstencil_{dim}d: error running {}: {e}",
                args.shape.name()
            );
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_appendix_example() {
        // ./convstencil_2d box2d1r 10240 10240 10240
        let a = parse_args(2, &sv(&["box2d1r", "10240", "10240", "10240"])).unwrap();
        assert_eq!(a.shape, Shape::Box2D9P);
        assert_eq!(a.sizes, vec![10240, 10240]);
        assert_eq!(a.steps, 10240);
        assert!(!a.breakdown);
    }

    #[test]
    fn help_and_bad_input_yield_usage() {
        assert!(parse_args(2, &sv(&["--help"])).is_err());
        assert!(parse_args(2, &sv(&["box9d1r", "4", "4", "4"])).is_err());
        assert!(parse_args(2, &sv(&["box2d1r", "4", "4"])).is_err());
        // Dimension mismatch.
        assert!(parse_args(1, &sv(&["box2d1r", "4", "4", "4"])).is_err());
    }

    #[test]
    fn custom_weights_parse() {
        let mut args = vec![
            "1d1r".to_string(),
            "1000".into(),
            "4".into(),
            "--custom".into(),
        ];
        args.extend(["0.3", "0.4", "0.3"].iter().map(|s| s.to_string()));
        let a = parse_args(1, &args).unwrap();
        assert_eq!(a.custom_weights, Some(vec![0.3, 0.4, 0.3]));
    }

    #[test]
    fn check_subcommand_and_sanitize_flag_parse() {
        // Steps are optional under `check`.
        let a = parse_args(2, &sv(&["check", "box2d1r", "64", "64"])).unwrap();
        assert!(a.check);
        assert_eq!(a.steps, 1);
        let a = parse_args(2, &sv(&["check", "box2d3r", "64", "64", "--breakdown"])).unwrap();
        assert!(a.check && a.breakdown);
        let a = parse_args(2, &sv(&["check", "box2d1r", "64", "64", "--mutate-lut"])).unwrap();
        assert!(a.mutate_lut);
        let a = parse_args(2, &sv(&["box2d1r", "64", "64", "2", "--sanitize"])).unwrap();
        assert!(a.sanitize && !a.check);
        // A run (no `check`) still requires the step count.
        assert!(parse_args(2, &sv(&["box2d1r", "64", "64", "--sanitize"])).is_err());
    }

    #[test]
    fn check_accepts_and_rejects_plans() {
        let good = parse_args(2, &sv(&["check", "box2d1r", "128", "128"])).unwrap();
        assert!(try_run_check(&good).unwrap());
        let bad = parse_args(2, &sv(&["check", "box2d1r", "128", "128", "--mutate-lut"])).unwrap();
        assert!(!try_run_check(&bad).unwrap());
    }

    #[test]
    fn run_small_2d() {
        let a = CliArgs {
            shape: Shape::Box2D9P,
            sizes: vec![128, 128],
            steps: 3,
            custom_weights: None,
            breakdown: false,
            quick: true,
            profile: false,
            trace: None,
            sanitize: false,
            check: false,
            mutate_lut: false,
        };
        let (g, _) = try_run_and_print_checked(&a).unwrap();
        assert!(g > 0.0);
    }

    #[test]
    fn profile_and_trace_flags_parse() {
        let a = parse_args(
            2,
            &sv(&[
                "box2d1r",
                "64",
                "64",
                "3",
                "--quick",
                "--profile",
                "--trace",
                "out.jsonl",
            ]),
        )
        .unwrap();
        assert!(a.profile);
        assert_eq!(a.trace, Some(PathBuf::from("out.jsonl")));
        // --trace without a path is a usage error.
        assert!(parse_args(2, &sv(&["box2d1r", "64", "64", "3", "--trace"])).is_err());
        assert!(parse_args(2, &sv(&["box2d1r", "64", "64", "3", "--trace", "--quick"])).is_err());
    }

    #[test]
    fn run_small_2d_with_trace_writes_valid_jsonl() {
        let dir = std::env::temp_dir().join("convstencil_cli_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let a = CliArgs {
            shape: Shape::Box2D9P,
            sizes: vec![128, 128],
            steps: 3,
            custom_weights: None,
            breakdown: false,
            quick: true,
            profile: true,
            trace: Some(path.clone()),
            sanitize: false,
            check: false,
            mutate_lut: false,
        };
        let (g, _) = try_run_and_print_checked(&a).unwrap();
        assert!(g > 0.0);
        let content = std::fs::read_to_string(&path).unwrap();
        let trace = Trace::from_jsonl(&content).unwrap();
        assert!(!trace.is_empty());
        assert!(trace.spans.iter().any(|s| s.counters.dmma_ops > 0));
    }
}
