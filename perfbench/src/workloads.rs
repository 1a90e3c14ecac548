//! The three workloads: input generation, the untraced op, its full
//! correctness check, and the traced replay of the same op through the
//! public calls the library makes.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::alloc::{measure, OpStats};
use crate::spans::{Layer, Spans};
use convstencil::exec1d::try_run_1d_applications_bc;
use convstencil::exec2d::try_run_2d_applications_bc;
use convstencil::exec3d::try_run_3d_applications_bc;
use convstencil::{
    check_samples, ConvStencil1D, ConvStencil2D, ConvStencil3D, Exec1D, Exec2D, Exec3D, RunReport,
    VerifyConfig,
};
use convstencil_runtime::{
    load_latest, BreakerConfig, Checkpoint, CircuitBreaker, DeviceCursor, DevicePool, DeviceSlot,
    Job, JobEvent, JobOutcome, JobPayload, Runtime, RuntimeConfig,
};
use stencil_core::reference::{run1d, run2d};
use stencil_core::{
    check_close, fuse1d, fuse2d, run3d_periodic, Boundary, Grid1D, Grid2D, Grid3D, Kernel1D,
    Kernel2D, Shape, DEFAULT_TOL,
};
use tcu_sim::{CostModel, Counters, Device, DeviceConfig, LaunchStats, Phase, Trace};

/// Job-level counts of one op (all zero for one-shot runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobCounts {
    pub chunks: u64,
    pub retries: u64,
    pub migrations: u64,
    pub checkpoints: u64,
}

/// Everything an op produced that the checks compare.
#[derive(Debug, Clone)]
pub struct OpOutput {
    pub interior: Vec<f64>,
    pub counters: Counters,
    pub launch: LaunchStats,
    /// Modeled whole-ledger time (Eq. 2), in ms.
    pub modeled_ms: f64,
    /// Modeled throughput (Eq. 16) over the op's ledger.
    pub modeled_gstencils: f64,
    pub job: JobCounts,
}

impl OpOutput {
    fn from_report(interior: Vec<f64>, report: &RunReport) -> Self {
        Self {
            interior,
            counters: report.counters,
            launch: report.launch_stats,
            modeled_ms: report.cost.total * 1e3,
            modeled_gstencils: report.gstencils_per_sec,
            job: JobCounts::default(),
        }
    }

    /// Output bits, counter ledger, launch stats and job counts must all
    /// repeat exactly.
    pub fn same_as(&self, want: &OpOutput) -> Result<(), String> {
        if self.interior.len() != want.interior.len() {
            return Err("output has a different number of cells".to_string());
        }
        if let Some(i) = (0..self.interior.len())
            .find(|&i| self.interior[i].to_bits() != want.interior[i].to_bits())
        {
            return Err(format!(
                "output cell {i} differs: {} vs {}",
                self.interior[i], want.interior[i]
            ));
        }
        if self.counters != want.counters {
            return Err("counter ledger differs".to_string());
        }
        if self.launch != want.launch {
            return Err(format!(
                "launch stats differ: {:?} vs {:?}",
                self.launch, want.launch
            ));
        }
        if self.job != want.job {
            return Err(format!(
                "job counts differ: {:?} vs {:?}",
                self.job, want.job
            ));
        }
        Ok(())
    }
}

/// What a traced replay returns besides its output.
pub struct Traced {
    pub out: OpOutput,
    /// Modeled time per device phase (scatter, tessellation, epilogue,
    /// halo), summed from the device trace's `modeled_sec`, in ms.
    pub phase_modeled_ms: [f64; 4],
}

/// Checkpoint measurements on the files one op wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct CkptProbe {
    pub files: u64,
    pub disk_bytes: u64,
    /// `Checkpoint::load` summed over the files.
    pub load_ns: u64,
    /// `Checkpoint::encode` of each loaded checkpoint, summed.
    pub encode_ns: u64,
}

pub trait Workload {
    /// Interior points x time steps one op advances.
    fn points_steps(&self) -> f64;

    /// One untraced op; only the library calls are inside the measured
    /// region. `dir` is a fresh, empty directory the op may write to.
    fn op(&self, dir: &Path) -> Result<(OpOutput, OpStats), String>;

    /// The full check of an op's output on these inputs.
    fn full_check(&self, out: &OpOutput, scratch: &Scratch) -> Result<(), String>;

    /// Interior after the true unfused iteration: the base kernel run
    /// plainly, step by step, by `stencil_core`'s reference.
    fn truth(&self) -> Vec<f64>;

    /// Replay one op as the sequence of public calls it makes, with a span
    /// around each; the replay ends with `spans.stop()`.
    fn traced(&self, dir: &Path, spans: &mut Spans) -> Result<Traced, String>;

    /// Compare the files an op (`job_dir`) and its replay (`replay_dir`)
    /// wrote and time reading them back. `None` when nothing is written.
    fn checkpoint_probe(
        &self,
        _job_dir: &Path,
        _replay_dir: &Path,
    ) -> Result<Option<CkptProbe>, String> {
        Ok(None)
    }
}

/// Build a workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "job-1d-ckpt" => Box::new(Job1D::new(seed)?),
        "oneshot-2d" => Box::new(OneShot2D::new(seed)?),
        "oneshot-3d" => Box::new(OneShot3D::new(seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Fraction of cells whose mixed error against `truth` exceeds
/// `DEFAULT_TOL` (the `check_close` criterion; NaN counts as wrong).
pub fn wrong_cell_frac(got: &[f64], truth: &[f64]) -> f64 {
    let wrong = got
        .iter()
        .zip(truth)
        .filter(|(a, b)| {
            let err = (*a - *b).abs() / a.abs().max(b.abs()).max(1.0);
            err.is_nan() || err > DEFAULT_TOL
        })
        .count();
    wrong as f64 / got.len() as f64
}

/// Uniform values in [0, 1) from a SplitMix64 stream.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn phase_modeled_ms(trace: &Trace) -> [f64; 4] {
    let mut out = [0.0; 4];
    for span in &trace.spans {
        let i = match span.phase {
            Phase::SmemScatter => 0,
            Phase::Tessellation => 1,
            Phase::Epilogue => 2,
            Phase::HaloExchange => 3,
            _ => continue,
        };
        out[i] += span.modeled_sec * 1e3;
    }
    out
}

fn check_reference(out: &OpOutput, reference: &[f64]) -> Result<(), String> {
    check_close(&out.interior, reference, DEFAULT_TOL)
        .map_err(|e| format!("output differs from run_reference: {e}"))
}

/// Per-process scratch directories for checkpoint files, inside the
/// benchmark's own directory. Each op gets a fresh one; everything is
/// removed when the benchmark ends. Names are fixed-width so every op's
/// paths, and the heap bytes they take, are the same in every run.
pub struct Scratch {
    root: PathBuf,
    next: Cell<u64>,
}

impl Scratch {
    pub fn new() -> Result<Self, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tmp")
            .join(format!("{:010}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Self {
            root,
            next: Cell::new(0),
        })
    }

    pub fn fresh(&self) -> Result<PathBuf, String> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("op{n:08}"));
        std::fs::create_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn remove(&self, dir: &Path) -> Result<(), String> {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty `tmp/` behind either (fails harmlessly while
        // another benchmark process still uses it).
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

// ---------------------------------------------------------------- 2D ----

const STEPS_2D: usize = 6;
const SIDE_2D: usize = 1024;

/// `oneshot-2d`: Box-2D9P, Dirichlet, default fused ConvStencil variant.
struct OneShot2D {
    runner: ConvStencil2D,
    grid: Grid2D,
}

impl OneShot2D {
    fn new(seed: u64) -> Result<Self, String> {
        let kernel = Shape::Box2D9P
            .kernel2d()
            .ok_or("Box-2D9P has no 2D kernel")?;
        let runner = ConvStencil2D::try_new(kernel).map_err(err)?;
        let halo = runner.fused_kernel().radius();
        let mut next = uniform(seed);
        let grid = Grid2D::from_fn(SIDE_2D, SIDE_2D, halo, |_, _| next());
        Ok(Self { runner, grid })
    }
}

/// Mirrors `ConvStencil2D::try_run_on`.
fn replay_2d(
    r: &ConvStencil2D,
    dev: &mut Device,
    grid: &Grid2D,
    steps: usize,
    s: &mut Spans,
) -> Result<Grid2D, String> {
    let mut current = s.time(Layer::Layout, || grid.clone());
    s.produced(current.padded().len());
    let fusion = if r.variant().use_tcu { r.fusion() } else { 1 };
    let fused = if fusion == r.fusion() {
        r.fused_kernel().clone()
    } else {
        r.base_kernel().clone()
    };
    if steps / fusion > 0 {
        current = apps_2d(r, dev, &current, &fused, steps / fusion, s)?;
    }
    if !steps.is_multiple_of(fusion) {
        let rem = fuse2d(r.base_kernel(), steps % fusion);
        current = apps_2d(r, dev, &current, &rem, 1, s)?;
    }
    Ok(current)
}

/// Mirrors `ConvStencil2D::try_run_apps` (sanitizer off).
fn apps_2d(
    r: &ConvStencil2D,
    dev: &mut Device,
    grid: &Grid2D,
    kernel: &Kernel2D,
    apps: usize,
    s: &mut Spans,
) -> Result<Grid2D, String> {
    let (m, n) = (grid.rows(), grid.cols());
    let exec = s
        .time(Layer::Plan, || Exec2D::try_new(kernel, m, n, r.variant()))
        .map_err(err)?;
    let work = s.time(Layer::Layout, || {
        if grid.halo() >= kernel.radius() {
            grid.clone()
        } else {
            grid.with_halo(kernel.radius())
        }
    });
    s.produced(work.padded().len());
    let ext0 = s
        .time(Layer::Layout, || exec.plan.try_build_ext(&work))
        .map_err(err)?;
    s.produced(ext0.len());
    let ext = s
        .time(Layer::Device, || {
            try_run_2d_applications_bc(dev, &exec, &ext0, apps, r.boundary())
        })
        .map_err(err)?;
    let out = s.time(Layer::Layout, || {
        let mut out = grid.clone();
        exec.plan.extract_into(&ext, &mut out);
        out
    });
    s.produced(out.padded().len());
    Ok(out)
}

impl Workload for OneShot2D {
    fn points_steps(&self) -> f64 {
        (SIDE_2D * SIDE_2D * STEPS_2D) as f64
    }

    fn op(&self, _dir: &Path) -> Result<(OpOutput, OpStats), String> {
        let (res, stats) = measure(|| self.runner.try_run(&self.grid, STEPS_2D));
        let (out, report) = res.map_err(err)?;
        Ok((OpOutput::from_report(out.interior(), &report), stats))
    }

    fn full_check(&self, out: &OpOutput, _scratch: &Scratch) -> Result<(), String> {
        check_reference(
            out,
            &self.runner.run_reference(&self.grid, STEPS_2D).interior(),
        )
    }

    fn truth(&self) -> Vec<f64> {
        run2d(&self.grid, self.runner.base_kernel(), STEPS_2D).interior()
    }

    fn traced(&self, _dir: &Path, s: &mut Spans) -> Result<Traced, String> {
        // Mirrors `ConvStencil2D::try_run`.
        let mut dev = self.runner.pool_device(None);
        dev.set_tracing(true);
        let out = replay_2d(&self.runner, &mut dev, &self.grid, STEPS_2D, s)?;
        let report = device_report(&mut dev, (SIDE_2D * SIDE_2D) as u64, STEPS_2D as u64);
        s.stop();
        Ok(traced_output(out.interior(), report))
    }
}

/// What `RunReport::from_device` computes: the cost model over the
/// ledger, and the trace drained from the device.
fn device_report(dev: &mut Device, points: u64, steps: u64) -> (OpOutput, Trace) {
    let model = CostModel::new(dev.config.clone());
    let cost = model.evaluate(&dev.counters, &dev.launch_stats);
    let gstencils = model.gstencils_per_sec(&dev.counters, &dev.launch_stats, points, steps);
    let out = OpOutput {
        interior: Vec::new(),
        counters: dev.counters,
        launch: dev.launch_stats,
        modeled_ms: cost.total * 1e3,
        modeled_gstencils: gstencils,
        job: JobCounts::default(),
    };
    (out, dev.take_trace())
}

fn traced_output(interior: Vec<f64>, (mut out, trace): (OpOutput, Trace)) -> Traced {
    out.interior = interior;
    Traced {
        out,
        phase_modeled_ms: phase_modeled_ms(&trace),
    }
}

// ---------------------------------------------------------------- 3D ----

const STEPS_3D: usize = 6;
const DIMS_3D: (usize, usize, usize) = (16, 128, 128);

/// `oneshot-3d`: Box-3D27P, periodic, unfused plane decomposition.
struct OneShot3D {
    runner: ConvStencil3D,
    grid: Grid3D,
}

impl OneShot3D {
    fn new(seed: u64) -> Result<Self, String> {
        let kernel = Shape::Box3D27P
            .kernel3d()
            .ok_or("Box-3D27P has no 3D kernel")?;
        let halo = kernel.radius();
        let runner = ConvStencil3D::try_new(kernel)
            .map_err(err)?
            .with_boundary(Boundary::Periodic);
        let (d, m, n) = DIMS_3D;
        let mut next = uniform(seed);
        let grid = Grid3D::from_fn(d, m, n, halo, |_, _, _| next());
        Ok(Self { runner, grid })
    }
}

impl Workload for OneShot3D {
    fn points_steps(&self) -> f64 {
        let (d, m, n) = DIMS_3D;
        (d * m * n * STEPS_3D) as f64
    }

    fn op(&self, _dir: &Path) -> Result<(OpOutput, OpStats), String> {
        let (res, stats) = measure(|| self.runner.try_run(&self.grid, STEPS_3D));
        let (out, report) = res.map_err(err)?;
        Ok((OpOutput::from_report(out.interior(), &report), stats))
    }

    fn full_check(&self, out: &OpOutput, _scratch: &Scratch) -> Result<(), String> {
        check_reference(
            out,
            &self.runner.run_reference(&self.grid, STEPS_3D).interior(),
        )
    }

    fn truth(&self) -> Vec<f64> {
        run3d_periodic(&self.grid, self.runner.base_kernel(), STEPS_3D).interior()
    }

    fn traced(&self, _dir: &Path, s: &mut Spans) -> Result<Traced, String> {
        // Mirrors `ConvStencil3D::try_run` and `try_run_on`.
        let r = &self.runner;
        let (d, m, n) = DIMS_3D;
        let mut dev = r.pool_device(None);
        dev.set_tracing(true);
        let exec = s
            .time(Layer::Plan, || {
                Exec3D::try_new(r.base_kernel(), d, m, n, r.variant())
            })
            .map_err(err)?;
        let ext0 = s
            .time(Layer::Layout, || exec.try_build_ext(&self.grid))
            .map_err(err)?;
        s.produced(ext0.len());
        let ext = s
            .time(Layer::Device, || {
                try_run_3d_applications_bc(&mut dev, &exec, &ext0, STEPS_3D, r.boundary())
            })
            .map_err(err)?;
        let out = s.time(Layer::Layout, || {
            let mut out = self.grid.clone();
            exec.extract_into(&ext, &mut out);
            out
        });
        s.produced(out.padded().len());
        let report = device_report(&mut dev, (d * m * n) as u64, STEPS_3D as u64);
        s.stop();
        Ok(traced_output(out.interior(), report))
    }
}

// ---------------------------------------------------------------- job ----

const JOB: &str = "perfbench-heat1d";
const JOB_POINTS: usize = 1 << 16;
const JOB_STEPS: u64 = 48;
/// Checkpoint cadence: a multiple of Heat-1D's fusion degree (3), so the
/// chunked job is bit-identical to a one-shot run.
const CADENCE: u64 = 3;
/// The job halts after this many checkpoints and is resumed.
const HALT_AFTER: u64 = 8;
const DEVICES: usize = 2;

/// `job-1d-ckpt`: Heat-1D through the runtime with checkpoints, a halt
/// and a resume.
struct Job1D {
    runner: ConvStencil1D,
    grid: Grid1D,
}

/// State the runtime carries between chunks of one job execution.
struct JobState {
    grid: Grid1D,
    counters: Counters,
    launch: LaunchStats,
    steps_done: u64,
    chunks: u64,
    checkpoints: u64,
    /// Runner flags (tracing, sanitizer, pooling) as the runtime records
    /// them, read before the replay turns device tracing on.
    flags: [bool; 3],
}

impl Job1D {
    fn new(seed: u64) -> Result<Self, String> {
        let kernel = Shape::Heat1D.kernel1d().ok_or("Heat-1D has no 1D kernel")?;
        let runner = ConvStencil1D::try_new(kernel).map_err(err)?;
        let halo = runner.fused_kernel().radius();
        let mut next = uniform(seed);
        let grid = Grid1D::from_fn(JOB_POINTS, halo, |_| next());
        Ok(Self { runner, grid })
    }

    fn config(dir: &Path, halt: Option<u64>) -> RuntimeConfig {
        RuntimeConfig {
            devices: DEVICES,
            checkpoint_every: CADENCE,
            checkpoint_dir: Some(dir.to_path_buf()),
            verify: Some(VerifyConfig::default()),
            halt_after_checkpoints: halt,
            ..RuntimeConfig::default()
        }
    }

    /// Submit the job and run it; with `halt`, stop after that many
    /// checkpoints and resume from the newest one. Returns the final
    /// outcome and the chunks completed over both executions.
    fn run_job(&self, dir: &Path, halt: Option<u64>) -> Result<(JobOutcome, u64), String> {
        let chunks = |o: &JobOutcome| {
            o.report
                .events
                .iter()
                .filter(|e| matches!(e, JobEvent::ChunkCompleted { .. }))
                .count() as u64
        };
        let mut rt = Runtime::new(Self::config(dir, halt));
        rt.submit(Job {
            name: JOB.to_string(),
            payload: JobPayload::D1 {
                runner: self.runner.clone(),
                grid: self.grid.clone(),
            },
            steps: JOB_STEPS,
        })
        .map_err(err)?;
        let first = rt
            .run_next()
            .ok_or("the submitted job was not queued")?
            .map_err(err)?;
        if halt.is_none() {
            let n = chunks(&first);
            return Ok((first, n));
        }
        if !first.halted {
            return Err("the job did not halt at its checkpoint limit".to_string());
        }
        let (done, warnings) = rt.resume(Some(JOB)).map_err(err)?;
        if let Some(w) = warnings.first() {
            return Err(format!("resume skipped a checkpoint: {w}"));
        }
        let n = chunks(&first) + chunks(&done);
        Ok((done, n))
    }

    fn output(&self, (outcome, chunks): (JobOutcome, u64)) -> Result<OpOutput, String> {
        let JobPayload::D1 { grid, .. } = &outcome.payload else {
            return Err("the job came back with a non-1D payload".to_string());
        };
        if outcome.halted {
            return Err("the job ended halted".to_string());
        }
        let r = &outcome.report;
        Ok(OpOutput {
            interior: grid.interior(),
            counters: r.counters,
            launch: r.launch_stats,
            modeled_ms: r.modeled_cost_ms,
            modeled_gstencils: job_gstencils(&r.counters, &r.launch_stats),
            job: JobCounts {
                chunks,
                retries: r.retries,
                migrations: r.migrations,
                checkpoints: r.checkpoints_written,
            },
        })
    }

    /// Mirrors the device-pool construction of `Runtime::execute`.
    fn new_pool(runner: &ConvStencil1D, resume: Option<&Checkpoint>) -> DevicePool {
        let config = BreakerConfig::default();
        let slots = (0..DEVICES)
            .map(|id| {
                let cursor = resume.and_then(|ck| ck.devices.get(id));
                let plan = cursor.and_then(|c| c.plan);
                let mut device = runner.pool_device(plan);
                let mut breaker = CircuitBreaker::new(config);
                if let Some(c) = cursor {
                    device.restore_fault_cursor(c.fault_epoch, c.launch_attempts, c.dead);
                    breaker = CircuitBreaker::restore(config, c.breaker);
                }
                DeviceSlot {
                    id,
                    device,
                    plan,
                    breaker,
                }
            })
            .collect();
        let mut pool = DevicePool::new(slots);
        if let Some(ck) = resume {
            pool.restore_completed(ck.pool_completed);
        }
        pool
    }

    /// Mirrors `Runtime::snapshot`.
    fn snapshot(
        runner: &ConvStencil1D,
        st: &JobState,
        pool: &DevicePool,
        active: usize,
    ) -> Checkpoint {
        let kernel = runner.base_kernel();
        let v = runner.variant();
        Checkpoint {
            job: JOB.to_string(),
            dim: 1,
            radius: kernel.radius(),
            weights: kernel.weights().to_vec(),
            fusion: runner.fusion(),
            boundary: match runner.boundary() {
                Boundary::Dirichlet => "dirichlet".to_string(),
                Boundary::Periodic => "periodic".to_string(),
            },
            variant: [v.explicit_global, v.use_tcu, v.padding, v.dirty_bits_lut],
            flags: st.flags,
            steps_total: JOB_STEPS,
            steps_done: st.steps_done,
            checkpoint_every: CADENCE,
            grid_dims: vec![st.grid.len()],
            grid_halo: st.grid.halo(),
            grid_data: st.grid.padded().to_vec(),
            counters: st.counters,
            launch_stats: st.launch,
            migrations: 0,
            degraded: false,
            checkpoints_written: st.checkpoints + 1,
            faults_detected: 0,
            retries: 0,
            pool_completed: pool.completed(),
            active_device: Some(active),
            sanitizer: None,
            devices: pool
                .slots()
                .iter()
                .map(|slot| DeviceCursor {
                    id: slot.id,
                    plan: slot.plan,
                    fault_epoch: slot.device.fault_epoch(),
                    launch_attempts: slot.device.launch_attempts(),
                    dead: slot.device.is_dead(),
                    breaker: slot.breaker.state(),
                })
                .collect(),
        }
    }

    /// Mirrors the chunk loop of `Runtime::execute` on a quiet pool: each
    /// chunk runs, is checked against the reference, commits, and is
    /// checkpointed. Stops after `halt_after` checkpoints, if given.
    fn replay_chunks(
        runner: &ConvStencil1D,
        pool: &mut DevicePool,
        active: usize,
        st: &mut JobState,
        dir: &Path,
        halt_after: Option<u64>,
        s: &mut Spans,
    ) -> Result<(), String> {
        let cfg = VerifyConfig::default();
        let mut written_here = 0;
        while st.steps_done < JOB_STEPS {
            let chunk = CADENCE.min(JOB_STEPS - st.steps_done) as usize;
            let dev = &mut pool.slot_mut(active).device;
            let (counters0, launch0) = (dev.counters, dev.launch_stats);
            let out = replay_1d(runner, dev, &st.grid, chunk, s)?;
            let want = s.time(Layer::Reference, || runner.run_reference(&st.grid, chunk));
            s.time(Layer::Verify, || {
                check_samples(&out.interior(), &want.interior(), &cfg)
            })
            .map_err(|e| format!("chunk ending at step {}: {e}", st.steps_done + chunk as u64))?;
            s.time(Layer::Runtime, || {
                let dev = &pool.slot(active).device;
                st.counters += dev.counters.saturating_sub(&counters0);
                st.launch.merge(&LaunchStats {
                    kernel_launches: dev.launch_stats.kernel_launches - launch0.kernel_launches,
                    total_blocks: dev.launch_stats.total_blocks - launch0.total_blocks,
                });
                pool.record_success(active);
            });
            st.grid = out;
            st.steps_done += chunk as u64;
            st.chunks += 1;
            s.time(Layer::CheckpointSave, || {
                Self::snapshot(runner, st, pool, active).save(dir)
            })
            .map_err(err)?;
            st.checkpoints += 1;
            written_here += 1;
            if halt_after == Some(written_here) && st.steps_done < JOB_STEPS {
                break;
            }
        }
        Ok(())
    }
}

fn job_gstencils(counters: &Counters, launch: &LaunchStats) -> f64 {
    CostModel::new(DeviceConfig::a100()).gstencils_per_sec(
        counters,
        launch,
        JOB_POINTS as u64,
        JOB_STEPS,
    )
}

/// Mirrors `ConvStencil1D::try_run_on`.
fn replay_1d(
    r: &ConvStencil1D,
    dev: &mut Device,
    grid: &Grid1D,
    steps: usize,
    s: &mut Spans,
) -> Result<Grid1D, String> {
    let mut current = s.time(Layer::Layout, || grid.clone());
    s.produced(current.padded().len());
    let fusion = if r.variant().use_tcu { r.fusion() } else { 1 };
    let fused = if fusion == r.fusion() {
        r.fused_kernel().clone()
    } else {
        r.base_kernel().clone()
    };
    if steps / fusion > 0 {
        current = apps_1d(r, dev, &current, &fused, steps / fusion, s)?;
    }
    if !steps.is_multiple_of(fusion) {
        let rem = fuse1d(r.base_kernel(), steps % fusion);
        current = apps_1d(r, dev, &current, &rem, 1, s)?;
    }
    Ok(current)
}

/// Mirrors `ConvStencil1D::try_run_apps` (sanitizer off).
fn apps_1d(
    r: &ConvStencil1D,
    dev: &mut Device,
    grid: &Grid1D,
    kernel: &Kernel1D,
    apps: usize,
    s: &mut Spans,
) -> Result<Grid1D, String> {
    let exec = s
        .time(Layer::Plan, || {
            Exec1D::try_new(kernel, grid.len(), r.variant())
        })
        .map_err(err)?;
    let work = s.time(Layer::Layout, || {
        if grid.halo() >= kernel.radius() {
            grid.clone()
        } else {
            grid.with_halo(kernel.radius())
        }
    });
    s.produced(work.padded().len());
    let ext0 = s
        .time(Layer::Layout, || exec.plan.try_build_ext(&work))
        .map_err(err)?;
    s.produced(ext0.len());
    let ext = s
        .time(Layer::Device, || {
            try_run_1d_applications_bc(dev, &exec, &ext0, apps, r.boundary())
        })
        .map_err(err)?;
    let out = s.time(Layer::Layout, || {
        let mut out = grid.clone();
        exec.plan.extract_into(&ext, &mut out);
        out
    });
    s.produced(out.padded().len());
    Ok(out)
}

/// Checkpoint file names in `dir`, sorted.
fn checkpoint_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(err)?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

impl Workload for Job1D {
    fn points_steps(&self) -> f64 {
        JOB_POINTS as f64 * JOB_STEPS as f64
    }

    fn op(&self, dir: &Path) -> Result<(OpOutput, OpStats), String> {
        let (res, stats) = measure(|| self.run_job(dir, Some(HALT_AFTER)));
        Ok((self.output(res?)?, stats))
    }

    fn full_check(&self, out: &OpOutput, scratch: &Scratch) -> Result<(), String> {
        let want = JobCounts {
            chunks: JOB_STEPS / CADENCE,
            retries: 0,
            migrations: 0,
            checkpoints: JOB_STEPS / CADENCE,
        };
        if out.job != want {
            return Err(format!("job counts {:?}, want {want:?}", out.job));
        }
        check_reference(
            out,
            &self
                .runner
                .run_reference(&self.grid, JOB_STEPS as usize)
                .interior(),
        )?;
        // Bit-identical to a one-shot run of the same steps.
        let (grid, report) = self
            .runner
            .try_run(&self.grid, JOB_STEPS as usize)
            .map_err(err)?;
        let mut oneshot = OpOutput::from_report(grid.interior(), &report);
        oneshot.job = out.job;
        out.same_as(&oneshot)
            .map_err(|e| format!("job vs one-shot try_run: {e}"))?;
        // The halted-and-resumed job matches an uninterrupted one.
        let dir = scratch.fresh()?;
        let straight = self.run_job(&dir, None);
        scratch.remove(&dir)?;
        let straight = self.output(straight?)?;
        out.same_as(&straight)
            .map_err(|e| format!("resumed vs uninterrupted job: {e}"))
    }

    fn truth(&self) -> Vec<f64> {
        run1d(&self.grid, self.runner.base_kernel(), JOB_STEPS as usize).interior()
    }

    fn traced(&self, dir: &Path, s: &mut Spans) -> Result<Traced, String> {
        // First execution: fresh pool, halts after HALT_AFTER checkpoints.
        let mut pool = s.time(Layer::Runtime, || Self::new_pool(&self.runner, None));
        let flags = {
            let d = &pool.slot(0).device;
            [d.tracing(), d.sanitizing(), d.scratch_pooling()]
        };
        let mut st = JobState {
            grid: s.time(Layer::Runtime, || self.grid.clone()),
            counters: Counters::default(),
            launch: LaunchStats::default(),
            steps_done: 0,
            chunks: 0,
            checkpoints: 0,
            flags,
        };
        let mut trace = Trace::new();
        for slot in 0..DEVICES {
            pool.slot_mut(slot).device.set_tracing(true);
        }
        let active = s
            .time(Layer::Runtime, || pool.pick_healthy(None))
            .ok_or("no healthy device in a quiet pool")?;
        Self::replay_chunks(
            &self.runner,
            &mut pool,
            active,
            &mut st,
            dir,
            Some(HALT_AFTER),
            s,
        )?;
        for slot in 0..DEVICES {
            trace.merge(pool.slot_mut(slot).device.take_trace());
        }

        // Resume: newest checkpoint, rebuilt payload and pool.
        let (ck, warnings) = s
            .time(Layer::CheckpointScan, || load_latest(dir, Some(JOB)))
            .map_err(err)?;
        if let Some(w) = warnings.first() {
            return Err(format!("replay resume skipped a checkpoint: {w}"));
        }
        let payload = s
            .time(Layer::Runtime, || JobPayload::from_checkpoint(&ck))
            .map_err(err)?;
        let JobPayload::D1 { runner, grid } = payload else {
            return Err("checkpoint rebuilt a non-1D payload".to_string());
        };
        let mut pool = s.time(Layer::Runtime, || Self::new_pool(&runner, Some(&ck)));
        for slot in 0..DEVICES {
            pool.slot_mut(slot).device.set_tracing(true);
        }
        let active = ck.active_device.ok_or("checkpoint has no active device")?;
        let mut st = JobState {
            grid,
            counters: ck.counters,
            launch: ck.launch_stats,
            steps_done: ck.steps_done,
            chunks: st.chunks,
            checkpoints: ck.checkpoints_written,
            flags,
        };
        Self::replay_chunks(&runner, &mut pool, active, &mut st, dir, None, s)?;
        let modeled_ms = s.time(Layer::Runtime, || {
            CostModel::new(pool.slot(0).device.config.clone())
                .evaluate(&st.counters, &st.launch)
                .total
                * 1e3
        });
        s.stop();

        for slot in 0..DEVICES {
            trace.merge(pool.slot_mut(slot).device.take_trace());
        }
        Ok(Traced {
            out: OpOutput {
                interior: st.grid.interior(),
                counters: st.counters,
                launch: st.launch,
                modeled_ms,
                modeled_gstencils: job_gstencils(&st.counters, &st.launch),
                job: JobCounts {
                    chunks: st.chunks,
                    retries: 0,
                    migrations: 0,
                    checkpoints: st.checkpoints,
                },
            },
            phase_modeled_ms: phase_modeled_ms(&trace),
        })
    }

    fn checkpoint_probe(
        &self,
        job_dir: &Path,
        replay_dir: &Path,
    ) -> Result<Option<CkptProbe>, String> {
        let names = checkpoint_names(job_dir)?;
        if names != checkpoint_names(replay_dir)? {
            return Err("the replay wrote different checkpoint files than the job".to_string());
        }
        let mut probe = CkptProbe::default();
        for name in &names {
            let path = job_dir.join(name);
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let replayed = std::fs::read(replay_dir.join(name)).map_err(err)?;
            if bytes != replayed {
                return Err(format!("replayed checkpoint {name} differs from the job's"));
            }
            probe.files += 1;
            probe.disk_bytes += std::fs::metadata(&path).map_err(err)?.len();
            let start = Instant::now();
            let ck = Checkpoint::load(&path).map_err(err)?;
            probe.load_ns += start.elapsed().as_nanos() as u64;
            let start = Instant::now();
            let text = ck.encode();
            probe.encode_ns += start.elapsed().as_nanos() as u64;
            if text.as_bytes() != bytes.as_slice() {
                return Err(format!(
                    "checkpoint {name} does not re-encode to its own bytes"
                ));
            }
        }
        Ok(Some(probe))
    }
}
