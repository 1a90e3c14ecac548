//! The resilient job runtime.
//!
//! Turns the one-shot `ConvStencil::try_run` entry point into jobs
//! executed on a [`DevicePool`] with a per-chunk attempt ladder:
//!
//! 1. **retry on the same device** — advance its fault epoch and rerun
//!    the chunk, once, unless the device is dead
//!    ([`ConvStencil::try_run_attempts`], the rung a verified one-shot
//!    run climbs on its own device);
//! 2. **circuit-break and migrate** — record the failure on the slot's
//!    breaker and replay the chunk on another healthy device from the
//!    last committed grid (the in-memory equivalent of the newest
//!    checkpoint);
//! 3. **degrade to the CPU reference backend** — when no healthy device
//!    remains, the rest of the job completes on the bit-faithful
//!    reference decomposition.
//!
//! Work proceeds in *chunks* of `checkpoint_every` timesteps. A chunk
//! either commits whole or not at all: its grid and counters commit at
//! once, and its checkpoint is encoded then and becomes durable by the
//! next chunk boundary or before `Runtime::execute` returns, whichever
//! comes first. So deadline cancellation and crashes always leave a
//! consistent last checkpoint. Deadlines — host wall clock and the
//! deterministic cost-model budget — are only checked *between* chunks,
//! never mid-launch.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::checkpoint::{load_latest, Checkpoint, DeviceCursor};
use crate::pool::{DevicePool, DeviceSlot};
use convstencil::{
    ConvStencil, ConvStencil1D, ConvStencil2D, ConvStencil3D, ConvStencilError, DeadlineKind,
    Stencil, VariantConfig, VerifyConfig, WorkArrays,
};
use stencil_core::{Boundary, Grid1D, Grid2D, Grid3D, HaloGrid};
use tcu_sim::{CostModel, Counters, Device, FaultPlan, LaunchStats, SanitizerReport, Trace};

/// Same-device retries a chunk gets before its failure is recorded on the
/// breaker and the job migrates (none on a dead device).
const SAME_DEVICE_RETRIES: u64 = 1;

/// Runtime-wide configuration (shared by every job the runtime executes).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Pool size. Clamped to at least 1.
    pub devices: usize,
    /// Per-slot fault-plan overrides; slots beyond the vector get `None`
    /// (quiet device).
    pub device_faults: Vec<Option<FaultPlan>>,
    pub breaker: BreakerConfig,
    /// Bounded job queue capacity; submissions beyond it are rejected
    /// with [`ConvStencilError::QueueFull`].
    pub queue_capacity: usize,
    /// Chunk size in timesteps; also the checkpoint cadence when
    /// `checkpoint_dir` is set. `0` means "one chunk for the whole job".
    pub checkpoint_every: u64,
    /// Where checkpoints go; `None` disables checkpointing (chunking
    /// still applies for deadlines and migration granularity).
    pub checkpoint_dir: Option<PathBuf>,
    /// Host wall-clock budget, checked between chunks.
    pub wall_budget_ms: Option<u64>,
    /// Cost-model (modelled seconds, Eq. 2) budget in milliseconds,
    /// checked between chunks. Deterministic: simulated hangs charge
    /// stall cycles that land here.
    pub cost_budget_ms: Option<u64>,
    /// When set, every chunk is spot-checked against the CPU reference
    /// (silent corruption then joins launch failures in the ladder).
    /// `VerifyConfig::max_retries` governs one-shot runs only: a chunk
    /// gets one same-device retry before the failure is recorded on the
    /// breaker and the job migrates.
    pub verify: Option<VerifyConfig>,
    /// Test hook: stop cleanly (outcome `halted = true`) after this many
    /// checkpoints have been written, simulating a crash whose last act
    /// was a completed checkpoint.
    pub halt_after_checkpoints: Option<u64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            devices: 2,
            device_faults: Vec::new(),
            breaker: BreakerConfig::default(),
            queue_capacity: 8,
            checkpoint_every: 0,
            checkpoint_dir: None,
            wall_budget_ms: None,
            cost_budget_ms: None,
            verify: None,
            halt_after_checkpoints: None,
        }
    }
}

/// A job's stencil problem: a planned runner plus the grid it advances.
#[derive(Debug, Clone)]
pub enum JobPayload {
    D1 { runner: ConvStencil1D, grid: Grid1D },
    D2 { runner: ConvStencil2D, grid: Grid2D },
    D3 { runner: ConvStencil3D, grid: Grid3D },
}

/// Evaluate `$body` with `$runner` and `$grid` bound to the payload's
/// fields, whatever its dimension.
macro_rules! each_dim {
    ($payload:expr, |$runner:pat_param, $grid:pat_param| $body:expr) => {
        match $payload {
            JobPayload::D1 {
                runner: $runner,
                grid: $grid,
            } => $body,
            JobPayload::D2 {
                runner: $runner,
                grid: $grid,
            } => $body,
            JobPayload::D3 {
                runner: $runner,
                grid: $grid,
            } => $body,
        }
    };
}

/// Rebuild a `K` runner and its grid from a checkpoint, on top of the
/// decoded variant and boundary.
fn decode<K: Stencil>(
    ck: &Checkpoint,
    variant: VariantConfig,
    boundary: Boundary,
) -> Result<(ConvStencil<K>, K::Grid), ConvStencilError> {
    let bad_grid = |why: String| ConvStencilError::ArtifactRead {
        path: Checkpoint::file_name(&ck.job, ck.steps_done),
        reason: why,
    };
    let want = (2 * ck.radius + 1).pow(K::DIM);
    if ck.weights.len() != want {
        return Err(bad_grid(format!(
            "{}D kernel wants {want} weights, checkpoint has {}",
            K::DIM,
            ck.weights.len()
        )));
    }
    let [tracing, sanitize, _] = ck.flags;
    let runner =
        ConvStencil::try_with_fusion(K::from_weights(ck.radius, ck.weights.clone()), ck.fusion)?
            .with_variant(variant)
            .with_boundary(boundary)
            .with_tracing(tracing)
            .with_sanitizer(sanitize);
    let mut grid = K::Grid::zeros(&ck.grid_dims, ck.grid_halo);
    if grid.padded().len() != ck.grid_data.len() {
        return Err(bad_grid(format!(
            "grid storage wants {} values, checkpoint has {}",
            grid.padded().len(),
            ck.grid_data.len()
        )));
    }
    grid.padded_mut().copy_from_slice(&ck.grid_data);
    Ok((runner, grid))
}

impl JobPayload {
    pub fn dim(&self) -> u8 {
        each_dim!(self, |_, grid| grid.dims().len() as u8)
    }

    /// Flat interior values of the current grid (test/inspection helper).
    pub fn interior(&self) -> Vec<f64> {
        each_dim!(self, |_, grid| grid.interior())
    }

    fn pool_device(&self, plan: Option<FaultPlan>) -> Device {
        each_dim!(self, |runner, _| runner.pool_device(plan))
    }

    /// Run one chunk on the CPU reference backend (always succeeds).
    fn reference_chunk(&mut self, steps: usize) {
        each_dim!(self, |runner, grid| *grid =
            runner.run_reference(grid, steps))
    }

    fn plan_fields(&self) -> (usize, Vec<f64>, usize, Boundary, VariantConfig) {
        each_dim!(self, |runner, _| {
            let kernel = runner.base_kernel();
            let weights = kernel.weights().to_vec();
            (
                kernel.radius(),
                weights,
                runner.fusion(),
                runner.boundary(),
                runner.variant(),
            )
        })
    }

    /// The grid's extent, halo and padded storage; the storage is lent
    /// out and must come back through [`JobPayload::restore_grid`].
    fn lend_grid(&mut self) -> (Vec<usize>, usize, Vec<f64>) {
        each_dim!(self, |_, grid| (
            grid.dims(),
            grid.halo(),
            grid.take_padded()
        ))
    }

    fn restore_grid(&mut self, data: Vec<f64>) {
        each_dim!(self, |_, grid| grid.restore_padded(data))
    }

    /// Rebuild a payload (runner + grid) from a checkpoint. The runner
    /// keeps the default device config of the current build; everything
    /// that shapes the numerics — kernel, fusion, variant, boundary,
    /// grid bits — comes from the checkpoint.
    pub fn from_checkpoint(ck: &Checkpoint) -> Result<Self, ConvStencilError> {
        let boundary = match ck.boundary.as_str() {
            "dirichlet" => Boundary::Dirichlet,
            "periodic" => Boundary::Periodic,
            other => {
                return Err(ConvStencilError::ArtifactRead {
                    path: Checkpoint::file_name(&ck.job, ck.steps_done),
                    reason: format!("unknown boundary {other:?}"),
                })
            }
        };
        let variant = VariantConfig {
            explicit_global: ck.variant[0],
            use_tcu: ck.variant[1],
            padding: ck.variant[2],
            dirty_bits_lut: ck.variant[3],
        };
        match ck.dim {
            1 => {
                decode(ck, variant, boundary).map(|(runner, grid)| JobPayload::D1 { runner, grid })
            }
            2 => {
                decode(ck, variant, boundary).map(|(runner, grid)| JobPayload::D2 { runner, grid })
            }
            3 => {
                decode(ck, variant, boundary).map(|(runner, grid)| JobPayload::D3 { runner, grid })
            }
            other => Err(ConvStencilError::ArtifactRead {
                path: Checkpoint::file_name(&ck.job, ck.steps_done),
                reason: format!("unsupported dim {other}"),
            }),
        }
    }
}

/// A queued unit of work.
#[derive(Debug, Clone)]
pub struct Job {
    /// Checkpoint file prefix; restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    pub payload: JobPayload,
    pub steps: u64,
}

/// Everything that happened while executing one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    ChunkCompleted {
        device: usize,
        steps_done: u64,
    },
    RetriedSameDevice {
        device: usize,
        attempt: u64,
    },
    BreakerOpened {
        device: usize,
    },
    Migrated {
        from: usize,
        to: usize,
        at_step: u64,
    },
    CheckpointWritten {
        step: u64,
    },
    Resumed {
        step: u64,
    },
    DegradedToReference {
        at_step: u64,
    },
    Halted {
        step: u64,
    },
}

/// Aggregated report for one job (the runtime analog of `RunReport`).
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Event ledger summed over every chunk attempt on every device
    /// (including failed attempts — the work happened).
    pub counters: Counters,
    pub launch_stats: LaunchStats,
    pub steps_total: u64,
    pub steps_done: u64,
    /// Chunk replays that moved to a different device.
    pub migrations: u64,
    /// True once any part of the job ran on the CPU reference backend.
    pub degraded: bool,
    pub checkpoints_written: u64,
    /// `Some(step)` when this execution continued from a checkpoint.
    pub resumed_from_step: Option<u64>,
    /// Failed chunk attempts (device faults + verification mismatches).
    pub faults_detected: u64,
    /// Same-device retries performed.
    pub retries: u64,
    /// Modelled cost of all accumulated work, in milliseconds (Eq. 2
    /// over the aggregated ledger — this is what the cost deadline
    /// compares against).
    pub modeled_cost_ms: f64,
    /// Aggregated sanitizer totals when the runner has the sanitizer on.
    pub sanitizer: Option<SanitizerReport>,
    /// Every span of this execution's chunk attempts, in order, when the
    /// runner has tracing on (`None` otherwise). Traces are not
    /// checkpointed: a resumed job's trace starts at the resume.
    pub trace: Option<Trace>,
    /// Ordered ladder/lifecycle events, for observability and tests.
    pub events: Vec<JobEvent>,
}

impl JobReport {
    /// Fold one chunk attempt on `device` into the report: its ledger and
    /// launches since `counters_before`/`launches_before`, and the
    /// sanitizer findings and spans the device holds, which are taken off
    /// it. Attempted work is real work: this runs whether or not the
    /// chunk committed.
    fn absorb_attempt(
        &mut self,
        device: &mut Device,
        counters_before: Counters,
        launches_before: LaunchStats,
    ) {
        self.counters += device.counters.saturating_sub(&counters_before);
        let launches = device.launch_stats;
        self.launch_stats.merge(&LaunchStats {
            kernel_launches: launches.kernel_launches - launches_before.kernel_launches,
            total_blocks: launches.total_blocks - launches_before.total_blocks,
        });
        if let Some(agg) = &mut self.sanitizer {
            agg.merge(device.take_sanitizer_report());
        }
        if let Some(trace) = &mut self.trace {
            trace.merge(device.take_trace());
        }
    }
}

/// A finished (or cleanly halted) job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub name: String,
    /// Final payload; its grid holds the advanced state.
    pub payload: JobPayload,
    pub report: JobReport,
    /// True when the run stopped at the `halt_after_checkpoints` hook
    /// rather than completing `steps_total`.
    pub halted: bool,
}

fn validate_job_name(name: &str) -> Result<(), ConvStencilError> {
    if !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        Ok(())
    } else {
        Err(ConvStencilError::PlanInvariant {
            reason: format!(
                "job name {name:?} must be non-empty and use only [A-Za-z0-9._-] \
                 (it becomes a checkpoint file prefix)"
            ),
        })
    }
}

/// What a finished checkpoint write hands back: the buffer and the result.
type Written = (Vec<u8>, Result<(), ConvStencilError>);

/// A job's checkpoint writes: each save is encoded on the job thread into
/// the one reused buffer, then written durably on a scoped helper thread
/// while the next chunk computes. At most one write is in flight; the
/// buffer comes back when it is joined.
struct CheckpointWriter<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    buf: Vec<u8>,
    in_flight: Option<ScopedJoinHandle<'scope, Written>>,
}

impl<'scope, 'env> CheckpointWriter<'scope, 'env> {
    fn new(scope: &'scope Scope<'scope, 'env>) -> Self {
        Self {
            scope,
            buf: Vec::new(),
            in_flight: None,
        }
    }

    /// Wait for the write in flight, if any, take its buffer back and
    /// return its error. A panic on the helper is re-raised here.
    fn join(&mut self) -> Result<(), ConvStencilError> {
        let Some(handle) = self.in_flight.take() else {
            return Ok(());
        };
        let (buf, written) = handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        self.buf = buf;
        written
    }

    /// Once the previous write is durable, encode `ck` and start writing
    /// it into `dir`. A failed previous write is returned instead, and
    /// nothing more is written.
    fn save(&mut self, ck: &Checkpoint, dir: &Path) -> Result<(), ConvStencilError> {
        self.join()?;
        let path = ck.encode_for_save(dir, &mut self.buf)?;
        let buf = std::mem::take(&mut self.buf);
        self.in_flight = Some(self.scope.spawn(move || {
            let written = Checkpoint::write_encoded(&path, &buf);
            (buf, written)
        }));
        Ok(())
    }
}

/// The runtime: a bounded job queue in front of a device pool.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    queue: VecDeque<Job>,
}

impl Runtime {
    pub fn new(config: RuntimeConfig) -> Self {
        Self {
            config,
            queue: VecDeque::new(),
        }
    }

    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Jobs waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Admission control: rejects beyond `queue_capacity` with
    /// [`ConvStencilError::QueueFull`] instead of growing unboundedly.
    pub fn submit(&mut self, job: Job) -> Result<(), ConvStencilError> {
        validate_job_name(&job.name)?;
        if self.queue.len() >= self.config.queue_capacity {
            return Err(ConvStencilError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        self.queue.push_back(job);
        Ok(())
    }

    /// Execute the oldest queued job; `None` when the queue is empty.
    pub fn run_next(&mut self) -> Option<Result<JobOutcome, ConvStencilError>> {
        let job = self.queue.pop_front()?;
        Some(self.execute(job.name, job.payload, job.steps, None))
    }

    /// Execute every queued job in FIFO order.
    pub fn drain(&mut self) -> Vec<Result<JobOutcome, ConvStencilError>> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(res) = self.run_next() {
            out.push(res);
        }
        out
    }

    /// Continue a job from the newest valid checkpoint in the configured
    /// checkpoint directory (skipping corrupt/truncated files with a
    /// warning). Returns the outcome plus the skip warnings.
    pub fn resume(&self, job: Option<&str>) -> Result<(JobOutcome, Vec<String>), ConvStencilError> {
        let dir =
            self.config
                .checkpoint_dir
                .as_ref()
                .ok_or_else(|| ConvStencilError::PlanInvariant {
                    reason: "resume needs a checkpoint_dir in the runtime config".to_string(),
                })?;
        let (ck, warnings) = load_latest(dir, job)?;
        let payload = JobPayload::from_checkpoint(&ck)?;
        let name = ck.job.clone();
        let steps = ck.steps_total;
        let outcome = self.execute(name, payload, steps, Some(ck))?;
        Ok((outcome, warnings))
    }

    /// Run one job to completion (or clean halt) through the ladder. Its
    /// checkpoint writes run on a scoped helper thread that is joined
    /// before this returns, on every path. A failed write wins over
    /// whatever else ended the run, because it happened first.
    fn execute(
        &self,
        name: String,
        payload: JobPayload,
        steps_total: u64,
        resume: Option<Checkpoint>,
    ) -> Result<JobOutcome, ConvStencilError> {
        std::thread::scope(|scope| {
            let mut writer = CheckpointWriter::new(scope);
            let run = self.run_chunks(name, payload, steps_total, resume, &mut writer);
            writer.join().and(run)
        })
    }

    /// The chunk loop of [`Runtime::execute`], handing each checkpoint to
    /// `writer`.
    fn run_chunks(
        &self,
        name: String,
        mut payload: JobPayload,
        steps_total: u64,
        resume: Option<Checkpoint>,
        writer: &mut CheckpointWriter<'_, '_>,
    ) -> Result<JobOutcome, ConvStencilError> {
        validate_job_name(&name)?;
        let started = Instant::now();
        let n_dev = self.config.devices.max(1);

        // Build the pool. On resume, each slot gets the checkpointed fault
        // plan and its fault cursor (epoch, launch attempts, dead flag) is
        // restored, so the deterministic fault streams continue exactly
        // where the interrupted run stopped.
        let mut slots = Vec::with_capacity(n_dev);
        for id in 0..n_dev {
            let cursor = resume.as_ref().and_then(|ck| ck.devices.get(id));
            let plan = match cursor {
                Some(c) => c.plan,
                None => self.config.device_faults.get(id).copied().flatten(),
            };
            let mut device = payload.pool_device(plan);
            let mut breaker = CircuitBreaker::new(self.config.breaker);
            if let Some(c) = cursor {
                device.restore_fault_cursor(c.fault_epoch, c.launch_attempts, c.dead);
                breaker = CircuitBreaker::restore(self.config.breaker, c.breaker);
            }
            slots.push(DeviceSlot {
                id,
                device,
                plan,
                breaker,
            });
        }
        let mut pool = DevicePool::new(slots);

        let mut report = JobReport {
            steps_total,
            ..JobReport::default()
        };
        let mut steps_done = 0u64;
        if pool.slot(0).device.sanitizing() {
            report.sanitizer = Some(SanitizerReport::default());
        }
        if pool.slot(0).device.tracing() {
            report.trace = Some(Trace::default());
        }
        if let Some(ck) = &resume {
            pool.restore_completed(ck.pool_completed);
            steps_done = ck.steps_done;
            report.steps_done = steps_done;
            report.counters = ck.counters;
            report.launch_stats = ck.launch_stats;
            report.migrations = ck.migrations;
            report.degraded = ck.degraded;
            report.checkpoints_written = ck.checkpoints_written;
            report.faults_detected = ck.faults_detected;
            report.retries = ck.retries;
            report.resumed_from_step = Some(ck.steps_done);
            if let (Some(agg), Some(saved)) = (&mut report.sanitizer, &ck.sanitizer) {
                agg.merge(saved.clone());
            }
            report.events.push(JobEvent::Resumed { step: steps_done });
        }

        let cost_model = CostModel::new(pool.slot(0).device.config.clone());
        // Resume continues on the checkpointed active device (an
        // uninterrupted run never re-consults the breaker of the device
        // it is already on, so neither does a resumed one); otherwise
        // pick the lowest-id healthy slot.
        let resumed_active = resume
            .as_ref()
            .and_then(|ck| ck.active_device)
            .filter(|&id| id < pool.len() && !pool.slot(id).device.is_dead());
        let mut active = if report.degraded {
            None
        } else if resumed_active.is_some() {
            resumed_active
        } else {
            pool.pick_healthy(None)
        };
        if active.is_none() && !report.degraded {
            report.degraded = true;
            report.events.push(JobEvent::DegradedToReference {
                at_step: steps_done,
            });
        }

        // Checkpoints written by *this* execution, so a resumed run gets
        // its own halt budget.
        let mut written_here = 0u64;
        while steps_done < steps_total {
            // Deadlines: between chunks only, so the last checkpoint (and
            // the committed grid) is always a consistent cut.
            if let Some(budget) = self.config.wall_budget_ms {
                let observed = started.elapsed().as_millis() as u64;
                if observed > budget {
                    return Err(ConvStencilError::DeadlineExceeded {
                        kind: DeadlineKind::Wall,
                        budget_ms: budget,
                        observed_ms: observed,
                        completed_steps: steps_done,
                    });
                }
            }
            if let Some(budget) = self.config.cost_budget_ms {
                let cost = cost_model.evaluate(&report.counters, &report.launch_stats);
                let observed = (cost.total * 1000.0).round() as u64;
                if observed > budget {
                    return Err(ConvStencilError::DeadlineExceeded {
                        kind: DeadlineKind::CostModel,
                        budget_ms: budget,
                        observed_ms: observed,
                        completed_steps: steps_done,
                    });
                }
            }

            let remaining = steps_total - steps_done;
            let chunk = if self.config.checkpoint_every == 0 {
                remaining
            } else {
                self.config.checkpoint_every.min(remaining)
            };

            // The ladder for this chunk: the same-device rung on the
            // active slot, then the breaker and a migration, then the
            // reference. `payload` only commits an accepted attempt, so
            // every rung replays from the last committed state and the
            // chunk's sampled reference serves every rung.
            let steps = chunk as usize;
            let mut expected = None;
            loop {
                let Some(slot_id) = active else {
                    payload.reference_chunk(steps);
                    if !report.degraded {
                        report.degraded = true;
                        report.events.push(JobEvent::DegradedToReference {
                            at_step: steps_done,
                        });
                    }
                    break;
                };
                let device = &mut pool.slot_mut(slot_id).device;
                let counters_before = device.counters;
                let launches_before = device.launch_stats;
                let (accepted, detected, retries) = each_dim!(&mut payload, |runner, grid| {
                    if let Some(cfg) = &self.config.verify {
                        expected.get_or_insert_with(|| runner.sampled_reference(grid, steps, cfg));
                    }
                    let attempts = runner.try_run_attempts(
                        device,
                        grid,
                        steps,
                        &mut WorkArrays::default(),
                        expected.as_ref(),
                        SAME_DEVICE_RETRIES,
                    )?;
                    let accepted = attempts.accepted.map(|out| *grid = out).is_some();
                    (accepted, attempts.detected, attempts.retries)
                });
                report.absorb_attempt(device, counters_before, launches_before);
                report.faults_detected += detected;
                report.retries += retries;
                report
                    .events
                    .extend((1..=retries).map(|attempt| JobEvent::RetriedSameDevice {
                        device: slot_id,
                        attempt,
                    }));
                if accepted {
                    pool.record_success(slot_id);
                    report.events.push(JobEvent::ChunkCompleted {
                        device: slot_id,
                        steps_done: steps_done + chunk,
                    });
                    break;
                }
                if pool.record_failure(slot_id) {
                    report
                        .events
                        .push(JobEvent::BreakerOpened { device: slot_id });
                }
                active = pool.pick_healthy(Some(slot_id));
                if let Some(next) = active {
                    report.migrations += 1;
                    report.events.push(JobEvent::Migrated {
                        from: slot_id,
                        to: next,
                        at_step: steps_done,
                    });
                }
            }

            steps_done += chunk;
            report.steps_done = steps_done;

            if let Some(dir) = &self.config.checkpoint_dir {
                let mut ck = self.snapshot(
                    &name,
                    &mut payload,
                    steps_total,
                    steps_done,
                    &report,
                    &pool,
                    active,
                );
                let saved = writer.save(&ck, dir);
                payload.restore_grid(std::mem::take(&mut ck.grid_data));
                saved?;
                report.checkpoints_written += 1;
                written_here += 1;
                report
                    .events
                    .push(JobEvent::CheckpointWritten { step: steps_done });
                if let Some(halt_after) = self.config.halt_after_checkpoints {
                    if written_here >= halt_after && steps_done < steps_total {
                        report.events.push(JobEvent::Halted { step: steps_done });
                        report.modeled_cost_ms = cost_model
                            .evaluate(&report.counters, &report.launch_stats)
                            .total
                            * 1000.0;
                        return Ok(JobOutcome {
                            name,
                            payload,
                            report,
                            halted: true,
                        });
                    }
                }
            }
        }

        report.modeled_cost_ms = cost_model
            .evaluate(&report.counters, &report.launch_stats)
            .total
            * 1000.0;
        Ok(JobOutcome {
            name,
            payload,
            report,
            halted: false,
        })
    }

    /// Snapshot the complete job state as a checkpoint. The grid data is
    /// the payload's own storage, lent until the caller restores it.
    #[allow(clippy::too_many_arguments)]
    fn snapshot(
        &self,
        name: &str,
        payload: &mut JobPayload,
        steps_total: u64,
        steps_done: u64,
        report: &JobReport,
        pool: &DevicePool,
        active: Option<usize>,
    ) -> Checkpoint {
        let (radius, weights, fusion, boundary, variant) = payload.plan_fields();
        let (grid_dims, grid_halo, grid_data) = payload.lend_grid();
        let slot0 = &pool.slot(0).device;
        Checkpoint {
            job: name.to_string(),
            dim: payload.dim(),
            radius,
            weights,
            fusion,
            boundary: match boundary {
                Boundary::Dirichlet => "dirichlet".to_string(),
                Boundary::Periodic => "periodic".to_string(),
            },
            variant: [
                variant.explicit_global,
                variant.use_tcu,
                variant.padding,
                variant.dirty_bits_lut,
            ],
            flags: [slot0.tracing(), slot0.sanitizing(), slot0.scratch_pooling()],
            steps_total,
            steps_done,
            checkpoint_every: self.config.checkpoint_every,
            grid_dims,
            grid_halo,
            grid_data,
            counters: report.counters,
            launch_stats: report.launch_stats,
            migrations: report.migrations,
            degraded: report.degraded,
            checkpoints_written: report.checkpoints_written + 1,
            faults_detected: report.faults_detected,
            retries: report.retries,
            pool_completed: pool.completed(),
            active_device: active,
            sanitizer: report.sanitizer.as_ref().map(|s| {
                let mut summary = SanitizerReport::default();
                summary.merge(s.clone());
                summary.violations.clear();
                summary.fault_sites.clear();
                summary
            }),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcu_sim::Phase;

    /// An absorbed attempt leaves no spans on the device, and its spans
    /// reach the report in order, on top of the earlier ones.
    #[test]
    fn absorbed_attempts_move_the_device_trace_into_the_report() {
        let mut device = Device::a100();
        device.set_tracing(true);
        let mut report = JobReport {
            trace: Some(Trace::default()),
            ..JobReport::default()
        };
        for attempt in 0..2 {
            let (counters, launches) = (device.counters, device.launch_stats);
            device
                .try_launch(2, 64, |_, ctx| {
                    ctx.phase(Phase::Epilogue);
                    ctx.count_int(1);
                })
                .unwrap();
            report.absorb_attempt(&mut device, counters, launches);
            assert!(device.trace().is_empty(), "attempt {attempt}");
        }
        let trace = report.trace.expect("tracing is on");
        let launches: Vec<u64> = trace.spans.iter().map(|s| s.launch).collect();
        assert!(launches.windows(2).all(|w| w[0] <= w[1]), "{launches:?}");
        assert_eq!(launches.first(), Some(&0));
        assert_eq!(launches.last(), Some(&1));
        assert_eq!(trace.total_counters(), report.counters);
        assert_eq!(report.launch_stats.kernel_launches, 2);
    }
}
