//! # convstencil-runtime — resilient multi-device job execution
//!
//! Turns the one-shot `ConvStencil{1,2,3}D` runners into a job runtime
//! (DESIGN.md §12) with:
//!
//! * a **device pool** ([`pool`]): N simulated devices, each with an
//!   independent fault plan and health state;
//! * a per-device **circuit breaker** ([`breaker`]): closed → open after
//!   K consecutive failures, half-open probe after a cooldown measured
//!   in completed work units (deterministic — no wall clock);
//! * **deadline enforcement** ([`job`]): host wall-clock and cost-model
//!   budgets, checked between timestep chunks only, surfacing as the
//!   typed `ConvStencilError::DeadlineExceeded`;
//! * a bounded **job queue with admission control** ([`job`]): beyond
//!   capacity, submissions are rejected with `QueueFull`;
//! * **crash-consistent checkpoint/restart** ([`checkpoint`]): grid
//!   bits, plan, accumulated counters, and every device's fault cursor
//!   serialized to a CRC-64-checksummed file via temp-file + atomic
//!   rename; resume continues from the newest valid checkpoint, skipping
//!   corrupt files with a warning.
//!
//! The attempt ladder per chunk: retry on the same device (epoch
//! advance; the rung a verified one-shot run climbs too) → circuit-break
//! and migrate to a healthy device, replaying from the last committed
//! state → degrade to the CPU reference backend.
//! All of it is deterministic under seeded fault plans, which is what
//! lets the chaos tests demand bit-identical results from interrupted ++
//! resumed runs.

pub mod breaker;
pub mod checkpoint;
pub mod crc64;
pub mod job;
pub mod pool;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use checkpoint::{load_latest, Checkpoint, DeviceCursor};
pub use crc64::crc64;
pub use job::{Job, JobEvent, JobOutcome, JobPayload, JobReport, Runtime, RuntimeConfig};
pub use pool::{DevicePool, DeviceSlot};
