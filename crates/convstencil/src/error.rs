//! Typed errors for the ConvStencil pipeline.
//!
//! Every user-reachable failure mode has a variant here. The runner,
//! the application loop and the layout transform return them directly;
//! the remaining panicking constructors (`Exec*::new`, `Plan*::new*`)
//! are thin wrappers over `try_*` twins that format them. Hand-rolled
//! `Display`/`Error` impls (thiserror-style) keep the workspace free of
//! proc-macro dependencies in the offline build.

use std::fmt;
use stencil_core::VerifyError;
use tcu_sim::DeviceError;

/// Any error the ConvStencil pipeline can report.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvStencilError {
    /// Kernel edge outside the DMMA-supported set {3, 5, 7}.
    UnsupportedNk { nk: usize },
    /// The kernel itself is malformed (wrong weight count, empty, ...).
    InvalidKernel { reason: String },
    /// Requested temporal fusion would push the fused kernel past
    /// `MAX_NK`.
    FusionTooDeep {
        radius: usize,
        fusion: usize,
        max_nk: usize,
    },
    /// A grid dimension is zero.
    ZeroSizedGrid { dims: Vec<usize> },
    /// Grid shape does not match the plan it is being run under.
    ShapeMismatch {
        expected: Vec<usize>,
        got: Vec<usize>,
    },
    /// The grid's halo is narrower than the kernel radius.
    HaloTooSmall { halo: usize, radius: usize },
    /// Periodic wrap needs the interior to be at least the radius wide.
    InteriorTooSmall { interior: usize, radius: usize },
    /// An internal plan invariant failed validation.
    PlanInvariant { reason: String },
    /// The static plan verifier rejected a plan before launch (lookup
    /// table not total/injective, weight matrices with the wrong zero
    /// structure, conflicting bank assignments, ...).
    PlanInvalid { reason: String },
    /// The explicit variant was run without (or an implicit variant with)
    /// its global scratch buffers.
    ScratchMismatch { expected: bool },
    /// Writing a requested artifact (trace JSONL, CSV, ...) failed.
    /// Carries the rendered I/O error (the enum is `Clone + PartialEq`,
    /// which `std::io::Error` is not).
    ArtifactWrite { path: String, reason: String },
    /// Reading a required artifact (checkpoint file, ...) failed: missing,
    /// unreadable, truncated, or failing its checksum. The `ArtifactWrite`
    /// twin for the load path; `reason` carries the rendered cause.
    ArtifactRead { path: String, reason: String },
    /// A runtime job exceeded its time budget and was cancelled between
    /// timesteps (never mid-launch, so the last checkpoint stays valid).
    DeadlineExceeded {
        kind: DeadlineKind,
        /// The configured budget, in milliseconds.
        budget_ms: u64,
        /// The observed (wall or modelled) time when the deadline tripped.
        observed_ms: u64,
        /// Timesteps completed — and checkpointed, if checkpointing is on —
        /// before cancellation.
        completed_steps: u64,
    },
    /// The runtime's bounded job queue rejected a submission (admission
    /// control: reject-with-error beyond capacity, never unbounded growth).
    QueueFull { capacity: usize },
    /// The simulated device rejected a launch.
    Device(DeviceError),
    /// Verified execution detected corruption that retries did not clear.
    VerificationFailed { retries: u64, source: VerifyError },
}

/// Which clock a [`ConvStencilError::DeadlineExceeded`] was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineKind {
    /// Host wall-clock elapsed time.
    Wall,
    /// Cost-model (Eq. 2) accumulated modelled time — deterministic, so
    /// tests and simulated hangs use this budget.
    CostModel,
}

impl fmt::Display for DeadlineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeadlineKind::Wall => write!(f, "wall-clock"),
            DeadlineKind::CostModel => write!(f, "cost-model"),
        }
    }
}

impl fmt::Display for ConvStencilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvStencilError::UnsupportedNk { nk } => {
                write!(f, "n_k must be 3, 5 or 7 (got {nk})")
            }
            ConvStencilError::InvalidKernel { reason } => write!(f, "invalid kernel: {reason}"),
            ConvStencilError::FusionTooDeep {
                radius,
                fusion,
                max_nk,
            } => write!(
                f,
                "fused kernel exceeds n_k = {max_nk} (radius {radius} x fusion {fusion})"
            ),
            ConvStencilError::ZeroSizedGrid { dims } => {
                write!(f, "zero-sized grid: dimensions {dims:?}")
            }
            ConvStencilError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "grid shape {got:?} does not match plan shape {expected:?}"
                )
            }
            ConvStencilError::HaloTooSmall { halo, radius } => {
                write!(f, "grid halo {halo} < kernel radius {radius}")
            }
            ConvStencilError::InteriorTooSmall { interior, radius } => write!(
                f,
                "periodic wrap needs interior >= radius ({interior} < {radius})"
            ),
            ConvStencilError::PlanInvariant { reason } => {
                write!(f, "plan invariant violated: {reason}")
            }
            ConvStencilError::PlanInvalid { reason } => {
                write!(f, "plan rejected by static verifier: {reason}")
            }
            ConvStencilError::ScratchMismatch { expected } => {
                if *expected {
                    write!(f, "explicit variant needs scratch buffers")
                } else {
                    write!(f, "implicit variant takes no scratch")
                }
            }
            ConvStencilError::ArtifactWrite { path, reason } => {
                write!(f, "cannot write artifact {path}: {reason}")
            }
            ConvStencilError::ArtifactRead { path, reason } => {
                write!(f, "cannot read artifact {path}: {reason}")
            }
            ConvStencilError::DeadlineExceeded {
                kind,
                budget_ms,
                observed_ms,
                completed_steps,
            } => write!(
                f,
                "{kind} deadline exceeded: {observed_ms} ms > budget {budget_ms} ms \
                 ({completed_steps} timesteps completed)"
            ),
            ConvStencilError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
            ConvStencilError::Device(e) => write!(f, "device fault: {e}"),
            ConvStencilError::VerificationFailed { retries, source } => {
                write!(f, "verification failed after {retries} retries: {source}")
            }
        }
    }
}

impl std::error::Error for ConvStencilError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConvStencilError::Device(e) => Some(e),
            ConvStencilError::VerificationFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<DeviceError> for ConvStencilError {
    fn from(e: DeviceError) -> Self {
        ConvStencilError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_classic_messages() {
        // The panicking wrappers surface these strings; the phrasing is
        // relied on by older should_panic tests.
        let e = ConvStencilError::UnsupportedNk { nk: 4 };
        assert!(e.to_string().contains("n_k must be 3, 5 or 7"));
        let e = ConvStencilError::HaloTooSmall { halo: 1, radius: 3 };
        assert!(e.to_string().contains("grid halo 1 < kernel radius 3"));
    }

    #[test]
    fn device_errors_convert_and_chain() {
        let d = DeviceError::InjectedLaunchFailure { launch_attempt: 3 };
        let e: ConvStencilError = d.clone().into();
        assert_eq!(e, ConvStencilError::Device(d));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn runtime_variants_render_their_context() {
        let e = ConvStencilError::DeadlineExceeded {
            kind: DeadlineKind::CostModel,
            budget_ms: 10,
            observed_ms: 25,
            completed_steps: 4,
        };
        let s = e.to_string();
        assert!(s.contains("cost-model"), "{s}");
        assert!(s.contains("25 ms > budget 10 ms"), "{s}");
        assert!(s.contains("4 timesteps"), "{s}");
        let e = ConvStencilError::QueueFull { capacity: 2 };
        assert!(e.to_string().contains("capacity 2"));
        let e = ConvStencilError::ArtifactRead {
            path: "ckpt/x".into(),
            reason: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("cannot read artifact ckpt/x"));
        // Leaf variants chain no source.
        assert!(std::error::Error::source(&e).is_none());
    }
}
