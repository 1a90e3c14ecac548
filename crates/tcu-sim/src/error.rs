//! Typed device-level failures.

use std::fmt;

/// Errors a kernel launch can report instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The launch requested more shared memory per block than one SM has —
    /// the same hard constraint a real `cudaLaunchKernel` would reject.
    SharedMemoryExceeded {
        requested_bytes: usize,
        capacity_bytes: u32,
    },
    /// The active [`crate::FaultPlan`] aborted this launch before any block
    /// ran (models a transient driver/ECC launch failure).
    InjectedLaunchFailure { launch_attempt: u64 },
    /// The device died (sticky: every launch after
    /// [`crate::FaultPlan::die_at_launch`] fires returns this). Models
    /// `cudaErrorDeviceLost` — the device cannot be recovered by retrying;
    /// callers must migrate the work to another device.
    DeviceLost { launch_attempt: u64 },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::SharedMemoryExceeded {
                requested_bytes,
                capacity_bytes,
            } => write!(
                f,
                "requested {requested_bytes} B of shared memory; device has {capacity_bytes} B per SM"
            ),
            DeviceError::InjectedLaunchFailure { launch_attempt } => {
                write!(f, "injected launch failure at launch attempt {launch_attempt}")
            }
            DeviceError::DeviceLost { launch_attempt } => {
                write!(f, "device lost at launch attempt {launch_attempt}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}
