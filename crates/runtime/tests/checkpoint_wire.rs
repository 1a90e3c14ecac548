//! Pins the v1 checkpoint wire format byte for byte.
//!
//! `golden_digests` pins outputs and ledgers but not the checkpoint
//! bytes, so a codec rewrite could change the files on disk while every
//! round-trip test still passes. Here a fixed sample that exercises every
//! field — NaN payloads, -0.0, a subnormal, ±inf, a sanitizer report and
//! a device plan with every `FaultPlan` field set — must encode to bytes
//! with a recorded CRC-64. The committed fixture holds those bytes and
//! must decode back to the same struct.

use std::path::Path;

use convstencil_runtime::{crc64, BreakerState, Checkpoint, DeviceCursor};
use tcu_sim::{Counters, FaultPlan, LaunchStats, SanitizerReport};

/// CRC-64/XZ of `sample().encode()`, recorded with the original
/// `format!`-based encoder.
const WIRE_DIGEST: u64 = 0x2F0F_669A_B27B_6460;

/// The bytes `WIRE_DIGEST` was recorded from, committed as a file.
const FIXTURE: &str = include_str!("data/checkpoint_v1.ckpt");

fn sample() -> Checkpoint {
    let specials = [
        f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN payload
        f64::from_bits(0xFFF8_DEAD_BEEF_0042), // negative quiet NaN payload
        -0.0,
        0.0,
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        -1.5,
    ];
    let grid_data: Vec<f64> = specials
        .iter()
        .copied()
        .chain((0..18).map(|i| (i as f64 * 0.37).cos()))
        .collect();
    let mut sanitizer = SanitizerReport {
        init_total: 1,
        mem_total: 2,
        race_total: 3,
        bank_total: 40,
        ..SanitizerReport::default()
    };
    for (i, v) in sanitizer.load_conflicts.iter_mut().enumerate() {
        *v = 10 * i as u64 + 1;
    }
    for (i, v) in sanitizer.store_conflicts.iter_mut().enumerate() {
        *v = 7 * i as u64;
    }
    let mut counters = Counters::default();
    for (i, (name, _)) in Counters::default().field_pairs().iter().enumerate() {
        counters.set_field(name, (i as u64 + 1) * 1_000_003);
    }
    Checkpoint {
        job: "wire-pin".to_string(),
        dim: 2,
        radius: 1,
        weights: vec![0.0, 0.125, -0.0, 0.1, 0.6, 0.1, f64::from_bits(3), 0.1, 0.0],
        fusion: 3,
        boundary: "periodic".to_string(),
        variant: [true, false, true, true],
        flags: [false, true, true],
        steps_total: 48,
        steps_done: 21,
        checkpoint_every: 3,
        grid_dims: vec![3, 4],
        grid_halo: 1,
        grid_data,
        counters,
        launch_stats: LaunchStats {
            kernel_launches: 17,
            total_blocks: 4242,
        },
        migrations: 2,
        degraded: true,
        checkpoints_written: 7,
        faults_detected: 5,
        retries: 4,
        pool_completed: 19,
        active_device: Some(1),
        sanitizer: Some(sanitizer),
        devices: vec![
            DeviceCursor {
                id: 0,
                plan: Some(
                    FaultPlan::quiet(0xC0FF_EE00_1234)
                        .with_dmma_flip_rate(0.002)
                        .with_smem_corrupt_rate(1e-300)
                        .with_launch_fail_rate(0.25)
                        .with_device_death_at(9)
                        .with_ecc_burst(2, 3)
                        .with_hang_at(4, 123_456_789),
                ),
                fault_epoch: 6,
                launch_attempts: 11,
                dead: true,
                breaker: BreakerState::Open { until_jobs: 23 },
            },
            DeviceCursor {
                id: 1,
                plan: None,
                fault_epoch: 0,
                launch_attempts: 8,
                dead: false,
                breaker: BreakerState::Closed {
                    consecutive_failures: u32::MAX,
                },
            },
            DeviceCursor {
                id: 2,
                plan: Some(FaultPlan::quiet(u64::MAX)),
                fault_epoch: u64::MAX,
                launch_attempts: 0,
                dead: false,
                breaker: BreakerState::HalfOpen,
            },
        ],
    }
}

/// `PartialEq` on `f64` fails for NaN, so compare floats by bit pattern.
fn assert_same(got: &Checkpoint, want: &Checkpoint) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.grid_data),
        bits(&want.grid_data),
        "grid_data bits"
    );
    assert_eq!(bits(&got.weights), bits(&want.weights), "weight bits");
    let strip = |ck: &Checkpoint| Checkpoint {
        grid_data: Vec::new(),
        weights: Vec::new(),
        ..ck.clone()
    };
    assert_eq!(strip(got), strip(want));
}

#[test]
fn encode_matches_the_recorded_wire_digest() {
    let text = sample().encode();
    assert_eq!(
        crc64(text.as_bytes()),
        WIRE_DIGEST,
        "checkpoint wire bytes changed; encode() now gives:\n{text}"
    );
}

#[test]
fn committed_fixture_holds_the_recorded_bytes_and_decodes_to_the_sample() {
    assert_eq!(crc64(FIXTURE.as_bytes()), WIRE_DIGEST);
    let back = Checkpoint::decode(FIXTURE, Path::new("checkpoint_v1.ckpt")).expect("fixture");
    assert_same(&back, &sample());
}
