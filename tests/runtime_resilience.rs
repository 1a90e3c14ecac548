//! Chaos tests for the resilient multi-device runtime (DESIGN.md §12).
//!
//! The invariant under test everywhere: **resilience must be invisible in
//! the result**. A job that loses a device mid-flight and migrates, or is
//! interrupted and resumed from a checkpoint, must produce the same grid
//! bits (and, for interrupt/resume, the same event ledger) as the run
//! that never saw trouble. Everything is deterministic — seeded fault
//! plans, positional device deaths, a logical breaker clock — so the
//! tests can demand equality, not closeness.

use std::path::{Path, PathBuf};

use convstencil_repro::convstencil::{
    ConvStencil2D, ConvStencilError, DeadlineKind, VariantConfig,
};
use convstencil_repro::runtime::{
    crc64, load_latest, BreakerConfig, Checkpoint, Job, JobEvent, JobOutcome, JobPayload, Runtime,
    RuntimeConfig,
};
use convstencil_repro::stencil_core::{Grid1D, Grid2D, Grid3D, Shape};
use convstencil_repro::tcu_sim::FaultPlan;
use proptest::prelude::*;

const STEPS: u64 = 6;

fn grid2d(side: usize, radius: usize) -> Grid2D {
    let mut g = Grid2D::new(side, side, radius);
    g.fill_random(42);
    g
}

fn payload2d(variant: VariantConfig, sanitize: bool) -> JobPayload {
    let kernel = Shape::from_cli_name("box2d1r").unwrap().kernel2d().unwrap();
    let radius = kernel.radius();
    let runner = ConvStencil2D::try_new(kernel)
        .unwrap()
        .with_variant(variant)
        .with_sanitizer(sanitize);
    JobPayload::D2 {
        runner,
        grid: grid2d(48, radius),
    }
}

fn payload1d() -> JobPayload {
    use convstencil_repro::convstencil::ConvStencil1D;
    let kernel = Shape::from_cli_name("1d1r").unwrap().kernel1d().unwrap();
    let radius = kernel.radius();
    let runner = ConvStencil1D::try_new(kernel).unwrap();
    let mut grid = Grid1D::new(4096, radius);
    grid.fill_random(42);
    JobPayload::D1 { runner, grid }
}

fn payload3d() -> JobPayload {
    use convstencil_repro::convstencil::ConvStencil3D;
    let kernel = Shape::from_cli_name("star3d1r")
        .unwrap()
        .kernel3d()
        .unwrap();
    let radius = kernel.radius();
    let runner = ConvStencil3D::try_new(kernel).unwrap();
    let mut grid = Grid3D::new(16, 24, 24, radius);
    grid.fill_random(42);
    JobPayload::D3 { runner, grid }
}

fn run_job(config: RuntimeConfig, payload: JobPayload, steps: u64) -> JobOutcome {
    let mut rt = Runtime::new(config);
    rt.submit(Job {
        name: "chaos".to_string(),
        payload,
        steps,
    })
    .unwrap();
    rt.run_next().unwrap().unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs_resilience_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn counters_of(outcome: &JobOutcome) -> Vec<(&'static str, u64)> {
    outcome.report.counters.field_pairs().to_vec()
}

/// A seeded device-kill at step T must be absorbed by migration: same
/// grid bits as a run that never faulted, on every Fig. 6 variant.
/// (Chunking changes the temporal-fusion decomposition, so the clean
/// baseline uses the same `checkpoint_every`.)
#[test]
fn device_kill_then_migration_is_bit_exact_on_every_fig6_variant() {
    for (name, variant) in VariantConfig::breakdown() {
        let clean = run_job(
            RuntimeConfig {
                devices: 2,
                checkpoint_every: 2,
                ..RuntimeConfig::default()
            },
            payload2d(variant, false),
            STEPS,
        );
        assert_eq!(clean.report.migrations, 0, "{name}: clean run migrated");

        let chaos = run_job(
            RuntimeConfig {
                devices: 2,
                device_faults: vec![Some(FaultPlan::quiet(7).with_device_death_at(1))],
                checkpoint_every: 2,
                ..RuntimeConfig::default()
            },
            payload2d(variant, false),
            STEPS,
        );
        assert!(
            chaos.report.migrations >= 1,
            "{name}: kill did not force a migration"
        );
        assert!(
            !chaos.report.degraded,
            "{name}: should migrate, not degrade"
        );
        assert!(chaos.report.faults_detected >= 1);
        let clean_bits: Vec<u64> = clean
            .payload
            .interior()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let chaos_bits: Vec<u64> = chaos
            .payload
            .interior()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(clean_bits, chaos_bits, "{name}: migrated grid diverged");
    }
}

/// Interrupted at a checkpoint and resumed ⇒ bit-identical to the
/// uninterrupted run — grid bits, steps, full event-ledger counters, and
/// sanitizer totals — on every Fig. 6 variant, under an active fault
/// plan (an ECC burst the ladder retries through).
#[test]
fn interrupted_then_resumed_matches_uninterrupted_on_every_fig6_variant() {
    for (i, (name, variant)) in VariantConfig::breakdown().iter().enumerate() {
        let faults = vec![Some(FaultPlan::quiet(11).with_ecc_burst(2, 1))];
        let sanitize = i == 0; // exercise sanitizer persistence on one variant
        let config = |dir: PathBuf| RuntimeConfig {
            devices: 2,
            device_faults: faults.clone(),
            checkpoint_every: 1,
            checkpoint_dir: Some(dir),
            ..RuntimeConfig::default()
        };

        let dir_a = tmp_dir(&format!("uninterrupted_{i}"));
        let full = run_job(config(dir_a.clone()), payload2d(*variant, sanitize), STEPS);
        assert!(!full.halted);
        assert_eq!(full.report.steps_done, STEPS);

        let dir_b = tmp_dir(&format!("interrupted_{i}"));
        let halted = run_job(
            RuntimeConfig {
                halt_after_checkpoints: Some(3),
                ..config(dir_b.clone())
            },
            payload2d(*variant, sanitize),
            STEPS,
        );
        assert!(halted.halted, "{name}: halt hook did not fire");
        assert_eq!(halted.report.steps_done, 3);

        let (resumed, warnings) = Runtime::new(config(dir_b.clone()))
            .resume(Some("chaos"))
            .unwrap();
        assert!(
            warnings.is_empty(),
            "{name}: unexpected warnings {warnings:?}"
        );
        assert_eq!(resumed.report.resumed_from_step, Some(3));
        assert_eq!(resumed.report.steps_done, STEPS);

        let full_bits: Vec<u64> = full
            .payload
            .interior()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let res_bits: Vec<u64> = resumed
            .payload
            .interior()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(full_bits, res_bits, "{name}: resumed grid diverged");
        assert_eq!(
            counters_of(&full),
            counters_of(&resumed),
            "{name}: resumed counters diverged"
        );
        assert_eq!(full.report.launch_stats, resumed.report.launch_stats);
        assert_eq!(full.report.retries, resumed.report.retries);
        assert_eq!(full.report.migrations, resumed.report.migrations);
        assert_eq!(full.report.faults_detected, resumed.report.faults_detected);
        if sanitize {
            let (a, b) = (
                full.report.sanitizer.as_ref().unwrap(),
                resumed.report.sanitizer.as_ref().unwrap(),
            );
            assert_eq!(a.total_violations(), b.total_violations());
            assert_eq!(a.load_conflicts, b.load_conflicts);
            assert_eq!(a.store_conflicts, b.store_conflicts);
        }

        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// The same interrupt/resume invariant holds in 1D and 3D.
#[test]
fn interrupted_then_resumed_matches_uninterrupted_1d_and_3d() {
    for (tag, make) in [
        ("1d", payload1d as fn() -> JobPayload),
        ("3d", payload3d as fn() -> JobPayload),
    ] {
        let config = |dir: PathBuf| RuntimeConfig {
            devices: 2,
            checkpoint_every: 2,
            checkpoint_dir: Some(dir),
            ..RuntimeConfig::default()
        };
        let dir_a = tmp_dir(&format!("full_{tag}"));
        let full = run_job(config(dir_a.clone()), make(), STEPS);
        let dir_b = tmp_dir(&format!("halt_{tag}"));
        let halted = run_job(
            RuntimeConfig {
                halt_after_checkpoints: Some(1),
                ..config(dir_b.clone())
            },
            make(),
            STEPS,
        );
        assert!(halted.halted);
        let (resumed, _) = Runtime::new(config(dir_b.clone())).resume(None).unwrap();
        assert_eq!(
            full.payload
                .interior()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            resumed
                .payload
                .interior()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "{tag}: resumed grid diverged"
        );
        assert_eq!(counters_of(&full), counters_of(&resumed), "{tag}");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// A traced job reports its spans: one set per chunk launch, each ending
/// in the launch's `uncategorized` span, summing to the job's ledger. The
/// spans are taken off the pool device after every chunk, so none are
/// left behind unreported.
#[test]
fn traced_job_reports_every_chunk_launch_span() {
    use convstencil_repro::convstencil::ConvStencil1D;
    use convstencil_repro::tcu_sim::Phase;
    let kernel = Shape::Heat1D.kernel1d().unwrap();
    let runner = ConvStencil1D::try_new(kernel.clone())
        .unwrap()
        .with_tracing(true);
    let mut grid = Grid1D::new(4096, kernel.radius());
    grid.fill_random(42);
    let outcome = run_job(
        RuntimeConfig {
            devices: 1,
            checkpoint_every: 2,
            ..RuntimeConfig::default()
        },
        JobPayload::D1 { runner, grid },
        STEPS,
    );
    let report = &outcome.report;
    let trace = report
        .trace
        .as_ref()
        .expect("a traced job reports its trace");
    let launches = report.launch_stats.kernel_launches;
    assert!(launches >= STEPS / 2, "{launches} launches for 3 chunks");
    let closing = trace
        .spans
        .iter()
        .filter(|s| s.phase == Phase::Uncategorized)
        .count() as u64;
    assert_eq!(closing, launches, "one span set per chunk launch");
    assert_eq!(trace.total_counters(), report.counters);

    let untraced = run_job(
        RuntimeConfig {
            devices: 1,
            checkpoint_every: 2,
            ..RuntimeConfig::default()
        },
        payload1d(),
        STEPS,
    );
    assert!(untraced.report.trace.is_none());
}

/// With `failure_threshold = 1` a single chunk failure trips the breaker
/// open and the job migrates; the breaker-open and migration events land
/// in the ledger in order.
#[test]
fn breaker_opens_and_job_migrates_on_persistent_failure() {
    let outcome = run_job(
        RuntimeConfig {
            devices: 2,
            device_faults: vec![Some(FaultPlan::quiet(3).with_device_death_at(0))],
            breaker: BreakerConfig {
                failure_threshold: 1,
                cooldown_jobs: 2,
            },
            checkpoint_every: 2,
            ..RuntimeConfig::default()
        },
        payload2d(VariantConfig::conv_stencil(), false),
        STEPS,
    );
    let events = &outcome.report.events;
    let opened = events
        .iter()
        .position(|e| matches!(e, JobEvent::BreakerOpened { device: 0 }));
    let migrated = events
        .iter()
        .position(|e| matches!(e, JobEvent::Migrated { from: 0, to: 1, .. }));
    assert!(opened.is_some(), "no BreakerOpened event: {events:?}");
    assert!(migrated.is_some(), "no Migrated event: {events:?}");
    assert!(opened < migrated, "breaker must open before migration");
    assert!(!outcome.report.degraded);
    assert_eq!(outcome.report.steps_done, STEPS);
}

/// When the whole pool is dead the job degrades to the CPU reference
/// backend and still finishes, matching the reference result bit-exactly.
#[test]
fn exhausted_pool_degrades_to_reference_and_matches_it() {
    let kernel = Shape::from_cli_name("box2d1r").unwrap().kernel2d().unwrap();
    let radius = kernel.radius();
    let runner = ConvStencil2D::try_new(kernel).unwrap();
    let grid = grid2d(48, radius);
    // Chunk the reference the same way the runtime will (2-step chunks):
    // chunk size changes the temporal-fusion decomposition, so this is
    // the decomposition the degraded job actually computes.
    let mut want = grid.clone();
    for _ in 0..STEPS / 2 {
        want = runner.run_reference(&want, 2);
    }

    let outcome = run_job(
        RuntimeConfig {
            devices: 1,
            device_faults: vec![Some(FaultPlan::quiet(5).with_device_death_at(0))],
            checkpoint_every: 2,
            ..RuntimeConfig::default()
        },
        JobPayload::D2 { runner, grid },
        STEPS,
    );
    assert!(outcome.report.degraded);
    assert!(outcome
        .report
        .events
        .iter()
        .any(|e| matches!(e, JobEvent::DegradedToReference { .. })));
    assert_eq!(outcome.report.steps_done, STEPS);
    assert_eq!(
        outcome
            .payload
            .interior()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        want.interior()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
}

/// Admission control: the bounded queue rejects submissions beyond
/// capacity with the typed `QueueFull`.
#[test]
fn queue_admission_rejects_beyond_capacity() {
    let mut rt = Runtime::new(RuntimeConfig {
        queue_capacity: 1,
        ..RuntimeConfig::default()
    });
    let job = || Job {
        name: "q".to_string(),
        payload: payload2d(VariantConfig::conv_stencil(), false),
        steps: 1,
    };
    rt.submit(job()).unwrap();
    match rt.submit(job()) {
        Err(ConvStencilError::QueueFull { capacity: 1 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(rt.queued(), 1);
}

/// A cost-model deadline fires *between* chunks (never mid-launch): the
/// partial run leaves a valid newest checkpoint at a chunk boundary, and
/// a resume without the deadline completes bit-exactly.
#[test]
fn cost_deadline_leaves_valid_checkpoint_and_resume_completes() {
    let variant = VariantConfig::conv_stencil();
    let dir_full = tmp_dir("deadline_full");
    let full = run_job(
        RuntimeConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(dir_full.clone()),
            ..RuntimeConfig::default()
        },
        payload2d(variant, false),
        STEPS,
    );

    // A hang in the first chunk charges an enormous stall to the cost
    // model (the grid bits are unaffected — the launch completes). The
    // deadline is only consulted between chunks, so the first chunk
    // still commits and checkpoints before the budget check trips.
    let dir = tmp_dir("deadline_cut");
    let mut rt = Runtime::new(RuntimeConfig {
        devices: 2,
        device_faults: vec![Some(
            FaultPlan::quiet(13).with_hang_at(0, 1_000_000_000_000_000),
        )],
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        cost_budget_ms: Some(10_000),
        ..RuntimeConfig::default()
    });
    rt.submit(Job {
        name: "chaos".to_string(),
        payload: payload2d(variant, false),
        steps: STEPS,
    })
    .unwrap();
    match rt.run_next().unwrap() {
        Err(ConvStencilError::DeadlineExceeded {
            kind: DeadlineKind::CostModel,
            completed_steps,
            ..
        }) => assert_eq!(completed_steps, 2, "deadline must fire at a chunk boundary"),
        other => panic!("expected cost-model DeadlineExceeded, got {other:?}"),
    }

    let (ck, warnings) = load_latest(&dir, Some("chaos")).unwrap();
    assert!(warnings.is_empty());
    assert_eq!(ck.steps_done, 2, "last checkpoint is the committed chunk");

    let (resumed, _) = Runtime::new(RuntimeConfig {
        checkpoint_every: 2,
        checkpoint_dir: Some(dir.clone()),
        ..RuntimeConfig::default()
    })
    .resume(Some("chaos"))
    .unwrap();
    assert_eq!(resumed.report.steps_done, STEPS);
    assert_eq!(
        full.payload
            .interior()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        resumed
            .payload
            .interior()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir_full);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A simulated hang charges its stall cycles to the cost model, so a
/// hung device deterministically trips the cost-model deadline at the
/// next chunk boundary instead of wedging the host.
#[test]
fn hang_trips_cost_model_deadline() {
    let mut rt = Runtime::new(RuntimeConfig {
        devices: 1,
        device_faults: vec![Some(
            // ~1e15 cycles: minutes of modelled stall, microseconds of host time.
            FaultPlan::quiet(9).with_hang_at(0, 1_000_000_000_000_000),
        )],
        checkpoint_every: 1,
        cost_budget_ms: Some(10_000),
        ..RuntimeConfig::default()
    });
    rt.submit(Job {
        name: "hang".to_string(),
        payload: payload2d(VariantConfig::conv_stencil(), false),
        steps: STEPS,
    })
    .unwrap();
    match rt.run_next().unwrap() {
        Err(ConvStencilError::DeadlineExceeded {
            kind: DeadlineKind::CostModel,
            observed_ms,
            budget_ms,
            ..
        }) => assert!(observed_ms > budget_ms),
        other => panic!("expected cost-model DeadlineExceeded, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Checkpoint durability properties
// ---------------------------------------------------------------------------

/// An arbitrary checkpoint with adversarial float bit patterns
/// (NaN payloads, -0.0, infinities) in both weights and grid data.
/// `bits` carries 9 weight words, 36 grid words, and 2 salt words.
fn arb_checkpoint() -> impl Strategy<Value = Checkpoint> {
    proptest::collection::vec(0u64..u64::MAX, 9 + 36 + 2).prop_map(|bits| {
        let (wbits, rest) = bits.split_at(9);
        let (gbits, salts) = rest.split_at(36);
        let (salt, steps_done) = (salts[0], salts[1] % 1_000);
        Checkpoint {
            job: "prop".to_string(),
            dim: 2,
            radius: 1,
            weights: wbits.iter().map(|&b| f64::from_bits(b)).collect(),
            fusion: 1,
            boundary: "dirichlet".to_string(),
            variant: [salt & 1 != 0, salt & 2 != 0, salt & 4 != 0, salt & 8 != 0],
            flags: [false, false, salt & 16 != 0],
            steps_total: steps_done + 1,
            steps_done,
            checkpoint_every: 1,
            grid_dims: vec![4, 4],
            grid_halo: 1,
            grid_data: gbits.iter().map(|&b| f64::from_bits(b)).collect(),
            counters: Default::default(),
            launch_stats: Default::default(),
            migrations: salt % 3,
            degraded: false,
            checkpoints_written: steps_done,
            faults_detected: salt % 5,
            retries: salt % 7,
            pool_completed: steps_done,
            active_device: Some((salt % 2) as usize),
            sanitizer: None,
            devices: Vec::new(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is bit-exact for every f64 payload, including NaN
    /// bit patterns, signed zero, and infinities. (Whole-struct equality
    /// can't be used: NaN != NaN under `PartialEq` — compare the bits.)
    #[test]
    fn checkpoint_roundtrip_is_bit_exact(ck in arb_checkpoint()) {
        let text = ck.encode();
        let back = Checkpoint::decode(&text, Path::new("prop.ckpt")).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back.grid_data), bits(&ck.grid_data));
        prop_assert_eq!(bits(&back.weights), bits(&ck.weights));
        prop_assert_eq!(&back.job, &ck.job);
        prop_assert_eq!(back.variant, ck.variant);
        prop_assert_eq!(back.flags, ck.flags);
        prop_assert_eq!(back.steps_done, ck.steps_done);
        prop_assert_eq!(back.steps_total, ck.steps_total);
        prop_assert_eq!(back.migrations, ck.migrations);
        prop_assert_eq!(back.faults_detected, ck.faults_detected);
        prop_assert_eq!(back.retries, ck.retries);
        prop_assert_eq!(back.pool_completed, ck.pool_completed);
        prop_assert_eq!(back.active_device, ck.active_device);
        prop_assert_eq!(back.checkpoints_written, ck.checkpoints_written);
    }

    /// CRC-64/XZ detects any burst shorter than 64 bits, so corrupting
    /// any single byte anywhere in the file must make decode fail —
    /// never silently load corrupt state.
    #[test]
    fn any_single_byte_corruption_is_detected(
        ck in arb_checkpoint(),
        pos in 0u64..u64::MAX,
        flip in 1u64..256,
    ) {
        let mut bytes = ck.encode().into_bytes();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= flip as u8;
        match String::from_utf8(bytes) {
            // Non-UTF-8 is detected before decode even starts.
            Err(_) => {}
            Ok(text) => {
                prop_assert!(
                    Checkpoint::decode(&text, Path::new("prop.ckpt")).is_err(),
                    "byte {} xor {:#04x} went undetected", i, flip
                );
            }
        }
    }

    /// The checksum primitive itself: flipping any single bit of an
    /// arbitrary message changes the CRC (bursts < 64 bits are always
    /// detected), and so does appending a byte.
    #[test]
    fn crc64_detects_any_single_bit_flip(
        words in proptest::collection::vec(0u64..256, 48),
        pos in 0u64..u64::MAX,
        bit in 0u64..8,
    ) {
        let data: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        let c = crc64(&data);
        let mut tweaked = data.clone();
        let i = (pos % data.len() as u64) as usize;
        tweaked[i] ^= 1u8 << bit;
        prop_assert_ne!(crc64(&tweaked), c);
        let mut longer = data.clone();
        longer.push(0);
        prop_assert_ne!(crc64(&longer), c);
    }
}
