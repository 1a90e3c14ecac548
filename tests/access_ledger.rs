//! The scatter's access ledger and arithmetic coalescing must charge
//! exactly what the address-level accounting charges.
//!
//! Without the sanitizer and without a fault plan, the LUT scatter stores
//! through the lookup table directly and charges a per-plan ledger row per
//! tile row, and contiguous global requests are charged from their first
//! and last sector. With the sanitizer on, every access goes through the
//! address-level path, which also checks each tile row against the ledger
//! (and panics on a mismatch). This suite runs every Fig. 6 variant in
//! 1D, 2D and 3D both ways, on the A100 configuration and on a device
//! with a different bank count, and requires bit-identical outputs,
//! identical ledgers and identical per-phase counter traces. A property
//! test pins the arithmetic sector count to the sort-based one.

use convstencil_repro::convstencil::{
    ConvStencil1D, ConvStencil2D, ConvStencil3D, RunReport, VariantConfig,
};
use convstencil_repro::stencil_core::{Boundary, Grid1D, Grid2D, Grid3D, Shape};
use convstencil_repro::tcu_sim::{
    contiguous_prefix, contiguous_sectors, scattered_sectors, BlockCtx, BufferId, Counters, Device,
    DeviceConfig, Phase, Trace, INACTIVE,
};
use proptest::prelude::*;

/// The A100 and a device whose shared memory has twice as many banks.
fn devices() -> [(&'static str, DeviceConfig); 2] {
    let mut wide = DeviceConfig::a100();
    wide.shared_banks = 64;
    [("a100", DeviceConfig::a100()), ("64 banks", wide)]
}

/// The device spans of a run's trace (the sanitized run also carries the
/// static plan check's host `verify` spans).
fn counter_trace(report: &RunReport) -> Vec<(Phase, u64, Counters)> {
    let trace: &Trace = report.trace.as_ref().expect("tracing on");
    trace
        .spans
        .iter()
        .filter(|s| s.phase != Phase::Verify)
        .map(|s| (s.phase, s.launch, s.counters))
        .collect()
}

/// `fast` ran on the ledger path, `checked` with the sanitizer on.
fn assert_same_run(fast: (&[f64], &RunReport), checked: (&[f64], &RunReport), label: &str) {
    let (fast_out, fast) = fast;
    let (checked_out, checked) = checked;
    assert!(fast.sanitizer.is_none(), "{label}: fast run was sanitized");
    let san = checked.sanitizer.as_ref().expect("sanitizer on");
    assert_eq!(
        san.init_total + san.mem_total + san.race_total,
        0,
        "{label}: sanitizer findings {:?}",
        san.violations
    );
    assert_eq!(fast_out.len(), checked_out.len(), "{label}: length");
    for (i, (a, b)) in fast_out.iter().zip(checked_out).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: output bits at {i}");
    }
    assert_eq!(fast.counters, checked.counters, "{label}: ledgers differ");
    assert_eq!(
        fast.launch_stats, checked.launch_stats,
        "{label}: launch stats differ"
    );
    assert_eq!(
        counter_trace(fast),
        counter_trace(checked),
        "{label}: per-phase counters differ"
    );
}

#[test]
fn ledger_path_matches_address_level_path_in_1d() {
    let kernel = Shape::Heat1D.kernel1d().unwrap();
    let mut grid = Grid1D::new(3000, kernel.radius());
    grid.fill_random(21);
    for (dev_name, dev) in devices() {
        for (name, variant) in VariantConfig::breakdown() {
            let runner = ConvStencil1D::new(kernel.clone())
                .with_variant(variant)
                .with_device(dev.clone())
                .with_tracing(true);
            let (fast, fast_rep) = runner.try_run(&grid, 5).unwrap();
            let (checked, checked_rep) = runner.with_sanitizer(true).try_run(&grid, 5).unwrap();
            assert_same_run(
                (&fast.interior(), &fast_rep),
                (&checked.interior(), &checked_rep),
                &format!("1D {dev_name} {name}"),
            );
        }
    }
}

#[test]
fn ledger_path_matches_address_level_path_in_2d() {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    // Rows not a multiple of the 32-row block: the last block scatters a
    // shorter tile, a prefix of the ledger.
    let mut grid = Grid2D::new(70, 136, 3);
    grid.fill_random(22);
    for (dev_name, dev) in devices() {
        for (name, variant) in VariantConfig::breakdown() {
            let runner = ConvStencil2D::new(kernel.clone())
                .with_variant(variant)
                .with_device(dev.clone())
                .with_tracing(true);
            let (fast, fast_rep) = runner.try_run(&grid, 4).unwrap();
            let (checked, checked_rep) = runner.with_sanitizer(true).try_run(&grid, 4).unwrap();
            assert_same_run(
                (&fast.interior(), &fast_rep),
                (&checked.interior(), &checked_rep),
                &format!("2D {dev_name} {name}"),
            );
        }
    }
}

#[test]
fn ledger_path_matches_address_level_path_in_3d() {
    let kernel = Shape::Box3D27P.kernel3d().unwrap();
    let mut grid = Grid3D::new(9, 20, 40, 1);
    grid.fill_random(23);
    for (dev_name, dev) in devices() {
        for (name, variant) in VariantConfig::breakdown() {
            let runner = ConvStencil3D::new(kernel.clone())
                .with_variant(variant)
                .with_device(dev.clone())
                .with_boundary(Boundary::Periodic)
                .with_tracing(true);
            let (fast, fast_rep) = runner.try_run(&grid, 2).unwrap();
            let (checked, checked_rep) = runner.with_sanitizer(true).try_run(&grid, 2).unwrap();
            assert_same_run(
                (&fast.interior(), &fast_rep),
                (&checked.interior(), &checked_rep),
                &format!("3D {dev_name} {name}"),
            );
        }
    }
}

/// One warp request of `lanes` lanes: 0 contiguous and sector-aligned,
/// 1 a contiguous prefix followed by masked lanes, 2 contiguous from a
/// misaligned start, 3 scattered.
fn request(kind: usize, lanes: usize, sector: usize, start: usize, seed: u64) -> Vec<usize> {
    let mut addrs = vec![INACTIVE; lanes];
    match kind {
        0 => {
            let base = start / sector * sector;
            for (l, a) in addrs.iter_mut().enumerate() {
                *a = base + l;
            }
        }
        1 => {
            let run = 1 + (seed as usize) % lanes;
            for (l, a) in addrs.iter_mut().take(run).enumerate() {
                *a = start + l;
            }
        }
        2 => {
            let base = start / sector * sector + 1 + (seed as usize) % (sector - 1);
            for (l, a) in addrs.iter_mut().enumerate() {
                *a = base + l;
            }
        }
        _ => {
            let mut x = seed | 1;
            for a in addrs.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *a = if x.is_multiple_of(5) {
                    INACTIVE
                } else {
                    start + (x % 512) as usize
                };
            }
        }
    }
    addrs
}

/// Counters of one block that issues `body` against a 4096-element
/// buffer on a device whose sectors hold `sector` f64.
fn charge_of(sector: usize, body: impl Fn(&mut BlockCtx, BufferId) + Sync) -> Counters {
    let mut config = DeviceConfig::a100();
    config.sector_bytes = 8 * sector as u32;
    let mut dev = Device::new(config);
    let buf = dev.alloc(4096);
    dev.launch(1, 16, |_, ctx| body(ctx, buf));
    dev.counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The arithmetic sector count of a contiguous request equals the
    /// sort-based one, and a warp write (which picks the arithmetic path
    /// for contiguous prefixes) charges exactly what the sort-based read
    /// path charges for the same lanes.
    #[test]
    fn arithmetic_sector_count_matches_sort_based_account(
        kind in 0usize..4,
        lanes in 1usize..33,
        sector in prop::sample::select(vec![2usize, 4, 8]),
        start in 0usize..3000,
        seed in 0u64..1_000_000,
    ) {
        let addrs = request(kind, lanes, sector, start, seed);
        let prefix = contiguous_prefix(&addrs);
        if kind < 3 {
            prop_assert!(prefix.is_some(), "{:?} not recognised as contiguous", addrs);
        }
        if let Some((first, len)) = prefix {
            prop_assert_eq!(first, addrs[0]);
            prop_assert_eq!(
                contiguous_sectors(first, len, sector),
                scattered_sectors(&addrs, sector)
            );
        }
        let vals = vec![1.0; lanes];
        let write = charge_of(sector, |ctx, buf| ctx.gmem_write_warp(buf, &addrs, &vals));
        let read = charge_of(sector, |ctx, buf| {
            let mut out = vec![0.0; addrs.len()];
            ctx.gmem_read_warp(buf, &addrs, &mut out);
        });
        prop_assert_eq!(write.global_write_requests, read.global_read_requests);
        prop_assert_eq!(write.global_write_bytes, read.global_read_bytes);
        prop_assert_eq!(write.global_write_sectors, read.global_read_sectors);
        prop_assert_eq!(write.global_write_sectors_min, read.global_read_sectors_min);
        prop_assert_eq!(write.uncoalesced_requests, read.uncoalesced_requests);
    }

    /// A span read charges what one sort-based warp read per 32 lanes
    /// charges.
    #[test]
    fn span_read_matches_per_warp_reads(
        len in 1usize..200,
        sector in prop::sample::select(vec![2usize, 4, 8]),
        start in 0usize..3000,
    ) {
        let span = charge_of(sector, |ctx, buf| {
            let mut out = vec![0.0; len];
            ctx.gmem_read_span_into(buf, start, &mut out);
        });
        let warps = charge_of(sector, |ctx, buf| {
            for chunk in (start..start + len).collect::<Vec<_>>().chunks(32) {
                let mut out = vec![0.0; chunk.len()];
                ctx.gmem_read_warp(buf, chunk, &mut out);
            }
        });
        prop_assert_eq!(span, warps);
    }
}
