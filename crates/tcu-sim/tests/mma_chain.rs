//! `BlockCtx::mma_chains` against the per-fragment loop it stands for
//! (`load_frag_a` then `dmma` for each fragment of each chain), and
//! `BlockCtx::smem_store_span` against the 32-lane `smem_store` loop it
//! stands for: equal results and an equal `Counters` ledger, on the fast
//! path (nothing observes the block's accesses) and with a `FaultPlan` or
//! the sanitizer installed, on several shared-memory bank counts.
//!
//! The workspace's `tests/access_ledger.rs` already compares the two
//! paths end to end: its plain runs take the fast path and its sanitized
//! runs the address-level one, for every Fig. 6 variant in 1D/2D/3D.

use std::sync::Mutex;

use proptest::prelude::*;
use tcu_sim::{
    BlockCtx, Counters, Device, DeviceConfig, FaultPlan, FragAcc, FragB, SanitizerReport,
};

/// What observes the block's shared-memory accesses.
#[derive(Clone, Copy, Debug)]
enum Observer {
    Nothing,
    /// A fault plan with this seed that flips DMMA results and corrupts
    /// shared stores often.
    Faults(u64),
    Sanitizer,
}

fn observers() -> [Observer; 3] {
    [Observer::Nothing, Observer::Faults(7), Observer::Sanitizer]
}

/// What a run leaves behind: the recorded result bits, the device ledger
/// and the sanitizer findings.
type Outcome = (Vec<u64>, Counters, SanitizerReport);

/// Runs `block` as the only block of a launch on a device with `banks`
/// shared-memory banks and `observer` installed; the block returns the
/// bits it wants compared.
fn run_block(
    banks: u32,
    shared_len: usize,
    observer: Observer,
    block: impl Fn(&mut BlockCtx) -> Vec<u64>,
) -> Outcome {
    let mut config = DeviceConfig::a100();
    config.shared_banks = banks;
    let mut dev = Device::new(config);
    match observer {
        Observer::Nothing => {}
        Observer::Faults(seed) => dev.set_fault_plan(Some(
            FaultPlan::quiet(seed)
                .with_dmma_flip_rate(0.3)
                .with_smem_corrupt_rate(0.3),
        )),
        Observer::Sanitizer => dev.set_sanitizer(true),
    }
    let bits = Mutex::new(Vec::new());
    dev.launch(1, shared_len, |_, ctx| {
        *bits.lock().expect("single block") = block(ctx);
    });
    let bits = bits.into_inner().expect("single block");
    (bits, dev.counters, dev.take_sanitizer_report())
}

/// A splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in [-4, 4), or one in eight times a signed zero, an infinity
/// or NaN.
fn value(state: &mut u64) -> f64 {
    let h = mix(state);
    if h.is_multiple_of(8) {
        [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(h >> 8) as usize % 5]
    } else {
        (h >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
    }
}

/// One `mma_chains` call: its row stride and chains `(a_base, first B
/// fragment of the pool, length)`.
#[derive(Clone, Debug)]
struct Call {
    stride: usize,
    chains: Vec<(usize, usize, usize)>,
}

/// Inputs of one block: shared contents, a pool of `B` fragments, the
/// starting accumulator and the calls to make.
struct Case {
    banks: u32,
    shared: Vec<f64>,
    b: Vec<FragB>,
    acc: FragAcc,
    calls: Vec<Call>,
}

fn case(banks: u32, seed: u64, calls: Vec<Call>) -> Case {
    let mut state = seed;
    let chains = || {
        calls
            .iter()
            .flat_map(|c| c.chains.iter().map(|&ch| (c.stride, ch)))
    };
    let len = chains()
        .map(|(stride, (base, _, n))| base + 7 * stride + 4 * n)
        .max()
        .unwrap_or(0)
        .max(1);
    let pool = chains()
        .map(|(_, (_, first, n))| first + n)
        .max()
        .unwrap_or(0);
    Case {
        banks,
        shared: (0..len).map(|_| value(&mut state)).collect(),
        b: (0..pool)
            .map(|_| FragB {
                data: std::array::from_fn(|_| value(&mut state)),
            })
            .collect(),
        acc: FragAcc {
            data: std::array::from_fn(|_| value(&mut state)),
        },
        calls,
    }
}

/// Makes every call of `case` in one block, each into its own copy of
/// the starting accumulator, either as `mma_chains` or as the
/// per-fragment loop.
fn run_chains(case: &Case, observer: Observer, chained: bool) -> Outcome {
    run_block(case.banks, case.shared.len(), observer, |ctx| {
        for (i, vals) in case.shared.chunks(32).enumerate() {
            let addrs: Vec<usize> = (32 * i..32 * i + vals.len()).collect();
            ctx.smem_store(&addrs, vals);
        }
        let mut out = Vec::new();
        for call in &case.calls {
            let chains: Vec<(usize, &[FragB])> = call
                .chains
                .iter()
                .map(|&(base, first, n)| (base, &case.b[first..first + n]))
                .collect();
            let mut acc = case.acc;
            if chained {
                ctx.mma_chains(call.stride, &chains, &mut acc);
            } else {
                for &(base, b) in &chains {
                    for (k, f) in b.iter().enumerate() {
                        let a = ctx.load_frag_a(base + 4 * k, call.stride);
                        ctx.dmma(&a, f, &mut acc);
                    }
                }
            }
            out.extend(acc.data.iter().map(|v| v.to_bits()));
        }
        out
    })
}

/// 1-14 chains of lengths 0-16 per call, at conflict-free strides (68, 36
/// and 20 on 32 banks) and conflicting ones (16, 32, 64), more distinct
/// strides than the block's fragment-degree memo holds, all in one block.
#[test]
fn chain_matches_fragment_loop_on_fixed_strides() {
    let strides = [16, 17, 20, 32, 36, 52, 64, 68, 100, 132];
    let mut calls = Vec::new();
    let mut dmmas = 0;
    for count in 1..=14 {
        for (s, &stride) in strides.iter().enumerate() {
            let chains: Vec<_> = (0..count)
                .map(|c| ((c * 5 + s) % 13, (c + s) % 4, (count * 3 + c * 7 + s) % 17))
                .collect();
            dmmas += chains.iter().map(|c| c.2 as u64).sum::<u64>();
            calls.push(Call { stride, chains });
        }
    }
    for banks in [32, 64] {
        let case = case(banks, 0xC4A1 + banks as u64, calls.clone());
        for observer in observers() {
            let chained = run_chains(&case, observer, true);
            let looped = run_chains(&case, observer, false);
            assert_eq!(chained, looped, "{banks} banks, {observer:?}");
            let ledger = chained.1;
            assert_eq!(ledger.dmma_ops, dmmas);
            assert!(ledger.shared_read_conflicts > 0, "no conflicting stride");
            if let Observer::Faults(_) = observer {
                assert!(ledger.frag_faults_injected > 0, "no DMMA flip drawn");
            }
        }
    }
}

/// Stores a span of fresh values at every start and length 0..=100, in
/// one block, either as `smem_store_span` or as the 32-lane `smem_store`
/// loop, and records after each span the block's ledger and the shared
/// contents around it.
fn run_spans(banks: u32, observer: Observer, spans: bool) -> Outcome {
    const MAX: usize = 100;
    run_block(banks, 2 * MAX + 8, observer, |ctx| {
        let mut state = 0x5A17 + u64::from(banks);
        let mut out = Vec::new();
        let mut vals = [0.0f64; MAX];
        for start in 0..=MAX {
            for len in 0..=MAX {
                for v in &mut vals[..len] {
                    *v = value(&mut state);
                }
                let vals = &vals[..len];
                if spans {
                    ctx.smem_store_span(start, vals);
                } else {
                    for (i, chunk) in vals.chunks(32).enumerate() {
                        let addrs: Vec<usize> =
                            (start + 32 * i..start + 32 * i + chunk.len()).collect();
                        ctx.smem_store(&addrs, chunk);
                    }
                }
                let c = ctx.counters;
                out.extend([
                    c.shared_write_requests,
                    c.shared_write_conflicts,
                    c.shared_write_bytes,
                    c.smem_faults_injected,
                ]);
                let around = start.saturating_sub(1)..(start + len + 1).min(ctx.shared.len());
                out.extend(ctx.shared.raw()[around].iter().map(|v| v.to_bits()));
            }
        }
        out
    })
}

/// Every start and length 0..=100 on 16, 32 and 64 banks: equal shared
/// contents, counters, sanitizer reports and fault counts.
#[test]
fn span_store_matches_store_loop() {
    for banks in [16, 32, 64] {
        for observer in observers() {
            let span = run_spans(banks, observer, true);
            let looped = run_spans(banks, observer, false);
            assert_eq!(span, looped, "{banks} banks, {observer:?}");
            let ledger = span.1;
            assert_eq!(
                ledger.shared_write_conflicts > 0,
                banks < 32,
                "{banks} banks: a 16-lane phase conflicts only below 32 banks"
            );
            if let Observer::Faults(_) = observer {
                assert!(ledger.smem_faults_injected > 0, "no store corruption drawn");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any one call of up to 14 chains equals its per-fragment loop in
    /// bits and ledger.
    #[test]
    fn chain_matches_fragment_loop(
        banks in prop::sample::select(vec![32u32, 64]),
        observer in 0usize..3,
        stride in 1usize..140,
        count in 1usize..15,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed;
        let mut pick = |n: u64| (mix(&mut state) % n) as usize;
        let chains = (0..count).map(|_| (pick(64), pick(8), pick(17))).collect();
        let case = case(banks, seed, vec![Call { stride, chains }]);
        let observer = observers()[observer];
        prop_assert_eq!(run_chains(&case, observer, true), run_chains(&case, observer, false));
    }
}
