//! `BlockCtx::mma_chain` against the per-fragment loop it stands for
//! (`load_frag_a` then `dmma` for each fragment): equal accumulator bits
//! and an equal `Counters` ledger, on the fast path (nothing observes the
//! block's accesses) and with a `FaultPlan` or the sanitizer installed,
//! on 32 and 64 shared-memory banks.
//!
//! The workspace's `tests/access_ledger.rs` already compares the two
//! paths end to end: its plain runs take the fast path and its sanitized
//! runs the per-fragment loop, for every Fig. 6 variant in 1D/2D/3D.

use std::sync::Mutex;

use proptest::prelude::*;
use tcu_sim::{Counters, Device, DeviceConfig, FaultPlan, FragAcc, FragB, SanitizerReport};

/// What observes the block's shared-memory accesses.
#[derive(Clone, Copy, Debug)]
enum Observer {
    Nothing,
    /// A fault plan with this seed that flips DMMA results often.
    Faults(u64),
    Sanitizer,
}

/// Inputs of one block: shared contents, a pool of `B` fragments, the
/// starting accumulator and the chains `(a_base, row_stride, len)` to run.
struct Case {
    banks: u32,
    shared: Vec<f64>,
    b: Vec<FragB>,
    acc: FragAcc,
    chains: Vec<(usize, usize, usize)>,
}

/// What a run leaves behind: every chain's accumulator bits, the device
/// ledger and the sanitizer findings.
type Outcome = (Vec<u64>, Counters, SanitizerReport);

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

fn case(banks: u32, seed: u64, chains: Vec<(usize, usize, usize)>) -> Case {
    let mut state = seed;
    let len = chains
        .iter()
        .map(|&(base, stride, n)| base + 7 * stride + 4 * n)
        .max()
        .unwrap_or(0)
        .max(1);
    let pool = chains.iter().map(|c| c.2).max().unwrap_or(0);
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
        chains,
    }
}

/// Runs every chain of `case` in one block, each into its own copy of the
/// starting accumulator, either as `mma_chain` calls or as the
/// per-fragment loop.
fn run(case: &Case, observer: Observer, chained: bool) -> Outcome {
    let mut config = DeviceConfig::a100();
    config.shared_banks = case.banks;
    let mut dev = Device::new(config);
    match observer {
        Observer::Nothing => {}
        Observer::Faults(seed) => {
            dev.set_fault_plan(Some(FaultPlan::quiet(seed).with_dmma_flip_rate(0.3)))
        }
        Observer::Sanitizer => dev.set_sanitizer(true),
    }
    let bits = Mutex::new(Vec::new());
    dev.launch(1, case.shared.len(), |_, ctx| {
        for (i, vals) in case.shared.chunks(32).enumerate() {
            let addrs: Vec<usize> = (32 * i..32 * i + vals.len()).collect();
            ctx.smem_store(&addrs, vals);
        }
        let mut out = Vec::new();
        for &(base, stride, n) in &case.chains {
            let b = &case.b[..n];
            let mut acc = case.acc;
            if chained {
                ctx.mma_chain(base, stride, b, &mut acc);
            } else {
                for (k, f) in b.iter().enumerate() {
                    let a = ctx.load_frag_a(base + 4 * k, stride);
                    ctx.dmma(&a, f, &mut acc);
                }
            }
            out.extend(acc.data.iter().map(|v| v.to_bits()));
        }
        *bits.lock().expect("single block") = out;
    });
    let bits = bits.into_inner().expect("single block");
    (bits, dev.counters, dev.take_sanitizer_report())
}

fn observers() -> [Observer; 3] {
    [Observer::Nothing, Observer::Faults(7), Observer::Sanitizer]
}

/// Chain lengths 0-16 at conflict-free strides (68, 36 and 20 on 32
/// banks) and conflicting ones (16, 32, 64), more distinct strides than
/// the block's fragment-degree memo holds, all in one block.
#[test]
fn chain_matches_fragment_loop_on_fixed_strides() {
    let strides = [16, 17, 20, 32, 36, 52, 64, 68, 100, 132];
    let chains: Vec<_> = (0..=16)
        .flat_map(|n| strides.iter().map(move |&s| ((n * 5) % 13, s, n)))
        .collect();
    for banks in [32, 64] {
        let case = case(banks, 0xC4A1 + banks as u64, chains.clone());
        for observer in observers() {
            let chained = run(&case, observer, true);
            let looped = run(&case, observer, false);
            assert_eq!(chained, looped, "{banks} banks, {observer:?}");
            let ledger = chained.1;
            assert_eq!(ledger.dmma_ops, 17 * 16 / 2 * strides.len() as u64);
            assert!(ledger.shared_read_conflicts > 0, "no conflicting stride");
            if let Observer::Faults(_) = observer {
                assert!(ledger.frag_faults_injected > 0, "no DMMA flip drawn");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single chain equals its per-fragment loop in bits and ledger.
    #[test]
    fn chain_matches_fragment_loop(
        banks in prop::sample::select(vec![32u32, 64]),
        observer in 0usize..3,
        base in 0usize..64,
        stride in 1usize..140,
        n in 0usize..17,
        seed in 0u64..1_000_000,
    ) {
        let case = case(banks, seed, vec![(base, stride, n)]);
        let observer = observers()[observer];
        prop_assert_eq!(run(&case, observer, true), run(&case, observer, false));
    }
}
