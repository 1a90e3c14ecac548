//! `Device::try_launch_into` against `Device::try_launch` running the
//! same kernel: equal output bits, an equal `Counters` ledger and equal
//! launch statistics, with nothing observing the launch, with a
//! `FaultPlan`, with tracing on (spans equal but for `wall_ns`) and with
//! the sanitizer on (equal findings, out-of-bounds writes included).
//!
//! Every block writes random spans, masked warps, row tails and lone
//! elements into the output. A block's writes fall in disjoint segments,
//! and different blocks overlap freely, so the result also pins the
//! block order in which in-place writes land.

use proptest::prelude::*;
use tcu_sim::{
    BlockCtx, BufferId, Counters, Device, DeviceError, FaultPlan, FragAcc, FragB, LaunchStats,
    Phase, SanitizerReport, Trace, INACTIVE,
};

/// Elements per output segment; a block writes each segment at most once.
const SEG: usize = 96;
/// Length of the input buffer every block reads from.
const SRC_LEN: usize = 256;

/// What observes the launch.
#[derive(Clone, Copy, Debug)]
enum Observer {
    Nothing,
    /// A fault plan with this seed that corrupts shared stores and DMMA
    /// results often.
    Faults(u64),
    Tracing,
    Sanitizer,
}

const OBSERVERS: [Observer; 4] = [
    Observer::Nothing,
    Observer::Faults(11),
    Observer::Tracing,
    Observer::Sanitizer,
];

/// One global write of a block.
#[derive(Clone, Debug)]
enum Write {
    /// `gmem_write_span(out, start, len values)`.
    Span(usize, usize),
    /// `gmem_write_warp(out, addrs, ..)`, [`INACTIVE`] lanes included.
    Warp(Vec<usize>),
}

impl Write {
    fn lanes(&self) -> usize {
        match self {
            Write::Span(_, len) => *len,
            Write::Warp(addrs) => addrs.len(),
        }
    }
}

/// The output length and each block's writes.
#[derive(Clone, Debug)]
struct Case {
    out_len: usize,
    blocks: Vec<Vec<Write>>,
}

/// A splitmix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random write inside the segment starting at `base`.
fn write_in(state: &mut u64, base: usize) -> Write {
    let mut r = |bound: usize| (mix(state) % bound as u64) as usize;
    match r(5) {
        // A span, often longer than one 32-lane request.
        0 => {
            let off = r(SEG);
            Write::Span(base + off, r(SEG - off + 1))
        }
        // A masked warp: increasing addresses with gaps of one or two, so
        // it holds runs and lone elements.
        1 => {
            let mut at = base + r(8);
            let addrs = (0..1 + r(32))
                .map(|_| {
                    if r(4) == 0 {
                        return INACTIVE;
                    }
                    let a = at;
                    at += 1 + r(2);
                    a
                })
                .collect();
            Write::Warp(addrs)
        }
        // A row tail: a run from lane 0, the other lanes masked.
        2 => {
            let start = base + r(SEG - 32);
            let lanes = 1 + r(32);
            let run = 1 + r(lanes);
            Write::Warp(
                (0..lanes)
                    .map(|l| if l < run { start + l } else { INACTIVE })
                    .collect(),
            )
        }
        // A single element, as a one-lane warp or a one-element span.
        3 => Write::Warp(vec![base + r(SEG)]),
        _ => Write::Span(base + r(SEG), 1),
    }
}

/// `blocks` blocks over `segments` segments; each block writes a random
/// subset of the segments.
fn case(seed: u64, blocks: usize, segments: usize) -> Case {
    let mut state = seed;
    let mut per_block = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let mut writes = Vec::new();
        for s in 0..segments {
            if !mix(&mut state).is_multiple_of(4) {
                writes.push(write_in(&mut state, s * SEG));
            }
        }
        per_block.push(writes);
    }
    Case {
        out_len: segments * SEG,
        blocks: per_block,
    }
}

/// The block kernel: stage input through shared memory, run one DMMA,
/// then issue the block's writes with values derived from the result, so
/// corrupted stores and flipped DMMA lanes reach the output. With `oob`
/// each block also writes past the end of `out` (sanitizer runs only).
fn kernel(
    case: &Case,
    round: usize,
    src: BufferId,
    out: BufferId,
    side: BufferId,
    oob: bool,
) -> impl Fn(usize, &mut BlockCtx) + '_ {
    move |block, ctx| {
        ctx.phase(Phase::SmemScatter);
        let vals = ctx.gmem_read_span(src, (block * 37 + round) % (SRC_LEN - 32), 32);
        let addrs: Vec<usize> = (0..32).collect();
        ctx.smem_store(&addrs, &vals);
        ctx.phase(Phase::Tessellation);
        let a = ctx.load_frag_a(0, 4);
        let b = FragB {
            data: std::array::from_fn(|i| (i + round) as f64 * 0.25 - 3.0),
        };
        let mut acc = FragAcc::zero();
        ctx.dmma(&a, &b, &mut acc);
        ctx.phase(Phase::Epilogue);
        let value = |i: usize, l: usize| acc.data[(i * 7 + l) % 64] + (block * 1000 + i) as f64;
        for (i, w) in case.blocks[block].iter().enumerate() {
            let vals: Vec<f64> = (0..w.lanes()).map(|l| value(i, l)).collect();
            match w {
                Write::Span(start, _) => ctx.gmem_write_span(out, *start, &vals),
                Write::Warp(addrs) => ctx.gmem_write_warp(out, addrs, &vals),
            }
        }
        // A logged write to another buffer rides along.
        ctx.gmem_write_span(side, block * 4, &acc.data[..4]);
        if oob {
            let n = case.out_len;
            ctx.gmem_write_span(out, n - 3, &[1.0; 8]);
            ctx.gmem_write_warp(out, &[n - 1, n, n + 5, INACTIVE], &[2.0; 4]);
        }
    }
}

/// What a run leaves behind: output and side-buffer bits, the ledger,
/// launch statistics, the trace with `wall_ns` cleared, and the sanitizer
/// findings.
type Outcome = (
    Vec<u64>,
    Vec<u64>,
    Counters,
    LaunchStats,
    Trace,
    SanitizerReport,
);

/// Two launches of the case's kernel, logged or in place.
fn run(case: &Case, observer: Observer, in_place: bool) -> Outcome {
    let mut dev = Device::a100();
    match observer {
        Observer::Nothing => {}
        Observer::Faults(seed) => dev.set_fault_plan(Some(
            FaultPlan::quiet(seed)
                .with_smem_corrupt_rate(0.3)
                .with_dmma_flip_rate(0.3),
        )),
        Observer::Tracing => dev.set_tracing(true),
        Observer::Sanitizer => dev.set_sanitizer(true),
    }
    let oob = matches!(observer, Observer::Sanitizer);
    let src = dev.alloc_from(&(0..SRC_LEN).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
    let out = dev.alloc_from(&vec![-1.0; case.out_len]);
    let side = dev.alloc(4 * case.blocks.len());
    for round in 0..2 {
        let k = kernel(case, round, src, out, side, oob);
        let blocks = case.blocks.len();
        if in_place {
            dev.try_launch_into(out, blocks, 64, k).unwrap();
        } else {
            dev.try_launch(blocks, 64, k).unwrap();
        }
    }
    let bits = |dev: &Device, id| dev.download(id).iter().map(|v| v.to_bits()).collect();
    let mut trace = dev.take_trace();
    for span in &mut trace.spans {
        span.wall_ns = 0;
    }
    (
        bits(&dev, out),
        bits(&dev, side),
        dev.counters,
        dev.launch_stats,
        trace,
        dev.take_sanitizer_report(),
    )
}

#[test]
fn in_place_launch_matches_logged_launch() {
    let case = case(0x1A5E, 6, 4);
    for observer in OBSERVERS {
        let logged = run(&case, observer, false);
        let in_place = run(&case, observer, true);
        assert_eq!(in_place, logged, "{observer:?}");
        let (out, _, counters, stats, trace, report) = logged;
        assert!(counters.global_write_requests > 0);
        assert_eq!(stats.kernel_launches, 2);
        assert!(
            out.iter().any(|&v| v != (-1.0f64).to_bits()),
            "nothing written"
        );
        match observer {
            Observer::Faults(_) => {
                assert!(counters.smem_faults_injected + counters.frag_faults_injected > 0)
            }
            Observer::Tracing => assert!(trace.spans.iter().any(|s| s.phase == Phase::Epilogue)),
            Observer::Sanitizer => assert!(!report.is_clean(), "out-of-bounds writes not reported"),
            Observer::Nothing => {}
        }
    }
}

#[test]
fn injected_launch_failure_leaves_the_output_in_place() {
    let mut dev = Device::a100();
    dev.set_fault_plan(Some(FaultPlan::quiet(3).with_launch_fail_rate(1.0)));
    let before: Vec<f64> = (0..64).map(|i| i as f64).collect();
    let out = dev.alloc_from(&before);
    let err = dev.try_launch_into(out, 4, 64, |block, ctx| {
        ctx.gmem_write_span(out, block * 16, &[9.0; 16]);
    });
    assert!(matches!(
        err,
        Err(DeviceError::InjectedLaunchFailure { .. })
    ));
    assert_eq!(dev.download(out), before.as_slice());
}

#[test]
#[should_panic(expected = "declared output")]
fn reading_the_declared_output_span_panics() {
    let mut dev = Device::a100();
    let out = dev.alloc(64);
    let _ = dev.try_launch_into(out, 1, 16, |_, ctx| {
        ctx.gmem_read_span(out, 0, 8);
    });
}

#[test]
#[should_panic(expected = "declared output")]
fn reading_the_declared_output_warp_panics() {
    let mut dev = Device::a100();
    let out = dev.alloc(64);
    let _ = dev.try_launch_into(out, 1, 16, |_, ctx| {
        let mut v = [0.0; 2];
        ctx.gmem_read_warp(out, &[0, INACTIVE], &mut v);
    });
}

#[test]
fn a_panicking_block_leaves_the_output_behind_its_handle() {
    let mut dev = Device::a100();
    let out = dev.alloc_from(&[1.0; 64]);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = dev.try_launch_into(out, 4, 16, |block, ctx| {
            ctx.gmem_write_span(out, block * 16, &[2.0; 16]);
            if block == 1 {
                ctx.gmem_read_span(out, 0, 8);
            }
        });
    }));
    assert!(panicked.is_err());
    // Blocks 0 and 1 wrote before block 1 panicked; blocks 2 and 3 never ran.
    let mut want = vec![2.0; 32];
    want.extend([1.0; 32]);
    assert_eq!(dev.download(out), want.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any case gives the same outcome logged and in place.
    #[test]
    fn in_place_launch_matches_logged_launch_on_random_cases(
        seed in 0u64..1_000_000,
        blocks in 1usize..7,
        segments in 1usize..5,
        observer in 0usize..4,
    ) {
        let case = case(seed, blocks, segments);
        let observer = OBSERVERS[observer];
        prop_assert_eq!(run(&case, observer, true), run(&case, observer, false));
    }
}
