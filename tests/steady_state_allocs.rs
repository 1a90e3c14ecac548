//! Heap bytes a one-shot run allocates, counted by a `#[global_allocator]`
//! that tallies the calling thread's allocations (the simulator runs on
//! the caller's thread).
//!
//! A runner's first run allocates its working arrays and releases them as
//! a runner always did; from its second run on it keeps them, so a run at
//! an unchanged shape allocates only the grid it returns and a small
//! fixed amount of plan and device state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use convstencil_repro::convstencil::{ConvStencil2D, Exec2D, WorkArrays};
use convstencil_repro::stencil_core::{Grid2D, Shape};

struct ThreadCounting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local without a
// destructor, so counting never allocates.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

/// Bytes this thread allocates while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let value = f();
    (value, BYTES.with(Cell::get) - before)
}

const SIDE: usize = 256;
const STEPS: usize = 6;

/// Plan, lookup table, weights, device launch state and report of one
/// run at 256x256: everything a run allocates besides its grids and
/// extended arrays (73,404 B when this was written; one extended array is
/// 549 KiB). A launch that kept a 2.7 KB outcome per block would add
/// 173 KiB over the run's two 32-block launches and break the bound.
const SLACK: u64 = 96 << 10;

fn setup() -> (ConvStencil2D, Grid2D, u64, u64) {
    let kernel = Shape::Box2D9P.kernel2d().unwrap();
    let runner = ConvStencil2D::try_new(kernel).unwrap();
    let mut grid = Grid2D::new(SIDE, SIDE, runner.fused_kernel().radius());
    grid.fill_random(3);
    let grid_bytes = (grid.padded().len() * 8) as u64;
    let plan = Exec2D::try_new(runner.fused_kernel(), SIDE, SIDE, runner.variant())
        .unwrap()
        .plan;
    let ext_bytes = (plan.ext_rows * plan.ext_cols * 8) as u64;
    // The bound below only means something if one extended array would
    // break it.
    assert!(ext_bytes > SLACK, "ext {ext_bytes} B vs slack {SLACK} B");
    (runner, grid, grid_bytes, ext_bytes)
}

#[test]
fn a_runner_allocates_its_working_arrays_until_it_keeps_them() {
    let (runner, grid, grid_bytes, ext_bytes) = setup();
    let run = |r: &ConvStencil2D| allocated(|| r.try_run(&grid, STEPS).unwrap());

    // First run: both extended arrays and the result, released after.
    let ((first, _), b1) = run(&runner);
    assert!(
        b1 >= 2 * ext_bytes + grid_bytes,
        "first run allocated {b1} B, below two extended arrays and the grid"
    );
    // Second run: allocates them again and keeps them.
    let ((second, _), b2) = run(&runner);
    assert_eq!(b2, b1, "second run");
    // Steady state: the returned grid plus the fixed slack.
    for i in 0..3 {
        let ((out, report), b) = run(&runner);
        assert!(
            b <= grid_bytes + SLACK,
            "run {}: {b} B allocated, over the {grid_bytes} B grid plus {SLACK} B",
            i + 3
        );
        assert_eq!(out.padded(), first.padded());
        assert!(report.counters.dmma_ops > 0);
    }
    assert_eq!(second.padded(), first.padded());

    // A clone starts as a new runner.
    let ((_, _), b_clone) = run(&runner.clone());
    assert_eq!(b_clone, b1, "a clone's first run");
}

#[test]
fn runs_on_a_caller_device_never_keep_working_arrays() {
    let (runner, grid, grid_bytes, ext_bytes) = setup();
    let mut dev = runner.pool_device(None);
    for run in 0..4 {
        let (attempts, b) = allocated(|| {
            let mut work = WorkArrays::default();
            runner
                .try_run_attempts(&mut dev, &grid, STEPS, &mut work, None, 0)
                .unwrap()
        });
        assert!(attempts.accepted.is_some());
        assert!(
            b >= 2 * ext_bytes + grid_bytes,
            "run {run} on a caller device allocated {b} B"
        );
    }
}
