//! The write-back shared by the 1D, 2D and 3D executors.
//!
//! A dual tessellation (or a CUDA-core lane group) leaves a run of
//! contiguous outputs of one output row. The run is clipped at the grid's
//! last column and written as one span; with the compute kernels'
//! in-place launches (`Device::try_launch_into`) the span lands straight
//! in the output buffer. A span is charged one contiguous 32-lane request
//! per 32 outputs, exactly what per-lane masked warps over the same
//! addresses are charged, and under the sanitizer an in-bounds span
//! records nothing, so the ledger and the reports do not depend on how
//! the row is issued.

use tcu_sim::{BlockCtx, BufferId, Phase};

/// Write `vals`, the outputs at interior columns `y0, y0 + 1, …` of one
/// output row whose interior column 0 sits at `row_base` of `ext_out`,
/// dropping those at or past column `n`.
pub(crate) fn write_row(
    ctx: &mut BlockCtx,
    ext_out: BufferId,
    row_base: usize,
    y0: usize,
    n: usize,
    vals: &[f64],
) {
    let prev = ctx.phase(Phase::Epilogue);
    let len = vals.len().min(n.saturating_sub(y0));
    if len > 0 {
        ctx.gmem_write_span(ext_out, row_base + y0, &vals[..len]);
    }
    ctx.phase(prev);
}
