//! Wall-clock-by-phase profile of the Box-2D9P Fig. 6 workload.
//!
//! Complements `perf_gate` (which gates totals): this breaks the host
//! wall time of one traced run down by pipeline phase, which is how the
//! hot-path work in DESIGN.md §11 was located. Span `wall_ns` is host
//! time actually spent inside each phase scope, so the per-phase sums
//! account for nearly all of the run.

use convstencil::ConvStencil2D;
use std::collections::BTreeMap;
use stencil_core::{Grid2D, Shape};

fn main() {
    let k = Shape::Box2D9P.kernel2d().unwrap();
    let mut g = Grid2D::new(1024, 1024, k.radius());
    g.fill_random(7);
    let cs = ConvStencil2D::try_new(k)
        .expect("shipped kernels plan")
        .with_tracing(true);
    let start = std::time::Instant::now();
    let (_, report) = cs.try_run(&g, 6).expect("the simulated run succeeds");
    println!("total wall: {:.1} ms", start.elapsed().as_secs_f64() * 1e3);
    let trace = report.trace.expect("tracing was enabled");
    let mut by_phase: BTreeMap<String, u64> = BTreeMap::new();
    for span in &trace.spans {
        *by_phase.entry(format!("{:?}", span.phase)).or_default() += span.wall_ns;
    }
    for (phase, ns) in by_phase {
        println!("{phase}: {:.1} ms", ns as f64 / 1e6);
    }
}
