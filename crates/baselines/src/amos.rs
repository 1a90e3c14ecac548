//! AMOS analog: automatic stencil-to-Tensor-Core mapping via depth-wise
//! convolution (paper §5.1/§5.3).
//!
//! AMOS maps the stencil directly onto the Tensor Cores without
//! stencil-specific optimization: the input is *explicitly* lowered to an
//! im2row matrix in global memory (space explosion, §2.3) and the stencil
//! becomes a matrix-vector product — one useful accumulator column of
//! eight (12.5 % TCU utilization, §3.3). The paper observes AMOS is even
//! slower than cuDNN because of exactly this unoptimized mapping; here
//! that emerges from the measured global traffic.

use crate::common::{
    make_grid1d, make_grid2d, make_grid3d, report_from_device, ProblemSize, StencilSystem,
    SystemResult,
};
use stencil_core::{AnyKernel, Kernel1D, Kernel2D, Kernel3D, Shape};
use tcu_sim::{BufferId, Device, FragAcc, FragB, INACTIVE};

/// The AMOS analog runner.
#[derive(Debug, Clone, Default)]
pub struct Amos;

/// Dense window as flat (relative padded address offset, weight) pairs.
/// Zero weights included — the mapping is dense, like a depth-wise conv.
struct Window {
    /// Relative offsets from the output's padded address.
    offsets: Vec<isize>,
    weights: Vec<f64>,
}

impl Amos {
    fn window_2d(k: &Kernel2D, pcols: usize) -> Window {
        let r = k.radius() as isize;
        let mut offsets = Vec::new();
        let mut weights = Vec::new();
        for dx in -r..=r {
            for dy in -r..=r {
                offsets.push(dx * pcols as isize + dy);
                weights.push(k.weight(dx, dy));
            }
        }
        Window { offsets, weights }
    }

    fn window_1d(k: &Kernel1D) -> Window {
        let r = k.radius() as isize;
        Window {
            offsets: (-r..=r).collect(),
            weights: k.weights().to_vec(),
        }
    }

    fn window_3d(k: &Kernel3D, pcols: usize, plane: usize) -> Window {
        let r = k.radius() as isize;
        let mut offsets = Vec::new();
        let mut weights = Vec::new();
        for dz in -r..=r {
            for dx in -r..=r {
                for dy in -r..=r {
                    offsets.push(dz * plane as isize + dx * pcols as isize + dy);
                    weights.push(k.weight(dz, dx, dy));
                }
            }
        }
        Window { offsets, weights }
    }

    /// One time step: explicit im2row into global scratch, then the TCU
    /// matrix-vector GEMM. `out_addrs[p]` is the padded destination
    /// address of output point `p`; the same address in `src` is the
    /// window center.
    fn step(
        dev: &mut Device,
        src: BufferId,
        dst: BufferId,
        im2row: BufferId,
        window: &Window,
        out_addrs: &[usize],
    ) {
        let kk = window.offsets.len();
        let krows = kk.div_ceil(4) * 4;
        let npoints = out_addrs.len();

        // Launch 1: build the im2row matrix. Writes stride K apart per
        // window column — heavily uncoalesced, the cost of the explicit
        // lowering.
        let chunk = 2048usize;
        let blocks = npoints.div_ceil(chunk);
        dev.launch(blocks, 64, |bid, ctx| {
            let p0 = bid * chunk;
            let p1 = (p0 + chunk).min(npoints);
            let mut gaddrs = [INACTIVE; 32];
            let mut waddrs = [INACTIVE; 32];
            let mut vals = [0.0f64; 32];
            let mut p = p0;
            while p < p1 {
                let lanes = 32.min(p1 - p);
                for (idx, &off) in window.offsets.iter().enumerate() {
                    for l in 0..lanes {
                        gaddrs[l] = (out_addrs[p + l] as isize + off) as usize;
                        waddrs[l] = (p + l) * kk + idx;
                    }
                    ctx.gmem_read_warp(src, &gaddrs[..lanes], &mut vals[..lanes]);
                    ctx.count_int(2 * lanes as u64);
                    ctx.gmem_write_warp(im2row, &waddrs[..lanes], &vals[..lanes]);
                }
                p += lanes;
            }
        });

        // Launch 2: matrix-vector on the Tensor Cores, 8 output points per
        // fragment group, one useful accumulator column.
        let groups_per_block = 32usize;
        let pts_per_block = 8 * groups_per_block;
        let blocks = npoints.div_ceil(pts_per_block);
        let smem = 8 * krows + krows * 8 + 64;
        dev.launch(blocks, smem, |bid, ctx| {
            // Stage the weight vector as the single useful column of the
            // B fragments.
            let wb_off = 8 * krows;
            let mut wcol = vec![0.0f64; krows * 8];
            for (i, &w) in window.weights.iter().enumerate() {
                wcol[i * 8] = w;
            }
            let mut addrs: Vec<usize> = Vec::with_capacity(32);
            let mut i = 0;
            while i < wcol.len() {
                let lanes = 32.min(wcol.len() - i);
                addrs.clear();
                addrs.extend((0..lanes).map(|l| wb_off + i + l));
                ctx.smem_store(&addrs, &wcol[i..i + lanes]);
                i += lanes;
            }
            let chunks = krows / 4;
            let wb: Vec<FragB> = (0..chunks)
                .map(|k| ctx.load_frag_b(wb_off + 4 * k * 8, 8))
                .collect();

            let p_base = bid * pts_per_block;
            for g in 0..groups_per_block {
                let p0 = p_base + g * 8;
                if p0 >= npoints {
                    break;
                }
                let rows_here = 8.min(npoints - p0);
                // Read the 8 im2row rows (contiguous) and stage them with
                // row stride krows — no conflict padding (unoptimized).
                for rl in 0..rows_here {
                    let vals = ctx.gmem_read_span(im2row, (p0 + rl) * kk, kk);
                    let mut j = 0;
                    while j < kk {
                        let lanes = 32.min(kk - j);
                        addrs.clear();
                        addrs.extend((0..lanes).map(|l| rl * krows + j + l));
                        ctx.smem_store(&addrs, &vals[j..j + lanes]);
                        j += lanes;
                    }
                }
                // Zero the unused tail rows so stale data cannot leak in.
                for rl in rows_here..8 {
                    let zeros = vec![0.0f64; krows.min(32)];
                    let mut j = 0;
                    while j < krows {
                        let lanes = 32.min(krows - j);
                        addrs.clear();
                        addrs.extend((0..lanes).map(|l| rl * krows + j + l));
                        ctx.smem_store(&addrs, &zeros[..lanes]);
                        j += lanes;
                    }
                }
                let mut acc = FragAcc::zero();
                ctx.mma_chains(krows, &[(0, &wb)], &mut acc);
                // Column 0 holds the 8 results.
                let mut waddrs = [INACTIVE; 32];
                let mut vals = [0.0f64; 32];
                for rl in 0..rows_here {
                    waddrs[rl] = out_addrs[p0 + rl];
                    vals[rl] = acc.get(rl, 0);
                }
                ctx.gmem_write_warp(dst, &waddrs[..rows_here], &vals[..rows_here]);
            }
        });
    }

    fn run_steps(
        dev: &mut Device,
        padded: &[f64],
        window: &Window,
        out_addrs: &[usize],
        steps: usize,
    ) -> Vec<f64> {
        let a = dev.alloc_from(padded);
        let b = dev.alloc_from(padded);
        let im2row = dev.alloc(out_addrs.len() * window.offsets.len());
        let (mut cur, mut next) = (a, b);
        for _ in 0..steps {
            Self::step(dev, cur, next, im2row, window, out_addrs);
            std::mem::swap(&mut cur, &mut next);
        }
        dev.download(cur).to_vec()
    }
}

impl StencilSystem for Amos {
    fn name(&self) -> &'static str {
        "AMOS"
    }

    fn supports(&self, _shape: Shape) -> bool {
        true
    }

    fn run(
        &self,
        shape: Shape,
        size: ProblemSize,
        steps: usize,
        seed: u64,
    ) -> Option<SystemResult> {
        let mut dev = Device::a100();
        let output = match (shape.kernel(), size) {
            (AnyKernel::D1(k), ProblemSize::D1(n)) => {
                let g = make_grid1d(n, k.radius(), seed);
                let window = Self::window_1d(&k);
                let out_addrs: Vec<usize> = (0..n).map(|i| i + g.halo()).collect();
                let data = Self::run_steps(&mut dev, g.padded(), &window, &out_addrs, steps);
                out_addrs.iter().map(|&a| data[a]).collect()
            }
            (AnyKernel::D2(k), ProblemSize::D2(m, n)) => {
                let g = make_grid2d(m, n, k.radius(), seed);
                let window = Self::window_2d(&k, g.padded_cols());
                let h = g.halo();
                let pcols = g.padded_cols();
                let out_addrs: Vec<usize> = (0..m)
                    .flat_map(|x| (0..n).map(move |y| (x + h) * pcols + y + h))
                    .collect();
                let data = Self::run_steps(&mut dev, g.padded(), &window, &out_addrs, steps);
                out_addrs.iter().map(|&a| data[a]).collect()
            }
            (AnyKernel::D3(k), ProblemSize::D3(d, m, n)) => {
                let g = make_grid3d(d, m, n, k.radius(), seed);
                let pcols = g.padded_cols();
                let plane = g.padded_rows() * pcols;
                let window = Self::window_3d(&k, pcols, plane);
                let h = g.halo();
                let out_addrs: Vec<usize> = (0..d)
                    .flat_map(|z| {
                        (0..m).flat_map(move |x| {
                            (0..n).map(move |y| (z + h) * plane + (x + h) * pcols + y + h)
                        })
                    })
                    .collect();
                let data = Self::run_steps(&mut dev, g.padded(), &window, &out_addrs, steps);
                out_addrs.iter().map(|&a| data[a]).collect()
            }
            _ => return None,
        };
        Some(SystemResult {
            output,
            report: report_from_device(&dev, size.points(), steps as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::assert_close_default;
    use stencil_core::reference::run2d;

    #[test]
    fn amos_2d_matches_reference() {
        let k = Kernel2D::box_uniform(1);
        let m = 20;
        let n = 36;
        let got = Amos
            .run(Shape::Box2D9P, ProblemSize::D2(m, n), 2, 11)
            .unwrap();
        let g = make_grid2d(m, n, k.radius(), 11);
        let want = run2d(&g, &k, 2);
        assert_close_default(&got.output, &want.interior());
    }

    #[test]
    fn amos_1d_and_3d_match_reference() {
        let r1 = Amos.run(Shape::Heat1D, ProblemSize::D1(700), 2, 3).unwrap();
        let g1 = make_grid1d(700, 1, 3);
        let k1 = Shape::Heat1D.kernel1d().unwrap();
        assert_close_default(
            &r1.output,
            &stencil_core::reference::run1d(&g1, &k1, 2).interior(),
        );

        let r3 = Amos
            .run(Shape::Box3D27P, ProblemSize::D3(5, 9, 17), 1, 4)
            .unwrap();
        let g3 = make_grid3d(5, 9, 17, 1, 4);
        let k3 = Shape::Box3D27P.kernel3d().unwrap();
        assert_close_default(
            &r3.output,
            &stencil_core::reference::run3d(&g3, &k3, 1).interior(),
        );
    }

    #[test]
    fn amos_pays_explicit_im2row_traffic() {
        // Global traffic per point must be >= 2K words (write + re-read of
        // the im2row row) — the space explosion of §2.3.
        let r = Amos
            .run(Shape::Box2D9P, ProblemSize::D2(32, 32), 1, 1)
            .unwrap();
        let per_point = (r.report.counters.global_read_bytes + r.report.counters.global_write_bytes)
            as f64
            / 1024.0;
        assert!(per_point > 2.0 * 9.0 * 8.0, "bytes/pt = {per_point}");
    }

    #[test]
    fn amos_uses_tensor_cores_with_one_useful_column() {
        let r = Amos
            .run(Shape::Box2D9P, ProblemSize::D2(32, 32), 1, 1)
            .unwrap();
        // ceil(9/4) = 3 MMAs per 8 points.
        let expect = 1024 / 8 * 3;
        assert_eq!(r.report.counters.dmma_ops, expect);
    }

    #[test]
    fn amos_writes_are_uncoalesced() {
        let r = Amos
            .run(Shape::Box2D9P, ProblemSize::D2(32, 32), 1, 1)
            .unwrap();
        assert!(
            r.report.counters.uncoalesced_global_access_pct() > 10.0,
            "UGA = {}",
            r.report.counters.uncoalesced_global_access_pct()
        );
    }
}
