//! The sampled reference of verified execution: each sampled tile's
//! reference is computed on its dependency cone (a window of the grid)
//! rather than on the whole grid. These sweeps pin that the window values
//! are bit-identical to the full `run_reference` at every sampled cell —
//! 1D/2D/3D, Dirichlet and periodic, fused schedules with a remainder
//! kernel, grid halos thinner than the fused radius, tiles that straddle
//! rows or touch the grid edge, windows wider than the axis — and that
//! `SampledReference::check` answers exactly as `check_samples` on the
//! full reference, error fields included.

use convstencil_repro::convstencil::{
    check_samples, ConvStencil, ConvStencil1D, ConvStencil2D, ConvStencil3D, Stencil,
    VariantConfig, VerifyConfig,
};
use convstencil_repro::stencil_core::{
    fill_pseudorandom, Boundary, Grid1D, Grid2D, Grid3D, HaloGrid, Kernel1D, Kernel2D, Kernel3D,
    Shape,
};
use convstencil_repro::tcu_sim::FaultPlan;
use std::ops::Range;

/// Pseudo-random weights in [-0.3, 0.3) for a `(2r+1)^dim` kernel, so the
/// bit comparisons are not helped by symmetric or repeated weights.
fn weights(radius: usize, dim: u32, seed: u64) -> Vec<f64> {
    let mut w = vec![0.0; (2 * radius + 1).pow(dim)];
    fill_pseudorandom(&mut w, seed);
    w.iter().map(|v| 0.6 * v - 0.3).collect()
}

/// A grid of extent `dims` and halo `halo` with random interior *and*
/// halo values (a Dirichlet window must carry the real halo).
fn random_grid<G: HaloGrid>(dims: &[usize], halo: usize, seed: u64) -> G {
    let mut g = G::zeros(dims, halo);
    fill_pseudorandom(g.padded_mut(), seed);
    g
}

/// Padded index of flat interior index `flat`.
fn padded_at(dims: &[usize], halo: usize, mut flat: usize) -> usize {
    let mut coords = vec![0; dims.len()];
    for (c, &d) in coords.iter_mut().zip(dims).rev() {
        *c = flat % d;
        flat /= d;
    }
    dims.iter()
        .zip(&coords)
        .fold(0, |acc, (&d, &c)| acc * (d + 2 * halo) + c + halo)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn cfgs() -> Vec<VerifyConfig> {
    let base = VerifyConfig::default();
    vec![
        base,
        VerifyConfig {
            sample_tiles: 0,
            ..base
        },
        VerifyConfig {
            sample_tiles: 4,
            tile: 5,
            seed: 11,
            ..base
        },
        VerifyConfig {
            sample_tiles: 3,
            tile: 1,
            seed: 12,
            ..base
        },
        VerifyConfig {
            sample_tiles: 6,
            tile: 13,
            seed: 13,
            ..base
        },
    ]
}

/// Ranges that straddle rows and planes or touch the grid's edges.
fn edge_ranges(dims: &[usize]) -> Vec<Range<usize>> {
    let len: usize = dims.iter().product();
    let cols = dims[dims.len() - 1];
    let plane = cols * dims.get(dims.len().wrapping_sub(2)).copied().unwrap_or(1);
    let clip = |a: usize, b: usize| a.min(len)..b.min(len);
    let mut out = vec![
        0..len,
        0..1,
        len - 1..len,
        clip(0, cols),
        clip(cols.saturating_sub(2), cols + 3),
        clip(plane.saturating_sub(2), plane + 2),
        clip(len / 2, len / 2 + 7),
        len.saturating_sub(9)..len,
    ];
    out.retain(|r| !r.is_empty());
    out
}

/// Every check of one runner, grid and step count.
fn check_case<K: Stencil>(label: &str, runner: &ConvStencil<K>, grid: &K::Grid, steps: usize) {
    let dims = grid.dims();
    let full_grid = runner.run_reference(grid, steps);
    let full = full_grid.interior();
    for r in edge_ranges(&dims) {
        let tile = runner.tile_reference(grid, steps, r.clone());
        assert_eq!(
            bits(&tile),
            bits(&full[r.clone()]),
            "{label}: window reference of {r:?} differs from the full reference"
        );
    }
    for cfg in cfgs() {
        let sampled = runner.sampled_reference(grid, steps, &cfg);
        let mut inside = Vec::new();
        for (r, want) in sampled.tiles() {
            assert_eq!(
                bits(want),
                bits(&full[r.clone()]),
                "{label}: sampled tile {r:?} differs from the full reference ({cfg:?})"
            );
            inside.extend(r);
        }
        // The same answer as check_samples on the full reference, for an
        // exact output and for outputs corrupted inside and outside the
        // sampled tiles.
        let outside = (0..full.len()).find(|i| !inside.contains(i));
        let mut corruptions = vec![None];
        corruptions.extend(inside.first().map(|&i| Some((i, f64::NAN))));
        corruptions.extend(inside.last().map(|&i| Some((i, 1e3))));
        corruptions.extend(inside.get(inside.len() / 2).map(|&i| Some((i, 1e-14))));
        corruptions.extend(outside.map(|i| Some((i, 1e3))));
        for corrupt in corruptions {
            let mut got = full_grid.clone();
            if let Some((i, delta)) = corrupt {
                let at = padded_at(&dims, got.halo(), i);
                got.padded_mut()[at] += delta;
            }
            let want = check_samples(&got.interior(), &full, &cfg);
            let have = sampled.check(&got);
            assert_eq!(
                format!("{have:?}"),
                format!("{want:?}"),
                "{label}: check disagrees with check_samples ({cfg:?}, corruption {corrupt:?})"
            );
            if let Some((i, _)) = corrupt.filter(|&(_, d)| d.is_nan() || d > 1.0) {
                assert_eq!(have.is_err(), inside.contains(&i), "{label}: cell {i}");
            }
        }
    }
}

fn boundaries() -> [Boundary; 2] {
    [Boundary::Dirichlet, Boundary::Periodic]
}

#[test]
fn window_reference_matches_full_reference_1d() {
    let mut seed = 100;
    for boundary in boundaries() {
        for (radius, fusion) in [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)] {
            for n in [1, 5, 40, 301] {
                for halo in [0, 1, radius * fusion, radius * fusion + 2] {
                    for steps in [1, 2, 4, 5, 7, 11] {
                        seed += 1;
                        let k = Kernel1D::new(weights(radius, 1, seed));
                        let runner = ConvStencil1D::try_with_fusion(k, fusion)
                            .unwrap()
                            .with_boundary(boundary);
                        let grid: Grid1D = random_grid(&[n], halo, seed);
                        let label = format!(
                            "1D {boundary:?} r={radius} fusion={fusion} n={n} halo={halo} steps={steps}"
                        );
                        check_case(&label, &runner, &grid, steps);
                    }
                }
            }
        }
    }
}

#[test]
fn window_reference_matches_full_reference_2d() {
    let mut seed = 200;
    for boundary in boundaries() {
        for (radius, fusion) in [(1, 1), (1, 3), (2, 1)] {
            for dims in [[1, 40], [7, 9], [16, 33], [30, 5]] {
                for halo in [0, 1, radius * fusion] {
                    for steps in [1, 3, 4, 5] {
                        seed += 1;
                        let k = Kernel2D::new(radius, weights(radius, 2, seed));
                        let runner = ConvStencil2D::try_with_fusion(k, fusion)
                            .unwrap()
                            .with_boundary(boundary);
                        let grid: Grid2D = random_grid(&dims, halo, seed);
                        let label = format!(
                            "2D {boundary:?} r={radius} fusion={fusion} dims={dims:?} halo={halo} steps={steps}"
                        );
                        check_case(&label, &runner, &grid, steps);
                    }
                }
            }
        }
    }
}

#[test]
fn window_reference_matches_full_reference_3d() {
    let mut seed = 300;
    for boundary in boundaries() {
        for fusion in [1, 2] {
            for dims in [[3, 4, 20], [6, 8, 9], [2, 11, 3]] {
                for halo in [0, 1, fusion] {
                    for steps in [1, 2, 3] {
                        seed += 1;
                        let k = Kernel3D::new(1, weights(1, 3, seed));
                        let runner = ConvStencil3D::try_with_fusion(k, fusion)
                            .unwrap()
                            .with_boundary(boundary);
                        let grid: Grid3D = random_grid(&dims, halo, seed);
                        let label = format!(
                            "3D {boundary:?} fusion={fusion} dims={dims:?} halo={halo} steps={steps}"
                        );
                        check_case(&label, &runner, &grid, steps);
                    }
                }
            }
        }
    }
}

/// The CUDA-core variants run unfused; their reference schedule differs
/// from the fused one and the cone margin still covers it.
#[test]
fn window_reference_matches_full_reference_unfused_variant() {
    let k = Shape::Heat2D.kernel2d().unwrap();
    for boundary in boundaries() {
        let runner = ConvStencil2D::try_new(k.clone())
            .unwrap()
            .with_variant(VariantConfig::implicit_cuda())
            .with_boundary(boundary);
        let grid: Grid2D = random_grid(&[24, 70], 1, 5);
        check_case(&format!("2D unfused {boundary:?}"), &runner, &grid, 5);
    }
}

/// The sampled tiles of a large 1D job chunk (the runtime's verified
/// workload) come from cones, and still match the full reference.
#[test]
fn sampled_tiles_of_a_large_grid_match_full_reference() {
    let k = Shape::Heat1D.kernel1d().unwrap();
    for boundary in boundaries() {
        let runner = ConvStencil1D::try_new(k.clone())
            .unwrap()
            .with_boundary(boundary);
        let grid: Grid1D = random_grid(&[1 << 14], 3, 9);
        check_case(&format!("1D large {boundary:?}"), &runner, &grid, 3);
    }
}

/// Degraded verified runs return the full reference, bit for bit, whether
/// every launch fails or every output is corrupted, with the default
/// (sampled) config and with a full-grid check. At 40 x 600 the 16
/// default tiles' windows (at most 10 rows of 40 or 600 columns) hold
/// fewer cells than the grid, so the sampled run computes only cones and
/// must compute the full reference when it degrades.
#[test]
fn degraded_result_is_bit_identical_to_run_reference() {
    let k = Shape::Heat2D.kernel2d().unwrap();
    let plans = [
        FaultPlan::quiet(3).with_launch_fail_rate(1.0),
        FaultPlan::quiet(4).with_dmma_flip_rate(1.0),
    ];
    for boundary in boundaries() {
        for plan in plans {
            for cfg in [
                VerifyConfig::default(),
                VerifyConfig {
                    sample_tiles: 0,
                    ..VerifyConfig::default()
                },
            ] {
                let runner = ConvStencil2D::try_new(k.clone())
                    .unwrap()
                    .with_boundary(boundary)
                    .with_fault_plan(plan);
                let grid: Grid2D = random_grid(&[40, 600], 3, 21);
                let (out, report) = runner.try_run_verified_with(&grid, 4, cfg).unwrap();
                assert!(report.degraded, "{boundary:?} {plan:?}");
                assert_eq!(report.retries, cfg.max_retries);
                assert_eq!(report.faults_detected, cfg.max_retries + 1);
                let want = runner.run_reference(&grid, 4);
                assert_eq!(bits(out.padded()), bits(want.padded()));
            }
        }
    }
}
