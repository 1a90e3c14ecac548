//! Property-based tests (proptest) on the core invariants:
//! stencil2row mapping structure, weight-matrix/tessellation algebra,
//! temporal fusion, padding conflict-freedom, and the Eq. 13 MMA count.

use convstencil_repro::convstencil::exec2d::{try_run_2d_applications_bc, Exec2D};
use convstencil_repro::convstencil::model;
use convstencil_repro::convstencil::stencil2row::{build_2d, map_a, map_b, unmap_a, unmap_b};
use convstencil_repro::convstencil::tessellation::host_convstencil_2d;
use convstencil_repro::convstencil::{
    ConvStencil2D, ConvStencilError, Plan2D, VariantConfig, WeightMatrices,
};
use convstencil_repro::stencil_core::{
    fill_pseudorandom, fuse2d, reference, Boundary, Grid2D, Kernel2D,
};
use convstencil_repro::tcu_sim::{conflict_free_pad, stride_is_conflict_free, Device};
use proptest::prelude::*;

fn arb_kernel(radius: usize) -> impl Strategy<Value = Kernel2D> {
    let nk = 2 * radius + 1;
    proptest::collection::vec(-1.0f64..1.0, nk * nk).prop_map(move |w| Kernel2D::new(radius, w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. 5/6: the two maps are injective, inverted by their unmaps, and
    /// together cover every input element.
    #[test]
    fn stencil2row_maps_partition_the_input(
        nk in prop::sample::select(vec![3usize, 5, 7]),
        x in 0usize..64,
        y in 0usize..512,
    ) {
        let a = map_a(x, y, nk);
        let b = map_b(x, y, nk);
        // Coverage: beyond the first band, at least one matrix holds it.
        if y >= nk {
            prop_assert!(a.is_some() || b.is_some());
        }
        if let Some((r, c)) = a {
            prop_assert_eq!(unmap_a(r, c, nk), (x, y));
        }
        if let Some((r, c)) = b {
            prop_assert_eq!(unmap_b(r, c, nk), (x, y));
        }
    }

    /// Distinct inputs map to distinct stencil2row cells (injectivity).
    #[test]
    fn stencil2row_map_is_injective(
        nk in prop::sample::select(vec![3usize, 5, 7]),
        y1 in 0usize..256,
        y2 in 0usize..256,
        x in 0usize..16,
    ) {
        prop_assume!(y1 != y2);
        if let (Some(p), Some(q)) = (map_a(x, y1, nk), map_a(x, y2, nk)) {
            prop_assert_ne!(p, q);
        }
        if let (Some(p), Some(q)) = (map_b(x, y1, nk), map_b(x, y2, nk)) {
            prop_assert_ne!(p, q);
        }
    }

    /// The weight matrices place every kernel weight exactly once per
    /// output column j (0..=n_k) across A and B.
    #[test]
    fn weight_columns_cover_kernel_exactly_once(kernel in arb_kernel(2)) {
        let w = WeightMatrices::from_kernel2d(&kernel);
        let total: f64 = kernel.weights().iter().sum();
        for j in 0..=kernel.nk() {
            let col: f64 = (0..w.krows).map(|p| w.a_at(p, j) + w.b_at(p, j)).sum();
            prop_assert!((col - total).abs() < 1e-9);
        }
    }

    /// The host dual-tessellation pipeline equals the naive valid
    /// convolution for arbitrary kernels and awkward sizes.
    #[test]
    fn tessellation_matches_naive_conv(
        kernel in arb_kernel(1),
        prows in 4usize..20,
        pcols in 8usize..60,
        seed in 0u64..1000,
    ) {
        let nk = kernel.nk();
        prop_assume!(prows >= nk && pcols >= nk);
        let mut padded = vec![0.0; prows * pcols];
        fill_pseudorandom(&mut padded, seed);
        let (a, b) = build_2d(&padded, prows, pcols, nk);
        let w = WeightMatrices::from_kernel2d(&kernel);
        let got = host_convstencil_2d(&a, &b, &w, prows, pcols);
        // Naive valid conv.
        let (orows, ocols) = (prows - nk + 1, pcols - nk + 1);
        for x in 0..orows {
            for y in 0..ocols {
                let mut want = 0.0;
                for kx in 0..nk {
                    for ky in 0..nk {
                        want += padded[(x + kx) * pcols + y + ky] * kernel.weight_tl(kx, ky);
                    }
                }
                let gotv = got[x * ocols + y];
                prop_assert!(
                    (gotv - want).abs() < 1e-9,
                    "({}, {}): {} vs {}", x, y, gotv, want
                );
            }
        }
    }

    /// Fusion: composing t applications equals the fused kernel applied
    /// once (valid-mode), for random kernels.
    #[test]
    fn fusion_is_composition(kernel in arb_kernel(1), t in 1usize..4, seed in 0u64..100) {
        let mut g = Grid2D::new(10, 12, t);
        g.fill_random(seed);
        let stepped = reference::run2d_valid(&g, &kernel, t);
        let fused = reference::run2d_valid(&g, &fuse2d(&kernel, t), 1);
        for x in 0..10 {
            for y in 0..12 {
                prop_assert!((stepped.get(x, y) - fused.get(x, y)).abs() < 1e-9);
            }
        }
    }

    /// conflict_free_pad always yields a conflict-free stride with pad < 16.
    #[test]
    fn padding_always_removes_conflicts(row_len in 1usize..600) {
        let pad = conflict_free_pad(row_len, 32);
        prop_assert!(pad < 16);
        prop_assert!(stride_is_conflict_free(row_len + pad, 32));
    }

    /// Eq. 13 holds on the simulator for any divisible geometry.
    #[test]
    fn mma_count_matches_eq13(
        mb in 1usize..4,
        nb in 1usize..4,
        radius in prop::sample::select(vec![1usize, 2, 3]),
    ) {
        let kernel = Kernel2D::box_uniform(radius);
        let nk = kernel.nk();
        let m = 32 * mb;
        let n = 8 * (nk + 1) * nb;
        let exec = Exec2D::try_new(&kernel, m, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let grid = Grid2D::new(m, n, radius);
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        prop_assert_eq!(dev.counters.dmma_ops, model::convstencil_mma_count(m, n, nk));
    }

    /// Error path: any even or oversized kernel edge is rejected with the
    /// matching typed error, never a panic.
    #[test]
    fn bad_nk_yields_unsupported_nk(
        nk in prop::sample::select(vec![1usize, 2, 4, 6, 9, 11, 15]),
    ) {
        let err = Plan2D::try_new_2d(32, 32, nk, VariantConfig::conv_stencil()).unwrap_err();
        prop_assert_eq!(err, ConvStencilError::UnsupportedNk { nk });
    }

    /// Error path: a grid whose halo is thinner than the kernel radius is
    /// rejected with `HaloTooSmall` carrying both numbers.
    #[test]
    fn thin_halo_yields_halo_too_small(
        radius in prop::sample::select(vec![2usize, 3]),
        halo in 0usize..2,
    ) {
        prop_assume!(halo < radius);
        let plan = Plan2D::try_new_2d(16, 16, 2 * radius + 1, VariantConfig::conv_stencil())
            .unwrap();
        let grid = Grid2D::new(16, 16, halo);
        let err = plan.try_build_ext(&grid).unwrap_err();
        prop_assert_eq!(err, ConvStencilError::HaloTooSmall { halo, radius });
    }

    /// Error path: zero-sized grids are rejected by the high-level API
    /// with `ZeroSizedGrid` listing the offending dims.
    #[test]
    fn zero_sized_grid_yields_typed_error(
        m in 0usize..2,
        n in 0usize..2,
        seed in 0u64..10,
    ) {
        prop_assume!(m == 0 || n == 0);
        let kernel = Kernel2D::box_uniform(1);
        let mut grid = Grid2D::new(m, n, 1);
        grid.fill_random(seed);
        let cs = ConvStencil2D::try_new(kernel).unwrap();
        let err = cs.try_run(&grid, 1).unwrap_err();
        prop_assert_eq!(err, ConvStencilError::ZeroSizedGrid { dims: vec![m, n] });
    }

    /// The full simulated pipeline matches the reference for random
    /// kernels (radius 1, one application).
    #[test]
    fn simulated_pipeline_matches_reference(kernel in arb_kernel(1), seed in 0u64..50) {
        let (m, n) = (40, 72);
        let mut grid = Grid2D::new(m, n, 1);
        grid.fill_random(seed);
        let exec = Exec2D::try_new(&kernel, m, n, VariantConfig::conv_stencil()).unwrap();
        let mut dev = Device::a100();
        let ext0 = exec.plan.try_build_ext(&grid).unwrap();
        let ext = try_run_2d_applications_bc(&mut dev, &exec, &ext0, 1, Boundary::Dirichlet).unwrap();
        let mut got = Grid2D::new(m, n, 1);
        exec.plan.extract_into(&ext, &mut got);
        let want = reference::run2d(&grid, &kernel, 1);
        for (a, b) in got.interior().iter().zip(want.interior()) {
            prop_assert!((a - b).abs() / a.abs().max(1.0) < 1e-9);
        }
    }
}

#[test]
fn memory_saving_is_monotone_in_kernel_size() {
    // Larger kernels save more memory vs im2row (Eq. 11).
    let mut last = 0.0;
    for shape in convstencil_repro::stencil_core::Shape::table3() {
        let saving = model::memory_saving_pct(shape);
        assert!((70.0 - 1e-9..=96.5).contains(&saving));
        let _ = last;
        last = saving;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Static verifier soundness: every plan the planner emits — any
    /// radius, grid shape, and breakdown variant — passes verification.
    #[test]
    fn planner_output_always_passes_static_verifier(
        radius in prop::sample::select(vec![1usize, 2, 3]),
        m in 8usize..80,
        n in 16usize..160,
        vidx in 0usize..5,
        kernel_seed in 0u64..1000,
    ) {
        let nk = 2 * radius + 1;
        let w: Vec<f64> = (0..nk * nk)
            .map(|i| ((kernel_seed + i as u64) % 13) as f64 * 0.05 - 0.3)
            .collect();
        let kernel = Kernel2D::new(radius, w);
        let variant = VariantConfig::breakdown()[vidx].1;
        let exec = Exec2D::try_new(&kernel, m, n, variant).unwrap();
        prop_assert!(exec.verify().is_ok());
    }

    /// Static verifier completeness: *any* mutation of *any* lookup-table
    /// entry is rejected — the LUT is fully pinned by the Eq. 5/6 maps
    /// plus the dirty-slot assignment.
    #[test]
    fn any_lut_mutation_is_always_rejected(
        entry_seed in 0u64..1_000_000_000,
        delta in 1u32..2_000_000_000,
        side in 0usize..2,
        vidx in 0usize..5,
    ) {
        let variant = VariantConfig::breakdown()[vidx].1;
        let kernel = Kernel2D::box_uniform(1);
        let mut exec = Exec2D::try_new(&kernel, 40, 72, variant).unwrap();
        let p = &exec.plan;
        let tile_rows = p.block_rows + p.nk - 1;
        let span_aligned = p.span_aligned;
        let t = (entry_seed as usize) % tile_rows;
        let i = (entry_seed >> 16) as usize % span_aligned;
        let mut e = exec.lut().get(t, i);
        e[side] = e[side].wrapping_add(delta);
        exec.lut_mut().set(t, i, e);
        prop_assert!(exec.verify().is_err());
    }
}
