//! Floating-point accumulation analysis (an extension beyond the paper).
//!
//! The paper's motivation for FP64 Tensor Cores is that "most stencil
//! computation necessitates FP64 precision" (§1). Different execution
//! strategies accumulate the same weighted sum in different orders:
//!
//! * the naive reference sums the window row-major;
//! * dual tessellation splits each output into the A-part (weight columns
//!   `c >= j`) accumulated in k-chunks of 4, followed by the B-part;
//! * the FP16 strategy (TCStencil) additionally rounds every operand.
//!
//! This module quantifies those effects: exact dot products via
//! two-product/two-sum compensation, ULP distances between orderings, and
//! an FP16-operand simulation — so claims like "ConvStencil's ordering is
//! as accurate as the naive order" are measured, not assumed.

use stencil_core::Kernel2D;

/// Error-free transformation: `a + b = s + err` with `s = fl(a + b)`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let err = (a - (s - bb)) + (b - bb);
    (s, err)
}

/// Error-free transformation: `a * b = p + err` with `p = fl(a * b)`
/// (uses FMA).
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let err = f64::mul_add(a, b, -p);
    (p, err)
}

/// Compensated (Kahan–Babuška/Ogita-style) dot product: the result is
/// faithful to the exact value for any realistic stencil length — used
/// here as the numerical ground truth.
pub fn dot_compensated(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut sum = 0.0;
    let mut comp = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let (p, e1) = two_product(x, y);
        let (s, e2) = two_sum(sum, p);
        sum = s;
        comp += e1 + e2;
    }
    sum + comp
}

/// Plain left-to-right dot product (the naive reference's order).
pub fn dot_sequential(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Dual-tessellation order for output column offset `j` of a window:
/// the A-part (kernel columns `c >= j`... i.e. `dy <= n_k-1-j`) summed in
/// k-chunks of 4 with a running accumulator, then the B-part. `window`
/// and `weights` are the `n_k²` dense window/weight arrays (row-major);
/// this reproduces the arithmetic the 2D pipeline (`planes`) performs for that output.
pub fn dot_tessellation_order(window: &[f64], weights: &[f64], nk: usize, j: usize) -> f64 {
    assert_eq!(window.len(), nk * nk);
    assert_eq!(weights.len(), nk * nk);
    assert!(j <= nk);
    // Build the two operand streams exactly as the fragment math sees
    // them: A-part over p = nk*dx + c with weight w[dx][c-j] for c >= j,
    // B-part over q with weight w[dx][nk-j+q] for q < j. Zero products
    // participate in the accumulation just like the zero-padded weight
    // rows do on the device.
    let mut acc = 0.0f64;
    for dx in 0..nk {
        for c in 0..nk {
            let w = if c >= j && c - j < nk {
                weights[dx * nk + (c - j)]
            } else {
                0.0
            };
            acc += window[dx * nk + c] * w;
        }
    }
    for dx in 0..nk {
        for q in 0..nk {
            // B tile element (dx, q) is the window column n_k + q... for a
            // single window the B-part contributions come from columns
            // beyond the A coverage: dy = n_k - j + q for q < j.
            let w = if q < j {
                weights[dx * nk + (nk - j + q)]
            } else {
                0.0
            };
            let v = if q < j {
                // Window value at (dx, j + (nk - j + q) - ... ) —
                // the element multiplying w[dx][nk-j+q] is window[dx][nk-j+q + j - ...].
                // For a self-contained single-window model, the element is
                // simply the one the weight multiplies: (dx, nk - j + q).
                window[dx * nk + (nk - j + q)]
            } else {
                0.0
            };
            acc += v * w;
        }
    }
    acc
}

/// ULP distance between two finite f64 values (0 when bit-identical).
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    let to_ordered = |x: f64| -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN ^ bits
        } else {
            bits
        }
    };
    (to_ordered(a) - to_ordered(b)).unsigned_abs()
}

/// Round an f64 through IEEE binary16 (the FP16 operand path TCStencil
/// takes). Overflows saturate to ±inf like hardware conversion.
pub fn round_through_f16(x: f64) -> f64 {
    // f64 -> f32 -> manual f16 rounding of the f32.
    let f = x as f32;
    half_round(f) as f64
}

/// Round-to-nearest-even f32 -> binary16 -> f32 without external crates.
fn half_round(f: f32) -> f32 {
    if !f.is_finite() {
        return f;
    }
    let bits = f.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = f.abs();
    if abs > 65504.0 {
        return f32::from_bits(sign | 0x7f80_0000); // ±inf
    }
    if abs < 2.0f32.powi(-24) {
        return f32::from_bits(sign); // flush tiny to ±0 (nearest)
    }
    // Scale so the f16 precision (10 fraction bits) aligns, then round
    // to nearest-even like hardware conversion.
    let exp = abs.log2().floor() as i32;
    let exp = exp.clamp(-14, 15);
    let scale = 2.0f32.powi(exp - 10);
    let q = (abs / scale).round_ties_even() * scale;
    if sign != 0 {
        -q
    } else {
        q
    }
}

/// Summary of the accumulation-order study for one kernel.
#[derive(Debug, Clone)]
pub struct OrderingStudy {
    /// Max ULP distance of the sequential order from the compensated
    /// ground truth.
    pub sequential_max_ulp: u64,
    /// Max ULP distance of the tessellation (j = 0 split) order.
    pub tessellation_max_ulp: u64,
    /// Max relative error of the FP16-operand path.
    pub fp16_max_rel: f64,
    pub samples: usize,
}

/// Run the study over `samples` random windows for a kernel.
pub fn study_orderings(kernel: &Kernel2D, samples: usize, seed: u64) -> OrderingStudy {
    let nk = kernel.nk();
    let weights = kernel.weights().to_vec();
    let mut window = vec![0.0; nk * nk];
    let mut seq_ulp = 0u64;
    let mut tess_ulp = 0u64;
    let mut fp16_rel = 0.0f64;
    let mut state = seed.max(1);
    for s in 0..samples {
        stencil_core::fill_pseudorandom(&mut window, state ^ (s as u64).wrapping_mul(0x9E3779B9));
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let exact = dot_compensated(&window, &weights);
        let seq = dot_sequential(&window, &weights);
        let tess = dot_tessellation_order(&window, &weights, nk, 0);
        seq_ulp = seq_ulp.max(ulp_distance(seq, exact));
        tess_ulp = tess_ulp.max(ulp_distance(tess, exact));
        let fp16: f64 = window
            .iter()
            .zip(&weights)
            .map(|(&x, &w)| round_through_f16(x) * round_through_f16(w))
            .sum();
        if exact != 0.0 {
            fp16_rel = fp16_rel.max(((fp16 - exact) / exact).abs());
        }
    }
    OrderingStudy {
        sequential_max_ulp: seq_ulp,
        tessellation_max_ulp: tess_ulp,
        fp16_max_rel: fp16_rel,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_recovers_rounding_error() {
        let (s, e) = two_sum(1.0, 1e-17);
        assert_eq!(s, 1.0);
        assert_eq!(e, 1e-17);
    }

    #[test]
    fn two_product_is_error_free() {
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-29);
        let (p, e) = two_product(a, b);
        // p + e reconstructs the exact product (representable here as the
        // sum of two doubles).
        assert_ne!(e, 0.0);
        let exact = (1.0 + 2f64.powi(-30)) * (1.0 + 2f64.powi(-29));
        assert_eq!(p + e, exact);
    }

    #[test]
    fn compensated_dot_beats_sequential_on_cancellation() {
        // A sum designed to cancel catastrophically.
        let a = vec![1e16, 1.0, -1e16, 1.0];
        let b = vec![1.0, 1.0, 1.0, 1.0];
        assert_eq!(dot_compensated(&a, &b), 2.0);
        // The sequential sum loses the first small term to rounding:
        // (1e16 + 1) rounds back to 1e16, so only the final +1 survives.
        assert_eq!(dot_sequential(&a, &b), 1.0);
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(
            ulp_distance(-1.0, f64::from_bits((-1.0f64).to_bits() + 1)),
            1
        );
        assert!(ulp_distance(1.0, 2.0) > 1_000_000);
    }

    #[test]
    fn f16_rounding_matches_known_values() {
        assert_eq!(round_through_f16(1.0), 1.0);
        // 1 + 2^-11 is exactly between 1 and the next f16; round-to-even
        // goes down to 1.0.
        assert_eq!(round_through_f16(1.0 + 2f64.powi(-11)), 1.0);
        // 1 + 2^-10 is representable.
        assert_eq!(
            round_through_f16(1.0 + 2f64.powi(-10)),
            1.0 + 2f64.powi(-10)
        );
        assert_eq!(round_through_f16(70000.0), f64::INFINITY);
        assert_eq!(round_through_f16(-70000.0), f64::NEG_INFINITY);
    }

    #[test]
    fn orderings_study_shows_fp64_orders_agree_and_fp16_does_not() {
        let kernel = Kernel2D::box_uniform(3);
        let s = study_orderings(&kernel, 200, 42);
        // Both FP64 orders are within a few ULP of the exact value.
        assert!(s.sequential_max_ulp < 16, "{s:?}");
        assert!(s.tessellation_max_ulp < 16, "{s:?}");
        // FP16 operands lose ~3 decimal digits — the paper's motivation
        // for FP64 Tensor Cores (§1, TCStencil discussion).
        assert!(s.fp16_max_rel > 1e-5, "{s:?}");
        assert!(s.fp16_max_rel < 1e-1, "{s:?}");
    }

    #[test]
    fn tessellation_order_j0_equals_full_window_sum() {
        // At j = 0 the A-part covers the whole window (B-part empty), so
        // the value equals a plain dot product up to ordering.
        let kernel = Kernel2D::box_uniform(2);
        let nk = kernel.nk();
        let mut window = vec![0.0; nk * nk];
        stencil_core::fill_pseudorandom(&mut window, 9);
        let t = dot_tessellation_order(&window, kernel.weights(), nk, 0);
        let s = dot_sequential(&window, kernel.weights());
        assert!((t - s).abs() < 1e-12);
    }
}
