//! Tensor-core fragments and the MMA primitive.
//!
//! The FP64 path models the A100 `mma.sync.aligned.m8n8k4.f64` shape the
//! paper builds on: `D[8x8] = A[8x4] * B[4x8] + C[8x8]`. The math is real
//! f64 arithmetic with the same per-element dot-product accumulation order
//! as the hardware (k ascending), so algorithm outputs can be verified
//! bit-for-bit against a reference that uses the same ordering, or within
//! tight tolerance against any other ordering.
//!
//! One kernel body does that arithmetic for a single [`dmma`] and for the
//! chains of [`crate::device::BlockCtx::mma_chains`], compiled for the
//! widest vectors the running CPU has (AVX-512F, AVX, or the baseline
//! build) and picked at run time; none fuses a multiply and an add, so
//! the choice does not change result bits.
//!
//! A 16x16x16 "HMMA" shape is also provided for the TCStencil analog.
//! Its arithmetic is carried in f64 (we do not emulate half-precision
//! rounding) because the paper compares TCStencil by dividing its FP16
//! throughput by 4, not by comparing numerics (§5.1).

/// `A` operand of an FP64 MMA: 8 rows x 4 columns, row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragA {
    pub data: [f64; 32],
}

/// `B` operand of an FP64 MMA: 4 rows x 8 columns, row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragB {
    pub data: [f64; 32],
}

/// Accumulator / result of an FP64 MMA: 8 rows x 8 columns, row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragAcc {
    pub data: [f64; 64],
}

impl FragA {
    pub const ROWS: usize = 8;
    pub const COLS: usize = 4;

    /// Zero-filled fragment.
    pub fn zero() -> Self {
        Self { data: [0.0; 32] }
    }

    /// Load from a row-major buffer: element (r, c) comes from
    /// `src[base + r * row_stride + c]`. Out-of-range reads are an error in
    /// the caller's addressing, so this panics in debug via indexing.
    pub fn load(src: &[f64], base: usize, row_stride: usize) -> Self {
        let mut data = [0.0; 32];
        for r in 0..Self::ROWS {
            let row = base + r * row_stride;
            data[r * Self::COLS..(r + 1) * Self::COLS].copy_from_slice(&src[row..row + Self::COLS]);
        }
        Self { data }
    }

    /// The flat element addresses the hardware would issue for this load;
    /// used by the shared-memory model to account bank conflicts.
    pub fn load_addresses(base: usize, row_stride: usize) -> [usize; 32] {
        let mut addrs = [0usize; 32];
        for r in 0..Self::ROWS {
            for c in 0..Self::COLS {
                addrs[r * Self::COLS + c] = base + r * row_stride + c;
            }
        }
        addrs
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * Self::COLS + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * Self::COLS + c] = v;
    }
}

impl FragB {
    pub const ROWS: usize = 4;
    pub const COLS: usize = 8;

    pub fn zero() -> Self {
        Self { data: [0.0; 32] }
    }

    /// Load from a row-major buffer with the given row stride.
    pub fn load(src: &[f64], base: usize, row_stride: usize) -> Self {
        let mut data = [0.0; 32];
        for r in 0..Self::ROWS {
            let row = base + r * row_stride;
            data[r * Self::COLS..(r + 1) * Self::COLS].copy_from_slice(&src[row..row + Self::COLS]);
        }
        Self { data }
    }

    /// Flat element addresses for a `B` fragment load.
    pub fn load_addresses(base: usize, row_stride: usize) -> [usize; 32] {
        let mut addrs = [0usize; 32];
        for r in 0..Self::ROWS {
            for c in 0..Self::COLS {
                addrs[r * Self::COLS + c] = base + r * row_stride + c;
            }
        }
        addrs
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * Self::COLS + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * Self::COLS + c] = v;
    }
}

impl FragAcc {
    pub const ROWS: usize = 8;
    pub const COLS: usize = 8;

    pub fn zero() -> Self {
        Self { data: [0.0; 64] }
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * Self::COLS + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * Self::COLS + c] = v;
    }

    /// Row `r` as a slice (used for coalesced result write-back).
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * Self::COLS..(r + 1) * Self::COLS]
    }
}

impl Default for FragA {
    fn default() -> Self {
        Self::zero()
    }
}
impl Default for FragB {
    fn default() -> Self {
        Self::zero()
    }
}
impl Default for FragAcc {
    fn default() -> Self {
        Self::zero()
    }
}

/// The FP64 MMA primitive: `acc += a * b`, with k accumulated in ascending
/// order exactly once per output element. This is the arithmetic performed
/// by one `m8n8k4` DMMA instruction; callers must separately account the
/// instruction via [`crate::counters::Counters::dmma_ops`] (the
/// [`crate::device::BlockCtx::dmma`] wrapper does both).
pub fn dmma(a: &FragA, b: &FragB, acc: &mut FragAcc) {
    mma_rows(&a.data, FragA::COLS, &[(0, std::slice::from_ref(b))], acc);
}

/// A chain of MMAs whose `A` fragments sit side by side in `a`: chain
/// `(a_base, b)` is `A * [b_0; b_1; ...]`, where row r of the chained `A`
/// is `a[a_base + r * row_stride..][..4 * b.len()]`.
pub(crate) type Chain<'a> = (usize, &'a [FragB]);

/// `acc += ` every chain's product, chains in order. Each element adds
/// its products one at a time in ascending k with no fused multiply-add,
/// so the chains give the same bits as their fragments' back-to-back
/// [`dmma`] calls. The kernel body is picked by what the running CPU
/// supports: 8-row blocks of 512-bit vectors with AVX-512F, 4-row blocks
/// of 256-bit vectors with AVX, else the baseline build's 4-row blocks.
/// The vector width only changes how many independent lanes one
/// instruction adds; each lane's multiply and add round exactly as in the
/// baseline, so every non-NaN result has the same bits.
///
/// Kept out of line so that every caller runs the same machine code:
/// Rust leaves the sign and payload of a NaN result unspecified, and two
/// inlined copies may order an add's operands differently.
#[inline(never)]
pub(crate) fn mma_rows(a: &[f64], row_stride: usize, chains: &[Chain], acc: &mut FragAcc) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the running CPU supports AVX-512F, checked just above.
            return unsafe { mma_rows_avx512(a, row_stride, chains, acc) };
        }
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: the running CPU supports AVX, checked just above.
            return unsafe { mma_rows_avx(a, row_stride, chains, acc) };
        }
    }
    mma_rows_body::<4>(a, row_stride, chains, acc);
}

/// [`mma_rows`] in 8-row blocks of 512-bit vectors: the whole 8x8
/// accumulator is 8 registers for the length of every chain. AVX-512F
/// has fused multiply-adds, but nothing here asks for one (Rust never
/// contracts a multiply and an add), which a test checks in the machine
/// code.
///
/// # Safety
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mma_rows_avx512(a: &[f64], row_stride: usize, chains: &[Chain], acc: &mut FragAcc) {
    mma_rows_body::<8>(a, row_stride, chains, acc);
}

/// [`mma_rows`] in 4-row blocks of 256-bit vectors. AVX implies no fused
/// multiply-add.
///
/// # Safety
/// The running CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn mma_rows_avx(a: &[f64], row_stride: usize, chains: &[Chain], acc: &mut FragAcc) {
    mma_rows_body::<4>(a, row_stride, chains, acc);
}

/// The one kernel body: `ROWS` output rows of 8 f64 advance together per
/// k, so their adds are independent and do not wait on each other, and
/// looping k outside the columns keeps the rows in registers and lets the
/// column loop vectorise. `ROWS` must divide 8.
#[inline(always)]
fn mma_rows_body<const ROWS: usize>(
    a: &[f64],
    row_stride: usize,
    chains: &[Chain],
    acc: &mut FragAcc,
) {
    const C: usize = FragAcc::COLS;
    for (blk, acc_rows) in acc.data.chunks_exact_mut(ROWS * C).enumerate() {
        let mut rows = [[0.0f64; C]; ROWS];
        for (row, acc_row) in rows.iter_mut().zip(acc_rows.chunks_exact(C)) {
            row.copy_from_slice(acc_row);
        }
        for &(a_base, b) in chains {
            let width = FragA::COLS * b.len();
            let mut a_rows: [&[f64]; ROWS] = [&[]; ROWS];
            for (i, a_row) in a_rows.iter_mut().enumerate() {
                let start = a_base + (blk * ROWS + i) * row_stride;
                *a_row = &a[start..start + width];
            }
            for (f, frag) in b.iter().enumerate() {
                for (kk, b_row) in frag.data.chunks_exact(FragB::COLS).enumerate() {
                    let k = FragA::COLS * f + kk;
                    for (row, a_row) in rows.iter_mut().zip(&a_rows) {
                        let x = a_row[k];
                        for (sum, &y) in row.iter_mut().zip(b_row) {
                            *sum += x * y;
                        }
                    }
                }
            }
        }
        for (row, acc_row) in rows.iter().zip(acc_rows.chunks_exact_mut(C)) {
            acc_row.copy_from_slice(row);
        }
    }
}

/// 16x16 tile used by the FP16-class MMA (TCStencil analog).
#[derive(Debug, Clone)]
pub struct Tile16 {
    pub data: Box<[f64; 256]>,
}

impl Tile16 {
    pub const N: usize = 16;

    pub fn zero() -> Self {
        Self {
            data: Box::new([0.0; 256]),
        }
    }

    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut t = Self::zero();
        for r in 0..16 {
            for c in 0..16 {
                t.set(r, c, f(r, c));
            }
        }
        t
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * 16 + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * 16 + c] = v;
    }
}

impl Default for Tile16 {
    fn default() -> Self {
        Self::zero()
    }
}

/// The 16x16x16 MMA used by the TCStencil analog: `acc += a * b`.
/// Arithmetic in f64 (see module docs); count via `hmma_ops`.
pub fn hmma(a: &Tile16, b: &Tile16, acc: &mut Tile16) {
    for r in 0..16 {
        for c in 0..16 {
            let mut sum = acc.get(r, c);
            for k in 0..16 {
                sum += a.get(r, k) * b.get(k, c);
            }
            acc.set(r, c, sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmma_identity_left() {
        // A = I (8x4 slice of identity) times B copies B's rows into acc.
        let mut a = FragA::zero();
        for i in 0..4 {
            a.set(i, i, 1.0);
        }
        let mut b = FragB::zero();
        for r in 0..4 {
            for c in 0..8 {
                b.set(r, c, (r * 8 + c) as f64);
            }
        }
        let mut acc = FragAcc::zero();
        dmma(&a, &b, &mut acc);
        for r in 0..4 {
            for c in 0..8 {
                assert_eq!(acc.get(r, c), b.get(r, c));
            }
        }
        for r in 4..8 {
            for c in 0..8 {
                assert_eq!(acc.get(r, c), 0.0);
            }
        }
    }

    #[test]
    fn dmma_accumulates_into_c() {
        let mut a = FragA::zero();
        a.set(0, 0, 2.0);
        let mut b = FragB::zero();
        b.set(0, 0, 3.0);
        let mut acc = FragAcc::zero();
        acc.set(0, 0, 10.0);
        dmma(&a, &b, &mut acc);
        assert_eq!(acc.get(0, 0), 16.0);
    }

    /// Bit for bit the naive product that adds to the accumulator in
    /// ascending k (inputs whose sums round, so the order shows).
    #[test]
    fn dmma_matches_naive_matmul() {
        let a = FragA {
            data: std::array::from_fn(|i| (i as f64 * 0.7).sin()),
        };
        let b = FragB {
            data: std::array::from_fn(|i| (i as f64 * 1.3).cos() * 3.0),
        };
        let start = FragAcc {
            data: std::array::from_fn(|i| (i as f64 * 0.11).tan()),
        };
        let mut acc = start;
        dmma(&a, &b, &mut acc);
        for r in 0..8 {
            for c in 0..8 {
                let mut expect = start.get(r, c);
                for k in 0..4 {
                    expect += a.get(r, k) * b.get(k, c);
                }
                assert_eq!(acc.get(r, c).to_bits(), expect.to_bits());
            }
        }
    }

    /// Chain inputs for the kernel-body tests: `A` rows of 70 values and
    /// 16 `B` fragments, about one value in eleven a signed zero, an
    /// infinity or NaN.
    fn kernel_inputs() -> (Vec<f64>, Vec<FragB>, FragAcc) {
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let value = |i: usize| match i % 11 {
            0 => specials[(i / 11) % specials.len()],
            _ => (i as f64 * 0.37).sin() * 5.0,
        };
        let a = (0..8 * 140).map(value).collect();
        let b = (0..16)
            .map(|k| FragB {
                data: std::array::from_fn(|i| value(1000 + 32 * k + i)),
            })
            .collect();
        let acc = FragAcc {
            data: std::array::from_fn(|i| value(5000 + i)),
        };
        (a, b, acc)
    }

    /// Runs `kernel` and the baseline body on chains of every length
    /// 0-16, alone and as two or three chains into one accumulator, and
    /// asserts equal bits: infinities and signed zeros included, and NaN
    /// exactly where the baseline has one (a NaN's sign and payload are
    /// unspecified in Rust).
    fn assert_matches_baseline(kernel: fn(&[f64], usize, &[Chain], &mut FragAcc), name: &str) {
        let (a, b, start) = kernel_inputs();
        // Every NaN reads as the canonical one, which no other value has.
        let bits = |acc: &FragAcc| {
            acc.data
                .map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
        };
        for n in 0..=16 {
            let splits: [&[Chain]; 3] = [
                &[(3, &b[..n])],
                &[(3, &b[..n]), (70, &b[16 - n..])],
                &[(1, &b[..n / 2]), (9, &b[n / 2..n]), (75, &b[..16 - n])],
            ];
            for chains in splits {
                let (mut got, mut want) = (start, start);
                kernel(&a, 137, chains, &mut got);
                mma_rows_body::<4>(&a, 137, chains, &mut want);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{name}, {} chains, n = {n}",
                    chains.len()
                );
            }
        }
    }

    /// The run-time selected kernel gives the bits of the baseline build.
    #[test]
    fn selected_mma_kernel_matches_baseline_kernel() {
        assert_matches_baseline(mma_rows, "selected kernel");
    }

    /// Each compiled kernel body against the baseline one; a body the
    /// running CPU cannot execute is skipped with a note.
    #[test]
    fn every_mma_kernel_body_matches_baseline_kernel() {
        assert_matches_baseline(mma_rows_body::<8>, "8-row baseline build");
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the running CPU supports AVX-512F.
                let avx512 = |a: &[f64], s, c: &[Chain], acc: &mut FragAcc| unsafe {
                    mma_rows_avx512(a, s, c, acc)
                };
                assert_matches_baseline(avx512, "8-row AVX-512F");
            } else {
                println!("skipped the 8-row AVX-512F kernel: this CPU lacks AVX-512F");
            }
            if std::arch::is_x86_feature_detected!("avx") {
                // SAFETY: the running CPU supports AVX.
                let avx = |a: &[f64], s, c: &[Chain], acc: &mut FragAcc| unsafe {
                    mma_rows_avx(a, s, c, acc)
                };
                assert_matches_baseline(avx, "4-row AVX");
            } else {
                println!("skipped the 4-row AVX kernel: this CPU lacks AVX");
            }
        }
    }

    /// The AVX-512F kernel multiplies and adds separately: its machine
    /// code holds no fused multiply-add, which would round once instead
    /// of twice and change result bits. Disassembles this test binary
    /// with `objdump`; skipped with a note where it is not installed.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_kernel_has_no_fused_multiply_add() {
        let exe = std::env::current_exe().expect("test binary path");
        let out = match std::process::Command::new("objdump")
            .args(["-d", "--no-show-raw-insn"])
            .arg(&exe)
            .output()
        {
            Ok(out) if out.status.success() => out,
            _ => {
                println!("skipped: objdump is not available to disassemble {exe:?}");
                return;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut found = false;
        let mut inside = false;
        for line in text.lines() {
            if line.ends_with(">:") {
                inside = line.contains("mma_rows_avx512");
                found |= inside;
            } else if inside {
                assert!(
                    !["vfmadd", "vfmsub", "vfnmadd", "vfnmsub"]
                        .iter()
                        .any(|op| line.contains(op)),
                    "fused multiply-add in mma_rows_avx512: {line}"
                );
            }
        }
        assert!(found, "no mma_rows_avx512 symbol in {exe:?}");
    }

    #[test]
    fn frag_load_respects_stride() {
        let src: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let a = FragA::load(&src, 3, 10);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 3), 6.0);
        assert_eq!(a.get(7, 0), 73.0);
        let b = FragB::load(&src, 2, 11);
        assert_eq!(b.get(0, 0), 2.0);
        assert_eq!(b.get(3, 7), 2.0 + 3.0 * 11.0 + 7.0);
    }

    #[test]
    fn load_addresses_match_load() {
        let src: Vec<f64> = (0..200).map(|i| (i as f64).sin()).collect();
        let a = FragA::load(&src, 5, 17);
        let addrs = FragA::load_addresses(5, 17);
        for (i, &addr) in addrs.iter().enumerate() {
            assert_eq!(a.data[i], src[addr]);
        }
    }

    #[test]
    fn hmma_matches_naive() {
        let a = Tile16::from_fn(|r, c| (r + 2 * c) as f64 * 0.1);
        let b = Tile16::from_fn(|r, c| (3 * r + c) as f64 * 0.01);
        let mut acc = Tile16::zero();
        hmma(&a, &b, &mut acc);
        for r in 0..16 {
            for c in 0..16 {
                let mut expect = 0.0;
                for k in 0..16 {
                    expect += a.get(r, k) * b.get(k, c);
                }
                assert!((acc.get(r, c) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn acc_row_slice() {
        let mut acc = FragAcc::zero();
        for c in 0..8 {
            acc.set(2, c, c as f64);
        }
        assert_eq!(acc.row(2), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }
}
