//! Banked shared memory with bank-conflict accounting.
//!
//! A100 shared memory has 32 banks of 4 bytes. One f64 element therefore
//! spans two adjacent banks, and a warp-wide FP64 access (32 lanes) touches
//! 64 banks' worth of data, so the hardware splits it into **two 16-lane
//! phases**; the paper (§3.4, Fig. 5) consequently states that "the unit to
//! check for bank conflicts should be a 4x4 fragment" — i.e. 16 f64 lanes.
//!
//! This module reproduces that model exactly: requests are accounted in
//! 16-lane phases, each lane covering two consecutive 32-bit banks. The
//! conflict degree of a phase is the maximum number of *distinct* 32-bit
//! words mapped to any one bank (identical addresses broadcast and do not
//! conflict); `degree - 1` replays are charged per phase.

use crate::counters::Counters;

/// Lanes per conflict-check phase for f64 traffic (see module docs).
pub const F64_PHASE_LANES: usize = 16;

/// Largest bank count served by the allocation-free conflict-degree fast
/// path (every real configuration: A100 has 32 banks).
const MAX_FAST_BANKS: usize = 64;

/// Byte-addressed banked shared memory holding f64 elements.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    data: Vec<f64>,
    banks: usize,
}

impl SharedMemory {
    /// Allocate `len` f64 elements of shared memory with `banks` 4-byte
    /// banks (32 on A100). Contents start zeroed for reproducibility, but
    /// algorithms must not rely on that (real shared memory is garbage);
    /// the dirty-bits-padding tests assert padding is never read.
    pub fn new(len: usize, banks: usize) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        Self {
            data: vec![0.0; len],
            banks,
        }
    }

    /// [`SharedMemory::new`] over a recycled backing vector (the launch
    /// scratch-pool path). The vector is cleared, resized, and re-zeroed,
    /// so a recycled shared memory is bit-identical to a fresh one — only
    /// the allocation is saved.
    pub fn recycle(mut data: Vec<f64>, len: usize, banks: usize) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        data.clear();
        data.resize(len, 0.0);
        Self { data, banks }
    }

    /// Surrender the backing vector (capacity preserved) for pooling.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Capacity in f64 elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Direct read access (no event accounting — simulation plumbing only).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Direct write access (no event accounting — simulation plumbing only).
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Conflict degree of one phase of f64 element addresses: the maximum
    /// number of distinct 32-bit words falling into a single bank.
    /// Returns 1 for a conflict-free (or empty) phase.
    ///
    /// Each f64 at element address `a` occupies 32-bit words `2a` and
    /// `2a + 1`; word `w` lives in bank `w % banks`.
    pub fn phase_conflict_degree(&self, phase: &[usize]) -> u32 {
        conflict_degree(phase, self.banks)
    }

    /// Warp-level load: reads `addrs` (f64 element indices) into `out`,
    /// charging requests/bytes/conflicts to `counters`.
    pub fn load(&self, counters: &mut Counters, addrs: &[usize], out: &mut [f64]) {
        assert_eq!(addrs.len(), out.len());
        let (requests, replays) = access_charge(addrs, self.banks);
        counters.shared_read_requests += requests;
        counters.shared_read_conflicts += replays;
        counters.shared_read_bytes += 8 * addrs.len() as u64;
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.data[a];
        }
    }

    /// Warp-level store: writes `vals` to `addrs`, charging
    /// requests/bytes/conflicts to `counters`.
    ///
    /// Duplicate addresses within one store are allowed: on hardware one
    /// lane wins arbitrarily and no replay is charged (same-address
    /// traffic coalesces); here the highest lane wins deterministically.
    /// ConvStencil's dirty-bits padding relies on this — every dropped
    /// element of a warp dumps into the same padding slot.
    pub fn store(&mut self, counters: &mut Counters, addrs: &[usize], vals: &[f64]) {
        assert_eq!(addrs.len(), vals.len());
        let (requests, replays) = access_charge(addrs, self.banks);
        counters.shared_write_requests += requests;
        counters.shared_write_conflicts += replays;
        counters.shared_write_bytes += 8 * addrs.len() as u64;
        for (&a, &v) in addrs.iter().zip(vals) {
            self.data[a] = v;
        }
    }
}

/// [`SharedMemory::phase_conflict_degree`] on `banks` 4-byte banks.
fn conflict_degree(phase: &[usize], banks: usize) -> u32 {
    if phase.is_empty() {
        return 1;
    }
    // Distinct-address filter: broadcasts don't conflict. Lane counts
    // are tiny (<=16) so a linear scan beats hashing. Phases and bank
    // counts fit fixed arrays on real configurations, keeping this
    // hot path allocation-free; oversized inputs take a general path.
    if phase.len() <= F64_PHASE_LANES && banks <= MAX_FAST_BANKS {
        let mut distinct = [0usize; F64_PHASE_LANES];
        let mut nd = 0usize;
        for &a in phase {
            if !distinct[..nd].contains(&a) {
                distinct[nd] = a;
                nd += 1;
            }
        }
        let mut per_bank = [0u32; MAX_FAST_BANKS];
        for &a in &distinct[..nd] {
            for w in [2 * a, 2 * a + 1] {
                per_bank[w % banks] += 1;
            }
        }
        return per_bank[..banks].iter().copied().max().unwrap_or(1).max(1);
    }
    let mut distinct: Vec<usize> = Vec::with_capacity(phase.len());
    for &a in phase {
        if !distinct.contains(&a) {
            distinct.push(a);
        }
    }
    let mut per_bank = vec![0u32; banks];
    for &a in &distinct {
        for w in [2 * a, 2 * a + 1] {
            per_bank[w % banks] += 1;
        }
    }
    per_bank.iter().copied().max().unwrap_or(1).max(1)
}

/// `(requests, replays)` one warp-level f64 access to `addrs` costs on
/// `banks` banks: one request per 16-lane phase, and `degree - 1` replays
/// per phase. [`SharedMemory::load`] and [`SharedMemory::store`] charge
/// exactly this; kernels with a fixed address pattern can precompute it.
pub fn access_charge(addrs: &[usize], banks: usize) -> (u64, u64) {
    let mut requests = 0u64;
    let mut replays = 0u64;
    for phase in addrs.chunks(F64_PHASE_LANES) {
        requests += 1;
        replays += (conflict_degree(phase, banks) - 1) as u64;
    }
    (requests, replays)
}

/// `(requests, replays)` of storing `len` consecutive f64 elements as
/// 32-lane warp stores (the last one partial): exactly what
/// [`access_charge`] sums over those stores, without building addresses.
/// A phase of `l` consecutive f64 covers `2l` consecutive 32-bit words,
/// which deal round-robin over the banks, so its fullest bank holds
/// `ceil(2l / banks)` words wherever the span starts.
pub fn span_store_charge(len: usize, banks: usize) -> (u64, u64) {
    let replays = |lanes: usize| ((2 * lanes).div_ceil(banks).max(1) - 1) as u64;
    let full = len / F64_PHASE_LANES;
    let tail = len % F64_PHASE_LANES;
    let requests = len.div_ceil(F64_PHASE_LANES) as u64;
    let tail_replays = if tail > 0 { replays(tail) } else { 0 };
    (
        requests,
        full as u64 * replays(F64_PHASE_LANES) + tail_replays,
    )
}

/// Smallest per-row padding (in f64 elements) that makes strided 8x4 f64
/// fragment loads conflict-free, given the bank count.
///
/// A fragment phase reads a 4x4 block of f64: lanes (r, c), r, c in 0..4,
/// at element addresses `r * stride + c`. With 32 4-byte banks the bank
/// pair of an f64 address is `addr % 16`, so the phase is conflict-free iff
/// the 16 values `(r * stride + c) % 16` are all distinct, which holds iff
/// `stride % 16` is 4 or 12 — i.e. `stride ≡ 4 (mod 8)` with stride even...
/// precisely: stride mod 16 ∈ {4, 12}. This function returns the smallest
/// pad ≥ 0 achieving that (the paper's Fig. 5 example pads a 266-column row
/// by 2 doubles to 268; 268 mod 16 = 12).
pub fn conflict_free_pad(row_len: usize, banks: usize) -> usize {
    let half = banks / 2; // f64 bank-pair period (16 on A100)
    for pad in 0..half {
        let stride = row_len + pad;
        let m = stride % half;
        if m == 4 % half || m == (half - 4) % half {
            // Verify exhaustively rather than trust the closed form.
            if stride_is_conflict_free(stride, banks) {
                return pad;
            }
        }
    }
    // Fall back to exhaustive search over one period.
    (0..half)
        .find(|&pad| stride_is_conflict_free(row_len + pad, banks))
        .unwrap_or(0)
}

/// Exhaustive check: are all 4x4 f64 fragment phases at this row stride
/// conflict-free regardless of the fragment's base address?
pub fn stride_is_conflict_free(stride: usize, banks: usize) -> bool {
    let half = banks / 2;
    // Base address offset within a bank-pair period shifts all lanes
    // uniformly, so checking base = 0 suffices; verify a few bases anyway.
    for base in 0..half.min(4) {
        let mut seen = vec![false; half];
        let mut ok = true;
        for r in 0..4 {
            for c in 0..4 {
                let slot = (base + r * stride + c) % half;
                if seen[slot] {
                    ok = false;
                }
                seen[slot] = true;
            }
        }
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SharedMemory {
        SharedMemory::new(4096, 32)
    }

    #[test]
    fn consecutive_addresses_are_conflict_free() {
        let m = mem();
        let phase: Vec<usize> = (0..16).collect();
        assert_eq!(m.phase_conflict_degree(&phase), 1);
    }

    #[test]
    fn same_bank_stride_conflicts_maximally() {
        let m = mem();
        // Stride of 16 f64 = full bank-pair period: all 16 lanes hit the
        // same bank pair.
        let phase: Vec<usize> = (0..16).map(|i| i * 16).collect();
        assert_eq!(m.phase_conflict_degree(&phase), 16);
    }

    #[test]
    fn broadcast_does_not_conflict() {
        let m = mem();
        let phase = [7usize; 16];
        assert_eq!(m.phase_conflict_degree(&phase), 1);
    }

    #[test]
    fn paper_example_266_conflicts_268_does_not() {
        // Fig. 5: a 4x4 f64 fragment at row stride 266 has conflicts;
        // padding to 268 removes them.
        assert!(!stride_is_conflict_free(266, 32));
        assert!(stride_is_conflict_free(268, 32));
        assert_eq!(conflict_free_pad(266, 32), 2);
    }

    #[test]
    fn fragment_phase_at_bad_stride_is_charged() {
        let m = SharedMemory::new(266 * 8, 32);
        let mut addrs = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                addrs.push(r * 266 + c);
            }
        }
        assert!(m.phase_conflict_degree(&addrs) > 1);
        let mut good = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                good.push(r * 268 + c);
            }
        }
        let m2 = SharedMemory::new(268 * 8, 32);
        assert_eq!(m2.phase_conflict_degree(&good), 1);
    }

    #[test]
    fn load_roundtrips_and_counts() {
        let mut m = mem();
        let mut c = Counters::default();
        let addrs: Vec<usize> = (0..32).collect();
        let vals: Vec<f64> = (0..32).map(|i| i as f64 * 1.5).collect();
        m.store(&mut c, &addrs, &vals);
        assert_eq!(c.shared_write_requests, 2); // 32 lanes = 2 phases
        assert_eq!(c.shared_write_conflicts, 0);
        assert_eq!(c.shared_write_bytes, 256);
        let mut out = vec![0.0; 32];
        m.load(&mut c, &addrs, &mut out);
        assert_eq!(out, vals);
        assert_eq!(c.shared_read_requests, 2);
        assert_eq!(c.shared_read_bytes, 256);
    }

    #[test]
    fn conflicting_store_is_charged() {
        let mut m = mem();
        let mut c = Counters::default();
        let addrs: Vec<usize> = (0..16).map(|i| i * 32).collect();
        let vals = vec![1.0; 16];
        m.store(&mut c, &addrs, &vals);
        assert_eq!(c.shared_write_requests, 1);
        assert_eq!(c.shared_write_conflicts, 15);
    }

    #[test]
    fn conflict_free_pad_is_zero_when_already_good() {
        assert_eq!(conflict_free_pad(268, 32), 0);
        assert_eq!(conflict_free_pad(4, 32), 0);
    }

    #[test]
    fn empty_phase_degree_is_one() {
        assert_eq!(mem().phase_conflict_degree(&[]), 1);
    }

    #[test]
    fn recycle_matches_fresh_allocation() {
        let mut m = SharedMemory::new(64, 32);
        let mut c = Counters::default();
        m.store(&mut c, &[0, 1, 2], &[9.0, 8.0, 7.0]);
        // Recycle into a *larger* shared memory: every word must read as
        // zero, exactly like a fresh allocation.
        let recycled = SharedMemory::recycle(m.into_data(), 128, 32);
        let fresh = SharedMemory::new(128, 32);
        assert_eq!(recycled.raw(), fresh.raw());
        assert_eq!(recycled.len(), 128);
        // And into a smaller one.
        let small = SharedMemory::recycle(recycled.into_data(), 16, 32);
        assert_eq!(small.raw(), SharedMemory::new(16, 32).raw());
    }

    #[test]
    fn degree_fast_path_matches_general_path() {
        // Exercise a phase longer than F64_PHASE_LANES (general path) and
        // its 16-lane prefix (fast path) against hand-computed degrees.
        let m = mem();
        let long: Vec<usize> = (0..32).map(|i| i * 16).collect();
        assert_eq!(m.phase_conflict_degree(&long), 32);
        assert_eq!(m.phase_conflict_degree(&long[..16]), 16);
    }
}
