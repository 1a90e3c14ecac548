//! Global-memory model with sector-level coalescing accounting.
//!
//! A warp-level request to global memory is served in 32-byte sectors
//! (4 f64 each). The model counts, per request, how many distinct sectors
//! are touched versus the minimum possible for the number of active lanes;
//! a request needing more than the minimum is "uncoalesced" — the metric
//! behind the paper's Table 5 UGA column. Sector counts also drive the
//! memory term of the performance model (inflated traffic).

use crate::counters::Counters;

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// Lane address marker for inactive lanes in a warp request.
pub const INACTIVE: usize = usize::MAX;

/// All device global memory: a set of f64 buffers.
#[derive(Debug, Default, Clone)]
pub struct GlobalMemory {
    buffers: Vec<Vec<f64>>,
}

impl GlobalMemory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a zero-initialised buffer of `len` f64 elements.
    pub fn alloc(&mut self, len: usize) -> BufferId {
        self.buffers.push(vec![0.0; len]);
        BufferId(self.buffers.len() - 1)
    }

    /// Allocate and fill from a slice.
    pub fn alloc_from(&mut self, data: &[f64]) -> BufferId {
        self.alloc_vec(data.to_vec())
    }

    /// Allocate a buffer that takes ownership of `data` (no copy).
    pub fn alloc_vec(&mut self, data: Vec<f64>) -> BufferId {
        self.buffers.push(data);
        BufferId(self.buffers.len() - 1)
    }

    /// Host-side read of a whole buffer (no event accounting — this is the
    /// simulated cudaMemcpy D2H).
    pub fn download(&self, id: BufferId) -> &[f64] {
        &self.buffers[id.0]
    }

    /// Host-side write into a buffer (simulated H2D).
    pub fn upload(&mut self, id: BufferId, data: &[f64]) {
        let buf = &mut self.buffers[id.0];
        assert!(data.len() <= buf.len(), "upload larger than buffer");
        buf[..data.len()].copy_from_slice(data);
    }

    pub fn buffer_len(&self, id: BufferId) -> usize {
        self.buffers[id.0].len()
    }

    /// Number of f64 values held over every buffer.
    pub(crate) fn total_len(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// Charge one warp request's sector footprint to `counters`.
    fn charge(counters: &mut Counters, footprint: (u64, u64, u64), is_read: bool) {
        let (active, n_sectors, min_sectors) = footprint;
        if active == 0 {
            return;
        }
        let bytes = 8 * active;
        if is_read {
            counters.global_read_requests += 1;
            counters.global_read_bytes += bytes;
            counters.global_read_sectors += n_sectors;
            counters.global_read_sectors_min += min_sectors;
        } else {
            counters.global_write_requests += 1;
            counters.global_write_bytes += bytes;
            counters.global_write_sectors += n_sectors;
            counters.global_write_sectors_min += min_sectors;
        }
        // A request is flagged uncoalesced when it moves at least twice
        // the minimum sectors (scattered/strided access). Misaligned but
        // contiguous accesses (one extra sector) still pay the bandwidth
        // inflation above but are not flagged — matching how profilers
        // attribute the paper's Table 5 UGA metric.
        if n_sectors >= 2 * min_sectors && n_sectors > min_sectors {
            counters.uncoalesced_requests += 1;
        }
    }

    /// Account one warp request against `counters`. `addrs` are f64 element
    /// indices with `INACTIVE` marking masked lanes.
    fn account(counters: &mut Counters, addrs: &[usize], sector_f64: usize, is_read: bool) {
        Self::charge(counters, scattered_sectors(addrs, sector_f64), is_read);
    }

    /// Warp-sized reads of the span `[start, start + out.len())`: one
    /// request per 32 lanes, each charged arithmetically, then one slice
    /// copy. Charges exactly what [`GlobalMemory::read_warp`] charges for
    /// the same 32-lane chunks.
    pub(crate) fn read_span(
        &self,
        counters: &mut Counters,
        id: BufferId,
        start: usize,
        sector_f64: usize,
        out: &mut [f64],
    ) {
        let mut i = 0;
        while i < out.len() {
            let lanes = (out.len() - i).min(32);
            Self::charge(
                counters,
                contiguous_sectors(start + i, lanes, sector_f64),
                true,
            );
            i += lanes;
        }
        out.copy_from_slice(&self.buffers[id.0][start..start + out.len()]);
    }

    /// Warp-level read. Inactive lanes (address `INACTIVE`) produce 0.0.
    pub fn read_warp(
        &self,
        counters: &mut Counters,
        id: BufferId,
        addrs: &[usize],
        sector_f64: usize,
        out: &mut [f64],
    ) {
        assert_eq!(addrs.len(), out.len());
        Self::account(counters, addrs, sector_f64, true);
        let buf = &self.buffers[id.0];
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = if a == INACTIVE { 0.0 } else { buf[a] };
        }
    }

    /// Apply a buffered write set produced by blocks during a launch.
    pub(crate) fn apply_writes(&mut self, writes: &[(BufferId, usize, f64)]) {
        for &(id, addr, v) in writes {
            self.buffers[id.0][addr] = v;
        }
    }

    /// Apply one contiguous run of buffered writes as a single bulk copy —
    /// the launch-retire fast path. A run's addresses are strictly
    /// consecutive, so this is observably identical to applying the run
    /// element-by-element via [`GlobalMemory::apply_writes`].
    pub(crate) fn apply_run(&mut self, id: BufferId, start: usize, vals: &[f64]) {
        self.buffers[id.0][start..start + vals.len()].copy_from_slice(vals);
    }

    /// Move a buffer's contents out without copying (zero-copy download).
    /// The handle stays valid but the buffer is left empty; any further
    /// device access through it is a caller bug.
    pub fn take(&mut self, id: BufferId) -> Vec<f64> {
        std::mem::take(&mut self.buffers[id.0])
    }

    /// Put back contents moved out with [`GlobalMemory::take`].
    pub(crate) fn restore(&mut self, id: BufferId, data: Vec<f64>) {
        self.buffers[id.0] = data;
    }

    /// Account a warp-level write (values are buffered by the caller until
    /// the launch retires; this only does the event accounting).
    pub(crate) fn account_write(
        &self,
        counters: &mut Counters,
        addrs: &[usize],
        sector_f64: usize,
    ) {
        Self::account(counters, addrs, sector_f64, false);
    }

    /// [`GlobalMemory::account_write`] for `lanes` consecutive elements
    /// from `start`.
    pub(crate) fn account_write_contiguous(
        &self,
        counters: &mut Counters,
        start: usize,
        lanes: usize,
        sector_f64: usize,
    ) {
        Self::charge(
            counters,
            contiguous_sectors(start, lanes, sector_f64),
            false,
        );
    }
}

/// Sector footprint `(active lanes, sectors, minimum sectors)` of one warp
/// request, by sorting the active lanes' sector ids. Works for any lane
/// pattern; [`INACTIVE`] lanes are skipped.
pub fn scattered_sectors(addrs: &[usize], sector_f64: usize) -> (u64, u64, u64) {
    debug_assert!(addrs.len() <= 32, "a warp has at most 32 lanes");
    // A warp is at most 32 lanes, so the sector set fits a stack array —
    // this path runs once per global request and must not allocate.
    let mut sectors = [0usize; 32];
    let mut n = 0usize;
    for &a in addrs {
        if a != INACTIVE {
            sectors[n] = a / sector_f64;
            n += 1;
        }
    }
    if n == 0 {
        return (0, 0, 0);
    }
    let sectors = &mut sectors[..n];
    sectors.sort_unstable();
    let mut n_sectors = 1u64;
    for i in 1..sectors.len() {
        if sectors[i] != sectors[i - 1] {
            n_sectors += 1;
        }
    }
    let active = n as u64;
    (active, n_sectors, active.div_ceil(sector_f64 as u64))
}

/// [`scattered_sectors`] of the request `start, start + 1, …,
/// start + lanes - 1`, computed from its first and last sector: a
/// contiguous run touches every sector between them and no other.
pub fn contiguous_sectors(start: usize, lanes: usize, sector_f64: usize) -> (u64, u64, u64) {
    if lanes == 0 {
        return (0, 0, 0);
    }
    let n_sectors = ((start + lanes - 1) / sector_f64 - start / sector_f64 + 1) as u64;
    let active = lanes as u64;
    (active, n_sectors, active.div_ceil(sector_f64 as u64))
}

/// If the active lanes of `addrs` are one consecutive run starting at
/// lane 0 and every later lane is [`INACTIVE`], the run's `(start, len)`.
pub fn contiguous_prefix(addrs: &[usize]) -> Option<(usize, usize)> {
    let (&start, rest) = addrs.split_first()?;
    if start == INACTIVE {
        return None;
    }
    let len = 1 + rest
        .iter()
        .enumerate()
        .take_while(|&(l, &a)| start.checked_add(l + 1) == Some(a))
        .count();
    addrs[len..]
        .iter()
        .all(|&a| a == INACTIVE)
        .then_some((start, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_read_of_32_consecutive_f64() {
        let mut g = GlobalMemory::new();
        let id = g.alloc_from(&(0..64).map(|i| i as f64).collect::<Vec<_>>());
        let mut c = Counters::default();
        let addrs: Vec<usize> = (0..32).collect();
        let mut out = vec![0.0; 32];
        g.read_warp(&mut c, id, &addrs, 4, &mut out);
        assert_eq!(out[31], 31.0);
        assert_eq!(c.global_read_requests, 1);
        // 32 f64 = 256 bytes = 8 sectors, which is also the minimum.
        assert_eq!(c.global_read_sectors, 8);
        assert_eq!(c.global_read_sectors_min, 8);
        assert_eq!(c.uncoalesced_requests, 0);
    }

    #[test]
    fn strided_read_is_uncoalesced() {
        let mut g = GlobalMemory::new();
        let id = g.alloc(32 * 64);
        let mut c = Counters::default();
        let addrs: Vec<usize> = (0..32).map(|i| i * 64).collect(); // column access
        let mut out = vec![0.0; 32];
        g.read_warp(&mut c, id, &addrs, 4, &mut out);
        assert_eq!(c.global_read_sectors, 32); // one sector per lane
        assert_eq!(c.global_read_sectors_min, 8);
        assert_eq!(c.uncoalesced_requests, 1);
        assert!(c.uncoalesced_global_access_pct() > 99.0);
    }

    #[test]
    fn partially_active_warp_minimum_accounts_active_lanes_only() {
        let mut g = GlobalMemory::new();
        let id = g.alloc(128);
        let mut c = Counters::default();
        let mut addrs = vec![INACTIVE; 32];
        for (i, a) in addrs.iter_mut().take(4).enumerate() {
            *a = i;
        }
        let mut out = vec![0.0; 32];
        g.read_warp(&mut c, id, &addrs, 4, &mut out);
        assert_eq!(c.global_read_bytes, 32);
        assert_eq!(c.global_read_sectors, 1);
        assert_eq!(c.global_read_sectors_min, 1);
        assert_eq!(c.uncoalesced_requests, 0);
    }

    #[test]
    fn fully_inactive_warp_is_free() {
        let g = GlobalMemory {
            buffers: vec![vec![0.0; 4]],
        };
        let mut c = Counters::default();
        let addrs = vec![INACTIVE; 32];
        let mut out = vec![0.0; 32];
        g.read_warp(&mut c, BufferId(0), &addrs, 4, &mut out);
        assert_eq!(c.global_read_requests, 0);
        assert_eq!(c.global_read_bytes, 0);
    }

    #[test]
    fn misaligned_but_contiguous_read_inflates_but_is_not_flagged() {
        let mut g = GlobalMemory::new();
        let id = g.alloc(256);
        let mut c = Counters::default();
        let addrs: Vec<usize> = (2..34).collect(); // offset by 2 f64
        let mut out = vec![0.0; 32];
        g.read_warp(&mut c, id, &addrs, 4, &mut out);
        assert_eq!(c.global_read_sectors, 9);
        assert_eq!(c.global_read_sectors_min, 8);
        // Bandwidth inflation is charged, but one extra sector does not
        // count as an uncoalesced access.
        assert_eq!(c.uncoalesced_requests, 0);
        assert!(c.global_read_inflation() > 1.1);
    }

    #[test]
    fn contiguous_prefix_accepts_only_one_leading_run() {
        assert_eq!(contiguous_prefix(&[5, 6, 7]), Some((5, 3)));
        assert_eq!(contiguous_prefix(&[5, 6, INACTIVE, INACTIVE]), Some((5, 2)));
        assert_eq!(contiguous_prefix(&[9]), Some((9, 1)));
        assert_eq!(contiguous_prefix(&[5, 6, INACTIVE, 8]), None);
        assert_eq!(contiguous_prefix(&[INACTIVE, 6, 7]), None);
        assert_eq!(contiguous_prefix(&[5, 7]), None);
        assert_eq!(contiguous_prefix(&[]), None);
    }

    #[test]
    fn contiguous_sectors_match_the_sorted_count() {
        for sector in [2, 4, 8] {
            for start in 0..20 {
                for lanes in 1..=32 {
                    let addrs: Vec<usize> = (start..start + lanes).collect();
                    assert_eq!(
                        contiguous_sectors(start, lanes, sector),
                        scattered_sectors(&addrs, sector),
                        "start {start} lanes {lanes} sector {sector}"
                    );
                }
            }
        }
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut g = GlobalMemory::new();
        let id = g.alloc(8);
        g.upload(id, &[1.0, 2.0, 3.0]);
        assert_eq!(&g.download(id)[..3], &[1.0, 2.0, 3.0]);
        assert_eq!(g.download(id)[3], 0.0);
    }

    #[test]
    fn apply_writes_last_wins() {
        let mut g = GlobalMemory::new();
        let id = g.alloc(4);
        g.apply_writes(&[(id, 1, 5.0), (id, 1, 7.0)]);
        assert_eq!(g.download(id)[1], 7.0);
    }

    #[test]
    fn apply_run_matches_elementwise_apply() {
        let mut bulk = GlobalMemory::new();
        let mut elem = GlobalMemory::new();
        let b = bulk.alloc(8);
        let e = elem.alloc(8);
        let vals = [1.5, 2.5, 3.5];
        bulk.apply_run(b, 2, &vals);
        elem.apply_writes(
            &vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (e, 2 + i, v))
                .collect::<Vec<_>>(),
        );
        assert_eq!(bulk.download(b), elem.download(e));
    }

    #[test]
    fn take_moves_contents_out() {
        let mut g = GlobalMemory::new();
        let id = g.alloc_from(&[1.0, 2.0]);
        assert_eq!(g.take(id), vec![1.0, 2.0]);
        assert_eq!(g.buffer_len(id), 0);
    }
}
