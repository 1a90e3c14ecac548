//! The LUT-driven shared-memory scatter (paper §3.4), shared by the 1D,
//! 2D and 3D executors, and the per-plan access ledger that charges it.
//!
//! Each tile row of a block's input is read with coalesced warp requests
//! and stored into the stencil2row A/B tiles through the host-built lookup
//! table: per 32-lane chunk, the lanes with an A address are stored as one
//! warp request, then the lanes with a B address as another. The stored
//! addresses depend only on the plan (tile row, lane) plus a constant
//! per-slot offset, so the shared-store cost of every tile row is fixed
//! per plan and per bank count. The [`AccessLedger`] computes those
//! charges once by replaying exactly that chunking and compaction; the
//! fast path then stores through the LUT directly and charges the ledger
//! row, instead of re-deriving bank conflicts from raw addresses in every
//! block of every launch.
//!
//! The fast path runs only when the block's accesses are not observed
//! (no sanitizer shadow, no fault plan — see
//! `BlockCtx::observes_accesses`): the sanitizer checks every store, and
//! the fault stream draws one corruption decision per `smem_store` call,
//! so both must see exactly the address-level calls. With the sanitizer
//! on, the address-level path compares each tile row's counter delta with
//! its ledger row and panics on any difference.

use crate::plan::LUT_SKIP;
use std::sync::{Arc, Mutex};
use tcu_sim::{access_charge, BlockCtx, BufferId, Counters, INACTIVE};

/// Lanes read per `gmem_read_span_into` call on the fast path: a multiple
/// of the 32-lane warp, so the requests match the address-level path's.
const READ_PIECE: usize = 256;

/// Shared-store charges of one tile row's scatter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RowCharge {
    requests: u64,
    conflicts: u64,
    bytes: u64,
}

impl RowCharge {
    /// The shared-store part of a counter delta.
    fn of(delta: &Counters) -> Self {
        Self {
            requests: delta.shared_write_requests,
            conflicts: delta.shared_write_conflicts,
            bytes: delta.shared_write_bytes,
        }
    }
}

/// Memoized per-tile-row scatter charges of one executor's LUT, one table
/// per shared-memory bank count (`DeviceConfig::shared_banks`).
#[derive(Debug)]
pub(crate) struct AccessLedger {
    /// Plan description for the sanitizer cross-check's panic message.
    shape: String,
    tables: Mutex<Vec<(usize, Arc<[RowCharge]>)>>,
}

impl AccessLedger {
    pub(crate) fn new(shape: String) -> Self {
        Self {
            shape,
            tables: Mutex::new(Vec::new()),
        }
    }

    /// Drop every memoized table (the LUT they were built from changed).
    pub(crate) fn clear(&mut self) {
        self.tables
            .get_mut()
            .expect("access ledger lock poisoned by a panicking block")
            .clear();
    }
}

impl Clone for AccessLedger {
    fn clone(&self) -> Self {
        let tables = self
            .tables
            .lock()
            .expect("access ledger lock poisoned by a panicking block");
        Self {
            shape: self.shape.clone(),
            tables: Mutex::new(tables.clone()),
        }
    }
}

/// One executor's scatter: its LUT (row-major, `lanes` entries per tile
/// row), addressing mode, and ledger.
pub(crate) struct LutScatter<'a> {
    pub lut: &'a [[u32; 2]],
    /// Sector-aligned lanes read per tile row (`span_aligned`).
    pub lanes: usize,
    /// Addressing through the LUT (variant V) rather than div/mod and
    /// validity branches (variants II–IV).
    pub lut_mode: bool,
    pub ledger: &'a AccessLedger,
}

impl LutScatter<'_> {
    /// Scatter tile rows `0..tile_rows` of a block: row `t` is read from
    /// `ext_in` at `row_start(t)` and stored to `base_off` plus its LUT
    /// addresses.
    pub fn run(
        &self,
        ctx: &mut BlockCtx,
        ext_in: BufferId,
        tile_rows: usize,
        base_off: usize,
        row_start: impl Fn(usize) -> usize,
    ) {
        let banks = ctx.config().shared_banks as usize;
        let ledger = self.table(banks);
        if ctx.observes_accesses() {
            let check = ctx.sanitizing().then_some(&*ledger);
            self.run_addressed(ctx, ext_in, tile_rows, base_off, row_start, check, banks);
            return;
        }
        let mut buf = [0.0f64; READ_PIECE];
        for t in 0..tile_rows {
            let start = row_start(t);
            for (p, lut) in self.row(t).chunks(READ_PIECE).enumerate() {
                let vals = &mut buf[..lut.len()];
                ctx.gmem_read_span_into(ext_in, start + p * READ_PIECE, vals);
                let shared = ctx.shared.raw_mut();
                for (lut, vals) in lut.chunks(32).zip(vals.chunks(32)) {
                    // Same order as the address-level path: the chunk's A
                    // lanes, then its B lanes (duplicate dirty-slot
                    // stores resolve identically).
                    for side in 0..2 {
                        for (e, &v) in lut.iter().zip(vals.iter()) {
                            if e[side] != LUT_SKIP {
                                shared[base_off + e[side] as usize] = v;
                            }
                        }
                    }
                }
            }
            self.charge_addressing(ctx, self.lanes);
            let charge = ledger[t];
            ctx.charge_shared_writes(charge.requests, charge.conflicts, charge.bytes);
        }
    }

    /// The reference scatter: per 32-lane chunk, one warp read, then one
    /// `smem_store` for the A lanes and one for the B lanes. With `check`,
    /// each tile row's shared-store delta must equal its ledger row.
    #[allow(clippy::too_many_arguments)]
    fn run_addressed(
        &self,
        ctx: &mut BlockCtx,
        ext_in: BufferId,
        tile_rows: usize,
        base_off: usize,
        row_start: impl Fn(usize) -> usize,
        check: Option<&[RowCharge]>,
        banks: usize,
    ) {
        let mut gaddrs = [INACTIVE; 32];
        let mut vals = [0.0f64; 32];
        let mut a_addrs = [0usize; 32];
        let mut a_vals = [0.0f64; 32];
        let mut b_addrs = [0usize; 32];
        let mut b_vals = [0.0f64; 32];
        for t in 0..tile_rows {
            let before = ctx.counters;
            let start = row_start(t);
            for (c, lut) in self.row(t).chunks(32).enumerate() {
                let lanes = lut.len();
                for (l, a) in gaddrs[..lanes].iter_mut().enumerate() {
                    *a = start + 32 * c + l;
                }
                ctx.gmem_read_warp(ext_in, &gaddrs[..lanes], &mut vals[..lanes]);
                self.charge_addressing(ctx, lanes);
                let (mut na, mut nb) = (0usize, 0usize);
                for (&[a, b], &v) in lut.iter().zip(&vals[..lanes]) {
                    if a != LUT_SKIP {
                        a_addrs[na] = base_off + a as usize;
                        a_vals[na] = v;
                        na += 1;
                    }
                    if b != LUT_SKIP {
                        b_addrs[nb] = base_off + b as usize;
                        b_vals[nb] = v;
                        nb += 1;
                    }
                }
                if na > 0 {
                    ctx.smem_store(&a_addrs[..na], &a_vals[..na]);
                }
                if nb > 0 {
                    ctx.smem_store(&b_addrs[..nb], &b_vals[..nb]);
                }
            }
            if let Some(ledger) = check {
                let got = RowCharge::of(&ctx.counters.saturating_sub(&before));
                assert_eq!(
                    got, ledger[t],
                    "scatter access ledger disagrees with the address-level charges \
                     on {}, tile row {t} of {tile_rows}, {banks} banks",
                    self.ledger.shape
                );
            }
        }
    }

    /// Addressing cost (§3.4) of `lanes` scattered elements: one indexed
    /// add per side through the LUT, otherwise flat→(row, col) div/mod
    /// plus validity branches.
    fn charge_addressing(&self, ctx: &mut BlockCtx, lanes: usize) {
        let lanes = lanes as u64;
        if self.lut_mode {
            ctx.count_int(2 * lanes);
        } else {
            ctx.count_divmod(2 * lanes);
            ctx.count_branch(2 * lanes);
            ctx.count_int(4 * lanes);
        }
    }

    fn row(&self, t: usize) -> &[[u32; 2]] {
        &self.lut[t * self.lanes..(t + 1) * self.lanes]
    }

    /// The ledger table for `banks`, built on first use.
    fn table(&self, banks: usize) -> Arc<[RowCharge]> {
        let mut tables = self
            .ledger
            .tables
            .lock()
            .expect("access ledger lock poisoned by a panicking block");
        if let Some((_, table)) = tables.iter().find(|(b, _)| *b == banks) {
            return Arc::clone(table);
        }
        let table: Arc<[RowCharge]> = (0..self.lut.len() / self.lanes)
            .map(|t| self.replay_row(t, banks))
            .collect();
        tables.push((banks, Arc::clone(&table)));
        table
    }

    /// Charges of tile row `t`, replaying the address-level path's
    /// chunking and A/B compaction. A constant slot offset only rotates
    /// the bank histogram, so the row's charges hold for every
    /// `base_off`.
    fn replay_row(&self, t: usize, banks: usize) -> RowCharge {
        let mut charge = RowCharge::default();
        let mut addrs = [0usize; 32];
        for lut in self.row(t).chunks(32) {
            for side in 0..2 {
                let mut n = 0;
                for e in lut.iter().filter(|e| e[side] != LUT_SKIP) {
                    addrs[n] = e[side] as usize;
                    n += 1;
                }
                if n > 0 {
                    let (requests, conflicts) = access_charge(&addrs[..n], banks);
                    charge.requests += requests;
                    charge.conflicts += conflicts;
                    charge.bytes += 8 * n as u64;
                }
            }
        }
        charge
    }
}
