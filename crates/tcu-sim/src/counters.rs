//! Event ledger: every simulated operation increments one of these counters.
//!
//! The counters are the bridge between the functional simulation and the
//! performance model: `cost::CostModel` converts a `Counters` snapshot into
//! modelled execution time, and `table5_conflicts` reads the derived
//! UGA%/BC-per-request metrics directly.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Cumulative event counts for one simulated kernel run (or one block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// FP64 `m8n8k4` MMA instructions issued.
    pub dmma_ops: u64,
    /// FP16-class `m16n16k16` MMA instructions issued (TCStencil analog).
    pub hmma_ops: u64,
    /// FP64 fused-multiply-add operations on the CUDA cores.
    pub cuda_fma_ops: u64,
    /// Plain INT32 ALU operations (address arithmetic).
    pub int_ops: u64,
    /// Integer division/modulus operations (each expands to a
    /// multi-instruction sequence; see `DeviceConfig::divmod_int_op_equiv`).
    pub int_divmod_ops: u64,
    /// Potentially-divergent conditional branches executed.
    pub branch_ops: u64,

    /// Bytes read from global memory (useful payload).
    pub global_read_bytes: u64,
    /// Bytes written to global memory (useful payload).
    pub global_write_bytes: u64,
    /// Warp-level global read requests.
    pub global_read_requests: u64,
    /// Warp-level global write requests.
    pub global_write_requests: u64,
    /// 32-byte sectors actually moved for global reads.
    pub global_read_sectors: u64,
    /// 32-byte sectors actually moved for global writes.
    pub global_write_sectors: u64,
    /// Minimum possible sectors for the issued read requests (perfectly
    /// coalesced equivalents).
    pub global_read_sectors_min: u64,
    /// Minimum possible sectors for the issued write requests.
    pub global_write_sectors_min: u64,
    /// Global requests that needed more sectors than the coalesced minimum.
    pub uncoalesced_requests: u64,

    /// Bytes read from shared memory.
    pub shared_read_bytes: u64,
    /// Bytes written to shared memory.
    pub shared_write_bytes: u64,
    /// Shared-memory load requests (one per conflict-check unit, i.e. per
    /// 16-thread phase for FP64 fragment traffic; see `shared.rs`).
    pub shared_read_requests: u64,
    /// Shared-memory store requests.
    pub shared_write_requests: u64,
    /// Subset of load requests issued by *scalar* (CUDA-core) code with a
    /// dependent consumer — these expose part of the 23-cycle shared
    /// latency (Table 2), unlike software-pipelined fragment loads.
    pub shared_scalar_requests: u64,
    /// Extra serialized replays caused by load bank conflicts
    /// (a conflict-free request contributes 0).
    pub shared_read_conflicts: u64,
    /// Extra serialized replays caused by store bank conflicts.
    pub shared_write_conflicts: u64,

    /// Injected DMMA accumulator bit flips (fault injection; see
    /// `tcu_sim::fault`).
    pub frag_faults_injected: u64,
    /// Injected shared-memory store corruptions.
    pub smem_faults_injected: u64,
    /// Injected whole-launch failures.
    pub launch_faults_injected: u64,
    /// Sticky device-death events (the launch that killed the device; see
    /// `tcu_sim::fault::FaultPlan::die_at_launch`).
    pub device_lost_events: u64,
    /// Device clock cycles spent stalled in injected hangs (see
    /// `tcu_sim::fault::HangSpec`). Charged to the cost model as exposed
    /// stall time so hangs trip cost-model deadlines.
    pub hang_stall_cycles: u64,
}

impl Counters {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total warp-level global requests (reads + writes).
    pub fn global_requests(&self) -> u64 {
        self.global_read_requests + self.global_write_requests
    }

    /// Percentage of global requests that were not perfectly coalesced
    /// ("UGA" in the paper's Table 5).
    pub fn uncoalesced_global_access_pct(&self) -> f64 {
        let total = self.global_requests();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.uncoalesced_requests as f64 / total as f64
    }

    /// Average extra replays per shared-memory request
    /// ("BC/R" in the paper's Table 5). Loads and stores combined.
    pub fn bank_conflicts_per_request(&self) -> f64 {
        let requests = self.shared_read_requests + self.shared_write_requests;
        if requests == 0 {
            return 0.0;
        }
        (self.shared_read_conflicts + self.shared_write_conflicts) as f64 / requests as f64
    }

    /// BC/R restricted to loads (the paper's padding optimization targets
    /// load conflicts specifically, §3.4).
    pub fn load_bank_conflicts_per_request(&self) -> f64 {
        if self.shared_read_requests == 0 {
            return 0.0;
        }
        self.shared_read_conflicts as f64 / self.shared_read_requests as f64
    }

    /// Total MMA instructions of all precisions.
    pub fn total_mma_ops(&self) -> u64 {
        self.dmma_ops + self.hmma_ops
    }

    /// Total injected faults of every class.
    pub fn faults_injected(&self) -> u64 {
        self.frag_faults_injected
            + self.smem_faults_injected
            + self.launch_faults_injected
            + self.device_lost_events
    }

    /// Sector inflation factor for global reads: actual / minimum.
    /// 1.0 means every request was perfectly coalesced.
    pub fn global_read_inflation(&self) -> f64 {
        if self.global_read_sectors_min == 0 {
            return 1.0;
        }
        self.global_read_sectors as f64 / self.global_read_sectors_min as f64
    }

    /// Sector inflation factor for global writes.
    pub fn global_write_inflation(&self) -> f64 {
        if self.global_write_sectors_min == 0 {
            return 1.0;
        }
        self.global_write_sectors as f64 / self.global_write_sectors_min as f64
    }

    /// Merge another ledger into this one (used when reducing per-block
    /// ledgers after a launch).
    pub fn merge(&mut self, other: &Counters) {
        *self += *other;
    }

    /// Scale every *rate-like* counter by `factor`, rounding to nearest.
    /// Used by the benchmark harness to project per-point event rates
    /// measured at a feasible simulation size up to the paper's problem
    /// sizes. Fault-injection counters are **not** scaled: they count
    /// discrete events that happened in the measured run, not rates, so a
    /// projection must carry them through unchanged rather than fabricate
    /// faults that never occurred.
    pub fn scaled(&self, factor: f64) -> Counters {
        let s = |v: u64| -> u64 { (v as f64 * factor).round() as u64 };
        Counters {
            dmma_ops: s(self.dmma_ops),
            hmma_ops: s(self.hmma_ops),
            cuda_fma_ops: s(self.cuda_fma_ops),
            int_ops: s(self.int_ops),
            int_divmod_ops: s(self.int_divmod_ops),
            branch_ops: s(self.branch_ops),
            global_read_bytes: s(self.global_read_bytes),
            global_write_bytes: s(self.global_write_bytes),
            global_read_requests: s(self.global_read_requests),
            global_write_requests: s(self.global_write_requests),
            global_read_sectors: s(self.global_read_sectors),
            global_write_sectors: s(self.global_write_sectors),
            global_read_sectors_min: s(self.global_read_sectors_min),
            global_write_sectors_min: s(self.global_write_sectors_min),
            uncoalesced_requests: s(self.uncoalesced_requests),
            shared_read_bytes: s(self.shared_read_bytes),
            shared_write_bytes: s(self.shared_write_bytes),
            shared_read_requests: s(self.shared_read_requests),
            shared_write_requests: s(self.shared_write_requests),
            shared_scalar_requests: s(self.shared_scalar_requests),
            shared_read_conflicts: s(self.shared_read_conflicts),
            shared_write_conflicts: s(self.shared_write_conflicts),
            frag_faults_injected: self.frag_faults_injected,
            smem_faults_injected: self.smem_faults_injected,
            launch_faults_injected: self.launch_faults_injected,
            device_lost_events: self.device_lost_events,
            hang_stall_cycles: self.hang_stall_cycles,
        }
    }

    /// Every field as a `(name, value)` pair, in declaration order. The
    /// names are the stable wire names used by the trace JSONL codec and
    /// the bench `BENCH_*.json` digests.
    pub fn field_pairs(&self) -> [(&'static str, u64); 27] {
        [
            ("dmma_ops", self.dmma_ops),
            ("hmma_ops", self.hmma_ops),
            ("cuda_fma_ops", self.cuda_fma_ops),
            ("int_ops", self.int_ops),
            ("int_divmod_ops", self.int_divmod_ops),
            ("branch_ops", self.branch_ops),
            ("global_read_bytes", self.global_read_bytes),
            ("global_write_bytes", self.global_write_bytes),
            ("global_read_requests", self.global_read_requests),
            ("global_write_requests", self.global_write_requests),
            ("global_read_sectors", self.global_read_sectors),
            ("global_write_sectors", self.global_write_sectors),
            ("global_read_sectors_min", self.global_read_sectors_min),
            ("global_write_sectors_min", self.global_write_sectors_min),
            ("uncoalesced_requests", self.uncoalesced_requests),
            ("shared_read_bytes", self.shared_read_bytes),
            ("shared_write_bytes", self.shared_write_bytes),
            ("shared_read_requests", self.shared_read_requests),
            ("shared_write_requests", self.shared_write_requests),
            ("shared_scalar_requests", self.shared_scalar_requests),
            ("shared_read_conflicts", self.shared_read_conflicts),
            ("shared_write_conflicts", self.shared_write_conflicts),
            ("frag_faults_injected", self.frag_faults_injected),
            ("smem_faults_injected", self.smem_faults_injected),
            ("launch_faults_injected", self.launch_faults_injected),
            ("device_lost_events", self.device_lost_events),
            ("hang_stall_cycles", self.hang_stall_cycles),
        ]
    }

    /// Set a field by its [`Counters::field_pairs`] wire name. Returns
    /// `false` (leaving the ledger untouched) for an unknown name.
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "dmma_ops" => &mut self.dmma_ops,
            "hmma_ops" => &mut self.hmma_ops,
            "cuda_fma_ops" => &mut self.cuda_fma_ops,
            "int_ops" => &mut self.int_ops,
            "int_divmod_ops" => &mut self.int_divmod_ops,
            "branch_ops" => &mut self.branch_ops,
            "global_read_bytes" => &mut self.global_read_bytes,
            "global_write_bytes" => &mut self.global_write_bytes,
            "global_read_requests" => &mut self.global_read_requests,
            "global_write_requests" => &mut self.global_write_requests,
            "global_read_sectors" => &mut self.global_read_sectors,
            "global_write_sectors" => &mut self.global_write_sectors,
            "global_read_sectors_min" => &mut self.global_read_sectors_min,
            "global_write_sectors_min" => &mut self.global_write_sectors_min,
            "uncoalesced_requests" => &mut self.uncoalesced_requests,
            "shared_read_bytes" => &mut self.shared_read_bytes,
            "shared_write_bytes" => &mut self.shared_write_bytes,
            "shared_read_requests" => &mut self.shared_read_requests,
            "shared_write_requests" => &mut self.shared_write_requests,
            "shared_scalar_requests" => &mut self.shared_scalar_requests,
            "shared_read_conflicts" => &mut self.shared_read_conflicts,
            "shared_write_conflicts" => &mut self.shared_write_conflicts,
            "frag_faults_injected" => &mut self.frag_faults_injected,
            "smem_faults_injected" => &mut self.smem_faults_injected,
            "launch_faults_injected" => &mut self.launch_faults_injected,
            "device_lost_events" => &mut self.device_lost_events,
            "hang_stall_cycles" => &mut self.hang_stall_cycles,
            _ => return false,
        };
        *slot = value;
        true
    }

    /// Field-wise `self - earlier`, saturating at zero. Used to attribute
    /// per-phase deltas between two ledger snapshots.
    pub fn saturating_sub(&self, earlier: &Counters) -> Counters {
        let mut out = Counters::default();
        for ((name, now), (_, before)) in self.field_pairs().into_iter().zip(earlier.field_pairs())
        {
            out.set_field(name, now.saturating_sub(before));
        }
        out
    }
}

impl Add for Counters {
    type Output = Counters;
    fn add(mut self, rhs: Counters) -> Counters {
        self += rhs;
        self
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Counters) {
        self.dmma_ops += rhs.dmma_ops;
        self.hmma_ops += rhs.hmma_ops;
        self.cuda_fma_ops += rhs.cuda_fma_ops;
        self.int_ops += rhs.int_ops;
        self.int_divmod_ops += rhs.int_divmod_ops;
        self.branch_ops += rhs.branch_ops;
        self.global_read_bytes += rhs.global_read_bytes;
        self.global_write_bytes += rhs.global_write_bytes;
        self.global_read_requests += rhs.global_read_requests;
        self.global_write_requests += rhs.global_write_requests;
        self.global_read_sectors += rhs.global_read_sectors;
        self.global_write_sectors += rhs.global_write_sectors;
        self.global_read_sectors_min += rhs.global_read_sectors_min;
        self.global_write_sectors_min += rhs.global_write_sectors_min;
        self.uncoalesced_requests += rhs.uncoalesced_requests;
        self.shared_read_bytes += rhs.shared_read_bytes;
        self.shared_write_bytes += rhs.shared_write_bytes;
        self.shared_read_requests += rhs.shared_read_requests;
        self.shared_write_requests += rhs.shared_write_requests;
        self.shared_scalar_requests += rhs.shared_scalar_requests;
        self.shared_read_conflicts += rhs.shared_read_conflicts;
        self.shared_write_conflicts += rhs.shared_write_conflicts;
        self.frag_faults_injected += rhs.frag_faults_injected;
        self.smem_faults_injected += rhs.smem_faults_injected;
        self.launch_faults_injected += rhs.launch_faults_injected;
        self.device_lost_events += rhs.device_lost_events;
        self.hang_stall_cycles += rhs.hang_stall_cycles;
    }
}

impl std::iter::Sum for Counters {
    fn sum<I: Iterator<Item = Counters>>(iter: I) -> Counters {
        iter.fold(Counters::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Counters {
        Counters {
            dmma_ops: 10,
            global_read_requests: 8,
            global_write_requests: 2,
            uncoalesced_requests: 5,
            shared_read_requests: 4,
            shared_read_conflicts: 6,
            shared_write_requests: 4,
            shared_write_conflicts: 2,
            ..Default::default()
        }
    }

    #[test]
    fn uga_percent() {
        let c = sample();
        assert!((c.uncoalesced_global_access_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn uga_of_empty_ledger_is_zero() {
        assert_eq!(Counters::default().uncoalesced_global_access_pct(), 0.0);
    }

    #[test]
    fn bank_conflicts_per_request_counts_loads_and_stores() {
        let c = sample();
        assert!((c.bank_conflicts_per_request() - 1.0).abs() < 1e-12);
        assert!((c.load_bank_conflicts_per_request() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn add_is_fieldwise() {
        let c = sample() + sample();
        assert_eq!(c.dmma_ops, 20);
        assert_eq!(c.uncoalesced_requests, 10);
        assert_eq!(c.shared_read_conflicts, 12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Counters = (0..4).map(|_| sample()).sum();
        assert_eq!(total.dmma_ops, 40);
    }

    #[test]
    fn scaled_multiplies_every_rate_field() {
        let c = sample().scaled(3.0);
        assert_eq!(c.dmma_ops, 30);
        assert_eq!(c.global_read_requests, 24);
        assert_eq!(c.shared_write_conflicts, 6);
    }

    #[test]
    fn scaled_carries_fault_counters_through_unscaled() {
        // Fault counters record discrete events from the measured run, not
        // per-point rates; a projection must not fabricate (or erase) them.
        let c = Counters {
            frag_faults_injected: 2,
            smem_faults_injected: 1,
            launch_faults_injected: 3,
            ..sample()
        };
        for factor in [0.25, 1.0, 1000.0] {
            let p = c.scaled(factor);
            assert_eq!(p.frag_faults_injected, 2, "factor {factor}");
            assert_eq!(p.smem_faults_injected, 1, "factor {factor}");
            assert_eq!(p.launch_faults_injected, 3, "factor {factor}");
        }
        // Rate-like fields still scale.
        assert_eq!(c.scaled(2.0).dmma_ops, 20);
    }

    #[test]
    fn field_pairs_cover_every_field_and_set_field_round_trips() {
        let c = Counters {
            frag_faults_injected: 9,
            ..sample()
        };
        let mut rebuilt = Counters::default();
        for (name, v) in c.field_pairs() {
            assert!(rebuilt.set_field(name, v), "unknown field {name}");
        }
        assert_eq!(rebuilt, c);
        assert!(!rebuilt.set_field("not_a_counter", 1));
    }

    #[test]
    fn saturating_sub_is_fieldwise_and_clamps() {
        let big = sample() + sample();
        let delta = big.saturating_sub(&sample());
        assert_eq!(delta, sample());
        // Subtracting a larger ledger clamps to zero, never wraps.
        let clamped = sample().saturating_sub(&big);
        assert_eq!(clamped, Counters::default());
    }

    #[test]
    fn inflation_defaults_to_one_when_no_traffic() {
        let c = Counters::default();
        assert_eq!(c.global_read_inflation(), 1.0);
        assert_eq!(c.global_write_inflation(), 1.0);
    }
}
