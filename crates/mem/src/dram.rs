//! DRAM channel timing model and traffic accounting.
//!
//! The model captures what the evaluation needs: a fixed access latency that
//! warp multithreading can hide, a finite transaction rate that creates
//! bandwidth back-pressure, and byte/transaction counters that drive
//! Figure 12 (DRAM bandwidth usage with/without CHERI).

use crate::coalesce::TRANSACTION_BYTES;

/// DRAM channel parameters.
#[derive(Debug, Clone, Copy)]
pub struct DramConfig {
    /// Round-trip access latency in SM cycles (DDR4 behind an FPGA SoC).
    pub latency: u32,
    /// Channel occupancy per 64-byte transaction, in SM cycles. The
    /// evaluation SoC's 512-bit bus moves one transaction per cycle, but
    /// command overheads make two cycles a better fit.
    pub cycles_per_transaction: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig { latency: 200, cycles_per_transaction: 2 }
    }
}

/// Traffic counters (cumulative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// 64-byte read transactions issued for data.
    pub read_transactions: u64,
    /// 64-byte write transactions issued for data.
    pub write_transactions: u64,
    /// Transactions issued on behalf of the tag controller.
    pub tag_transactions: u64,
    /// Cycles the channel was occupied.
    pub busy_cycles: u64,
    /// Accesses where the channel ownership changed between SMs (always 0
    /// on a single-SM device).
    pub cross_sm_switches: u64,
    /// Queueing cycles paid at those ownership switches — channel time one
    /// SM spent waiting behind another SM's in-flight transactions.
    pub cross_sm_wait_cycles: u64,
}

impl DramStats {
    /// Total bytes moved (data + tag traffic).
    pub fn total_bytes(&self) -> u64 {
        (self.read_transactions + self.write_transactions + self.tag_transactions)
            * TRANSACTION_BYTES as u64
    }
}

/// The DRAM channel.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    stats: DramStats,
    /// Cycle at which the channel becomes free.
    free_at: u64,
    /// SM currently driving the channel (set by the device arbiter).
    accessor: u32,
    /// SM that issued the previous non-empty batch.
    last_accessor: Option<u32>,
}

impl Dram {
    /// Create a channel with the given parameters.
    pub fn new(cfg: DramConfig) -> Self {
        Dram { cfg, stats: DramStats::default(), free_at: 0, accessor: 0, last_accessor: None }
    }

    /// Tell the channel which SM is driving it from now on (device arbiter
    /// hook). Subsequent accesses from a *different* SM than the previous
    /// batch count towards the cross-SM contention statistics.
    pub fn set_accessor(&mut self, sm: u32) {
        self.accessor = sm;
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Reset the statistics (e.g. between kernel launches).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        self.free_at = 0;
        self.last_accessor = None;
    }

    /// Issue `n` transactions at time `now`; returns the cycle at which the
    /// data is available (queueing + latency).
    pub fn access(&mut self, now: u64, reads: u32, writes: u32, tag_txns: u32) -> u64 {
        let n = reads + writes + tag_txns;
        if n == 0 {
            return now;
        }
        if let Some(prev) = self.last_accessor {
            if prev != self.accessor {
                self.stats.cross_sm_switches += 1;
                self.stats.cross_sm_wait_cycles += self.free_at.saturating_sub(now);
            }
        }
        self.last_accessor = Some(self.accessor);
        self.stats.read_transactions += reads as u64;
        self.stats.write_transactions += writes as u64;
        self.stats.tag_transactions += tag_txns as u64;
        let start = self.free_at.max(now);
        let occupancy = (n * self.cfg.cycles_per_transaction) as u64;
        self.free_at = start + occupancy;
        self.stats.busy_cycles += occupancy;
        start + occupancy + self.cfg.latency as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_queueing() {
        let mut d = Dram::new(DramConfig { latency: 100, cycles_per_transaction: 2 });
        // First access: 1 txn, done at 2 + 100.
        assert_eq!(d.access(0, 1, 0, 0), 102);
        // Back-to-back access queues behind the first.
        assert_eq!(d.access(0, 1, 0, 0), 104);
        // A later access after the channel drained sees only latency.
        assert_eq!(d.access(1000, 1, 0, 0), 1102);
        assert_eq!(d.stats().read_transactions, 3);
    }

    #[test]
    fn zero_transactions_is_free() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.access(42, 0, 0, 0), 42);
        assert_eq!(d.stats(), DramStats::default());
    }

    #[test]
    fn byte_accounting() {
        let mut d = Dram::new(DramConfig::default());
        d.access(0, 2, 1, 1);
        assert_eq!(d.stats().total_bytes(), 4 * 64);
    }
}
