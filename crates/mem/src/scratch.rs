//! The scratchpad: banked shared local memory with parallel random access.
//!
//! Implemented (in hardware) as a set of SRAM banks behind a fast switching
//! network; words are 33 bits wide under CHERI so capabilities can live in
//! shared memory. Bank conflicts serialise: the access takes as many cycles
//! as the most-contended bank has requests.
//!
//! Functionally the scratchpad *is* a [`MainMemory`] — the same tagged
//! store, reached through `Deref` — and differs from DRAM only in timing,
//! which is all this module adds.

use crate::{LaneRequest, MainMemory};
use core::ops::{Deref, DerefMut};

/// The scratchpad memory: a tagged store plus the banking model.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    /// The contents (data plus the 33rd, tag, bit of each bank entry).
    mem: MainMemory,
    banks: u32,
    stats: ScratchStats,
}

/// Scratchpad access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Warp-wide accesses served.
    pub accesses: u64,
    /// Extra cycles spent serialising bank conflicts.
    pub conflict_cycles: u64,
}

/// The functional accessors (`base`, `size`, `check`, `check_cap`, `read`,
/// `write`, `read_cap`, `write_cap`, ...) are the store's own.
impl Deref for Scratchpad {
    type Target = MainMemory;

    fn deref(&self) -> &MainMemory {
        &self.mem
    }
}

impl DerefMut for Scratchpad {
    fn deref_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }
}

impl Scratchpad {
    /// Create a scratchpad of `size` bytes at `base` with `banks` banks
    /// (typically one per vector lane).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two, if `size` is not a multiple
    /// of `4 * banks`, or — inherited from [`MainMemory::new`] — if `size`
    /// is not a multiple of 64.
    pub fn new(base: u32, size: u32, banks: u32) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        assert_eq!(size % (4 * banks), 0, "size must fill all banks evenly");
        Scratchpad { mem: MainMemory::new(base, size), banks, stats: ScratchStats::default() }
    }

    /// Access statistics.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    /// Reset statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = ScratchStats::default();
    }

    /// Account for one warp-wide access: returns the number of cycles the
    /// switching network needs (1 + conflicts; a bank with `k` requests to
    /// distinct words serialises over `k` cycles, but identical addresses
    /// broadcast for free).
    pub fn warp_cycles(&mut self, reqs: &[LaneRequest]) -> u32 {
        if reqs.is_empty() {
            return 0;
        }
        self.stats.accesses += 1;
        // Sort the requests by (bank, word); the longest run of distinct
        // words in one bank is the worst bank's serialisation. A warp never
        // issues more than 64 lane requests, so the keys fit on the stack;
        // the heap only serves oversized (out-of-contract) request sets.
        let (base, bank_mask) = (self.mem.base(), self.banks - 1);
        let mut stack = [0u64; 64];
        let mut heap = Vec::new();
        let keys = if reqs.len() <= stack.len() {
            &mut stack[..reqs.len()]
        } else {
            heap.resize(reqs.len(), 0);
            &mut heap[..]
        };
        for (k, r) in keys.iter_mut().zip(reqs) {
            let word = r.addr.wrapping_sub(base) / 4;
            *k = u64::from(word & bank_mask) << 32 | u64::from(word);
        }
        keys.sort_unstable();
        let (mut worst, mut run) = (1, 1);
        for pair in keys.windows(2) {
            if pair[1] == pair[0] {
                continue; // same word: a broadcast
            }
            run = if pair[1] >> 32 == pair[0] >> 32 { run + 1 } else { 1 };
            worst = worst.max(run);
        }
        self.stats.conflict_cycles += u64::from(worst - 1);
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFault;
    use cheri_cap::CapPipe;

    const BASE: u32 = 0x4000_0000;

    fn sp() -> Scratchpad {
        Scratchpad::new(BASE, 64 * 1024, 32)
    }

    #[test]
    fn read_write_subword() {
        let mut s = sp();
        s.write(BASE + 8, 0xAABBCCDD, 4).unwrap();
        assert_eq!(s.read(BASE + 8, 4).unwrap(), 0xAABBCCDD);
        assert_eq!(s.read(BASE + 9, 1).unwrap(), 0xCC);
        s.write(BASE + 10, 0x11, 1).unwrap();
        assert_eq!(s.read(BASE + 8, 4).unwrap(), 0xAA11CCDD);
        assert_eq!(s.read(BASE + 8, 2).unwrap(), 0xCCDD);
    }

    #[test]
    fn capability_storage_with_tags() {
        let mut s = sp();
        let c = CapPipe::almighty().set_addr(123).to_mem();
        s.write_cap(BASE + 16, c).unwrap();
        assert_eq!(s.read_cap(BASE + 16).unwrap(), c);
        s.write(BASE + 16, 0, 1).unwrap();
        assert!(!s.read_cap(BASE + 16).unwrap().tag());
    }

    #[test]
    fn bank_conflicts_serialise() {
        let mut s = sp();
        // All lanes hit distinct words of the same bank: stride = banks*4.
        let reqs: Vec<_> =
            (0..32).map(|i| LaneRequest { addr: BASE + i * 32 * 4, bytes: 4 }).collect();
        assert_eq!(s.warp_cycles(&reqs), 32);
        // Conflict-free unit stride.
        let reqs: Vec<_> = (0..32).map(|i| LaneRequest { addr: BASE + i * 4, bytes: 4 }).collect();
        assert_eq!(s.warp_cycles(&reqs), 1);
        // Broadcast: all lanes read the same word.
        let reqs: Vec<_> = (0..32).map(|_| LaneRequest { addr: BASE, bytes: 4 }).collect();
        assert_eq!(s.warp_cycles(&reqs), 1);
        assert_eq!(s.stats().conflict_cycles, 31);
    }

    #[test]
    fn faults() {
        let mut s = sp();
        assert!(s.read(BASE - 4, 4).is_err());
        assert!(s.read(BASE + 64 * 1024, 1).is_err());
        assert!(s.write(BASE + 2, 0, 4).is_err());
        assert!(s.read_cap(BASE + 4).is_err());
    }

    /// Addresses at the top of the address space are unmapped, not an
    /// arithmetic overflow (the range check used to add in `u32`).
    #[test]
    fn top_of_address_space_is_unmapped() {
        let mut s = sp();
        assert_eq!(s.read(u32::MAX, 1), Err(MemFault::Unmapped(u32::MAX)));
        assert_eq!(s.read(u32::MAX - 3, 4), Err(MemFault::Unmapped(u32::MAX - 3)));
        assert_eq!(s.write(u32::MAX - 1, 0, 2), Err(MemFault::Unmapped(u32::MAX - 1)));
        assert_eq!(s.check(u32::MAX, 1), Err(MemFault::Unmapped(u32::MAX)));
        assert_eq!(s.check_cap(u32::MAX - 7), Err(MemFault::Unmapped(u32::MAX - 7)));
        assert_eq!(s.read_cap(u32::MAX - 7), Err(MemFault::Unmapped(u32::MAX - 7)));
    }
}
