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
        // A warp never issues more than 64 lane requests, so the distinct
        // (bank, word) pairs fit on the stack — no per-access heap traffic
        // on the simulator's hot path. (Oversized request sets would be API
        // misuse; serve them through the boxed fallback all the same.)
        let worst = if reqs.len() <= 64 {
            let mut seen = [(0u32, 0u32); 64];
            let mut n = 0usize;
            for r in reqs {
                let word = (r.addr.wrapping_sub(self.mem.base())) / 4;
                let pair = (word % self.banks, word);
                if !seen[..n].contains(&pair) {
                    seen[n] = pair;
                    n += 1;
                }
            }
            (0..n).map(|i| seen[..n].iter().filter(|p| p.0 == seen[i].0).count()).max().unwrap_or(1)
                as u32
        } else {
            let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); self.banks as usize];
            for r in reqs {
                let word = (r.addr.wrapping_sub(self.mem.base())) / 4;
                let bank = (word % self.banks) as usize;
                if !per_bank[bank].contains(&word) {
                    per_bank[bank].push(word);
                }
            }
            per_bank.iter().map(Vec::len).max().unwrap_or(1).max(1) as u32
        };
        self.stats.conflict_cycles += (worst - 1) as u64;
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
