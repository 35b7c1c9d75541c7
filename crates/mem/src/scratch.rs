//! The scratchpad: banked shared local memory with parallel random access.
//!
//! Implemented (in hardware) as a set of SRAM banks behind a fast switching
//! network; words are 33 bits wide under CHERI so capabilities can live in
//! shared memory. Bank conflicts serialise: the access takes as many cycles
//! as the most-contended bank has requests.

use crate::{LaneRequest, MemFault};
use cheri_cap::CapMem;

/// The scratchpad memory.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    base: u32,
    words: Vec<u32>,
    /// Tag bit per 32-bit word (the 33rd bit of each bank entry).
    tags: Vec<u64>,
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

impl Scratchpad {
    /// Create a scratchpad of `size` bytes at `base` with `banks` banks
    /// (typically one per vector lane).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of `4 * banks`.
    pub fn new(base: u32, size: u32, banks: u32) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        assert_eq!(size % (4 * banks), 0, "size must fill all banks evenly");
        Scratchpad {
            base,
            words: vec![0; (size / 4) as usize],
            tags: vec![0; ((size / 4) as usize).div_ceil(64)],
            banks,
            stats: ScratchStats::default(),
        }
    }

    /// Base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.words.len() as u32 * 4
    }

    /// Access statistics.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    /// Reset statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = ScratchStats::default();
    }

    fn word_index(&self, addr: u32, bytes: u32) -> Result<usize, MemFault> {
        if !matches!(bytes, 1 | 2 | 4) {
            return Err(MemFault::BadWidth(bytes));
        }
        if addr < self.base || addr + bytes > self.base + self.size() {
            return Err(MemFault::Unmapped(addr));
        }
        if !addr.is_multiple_of(bytes) {
            return Err(MemFault::Misaligned(addr));
        }
        Ok(((addr - self.base) / 4) as usize)
    }

    /// Validation-only probe: succeeds exactly when [`Self::read`] (or
    /// [`Self::write`], whose checks are identical) would, without touching
    /// the data. Fault priority matches the accessors — width, then
    /// mapping, then alignment.
    pub fn check(&self, addr: u32, bytes: u32) -> Result<(), MemFault> {
        self.word_index(addr, bytes).map(|_| ())
    }

    /// Validation-only probe for capability accesses: succeeds exactly when
    /// [`Self::read_cap`]/[`Self::write_cap`] would.
    pub fn check_cap(&self, addr: u32) -> Result<(), MemFault> {
        if !addr.is_multiple_of(8) {
            return Err(MemFault::Misaligned(addr));
        }
        self.check(addr, 4)?;
        self.check(addr + 4, 4)
    }

    /// Read `bytes` (1/2/4), zero-extended.
    ///
    /// # Errors
    ///
    /// Fails on unsupported widths and out-of-range or misaligned access.
    pub fn read(&self, addr: u32, bytes: u32) -> Result<u32, MemFault> {
        let w = self.word_index(addr, bytes)?;
        let word = self.words[w];
        let sh = (addr % 4) * 8;
        Ok(match bytes {
            1 => (word >> sh) & 0xFF,
            2 => (word >> sh) & 0xFFFF,
            _ => word,
        })
    }

    /// Write `bytes` (1/2/4); clears the word's tag bit.
    ///
    /// # Errors
    ///
    /// Fails on unsupported widths and out-of-range or misaligned access.
    pub fn write(&mut self, addr: u32, value: u32, bytes: u32) -> Result<(), MemFault> {
        let w = self.word_index(addr, bytes)?;
        let sh = (addr % 4) * 8;
        let mask = match bytes {
            1 => 0xFFu32 << sh,
            2 => 0xFFFFu32 << sh,
            _ => u32::MAX,
        };
        self.words[w] = (self.words[w] & !mask) | ((value << sh) & mask);
        self.set_tag_word(w, false);
        Ok(())
    }

    fn tag_word(&self, w: usize) -> bool {
        self.tags[w / 64] & (1 << (w % 64)) != 0
    }

    fn set_tag_word(&mut self, w: usize, tag: bool) {
        if tag {
            self.tags[w / 64] |= 1 << (w % 64);
        } else {
            self.tags[w / 64] &= !(1 << (w % 64));
        }
    }

    /// Load a capability from shared memory (8-byte aligned).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range or misaligned access.
    pub fn read_cap(&self, addr: u32) -> Result<CapMem, MemFault> {
        if !addr.is_multiple_of(8) {
            return Err(MemFault::Misaligned(addr));
        }
        let lo = self.read(addr, 4)?;
        let hi = self.read(addr + 4, 4)?;
        let w = self.word_index(addr, 4)?;
        let tag = self.tag_word(w) && self.tag_word(w + 1);
        Ok(CapMem::from_bits(((hi as u64) << 32) | lo as u64, tag))
    }

    /// Store a capability to shared memory (8-byte aligned).
    ///
    /// # Errors
    ///
    /// Fails on out-of-range or misaligned access.
    pub fn write_cap(&mut self, addr: u32, cap: CapMem) -> Result<(), MemFault> {
        if !addr.is_multiple_of(8) {
            return Err(MemFault::Misaligned(addr));
        }
        self.write(addr, cap.bits() as u32, 4)?;
        self.write(addr + 4, (cap.bits() >> 32) as u32, 4)?;
        let w = self.word_index(addr, 4)?;
        self.set_tag_word(w, cap.tag());
        self.set_tag_word(w + 1, cap.tag());
        Ok(())
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
                let word = (r.addr.wrapping_sub(self.base)) / 4;
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
                let word = (r.addr.wrapping_sub(self.base)) / 4;
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
}
