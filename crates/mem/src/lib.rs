//! The memory subsystem of the CHERI-SIMT model (Section 3.4 of the paper).
//!
//! Components, mirroring the SIMTight evaluation SoC (Figure 9):
//!
//! * [`MainMemory`] — the tagged store: byte-addressable data plus one
//!   hidden tag bit per naturally-aligned 32-bit word (the paper's chosen
//!   granularity; a 64-bit capability is valid only if both halves are
//!   tagged). It is the functional state of the DDR4-backed DRAM *and* of
//!   the scratchpad: the two memories differ in timing only, so the
//!   load/store/capability-transfer semantics exist once.
//! * [`TagController`] — sits in front of DRAM, serving tag bits from a
//!   reserved region through a small `TagCache` so that data+tag access
//!   appears atomic (Joannou et al., "Efficient Tagged Memory").
//! * [`CoalescingUnit`] — packs per-lane requests into a small set of wide
//!   (64-byte) DRAM transactions using Tesla-style same-block rules.
//! * [`Scratchpad`] — banked shared local memory with 33-bit words (data +
//!   tag): a [`MainMemory`] of its own (reached through `Deref`) plus the
//!   bank-conflict serialisation model for parallel random access.
//! * [`Dram`] — a latency/bandwidth channel model with traffic counters
//!   (drives Figure 12, DRAM bandwidth usage).
//!
//! 64-bit capability accesses are *multi-flit transactions*: two inseparable
//! 32-bit accesses, so the data-path width is unchanged at the cost of a
//! two-cycle capability access time.

mod coalesce;
mod dram;
mod inject;
pub mod map;
mod scratch;
mod tagcache;

pub use coalesce::{coalesce_blocks, Coalesced, CoalescingUnit, LaneRequest, TRANSACTION_BYTES};
pub use dram::{Dram, DramConfig, DramStats};
pub use inject::{FaultInjector, Injection, InjectionKind};
pub use scratch::{ScratchStats, Scratchpad};
pub use tagcache::{TagCacheConfig, TagCacheStats, TagController};

use cheri_cap::CapMem;

/// A fault reported by the memory subsystem (not a CHERI fault — those are
/// raised by the pipeline before the request reaches memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// The address does not map to DRAM, scratchpad, or instruction memory.
    Unmapped(u32),
    /// The access is not naturally aligned.
    Misaligned(u32),
    /// The access width is not one of the supported sizes (1/2/4 bytes).
    BadWidth(u32),
}

impl core::fmt::Display for MemFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemFault::Unmapped(a) => write!(f, "unmapped address {a:#010x}"),
            MemFault::Misaligned(a) => write!(f, "misaligned access at {a:#010x}"),
            MemFault::BadWidth(w) => write!(f, "unsupported access width {w}"),
        }
    }
}

impl std::error::Error for MemFault {}

/// Byte-addressable tagged memory (functional state): the contents of DRAM
/// and, inside a [`Scratchpad`], of the shared local memory.
///
/// Timing and traffic are modelled separately by [`Dram`] and
/// [`TagController`] (or the scratchpad's banking model); this type holds
/// the bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MainMemory {
    data: Vec<u8>,
    /// One tag bit per naturally-aligned 32-bit word.
    tags: Vec<u64>,
    base: u32,
    /// Fault-injected unmapped windows `(base, len)`. Consulted only by the
    /// device-visible probes ([`Self::check`], [`Self::check_cap`] and,
    /// through them, the checked accessors) — never by the host bulk-I/O
    /// helpers, so host readback of a trapped buffer keeps working while
    /// the window is installed.
    holes: Vec<(u32, u32)>,
}

impl MainMemory {
    /// Allocate `size` bytes of memory starting at physical address `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of 64 (the transaction size).
    pub fn new(base: u32, size: u32) -> Self {
        assert_eq!(size % 64, 0, "memory size must be a multiple of 64 bytes");
        MainMemory {
            data: vec![0; size as usize],
            tags: vec![0; (size as usize / 4).div_ceil(64)],
            base,
            holes: Vec::new(),
        }
    }

    /// Does `[addr, addr+len)` overlap a fault-injected unmapped window?
    #[inline]
    fn holed(&self, addr: u32, len: u32) -> bool {
        let (a, l) = (addr as u64, len as u64);
        self.holes.iter().any(|&(b, n)| a < b as u64 + n as u64 && a + l > b as u64)
    }

    /// Base physical address.
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// Size in bytes.
    pub(crate) fn size(&self) -> u32 {
        self.data.len() as u32
    }

    /// Does `[addr, addr+len)` fall entirely inside this memory?
    pub(crate) fn contains(&self, addr: u32, len: u32) -> bool {
        let a = addr as u64;
        a >= self.base as u64 && a + len as u64 <= self.base as u64 + self.data.len() as u64
    }

    #[inline]
    fn off(&self, addr: u32) -> usize {
        (addr - self.base) as usize
    }

    /// Validation-only probe: succeeds exactly when [`Self::read`] (or
    /// [`Self::write`], whose checks are identical) would, without touching
    /// the data. Fault priority matches the accessors — width, then
    /// mapping, then alignment — so probe-then-access reports the same
    /// fault an access-first path would.
    pub fn check(&self, addr: u32, width: u32) -> Result<(), MemFault> {
        if !matches!(width, 1 | 2 | 4) {
            return Err(MemFault::BadWidth(width));
        }
        if !self.contains(addr, width) || self.holed(addr, width) {
            return Err(MemFault::Unmapped(addr));
        }
        // A power of two by the match above: a mask, not a divide.
        if addr & (width - 1) != 0 {
            return Err(MemFault::Misaligned(addr));
        }
        Ok(())
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

    /// Read `width` (1/2/4) bytes, zero-extended.
    ///
    /// # Errors
    ///
    /// Fails on unsupported widths and unmapped or misaligned accesses.
    pub fn read(&self, addr: u32, width: u32) -> Result<u32, MemFault> {
        self.check(addr, width)?;
        Ok(self.read_vouched(addr, width))
    }

    /// Write `width` (1/2/4) bytes; clears the covering word's tag bit.
    ///
    /// # Errors
    ///
    /// Fails on unsupported widths and unmapped or misaligned accesses.
    pub fn write(&mut self, addr: u32, value: u32, width: u32) -> Result<(), MemFault> {
        self.check(addr, width)?;
        self.write_vouched(addr, value, width);
        Ok(())
    }

    /// [`Self::read`] of an access whose [`Self::check`] the caller has
    /// already passed: it only indexes the storage. The check is a debug
    /// assertion, and slice indexing still bounds every access.
    #[inline]
    pub fn read_vouched(&self, addr: u32, width: u32) -> u32 {
        debug_assert_eq!(self.check(addr, width), Ok(()));
        let o = self.off(addr);
        match width {
            1 => self.data[o] as u32,
            2 => u16::from_le_bytes([self.data[o], self.data[o + 1]]) as u32,
            _ => u32::from_le_bytes(self.data[o..o + 4].try_into().unwrap()),
        }
    }

    /// [`Self::write`] of an access whose [`Self::check`] the caller has
    /// already passed (see [`Self::read_vouched`]).
    #[inline]
    pub fn write_vouched(&mut self, addr: u32, value: u32, width: u32) {
        debug_assert_eq!(self.check(addr, width), Ok(()));
        let o = self.off(addr);
        match width {
            1 => self.data[o] = value as u8,
            2 => self.data[o..o + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            _ => self.data[o..o + 4].copy_from_slice(&value.to_le_bytes()),
        }
        self.set_tag(addr, false);
    }

    /// The tag bit of the 32-bit word containing `addr`.
    pub(crate) fn tag(&self, addr: u32) -> bool {
        let w = self.off(addr & !3) / 4;
        self.tags[w / 64] & (1 << (w % 64)) != 0
    }

    fn set_tag(&mut self, addr: u32, tag: bool) {
        let w = self.off(addr & !3) / 4;
        if tag {
            self.tags[w / 64] |= 1 << (w % 64);
        } else {
            self.tags[w / 64] &= !(1 << (w % 64));
        }
    }

    /// Load a 64+1-bit capability (two atomic 32-bit flits plus tags).
    /// The result is tagged only if both word tags are set (the paper's
    /// invariant for its 32-bit tag granularity).
    ///
    /// # Errors
    ///
    /// Fails on unmapped or misaligned (non-8-byte-aligned) accesses.
    pub fn read_cap(&self, addr: u32) -> Result<CapMem, MemFault> {
        self.check_cap(addr)?;
        Ok(self.read_cap_vouched(addr))
    }

    /// Store a 64+1-bit capability (two atomic 32-bit flits plus tags).
    ///
    /// # Errors
    ///
    /// Fails on unmapped or misaligned (non-8-byte-aligned) accesses.
    pub fn write_cap(&mut self, addr: u32, cap: CapMem) -> Result<(), MemFault> {
        self.check_cap(addr)?;
        self.write_cap_vouched(addr, cap);
        Ok(())
    }

    /// [`Self::read_cap`] of an access whose [`Self::check_cap`] the caller
    /// has already passed (see [`Self::read_vouched`]).
    #[inline]
    pub fn read_cap_vouched(&self, addr: u32) -> CapMem {
        debug_assert_eq!(self.check_cap(addr), Ok(()));
        let lo = self.read_vouched(addr, 4);
        let hi = self.read_vouched(addr + 4, 4);
        let tag = self.tag(addr) && self.tag(addr + 4);
        CapMem::from_bits(((hi as u64) << 32) | lo as u64, tag)
    }

    /// [`Self::write_cap`] of an access whose [`Self::check_cap`] the
    /// caller has already passed (see [`Self::read_vouched`]).
    #[inline]
    pub fn write_cap_vouched(&mut self, addr: u32, cap: CapMem) {
        debug_assert_eq!(self.check_cap(addr), Ok(()));
        self.write_vouched(addr, cap.bits() as u32, 4);
        self.write_vouched(addr + 4, (cap.bits() >> 32) as u32, 4);
        self.set_tag(addr, cap.tag());
        self.set_tag(addr + 4, cap.tag());
    }

    /// Bulk copy-in for the host runtime (clears covered tags).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        assert!(self.contains(addr, bytes.len() as u32), "write_bytes out of range");
        let o = self.off(addr);
        self.data[o..o + bytes.len()].copy_from_slice(bytes);
        let mut a = addr & !3;
        while a < addr + bytes.len() as u32 {
            self.set_tag(a, false);
            a += 4;
        }
    }

    /// Revocation sweep (temporal safety, Cornucopia-style): clear the tag
    /// of every capability in memory whose bounds intersect
    /// `[base, base+len)`. Returns the number of capabilities revoked.
    ///
    /// The paper defers temporal safety to future work but notes that CHERI
    /// "lays the foundation" for it: because capabilities are precisely
    /// distinguishable from data (the tag bits), the allocator can sweep
    /// memory and revoke all references into a freed region.
    pub fn revoke_region(&mut self, base: u32, len: u32) -> u32 {
        let top = base as u64 + len as u64;
        let mut revoked = 0;
        let mut addr = self.base;
        while addr + 8 <= self.base + self.size() {
            if self.tag(addr) && self.tag(addr + 4) {
                let cap =
                    cheri_cap::CapPipe::from_mem(self.read_cap(addr).expect("aligned in-range"));
                if cap.tag() && (cap.base() as u64) < top && cap.top() > base as u64 {
                    self.set_tag(addr, false);
                    self.set_tag(addr + 4, false);
                    revoked += 1;
                }
            }
            addr += 8;
        }
        revoked
    }

    /// Bulk copy-out for the host runtime.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, addr: u32, len: u32) -> &[u8] {
        assert!(self.contains(addr, len), "read_bytes out of range");
        let o = self.off(addr);
        &self.data[o..o + len as usize]
    }

    // --- Fault injection (see [`inject::FaultInjector`]) ----------------
    //
    // These bypass the architectural write paths on purpose: they model
    // physical upsets (a flipped tag bit, a corrupted DRAM word, a
    // depopulated address window), not software stores. The tag cache is a
    // timing model over this functional state, so flipping a tag here is
    // exactly what a flipped line in the tag cache's backing store looks
    // like to the pipeline.

    /// Force the tag bit of the 32-bit word containing `addr`, without
    /// touching the data (a software store would clear it instead).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside this memory.
    pub(crate) fn inject_set_tag(&mut self, addr: u32, tag: bool) {
        assert!(self.contains(addr & !3, 4), "inject_set_tag out of range");
        self.set_tag(addr, tag);
    }

    /// XOR `xor` into the 32-bit word containing `addr` while *preserving*
    /// the covering tag bit — a tagged capability keeps its tag but now
    /// decodes to corrupted metadata/address bits.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside this memory.
    pub(crate) fn inject_corrupt_word(&mut self, addr: u32, xor: u32) {
        let a = addr & !3;
        assert!(self.contains(a, 4), "inject_corrupt_word out of range");
        let o = self.off(a);
        let word = u32::from_le_bytes(self.data[o..o + 4].try_into().unwrap()) ^ xor;
        self.data[o..o + 4].copy_from_slice(&word.to_le_bytes());
    }

    /// Install an unmapped window: device accesses overlapping
    /// `[base, base+len)` fault with [`MemFault::Unmapped`] until
    /// [`Self::clear_unmapped_windows`] removes it. Host bulk I/O is not
    /// affected.
    pub fn inject_unmap_window(&mut self, base: u32, len: u32) {
        self.holes.push((base, len));
    }

    /// Remove every injected unmapped window.
    pub fn clear_unmapped_windows(&mut self) {
        self.holes.clear();
    }

    /// Is any injected unmapped window installed? Without one, mapping is
    /// an interval test: an access is mapped exactly when its first and
    /// last bytes are.
    pub fn has_unmapped_windows(&self) -> bool {
        !self.holes.is_empty()
    }

    /// Addresses (8-aligned) of every validly-tagged capability currently
    /// in memory — the candidate set for tag/metadata injection.
    pub(crate) fn tagged_cap_addrs(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut addr = self.base;
        while addr + 8 <= self.base + self.size() {
            if self.tag(addr) && self.tag(addr + 4) {
                out.push(addr);
            }
            addr += 8;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::CapPipe;

    #[test]
    fn read_write_widths() {
        let mut m = MainMemory::new(0x8000_0000, 4096);
        m.write(0x8000_0010, 0xDEAD_BEEF, 4).unwrap();
        assert_eq!(m.read(0x8000_0010, 4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(m.read(0x8000_0010, 1).unwrap(), 0xEF);
        assert_eq!(m.read(0x8000_0012, 2).unwrap(), 0xDEAD);
        m.write(0x8000_0011, 0x42, 1).unwrap();
        assert_eq!(m.read(0x8000_0010, 4).unwrap(), 0xDEAD_42EF);
    }

    #[test]
    fn faults() {
        let mut m = MainMemory::new(0x8000_0000, 4096);
        assert_eq!(m.read(0x7FFF_FFFF, 1), Err(MemFault::Unmapped(0x7FFF_FFFF)));
        assert_eq!(m.read(0x8000_1000, 1), Err(MemFault::Unmapped(0x8000_1000)));
        assert_eq!(m.read(0x8000_0001, 4), Err(MemFault::Misaligned(0x8000_0001)));
        assert_eq!(m.write(0x8000_0002, 0, 4), Err(MemFault::Misaligned(0x8000_0002)));
        assert_eq!(m.read_cap(0x8000_0004), Err(MemFault::Misaligned(0x8000_0004)));
    }

    #[test]
    fn tags_track_capability_stores() {
        let mut m = MainMemory::new(0x8000_0000, 4096);
        let c = CapPipe::almighty().set_addr(0x8000_0100).to_mem();
        m.write_cap(0x8000_0020, c).unwrap();
        let back = m.read_cap(0x8000_0020).unwrap();
        assert_eq!(back, c);
        assert!(back.tag());
        // Overwriting one half with data clears the pair's validity.
        m.write(0x8000_0024, 0x1234, 4).unwrap();
        assert!(!m.read_cap(0x8000_0020).unwrap().tag());
        // And the data halves read back as plain words.
        assert_eq!(m.read(0x8000_0024, 4).unwrap(), 0x1234);
    }

    #[test]
    fn tag_forging_is_impossible() {
        // Writing the exact bit pattern of a valid capability as data does
        // not make it dereferenceable: the tag stays clear.
        let mut m = MainMemory::new(0x8000_0000, 4096);
        let c = CapPipe::almighty().to_mem();
        m.write(0x8000_0040, c.bits() as u32, 4).unwrap();
        m.write(0x8000_0044, (c.bits() >> 32) as u32, 4).unwrap();
        let forged = m.read_cap(0x8000_0040).unwrap();
        assert_eq!(forged.bits(), c.bits());
        assert!(!forged.tag());
    }

    #[test]
    fn bulk_io() {
        let mut m = MainMemory::new(0x8000_0000, 4096);
        m.write_cap(0x8000_0060, CapPipe::almighty().to_mem()).unwrap();
        m.write_bytes(0x8000_0060, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x8000_0060, 5), &[1, 2, 3, 4, 5]);
        // Bulk writes strip tags.
        assert!(!m.read_cap(0x8000_0060).unwrap().tag());
    }
}
