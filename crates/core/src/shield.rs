//! A GPUShield-style bounds table (Lee et al., ISCA 2022) — the prior
//! hardware approach the paper compares against in Section 5.2/Figure 15.
//!
//! Buffer pointers carry a 4-bit table index in address bits 27:24 (free
//! bits: the modelled DRAM is at `0x8000_0000` and at most 16 MiB). On
//! every DRAM access the SM looks the index up, checks the stripped
//! address against the region bounds, and forwards the real address.
//! Index 0 marks an *unprotected* pointer that bypasses the check — the
//! mechanism GPUShield uses for statically-safe accesses, and the source
//! of its forgeability weakness (any kernel can craft an index-0 pointer
//! to anywhere).

use crate::trap::TrapCause;

/// Bit position of the 4-bit region id within a pointer.
pub(crate) const ID_SHIFT: u32 = 24;
/// Mask of the id field (within the address).
pub const ID_MASK: u32 = 0xF << ID_SHIFT;
/// Number of protectable regions (id 0 is "unprotected").
pub const MAX_REGIONS: usize = 15;

/// The per-launch bounds table. Set up by the host before the kernel runs
/// and immutable during execution (GPUShield cannot protect dynamically
/// allocated buffers — Figure 15).
#[derive(Debug, Clone, Default)]
pub struct BoundsTable {
    /// `entries[id - 1] = (base, length_bytes)`.
    entries: Vec<(u32, u32)>,
}

impl BoundsTable {
    /// Build a table from `(base, length)` pairs, in id order (1, 2, ...).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_REGIONS`] regions are given.
    pub fn new(regions: Vec<(u32, u32)>) -> Self {
        assert!(regions.len() <= MAX_REGIONS, "bounds table overflow");
        BoundsTable { entries: regions }
    }

    /// Tag `addr` with region `id` (1-based).
    pub fn tag(addr: u32, id: u32) -> u32 {
        debug_assert!(id >= 1 && id <= MAX_REGIONS as u32);
        debug_assert_eq!(addr & ID_MASK, 0, "address bits collide with the id field");
        addr | (id << ID_SHIFT)
    }

    /// Check and translate an effective address: strips the id and verifies
    /// the access is inside the region. Unprotected (id 0) and non-DRAM
    /// addresses pass through untouched.
    ///
    /// # Errors
    ///
    /// Returns the trap cause on a bounds violation.
    pub(crate) fn translate(&self, ea: u32, bytes: u32) -> Result<u32, TrapCause> {
        if ea & 0x8000_0000 == 0 {
            return Ok(ea); // scratchpad/TCIM: GPUShield cannot protect these
        }
        let id = (ea & ID_MASK) >> ID_SHIFT;
        if id == 0 {
            return Ok(ea); // unprotected pointer: unchecked
        }
        let real = ea & !ID_MASK;
        match self.entries.get(id as usize - 1) {
            Some(&(base, len))
                if real >= base && real as u64 + bytes as u64 <= base as u64 + len as u64 =>
            {
                Ok(real)
            }
            _ => Err(TrapCause::RegionBound(real)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_check_strip() {
        let t = BoundsTable::new(vec![(0x8000_1000, 256)]);
        let p = BoundsTable::tag(0x8000_1000, 1);
        assert_eq!(t.translate(p, 4).unwrap(), 0x8000_1000);
        assert_eq!(t.translate(p + 252, 4).unwrap(), 0x8000_10FC);
        assert!(t.translate(p + 256, 1).is_err());
        assert!(t.translate(p + 253, 4).is_err(), "straddles the end");
        assert!(t.translate(p.wrapping_sub(4), 4).is_err());
    }

    #[test]
    fn unprotected_and_foreign_addresses_bypass() {
        let t = BoundsTable::new(vec![(0x8000_1000, 16)]);
        // id 0: anything goes — the forgeability hole.
        assert_eq!(t.translate(0x80FF_FFFC & !ID_MASK, 4).unwrap(), 0x80FF_FFFC & !ID_MASK);
        // scratchpad: not translatable at all.
        assert_eq!(t.translate(0x4000_0010, 4).unwrap(), 0x4000_0010);
    }

    #[test]
    fn unknown_id_faults() {
        let t = BoundsTable::new(vec![(0x8000_1000, 16)]);
        let p = BoundsTable::tag(0x8000_1000, 1) | (7 << ID_SHIFT);
        assert!(t.translate(p, 4).is_err());
    }
}
