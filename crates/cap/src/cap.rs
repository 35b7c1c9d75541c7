//! In-memory and in-pipeline capability representations and the CheriCapLib
//! operation set (Figure 7 of the paper).

use crate::bounds::{self, Bounds, BoundsField, Region, TOP_MAX};
use crate::{otype, AccessWidth, CapException, Perms};
use core::fmt;

/// The in-memory capability format: 64 bits plus the hidden tag
/// (`CapMem = Bit 65` in Figure 7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CapMem {
    bits: u64,
    tag: bool,
}

impl CapMem {
    /// The null capability: untagged, all bits zero.
    pub const NULL: CapMem = CapMem { bits: 0, tag: false };

    /// Assemble from raw bits and a tag. No validation is performed; an
    /// arbitrary-bits capability with a set tag can only be produced by the
    /// simulator itself (software cannot forge tags).
    #[inline]
    pub fn from_bits(bits: u64, tag: bool) -> Self {
        CapMem { bits, tag }
    }

    /// The 64 architectural bits.
    #[inline]
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// The hidden tag bit.
    #[inline]
    pub fn tag(self) -> bool {
        self.tag
    }

    /// The 32-bit address field.
    #[inline]
    pub fn addr(self) -> u32 {
        self.bits as u32
    }

    /// The 32-bit metadata half (perms/otype/flag/bounds).
    #[inline]
    pub fn meta(self) -> u32 {
        (self.bits >> 32) as u32
    }

    /// Reassemble from a metadata half, an address, and a tag. This is how
    /// the SM's split register files reconstruct a capability.
    #[inline]
    pub fn from_parts(meta: u32, addr: u32, tag: bool) -> Self {
        CapMem { bits: ((meta as u64) << 32) | addr as u64, tag }
    }

    /// Replace the address, leaving metadata and tag untouched.
    ///
    /// This is *not* `CSetAddr` (no representability check) — it exists for
    /// the register-file model, which stores addresses and metadata
    /// separately.
    #[inline]
    pub fn with_addr(self, addr: u32) -> Self {
        CapMem::from_parts(self.meta(), addr, self.tag)
    }
}

impl fmt::Debug for CapMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = CapPipe::from_mem(*self);
        write!(
            f,
            "CapMem{{tag:{} addr:{:#x} base:{:#x} top:{:#x} {:?}}}",
            self.tag,
            self.addr(),
            p.base(),
            p.top(),
            p.perms()
        )
    }
}

/// The in-pipeline, partially decompressed capability format
/// (`CapPipe = Bit 91` in Figure 7): the architectural fields plus the
/// already-decoded bounds, making the per-lane hot path (`set_addr`,
/// `is_access_in_bounds`) cheap.
///
/// Next to the bounds it caches the representable [`Region`] the address
/// lies in: every address inside it decodes to the same bounds, so
/// [`CapPipe::set_addr`], [`CapPipe::inc_offset`] and
/// [`CapPipe::with_addr`] move the address there with two compares and
/// decode once only when the address leaves it. Both caches are functions
/// of the bounds field and the address, so equality and hashing mean the
/// same as on the architectural fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapPipe {
    tag: bool,
    perms: Perms,
    otype: u8,
    flag: bool,
    field: BoundsField,
    addr: u32,
    /// Decoded bounds cache — the "partially decompressed" extra bits.
    bounds: Bounds,
    /// The representable region containing `addr`.
    region: Region,
}

impl Default for CapPipe {
    fn default() -> Self {
        CapPipe::null()
    }
}

impl CapPipe {
    /// The null capability (untagged, no rights, empty bounds at zero).
    pub fn null() -> Self {
        CapPipe::from_mem(CapMem::NULL)
    }

    /// The almighty root capability: tagged, all permissions, whole address
    /// space. Only the host/runtime may mint this.
    pub fn almighty() -> Self {
        let field = BoundsField::almighty();
        let (bounds, region) = bounds::decode_region(field, 0);
        CapPipe {
            tag: true,
            perms: Perms::ALL,
            otype: otype::UNSEALED,
            flag: false,
            field,
            addr: 0,
            bounds,
            region,
        }
    }

    // ---- Format conversions (Figure 7: fromMem / toMem) ----

    /// Decompress from the in-memory format (`fromMem`, 46 ALMs).
    pub fn from_mem(m: CapMem) -> Self {
        let meta = m.meta();
        let field = BoundsField((meta & 0x7FFF) as u16);
        let addr = m.addr();
        let (bounds, region) = bounds::decode_region(field, addr);
        CapPipe {
            tag: m.tag(),
            perms: Perms::from_bits((meta >> 20) as u16),
            otype: ((meta >> 16) & 0xF) as u8,
            flag: meta & (1 << 15) != 0,
            field,
            addr,
            bounds,
            region,
        }
    }

    /// Recompress to the in-memory format (`toMem`, 0 ALMs — pure wiring).
    pub fn to_mem(self) -> CapMem {
        let meta = ((self.perms.bits() as u32) << 20)
            | ((self.otype as u32) << 16)
            | ((self.flag as u32) << 15)
            | self.field.0 as u32;
        CapMem::from_parts(meta, self.addr, self.tag)
    }

    // ---- Field accessors ----

    /// The tag (validity) bit.
    #[inline]
    pub fn tag(self) -> bool {
        self.tag
    }

    /// The current address.
    #[inline]
    pub fn addr(self) -> u32 {
        self.addr
    }

    /// The permission set.
    #[inline]
    pub fn perms(self) -> Perms {
        self.perms
    }

    /// The object type field.
    #[inline]
    pub fn otype(self) -> u8 {
        self.otype
    }

    /// Is the capability sealed (otype != unsealed)?
    #[inline]
    pub fn is_sealed(self) -> bool {
        self.otype != otype::UNSEALED
    }

    /// The single architectural flag bit (capability-mode flag).
    #[inline]
    pub fn flag(self) -> bool {
        self.flag
    }

    /// `getBase` (50 ALMs): the inclusive lower bound.
    #[inline]
    pub fn base(self) -> u32 {
        self.bounds.base
    }

    /// `getTop` (78 ALMs): the exclusive 33-bit upper bound.
    #[inline]
    pub fn top(self) -> u64 {
        self.bounds.top
    }

    /// `getLength` (20 ALMs): `top - base`, a 33-bit quantity.
    #[inline]
    pub fn length(self) -> u64 {
        self.bounds.length()
    }

    /// The representable region containing the address: every address in
    /// it decodes to these same bounds.
    #[inline]
    pub fn region(self) -> Region {
        self.region
    }

    // ---- CheriCapLib operations ----

    /// The same metadata and tag at another address: equal to
    /// `CapPipe::from_mem(self.to_mem().with_addr(addr))`. Like
    /// [`CapMem::with_addr`] this is *not* `CSetAddr` — the tag is kept
    /// whatever the bounds decode to; it is how one decoded capability
    /// stands for the next register lane with the same metadata. Two
    /// compares inside the cached region, one decode outside it.
    #[must_use]
    #[inline]
    pub fn with_addr(self, addr: u32) -> Self {
        if self.region.contains(addr) {
            return CapPipe { addr, ..self };
        }
        let (bounds, region) = bounds::decode_region(self.field, addr);
        CapPipe { addr, bounds, region, ..self }
    }

    /// `setAddr` (106 ALMs): change the address, clearing the tag if the
    /// bounds decoded at the new address differ from the current ones (the
    /// address left the representable region) or if the capability is
    /// sealed. The bounds are those decoded at the new address either way.
    #[must_use]
    #[inline]
    pub fn set_addr(self, addr: u32) -> Self {
        let moved = self.with_addr(addr);
        CapPipe { tag: self.tag && !self.is_sealed() && moved.bounds == self.bounds, ..moved }
    }

    /// `CIncOffset`: add a (signed) offset to the address, with the same
    /// representability rules as [`CapPipe::set_addr`].
    #[must_use]
    pub fn inc_offset(self, delta: u32) -> Self {
        self.set_addr(self.addr.wrapping_add(delta))
    }

    /// `isAccessInBounds` (25 ALMs): is an access of `width.bytes()` bytes at
    /// the current address fully inside the bounds?
    #[inline]
    pub fn is_access_in_bounds(self, addr: u32, width: u32) -> bool {
        let a = addr as u64;
        a >= self.bounds.base as u64 && a + width as u64 <= self.bounds.top
    }

    /// Full access check for a load/store at `addr`: tag, seal, permission,
    /// alignment (capability width only) and bounds.
    pub fn check_access(
        self,
        addr: u32,
        width: AccessWidth,
        store: bool,
        cap_access: bool,
    ) -> Result<(), CapException> {
        if !self.tag {
            return Err(CapException::TagViolation);
        }
        if self.is_sealed() {
            return Err(CapException::SealViolation);
        }
        let need = if store { Perms::STORE } else { Perms::LOAD };
        if !self.perms.contains(need) {
            return Err(if store {
                CapException::PermitStoreViolation
            } else {
                CapException::PermitLoadViolation
            });
        }
        if cap_access {
            let need = if store { Perms::STORE_CAP } else { Perms::LOAD_CAP };
            if !self.perms.contains(need) {
                return Err(if store {
                    CapException::PermitStoreCapViolation
                } else {
                    CapException::PermitLoadCapViolation
                });
            }
            if !addr.is_multiple_of(8) {
                return Err(CapException::AlignmentViolation);
            }
        }
        if !self.is_access_in_bounds(addr, width.bytes()) {
            return Err(CapException::BoundsViolation);
        }
        Ok(())
    }

    /// Instruction-fetch check against this capability as PCC.
    pub fn check_fetch(self, pc: u32) -> Result<(), CapException> {
        if !self.tag {
            return Err(CapException::TagViolation);
        }
        if !self.perms.contains(Perms::EXECUTE) {
            return Err(CapException::PermitExecuteViolation);
        }
        if !self.is_access_in_bounds(pc, 4) {
            return Err(CapException::BoundsViolation);
        }
        Ok(())
    }

    /// `setBounds` (287 ALMs): narrow the bounds to `[addr, addr + len)`,
    /// rounded outward to representability. Returns the new capability and
    /// whether the request was exact. The tag is cleared if the request is
    /// not monotone (exceeds the current bounds) or the source is sealed or
    /// untagged.
    #[must_use]
    pub fn set_bounds(self, len: u32) -> (Self, bool) {
        let base = self.addr;
        let top = base as u64 + len as u64;
        let enc = bounds::encode(base, top.min(TOP_MAX));
        let monotone = top <= TOP_MAX
            && enc.bounds.base as u64 >= self.bounds.base as u64
            && enc.bounds.top <= self.bounds.top
            // The requested region itself must also be within the source.
            && base as u64 >= self.bounds.base as u64
            && top <= self.bounds.top;
        // Rounding outward may poke outside the source bounds; real CHERI
        // clears the tag in that case too (the encoder result is what the
        // new capability grants).
        let cap = CapPipe {
            tag: self.tag && !self.is_sealed() && monotone,
            field: enc.field,
            bounds: enc.bounds,
            region: enc.region,
            ..self
        };
        (cap, enc.exact)
    }

    /// `CSetBoundsExact`: like [`CapPipe::set_bounds`] but clears the tag if
    /// the bounds were rounded.
    #[must_use]
    pub fn set_bounds_exact(self, len: u32) -> Self {
        let (cap, exact) = self.set_bounds(len);
        CapPipe { tag: cap.tag && exact, ..cap }
    }

    /// `CAndPerm`: intersect the permission set with `mask`.
    #[must_use]
    pub fn and_perm(self, mask: Perms) -> Self {
        CapPipe { perms: self.perms & mask, tag: self.tag && !self.is_sealed(), ..self }
    }

    /// `CSetFlags`: set the flag bit.
    #[must_use]
    pub fn set_flags(self, flag: bool) -> Self {
        CapPipe { flag, tag: self.tag && !self.is_sealed(), ..self }
    }

    /// `CClearTag`: clear the tag.
    #[must_use]
    pub fn clear_tag(self) -> Self {
        CapPipe { tag: false, ..self }
    }

    /// `CSealEntry`: seal as a sentry (jump target) capability.
    #[must_use]
    pub fn seal_entry(self) -> Self {
        CapPipe { otype: otype::SENTRY, tag: self.tag && !self.is_sealed(), ..self }
    }

    /// Unseal a sentry capability (performed implicitly by `CJALR`).
    #[must_use]
    pub fn unseal_sentry(self) -> Self {
        if self.otype == otype::SENTRY {
            CapPipe { otype: otype::UNSEALED, ..self }
        } else {
            self
        }
    }
}

impl From<CapMem> for CapPipe {
    fn from(m: CapMem) -> Self {
        CapPipe::from_mem(m)
    }
}

impl From<CapPipe> for CapMem {
    fn from(p: CapPipe) -> Self {
        p.to_mem()
    }
}

impl fmt::Display for CapPipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cap[{}] {:#010x} in [{:#x}, {:#x}) {:?}{}",
            if self.tag { "v" } else { "-" },
            self.addr,
            self.base(),
            self.top(),
            self.perms,
            if self.is_sealed() { " sealed" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        let n = CapPipe::null();
        assert!(!n.tag());
        assert_eq!(n.base(), 0);
        assert_eq!(n.top(), 0);
        assert_eq!(n.to_mem(), CapMem::NULL);
    }

    #[test]
    fn almighty_roundtrip() {
        let a = CapPipe::almighty();
        let m = a.to_mem();
        assert!(m.tag());
        let back = CapPipe::from_mem(m);
        assert_eq!(back, a);
        assert_eq!(back.length(), TOP_MAX);
    }

    #[test]
    fn derive_and_check() {
        let root = CapPipe::almighty();
        let (buf, exact) = root.set_addr(0x2000).set_bounds(64);
        assert!(exact && buf.tag());
        assert!(buf.check_access(0x2000, AccessWidth::Word, false, false).is_ok());
        assert!(buf.check_access(0x203C, AccessWidth::Word, true, false).is_ok());
        assert_eq!(
            buf.check_access(0x2040, AccessWidth::Byte, false, false),
            Err(CapException::BoundsViolation)
        );
        assert_eq!(
            buf.check_access(0x203D, AccessWidth::Word, false, false),
            Err(CapException::BoundsViolation)
        );
    }

    #[test]
    fn monotonicity_of_set_bounds() {
        let root = CapPipe::almighty();
        let (small, _) = root.set_addr(0x1000).set_bounds(128);
        // Attempting to widen must clear the tag.
        let (wider, _) = small.set_bounds(4096);
        assert!(!wider.tag());
        // Narrowing within keeps the tag.
        let (narrower, exact) = small.set_addr(0x1010).set_bounds(16);
        assert!(narrower.tag() && exact);
    }

    #[test]
    fn untagged_data_cannot_be_dereferenced() {
        let forged = CapPipe::from_mem(CapMem::from_bits(0xFFFF_FFFF_0000_2000, false));
        assert_eq!(
            forged.check_access(0x2000, AccessWidth::Word, false, false),
            Err(CapException::TagViolation)
        );
    }

    #[test]
    fn sealed_caps_are_immutable() {
        let s = CapPipe::almighty().seal_entry();
        assert!(s.tag() && s.is_sealed());
        assert!(!s.set_addr(4).tag());
        assert!(!s.and_perm(Perms::LOAD).tag());
        assert!(!s.set_bounds(16).0.tag());
        assert_eq!(
            s.check_access(0, AccessWidth::Word, false, false),
            Err(CapException::SealViolation)
        );
        // CJALR unseals sentries.
        assert!(!s.unseal_sentry().is_sealed());
    }

    #[test]
    fn permission_checks() {
        let ro = CapPipe::almighty().and_perm(Perms::LOAD | Perms::GLOBAL);
        assert!(ro.check_access(0x100, AccessWidth::Word, false, false).is_ok());
        assert_eq!(
            ro.check_access(0x100, AccessWidth::Word, true, false),
            Err(CapException::PermitStoreViolation)
        );
        assert_eq!(
            ro.check_access(0x100, AccessWidth::Cap, false, true),
            Err(CapException::PermitLoadCapViolation)
        );
        let xo = CapPipe::almighty().and_perm(Perms::code());
        assert!(xo.check_fetch(0x100).is_ok());
        assert_eq!(ro.check_fetch(0x100), Err(CapException::PermitExecuteViolation));
    }

    #[test]
    fn cap_access_alignment() {
        let c = CapPipe::almighty();
        assert!(c.check_access(0x1000, AccessWidth::Cap, true, true).is_ok());
        assert_eq!(
            c.check_access(0x1004, AccessWidth::Cap, true, true),
            Err(CapException::AlignmentViolation)
        );
    }

    #[test]
    fn out_of_representable_increment_detags() {
        let (buf, _) = CapPipe::almighty().set_addr(0x10000).set_bounds(4096);
        // Wander slightly out of bounds: representable, tag kept.
        let near = buf.inc_offset(4096);
        assert!(near.tag());
        // Jump far away: unrepresentable, tag cleared.
        let far = buf.inc_offset(0x4000_0000);
        assert!(!far.tag());
    }

    #[test]
    fn split_meta_addr_reassembly() {
        // The register-file model stores meta and address separately.
        let (c, _) = CapPipe::almighty().set_addr(0x3000).set_bounds(256);
        let m = c.to_mem();
        let re = CapMem::from_parts(m.meta(), m.addr(), m.tag());
        assert_eq!(re, m);
        assert_eq!(CapPipe::from_mem(re.with_addr(0x3010)).addr(), 0x3010);
    }
}
