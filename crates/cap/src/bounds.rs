//! The CHERI Concentrate bounds codec (Woodruff et al., IEEE ToC 2019).
//!
//! A 32-bit lower bound and a 33-bit upper bound are stored together in 15
//! bits, relative to the capability's address:
//!
//! ```text
//!   14   13      8  7       0
//!  +----+---------+----------+
//!  | IE |  T[5:0] |  B[7:0]  |
//!  +----+---------+----------+
//! ```
//!
//! Mantissa width `MW = 8`. `T[7:6]` is reconstructed from `B[7:6]`, a
//! carry-out comparison on the low mantissa bits, and a length MSB implied by
//! `IE`. With an *internal exponent* (`IE = 1`) the low three bits of both
//! `B` and `T` hold the 6-bit exponent `E = {T[2:0], B[2:0]}` and the bounds
//! are aligned to `2^(E+3)`; otherwise (`IE = 0`) the exponent is zero and
//! objects shorter than 64 bytes get byte-precise bounds.
//!
//! The maximum exponent is [`RESET_EXP`] (= 26): at that exponent the derived
//! top reaches `2^32`, covering the whole address space.

/// Mantissa width of the CC-64 encoding.
pub const MANTISSA_WIDTH: u32 = 8;

/// Exponent used by the full-address-space (almighty) capability; also the
/// largest exponent a well-formed encoder ever produces.
pub const RESET_EXP: u32 = 26;

/// Number of bits in the packed bounds field.
pub const BOUNDS_BITS: u32 = 15;

/// Upper bound (exclusive) of a decoded top: tops are 33-bit quantities.
pub const TOP_MAX: u64 = 1 << 32;

/// A packed 15-bit bounds field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BoundsField(pub u16);

impl BoundsField {
    /// Bounds field of the null capability: all zeros (`IE = 0`, `T = B = 0`),
    /// which decodes to an empty object at address zero.
    pub const NULL: BoundsField = BoundsField(0);

    /// Internal-exponent bit.
    #[inline]
    pub fn ie(self) -> bool {
        self.0 & (1 << 14) != 0
    }

    /// The six explicit top bits `T[5:0]`.
    #[inline]
    pub(crate) fn t_low(self) -> u8 {
        ((self.0 >> 8) & 0x3F) as u8
    }

    /// The eight explicit base bits `B[7:0]`.
    #[inline]
    pub(crate) fn b(self) -> u8 {
        (self.0 & 0xFF) as u8
    }

    /// Pack raw fields. Values are masked to their field widths.
    #[inline]
    pub(crate) fn pack(ie: bool, t_low: u8, b: u8) -> Self {
        BoundsField(((ie as u16) << 14) | (((t_low & 0x3F) as u16) << 8) | b as u16)
    }

    /// The bounds field of the almighty capability: `E = RESET_EXP`,
    /// `B = 0`, mantissa `T = 0` (top is derived as `2^32`).
    pub(crate) fn almighty() -> Self {
        encode(0, TOP_MAX).field
    }
}

/// Decoded bounds: the exponent plus the reconstructed 8-bit mantissas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedMantissa {
    /// Exponent (0..=26).
    pub e: u32,
    /// Reconstructed 8-bit top mantissa.
    pub t8: u8,
    /// 8-bit base mantissa (exponent bits masked to zero when `IE`).
    pub b8: u8,
}

/// Split a packed field into exponent and mantissas, reconstructing `T[7:6]`.
pub fn decode_mantissa(f: BoundsField) -> DecodedMantissa {
    let (e, t_low, b8) = if f.ie() {
        let e = (((f.t_low() & 0x7) as u32) << 3) | (f.b() & 0x7) as u32;
        (e.min(RESET_EXP), f.t_low() & 0x38, f.b() & 0xF8)
    } else {
        (0, f.t_low(), f.b())
    };
    // T[7:6] = B[7:6] + carry + IE, where carry is set when the explicit top
    // mantissa bits are below the base's (the length "wrapped" the low bits).
    let carry = (t_low < (b8 & 0x3F)) as u8;
    let l_msb = f.ie() as u8;
    let t_hi = ((b8 >> 6) + carry + l_msb) & 0x3;
    DecodedMantissa { e, t8: (t_hi << 6) | t_low, b8 }
}

/// Fully decoded bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bounds {
    /// Inclusive lower bound.
    pub base: u32,
    /// Exclusive upper bound (33-bit: may be `2^32`).
    pub top: u64,
}

impl Bounds {
    /// Length of the region (`top - base`), saturating at zero if the
    /// encoding is malformed and decodes to `top < base`.
    #[inline]
    pub fn length(self) -> u64 {
        self.top.saturating_sub(self.base as u64)
    }
}

/// The representable region of a capability: the addresses at which its
/// bounds field decodes to the same bounds, clipped to the 32-bit address
/// space.
///
/// [`decode`] depends on the address only through its window
/// `k = (addr >> (E+MW)) - [addr[E+MW-1:E] < R]`, where `R = B - 2^(MW-3)`,
/// so the bounds are constant on each `2^(E+MW)`-byte region starting at
/// `R·2^E + k·2^(E+MW)`. Inside it, moving the address needs no decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// Lowest address of the region (zero if the region starts below zero).
    pub lo: u32,
    /// Highest address of the region, inclusive (`u32::MAX` if the region
    /// ends above the address space).
    pub last: u32,
}

impl Region {
    /// Does the region contain `addr`?
    #[inline]
    pub fn contains(self, addr: u32) -> bool {
        self.lo <= addr && addr <= self.last
    }
}

/// Decode the bounds of a capability with address `addr`.
///
/// This is the reference decode from the CHERI Concentrate paper: the
/// address's middle bits are compared against the representable-region base
/// `R = B - 2^(MW-3)` and correction terms place base and top in the
/// neighbouring `2^(E+MW)` windows.
#[inline]
pub fn decode(f: BoundsField, addr: u32) -> Bounds {
    decode_region(f, addr).0
}

/// [`decode`], also returning the representable [`Region`] that contains
/// `addr` (every address in it decodes to the same bounds).
pub fn decode_region(f: BoundsField, addr: u32) -> (Bounds, Region) {
    let DecodedMantissa { e, t8, b8 } = decode_mantissa(f);
    let sh = e + MANTISSA_WIDTH; // window shift, <= 34
    let a_mid = ((addr as u64) >> e) as u8; // truncates to 8 bits
    let a_top: i64 = if sh >= 32 { 0 } else { (addr >> sh) as i64 };

    let r = b8.wrapping_sub(0x20); // representable-region base
    let in_hi = |x: u8| (x < r) as i64;
    let c_a = in_hi(a_mid);
    let c_t = in_hi(t8) - c_a;
    let c_b = in_hi(b8) - c_a;

    let window = |c: i64| -> i128 { ((a_top + c) as i128) << sh };
    let mut top = window(c_t) + (((t8 as i128) & 0xFF) << e);
    let base = window(c_b) + ((b8 as i128) << e);
    let base = (base as u64 & 0xFFFF_FFFF) as u32;
    top &= (1i128 << 33) - 1;
    let mut top = top as u64;

    // Top-bit massage (CC paper §V): a length shorter than 2^(E+MW) means
    // the high parts of top and base differ by at most one window; if the
    // correction pushed them further apart, bit 32 of top was set spuriously.
    if sh < 32 {
        let t_hi = top >> sh;
        let b_hi = (base >> sh) as u64;
        if t_hi.wrapping_sub(b_hi) > 1 {
            top ^= 1 << 32;
        }
    }
    // The window `addr` lies in, `a_top - c_a`, is all the address
    // contributed above: the region is that window, offset by `R·2^E`.
    let lo = ((a_top - c_a) << sh) + ((r as i64) << e);
    let hi = lo + (1 << sh);
    let region = Region { lo: lo.max(0) as u32, last: (hi - 1).min(u32::MAX as i64) as u32 };
    (Bounds { base, top }, region)
}

/// Result of encoding a (base, top) request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoded {
    /// The packed bounds field.
    pub field: BoundsField,
    /// Whether the requested bounds were representable exactly.
    pub exact: bool,
    /// The bounds that `field` actually decodes to (rounded outward).
    pub bounds: Bounds,
    /// The representable region of `field` that contains the requested
    /// base.
    pub region: Region,
}

/// Encode the tightest representable bounds containing `[base, top)`.
///
/// Mirrors `setBounds` in CheriCapLib: objects shorter than 64 bytes are
/// byte-precise (`IE = 0`); otherwise the exponent is chosen so the length
/// fits in the effective 5-bit mantissa and base/top are rounded outward to
/// `2^(E+3)` alignment, re-trying once with `E+1` if rounding overflows the
/// mantissa.
///
/// # Panics
///
/// Panics if `top > 2^32` or `top < base`.
pub fn encode(base: u32, top: u64) -> Encoded {
    assert!(top <= TOP_MAX, "top out of 33-bit range");
    assert!(top >= base as u64, "negative length");
    let len = top - base as u64;

    if len < (1 << (MANTISSA_WIDTH - 2)) {
        // IE = 0: byte-precise.
        let field = BoundsField::pack(false, (top & 0x3F) as u8, (base & 0xFF) as u8);
        let (bounds, region) = decode_region(field, base);
        debug_assert_eq!(bounds, Bounds { base, top });
        return Encoded { field, exact: true, bounds, region };
    }

    // IE = 1: choose the smallest exponent such that the length, measured in
    // 2^E granules, fits in [2^(MW-2), 2^(MW-1)); the T[7:6] reconstruction
    // (carry + implied length MSB) is only faithful for mantissa differences
    // in [64, 128).
    let mut e = 63 - (len >> (MANTISSA_WIDTH - 2)).leading_zeros();
    // (i.e. e = floor(log2(len)) - (MW-2); len >= 2^(MW-2) here.)
    debug_assert!(len >> e >= 1 << (MANTISSA_WIDTH - 2));

    loop {
        let g = e + 3; // alignment granule: low 3 mantissa bits hold E
        let bv = (base >> g) as u64;
        let tv = (top + (1u64 << g) - 1) >> g;
        if tv - bv >= (1 << (MANTISSA_WIDTH - 4)) {
            // Rounding the top up overflowed the mantissa: grow the exponent.
            e += 1;
            continue;
        }
        let exact = (bv << g) == base as u64 && (tv << g) == top;
        let b8 = ((bv as u8 & 0x1F) << 3) | (e as u8 & 0x7);
        let t_low = (((tv as u8) & 0x7) << 3) | ((e as u8 >> 3) & 0x7);
        let field = BoundsField::pack(true, t_low, b8);
        let (bounds, region) = decode_region(field, base);
        debug_assert_eq!(
            bounds,
            Bounds { base: (bv << g) as u32, top: tv << g },
            "encode/decode mismatch for base={base:#x} top={top:#x} e={e}"
        );
        return Encoded { field, exact, bounds, region };
    }
}

/// `CRRL`: the representable length that `encode(0, len)` rounds `len` up to.
pub fn representable_length(len: u32) -> u64 {
    encode(0, len as u64).bounds.top
}

/// `CRAM`: the alignment mask a base must satisfy for a region of length
/// `len` to be representable exactly (all-ones for byte-precise lengths).
pub fn representable_alignment_mask(len: u32) -> u32 {
    if (len as u64) < (1 << (MANTISSA_WIDTH - 2)) {
        return u32::MAX;
    }
    let mut e = 31 - (len >> (MANTISSA_WIDTH - 2)).leading_zeros();
    // Account for the encoder's retry: at exponent e the mantissa holds at
    // most 2^(MW-4) - 1 = 15 granules of 2^(e+3), so a length whose rounded-up
    // granule count reaches 16 must be encoded at e+1.
    let max_at_e = ((1u64 << (MANTISSA_WIDTH - 4)) - 1) << (e + 3);
    if (len as u64) > max_at_e {
        e += 1;
    }
    !((1u32 << (e + 3)) - 1)
}

/// Is `addr` within the representable region of a capability whose bounds
/// field is `f` and whose current address is `old_addr`? I.e. can the address
/// be changed to `addr` without the decoded bounds changing?
///
/// This is the precise definition, not the conservative check CheriCapLib
/// implements in hardware: decode at both addresses and compare. The hot
/// path does not call it: [`crate::CapPipe`] keeps the [`Region`] of its
/// address, so `set_addr` and `inc_offset` decide the same question with two
/// compares inside that region and one decode outside it, exactly (the
/// region-law property tests check them against this definition).
pub fn is_representable(f: BoundsField, old_addr: u32, addr: u32) -> bool {
    decode(f, old_addr) == decode(f, addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_decodes_to_empty_at_zero() {
        let b = decode(BoundsField::NULL, 0);
        assert_eq!(b, Bounds { base: 0, top: 0 });
    }

    #[test]
    fn almighty_covers_address_space() {
        let f = BoundsField::almighty();
        for addr in [0u32, 1, 0x8000_0000, u32::MAX] {
            let b = decode(f, addr);
            assert_eq!(b, Bounds { base: 0, top: TOP_MAX }, "addr={addr:#x}");
        }
    }

    #[test]
    fn byte_precise_small_objects() {
        for base in [0u32, 5, 0xFFC0, 0x1234_5678, u32::MAX - 70] {
            for len in [0u64, 1, 7, 33, 63] {
                let enc = encode(base, base as u64 + len);
                assert!(enc.exact, "base={base:#x} len={len}");
                assert_eq!(enc.bounds.base, base);
                assert_eq!(enc.bounds.top, base as u64 + len);
            }
        }
    }

    #[test]
    fn medium_object_rounding() {
        // 100 bytes at an odd base: granule is 2^3 = 8 (e = 0, IE = 1).
        let enc = encode(0x1001, 0x1001 + 100);
        assert!(!enc.exact);
        assert_eq!(enc.bounds.base, 0x1000);
        assert_eq!(enc.bounds.top, 0x1001 + 100 + 3); // rounded up to 8
        assert!(enc.bounds.base <= 0x1001);
        assert!(enc.bounds.top >= 0x1001 + 100);
    }

    #[test]
    fn exact_power_of_two_objects() {
        for sh in 6..=31u32 {
            let len = 1u64 << sh;
            let enc = encode(0, len);
            assert!(enc.exact, "2^{sh}");
            assert_eq!(enc.bounds, Bounds { base: 0, top: len });
        }
    }

    #[test]
    fn crrl_cram_consistency() {
        for len in [0u32, 1, 63, 64, 100, 1000, 4096, 100_000, 1 << 30] {
            let rl = representable_length(len);
            assert!(rl >= len as u64);
            let mask = representable_alignment_mask(len);
            // A base aligned to the mask with the rounded length is exact.
            let base = 0x4000_0000u32 & mask;
            let enc = encode(base, base as u64 + rl);
            assert!(enc.exact, "len={len} rl={rl} mask={mask:#x}");
        }
    }

    #[test]
    fn representability_region_allows_wander() {
        // A one-page object: the address may wander somewhat out of bounds
        // without becoming unrepresentable.
        let enc = encode(0x10000, 0x10000 + 4096);
        assert!(enc.exact);
        let f = enc.field;
        assert!(is_representable(f, 0x10000, 0x10000 + 4096)); // one past end
        assert!(is_representable(f, 0x10000, 0x10000 + 4200)); // a bit past
        assert!(!is_representable(f, 0x10000, 0x8000_0000)); // far away
    }

    #[test]
    fn decode_mantissa_reconstruction() {
        // IE=0, T[5:0] < B[5:0] implies a carry into T[7:6].
        let f = BoundsField::pack(false, 0x02, 0xFE);
        let m = decode_mantissa(f);
        assert_eq!(m.e, 0);
        assert_eq!(m.b8, 0xFE);
        // T[7:6] = B[7:6] + carry = 3 + 1 = 0 (mod 4)
        assert_eq!(m.t8, 0x02);
    }
}
