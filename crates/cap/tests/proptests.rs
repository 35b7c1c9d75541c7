//! Property-based tests pinning down the CHERI Concentrate codec and the
//! capability operation invariants.
//!
//! Formerly written against `proptest`; the workspace must build offline, so
//! the same properties are now driven by an explicitly seeded [`sim_prng`]
//! stream plus a bank of pinned regression inputs. Each property runs over
//! every regression case first (like proptest's `.proptest-regressions`
//! replay), then over a large randomized sweep.

use cheri_cap::bounds::{self, Bounds, BoundsField, Region, TOP_MAX};
use cheri_cap::{AccessWidth, CapException, CapMem, CapPipe, Perms};
use sim_prng::Prng;

const CASES: usize = 4096;

/// Pinned regression inputs, replayed before the random sweep.
///
/// `(2, 129)` is the historical proptest shrink for the CHERI Concentrate
/// bounds-rounding edge: the smallest request whose first-try exponent
/// overflows the effective mantissa (at `E = 0` the granule-rounded length
/// `ceil(129/8) - floor(2/8) = 17` exceeds the 4-bit mantissa budget) and
/// forces the encoder's retry at `E + 1`. A correct encoder must round it
/// outward to `[0, 144)` and report it inexact.
const REGRESSIONS: &[(u32, u64)] = &[
    (2, 129),
    (0, 0),
    (0, 1),
    (0, 63),
    (0, 64),
    (0, 127),
    (0, 128),
    (1, 128),
    (2, 130),
    (63, 191),
    (u32::MAX, TOP_MAX),
    (u32::MAX - 63, TOP_MAX),
    (0, TOP_MAX),
    (0x8000_0000, TOP_MAX),
];

/// Arbitrary (base, top) request with a bias towards interesting lengths
/// (power-of-two-ish, like the old proptest strategy).
fn base_top(r: &mut Prng) -> (u32, u64) {
    if r.next_bool() {
        let base = r.next_u32();
        let lsh = r.range_u32(0, 34);
        let max_len = TOP_MAX - base as u64;
        let len = (1u64 << lsh).wrapping_sub(1).min(max_len);
        (base, base as u64 + len)
    } else {
        let (a, b) = (r.next_u32(), r.next_u32());
        if a <= b {
            (a, b as u64)
        } else {
            (b, a as u64)
        }
    }
}

/// Run `prop` over the regression bank and `CASES` random requests.
fn for_each_request(mut prop: impl FnMut(u32, u64)) {
    for &(base, top) in REGRESSIONS {
        prop(base, top);
    }
    let mut r = Prng::seed_from_u64(0xCAB0_B0B5);
    for _ in 0..CASES {
        let (base, top) = base_top(&mut r);
        prop(base, top);
    }
}

/// encode is sound: the decoded bounds contain the request.
#[test]
fn encode_contains_request() {
    for_each_request(|base, top| {
        let enc = bounds::encode(base, top);
        assert!(enc.bounds.base as u64 <= base as u64, "base={base:#x} top={top:#x}");
        assert!(enc.bounds.top >= top, "base={base:#x} top={top:#x}");
        assert!(enc.bounds.top <= TOP_MAX, "base={base:#x} top={top:#x}");
        // exactness flag is truthful
        assert_eq!(enc.exact, enc.bounds == Bounds { base, top }, "base={base:#x} top={top:#x}");
    });
}

/// The encoded field decodes to the same bounds at any representable
/// address (round-trip through the 15-bit format).
#[test]
fn encode_decode_roundtrip() {
    for_each_request(|base, top| {
        let enc = bounds::encode(base, top);
        let b = bounds::decode(enc.field, base);
        assert_eq!(b, enc.bounds, "base={base:#x} top={top:#x}");
        // Also from an in-bounds address.
        let mid = ((enc.bounds.base as u64 + enc.bounds.top) / 2) as u32;
        let b2 = bounds::decode(enc.field, mid);
        assert_eq!(b2, enc.bounds, "base={base:#x} top={top:#x} mid={mid:#x}");
    });
}

/// Rounding never expands by more than one alignment granule on each
/// side (base rounded down, top rounded up to 2^(E+3)).
#[test]
fn rounding_is_bounded() {
    for_each_request(|base, top| {
        let enc = bounds::encode(base, top);
        let len = top - base as u64;
        let m = bounds::decode_mantissa(enc.field);
        let granule = if enc.field.ie() { 1u64 << (m.e + 3) } else { 1 };
        assert!(
            enc.bounds.length() - len < 2 * granule,
            "base={base:#x} top={top:#x} granule={granule}"
        );
        assert!(
            base as u64 - enc.bounds.base as u64 == 0 || enc.field.ie(),
            "base={base:#x} top={top:#x}"
        );
    });
}

/// The retry-path regression in full: the encoder must round (2, 129)
/// outward to [0, 144) at E = 1 and stay self-consistent at every
/// in-bounds address.
#[test]
fn regression_2_129_retry_path() {
    let enc = bounds::encode(2, 129);
    assert!(!enc.exact);
    assert_eq!(enc.bounds, Bounds { base: 0, top: 144 });
    assert!(enc.field.ie());
    assert_eq!(bounds::decode_mantissa(enc.field).e, 1);
    for addr in 0..144u32 {
        assert_eq!(bounds::decode(enc.field, addr), enc.bounds, "addr={addr}");
        assert!(bounds::is_representable(enc.field, 2, addr), "addr={addr}");
    }
}

/// CRRL/CRAM agree: an aligned base + rounded length is always exact.
#[test]
fn crrl_cram_exact() {
    let mut r = Prng::seed_from_u64(0xC4A3_11E7);
    for i in 0..CASES {
        let (len, baseword) =
            if i < 4096 { (i as u32, r.next_u32()) } else { (r.next_u32(), r.next_u32()) };
        let rl = bounds::representable_length(len);
        assert!(rl >= len as u64);
        let mask = bounds::representable_alignment_mask(len);
        let base = baseword & mask;
        if base as u64 + rl <= TOP_MAX {
            let enc = bounds::encode(base, base as u64 + rl);
            assert!(enc.exact, "len={len} rl={rl} mask={mask:#x} base={base:#x}");
        }
    }
}

/// Any 15-bit pattern decodes to *some* bounds with top <= 2^33 and the
/// decode is a pure function of (field, addr) — no panics on junk.
#[test]
fn decode_total() {
    let mut r = Prng::seed_from_u64(0x00DE_C0DE);
    for raw in 0u16..(1 << 15) {
        let addr = r.next_u32();
        let b = bounds::decode(BoundsField(raw), addr);
        assert!(b.top < (1u64 << 33), "raw={raw:#x} addr={addr:#x}");
        assert_eq!(b, bounds::decode(BoundsField(raw), addr), "decode must be pure");
    }
}

/// Representability: staying inside the decoded bounds is always
/// representable (bounds are stable across in-bounds address moves).
#[test]
fn in_bounds_moves_are_representable() {
    let mut r = Prng::seed_from_u64(0x1B0);
    for_each_request(|base, top| {
        let enc = bounds::encode(base, top);
        let len = enc.bounds.length();
        if len > 0 {
            let addr = enc.bounds.base.wrapping_add((r.next_u32() as u64 % len) as u32);
            assert!(
                bounds::is_representable(enc.field, base, addr),
                "base={base:#x} top={top:#x} addr={addr:#x}"
            );
        }
    });
}

/// CapMem <-> CapPipe round-trips for arbitrary bit patterns.
#[test]
fn mem_pipe_roundtrip() {
    let mut r = Prng::seed_from_u64(0x3E3);
    for _ in 0..CASES {
        let m = CapMem::from_bits(r.next_u64(), r.next_bool());
        let p = CapPipe::from_mem(m);
        assert_eq!(p.to_mem(), m, "{m:?}");
    }
}

/// Monotonicity: any chain of derivations never widens rights.
#[test]
fn derivation_is_monotone() {
    let mut r = Prng::seed_from_u64(0x3031);
    for _ in 0..CASES {
        let addr = r.next_u32();
        let len = r.range_u32(0, (1 << 20) + 1);
        let addr2_off = r.next_u32();
        let len2 = r.range_u32(0, (1 << 20) + 1);
        let perm_mask = (r.next_u32() & 0xFFF) as u16;

        let root = CapPipe::almighty();
        let (c1, _) = root.set_addr(addr).set_bounds(len);
        if c1.tag() && c1.length() > 0 {
            let a2 = c1.base().wrapping_add(addr2_off % c1.length() as u32);
            let (c2, _) = c1.set_addr(a2).set_bounds(len2);
            let c2 = c2.and_perm(Perms::from_bits(perm_mask));
            if c2.tag() {
                assert!(c2.base() >= c1.base(), "addr={addr:#x} len={len} a2={a2:#x} len2={len2}");
                assert!(c2.top() <= c1.top(), "addr={addr:#x} len={len} a2={a2:#x} len2={len2}");
                assert!(c1.perms().contains(c2.perms()));
            }
        }
    }
}

/// `check_access` admits an access exactly when the capability is tagged,
/// unsealed, grants the access's permissions (`LOAD`/`STORE`, plus
/// `LOAD_CAP`/`STORE_CAP` and 8-byte alignment for a capability-wide one)
/// and the access lies inside the decoded bounds; an access refused only
/// for its bounds reports `BoundsViolation`. Inputs draw every width, a
/// random permission subset and, one time in four, a sentry seal.
#[test]
fn check_access_agrees_with_bounds() {
    let widths = [AccessWidth::Byte, AccessWidth::Half, AccessWidth::Word, AccessWidth::Cap];
    let mut r = Prng::seed_from_u64(0x00AC_CE55);
    for _ in 0..CASES {
        let addr = r.next_u32();
        let len = r.range_u32(1, (1 << 16) + 1);
        let probe =
            if r.next_bool() { addr.wrapping_add(r.range_u32(0, len + 8)) } else { r.next_u32() };
        let width = *r.choose(&widths);
        let store = r.next_bool();
        let perms = if r.next_bool() { Perms::ALL } else { Perms::from_bits(r.next_u32() as u16) };

        let (c, _) = CapPipe::almighty().set_addr(addr).set_bounds(len);
        let c = c.and_perm(perms);
        let c = if r.range_u32(0, 4) == 0 { c.seal_entry() } else { c };
        let cap_access = width == AccessWidth::Cap;
        let w = width.bytes();
        let (need, need_cap) =
            if store { (Perms::STORE, Perms::STORE_CAP) } else { (Perms::LOAD, Perms::LOAD_CAP) };
        let rights = c.tag()
            && !c.is_sealed()
            && c.perms().contains(need)
            && (!cap_access || (c.perms().contains(need_cap) && probe.is_multiple_of(8)));
        let inside = probe as u64 >= c.base() as u64 && probe as u64 + w as u64 <= c.top();
        let got = c.check_access(probe, width, store, cap_access);
        let ctx = format!("{c} probe={probe:#x} w={w} store={store}");
        assert_eq!(got.is_ok(), rights && inside, "{ctx}");
        if rights && !inside {
            assert_eq!(got, Err(CapException::BoundsViolation), "{ctx}");
        }
    }
}

/// A capability with arbitrary sampled fields: any permissions, object
/// type, flag, bounds field and address, tagged.
fn sampled_cap(r: &mut Prng) -> CapPipe {
    CapPipe::from_mem(CapMem::from_parts(r.next_u32(), r.next_u32(), true))
}

/// A sealed capability is immutable: every operation that would change it
/// returns it untagged, whatever its fields and the operands.
#[test]
fn sealed_capabilities_are_immutable() {
    let mut r = Prng::seed_from_u64(0x5EA1_ED00);
    for _ in 0..CASES {
        let c = sampled_cap(&mut r);
        let c = if c.is_sealed() { c } else { c.seal_entry() };
        assert!(c.tag() && c.is_sealed(), "{c}");
        let (addr, len) = (r.next_u32(), r.next_u32());
        let perms = Perms::from_bits(r.next_u32() as u16);
        let results = [
            ("set_addr", c.set_addr(addr)),
            ("inc_offset", c.inc_offset(addr)),
            ("set_bounds", c.set_bounds(len).0),
            ("and_perm", c.and_perm(perms)),
            ("set_flags", c.set_flags(r.next_bool())),
            ("seal_entry", c.seal_entry()),
        ];
        for (op, got) in results {
            assert!(!got.tag(), "{op} on sealed {c} kept the tag");
        }
    }
}

/// Every non-monotone step clears the tag: `and_perm` and `set_flags` on a
/// sealed input, and `set_bounds` on any request that leaves the source
/// bounds.
#[test]
fn non_monotone_steps_clear_the_tag() {
    let mut r = Prng::seed_from_u64(0x0303_7073);
    for _ in 0..CASES {
        let c = sampled_cap(&mut r);
        let sealed = if c.is_sealed() { c } else { c.seal_entry() };
        let perms = Perms::from_bits(r.next_u32() as u16);
        assert!(!sealed.and_perm(perms).tag(), "and_perm on sealed {sealed}");
        assert!(!sealed.set_flags(r.next_bool()).tag(), "set_flags on sealed {sealed}");

        // An unsealed source and a request that starts or ends outside it.
        let (src, _) = CapPipe::almighty().set_addr(r.next_u32()).set_bounds(r.next_u32() >> 8);
        let (base, top) = (src.base(), src.top());
        let start = match r.range_u32(0, 3) {
            0 => base.wrapping_sub(r.range_u32(1, 64)),
            1 => (top as u32).wrapping_sub(r.range_u32(0, 64)),
            _ => r.next_u32(),
        };
        let scale = r.range_u32(0, 32);
        let len = r.range_u32(0, 1 << scale);
        let end = start as u64 + len as u64;
        if (start as u64) < base as u64 || end > top {
            let (got, _) = src.set_addr(start).set_bounds(len);
            assert!(!got.tag(), "{src}: set_bounds [{start:#x}, {end:#x}) kept the tag");
        }
    }
}

/// set_bounds_exact only keeps the tag when the request was exact.
#[test]
fn set_bounds_exact_is_exact() {
    let mut r = Prng::seed_from_u64(0x5E7B);
    for _ in 0..CASES {
        let addr = r.next_u32();
        let len = r.range_u32(0, (1 << 24) + 1);
        let c = CapPipe::almighty().set_addr(addr);
        let e = c.set_bounds_exact(len);
        let (res, exact) = c.set_bounds(len);
        assert_eq!(e.tag(), res.tag() && exact, "addr={addr:#x} len={len}");
        if e.tag() {
            assert_eq!(e.base(), addr);
            assert_eq!(e.top(), addr as u64 + len as u64);
        }
    }
}

// ---- The representable-region law ----
//
// `bounds::decode(f, addr)` depends on the address only through its
// representable window `k = (addr >> (E+8)) - [addr[E+7:E] < B8 - 0x20]`,
// i.e. it is constant on each `2^(E+8)`-byte region starting at
// `(B8 - 0x20)·2^E + k·2^(E+8)`. The fast paths of `set_addr`, `inc_offset`
// and `with_addr` rest on that; these properties check it over every bounds
// field, with the decode-based definitions kept here as the oracle.

/// The representable region containing `addr`, as `[lo, hi)` in unclipped
/// 64-bit arithmetic (it may start below zero or end above `2^32`).
fn region_oracle(f: BoundsField, addr: u32) -> (i64, i64) {
    let m = bounds::decode_mantissa(f);
    let size = 1i64 << (m.e + bounds::MANTISSA_WIDTH);
    let origin = i64::from(m.b8.wrapping_sub(0x20)) << m.e;
    let lo = origin + (i64::from(addr) - origin).div_euclid(size) * size;
    (lo, lo + size)
}

/// The region's edges and neighbours that are addresses: `lo - 1`, `lo`,
/// `hi - 1`, `hi`, clipped to the 32-bit address space.
fn region_edges(f: BoundsField, addr: u32) -> impl Iterator<Item = u32> {
    let (lo, hi) = region_oracle(f, addr);
    [lo - 1, lo, hi - 1, hi].into_iter().filter_map(|x| u32::try_from(x).ok())
}

/// Sampled addresses for one bounds field: random ones, far ones, the
/// edges of their regions and the edges of the decoded bounds.
fn sampled_addrs(f: BoundsField, r: &mut Prng) -> Vec<u32> {
    let a = r.next_u32();
    let b = bounds::decode(f, a);
    let mut v = vec![a, a ^ 0x8000_0000, r.next_u32(), 0, u32::MAX];
    v.extend(region_edges(f, a));
    v.extend([b.base.wrapping_sub(1), b.base, (b.top as u32).wrapping_sub(1), b.top as u32]);
    v
}

/// Every bounds field (the sweep takes well under a second in the test
/// profile, so no build samples a subset).
fn all_fields() -> impl Iterator<Item = BoundsField> {
    (0u16..1 << 15).map(BoundsField)
}

/// `set_addr` as the two-decode definition: the tag survives only if the
/// bounds decoded at the new address equal those at the old one (and the
/// capability is unsealed).
fn set_addr_oracle(p: CapPipe, addr: u32) -> CapPipe {
    let m = p.to_mem();
    let f = BoundsField((m.meta() & 0x7FFF) as u16);
    let representable = bounds::decode(f, p.addr()) == bounds::decode(f, addr);
    let tag = m.tag() && representable && !p.is_sealed();
    CapPipe::from_mem(CapMem::from_parts(m.meta(), addr, tag))
}

/// `decode` is constant on a region: every sampled address decodes like the
/// region's own edges.
#[test]
fn decode_is_constant_on_representable_regions() {
    let mut r = Prng::seed_from_u64(0x4E61_0001);
    for f in all_fields() {
        for addr in sampled_addrs(f, &mut r) {
            let want = bounds::decode(f, addr);
            let (lo, hi) = region_oracle(f, addr);
            let inside =
                [lo, hi - 1, lo + (hi - lo) / 2].into_iter().filter_map(|x| u32::try_from(x).ok());
            for x in inside {
                assert_eq!(bounds::decode(f, x), want, "f={:#06x} addr={addr:#x} x={x:#x}", f.0);
            }
        }
    }
}

/// `set_addr` and `inc_offset` equal the two-decode definition on tag,
/// bounds and address, for tagged and untagged, sealed and unsealed
/// capabilities of every bounds field.
#[test]
fn set_addr_matches_the_two_decode_definition() {
    let mut r = Prng::seed_from_u64(0x4E61_0003);
    for f in all_fields() {
        let addrs = sampled_addrs(f, &mut r);
        let otype = *r.choose(&[0u32, 0, 1]);
        let meta = (r.next_u32() & 0xFFF0_0000) | otype << 16 | u32::from(f.0);
        let p = CapPipe::from_mem(CapMem::from_parts(meta, addrs[0], r.next_bool()));
        for &addr in &addrs {
            let want = set_addr_oracle(p, addr);
            for got in [p.set_addr(addr), p.inc_offset(addr.wrapping_sub(p.addr()))] {
                let ctx = format!("f={:#06x} from={:#x} to={addr:#x}", f.0, p.addr());
                assert_eq!(got.to_mem(), want.to_mem(), "{ctx}");
                assert_eq!((got.base(), got.top()), (want.base(), want.top()), "{ctx}");
                // Whole-value equality covers the cached bounds and region.
                assert_eq!(got, want, "{ctx}");
                // Chained moves keep agreeing (the result's own fast path).
                let back = got.set_addr(addrs[1]);
                assert_eq!(back, set_addr_oracle(got, addrs[1]), "{ctx}");
            }
        }
    }
}

/// The region `decode_region` reports is the oracle's, clipped to the
/// address space, and contains the address.
#[test]
fn decode_region_matches_the_oracle() {
    let mut r = Prng::seed_from_u64(0x4E61_0004);
    for f in all_fields() {
        for addr in sampled_addrs(f, &mut r) {
            let (b, region) = bounds::decode_region(f, addr);
            let (lo, hi) = region_oracle(f, addr);
            let want = Region { lo: lo.max(0) as u32, last: (hi - 1).min(u32::MAX.into()) as u32 };
            assert_eq!((b, region), (bounds::decode(f, addr), want), "f={:#06x} {addr:#x}", f.0);
            assert!(region.contains(addr), "f={:#06x} addr={addr:#x}", f.0);
        }
    }
}

/// `with_addr` (same metadata and tag, another address) equals decoding the
/// in-memory capability at that address, tag kept.
#[test]
fn with_addr_equals_from_mem_at_the_new_address() {
    let mut r = Prng::seed_from_u64(0x4E61_0005);
    for f in all_fields() {
        let addrs = sampled_addrs(f, &mut r);
        let meta = (r.next_u32() & 0xFFFF_8000) | u32::from(f.0);
        let m = CapMem::from_parts(meta, addrs[0], r.next_bool());
        let p = CapPipe::from_mem(m);
        for &b in &addrs {
            let got = p.with_addr(b);
            assert_eq!(got, CapPipe::from_mem(m.with_addr(b)), "f={:#06x} to={b:#x}", f.0);
            assert_eq!(got.with_addr(addrs[0]), p, "f={:#06x} back from {b:#x}", f.0);
        }
    }
}
