//! Logic-area costs of CheriCapLib functions (Figure 7 of the paper).
//!
//! Costs are in Intel Stratix-10 *Adaptive Logic Modules* (ALMs), as
//! synthesised by the paper's authors. They drive the `sim-area` crate's
//! compositional area model: functions on the hot path are instantiated per
//! vector lane; cold functions once per SM in the shared-function unit.
//!
//! ```
//! use cheri_cap::area;
//! // The per-lane fast path costs far less than one multiplier.
//! let fast = area::FROM_MEM + area::TO_MEM + area::SET_ADDR + area::IS_ACCESS_IN_BOUNDS;
//! assert!(fast < area::MUL32);
//! ```

/// `fromMem`: convert from the in-memory format (decompress).
pub const FROM_MEM: u32 = 46;
/// `toMem`: convert to the in-memory format (pure wiring).
pub const TO_MEM: u32 = 0;
/// `setAddr`: set the address, invalidating if too far out of bounds.
pub const SET_ADDR: u32 = 106;
/// `isAccessInBounds`: check an access against partially decompressed bounds.
pub const IS_ACCESS_IN_BOUNDS: u32 = 25;
/// `getBase`: return the decoded lower bound.
pub(crate) const GET_BASE: u32 = 50;
/// `getLength`: return the decoded length.
pub(crate) const GET_LENGTH: u32 = 20;
/// `getTop`: return the decoded 33-bit upper bound.
pub(crate) const GET_TOP: u32 = 78;
/// `setBounds`: narrow bounds to a given base and length.
pub const SET_BOUNDS: u32 = 287;

/// Reference point: a 32-bit multiplier occupies 567 ALMs.
pub const MUL32: u32 = 567;

/// Functions the paper keeps on the per-lane fast path.
pub fn fast_path_alms() -> u32 {
    FROM_MEM + TO_MEM + SET_ADDR + IS_ACCESS_IN_BOUNDS
}

/// Functions the paper moves to the shared-function unit (slow path):
/// `CGetBase`, `CGetLen`, `CSetBounds[..]`, `CRRL`, `CRAM` all build on
/// these decoders/encoders.
pub fn slow_path_alms() -> u32 {
    GET_BASE + GET_LENGTH + GET_TOP + SET_BOUNDS
}

/// Every (name, ALM cost) pair in Figure 7, for report generation.
pub const FIGURE7: [(&str, u32); 8] = [
    ("fromMem", FROM_MEM),
    ("toMem", TO_MEM),
    ("setAddr", SET_ADDR),
    ("isAccessInBounds", IS_ACCESS_IN_BOUNDS),
    ("getBase", GET_BASE),
    ("getLength", GET_LENGTH),
    ("getTop", GET_TOP),
    ("setBounds", SET_BOUNDS),
];

#[cfg(test)]
mod tests {
    #[test]
    fn totals() {
        assert_eq!(super::fast_path_alms(), 177);
        assert_eq!(super::slow_path_alms(), 435);
    }
}
