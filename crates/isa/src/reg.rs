//! General-purpose register names.

use core::fmt;

/// One of the 32 general-purpose registers.
///
/// Under CHERI every register is 65 bits wide: a 32-bit general-purpose part
/// plus 33 bits of capability metadata. Operand names `rd`/`rs1`/`rs2` refer
/// to the 32-bit part, `cd`/`cs1`/`cs2` to the full contents (Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register (null capability under CHERI).
    pub const ZERO: Reg = Reg(0);
    /// Return address.
    pub const RA: Reg = Reg(1);
    /// Stack pointer (a capability in pure-capability mode).
    pub const SP: Reg = Reg(2);
    /// Global pointer.
    pub const GP: Reg = Reg(3);
    /// Thread pointer.
    pub const TP: Reg = Reg(4);
    /// Temporary t0.
    pub const T0: Reg = Reg(5);
    /// Temporary t1.
    pub const T1: Reg = Reg(6);
    /// Temporary t2.
    pub const T2: Reg = Reg(7);
    /// Saved register / frame pointer.
    pub const S0: Reg = Reg(8);
    /// Saved register s1.
    pub const S1: Reg = Reg(9);
    /// Argument/return a0.
    pub const A0: Reg = Reg(10);
    /// Argument/return a1.
    pub const A1: Reg = Reg(11);
    /// Argument a2.
    pub const A2: Reg = Reg(12);
    /// Argument a3.
    pub const A3: Reg = Reg(13);
    /// Argument a4.
    pub const A4: Reg = Reg(14);
    /// Argument a5.
    pub const A5: Reg = Reg(15);

    /// Construct from an index.
    ///
    /// # Panics
    ///
    /// Panics if `n > 31`.
    #[inline]
    pub fn new(n: u8) -> Reg {
        assert!(n < 32, "register index out of range: {n}");
        Reg(n)
    }

    /// The register's index, 0..=31.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The register's 5-bit encoding field.
    #[inline]
    pub(crate) fn field(self) -> u32 {
        self.0 as u32
    }

    /// Is this the hard-wired zero register?
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// ABI names, used by the disassembler.
pub(crate) const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ABI_NAMES[self.index()])
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reg({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_indices() {
        assert_eq!(Reg::ZERO.to_string(), "zero");
        assert_eq!(Reg::SP.index(), 2);
        assert_eq!(Reg::new(31).to_string(), "t6");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let _ = Reg::new(32);
    }
}
