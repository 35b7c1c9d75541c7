//! The 12-bit architectural permission vector (CHERI-RISC-V v9).

use core::fmt;
use core::ops::{BitAnd, BitOr, Not};

/// A set of capability permissions.
///
/// Permissions are monotonically non-increasing: `CAndPerm` can clear bits
/// but no instruction can set them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms(u16);

impl Perms {
    /// Capability may flow to other compartments (not enforced by the SM).
    pub const GLOBAL: Perms = Perms(1 << 0);
    /// Instructions may be fetched via this capability (PCC).
    pub const EXECUTE: Perms = Perms(1 << 1);
    /// Data may be loaded.
    pub const LOAD: Perms = Perms(1 << 2);
    /// Data may be stored.
    pub const STORE: Perms = Perms(1 << 3);
    /// Capabilities may be loaded with their tags intact.
    pub const LOAD_CAP: Perms = Perms(1 << 4);
    /// Capabilities may be stored with their tags intact.
    pub const STORE_CAP: Perms = Perms(1 << 5);
    /// Non-global capabilities may be stored.
    pub const STORE_LOCAL_CAP: Perms = Perms(1 << 6);
    /// May be used to seal other capabilities.
    pub const SEAL: Perms = Perms(1 << 7);
    /// May be used with `CInvoke`.
    pub const CINVOKE: Perms = Perms(1 << 8);
    /// May be used to unseal capabilities.
    pub const UNSEAL: Perms = Perms(1 << 9);
    /// Grants access to system registers.
    pub const ACCESS_SYS_REGS: Perms = Perms(1 << 10);
    /// May set the architectural compartment ID.
    pub const SET_CID: Perms = Perms(1 << 11);

    /// The empty permission set.
    pub const NONE: Perms = Perms(0);

    /// All twelve permissions.
    pub const ALL: Perms = Perms(0xFFF);

    /// Typical data capability permissions (everything but EXECUTE/SEAL).
    pub fn data() -> Perms {
        Perms::GLOBAL
            | Perms::LOAD
            | Perms::STORE
            | Perms::LOAD_CAP
            | Perms::STORE_CAP
            | Perms::STORE_LOCAL_CAP
    }

    /// Typical code capability permissions.
    pub fn code() -> Perms {
        Perms::GLOBAL | Perms::EXECUTE | Perms::LOAD
    }

    /// The raw 12-bit field.
    #[inline]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Build from a raw field (masked to 12 bits).
    #[inline]
    pub fn from_bits(bits: u16) -> Perms {
        Perms(bits & 0xFFF)
    }

    /// Does this set include every permission in `other`?
    #[inline]
    pub fn contains(self, other: Perms) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for Perms {
    type Output = Perms;
    #[inline]
    fn bitor(self, rhs: Perms) -> Perms {
        Perms(self.0 | rhs.0)
    }
}

impl BitAnd for Perms {
    type Output = Perms;
    #[inline]
    fn bitand(self, rhs: Perms) -> Perms {
        Perms(self.0 & rhs.0)
    }
}

impl Not for Perms {
    type Output = Perms;
    #[inline]
    fn not(self) -> Perms {
        Perms(!self.0 & 0xFFF)
    }
}

impl fmt::Debug for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(u16, &str); 12] = [
            (1 << 0, "G"),
            (1 << 1, "X"),
            (1 << 2, "R"),
            (1 << 3, "W"),
            (1 << 4, "Rc"),
            (1 << 5, "Wc"),
            (1 << 6, "Wl"),
            (1 << 7, "Se"),
            (1 << 8, "Iv"),
            (1 << 9, "Us"),
            (1 << 10, "Sr"),
            (1 << 11, "Ci"),
        ];
        write!(f, "Perms(")?;
        let mut first = true;
        for (bit, name) in NAMES {
            if self.0 & bit != 0 {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_and_ops() {
        let p = Perms::from_bits(0xFFFF);
        assert_eq!(p, Perms::ALL);
        assert!(Perms::data().contains(Perms::LOAD));
        assert!(!Perms::data().contains(Perms::EXECUTE));
        assert_eq!(Perms::ALL & !Perms::EXECUTE & Perms::EXECUTE, Perms::NONE);
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", Perms::NONE), "Perms(-)");
        assert!(format!("{:?}", Perms::code()).contains('X'));
    }
}
