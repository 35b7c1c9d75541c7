//! CHERI Concentrate capabilities for the CHERI-SIMT model.
//!
//! This crate is the Rust counterpart of CheriCapLib (Rugg et al.), the
//! library used by the paper to handle compressed bounds in 64+1-bit
//! capabilities on a 32-bit address space (CHERI-RISC-V v9 flavour).
//!
//! A capability packs, into 64 bits plus a hidden tag:
//!
//! ```text
//!   63        52 51    48 47      46       32 31         0
//!  +------------+--------+-------+-----------+------------+
//!  | perms (12) | otype4 | flag1 | bounds 15 | address 32 |
//!  +------------+--------+-------+-----------+------------+
//! ```
//!
//! The 15-bit bounds field encodes a 32-bit lower bound and a 33-bit upper
//! bound in the floating-point-like *CHERI Concentrate* format
//! (`IE | T[5:0] | B[7:0]`, mantissa width 8). See [`bounds`] for the codec.
//!
//! Two representations are exposed, mirroring the paper's Figure 7:
//!
//! * [`CapMem`] — the in-memory format (`Bit 65`): 64 bits plus tag.
//! * [`CapPipe`] — the in-pipeline, partially-decompressed format (`Bit 91`):
//!   the same fields plus the already-decoded base and top and the
//!   representable region they hold on, so that the hot operations
//!   (`set_addr`, `is_access_in_bounds`) are cheap.
//!
//! # Example
//!
//! ```
//! use cheri_cap::{CapPipe, Perms};
//!
//! // Derive a 256-byte buffer capability from the almighty root.
//! let root = CapPipe::almighty();
//! let (buf, exact) = root.set_addr(0x1000).set_bounds(256);
//! assert!(exact);
//! assert_eq!(buf.base(), 0x1000);
//! assert_eq!(buf.length(), 256);
//! assert!(buf.is_access_in_bounds(0x10ff, 1));
//! assert!(!buf.is_access_in_bounds(0x1100, 1));
//! assert!(buf.perms().contains(Perms::LOAD | Perms::STORE));
//! ```

pub mod area;
pub mod bounds;
mod cap;
mod exception;
mod perms;

pub use cap::{CapMem, CapPipe};
pub use exception::CapException;
pub use perms::Perms;

/// Object type carried in the 4-bit `otype` field.
///
/// The all-zero encoding is *unsealed* so that zeroed memory decodes to a
/// harmless (untagged, permissionless) capability.
pub mod otype {
    /// Unsealed (ordinary) capability.
    pub const UNSEALED: u8 = 0;
    /// Sealed entry ("sentry") capability, produced by `CSealEntry`.
    pub const SENTRY: u8 = 1;
    /// First object type available for software sealing.
    pub const FIRST_SW: u8 = 2;
    /// Last representable object type (4-bit field).
    pub const MAX: u8 = 0xF;
}

/// Width of a memory access, as carried by load/store instructions
/// (`AccessWidth` in Figure 7): 1, 2, 4 or 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessWidth {
    /// 1-byte access (`CLB`/`CSB`).
    Byte,
    /// 2-byte access (`CLH`/`CSH`).
    Half,
    /// 4-byte access (`CLW`/`CSW`).
    Word,
    /// 8-byte capability-sized access (`CLC`/`CSC`).
    Cap,
}

impl AccessWidth {
    /// Size of the access in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            AccessWidth::Byte => 1,
            AccessWidth::Half => 2,
            AccessWidth::Word => 4,
            AccessWidth::Cap => 8,
        }
    }
}
