//! Kernel argument-block layout, shared between the code generator and the
//! host runtime.
//!
//! The block starts with the launch geometry, then the parameters in
//! declaration order:
//!
//! ```text
//!   +0   gridDim.x  (u32)
//!   +4   blockDim.x (u32)
//!   +8.. parameters:
//!          scalars        4 bytes
//!          pointers       4 bytes        (Baseline: raw address)
//!                         8 bytes @8     (PureCap: tagged capability)
//!                         8 bytes        (Rust modes: address + length)
//! ```

use crate::expr::{Kernel, Ty};
use crate::Mode;

/// How one parameter is materialised in the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgSlot {
    /// A 4-byte scalar at the given offset.
    Scalar {
        /// Byte offset within the block.
        offset: u32,
    },
    /// A raw 4-byte address (Baseline).
    PtrRaw {
        /// Byte offset within the block.
        offset: u32,
    },
    /// A tagged 64+1-bit capability at an 8-byte-aligned offset (PureCap).
    PtrCap {
        /// Byte offset within the block.
        offset: u32,
    },
    /// A fat pointer: address then length-in-elements (Rust modes).
    PtrFat {
        /// Byte offset of the address word.
        offset: u32,
    },
}

impl ArgSlot {
    /// Byte offset of the slot.
    pub fn offset(self) -> u32 {
        match self {
            ArgSlot::Scalar { offset }
            | ArgSlot::PtrRaw { offset }
            | ArgSlot::PtrCap { offset }
            | ArgSlot::PtrFat { offset } => offset,
        }
    }
}

/// The computed layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgLayout {
    /// One slot per kernel parameter.
    pub slots: Vec<ArgSlot>,
    /// Total block size in bytes (8-byte aligned).
    pub size: u32,
}

/// Offset of `gridDim.x`.
pub(crate) const GRID_DIM_OFFSET: u32 = 0;
/// Offset of `blockDim.x`.
pub(crate) const BLOCK_DIM_OFFSET: u32 = 4;

impl ArgLayout {
    /// Compute the layout of `kernel`'s arguments under `mode`.
    pub(crate) fn new(kernel: &Kernel, mode: Mode) -> ArgLayout {
        let mut off = 8u32;
        let mut slots = Vec::with_capacity(kernel.params.len());
        for p in &kernel.params {
            let slot = match (p.ty, mode) {
                (Ty::Ptr(_), Mode::Baseline | Mode::GpuShield) => {
                    let s = ArgSlot::PtrRaw { offset: off };
                    off += 4;
                    s
                }
                (Ty::Ptr(_), Mode::PureCap) => {
                    off = off.next_multiple_of(8);
                    let s = ArgSlot::PtrCap { offset: off };
                    off += 8;
                    s
                }
                (Ty::Ptr(_), Mode::RustChecked | Mode::RustFull) => {
                    let s = ArgSlot::PtrFat { offset: off };
                    off += 8;
                    s
                }
                _ => {
                    let s = ArgSlot::Scalar { offset: off };
                    off += 4;
                    s
                }
            };
            slots.push(slot);
        }
        ArgLayout { slots, size: off.next_multiple_of(8) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Elem, KernelBuilder};

    fn kernel() -> Kernel {
        let mut k = KernelBuilder::new("t");
        k.param_u32("n");
        k.param_ptr("a", Elem::F32);
        k.param_ptr("b", Elem::U8);
        k.finish()
    }

    #[test]
    fn baseline_layout_is_packed() {
        let l = ArgLayout::new(&kernel(), Mode::Baseline);
        assert_eq!(
            l.slots,
            vec![
                ArgSlot::Scalar { offset: 8 },
                ArgSlot::PtrRaw { offset: 12 },
                ArgSlot::PtrRaw { offset: 16 },
            ]
        );
        assert_eq!(l.size, 24);
    }

    #[test]
    fn purecap_layout_aligns_capabilities() {
        let l = ArgLayout::new(&kernel(), Mode::PureCap);
        assert_eq!(
            l.slots,
            vec![
                ArgSlot::Scalar { offset: 8 },
                ArgSlot::PtrCap { offset: 16 },
                ArgSlot::PtrCap { offset: 24 },
            ]
        );
        assert_eq!(l.size, 32);
    }

    #[test]
    fn rust_layout_is_fat() {
        let l = ArgLayout::new(&kernel(), Mode::RustChecked);
        assert_eq!(l.slots[1], ArgSlot::PtrFat { offset: 12 });
        assert_eq!(l.slots[2], ArgSlot::PtrFat { offset: 20 });
        assert_eq!(l.size, 32);
    }
}
