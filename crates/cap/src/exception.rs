//! CHERI exception causes raised by the SM on failed checks.

use core::fmt;

/// Why a capability-checked operation faulted.
///
/// These correspond to the CHERI-RISC-V exception cause codes that matter to
/// the SIMT pipeline; the SM reports the first faulting lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapException {
    /// The capability's tag was clear (dereferencing a non-capability).
    TagViolation,
    /// The capability was sealed and the operation requires it unsealed.
    SealViolation,
    /// The access fell outside the capability's bounds.
    BoundsViolation,
    /// The capability lacks the LOAD permission.
    PermitLoadViolation,
    /// The capability lacks the STORE permission.
    PermitStoreViolation,
    /// The capability lacks the EXECUTE permission (PCC fetch check).
    PermitExecuteViolation,
    /// The capability lacks the LOAD_CAP permission (CLC tag stripping is
    /// modelled as a fault for visibility; real CHERI strips the tag).
    PermitLoadCapViolation,
    /// The capability lacks the STORE_CAP permission.
    PermitStoreCapViolation,
    /// A capability-wide access was not 8-byte aligned.
    AlignmentViolation,
    /// `CSetBoundsExact` requested unrepresentable bounds.
    InexactBounds,
}

impl CapException {
    /// Every variant, in declaration order — drives exhaustive fault
    /// injection and the `repro faults` coverage table.
    pub const ALL: [CapException; 10] = [
        CapException::TagViolation,
        CapException::SealViolation,
        CapException::BoundsViolation,
        CapException::PermitLoadViolation,
        CapException::PermitStoreViolation,
        CapException::PermitExecuteViolation,
        CapException::PermitLoadCapViolation,
        CapException::PermitStoreCapViolation,
        CapException::AlignmentViolation,
        CapException::InexactBounds,
    ];
}

impl fmt::Display for CapException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CapException::TagViolation => "tag violation",
            CapException::SealViolation => "seal violation",
            CapException::BoundsViolation => "bounds violation",
            CapException::PermitLoadViolation => "permit-load violation",
            CapException::PermitStoreViolation => "permit-store violation",
            CapException::PermitExecuteViolation => "permit-execute violation",
            CapException::PermitLoadCapViolation => "permit-load-cap violation",
            CapException::PermitStoreCapViolation => "permit-store-cap violation",
            CapException::AlignmentViolation => "alignment violation",
            CapException::InexactBounds => "inexact bounds",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CapException {}
