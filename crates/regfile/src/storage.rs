//! Bit-exact storage accounting for compressed register files.
//!
//! This drives Table 2 (baseline register-file compression), the 14% / 7%
//! metadata-SRF overhead numbers of Section 4.3, and the Block-RAM column of
//! Table 3.
//!
//! An SRF entry needs its value field (32-bit base for data, 33-bit metadata
//! value), a 6-bit stride (data only), a 2-bit kind tag, and — with the
//! null-value optimisation — a lane mask. The baseline SRF is stored twice
//! (two 2-port SRAMs providing three read ports); the metadata SRF is
//! single-copy (one read port, with `CSC` paying an extra cycle).

use crate::RfConfig;

/// Storage accounting for one register file instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFileStorage {
    /// SRF bits (all copies).
    pub srf_bits: u64,
    /// VRF bits.
    pub vrf_bits: u64,
    /// Free-stack bits.
    pub free_stack_bits: u64,
}

impl RegFileStorage {
    /// Account for `cfg`.
    pub fn for_config(cfg: &RfConfig) -> Self {
        // One SRF entry: the value field (base / metadata), the stride (0
        // when affine detection is off), the 2-bit entry kind (scalar /
        // vector-pointer / spilled) and the NVO lane mask (0 when NVO is off).
        let entry_bits = cfg.elem_bits.max(32)
            + if cfg.detect_affine { 6 } else { 0 }
            + 2
            + if cfg.null_value.is_some() { cfg.lanes } else { 0 };
        let slots = cfg.vrf_slots.max(1);
        RegFileStorage {
            srf_bits: cfg.total_regs() as u64 * entry_bits as u64 * cfg.srf_copies as u64,
            vrf_bits: cfg.vrf_slots as u64 * cfg.lanes as u64 * cfg.elem_bits as u64,
            free_stack_bits: cfg.vrf_slots as u64
                * (32 - (slots - 1).leading_zeros()).max(1) as u64,
        }
    }

    /// Total bits.
    pub(crate) fn total_bits(&self) -> u64 {
        self.srf_bits + self.vrf_bits + self.free_stack_bits
    }

    /// Total size in kilobits (as reported in Table 2 / Table 3).
    pub fn kilobits(&self) -> f64 {
        self.total_bits() as f64 / 1024.0
    }
}

/// Bits of an *uncompressed* register file of the same geometry — the
/// denominator of Table 2's compression ratio.
pub fn uncompressed_bits(warps: u32, lanes: u32, arch_regs: u32, elem_bits: u32) -> u64 {
    warps as u64 * lanes as u64 * arch_regs as u64 * elem_bits as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduce the storage column of Table 2 (64 warps × 32 lanes).
    #[test]
    fn table2_storage_column() {
        for (slots, paper_kb) in [(1024u32, 1202.0f64), (768, 937.0), (512, 672.0)] {
            let cfg = RfConfig::data(64, 32, slots);
            let s = RegFileStorage::for_config(&cfg);
            let kb = s.kilobits();
            let err = (kb - paper_kb).abs() / paper_kb;
            assert!(err < 0.02, "slots={slots}: model {kb:.0} Kb vs paper {paper_kb} Kb");
        }
    }

    /// Compression ratio against the 2048-Kb uncompressed baseline.
    #[test]
    fn table2_compress_ratio() {
        let uncompressed = uncompressed_bits(64, 32, 32, 32) as f64 / 1024.0;
        assert_eq!(uncompressed, 2048.0);
        let cfg = RfConfig::data(64, 32, 768);
        let ratio = RegFileStorage::for_config(&cfg).kilobits() / uncompressed;
        assert!((ratio - 0.45).abs() < 0.02, "ratio {ratio:.3} vs paper 0.45");
    }

    /// The metadata SRF (with NVO) costs ~14% of the compressed baseline
    /// register file (Section 4.3), and halving the number of capability
    /// registers would bring it to ~7%.
    #[test]
    fn metadata_srf_overhead() {
        let baseline = RegFileStorage::for_config(&RfConfig::data(64, 32, 768)).kilobits();
        // Shared VRF: the metadata RF adds only its SRF.
        let meta = RegFileStorage::for_config(&RfConfig::meta(64, 32, 0, true));
        let overhead = meta.srf_bits as f64 / 1024.0 / baseline;
        assert!((overhead - 0.14).abs() < 0.01, "overhead {overhead:.3} vs paper 0.14");
        assert!((overhead / 2.0 - 0.07).abs() < 0.01);
    }

    #[test]
    fn entry_bit_fields() {
        let data = RfConfig::data(64, 32, 768);
        let s = RegFileStorage::for_config(&data);
        // 2048 entries x 40 bits x 2 copies
        assert_eq!(s.srf_bits, 2048 * 40 * 2);
        let meta = RfConfig::meta(64, 32, 0, true);
        let s = RegFileStorage::for_config(&meta);
        // 2048 entries x (33 + 2 + 32) bits x 1 copy
        assert_eq!(s.srf_bits, 2048 * 67);
    }
}
