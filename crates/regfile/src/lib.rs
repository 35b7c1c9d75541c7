//! SIMTight's compressed register files, extended for CHERI (Sections 3.1
//! and 3.2 of the paper).
//!
//! A streaming multiprocessor holds `32 × warps` architectural *vector*
//! registers (each thread's scalar register is one element of a warp-wide
//! vector). The compressed register file exploits inter-thread *value
//! regularity*:
//!
//! * A **scalar register file (SRF)** holds one entry per architectural
//!   vector register: either a compact `base + stride` pair (uniform when
//!   the stride is zero, affine otherwise) or a pointer into the VRF.
//! * A size-constrained **vector register file (VRF)** holds the vectors
//!   that cannot be compressed, allocated on demand from a free stack.
//!   When the free stack runs dry the pipeline spills a vector register to
//!   main memory and fills it back on demand.
//!
//! For CHERI, a second compressed register file holds the 33-bit capability
//! *metadata* (Section 3.2). It detects only uniform vectors (a stride makes
//! no sense for metadata), optionally shares its VRF with the data register
//! file, and supports the **null-value optimisation (NVO)**: an SRF entry
//! may carry a lane mask marking which elements are the constant null
//! metadata, so a uniform metadata vector partially overwritten with nulls
//! (or vice versa) stays scalar.
//!
//! # Example
//!
//! ```
//! use simt_regfile::{CompressedRegFile, RfConfig};
//!
//! let mut rf = CompressedRegFile::new(RfConfig::data(4, 8, 8));
//! // An affine vector (thread indices) compresses into the SRF.
//! let tid: Vec<u64> = (0..8).collect();
//! rf.write(0, 5, &tid, u64::MAX);
//! assert_eq!(rf.vrf_resident(), 0);
//! let mut out = [0u64; 8];
//! rf.read(0, 5, &mut out);
//! assert_eq!(&out[..], &tid[..]);
//! ```

mod storage;

pub use storage::{uncompressed_bits, RegFileStorage};

/// Configuration of one compressed register file.
#[derive(Debug, Clone, Copy)]
pub struct RfConfig {
    /// Number of warps.
    pub warps: u32,
    /// Threads per warp (vector lanes).
    pub lanes: u32,
    /// Architectural registers per thread (32 for RV32).
    pub arch_regs: u32,
    /// Capacity of the vector register file, in vector slots.
    pub vrf_slots: u32,
    /// Detect affine (base+stride) vectors, not just uniform ones.
    pub detect_affine: bool,
    /// Null-value optimisation: treat this element value as "null" and keep
    /// partially-null uniform vectors in the SRF under a lane mask.
    pub null_value: Option<u64>,
    /// Element width in bits (32 for data, 33 for capability metadata) —
    /// used for storage accounting only.
    pub elem_bits: u32,
    /// Number of identical SRF copies (2 for the baseline's three read
    /// ports, 1 for the halved-port metadata SRF).
    pub srf_copies: u32,
}

impl RfConfig {
    /// The baseline data register file: uniform+affine detection, duplicated
    /// SRF, 32-bit elements.
    pub fn data(warps: u32, lanes: u32, vrf_slots: u32) -> Self {
        RfConfig {
            warps,
            lanes,
            arch_regs: 32,
            vrf_slots,
            detect_affine: true,
            null_value: None,
            elem_bits: 32,
            srf_copies: 2,
        }
    }

    /// The capability-metadata register file: uniform detection only,
    /// single-copy SRF (CSC pays an extra cycle), 33-bit elements, optional
    /// NVO.
    pub fn meta(warps: u32, lanes: u32, vrf_slots: u32, nvo: bool) -> Self {
        RfConfig {
            warps,
            lanes,
            arch_regs: 32,
            vrf_slots,
            detect_affine: false,
            null_value: nvo.then_some(NULL_META),
            elem_bits: 33,
            srf_copies: 1,
        }
    }

    /// Override the number of architectural registers the file must cover
    /// (the §4.3 forecast: with compiler support confining capabilities to
    /// 16 registers, the metadata SRF halves).
    pub fn with_arch_regs(mut self, arch_regs: u32) -> Self {
        self.arch_regs = arch_regs;
        self
    }

    /// Total architectural vector registers.
    pub(crate) fn total_regs(&self) -> u32 {
        self.warps * self.arch_regs
    }
}

/// The metadata value of the null capability, as stored in the 33-bit
/// metadata register file (tag bit 32 clear, all fields zero).
pub const NULL_META: u64 = 0;

/// Maximum supported lane count.
pub const MAX_LANES: usize = 64;

/// Strides representable in the SRF's 6-bit signed stride field.
const STRIDE_MIN: i64 = -32;
const STRIDE_MAX: i64 = 31;

/// A warp-wide operand in its *compact* form — the typed counterpart of
/// the SRF/VRF split. The execute stage reads operands in this
/// representation and, when every input is compact, computes the result
/// once per warp instead of once per lane (the simulator-side use of the
/// paper's §3.1 inter-thread value regularity).
///
/// Lane contract: `Uniform(v)` is `v` in every lane (full 64-bit value);
/// `Affine { base, stride }` is
/// `(base as u32).wrapping_add((stride as u32).wrapping_mul(i))` in lane
/// `i`, zero-extended — affine vectors live in the 32-bit data domain and
/// `base` is exactly the lane-0 value; `Vector` is one element per lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperandVec {
    /// Every lane holds the same value.
    Uniform(u64),
    /// `base + lane · stride`, modulo 2³².
    Affine {
        /// Lane-0 value (already truncated to the 32-bit data domain).
        base: u64,
        /// Per-lane increment, modulo 2³² (any congruent value is valid).
        stride: i64,
    },
    /// Irregular: one element per lane (only the first `lanes` are live).
    Vector(Box<[u64]>),
}

impl OperandVec {
    /// Expand into `out` (one element per lane), following the lane
    /// contract above.
    pub fn expand_into(&self, out: &mut [u64]) {
        match *self {
            OperandVec::Uniform(v) => out.fill(v),
            OperandVec::Affine { base, stride } => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = (base as u32).wrapping_add((stride as u32).wrapping_mul(i as u32)) as u64;
                }
            }
            OperandVec::Vector(ref v) => out.copy_from_slice(&v[..out.len()]),
        }
    }
}

/// Residency class of a register, as seen *without* disturbing spill
/// state — the pre-issue classifier's view. `Uniform` and `Affine` are
/// compact SRF entries; `Vector` covers VRF-resident, spilled, and NVO
/// partial-null entries (their lanes differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandClass {
    /// Compact: every lane equal.
    Uniform,
    /// Compact: `base + lane · stride`.
    Affine,
    /// Uncompressed (or partial-null): lanes differ.
    Vector,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Entry {
    /// `base + lane * stride` (stride 0 = uniform).
    Scalar { base: u64, stride: i8 },
    /// NVO: lanes in `mask` hold `value`; the rest hold the null value.
    PartialNull { value: u64, mask: u64 },
    /// Uncompressed, resident in the VRF.
    Vector { slot: u32 },
    /// Uncompressed, spilled to main memory (contents kept functionally).
    Spilled(Vec<u64>),
}

/// Cumulative register-file statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RfStats {
    /// Vector registers spilled to memory (VRF overflow).
    pub spills: u64,
    /// Vector registers filled back from memory.
    pub fills: u64,
    /// Writes that landed compactly in the SRF.
    pub scalar_writes: u64,
    /// Writes that required a VRF slot.
    pub vector_writes: u64,
    /// Peak number of VRF-resident vectors.
    pub peak_resident: u32,
}

/// Result of a read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadInfo {
    /// The operand came from the VRF (uncompressed).
    pub from_vrf: bool,
    /// Fills (and chained spills) triggered to bring the operand back.
    pub fills: u32,
    /// Spills triggered to make room for the fill.
    pub spills: u32,
}

/// Result of a write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteInfo {
    /// The result was stored compactly in the SRF.
    pub to_srf: bool,
    /// Spills triggered (VRF overflow).
    pub spills: u32,
    /// Fills triggered (partial write to a spilled register).
    pub fills: u32,
    /// The register changed residency class: `Some(true)` when it left the
    /// SRF for the VRF (uncompressed, resident or spilled), `Some(false)`
    /// when the compressor reclaimed it, `None` when the class is
    /// unchanged. For the metadata register file the `Some(false)` writes
    /// are the vectors the null-value optimisation (NVO) reclaimed.
    pub transition: Option<bool>,
}

/// One compressed register file (Figure 5).
#[derive(Debug, Clone)]
pub struct CompressedRegFile {
    cfg: RfConfig,
    entries: Vec<Entry>,
    /// VRF backing store, `vrf_slots × lanes` elements.
    vrf: Vec<u64>,
    /// Free stack of VRF slots.
    free: Vec<u32>,
    /// Round-robin spill victim cursor (over architectural registers).
    victim: usize,
    resident: u32,
    stats: RfStats,
    /// Per-warp bitmask of architectural registers that ever held a
    /// non-null element (drives Figure 11 for the metadata register file).
    ever_nonnull: Vec<u32>,
}

impl CompressedRegFile {
    /// Create a register file with all registers reading as zero.
    ///
    /// # Panics
    ///
    /// Panics if the lane count exceeds [`MAX_LANES`].
    pub fn new(cfg: RfConfig) -> Self {
        assert!(cfg.lanes as usize <= MAX_LANES, "too many lanes");
        assert!(cfg.srf_copies >= 1);
        CompressedRegFile {
            cfg,
            entries: vec![Entry::Scalar { base: 0, stride: 0 }; cfg.total_regs() as usize],
            vrf: vec![0; (cfg.vrf_slots * cfg.lanes) as usize],
            free: (0..cfg.vrf_slots).rev().collect(),
            victim: 0,
            resident: 0,
            stats: RfStats::default(),
            ever_nonnull: vec![0; cfg.warps as usize],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RfConfig {
        &self.cfg
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> RfStats {
        self.stats
    }

    /// Number of vectors currently resident in the VRF.
    pub fn vrf_resident(&self) -> u32 {
        self.resident
    }

    /// Highest number of architectural registers (out of `arch_regs`) that
    /// ever simultaneously held a non-null element in some warp. For the
    /// metadata register file this is "registers used to hold capabilities"
    /// (Figure 11).
    pub fn max_nonnull_regs(&self) -> u32 {
        self.ever_nonnull.iter().map(|m| m.count_ones()).max().unwrap_or(0)
    }

    /// Union over all warps of the registers that ever held a non-null
    /// element, as a bitmask (bit *r* = architectural register *r*). Used
    /// to verify the §4.3 capability-register-limit forecast.
    pub fn nonnull_mask_union(&self) -> u32 {
        self.ever_nonnull.iter().fold(0, |a, m| a | m)
    }

    #[inline]
    fn idx(&self, warp: u32, reg: u32) -> usize {
        debug_assert!(warp < self.cfg.warps && reg < self.cfg.arch_regs);
        (warp * self.cfg.arch_regs + reg) as usize
    }

    fn expand_into(&self, e: &Entry, out: &mut [u64]) {
        let lanes = self.cfg.lanes as usize;
        match *e {
            Entry::Scalar { base, stride: 0 } => out[..lanes].fill(base),
            Entry::Scalar { base, stride } => {
                // Affine vectors only arise in the 32-bit data register
                // file; the lane values advance modulo 2^32.
                for (i, o) in out[..lanes].iter_mut().enumerate() {
                    *o = (base as u32).wrapping_add((stride as i32 * i as i32) as u32) as u64;
                }
            }
            Entry::PartialNull { value, mask } => {
                let null = self.cfg.null_value.unwrap_or(0);
                for (i, o) in out[..lanes].iter_mut().enumerate() {
                    *o = if mask >> i & 1 == 1 { value } else { null };
                }
            }
            Entry::Vector { slot } => {
                let s = (slot * self.cfg.lanes) as usize;
                out[..lanes].copy_from_slice(&self.vrf[s..s + lanes]);
            }
            Entry::Spilled(ref data) => out[..lanes].copy_from_slice(data),
        }
    }

    /// Try to compress a full vector into an SRF entry.
    fn compress(&self, v: &[u64]) -> Option<Entry> {
        let base = v[0];
        if v.iter().all(|&x| x == base) {
            return Some(Entry::Scalar { base, stride: 0 });
        }
        if self.cfg.detect_affine && v.len() >= 2 {
            // 32-bit data domain: stride comparisons wrap modulo 2^32.
            let stride = (v[1] as u32).wrapping_sub(v[0] as u32) as i32 as i64;
            if (STRIDE_MIN..=STRIDE_MAX).contains(&stride)
                && v.windows(2)
                    .all(|w| (w[1] as u32).wrapping_sub(w[0] as u32) as i32 as i64 == stride)
            {
                return Some(Entry::Scalar { base, stride: stride as i8 });
            }
        }
        if let Some(null) = self.cfg.null_value {
            // One pass, no allocation: the non-null lanes must share one
            // value (an all-null vector is uniform and was caught above).
            let mut value = None;
            let mut mask = 0u64;
            for (i, &x) in v.iter().enumerate() {
                if x != null {
                    match value {
                        None => value = Some(x),
                        Some(v0) if v0 == x => {}
                        Some(_) => return None,
                    }
                    mask |= 1 << i;
                }
            }
            if let Some(value) = value {
                return Some(Entry::PartialNull { value, mask });
            }
        }
        None
    }

    /// Pick a VRF-resident victim (round-robin) and spill it.
    fn spill_one(&mut self) -> bool {
        let total = self.entries.len();
        for _ in 0..total {
            let i = self.victim;
            self.victim = (self.victim + 1) % total;
            if let Entry::Vector { slot } = self.entries[i] {
                let lanes = self.cfg.lanes as usize;
                let s = (slot * self.cfg.lanes) as usize;
                let data = self.vrf[s..s + lanes].to_vec();
                self.entries[i] = Entry::Spilled(data);
                self.free.push(slot);
                self.resident -= 1;
                self.stats.spills += 1;
                return true;
            }
        }
        false
    }

    /// Allocate a VRF slot, spilling if necessary. Returns (slot, spills).
    fn alloc_slot(&mut self) -> (u32, u32) {
        let mut spills = 0;
        if self.free.is_empty() {
            assert!(self.spill_one(), "VRF exhausted with nothing to spill");
            spills += 1;
        }
        let slot = self.free.pop().expect("slot after spill");
        self.resident += 1;
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident);
        (slot, spills)
    }

    /// Ensure the entry at `idx` is VRF-resident; returns (fills, spills).
    fn fill(&mut self, idx: usize) -> (u32, u32) {
        let Entry::Spilled(data) = &mut self.entries[idx] else {
            return (0, 0);
        };
        // Move the spilled vector out; the entry stays `Spilled`, so the
        // slot allocation below cannot pick it as a victim.
        let data = std::mem::take(data);
        let (slot, spills) = self.alloc_slot();
        let lanes = self.cfg.lanes as usize;
        let s = (slot * self.cfg.lanes) as usize;
        self.vrf[s..s + lanes].copy_from_slice(&data);
        self.entries[idx] = Entry::Vector { slot };
        self.stats.fills += 1;
        (1, spills)
    }

    /// Read a full vector register into `out` (one element per lane).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the lane count.
    pub fn read(&mut self, warp: u32, reg: u32, out: &mut [u64]) -> ReadInfo {
        let idx = self.idx(warp, reg);
        let (fills, spills) = self.fill(idx);
        let e = &self.entries[idx];
        let from_vrf = matches!(e, Entry::Vector { .. });
        self.expand_into(e, out);
        ReadInfo { from_vrf, fills, spills }
    }

    /// Write the active lanes (set bits of `mask`) of a vector register.
    /// Inactive lanes keep their old values. The write path re-runs the
    /// compressor on the merged vector, exactly like the hardware's array of
    /// comparators (Figure 5).
    pub fn write(&mut self, warp: u32, reg: u32, values: &[u64], mask: u64) -> WriteInfo {
        let lanes = self.cfg.lanes as usize;
        let full = mask & (u64::MAX >> (64 - lanes));
        if full == 0 {
            return WriteInfo { to_srf: true, ..WriteInfo::default() };
        }
        let idx = self.idx(warp, reg);

        if full == u64::MAX >> (64 - lanes) {
            // Full-mask write: the merged vector is `values` itself.
            return self.install(warp, reg, idx, &values[..lanes]);
        }
        // Merge with existing contents.
        let mut merged = [0u64; MAX_LANES];
        self.expand_into(&self.entries[idx], &mut merged);
        for i in 0..lanes {
            if full >> i & 1 == 1 {
                merged[i] = values[i];
            }
        }
        self.install(warp, reg, idx, &merged[..lanes])
    }

    /// Commit a fully-merged vector to the register: run the compressor and
    /// store the result in the SRF or the VRF (the tail of [`Self::write`]).
    fn install(&mut self, warp: u32, reg: u32, idx: usize, merged: &[u64]) -> WriteInfo {
        let lanes = self.cfg.lanes as usize;
        let null = self.cfg.null_value.unwrap_or(0);
        if merged.iter().any(|&x| x != null) {
            self.ever_nonnull[warp as usize] |= 1 << reg;
        }

        match self.compress(merged) {
            Some(new_entry) => self.store_scalar(idx, new_entry),
            None => {
                let mut info = WriteInfo::default();
                let slot = match self.entries[idx] {
                    Entry::Vector { slot } => slot,
                    ref old => {
                        // A spilled register is already vector-class.
                        info.transition = (!matches!(old, Entry::Spilled(_))).then_some(true);
                        let (slot, spills) = self.alloc_slot();
                        info.spills += spills;
                        self.entries[idx] = Entry::Vector { slot };
                        slot
                    }
                };
                let s = (slot * self.cfg.lanes) as usize;
                self.vrf[s..s + lanes].copy_from_slice(merged);
                self.stats.vector_writes += 1;
                info
            }
        }
    }

    /// Store a compact entry in the SRF, freeing any VRF slot the register
    /// was occupying. Always inlined so `entry` is built in place: passed by
    /// value through a call it is written piecewise and reloaded whole, a
    /// stall that cost about 8 % of `simbench alu_converged`'s host time.
    #[inline(always)]
    fn store_scalar(&mut self, idx: usize, entry: Entry) -> WriteInfo {
        let was_vector = match self.entries[idx] {
            Entry::Vector { slot } => {
                self.free.push(slot);
                self.resident -= 1;
                true
            }
            Entry::Spilled(_) => true,
            Entry::Scalar { .. } | Entry::PartialNull { .. } => false,
        };
        self.entries[idx] = entry;
        self.stats.scalar_writes += 1;
        WriteInfo { to_srf: true, transition: was_vector.then_some(false), ..WriteInfo::default() }
    }

    /// Residency class of a register without touching spill state — what
    /// the execute stage's pre-issue classifier sees. Pure: repeated calls
    /// return the same answer until the register is written.
    pub fn class_of(&self, warp: u32, reg: u32) -> OperandClass {
        match self.entries[(warp * self.cfg.arch_regs + reg) as usize] {
            Entry::Scalar { stride: 0, .. } => OperandClass::Uniform,
            Entry::Scalar { .. } => OperandClass::Affine,
            Entry::PartialNull { .. } | Entry::Vector { .. } | Entry::Spilled(_) => {
                OperandClass::Vector
            }
        }
    }

    /// Read a register in its stored form, without expanding compact
    /// entries. Spill/fill behaviour and the returned [`ReadInfo`] are
    /// identical to [`Self::read`]; only the shape of the result differs —
    /// a `Scalar` SRF entry comes back as `Uniform`/`Affine` with **no**
    /// per-lane work, everything else is expanded into a `Vector`.
    pub fn read_compact(&mut self, warp: u32, reg: u32) -> (OperandVec, ReadInfo) {
        let idx = self.idx(warp, reg);
        let (fills, spills) = self.fill(idx);
        match self.entries[idx] {
            Entry::Scalar { base, stride: 0 } => {
                (OperandVec::Uniform(base), ReadInfo { from_vrf: false, fills, spills })
            }
            Entry::Scalar { base, stride } => (
                // `base` in the entry is the full first-written value; the
                // lane-0 contract truncates to the 32-bit data domain,
                // exactly as `expand_into` does.
                OperandVec::Affine { base: (base as u32) as u64, stride: stride as i64 },
                ReadInfo { from_vrf: false, fills, spills },
            ),
            ref e => {
                let from_vrf = matches!(e, Entry::Vector { .. });
                let lanes = self.cfg.lanes as usize;
                let mut out = vec![0u64; lanes];
                let e = e.clone();
                self.expand_into(&e, &mut out);
                (OperandVec::Vector(out.into_boxed_slice()), ReadInfo { from_vrf, fills, spills })
            }
        }
    }

    /// Write a register from its compact form, without re-running the
    /// compressor scan when the result is already known compact. For every
    /// `(value, mask)` this is **bit-identical** to expanding `value` and
    /// calling [`Self::write`] — same entry, same statistics, same
    /// [`WriteInfo`] (asserted by the `compact_*` unit tests below and the
    /// core's differential property test):
    ///
    /// * full-mask `Uniform` is a compact SRF store (uniform vectors always
    ///   compress, whatever the configuration);
    /// * full-mask `Affine` with a representable stride is a compact SRF
    ///   store when the file detects affine vectors (strides are compared
    ///   modulo 2³², like the compressor's comparators);
    /// * a `Uniform` write under a partial (non-empty) mask into a register
    ///   already holding that same uniform value is a compact SRF store too:
    ///   the merged vector is that uniform value again. In divergent code
    ///   this is null metadata from an integer result written over null
    ///   metadata, nearly every partial-mask metadata write (DESIGN.md §3.3);
    /// * everything else — other partial masks, `Vector` operands,
    ///   out-of-range strides — expands and takes the ordinary write path.
    pub fn write_compact(
        &mut self,
        warp: u32,
        reg: u32,
        value: &OperandVec,
        mask: u64,
    ) -> WriteInfo {
        let lanes = self.cfg.lanes as usize;
        let full_mask = u64::MAX >> (64 - lanes);
        let full = mask & full_mask == full_mask;
        // Normalise the compact forms: under a full mask a one-lane or
        // stride-≡-0 affine is uniform over the active lanes (with `base`
        // already the lane-0 value by the contract).
        let norm = match *value {
            OperandVec::Affine { base, stride } if full => {
                let stride = (stride as u32) as i32 as i64;
                if stride == 0 || lanes == 1 {
                    Some(OperandVec::Uniform(base))
                } else {
                    Some(OperandVec::Affine { base, stride })
                }
            }
            OperandVec::Uniform(v) => Some(OperandVec::Uniform(v)),
            OperandVec::Affine { .. } | OperandVec::Vector(_) => None,
        };
        let idx = self.idx(warp, reg);
        match norm {
            // A partial write over the same uniform value merges to it again.
            Some(OperandVec::Uniform(v))
                if full
                    || (mask & full_mask != 0
                        && matches!(self.entries[idx], Entry::Scalar { base, stride: 0 } if base == v)) =>
            {
                if v != self.cfg.null_value.unwrap_or(0) {
                    self.ever_nonnull[warp as usize] |= 1 << reg;
                }
                return self.store_scalar(idx, Entry::Scalar { base: v, stride: 0 });
            }
            Some(OperandVec::Affine { base, stride })
                if self.cfg.detect_affine && (STRIDE_MIN..=STRIDE_MAX).contains(&stride) =>
            {
                // Two distinct lane values exist (stride ≢ 0, lanes ≥ 2),
                // so some lane differs from the null value.
                self.ever_nonnull[warp as usize] |= 1 << reg;
                return self.store_scalar(idx, Entry::Scalar { base, stride: stride as i8 });
            }
            _ => {}
        }
        // A full-mask `Vector` operand is the merged result itself: skip the
        // expand-and-merge.
        if let (true, OperandVec::Vector(v)) = (full, value) {
            return self.install(warp, reg, idx, &v[..lanes]);
        }
        let mut buf = [0u64; MAX_LANES];
        value.expand_into(&mut buf[..lanes]);
        self.write(warp, reg, &buf, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RfConfig {
        RfConfig::data(2, 8, 4)
    }

    fn vals(f: impl Fn(usize) -> u64) -> Vec<u64> {
        (0..8).map(f).collect()
    }

    #[test]
    fn uniform_and_affine_stay_scalar() {
        let mut rf = CompressedRegFile::new(cfg());
        rf.write(0, 1, &vals(|_| 42), u64::MAX);
        rf.write(0, 2, &vals(|i| 100 + 4 * i as u64), u64::MAX);
        assert_eq!(rf.vrf_resident(), 0);
        let mut out = [0u64; 8];
        assert!(!rf.read(0, 2, &mut out).from_vrf);
        assert_eq!(out[7], 128);
    }

    #[test]
    fn negative_stride_and_wraparound() {
        let mut rf = CompressedRegFile::new(cfg());
        // Values are 32-bit data, zero-extended into the 64-bit elements.
        rf.write(0, 1, &vals(|i| (10i32 - 2 * i as i32) as u32 as u64), u64::MAX);
        assert_eq!(rf.vrf_resident(), 0);
        let mut out = [0u64; 8];
        rf.read(0, 1, &mut out);
        assert_eq!(out[6], (-2i32) as u32 as u64);
    }

    #[test]
    fn irregular_goes_to_vrf() {
        let mut rf = CompressedRegFile::new(cfg());
        rf.write(0, 3, &vals(|i| (i * i) as u64), u64::MAX);
        assert_eq!(rf.vrf_resident(), 1);
        let mut out = [0u64; 8];
        assert!(rf.read(0, 3, &mut out).from_vrf);
        assert_eq!(out[5], 25);
    }

    #[test]
    fn large_stride_is_not_compressible() {
        let mut rf = CompressedRegFile::new(cfg());
        rf.write(0, 3, &vals(|i| 1000 * i as u64), u64::MAX);
        assert_eq!(rf.vrf_resident(), 1, "stride 1000 exceeds the 6-bit field");
    }

    #[test]
    fn partial_write_expands_scalar() {
        let mut rf = CompressedRegFile::new(cfg());
        rf.write(0, 4, &vals(|_| 7), u64::MAX);
        // Overwrite lanes 0..4 with something irregular.
        rf.write(0, 4, &vals(|i| (i * 13) as u64), 0x0F);
        let mut out = [0u64; 8];
        assert!(rf.read(0, 4, &mut out).from_vrf);
        assert_eq!(&out[..8], &[0, 13, 26, 39, 7, 7, 7, 7]);
    }

    #[test]
    fn partial_uniform_overwrite_recompresses() {
        let mut rf = CompressedRegFile::new(cfg());
        rf.write(0, 4, &vals(|i| (i * i) as u64), u64::MAX);
        assert_eq!(rf.vrf_resident(), 1);
        // Full overwrite with a uniform value frees the slot.
        rf.write(0, 4, &vals(|_| 5), u64::MAX);
        assert_eq!(rf.vrf_resident(), 0);
    }

    #[test]
    fn spill_and_fill_roundtrip() {
        let mut rf = CompressedRegFile::new(cfg()); // 4 slots
        for r in 0..6 {
            rf.write(0, r, &vals(|i| (i as u64) * 97 + r as u64), u64::MAX);
        }
        assert!(rf.stats().spills >= 2);
        // All six registers still read back correctly.
        let mut out = [0u64; 8];
        for r in 0..6 {
            rf.read(0, r, &mut out);
            assert_eq!(out[3], 3 * 97 + r as u64, "reg {r}");
        }
        assert!(rf.stats().fills >= 2);
    }

    #[test]
    fn nvo_keeps_partially_null_uniform_in_srf() {
        let mut rf = CompressedRegFile::new(RfConfig::meta(1, 8, 4, true));
        // A uniform metadata vector...
        rf.write(0, 5, &vals(|_| 0x1_2345_6789), u64::MAX);
        assert_eq!(rf.vrf_resident(), 0);
        // ...partially overwritten with null stays in the SRF (rule 1)...
        rf.write(0, 5, &vals(|_| NULL_META), 0x0F);
        assert_eq!(rf.vrf_resident(), 0);
        let mut out = [0u64; 8];
        rf.read(0, 5, &mut out);
        assert_eq!(
            &out[..8],
            &[0, 0, 0, 0, 0x1_2345_6789, 0x1_2345_6789, 0x1_2345_6789, 0x1_2345_6789]
        );
        // ...and partially overwritten again with the same uniform value
        // also stays (rule 3).
        rf.write(0, 5, &vals(|_| 0x1_2345_6789), 0x03);
        assert_eq!(rf.vrf_resident(), 0);
    }

    #[test]
    fn without_nvo_partial_null_goes_to_vrf() {
        let mut rf = CompressedRegFile::new(RfConfig::meta(1, 8, 4, false));
        rf.write(0, 5, &vals(|_| 0x1_2345_6789), u64::MAX);
        rf.write(0, 5, &vals(|_| NULL_META), 0x0F);
        assert_eq!(rf.vrf_resident(), 1);
    }

    #[test]
    fn nvo_two_distinct_values_still_diverge() {
        let mut rf = CompressedRegFile::new(RfConfig::meta(1, 8, 4, true));
        rf.write(0, 5, &vals(|_| 0x111), u64::MAX);
        rf.write(0, 5, &vals(|_| 0x222), 0x0F);
        assert_eq!(rf.vrf_resident(), 1, "two non-null values cannot share an NVO entry");
    }

    #[test]
    fn meta_rf_does_not_detect_affine() {
        let mut rf = CompressedRegFile::new(RfConfig::meta(1, 8, 4, true));
        rf.write(0, 6, &vals(|i| i as u64), u64::MAX);
        assert_eq!(rf.vrf_resident(), 1);
    }

    #[test]
    fn cap_register_watermark() {
        let mut rf = CompressedRegFile::new(RfConfig::meta(2, 8, 4, true));
        rf.write(0, 3, &vals(|_| 0x1_0000_0000), u64::MAX);
        rf.write(0, 9, &vals(|_| 0x1_0000_0000), u64::MAX);
        rf.write(1, 3, &vals(|_| 0x1_0000_0000), u64::MAX);
        // Null writes don't count.
        rf.write(1, 4, &vals(|_| NULL_META), u64::MAX);
        assert_eq!(rf.max_nonnull_regs(), 2);
    }

    #[test]
    fn writes_report_residency_transitions() {
        let mut rf = CompressedRegFile::new(RfConfig::meta(1, 8, 4, true));
        // Uniform write: stays scalar, no transition.
        assert_eq!(rf.write(0, 5, &vals(|_| 0x111), u64::MAX).transition, None);
        // Divergent write: scalar → vector.
        assert_eq!(rf.write(0, 5, &vals(|i| i as u64), u64::MAX).transition, Some(true));
        // Rewriting a vector with another vector changes nothing.
        assert_eq!(rf.write(0, 5, &vals(|i| 2 * i as u64), u64::MAX).transition, None);
        // Uniform overwrite: vector → scalar (NVO reclaim).
        assert_eq!(rf.write(0, 5, &vals(|_| NULL_META), u64::MAX).transition, Some(false));
        // A masked-off write touches nothing.
        assert_eq!(rf.write(0, 5, &vals(|i| i as u64), 0).transition, None);
    }

    /// `write_compact` must be bit-identical to expand-then-`write` on two
    /// clones of the same file: same read-back, same entry class, same
    /// statistics, same `WriteInfo`.
    fn assert_write_equivalent(cfg: RfConfig, value: &OperandVec, mask: u64) {
        // Pre-occupy the register with an irregular vector so slot-freeing
        // behaviour is exercised too.
        let junk: Vec<u64> = (0..cfg.lanes as u64).map(|i| i * i + 3).collect();
        assert_write_equivalent_over(cfg, &junk, value, mask);
    }

    /// [`assert_write_equivalent`] into a register first written with `pre`.
    fn assert_write_equivalent_over(cfg: RfConfig, pre: &[u64], value: &OperandVec, mask: u64) {
        let lanes = cfg.lanes as usize;
        let mut compact = CompressedRegFile::new(cfg);
        let mut classic = CompressedRegFile::new(cfg);
        compact.write(0, 9, pre, u64::MAX);
        classic.write(0, 9, pre, u64::MAX);

        let info_c = compact.write_compact(0, 9, value, mask);
        let mut expanded = vec![0u64; lanes];
        value.expand_into(&mut expanded);
        let info_v = classic.write(0, 9, &expanded, mask);

        assert_eq!(info_c, info_v, "{value:?} mask {mask:#x}");
        assert_eq!(compact.stats(), classic.stats(), "{value:?} mask {mask:#x}");
        assert_eq!(compact.vrf_resident(), classic.vrf_resident());
        assert_eq!(compact.class_of(0, 9), classic.class_of(0, 9));
        assert_eq!(compact.max_nonnull_regs(), classic.max_nonnull_regs());
        let (mut a, mut b) = (vec![0u64; lanes], vec![0u64; lanes]);
        compact.read(0, 9, &mut a);
        classic.read(0, 9, &mut b);
        assert_eq!(a, b, "{value:?} mask {mask:#x}");
    }

    #[test]
    fn compact_writes_match_classic_writes() {
        for mask in [u64::MAX, 0x0F, 0] {
            for value in [
                OperandVec::Uniform(0),
                OperandVec::Uniform(42),
                OperandVec::Affine { base: 100, stride: 4 },
                OperandVec::Affine { base: 7, stride: -3 },
                OperandVec::Affine { base: 1, stride: 1000 }, // out of range
                OperandVec::Affine { base: 5, stride: 0 },    // uniform in disguise
                OperandVec::Affine { base: 3, stride: u32::MAX as i64 }, // ≡ -1 mod 2³²
                OperandVec::Vector((0..8).map(|i| i * i).collect()),
                OperandVec::Vector(vec![9; 8].into_boxed_slice()),
            ] {
                assert_write_equivalent(cfg(), &value, mask);
            }
            // Metadata file: no affine detection, NVO on and off.
            for nvo in [true, false] {
                for value in [
                    OperandVec::Uniform(NULL_META),
                    OperandVec::Uniform(0x1_2345_6789),
                    OperandVec::Affine { base: 2, stride: 1 }, // must fall back
                ] {
                    assert_write_equivalent(RfConfig::meta(1, 8, 4, nvo), &value, mask);
                }
            }
        }
    }

    /// The partial-mask uniform shortcut: a uniform write over the same
    /// uniform value, or over another one, or under an empty mask, is
    /// bit-identical to the classic write in every file kind.
    #[test]
    fn partial_uniform_writes_over_uniform_match_classic_writes() {
        let meta = |nvo| RfConfig::meta(1, 8, 4, nvo);
        for cfg in [cfg(), meta(true), meta(false)] {
            for held in [NULL_META, 0x1_2345_6789] {
                let pre = vec![held; 8];
                for v in [NULL_META, 0x1_2345_6789, 7] {
                    for mask in [0x0F, 0x80, 0x1_0000_0000, 0] {
                        assert_write_equivalent_over(cfg, &pre, &OperandVec::Uniform(v), mask);
                    }
                }
            }
        }
    }

    #[test]
    fn compact_reads_match_classic_reads() {
        let mut rf = CompressedRegFile::new(cfg());
        rf.write(0, 1, &vals(|_| 77), u64::MAX);
        rf.write(0, 2, &vals(|i| 50 + 2 * i as u64), u64::MAX);
        rf.write(0, 3, &vals(|i| (i * i) as u64), u64::MAX);
        assert_eq!(rf.class_of(0, 1), OperandClass::Uniform);
        assert_eq!(rf.class_of(0, 2), OperandClass::Affine);
        assert_eq!(rf.class_of(0, 3), OperandClass::Vector);
        for reg in 1..=3 {
            let (v, info_c) = rf.clone().read_compact(0, reg);
            let mut classic = [0u64; 8];
            let info_v = rf.read(0, reg, &mut classic);
            assert_eq!(info_c, info_v, "reg {reg}");
            let mut expanded = [0u64; 8];
            v.expand_into(&mut expanded);
            assert_eq!(expanded, classic, "reg {reg}");
        }
        assert!(matches!(rf.clone().read_compact(0, 1).0, OperandVec::Uniform(77)));
        assert!(matches!(
            rf.clone().read_compact(0, 2).0,
            OperandVec::Affine { base: 50, stride: 2 }
        ));
    }

    #[test]
    fn compact_read_fills_spilled_registers() {
        let mut rf = CompressedRegFile::new(cfg()); // 4 slots
        for r in 0..6 {
            rf.write(0, r, &vals(|i| (i as u64) * 97 + r as u64), u64::MAX);
        }
        // Register 0 was spilled; a compact read fills it like `read`.
        let spilled: Vec<u32> =
            (0..6).filter(|&r| rf.class_of(0, r) == OperandClass::Vector).collect();
        let r = spilled[0];
        let (v, info) = rf.read_compact(0, r);
        assert!(info.fills > 0 || info.from_vrf);
        let mut out = [0u64; 8];
        v.expand_into(&mut out);
        assert_eq!(out[3], 3 * 97 + r as u64);

        // With the VRF full and other registers still spilled, a compact
        // entry reads for free: no fill, no spill, no VRF, no statistics.
        // The warp-wide execute driver relies on this to read its operands
        // without cost accounting.
        rf.write(0, 6, &vals(|_| 5), u64::MAX);
        rf.write(1, 2, &vals(|i| 40 + 3 * i as u64), u64::MAX);
        assert_eq!(
            (rf.class_of(0, 6), rf.class_of(1, 2)),
            (OperandClass::Uniform, OperandClass::Affine)
        );
        assert_eq!(rf.vrf_resident(), 4);
        assert!(rf.stats().spills > rf.stats().fills, "some registers stay spilled");
        let before = rf.stats();
        for warp in 0..2 {
            for reg in 0..rf.config().arch_regs {
                if rf.class_of(warp, reg) != OperandClass::Vector {
                    assert_eq!(rf.read_compact(warp, reg).1, ReadInfo::default(), "{warp}/{reg}");
                }
            }
        }
        assert_eq!(rf.stats(), before);
        assert_eq!(rf.vrf_resident(), 4);
    }

    #[test]
    fn compact_writes_report_residency_transitions() {
        let mut rf = CompressedRegFile::new(cfg());
        assert_eq!(rf.write(0, 5, &vals(|i| (i * i) as u64), u64::MAX).transition, Some(true));
        // Compact uniform overwrite: vector → scalar, on the no-scan path.
        let info = rf.write_compact(0, 5, &OperandVec::Uniform(3), u64::MAX);
        assert_eq!(info.transition, Some(false));
        // Compact affine over a compact entry: no class change.
        let info = rf.write_compact(0, 5, &OperandVec::Affine { base: 1, stride: 2 }, u64::MAX);
        assert_eq!(info.transition, None);
        // A spilled register is vector-class: reclaiming it is a transition,
        // refilling it with another vector is not.
        for r in 8..14 {
            rf.write(1, r, &vals(|i| (i as u64) * 97 + r as u64), u64::MAX);
        }
        assert!(rf.stats().spills >= 2, "registers 8 and 9 of warp 1 were spilled");
        assert_eq!(rf.write(1, 8, &vals(|i| (i * i) as u64), u64::MAX).transition, None);
        assert_eq!(
            rf.write_compact(1, 9, &OperandVec::Uniform(0), u64::MAX).transition,
            Some(false)
        );
    }

    #[test]
    fn zero_mask_write_is_a_nop() {
        let mut rf = CompressedRegFile::new(cfg());
        rf.write(0, 7, &vals(|i| i as u64 * 1001), 0);
        assert_eq!(rf.vrf_resident(), 0);
        let mut out = [0u64; 8];
        rf.read(0, 7, &mut out);
        assert_eq!(out, [0u64; 8]);
    }
}
