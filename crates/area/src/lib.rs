//! Analytical FPGA area model for the CHERI-SIMT configurations.
//!
//! Synthesis cannot run inside a software model, so — like the paper's own
//! area reasoning — this crate composes the design's cost from per-lane and
//! per-SM components:
//!
//! * the CheriCapLib function costs of **Figure 7** (measured, from
//!   [`cheri_cap::area`]): the hot functions (`fromMem`, `toMem`,
//!   `setAddr`, `isAccessInBounds`) are instantiated per vector lane, the
//!   cold ones (`getBase`, `getLength`, `getTop`, `setBounds`) per lane in
//!   the naive configuration but once per SM (in the shared function unit)
//!   in the optimised one;
//! * the bit-exact register-file storage accounting of [`simt_regfile`];
//! * calibrated structural constants (documented in `calib.rs`) that land
//!   the baseline on the published Table-3 figures, so the *deltas* — the
//!   quantities the paper's argument rests on — are produced structurally.
//!
//! ```
//! use cheri_simt::{CheriMode, CheriOpts, SmConfig};
//! use sim_area::synthesise;
//!
//! let base = synthesise(&SmConfig::full(CheriMode::Off));
//! let opt = synthesise(&SmConfig::full(CheriMode::On(CheriOpts::optimised())));
//! let naive = synthesise(&SmConfig::full(CheriMode::On(CheriOpts::naive())));
//! // SFU offload reduces the logic-area overhead by ~44%.
//! let (oh_naive, oh_opt) = (naive.alms - base.alms, opt.alms - base.alms);
//! assert!(oh_opt < oh_naive * 60 / 100);
//! ```

mod calib;

use cheri_simt::{CheriOpts, SmConfig};
use simt_regfile::{uncompressed_bits, RegFileStorage, RfConfig};

/// One line of the area breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name.
    pub name: String,
    /// ALMs contributed.
    pub alms: u32,
}

/// A synthesis-style report (one row of Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    /// Adaptive Logic Modules (DSP use disabled, as in the paper).
    pub alms: u32,
    /// DSP blocks (always zero: DSP inference is disabled).
    pub dsps: u32,
    /// Block RAM bits, in kilobits.
    pub bram_kb: f64,
    /// Achieved clock frequency estimate in MHz.
    pub fmax_mhz: u32,
    /// ALM breakdown.
    pub components: Vec<Component>,
}

impl AreaReport {
    fn push(&mut self, name: &str, alms: u32) {
        self.alms += alms;
        self.components.push(Component { name: name.to_string(), alms });
    }
}

/// Estimate the synthesis results for an SM configuration.
pub fn synthesise(cfg: &SmConfig) -> AreaReport {
    let lanes = cfg.lanes;
    let mut r = AreaReport {
        alms: 0,
        dsps: 0,
        bram_kb: bram_kilobits(cfg),
        fmax_mhz: calib::FMAX_BASELINE_MHZ,
        components: Vec::new(),
    };

    // ---- Baseline SM ----
    r.push("per-lane execute units", calib::LANE_EXEC * lanes);
    r.push("per-lane register-file write path", calib::LANE_RF_WRITE * lanes);
    r.push("per-lane memory path", calib::LANE_MEM * lanes);
    r.push("front end + scheduler + convergence", calib::FRONT_END);
    r.push("coalescing unit", calib::COALESCER);
    r.push("scratchpad banking network", calib::SCRATCH_NET);
    r.push("shared function unit (fdiv/fsqrt)", calib::SFU_BASE);
    r.push("SoC uncore (DRAM ctrl, host bridge)", calib::UNCORE);

    // ---- CHERI additions ----
    if let Some(opts) = cfg.cheri.opts() {
        r.fmax_mhz = calib::fmax_mhz(&opts);
        let fast = cheri_cap::area::fast_path_alms();
        let slow = cheri_cap::area::slow_path_alms();
        r.push("per-lane CheriCapLib fast path", fast * lanes);
        if opts.sfu_cap_ops {
            r.push("SFU CheriCapLib slow path", slow);
            r.push("SFU request/response widening", calib::SFU_CAP_SERDES);
        } else {
            r.push("per-lane CheriCapLib slow path", slow * lanes);
        }
        r.push("per-lane 65-bit operand muxing", calib::LANE_CAP_MUX * lanes);
        r.push("per-lane CHERI exception checks", calib::LANE_CAP_EXC * lanes);
        r.push("per-lane multi-flit access logic", calib::LANE_CAP_FLIT * lanes);
        r.push("per-lane PCC maintenance", calib::LANE_PCC * lanes);
        if opts.compress_meta {
            r.push("per-lane metadata uniformity comparator", calib::LANE_META_CMP * lanes);
            if opts.nvo {
                r.push("per-lane NVO mask logic", calib::LANE_NVO * lanes);
            }
        }
        if !opts.static_pcc {
            r.push("per-lane PCC-metadata selection compare", calib::LANE_PCC_SELECT * lanes);
        }
        r.push("tag controller", calib::TAG_CONTROLLER);
        r.push("CHERI control plumbing", calib::CHERI_CONTROL);
    }
    r
}

/// Block-RAM bits (Kb) for a configuration — structural, from the register
/// file accounting plus the fixed memories.
fn bram_kilobits(cfg: &SmConfig) -> f64 {
    let data_rf = RegFileStorage::for_config(&RfConfig::data(cfg.warps, cfg.lanes, cfg.vrf_slots));
    let mut kb = data_rf.kilobits();
    kb += calib::TCIM_KB + calib::SCRATCH_KB + calib::QUEUES_KB;
    if let Some(opts) = cfg.cheri.opts() {
        if opts.compress_meta {
            // Metadata SRF; the VRF is shared with the data register file
            // (33-bit widening of the shared VRF is counted here).
            let meta =
                RegFileStorage::for_config(&RfConfig::meta(cfg.warps, cfg.lanes, 0, opts.nvo));
            kb += meta.srf_bits as f64 / 1024.0;
            kb += (cfg.vrf_slots as u64 * cfg.lanes as u64) as f64 / 1024.0; // +1 bit/elem
        } else {
            // Naive: a full uncompressed 33-bit metadata register file.
            kb += uncompressed_bits(cfg.warps, cfg.lanes, 32, 33) as f64 / 1024.0;
        }
        // Scratchpad tag bits (1 per 32-bit word) and the tag cache.
        kb += calib::SCRATCH_TAG_KB + calib::TAG_CACHE_KB;
        if opts.sfu_cap_ops {
            kb += calib::SFU_CAP_QUEUE_KB;
        }
    }
    kb
}

/// The paper's three configurations at the evaluation geometry.
pub fn table3_configs() -> [(&'static str, SmConfig); 3] {
    use cheri_simt::CheriMode;
    [
        ("Baseline", SmConfig::full(CheriMode::Off)),
        ("CHERI", SmConfig::full(CheriMode::On(CheriOpts::naive()))),
        ("CHERI (Optimised)", SmConfig::full(CheriMode::On(CheriOpts::optimised()))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_simt::CheriMode;

    fn pct_err(model: f64, paper: f64) -> f64 {
        (model - paper).abs() / paper
    }

    /// Table 3, ALM column: Baseline 126,753; CHERI 166,796; Optimised
    /// 149,356.
    #[test]
    fn table3_alms() {
        let paper = [126_753.0, 166_796.0, 149_356.0];
        for ((name, cfg), want) in table3_configs().into_iter().zip(paper) {
            let got = synthesise(&cfg).alms as f64;
            assert!(pct_err(got, want) < 0.02, "{name}: model {got} vs paper {want}");
        }
    }

    /// Table 3, BRAM column: 2,156 / 4,399 / 2,394 Kb.
    #[test]
    fn table3_bram() {
        let paper = [2_156.0, 4_399.0, 2_394.0];
        for ((name, cfg), want) in table3_configs().into_iter().zip(paper) {
            let got = synthesise(&cfg).bram_kb;
            assert!(pct_err(got, want) < 0.03, "{name}: model {got:.0} Kb vs paper {want} Kb");
        }
    }

    /// The optimisations reduce the ALM overhead by ~44% (Section 4.6) and
    /// the optimised overhead per lane is comparable to (but slightly
    /// larger than) one 32-bit multiplier.
    #[test]
    fn overhead_reduction_and_multiplier_comparison() {
        let [base, naive, opt] = table3_configs().map(|(_, c)| synthesise(&c).alms);
        let reduction = 1.0 - (opt - base) as f64 / (naive - base) as f64;
        assert!((reduction - 0.44).abs() < 0.03, "reduction {reduction:.3}");
        let per_lane = (opt - base) / 32;
        assert!(per_lane > cheri_cap::area::MUL32, "slightly larger than a multiplier");
        assert!(per_lane < cheri_cap::area::MUL32 * 3 / 2);
    }

    /// The naive CHERI register-file storage overhead is ~103%; optimised
    /// brings the BRAM overhead down to a few percent (Section 4.3 / 4.6).
    #[test]
    fn storage_overhead_largely_eliminated() {
        let [base, naive, opt] = table3_configs().map(|(_, c)| synthesise(&c).bram_kb);
        assert!((naive - base) / base > 0.9, "naive BRAM overhead should be ~104%");
        assert!((opt - base) / base < 0.12, "optimised BRAM overhead should be ~11%");
    }

    /// Fmax is essentially unaffected (Table 3: 180/181/180 MHz).
    #[test]
    fn fmax_unchanged() {
        for (_, cfg) in table3_configs() {
            let f = synthesise(&cfg).fmax_mhz;
            assert!((179..=181).contains(&f));
        }
    }

    /// DSP inference is disabled everywhere.
    #[test]
    fn no_dsps() {
        for (_, cfg) in table3_configs() {
            assert_eq!(synthesise(&cfg).dsps, 0);
        }
    }

    /// Component lists are self-consistent.
    #[test]
    fn breakdown_sums() {
        let r = synthesise(&SmConfig::full(CheriMode::On(CheriOpts::optimised())));
        let sum: u32 = r.components.iter().map(|c| c.alms).sum();
        assert_eq!(sum, r.alms);
    }
}
