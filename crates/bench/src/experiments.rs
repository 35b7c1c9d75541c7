//! One generator per table/figure of the evaluation section.

use crate::{geomean, trace_config, Config, Geometry, Harness, SuiteResults};
use cheri_simt::{CheriMode, CheriOpts, KernelStats, SmConfig};
use nocl_suite::catalog;
use simt_regfile::{uncompressed_bits, RegFileStorage, RfConfig};
use std::fmt::Write as _;

fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Table 1: the benchmark inventory.
pub fn table1() -> String {
    let mut s = String::from("Table 1: NoCL benchmark suite\n");
    let _ = writeln!(s, "{:<12} {:<42} Origin", "Benchmark", "Description");
    for b in catalog() {
        let _ = writeln!(s, "{:<12} {:<42} {}", b.name(), b.description(), b.origin());
    }
    s
}

/// Table 2: register-file compression in the baseline, for 1/2, 3/8 and
/// 1/4-size VRFs — storage, compression ratio, cycle overhead and
/// memory-access overhead relative to an uncompressed register file.
pub fn table2(h: &mut Harness) -> String {
    let mut s = String::from("Table 2: baseline register-file compression\n");
    let _ = writeln!(
        s,
        "{:<18} {:>12} {:>10} {:>12} {:>12}   (paper: 1202/937/672 Kb; 0.57/0.45/0.32; 0.8/0.9/4.3%; 0.1/2.2/39.9%)",
        "VRF size", "Storage(Kb)", "Ratio", "CycleOvhd", "MemOvhd"
    );
    s + &vrf_rows(h, &[(4, "1/2"), (3, "3/8"), (2, "1/4")], 18, |label, slots| {
        format!("{label} ({slots} slots)")
    })
}

/// One row per baseline VRF size `(eighths, label)`, in Table 2's columns:
/// storage, compression ratio, and the cycle and memory-access overheads
/// relative to the full-size (uncompressed) register file. The first
/// column is `name(label, slots)`, `width` characters wide.
fn vrf_rows(
    h: &mut Harness,
    sizes: &[(u32, &str)],
    width: usize,
    name: impl Fn(&str, u32) -> String,
) -> String {
    let reference = h.results(Config::Base { eighths: 8 }).clone();
    let (full_cfg, _) = Config::Base { eighths: 3 }.instantiate(h.geometry);
    let uncompressed_kb = uncompressed_bits(full_cfg.warps, full_cfg.lanes, 32, 32) as f64 / 1024.0;
    let mut s = String::new();
    for &(eighths, label) in sizes {
        let (cfg, _) = Config::Base { eighths }.instantiate(h.geometry);
        let storage =
            RegFileStorage::for_config(&RfConfig::data(cfg.warps, cfg.lanes, cfg.vrf_slots));
        let results = h.results(Config::Base { eighths });
        let overhead = |metric: fn(&KernelStats) -> u64| {
            geomean(
                results
                    .iter()
                    .zip(&reference)
                    .map(|((_, st), (_, r))| metric(st) as f64 / metric(r).max(1) as f64),
            ) - 1.0
        };
        let _ = writeln!(
            s,
            "{:<width$} {:>12.0} {:>10.2} {:>12} {:>12}",
            name(label, cfg.vrf_slots),
            storage.kilobits(),
            storage.kilobits() / uncompressed_kb,
            pct(overhead(|st| st.cycles)),
            pct(overhead(|st| st.dram.total_bytes())),
        );
    }
    s
}

/// Table 3: synthesis results (ALMs, DSPs, BRAM, Fmax) for the three
/// configurations, from the analytical area model.
pub fn table3() -> String {
    let mut s = String::from("Table 3: synthesis results (area model)\n");
    let _ = writeln!(
        s,
        "{:<20} {:>10} {:>6} {:>12} {:>6}   (paper ALMs: 126753/166796/149356; BRAM Kb: 2156/4399/2394)",
        "Configuration", "ALMs", "DSPs", "BRAM(Kb)", "Fmax"
    );
    for (name, cfg) in sim_area::table3_configs() {
        let r = sim_area::synthesise(&cfg);
        let _ = writeln!(
            s,
            "{:<20} {:>10} {:>6} {:>12.0} {:>6}",
            name, r.alms, r.dsps, r.bram_kb, r.fmax_mhz
        );
    }
    let [base, naive, opt] = sim_area::table3_configs().map(|(_, c)| sim_area::synthesise(&c).alms);
    let _ = writeln!(
        s,
        "overhead: naive +{} ALMs, optimised +{} ALMs ({:.0}% reduction; {} ALMs/lane vs {} for a 32-bit multiplier)",
        naive - base,
        opt - base,
        (1.0 - (opt - base) as f64 / (naive - base) as f64) * 100.0,
        (opt - base) / 32,
        cheri_cap::area::MUL32
    );
    s
}

/// Figure 6: average execution frequency of CHERI instructions relative to
/// total instructions executed, over the suite in the optimised CHERI
/// configuration.
pub fn fig6(h: &mut Harness) -> String {
    let results = h.results(Config::CheriOpt);
    let mut freq: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for (_, st) in results {
        for (op, n) in &st.cheri_histogram {
            *freq.entry(op).or_insert(0.0) += *n as f64 / st.instrs as f64;
        }
    }
    let n = results.len() as f64;
    let mut rows: Vec<(&str, f64)> = freq.into_iter().map(|(k, v)| (k, v / n)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut s = String::from("Figure 6: CHERI instruction execution frequency (avg over suite)\n");
    for (op, f) in rows {
        let _ = writeln!(s, "{:<16} {:>7.3}%  {}", op, f * 100.0, bar(f * 100.0, 2.0));
    }
    s
}

/// Figure 7: CheriCapLib function costs (measured constants).
pub fn fig7() -> String {
    let mut s = String::from("Figure 7: CheriCapLib logic-area costs (ALMs)\n");
    for (name, alms) in cheri_cap::area::FIGURE7 {
        let _ = writeln!(s, "{name:<18} {alms:>5}");
    }
    let _ = writeln!(
        s,
        "{:<18} {:>5}   (reference: 32-bit multiplier)",
        "mul32",
        cheri_cap::area::MUL32
    );
    let _ = writeln!(
        s,
        "fast path (per lane): {} ALMs; slow path (SFU): {} ALMs",
        cheri_cap::area::fast_path_alms(),
        cheri_cap::area::slow_path_alms()
    );
    s
}

/// Figure 10: proportion of registers stored as vectors in the VRF, for the
/// general-purpose register file and the capability-metadata register file
/// with and without the null-value optimisation.
pub fn fig10(h: &mut Harness) -> String {
    let total = h.total_regs() as f64;
    let gp: Vec<(&str, f64)> = h
        .results(Config::CheriOpt)
        .iter()
        .map(|(n, st)| (*n, st.peak_data_vrf_resident as f64 / total))
        .collect();
    let meta_nvo: Vec<f64> = h
        .results(Config::CheriOpt)
        .iter()
        .map(|(_, st)| st.peak_meta_vrf_resident as f64 / total)
        .collect();
    let meta_plain: Vec<f64> = h
        .results(Config::CheriOptNoNvo)
        .iter()
        .map(|(_, st)| st.peak_meta_vrf_resident as f64 / total)
        .collect();
    let mut s =
        String::from("Figure 10: proportion of registers stored as vectors in the VRF (peak)\n");
    let _ = writeln!(s, "{:<12} {:>8} {:>12} {:>12}", "Benchmark", "GP", "Meta", "Meta+NVO");
    for (i, (name, g)) in gp.iter().enumerate() {
        let _ = writeln!(
            s,
            "{:<12} {:>7.1}% {:>11.1}% {:>11.1}%",
            name,
            g * 100.0,
            meta_plain[i] * 100.0,
            meta_nvo[i] * 100.0
        );
    }
    let _ = writeln!(s, "(paper: with NVO only BlkStencil uses VRF space for metadata)");
    s
}

/// Figure 11: number of registers per thread used to hold capabilities.
pub fn fig11(h: &mut Harness) -> String {
    let mut s = String::from("Figure 11: registers per thread holding capabilities (of 32)\n");
    let results = h.results(Config::CheriOpt);
    let mut max = 0;
    for (name, st) in results {
        let _ = writeln!(
            s,
            "{:<12} {:>3}  {}",
            name,
            st.cap_regs_used,
            bar(st.cap_regs_used as f64, 0.5)
        );
        max = max.max(st.cap_regs_used);
    }
    let _ = writeln!(
        s,
        "max = {max}: no benchmark uses more than half the register file for capabilities,\nso a halved metadata SRF (7% storage overhead) would not hurt performance (§4.3)"
    );
    s
}

/// Figure 12: DRAM bandwidth usage with/without CHERI.
pub fn fig12(h: &mut Harness) -> String {
    let base: Vec<(&str, f64, u64)> = h
        .results(Config::Base { eighths: 3 })
        .iter()
        .map(|(n, st)| (*n, st.dram_bytes_per_cycle(), st.dram.total_bytes()))
        .collect();
    let cheri: Vec<(f64, u64)> = h
        .results(Config::CheriOpt)
        .iter()
        .map(|(_, st)| (st.dram_bytes_per_cycle(), st.dram.total_bytes()))
        .collect();
    let mut s = String::from("Figure 12: DRAM bandwidth usage with/without CHERI\n");
    let _ = writeln!(
        s,
        "{:<12} {:>14} {:>14} {:>12}",
        "Benchmark", "Base(B/cyc)", "CHERI(B/cyc)", "Bytes ratio"
    );
    let mut ratios = Vec::new();
    for (i, (name, bpc, bytes)) in base.iter().enumerate() {
        let ratio = cheri[i].1 as f64 / (*bytes).max(1) as f64;
        ratios.push(ratio);
        let _ = writeln!(s, "{:<12} {:>14.2} {:>14.2} {:>12.3}", name, bpc, cheri[i].0, ratio);
    }
    let _ = writeln!(
        s,
        "geomean traffic ratio {:.3} (paper: CHERI does not significantly affect DRAM bandwidth)",
        geomean(ratios)
    );
    s
}

/// Figure 13: execution-time overhead of CHERI (Optimised) vs Baseline.
pub fn fig13(h: &mut Harness) -> String {
    let base: Vec<(&str, u64)> =
        h.results(Config::Base { eighths: 3 }).iter().map(|(n, st)| (*n, st.cycles)).collect();
    let cheri: Vec<u64> = h.results(Config::CheriOpt).iter().map(|(_, st)| st.cycles).collect();
    let mut s = String::from("Figure 13: execution-time overhead of CHERI (Optimised)\n");
    let mut ratios = Vec::new();
    for (i, (name, c)) in base.iter().enumerate() {
        let r = cheri[i] as f64 / *c as f64;
        ratios.push(r);
        let _ = writeln!(s, "{:<12} {:>8}  {}", name, pct(r - 1.0), bar((r - 1.0) * 100.0, 0.2));
    }
    let _ = writeln!(
        s,
        "geomean {} (paper: +1.6%, with BlkStencil the outlier)",
        pct(geomean(ratios) - 1.0)
    );
    s
}

/// Figure 14: execution-time overhead of the Rust port (bounds checks only,
/// and like-for-like total).
pub fn fig14(h: &mut Harness) -> String {
    let base: Vec<(&str, u64)> =
        h.results(Config::Base { eighths: 3 }).iter().map(|(n, st)| (*n, st.cycles)).collect();
    let checked: Vec<u64> =
        h.results(Config::RustChecked).iter().map(|(_, st)| st.cycles).collect();
    let full: Vec<u64> = h.results(Config::RustFull).iter().map(|(_, st)| st.cycles).collect();
    let mut s = String::from("Figure 14: Rust port execution-time overheads\n");
    let _ = writeln!(s, "{:<12} {:>14} {:>14}", "Benchmark", "BoundsChecks", "Like-for-like");
    let (mut rc, mut rf) = (Vec::new(), Vec::new());
    for (i, (name, c)) in base.iter().enumerate() {
        let r1 = checked[i] as f64 / *c as f64;
        let r2 = full[i] as f64 / *c as f64;
        rc.push(r1);
        rf.push(r2);
        let _ = writeln!(s, "{:<12} {:>14} {:>14}", name, pct(r1 - 1.0), pct(r2 - 1.0));
    }
    let _ = writeln!(
        s,
        "geomean: bounds checking {} (paper: +34%), total {} (paper: +46%)",
        pct(geomean(rc) - 1.0),
        pct(geomean(rf) - 1.0)
    );
    s
}

/// Figure 15: the GPUShield / CHERI comparison — the paper's qualitative
/// table plus a quantitative footer from our GPUShield comparator mode
/// (region-based bounds table, Section 5.2).
pub fn fig15(h: &mut Harness) -> String {
    let rows: [(&str, &str, &str); 11] = [
        ("Supports spatial memory safety", "yes", "yes"),
        ("Provides referential integrity", "no", "yes"),
        ("Supports 32-bit and 64-bit architectures", "no", "yes"),
        ("Permits use of entire address space", "no", "yes"),
        ("Supports an unlimited number of buffers", "no", "yes"),
        ("Supports dynamic allocation of buffers", "no", "yes"),
        ("Pointers can be distinguished from data", "no", "yes"),
        ("Applies to both CPUs and GPUs", "no", "yes"),
        ("Demonstrated in a synthesisable GPU", "no", "yes"),
        ("Performance overhead on GPUs", "low", "low"),
        ("Silicon area overhead on GPUs", "low (likely)", "medium"),
    ];
    let mut s = String::from("Figure 15: GPUShield vs CHERI (qualitative, from the paper)\n");
    let _ = writeln!(s, "{:<44} {:<14} CHERI", "Feature", "GPUShield");
    for (f, g, c) in rows {
        let _ = writeln!(s, "{f:<44} {g:<14} {c}");
    }
    // Quantitative footer from the comparator implementation.
    let base: Vec<u64> =
        h.results(Config::Base { eighths: 3 }).iter().map(|(_, st)| st.cycles).collect();
    let shield: Vec<u64> = h.results(Config::GpuShield).iter().map(|(_, st)| st.cycles).collect();
    let cheri: Vec<u64> = h.results(Config::CheriOpt).iter().map(|(_, st)| st.cycles).collect();
    let g_shield = geomean(base.iter().zip(&shield).map(|(b, c)| *c as f64 / *b as f64)) - 1.0;
    let g_cheri = geomean(base.iter().zip(&cheri).map(|(b, c)| *c as f64 / *b as f64)) - 1.0;
    let _ = writeln!(
        s,
        "measured on this model: GPUShield comparator overhead {} (paper: 0.8%), CHERI (Optimised) {} (paper: 1.6%)",
        pct(g_shield),
        pct(g_cheri)
    );
    s
}

/// Ablation: each optimisation of Section 3 toggled individually on top of
/// the naive CHERI configuration (extension beyond the paper's three
/// configurations), then §4.4's compressed stack cache on both sides.
pub fn ablate(h: &mut Harness) -> String {
    let (base_cfg, base_mode) = Config::Base { eighths: 3 }.instantiate(h.geometry);
    let (cheri_cfg, mode) = Config::CheriOpt.instantiate(h.geometry);
    let sms = h.sms;
    let mut cycles = |cfg, mode| -> Vec<u64> {
        h.suite(cfg, mode, sms).iter().map(|(_, st)| st.cycles).collect()
    };
    let overhead = |of: &[u64], to: &[u64]| {
        geomean(of.iter().zip(to).map(|(c, b)| *c as f64 / *b as f64)) - 1.0
    };
    let base = cycles(base_cfg, base_mode);
    let mut s = String::from("Ablation: CHERI cost-amelioration techniques\n");
    let _ = writeln!(
        s,
        "{:<34} {:>12} {:>12} {:>12}",
        "Configuration", "CycleOvhd", "ALMs", "BRAM(Kb)"
    );
    let variants: [(&str, CheriOpts); 4] = [
        ("naive CHERI", CheriOpts::naive()),
        (
            "+ compressed metadata RF (+NVO)",
            CheriOpts { compress_meta: true, nvo: true, ..CheriOpts::naive() },
        ),
        (
            "+ SFU capability ops",
            CheriOpts { compress_meta: true, nvo: true, sfu_cap_ops: true, ..CheriOpts::naive() },
        ),
        ("+ static PC metadata (= optimised)", CheriOpts::optimised()),
    ];
    for (name, opts) in variants {
        let cfg = SmConfig { cheri: CheriMode::On(opts), ..cheri_cfg };
        let ovhd = overhead(&cycles(cfg, mode), &base);
        let area = sim_area::synthesise(&cfg);
        let _ =
            writeln!(s, "{:<34} {:>12} {:>12} {:>12.0}", name, pct(ovhd), area.alms, area.bram_kb);
    }
    // The area model has no stack cache, so its columns stay empty.
    let cheri = cycles(cheri_cfg, mode);
    let base_sc = cycles(SmConfig { stack_cache: true, ..base_cfg }, base_mode);
    let cheri_sc = cycles(SmConfig { stack_cache: true, ..cheri_cfg }, mode);
    let _ = writeln!(
        s,
        "{:<34} {:>12} {:>12} {:>12}",
        "+ compressed stack cache (§4.4)",
        pct(overhead(&cheri_sc, &base_sc)),
        "—",
        "—"
    );
    let _ = writeln!(
        s,
        "(stack cache on both sides; its own effect on geomean cycles: baseline {}, CHERI (Optimised) {})",
        pct(overhead(&base_sc, &base)),
        pct(overhead(&cheri_sc, &cheri))
    );
    s
}

/// VRF-size sweep (extension of Table 2): baseline cycle and memory
/// overheads relative to the uncompressed register file, from 1/8 to the
/// full size, locating the knee that made the paper pick 3/8.
pub fn vrfsweep(h: &mut Harness) -> String {
    let mut s = String::from("VRF-size sweep (extension of Table 2)\n");
    let _ = writeln!(
        s,
        "{:<10} {:>12} {:>10} {:>12} {:>12}",
        "VRF", "Storage(Kb)", "Ratio", "CycleOvhd", "MemOvhd"
    );
    let sizes = [(1, "1/8"), (2, "2/8"), (3, "3/8"), (4, "4/8"), (6, "6/8"), (8, "8/8")];
    s + &vrf_rows(h, &sizes, 10, |label, _| label.to_string())
}

/// Disassembly listing of one benchmark's kernel under one mode (any mode
/// name [`trace_config`] accepts).
///
/// # Errors
///
/// Fails on an unknown mode or benchmark name.
pub fn disasm(bench: &str, mode_name: &str) -> Result<String, String> {
    let (_, mode) = trace_config(mode_name)?.instantiate(Geometry::Small);
    let b = catalog()
        .iter()
        .find(|b| b.name().eq_ignore_ascii_case(bench))
        .ok_or_else(|| format!("unknown benchmark {bench}"))?;
    let kernel = b.example_kernel();
    let compiled = nocl_kir::compile(&kernel, mode).map_err(|e| e.to_string())?;
    Ok(format!(
        "{} [{}]: {} instructions, {} B shared memory per block\n\n{}\n{}",
        b.name(),
        mode_name,
        compiled.len(),
        compiled.shared_bytes,
        kernel.pretty(),
        compiled.disassemble()
    ))
}

/// Multi-SM simulation (Section 4.4): the paper argues that, because DRAM
/// bandwidth usage is unaffected by CHERI, a multi-SM memory subsystem
/// would be similarly unaffected. Simulate devices of 1, 2 and 4 SMs
/// sharing one DRAM channel and tag controller — whatever the harness's
/// own SM count — and report the CHERI overhead, the traffic ratio and the
/// cross-SM contention each configuration meets, summed over the suite.
pub fn multism(h: &mut Harness) -> String {
    let (base_cfg, base_mode) = Config::Base { eighths: 3 }.instantiate(h.geometry);
    let (cheri_cfg, cheri_mode) = Config::CheriOpt.instantiate(h.geometry);
    let mut s = String::from(
        "Multi-SM simulation: CHERI overhead on devices sharing one DRAM channel (Section 4.4)\n",
    );
    let _ = writeln!(
        s,
        "{:<6} {:>12} {:>14} {:>24} {:>24}",
        "SMs", "CHERI ovhd", "traffic ratio", "DRAM wait (base/CHERI)", "tag evictions (CHERI)"
    );
    for sms in [1u32, 2, 4] {
        let base = h.suite(base_cfg, base_mode, sms).clone();
        let cheri = h.suite(cheri_cfg, cheri_mode, sms);
        let ovhd = geomean(
            base.iter().zip(cheri).map(|((_, b), (_, c))| c.cycles as f64 / b.cycles as f64),
        ) - 1.0;
        let traffic = geomean(base.iter().zip(cheri).map(|((_, b), (_, c))| {
            c.dram.total_bytes() as f64 / b.dram.total_bytes().max(1) as f64
        }));
        let wait = |r: &SuiteResults| -> u64 {
            r.iter().map(|(_, st)| st.dram.cross_sm_wait_cycles).sum()
        };
        let evictions: u64 =
            cheri.iter().map(|(_, st)| st.tag_cache.cross_sm_conflict_evictions).sum();
        let _ = writeln!(
            s,
            "{:<6} {:>12} {:>14.3} {:>24} {:>24}",
            sms,
            pct(ovhd),
            traffic,
            format!("{}/{}", wait(&base), wait(cheri)),
            evictions
        );
    }
    let _ = writeln!(
        s,
        "(cross-SM counters: channel cycles one SM queued behind another's transactions, and tag-cache lines evicted by another SM)"
    );
    s
}

/// Tag-cache sensitivity (Section 2.4 / Joannou et al.): sweep the tag
/// cache size and report miss rates and the cycle impact — the paper's
/// premise is that a modest tag cache makes tag traffic "almost zero".
pub fn tagsweep(h: &mut Harness) -> String {
    let mut s = String::from("Tag-cache sensitivity (CHERI Optimised)\n");
    let _ =
        writeln!(s, "{:<12} {:>12} {:>14} {:>14}", "Lines", "MissRate", "TagTxnShare", "CycleOvhd");
    let base: Vec<u64> =
        h.results(Config::Base { eighths: 3 }).iter().map(|(_, st)| st.cycles).collect();
    for lines in [8u32, 32, 128, 512] {
        let (mut cfg, mode) = Config::CheriOpt.instantiate(h.geometry);
        cfg.tag_cache.lines = lines;
        let results = h.suite(cfg, mode, h.sms);
        let miss = geomean(results.iter().map(|(_, st)| st.tag_cache.miss_rate().max(1e-6)));
        let share = geomean(results.iter().map(|(_, st)| {
            st.dram.tag_transactions as f64
                / (st.dram.read_transactions + st.dram.write_transactions).max(1) as f64
        }));
        let ovhd =
            geomean(results.iter().zip(&base).map(|((_, st), b)| st.cycles as f64 / *b as f64))
                - 1.0;
        let _ = writeln!(
            s,
            "{:<12} {:>11.2}% {:>13.2}% {:>14}",
            lines,
            miss * 100.0,
            share * 100.0,
            pct(ovhd)
        );
    }
    let _ = writeln!(
        s,
        "(the default 128-line cache keeps the tag-traffic share negligible, as §2.4 claims)"
    );
    s
}

/// Scalarisation rate: the share of issued warp-instructions the execute
/// stage ran once per warp over compact (uniform/affine) operands instead
/// of lane-by-lane (`scalarised_issues / instrs`). A host-model throughput
/// metric, not a paper figure — the simulated timing is identical either
/// way — but it bounds what the scalarised execute path can win per
/// benchmark in simbench's host-time metrics: uniform-heavy kernels
/// (splats, grid-stride address arithmetic, warp-invariant branches)
/// scalarise most of their dynamic instructions.
pub fn scalarise(h: &mut Harness) -> String {
    let rate = |st: &cheri_simt::KernelStats| st.scalarised_issues as f64 / st.instrs.max(1) as f64;
    let base: Vec<(&str, f64)> =
        h.results(Config::Base { eighths: 3 }).iter().map(|(n, st)| (*n, rate(st))).collect();
    let cheri: Vec<f64> = h.results(Config::CheriOpt).iter().map(|(_, st)| rate(st)).collect();
    let mut s = String::from("Scalarisation rate (share of warp-issues run once per warp)\n");
    let _ = writeln!(s, "{:<12} {:>10} {:>10}", "Benchmark", "Base", "CHERI");
    for (i, (name, b)) in base.iter().enumerate() {
        let _ = writeln!(
            s,
            "{:<12} {:>9.1}% {:>9.1}%  {}",
            name,
            b * 100.0,
            cheri[i] * 100.0,
            bar(b * 100.0, 2.0)
        );
    }
    let _ = writeln!(
        s,
        "mean: base {:.1}%, CHERI {:.1}% (timing is unchanged; this is host-model throughput)",
        base.iter().map(|(_, b)| b).sum::<f64>() / base.len() as f64 * 100.0,
        cheri.iter().sum::<f64>() / cheri.len() as f64 * 100.0
    );
    s
}

fn bar(value: f64, unit: f64) -> String {
    let n = (value / unit).round().clamp(0.0, 60.0) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disasm_accepts_every_trace_mode() {
        for name in ["baseline", "naive", "purecap", "rust", "rustfull", "gpushield"] {
            let listing = disasm("vecadd", name).unwrap_or_else(|e| panic!("{name}: {e}"));
            let header = listing.lines().next().unwrap();
            assert!(header.starts_with(&format!("VecAdd [{name}]: ")), "{header}");
        }
        assert!(disasm("vecadd", "bogus").is_err());
        assert!(disasm("nope", "purecap").is_err());
    }
}
