//! Performance counters collected during a kernel run.
//!
//! These are the model's equivalent of SIMTight's hardware performance
//! counters, sized to regenerate Figures 6, 10, 11, 12 and 13. Every field
//! documents the **counters → figures contract**: which SIMTight counter it
//! models and which paper figure/table consumes it (the same table appears
//! in `EXPERIMENTS.md`, with the `repro` invocation that regenerates each
//! figure).
//!
//! Every counter is declared once, in the `counters!` table at the end of
//! this file ([`COUNTERS`]): its fingerprint key, how it merges launches
//! and SMs, and which trace events count it, so that an exported trace
//! reconciles *exactly* with the counters ([`KernelStats::reconcile`]).
//! A field added to `KernelStats` or a nested stats struct does not compile
//! until it is declared.

use simt_mem::{DramStats, ScratchStats, TagCacheStats};
use simt_regfile::RfStats;
use simt_trace::{IssueClass, MemSpace, StallCause, TraceEvent, TraceEvent as E};
use std::collections::BTreeMap;

/// Pipeline stall cycles by cause.
///
/// Attributes the cycle gap between `cycles` and `instrs` to the CHERI
/// mechanisms of Section 3, explaining *where* the Figure 13 slowdown comes
/// from. SIMTight exposes the same information as pipeline-suspension
/// counters; the field names here are also the stable `cause` names used by
/// `simt_trace::StallCause`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Extra operand-fetch cycles for `CSC` (single-read-port metadata SRF).
    /// Models SIMTight's capability-store serialisation suspension; part of
    /// the Figure 13 cycle overhead attributed to Section 3.1's compressed
    /// metadata register file.
    pub csc_serialisation: u64,
    /// Serialised data+metadata reads against the shared VRF. Models the
    /// shared-VRF port-conflict suspension of Section 3.2; part of the
    /// Figure 13 cycle overhead.
    pub shared_vrf_conflict: u64,
    /// Register spill/fill handling cycles. Models SIMTight's dynamic
    /// register-spill suspension (Section 2.3's scalarising register file);
    /// feeds the Table 2 cycle-overhead column and Figure 13.
    pub spill_fill: u64,
    /// Second flits of capability-wide accesses (`CLC`/`CSC`). Models the
    /// extra occupancy of 64-bit capability transfers on a 32-bit datapath
    /// (Section 3.1); part of the Figure 13 cycle overhead.
    pub cap_multi_flit: u64,
    /// Cycles with no warp ready to issue (memory/SFU latency not hidden).
    /// Models SIMTight's null-issue (pipeline-bubble) counter; the residual
    /// term when decomposing Figure 13 slowdowns.
    pub idle: u64,
}

/// Trap and fault counters (the trap-precision subsystem).
///
/// `traps` counts warp-precise trap deliveries; `faulting_lanes` sums the
/// popcount of each trap's faulting-lane mask (a single trap can attribute
/// many lanes); `suppressed` counts traps absorbed by
/// `TrapPolicy::MaskLanes` (their lanes disabled, the warp kept running).
/// Under the default `Abort` policy a kernel either finishes with all three
/// zero or aborts on its first trap, so every golden-stats record carries
/// `flt=0,0,0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Warp-precise traps raised (delivered or suppressed).
    pub traps: u64,
    /// Total faulting lanes across all traps.
    pub faulting_lanes: u64,
    /// Traps suppressed under `TrapPolicy::MaskLanes`.
    pub suppressed: u64,
}

/// Statistics of one kernel run.
///
/// Every counter is an integer, so `Eq` lets the parallel-runner
/// determinism tests compare whole suites structurally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total cycles from launch to the last warp's termination. Models
    /// SIMTight's cycle counter (CSR `mcycle`); the numerator of every
    /// runtime-overhead figure — Table 2, Figures 13 and 14 all compare
    /// per-configuration `cycles` ratios.
    pub cycles: u64,
    /// Warp-instructions issued. Models SIMTight's instruction-retire
    /// counter (CSR `minstret`) at warp granularity; with `cycles` it gives
    /// the IPC used in the Figure 13 discussion.
    pub instrs: u64,
    /// Thread-instructions executed (warp-instructions × active lanes).
    /// Models SIMTight's SIMT-convergence counter pair (instructions ×
    /// active-thread count), quantifying divergence.
    pub thread_instrs: u64,
    /// Executed CHERI instructions by mnemonic — the histogram behind
    /// **Figure 6** (CHERI instruction execution frequency). Standard
    /// encodings executed in capability mode count under their CHERI name
    /// (`lw` → `CLW`, `jal` → `CJAL`, ...).
    pub cheri_histogram: BTreeMap<&'static str, u64>,
    /// Stall cycles by cause — the Figure 13 overhead decomposition; see
    /// [`StallBreakdown`] for the per-field contract.
    pub stalls: StallBreakdown,
    /// DRAM traffic. Models SIMTight's DRAM-access counters; total bytes
    /// feed **Figure 12** (DRAM bandwidth usage) and the Table 2
    /// memory-overhead column, and `tag_transactions` isolates the tag
    /// controller's share (Section 2.4).
    pub dram: DramStats,
    /// Tag-cache behaviour (hits/misses/writebacks). Models the tag
    /// controller's cache counters backing the Section 2.4 claim that a
    /// modest tag cache makes tag traffic "almost zero" (`repro tagsweep`).
    pub tag_cache: TagCacheStats,
    /// Scratchpad behaviour (accesses and bank-conflict serialisation
    /// cycles). Models SIMTight's shared-local-memory counters; background
    /// term of the Figure 13 cycle decomposition.
    pub scratch: ScratchStats,
    /// Data register file statistics (spills, fills, scalar/vector writes).
    /// Models the scalarising-register-file counters of Section 2.3;
    /// baseline term of **Figure 10** and Table 2.
    pub data_rf: RfStats,
    /// Metadata register file statistics (zeroed when CHERI is off). The
    /// Section 3.1 compressed capability-metadata file's counters; CHERI
    /// term of **Figure 10**.
    pub meta_rf: RfStats,
    /// Peak data vectors resident in the VRF. Sizes the VRF so dynamic
    /// spilling stays rare — the "peak" series of **Figure 10** (left).
    pub peak_data_vrf_resident: u32,
    /// Peak metadata vectors resident in the VRF — the "peak" series of
    /// **Figure 10** (right).
    pub peak_meta_vrf_resident: u32,
    /// Max architectural registers per thread that ever held a capability
    /// (**Figure 11**: capability registers in use).
    pub cap_regs_used: u32,
    /// Union bitmask of registers that ever held a capability (bit r =
    /// register r) — verifies the §4.3 capability-register-limit forecast.
    pub cap_regs_mask: u32,
    /// SFU requests served (FP div/sqrt and, when offloaded, cap ops).
    /// Models the shared-function-unit request counter of Section 3.3;
    /// supports the claim that offloading cold CHERI ops barely loads the
    /// SFU.
    pub sfu_requests: u64,
    /// Warp-level barrier waits. Models SIMTight's barrier counter.
    pub barriers: u64,
    /// Warp accesses absorbed by the compressed stack cache: zero unless
    /// the Section-4.4 proof-of-concept feature, `SmConfig::stack_cache`, is
    /// enabled. The paper's configurations leave it off; `repro ablate`'s
    /// stack-cache row turns it on, and kir's stack spill slots hit it
    /// (MotionEst in the suite).
    pub stack_cache_hits: u64,
    /// Warp-instructions the execute stage ran once per warp over compact
    /// (uniform/affine) operands instead of lane by lane — the dynamic
    /// scalarisation rate of Section 2.3's scalarising register file,
    /// reported by `repro scalarise`. Timing-neutral: the fast path is
    /// bit-identical to the lane-wise one, so this counter never changes
    /// any other statistic.
    pub scalarised_issues: u64,
    /// Trap/fault counters — see [`FaultStats`]. All-zero on a clean run.
    pub faults: FaultStats,
}

impl KernelStats {
    /// Fraction of executed instructions that were CHERI instructions.
    pub fn cheri_fraction(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.cheri_histogram.values().sum::<u64>() as f64 / self.instrs as f64
        }
    }

    /// Instructions per cycle (warp-instruction throughput).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// DRAM bytes moved per cycle (Figure 12's bandwidth usage).
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dram.total_bytes() as f64 / self.cycles as f64
        }
    }

    /// Record one executed CHERI op.
    pub(crate) fn count_cheri(&mut self, mnemonic: &'static str, n: u64) {
        *self.cheri_histogram.entry(mnemonic).or_insert(0) += n;
    }

    /// Accumulate another run's statistics (for multi-launch benchmarks
    /// such as the global bitonic sorter's phase kernels): every counter
    /// merges under its declared launch rule (see [`COUNTERS`]).
    pub fn accumulate(&mut self, other: &KernelStats) {
        *self = Parts { stats: &[self, other], shared: None }.merge(|c| c.launch);
    }

    /// Merge the end-of-run statistics of a device's SMs, one each, under
    /// every counter's declared SM rule; `shared` holds the memory system's
    /// own counters.
    pub(crate) fn combine(stats: &[&KernelStats], shared: &KernelStats) -> Self {
        Parts { stats, shared: Some(shared) }.merge(|c| c.sm)
    }

    /// Check the event stream of the run these statistics describe (the
    /// contract of `docs/TRACING.md`): folded into a shadow `KernelStats`
    /// with the increments the declaration gives, the events must equal
    /// these statistics in every counter that trace events carry. The
    /// stream may come in pieces, such as the per-SM streams of one device
    /// run chained together: the fold only counts and sums.
    ///
    /// # Errors
    ///
    /// Names the first counter that differs, as `"<counter>: events say X,
    /// counters say Y"`.
    pub fn reconcile<'a>(
        &self,
        events: impl IntoIterator<Item = &'a TraceEvent>,
    ) -> Result<(), String> {
        let traced: Vec<_> = COUNTERS.iter().filter_map(|c| Some((c, c.trace?))).collect();
        let mut shadow = KernelStats::default();
        for e in events {
            traced.iter().for_each(|(_, count)| count(&mut shadow, e));
        }
        for (c, _) in traced {
            let (got, want) = (c.value(&shadow), c.value(self));
            if got != want {
                return Err(format!("{}: events say {got}, counters say {want}", c.name));
            }
        }
        Ok(())
    }
}

/// How a counter merges parts: launches or the SMs of one device run.
#[derive(Clone, Copy)]
enum Merge {
    Sum,
    Max,
    Or,
    /// SMs: read from the memory system they share.
    Shared,
}

/// What a merge reads: the parts and, for SMs, the memory system's counters.
struct Parts<'a> {
    stats: &'a [&'a KernelStats],
    shared: Option<&'a KernelStats>,
}

impl Parts<'_> {
    /// Every counter merged under the rule `rule` picks for it.
    fn merge(&self, rule: fn(&Counter) -> Merge) -> KernelStats {
        let mut out = KernelStats::default();
        for c in COUNTERS {
            (c.merge)(rule(c), &mut out, self);
        }
        out
    }
}

/// The executed-CHERI-instruction histogram.
type Histogram = BTreeMap<&'static str, u64>;

/// One counter's value, as [`Counter::value`] reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterValue<'a> {
    /// An event count, cycle count or high-water mark.
    Count(u64),
    /// A bit mask (an OR-merged counter); displayed as `0x…`.
    Mask(u64),
    /// The CHERI-instruction histogram; displayed as `[mnemonic:n,…]`.
    Hist(&'a Histogram),
}

impl std::fmt::Display for CounterValue<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CounterValue::Count(n) => write!(f, "{n}"),
            CounterValue::Mask(m) => write!(f, "{m:#x}"),
            CounterValue::Hist(h) => {
                let entries: Vec<String> = h.iter().map(|(k, v)| format!("{k}:{v}")).collect();
                write!(f, "[{}]", entries.join(","))
            }
        }
    }
}

/// A counter field's type: how its values merge and read.
trait Field: Sized {
    fn merge(rule: Merge, parts: &Parts<'_>, get: impl Fn(&KernelStats) -> &Self) -> Self;
    fn value(&self) -> CounterValue<'_>;
}

/// The integer counter types.
trait Int: Copy + Default + Ord + Into<u64> + std::iter::Sum + std::ops::BitOr<Output = Self> {}
impl Int for u64 {}
impl Int for u32 {}

impl<T: Int> Field for T {
    fn merge(rule: Merge, parts: &Parts<'_>, get: impl Fn(&KernelStats) -> &Self) -> Self {
        let all = parts.stats.iter().map(|s| *get(s));
        match rule {
            Merge::Sum => all.sum(),
            Merge::Max => all.max().unwrap_or_default(),
            Merge::Or => all.fold(T::default(), |a, b| a | b),
            Merge::Shared => *get(parts.shared.expect("an SM merge")),
        }
    }

    fn value(&self) -> CounterValue<'_> {
        CounterValue::Count((*self).into())
    }
}

impl Field for Histogram {
    fn merge(rule: Merge, parts: &Parts<'_>, get: impl Fn(&KernelStats) -> &Self) -> Self {
        assert!(matches!(rule, Merge::Sum), "a histogram sums");
        let mut total = Histogram::new();
        for (k, n) in parts.stats.iter().flat_map(|s| get(s)) {
            *total.entry(k).or_insert(0) += n;
        }
        total
    }

    fn value(&self) -> CounterValue<'_> {
        CounterValue::Hist(self)
    }
}

/// One declared counter (see [`COUNTERS`]).
pub struct Counter {
    /// The field path, such as `stalls.idle` or `dram.cross_sm_wait_cycles`.
    name: &'static str,
    /// Its group's key in the golden fingerprint ([`FINGERPRINT_KEYS`]).
    pub key: &'static str,
    launch: Merge,
    sm: Merge,
    value: fn(&KernelStats) -> CounterValue<'_>,
    merge: fn(Merge, &mut KernelStats, &Parts<'_>),
    trace: Option<fn(&mut KernelStats, &TraceEvent)>,
    #[cfg(test)]
    seed: fn(&mut KernelStats, u64),
}

impl Counter {
    /// This counter's value in `s`.
    pub fn value<'a>(&self, s: &'a KernelStats) -> CounterValue<'a> {
        match ((self.value)(s), self.launch) {
            (CounterValue::Count(m), Merge::Or) => CounterValue::Mask(m),
            (v, _) => v,
        }
    }
}

/// Declares every counter: `keys` in fingerprint order, then per field its
/// key, launch rule, SM rule and, when trace events count it, `pattern =>
/// increment`. The expansion destructures `KernelStats` and each nested
/// stats struct without `..`, so an undeclared field does not compile.
macro_rules! counters {
    (
        keys: $($k:ident)*;
        KernelStats { $($field:ident: $rules:tt;)* }
        $($sub:ident: $ty:ident { $($leaf:ident: $leaf_rules:tt;)* })*
    ) => {
        /// The fingerprint keys in rendering order. A key's group joins the
        /// values of its counters with commas, in declaration order.
        pub const FINGERPRINT_KEYS: &[&str] = &[$(stringify!($k)),*];

        const _: fn(&KernelStats) = |s| {
            let KernelStats { $($field: _,)* $($sub: $ty { $($leaf: _),* },)* } = s;
        };

        /// Every counter, declared once: the one source of
        /// [`KernelStats::accumulate`], the device's SM merge,
        /// [`KernelStats::reconcile`] and the golden fingerprint.
        pub static COUNTERS: &[Counter] = &[
            $(counters!(@one ($field) $rules),)*
            $($(counters!(@one ($sub . $leaf) $leaf_rules),)*)*
        ];
    };
    (@one ($($path:ident).+) ($key:ident, $launch:ident, $sm:ident
        $(, $event:pat => $n:expr)?)) => {
        Counter {
            name: stringify!($($path).+),
            key: stringify!($key),
            launch: Merge::$launch,
            sm: Merge::$sm,
            value: |s| Field::value(&s.$($path).+),
            merge: |rule, out, parts| out.$($path).+ = Field::merge(rule, parts, |s| &s.$($path).+),
            trace: counters!(@trace ($($path).+) $($event => $n)?),
            #[cfg(test)]
            seed: |s, v| s.$($path).+ = tests::Seed::seed(v),
        }
    };
    (@trace ($($path:ident).+)) => { None };
    (@trace ($($path:ident).+) $event:pat => $n:expr) => {
        Some(|s, e| s.$($path).+ += match *e {
            $event => $n,
            _ => 0,
        })
    };
}

counters! {
    keys: cyc ins tins hist stall dram tag scr drf mrf pkd pkm capu capm sfu bar stk xsm scal flt;
    KernelStats {
        cycles: (cyc, Sum, Max);
        instrs: (ins, Sum, Sum, E::Issue { .. } => 1);
        thread_instrs: (tins, Sum, Sum, E::Issue { mask, .. } => mask.count_ones().into());
        cheri_histogram: (hist, Sum, Sum);
        peak_data_vrf_resident: (pkd, Max, Max);
        peak_meta_vrf_resident: (pkm, Max, Max);
        cap_regs_used: (capu, Max, Max);
        cap_regs_mask: (capm, Or, Or);
        sfu_requests: (sfu, Sum, Sum, E::Sfu { .. } => 1);
        barriers: (bar, Sum, Sum, E::Barrier { release: false, .. } => 1);
        stack_cache_hits: (stk, Sum, Sum, E::Mem { space: MemSpace::StackCache, .. } => 1);
        scalarised_issues: (scal, Sum, Sum, E::Issue { class: IssueClass::Scalarised, .. } => 1);
    }
    stalls: StallBreakdown {
        csc_serialisation: (stall, Sum, Sum,
            E::Stall { cause: StallCause::CscSerialisation, cycles, .. } => cycles);
        shared_vrf_conflict: (stall, Sum, Sum,
            E::Stall { cause: StallCause::SharedVrfConflict, cycles, .. } => cycles);
        spill_fill: (stall, Sum, Sum,
            E::Stall { cause: StallCause::SpillFill, cycles, .. } => cycles);
        cap_multi_flit: (stall, Sum, Sum,
            E::Stall { cause: StallCause::CapMultiFlit, cycles, .. } => cycles);
        idle: (stall, Sum, Sum, E::Stall { cause: StallCause::Idle, cycles, .. } => cycles);
    }
    dram: DramStats {
        read_transactions: (dram, Sum, Shared, E::Dram { reads, .. } => reads.into());
        write_transactions: (dram, Sum, Shared, E::Dram { writes, .. } => writes.into());
        tag_transactions: (dram, Sum, Shared, E::Dram { tag_txns, .. } => tag_txns.into());
        busy_cycles: (dram, Sum, Shared);
        cross_sm_switches: (xsm, Sum, Shared);
        cross_sm_wait_cycles: (xsm, Sum, Shared);
    }
    tag_cache: TagCacheStats {
        hits: (tag, Sum, Shared, E::TagCache { hit: true, .. } => 1);
        misses: (tag, Sum, Shared, E::TagCache { hit: false, .. } => 1);
        writebacks: (tag, Sum, Shared, E::TagCache { writeback: true, .. } => 1);
        cross_sm_switches: (xsm, Sum, Shared);
        cross_sm_conflict_evictions: (xsm, Sum, Shared);
    }
    scratch: ScratchStats {
        accesses: (scr, Sum, Sum, E::Mem { space: MemSpace::Scratch, .. } => 1);
        conflict_cycles: (scr, Sum, Sum,
            E::Mem { space: MemSpace::Scratch, conflict_cycles, .. } => conflict_cycles.into());
    }
    data_rf: RfStats {
        spills: (drf, Sum, Sum);
        fills: (drf, Sum, Sum);
        scalar_writes: (drf, Sum, Sum);
        vector_writes: (drf, Sum, Sum);
        peak_resident: (drf, Max, Max);
    }
    meta_rf: RfStats {
        spills: (mrf, Sum, Sum);
        fills: (mrf, Sum, Sum);
        scalar_writes: (mrf, Sum, Sum);
        vector_writes: (mrf, Sum, Sum);
        peak_resident: (mrf, Max, Max);
    }
    faults: FaultStats {
        traps: (flt, Sum, Sum, E::Trap { .. } => 1);
        faulting_lanes: (flt, Sum, Sum, E::Trap { mask, .. } => mask.count_ones().into());
        suppressed: (flt, Sum, Sum, E::Trap { suppressed: true, .. } => 1);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn derived_metrics() {
        let mut s = KernelStats { cycles: 1000, instrs: 800, ..KernelStats::default() };
        s.count_cheri("CLW", 60);
        s.count_cheri("CIncOffsetImm", 20);
        assert!((s.cheri_fraction() - 0.1).abs() < 1e-12);
        assert!((s.ipc() - 0.8).abs() < 1e-12);
    }

    /// A non-zero field value made from `v`.
    pub(super) trait Seed {
        fn seed(v: u64) -> Self;
    }

    impl Seed for u64 {
        fn seed(v: u64) -> Self {
            v
        }
    }

    impl Seed for u32 {
        fn seed(v: u64) -> Self {
            v as u32
        }
    }

    impl Seed for Histogram {
        fn seed(v: u64) -> Self {
            Histogram::from([("CLW", v), (["CSW", "CJAL"][v as usize % 2], v + 1)])
        }
    }

    /// Statistics in which every declared counter holds its own non-zero
    /// value, distinct from every other counter's and from other bases'.
    fn distinct(base: u64) -> KernelStats {
        let mut s = KernelStats::default();
        for (i, c) in COUNTERS.iter().enumerate() {
            (c.seed)(&mut s, base + i as u64 + 1);
        }
        s
    }

    fn int(v: CounterValue<'_>) -> u64 {
        match v {
            CounterValue::Count(n) | CounterValue::Mask(n) => n,
            v => panic!("{v:?} is not an integer"),
        }
    }

    /// Two launches merge through `accumulate` and two SMs through
    /// `combine`, and every counter comes out as its declared rule says,
    /// computed here from the parts.
    #[test]
    fn every_counter_merges_by_its_declared_rule() {
        let (a, b, shared) = (distinct(1000), distinct(2000), distinct(3000));
        let mut launches = a.clone();
        launches.accumulate(&b);
        let sms = KernelStats::combine(&[&a, &b], &shared);
        let mut wrong = Vec::new();
        for c in COUNTERS {
            for (rule, merged, parts) in [(c.launch, &launches, "launches"), (c.sm, &sms, "SMs")] {
                let mut hist = Histogram::new();
                let want = match (rule, c.value(&a), c.value(&b)) {
                    (Merge::Sum, CounterValue::Hist(x), CounterValue::Hist(y)) => {
                        for (k, n) in x.iter().chain(y) {
                            *hist.entry(k).or_insert(0) += n;
                        }
                        CounterValue::Hist(&hist)
                    }
                    (Merge::Sum, x, y) => CounterValue::Count(int(x) + int(y)),
                    (Merge::Max, x, y) => CounterValue::Count(int(x).max(int(y))),
                    (Merge::Or, x, y) => CounterValue::Mask(int(x) | int(y)),
                    (Merge::Shared, ..) => c.value(&shared),
                };
                if c.value(merged) != want {
                    wrong.push(format!(
                        "{} across {parts}: {:?}, want {want:?}",
                        c.name,
                        c.value(merged)
                    ));
                }
            }
        }
        assert!(wrong.is_empty(), "merged against the declared rule:\n{}", wrong.join("\n"));
    }

    /// Every counter's key is rendered, and every rendered key has one.
    #[test]
    fn fingerprint_keys_match_the_counters() {
        for key in FINGERPRINT_KEYS {
            assert!(COUNTERS.iter().any(|c| c.key == *key), "{key} has no counter");
        }
        for c in COUNTERS {
            assert!(FINGERPRINT_KEYS.contains(&c.key), "{}: key {} is not rendered", c.name, c.key);
        }
    }

    /// `a{b,c}d` → `abd`, `acd`; any number of brace groups.
    fn expand(pattern: &str) -> Vec<String> {
        let Some(open) = pattern.find('{') else { return vec![pattern.to_string()] };
        let close = open + pattern[open..].find('}').expect("closing brace");
        let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
        pattern[open + 1..close]
            .split(',')
            .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
            .collect()
    }

    /// The `backquoted` names in column `column` of the first table after
    /// `heading` in `doc`, brace groups expanded.
    pub(crate) fn doc_column(doc: &str, heading: &str, column: usize) -> BTreeSet<String> {
        let section = doc.split(heading).nth(1).unwrap_or_else(|| panic!("no {heading}"));
        section
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|row| row.split('|').nth(column + 1))
            .flat_map(|cell| {
                cell.split('`').skip(1).step_by(2).flat_map(expand).collect::<Vec<_>>()
            })
            .collect()
    }

    /// `documented` and `declared` name the same things; the message names
    /// the difference both ways.
    #[track_caller]
    pub(crate) fn assert_documented(
        doc: &str,
        documented: &BTreeSet<String>,
        declared: &BTreeSet<String>,
    ) {
        let undocumented: Vec<_> = declared.difference(documented).collect();
        let undeclared: Vec<_> = documented.difference(declared).collect();
        assert!(
            undocumented.is_empty() && undeclared.is_empty(),
            "missing from {doc}: {undocumented:?}; not declared: {undeclared:?}"
        );
    }

    /// EXPERIMENTS.md's "Counters → figures contract" table names every
    /// declared counter, and no other, in its first column (brace groups
    /// expanded).
    #[test]
    fn experiments_contract_table_names_every_counter() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let documented = doc_column(doc, "## Counters → figures contract", 0);
        let declared = COUNTERS.iter().map(|c| c.name.to_string()).collect();
        assert_documented("EXPERIMENTS.md", &documented, &declared);
    }

    /// TRACING.md's reconciliation table names, in its counter column,
    /// exactly the declared counters that trace events count.
    #[test]
    fn tracing_reconciliation_table_names_every_traced_counter() {
        let doc = include_str!("../../../docs/TRACING.md");
        let documented = doc_column(doc, "## Reconciliation", 1);
        let traced =
            COUNTERS.iter().filter(|c| c.trace.is_some()).map(|c| c.name.to_string()).collect();
        assert_documented("TRACING.md", &documented, &traced);
    }
}
