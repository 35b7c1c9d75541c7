//! Structured event tracing for the CHERI-SIMT model.
//!
//! This crate is the observability layer of the simulator: the SM pipeline
//! ([`cheri-simt`]), the memory hierarchy ([`simt-mem`]) and the register
//! files ([`simt-regfile`]) emit typed [`TraceEvent`]s into an [`EventSink`]
//! when one is attached, and emit nothing (at zero cost beyond a branch on an
//! `Option`) when none is. Every event mirrors one of the hardware
//! performance counters in `KernelStats`, so an exported trace can always be
//! reconciled exactly against the aggregate statistics of the run that
//! produced it — e.g. the number of [`TraceEvent::Issue`] events equals the
//! `instrs` counter.
//!
//! Two sink implementations are provided:
//!
//! * [`VecSink`] — unbounded, retains every event; used by the `repro trace`
//!   exporter where the full stream is needed.
//! * [`RingSink`] — bounded ring buffer that overwrites the *oldest* events
//!   once full and counts how many were dropped; the flight-recorder sink
//!   (the structured successor of the removed `Sm::enable_trace` ring).
//!
//! Exporters for JSON-lines and the Chrome trace-event format (viewable in
//! Perfetto or `chrome://tracing`) live in [`export`]; a dependency-free JSON
//! parser and trace validator live in [`json`] and [`validate`]. See
//! `docs/TRACING.md` for the full schema.
//!
//! [`cheri-simt`]: https://example.org/cheri-simt-rs
//! [`simt-mem`]: https://example.org/cheri-simt-rs
//! [`simt-regfile`]: https://example.org/cheri-simt-rs

use std::any::Any;
use std::collections::VecDeque;

pub mod export;
pub mod json;
pub mod validate;

/// Sentinel "warp id" used by events that are not attributable to a single
/// warp (e.g. whole-SM idle stalls, where *no* warp was ready to issue).
pub const NO_WARP: u32 = u32::MAX;

/// Cause of a pipeline stall, mirroring `StallBreakdown` in `cheri-simt`
/// field by field. Each emitted [`TraceEvent::Stall`] accounts a number of
/// cycles to exactly one cause, and per-cause cycle sums reconcile with the
/// corresponding `StallBreakdown` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallCause {
    /// Capability stores serialise through the shared store buffer
    /// (`StallBreakdown::csc_serialisation`).
    CscSerialisation,
    /// Bank conflict on the shared scalarised vector register file
    /// (`StallBreakdown::shared_vrf_conflict`).
    SharedVrfConflict,
    /// VRF slot spill/fill traffic (`StallBreakdown::spill_fill`).
    SpillFill,
    /// Extra flits for multi-flit capability memory accesses
    /// (`StallBreakdown::cap_multi_flit`).
    CapMultiFlit,
    /// No warp was ready to issue (`StallBreakdown::idle`). Emitted with
    /// warp = [`NO_WARP`].
    Idle,
}

impl StallCause {
    /// Stable lower-snake-case name used in exports (matches the
    /// `StallBreakdown` field name).
    pub(crate) fn name(self) -> &'static str {
        match self {
            StallCause::CscSerialisation => "csc_serialisation",
            StallCause::SharedVrfConflict => "shared_vrf_conflict",
            StallCause::SpillFill => "spill_fill",
            StallCause::CapMultiFlit => "cap_multi_flit",
            StallCause::Idle => "idle",
        }
    }
}

/// Which memory space a warp-wide access hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Global memory behind the coalescing unit and DRAM model.
    Dram,
    /// Banked shared local memory.
    Scratch,
    /// Access absorbed by the capability stack cache (no DRAM traffic).
    StackCache,
}

impl MemSpace {
    /// Stable name used in exports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MemSpace::Dram => "dram",
            MemSpace::Scratch => "scratch",
            MemSpace::StackCache => "stack_cache",
        }
    }
}

/// How the execute stage ran one issued instruction: once per warp over
/// compact (uniform/affine) operands, or once per active lane. Decided by
/// a pure pre-issue classifier, so the class on the [`TraceEvent::Issue`]
/// event always agrees with what execute did and with the
/// `KernelStats::scalarised_issues` counter it mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueClass {
    /// Warp-wide fast path: the result was computed once for the whole
    /// warp from compact operands.
    Scalarised,
    /// Lane-wise execution (divergent operands, memory operations,
    /// barriers, traps — anything off the fast path).
    PerLane,
}

impl IssueClass {
    /// Stable name used in exports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            IssueClass::Scalarised => "scalarised",
            IssueClass::PerLane => "per_lane",
        }
    }
}

/// Which register file a residency transition happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfKind {
    /// The 32-bit data register file.
    Data,
    /// The 33-bit capability metadata register file.
    Meta,
}

impl RfKind {
    /// Stable name used in exports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RfKind::Data => "data",
            RfKind::Meta => "meta",
        }
    }
}

/// One structured trace event. Every variant carries the cycle it occurred
/// on; warp-attributable events carry the warp id. Variants map one-to-one
/// onto `KernelStats` counters (see `docs/TRACING.md` for the reconciliation
/// table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A kernel launch began: the SM was reset and starts executing a fresh
    /// program. Partitions the stream of a multi-launch benchmark.
    Launch {
        /// Cycle of the reset (always 0: the cycle counter restarts).
        cycle: u64,
        /// Warps activated for this launch.
        warps: u32,
    },
    /// One instruction issued for one warp (mirrors `KernelStats::instrs`;
    /// the popcount of `mask` sums to `KernelStats::thread_instrs`).
    Issue {
        /// Cycle the instruction issued.
        cycle: u64,
        /// Issuing warp.
        warp: u32,
        /// Program counter of the instruction.
        pc: u32,
        /// Active-thread mask.
        mask: u64,
        /// Instruction mnemonic.
        mnemonic: &'static str,
        /// How execute ran it: warp-wide over compact operands
        /// (`Scalarised` issues mirror `KernelStats::scalarised_issues`)
        /// or lane-wise.
        class: IssueClass,
    },
    /// Cycles lost to a pipeline stall, attributed to one cause.
    Stall {
        /// Cycle the stall was charged on.
        cycle: u64,
        /// Stalled warp, or [`NO_WARP`] for whole-SM idle stalls.
        warp: u32,
        /// Stall cause (mirrors a `StallBreakdown` field).
        cause: StallCause,
        /// Cycles charged.
        cycles: u64,
    },
    /// Shape of one coalesced warp-wide memory access.
    Mem {
        /// Cycle the access was charged on.
        cycle: u64,
        /// Accessing warp.
        warp: u32,
        /// Memory space hit.
        space: MemSpace,
        /// True for stores, false for loads.
        is_store: bool,
        /// Active lanes participating.
        lanes: u32,
        /// 64-byte DRAM transactions generated (0 for scratchpad and
        /// stack-cache hits).
        transactions: u32,
        /// All lanes hit the same address (broadcast).
        uniform: bool,
        /// Extra cycles serialising scratchpad bank conflicts (0 for DRAM).
        conflict_cycles: u32,
    },
    /// One tag-cache lookup (mirrors `TagCacheStats`).
    TagCache {
        /// Cycle of the lookup.
        cycle: u64,
        /// Warp whose access triggered the lookup.
        warp: u32,
        /// True on hit, false on miss.
        hit: bool,
        /// A dirty line was written back to serve this miss.
        writeback: bool,
    },
    /// A batch of transactions entered the DRAM model.
    Dram {
        /// Cycle the batch was enqueued.
        cycle: u64,
        /// Warp that generated the traffic, or [`NO_WARP`] for traffic not
        /// tied to one warp.
        warp: u32,
        /// Read transactions.
        reads: u32,
        /// Write transactions.
        writes: u32,
        /// Tag-controller transactions added on top.
        tag_txns: u32,
        /// Cycle the batch completes (queueing included).
        done_at: u64,
    },
    /// A warp suspended on the shared SFU (mirrors
    /// `KernelStats::sfu_requests`).
    Sfu {
        /// Cycle the warp suspended.
        cycle: u64,
        /// Suspending warp.
        warp: u32,
        /// Active lanes occupying SFU slots.
        lanes: u32,
        /// Cycles until the warp resumes.
        latency: u64,
    },
    /// A register changed residency class in a compressed register file
    /// (scalar/affine SRF entry vs full VRF vector) — the event stream of
    /// the non-vectorised-operand (NVO) optimisation.
    RfTransition {
        /// Cycle of the write that caused the transition.
        cycle: u64,
        /// Writing warp.
        warp: u32,
        /// Which register file.
        rf: RfKind,
        /// Architectural register number.
        reg: u32,
        /// True when the value became a VRF vector, false when it collapsed
        /// back to a scalar/affine SRF form.
        to_vector: bool,
    },
    /// A warp arrived at a barrier (`release == false`, mirrors
    /// `KernelStats::barriers`) or was released from one (`release == true`).
    Barrier {
        /// Cycle of arrival/release.
        cycle: u64,
        /// The warp in question.
        warp: u32,
        /// False on arrival, true on release.
        release: bool,
    },
    /// A warp-precise trap was raised (mirrors `FaultStats::traps`). With
    /// `suppressed == false` the run aborts immediately after this event;
    /// with `suppressed == true` (`TrapPolicy::MaskLanes`) the faulting
    /// lanes were disabled and the warp keeps running.
    Trap {
        /// Cycle the trap was raised on.
        cycle: u64,
        /// Faulting warp.
        warp: u32,
        /// Program counter of the faulting instruction.
        pc: u32,
        /// Bitmask of all faulting lanes (its popcount sums to
        /// `FaultStats::faulting_lanes`).
        mask: u64,
        /// Stable cause name of the leader lane (`TrapCause::name`, e.g.
        /// `cheri:bounds`, `mem:unmapped`).
        cause: &'static str,
        /// True when the trap was absorbed by `TrapPolicy::MaskLanes`.
        suppressed: bool,
    },
}

impl TraceEvent {
    /// Stable lower-snake-case event-type name used in exports.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Launch { .. } => "launch",
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::Mem { .. } => "mem",
            TraceEvent::TagCache { .. } => "tag_cache",
            TraceEvent::Dram { .. } => "dram",
            TraceEvent::Sfu { .. } => "sfu",
            TraceEvent::RfTransition { .. } => "rf_transition",
            TraceEvent::Barrier { .. } => "barrier",
            TraceEvent::Trap { .. } => "trap",
        }
    }

    /// Cycle the event occurred on.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Launch { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::Mem { cycle, .. }
            | TraceEvent::TagCache { cycle, .. }
            | TraceEvent::Dram { cycle, .. }
            | TraceEvent::Sfu { cycle, .. }
            | TraceEvent::RfTransition { cycle, .. }
            | TraceEvent::Barrier { cycle, .. }
            | TraceEvent::Trap { cycle, .. } => cycle,
        }
    }

    /// Warp the event is attributed to, if any ([`NO_WARP`] and launch
    /// markers yield `None`).
    pub(crate) fn warp(&self) -> Option<u32> {
        let w = match *self {
            TraceEvent::Launch { .. } => NO_WARP,
            TraceEvent::Issue { warp, .. }
            | TraceEvent::Stall { warp, .. }
            | TraceEvent::Mem { warp, .. }
            | TraceEvent::TagCache { warp, .. }
            | TraceEvent::Dram { warp, .. }
            | TraceEvent::Sfu { warp, .. }
            | TraceEvent::RfTransition { warp, .. }
            | TraceEvent::Barrier { warp, .. }
            | TraceEvent::Trap { warp, .. } => warp,
        };
        if w == NO_WARP {
            None
        } else {
            Some(w)
        }
    }
}

/// Destination for trace events.
///
/// Implementations must be cheap per call: the pipeline emits from its inner
/// loop. `Send` is required because traced SMs cross thread boundaries in the
/// parallel suite runner; `Debug` because the SM itself derives `Debug`;
/// `Any` so a detached sink downcasts back to its concrete type: by
/// reference through `as_any`, or by value as a `Box<dyn Any>`.
pub trait EventSink: Any + Send + std::fmt::Debug {
    /// Record one event.
    fn emit(&mut self, ev: TraceEvent);

    /// Number of events this sink has discarded (bounded sinks only).
    fn dropped(&self) -> u64 {
        0
    }
}

impl dyn EventSink {
    /// The sink as `Any`, to downcast to the concrete sink after detaching
    /// it from the SM.
    pub fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Unbounded sink that retains every event in emission order.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// Create an empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The recorded events, in emission order, without a copy.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl EventSink for VecSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Bounded ring-buffer sink: keeps the **most recent** `capacity` events,
/// overwriting the oldest once full, and counts every overwritten event in
/// [`EventSink::dropped`].
#[derive(Debug, Clone)]
pub struct RingSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Create a ring holding at most `capacity` events (`capacity == 0`
    /// drops everything).
    pub fn new(capacity: usize) -> Self {
        RingSink { events: VecDeque::with_capacity(capacity.min(4096)), capacity, dropped: 0 }
    }

    /// The retained (most recent) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

impl EventSink for RingSink {
    fn emit(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(cycle: u64) -> TraceEvent {
        TraceEvent::Issue {
            cycle,
            warp: 0,
            pc: 0x8000_0000,
            mask: 0xF,
            mnemonic: "add",
            class: IssueClass::PerLane,
        }
    }

    #[test]
    fn vec_sink_retains_everything() {
        let mut s = VecSink::new();
        for c in 0..100 {
            s.emit(issue(c));
        }
        assert_eq!(s.events().len(), 100);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.events()[7].cycle(), 7);
    }

    #[test]
    fn ring_sink_overwrites_oldest_and_counts_drops() {
        let mut s = RingSink::new(10);
        for c in 0..25 {
            s.emit(issue(c));
        }
        assert_eq!(s.dropped(), 15);
        let kept: Vec<u64> = s.events().map(TraceEvent::cycle).collect();
        assert_eq!(kept, (15..25).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut s = RingSink::new(0);
        s.emit(issue(0));
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.events().count(), 0);
    }

    #[test]
    fn downcast_through_dyn() {
        let mut sink: Box<dyn EventSink> = Box::new(VecSink::new());
        sink.emit(issue(3));
        let vec = sink.as_any().downcast_ref::<VecSink>().unwrap();
        assert_eq!(vec.events().len(), 1);
        assert!(sink.as_any().downcast_ref::<RingSink>().is_none());
        let sink: Box<dyn Any> = sink;
        assert_eq!(sink.downcast::<VecSink>().unwrap().into_events(), [issue(3)]);
    }

    #[test]
    fn event_accessors() {
        let ev = TraceEvent::Stall { cycle: 9, warp: NO_WARP, cause: StallCause::Idle, cycles: 4 };
        assert_eq!(ev.kind(), "stall");
        assert_eq!(ev.cycle(), 9);
        assert_eq!(ev.warp(), None);
        assert_eq!(issue(1).warp(), Some(0));
        assert_eq!(StallCause::SharedVrfConflict.name(), "shared_vrf_conflict");
        assert_eq!(IssueClass::Scalarised.name(), "scalarised");
        assert_eq!(IssueClass::PerLane.name(), "per_lane");
    }
}
