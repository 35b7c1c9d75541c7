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
//! parser and trace validator live in [`json`] and [`validate`].
//!
//! The schema has one source: the `events!` table below declares each
//! event's export `type` and, per field, its type, docs and JSON rendering.
//! [`TraceEvent`], its accessors, the JSON writer both exporters call and
//! the validator's schema are all generated from it. `docs/TRACING.md`
//! documents the schema, and a test checks its table against this one.
//!
//! [`cheri-simt`]: https://example.org/cheri-simt-rs
//! [`simt-mem`]: https://example.org/cheri-simt-rs
//! [`simt-regfile`]: https://example.org/cheri-simt-rs

use std::any::Any;
use std::collections::VecDeque;
use std::io;

pub mod export;
pub mod json;
pub mod validate;

/// Sentinel "warp id" used by events that are not attributable to a single
/// warp (e.g. whole-SM idle stalls, where *no* warp was ready to issue).
pub const NO_WARP: u32 = u32::MAX;

/// Declares field-less enums whose variants are written as their export
/// names: `Variant = "name",`. Generates the enum and crate-private
/// `NAMES` (every name, in declaration order) and `name`.
macro_rules! named {
    ($($(#[$doc:meta])* pub enum $E:ident { $($(#[$vdoc:meta])* $V:ident = $name:literal,)* })*) => {$(
        $(#[$doc])*
        pub enum $E { $($(#[$vdoc])* $V,)* }

        impl $E {
            /// Every export name, in declaration order.
            pub(crate) const NAMES: &'static [&'static str] = &[$($name),*];

            /// Stable name used in exports.
            pub(crate) fn name(self) -> &'static str {
                Self::NAMES[self as usize]
            }
        }
    )*};
}

named! {
    /// Cause of a pipeline stall, mirroring `StallBreakdown` in `cheri-simt`
    /// field by field. Each emitted [`TraceEvent::Stall`] accounts a number of
    /// cycles to exactly one cause, and per-cause cycle sums reconcile with the
    /// corresponding `StallBreakdown` counter. Export names are the
    /// `StallBreakdown` field names.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum StallCause {
        /// Capability stores serialise through the shared store buffer
        /// (`StallBreakdown::csc_serialisation`).
        CscSerialisation = "csc_serialisation",
        /// Bank conflict on the shared scalarised vector register file
        /// (`StallBreakdown::shared_vrf_conflict`).
        SharedVrfConflict = "shared_vrf_conflict",
        /// VRF slot spill/fill traffic (`StallBreakdown::spill_fill`).
        SpillFill = "spill_fill",
        /// Extra flits for multi-flit capability memory accesses
        /// (`StallBreakdown::cap_multi_flit`).
        CapMultiFlit = "cap_multi_flit",
        /// No warp was ready to issue (`StallBreakdown::idle`). Emitted with
        /// warp = [`NO_WARP`].
        Idle = "idle",
    }

    /// Which memory space a warp-wide access hit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MemSpace {
        /// Global memory behind the coalescing unit and DRAM model.
        Dram = "dram",
        /// Banked shared local memory.
        Scratch = "scratch",
        /// Access absorbed by the capability stack cache (no DRAM traffic).
        StackCache = "stack_cache",
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
        Scalarised = "scalarised",
        /// Lane-wise execution (divergent operands, memory operations,
        /// barriers, traps — anything off the fast path).
        PerLane = "per_lane",
    }

    /// Which register file a residency transition happened in.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum RfKind {
        /// The 32-bit data register file.
        Data = "data",
        /// The 33-bit capability metadata register file.
        Meta = "meta",
    }
}

/// How an event field is written in both exports, after its `"key":`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Render {
    /// A JSON number: every event of the type must carry it.
    Num,
    /// `true` or `false`.
    Bool,
    /// A `"0x…"` hex string.
    Hex,
    /// A string, escaped.
    Str,
    /// The export name of a `named!` enum: one of these.
    Name(&'static [&'static str]),
    /// The warp: a number, with the key left out for [`NO_WARP`].
    Warp,
}

/// Declares every trace event: `Variant = "type" { field: Type => Render, }`,
/// one row per event and one line per field, in export order. Generates
/// [`TraceEvent`], its accessors, the JSON writer both exporters call and
/// the `SCHEMA` the validator reads. Every event's first field is
/// `cycle`; the field named `warp`, if any, attributes it to a warp.
macro_rules! events {
    ($(#[$doc:meta])* pub enum TraceEvent {$(
        $(#[$vdoc:meta])* $V:ident = $ty:literal {
            $($(#[$fdoc:meta])* $f:ident: $t:ty => $r:ident,)*
        }
    )*}) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent { $($(#[$vdoc])* $V { $($(#[$fdoc])* $f: $t,)* },)* }

        /// Every event type in declaration order: its `type` name, then each
        /// field's key and rendering in export order.
        pub(crate) const SCHEMA: &[(&str, &[(&str, Render)])] =
            &[$(($ty, &[$((stringify!($f), events!(@render $r $t))),*])),*];

        impl TraceEvent {
            /// Cycle the event occurred on.
            pub fn cycle(&self) -> u64 {
                match *self { $(TraceEvent::$V { cycle, .. })|* => cycle }
            }

            /// Warp the event is attributed to, if any ([`NO_WARP`] and launch
            /// markers yield `None`).
            pub(crate) fn warp(&self) -> Option<u32> {
                let warp = match *self {
                    $(TraceEvent::$V { $($f),* } => None $(.or(events!(@warp $f $f)))*,)*
                };
                warp.filter(|&w| w != NO_WARP)
            }

            /// Write `"type":"<type>"` and every field, each after a comma:
            /// the body of a JSON-lines object and of a Chrome entry's
            /// `args`.
            pub(crate) fn write_json(&self, w: &mut impl io::Write) -> io::Result<()> {
                match *self {$(
                    TraceEvent::$V { $($f),* } => write!(
                        w,
                        concat!("\"type\":\"", $ty, "\"", $(events!(@fmt $r $f)),*),
                        $(events!(@arg $r $f)),*
                    ),
                )*}
            }
        }
    };
    (@render Name $t:ty) => { Render::Name(<$t>::NAMES) };
    (@render $r:ident $t:ty) => { Render::$r };
    (@warp warp $v:ident) => { Some($v) };
    (@warp $f:ident $v:ident) => {{
        let _ = $v;
        None
    }};
    (@fmt Num $f:ident) => { concat!(",\"", stringify!($f), "\":{}") };
    (@fmt Bool $f:ident) => { concat!(",\"", stringify!($f), "\":{}") };
    (@fmt Hex $f:ident) => { concat!(",\"", stringify!($f), "\":\"{:#x}\"") };
    (@fmt Warp $f:ident) => { "{}" };
    (@fmt $r:ident $f:ident) => { concat!(",\"", stringify!($f), "\":\"{}\"") };
    (@arg Str $v:ident) => { export::Escaped($v) };
    (@arg Name $v:ident) => { $v.name() };
    (@arg Warp $v:ident) => { export::WarpKey(concat!(",\"", stringify!($v), "\":"), $v) };
    (@arg $r:ident $v:ident) => { $v };
}

events! {
    /// One structured trace event. Every variant carries the cycle it occurred
    /// on; warp-attributable events carry the warp id. Variants map one-to-one
    /// onto `KernelStats` counters (see `docs/TRACING.md` for the reconciliation
    /// table).
    pub enum TraceEvent {
        /// A kernel launch began: the SM was reset and starts executing a fresh
        /// program. Partitions the stream of a multi-launch benchmark.
        Launch = "launch" {
            /// Cycle of the reset (always 0: the cycle counter restarts).
            cycle: u64 => Num,
            /// Warps activated for this launch.
            warps: u32 => Num,
        }
        /// One instruction issued for one warp (mirrors `KernelStats::instrs`;
        /// the popcount of `mask` sums to `KernelStats::thread_instrs`).
        Issue = "issue" {
            /// Cycle the instruction issued.
            cycle: u64 => Num,
            /// Issuing warp.
            warp: u32 => Num,
            /// Program counter of the instruction.
            pc: u32 => Hex,
            /// Active-thread mask.
            mask: u64 => Hex,
            /// Instruction mnemonic.
            mnemonic: &'static str => Str,
            /// How execute ran it: warp-wide over compact operands
            /// (`Scalarised` issues mirror `KernelStats::scalarised_issues`)
            /// or lane-wise.
            class: IssueClass => Name,
        }
        /// Cycles lost to a pipeline stall, attributed to one cause.
        Stall = "stall" {
            /// Cycle the stall was charged on.
            cycle: u64 => Num,
            /// Stalled warp, or [`NO_WARP`] for whole-SM idle stalls.
            warp: u32 => Warp,
            /// Stall cause (mirrors a `StallBreakdown` field).
            cause: StallCause => Name,
            /// Cycles charged.
            cycles: u64 => Num,
        }
        /// Shape of one coalesced warp-wide memory access.
        Mem = "mem" {
            /// Cycle the access was charged on.
            cycle: u64 => Num,
            /// Accessing warp.
            warp: u32 => Num,
            /// Memory space hit.
            space: MemSpace => Name,
            /// True for stores, false for loads.
            is_store: bool => Bool,
            /// Active lanes participating.
            lanes: u32 => Num,
            /// 64-byte DRAM transactions generated (0 for scratchpad and
            /// stack-cache hits).
            transactions: u32 => Num,
            /// All lanes hit the same address (broadcast).
            uniform: bool => Bool,
            /// Extra cycles serialising scratchpad bank conflicts (0 for DRAM).
            conflict_cycles: u32 => Num,
        }
        /// One tag-cache lookup (mirrors `TagCacheStats`).
        TagCache = "tag_cache" {
            /// Cycle of the lookup.
            cycle: u64 => Num,
            /// Warp whose access triggered the lookup.
            warp: u32 => Num,
            /// True on hit, false on miss.
            hit: bool => Bool,
            /// A dirty line was written back to serve this miss.
            writeback: bool => Bool,
        }
        /// A batch of transactions entered the DRAM model.
        Dram = "dram" {
            /// Cycle the batch was enqueued.
            cycle: u64 => Num,
            /// Warp that generated the traffic, or [`NO_WARP`] for traffic not
            /// tied to one warp.
            warp: u32 => Warp,
            /// Read transactions.
            reads: u32 => Num,
            /// Write transactions.
            writes: u32 => Num,
            /// Tag-controller transactions added on top.
            tag_txns: u32 => Num,
            /// Cycle the batch completes (queueing included).
            done_at: u64 => Num,
        }
        /// A warp suspended on the shared SFU (mirrors
        /// `KernelStats::sfu_requests`).
        Sfu = "sfu" {
            /// Cycle the warp suspended.
            cycle: u64 => Num,
            /// Suspending warp.
            warp: u32 => Num,
            /// Active lanes occupying SFU slots.
            lanes: u32 => Num,
            /// Cycles until the warp resumes.
            latency: u64 => Num,
        }
        /// A register changed residency class in a compressed register file
        /// (scalar/affine SRF entry vs full VRF vector) — the event stream of
        /// the non-vectorised-operand (NVO) optimisation.
        RfTransition = "rf_transition" {
            /// Cycle of the write that caused the transition.
            cycle: u64 => Num,
            /// Writing warp.
            warp: u32 => Num,
            /// Which register file.
            rf: RfKind => Name,
            /// Architectural register number.
            reg: u32 => Num,
            /// True when the value became a VRF vector, false when it collapsed
            /// back to a scalar/affine SRF form.
            to_vector: bool => Bool,
        }
        /// A warp arrived at a barrier (`release == false`, mirrors
        /// `KernelStats::barriers`) or was released from one (`release == true`).
        Barrier = "barrier" {
            /// Cycle of arrival/release.
            cycle: u64 => Num,
            /// The warp in question.
            warp: u32 => Num,
            /// False on arrival, true on release.
            release: bool => Bool,
        }
        /// A warp-precise trap was raised (mirrors `FaultStats::traps`). With
        /// `suppressed == false` the run aborts immediately after this event;
        /// with `suppressed == true` (`TrapPolicy::MaskLanes`) the faulting
        /// lanes were disabled and the warp keeps running.
        Trap = "trap" {
            /// Cycle the trap was raised on.
            cycle: u64 => Num,
            /// Faulting warp.
            warp: u32 => Num,
            /// Program counter of the faulting instruction.
            pc: u32 => Hex,
            /// Bitmask of all faulting lanes (its popcount sums to
            /// `FaultStats::faulting_lanes`).
            mask: u64 => Hex,
            /// Stable cause name of the leader lane (`TrapCause::name`, e.g.
            /// `cheri:bounds`, `mem:unmapped`).
            cause: &'static str => Str,
            /// True when the trap was absorbed by `TrapPolicy::MaskLanes`.
            suppressed: bool => Bool,
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
        assert_eq!(ev.cycle(), 9);
        assert_eq!(ev.warp(), None);
        assert_eq!(issue(1).warp(), Some(0));
        assert_eq!(StallCause::SharedVrfConflict.name(), "shared_vrf_conflict");
        assert_eq!(IssueClass::Scalarised.name(), "scalarised");
        assert_eq!(IssueClass::PerLane.name(), "per_lane");
    }

    /// TRACING.md's "Event schema" table lists the event types of the
    /// table, in order, each with its fields in export order; `[warp]`
    /// marks exactly the fields left out for `NO_WARP`. Parenthesised notes
    /// in the fields column are not field names.
    #[test]
    fn tracing_doc_schema_matches_the_table() {
        let doc = include_str!("../../../docs/TRACING.md");
        let (_, table) = doc.split_once("## Event schema").unwrap();
        let rows: Vec<(&str, Vec<String>)> = table
            .lines()
            .skip_while(|l| !l.starts_with("|---"))
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let mut fields = cells[2].to_string();
                while let Some(open) = fields.find('(') {
                    let close = open + fields[open..].find(')').unwrap();
                    fields.replace_range(open..=close, "");
                }
                let fields = fields.split(',').map(|f| f.trim().replace('`', "")).collect();
                (cells[1].trim_matches('`'), fields)
            })
            .collect();
        let declared: Vec<(&str, Vec<String>)> = SCHEMA
            .iter()
            .map(|&(ty, fields)| {
                let fields = fields
                    .iter()
                    .map(|&(key, render)| match render {
                        Render::Warp => format!("[{key}]"),
                        _ => key.to_string(),
                    })
                    .collect();
                (ty, fields)
            })
            .collect();
        assert_eq!(rows, declared);
    }
}
