//! Trace exporters: JSON-lines and Chrome trace-event format.
//!
//! Each format is one writer over [`std::io::Write`] — [`write_jsonl`] and
//! [`write_chrome`] format every event straight into the writer, so a trace
//! file never exists in memory as a whole; [`to_jsonl`] and [`to_chrome`]
//! run the same writers into a buffer. Both formats are fully
//! deterministic: the output is a pure function of the event streams passed
//! in, so two runs of the same deterministic simulation produce
//! byte-identical files regardless of how many worker threads collected the
//! cells.
//!
//! The Chrome writer emits the [trace-event format] consumed by Perfetto
//! and `chrome://tracing`: one *process* per (cell, launch) pair and one
//! *thread* track per warp, plus dedicated tracks for the scheduler, the
//! DRAM channel and the tag cache, and a counter track for SFU occupancy.
//! Timestamps are in cycles (the viewer displays them as microseconds; read
//! "1 µs" as "1 cycle").
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{TraceEvent, NO_WARP};
use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, Write};

/// One traced simulation cell: a labelled event stream (typically one
/// benchmark run under one configuration).
#[derive(Debug, Clone, Copy)]
pub struct TraceCell<'a> {
    /// Human-readable label, e.g. `"VecAdd [purecap]"`.
    pub label: &'a str,
    /// The cell's events in emission order.
    pub events: &'a [TraceEvent],
}

/// A string that displays escaped for inclusion in a JSON string literal.
pub(crate) struct Escaped<'a>(pub(crate) &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\' || b < 0x20) {
            f.write_str(&rest[..i])?;
            match rest.as_bytes()[i] {
                b'"' => f.write_str("\\\"")?,
                b'\\' => f.write_str("\\\\")?,
                b'\n' => f.write_str("\\n")?,
                b'\r' => f.write_str("\\r")?,
                b'\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{c:04x}")?,
            }
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
}

/// A warp field that displays as `key` and the warp, or as nothing for
/// [`NO_WARP`].
pub(crate) struct WarpKey(pub(crate) &'static str, pub(crate) u32);

impl fmt::Display for WarpKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WarpKey(_, NO_WARP) => Ok(()),
            WarpKey(key, warp) => write!(f, "{key}{warp}"),
        }
    }
}

/// Write cells as JSON-lines: one JSON object per event, prefixed with the
/// cell label and event type. Lines appear in cell order, then emission
/// order — the canonical flat form of the trace. Flushes `w` at the end.
///
/// # Errors
///
/// The first error `w` returns.
pub fn write_jsonl<W: Write>(mut w: W, cells: &[TraceCell]) -> io::Result<()> {
    for cell in cells {
        let head = format!("{{\"cell\":\"{}\",", Escaped(cell.label));
        for ev in cell.events {
            w.write_all(head.as_bytes())?;
            ev.write_json(&mut w)?;
            w.write_all(b"}\n")?;
        }
    }
    w.flush()
}

/// [`write_jsonl`] into a string.
pub fn to_jsonl(cells: &[TraceCell]) -> String {
    in_memory(|buf| write_jsonl(buf, cells))
}

/// What `write` writes into an in-memory buffer.
fn in_memory(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut buf = Vec::new();
    write(&mut buf).expect("writing into a Vec cannot fail");
    String::from_utf8(buf).expect("the writers copy `&str`s and format numbers: UTF-8")
}

/// Reserved Chrome-trace thread ids for non-warp tracks.
const TID_SCHED: u32 = 1000;
/// Tag-cache lookups track.
const TID_TAG: u32 = 1001;
/// DRAM channel track.
const TID_DRAM: u32 = 1002;

/// Where an event goes on the Chrome timeline: its name, its track and, for
/// a slice, its duration (`None` makes it an instant). Launch markers are
/// structure, not entries.
fn placement(ev: &TraceEvent) -> Option<(&'static str, u32, Option<u64>)> {
    Some(match *ev {
        TraceEvent::Launch { .. } => return None,
        TraceEvent::Issue { warp, mnemonic, .. } => (mnemonic, warp, Some(1)),
        TraceEvent::Stall { warp, cause, cycles, .. } => {
            let tid = if warp == NO_WARP { TID_SCHED } else { warp };
            (cause.name(), tid, Some(cycles.max(1)))
        }
        TraceEvent::Mem { warp, space, .. } => (space.name(), warp, None),
        TraceEvent::TagCache { hit, .. } => {
            (if hit { "tag hit" } else { "tag miss" }, TID_TAG, None)
        }
        TraceEvent::Dram { .. } => ("dram", TID_DRAM, None),
        TraceEvent::Sfu { warp, latency, .. } => ("sfu", warp, Some(latency.max(1))),
        TraceEvent::RfTransition { warp, to_vector, .. } => {
            (if to_vector { "srf→vrf" } else { "vrf→srf" }, warp, None)
        }
        TraceEvent::Barrier { warp, release, .. } => {
            (if release { "barrier release" } else { "barrier" }, warp, None)
        }
        TraceEvent::Trap { warp, cause, .. } => (cause, warp, None),
    })
}

/// One timeline entry: a slice (`"X"`) when `dur` is given, else an instant
/// (`"i"`), carrying the event's full payload under `args`.
fn chrome_event(
    w: &mut impl Write,
    name: &str,
    pid: u32,
    tid: u32,
    dur: Option<u64>,
    ev: &TraceEvent,
) -> io::Result<()> {
    let ph = if dur.is_some() { 'X' } else { 'i' };
    let (name, ts) = (Escaped(name), ev.cycle());
    write!(w, "{{\"ph\":\"{ph}\",\"name\":\"{name}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}")?;
    match dur {
        Some(d) => write!(w, ",\"dur\":{d},\"args\":{{")?,
        None => w.write_all(b",\"s\":\"t\",\"args\":{")?,
    }
    ev.write_json(w)?;
    w.write_all(b"}},\n")
}

fn chrome_meta(
    w: &mut impl Write,
    kind: &str,
    pid: u32,
    tid: Option<u32>,
    name: &str,
) -> io::Result<()> {
    write!(w, "{{\"ph\":\"M\",\"name\":\"{kind}\",\"pid\":{pid}")?;
    if let Some(t) = tid {
        write!(w, ",\"tid\":{t}")?;
    }
    writeln!(w, ",\"args\":{{\"name\":\"{}\"}}}},", Escaped(name))
}

/// Write cells in Chrome trace-event format (a JSON object with a
/// `traceEvents` array), viewable in Perfetto or `chrome://tracing`.
/// Flushes `w` at the end.
///
/// Layout: each (cell, launch) pair becomes one process; within it, each
/// warp gets a thread track carrying issue slices, stall slices and
/// memory/regfile/barrier instants; the scheduler (idle stalls), the tag
/// cache and the DRAM channel get dedicated tracks; SFU occupancy is a
/// counter track (`sfu_lanes`). A process's metadata precedes its events,
/// so each launch is read twice: once for what the metadata names, once to
/// write the events.
///
/// # Errors
///
/// The first error `w` returns.
pub fn write_chrome<W: Write>(mut w: W, cells: &[TraceCell]) -> io::Result<()> {
    w.write_all(b"{\"traceEvents\":[\n")?;
    let mut pid = 0u32;
    for cell in cells {
        // A launch runs from its `launch` marker to the next one; events
        // before the first marker (none, in practice) form an implicit
        // first launch. An empty cell has no launch.
        let launches = cell.events.chunk_by(|_, next| !matches!(next, TraceEvent::Launch { .. }));
        for (launch, events) in launches.enumerate() {
            let mut warps = BTreeSet::new();
            let (mut sched, mut tag, mut dram) = (false, false, false);
            // SFU occupancy deltas: (cycle, +lanes) and (cycle, -lanes).
            let mut sfu: Vec<(u64, i64)> = Vec::new();
            for ev in events {
                warps.extend(ev.warp());
                match *ev {
                    TraceEvent::Stall { warp: NO_WARP, .. } => sched = true,
                    TraceEvent::TagCache { .. } => tag = true,
                    TraceEvent::Dram { .. } => dram = true,
                    TraceEvent::Sfu { cycle, lanes, latency, .. } => {
                        sfu.extend([(cycle, lanes as i64), (cycle + latency, -(lanes as i64))]);
                    }
                    _ => {}
                }
            }

            let pname = format!("{} · launch {launch}", cell.label);
            chrome_meta(&mut w, "process_name", pid, None, &pname)?;
            for warp in warps {
                chrome_meta(&mut w, "thread_name", pid, Some(warp), &format!("warp {warp}"))?;
            }
            for (used, tid, name) in [
                (sched, TID_SCHED, "scheduler"),
                (tag, TID_TAG, "tag cache"),
                (dram, TID_DRAM, "dram"),
            ] {
                if used {
                    chrome_meta(&mut w, "thread_name", pid, Some(tid), name)?;
                }
            }

            for ev in events {
                if let Some((name, tid, dur)) = placement(ev) {
                    chrome_event(&mut w, name, pid, tid, dur, ev)?;
                }
            }
            // SFU occupancy counter track: one sample per cycle the level
            // changes on.
            sfu.sort_unstable();
            let mut level = 0i64;
            for same_cycle in sfu.chunk_by(|a, b| a.0 == b.0) {
                level += same_cycle.iter().map(|&(_, delta)| delta).sum::<i64>();
                writeln!(
                    w,
                    "{{\"ph\":\"C\",\"name\":\"sfu_lanes\",\"pid\":{pid},\"tid\":0,\"ts\":{},\
                     \"args\":{{\"lanes\":{level}}}}},",
                    same_cycle[0].0
                )?;
            }
            pid += 1;
        }
    }
    // Terminate the array without a trailing comma: a harmless sentinel
    // metadata event spares the writer a lookahead for the last entry.
    w.write_all(
        b"{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":4294967295,\"args\":{\"name\":\"end\"}}\n\
          ],\"displayTimeUnit\":\"ns\",\
          \"otherData\":{\"generator\":\"repro trace\",\"clock\":\"cycles\"}}\n",
    )?;
    w.flush()
}

/// [`write_chrome`] into a string.
pub fn to_chrome(cells: &[TraceCell]) -> String {
    in_memory(|buf| write_chrome(buf, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IssueClass, MemSpace, RfKind, StallCause};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Launch { cycle: 0, warps: 2 },
            TraceEvent::Issue {
                cycle: 1,
                warp: 0,
                pc: 0x8000_0000,
                mask: 0xFF,
                mnemonic: "lw",
                class: IssueClass::PerLane,
            },
            TraceEvent::Mem {
                cycle: 1,
                warp: 0,
                space: MemSpace::Dram,
                is_store: false,
                lanes: 8,
                transactions: 1,
                uniform: false,
                conflict_cycles: 0,
            },
            TraceEvent::TagCache { cycle: 1, warp: 0, hit: true, writeback: false },
            TraceEvent::Dram { cycle: 1, warp: 0, reads: 1, writes: 0, tag_txns: 0, done_at: 41 },
            TraceEvent::Stall { cycle: 2, warp: NO_WARP, cause: StallCause::Idle, cycles: 39 },
            TraceEvent::Sfu { cycle: 41, warp: 1, lanes: 8, latency: 12 },
            TraceEvent::RfTransition {
                cycle: 41,
                warp: 1,
                rf: RfKind::Data,
                reg: 10,
                to_vector: true,
            },
            TraceEvent::Barrier { cycle: 42, warp: 1, release: false },
        ]
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = sample();
        let cells = [TraceCell { label: "Test [purecap]", events: &events }];
        let out = to_jsonl(&cells);
        assert_eq!(out.lines().count(), events.len());
        assert!(out.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(out.contains("\"type\":\"issue\""));
        assert!(out.contains("\"pc\":\"0x80000000\""));
        assert!(out.contains("\"cause\":\"idle\""));
        assert!(out.contains("\"class\":\"per_lane\""));
    }

    #[test]
    fn chrome_is_valid_and_has_tracks() {
        let events = sample();
        let cells = [TraceCell { label: "Test", events: &events }];
        let out = to_chrome(&cells);
        crate::validate::validate_chrome(&out).expect("chrome export validates");
        assert!(out.contains("\"process_name\""));
        assert!(out.contains("warp 0"));
        assert!(out.contains("sfu_lanes"));
        assert!(out.contains("tag cache"));
    }

    #[test]
    fn multi_launch_splits_processes() {
        let mut events = sample();
        events.push(TraceEvent::Launch { cycle: 0, warps: 2 });
        events.push(TraceEvent::Issue {
            cycle: 1,
            warp: 0,
            pc: 0x8000_0004,
            mask: 1,
            mnemonic: "add",
            class: IssueClass::Scalarised,
        });
        let cells = [TraceCell { label: "Two", events: &events }];
        let out = to_chrome(&cells);
        assert!(out.contains("Two · launch 0"));
        assert!(out.contains("Two · launch 1"));
    }

    #[test]
    fn exports_are_deterministic() {
        let events = sample();
        let cells = [TraceCell { label: "Det", events: &events }];
        assert_eq!(to_chrome(&cells), to_chrome(&cells));
        assert_eq!(to_jsonl(&cells), to_jsonl(&cells));
    }

    /// The edge cases of the launch split and the SFU counter: an empty
    /// cell takes no process and no pid; events before the first `launch`
    /// marker form an implicit launch 0; a marker right after another one
    /// is a launch of its own with no event; an SFU release and acquire on
    /// the same cycle give one counter sample.
    #[test]
    fn edge_case_exports_are_pinned() {
        let edges = vec![
            TraceEvent::Stall { cycle: 0, warp: NO_WARP, cause: StallCause::Idle, cycles: 0 },
            TraceEvent::Dram {
                cycle: 0,
                warp: NO_WARP,
                reads: 1,
                writes: 0,
                tag_txns: 1,
                done_at: 9,
            },
            TraceEvent::Launch { cycle: 0, warps: 1 },
            TraceEvent::Launch { cycle: 0, warps: 2 },
            TraceEvent::Sfu { cycle: 3, warp: 1, lanes: 4, latency: 2 },
            TraceEvent::Sfu { cycle: 5, warp: 0, lanes: 2, latency: 1 },
            TraceEvent::Trap {
                cycle: 5,
                warp: 0,
                pc: 0x10,
                mask: 0x3,
                cause: "cheri:tag",
                suppressed: true,
            },
        ];
        let cells = [
            TraceCell { label: "Empty", events: &[] },
            TraceCell { label: "E\"dge", events: &edges },
        ];
        assert_eq!(to_chrome(&cells), EDGE_CHROME);
        assert_eq!(to_jsonl(&cells), EDGE_JSONL);
    }

    const EDGE_CHROME: &str = r#"{"traceEvents":[
{"ph":"M","name":"process_name","pid":0,"args":{"name":"E\"dge · launch 0"}},
{"ph":"M","name":"thread_name","pid":0,"tid":1000,"args":{"name":"scheduler"}},
{"ph":"M","name":"thread_name","pid":0,"tid":1002,"args":{"name":"dram"}},
{"ph":"X","name":"idle","pid":0,"tid":1000,"ts":0,"dur":1,"args":{"type":"stall","cycle":0,"cause":"idle","cycles":0}},
{"ph":"i","name":"dram","pid":0,"tid":1002,"ts":0,"s":"t","args":{"type":"dram","cycle":0,"reads":1,"writes":0,"tag_txns":1,"done_at":9}},
{"ph":"M","name":"process_name","pid":1,"args":{"name":"E\"dge · launch 1"}},
{"ph":"M","name":"process_name","pid":2,"args":{"name":"E\"dge · launch 2"}},
{"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"warp 0"}},
{"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"warp 1"}},
{"ph":"X","name":"sfu","pid":2,"tid":1,"ts":3,"dur":2,"args":{"type":"sfu","cycle":3,"warp":1,"lanes":4,"latency":2}},
{"ph":"X","name":"sfu","pid":2,"tid":0,"ts":5,"dur":1,"args":{"type":"sfu","cycle":5,"warp":0,"lanes":2,"latency":1}},
{"ph":"i","name":"cheri:tag","pid":2,"tid":0,"ts":5,"s":"t","args":{"type":"trap","cycle":5,"warp":0,"pc":"0x10","mask":"0x3","cause":"cheri:tag","suppressed":true}},
{"ph":"C","name":"sfu_lanes","pid":2,"tid":0,"ts":3,"args":{"lanes":4}},
{"ph":"C","name":"sfu_lanes","pid":2,"tid":0,"ts":5,"args":{"lanes":2}},
{"ph":"C","name":"sfu_lanes","pid":2,"tid":0,"ts":6,"args":{"lanes":0}},
{"ph":"M","name":"process_name","pid":4294967295,"args":{"name":"end"}}
],"displayTimeUnit":"ns","otherData":{"generator":"repro trace","clock":"cycles"}}
"#;

    const EDGE_JSONL: &str = r#"{"cell":"E\"dge","type":"stall","cycle":0,"cause":"idle","cycles":0}
{"cell":"E\"dge","type":"dram","cycle":0,"reads":1,"writes":0,"tag_txns":1,"done_at":9}
{"cell":"E\"dge","type":"launch","cycle":0,"warps":1}
{"cell":"E\"dge","type":"launch","cycle":0,"warps":2}
{"cell":"E\"dge","type":"sfu","cycle":3,"warp":1,"lanes":4,"latency":2}
{"cell":"E\"dge","type":"sfu","cycle":5,"warp":0,"lanes":2,"latency":1}
{"cell":"E\"dge","type":"trap","cycle":5,"warp":0,"pc":"0x10","mask":"0x3","cause":"cheri:tag","suppressed":true}
"#;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(Escaped("a\"b\\c\nd\u{1}").to_string(), "a\\\"b\\\\c\\nd\\u0001");
    }
}
