//! Schema validation for exported traces.
//!
//! Used by the `repro validate-trace` subcommand and the CI smoke test: a
//! trace file is parsed with the built-in JSON parser and checked against
//! the event schema documented in `docs/TRACING.md`. Every real export
//! holds at least one event, so a trace with none — an empty or truncated
//! file, or a Chrome document of metadata only — is rejected too.

use crate::json::{parse, Value};
use crate::{Render, SCHEMA};

/// Summary of a successfully validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Total events (Chrome: entries in `traceEvents` minus metadata;
    /// JSONL: lines).
    pub events: u64,
    /// Metadata entries (Chrome `"ph":"M"` records; 0 for JSONL).
    pub metadata: u64,
    /// Counter samples (Chrome `"ph":"C"` records; 0 for JSONL).
    pub counters: u64,
    /// Distinct (pid) processes seen (Chrome only).
    pub processes: u64,
}

fn check_num(obj: &Value, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Value::Num(_)) => Ok(()),
        Some(_) => Err(format!("{ctx}: field '{key}' is not a number")),
        None => Err(format!("{ctx}: missing field '{key}'")),
    }
}

/// Check one event's payload against its type's row of [`SCHEMA`]: the
/// type is known, every numeric field is present and every named field is
/// one of its enum's names (so, for one, the scalarisation rate is
/// recoverable from any validated trace). A JSON line and a Chrome entry's
/// `args` carry the same payload, so both formats are checked alike.
fn check_event(obj: &Value, ty: &str, ctx: &str) -> Result<(), String> {
    let (_, fields) = SCHEMA
        .iter()
        .find(|(name, _)| *name == ty)
        .ok_or_else(|| format!("{ctx}: unknown event type '{ty}'"))?;
    for &(key, render) in *fields {
        match render {
            Render::Num => check_num(obj, key, ctx)?,
            Render::Name(names) => {
                let name = obj
                    .get(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{ctx}: {ty} missing string '{key}'"))?;
                if !names.contains(&name) {
                    return Err(format!("{ctx}: unknown {ty} {key} '{name}'"));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Validate a Chrome trace-event file: a JSON object with a `traceEvents`
/// array in which every entry has `ph`/`pid`/`name`, duration events have
/// numeric `ts` (and `dur` for `"X"`), and the `args` payload of every
/// event carries a `type` tag and that type's fields, as a JSON line does.
///
/// # Errors
///
/// Returns a description of the first schema violation, or `no events`
/// when the trace holds none.
pub fn validate_chrome(input: &str) -> Result<Summary, String> {
    check_chrome(&parse(input).map_err(|e| e.to_string())?)
}

/// The schema check of [`validate_chrome`], on a parsed document.
fn check_chrome(doc: &Value) -> Result<Summary, String> {
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| "missing 'traceEvents' key".to_string())?
        .as_arr()
        .ok_or_else(|| "'traceEvents' is not an array".to_string())?;
    let mut summary = Summary::default();
    let mut pids: Vec<u64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        let obj = ev.as_obj().ok_or_else(|| format!("{ctx}: not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing string 'ph'"))?;
        if obj.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("{ctx}: missing string 'name'"));
        }
        let pid = obj
            .get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{ctx}: missing 'pid'"))?;
        match ph {
            "M" => summary.metadata += 1,
            "C" => {
                check_num(ev, "ts", &ctx)?;
                summary.counters += 1;
            }
            "X" => {
                check_num(ev, "ts", &ctx)?;
                check_num(ev, "dur", &ctx)?;
                check_num(ev, "tid", &ctx)?;
                summary.events += 1;
                if !pids.contains(&(pid as u64)) {
                    pids.push(pid as u64);
                }
            }
            "i" => {
                check_num(ev, "ts", &ctx)?;
                check_num(ev, "tid", &ctx)?;
                summary.events += 1;
                if !pids.contains(&(pid as u64)) {
                    pids.push(pid as u64);
                }
            }
            other => return Err(format!("{ctx}: unsupported phase '{other}'")),
        }
        if matches!(ph, "X" | "i") {
            let args = ev.get("args").ok_or_else(|| format!("{ctx}: missing 'args'"))?;
            let ty = args
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{ctx}: args missing 'type' tag"))?;
            check_event(args, ty, &ctx)?;
        }
    }
    summary.processes = pids.len() as u64;
    non_empty(summary)
}

/// Validate a JSON-lines trace: every line is an object with string `cell`
/// and `type` fields, a known type name, that type's numeric fields and
/// names its enums declare.
///
/// # Errors
///
/// Returns a description of the first schema violation, or `no events`
/// when the trace holds none.
pub fn validate_jsonl(input: &str) -> Result<Summary, String> {
    let mut summary = Summary::default();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ctx = format!("line {}", lineno + 1);
        let obj = parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        if obj.get("cell").and_then(Value::as_str).is_none() {
            return Err(format!("{ctx}: missing string 'cell'"));
        }
        let ty = obj
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: missing string 'type'"))?;
        check_event(&obj, ty, &ctx)?;
        summary.events += 1;
    }
    non_empty(summary)
}

/// `summary`, unless it counted no event.
fn non_empty(summary: Summary) -> Result<Summary, String> {
    if summary.events == 0 {
        return Err("no events".to_string());
    }
    Ok(summary)
}

/// Validate a trace file of either format, auto-detected: a document whose
/// first non-whitespace text parses as a whole and contains `traceEvents`
/// is treated as Chrome format, otherwise as JSON-lines. A Chrome document
/// is parsed once: the schema check reads the tree the detection built.
///
/// # Errors
///
/// Returns `(format-name, error)` rendered into one message on failure.
pub fn validate_auto(input: &str) -> Result<(&'static str, Summary), String> {
    if let Ok(doc) = parse(input) {
        if doc.get("traceEvents").is_some() {
            return check_chrome(&doc).map(|s| ("chrome", s)).map_err(|e| format!("chrome: {e}"));
        }
    }
    validate_jsonl(input).map(|s| ("jsonl", s)).map_err(|e| format!("jsonl: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{to_chrome, to_jsonl, TraceCell};
    use crate::{IssueClass, MemSpace, RfKind, StallCause, TraceEvent, NO_WARP};

    fn events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Launch { cycle: 0, warps: 4 },
            TraceEvent::Issue {
                cycle: 1,
                warp: 2,
                pc: 0x8000_0010,
                mask: 0x3,
                mnemonic: "addi",
                class: IssueClass::Scalarised,
            },
            TraceEvent::Barrier { cycle: 5, warp: 2, release: false },
        ]
    }

    #[test]
    fn chrome_roundtrip_validates() {
        let evs = events();
        let out = to_chrome(&[TraceCell { label: "t", events: &evs }]);
        let s = validate_chrome(&out).unwrap();
        assert_eq!(s.events, 2); // launch is structural, not an entry
        assert_eq!(s.processes, 1);
        assert!(s.metadata >= 2);
    }

    #[test]
    fn jsonl_roundtrip_validates() {
        let evs = events();
        let out = to_jsonl(&[TraceCell { label: "t", events: &evs }]);
        let s = validate_jsonl(&out).unwrap();
        assert_eq!(s.events, 3);
    }

    #[test]
    fn auto_detects_format() {
        let evs = events();
        let chrome = to_chrome(&[TraceCell { label: "t", events: &evs }]);
        let jsonl = to_jsonl(&[TraceCell { label: "t", events: &evs }]);
        assert_eq!(validate_auto(&chrome).unwrap().0, "chrome");
        assert_eq!(validate_auto(&jsonl).unwrap().0, "jsonl");
    }

    /// One sample of every event type, with the numeric fields its JSON
    /// line must carry. Whole-SM events use `NO_WARP`, which leaves their
    /// `warp` out.
    fn every_type() -> [(TraceEvent, &'static [&'static str]); 10] {
        let issue = events()[1];
        [
            (events()[0], &["cycle", "warps"]),
            (issue, &["cycle", "warp"]),
            (
                TraceEvent::Stall { cycle: 2, warp: NO_WARP, cause: StallCause::Idle, cycles: 3 },
                &["cycle", "cycles"],
            ),
            (
                TraceEvent::Mem {
                    cycle: 3,
                    warp: 1,
                    space: MemSpace::Scratch,
                    is_store: true,
                    lanes: 32,
                    transactions: 0,
                    uniform: false,
                    conflict_cycles: 2,
                },
                &["cycle", "warp", "lanes", "transactions", "conflict_cycles"],
            ),
            (
                TraceEvent::TagCache { cycle: 4, warp: 1, hit: false, writeback: true },
                &["cycle", "warp"],
            ),
            (
                TraceEvent::Dram {
                    cycle: 5,
                    warp: NO_WARP,
                    reads: 2,
                    writes: 1,
                    tag_txns: 1,
                    done_at: 60,
                },
                &["cycle", "reads", "writes", "tag_txns", "done_at"],
            ),
            (
                TraceEvent::Sfu { cycle: 6, warp: 0, lanes: 8, latency: 12 },
                &["cycle", "warp", "lanes", "latency"],
            ),
            (
                TraceEvent::RfTransition {
                    cycle: 7,
                    warp: 3,
                    rf: RfKind::Meta,
                    reg: 11,
                    to_vector: false,
                },
                &["cycle", "warp", "reg"],
            ),
            (events()[2], &["cycle", "warp"]),
            (
                TraceEvent::Trap {
                    cycle: 8,
                    warp: 2,
                    pc: 0x40,
                    mask: 0x1,
                    cause: "cheri:bounds",
                    suppressed: false,
                },
                &["cycle", "warp"],
            ),
        ]
    }

    /// `line` without its `"field":<number>` member.
    fn without(line: &str, field: &str) -> String {
        let key = format!(",\"{field}\":");
        let start = line.find(&key).unwrap_or_else(|| panic!("{field} in {line}"));
        let len = line[start + 1..].find([',', '}']).unwrap() + 1;
        format!("{}{}", &line[..start], &line[start + len..])
    }

    #[test]
    fn every_event_type_validates_and_needs_its_numeric_fields() {
        let mut types = Vec::new();
        for (ev, required) in every_type() {
            let jsonl = to_jsonl(&[TraceCell { label: "t", events: &[ev] }]);
            assert_eq!(validate_jsonl(&jsonl).map(|s| s.events), Ok(1), "{jsonl}");
            // A Chrome launch is a process, not an entry: an issue keeps
            // every document non-empty.
            let chrome = to_chrome(&[TraceCell { label: "t", events: &[ev, events()[1]] }]);
            let entries = validate_chrome(&chrome).unwrap().events;
            let ty =
                parse(jsonl.trim_end()).unwrap().get("type").unwrap().as_str().unwrap().to_string();
            assert_eq!(entries, if ty == "launch" { 1 } else { 2 }, "{chrome}");
            for field in required {
                let err = validate_jsonl(&without(jsonl.trim_end(), field)).unwrap_err();
                assert!(err.contains(&format!("'{field}'")), "{ty} without {field}: {err}");
                // A Chrome entry's `args` carry the same payload.
                if ty != "launch" {
                    let err = validate_chrome(&without(&chrome, field)).unwrap_err();
                    assert!(err.contains(&format!("'{field}'")), "chrome {ty} without {field}");
                }
            }
            types.push(ty);
        }
        types.sort_unstable();
        types.dedup();
        assert_eq!(types.len(), 10, "{types:?}");

        let cells = [TraceCell { label: "t", events: &events()[1..2] }];
        for (format, text) in [("jsonl", to_jsonl(&cells)), ("chrome", to_chrome(&cells))] {
            let bad = text.replace("\"class\":\"scalarised\"", "\"class\":\"vector\"");
            assert_ne!(bad, text);
            let err = validate_auto(&bad).unwrap_err();
            assert!(err.starts_with(format) && err.contains("'vector'"), "{err}");
        }
    }

    /// Every named field, not only `issue.class`, must be one of its enum's
    /// names, and a Chrome entry needs its type's numeric fields.
    #[test]
    fn named_fields_and_chrome_payloads_are_checked() {
        let stall = TraceEvent::Stall { cycle: 2, warp: 1, cause: StallCause::Idle, cycles: 3 };
        let jsonl = to_jsonl(&[TraceCell { label: "t", events: &[stall] }]);
        assert!(validate_jsonl(&jsonl).is_ok());
        let err = validate_jsonl(&jsonl.replace("\"idle\"", "\"bogus\"")).unwrap_err();
        assert!(err.contains("unknown stall cause 'bogus'"), "{err}");

        let chrome = |args: &str| {
            format!(
                "{{\"traceEvents\":[{{\"ph\":\"i\",\"name\":\"mem\",\"pid\":0,\"tid\":1,\
                 \"ts\":3,\"s\":\"t\",\"args\":{{{args}}}}}]}}"
            )
        };
        let full = "\"type\":\"mem\",\"cycle\":3,\"warp\":1,\"space\":\"scratch\",\
                    \"is_store\":true,\"lanes\":32,\"transactions\":0,\"uniform\":false,\
                    \"conflict_cycles\":2";
        assert_eq!(validate_chrome(&chrome(full)).map(|s| s.events), Ok(1));
        let err = validate_chrome(&chrome(&full.replace("scratch", "nowhere"))).unwrap_err();
        assert!(err.contains("unknown mem space 'nowhere'"), "{err}");
        let err = validate_chrome(&chrome("\"type\":\"mem\",\"space\":\"nowhere\"")).unwrap_err();
        assert!(err.contains("missing field 'cycle'"), "{err}");
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(validate_chrome("{}").is_err());
        for empty in ["", "\n"] {
            assert_eq!(validate_jsonl(empty), Err("no events".to_string()), "{empty:?}");
            assert!(validate_auto(empty).is_err(), "{empty:?}");
        }
        assert_eq!(validate_chrome(r#"{"traceEvents":[]}"#), Err("no events".to_string()));
        let metadata_only =
            r#"{"traceEvents":[{"ph":"M","pid":0,"name":"process_name","args":{"name":"c"}}]}"#;
        assert_eq!(validate_chrome(metadata_only), Err("no events".to_string()));
        assert!(validate_auto(metadata_only).is_err());
        assert!(validate_chrome(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(validate_jsonl("{\"type\":\"issue\"}\n").is_err()); // missing cell
        assert!(validate_jsonl("{\"cell\":\"c\",\"type\":\"bogus\"}\n").is_err());
        assert!(
            validate_jsonl("{\"cell\":\"c\",\"type\":\"issue\",\"cycle\":1}\n").is_err(),
            "issue without warp must fail"
        );
        assert!(
            validate_jsonl("{\"cell\":\"c\",\"type\":\"issue\",\"cycle\":1,\"warp\":0}\n").is_err(),
            "issue without class must fail"
        );
        assert!(
            validate_jsonl(
                "{\"cell\":\"c\",\"type\":\"issue\",\"cycle\":1,\"warp\":0,\"class\":\"weird\"}\n"
            )
            .is_err(),
            "unknown issue class must fail"
        );
    }
}
