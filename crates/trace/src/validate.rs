//! Schema validation for exported traces.
//!
//! Used by the `repro validate-trace` subcommand and the CI smoke test: a
//! trace file is parsed with the built-in JSON parser and checked against
//! the event schema documented in `docs/TRACING.md`. Every real export
//! holds at least one event, so a trace with none — an empty or truncated
//! file, or a Chrome document of metadata only — is rejected too.

use crate::json::{parse, Value};

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

/// JSONL event-type names and the numeric fields each must carry.
const JSONL_REQUIRED: &[(&str, &[&str])] = &[
    ("launch", &["cycle", "warps"]),
    ("issue", &["cycle", "warp"]),
    ("stall", &["cycle", "cycles"]),
    ("mem", &["cycle", "warp", "lanes", "transactions", "conflict_cycles"]),
    ("tag_cache", &["cycle", "warp"]),
    ("dram", &["cycle", "reads", "writes", "tag_txns", "done_at"]),
    ("sfu", &["cycle", "warp", "lanes", "latency"]),
    ("rf_transition", &["cycle", "warp", "reg"]),
    ("barrier", &["cycle", "warp"]),
    ("trap", &["cycle", "warp"]),
];

fn check_num(obj: &Value, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Value::Num(_)) => Ok(()),
        Some(_) => Err(format!("{ctx}: field '{key}' is not a number")),
        None => Err(format!("{ctx}: missing field '{key}'")),
    }
}

/// The execution classes an `issue` event may carry (mirrors
/// `IssueClass::name`).
const ISSUE_CLASSES: &[&str] = &["scalarised", "per_lane"];

/// Typed-payload checks beyond the numeric required fields: `issue` events
/// must say how they executed, so the scalarisation rate is recoverable
/// from any validated trace.
fn check_typed(obj: &Value, ty: &str, ctx: &str) -> Result<(), String> {
    if ty == "issue" {
        let class = obj
            .get("class")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{ctx}: issue missing string 'class'"))?;
        if !ISSUE_CLASSES.contains(&class) {
            return Err(format!("{ctx}: unknown issue class '{class}'"));
        }
    }
    Ok(())
}

/// Validate a Chrome trace-event file: a JSON object with a `traceEvents`
/// array in which every entry has `ph`/`pid`/`name`, duration events have
/// numeric `ts` (and `dur` for `"X"`), and `args` payloads of typed events
/// carry a `type` tag.
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
            if !JSONL_REQUIRED.iter().any(|(name, _)| *name == ty) {
                return Err(format!("{ctx}: unknown event type '{ty}'"));
            }
            check_typed(args, ty, &ctx)?;
        }
    }
    summary.processes = pids.len() as u64;
    non_empty(summary)
}

/// Validate a JSON-lines trace: every line is an object with string `cell`
/// and `type` fields, a known type name, and that type's required numeric
/// fields.
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
            .ok_or_else(|| format!("{ctx}: missing string 'type'"))?
            .to_string();
        let required = JSONL_REQUIRED
            .iter()
            .find(|(name, _)| *name == ty)
            .map(|(_, fields)| *fields)
            .ok_or_else(|| format!("{ctx}: unknown event type '{ty}'"))?;
        for field in required {
            check_num(&obj, field, &ctx)?;
        }
        check_typed(&obj, &ty, &ctx)?;
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
    use crate::{IssueClass, TraceEvent};

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
