//! The one store for the recorded fence tables, and its one checker.
//!
//! Each `*.txt` file beside this module holds one table, one record per
//! line: `<label> | <token> <token> …`. A `key=value` token is a named
//! field; any other token is positional. The test that owns a table builds
//! its records in the same syntax and calls [`check`], which demands exact
//! equality of count, order and bytes. On a mismatch it names every moved
//! field of every record, writes the complete actual table under the
//! target directory and prints the `cp` that accepts it. Accept it only at
//! a commit whose behaviour is meant to be the new reference: each table is
//! an independent oracle because it was recorded before the code it guards.
//!
//! Test targets pull this module in with `#[path]`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// 64-bit FNV-1a (dependency-free; collision resistance is not needed, a
/// changed input only has to change the digest).
#[allow(dead_code)] // the stats and fault tables hash nothing
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Panic unless `got` is, record for record, the golden table `name`
/// whose file text is `want`.
pub(crate) fn check(name: &str, want: &str, got: &[String]) {
    let Some(report) = diff(want, got) else { return };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let actual = dir.join(format!("{name}.txt"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&actual, render(got)))
        .unwrap_or_else(|e| panic!("writing {}: {e}", actual.display()));
    let store = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let store = store.canonicalize().unwrap_or(store);
    panic!(
        "golden table {name} moved:\n{report}the actual table is {actual}; \
         to accept it as the new reference:\n  cp {actual} {recorded}",
        actual = actual.display(),
        recorded = store.join(format!("{name}.txt")).display(),
    );
}

/// The file text of `records`: one line each, newline-terminated.
fn render(records: &[String]) -> String {
    records.iter().map(|r| format!("{r}\n")).collect()
}

/// `None` when `got` renders to exactly `want`; otherwise a report of the
/// count, the missing and extra labels, and every moved field of every
/// record present in both (or, when only the order moved, where).
pub(crate) fn diff(want: &str, got: &[String]) -> Option<String> {
    if render(got) == want {
        return None;
    }
    let want: Vec<(&str, &str)> = want.lines().map(split).collect();
    let got: Vec<(&str, &str)> = got.iter().map(|r| split(r)).collect();
    let want_by_label: HashMap<&str, &str> = want.iter().copied().collect();
    let got_by_label: HashMap<&str, &str> = got.iter().copied().collect();
    let mut out = String::new();
    if want.len() != got.len() {
        let _ = writeln!(out, "  {} records recorded, {} produced", want.len(), got.len());
    }
    for (label, _) in want.iter().filter(|(l, _)| !got_by_label.contains_key(l)) {
        let _ = writeln!(out, "  - missing: {label}");
    }
    for (label, _) in got.iter().filter(|(l, _)| !want_by_label.contains_key(l)) {
        let _ = writeln!(out, "  + extra: {label}");
    }
    for &(label, old) in &want {
        match got_by_label.get(label) {
            Some(&new) if new != old => {
                let _ = writeln!(out, "  ~ {label}");
                fields(&mut out, old, new);
            }
            _ => {}
        }
    }
    if out.is_empty() {
        match want.iter().zip(&got).position(|(w, g)| w != g) {
            Some(i) => {
                let (g, w) = (got[i].0, want[i].0);
                let _ = writeln!(out, "  order: record {} is `{g}`, recorded `{w}`", i + 1);
            }
            None => out += "  same records, different bytes (line endings or final newline)\n",
        }
    }
    Some(out)
}

/// `(label, fields)` of one record.
fn split(record: &str) -> (&str, &str) {
    record.split_once(" | ").unwrap_or((record, ""))
}

/// The `key=value` tokens of a record's fields.
fn keyed(fields: &str) -> Vec<(&str, &str)> {
    fields.split_whitespace().filter_map(|t| t.split_once('=')).collect()
}

/// The other tokens, in order.
fn positional(fields: &str) -> Vec<&str> {
    fields.split_whitespace().filter(|t| !t.contains('=')).collect()
}

/// The value of `key` among the `keyed` tokens.
fn value<'a>(keyed: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    keyed.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Append one line per moved field: keyed tokens by key, the others by
/// position among the positional tokens.
fn fields(out: &mut String, old: &str, new: &str) {
    let (old_keyed, new_keyed) = (keyed(old), keyed(new));
    let added = new_keyed.iter().filter(|(k, _)| value(&old_keyed, k).is_none());
    for (key, _) in old_keyed.iter().chain(added) {
        moved(out, key, value(&old_keyed, key), value(&new_keyed, key));
    }
    let (old_pos, new_pos) = (positional(old), positional(new));
    for i in 0..old_pos.len().max(new_pos.len()) {
        moved(out, &format!("[{i}]"), old_pos.get(i).copied(), new_pos.get(i).copied());
    }
}

/// Append `field: old → new`, with the signed delta when both are decimal
/// integers, unless the field did not move.
fn moved(out: &mut String, field: &str, old: Option<&str>, new: Option<&str>) {
    if old == new {
        return;
    }
    let (o, n) = (old.unwrap_or("(absent)"), new.unwrap_or("(absent)"));
    let _ = write!(out, "      {field}: {o} → {n}");
    if let (Ok(o), Ok(n)) = (o.parse::<i128>(), n.parse::<i128>()) {
        let _ = write!(out, " ({:+})", n - o);
    }
    out.push('\n');
}
