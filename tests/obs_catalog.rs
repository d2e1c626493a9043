//! Observability catalog drift check: the keys the code can emit and
//! the keys OBSERVABILITY.md documents must be the same set, each of
//! the same kind.
//!
//! *Emitted* is every string literal passed as the first argument of a
//! `Recorder::{inc, add, observe, event}` call in non-test code under
//! `crates/*/src`, with the kind its call records (`inc`/`add` a
//! counter, `observe` a histogram, `event` an event), plus the
//! counters in [`INDIRECT`]. *Documented* is the first two columns
//! (name and kind) of every table in OBSERVABILITY.md's metric
//! catalog. Removing a catalog row or an emitting call on one side
//! only, or recording a key as a kind its row does not name, fails the
//! test.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The recorder's write calls and the kind each records.
const RECORD_CALLS: &[(&str, &str)] = &[
    (".inc(", "counter"),
    (".add(", "counter"),
    (".observe(", "histogram"),
    (".event(", "event"),
];

/// Catalogued counters that reach the recorder through a variable, not a
/// literal at the call: chosen by a `match` (`net.drops.*`, the radio
/// class in `NetMetrics::on_send`, `FaultKind`'s counter name), folded
/// from `FanoutStats` at snapshot time, or stamped onto the merged
/// fleet snapshot. Each must still appear as a literal in the sources.
const INDIRECT: &[&str] = &[
    "net.wifi_bytes",
    "net.radio_bytes",
    "net.drops.random_loss",
    "net.drops.blocked",
    "net.drops.destination_down",
    "fanout.frames_coalesced",
    "fanout.messages_avoided",
    "fanout.encode_bytes_saved",
    "fanout.acks_avoided",
    "fault.stuck",
    "fault.flapping",
    "fault.drift",
    "fault.missed",
    "fault.battery",
    "fleet.homes",
    "fleet.configs",
    "fleet.homes_failed",
    "fleet.events_emitted",
    "fleet.events_total",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The non-test code of every file under `crates/*/src`, comments
/// dropped. Every crate keeps its test modules at the end of the file,
/// so the first `#[cfg(test)]` ends the production code.
fn production_sources() -> String {
    let mut files = Vec::new();
    let crates = repo_root().join("crates");
    for entry in std::fs::read_dir(&crates).expect("read crates/") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut out = String::new();
    for file in files {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let code = text.split("#[cfg(test)]").next().unwrap_or("");
        for line in code.lines() {
            if !line.trim_start().starts_with("//") {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// `(key, kind)` of every literal first argument of the recorder's
/// write calls (rustfmt may put the literal on the line after the
/// opening parenthesis).
fn literal_keys(code: &str) -> BTreeSet<(String, String)> {
    let mut keys = BTreeSet::new();
    for (call, kind) in RECORD_CALLS {
        for (at, _) in code.match_indices(call) {
            let rest = code[at + call.len()..].trim_start();
            if let Some(rest) = rest.strip_prefix('"') {
                if let Some(end) = rest.find('"') {
                    keys.insert((rest[..end].to_owned(), (*kind).to_owned()));
                }
            }
        }
    }
    keys
}

/// `(key, kind)` from the first two columns of the catalog tables:
/// rows shaped ``| `key` | kind | … |`` between the "Metric catalog"
/// heading and the worked example.
fn catalog_keys(doc: &str) -> BTreeSet<(String, String)> {
    let start = doc.find("## Metric catalog").expect("catalog heading");
    let end = doc.find("## Worked example").expect("worked example");
    doc[start..end]
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| {
            let (key, rest) = rest.split_once('`')?;
            let kind = rest.trim_start().strip_prefix('|')?.split('|').next()?;
            Some((key.to_owned(), kind.trim().to_owned()))
        })
        .collect()
}

#[test]
fn catalog_matches_emitted_keys() {
    let code = production_sources();
    let doc = std::fs::read_to_string(repo_root().join("OBSERVABILITY.md")).expect("read catalog");

    let mut emitted = literal_keys(&code);
    for key in INDIRECT {
        assert!(
            code.contains(&format!("\"{key}\"")),
            "INDIRECT lists `{key}` but no source file names it"
        );
        assert!(
            !emitted.iter().any(|(k, _)| k == key),
            "`{key}` is passed to a recorder call as a literal: drop it from INDIRECT"
        );
        emitted.insert(((*key).to_owned(), "counter".to_owned()));
    }

    let documented = catalog_keys(&doc);

    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "OBSERVABILITY.md is out of sync with the code\n  \
         emitted but not catalogued: {undocumented:?}\n  \
         catalogued but never emitted: {stale:?}"
    );
}
