//! Documentation link checker: every intra-repo markdown link in the
//! top-level docs must resolve, every `DESIGN.md §X.Y` prose
//! reference must name a section that actually exists, and every test
//! a doc cites must exist.
//!
//! Three checks over each tracked top-level `*.md` file:
//!
//! 1. `[text](relative/path)` targets exist on disk (external
//!    `http(s)://` links and pure in-page `#anchors` are exempt from
//!    the existence check);
//! 2. `[text](file.md#anchor)` anchors match a real heading of the
//!    target file under GitHub's slugging rules;
//! 3. `§X.Y` references to DESIGN.md sections (in any doc) match a
//!    `## X.Y ...` / `### X.Y ...` heading in DESIGN.md.
//!
//! And one over the docs that cite tests as evidence: a cited
//! `` `tests/<file>.rs::<fn>` ``, `` `<module>::tests::<fn>` `` or
//! "test `` `<fn>` ``" names a `fn` in the tree. And one over the
//! tree's ignored tests: each `#[ignore]` gives a reason that cites an
//! open ROADMAP item, so a pinned hole is un-ignored once it closes.
//!
//! CI runs this as the `docs-links` step, so a renamed heading or a
//! deleted section breaks the build instead of silently going stale.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The top-level docs under link discipline. `ISSUE.md`, `CHANGES.md`,
/// `PAPERS.md`, and `SNIPPETS.md` are driver-/session-managed scratch
/// and exempt.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OBSERVABILITY.md",
    "ROADMAP.md",
    "CHANGELOG.md",
    "PAPER.md",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// GitHub's heading→anchor slug: lowercase, spaces→dashes, strip
/// everything that is not alphanumeric, dash, or underscore.
fn github_slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() || c == '_' {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// All anchors a markdown file exposes (its heading slugs, with
/// GitHub's `-1`, `-2`, … dedup suffixes).
fn anchors_of(path: &Path) -> BTreeSet<String> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut seen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut anchors = BTreeSet::new();
    let mut in_code = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if in_code || !line.starts_with('#') {
            continue;
        }
        let heading = line.trim_start_matches('#');
        if !heading.starts_with(' ') {
            continue;
        }
        let slug = github_slug(heading);
        let n = seen.entry(slug.clone()).or_insert(0);
        anchors.insert(if *n == 0 {
            slug.clone()
        } else {
            format!("{slug}-{n}")
        });
        *n += 1;
    }
    anchors
}

/// Extracts `(link_target, line_number)` pairs from inline markdown
/// links, skipping fenced code blocks and inline code spans.
fn links_of(text: &str) -> Vec<(String, usize)> {
    let mut links = Vec::new();
    let mut in_code = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if in_code {
            continue;
        }
        // Strip inline code spans so `[x](y)` inside backticks is not
        // treated as a link.
        let mut cleaned = String::with_capacity(line.len());
        let mut in_span = false;
        for c in line.chars() {
            if c == '`' {
                in_span = !in_span;
            } else if !in_span {
                cleaned.push(c);
            }
        }
        let bytes = cleaned.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'(' && i > 0 && bytes[i - 1] == b']' {
                if let Some(close) = cleaned[i + 1..].find(')') {
                    let target = cleaned[i + 1..i + 1 + close].trim();
                    // `[x](y "title")` → strip the title part.
                    let target = target.split_whitespace().next().unwrap_or("");
                    if !target.is_empty() {
                        links.push((target.to_owned(), lineno + 1));
                    }
                    i += close + 1;
                }
            }
            i += 1;
        }
    }
    links
}

#[test]
fn intra_repo_links_resolve() {
    let root = repo_root();
    let mut errors = Vec::new();
    for doc in DOCS {
        let path = root.join(doc);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for (target, line) in links_of(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            let (file_part, anchor) = match target.split_once('#') {
                Some((f, a)) => (f, Some(a)),
                None => (target.as_str(), None),
            };
            let target_path = if file_part.is_empty() {
                path.clone()
            } else {
                root.join(file_part)
            };
            if !target_path.exists() {
                errors.push(format!(
                    "{doc}:{line}: link target `{file_part}` does not exist"
                ));
                continue;
            }
            if let Some(anchor) = anchor {
                if target_path.extension().is_some_and(|e| e == "md") {
                    let anchors = anchors_of(&target_path);
                    if !anchors.contains(anchor) {
                        errors.push(format!(
                            "{doc}:{line}: anchor `#{anchor}` not found in `{}`",
                            target_path.file_name().unwrap().to_string_lossy()
                        ));
                    }
                }
            }
        }
    }
    assert!(
        errors.is_empty(),
        "broken doc links:\n{}",
        errors.join("\n")
    );
}

/// Section numbers DESIGN.md actually defines (`## 4.2 ...` → "4.2").
fn design_sections(root: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let mut sections = BTreeSet::new();
    let mut in_code = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if in_code || !line.starts_with('#') {
            continue;
        }
        let heading = line.trim_start_matches('#').trim_start();
        let number: String = heading
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let number = number.trim_end_matches('.');
        if !number.is_empty() {
            sections.insert(number.to_owned());
        }
    }
    sections
}

#[test]
fn design_section_references_exist() {
    let root = repo_root();
    let sections = design_sections(&root);
    assert!(
        sections.contains("4.7"),
        "DESIGN.md must define §4.7 (routine state machine & ledger)"
    );
    let mut errors = Vec::new();
    for doc in DOCS {
        let text =
            std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        for (lineno, line) in text.lines().enumerate() {
            // A `§X.Y` in any top-level doc refers to DESIGN.md's own
            // numbering unless it cites the paper explicitly.
            if line.contains("paper") || line.contains("Paper") || line.contains("§8") {
                continue;
            }
            let mut rest = line;
            while let Some(at) = rest.find('§') {
                rest = &rest[at + '§'.len_utf8()..];
                let number: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                let number = number.trim_end_matches('.').to_owned();
                if !number.is_empty() && !sections.contains(&number) {
                    errors.push(format!(
                        "{doc}:{}: §{number} does not match any DESIGN.md heading",
                        lineno + 1
                    ));
                }
            }
        }
    }
    assert!(
        errors.is_empty(),
        "stale DESIGN.md section references:\n{}",
        errors.join("\n")
    );
}

/// Docs whose test citations must resolve. `CHANGELOG.md` is a
/// history: each entry names tests as they were when it was written.
const TEST_CITING_DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "OBSERVABILITY.md",
    "EXPERIMENTS.md",
];

fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Every name declared with `fn` in `text`.
fn fn_names(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("fn ") {
        let glued = rest[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        rest = &rest[at + 3..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !glued && !name.is_empty() {
            names.insert(name);
        }
    }
    names
}

/// `(path from the root, source)` of every Rust file in the tree,
/// build output and vendored crates aside.
fn rust_sources(root: &Path) -> Vec<(PathBuf, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) {
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "vendor") {
                    walk(root, &path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("read source");
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.push((rel, text));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out
}

/// `(path from the root, fn names)` of every Rust file in the tree.
fn rust_files(root: &Path) -> Vec<(PathBuf, BTreeSet<String>)> {
    let sources = rust_sources(root).into_iter();
    sources
        .map(|(path, text)| (path, fn_names(&text)))
        .collect()
}

/// Inline code spans of `text` outside fenced blocks, with the prose
/// just before each and its line number. Spans are paired within a
/// paragraph, so one may wrap a line.
fn code_spans(text: &str) -> Vec<(String, String, usize)> {
    let mut spans = Vec::new();
    let mut paragraph = String::new();
    let mut first_line = 0;
    let mut in_code = false;
    let mut flush = |paragraph: &mut String, first_line: usize| {
        let mut parts = paragraph.split('`');
        let mut before = parts.next().unwrap_or_default();
        let mut consumed = before.len();
        while let (Some(span), Some(after)) = (parts.next(), parts.next()) {
            let line = first_line + paragraph[..consumed].matches('\n').count();
            spans.push((span.to_owned(), before.to_owned(), line));
            consumed += span.len() + after.len() + 2;
            before = after;
        }
        paragraph.clear();
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_code = !in_code;
            flush(&mut paragraph, first_line);
            continue;
        }
        if in_code || line.trim().is_empty() {
            flush(&mut paragraph, first_line);
            continue;
        }
        if paragraph.is_empty() {
            first_line = lineno + 1;
        } else {
            paragraph.push('\n');
        }
        paragraph.push_str(line);
    }
    flush(&mut paragraph, first_line);
    spans
}

#[test]
fn cited_tests_exist() {
    let root = repo_root();
    let files = rust_files(&root);
    let anywhere = |name: &str| files.iter().any(|(_, fns)| fns.contains(name));
    let mut errors = Vec::new();
    for doc in TEST_CITING_DOCS {
        let text =
            std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        for (span, before, line) in code_spans(&text) {
            let found = if let Some((file, name)) = span
                .split_once("::")
                .filter(|(f, n)| f.starts_with("tests/") && f.ends_with(".rs") && is_ident(n))
            {
                // `tests/<file>.rs::<fn>`: the fn is in that file.
                files
                    .iter()
                    .any(|(path, fns)| path == Path::new(file) && fns.contains(name))
            } else if let Some((module, name)) = span
                .rsplit_once("::tests::")
                .or_else(|| span.rsplit_once("::proptests::"))
                .filter(|(m, n)| m.split("::").all(is_ident) && is_ident(n))
            {
                // `<module>::tests::<fn>`: the fn is in `<module>.rs` or
                // `<module>/mod.rs`, or anywhere for an inline module.
                let module = module.rsplit("::").next().unwrap_or_default();
                let homes: Vec<_> = files
                    .iter()
                    .filter(|(path, _)| {
                        path.file_stem().is_some_and(|s| s == module)
                            || path.ends_with(Path::new(module).join("mod.rs"))
                    })
                    .collect();
                if homes.is_empty() {
                    anywhere(name)
                } else {
                    homes.iter().any(|(_, fns)| fns.contains(name))
                }
            } else if is_ident(&span)
                && before
                    .strip_suffix("test ")
                    .is_some_and(|b| !b.ends_with(|c: char| c.is_alphanumeric() || c == '_'))
            {
                // "test `<fn>`".
                anywhere(&span)
            } else {
                continue;
            };
            if !found {
                errors.push(format!("{doc}:{line}: `{span}` names no fn in the tree"));
            }
        }
    }
    assert!(
        errors.is_empty(),
        "docs cite tests that do not exist:\n{}",
        errors.join("\n")
    );
}

/// The items ROADMAP.md's "Open items" section still holds open: `"2"`
/// for a numbered item, `"2(a)"` for its lettered sub-items. A sub-item
/// whose text opens with `*Done` is closed.
fn open_roadmap_items(root: &Path) -> BTreeSet<String> {
    let text = std::fs::read_to_string(root.join("ROADMAP.md")).expect("read ROADMAP.md");
    let mut open = BTreeSet::new();
    let mut item = None;
    let mut in_open_items = false;
    for line in text.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            in_open_items = heading.trim() == "Open items";
            continue;
        }
        if !in_open_items {
            continue;
        }
        if let Some((number, _)) = line
            .split_once(". ")
            .filter(|(n, _)| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()))
        {
            open.insert(number.to_owned());
            item = Some(number.to_owned());
        } else if let (Some(number), Some(rest)) = (&item, line.trim_start().strip_prefix("- (")) {
            if let Some((letter, text)) = rest.split_once(") ") {
                if is_ident(letter) && !text.starts_with("*Done") {
                    open.insert(format!("{number}({letter})"));
                }
            }
        }
    }
    open
}

#[test]
fn ignored_tests_cite_open_roadmap_items() {
    let root = repo_root();
    let open = open_roadmap_items(&root);
    assert!(open.contains("1"), "ROADMAP.md lists its open items");
    let mut errors = Vec::new();
    for (path, text) in rust_sources(&root) {
        for (lineno, line) in text.lines().enumerate() {
            let Some(attr) = line.trim_start().strip_prefix("#[ignore") else {
                continue;
            };
            let at = format!("{}:{}", path.display(), lineno + 1);
            let Some(reason) = attr
                .trim_start()
                .strip_prefix('=')
                .and_then(|r| r.trim().strip_prefix('"'))
                .and_then(|r| r.split_once('"'))
                .map(|(reason, _)| reason)
            else {
                errors.push(format!("{at}: `#[ignore]` without a reason"));
                continue;
            };
            let Some(cited) = reason.split_once("ROADMAP ").map(|(_, item)| {
                let end = item.find(|c: char| !(c.is_ascii_alphanumeric() || c == '(' || c == ')'));
                &item[..end.unwrap_or(item.len())]
            }) else {
                errors.push(format!(
                    "{at}: ignore reason cites no ROADMAP item: {reason:?}"
                ));
                continue;
            };
            if !open.contains(cited) {
                errors.push(format!(
                    "{at}: ignore reason cites ROADMAP {cited}, which is not an open item"
                ));
            }
        }
    }
    assert!(
        errors.is_empty(),
        "ignored tests must cite an open ROADMAP item:\n{}",
        errors.join("\n")
    );
}
