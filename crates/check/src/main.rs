//! `cosbt-check`: the repo's hand-rolled lint pass.
//!
//! Four rules, all substring/line-based (no syn, no regex — the rules
//! are deliberately simple enough to audit by eye):
//!
//! 1. **no-std-sync** — the shimmed crates (`src/`, `crates/core`,
//!    `crates/dam`) must not use `std::sync` locks or atomics directly;
//!    they go through `cosbt_testkit::sync` so the model checker can
//!    intercept them. `Arc` is exempt (the shim re-exports the std type
//!    unchanged in both configurations).
//! 2. **ordering-comment** — every atomic `Ordering::{Relaxed, Acquire,
//!    Release, AcqRel, SeqCst}` use in library code must carry a
//!    `// ordering:` justification on the same line or within the
//!    preceding 12 lines.
//! 3. **no-unwrap** — no `.unwrap()` / `.expect()` in non-test library
//!    code outside the ratcheted allowlist.
//! 4. **no-swallowed-result** — no `.ok();` statements (a discarded
//!    `Result` should be `let _ = ...;` with a comment, or handled).
//!
//! `#[cfg(test)]` modules are excluded by brace tracking, and the
//! testkit's `model.rs`/`sync.rs` are exempt from rules 1–2 (they *are*
//! the shim). Existing findings live in `tools/check-allowlist.txt` as
//! `(rule, file) -> count` entries: the count may only shrink
//! (ratchet). Run with `--update-allowlist` after removing findings to
//! tighten the file; adding findings always fails the build.
//!
//! The checker scans itself; its own pattern literals are assembled
//! with `concat!` so they do not self-flag.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Repo-relative path of the ratchet file.
const ALLOWLIST_PATH: &str = "tools/check-allowlist.txt";

/// Files that implement the sync shim / model checker: exempt from the
/// std-sync and ordering rules (they are the layer those rules police).
const SHIM_FILES: &[&str] = &["crates/testkit/src/model.rs", "crates/testkit/src/sync.rs"];

/// Directory prefixes whose crates are migrated onto the sync shim
/// (rule 1 applies only here).
const SHIMMED_PREFIXES: &[&str] = &["src/", "crates/core/src/", "crates/dam/src/"];

/// How many lines above an `Ordering::` use a `// ordering:` comment
/// may sit and still count as covering it.
const ORDERING_COMMENT_WINDOW: usize = 12;

// Pattern literals, split so this file does not flag itself.
fn pat_std_sync() -> &'static str {
    concat!("std::", "sync")
}
fn pat_ordering() -> &'static str {
    concat!("Ordering", "::")
}
fn pat_ordering_comment() -> &'static str {
    concat!("// ", "ordering:")
}
fn pat_unwrap() -> &'static str {
    concat!(".unw", "rap(")
}
fn pat_expect() -> &'static str {
    concat!(".exp", "ect(")
}
fn pat_ok_discard() -> &'static str {
    concat!(".ok(", ");")
}
fn pat_cfg_test() -> &'static str {
    concat!("#[cfg(", "test)]")
}

/// `std::sync` items rule 1 forbids (substring match on the same line
/// as the `std::sync` path). `Once` also covers `OnceLock`.
const SYNC_FORBIDDEN: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "atomic", "Barrier", "Once", "mpsc",
];

/// Atomic ordering variants (to distinguish from `std::cmp::Ordering`).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Finding {
    rule: &'static str,
    /// Repo-relative path, forward slashes.
    file: String,
    /// 1-based.
    line: usize,
    msg: String,
}

/// Strips `//` line comments (string-literal-naive, which is fine for
/// this codebase: the rules target code tokens that do not appear in
/// our string literals).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Net brace depth change of a line, ignoring comment text.
fn brace_delta(line: &str) -> i64 {
    let code = strip_comment(line);
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Marks each line of the file as test code (inside a `#[cfg(test)]`
/// module) or not, by brace tracking from the attribute.
fn test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending_cfg = false;
    // Depth at which the currently-skipped test mod's body started.
    let mut skip_until: Option<i64> = None;
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if let Some(base) = skip_until {
            mask[i] = true;
            depth += brace_delta(raw);
            if depth <= base {
                skip_until = None;
            }
            continue;
        }
        if trimmed.starts_with(pat_cfg_test()) {
            pending_cfg = true;
            depth += brace_delta(raw);
            continue;
        }
        if pending_cfg {
            if trimmed.starts_with("#[") {
                // Another attribute between cfg(test) and the item.
                depth += brace_delta(raw);
                continue;
            }
            pending_cfg = false;
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                mask[i] = true;
                let before = depth;
                depth += brace_delta(raw);
                if depth > before {
                    skip_until = Some(before);
                }
                continue;
            }
            // cfg(test) on a non-mod item: treat just that line as test
            // code (this repo keeps multi-line test items inside test
            // modules).
            mask[i] = true;
        }
        depth += brace_delta(raw);
    }
    mask
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `code` contains an *atomic* `Ordering::Variant` use.
fn has_atomic_ordering(code: &str) -> bool {
    let pat = pat_ordering();
    let mut rest = code;
    while let Some(i) = rest.find(pat) {
        let after = &rest[i + pat.len()..];
        if ATOMIC_ORDERINGS
            .iter()
            .any(|v| after.starts_with(v) && !after[v.len()..].starts_with(is_ident_char))
        {
            return true;
        }
        rest = after;
    }
    false
}

/// Runs all rules over one file's contents, appending to `findings`.
fn scan_file(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let mask = test_mask(&lines);
    let shim = SHIM_FILES.contains(&rel);
    let shimmed_crate = SHIMMED_PREFIXES.iter().any(|p| rel.starts_with(p));

    for (i, raw) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = strip_comment(raw);
        let lineno = i + 1;

        if shimmed_crate && code.contains(pat_std_sync()) {
            let forbidden: Vec<&str> = SYNC_FORBIDDEN
                .iter()
                .copied()
                .filter(|t| code.contains(t))
                .collect();
            if !forbidden.is_empty() {
                findings.push(Finding {
                    rule: "no-std-sync",
                    file: rel.to_string(),
                    line: lineno,
                    msg: format!(
                        "direct {} {} in a shimmed crate; use cosbt_testkit::sync",
                        pat_std_sync(),
                        forbidden.join("/")
                    ),
                });
            }
        }

        if !shim && has_atomic_ordering(code) {
            let lo = i.saturating_sub(ORDERING_COMMENT_WINDOW);
            let covered = lines[lo..=i]
                .iter()
                .any(|l| l.contains(pat_ordering_comment()));
            if !covered {
                findings.push(Finding {
                    rule: "ordering-comment",
                    file: rel.to_string(),
                    line: lineno,
                    msg: format!(
                        "atomic ordering without a nearby `{}` justification",
                        pat_ordering_comment()
                    ),
                });
            }
        }

        if code.contains(pat_unwrap()) || code.contains(pat_expect()) {
            findings.push(Finding {
                rule: "no-unwrap",
                file: rel.to_string(),
                line: lineno,
                msg: "unwrap()/expect() in non-test library code".to_string(),
            });
        }
        if let Some(at) = code.find(pat_ok_discard()) {
            // `let y = r.ok();` binds the value; only a bare statement
            // (no `=`/`return` before the call) discards it.
            let before = &code[..at];
            if !before.contains('=') && !before.contains("return") {
                findings.push(Finding {
                    rule: "no-swallowed-result",
                    file: rel.to_string(),
                    line: lineno,
                    msg: format!(
                        "Result discarded via {} — use `let _ = ...` with a reason",
                        pat_ok_discard()
                    ),
                });
            }
        }
    }
}

/// Collects the `.rs` files the lint covers: every crate's `src/` tree
/// (integration-test and bench directories are out of scope — the
/// rules target library code).
fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![root.join("src")];
    let crates = root.join("crates");
    let entries =
        fs::read_dir(&crates).map_err(|e| format!("read_dir {}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", crates.display()))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Locates the workspace root: walks up from `CARGO_MANIFEST_DIR` (or
/// the cwd) to the first directory containing both `Cargo.toml` and
/// `crates/`.
fn find_root() -> Result<PathBuf, String> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .ok_or("cannot determine a starting directory")?;
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => return Err(format!("no workspace root above {}", start.display())),
        }
    }
}

type Counts = BTreeMap<(String, String), usize>;

fn count_findings(findings: &[Finding]) -> Counts {
    let mut counts = Counts::new();
    for f in findings {
        *counts
            .entry((f.rule.to_string(), f.file.clone()))
            .or_insert(0) += 1;
    }
    counts
}

fn parse_allowlist(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(count), Some(file), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{ALLOWLIST_PATH}:{}: expected `rule count file`, got {line:?}",
                i + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|e| format!("{ALLOWLIST_PATH}:{}: bad count: {e}", i + 1))?;
        counts.insert((rule.to_string(), file.to_string()), count);
    }
    Ok(counts)
}

fn render_allowlist(counts: &Counts) -> String {
    let mut out = String::from(
        "# cosbt-check ratchet: existing findings, as `rule count file`.\n\
         # Counts may only shrink. After removing findings, run\n\
         # `cargo run -p cosbt-check -- --update-allowlist` to tighten.\n",
    );
    for ((rule, file), count) in counts {
        let _ = writeln!(out, "{rule} {count} {file}");
    }
    out
}

fn run() -> Result<bool, String> {
    let mut update = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--update-allowlist" => update = true,
            "--help" | "-h" => {
                println!(
                    "cosbt-check: repo lint pass (see crates/check/src/main.rs)\n\n  \
                     --update-allowlist  rewrite {ALLOWLIST_PATH} from current findings"
                );
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }

    let root = find_root()?;
    let mut findings = Vec::new();
    for path in collect_files(&root)? {
        let rel = rel_path(&root, &path);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        scan_file(&rel, &text, &mut findings);
    }
    findings.sort();
    let counts = count_findings(&findings);

    let allow_path = root.join(ALLOWLIST_PATH);
    if update {
        if let Some(parent) = allow_path.parent() {
            fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
        }
        fs::write(&allow_path, render_allowlist(&counts))
            .map_err(|e| format!("write {}: {e}", allow_path.display()))?;
        println!(
            "cosbt-check: wrote {} entries to {ALLOWLIST_PATH}",
            counts.len()
        );
        return Ok(true);
    }

    let allowed = match fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Counts::new(),
        Err(e) => return Err(format!("read {}: {e}", allow_path.display())),
    };

    let mut ok = true;
    for (key, &found) in &counts {
        let budget = allowed.get(key).copied().unwrap_or(0);
        let (rule, file) = key;
        if found > budget {
            ok = false;
            eprintln!(
                "cosbt-check: {rule}: {file}: {found} finding(s), allowlist permits {budget}:"
            );
            for f in findings
                .iter()
                .filter(|f| f.rule == rule && &f.file == file)
            {
                eprintln!("  {}:{}: {}", f.file, f.line, f.msg);
            }
        } else if found < budget {
            ok = false;
            eprintln!(
                "cosbt-check: {rule}: {file}: allowlist permits {budget} but only {found} \
                 remain — ratchet down with --update-allowlist"
            );
        }
    }
    for (key, &budget) in &allowed {
        if !counts.contains_key(key) {
            ok = false;
            let (rule, file) = key;
            eprintln!(
                "cosbt-check: {rule}: {file}: allowlist permits {budget} but none remain — \
                 ratchet down with --update-allowlist"
            );
        }
    }
    if ok {
        let total: usize = counts.values().sum();
        println!(
            "cosbt-check: clean ({} allowlisted finding(s) across {} entries)",
            total,
            counts.len()
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("cosbt-check: error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(rel: &str, text: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        scan_file(rel, text, &mut out);
        out
    }

    #[test]
    fn std_sync_locks_flagged_only_in_shimmed_crates() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let hits = scan_str("crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "no-std-sync");
        assert!(scan_str("crates/btree/src/x.rs", src).is_empty());
        // Arc alone is exempt (shared alias in both cfgs).
        assert!(scan_str("crates/core/src/x.rs", "use std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn shim_files_are_exempt_from_ordering_rule() {
        let src = "let x = a.load(Ordering::Relaxed);\n";
        assert!(scan_str("crates/testkit/src/model.rs", src).is_empty());
        assert!(scan_str("crates/testkit/src/sync.rs", src).is_empty());
        assert_eq!(scan_str("crates/testkit/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn ordering_requires_nearby_comment() {
        let bad = "a.store(1, Ordering::Release);\n";
        let hits = scan_str("crates/dam/src/x.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "ordering-comment");
        let good = "// ordering: Release publishes the init above.\n\
                    a.store(1, Ordering::Release);\n";
        assert!(scan_str("crates/dam/src/x.rs", good).is_empty());
        let same_line = "a.store(1, Ordering::Release); // ordering: fine\n";
        assert!(scan_str("crates/dam/src/x.rs", same_line).is_empty());
    }

    #[test]
    fn comment_window_is_bounded() {
        let mut far = String::from("// ordering: too far away\n");
        for _ in 0..ORDERING_COMMENT_WINDOW {
            far.push_str("let pad = 0;\n");
        }
        far.push_str("a.store(1, Ordering::Release);\n");
        assert_eq!(scan_str("crates/dam/src/x.rs", &far).len(), 1);
    }

    #[test]
    fn cmp_ordering_is_not_flagged() {
        let src = "match x.cmp(&y) { Ordering::Less => 1, _ => 0 };\n\
                   let o = Ordering::Equal;\n";
        assert!(scan_str("crates/dam/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_excluded() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   use std::sync::Mutex;\n\
                   fn t() { x.unwrap(); a.load(Ordering::Relaxed); }\n\
                   }\n\
                   fn after() { y.unwrap(); }\n";
        let hits = scan_str("crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "no-unwrap");
        assert_eq!(hits[0].line, 7, "only the post-module unwrap");
    }

    #[test]
    fn unwrap_and_ok_discard_flagged_but_not_variants() {
        let src = "v.unwrap();\nv.expect(\"x\");\nfile.sync_all().ok();\n";
        let hits = scan_str("crates/btree/src/x.rs", src);
        let rules: Vec<&str> = hits.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            ["no-unwrap", "no-unwrap", "no-swallowed-result"],
            "{hits:?}"
        );
        let fine = "v.unwrap_or(0);\nv.unwrap_or_else(|| 1);\nlet y = r.ok();\n";
        assert!(scan_str("crates/btree/src/x.rs", fine).is_empty());
    }

    #[test]
    fn comments_do_not_trigger_rules() {
        let src = "// mentions .unwrap() and Ordering::Relaxed in prose\n\
                   /// doc: std::sync::Mutex is forbidden here\n";
        assert!(scan_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allowlist_roundtrip() {
        let mut counts = Counts::new();
        counts.insert(("no-unwrap".into(), "src/db.rs".into()), 3);
        counts.insert(("no-std-sync".into(), "crates/dam/src/dev.rs".into()), 2);
        let text = render_allowlist(&counts);
        let parsed = parse_allowlist(&text).expect("roundtrip parses");
        assert_eq!(parsed, counts);
        assert!(parse_allowlist("garbage line here extra").is_err());
        assert!(parse_allowlist("# comment\n\n")
            .expect("comments ok")
            .is_empty());
    }
}
