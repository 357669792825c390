//! Repo-specific static analysis for the nbb workspace.
//!
//! A hand-rolled, dependency-free Rust source scanner enforcing the
//! concurrency and error-handling rules the engine's correctness
//! arguments rest on. It is deliberately *not* a general Rust parser:
//! a comment/string-aware tokenizing pass plus brace tracking is enough
//! for every rule here, keeps the tool instant, and works in the
//! offline build container.
//!
//! Rules:
//!
//! * **L1 (ranked-locks)** — engine crates (`nbb-storage`, `nbb-btree`,
//!   `nbb-core`) must construct every lock with
//!   `Mutex::with_rank`/`RwLock::with_rank`, never bare `::new`, so the
//!   debug-build rank checker covers it. Test code is exempt; a
//!   deliberate exception carries `// nbb-lint: allow(unranked, why)`.
//! * **L2 (no-std-sync)** — `std::sync::{Mutex, RwLock, Condvar}` (and
//!   their guards) are forbidden outside `crates/shims`: every lock
//!   funnels through the `parking_lot` shim, the single choke point
//!   where the rank discipline lives.
//! * **L3 (wait-in-loop)** — every condvar `wait(guard)` call must sit
//!   inside a `while`/`loop`/`for` body: the fault machine, intents,
//!   write-behind drain, and compressor protocols all assume spurious
//!   wakeups are re-checked.
//! * **L4 (no-unwrap)** — non-test code in the engine crates may not
//!   `.unwrap()`/`.expect(`: fallible paths return `StorageError`. A
//!   true invariant carries `// nbb-lint: allow(unwrap, why)` on or
//!   just above the line.
//! * **L5 (safety-comment)** — any `unsafe` token requires a
//!   `// SAFETY:` comment on the same or nearby preceding lines.
//! * **L6 (rank-exempt)** — the shim's order-check escape hatches
//!   (`lock_unordered` and friends) require a `// rank-exempt:` comment
//!   stating the protocol argument that replaces the rank proof.
//!
//! The binary (`cargo run -p nbb-lint`) walks the workspace, applies
//! the rules, prints `file:line: [rule] message` diagnostics, and exits
//! non-zero on any finding. The scanner itself is unit-tested against
//! fixture snippets in this file.

use std::fmt;
use std::path::Path;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`L1`..`L6`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// How a file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Non-test source of an engine crate (`crates/nbb-{storage,btree,
    /// core,proto,server,client}/src`): additionally subject to L1 and
    /// L4.
    pub engine_src: bool,
}

/// Classifies a workspace-relative path. Shim sources are `None`
/// (excluded entirely: they *implement* the primitives the rules are
/// about), everything else is scanned.
pub fn classify(rel_path: &str) -> Option<FileClass> {
    let p = rel_path.replace('\\', "/");
    if p.starts_with("crates/shims/") || p.starts_with("target/") {
        return None;
    }
    // The wire tier (proto/server/client) holds locks across the same
    // engine calls it multiplexes, so it lives under the same rules as
    // the engine proper: every lock ranked, every unwrap justified.
    let engine_src = [
        "crates/nbb-storage/src/",
        "crates/nbb-btree/src/",
        "crates/nbb-core/src/",
        "crates/nbb-proto/src/",
        "crates/nbb-server/src/",
        "crates/nbb-client/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre));
    Some(FileClass { engine_src })
}

/// The comment/string-stripped views of one source file: `code` has
/// comments and literal contents blanked to spaces, `comments` has
/// everything *except* comment text blanked. Both preserve line
/// structure exactly, so offsets and line numbers line up with the
/// original.
struct Views {
    code: String,
    comments: String,
}

fn strip(src: &str) -> Views {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b = src.as_bytes();
    let mut code = Vec::with_capacity(b.len());
    let mut comments = Vec::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            if st == St::Line {
                st = St::Code;
            }
            code.push(b'\n');
            comments.push(b'\n');
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    st = St::Line;
                    comments.push(b' ');
                    code.push(b' ');
                    i += 1;
                    comments.push(b' ');
                    code.push(b' ');
                    i += 1;
                    continue;
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(1);
                    for _ in 0..2 {
                        comments.push(b' ');
                        code.push(b' ');
                        i += 1;
                    }
                    continue;
                }
                if c == b'"' {
                    st = St::Str;
                    code.push(b' ');
                    comments.push(b' ');
                    i += 1;
                    continue;
                }
                // Raw (and raw byte) strings: r"..", r#".."#, br##"..
                if c == b'r' || (c == b'b' && b.get(i + 1) == Some(&b'r')) {
                    let start = if c == b'b' { i + 2 } else { i + 1 };
                    let mut j = start;
                    while b.get(j) == Some(&b'#') {
                        j += 1;
                    }
                    let prev_ident =
                        i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
                    if b.get(j) == Some(&b'"') && !prev_ident {
                        let hashes = (j - start) as u32;
                        st = St::RawStr(hashes);
                        while i <= j {
                            code.push(b' ');
                            comments.push(b' ');
                            i += 1;
                        }
                        continue;
                    }
                }
                if c == b'\'' {
                    // Distinguish char literals from lifetimes: 'x' or
                    // an escape is a literal; 'ident (no closing quote
                    // right after one char) is a lifetime.
                    let is_char = matches!(
                        (b.get(i + 1), b.get(i + 2)),
                        (Some(b'\\'), _) | (Some(_), Some(b'\''))
                    );
                    if is_char {
                        st = St::Char;
                        code.push(b' ');
                        comments.push(b' ');
                        i += 1;
                        continue;
                    }
                }
                code.push(c);
                comments.push(b' ');
                i += 1;
            }
            St::Line => {
                code.push(b' ');
                comments.push(c);
                i += 1;
            }
            St::Block(d) => {
                if c == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    for _ in 0..2 {
                        code.push(b' ');
                        comments.push(b' ');
                        i += 1;
                    }
                } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = St::Block(d + 1);
                    for _ in 0..2 {
                        code.push(b' ');
                        comments.push(b' ');
                        i += 1;
                    }
                } else {
                    code.push(b' ');
                    comments.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == b'\\' {
                    code.push(b' ');
                    comments.push(b' ');
                    i += 1;
                    if i < b.len() && b[i] != b'\n' {
                        code.push(b' ');
                        comments.push(b' ');
                        i += 1;
                    }
                    continue;
                }
                if c == b'"' {
                    st = St::Code;
                }
                code.push(b' ');
                comments.push(b' ');
                i += 1;
            }
            St::RawStr(h) => {
                if c == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < h && b.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == h {
                        while i < j {
                            if b[i] == b'\n' {
                                code.push(b'\n');
                                comments.push(b'\n');
                            } else {
                                code.push(b' ');
                                comments.push(b' ');
                            }
                            i += 1;
                        }
                        st = St::Code;
                        continue;
                    }
                }
                code.push(b' ');
                comments.push(b' ');
                i += 1;
            }
            St::Char => {
                if c == b'\\' {
                    code.push(b' ');
                    comments.push(b' ');
                    i += 1;
                    if i < b.len() && b[i] != b'\n' {
                        code.push(b' ');
                        comments.push(b' ');
                        i += 1;
                    }
                    continue;
                }
                if c == b'\'' {
                    st = St::Code;
                }
                code.push(b' ');
                comments.push(b' ');
                i += 1;
            }
        }
    }
    Views {
        code: String::from_utf8(code).expect("same byte structure as input"),
        comments: String::from_utf8(comments).expect("same byte structure as input"),
    }
}

fn contains_word(hay: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay.as_bytes()[at - 1].is_ascii_alphanumeric() && hay.as_bytes()[at - 1] != b'_';
        let after = at + word.len();
        let after_ok = after >= hay.len()
            || !hay.as_bytes()[after].is_ascii_alphanumeric() && hay.as_bytes()[after] != b'_';
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Per-line flags: is this line inside a `#[cfg(test)]` item?
fn test_region_lines(code: &str) -> Vec<bool> {
    let lines: Vec<&str> = code.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].contains("cfg(test)") || lines[i].contains("cfg(all(test") {
            // The attribute gates the next item: skip to its opening
            // brace, then consume the brace-balanced block.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            'outer: while j < lines.len() {
                for ch in lines[j].bytes() {
                    match ch {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        // `#[cfg(test)] use foo;` or a gated statement
                        // without a block: stop at the semicolon.
                        b';' if !opened => {
                            in_test[j] = true;
                            break 'outer;
                        }
                        _ => {}
                    }
                }
                in_test[j] = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// 1-based line number of byte offset `at`.
fn line_of(text: &str, at: usize) -> usize {
    text.as_bytes()[..at].iter().filter(|&&c| c == b'\n').count() + 1
}

/// True if the comment text on `line` (1-based) or any of the `window`
/// lines above it contains `needle`.
fn comment_nearby(comments: &str, line: usize, window: usize, needle: &str) -> bool {
    let lines: Vec<&str> = comments.lines().collect();
    let hi = line.min(lines.len());
    let lo = hi.saturating_sub(window + 1);
    lines[lo..hi].iter().any(|l| l.contains(needle))
}

/// Scans one file's source, returning every finding.
pub fn scan_source(rel_path: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let v = strip(src);
    let in_test = test_region_lines(&v.code);
    let is_test_line = |line: usize| in_test.get(line.saturating_sub(1)).copied().unwrap_or(false);
    let mut out = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Finding { file: rel_path.to_string(), line, rule, message });
    };

    // L1: no unranked lock constructors in engine non-test code.
    if class.engine_src {
        for pat in ["Mutex::new(", "RwLock::new("] {
            let mut from = 0;
            while let Some(pos) = v.code[from..].find(pat) {
                let at = from + pos;
                from = at + pat.len();
                let before = v.code.as_bytes()[..at].last().copied().unwrap_or(b' ');
                if before.is_ascii_alphanumeric() || before == b'_' {
                    continue; // e.g. StdMutex::new — caught by L2 anyway
                }
                let line = line_of(&v.code, at);
                if is_test_line(line) {
                    continue;
                }
                if comment_nearby(&v.comments, line, 2, "nbb-lint: allow(unranked") {
                    continue;
                }
                push(
                    line,
                    "L1",
                    format!(
                        "unranked `{}` in engine code: use `with_rank` with a \
                         `lockrank` constant so the debug rank checker covers it",
                        &pat[..pat.len() - 1]
                    ),
                );
            }
        }
    }

    // L2: std::sync lock primitives outside the shim.
    {
        let mut from = 0;
        while let Some(pos) = v.code[from..].find("std::sync::") {
            let at = from + pos;
            from = at + "std::sync::".len();
            let span_end = v.code[at..]
                .find(';')
                .map(|e| at + e)
                .unwrap_or_else(|| v.code.len().min(at + 200));
            let span = &v.code[at..span_end];
            for word in
                ["Mutex", "RwLock", "Condvar", "MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"]
            {
                if contains_word(span, word) {
                    push(
                        line_of(&v.code, at),
                        "L2",
                        format!(
                            "`std::sync::{word}` outside crates/shims: use the \
                             `parking_lot` shim so the lock participates in the \
                             rank discipline"
                        ),
                    );
                    break;
                }
            }
        }
    }

    // L3: condvar waits must sit inside a loop. Track enclosing block
    // kinds with a brace scan; a block is a "loop" if its header (the
    // text since the previous `;`/`{`/`}`) contains while/loop/for.
    {
        let bytes = v.code.as_bytes();
        let mut stack: Vec<bool> = Vec::new(); // true = loop block
        let mut header_start = 0usize;
        let mut i = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    let header = &v.code[header_start..i];
                    let is_loop = contains_word(header, "while")
                        || contains_word(header, "loop")
                        || contains_word(header, "for");
                    stack.push(is_loop);
                    header_start = i + 1;
                }
                b'}' => {
                    stack.pop();
                    header_start = i + 1;
                }
                b';' => header_start = i + 1,
                b'.' if v.code[i..].starts_with(".wait(") => {
                    let mut j = i + ".wait(".len();
                    while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\n') {
                        j += 1;
                    }
                    let has_arg = j < bytes.len() && bytes[j] != b')';
                    if has_arg && !stack.iter().any(|&l| l) {
                        push(
                            line_of(&v.code, i),
                            "L3",
                            "condvar `wait` outside a `while`/`loop`: spurious \
                             wakeups must re-check the predicate"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    // L4: no unwrap/expect in engine non-test code without an allow tag.
    if class.engine_src {
        for pat in [".unwrap()", ".expect("] {
            let mut from = 0;
            while let Some(pos) = v.code[from..].find(pat) {
                let at = from + pos;
                from = at + pat.len();
                let line = line_of(&v.code, at);
                if is_test_line(line) {
                    continue;
                }
                if comment_nearby(&v.comments, line, 2, "nbb-lint: allow(unwrap") {
                    continue;
                }
                push(
                    line,
                    "L4",
                    format!(
                        "`{}` in engine code: return a `StorageError` for fallible \
                         paths, or tag a true invariant with \
                         `// nbb-lint: allow(unwrap, why)`",
                        pat.trim_end_matches('(')
                    ),
                );
            }
        }
    }

    // L5: unsafe requires a SAFETY comment.
    {
        let mut from = 0;
        while let Some(pos) = v.code[from..].find("unsafe") {
            let at = from + pos;
            from = at + "unsafe".len();
            let before_ok = at == 0 || {
                let b = v.code.as_bytes()[at - 1];
                !b.is_ascii_alphanumeric() && b != b'_'
            };
            let after = at + "unsafe".len();
            let after_ok = after >= v.code.len() || {
                let b = v.code.as_bytes()[after];
                !b.is_ascii_alphanumeric() && b != b'_'
            };
            if !(before_ok && after_ok) {
                continue;
            }
            let line = line_of(&v.code, at);
            if !comment_nearby(&v.comments, line, 5, "SAFETY") {
                push(line, "L5", "`unsafe` without a nearby `// SAFETY:` comment".to_string());
            }
        }
    }

    // L6: rank-check escape hatches require a rank-exempt justification.
    {
        for pat in ["lock_unordered(", "read_unordered(", "write_unordered("] {
            let mut from = 0;
            while let Some(pos) = v.code[from..].find(pat) {
                let at = from + pos;
                from = at + pat.len();
                let line = line_of(&v.code, at);
                if !comment_nearby(&v.comments, line, 12, "rank-exempt") {
                    push(
                        line,
                        "L6",
                        format!(
                            "`{}` without a `// rank-exempt:` comment stating why \
                             this acquisition cannot deadlock despite skipping \
                             the order check",
                            pat.trim_end_matches('(')
                        ),
                    );
                }
            }
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Recursively scans every `.rs` file under `root` (the workspace
/// checkout), returning all findings sorted by path and line.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        let Some(class) = classify(&rel) else { continue };
        let src = std::fs::read_to_string(root.join(&rel))?;
        out.extend(scan_source(&rel, &src, class));
    }
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: FileClass = FileClass { engine_src: true };
    const OTHER: FileClass = FileClass { engine_src: false };

    fn rules(src: &str, class: FileClass) -> Vec<&'static str> {
        scan_source("x.rs", src, class).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classify_scopes_rules_by_path() {
        assert!(classify("crates/shims/parking_lot/src/lib.rs").is_none());
        assert!(classify("crates/nbb-storage/src/buffer/fault.rs").unwrap().engine_src);
        assert!(classify("crates/nbb-proto/src/lib.rs").unwrap().engine_src);
        assert!(classify("crates/nbb-server/src/lib.rs").unwrap().engine_src);
        assert!(classify("crates/nbb-client/src/lib.rs").unwrap().engine_src);
        assert!(!classify("crates/nbb-storage/tests/overlapped_io.rs").unwrap().engine_src);
        assert!(!classify("crates/nbb-server/tests/server_integration.rs").unwrap().engine_src);
        assert!(!classify("tests/lock_order.rs").unwrap().engine_src);
        assert!(!classify("crates/nbb-lint/src/lib.rs").unwrap().engine_src);
    }

    // ---- L1 -------------------------------------------------------

    #[test]
    fn l1_flags_unranked_lock_constructors() {
        let src = "fn f() { let m = Mutex::new(0); let l = RwLock::new(1); }";
        assert_eq!(rules(src, ENGINE), vec!["L1", "L1"]);
        assert_eq!(rules(src, OTHER), Vec::<&str>::new(), "only engine src is in scope");
    }

    #[test]
    fn l1_accepts_ranked_and_allowed_constructors() {
        let ranked = "fn f() { let m = Mutex::with_rank(lockrank::DISK_IO, 0); }";
        assert!(rules(ranked, ENGINE).is_empty());
        let allowed = "// nbb-lint: allow(unranked, test-support gate outside cfg(test))\n\
                       fn f() { let m = Mutex::new(0); }";
        assert!(rules(allowed, ENGINE).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { let m = Mutex::new(0); }\n}\n";
        assert!(rules(in_tests, ENGINE).is_empty());
    }

    // ---- L2 -------------------------------------------------------

    #[test]
    fn l2_flags_std_sync_primitives_everywhere() {
        assert_eq!(rules("use std::sync::Mutex;", OTHER), vec!["L2"]);
        assert_eq!(rules("use std::sync::{Arc, Condvar};", ENGINE), vec!["L2"]);
        assert_eq!(
            rules("use std::sync::{\n    Arc,\n    RwLock,\n};", OTHER),
            vec!["L2"],
            "multi-line use statements are scanned to the semicolon"
        );
        assert_eq!(rules("use std::sync::{Mutex as StdMutex};", OTHER), vec!["L2"]);
    }

    #[test]
    fn l2_accepts_std_sync_non_lock_items() {
        assert!(rules("use std::sync::Arc;", ENGINE).is_empty());
        assert!(rules("use std::sync::atomic::{AtomicU64, Ordering};", ENGINE).is_empty());
        assert!(rules("use std::sync::{Arc, Barrier, mpsc};", OTHER).is_empty());
        assert!(rules("// std::sync::Mutex is banned here", OTHER).is_empty());
    }

    // ---- L3 -------------------------------------------------------

    #[test]
    fn l3_flags_wait_outside_a_loop() {
        let src = "fn f() { let mut g = m.lock(); cv.wait(&mut g); }";
        assert_eq!(rules(src, OTHER), vec!["L3"]);
    }

    #[test]
    fn l3_accepts_wait_inside_while_loop_and_match_arms() {
        let w = "fn f() { let mut g = m.lock(); while !*g { cv.wait(&mut g); } }";
        assert!(rules(w, OTHER).is_empty());
        let l = "fn f() { loop { match s { P => cv.wait(&mut g), R => return } } }";
        assert!(rules(l, OTHER).is_empty());
        let join = "fn f() { inflight.wait(); barrier.wait(); }";
        assert!(rules(join, OTHER).is_empty(), "argument-less wait() is not a condvar wait");
    }

    // ---- L4 -------------------------------------------------------

    #[test]
    fn l4_flags_unwrap_and_expect_in_engine_code() {
        let src = "fn f() { x.unwrap(); y.expect(\"boom\"); }";
        assert_eq!(rules(src, ENGINE), vec!["L4", "L4"]);
        assert!(rules(src, OTHER).is_empty(), "tests and tools may unwrap");
    }

    #[test]
    fn l4_accepts_tagged_invariants_test_code_and_doc_examples() {
        let tagged = "fn f() {\n    // nbb-lint: allow(unwrap, heap always has >= 1 page)\n    x.unwrap();\n}";
        assert!(rules(tagged, ENGINE).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}";
        assert!(rules(test, ENGINE).is_empty());
        let type_not_call = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); }";
        assert!(rules(type_not_call, ENGINE).is_empty());
        let doc = "/// ```\n/// x.unwrap();\n/// ```\nfn f() {}";
        assert!(rules(doc, ENGINE).is_empty(), "doc-comment examples are comments");
        let in_string = "fn f() { let s = \".unwrap()\"; }";
        assert!(rules(in_string, ENGINE).is_empty(), "string literals are stripped");
    }

    // ---- L5 -------------------------------------------------------

    #[test]
    fn l5_flags_unsafe_without_safety_comment() {
        let src = "fn f() { unsafe { do_it() } }";
        assert_eq!(rules(src, OTHER), vec!["L5"]);
    }

    #[test]
    fn l5_accepts_commented_unsafe() {
        let src = "fn f() {\n    // SAFETY: the pointer is valid for the call.\n    unsafe { do_it() }\n}";
        assert!(rules(src, OTHER).is_empty());
        let word = "fn f() { let unsafety = 1; }";
        assert!(rules(word, OTHER).is_empty(), "substring matches don't count");
    }

    // ---- L6 -------------------------------------------------------

    #[test]
    fn l6_flags_bare_escape_hatch() {
        let src = "fn f() { let g = map.lock_unordered(); }";
        assert_eq!(rules(src, OTHER), vec!["L6"]);
    }

    #[test]
    fn l6_accepts_justified_escape_hatch() {
        let src = "fn f() {\n    // rank-exempt: entry point re-entered from closures.\n    let g = map.lock_unordered();\n}";
        assert!(rules(src, OTHER).is_empty());
    }

    // ---- stripping machinery -------------------------------------

    #[test]
    fn strip_handles_raw_strings_chars_and_nested_comments() {
        let src =
            "fn f() { let a = r#\"Mutex::new(\"#; let c = '\"'; /* x /* y */ Mutex::new( */ }";
        assert!(rules(src, ENGINE).is_empty());
        let lifetime = "fn f<'a>(x: &'a str) -> &'a str { x }";
        assert!(rules(lifetime, ENGINE).is_empty());
    }

    #[test]
    fn findings_carry_file_line_and_rule() {
        let src = "fn f() {\n    x.unwrap();\n}";
        let f = &scan_source("crates/nbb-core/src/db.rs", src, ENGINE)[0];
        assert_eq!((f.file.as_str(), f.line, f.rule), ("crates/nbb-core/src/db.rs", 2, "L4"));
        assert!(f.to_string().contains("crates/nbb-core/src/db.rs:2: [L4]"));
    }
}
