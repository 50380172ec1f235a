//! Project-invariant lint: line-level checks for rules the compiler cannot
//! express, run as a CI gate (`cargo run -p jxta-lint`).
//!
//! One rule is left.  Invariants the structure or clippy enforces need no
//! rule: the repair summaries are updated by the one writer of each
//! replicated map, under the same guard; every backbone send is sequenced and counted because the broker's network endpoint is
//! the only code holding the network; every lock carries a lock-order class
//! because the vendored `parking_lot` locks have no other constructor; and
//! `clippy.toml` bans `std::sync` locks and raw clock reads.
//!
//! - `unchecked-capacity` — `Vec::with_capacity(n)` where `n` was decoded
//!   from the wire (byte-array decode or string parse) must be clamped
//!   (`.min(...)` / `.clamp(...)`) by something derived from the physical
//!   payload size, or a hostile peer allocates gigabytes with a 4-byte
//!   count field.
//!
//! A violation is suppressed only by an explicit annotation on the same
//! line or the line above:
//!
//! ```text
//! // lint:allow(rule-name, reason why this site is exempt)
//! ```
//!
//! An allow with an empty reason does not suppress anything: the reason is
//! the audit trail.
//!
//! The analyzer is deliberately line-level, not AST-level: it strips
//! comments and string literals, tracks brace depth to scope functions and
//! skip `#[cfg(test)]` blocks, and propagates wire-integer taint within a
//! function.  That is crude but has the right property for a gate — it is
//! trivially auditable and fails loudly (a false positive costs one
//! annotation with a written reason; a parser bug cannot silently pass
//! bad code the way a mis-built AST visitor could).

use std::collections::HashSet;
use std::fmt;

/// The rule identifiers accepted by `lint:allow(...)`.
pub const RULES: &[&str] = &["unchecked-capacity"];

/// One lint violation, addressable as `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Taint sources: an integer decoded from attacker-controlled bytes.
const TAINT_SOURCES: &[&str] = &["from_be_bytes", "from_le_bytes", ".parse::<", ".parse()"];

#[derive(Debug)]
struct Line {
    /// Source with comments and string-literal bodies blanked out.
    stripped: String,
    /// Rules named by a well-formed `lint:allow(rule, reason)` on this line.
    allows: Vec<String>,
}

/// One function currently open on the scan stack.
struct FnFrame {
    /// Brace depth just before the function's signature line.
    entry_depth: i32,
    /// Whether the body `{` has been consumed yet (signatures can span lines).
    opened: bool,
    /// Identifiers carrying wire-decoded integer taint.
    tainted: HashSet<String>,
}

/// Scan one file's source.  `rel_path` is the workspace-relative path the
/// violations report.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let lines = preprocess(source);
    let allowed = |rule: &str, idx: usize| -> bool {
        lines[idx].allows.iter().any(|r| r == rule)
            || (idx > 0 && lines[idx - 1].allows.iter().any(|r| r == rule))
    };

    let mut out = Vec::new();
    let mut depth: i32 = 0;
    // When inside a `#[cfg(test)]` block: the depth to return to.
    let mut skip_over: Option<i32> = None;
    let mut pending_cfg_test = false;
    let mut fn_stack: Vec<FnFrame> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let text = line.stripped.as_str();
        let lineno = idx + 1;
        let depth_before = depth;
        depth += brace_delta(text);

        if let Some(base) = skip_over {
            if depth <= base {
                skip_over = None;
            }
            continue;
        }

        if text.trim_start().starts_with("#[") && text.contains("cfg(test)") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            // The attribute applies to the next item; skip its whole block.
            if !text.trim().is_empty() {
                pending_cfg_test = false;
                if depth > depth_before {
                    skip_over = Some(depth_before);
                } else if !text.contains(';') {
                    // Item header without its `{` yet (e.g. a multi-line fn
                    // signature): skip from here until depth returns.
                    skip_over = Some(depth_before);
                }
            }
            continue;
        }

        // --- function tracking -----------------------------------------
        if starts_fn(text) {
            fn_stack.push(FnFrame {
                entry_depth: depth_before,
                opened: depth > depth_before,
                tainted: HashSet::new(),
            });
        } else if let Some(frame) = fn_stack.last_mut() {
            if !frame.opened {
                if depth > frame.entry_depth {
                    frame.opened = true;
                } else if text.contains(';') {
                    // Bodyless declaration (trait method): discard.
                    fn_stack.pop();
                }
            }
        }

        // --- function-scoped rules -------------------------------------
        if let Some(frame) = fn_stack.last_mut() {
            // Taint: a let-binding fed by a wire decode, or by an already
            // tainted identifier.  A clamp on the binding line sanitizes.
            let sanitized = text.contains(".min(") || text.contains(".clamp(");
            if let Some(bound) = let_binding(text) {
                let from_source = TAINT_SOURCES.iter().any(|s| text.contains(s));
                let from_taint = frame.tainted.iter().any(|t| contains_word(text, t));
                if (from_source || from_taint) && !sanitized {
                    frame.tainted.insert(bound);
                } else {
                    // Rebinding an old name to something clean clears it.
                    frame.tainted.remove(&bound);
                }
            }
            if text.contains("with_capacity(") && !sanitized {
                let tainted_use = frame.tainted.iter().any(|t| {
                    text.split("with_capacity(")
                        .skip(1)
                        .any(|rest| contains_word(rest, t))
                });
                if tainted_use && !allowed("unchecked-capacity", idx) {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: lineno,
                        rule: "unchecked-capacity",
                        message: "allocation sized by a wire-decoded integer without a \
                                  `.min(...)` guard against hostile counts"
                            .to_string(),
                    });
                }
            }
        }

        // --- close finished functions ----------------------------------
        while fn_stack
            .last()
            .is_some_and(|frame| frame.opened && depth <= frame.entry_depth)
        {
            fn_stack.pop();
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

// ---------------------------------------------------------------------
// preprocessing
// ---------------------------------------------------------------------

/// Blank out comments and string-literal bodies (so patterns never match
/// inside prose or data), and collect `lint:allow` annotations — which are
/// read from the raw text, since they live inside comments.
fn preprocess(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    for raw in source.lines() {
        let allows = parse_allows(raw);
        let mut stripped = String::with_capacity(raw.len());
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        let mut in_string = false;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            if in_block_comment {
                if c == '*' && next == Some('/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if in_string {
                if c == '\\' {
                    i += 2; // skip the escaped character
                } else {
                    if c == '"' {
                        in_string = false;
                        stripped.push('"');
                    }
                    i += 1;
                }
                continue;
            }
            if c == '/' && next == Some('/') {
                break; // rest of line is a comment
            }
            if c == '/' && next == Some('*') {
                in_block_comment = true;
                i += 2;
                continue;
            }
            if c == '"' {
                in_string = true;
                stripped.push('"');
                i += 1;
                continue;
            }
            // Char literals like '"' or '{' would confuse the string and
            // brace tracking: skip a short quoted char outright.
            if c == '\'' {
                if chars.get(i + 2) == Some(&'\'') {
                    i += 3;
                    continue;
                }
                if next == Some('\\') && chars.get(i + 3) == Some(&'\'') {
                    i += 4;
                    continue;
                }
            }
            stripped.push(c);
            i += 1;
        }
        // An unterminated string keeps state only within the line: Rust
        // multi-line strings exist, but none of the patterns span lines, so
        // resetting per line is the safe failure mode for brace tracking.
        out.push(Line { stripped, allows });
    }
    out
}

/// Parse every well-formed `lint:allow(rule, reason)` on a raw line.  The
/// reason is mandatory: an allow without one suppresses nothing.
fn parse_allows(raw: &str) -> Vec<String> {
    let mut allows = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        if let Some(close) = rest.find(')') {
            let body = &rest[..close];
            if let Some((rule, reason)) = body.split_once(',') {
                let rule = rule.trim();
                if !reason.trim().is_empty() && RULES.contains(&rule) {
                    allows.push(rule.to_string());
                }
            }
            rest = &rest[close + 1..];
        } else {
            break;
        }
    }
    allows
}

fn brace_delta(text: &str) -> i32 {
    let mut d = 0;
    for c in text.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// Whether this line begins a `fn` item.
fn starts_fn(text: &str) -> bool {
    let Some(pos) = match_positions(text, "fn ").into_iter().find(|&p| {
        // Word boundary on the left: `fn` must not be the tail of another
        // identifier (`stale_fn `), and closures/paths don't use `fn `.
        p == 0 || !text.as_bytes()[p - 1].is_ascii_alphanumeric() && text.as_bytes()[p - 1] != b'_'
    }) else {
        return false;
    };
    let rest = text[pos + 3..].trim_start();
    let name_len = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .count();
    name_len > 0 && rest[name_len..].trim_start().starts_with(['(', '<'])
}

/// Extract the identifier bound by a `let` on this line, if any.
fn let_binding(text: &str) -> Option<String> {
    let trimmed = text.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

fn contains_word(hay: &str, word: &str) -> bool {
    for pos in match_positions(hay, word) {
        let before_ok = pos == 0 || {
            let b = hay.as_bytes()[pos - 1];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        let after = pos + word.len();
        let after_ok = after >= hay.len() || {
            let b = hay.as_bytes()[after];
            !b.is_ascii_alphanumeric() && b != b'_'
        };
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

fn match_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        out.push(start + pos);
        start += pos + 1;
    }
    out
}

// ---------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    const BROKER_PATH: &str = "crates/overlay/src/broker.rs";

    #[test]
    fn fixture_unchecked_capacity_fires() {
        let src = include_str!("../fixtures/bad_unchecked_capacity.rs");
        let v = scan_source("crates/core/src/broker_ext.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "unchecked-capacity"),
            "expected unchecked-capacity violation, got {:?}",
            v
        );
    }

    #[test]
    fn fixture_good_annotated_is_clean() {
        let src = include_str!("../fixtures/good_annotated.rs");
        let v = scan_source(BROKER_PATH, src);
        assert!(v.is_empty(), "annotated fixture must be clean: {:?}", v);
    }

    #[test]
    fn fixture_good_clean_is_clean() {
        let src = include_str!("../fixtures/good_clean.rs");
        let v = scan_source(BROKER_PATH, src);
        assert!(v.is_empty(), "clean fixture must be clean: {:?}", v);
    }

    /// A wire-decoded count, then an allocation it sizes: the probe the
    /// generic mechanism tests below wrap.
    const DECODE: &str = "    let n = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize;\n";
    const ALLOC: &str = "    let v: Vec<u8> = Vec::with_capacity(n);\n";

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = format!("fn f(&self, b: &[u8]) {{\n{DECODE}    // lint:allow(unchecked-capacity)\n{ALLOC}}}\n");
        let v = scan_source("crates/overlay/src/x.rs", &src);
        assert!(v.iter().any(|v| v.rule == "unchecked-capacity"), "{:?}", v);
    }

    #[test]
    fn allow_with_unknown_rule_does_not_suppress() {
        let src = format!("fn f(&self, b: &[u8]) {{\n{DECODE}    // lint:allow(capacity, hush)\n{ALLOC}}}\n");
        let v = scan_source("crates/overlay/src/x.rs", &src);
        assert!(v.iter().any(|v| v.rule == "unchecked-capacity"), "{:?}", v);
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = format!("#[cfg(test)]\nmod tests {{\n    fn t(&self, b: &[u8]) {{\n{DECODE}{ALLOC}    }}\n}}\n");
        let v = scan_source(BROKER_PATH, &src);
        assert!(v.is_empty(), "{:?}", v);
    }

    #[test]
    fn patterns_inside_strings_do_not_match() {
        let src = "fn f(&self) {\n    let n: usize = s.parse().unwrap();\n    let s = \"Vec::with_capacity(n) is banned\";\n}\n";
        let v = scan_source("crates/overlay/src/x.rs", src);
        assert!(v.is_empty(), "{:?}", v);
    }

    #[test]
    fn taint_propagates_through_bindings() {
        let src = "fn f(&self, b: &[u8]) {\n    let n = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize;\n    let cap = n * 2;\n    let v: Vec<u8> = Vec::with_capacity(cap);\n}\n";
        let v = scan_source("crates/overlay/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == "unchecked-capacity"), "{:?}", v);
    }

    #[test]
    fn clamped_capacity_is_clean() {
        let src = "fn f(&self, b: &[u8]) {\n    let n = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize;\n    let v: Vec<u8> = Vec::with_capacity(n.min(b.len()));\n}\n";
        let v = scan_source("crates/overlay/src/x.rs", src);
        assert!(v.is_empty(), "{:?}", v);
    }

    #[test]
    fn clamped_binding_sanitizes_taint() {
        let src = "fn f(&self, b: &[u8]) {\n    let n: usize = text.parse().unwrap_or(0);\n    let cap = n.min(b.len() / 4 + 1);\n    let v: Vec<u8> = Vec::with_capacity(cap);\n}\n";
        let v = scan_source("crates/overlay/src/x.rs", src);
        assert!(v.is_empty(), "{:?}", v);
    }
}
