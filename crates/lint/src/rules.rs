//! The lint rules, as passes over the token stream of one file (L001,
//! L002, L003, L004, L006, L007, L008, L009, L010, L011; L005 is
//! retired).

use crate::lexer::{lex, Tok, TokKind};
use crate::Violation;

/// L008's cap: the most lines one non-test function in
/// `crates/runtime/src` may span, `fn` keyword through closing brace.
/// Every thread body is a value with one handler per inbox message, so
/// no function comes near it; today's longest is `Engine::run`.
pub const MAX_FN_LINES: u32 = 150;

/// Which rules apply to a file — derived from its workspace-relative
/// path by [`crate::walk::classify`], or constructed directly in tests.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// L001 applies: library code of the protocol crates
    /// (`crates/runtime/src`, `crates/core/src`).
    pub panic_scope: bool,
    /// L004 and L007 apply: the runtime data plane (`crates/runtime/src`).
    pub data_plane: bool,
    /// L008 applies with this cap ([`MAX_FN_LINES`] under
    /// `crates/runtime/src`; tests pass a small one to keep fixtures
    /// short).
    pub fn_line_cap: Option<u32>,
    /// L003 exempt: the whitelisted resync file or a test context.
    pub swap_allowed: bool,
    /// L009 applies: the controller (`crates/runtime/src/controller.rs`),
    /// which takes time as an input and reads no clock.
    pub clock_free: bool,
    /// L010 applies: the runtime (`crates/runtime/src`), whose threads
    /// share channels and nothing guarded by a lock or an atomic.
    pub channels_only: bool,
    /// L011 applies: the source's file (`crates/runtime/src/engine.rs`),
    /// whose router changes only in the `SourceCtl::Resume` arm.
    pub resume_routes: bool,
}

/// Per-token flags derived from `#[...]` attributes.
struct Marks {
    /// Inside an item gated by an attribute mentioning `test`
    /// (`#[cfg(test)]`, `#[test]`, …).
    in_test: Vec<bool>,
    /// Inside an item gated by an attribute mentioning `target_arch`.
    arch: Vec<bool>,
}

/// An active `// lint: allow(rule, reason = "...")` annotation. It
/// covers the statement that follows: suppression starts at the
/// annotation and ends at the first `;` at the depth of the first
/// covered code token, or when the enclosing block closes.
struct Allow {
    rule: &'static str,
    /// Brace depth at the first covered code token; `None` while the
    /// annotation is still waiting for code.
    d0: Option<i32>,
}

/// Runs all source rules over one file.
pub fn scan_source(file: &str, src: &str, class: &FileClass) -> Vec<Violation> {
    let toks = lex(src);
    let marks = mark_attr_spans(&toks);
    let resume_arm = mark_resume_arms(&toks);
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    let mut allows: Vec<Allow> = Vec::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Comment {
            match parse_allow(&t.text) {
                AllowParse::None => {}
                AllowParse::Ok(rule) => allows.push(Allow { rule, d0: None }),
                AllowParse::Malformed(why) => out.push(Violation {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L000",
                    msg: why,
                }),
            }
            continue;
        }
        // Pending annotations attach to the first code token they see.
        for a in &mut allows {
            if a.d0.is_none() {
                a.d0 = Some(depth);
            }
        }

        if t.kind == TokKind::Ident {
            let name = t.text.as_str();

            // L001: panics in protocol-crate library code.
            if class.panic_scope && !marks.in_test[i] {
                let method = (name == "unwrap" || name == "expect")
                    && prev_is(&toks, i, '.')
                    && next_is(&toks, i, '(');
                let mac = (name == "panic" || name == "unreachable") && next_is(&toks, i, '!');
                if (method || mac) && !allowed(&allows, "panic") {
                    out.push(Violation {
                        file: file.to_string(),
                        line: t.line,
                        rule: "L001",
                        msg: format!(
                            "`{name}` in protocol-crate library code — degrade into an \
                             EngineReport error, or annotate `lint: allow(panic, \
                             reason = ...)` with the invariant that makes it unreachable"
                        ),
                    });
                }
            }

            // L002: unsafe without a SAFETY comment.
            if name == "unsafe" && !has_safety_comment(&lines, t.line) {
                out.push(Violation {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L002",
                    msg: "`unsafe` without a `// SAFETY:` comment immediately above".to_string(),
                });
            }

            // L003: swap_table outside the whitelisted resync path.
            if name == "swap_table"
                && next_is(&toks, i, '(')
                && !class.swap_allowed
                && !marks.in_test[i]
            {
                out.push(Violation {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L003",
                    msg: "`swap_table` call outside the whitelisted resync path \
                          (crates/core/src/routing.rs) — whole-table replacement is \
                          O(table) and must stay confined to the documented sites"
                        .to_string(),
                });
            }

            // L004: TupleBatch sends that escape the channel bound: plain,
            // or weighted at the literal `0` (which never waits for room).
            if class.data_plane
                && !marks.in_test[i]
                && matches!(name, "send" | "try_send" | "send_weighted")
                && prev_is(&toks, i, '.')
            {
                if let Some(open) =
                    next_code(&toks, i).filter(|&n| toks[n].kind == TokKind::Punct('('))
                {
                    let close = matching(&toks, open, '(', ')');
                    let args = &toks[open + 1..close];
                    let batch = args
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "TupleBatch");
                    let weightless = name != "send_weighted" || last_arg_is_zero(args);
                    if batch && weightless && !allowed(&allows, "send") {
                        out.push(Violation {
                            file: file.to_string(),
                            line: t.line,
                            rule: "L004",
                            msg: format!(
                                "`.{name}(` of a TupleBatch without its weight — a batch \
                                 of N tuples must be capacity-accounted as N \
                                 (`send_weighted`), or the channel bound silently deflates"
                            ),
                        });
                    }
                }
            }

            // L007: per-tuple trace recording on the data plane. The
            // flight recorder's hot-path contract is batch granularity
            // only (`count_batch` two counter adds, `close_interval`
            // once per interval); a `.record(` call on a trace-ish
            // receiver in runtime code reintroduces the per-tuple event
            // cost the recorder was designed to avoid. The fault
            // injector's ledger `record` is a control-plane call on a
            // non-trace receiver and is not matched.
            if class.data_plane
                && !marks.in_test[i]
                && name == "record"
                && prev_is(&toks, i, '.')
                && next_is(&toks, i, '(')
            {
                let receiver = toks[..i]
                    .iter()
                    .rev()
                    .filter(|t| t.kind != TokKind::Comment)
                    .nth(1);
                let traceish = receiver.is_some_and(|t| {
                    t.kind == TokKind::Ident && {
                        let r = t.text.to_ascii_lowercase();
                        r.contains("trace") || r.contains("record")
                    }
                });
                if traceish && !allowed(&allows, "trace") {
                    out.push(Violation {
                        file: file.to_string(),
                        line: t.line,
                        rule: "L007",
                        msg: "per-event `.record(` on a trace recorder in data-plane \
                              code — the hot path records at batch granularity only \
                              (`count_batch` / `close_interval`); move the event to \
                              the control plane or annotate `lint: allow(trace, \
                              reason = ...)` with why this site is not per-tuple"
                            .to_string(),
                    });
                }
            }

            // L008: a function too long to change safely. The protocol
            // used to live in one 1,940-line function nobody could add
            // an op variant to; the cap keeps it from growing back.
            if let (Some(cap), false, "fn") = (class.fn_line_cap, marks.in_test[i], name) {
                if let Some(close) = fn_body_end(&toks, i) {
                    let span = toks[close].line - t.line + 1;
                    if span > cap {
                        let fn_name = next_code(&toks, i).map_or("?", |n| toks[n].text.as_str());
                        out.push(Violation {
                            file: file.to_string(),
                            line: t.line,
                            rule: "L008",
                            msg: format!(
                                "fn `{fn_name}` spans {span} lines (cap {cap}) — \
                                 split it into steps that can be read and tested on \
                                 their own"
                            ),
                        });
                    }
                }
            }

            // L009: a clock read in the controller. Time is an argument
            // the event loop passes in, so the controller can be driven
            // in virtual time.
            let instant_now = name == "now"
                && i >= 3
                && toks[i - 3].text == "Instant"
                && toks[i - 2].kind == TokKind::Punct(':')
                && toks[i - 1].kind == TokKind::Punct(':');
            let elapsed = name == "elapsed" && prev_is(&toks, i, '.') && next_is(&toks, i, '(');
            if class.clock_free && !marks.in_test[i] && (instant_now || elapsed) {
                let read = if instant_now {
                    "Instant::now"
                } else {
                    ".elapsed()"
                };
                out.push(Violation {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L009",
                    msg: format!(
                        "`{read}` reads the clock in the controller — take the instant \
                         the event loop passes in"
                    ),
                });
            }

            // L010: a lock or an atomic in the runtime, whose threads
            // share only channels.
            let sync = matches!(name, "Mutex" | "RwLock" | "Condvar")
                || name.starts_with("Atomic")
                || (name == "atomic" && prev_is(&toks, i, ':'));
            if class.channels_only && !marks.in_test[i] && sync {
                out.push(Violation {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L010",
                    msg: format!(
                        "`{name}` in the runtime — its threads share only channels: give \
                         the state to the one thread that uses it"
                    ),
                });
            }

            // L011: a routing change at the source outside an op's
            // resume. A death or a revive changes which slots the
            // source diverts, never its routing function.
            if class.resume_routes
                && !marks.in_test[i]
                && !resume_arm[i]
                && name == "router"
                && writes(&toks, i)
            {
                out.push(Violation {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L011",
                    msg: "the source's `router` written outside the `SourceCtl::Resume` \
                          arm — its routing function changes only at an op's resume; \
                          a death or a revive changes only the slots it diverts"
                        .to_string(),
                });
            }

            // L006: x86 intrinsics outside a cfg(target_arch) gate.
            if name.len() >= 4 && name[..4].eq_ignore_ascii_case("_mm_") && !marks.arch[i] {
                out.push(Violation {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L006",
                    msg: format!(
                        "x86 intrinsic `{name}` outside a `#[cfg(target_arch = ...)]` \
                         gate — this breaks the build on every other architecture"
                    ),
                });
            }
        }

        // Depth bookkeeping and annotation expiry.
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                allows.retain(|a| a.d0.is_none_or(|d| depth >= d));
            }
            TokKind::Punct(';') => {
                allows.retain(|a| a.d0.is_none_or(|d| d != depth));
            }
            _ => {}
        }
    }
    out
}

fn allowed(allows: &[Allow], rule: &str) -> bool {
    allows.iter().any(|a| a.rule == rule)
}

/// What a comment token says about lint suppression.
enum AllowParse {
    /// Not an annotation.
    None,
    /// A well-formed annotation for the named rule.
    Ok(&'static str),
    /// Looks like an annotation but violates the grammar.
    Malformed(String),
}

fn parse_allow(comment: &str) -> AllowParse {
    // The annotation must start its line comment (`// lint: allow(...)`).
    // A doc comment *mentioning* the grammar (`/// ... \`lint: allow\``)
    // never registers, because the leading-slash strip leaves it starting
    // with backticks or prose.
    let body = comment.trim_start_matches('/').trim_start();
    let Some(rest) = body.strip_prefix("lint: allow(") else {
        return AllowParse::None;
    };
    let name_end = rest.find([',', ')']).unwrap_or(rest.len());
    let name = rest[..name_end].trim();
    let rule: &'static str = match name {
        "panic" => "panic",
        "send" => "send",
        "trace" => "trace",
        other => {
            return AllowParse::Malformed(format!(
                "unknown lint allow rule `{other}` (known: panic, send, trace)"
            ))
        }
    };
    if !rest.contains("reason") {
        return AllowParse::Malformed(format!(
            "lint allow({rule}) without a reason — write `reason = \"...\"` on the \
             first annotation line"
        ));
    }
    AllowParse::Ok(rule)
}

/// True when the contiguous run of comment/attribute lines directly
/// above `line` (1-based) contains a `SAFETY:` marker.
fn has_safety_comment(lines: &[&str], line: u32) -> bool {
    let mut j = line as usize - 1; // 0-based index of the `unsafe` line
    while j > 0 {
        let s = lines[j - 1].trim_start();
        if s.starts_with("//") || s.starts_with("#[") || s.starts_with("#![") {
            if s.contains("SAFETY:") {
                return true;
            }
            j -= 1;
        } else {
            break;
        }
    }
    false
}

/// Index of the next non-comment token after `i`.
fn next_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[i + 1..]
        .iter()
        .position(|t| t.kind != TokKind::Comment)
        .map(|off| i + 1 + off)
}

/// Whether a call's argument tokens `args` end `, 0` (a trailing comma
/// aside): its last argument is the literal `0`.
fn last_arg_is_zero(args: &[Tok]) -> bool {
    let mut code = args.iter().rev().filter(|t| t.kind != TokKind::Comment);
    let mut last = code.next();
    if last.is_some_and(|t| t.kind == TokKind::Punct(',')) {
        last = code.next();
    }
    let comma = code.next().is_some_and(|t| t.kind == TokKind::Punct(','));
    comma && last.is_some_and(|t| t.kind == TokKind::Num && t.text == "0")
}

/// Index of the previous non-comment token before `i`.
fn prev_code(toks: &[Tok], i: usize) -> Option<usize> {
    toks[..i].iter().rposition(|t| t.kind != TokKind::Comment)
}

/// Whether the identifier at `i` is written: assigned (`x =`, not
/// `x ==` nor a `let x =` binding), updated (`x.update(`), or lent out
/// mutably (`&mut x`, `&mut a.b.x`).
fn writes(toks: &[Tok], i: usize) -> bool {
    let punct = |at: Option<usize>, p: char| at.is_some_and(|n| toks[n].kind == TokKind::Punct(p));
    let ident = |at: Option<usize>, w: &str| {
        at.is_some_and(|n| toks[n].kind == TokKind::Ident && toks[n].text == w)
    };
    let (next, prev) = (next_code(toks, i), prev_code(toks, i));
    let after = next.and_then(|n| next_code(toks, n));
    let binding = ident(prev, "let")
        || ident(prev, "mut") && ident(prev.and_then(|n| prev_code(toks, n)), "let");
    let assigned = punct(next, '=') && !punct(after, '=') && !punct(after, '>') && !binding;
    let updated = punct(next, '.')
        && ident(after, "update")
        && punct(after.and_then(|n| next_code(toks, n)), '(');
    let mut owner = prev;
    while let Some(dot) = owner.filter(|&n| toks[n].kind == TokKind::Punct('.')) {
        let path = prev_code(toks, dot).filter(|&n| toks[n].kind == TokKind::Ident);
        owner = path.and_then(|n| prev_code(toks, n));
    }
    let lent = ident(owner, "mut") && punct(owner.and_then(|n| prev_code(toks, n)), '&');
    assigned || updated || lent
}

/// Per-token flags: inside the body of a `SourceCtl::Resume` match arm
/// (`SourceCtl::Resume { .. } => ..`, a block or an expression up to
/// its `,`), where L011 lets the source's router change.
fn mark_resume_arms(toks: &[Tok]) -> Vec<bool> {
    let mut arm = vec![false; toks.len()];
    for i in 3..toks.len() {
        let named = toks[i].kind == TokKind::Ident
            && toks[i].text == "Resume"
            && toks[i - 1].kind == TokKind::Punct(':')
            && toks[i - 2].kind == TokKind::Punct(':')
            && toks[i - 3].text == "SourceCtl";
        if !named {
            continue;
        }
        let mut k = next_code(toks, i);
        if let Some(open) = k.filter(|&n| toks[n].kind == TokKind::Punct('{')) {
            k = next_code(toks, matching(toks, open, '{', '}'));
        }
        let arrow = k.filter(|&n| toks[n].kind == TokKind::Punct('='));
        let body = arrow
            .and_then(|n| next_code(toks, n))
            .filter(|&n| toks[n].kind == TokKind::Punct('>'))
            .and_then(|n| next_code(toks, n));
        let Some(start) = body else {
            continue;
        };
        let end = match toks[start].kind {
            TokKind::Punct('{') => matching(toks, start, '{', '}'),
            _ => arm_expr_end(toks, start),
        };
        arm[start..=end].iter_mut().for_each(|m| *m = true);
    }
    arm
}

/// The last token of a match arm's expression starting at `start`: the
/// one before its `,` at the arm's own depth, or before the `}` closing
/// the match.
fn arm_expr_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            TokKind::Punct('(' | '[' | '{') => depth += 1,
            TokKind::Punct(')' | ']' | '}') if depth == 0 => return k.saturating_sub(1),
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Punct(',') if depth == 0 => return k,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

fn next_is(toks: &[Tok], i: usize, p: char) -> bool {
    next_code(toks, i).is_some_and(|n| toks[n].kind == TokKind::Punct(p))
}

fn prev_is(toks: &[Tok], i: usize, p: char) -> bool {
    prev_code(toks, i).is_some_and(|n| toks[n].kind == TokKind::Punct(p))
}

/// For the `fn` keyword at `fn_idx`, the index of the `}` closing the
/// function's body; `None` for a bodiless declaration (trait method,
/// extern) or an `fn(..)` pointer type.
fn fn_body_end(toks: &[Tok], fn_idx: usize) -> Option<usize> {
    let name = next_code(toks, fn_idx)?;
    if toks[name].kind != TokKind::Ident {
        return None;
    }
    item_end(toks, name + 1).and_then(|(end, has_body)| has_body.then_some(end))
}

/// The end of the item whose tokens start at `k`: the `}` matching its
/// first body `{`, or its terminating `;` (bracketed groups skipped),
/// and whether it has a body. `None` when the input ends first.
fn item_end(toks: &[Tok], mut k: usize) -> Option<(usize, bool)> {
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct('{') => return Some((matching(toks, k, '{', '}'), true)),
            TokKind::Punct(';') => return Some((k, false)),
            TokKind::Punct('(') => k = matching(toks, k, '(', ')') + 1,
            TokKind::Punct('[') => k = matching(toks, k, '[', ']') + 1,
            _ => k += 1,
        }
    }
    None
}

/// Index of the `close` punct matching the `open` punct at `open_idx`
/// (which must be an `open`); saturates at the last token on
/// unbalanced input.
fn matching(toks: &[Tok], open_idx: usize, open: char, close: char) -> usize {
    let mut d = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct(open) {
            d += 1;
        } else if t.kind == TokKind::Punct(close) {
            d -= 1;
            if d == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Computes per-token `in_test` / `arch` flags: for every outer
/// attribute whose idents mention `test` (and not `not`) or
/// `target_arch`, the attribute and the item it attaches to — up to the
/// matching `}` of its first body brace, or its terminating `;` — are
/// flagged.
fn mark_attr_spans(toks: &[Tok]) -> Marks {
    let n = toks.len();
    let mut in_test = vec![false; n];
    let mut arch = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if toks[i].kind != TokKind::Punct('#') {
            i += 1;
            continue;
        }
        // `#![...]` inner attributes configure the enclosing scope; they
        // are skipped without marking (none of the gated forms are used
        // as inner attributes in this workspace).
        let (bracket, outer) = match toks.get(i + 1).map(|t| t.kind) {
            Some(TokKind::Punct('[')) => (i + 1, true),
            Some(TokKind::Punct('!'))
                if toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Punct('[')) =>
            {
                (i + 2, false)
            }
            _ => {
                i += 1;
                continue;
            }
        };
        let close = matching(toks, bracket, '[', ']');
        if outer {
            let mut has_test = false;
            let mut has_not = false;
            let mut has_arch = false;
            for t in &toks[bracket + 1..close] {
                if t.kind == TokKind::Ident {
                    match t.text.as_str() {
                        "test" => has_test = true,
                        "not" => has_not = true,
                        "target_arch" => has_arch = true,
                        _ => {}
                    }
                }
            }
            let is_test = has_test && !has_not;
            if is_test || has_arch {
                // Skip any stacked attributes between this one and the item.
                let mut j = close + 1;
                while j < n
                    && toks[j].kind == TokKind::Punct('#')
                    && toks.get(j + 1).map(|t| t.kind) == Some(TokKind::Punct('['))
                {
                    j = matching(toks, j + 1, '[', ']') + 1;
                }
                let end = item_end(toks, j).map_or(n - 1, |(end, _)| end);
                for m in i..=end.min(n - 1) {
                    if is_test {
                        in_test[m] = true;
                    }
                    if has_arch {
                        arch[m] = true;
                    }
                }
            }
        }
        i = close + 1;
    }
    Marks { in_test, arch }
}
