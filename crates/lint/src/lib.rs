//! `streambal-lint`: a hand-rolled static analyzer for the project
//! invariants no compiler or clippy pass checks.
//!
//! The engine's correctness rests on rules that live outside the type
//! system: the pause→migrate→resume protocol must never panic
//! mid-protocol, every data-plane batch must be capacity-accounted by
//! tuple count (the PR 3 capacity-deflation bug class), and `swap_table`
//! full rebuilds are confined to the documented resync path.
//! This crate enforces them lexically — a comment/string/attribute-aware
//! token scan, not a parse (the build sandbox is offline, so no `syn`) —
//! which is exactly enough: every rule here is a property of identifiers
//! in non-test, non-gated positions.
//!
//! Rules (see `README.md` for the full contract and the
//! `// lint: allow(...)` grammar):
//!
//! * **L001** — no `unwrap`/`expect`/`panic!`/`unreachable!` in non-test
//!   code of `crates/runtime` + `crates/core`, unless annotated.
//! * **L002** — every `unsafe` keyword is immediately preceded by a
//!   `// SAFETY:` comment (attributes may sit between them).
//! * **L003** — `swap_table(` is called only from the whitelisted
//!   resync file (`crates/core/src/routing.rs`) and test code.
//! * **L004** — no plain `.send(`/`.try_send(` of a `TupleBatch` in
//!   `crates/runtime` non-test code — weighted sends only.
//! * **L005** — retired in PR 25 (benches now declare each metric's
//!   direction where they write it); the id is not reused.
//! * **L006** — `_mm_*` intrinsics appear only under `cfg(target_arch)`
//!   gates.
//! * **L007** — no per-event `.record(` on a trace recorder in
//!   `crates/runtime` non-test code — the flight recorder's data-plane
//!   contract is batch granularity only (`count_batch` /
//!   `close_interval`).
//! * **L008** — no non-test function in `crates/runtime` spans more
//!   than `rules::MAX_FN_LINES` lines.
//! * **L009** — no `Instant::now` or `.elapsed(` in non-test code of
//!   `crates/runtime/src/controller.rs`: the controller reads no clock.
//! * **L010** — no `Mutex`, `RwLock`, `Condvar`, `Atomic*` or
//!   `sync::atomic` in non-test code of `crates/runtime/src`: the
//!   engine's threads share only channels.
//! * **L000** — a malformed `lint: allow` annotation (missing reason,
//!   unknown rule name) is itself a violation.

#![forbid(unsafe_code)]

use std::fmt;

pub mod lexer;
pub mod rules;
pub mod walk;

/// One diagnostic: `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`"L001"` … `"L010"`, `"L000"` for malformed allows).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}
