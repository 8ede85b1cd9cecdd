//! Workspace walking and path-based rule scoping.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::{lint_bench_results, scan_source, FileClass, MAX_FN_LINES};
use crate::Violation;

/// What one full lint run saw.
#[derive(Debug, Default)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    /// `.rs` files scanned by the source rules.
    pub files_scanned: usize,
    /// Numeric metric keys checked by L005.
    pub metrics_checked: usize,
}

/// Maps a workspace-relative path (with `/` separators) to the rules
/// that apply there. `None` means the file is not scanned at all:
/// lint test fixtures (deliberate violations) and anything outside the
/// walked trees. `vendor/` is never walked — the shims there mirror
/// external crates' APIs and carry their conventions, not ours.
pub fn classify(rel: &str) -> Option<FileClass> {
    if rel.split('/').any(|seg| seg == "fixtures") {
        return None;
    }
    let test_ctx = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/benches/");
    Some(FileClass {
        // The trace crate sits on every engine thread (its recorder is
        // dropped during teardown and panics there would mask the real
        // failure), so it carries the same no-panic contract as the
        // protocol crates.
        panic_scope: rel.starts_with("crates/runtime/src/")
            || rel.starts_with("crates/core/src/")
            || rel.starts_with("crates/trace/src/"),
        data_plane: rel.starts_with("crates/runtime/src/"),
        fn_line_cap: rel
            .starts_with("crates/runtime/src/")
            .then_some(MAX_FN_LINES),
        swap_allowed: rel == "crates/core/src/routing.rs" || test_ctx,
    })
}

/// Lints the workspace rooted at `root`: all `.rs` files under
/// `crates/`, `src/`, `tests/`, and `examples/` (source rules), plus
/// `bench_results/*.json` (L005).
pub fn lint_workspace(root: &Path) -> LintReport {
    let mut report = LintReport::default();
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(class) = classify(&rel) else {
            continue;
        };
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        report.violations.extend(scan_source(&rel, &src, &class));
    }
    let (v, checked) = lint_bench_results(&root.join("bench_results"));
    report.violations.extend(v);
    report.metrics_checked = checked;
    report
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "vendor" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}
