//! The `streambal-lint` binary: lints the workspace, prints `file:line`
//! diagnostics with rule ids, exits non-zero on any violation. Runs as
//! a blocking CI step.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Default to the workspace this binary was built from, so
    // `cargo run -p streambal-lint` works from any directory; an
    // explicit root can be passed as the only argument.
    let root = match std::env::args_os().nth(1) {
        Some(p) => PathBuf::from(p),
        None => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest
                .join("../..")
                .canonicalize()
                .unwrap_or_else(|_| PathBuf::from("."))
        }
    };
    let report = streambal_lint::walk::lint_workspace(&root);
    for v in &report.violations {
        println!("{v}");
    }
    if report.violations.is_empty() {
        println!(
            "streambal-lint: ok — {} files scanned, 0 violations",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("streambal-lint: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}
