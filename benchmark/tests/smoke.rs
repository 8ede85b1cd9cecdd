//! The whole command, end to end.

use std::process::Command;

/// `--smoke` runs all four workloads at one-tenth length with every
/// check on. Release builds only: the closed-loop runs are sized for
/// optimised code.
#[test]
fn smoke_run_passes_its_checks() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: run with `cargo test --release`");
        return;
    }
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .expect("spawning the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "smoke failed:\n{stdout}");
    for w in ["plane", "drift", "burst", "wide"] {
        for metric in ["sat_tps", "lat_p99_ms", "setup_s", "source.busy_frac"] {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("{w} {metric} "))),
                "{w} {metric} missing from:\n{stdout}"
            );
        }
        assert!(stdout.contains(&format!("{w} failed_frac 0 frac")));
    }
}
