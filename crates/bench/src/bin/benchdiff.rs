//! `benchdiff` — compare two `bench_results/` trees and print per-metric
//! deltas, flagging changes beyond a regression threshold.
//!
//! ```text
//! benchdiff <baseline-dir> <candidate-dir> [--threshold 0.10] [--fail-on-regression]
//! ```
//!
//! Every `*.json` file present in both trees is parsed (the hand-rolled
//! reader in `streambal_bench::json`), its numeric leaves flattened to
//! `file :: path.to.metric` keys ([`flatten_metrics`] — array elements
//! are keyed by their `id`/`name`/`label`/`bench` field when they carry
//! one, by index otherwise) and matched pairwise. A delta beyond
//! `--threshold` (relative, default 10%) is printed and classified by
//! the metric's direction from the shared table in
//! [`streambal_bench::direction`] (which lint rule L005 keeps closed
//! over the committed files):
//!
//! * **regression / improvement** when the direction is
//!   [`Direction::HigherIsBetter`] or [`Direction::LowerIsBetter`];
//! * **change** when the key is declared [`Direction::Neutral`]
//!   (reported, never fatal);
//! * **change (NO DIRECTION)** when the key is [`Direction::Unknown`] —
//!   still never fatal here, but `streambal-lint` fails CI until the key
//!   is added to the table, so a renamed throughput metric cannot
//!   silently stop gating regressions.
//!
//! Exit status: 0 normally; 2 with `--fail-on-regression` when at least
//! one *directional* metric regressed beyond the threshold — so CI can
//! run it as a non-blocking report step today and tighten later. Missing
//! files or metrics on either side are reported but never fatal (figures
//! come and go across PRs); smoke-mode files (`*.smoke.json`) compare
//! like any other when present in both trees.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use streambal_bench::direction::{direction_of, flatten_metrics, Direction};
use streambal_bench::json::Json;

/// Relative change beyond which a metric is reported.
const DEFAULT_THRESHOLD: f64 = 0.10;

fn load_metrics(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(flatten_metrics(&doc))
}

/// JSON files directly inside `dir` (one level — bench_results is flat),
/// sorted by name.
fn json_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

struct Args {
    baseline: PathBuf,
    candidate: PathBuf,
    threshold: f64,
    fail_on_regression: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut pos: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut fail_on_regression = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                threshold = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad threshold '{v}'"))?;
                if threshold.is_nan() || threshold < 0.0 {
                    return Err(format!("bad threshold '{v}'"));
                }
            }
            "--fail-on-regression" => fail_on_regression = true,
            "--help" | "-h" => {
                return Err("usage: benchdiff <baseline-dir> <candidate-dir> \
                     [--threshold 0.10] [--fail-on-regression]"
                    .into())
            }
            _ => pos.push(a),
        }
    }
    if pos.len() != 2 {
        return Err("usage: benchdiff <baseline-dir> <candidate-dir> \
             [--threshold 0.10] [--fail-on-regression]"
            .into());
    }
    Ok(Args {
        baseline: PathBuf::from(&pos[0]),
        candidate: PathBuf::from(&pos[1]),
        threshold,
        fail_on_regression,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "benchdiff: {} → {} (threshold {:.0}%)",
        args.baseline.display(),
        args.candidate.display(),
        args.threshold * 100.0
    );

    let base_files = json_files(&args.baseline);
    let cand_names: std::collections::BTreeSet<String> = json_files(&args.candidate)
        .iter()
        .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .collect();

    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut changes = 0usize;
    let mut compared = 0usize;

    for base_path in &base_files {
        let name = base_path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .into_owned();
        if !cand_names.contains(&name) {
            println!("  {name}: only in baseline (skipped)");
            continue;
        }
        let cand_path = args.candidate.join(&name);
        let (base, cand) = match (load_metrics(base_path), load_metrics(&cand_path)) {
            (Ok(b), Ok(c)) => (b, c),
            (Err(e), _) | (_, Err(e)) => {
                println!("  {name}: unreadable ({e})");
                continue;
            }
        };
        let mut printed_header = false;
        for (key, &b) in &base {
            let Some(&c) = cand.get(key) else { continue };
            compared += 1;
            // Relative change against the baseline magnitude; a zero
            // baseline reports only when the candidate moved off it.
            let rel = if b != 0.0 {
                (c - b) / b.abs()
            } else if c != 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            if rel.abs() <= args.threshold {
                continue;
            }
            let verdict = match direction_of(key) {
                Direction::HigherIsBetter if rel < 0.0 => "REGRESSION",
                Direction::LowerIsBetter if rel > 0.0 => "REGRESSION",
                Direction::Neutral => "change",
                // Lint rule L005 fails CI on these until the key joins
                // the table; report, never gate.
                Direction::Unknown => "change (NO DIRECTION)",
                _ => "improvement",
            };
            match verdict {
                "REGRESSION" => regressions += 1,
                "improvement" => improvements += 1,
                _ => changes += 1,
            }
            if !printed_header {
                println!("  {name}:");
                printed_header = true;
            }
            println!(
                "    {verdict:<11} {key}: {b:.4} → {c:.4} ({rel:+.1}%)",
                rel = rel * 100.0
            );
        }
        let missing = base.keys().filter(|k| !cand.contains_key(*k)).count();
        let added = cand.keys().filter(|k| !base.contains_key(*k)).count();
        if missing + added > 0 {
            if !printed_header {
                println!("  {name}:");
            }
            println!("    metrics: {missing} removed, {added} added");
        }
    }
    for name in &cand_names {
        if !base_files
            .iter()
            .any(|p| p.file_name().is_some_and(|n| n.to_string_lossy() == *name))
        {
            println!("  {name}: only in candidate (skipped)");
        }
    }

    println!(
        "compared {compared} metrics: {regressions} regressions, \
         {improvements} improvements, {changes} neutral changes beyond threshold"
    );
    if args.fail_on_regression && regressions > 0 {
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_for_elasticity_metrics() {
        // Queue-depth and time-to-first-tuple count down: a drop is an
        // improvement, not a regression.
        for key in [
            "elastic.json :: preplacement.results.preplace/on.time_to_first_tuple_intervals",
            "elastic.json :: preplacement.ttft_preplace_intervals",
            "some.queue_depth_p99",
            "rows.w4.max_queue_tuples",
            "modeled_backlog_tuples",
        ] {
            assert_eq!(
                direction_of(key),
                Direction::LowerIsBetter,
                "{key} must count down"
            );
        }
    }

    #[test]
    fn directions_for_table_maintenance_metrics() {
        // The routing bench's mutation-latency rows count down: a faster
        // rebuild or delta apply is an improvement.
        for key in [
            "routing.json :: results.rebuild/3000000.ns_per_key",
            "routing.json :: results.apply_delta/300000.mean_ns",
            "routing.json :: results.batched_hit/3000.ns_per_key",
            "mutation_wall_time",
        ] {
            assert_eq!(
                direction_of(key),
                Direction::LowerIsBetter,
                "{key} must count down"
            );
        }
        // The derived speedups count up — "speedup" wins even though the
        // key also names the down-counting rows it derives from.
        for key in [
            "mutation_speedup_delta_vs_rebuild.300000",
            "prefetch_speedup_batched_vs_scalar.hit/3000000",
        ] {
            assert_eq!(
                direction_of(key),
                Direction::HigherIsBetter,
                "{key} must count up"
            );
        }
    }

    #[test]
    fn directions_for_legacy_families() {
        // The existing up/down families keep their directions.
        assert_eq!(
            direction_of("results.static/w8.mean_tuples_per_sec"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("peak_ratio_threshold_vs_static8"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_of("worker_seconds"), Direction::LowerIsBetter);
        assert_eq!(direction_of("scale_events.0.from"), Direction::Neutral);
    }
}
