//! The metric-direction table: which way "better" points for every
//! metric key in `bench_results/`.
//!
//! `benchdiff` classifies a delta as regression or improvement by the
//! metric's direction, inferred from its (dotted, file-qualified) key.
//! This used to be a private heuristic inside the binary, which meant an
//! unknown key silently compared as directionless — a renamed throughput
//! metric would stop gating regressions without anyone noticing. The
//! table is now public so `streambal-lint` (rule L005) can enforce the
//! closed-world property: **every numeric key committed under
//! `bench_results/` must classify as something other than
//! [`Direction::Unknown`]** — either a real direction or an explicit
//! [`Direction::Neutral`] (configuration echoes, figure rows, trajectory
//! facts).
//!
//! Precedence is positional: [`UP_PATTERNS`] are checked first, then
//! [`DOWN_PATTERNS`], then [`NEUTRAL_PATTERNS`] — so a derived
//! `rebuild_speedup` key counts up even though `rebuild` alone counts
//! down, and `worker_seconds` counts down even though bare `workers` is
//! a neutral shape echo. Matching is case-insensitive substring over the
//! full flattened key (`file :: path.to.metric` included), so a pattern
//! can anchor on any path segment.

use std::collections::BTreeMap;

use crate::json::Json;

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, speedups, ratios).
    HigherIsBetter,
    /// Smaller is better (latency, wall time, migration cost, queues).
    LowerIsBetter,
    /// Declared directionless: configuration echoes, figure-table rows,
    /// and trajectory facts. Reported on change, never a regression.
    Neutral,
    /// Not in the table at all. `benchdiff` reports these like
    /// [`Direction::Neutral`]; lint rule L005 makes them a hard error so
    /// the table stays closed over the committed result files.
    Unknown,
}

/// Substring patterns for higher-is-better metrics (checked first).
pub const UP_PATTERNS: &[&str] = &[
    "throughput",
    "per_sec",
    "per_s",
    "speedup",
    "tuples_s",
    // Underscore-anchored so the quotient metrics ("*_ratio",
    // "ratio_*_vs_*") match but "migration" — which contains "ratio" as
    // a bare substring — does not drag its whole metric group up.
    "_ratio",
    "ratio_",
    // The pre-placement scenario's "is the new slot actually fed" count:
    // more tuples on the scaled-out worker is the whole point.
    "new_worker_tuples",
];

/// Substring patterns for lower-is-better metrics (checked second).
///
/// `queue`/`ttft`/`time_to_first` are the elasticity backpressure and
/// cold-start metrics: a shallower queue and a faster first tuple on a
/// scaled-out slot are improvements, and must not be flagged as
/// regressions when they drop. `rebuild`/`apply_delta`/`mutation` are
/// the routing bench's table-maintenance latency rows and `ns_per_key`
/// its per-key probe cost — all wall time, all count down. Their derived
/// `*_speedup_*` metrics hit [`UP_PATTERNS`] first, as intended.
pub const DOWN_PATTERNS: &[&str] = &[
    "latency",
    "_ns",
    "_ms",
    "_us",
    "seconds",
    "migrated",
    "gen_time",
    "mig_",
    "wall",
    "queue",
    "ttft",
    "time_to_first",
    "backlog",
    "rebuild",
    "apply_delta",
    "mutation",
    "ns_per_key",
    // Chaos-bench degradation metrics: fewer lost tuples, a shorter
    // recovery window, and a cheaper rollback are all improvements.
    // (`degraded_throughput_ratio` hits UP first via "ratio", as
    // intended — closer to the healthy baseline is better.)
    "lost",
    "recovery",
    "rollback",
    // Flight-recorder span metrics: a protocol op's disruption window —
    // and each phase inside it — is paused-traffic time; shorter is
    // better. (`trace_overhead_ratio` hits UP first via "ratio": the
    // recorder-on/off throughput quotient climbs toward 1.0 as the
    // recorder gets cheaper.)
    "disruption",
    "phase_",
    // Split-bench imbalance metrics: how far a run sits above θmax
    // (`*_theta_excess*`) and the settled worker imbalance itself both
    // count down — closer to balanced is better. Checked before the
    // neutral "theta" echo, so the derived excess keeps its direction.
    "excess",
    "imbalance",
    // Stats-round bench: heap the statistics window holds per live key.
    // (Its `*_end_interval_ms` timings count down via "_ms", ahead of the
    // neutral "interval" echo.)
    "bytes_per_live_key",
    // θ-gap bench: `run_imbalance` — the mean max/mean − 1 the intervals
    // ran at — counts down via "imbalance" above and `migrated_bytes` via
    // "migrated"; its `ideal_throughput_ratio` (1 ÷ (1 + θ̄)) hits UP
    // first via "throughput". Declared here because the file's own name
    // contains the neutral "theta", which would otherwise swallow them.
];

/// Substring patterns for declaredly directionless keys (checked last,
/// so a real direction anywhere in the key wins).
///
/// Three families:
/// * **configuration echoes** — the shape parameters a bench writes next
///   to its results so a JSON file is self-describing (`batch`, `reps`,
///   `workers`, `spin_work`, `zipf_z`, …). Comparing them across trees
///   only detects that the scenario changed, which is worth a "change"
///   line but can never be a regression;
/// * **figure-table rows** — the `figNN.json` ports of the paper's
///   figures (`tables.N.rows.<label>.values.M`). Their directions vary
///   per figure (a θ row counts down, a throughput row up) and the row
///   labels are display strings; they are tracked as diffable artifacts,
///   not gated metrics;
/// * **trajectory facts** — scale-event logs, worker-count extrema,
///   rebalance counts: facts about what a policy did, where "more" is
///   neither better nor worse without the scenario in hand.
pub const NEUTRAL_PATTERNS: &[&str] = &[
    // Configuration echoes.
    "batch",
    "reps",
    "workers",
    "samples",
    "spin",
    "zipf",
    "domain",
    "table_size",
    "capacity",
    "churn",
    "quiet",
    "schedule",
    "tuples_per",
    "n_tasks",
    "seed",
    "theta",
    // Figure-table rows.
    ".rows.",
    // Trajectory facts.
    "interval",
    "scale_events",
    "rebalances",
    // Chaos-ledger event counts: how many retries/aborts/absorptions a
    // fault plan provoked is a fact about the plan, not a quality
    // metric ("fault" also matches "default", which is equally
    // neutral). The *costs* of those events classify above: lost
    // tuples, recovery windows, and rollback overhead all count down.
    "fault",
    "abort",
    "retri",
    "absorb",
    "stall",
    "timed_out",
    "fed_tuples",
    // Flight-recorder span counts: how many protocol ops a run traced
    // (and how they closed) is a fact about the scenario; the spans'
    // *costs* classify above via "disruption"/"phase_".
    "span",
    // Hot-key-splitting trajectory facts and scenario shape: how many
    // split/unsplit cycles a policy ran is what it *did*, not how well
    // (the win shows up in the imbalance and throughput metrics above);
    // a burst window's bounds and the dominant key's volume share are
    // workload echoes. "split" also covers "unsplits" and the
    // "split_throughput_ratio" tail — the latter hits UP first, as
    // intended.
    "split",
    "burst",
    "dominant",
    "share",
    // Stats-round bench shape: keys reported per round, keys live in the
    // window, rounds measured.
    "keys_per_round",
    "live_keys",
    "rounds",
    // θ-gap bench trajectory facts and shape: how many provisional
    // rounds fired and planned is what the alert *did* (the win is in
    // `run_imbalance`); the fluctuation rate, the reaction lag and the
    // alert's sample share and floor are configuration echoes.
    "early_",
    "fluctuation",
    "reaction_lag",
    "alert_",
];

/// The direction for a flattened metric key, by positional pattern
/// precedence (up, then down, then neutral; no match ⇒ unknown).
pub fn direction_of(key: &str) -> Direction {
    let k = key.to_ascii_lowercase();
    if UP_PATTERNS.iter().any(|p| k.contains(p)) {
        return Direction::HigherIsBetter;
    }
    if DOWN_PATTERNS.iter().any(|p| k.contains(p)) {
        return Direction::LowerIsBetter;
    }
    if NEUTRAL_PATTERNS.iter().any(|p| k.contains(p)) {
        return Direction::Neutral;
    }
    Direction::Unknown
}

/// Flattens the numeric leaves of a parsed result document into dotted
/// keys — the key space [`direction_of`] classifies. Array elements are
/// keyed by their `id`/`name`/`label`/`bench` field when they carry one
/// (rows reorder across PRs, positions lie), by index otherwise.
pub fn flatten_metrics(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    flatten(doc, &mut String::new(), &mut out);
    out
}

fn flatten(v: &Json, path: &mut String, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(k);
                flatten(child, path, out);
                path.truncate(len);
            }
        }
        Json::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                let label = ["id", "name", "label", "bench"]
                    .iter()
                    .find_map(|f| child.get(f).and_then(Json::as_str).map(str::to_string))
                    .unwrap_or_else(|| i.to_string());
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(&label);
                flatten(child, path, out);
                path.truncate(len);
            }
        }
        _ => {
            if let Some(x) = v.as_f64() {
                out.insert(path.clone(), x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_directions_win_over_neutral_echoes() {
        // Quality metrics keep their direction even when the key also
        // contains a neutral pattern.
        assert_eq!(
            direction_of("results.batched/b256/w4.tuples_per_sec"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("elastic.json :: results.threshold/4..8.worker_seconds"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction_of("results.rebuild/300000.ns_per_key_speedup_vs_rebuild"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_of("preplacement.results.preplace/on.new_worker_tuples"),
            Direction::HigherIsBetter
        );
    }

    #[test]
    fn shape_echoes_and_trajectories_are_neutral() {
        for key in [
            "results.batched/b256/w4.batch",
            "results.planner/4..8.scale_events.3.from",
            "results.static/w8.workers_max",
            "tables.0.rows.Mixed θ=0.2.values.5",
            "volume_schedule.7",
            "zipf_z",
            "preplacement.decision_interval",
        ] {
            assert_eq!(direction_of(key), Direction::Neutral, "{key}");
        }
    }

    #[test]
    fn unknown_means_not_in_the_table() {
        assert_eq!(direction_of("entirely_new_metric"), Direction::Unknown);
    }

    #[test]
    fn flight_recorder_metrics_classify() {
        // The overhead quotient counts up (1.0 = free recorder); span
        // disruption windows and their phase breakdowns count down.
        assert_eq!(
            direction_of("engine.json :: trace_overhead_ratio"),
            Direction::HigherIsBetter
        );
        for key in [
            "chaos.json :: results.kill/w4.disruption_window_us",
            "spans.scale_in.phase_install_us",
            "spans.rebalance.phase_quiesce_wait_us",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
    }

    #[test]
    fn split_bench_metrics_classify() {
        // Split/unsplit cycle counts are trajectory facts; imbalance and
        // θ-excess count down; the merged throughput and the
        // split-vs-unsplit throughput quotient count up.
        for key in [
            "split.json :: split_enabled.splits",
            "split.json :: split_enabled.unsplits",
            "split.json :: dominant_share",
            "split.json :: burst_from_interval",
        ] {
            assert_eq!(direction_of(key), Direction::Neutral, "{key}");
        }
        for key in [
            "split.json :: split_enabled.settled_worker_imbalance",
            "split.json :: split_enabled.settled_theta_excess",
            "split.json :: migration_only.burst_theta_excess_min",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in [
            "split.json :: split_enabled.merged_throughput_tuples_per_sec",
            "split.json :: split_throughput_ratio",
        ] {
            assert_eq!(direction_of(key), Direction::HigherIsBetter, "{key}");
        }
    }

    #[test]
    fn stats_round_metrics_classify() {
        for key in [
            "stats_round.json :: sizes.k76000.Mixed.idle_end_interval_ms",
            "stats_round.json :: sizes.k76000.Readj.firing_end_interval_ms",
            "stats_round.json :: sizes.k76000.MinMig.window_bytes_per_live_key",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        for key in [
            "stats_round.json :: sizes.k76000.keys_per_round",
            "stats_round.json :: sizes.k76000.live_keys",
            "stats_round.json :: measured_rounds",
            "stats_round.json :: window_intervals",
        ] {
            assert_eq!(direction_of(key), Direction::Neutral, "{key}");
        }
    }

    #[test]
    fn theta_gap_metrics_classify() {
        for key in [
            "theta_gap.json :: grid.z0.85/f1.both.run_imbalance",
            "theta_gap.json :: grid.z0.85/f1.clairvoyant.run_imbalance",
            "theta_gap.json :: floor_sweep.floor0.4.migrated_bytes",
            "theta_gap.json :: burst.split_early.head_imbalance",
            "theta_gap.json :: burst.split_clairvoyant.burst_imbalance",
        ] {
            assert_eq!(direction_of(key), Direction::LowerIsBetter, "{key}");
        }
        assert_eq!(
            direction_of("theta_gap.json :: grid.z0.85/f1.both.ideal_throughput_ratio"),
            Direction::HigherIsBetter
        );
        for key in [
            "theta_gap.json :: grid.z0.85/f1.both.early_fired",
            "theta_gap.json :: sample_sweep.sample1/8.early_planned",
            "theta_gap.json :: grid.z0.85/f1.both.rebalances",
            "theta_gap.json :: grid.z0.85/f1.fluctuation_f",
            "theta_gap.json :: reaction_lag_share",
            "theta_gap.json :: alert_floor",
        ] {
            assert_eq!(direction_of(key), Direction::Neutral, "{key}");
        }
    }

    /// The closed-world property lint rule L005 enforces at CI time:
    /// every numeric key in every committed result file classifies.
    #[test]
    fn every_committed_key_classifies() {
        let dir = crate::figure::results_dir();
        let mut seen = 0usize;
        for entry in std::fs::read_dir(dir).expect("bench_results exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable file");
            let doc = Json::parse(&text).expect("parseable result file");
            let name = path.file_name().expect("file name").to_string_lossy();
            for key in flatten_metrics(&doc).keys() {
                seen += 1;
                assert_ne!(
                    direction_of(&format!("{name} :: {key}")),
                    Direction::Unknown,
                    "{name} :: {key} has no direction — add it to the table \
                     in crates/bench/src/direction.rs"
                );
            }
        }
        assert!(seen > 100, "committed results should have many metrics");
    }

    #[test]
    fn flatten_prefers_stable_labels_over_indices() {
        let doc = Json::parse(r#"{"rows": [{"id": "hash", "v": 1}, {"v": 2}], "x": 3.5}"#)
            .expect("parses");
        let m = flatten_metrics(&doc);
        assert_eq!(m.get("rows.hash.v"), Some(&1.0));
        assert_eq!(m.get("rows.1.v"), Some(&2.0));
        assert_eq!(m.get("x"), Some(&3.5));
    }
}
