//! Split bench: hot-key splitting vs whole-key migration on a
//! single-dominant-key burst.
//!
//! The scenario is the skew taxonomy's scenario B, generated by
//! `ChurnWorkload::with_dominant_burst`: one key carries `DOM_SHARE` of
//! every burst interval's volume — more than one worker's fair share,
//! so **no whole-key placement can reach θmax**: migration can strip
//! every other key off the hot worker and the dominant key alone still
//! pins it above the imbalance bound. Two engine runs on a
//! byte-identical tuple feed:
//!
//! * **migration-only** — the Mixed balancer with no split policy. It
//!   keeps rebalancing (and paying migrations) but stays stuck above
//!   θmax for the whole burst window. Measured: per-interval θ from the
//!   flight recorder's controller snapshots, throughput, migration
//!   volume.
//! * **split-enabled** — the same balancer plus `HotKeyPolicy`: the
//!   burst key is salted across all four workers after one hot
//!   interval, ridden until the burst ends, then consolidated back.
//!   Measured: the same θ series (the settled burst tail must return
//!   within θmax), throughput (must hold ≥0.9× the unsplit run — the
//!   merge plane is not allowed to eat the win), split/unsplit event
//!   and span counts.
//!
//! Both runs must be lossless with exact per-key merged counts — the
//! dominant key's replica partials (partial-emission mode) reunify in
//! the merge stage, and its total must equal the fed count to the
//! tuple.
//!
//! Results land in `bench_results/split.json` (`--test` smoke runs
//! shrink the workload, force the split cycle through a
//! `FixedSplitSchedule` instead of the watermark policy, skip the
//! θ gates — both are meaningless when the run outpaces the statistics
//! rounds — and write `split.smoke.json`); the split run's
//! flight-recorder trace is exported as `traces/split.trace.{jsonl,json}`
//! (smoke: untracked `.smoke.` variants) so `tracecat` can attribute
//! the burst intervals' shape to the split/unsplit spans.

use std::collections::BTreeMap;

use streambal_bench::figure::write_trace;
use streambal_bench::json::{write_json, Json};
use streambal_bench::{mixed_balancer, reference_counts};
use streambal_core::Key;
use streambal_elastic::{FixedSplitSchedule, HotKeyPolicy, SplitPolicy};
use streambal_hashring::FxHashMap;
use streambal_runtime::{replay, Engine, EngineConfig, EngineReport, Operator, WordCountOp};
use streambal_trace::{EventKind, OpLabel};
use streambal_workloads::ChurnWorkload;

const N_WORKERS: usize = 4;
/// Churn-domain size; the dominant key sits outside it.
const KEYS: usize = 2_000;
/// Churning hot keys per interval and their (small) share: enough to
/// keep the balancer honest, not enough to obscure the dominant key.
const HOT_N: usize = 40;
const HOT_SHARE: f64 = 0.1;
/// The dominant key's share of every burst interval — 0.6 of total
/// volume against a 0.25 fair share: unreachable for whole-key moves.
const DOM_SHARE: f64 = 0.6;
const SEED: u64 = 4242;
const INTERVALS: usize = 10;
const BURST_FROM: u64 = 3;
const BURST_UNTIL: u64 = 8;
/// Burst intervals after the split has installed and the balancer has
/// re-settled the background: where θ must be back within θmax.
const SETTLED_FROM: u64 = BURST_FROM + 2;
const SPIN: u32 = 30;
const THETA_MAX: f64 = 0.08;

fn make_intervals(tuples: u64) -> (Vec<Vec<Key>>, Key) {
    let dom = Key(KEYS as u64 + 7);
    let mut w = ChurnWorkload::new(KEYS, tuples, HOT_N, HOT_SHARE, SEED).with_dominant_burst(
        dom,
        DOM_SHARE,
        BURST_FROM,
        BURST_UNTIL,
    );
    let intervals = (0..INTERVALS)
        .map(|i| {
            if i > 0 {
                w.advance();
            }
            w.tuples()
        })
        .collect();
    (intervals, dom)
}

fn run_once(label: &str, config: EngineConfig, intervals: &[Vec<Key>]) -> EngineReport {
    let report = Engine::run(
        config,
        mixed_balancer(N_WORKERS, THETA_MAX),
        |_| Box::new(WordCountOp::new()),
        replay(intervals),
        None,
    );
    assert!(
        report.protocol_errors.is_empty(),
        "{label}: protocol errors: {:?}",
        report.protocol_errors
    );
    assert!(report.lost_tuples.is_empty(), "{label}: healthy run lost");
    report
}

/// Exact merged accounting: per key, the shutdown state (replica
/// partials summed across workers) equals the fed count.
fn assert_exact(label: &str, report: &EngineReport, expect: &FxHashMap<Key, u64>) {
    let mut got: FxHashMap<Key, u64> = FxHashMap::default();
    let op = WordCountOp::new();
    for (k, blob) in &report.final_states {
        *got.entry(*k).or_insert(0) += op.tuples_in_blob(blob);
    }
    for (k, &e) in expect {
        let g = got.get(k).copied().unwrap_or(0);
        assert_eq!(g, e, "{label}: key {k:?} diverged: fed {e}, got {g}");
    }
}

/// Per-interval θ (`max load / mean load − 1`) from the controller's
/// flight-recorder snapshots, element-wise summed when an interval
/// closes over several statistics rounds.
fn interval_thetas(report: &EngineReport) -> BTreeMap<u64, f64> {
    let mut per: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for e in &report.trace.events {
        if let EventKind::Snapshot {
            interval, loads, ..
        } = &e.kind
        {
            let slot = per.entry(*interval).or_default();
            if slot.len() < loads.len() {
                slot.resize(loads.len(), 0);
            }
            for (i, &l) in loads.iter().enumerate() {
                slot[i] += l;
            }
        }
    }
    per.into_iter()
        .filter_map(|(iv, loads)| {
            let total: u64 = loads.iter().sum();
            if total == 0 || loads.is_empty() {
                return None;
            }
            let mean = total as f64 / loads.len() as f64;
            let max = loads.iter().copied().max().unwrap_or(0) as f64;
            Some((iv, max / mean - 1.0))
        })
        .collect()
}

/// θ values within `[from, until)`, in interval order.
fn window(thetas: &BTreeMap<u64, f64>, from: u64, until: u64) -> Vec<f64> {
    thetas
        .range(from..until)
        .map(|(_, &t)| t)
        .collect::<Vec<_>>()
}

fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn theta_series_json(thetas: &BTreeMap<u64, f64>) -> Json {
    Json::Arr(
        thetas
            .iter()
            .map(|(&iv, &t)| Json::obj([("interval", Json::Int(iv)), ("theta", Json::Num(t))]))
            .collect(),
    )
}

fn span_count(report: &EngineReport, op: OpLabel) -> u64 {
    report
        .trace
        .span_summaries()
        .iter()
        .filter(|s| s.op == op)
        .count() as u64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (tuples, reps) = if smoke { (5_000, 1) } else { (20_000, 3) };
    let (intervals, dom) = make_intervals(tuples);
    let expect = reference_counts(&intervals);
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    // A worker's fair share of one interval's cost; the policy's high
    // watermark lands at 0.125 of total interval cost, so the 0.6-share
    // dominant key demands ⌈0.6/0.125⌉ → all 4 replica slots.
    let interval_cost = tuples as f64 * (SPIN as f64 + 1.0);
    let capacity = 0.15 * interval_cost;
    println!(
        "split: churn + dominant-key burst (share {DOM_SHARE}, intervals \
         {BURST_FROM}..{BURST_UNTIL}), {total} tuples/run, {N_WORKERS} workers, \
         spin {SPIN}, {reps} reps"
    );

    let base_config = || EngineConfig {
        n_workers: N_WORKERS,
        max_workers: N_WORKERS,
        spin_work: SPIN,
        window: 100, // retain all state: exact merged accounting
        ..EngineConfig::default()
    };

    // --- migration-only: stuck above θmax ------------------------------
    let migration = (0..reps)
        .map(|_| run_once("split/migration-only", base_config(), &intervals))
        .max_by(|a, b| a.mean_throughput.total_cmp(&b.mean_throughput))
        .expect("reps >= 1");
    assert_eq!(migration.processed, total);
    assert_exact("split/migration-only", &migration, &expect);
    assert!(migration.split_events.is_empty(), "no policy, no splits");
    let mig_thetas = interval_thetas(&migration);
    let mig_burst = window(&mig_thetas, BURST_FROM, BURST_UNTIL);
    let mig_theta_min = min_of(&mig_burst);
    // Every θ gate is full-run-only: at smoke scale the run outpaces
    // the statistics rounds and the per-interval θ signal is noise.
    if !smoke {
        assert!(
            mig_burst.iter().all(|&t| t > THETA_MAX),
            "whole-key migration must stay pinned above θmax across the \
             burst: {mig_burst:?}"
        );
    }

    // --- split-enabled: rides the burst --------------------------------
    let split_config = || {
        let policy: Box<dyn SplitPolicy> = if smoke {
            // The smoke timeline is too compressed for the watermark
            // policy to see clean statistics rounds, so smoke forces the
            // same cycle through a fixed schedule — interval-keyed
            // decisions are deterministic under statistics-round blur
            // (the elasticity replay tests pin that property).
            Box::new(FixedSplitSchedule::cycle(
                dom.raw(),
                N_WORKERS,
                BURST_FROM,
                BURST_UNTIL,
            ))
        } else {
            // Two consecutive hot rounds before acting: the first hot
            // round can straddle the burst boundary, and its diluted
            // share would under-size the split. The second round is
            // interior to the burst, so share-based sizing sees the
            // true dominant share no matter how the statistics rounds
            // land on the interval grid.
            let mut p = HotKeyPolicy::new(capacity);
            p.up_after = 2;
            Box::new(p)
        };
        EngineConfig {
            split: Some(policy),
            ..base_config()
        }
    };
    let split = (0..reps)
        .map(|_| run_once("split/split-enabled", split_config(), &intervals))
        .max_by(|a, b| a.mean_throughput.total_cmp(&b.mean_throughput))
        .expect("reps >= 1");
    assert_eq!(split.processed, total);
    assert_exact("split/split-enabled", &split, &expect);
    let splits = split.split_events.iter().filter(|e| e.to > e.from).count() as u64;
    let unsplits = split.split_events.iter().filter(|e| e.to < e.from).count() as u64;
    assert!(splits >= 1, "the burst must trigger a split");
    assert!(unsplits >= 1, "the cooled key must consolidate");
    assert!(
        split.split_events.iter().any(|e| e.key == dom.raw()),
        "the dominant key must be the one split: {:?}",
        split.split_events
    );
    let split_thetas = interval_thetas(&split);
    let settled = window(&split_thetas, SETTLED_FROM, BURST_UNTIL);
    let settled_min = min_of(&settled);
    if !smoke {
        assert!(
            settled_min <= THETA_MAX,
            "split run must return within θmax in the settled burst \
             tail: {settled:?}"
        );
        assert!(
            settled_min < mig_theta_min / 2.0,
            "splitting must at least halve the best burst imbalance: \
             split {settled_min:.3} vs migration {mig_theta_min:.3}"
        );
    }

    let ratio = split.mean_throughput / migration.mean_throughput;
    if !smoke {
        assert!(
            ratio >= 0.9,
            "split run must hold ≥0.9× the unsplit throughput: {ratio:.3}"
        );
    }
    println!(
        "  migration-only  mean {:>9.0} t/s  burst θ min {mig_theta_min:.3} \
         (pinned > {THETA_MAX})",
        migration.mean_throughput
    );
    println!(
        "  split-enabled   mean {:>9.0} t/s  settled θ min {settled_min:.3}  \
         ratio {ratio:.3}  splits {splits}  unsplits {unsplits}",
        split.mean_throughput
    );

    write_trace("split", smoke, &split.trace);

    let doc = Json::obj([
        ("bench", Json::str("split")),
        ("workload", Json::str("churn + dominant-key burst")),
        ("tuples_per_interval", Json::Int(tuples)),
        ("n_workers", Json::Int(N_WORKERS as u64)),
        ("spin_work", Json::Int(SPIN as u64)),
        ("dominant_share", Json::Num(DOM_SHARE)),
        ("burst_from_interval", Json::Int(BURST_FROM)),
        ("burst_until_interval", Json::Int(BURST_UNTIL)),
        ("theta_max", Json::Num(THETA_MAX)),
        ("policy_capacity", Json::Num(capacity)),
        (
            "split_policy",
            Json::str(if smoke { "fixed-split" } else { "hotkey" }),
        ),
        ("smoke", Json::Bool(smoke)),
        ("reps", Json::Int(reps as u64)),
        (
            "migration_only",
            Json::obj([
                (
                    "mean_tuples_per_sec",
                    Json::higher(Json::Num(migration.mean_throughput)),
                ),
                (
                    // min over the burst window: the *best* interval is
                    // still above θmax — the pinned-above claim.
                    "burst_theta_excess_min",
                    Json::lower(Json::Num(mig_theta_min - THETA_MAX)),
                ),
                ("theta_by_interval", theta_series_json(&mig_thetas)),
                ("rebalances", Json::Int(migration.rebalances as u64)),
                (
                    "migrated_keys",
                    Json::lower(Json::Int(migration.migrated_keys)),
                ),
            ]),
        ),
        (
            "split_enabled",
            Json::obj([
                (
                    "merged_throughput_tuples_per_sec",
                    Json::higher(Json::Num(split.mean_throughput)),
                ),
                (
                    // max/mean − 1 over the settled burst tail; ≤ θmax
                    // is the rides-the-burst claim.
                    "settled_worker_imbalance",
                    Json::lower(Json::Num(settled_min)),
                ),
                (
                    "settled_theta_excess",
                    Json::lower(Json::Num(settled_min - THETA_MAX)),
                ),
                ("theta_by_interval", theta_series_json(&split_thetas)),
                ("splits", Json::Int(splits)),
                ("unsplits", Json::Int(unsplits)),
                ("split_spans", Json::Int(span_count(&split, OpLabel::Split))),
                (
                    "unsplit_spans",
                    Json::Int(span_count(&split, OpLabel::Unsplit)),
                ),
                ("rebalances", Json::Int(split.rebalances as u64)),
                ("migrated_keys", Json::lower(Json::Int(split.migrated_keys))),
            ]),
        ),
        ("split_throughput_ratio", Json::higher(Json::Num(ratio))),
        ("fed_tuples", Json::Int(total)),
    ]);
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "split.smoke.json"
    } else {
        "split.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
