//! θ-gap bench: where a drifting stream's imbalance comes from, and what
//! reacting inside the interval buys back (ROADMAP item 1(a)).
//!
//! A saturated run's throughput is `ideal ÷ (1 + θ̄)` with `θ̄` the mean
//! `max/mean − 1` of the per-task load the intervals *ran* at. This bench
//! replays the benchmark's frozen `drift` instance — the paper's Tab. II
//! generator advanced against the static hash assignment, 32 distinct
//! intervals played back and forth — through `CoreBalancer`/Mixed with
//! `streambal_sim::replay_theta`, single-threaded and seeded, and splits
//! `θ̄` into its parts:
//!
//! * `clairvoyant` — LPT on each interval's *own* costs: what whole-key
//!   granularity leaves even with perfect knowledge (of one plan per
//!   interval: at z = 2 a plan landing mid-interval time-shares the
//!   dominant key and dips under it);
//! * `stale_ideal` — the paper's controller (plan to θmax on the previous
//!   interval's costs), plans effective instantly;
//! * `stale` — the same with the engine's reaction lag ([`LAG`]);
//! * `settle` — plans stop at θmax/4 instead of on θmax (DESIGN.md §4);
//! * `early` — the paper's plans plus provisional rounds (DESIGN.md §5);
//! * `both` — what the engine runs.
//!
//! The grid is z ∈ {0, 0.85, 1.2, 2.0} × f ∈ {0, 0.25, 0.5, 1.0} — a curve
//! over skew and fluctuation, not a point — and at the benchmark's own
//! cell (z = 0.85, f = 1.0) two sweeps justify the constants the engine
//! hard-codes: the alert floor (`streambal_core::SKEW_ALERT_FLOOR`) and
//! the sample the source waits for before it may alert.
//!
//! A `burst` section replays the benchmark's frozen `burst` instance — a
//! key at 0.6 of the volume, heavier than any whole-key plan can place —
//! with `HotKeyPolicy` beside the planner: `split_closing` (only a
//! closing round may split), `split_early` (a provisional round may too,
//! DESIGN.md §6) and `split_clairvoyant` (every key above `Lmax` cut into
//! the fewest equal pieces under it, LPT over the pieces), over the
//! burst's first two intervals — the reaction — and the whole burst.
//!
//! Results land in `bench_results/theta_gap.json`; `--test` runs a small
//! instance on a 2 × 2 grid and writes `theta_gap.smoke.json`. Both
//! assert, per cell, that `stale_ideal` does not beat the clairvoyant plan
//! and that `both` beats `stale` wherever the stream drifts (f ≥ 0.5),
//! and on `burst` that `split_clairvoyant` ≤ `split_early` <
//! `split_closing`.

use streambal_baselines::CoreBalancer;
use streambal_bench::json::{write_json, Json};
use streambal_core::simple::simple_assign;
use streambal_core::{
    AssignmentFn, BalanceParams, IntervalStats, Key, KeyRecord, RebalanceStrategy, TaskId,
    TriggerPolicy, SKEW_ALERT_FLOOR, SKEW_ALERT_MIN_SHARE,
};
use streambal_elastic::{HotKeyPolicy, SplitPolicy};
use streambal_sim::{replay_theta, EarlyRounds, Reaction, ThetaReplay};
use streambal_workloads::{ChurnWorkload, FluctuatingWorkload};

const N_TASKS: usize = 4;
const WINDOW: usize = 5;
/// The benchmark's `STRUCTURE_SEED`: the same frozen instance.
const SEED: u64 = 42;
/// Statistics cut → plan in force, as a share of an interval: marker
/// drain ≈ 10 ms + plan ≈ 4 ms + pause ≈ 13 ms on `drift`'s 140–270 ms
/// intervals.
const LAG: f64 = 0.1;

struct Shape {
    keys: usize,
    tuples: u64,
    distinct: usize,
    intervals: usize,
    warmup: usize,
}

/// The instance: `distinct` generator steps against the static hash
/// assignment, played back and forth over `intervals` run intervals.
fn instance(shape: &Shape, z: f64, f: f64) -> Vec<IntervalStats> {
    let hash = AssignmentFn::hash_only(N_TASKS);
    let mut g = FluctuatingWorkload::new(shape.keys, z, shape.tuples, f, SEED);
    let steps: Vec<IntervalStats> = (0..shape.distinct)
        .map(|i| {
            if i > 0 {
                g.advance(N_TASKS, |k| hash.route(k));
            }
            g.interval_stats()
        })
        .collect();
    let d = steps.len();
    (0..shape.intervals)
        .map(|i| {
            let p = i % (2 * (d - 1));
            steps[if p < d { p } else { 2 * (d - 1) - p }].clone()
        })
        .collect()
}

/// `max/mean − 1` of LPT on each interval's own costs — with `cut`, after
/// every key above `Lmax` is cut into the fewest equal pieces under it.
fn clairvoyant(intervals: &[IntervalStats], cut: bool) -> Vec<f64> {
    let theta_max = BalanceParams::default().theta_max;
    intervals
        .iter()
        .map(|stats| {
            let l_max = (1.0 + theta_max) * stats.total_cost() as f64 / N_TASKS as f64;
            let mut records: Vec<KeyRecord> = Vec::with_capacity(stats.len());
            for (key, s) in stats.iter() {
                let fit = (s.cost as f64 / l_max).ceil().max(1.0) as u64;
                let pieces = if cut { fit } else { 1 };
                records.extend((0..pieces).map(|j| KeyRecord {
                    key,
                    cost: s.cost / pieces + u64::from(j < s.cost % pieces),
                    mem: s.mem,
                    current: TaskId(0),
                    hash_dest: TaskId(0),
                }));
            }
            let mut loads = [0u64; N_TASKS];
            for (r, d) in records.iter().zip(simple_assign(&records, N_TASKS)) {
                loads[d.index()] += r.cost;
            }
            let mean = loads.iter().sum::<u64>() as f64 / N_TASKS as f64;
            loads.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0) - 1.0
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn replay(
    intervals: &[IntervalStats],
    trigger: TriggerPolicy,
    lag: f64,
    early: Option<EarlyRounds>,
    split: Option<&mut dyn SplitPolicy>,
) -> ThetaReplay {
    let mut p = CoreBalancer::new(
        N_TASKS,
        WINDOW,
        RebalanceStrategy::Mixed,
        BalanceParams::default(),
    )
    .with_trigger_policy(trigger);
    replay_theta(&mut p, split, intervals, &Reaction { lag, early }, SEED)
}

fn row(r: &ThetaReplay, from: usize) -> Vec<(&'static str, Json)> {
    let theta = r.mean_theta(from);
    vec![
        ("run_imbalance", Json::Num(theta)),
        ("ideal_throughput_ratio", Json::Num(1.0 / (1.0 + theta))),
        ("rebalances", Json::Int(r.rebalances as u64)),
        ("early_fired", Json::Int(r.early_fired as u64)),
        ("early_planned", Json::Int(r.early_planned as u64)),
        ("migrated_bytes", Json::Int(r.migrated_bytes)),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let shape = if smoke {
        Shape {
            keys: 2_000,
            tuples: 20_000,
            distinct: 8,
            intervals: 16,
            warmup: 2,
        }
    } else {
        Shape {
            keys: 20_000,
            tuples: 50_000,
            distinct: 32,
            intervals: 64,
            warmup: 6,
        }
    };
    let (zs, fs): (&[f64], &[f64]) = if smoke {
        (&[0.85, 2.0], &[0.0, 1.0])
    } else {
        (&[0.0, 0.85, 1.2, 2.0], &[0.0, 0.25, 0.5, 1.0])
    };
    let alert = EarlyRounds {
        sample: SKEW_ALERT_MIN_SHARE,
        floor: SKEW_ALERT_FLOOR,
        split: true,
    };
    let (paper, settling) = (TriggerPolicy::paper(), TriggerPolicy::default());
    println!(
        "theta_gap: mean max/mean − 1 over {} intervals, K = {}, {N_TASKS} tasks, lag {LAG}",
        shape.intervals - shape.warmup,
        shape.keys
    );
    println!(
        "  {:>5} {:>5} {:>11} {:>11} {:>8} {:>8} {:>8} {:>8}",
        "z", "f", "clairvoyant", "stale_ideal", "stale", "settle", "early", "both"
    );
    let mut grid = Vec::new();
    for &z in zs {
        for &f in fs {
            let intervals = instance(&shape, z, f);
            let lpt = mean(&clairvoyant(&intervals[shape.warmup..], false));
            let variants = [
                ("stale_ideal", replay(&intervals, paper, 0.0, None, None)),
                ("stale", replay(&intervals, paper, LAG, None, None)),
                ("settle", replay(&intervals, settling, LAG, None, None)),
                ("early", replay(&intervals, paper, LAG, Some(alert), None)),
                ("both", replay(&intervals, settling, LAG, Some(alert), None)),
            ];
            let t: Vec<f64> = variants
                .iter()
                .map(|(_, r)| r.mean_theta(shape.warmup))
                .collect();
            println!(
                "  {z:>5} {f:>5} {lpt:>11.4} {:>11.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
                t[0], t[1], t[2], t[3], t[4]
            );
            // What the decomposition rests on: a boundary plan in force
            // for the whole interval cannot beat perfect knowledge (a plan
            // that lands mid-interval can, at z = 2 — it time-shares the
            // dominant key between two tasks), and where the stream
            // drifts, reacting inside the interval beats planning on its
            // boundary.
            assert!(
                t[0] >= lpt - 1e-9,
                "z={z} f={f}: stale_ideal {} beat the clairvoyant plan {lpt}",
                t[0]
            );
            assert!(
                f < 0.5 || t[4] < t[1],
                "z={z} f={f}: both {} !< stale {}",
                t[4],
                t[1]
            );
            let mut fields = vec![
                ("name", Json::str(format!("z{z}/f{f}"))),
                ("zipf_z", Json::Num(z)),
                ("fluctuation_f", Json::Num(f)),
                (
                    "clairvoyant",
                    Json::obj([("run_imbalance", Json::Num(lpt))]),
                ),
            ];
            fields.extend(
                variants
                    .iter()
                    .map(|(name, r)| (*name, Json::obj(row(r, shape.warmup)))),
            );
            grid.push(Json::obj(fields));
        }
    }

    // The two constants, at the benchmark's own cell.
    let drift = instance(&shape, 0.85, 1.0);
    let sweep = |name: String, early: EarlyRounds| {
        let r = replay(&drift, settling, LAG, Some(early), None);
        println!(
            "    {name:<14} θ̄ {:.4}  fired {:>2}  planned {:>2}  rebalances {:>2}",
            r.mean_theta(shape.warmup),
            r.early_fired,
            r.early_planned,
            r.rebalances
        );
        let mut fields = vec![("name", Json::str(name))];
        fields.extend(row(&r, shape.warmup));
        Json::obj(fields)
    };
    println!("\n  alert floor (z = 0.85, f = 1.0, sample {SKEW_ALERT_MIN_SHARE}):");
    let floors: Vec<Json> = [0.04, SKEW_ALERT_FLOOR, 0.16, 0.24, 0.4, 0.8]
        .into_iter()
        .map(|floor| sweep(format!("floor{floor}"), EarlyRounds { floor, ..alert }))
        .collect();
    println!("\n  sample before the alert (floor {SKEW_ALERT_FLOOR}):");
    let samples: Vec<Json> = [64.0, 32.0, 16.0, 8.0, 4.0]
        .into_iter()
        .map(|inv: f64| {
            let sample = 1.0 / inv;
            sweep(format!("sample1/{inv}"), EarlyRounds { sample, ..alert })
        })
        .collect();

    // The benchmark's `burst` input; 48 intervals is its 12-second open
    // run, and 25 000 its policy's capacity (tuples a paced worker
    // sustains per interval).
    let n = if smoke { 16 } else { 48 };
    let (from, until) = (n / 4, n * 3 / 4);
    let mut g = ChurnWorkload::new(2_000, 75_000, 40, 0.1, SEED).with_dominant_burst(
        Key(2_000),
        0.6,
        from as u64,
        until as u64,
    );
    let mut burst = vec![g.interval_stats()];
    for _ in 1..n {
        g.advance();
        burst.push(g.interval_stats());
    }
    let split_run = |split: bool| {
        let early = EarlyRounds { split, ..alert };
        let mut hot = HotKeyPolicy::new(25_000.0);
        replay(&burst, settling, LAG, Some(early), Some(&mut hot))
    };
    let (closing, early) = (split_run(false), split_run(true));
    assert_eq!(closing.split_events, early.split_events, "same splits");
    let columns = [
        ("split_closing", closing.theta),
        ("split_early", early.theta),
        ("split_clairvoyant", clairvoyant(&burst, true)),
    ];
    println!("\n  burst (0.6-share key over intervals {from}..{until}): θ̄ first two, whole");
    let whole: Vec<f64> = columns
        .iter()
        .map(|(_, theta)| mean(&theta[from..until]))
        .collect();
    assert!(
        whole[2] <= whole[1] && whole[1] < whole[0],
        "burst: clairvoyant ≤ early < closing violated: {whole:?}"
    );
    let burst_rows = columns.iter().zip(&whole).map(|((name, theta), &whole)| {
        let head = mean(&theta[from..from + 2]);
        println!("    {name:<18} {head:.4} {whole:.4}");
        let row = [("head_imbalance", head), ("burst_imbalance", whole)];
        (*name, Json::obj(row.map(|(k, v)| (k, Json::Num(v)))))
    });
    let burst_doc = Json::obj(burst_rows.collect::<Vec<_>>());

    let doc = Json::obj([
        ("bench", Json::str("theta_gap")),
        ("n_tasks", Json::Int(N_TASKS as u64)),
        ("window_intervals", Json::Int(WINDOW as u64)),
        ("keys", Json::Int(shape.keys as u64)),
        ("tuples_per_interval", Json::Int(shape.tuples)),
        (
            "measured_intervals",
            Json::Int((shape.intervals - shape.warmup) as u64),
        ),
        ("theta_max", Json::Num(BalanceParams::default().theta_max)),
        ("reaction_lag_share", Json::Num(LAG)),
        ("alert_sample_share", Json::Num(SKEW_ALERT_MIN_SHARE)),
        ("alert_floor", Json::Num(SKEW_ALERT_FLOOR)),
        ("smoke", Json::Bool(smoke)),
        ("grid", Json::Arr(grid)),
        ("floor_sweep", Json::Arr(floors)),
        ("sample_sweep", Json::Arr(samples)),
        ("burst", burst_doc),
    ]);
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "theta_gap.smoke.json"
    } else {
        "theta_gap.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
