//! Elasticity bench: θ-driven scale-out/scale-in against static
//! provisioning on a variance-heavy workload.
//!
//! The workload is the adversarial key-churn generator with a volume
//! burst: quiet intervals, a 4× burst, then a quiet tail — fresh hot keys
//! every interval, so neither the routing table nor the statistics
//! window can "learn" the burst away; only parallelism can absorb it.
//! Four deployments process byte-identical tuple sequences:
//!
//! * `static/w4` — 4 workers for the whole run (under-provisioned at the
//!   burst);
//! * `static/w8` — 8 workers for the whole run (provisioned for the
//!   peak, idle-ish otherwise);
//! * `threshold/4..8` — the hysteresis watermark policy, expected to
//!   re-provision 4→8 across the burst and retire back 8→4 after it;
//! * `planner/4..8` — the EWMA target planner on the same bounds.
//!
//! Reported per deployment: end-to-end and peak-interval throughput,
//! migration volume (rebalance keys/bytes *plus* scale-in retire volume),
//! worker-seconds (the provisioning cost), and the parallelism
//! trajectory. The acceptance numbers: the threshold policy's peak
//! throughput within 10% of `static/w8` while spending fewer
//! worker-seconds.
//!
//! A second scenario measures the **cold scale-out lag**: time-to-first-
//! tuple on a scaled-out slot whose state is pre-placed at provision
//! time — acceptance: ≤ 1 interval, against a damped rebalance trigger
//! that could not feed the slot for a full rebalance period.
//!
//! Results print as a table and land in `bench_results/elastic.json`
//! (`--test` smoke runs shrink the workload and write
//! `elastic.smoke.json` so noisy numbers never clobber the committed
//! trajectory).

use streambal_baselines::CoreBalancer;
use streambal_bench::json::{write_json, Json};
use streambal_core::{BalanceParams, Key, RebalanceStrategy, TriggerPolicy};
use streambal_elastic::{
    ElasticityPolicy, FixedSchedule, HoldPolicy, TargetPlanner, ThresholdPolicy,
};
use streambal_runtime::{replay, Engine, EngineConfig, EngineReport, WordCountOp};
use streambal_workloads::ChurnWorkload;

const SEED: u64 = 4242;
const SPIN: u32 = 500;
/// Volume multipliers per interval: quiet, 4× burst, quiet tail.
const SCHEDULE: [f64; 14] = [
    1.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
];
const MIN_W: usize = 4;
const MAX_W: usize = 8;

/// One measured deployment.
struct Shape {
    label: &'static str,
    n_workers: usize,
    max_workers: usize,
    policy: Box<dyn ElasticityPolicy>,
}

/// Per-task capacity (cost units per interval) the policies plan
/// against: sized so `MIN_W` workers absorb the quiet load with headroom
/// and the burst overloads anything below `MAX_W`.
fn capacity(quiet_tuples: u64) -> f64 {
    0.56 * quiet_tuples as f64 * (SPIN + 1) as f64
}

fn shapes(quiet_tuples: u64) -> Vec<Shape> {
    let cap = capacity(quiet_tuples);
    let mut threshold = ThresholdPolicy::new(cap, MIN_W, MAX_W);
    threshold.up_after = 1;
    threshold.down_after = 1;
    threshold.cooldown = 0;
    let mut planner = TargetPlanner::new(cap, MIN_W, MAX_W);
    planner.alpha = 0.6;
    planner.target_util = 0.75;
    vec![
        Shape {
            label: "static/w4",
            n_workers: MIN_W,
            max_workers: MIN_W,
            policy: Box::new(HoldPolicy),
        },
        Shape {
            label: "static/w8",
            n_workers: MAX_W,
            max_workers: MAX_W,
            policy: Box::new(HoldPolicy),
        },
        Shape {
            label: "threshold/4..8",
            n_workers: MIN_W,
            max_workers: MAX_W,
            policy: Box::new(threshold),
        },
        Shape {
            label: "planner/4..8",
            n_workers: MIN_W,
            max_workers: MAX_W,
            policy: Box::new(planner),
        },
    ]
}

/// Pre-generates the churn-burst tuple sequences, identical across
/// deployments.
fn make_intervals(quiet_tuples: u64, n_intervals: usize) -> Vec<Vec<Key>> {
    let mut w = ChurnWorkload::new(20_000, quiet_tuples, 64, 0.5, SEED)
        .with_volume_schedule(SCHEDULE.to_vec());
    let mut out = Vec::with_capacity(n_intervals);
    for i in 0..n_intervals {
        if i > 0 {
            w.advance();
        }
        out.push(w.tuples());
    }
    out
}

fn run_once(shape: &Shape, intervals: &[Vec<Key>]) -> EngineReport {
    let config = EngineConfig {
        n_workers: shape.n_workers,
        max_workers: shape.max_workers,
        spin_work: SPIN,
        window: 3,
        elasticity: shape.policy.clone(),
        ..EngineConfig::default()
    };
    let report = Engine::run(
        config,
        Box::new(CoreBalancer::new(
            shape.n_workers,
            3,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.2,
                ..BalanceParams::default()
            },
        )),
        |_| Box::new(WordCountOp::new()),
        replay(intervals),
        None,
    );
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(report.processed, total, "{}: tuples lost", shape.label);
    report
}

fn peak_interval_throughput(r: &EngineReport) -> f64 {
    r.interval_throughput
        .points()
        .iter()
        .map(|&(_, v)| v)
        .fold(0.0, f64::max)
}

/// The cold scale-out scenario: time-to-first-tuple on the scaled-out
/// slot.
///
/// A uniform workload keeps the rebalancer quiet until a fixed-schedule
/// scale-out at `DECISION`; the trigger demands
/// `REBALANCE_PERIOD` consecutive violating rounds (a damped production
/// trigger), so a rebalance could not move keys onto the new slot for a
/// full rebalance period. Pre-placement migrates the churned keys' state
/// inside the scale-out quiescence window, so the slot's first tuple
/// lands in the decision interval itself.
fn preplacement_scenario(tuples_per_interval: u64) -> Json {
    const DECISION: u64 = 3;
    const REBALANCE_PERIOD: usize = 3; // trigger `consecutive`
    /// Heavier per-tuple cost than the policy scenarios: the interval
    /// must dwarf scheduler quanta on a small box, or the measured lag
    /// is the OS's, not the placement protocol's.
    const SPIN_PRE: u32 = 2_500;
    let n_intervals = 12usize;
    let intervals: Vec<Vec<Key>> = (0..n_intervals)
        .map(|_| (0..tuples_per_interval).map(|i| Key(i % 600)).collect())
        .collect();
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();

    let label = "preplace/on";
    let config = EngineConfig {
        n_workers: MIN_W,
        max_workers: MIN_W + 1,
        spin_work: SPIN_PRE,
        window: 3,
        // Small channels keep the source within a fraction of an
        // interval of the workers, so statistics rounds track real
        // interval boundaries and the measured lag is the protocol's,
        // not the backlog's.
        channel_capacity: 64,
        batch_size: 32,
        elasticity: Box::new(FixedSchedule::scale_out_at(DECISION)),
        ..EngineConfig::default()
    };
    let report = Engine::run(
        config,
        Box::new(
            CoreBalancer::new(
                MIN_W,
                3,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.2,
                    ..BalanceParams::default()
                },
            )
            .with_trigger_policy(TriggerPolicy {
                consecutive: REBALANCE_PERIOD,
                ..TriggerPolicy::default()
            }),
        ),
        |_| Box::new(WordCountOp::new()),
        replay(&intervals),
        None,
    );
    assert_eq!(report.processed, total, "{label}: tuples lost");
    // Intervals from the decision to the slot's first tuple; a slot
    // never fed scores the whole remaining run (worst case).
    let lag = report.first_tuple_interval[MIN_W]
        .map_or(n_intervals as i64 - DECISION as i64, |f| {
            f as i64 - DECISION as i64
        });
    println!(
        "  {:<16} time-to-first-tuple {:>2} intervals  new-slot tuples {:>8}  rebalances {}  mig {:>6} keys",
        label,
        lag,
        report.per_worker_processed[MIN_W],
        report.rebalances,
        report.migrated_keys,
    );
    println!(
        "preplacement: ttft {lag} intervals (acceptance: ≤ 1; rebalance period {REBALANCE_PERIOD})"
    );
    let row = Json::obj([
        ("id", Json::str(label)),
        (
            "time_to_first_tuple_intervals",
            Json::lower(Json::Num(lag as f64)),
        ),
        (
            "new_worker_tuples",
            Json::higher(Json::Int(report.per_worker_processed[MIN_W])),
        ),
        ("rebalances", Json::Int(report.rebalances as u64)),
        (
            "migrated_keys",
            Json::lower(Json::Int(report.migrated_keys)),
        ),
        (
            "mean_tuples_per_sec",
            Json::higher(Json::Num(report.mean_throughput)),
        ),
    ]);
    Json::obj([
        (
            "scenario",
            Json::str("uniform keys, fixed scale-out, damped rebalance trigger"),
        ),
        ("decision_interval", Json::Int(DECISION)),
        (
            "rebalance_period_intervals",
            Json::Int(REBALANCE_PERIOD as u64),
        ),
        ("tuples_per_interval", Json::Int(tuples_per_interval)),
        ("results", Json::Arr(vec![row])),
        (
            "ttft_preplace_intervals",
            Json::lower(Json::Num(lag as f64)),
        ),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (quiet_tuples, n_intervals, reps) = if smoke {
        (2_000, SCHEDULE.len(), 1)
    } else {
        (15_000, SCHEDULE.len(), 3)
    };
    let intervals = make_intervals(quiet_tuples, n_intervals);
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    println!(
        "elastic: churn burst {:?}, {} tuples/run, spin {SPIN}, capacity {:.0}, {} reps",
        SCHEDULE,
        total,
        capacity(quiet_tuples),
        reps
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut best: Vec<(String, f64, f64, f64)> = Vec::new(); // label, peak, mean, worker-s
    for shape in shapes(quiet_tuples) {
        let _ = run_once(&shape, &intervals); // warm-up (page-in parity)
        let runs: Vec<EngineReport> = (0..reps).map(|_| run_once(&shape, &intervals)).collect();
        // Best-of-reps on throughput; worker-seconds from the same run so
        // the pair is self-consistent.
        let bi = (0..runs.len())
            .max_by(|&a, &b| runs[a].mean_throughput.total_cmp(&runs[b].mean_throughput))
            .unwrap();
        let r = &runs[bi];
        let peak = peak_interval_throughput(r);
        let trajectory: Vec<Json> = r
            .scale_events
            .iter()
            .map(|e| {
                Json::obj([
                    ("interval", Json::Int(e.interval)),
                    ("from", Json::Int(e.from as u64)),
                    ("to", Json::Int(e.to as u64)),
                ])
            })
            .collect();
        println!(
            "  {:<16} mean {:>9.0} t/s  peak {:>9.0} t/s  {:>6.2} worker-s  mig {:>6} keys  {} scale events",
            shape.label,
            r.mean_throughput,
            peak,
            r.worker_seconds,
            r.migrated_keys,
            r.scale_events.len(),
        );
        best.push((
            shape.label.to_string(),
            peak,
            r.mean_throughput,
            r.worker_seconds,
        ));
        rows.push(Json::obj([
            ("id", Json::str(shape.label)),
            ("workers_min", Json::Int(shape.n_workers as u64)),
            ("workers_max", Json::Int(shape.max_workers as u64)),
            (
                "mean_tuples_per_sec",
                Json::higher(Json::Num(r.mean_throughput)),
            ),
            (
                "peak_interval_tuples_per_sec",
                Json::higher(Json::Num(peak)),
            ),
            ("worker_seconds", Json::lower(Json::Num(r.worker_seconds))),
            ("migrated_keys", Json::lower(Json::Int(r.migrated_keys))),
            ("migrated_bytes", Json::lower(Json::Int(r.migrated_bytes))),
            ("rebalances", Json::Int(r.rebalances as u64)),
            ("scale_events", Json::Arr(trajectory)),
            ("reps", Json::Int(reps as u64)),
        ]));
    }

    let find = |label: &str| best.iter().find(|(l, _, _, _)| l == label).unwrap();
    let (_, peak8, _, ws8) = find("static/w8");
    let (_, peak_thr, _, ws_thr) = find("threshold/4..8");
    let peak_ratio = peak_thr / peak8;
    let ws_ratio = ws_thr / ws8;
    println!(
        "threshold vs static/w8: peak ratio {peak_ratio:.3} (acceptance ≥ 0.9), \
         worker-seconds ratio {ws_ratio:.3} (acceptance < 1.0)"
    );

    // Interval length must dwarf the control-plane round-trip latency
    // (the protocol costs a handful of controller wakeups), or the
    // measured lag is the event loop's, not the placement's.
    println!("\npre-placement (cold scale-out lag):");
    let preplacement = preplacement_scenario(if smoke { 10_000 } else { 50_000 });

    let doc = Json::obj([
        ("bench", Json::str("elastic")),
        ("workload", Json::str("churn-burst")),
        ("quiet_tuples", Json::Int(quiet_tuples)),
        (
            "volume_schedule",
            Json::Arr(SCHEDULE.iter().map(|&v| Json::Num(v)).collect()),
        ),
        ("tuples_per_run", Json::Int(total)),
        ("spin_work", Json::Int(SPIN as u64)),
        ("capacity_per_task", Json::Num(capacity(quiet_tuples))),
        ("smoke", Json::Bool(smoke)),
        ("results", Json::Arr(rows)),
        // Acceptance: the elastic threshold policy keeps burst throughput
        // within 10% of the statically peak-provisioned deployment while
        // paying for fewer worker-seconds overall.
        (
            "peak_ratio_threshold_vs_static8",
            Json::higher(Json::Num(peak_ratio)),
        ),
        // Elastic over static worker-seconds: fewer is the win.
        (
            "worker_seconds_ratio_threshold_vs_static8",
            Json::lower(Json::Num(ws_ratio)),
        ),
        // The cold scale-out lag: the scaled-out worker's first tuple
        // lands in the decision interval.
        ("preplacement", preplacement),
    ]);
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "elastic.smoke.json"
    } else {
        "elastic.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
