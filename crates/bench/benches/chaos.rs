//! Chaos bench: the measured cost of worker failure and protocol
//! rollback under deterministic fault injection.
//!
//! Two scenarios, each against a fault-free baseline on a byte-identical
//! tuple feed (the skewed fluctuating workload that drives migrations
//! every interval):
//!
//! * **worker loss** — a worker is killed at a planned interval
//!   boundary. Measured: the tuples irrecoverably lost (held window
//!   state + in-flight messages, all per-key accounted), the throughput
//!   the degraded topology sustains on survivors, and — with an
//!   elasticity decision scheduled after the death — the revive path
//!   re-provisioning the dead slot. Acceptance: the accounting
//!   invariant `fed == observed + lost` holds per key, and the
//!   degradation is bounded (survivors keep processing; loss is a
//!   sliver of the feed, not an interval's worth).
//! * **rollback** — two workers are stalled long past the op deadline
//!   with channels deep enough that the source never blocks on them, so
//!   an in-flight migration exhausts its retry and is *aborted*: routing
//!   rolled back, collected state re-installed at its origin, the
//!   source resumed under the pre-op view, and the stalled workers'
//!   late state transfers absorbed as stale epochs. Measured: the wall
//!   overhead of the abort/rollback path vs. the healthy run and the
//!   retry/abort/absorb event counts. Acceptance: rollback is
//!   *lossless* — exact per-key counts, `lost_tuples` empty.
//!
//! Results print as a table and land in `bench_results/chaos.json`
//! (`--test` smoke runs shrink the workload and write
//! `chaos.smoke.json` so noisy numbers never clobber the committed
//! ones). Each scenario's flight-recorder trace is exported under
//! `traces/` (`chaos_kill` and `chaos_rollback`, as `tracecat` JSONL
//! plus Chrome `trace_event` JSON; smoke runs write untracked `.smoke.`
//! variants), and the spans' disruption windows are priced into the
//! JSON next to the throughput numbers they explain.

use std::time::Duration;

use streambal_bench::figure::write_trace;
use streambal_bench::json::{write_json, Json};
use streambal_bench::{mixed_balancer, reference_counts};
use streambal_core::{Key, TaskId};
use streambal_elastic::FixedSchedule;
use streambal_hashring::FxHashMap;
use streambal_runtime::{
    replay, Engine, EngineConfig, EngineReport, FaultEvent, FaultPlan, FaultSpec, KillTrigger,
    Operator, Outcome, WordCountOp,
};
use streambal_workloads::FluctuatingWorkload;

const N_WORKERS: usize = 4;
const KEYS: usize = 600;
const ZIPF: f64 = 1.0;
const FLUCTUATION: f64 = 0.6;
const SEED: u64 = 4242;
const INTERVALS: usize = 8;
const SPIN: u32 = 50;

/// The interval whose stats request kills the victim.
const KILL_AT: u64 = 2;
/// The interval whose elasticity decision revives the dead slot.
const REVIVE_AT: u64 = 5;

fn make_intervals(tuples: u64) -> Vec<Vec<Key>> {
    let mut w = FluctuatingWorkload::new(KEYS, ZIPF, tuples, FLUCTUATION, SEED);
    (0..INTERVALS)
        .map(|i| {
            if i > 0 {
                w.advance(N_WORKERS, |k| TaskId::from(k.raw() as usize % N_WORKERS));
            }
            w.tuples()
        })
        .collect()
}

fn run_once(label: &str, config: EngineConfig, intervals: &[Vec<Key>]) -> EngineReport {
    let report = Engine::run(
        config,
        mixed_balancer(N_WORKERS, 0.05),
        |_| Box::new(WordCountOp::new()),
        replay(intervals),
        None,
    );
    assert!(
        report.protocol_errors.is_empty(),
        "{label}: protocol errors: {:?}",
        report.protocol_errors
    );
    report
}

/// The accounting invariant: per key, surviving state plus accounted
/// loss equals what was fed. Returns the total accounted loss.
fn assert_accounted(label: &str, report: &EngineReport, expect: &FxHashMap<Key, u64>) -> u64 {
    let mut got: FxHashMap<Key, u64> = FxHashMap::default();
    let op = WordCountOp::new();
    for (k, blob) in &report.final_states {
        *got.entry(*k).or_insert(0) += op.tuples_in_blob(blob);
    }
    let mut lost_total = 0u64;
    for &(k, n) in &report.lost_tuples {
        *got.entry(k).or_insert(0) += n;
        lost_total += n;
    }
    for (k, &e) in expect {
        let g = got.get(k).copied().unwrap_or(0);
        assert_eq!(g, e, "{label}: key {k:?} unaccounted: fed {e}, got {g}");
    }
    lost_total
}

fn count_events(report: &EngineReport, pred: impl Fn(&FaultEvent) -> bool) -> u64 {
    report.faults.iter().filter(|f| pred(f)).count() as u64
}

/// Protocol-span metrics from a run's flight-recorder trace: how many
/// ops ran, how they ended, and the disruption-window price (span open
/// to close — the stretch the affected keys sat paused).
fn span_metrics(report: &EngineReport) -> Json {
    let spans = report.trace.span_summaries();
    let completed = spans
        .iter()
        .filter(|s| s.outcome == Some(Outcome::Completed))
        .count() as u64;
    let aborted = spans
        .iter()
        .filter(|s| s.outcome == Some(Outcome::Aborted))
        .count() as u64;
    let windows: Vec<u64> = spans.iter().map(|s| s.disruption_us()).collect();
    let max = windows.iter().copied().max().unwrap_or(0);
    let mean = if windows.is_empty() {
        0.0
    } else {
        windows.iter().sum::<u64>() as f64 / windows.len() as f64
    };
    Json::obj([
        ("spans_total", Json::Int(spans.len() as u64)),
        ("spans_completed", Json::Int(completed)),
        ("spans_aborted", Json::Int(aborted)),
        ("disruption_window_us_max", Json::lower(Json::Int(max))),
        ("disruption_window_us_mean", Json::lower(Json::Num(mean))),
    ])
}

/// Scenario 1: a worker death at a planned interval, with and without a
/// later revive decision; a fault-free baseline for the degradation
/// ratio. Also returns the kill run's report, whose trace main exports
/// as the committed `chaos_kill` artifact.
fn worker_loss_scenario(intervals: &[Vec<Key>], reps: usize) -> (Json, EngineReport) {
    let expect = reference_counts(intervals);
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    let base_config = || EngineConfig {
        n_workers: N_WORKERS,
        max_workers: N_WORKERS,
        spin_work: SPIN,
        window: 100, // retain all state: exact accounting validation
        ..EngineConfig::default()
    };
    let kill_plan = FaultPlan::new(vec![FaultSpec::Kill {
        worker: 1,
        at: KillTrigger::Interval(KILL_AT),
    }]);

    // Fault-free baseline: best-of-reps throughput.
    let healthy = (0..reps)
        .map(|_| run_once("chaos/healthy", base_config(), intervals))
        .max_by(|a, b| a.mean_throughput.total_cmp(&b.mean_throughput))
        .expect("reps >= 1");
    assert_eq!(healthy.processed, total, "healthy run lost tuples");
    assert_accounted("chaos/healthy", &healthy, &expect);
    assert!(healthy.faults.is_empty(), "healthy run recorded faults");

    // The kill, no re-provisioning: the run ends degraded. Loss varies
    // with what was in flight at the kill; report the spread.
    let mut lost_range = (u64::MAX, 0u64);
    let mut kill_best: Option<EngineReport> = None;
    for _ in 0..reps {
        let r = run_once(
            "chaos/kill",
            EngineConfig {
                fault_plan: kill_plan.clone(),
                ..base_config()
            },
            intervals,
        );
        let lost = assert_accounted("chaos/kill", &r, &expect);
        assert!(lost > 0, "a mid-run kill must lose the held window state");
        lost_range = (lost_range.0.min(lost), lost_range.1.max(lost));
        if kill_best
            .as_ref()
            .is_none_or(|b| r.mean_throughput > b.mean_throughput)
        {
            kill_best = Some(r);
        }
    }
    let kill = kill_best.expect("reps >= 1");
    assert!(
        kill.faults.contains(&FaultEvent::WorkerDead { worker: 1 }),
        "kill did not fire: {:?}",
        kill.faults
    );

    // The kill plus a revive decision: the dead slot is re-provisioned
    // REVIVE_AT - KILL_AT intervals after the death.
    let revive = run_once(
        "chaos/revive",
        EngineConfig {
            fault_plan: kill_plan.clone(),
            elasticity: Box::new(FixedSchedule::scale_out_at(REVIVE_AT)),
            ..base_config()
        },
        intervals,
    );
    let revive_lost = assert_accounted("chaos/revive", &revive, &expect);
    assert!(
        revive
            .faults
            .contains(&FaultEvent::SlotRevived { worker: 1 }),
        "revive did not fire: {:?}",
        revive.faults
    );

    let ratio = kill.mean_throughput / healthy.mean_throughput;
    println!("  healthy        mean {:>9.0} t/s", healthy.mean_throughput);
    println!(
        "  kill w1@{KILL_AT}      mean {:>9.0} t/s  ratio {ratio:.3}  lost {}..{} of {total} tuples",
        kill.mean_throughput, lost_range.0, lost_range.1,
    );
    println!(
        "  + revive@{REVIVE_AT}    mean {:>9.0} t/s  degraded window {} intervals  lost {revive_lost}",
        revive.mean_throughput,
        REVIVE_AT - KILL_AT,
    );
    let doc = Json::obj([
        ("kill_interval", Json::Int(KILL_AT)),
        ("revive_interval", Json::Int(REVIVE_AT)),
        ("fed_tuples", Json::Int(total)),
        (
            "healthy_mean_tuples_per_sec",
            Json::higher(Json::Num(healthy.mean_throughput)),
        ),
        (
            "kill_mean_tuples_per_sec",
            Json::higher(Json::Num(kill.mean_throughput)),
        ),
        ("degraded_throughput_ratio", Json::higher(Json::Num(ratio))),
        ("lost_tuples_min", Json::lower(Json::Int(lost_range.0))),
        ("lost_tuples_max", Json::lower(Json::Int(lost_range.1))),
        (
            "lost_fraction_max",
            Json::lower(Json::Num(lost_range.1 as f64 / total as f64)),
        ),
        (
            "revive_mean_tuples_per_sec",
            Json::higher(Json::Num(revive.mean_throughput)),
        ),
        ("revive_lost_tuples", Json::lower(Json::Int(revive_lost))),
        (
            // How long the topology ran a worker short: the revive is
            // scheduled, so this is the plan's recovery window, and the
            // SlotRevived assertion above proves it was honored.
            "recovery_window_intervals",
            Json::lower(Json::Int(REVIVE_AT - KILL_AT)),
        ),
        ("spans", span_metrics(&kill)),
        ("reps", Json::Int(reps as u64)),
    ]);
    (doc, kill)
}

/// Scenario 2: an aborted migration. Stalling two workers past the op
/// deadline (with channels deep enough that the source never blocks on
/// the sleeping workers) wedges any migration touching them: the
/// controller retries once, aborts, rolls routing back, and re-installs
/// collected state. The stalled workers wake into a closed epoch and
/// their late extractions are absorbed/re-homed. All of it must be
/// lossless. Also returns the stalled run's report for the committed
/// `chaos_rollback` trace artifact.
fn rollback_scenario(intervals: &[Vec<Key>], reps: usize) -> (Json, EngineReport) {
    let expect = reference_counts(intervals);
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    let config = |plan: FaultPlan| EngineConfig {
        n_workers: N_WORKERS,
        max_workers: N_WORKERS,
        spin_work: SPIN,
        window: 100,
        // Deep channels: the stalled workers' queues must absorb the
        // feed so the *source* keeps pacing intervals forward — the op
        // deadline's interval clock is what expires the wedged op.
        channel_capacity: 1 << 16,
        fault_plan: plan,
        deadline: Duration::from_millis(200),
        deadline_intervals: 1,
        ..EngineConfig::default()
    };
    let stall_plan = FaultPlan::new(vec![
        FaultSpec::StallWorker {
            worker: 1,
            at_interval: 1,
            ms: 1_200,
        },
        FaultSpec::StallWorker {
            worker: 2,
            at_interval: 1,
            ms: 1_200,
        },
    ]);

    let healthy = (0..reps)
        .map(|_| {
            run_once(
                "chaos/rollback-healthy",
                config(FaultPlan::none()),
                intervals,
            )
        })
        .min_by_key(|r| r.wall)
        .expect("reps >= 1");
    assert_eq!(healthy.processed, total, "healthy run lost tuples");

    let mut stalled_best: Option<EngineReport> = None;
    for _ in 0..reps {
        let r = run_once("chaos/rollback", config(stall_plan.clone()), intervals);
        assert!(
            r.lost_tuples.is_empty(),
            "rollback must be lossless, lost: {:?}",
            r.lost_tuples
        );
        assert_eq!(r.processed, total, "rollback run lost tuples");
        assert_accounted("chaos/rollback", &r, &expect);
        if stalled_best.as_ref().is_none_or(|b| r.wall < b.wall) {
            stalled_best = Some(r);
        }
    }
    let stalled = stalled_best.expect("reps >= 1");

    let retries = count_events(&stalled, |f| matches!(f, FaultEvent::OpRetried { .. }));
    let aborts = count_events(&stalled, |f| matches!(f, FaultEvent::OpAborted { .. }));
    let absorbed = count_events(&stalled, |f| {
        matches!(f, FaultEvent::StaleEpochAbsorbed { .. })
    });
    let timed_out_rounds =
        count_events(&stalled, |f| matches!(f, FaultEvent::RoundTimedOut { .. }));
    let overhead = stalled.wall.as_secs_f64() / healthy.wall.as_secs_f64();
    println!("  healthy        wall {:>7.3}s", healthy.wall.as_secs_f64());
    println!(
        "  stall w1,w2    wall {:>7.3}s  overhead {overhead:.2}x  \
         retries {retries}  aborts {aborts}  stale absorbed {absorbed}  rounds timed out {timed_out_rounds}",
        stalled.wall.as_secs_f64(),
    );
    if aborts == 0 {
        println!(
            "  note: no abort fired this run (migrations dodged the stalled workers); \
             rollback cost reflects retries only"
        );
    }
    let doc = Json::obj([
        ("stall_plan", Json::str("w1+w2 sleep 1200ms at interval 1")),
        ("fed_tuples", Json::Int(total)),
        (
            "healthy_wall_s",
            Json::lower(Json::Num(healthy.wall.as_secs_f64())),
        ),
        (
            "stalled_wall_s",
            Json::lower(Json::Num(stalled.wall.as_secs_f64())),
        ),
        ("rollback_wall_overhead", Json::lower(Json::Num(overhead))),
        ("op_retries", Json::Int(retries)),
        ("op_aborts", Json::Int(aborts)),
        ("stale_epochs_absorbed", Json::Int(absorbed)),
        ("rounds_timed_out", Json::Int(timed_out_rounds)),
        ("rollback_lost_tuples", Json::lower(Json::Int(0))),
        ("spans", span_metrics(&stalled)),
        ("reps", Json::Int(reps as u64)),
    ]);
    (doc, stalled)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (tuples, reps) = if smoke { (4_000, 1) } else { (20_000, 3) };
    let intervals = make_intervals(tuples);
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    println!(
        "chaos: fluctuating zipf({ZIPF}) x{INTERVALS} intervals, {total} tuples/run, \
         {N_WORKERS} workers, spin {SPIN}, {reps} reps"
    );

    println!("\nworker loss (kill w1 at interval {KILL_AT}, revive at {REVIVE_AT}):");
    let (worker_loss, kill_report) = worker_loss_scenario(&intervals, reps);

    println!("\nrollback (stall w1+w2 past the op deadline):");
    let (rollback, rollback_report) = rollback_scenario(&intervals, reps);

    write_trace("chaos_kill", smoke, &kill_report.trace);
    write_trace("chaos_rollback", smoke, &rollback_report.trace);

    let doc = Json::obj([
        ("bench", Json::str("chaos")),
        ("workload", Json::str("fluctuating-zipf")),
        ("tuples_per_run", Json::Int(total)),
        ("n_workers", Json::Int(N_WORKERS as u64)),
        ("spin_work", Json::Int(SPIN as u64)),
        ("smoke", Json::Bool(smoke)),
        ("worker_loss", worker_loss),
        ("rollback", rollback),
    ]);
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "chaos.smoke.json"
    } else {
        "chaos.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
