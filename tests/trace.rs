//! Flight-recorder suite: the trace is part of the engine's contract,
//! not a best-effort diagnostic, so it gets the same treatment as the
//! fault ledger.
//!
//! Three claims under test:
//!
//! * **Determinism** — a seeded run's trace *skeleton* (event kinds and
//!   structure with wall-clock stamps and load-dependent numerics
//!   masked) replays identically, like `EngineReport::faults`.
//! * **Span coverage** — a migration-heavy run opens a span per
//!   protocol op, every span closes exactly once with phases in
//!   protocol order (`TraceLog::check_integrity`), and completed
//!   rebalances show up in `span_summaries`.
//! * **Ledger agreement** — spans closed `Aborted` correspond one-to-one
//!   with `FaultEvent::OpAborted` ledger entries, even when chaos
//!   wedges ops mid-flight.
//! * **Exact cuts** — the workers' per-interval `DataFlush` counts sum to
//!   the source's `IntervalEnd` count for every interval.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use common::{mixed_balancer, run_engine, run_feed, N_TASKS};
use streambal::baselines::storm;
use streambal::prelude::Key;
use streambal::runtime::{
    EngineConfig, EventKind, FaultEvent, FaultPlan, FaultSpec, KillTrigger, OpLabel, Outcome,
};

/// The skeleton of a seeded run replays identically. Same scoping as
/// `same_plan_yields_identical_fault_ledger` in `tests/chaos.rs`: a
/// static Hash partitioner (a balancer's rebalance-vs-kill interleaving
/// is a genuine controller race, deliberately out of scope) and wall
/// deadlines far beyond the run length, so no timing-dependent retry
/// can sneak an event into one skeleton but not the other.
#[test]
fn same_seed_yields_identical_trace_skeleton() {
    let plan = FaultPlan::new(vec![FaultSpec::Kill {
        worker: 1,
        at: KillTrigger::Interval(2),
    }]);
    let config = || EngineConfig {
        n_workers: N_TASKS,
        max_workers: N_TASKS,
        spin_work: 10,
        window: 100,
        fault_plan: plan.clone(),
        deadline: Duration::from_secs(120),
        ..EngineConfig::default()
    };
    let a = run_engine("skeleton-a", config(), Box::new(storm(N_TASKS)));
    let b = run_engine("skeleton-b", config(), Box::new(storm(N_TASKS)));
    assert!(
        !a.trace.events.is_empty(),
        "skeleton-a: trace is empty with trace enabled"
    );
    let problems = a.trace.check_integrity();
    assert!(problems.is_empty(), "skeleton-a: {problems:?}");
    assert_eq!(
        a.trace.skeleton(),
        b.trace.skeleton(),
        "same seed must replay to the same trace skeleton \
         (faults a: {:?}, b: {:?})",
        a.faults,
        b.faults
    );
}

/// A migration-heavy healthy run: the Mixed balancer rebalances on this
/// workload, so the trace must carry completed rebalance spans with
/// clean lifecycle integrity, and the fault mirror must stay empty.
/// The same scenario with `trace: false` must record nothing at all —
/// the off switch is the overhead benchmark's baseline and has to be a
/// true no-op.
#[test]
fn healthy_migrations_produce_completed_spans() {
    let config = |trace: bool| EngineConfig {
        n_workers: N_TASKS,
        max_workers: N_TASKS,
        spin_work: 10,
        window: 100,
        trace,
        ..EngineConfig::default()
    };
    let report = run_engine("healthy-spans", config(true), mixed_balancer());
    assert!(
        report.protocol_errors.is_empty(),
        "healthy run reported protocol errors: {:?}",
        report.protocol_errors
    );
    let problems = report.trace.check_integrity();
    assert!(problems.is_empty(), "healthy-spans: {problems:?}");

    let summaries = report.trace.span_summaries();
    let completed_rebalances = summaries
        .iter()
        .filter(|s| s.op == OpLabel::Rebalance && s.outcome == Some(Outcome::Completed))
        .count();
    assert!(
        completed_rebalances > 0,
        "Mixed balancer run produced no completed rebalance span: {summaries:?}"
    );
    for s in &summaries {
        assert!(
            s.outcome.is_some(),
            "span {} never closed: {summaries:?}",
            s.span
        );
        assert!(
            s.close_us >= s.open_us,
            "span {} closes before it opens",
            s.span
        );
    }

    let off = run_engine("trace-off", config(false), mixed_balancer());
    assert!(
        off.trace.events.is_empty(),
        "trace: false still recorded {} events",
        off.trace.events.len()
    );
}

/// Chaos agreement: stall two workers past the op deadline (the
/// `chaos` bench's rollback scenario) so in-flight migrations abort,
/// and check the trace against the fault ledger — every `OpAborted`
/// ledger entry has exactly one span closed `Aborted`, and integrity
/// holds even across the abort/rollback path. Whether an abort fires
/// at all depends on whether a migration touches the stalled workers;
/// the equality must hold either way (possibly 0 == 0).
#[test]
fn aborted_spans_agree_with_the_fault_ledger() {
    let plan = FaultPlan::new(vec![
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
    let config = EngineConfig {
        n_workers: N_TASKS,
        max_workers: N_TASKS,
        spin_work: 10,
        window: 100,
        // Deep channels: the source must keep pacing intervals forward
        // while the stalled workers sleep, so the op deadline's
        // interval clock expires the wedged op.
        channel_capacity: 1 << 16,
        fault_plan: plan,
        deadline: Duration::from_millis(200),
        deadline_intervals: 1,
        ..EngineConfig::default()
    };
    let report = run_engine("abort-agreement", config, mixed_balancer());
    let problems = report.trace.check_integrity();
    assert!(problems.is_empty(), "abort-agreement: {problems:?}");

    let ledger_aborts = report
        .faults
        .iter()
        .filter(|f| matches!(f, FaultEvent::OpAborted { .. }))
        .count();
    let span_aborts = report
        .trace
        .span_summaries()
        .iter()
        .filter(|s| s.outcome == Some(Outcome::Aborted))
        .count();
    assert_eq!(
        span_aborts,
        ledger_aborts,
        "aborted spans must mirror the fault ledger \
         (faults: {:?}, spans: {:?})",
        report.faults,
        report.trace.span_summaries()
    );

    // The trace mirrors the ledger: fault event `seq` i has entry i's text.
    let mut mirrored: Vec<(u64, String)> = report
        .trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Fault { detail } => Some((e.seq, detail.clone())),
            _ => None,
        })
        .collect();
    mirrored.sort_unstable();
    let want: Vec<(u64, String)> = (0..)
        .zip(report.faults.iter().map(|f| f.to_string()))
        .collect();
    assert_eq!(mirrored, want, "the trace's fault mirror");
}

/// Every round holds exactly the tuples the source cut into its
/// interval: the source marks each worker's channel in-band where it ends
/// an interval, so worker `w`'s `DataFlush(i)` counts exactly what the
/// source routed to `w` in interval `i`, and the workers' sum is the
/// source's `IntervalEnd(i)`. Short unpaced intervals give a cut that
/// reached the workers late the most room to slip.
#[test]
fn every_round_holds_exactly_the_tuples_the_source_cut_into_it() {
    const RUNS: usize = 16;
    const INTERVALS: u64 = 12;
    const TUPLES: u64 = 300;
    let feed: Vec<Vec<Key>> = (0..INTERVALS)
        .map(|iv| (0..TUPLES).map(|i| Key((i * 7 + iv) % 97)).collect())
        .collect();
    for run in 0..RUNS {
        let label = format!("exact-cut-{run}");
        let config = EngineConfig {
            n_workers: N_TASKS,
            max_workers: N_TASKS,
            spin_work: 10,
            ..EngineConfig::default()
        };
        let report = run_feed(&label, config, Box::new(storm(N_TASKS)), feed.clone());
        let (mut fed, mut flushed) = (BTreeMap::new(), BTreeMap::new());
        for e in &report.trace.events {
            match e.kind {
                EventKind::IntervalEnd { interval, tuples } => {
                    fed.insert(interval, tuples);
                }
                EventKind::DataFlush {
                    interval, tuples, ..
                } => *flushed.entry(interval).or_insert(0) += tuples,
                _ => {}
            }
        }
        assert_eq!(fed.len() as u64, INTERVALS, "{label}");
        assert_eq!(flushed, fed, "{label}: per-interval DataFlush sums");
    }
}
