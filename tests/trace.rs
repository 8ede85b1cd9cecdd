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

use std::time::Duration;

use streambal::baselines::{storm, CoreBalancer};
use streambal::core::{BalanceParams, RebalanceStrategy};
use streambal::prelude::{Key, Partitioner, TaskId};
use streambal::runtime::{
    Engine, EngineConfig, EngineReport, FaultEvent, FaultPlan, FaultSpec, OpLabel, Outcome, Tuple,
    WordCountOp,
};
use streambal::workloads::FluctuatingWorkload;

/// Workload parameters, mirroring `tests/chaos.rs` — the same skewed,
/// fluctuating, migration-heavy regime the chaos suite stresses.
const N_TASKS: usize = 3;
const KEYS: usize = 400;
const ZIPF: f64 = 1.0;
const TUPLES: u64 = 6_000;
const FLUCTUATION: f64 = 0.6;
const SEED: u64 = 4242;
const INTERVALS: usize = 5;

/// Hard ceiling on one engine run: a wedged protocol panics the test
/// instead of hanging CI.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

fn mixed_balancer() -> Box<dyn Partitioner> {
    Box::new(CoreBalancer::new(
        N_TASKS,
        100,
        RebalanceStrategy::Mixed,
        BalanceParams {
            theta_max: 0.05,
            ..BalanceParams::default()
        },
    ))
}

fn keyed_intervals() -> Vec<Vec<Key>> {
    let mut w = FluctuatingWorkload::new(KEYS, ZIPF, TUPLES, FLUCTUATION, SEED);
    (0..INTERVALS)
        .map(|i| {
            if i > 0 {
                w.advance(N_TASKS, |k| TaskId::from(k.raw() as usize % N_TASKS));
            }
            w.tuples()
        })
        .collect()
}

/// Runs the engine on the shared workload, panicking (not hanging) if
/// the run does not terminate.
fn run_traced(label: &str, config: EngineConfig, p: Box<dyn Partitioner>) -> EngineReport {
    let feed = keyed_intervals();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = Engine::run(
            config,
            p,
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        let _ = tx.send(report);
    });
    rx.recv_timeout(RUN_TIMEOUT)
        .unwrap_or_else(|_| panic!("{label}: engine run did not terminate"))
}

/// The skeleton of a seeded run replays identically. Same scoping as
/// `same_plan_yields_identical_fault_ledger` in `tests/chaos.rs`: a
/// static Hash partitioner (a balancer's rebalance-vs-kill interleaving
/// is a genuine controller race, deliberately out of scope) and wall
/// deadlines far beyond the run length, so no timing-dependent retry
/// can sneak an event into one skeleton but not the other.
#[test]
fn same_seed_yields_identical_trace_skeleton() {
    let plan = FaultPlan::new(vec![FaultSpec::KillWorker {
        worker: 1,
        at_interval: 2,
    }]);
    let config = || EngineConfig {
        n_workers: N_TASKS,
        max_workers: N_TASKS,
        spin_work: 10,
        window: 100,
        fault_plan: plan.clone(),
        op_deadline: Duration::from_secs(120),
        round_deadline: Duration::from_secs(120),
        ..EngineConfig::default()
    };
    let a = run_traced("skeleton-a", config(), Box::new(storm(N_TASKS)));
    let b = run_traced("skeleton-b", config(), Box::new(storm(N_TASKS)));
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
    let report = run_traced("healthy-spans", config(true), mixed_balancer());
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

    let off = run_traced("trace-off", config(false), mixed_balancer());
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
        op_deadline_intervals: 1,
        op_deadline: Duration::from_millis(200),
        round_deadline_intervals: 1,
        round_deadline: Duration::from_millis(200),
        ..EngineConfig::default()
    };
    let report = run_traced("abort-agreement", config, mixed_balancer());
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
}
