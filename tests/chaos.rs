//! Chaos suite: seeded deterministic fault injection across every
//! partitioner in the workspace.
//!
//! The contract under test is *accounted degradation*: a run with
//! injected worker kills, dropped control messages, and stalls must
//! still terminate, and every fed tuple must be either observed in the
//! output (surviving worker state, or the merge collector for
//! key-splitting strategies) or listed in `EngineReport::lost_tuples` —
//! per key, exactly: `fed == observed + lost`. Fault handling is never
//! allowed to silently drop or double-count a tuple; it may only move
//! tuples from "observed" to "accounted lost".
//!
//! Determinism is part of the contract: the fault plan is data, not
//! timing, so replaying the same plan yields the same fault ledger.

mod common;

use std::time::Duration;

use common::{
    all_partitioners, hottest_key, keyed_intervals, mixed_balancer, observed_counts,
    reference_counts, run_engine, run_paced, INTERVALS, N_TASKS,
};
use streambal::baselines::{shuffle, storm};
use streambal::elastic::{FixedSchedule, ScaleDecision};
use streambal::prelude::Key;
use streambal::runtime::{
    CtlKind, EngineConfig, EngineReport, EventKind, FaultEvent, FaultPlan, FaultSpec, KillTrigger,
    OpKind,
};

/// Engine config for fault runs. Deadlines are squeezed far below the
/// defaults so retry/abort recovery fires within a test run instead of
/// after seconds of wall-clock; spurious expiry on a healthy-but-slow
/// op is acceptable here — retries are idempotent and aborts roll back,
/// so the accounting invariant must survive them too.
fn chaos_config(plan: FaultPlan) -> EngineConfig {
    EngineConfig {
        n_workers: N_TASKS,
        max_workers: N_TASKS,
        spin_work: 10,
        window: 100, // retain all state: exact accounting validation
        fault_plan: plan,
        deadline: Duration::from_millis(400),
        deadline_intervals: 1,
        ..EngineConfig::default()
    }
}

/// The accounting invariant over the suite's workload.
fn assert_accounted(label: &str, report: &EngineReport, preserves: bool) {
    assert_accounted_on(label, report, preserves, &keyed_intervals());
}

/// The accounting invariant: per key, observed output plus accounted
/// loss equals what was fed — no silent drops, no double counts. And
/// one op at a time: no op span opens while another is still open.
fn assert_accounted_on(label: &str, report: &EngineReport, preserves: bool, feed: &[Vec<Key>]) {
    let mut open: Option<u64> = None;
    for e in &report.trace.events {
        match e.kind {
            EventKind::SpanOpen { span, .. } => {
                assert!(
                    open.is_none(),
                    "{label}: span {span} opened inside span {open:?}"
                );
                open = Some(span);
            }
            EventKind::SpanClose { span, .. } if open == Some(span) => open = None,
            _ => {}
        }
    }
    let expect = reference_counts(feed);
    let mut got = observed_counts(report, preserves);
    for &(k, n) in &report.lost_tuples {
        *got.entry(k).or_insert(0) += n;
    }
    for (k, &e) in &expect {
        let g = got.get(k).copied().unwrap_or(0);
        assert_eq!(
            g, e,
            "{label}: key {k:?} unaccounted: fed {e}, observed+lost {g} \
             (faults: {:?})",
            report.faults
        );
    }
    for (k, &g) in &got {
        assert!(
            expect.contains_key(k),
            "{label}: phantom key {k:?} with count {g}"
        );
    }
    assert!(
        report.protocol_errors.is_empty(),
        "{label}: protocol errors: {:?} (faults: {:?})",
        report.protocol_errors,
        report.faults
    );
}

/// Replaying the same fault plan yields the *identical* fault ledger:
/// the plan, not thread timing, decides what fails and what recovery
/// runs. The scenario is pinned so every ledger entry is causally
/// ordered behind the kill: huge *wall* deadlines (a deadline only
/// expires when wall AND interval clocks agree, so a loaded test
/// machine can't sneak a timing-dependent retry entry into one ledger
/// but not the other), and a static Hash partitioner — with a balancer,
/// `Rerouted::moved_keys` counts the dead slot's keys in the *live*
/// routing table, and whether the previous interval's rebalance landed
/// before the kill event is a genuine controller race: legitimate
/// cross-run variation, covered by the accounting tests, but exactly
/// what a replayable ledger must be scoped away from.
#[test]
fn same_plan_yields_identical_fault_ledger() {
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
    let a = run_engine("ledger-a", config(), Box::new(storm(N_TASKS)));
    let b = run_engine("ledger-b", config(), Box::new(storm(N_TASKS)));
    assert!(
        a.faults.contains(&FaultEvent::InjectedKill {
            worker: 1,
            trigger: KillTrigger::Interval(2),
        }),
        "kill did not fire: {:?}",
        a.faults
    );
    assert!(
        a.faults.contains(&FaultEvent::WorkerDead { worker: 1 }),
        "death not observed: {:?}",
        a.faults
    );
    // The controller ledgers the kill and the death it causes from the
    // worker's one `Killed` exit, back to back.
    let kill = a
        .faults
        .iter()
        .position(|f| matches!(f, FaultEvent::InjectedKill { worker: 1, .. }));
    assert_eq!(
        kill.and_then(|i| a.faults.get(i + 1)),
        Some(&FaultEvent::WorkerDead { worker: 1 }),
        "the kill is not followed by its death: {:?}",
        a.faults
    );
    assert_eq!(
        a.faults, b.faults,
        "same plan must replay to the same ledger"
    );
    assert_accounted("ledger-a", &a, true);
    assert_accounted("ledger-b", &b, true);
}

/// A worker killed *mid-migration* — it dies on receipt of its first
/// `MigrateOut`, while the source is paused and the controller holds a
/// half-collected state transfer. The controller must untangle the
/// in-flight op (skip the dead participant, forward what it holds,
/// resume the source), account the dead worker's state, and finish.
#[test]
fn mid_migration_worker_kill_recovers_and_accounts() {
    for victim in [1usize, 2] {
        let label = format!("kill-on-migrate-out({victim})");
        let plan = FaultPlan::new(vec![FaultSpec::Kill {
            worker: victim,
            at: KillTrigger::MigrateOut(1),
        }]);
        let report = run_engine(&label, chaos_config(plan), mixed_balancer());
        let killed = report.faults.contains(&FaultEvent::InjectedKill {
            worker: victim,
            trigger: KillTrigger::MigrateOut(1),
        });
        if killed {
            assert!(
                report
                    .faults
                    .contains(&FaultEvent::WorkerDead { worker: victim }),
                "{label}: death not observed: {:?}",
                report.faults
            );
        }
        assert_accounted(&label, &report, true);
    }
}

/// A worker killed *mid-split*: the workload's hottest key is forced
/// across all three workers after interval 1, a replica worker dies at
/// interval 2 — taking its partial state for the split key with it —
/// and the scheduled unsplit at interval 3 must consolidate from the
/// *surviving* replicas. Per key, `fed == observed + lost` must still
/// hold exactly: the dead replica's partials land in `lost_tuples`, the
/// survivors' partials reunify, and nothing is dropped or doubled in
/// between.
#[test]
fn mid_split_replica_kill_accounts_every_tuple() {
    let hot = hottest_key();
    for victim in [1usize, 2] {
        let label = format!("kill-mid-split({victim})");
        let plan = FaultPlan::new(vec![FaultSpec::Kill {
            worker: victim,
            at: KillTrigger::Interval(2),
        }]);
        let mut config = chaos_config(plan);
        config.split = Some(Box::new(streambal::elastic::FixedSplitSchedule::cycle(
            hot.raw(),
            N_TASKS,
            1,
            3,
        )));
        let report = run_engine(&label, config, mixed_balancer());
        assert!(
            report
                .split_events
                .iter()
                .any(|e| e.key == hot.raw() && e.to > e.from),
            "{label}: forced split did not fire: {:?}",
            report.split_events
        );
        assert!(
            report
                .faults
                .contains(&FaultEvent::WorkerDead { worker: victim }),
            "{label}: death not observed: {:?}",
            report.faults
        );
        assert_accounted(&label, &report, true);
    }
}

/// A worker killed on receipt of a `StateInstall`: the tuples inside
/// the arriving blobs were already extracted from their origin, so they
/// exist nowhere but the message that killed their new owner — they
/// must land in `lost_tuples`, not vanish.
#[test]
fn kill_on_install_accounts_in_flight_state() {
    let plan = FaultPlan::new(vec![FaultSpec::Kill {
        worker: 2,
        at: KillTrigger::Install(1),
    }]);
    let label = "kill-on-install(2)";
    let report = run_engine(label, chaos_config(plan), mixed_balancer());
    assert_accounted(label, &report, true);
}

/// A dropped `PauseAck` wedges the migration handshake at its first
/// phase; the op deadline must re-drive the pause (the source's re-ack
/// is idempotent) and the run must stay *exact* — no worker died, so
/// nothing may be lost.
#[test]
fn dropped_pause_ack_is_redriven_and_stays_exact() {
    let plan = FaultPlan::new(vec![FaultSpec::DropCtl {
        kind: CtlKind::PauseAck,
        nth: 1,
    }]);
    let label = "drop-pause-ack";
    let report = run_engine(label, chaos_config(plan), mixed_balancer());
    assert!(
        report.faults.contains(&FaultEvent::InjectedDrop {
            kind: CtlKind::PauseAck,
            nth: 1,
        }),
        "{label}: drop did not fire: {:?}",
        report.faults
    );
    assert!(
        report.faults.iter().any(|f| matches!(
            f,
            FaultEvent::OpRetried {
                op: OpKind::Migrate,
                ..
            }
        )),
        "{label}: dropped ack was never re-driven: {:?}",
        report.faults
    );
    assert!(
        report.lost_tuples.is_empty(),
        "{label}: lossless fault lost tuples: {:?}",
        report.lost_tuples
    );
    assert_accounted(label, &report, true);
}

/// A statistics message lost in the *last* interval: the source has
/// finished, so the interval clock stops and the deadline's wall bound
/// closes the round alone — ledgered as `RoundTimedOut` — and the run
/// drains. Both the request (interval 4, worker 0) and a report are
/// dropped in turn. Round-robin routing on purpose: it never raises a
/// skew alert, whose `StatsPeek` markers also count as `StatsRequest`
/// drops and would shift the ordinal.
#[test]
fn last_interval_stats_loss_closes_by_deadline() {
    let nth = N_TASKS * (INTERVALS - 1) + 1;
    for kind in [CtlKind::StatsRequest, CtlKind::Stats] {
        let label = format!("drop-{}-{nth}", kind.name());
        let plan = FaultPlan::new(vec![FaultSpec::DropCtl { kind, nth }]);
        let report = run_engine(&label, chaos_config(plan), Box::new(shuffle(N_TASKS)));
        let last = (INTERVALS - 1) as u64;
        assert!(
            report.faults.iter().any(
                |f| matches!(f, FaultEvent::RoundTimedOut { interval, .. } if *interval == last)
            ),
            "{label}: the last round never timed out: {:?}",
            report.faults
        );
        assert_accounted(&label, &report, false);
    }
}

/// The seeded sweep: `FaultPlan::from_seed` draws 1–3 faults (kills,
/// control-message drops, stalls) and every partitioner must survive
/// every plan — terminate, keep the per-key accounting balanced, and
/// report no protocol errors. Strategies that never migrate make some
/// plans inert (a kill on `MigrateOut` never fires under hashing); those
/// runs must then be exact, which the same invariant checks (empty
/// `lost_tuples` makes `observed + lost == fed` an exactness claim).
#[test]
fn seeded_sweep_accounts_every_tuple_across_partitioners() {
    for seed in [1u64, 2, 3] {
        for p in all_partitioners() {
            let name = p.name();
            let label = format!("{name}/seed={seed}");
            let preserves = p.preserves_key_semantics();
            let plan = FaultPlan::from_seed(seed, N_TASKS, INTERVALS as u64);
            assert!(
                !plan.faults.is_empty(),
                "{label}: seeded plan unexpectedly empty"
            );
            let report = run_engine(&label, chaos_config(plan), p);
            assert_accounted(&label, &report, preserves);
        }
    }
}

/// A scale-in whose victim stalls past two deadlines is aborted, and
/// the victim runs on as a zombie with its re-driven `Retire` queued
/// behind the first. When it retires (about two intervals before the
/// scale-out at interval 12 is decided; a later retire skips the
/// scale-out), the receiver it hands back is emptied before the
/// scale-out respawns its slot, so the new worker takes its keys'
/// traffic instead of retiring at once on the old epoch's marker:
/// every tuple is still observed.
#[test]
fn a_zombie_victims_redriven_retire_never_retires_its_successor() {
    let feed: Vec<Vec<Key>> = (0..20u64)
        .map(|i| {
            (0..3_000u64)
                .map(|j| Key((i * 3_000 + j) * 7_919 % 400))
                .collect()
        })
        .collect();
    let config = EngineConfig {
        n_workers: N_TASKS,
        max_workers: N_TASKS,
        spin_work: 10,
        window: 100,
        channel_capacity: 100_000,
        elasticity: Box::new(FixedSchedule::new([
            (0, ScaleDecision::ScaleIn),
            (12, ScaleDecision::ScaleOut),
        ])),
        fault_plan: FaultPlan::new(vec![FaultSpec::StallWorker {
            worker: 2,
            at_interval: 0,
            ms: 1_500,
        }]),
        deadline: Duration::from_millis(200),
        deadline_intervals: 1,
        ..EngineConfig::default()
    };
    let pace = Duration::from_millis(150);
    let report = run_paced(
        "zombie",
        config,
        Box::new(storm(N_TASKS)),
        feed.clone(),
        pace,
    );
    let aborted = FaultEvent::OpAborted {
        op: OpKind::Retire,
        epoch: 1,
    };
    assert!(report.faults.contains(&aborted), "{:?}", report.faults);
    assert!(report.lost_tuples.is_empty(), "{:?}", report.lost_tuples);
    assert_accounted_on("zombie", &report, true, &feed);
}
