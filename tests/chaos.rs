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

use std::time::Duration;

use streambal::baselines::{
    readj, storm, CoreBalancer, PkgPartitioner, ReadjConfig, ShufflePartitioner,
};
use streambal::core::{BalanceParams, RebalanceStrategy};
use streambal::hashring::FxHashMap;
use streambal::prelude::{Key, Partitioner, TaskId};
use streambal::runtime::{
    Collector, CtlKind, Engine, EngineConfig, EngineReport, FaultEvent, FaultPlan, FaultSpec,
    KillTrigger, OpKind, SumCollector, Tuple, WordCountOp,
};
use streambal::workloads::FluctuatingWorkload;

/// Workload parameters, mirroring `cross_partitioner.rs` so the fault
/// runs stress the same skewed, fluctuating, migration-heavy regime the
/// exactness suite proves correct without faults.
const N_TASKS: usize = 3;
const KEYS: usize = 400;
const ZIPF: f64 = 1.0;
const TUPLES: u64 = 6_000;
const FLUCTUATION: f64 = 0.6;
const SEED: u64 = 4242;
const INTERVALS: usize = 5;

/// Hard ceiling on one engine run. A wedged protocol (the failure mode
/// this suite exists to catch) panics the test instead of hanging CI.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// Every partitioner under test, freshly constructed.
fn all_partitioners() -> Vec<Box<dyn Partitioner>> {
    let params = BalanceParams {
        theta_max: 0.05,
        ..BalanceParams::default()
    };
    let mut out: Vec<Box<dyn Partitioner>> = vec![
        Box::new(storm(N_TASKS)),
        Box::new(ShufflePartitioner::new(N_TASKS)),
        Box::new(PkgPartitioner::new(N_TASKS)),
        Box::new(readj(
            N_TASKS,
            100,
            ReadjConfig {
                theta_max: 0.05,
                sigma: 0.01,
                max_actions: 512,
            },
        )),
    ];
    for strategy in [
        RebalanceStrategy::Mixed,
        RebalanceStrategy::MinTable,
        RebalanceStrategy::MinMig,
        RebalanceStrategy::Simple,
    ] {
        out.push(Box::new(CoreBalancer::new(N_TASKS, 100, strategy, params)));
    }
    out
}

/// A fresh CoreBalancer/Mixed: the workhorse strategy for targeted
/// fault tests, since it migrates on every interval of this workload.
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

fn reference_counts(intervals: &[Vec<Key>]) -> FxHashMap<Key, u64> {
    let mut m = FxHashMap::default();
    for iv in intervals {
        for &k in iv {
            *m.entry(k).or_insert(0) += 1;
        }
    }
    m
}

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
        op_deadline_intervals: 1,
        op_deadline: Duration::from_millis(400),
        round_deadline_intervals: 2,
        round_deadline: Duration::from_millis(400),
        ..EngineConfig::default()
    }
}

/// Runs the engine on the shared workload with the given partitioner
/// and config, panicking (not hanging) if the run does not terminate.
fn run_chaos(label: &str, config: EngineConfig, p: Box<dyn Partitioner>) -> EngineReport {
    let preserves = p.preserves_key_semantics();
    let feed = keyed_intervals();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = Engine::run(
            config,
            p,
            |_| {
                if preserves {
                    Box::new(WordCountOp::new())
                } else {
                    // Split keys need partial emission + a merge stage.
                    Box::new(WordCountOp::with_partial_emission(8))
                }
            },
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            (!preserves).then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
        );
        let _ = tx.send(report);
    });
    rx.recv_timeout(RUN_TIMEOUT)
        .unwrap_or_else(|_| panic!("{label}: engine run did not terminate"))
}

/// The accounting invariant: per key, observed output plus accounted
/// loss equals what was fed — no silent drops, no double counts.
fn assert_accounted(
    label: &str,
    report: &EngineReport,
    expect: &FxHashMap<Key, u64>,
    preserves: bool,
) {
    let mut got: FxHashMap<Key, u64> = FxHashMap::default();
    if preserves {
        // A key's count may legitimately split across workers after a
        // re-route or rollback; the *sum* must balance.
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
    } else {
        for &(k, v) in &report.collector_result {
            *got.entry(Key(k)).or_insert(0) += v;
        }
    }
    for &(k, n) in &report.lost_tuples {
        *got.entry(k).or_insert(0) += n;
    }
    for (k, &e) in expect {
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
    let expect = reference_counts(&keyed_intervals());
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
    let a = run_chaos("ledger-a", config(), Box::new(storm(N_TASKS)));
    let b = run_chaos("ledger-b", config(), Box::new(storm(N_TASKS)));
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
    assert_eq!(
        a.faults, b.faults,
        "same plan must replay to the same ledger"
    );
    assert_accounted("ledger-a", &a, &expect, true);
    assert_accounted("ledger-b", &b, &expect, true);
}

/// A worker killed *mid-migration* — it dies on receipt of its first
/// `MigrateOut`, while the source is paused and the controller holds a
/// half-collected state transfer. The controller must untangle the
/// in-flight op (skip the dead participant, forward what it holds,
/// resume the source), account the dead worker's state, and finish.
#[test]
fn mid_migration_worker_kill_recovers_and_accounts() {
    let expect = reference_counts(&keyed_intervals());
    for victim in [1usize, 2] {
        let label = format!("kill-on-migrate-out({victim})");
        let plan = FaultPlan::new(vec![FaultSpec::KillOnMigrateOut {
            worker: victim,
            nth: 1,
        }]);
        let report = run_chaos(&label, chaos_config(plan), mixed_balancer());
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
        assert_accounted(&label, &report, &expect, true);
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
    let expect = reference_counts(&keyed_intervals());
    let hot = expect
        .iter()
        .max_by_key(|&(k, &c)| (c, std::cmp::Reverse(k.raw())))
        .map(|(&k, _)| k)
        .expect("non-empty workload");
    for victim in [1usize, 2] {
        let label = format!("kill-mid-split({victim})");
        let plan = FaultPlan::new(vec![FaultSpec::KillWorker {
            worker: victim,
            at_interval: 2,
        }]);
        let mut config = chaos_config(plan);
        config.split = Some(Box::new(streambal::elastic::FixedSplitSchedule::cycle(
            hot.raw(),
            N_TASKS,
            1,
            3,
        )));
        let report = run_chaos(&label, config, mixed_balancer());
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
        assert_accounted(&label, &report, &expect, true);
    }
}

/// A worker killed on receipt of a `StateInstall`: the tuples inside
/// the arriving blobs were already extracted from their origin, so they
/// exist nowhere but the message that killed their new owner — they
/// must land in `lost_tuples`, not vanish.
#[test]
fn kill_on_install_accounts_in_flight_state() {
    let expect = reference_counts(&keyed_intervals());
    let plan = FaultPlan::new(vec![FaultSpec::KillOnInstall { worker: 2, nth: 1 }]);
    let label = "kill-on-install(2)";
    let report = run_chaos(label, chaos_config(plan), mixed_balancer());
    assert_accounted(label, &report, &expect, true);
}

/// A dropped `PauseAck` wedges the migration handshake at its first
/// phase; the op deadline must re-drive the pause (the source's re-ack
/// is idempotent) and the run must stay *exact* — no worker died, so
/// nothing may be lost.
#[test]
fn dropped_pause_ack_is_redriven_and_stays_exact() {
    let expect = reference_counts(&keyed_intervals());
    let plan = FaultPlan::new(vec![FaultSpec::DropCtl {
        kind: CtlKind::PauseAck,
        nth: 1,
    }]);
    let label = "drop-pause-ack";
    let report = run_chaos(label, chaos_config(plan), mixed_balancer());
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
    assert_accounted(label, &report, &expect, true);
}

/// The seeded sweep: `FaultPlan::from_seed` draws 1–3 faults (kills,
/// control-message drops, stalls) and every partitioner must survive
/// every plan — terminate, keep the per-key accounting balanced, and
/// report no protocol errors. Strategies that never migrate make some
/// plans inert (a `KillOnMigrateOut` never fires under hashing); those
/// runs must then be exact, which the same invariant checks (empty
/// `lost_tuples` makes `observed + lost == fed` an exactness claim).
#[test]
fn seeded_sweep_accounts_every_tuple_across_partitioners() {
    let expect = reference_counts(&keyed_intervals());
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
            let report = run_chaos(&label, chaos_config(plan), p);
            assert_accounted(&label, &report, &expect, preserves);
        }
    }
}
