//! Cross-partitioner invariants: every routing strategy in the workspace
//! — the four baselines and the paper's four core strategies
//! (`CoreBalancer`) — must drive both the simulator (`Sim::run`) and the
//! live engine (`Engine::run`) on the same workload.
//!
//! For the engine, correctness is checked end-to-end: strategies that
//! preserve key-grouping semantics must produce *exact* word counts in
//! worker state; key-splitting strategies (Shuffle, PKG) must produce
//! exact counts after the partial/merge collector. Either way, no tuple
//! may be lost or double-counted, migrations included.

mod common;

use common::{
    all_partitioners, assert_exact, hottest_key, keyed_intervals, mixed_balancer, observed_counts,
    reference_counts, run_engine, FLUCTUATION, INTERVALS, KEYS, N_TASKS, SEED, TUPLES, ZIPF,
};
use streambal::baselines::{pkg, readj, shuffle, storm, CoreBalancer, ReadjConfig};
use streambal::core::{
    divert, BalanceParams, IntervalStats, KeyStat, RebalanceStrategy, RoutingView,
};
use streambal::elastic::{FixedSchedule, FixedSplitSchedule};
use streambal::hashring::HashRing;
use streambal::prelude::{Key, Partitioner, TaskId};
use streambal::runtime::{
    replay, Collector, Engine, EngineConfig, SourceRouter, SumCollector, WordCountOp,
};
use streambal::sim::source::ZipfSource;
use streambal::sim::Sim;

fn sim_run(p: &mut dyn Partitioner) -> streambal::sim::SimReport {
    let sim = Sim {
        intervals: INTERVALS,
        ..Sim::default()
    };
    sim.run(
        p,
        &mut ZipfSource::new(KEYS, ZIPF, TUPLES, FLUCTUATION, SEED),
    )
}

/// Sim side: each partitioner completes the interval loop and reports one
/// θ sample per interval. A strategy that spreads a key's tuples is
/// counted tuple by tuple, as the engine routes it, so it runs balanced.
#[test]
fn every_partitioner_completes_a_sim_run() {
    for mut p in all_partitioners() {
        let name = p.name();
        let report = sim_run(p.as_mut());
        assert_eq!(
            report.theta_series.len(),
            INTERVALS,
            "{name}: interval count"
        );
        assert!(
            report.mean_skewness() >= 1.0 - 1e-9,
            "{name}: skewness below 1: {}",
            report.mean_skewness()
        );
        assert!(
            p.preserves_key_semantics() || report.mean_skewness() <= 1.01,
            "{name}: a key-splitting strategy skews: {}",
            report.mean_skewness()
        );
    }
}

/// The adaptive strategies must actually fire rebalances on this skewed,
/// fluctuating workload in the simulator (static ones must not).
#[test]
fn adaptive_strategies_rebalance_in_sim() {
    for mut p in all_partitioners() {
        let name = p.name();
        let report = sim_run(p.as_mut());
        let adaptive = !matches!(name.as_str(), "Storm" | "Ideal" | "PKG");
        if adaptive {
            assert!(report.rebalances > 0, "{name}: expected rebalances");
        } else {
            assert_eq!(report.rebalances, 0, "{name}: static strategy rebalanced");
        }
    }
}

/// Migration consistency under the batched data plane, at maximal
/// stress: channels squeezed to 4 messages (every send blocks), a
/// skewed fluctuating workload forcing mid-run rebalances, and a
/// scale-out after interval 1 — across batch sizes 1, 3 and 256, the
/// last larger than the channel capacity. Exact word counts prove no
/// batch flush ever reorders around a `MigrateOut`/`StateInstall`/
/// `Shutdown` marker: a lost or doubled tuple, or state extracted
/// before its pre-pause tuples landed, would show up as a count
/// mismatch.
#[test]
fn tiny_channels_rebalance_and_scale_out_stay_exact() {
    for batch_size in [1, 3, 256] {
        let label = format!("batch={batch_size}");
        let config = EngineConfig {
            n_workers: N_TASKS,
            max_workers: N_TASKS + 1,
            channel_capacity: 4,
            collector_capacity: 2,
            batch_size,
            spin_work: 10,
            window: 100, // retain all state: exact count validation
            elasticity: Box::new(FixedSchedule::scale_out_at(1)),
            ..EngineConfig::default()
        };
        let report = run_engine(&label, config, mixed_balancer());
        assert!(report.rebalances > 0, "{label}: skew must force rebalances");
        assert!(
            report.per_worker_processed[N_TASKS] > 0,
            "{label}: scale-out worker got no traffic: {:?}",
            report.per_worker_processed
        );
        assert_exact(&label, &report, true);
    }
}

/// A pre-placed scale-out across every partitioner, under maximal
/// stress: channels squeezed to 4 tuples, a skewed fluctuating workload,
/// one forced scale-out after interval 1, across batch sizes 1/3/256.
/// Exact word counts prove the plan → quiesce → install → resume
/// window loses nothing: state
/// extracted before its pre-pause tuples landed, a tuple slipping to the
/// new worker before its key's state installed, or a pause-buffered
/// tuple lost in the flush would all surface as a count mismatch. And
/// the point of pre-placement — the new worker takes traffic instead of
/// idling — holds for *all* strategies: table-backed ones receive their
/// churned keys' state inside the scale-out window, key-oblivious and
/// key-splitting ones route to the new slot immediately.
#[test]
fn preplaced_scale_out_stays_exact_for_all_partitioners() {
    for batch_size in [1, 3, 256] {
        for p in all_partitioners() {
            let name = p.name();
            let label = format!("{name}/batch={batch_size}");
            let preserves = p.preserves_key_semantics();
            let report = run_engine(
                &label,
                EngineConfig {
                    n_workers: N_TASKS,
                    max_workers: N_TASKS + 1,
                    channel_capacity: 4,
                    collector_capacity: 2,
                    batch_size,
                    spin_work: 10,
                    window: 100, // retain all state: exact count validation
                    elasticity: Box::new(FixedSchedule::scale_out_at(1)),
                    ..EngineConfig::default()
                },
                p,
            );
            assert_eq!(
                report
                    .scale_events
                    .iter()
                    .map(|e| (e.interval, e.from, e.to))
                    .collect::<Vec<_>>(),
                vec![(1, N_TASKS, N_TASKS + 1)],
                "{label}: scale-out not executed"
            );
            assert!(
                report.per_worker_processed[N_TASKS] > 0,
                "{label}: scaled-out worker stayed cold: {:?}",
                report.per_worker_processed
            );
            assert!(
                report.first_tuple_interval[N_TASKS].is_some(),
                "{label}: no first-tuple interval recorded for the new slot"
            );
            assert_exact(&label, &report, preserves);
        }
    }
}

/// Scale-in across every partitioner, under maximal stress: a forced
/// scale-out → scale-in round trip mid-run (grow after interval 1, retire
/// after interval 3) with channels squeezed to 4 tuples, across batch
/// sizes 1/3/256. Exact word counts prove the drain → migrate → retire
/// protocol loses nothing: a tuple dropped
/// around the victim's `Retire` marker, state extracted before its
/// pre-pause tuples landed, or a pause-buffered tuple overtaken by
/// `Shutdown` would all surface as a count mismatch. Counts are summed
/// per key across workers (scale-out pins keys without moving old state,
/// so a key's count may be legitimately split).
#[test]
fn scale_round_trip_stays_exact_for_all_partitioners() {
    for batch_size in [1, 3, 256] {
        for p in all_partitioners() {
            let name = p.name();
            let label = format!("{name}/batch={batch_size}");
            let preserves = p.preserves_key_semantics();
            let report = run_engine(
                &label,
                EngineConfig {
                    n_workers: N_TASKS,
                    max_workers: N_TASKS + 1,
                    channel_capacity: 4,
                    collector_capacity: 2,
                    batch_size,
                    spin_work: 10,
                    window: 100, // retain all state: exact count validation
                    elasticity: Box::new(FixedSchedule::cycle(1, 3, 1)),
                    ..EngineConfig::default()
                },
                p,
            );
            // The cycle executed: up to N_TASKS+1 and back.
            assert_eq!(
                report
                    .scale_events
                    .iter()
                    .map(|e| (e.interval, e.from, e.to))
                    .collect::<Vec<_>>(),
                vec![(1, N_TASKS, N_TASKS + 1), (3, N_TASKS + 1, N_TASKS),],
                "{label}: cycle not executed"
            );
            assert_exact(&label, &report, preserves);
        }
    }
}

/// A forced hot-key split/unsplit cycle mid-run across every
/// partitioner: the workload's hottest key is salted over all three
/// workers after interval 1 and consolidated after interval 3, at
/// batch sizes 1/3/256. Table-backed strategies (Storm, Readj, the four `CoreBalancer` strategies) must
/// execute the cycle — one split event, one unsplit event, the key's
/// merged count exact after replica partials reunify on the primary.
/// Key-spreading strategies (Ideal, PKG) decline `split_key` by design
/// (they already spread every key), and the forced ops must no-op
/// without disturbing exactness.
#[test]
fn forced_split_cycle_stays_exact_for_all_partitioners() {
    let hot = hottest_key();
    for batch_size in [1, 3, 256] {
        for p in all_partitioners() {
            let name = p.name();
            let label = format!("{name}/batch={batch_size}");
            let splittable = !matches!(name.as_str(), "Ideal" | "PKG");
            let preserves = p.preserves_key_semantics();
            let report = run_engine(
                &label,
                EngineConfig {
                    n_workers: N_TASKS,
                    max_workers: N_TASKS,
                    channel_capacity: 4,
                    collector_capacity: 2,
                    batch_size,
                    spin_work: 10,
                    window: 100, // retain all state: exact count validation
                    split: Some(Box::new(FixedSplitSchedule::cycle(
                        hot.raw(),
                        N_TASKS,
                        1,
                        3,
                    ))),
                    ..EngineConfig::default()
                },
                p,
            );
            let events: Vec<(u64, u64, usize, usize)> = report
                .split_events
                .iter()
                .map(|e| (e.interval, e.key, e.from, e.to))
                .collect();
            if splittable {
                assert_eq!(
                    events,
                    vec![(1, hot.raw(), 1, N_TASKS), (3, hot.raw(), N_TASKS, 1)],
                    "{label}: forced split cycle not executed"
                );
            } else {
                assert_eq!(
                    events,
                    Vec::new(),
                    "{label}: key-spreading strategy must decline the split"
                );
            }
            assert_exact(&label, &report, preserves);
        }
    }
}

/// Engine side: every partitioner processes the full input, and word
/// counts are exact — from worker state where key grouping holds, from
/// the partial/merge collector where it does not.
#[test]
fn engine_word_counts_exact_across_partitioners() {
    let intervals = keyed_intervals();
    let expect = reference_counts(&intervals);
    let total: u64 = intervals.iter().map(|iv| iv.len() as u64).sum();

    for p in all_partitioners() {
        let name = p.name();
        let preserves = p.preserves_key_semantics();
        let report = Engine::run(
            EngineConfig {
                n_workers: N_TASKS,
                max_workers: N_TASKS,
                spin_work: 10,
                window: 100, // retain all state: exact count validation
                ..EngineConfig::default()
            },
            p,
            |_| {
                if preserves {
                    Box::new(WordCountOp::new())
                } else {
                    // Split keys need partial emission + a merge stage.
                    Box::new(WordCountOp::with_partial_emission(32))
                }
            },
            replay(&intervals),
            (!preserves).then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
        );

        assert_eq!(report.processed, total, "{name}: tuples lost or duplicated");

        let got = observed_counts(&report, preserves);
        assert_eq!(got, expect, "{name}: word counts diverged");
    }
}

/// No threads: after every kind of table mutation, a `SourceRouter` fed
/// exactly what the controller would ship — the plan's moves as a
/// `TableDelta` when the rebalance installed as one, nothing at a death,
/// the full `routing_view()` otherwise — routes every key like the one
/// table-backed partitioner, whichever planner it carries. After a death
/// the two agree once each diverts its route by the one rule: the router
/// still holds the dead slot's entries the partitioner re-pinned. The
/// key-spreading strategies (PKG, shuffle) keep per-holder state, their
/// estimates and cursor, which their scale views must carry over alike
/// on both sides, and they divert alike too.
#[test]
fn source_router_stays_in_lockstep_through_every_table_mutation() {
    // Reported keys, then keys only `apply_moves` ever names (no window
    // row: their entries are the stale ones a resync drops).
    const REPORTED: u64 = 500;
    const PARKED: std::ops::Range<u64> = 10_000..12_000;
    let domain: Vec<Key> = (0..REPORTED).chain(PARKED).map(Key).collect();
    let skewed = |hot: std::ops::Range<u64>| -> IntervalStats {
        (0..REPORTED)
            .map(|k| {
                let cost = if hot.contains(&k) { 1_000 } else { 2 };
                (Key(k), KeyStat::new(1, cost, cost))
            })
            .collect()
    };
    fn in_lockstep(p: &mut dyn Partitioner, router: &mut SourceRouter, domain: &[Key], op: &str) {
        let name = p.name();
        let splits = p.splits();
        for &k in domain {
            let at_source = router.route(k);
            // A split key rotates per holder; any replica is in step.
            match splits.iter().find(|(split, _)| *split == k) {
                Some((_, replicas)) => assert!(
                    replicas.contains(&at_source),
                    "{name} after {op}: split {k:?} left its replicas"
                ),
                None => assert_eq!(at_source, p.route(k), "{name} after {op}: {k:?}"),
            }
        }
    }
    // Both holders' routes through the divert around dead slot 1: none
    // lands on it, and each key lands on one survivor.
    fn diverted_in_lockstep(p: &mut dyn Partitioner, router: &mut SourceRouter, domain: &[Key]) {
        let name = p.name();
        let (ring, dead) = (HashRing::new(p.n_tasks()), |d| d == 1);
        for &k in domain {
            let at_source = divert(&ring, k, router.route(k), dead);
            assert_ne!(at_source, TaskId(1), "{name}: {k:?} sent to the corpse");
            let routed = divert(&ring, k, p.route(k), dead);
            assert_eq!(at_source, routed, "{name} after a death: {k:?}");
        }
    }
    let params = BalanceParams::default();
    let core = |s| Box::new(CoreBalancer::new(4, 2, s, params)) as Box<dyn Partitioner>;
    let strategies: Vec<Box<dyn Partitioner>> = vec![
        Box::new(storm(4)),
        Box::new(readj(4, 2, ReadjConfig::default())),
        core(RebalanceStrategy::Mixed),
        core(RebalanceStrategy::MinTable),
        core(RebalanceStrategy::MinMig),
    ];
    for mut p in strategies {
        let plans = p.name() != "Storm";
        let mut router = SourceRouter::from_view(p.routing_view());
        let rebalance = |p: &mut dyn Partitioner, router: &mut SourceRouter, iv, delta, op| {
            match p.end_interval(iv) {
                Some(out) => {
                    assert!(plans, "Storm planned");
                    assert_eq!(p.last_install_was_delta(), delta, "{}: {op}", p.name());
                    router.update(if delta {
                        RoutingView::TableDelta {
                            n_tasks: p.n_tasks(),
                            moves: out.plan.moves().iter().map(|m| (m.key, m.to)).collect(),
                        }
                    } else {
                        p.routing_view()
                    });
                }
                None => assert!(!plans, "{}: {op} did not fire", p.name()),
            }
            in_lockstep(p, router, &domain, op);
        };
        rebalance(
            p.as_mut(),
            &mut router,
            skewed(0..3),
            true,
            "a delta rebalance",
        );

        // A roll-back-shaped move list parks keys the window never saw.
        let parked: Vec<(Key, TaskId)> = PARKED
            .map(|k| (Key(k), TaskId::from((p.route(Key(k)).index() + 1) % 4)))
            .collect();
        assert!(p.apply_moves(&parked));
        router.update(p.routing_view());
        in_lockstep(p.as_mut(), &mut router, &domain, "apply_moves");

        // Their stale entries now outnumber any outcome: the next plan
        // resyncs through `swap_table` and the source needs the full view.
        rebalance(
            p.as_mut(),
            &mut router,
            skewed(10..13),
            false,
            "a resync rebalance",
        );

        let live: Vec<Key> = (0..REPORTED).map(Key).collect();
        let (new, _) = p.scale_out_plan(&live);
        router.update(p.routing_view());
        in_lockstep(p.as_mut(), &mut router, &domain, "scale_out_plan");

        // The router hears of the death alone; the next full view
        // (the split's, below) drops its stale entries.
        p.reroute_dead(TaskId(1), &|d| d == 1);
        diverted_in_lockstep(p.as_mut(), &mut router, &domain);

        let hot = Key(11);
        let primary = p.route(hot);
        let other = TaskId::from((primary.index() + 2) % 4);
        assert!(p.split_key(hot, &[primary, other]));
        router.update(p.routing_view());
        in_lockstep(p.as_mut(), &mut router, &domain, "split_key");

        assert_eq!(p.unsplit_key(hot), Some(vec![primary, other]));
        router.update(p.routing_view());
        in_lockstep(p.as_mut(), &mut router, &domain, "unsplit_key");

        p.scale_in(new, &live);
        router.update(p.routing_view());
        in_lockstep(p.as_mut(), &mut router, &domain, "scale_in");
    }

    for mut p in [
        Box::new(pkg(4)) as Box<dyn Partitioner>,
        Box::new(shuffle(4)),
    ] {
        let mut router = SourceRouter::from_view(p.routing_view());
        // A few keys first, so the shuffle cursor is mid-cycle.
        in_lockstep(p.as_mut(), &mut router, &domain[..7], "routing");
        let live: Vec<Key> = (0..REPORTED).map(Key).collect();
        let (new, _) = p.scale_out_plan(&live);
        router.update(p.routing_view());
        in_lockstep(p.as_mut(), &mut router, &domain[..7], "scale_out_plan");
        p.scale_in(new, &live);
        router.update(p.routing_view());
        in_lockstep(p.as_mut(), &mut router, &domain, "scale_in");
        p.reroute_dead(TaskId(1), &|d| d == 1);
        diverted_in_lockstep(p.as_mut(), &mut router, &domain);
    }
}
