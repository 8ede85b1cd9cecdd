//! Cross-partitioner invariants: every routing strategy in the workspace
//! — the four baselines and the paper's four core strategies
//! (`CoreBalancer`) — must drive both the simulator (`run_sim`) and the
//! live engine (`Engine::run`) on the same workload.
//!
//! For the engine, correctness is checked end-to-end: strategies that
//! preserve key-grouping semantics must produce *exact* word counts in
//! worker state; key-splitting strategies (Shuffle, PKG) must produce
//! exact counts after the partial/merge collector. Either way, no tuple
//! may be lost or double-counted, migrations included.

use streambal::baselines::{
    readj, storm, CoreBalancer, PkgPartitioner, ReadjConfig, ShufflePartitioner,
};
use streambal::core::{BalanceParams, IntervalStats, RebalanceStrategy, RoutingView};
use streambal::elastic::{FixedSchedule, FixedSplitSchedule};
use streambal::hashring::FxHashMap;
use streambal::prelude::{Key, Partitioner, TaskId};
use streambal::runtime::{
    Collector, Engine, EngineConfig, SourceRouter, SumCollector, Tuple, WordCountOp,
};
use streambal::sim::source::ZipfSource;
use streambal::sim::{run_sim, SimConfig};
use streambal::workloads::FluctuatingWorkload;

/// Workload parameters shared by the sim and engine sides.
const N_TASKS: usize = 3;
const KEYS: usize = 400;
const ZIPF: f64 = 1.0;
const TUPLES: u64 = 6_000;
const FLUCTUATION: f64 = 0.6;
const SEED: u64 = 4242;
const INTERVALS: usize = 5;

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

/// Sim side: each partitioner completes the interval loop and reports one
/// θ sample per interval.
#[test]
fn every_partitioner_completes_a_sim_run() {
    let cfg = SimConfig {
        n_tasks: N_TASKS,
        intervals: INTERVALS,
    };
    for mut p in all_partitioners() {
        let name = p.name();
        let mut src = ZipfSource::new(KEYS, ZIPF, TUPLES, FLUCTUATION, SEED);
        let report = run_sim(p.as_mut(), &mut src, &cfg);
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
    }
}

/// The adaptive strategies must actually fire rebalances on this skewed,
/// fluctuating workload in the simulator (static ones must not).
#[test]
fn adaptive_strategies_rebalance_in_sim() {
    let cfg = SimConfig {
        n_tasks: N_TASKS,
        intervals: INTERVALS,
    };
    for mut p in all_partitioners() {
        let name = p.name();
        let mut src = ZipfSource::new(KEYS, ZIPF, TUPLES, FLUCTUATION, SEED);
        let report = run_sim(p.as_mut(), &mut src, &cfg);
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
    let intervals = keyed_intervals();
    let expect = reference_counts(&intervals);
    let total: u64 = intervals.iter().map(|iv| iv.len() as u64).sum();
    for batch_size in [1, 3, 256] {
        let label = format!("batch={batch_size}");
        let feed = intervals.clone();
        let report = Engine::run(
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
            Box::new(CoreBalancer::new(
                N_TASKS,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(report.rebalances > 0, "{label}: skew must force rebalances");
        assert!(
            report.per_worker_processed[N_TASKS] > 0,
            "{label}: scale-out worker got no traffic: {:?}",
            report.per_worker_processed
        );
        assert_eq!(report.processed, total, "{label}: tuples lost/duplicated");
        // Sum duplicate keys: scale-out re-pins keys to the new worker
        // without moving their old state, so a key's count may be split
        // across two workers — the *sum* must still be exact.
        let mut got: FxHashMap<Key, u64> = FxHashMap::default();
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "{label}: word counts diverged");
        assert!(
            report.protocol_errors.is_empty(),
            "{label}: protocol errors: {:?}",
            report.protocol_errors
        );
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
    let intervals = keyed_intervals();
    let expect = reference_counts(&intervals);
    let total: u64 = intervals.iter().map(|iv| iv.len() as u64).sum();
    for batch_size in [1, 3, 256] {
        for p in all_partitioners() {
            let name = p.name();
            let label = format!("{name}/batch={batch_size}");
            let preserves = p.preserves_key_semantics();
            let feed = intervals.clone();
            let report = Engine::run(
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
                |_| {
                    if preserves {
                        Box::new(WordCountOp::new())
                    } else {
                        Box::new(WordCountOp::with_partial_emission(8))
                    }
                },
                move |iv| {
                    feed.get(iv as usize)
                        .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
                },
                (!preserves).then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
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
            assert_eq!(report.processed, total, "{label}: tuples lost/duplicated");
            let got: FxHashMap<Key, u64> = if preserves {
                let mut m: FxHashMap<Key, u64> = FxHashMap::default();
                for (k, blob) in &report.final_states {
                    let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
                    *m.entry(*k).or_insert(0) += n;
                }
                m
            } else {
                report
                    .collector_result
                    .iter()
                    .map(|&(k, v)| (Key(k), v))
                    .collect()
            };
            assert_eq!(got, expect, "{label}: word counts diverged");
            assert!(
                report.protocol_errors.is_empty(),
                "{label}: protocol errors: {:?}",
                report.protocol_errors
            );
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
    let intervals = keyed_intervals();
    let expect = reference_counts(&intervals);
    let total: u64 = intervals.iter().map(|iv| iv.len() as u64).sum();
    for batch_size in [1, 3, 256] {
        for p in all_partitioners() {
            let name = p.name();
            let label = format!("{name}/batch={batch_size}");
            let preserves = p.preserves_key_semantics();
            let feed = intervals.clone();
            let report = Engine::run(
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
                |_| {
                    if preserves {
                        Box::new(WordCountOp::new())
                    } else {
                        Box::new(WordCountOp::with_partial_emission(8))
                    }
                },
                move |iv| {
                    feed.get(iv as usize)
                        .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
                },
                (!preserves).then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
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
            assert_eq!(report.processed, total, "{label}: tuples lost/duplicated");
            let got: FxHashMap<Key, u64> = if preserves {
                let mut m: FxHashMap<Key, u64> = FxHashMap::default();
                for (k, blob) in &report.final_states {
                    let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
                    *m.entry(*k).or_insert(0) += n;
                }
                m
            } else {
                report
                    .collector_result
                    .iter()
                    .map(|&(k, v)| (Key(k), v))
                    .collect()
            };
            assert_eq!(got, expect, "{label}: word counts diverged");
            assert!(
                report.protocol_errors.is_empty(),
                "{label}: protocol errors: {:?}",
                report.protocol_errors
            );
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
    let intervals = keyed_intervals();
    let expect = reference_counts(&intervals);
    let total: u64 = intervals.iter().map(|iv| iv.len() as u64).sum();
    // The workload's hottest key: the one whose split actually moves
    // replica traffic (ties broken low for determinism).
    let hot = expect
        .iter()
        .max_by_key(|&(k, &c)| (c, std::cmp::Reverse(k.raw())))
        .map(|(&k, _)| k)
        .expect("non-empty workload");
    for batch_size in [1, 3, 256] {
        for p in all_partitioners() {
            let name = p.name();
            let label = format!("{name}/batch={batch_size}");
            let splittable = !matches!(name.as_str(), "Ideal" | "PKG");
            let preserves = p.preserves_key_semantics();
            let feed = intervals.clone();
            let report = Engine::run(
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
                |_| {
                    if preserves {
                        Box::new(WordCountOp::new())
                    } else {
                        Box::new(WordCountOp::with_partial_emission(8))
                    }
                },
                move |iv| {
                    feed.get(iv as usize)
                        .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
                },
                (!preserves).then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
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
            assert_eq!(report.processed, total, "{label}: tuples lost/duplicated");
            let got: FxHashMap<Key, u64> = if preserves {
                let mut m: FxHashMap<Key, u64> = FxHashMap::default();
                for (k, blob) in &report.final_states {
                    let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
                    *m.entry(*k).or_insert(0) += n;
                }
                m
            } else {
                report
                    .collector_result
                    .iter()
                    .map(|&(k, v)| (Key(k), v))
                    .collect()
            };
            assert_eq!(got, expect, "{label}: word counts diverged");
            assert!(
                report.protocol_errors.is_empty(),
                "{label}: protocol errors: {:?}",
                report.protocol_errors
            );
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
        let feed = intervals.clone();
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
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            (!preserves).then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
        );

        assert_eq!(report.processed, total, "{name}: tuples lost or duplicated");

        let got: FxHashMap<Key, u64> = if preserves {
            report
                .final_states
                .iter()
                .map(|(k, blob)| {
                    let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
                    (*k, n)
                })
                .collect()
        } else {
            report
                .collector_result
                .iter()
                .map(|&(k, v)| (Key(k), v))
                .collect()
        };
        assert_eq!(got, expect, "{name}: word counts diverged");
    }
}

/// No threads: after every kind of table mutation, a `SourceRouter` fed
/// exactly what the controller would ship — the plan's moves as a
/// `TableDelta` when the rebalance installed as one, the dead slot's
/// re-pins as a `TableDelta`, the full `routing_view()` otherwise —
/// routes every key like the one table-backed partitioner, whichever
/// planner it carries.
#[test]
fn source_router_stays_in_lockstep_through_every_table_mutation() {
    // Reported keys, then keys only `apply_moves` ever names (no window
    // row: their entries are the stale ones a resync drops).
    const REPORTED: u64 = 500;
    const PARKED: std::ops::Range<u64> = 10_000..12_000;
    let domain: Vec<Key> = (0..REPORTED).chain(PARKED).map(Key).collect();
    let skewed = |hot: std::ops::Range<u64>| {
        let mut iv = IntervalStats::new();
        for k in 0..REPORTED {
            let cost = if hot.contains(&k) { 1_000 } else { 2 };
            iv.observe(Key(k), 1, cost, cost);
        }
        iv
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

        let moves = p.reroute_dead(TaskId(1), &|d| d == 1);
        router.update(RoutingView::TableDelta {
            n_tasks: p.n_tasks(),
            moves,
        });
        in_lockstep(p.as_mut(), &mut router, &domain, "reroute_dead");

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
}
