//! The elasticity hook behaves identically across drivers: a decision
//! trace planned in the simulator (`run_sim_elastic`) replays on the live
//! engine (`EngineConfig::elasticity`) `ScaleEvent` for `ScaleEvent`.
//!
//! Two layers, split by what can be made deterministic on a one-core CI
//! box. The *policy* layer is pinned in the simulator, which observes
//! exact interval statistics: the threshold policy must produce exactly
//! the expected out/in trace on the burst workload. The *execution*
//! layer is pinned in the engine with the sim's trace replayed as a
//! `FixedSchedule`: schedule decisions depend only on interval numbers —
//! which the stats rounds carry exactly, however the OS scheduler blurs
//! *which tuples* each round observes — so the engine must emit the
//! byte-identical event sequence, proving the hook, clamping, victim
//! selection, and event recording agree across drivers. (Asserting the
//! engine's *load-driven* trace instead would be inherently flaky here:
//! with every thread time-sharing one core, a descheduled controller can
//! collapse whole intervals into one statistics round, and no watermark
//! margin survives a 2× total-load distortion. The engine's load-driven
//! behaviour is covered by its own tests with order-robust assertions.)

use streambal::baselines::CoreBalancer;
use streambal::core::{BalanceParams, IntervalStats, RebalanceStrategy};
use streambal::elastic::{
    BackpressurePolicy, FixedSchedule, FixedSplitSchedule, HoldPolicy, HotKeyPolicy, ScaleDecision,
    ScaleEvent, SplitDecision, SplitEvent, ThresholdPolicy,
};
use streambal::prelude::Key;
use streambal::runtime::{Engine, EngineConfig, EventKind, OpLabel, Tuple, WordCountOp};
use streambal::sim::source::ReplaySource;
use streambal::sim::{
    run_sim_elastic, run_sim_elastic_queued, run_sim_elastic_split, QueueModel, SimConfig,
};

const N_TASKS: usize = 3;
const MAX_TASKS: usize = 4;
const SPIN: u32 = 10; // per-tuple cost = SPIN + 1 = 11, in both drivers
const QUIET: u64 = 4_000; // tuples per quiet interval
const KEYS: u64 = 500;

/// Interval tuple sequences: 2 quiet, 2 at 4× burst, 3 quiet.
fn intervals() -> Vec<Vec<Key>> {
    [1u64, 1, 4, 4, 1, 1, 1]
        .iter()
        .map(|&m| (0..QUIET * m).map(|i| Key(i % KEYS)).collect())
        .collect()
}

/// The same policy for both drivers: budget ≈ 0.7·L where L is the quiet
/// interval's total cost — quiet holds at 3 tasks, the burst scales out,
/// the quiet tail scales back in. `down_after = 2` is load-bearing for
/// determinism: a control-plane pause spanning a stats-round boundary can
/// deflate one round's observed load (its tuples land in the next round),
/// and requiring two consecutive low rounds means a single distorted
/// round can never fire a spurious scale-in.
fn policy() -> ThresholdPolicy {
    let quiet_load = QUIET as f64 * (SPIN + 1) as f64;
    let mut p = ThresholdPolicy::new(1.08 * 0.7 * quiet_load, 2, MAX_TASKS);
    p.up_after = 1;
    p.down_after = 2;
    p.cooldown = 1;
    p
}

/// θmax is set far above any observable imbalance so the rebalancer never
/// fires: this test isolates the elasticity trace, and a migration's own
/// pause window shifting tuples across round boundaries would add timing
/// noise to the observed loads.
fn partitioner() -> CoreBalancer {
    CoreBalancer::new(
        N_TASKS,
        100,
        RebalanceStrategy::Mixed,
        BalanceParams {
            theta_max: 5.0,
            ..BalanceParams::default()
        },
    )
}

/// The trace both drivers must produce: out after the first burst
/// interval (cooldown suppresses the second), in after two consecutive
/// quiet tail intervals (the cooldown then covers the run's remainder).
fn expected_trace() -> Vec<ScaleEvent> {
    vec![
        ScaleEvent {
            interval: 2,
            from: 3,
            to: 4,
        },
        ScaleEvent {
            interval: 5,
            from: 4,
            to: 3,
        },
    ]
}

#[test]
fn sim_plans_and_engine_replays_the_identical_trace() {
    let intervals = intervals();

    // --- simulator ----------------------------------------------------
    let stats: Vec<IntervalStats> = intervals
        .iter()
        .map(|keys| {
            let mut iv = IntervalStats::new();
            let mut freqs = vec![0u64; KEYS as usize];
            for k in keys {
                freqs[k.raw() as usize] += 1;
            }
            for (i, &f) in freqs.iter().enumerate() {
                if f > 0 {
                    iv.observe(Key(i as u64), f, f * (SPIN as u64 + 1), f * 8);
                }
            }
            iv
        })
        .collect();
    let mut src = ReplaySource::new(stats);
    let mut sim_policy = policy();
    let mut p = partitioner();
    let sim_report = run_sim_elastic(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        &mut sim_policy,
        MAX_TASKS,
    );

    // The policy layer is deterministic in the sim: exact stats in,
    // exact trace out.
    assert_eq!(sim_report.scale_events, expected_trace(), "sim trace");

    // --- engine: replay the sim's plan --------------------------------
    let schedule = FixedSchedule::new(sim_report.scale_events.iter().map(|e| {
        (
            e.interval,
            if e.to > e.from {
                ScaleDecision::ScaleOut
            } else {
                ScaleDecision::ScaleIn
            },
        )
    }));
    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            max_workers: MAX_TASKS,
            spin_work: SPIN,
            window: 100,
            elasticity: Box::new(schedule),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );

    assert_eq!(
        engine_report.scale_events, sim_report.scale_events,
        "engine replay diverged from the sim plan"
    );
    // And the engine run stayed lossless through the cycle.
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(engine_report.processed, total);
}

/// The queue-signal analogue of the trace-identity test above, for
/// [`BackpressurePolicy`]: the simulator plans from the *modeled* queue
/// proxy (per-task fluid backlog over a service rate, clamped at the
/// channel bound — the same `IntervalObservation::queue_depths` field the
/// engine fills from sampled channel occupancy), and the engine replays
/// that plan event-for-event. The policy layer is deterministic in the
/// sim (exact stats in, exact queue model, exact trace out); the engine
/// layer proves the hook, clamping, pre-placement spawn, and event
/// recording agree — `scale_events` must compare equal under `==`.
#[test]
fn backpressure_sim_plan_replays_identically_on_the_engine() {
    let intervals = intervals();

    // --- simulator: plan from the modeled queue signal ------------------
    let stats: Vec<IntervalStats> = intervals
        .iter()
        .map(|keys| {
            let mut iv = IntervalStats::new();
            let mut freqs = vec![0u64; KEYS as usize];
            for k in keys {
                freqs[k.raw() as usize] += 1;
            }
            for (i, &f) in freqs.iter().enumerate() {
                if f > 0 {
                    iv.observe(Key(i as u64), f, f * (SPIN as u64 + 1), f * 8);
                }
            }
            iv
        })
        .collect();
    let mut src = ReplaySource::new(stats);
    // Service 2000 tuples/task/interval: the quiet 4000 over 3 tasks
    // (≈ 1300/task) drains every interval; the 4× burst (≈ 5300/task)
    // leaves a standing backlog clamped at the channel bound, far above
    // the high watermark. After the burst the residue drains within two
    // quiet intervals, putting the total under the low watermark for the
    // two consecutive rounds `down_after` demands.
    let model = QueueModel {
        service_rate: 2_000.0,
        channel_capacity: 1_024,
        us_per_tuple: 50.0,
    };
    let mut policy = BackpressurePolicy::new(512, 16, N_TASKS, MAX_TASKS);
    policy.up_after = 1;
    policy.down_after = 2;
    policy.cooldown = 1;
    let mut p = partitioner();
    let sim_report = run_sim_elastic_queued(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        &mut policy,
        MAX_TASKS,
        model,
    );
    assert_eq!(
        sim_report.scale_events,
        vec![
            ScaleEvent {
                interval: 2,
                from: 3,
                to: 4,
            },
            ScaleEvent {
                interval: 6,
                from: 4,
                to: 3,
            },
        ],
        "sim backpressure trace"
    );

    // --- engine: replay the sim's plan ----------------------------------
    let schedule = FixedSchedule::new(sim_report.scale_events.iter().map(|e| {
        (
            e.interval,
            if e.to > e.from {
                ScaleDecision::ScaleOut
            } else {
                ScaleDecision::ScaleIn
            },
        )
    }));
    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            max_workers: MAX_TASKS,
            spin_work: SPIN,
            window: 100,
            elasticity: Box::new(schedule),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    assert_eq!(
        engine_report.scale_events, sim_report.scale_events,
        "engine replay diverged from the sim's backpressure plan"
    );
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(engine_report.processed, total);
    // The pre-placed scale-out worker actually absorbed traffic.
    assert!(
        engine_report.per_worker_processed[N_TASKS] > 0,
        "pre-placement left the scaled-out worker cold: {:?}",
        engine_report.per_worker_processed
    );
}

/// The split analogue of the scale-trace identity tests: the simulator
/// plans hot-key splits with [`HotKeyPolicy`] from exact per-key interval
/// costs (a dominant-key burst splits once, the cooled key consolidates
/// after `down_after` quiet rounds), and the engine replays that plan as
/// a [`FixedSplitSchedule`] — whose decisions depend only on interval
/// numbers, which the stats rounds carry exactly — so
/// `EngineReport::split_events` must equal the sim's trace under `==`,
/// proving the guards, replica-count choice, split/unsplit execution,
/// and event recording agree across drivers.
#[test]
fn split_sim_plan_replays_identically_on_the_engine() {
    const HOT: u64 = 500; // outside the background key range
    const BG_KEYS: u64 = 50;
    const BG_TUPLES: u64 = 2_000; // 40/key → cost 440/key, far below high
    const BURST: u64 = 4_000; // hot cost 44_000, far above high
    let intervals: Vec<Vec<Key>> = [0u64, 0, BURST, BURST, 0, 0, 0]
        .iter()
        .map(|&burst| {
            let mut v: Vec<Key> = (0..BG_TUPLES).map(|i| Key(i % BG_KEYS)).collect();
            v.extend((0..burst).map(|_| Key(HOT)));
            v
        })
        .collect();

    // --- simulator: plan the splits -------------------------------------
    let stats: Vec<IntervalStats> = intervals
        .iter()
        .map(|keys| {
            let mut iv = IntervalStats::new();
            let mut freqs = std::collections::HashMap::new();
            for k in keys {
                *freqs.entry(k.raw()).or_insert(0u64) += 1;
            }
            let mut sorted: Vec<_> = freqs.into_iter().collect();
            sorted.sort_unstable();
            for (k, f) in sorted {
                iv.observe(Key(k), f, f * (SPIN as u64 + 1), f * 8);
            }
            iv
        })
        .collect();
    let mut src = ReplaySource::new(stats);
    // budget = 21_600/1.08 = 20_000: high mark 18_000 sits between the
    // background per-key cost (440) and the burst key's (44_000). The
    // replica count is sized by share, not cost: s = 44_000/66_000, so
    // ⌈s·n/(s + θmax)⌉ = ⌈2/0.747⌉ = 3 replicas cover the 3 tasks. The
    // engine may take the split from a provisional round of interval 2
    // instead of its closing round; the event is the same either way.
    let mut hot = HotKeyPolicy::new(21_600.0);
    let mut p = partitioner();
    let sim_report = run_sim_elastic_split(
        &mut p,
        &mut src,
        &SimConfig {
            n_tasks: N_TASKS,
            intervals: intervals.len(),
        },
        &mut HoldPolicy,
        N_TASKS,
        QueueModel::none(),
        &mut hot,
    );
    assert_eq!(
        sim_report.split_events,
        vec![
            SplitEvent {
                interval: 2,
                key: HOT,
                from: 1,
                to: 3,
            },
            SplitEvent {
                interval: 5,
                key: HOT,
                from: 3,
                to: 1,
            },
        ],
        "sim split trace"
    );

    // --- engine: replay the sim's plan ----------------------------------
    let schedule = FixedSplitSchedule::new(sim_report.split_events.iter().map(|e| {
        (
            e.interval,
            if e.to > e.from {
                SplitDecision::Split {
                    key: e.key,
                    replicas: e.to,
                }
            } else {
                SplitDecision::Unsplit { key: e.key }
            },
        )
    }));
    let feed = intervals.clone();
    let engine_report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            spin_work: SPIN,
            window: 100,
            split: Some(Box::new(schedule)),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    assert_eq!(
        engine_report.split_events, sim_report.split_events,
        "engine replay diverged from the sim's split plan"
    );
    // Lossless through the split/unsplit cycle, replica merge included:
    // every hot tuple landed on some replica and each replica's partial
    // consolidated back onto the primary at unsplit.
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(engine_report.processed, total);
    let hot_count: u64 = engine_report
        .final_states
        .iter()
        .filter(|(k, _)| k.raw() == HOT)
        .map(|(_, blob)| {
            WordCountOp::decode(blob)
                .iter()
                .map(|&(_, c)| c)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(hot_count, 2 * BURST, "merged hot-key count must be exact");
}

/// A scaled-down `burst`: one key takes 0.6 of the volume in intervals
/// 3..6 of a churning background. With slow workers and tiny channels
/// the source runs at the hot worker's pace, its skew alert opens a
/// provisional round an eighth into interval 3, and the split is
/// installed *inside* that interval. Fed whole intervals per batch — the
/// source then polls control at interval boundaries only and can never
/// alert — the same feed is split by interval 3's closing round instead,
/// and `split_events` cannot tell the two runs apart. (`partitioner()`
/// never rebalances, so no op in flight turns the alert away.)
#[test]
fn early_split_lands_inside_the_interval_and_matches_the_closing_round() {
    use std::collections::BTreeMap;
    const TUPLES: u64 = 4_000;
    const HOT: Key = Key(200);
    let mut g = streambal::workloads::ChurnWorkload::new(200, TUPLES, 10, 0.1, 7)
        .with_dominant_burst(HOT, 0.6, 3, 6);
    let mut intervals = vec![g.tuples()];
    for _ in 1..10 {
        g.advance();
        intervals.push(g.tuples());
    }
    let mut expect = BTreeMap::new();
    for k in intervals.iter().flatten() {
        *expect.entry(k.raw()).or_insert(0u64) += 1;
    }
    let run = |spin_work: u32, batch_size: usize| {
        let feed = intervals.clone();
        // One worker sustains a third of an interval, as on `burst`.
        let capacity = (TUPLES / 3 * (spin_work as u64 + 1)) as f64;
        let config = EngineConfig {
            n_workers: N_TASKS,
            channel_capacity: 64,
            batch_size,
            spin_work,
            window: 100,
            split: Some(Box::new(HotKeyPolicy::new(capacity))),
            ..EngineConfig::default()
        };
        // Released 40 ms apart, so each statistics request is in the
        // channels before the next interval's tuples and every round
        // closes on its own interval, however the threads are scheduled.
        let feeder = move |iv: u64| {
            std::thread::sleep(std::time::Duration::from_millis(40));
            let keys = feed.get(iv as usize)?;
            Some(keys.iter().map(|&k| Tuple::keyed(k)).collect())
        };
        let op = |_| Box::new(WordCountOp::new()) as _;
        Engine::run(config, Box::new(partitioner()), op, feeder, None)
    };
    let (early, closing) = (run(2_000, 32), run(0, TUPLES as usize));

    let key = HOT.raw();
    let (split, unsplit) = ((3, 1, 3), (7, 3, 1));
    let events = [split, unsplit].map(|(interval, from, to)| SplitEvent {
        interval,
        key,
        from,
        to,
    });
    assert_eq!(early.split_events, events);
    assert_eq!(closing.split_events, events);
    for (r, inside) in [(&early, true), (&closing, false)] {
        // The split span closed before the source had fed interval 3?
        let spans = r.trace.span_summaries();
        let split = spans.iter().find(|s| s.op == OpLabel::Split).unwrap();
        let fed = |e: &&streambal::runtime::TraceEvent| {
            matches!(e.kind, EventKind::IntervalEnd { interval: 3, .. })
        };
        let fed_us = r.trace.events.iter().find(fed).unwrap().at_us;
        assert_eq!(split.close_us < fed_us, inside);
        assert_eq!(r.protocol_errors, vec![]);
        let mut seen = BTreeMap::new();
        for (k, blob) in &r.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *seen.entry(k.raw()).or_insert(0u64) += n;
        }
        assert_eq!(seen, expect, "merged per-key counts");
    }
}

/// Worker-seconds accounting: an elastic run that spends part of its
/// life below the static peak must bill fewer worker-seconds than its
/// peak parallelism sustained for the same wall time would.
#[test]
fn elastic_run_bills_fewer_worker_seconds_than_static_peak() {
    let intervals = intervals();
    let feed = intervals.clone();
    let report = Engine::run(
        EngineConfig {
            n_workers: N_TASKS,
            max_workers: MAX_TASKS,
            // Small channels keep the stats rounds close to the interval
            // boundaries, so the policy sees the burst while it happens.
            channel_capacity: 64,
            batch_size: 32,
            spin_work: SPIN,
            window: 100,
            elasticity: Box::new(policy()),
            ..EngineConfig::default()
        },
        Box::new(partitioner()),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    let wall = report.wall.as_secs_f64();
    assert!(
        report.worker_seconds < MAX_TASKS as f64 * wall,
        "elastic {} !< static peak {}",
        report.worker_seconds,
        MAX_TASKS as f64 * wall
    );
    assert!(
        report.worker_seconds >= N_TASKS as f64 * wall * 0.5,
        "integral implausibly small: {}",
        report.worker_seconds
    );
}
