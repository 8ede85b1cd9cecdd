//! Interval-driven simulator for algorithm-level experiments.
//!
//! The paper's Figs. 7–12 and the appendix figures measure *scheduling*
//! quality — workload skewness, plan-generation time, migration cost,
//! routing-table size — which depend only on the per-interval key
//! statistics and the partitioner's decisions, not on tuple-level
//! execution. This crate drives a [`Partitioner`] over an
//! [`IntervalSource`] without materializing tuples, so million-key sweeps
//! finish in seconds. (Throughput/latency figures need the real engine —
//! `streambal-runtime`.)
//!
//! The simulator models key-grouping semantics plus hot-key splitting:
//! every key maps to one task unless a [`SplitPolicy`]
//! ([`run_sim_elastic_split`]) salts it across replica slots. Scale and
//! split *decisions* are not modelled at all: each interval's round runs
//! through `streambal_elastic::RoundDecisions`, the same code the
//! engine's controller pulls its actions from, so a plan drafted here
//! replays on the runtime `ScaleEvent` for `ScaleEvent` and `SplitEvent`
//! for `SplitEvent`. Only the tuple-level consequences (state movement,
//! replica partials, the merge stage) need the real engine.

pub mod replay;
pub mod report;
pub mod source;

pub use replay::{replay_theta, EarlyRounds, Reaction, ThetaReplay};
pub use report::SimReport;
pub use source::IntervalSource;

use streambal_core::{loads_of, Key, Partitioner, RebalanceInput, TaskId};
use streambal_elastic::{
    ElasticityPolicy, HoldPolicy, IntervalObservation, RoundAction, RoundDecisions, RoundInputs,
    SplitPolicy,
};
use streambal_metrics::Stopwatch;

/// Simulation dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Downstream parallelism `N_D`.
    pub n_tasks: usize,
    /// Number of intervals to run.
    pub intervals: usize,
}

/// Runs `partitioner` against `source` for `cfg.intervals` intervals and
/// collects the paper's scheduling metrics. Parallelism stays fixed at
/// `cfg.n_tasks` (a [`HoldPolicy`]); see [`run_sim_elastic`] for
/// policy-driven elasticity.
pub fn run_sim(
    partitioner: &mut dyn Partitioner,
    source: &mut dyn IntervalSource,
    cfg: &SimConfig,
) -> SimReport {
    run_sim_elastic(partitioner, source, cfg, &mut HoldPolicy, cfg.n_tasks)
}

/// Deterministic queue/latency proxy for [`run_sim_elastic_queued`]: the
/// simulator has no physical channels, so the backpressure signals the
/// engine samples (tuple-weighted channel occupancy at interval close,
/// per-interval latency) are modeled as a per-task fluid queue. Each
/// interval a task receives its routed tuple count and drains up to
/// `service_rate` tuples; the standing remainder is its queue depth,
/// clamped to `channel_capacity` exactly as the engine's bounded channel
/// clamps real occupancy (beyond the bound, backpressure stalls the
/// source instead of growing the queue). Latency is a sojourn proxy:
/// a tuple waits `us_per_tuple` behind the standing backlog plus half
/// its own interval's cohort — coarse, but it moves when and only when
/// queues move, which is all a watermark policy consumes.
#[derive(Debug, Clone, Copy)]
pub struct QueueModel {
    /// Tuples one task drains per interval.
    pub service_rate: f64,
    /// Queue-depth clamp, in tuples (the engine's `channel_capacity`).
    pub channel_capacity: u64,
    /// Modeled service time per tuple, µs (latency conversion).
    pub us_per_tuple: f64,
}

impl QueueModel {
    /// No backpressure modeling: infinite service rate, so queue depths
    /// and latencies observe as zero (the pre-queue-signal behaviour).
    pub fn none() -> Self {
        QueueModel {
            service_rate: f64::INFINITY,
            channel_capacity: 0,
            us_per_tuple: 0.0,
        }
    }
}

/// [`run_sim`] with an elasticity hook: the same per-interval decision
/// sequence the engine's controller runs, recorded in the same
/// [`SimReport::scale_events`] shape as `EngineReport::scale_events` so
/// traces compare with `==`. Queue/latency observations are zero (see
/// [`run_sim_elastic_queued`] for the modeled backpressure signals).
pub fn run_sim_elastic(
    partitioner: &mut dyn Partitioner,
    source: &mut dyn IntervalSource,
    cfg: &SimConfig,
    policy: &mut dyn ElasticityPolicy,
    max_tasks: usize,
) -> SimReport {
    run_sim_elastic_queued(
        partitioner,
        source,
        cfg,
        policy,
        max_tasks,
        QueueModel::none(),
    )
}

/// [`run_sim_elastic`] with modeled backpressure signals: per-task queue
/// depths and interval latency from a [`QueueModel`] fluid queue, filled
/// into the same [`IntervalObservation`] fields the engine samples from
/// its real channels — so queue-driven policies
/// (`streambal_elastic::BackpressurePolicy`) plan in the simulator and
/// replay on the engine exactly like load-driven ones.
///
/// Per interval, in engine order: the source advances (its fluctuation
/// process sees the partitioner's current destinations), loads are
/// evaluated under the current assignment, the queue model absorbs the
/// interval's arrivals, the round is decided on those observations by
/// `streambal_elastic::RoundDecisions` — the policy call, the clamps and
/// the `Partitioner::scale_out_plan` / `Partitioner::scale_in` mutation
/// are the engine's own code, not a copy of it (the pre-placement moves
/// are notional here, state being simulated, but the *routing* delta is
/// the engine's) — and only then does `end_interval` run under the
/// stopwatch, exactly as the controller decides the round before the
/// rebalance hook.
///
/// Two inputs to that shared code differ, and they are the whole
/// sim-vs-engine divergence. The dead-slot set is always empty (the
/// simulator models no failures, so it never revives or holds). And
/// `can_grow` is `n_tasks < max_tasks`, where the engine also requires
/// that no retire is still re-provisioning (its spawn slot must be the
/// contiguous physical tail): the simulator has no physical state to
/// drain, so a scale-in is instantaneous here, and a policy that flaps
/// in→out across adjacent intervals can record a `ScaleOut` event that
/// the engine clamps. Traces are identical whenever consecutive
/// opposite decisions are at least one engine re-provision apart (any
/// policy with hysteresis or a cooldown, and every fixed schedule that
/// spaces its reversals — `tests/elasticity.rs` pins the replay
/// identity).
pub fn run_sim_elastic_queued(
    partitioner: &mut dyn Partitioner,
    source: &mut dyn IntervalSource,
    cfg: &SimConfig,
    policy: &mut dyn ElasticityPolicy,
    max_tasks: usize,
    model: QueueModel,
) -> SimReport {
    run_sim_inner(partitioner, source, cfg, policy, max_tasks, model, None)
}

/// [`run_sim_elastic_queued`] with the hot-key split hook: the same
/// shared round consults the split policy after the elasticity decision
/// (and before `end_interval`, where the engine's controller consults
/// `EngineConfig::split`) with the interval's per-key costs and the
/// current split set, and executes its decision through
/// [`Partitioner::split_key`] / [`Partitioner::unsplit_key`] — guards
/// and replica-slot choice included. Executed decisions land in
/// [`SimReport::split_events`] in the engine's `SplitEvent` shape, so
/// sim and runtime split traces pin with `==` — the engine's only extra
/// step is shipping the view (and, for unsplit, the replica partials)
/// through its pause/quiesce protocol, which changes no decision.
///
/// The inputs that differ are those of [`run_sim_elastic_queued`]: with
/// no dead slots the replica choice never has one to avoid, and a scale
/// decision the engine would have clamped leaves the routing one task
/// apart in the interval it fired — so identical traces need the two
/// decision kinds at least one interval apart, free with any
/// cooldown-carrying policy.
pub fn run_sim_elastic_split(
    partitioner: &mut dyn Partitioner,
    source: &mut dyn IntervalSource,
    cfg: &SimConfig,
    policy: &mut dyn ElasticityPolicy,
    max_tasks: usize,
    model: QueueModel,
    split: &mut dyn SplitPolicy,
) -> SimReport {
    run_sim_inner(
        partitioner,
        source,
        cfg,
        policy,
        max_tasks,
        model,
        Some(split),
    )
}

fn run_sim_inner(
    partitioner: &mut dyn Partitioner,
    source: &mut dyn IntervalSource,
    cfg: &SimConfig,
    policy: &mut dyn ElasticityPolicy,
    max_tasks: usize,
    model: QueueModel,
    mut split: Option<&mut dyn SplitPolicy>,
) -> SimReport {
    let mut report = SimReport::new(partitioner.name(), cfg.n_tasks);
    // Batch scratch reused across intervals: the destination evaluation is
    // the simulator's per-key hot loop, so it goes through `route_batch`
    // (one call per interval) instead of a map probe per key.
    let mut keys: Vec<Key> = Vec::new();
    let mut dests: Vec<TaskId> = Vec::new();
    // Modeled standing backlog per task, in tuples.
    let mut backlog: Vec<f64> = vec![0.0; cfg.n_tasks];
    for interval in 0..cfg.intervals {
        let n_tasks = partitioner.n_tasks();
        let stats = source.next_interval(n_tasks, &mut |k| partitioner.route(k));
        // Loads under the current assignment (before any rebalance).
        keys.clear();
        keys.extend(stats.iter().map(|(k, _)| k));
        partitioner.route_batch(&keys, &mut dests);
        let records_input = RebalanceInput {
            n_tasks,
            records: {
                let mut v = Vec::with_capacity(stats.len());
                for ((k, s), &d) in stats.iter().zip(&dests) {
                    v.push(streambal_core::KeyRecord {
                        key: k,
                        cost: s.cost,
                        mem: s.mem,
                        current: d,
                        hash_dest: d, // unused for load accounting
                    });
                }
                v
            },
        };
        let summary = loads_of(&records_input.records, n_tasks);
        report.observe_interval(interval, &summary);

        // Queue model: absorb this interval's per-task arrivals, drain
        // the service rate, clamp to the channel bound — the state at
        // interval close is what the engine's controller samples.
        let mut arrivals = vec![0.0f64; n_tasks];
        for ((_, s), &d) in stats.iter().zip(&dests) {
            arrivals[d.index()] += s.freq as f64;
        }
        let mut queues: Vec<u64> = Vec::with_capacity(n_tasks);
        let mut lat_weighted = 0.0f64;
        let mut lat_total = 0.0f64;
        let mut p99 = 0.0f64;
        for d in 0..n_tasks {
            let standing = backlog[d];
            let after = (standing + arrivals[d] - model.service_rate)
                .max(0.0)
                .min(model.channel_capacity as f64);
            backlog[d] = after;
            queues.push(after.round() as u64);
            // Sojourn proxy: wait behind the standing backlog plus half
            // the own cohort (mean); the cohort's last tuple (p99-ish)
            // waits behind all of it.
            let mean_d = model.us_per_tuple * (standing + arrivals[d] * 0.5);
            lat_weighted += mean_d * arrivals[d];
            lat_total += arrivals[d];
            p99 = p99.max(model.us_per_tuple * (standing + arrivals[d]));
        }
        let mean_latency_us = if lat_total > 0.0 {
            lat_weighted / lat_total
        } else {
            0.0
        };

        // The round's decisions come from the core the engine's controller
        // pulls from too; only the bookkeeping around each action is the
        // simulator's own.
        let mut round = RoundDecisions::new(RoundInputs {
            obs: IntervalObservation {
                interval: interval as u64,
                n_tasks,
                loads: &summary.loads,
                queue_depths: &queues,
                mean_latency_us,
                p99_latency_us: p99,
                n_dead: 0,
            },
            stats: &stats,
            dead: Vec::new(), // the simulator models no worker failures
            can_grow: n_tasks < max_tasks,
        });
        while let Some(action) = round.next(partitioner, policy, split.as_deref_mut()) {
            match action {
                RoundAction::ScaleOut { event, .. } => {
                    // The pre-placement moves are notional here (simulated
                    // state follows its key for free); the new slot joins
                    // drained.
                    backlog.push(0.0);
                    report.observe_scale(event);
                }
                RoundAction::ScaleIn { event, .. } => {
                    // The victim drains its own backlog before retiring (the
                    // engine's Retire marker lands behind it), so its queue
                    // leaves with it.
                    backlog.truncate(event.to);
                    report.observe_scale(event);
                }
                RoundAction::Split { event, .. } | RoundAction::Unsplit { event, .. } => {
                    report.observe_split(event);
                }
                // Clamped growth is skipped; the dead-slot actions cannot
                // arise from an empty dead set.
                RoundAction::ScaleOutClamped
                | RoundAction::Revive { .. }
                | RoundAction::ScaleHeld => {}
            }
        }

        let watch = Stopwatch::start();
        let outcome = partitioner.end_interval(stats);
        let elapsed_ms = watch.elapsed_ms();
        if let Some(out) = outcome {
            report.observe_rebalance(interval, elapsed_ms, &out);
        }
    }
    report
}

/// Convenience for Fig. 7: per-task average workload skewness under any
/// static routing function, over `intervals` intervals of `source`.
pub fn skewness_samples(
    route: &mut dyn FnMut(Key) -> TaskId,
    source: &mut dyn IntervalSource,
    n_tasks: usize,
    intervals: usize,
) -> Vec<f64> {
    let mut sums = vec![0.0f64; n_tasks];
    for _ in 0..intervals {
        let stats = source.next_interval(n_tasks, route);
        let mut loads = vec![0u64; n_tasks];
        for (k, s) in stats.iter() {
            loads[route(k).index()] += s.cost;
        }
        let mean = loads.iter().sum::<u64>() as f64 / n_tasks as f64;
        if mean > 0.0 {
            for (d, &l) in loads.iter().enumerate() {
                sums[d] += l as f64 / mean;
            }
        }
    }
    let mut out: Vec<f64> = sums.iter().map(|s| s / intervals as f64).collect();
    out.sort_by(|a, b| a.partial_cmp(b).unwrap());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use source::ZipfSource;
    use streambal_baselines::storm;
    use streambal_baselines::CoreBalancer;
    use streambal_core::{BalanceParams, RebalanceStrategy};

    fn zipf_source(k: usize, z: f64, f: f64) -> ZipfSource {
        ZipfSource::new(k, z, 50_000, f, 77)
    }

    #[test]
    fn hash_partitioner_never_rebalances_but_skews() {
        let cfg = SimConfig {
            n_tasks: 8,
            intervals: 10,
        };
        let mut p = storm(8);
        let mut src = zipf_source(2_000, 0.9, 0.5);
        let report = run_sim(&mut p, &mut src, &cfg);
        assert_eq!(report.rebalances, 0);
        assert!(
            report.mean_skewness() > 1.05,
            "zipf through hash must skew: {}",
            report.mean_skewness()
        );
    }

    #[test]
    fn mixed_keeps_theta_below_hash() {
        // Note: the pre-rebalance θ each interval is bounded below by the
        // fluctuation rate f (the generator injects that much shift), so
        // the comparison uses a moderate f where repair is visible.
        let cfg = SimConfig {
            n_tasks: 8,
            intervals: 12,
        };
        let mut hash = storm(8);
        let mut src1 = zipf_source(2_000, 0.9, 0.2);
        let hash_report = run_sim(&mut hash, &mut src1, &cfg);

        let mut mixed = CoreBalancer::new(
            8,
            5,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.08,
                ..BalanceParams::default()
            },
        );
        let mut src2 = zipf_source(2_000, 0.9, 0.2);
        let mixed_report = run_sim(&mut mixed, &mut src2, &cfg);

        assert!(mixed_report.rebalances > 0, "skew must trigger Mixed");
        assert!(
            mixed_report.mean_theta_after_warmup() < hash_report.mean_theta_after_warmup(),
            "Mixed θ {} !< hash θ {}",
            mixed_report.mean_theta_after_warmup(),
            hash_report.mean_theta_after_warmup()
        );
        // And the plans themselves land under (or near) θmax.
        assert!(
            mixed_report.theta_after.mean() < 0.15,
            "post-rebalance θ {}",
            mixed_report.theta_after.mean()
        );
    }

    /// Regression for the under-load false-trigger: a key population that
    /// permanently leaves one hash slot idle is *under*-loaded on that
    /// slot only — no task exceeds `Lmax` — so Mixed must not fire a
    /// single rebalance (it used to fire, and pay migrations, on every
    /// interval of exactly this shape).
    #[test]
    fn mixed_ignores_permanently_idle_hash_slot() {
        use source::ReplaySource;
        use streambal_core::{AssignmentFn, IntervalStats};
        let n_tasks = 4;
        let idle = TaskId(3);
        // The probe ring is the same deterministic ring CoreBalancer
        // builds, so this filter exactly carves out an idle slot.
        let probe = AssignmentFn::hash_only(n_tasks);
        let keys: Vec<Key> = (0..40_000u64)
            .map(Key)
            .filter(|&k| probe.hash_route(k) != idle)
            .take(9_000)
            .collect();
        let mut iv = IntervalStats::new();
        for &k in &keys {
            iv.observe(k, 1, 1, 1);
        }
        let intervals = 6;
        let mut src = ReplaySource::new(std::iter::repeat_n(iv, intervals));
        let mut p = CoreBalancer::new(
            n_tasks,
            5,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.5,
                ..BalanceParams::default()
            },
        );
        let cfg = SimConfig { n_tasks, intervals };
        let report = run_sim(&mut p, &mut src, &cfg);
        // The idle slot keeps max θ pinned at 1.0 > θmax the whole run…
        assert!(
            report.theta_series.points().iter().all(|&(_, t)| t > 0.9),
            "idle slot must dominate θ: {:?}",
            report.theta_series.points()
        );
        // …yet no task is overloaded, so zero rebalances and migrations.
        assert_eq!(report.rebalances, 0, "under-load alone fired a rebalance");
        assert_eq!(report.mig_fraction.count(), 0);
    }

    #[test]
    fn skewness_samples_sorted_and_mean_one() {
        let mut src = zipf_source(5_000, 0.85, 0.0);
        let mut p = storm(10);
        let mut route = |k: Key| p.route(k);
        let samples = skewness_samples(&mut route, &mut src, 10, 5);
        assert_eq!(samples.len(), 10);
        for w in samples.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let mean: f64 = samples.iter().sum::<f64>() / 10.0;
        assert!((mean - 1.0).abs() < 0.01, "normalized mean ≈ 1, got {mean}");
    }

    #[test]
    fn elastic_sim_executes_a_fixed_cycle() {
        use streambal_elastic::FixedSchedule;
        let cfg = SimConfig {
            n_tasks: 4,
            intervals: 8,
        };
        let mut p = CoreBalancer::new(
            4,
            5,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.2,
                ..BalanceParams::default()
            },
        );
        let mut src = zipf_source(3_000, 0.9, 0.3);
        let mut policy = FixedSchedule::cycle(2, 5, 1);
        let report = run_sim_elastic(&mut p, &mut src, &cfg, &mut policy, 5);
        use streambal_elastic::ScaleEvent;
        assert_eq!(
            report.scale_events,
            vec![
                ScaleEvent {
                    interval: 2,
                    from: 4,
                    to: 5
                },
                ScaleEvent {
                    interval: 5,
                    from: 5,
                    to: 4
                },
            ]
        );
        assert_eq!(p.n_tasks(), 4, "round trip restores parallelism");
        assert_eq!(report.theta_series.len(), 8);
    }

    /// Clamping: a policy demanding growth past `max_tasks` (or shrink
    /// below one task) is skipped without recording an event.
    #[test]
    fn elastic_sim_clamps_decisions() {
        use streambal_elastic::{ElasticityPolicy, IntervalObservation, ScaleDecision};
        #[derive(Debug, Clone)]
        struct Always(ScaleDecision);
        impl ElasticityPolicy for Always {
            fn name(&self) -> String {
                "always".into()
            }
            fn decide(&mut self, _obs: &IntervalObservation) -> ScaleDecision {
                self.0
            }
            fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
                Box::new(self.clone())
            }
        }
        let cfg = SimConfig {
            n_tasks: 2,
            intervals: 5,
        };
        let mut p = storm(2);
        let mut src = zipf_source(500, 0.5, 0.0);
        let report = run_sim_elastic(
            &mut p,
            &mut src,
            &cfg,
            &mut Always(ScaleDecision::ScaleOut),
            3,
        );
        assert_eq!(p.n_tasks(), 3, "grew to the cap and stopped");
        assert_eq!(report.scale_events.len(), 1);

        let mut p = storm(2);
        let mut src = zipf_source(500, 0.5, 0.0);
        let report = run_sim_elastic(
            &mut p,
            &mut src,
            &cfg,
            &mut Always(ScaleDecision::ScaleIn),
            3,
        );
        assert_eq!(p.n_tasks(), 1, "shrank to one task and stopped");
        assert_eq!(report.scale_events.len(), 1);
    }

    /// The modeled queue proxy drives `BackpressurePolicy` exactly like
    /// the engine's sampled channel occupancy: a volume burst beyond the
    /// service rate builds a standing queue → scale out; the quiet tail
    /// drains it → scale in. Replayed load alone would show the same
    /// totals spread differently — the *queue* signal is what reacts.
    #[test]
    fn backpressure_policy_reacts_to_modeled_queues() {
        use source::ReplaySource;
        use streambal_core::IntervalStats;
        use streambal_elastic::BackpressurePolicy;
        let volumes = [400u64, 400, 1600, 1600, 400, 400, 400];
        let stats: Vec<IntervalStats> = volumes
            .iter()
            .map(|&v| {
                let mut iv = IntervalStats::new();
                for k in 0..200u64 {
                    iv.observe(Key(k), v / 200, v / 200, 8);
                }
                iv
            })
            .collect();
        let mut src = ReplaySource::new(stats);
        let mut p = storm(2);
        // Service 300 t/interval/task: 2 tasks absorb the quiet 400 but
        // queue ~500/task at the 1600 burst — clamped at the channel
        // bound, exactly as real occupancy would be, so the quiet tail
        // can drain it within a couple of intervals.
        let model = QueueModel {
            service_rate: 300.0,
            channel_capacity: 256,
            us_per_tuple: 50.0,
        };
        let mut policy = BackpressurePolicy::new(100, 20, 2, 4);
        policy.down_after = 2;
        policy.cooldown = 0;
        let report = run_sim_elastic_queued(
            &mut p,
            &mut src,
            &SimConfig {
                n_tasks: 2,
                intervals: volumes.len(),
            },
            &mut policy,
            4,
            model,
        );
        assert!(
            report.scale_events.iter().any(|e| e.to > e.from),
            "burst queue must trigger scale-out: {:?}",
            report.scale_events
        );
        assert!(
            report.scale_events.iter().any(|e| e.to < e.from),
            "drained tail must trigger scale-in: {:?}",
            report.scale_events
        );
        // Without a queue model the same policy never fires: the load
        // totals are identical, the symptom is gone.
        let mut src = ReplaySource::new(
            volumes
                .iter()
                .map(|&v| {
                    let mut iv = IntervalStats::new();
                    for k in 0..200u64 {
                        iv.observe(Key(k), v / 200, v / 200, 8);
                    }
                    iv
                })
                .collect::<Vec<_>>(),
        );
        let mut p = storm(2);
        let mut policy = BackpressurePolicy::new(100, 20, 2, 4);
        policy.down_after = 2;
        policy.cooldown = 0;
        let report = run_sim_elastic(
            &mut p,
            &mut src,
            &SimConfig {
                n_tasks: 2,
                intervals: volumes.len(),
            },
            &mut policy,
            4,
        );
        assert!(
            report.scale_events.is_empty(),
            "no queue signal → no symptom → no events (min_tasks clamps \
             the drained-pipeline scale-in): {:?}",
            report.scale_events
        );
    }

    /// A fixed split schedule executes through the sim loop: the key is
    /// salted mid-run, consolidated on schedule, and the event trace pins
    /// exactly (the engine replay identity is `tests/elasticity.rs`).
    #[test]
    fn split_sim_executes_a_fixed_cycle() {
        use streambal_elastic::{FixedSplitSchedule, HoldPolicy, SplitEvent};
        let cfg = SimConfig {
            n_tasks: 4,
            intervals: 6,
        };
        let mut p = storm(4);
        let mut src = zipf_source(1_000, 0.9, 0.2);
        let mut split = FixedSplitSchedule::cycle(42, 3, 1, 3);
        let report = run_sim_elastic_split(
            &mut p,
            &mut src,
            &cfg,
            &mut HoldPolicy,
            4,
            QueueModel::none(),
            &mut split,
        );
        assert_eq!(
            report.split_events,
            vec![
                SplitEvent {
                    interval: 1,
                    key: 42,
                    from: 1,
                    to: 3,
                },
                SplitEvent {
                    interval: 3,
                    key: 42,
                    from: 3,
                    to: 1,
                },
            ]
        );
        assert!(p.splits().is_empty(), "cycle must restore plain routing");
        assert_eq!(report.theta_series.len(), 6);
    }

    /// `HotKeyPolicy` plans from per-key interval costs in the sim: a
    /// dominant-key burst splits once (streak + cooldown suppress flaps),
    /// and the cooled key consolidates after `down_after` quiet rounds.
    #[test]
    fn hotkey_policy_splits_the_dominant_burst_in_sim() {
        use source::ReplaySource;
        use streambal_core::IntervalStats;
        use streambal_elastic::{HoldPolicy, HotKeyPolicy, SplitEvent};
        // Interval costs: quiet, 3 burst intervals of a single dominant
        // key, quiet tail.
        let hot_cost = [0u64, 5_000, 5_000, 5_000, 0, 0, 0];
        let stats: Vec<IntervalStats> = hot_cost
            .iter()
            .map(|&h| {
                let mut iv = IntervalStats::new();
                for k in 0..20u64 {
                    iv.observe(Key(k), 10, 10, 8);
                }
                if h > 0 {
                    iv.observe(Key(999), h, h, 8);
                }
                iv
            })
            .collect();
        let mut src = ReplaySource::new(stats);
        let mut p = storm(4);
        // budget = 5400/1.08 = 5000; the 5000-cost burst crosses the 0.9
        // high mark, the quiet tail sits under the 0.5 low mark. The
        // burst key carries ~96% of the interval, so share-based sizing
        // salts it across all four tasks.
        let mut hot = HotKeyPolicy::new(5_400.0);
        let report = run_sim_elastic_split(
            &mut p,
            &mut src,
            &SimConfig {
                n_tasks: 4,
                intervals: hot_cost.len(),
            },
            &mut HoldPolicy,
            4,
            QueueModel::none(),
            &mut hot,
        );
        assert_eq!(
            report.split_events,
            vec![
                SplitEvent {
                    interval: 1,
                    key: 999,
                    from: 1,
                    to: 4,
                },
                SplitEvent {
                    interval: 5,
                    key: 999,
                    from: 4,
                    to: 1,
                },
            ],
            "one split per burst, one unsplit per cool-down"
        );
        assert!(p.splits().is_empty());
    }

    #[test]
    fn report_counts_intervals() {
        let cfg = SimConfig {
            n_tasks: 4,
            intervals: 7,
        };
        let mut p = storm(4);
        let mut src = zipf_source(500, 0.5, 0.0);
        let report = run_sim(&mut p, &mut src, &cfg);
        assert_eq!(report.theta_series.len(), 7);
    }
}
