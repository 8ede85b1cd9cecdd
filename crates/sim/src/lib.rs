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
//! # One loop
//!
//! A [`Sim`] is the whole configuration and [`Sim::run`] the one interval
//! loop. Per interval, in the engine's order:
//!
//! 1. **Pull** the interval from the source. A source whose fluctuation is
//!    defined relative to task loads sees the routes in force.
//! 2. **Load** it under those routes: per-task cost and tuple counts. A
//!    split key's share is spread evenly over its replicas, because the
//!    engine's source rotates a split key per tuple; a strategy that
//!    keeps no key on one task (round-robin, PKG) routes every tuple.
//! 3. **Queue**: the [`QueueModel`] absorbs those arrivals; its backlogs
//!    and latency proxy are what the closing round observes.
//! 4. **Provisional round**, with [`Reaction::early`]: once the source has
//!    fed a sample of the interval it tests `streambal_core::skew_alert`
//!    on the sample's per-task loads. If that fires, the sample goes
//!    through `RoundDecisions::provisional` and then to `end_interval`
//!    marked provisional, and whatever either changed takes effect
//!    [`Reaction::lag`] later.
//! 5. **Record** the load the interval ran at, time-weighted over the
//!    routings in force during it ([`SimReport`]).
//! 6. **Closing round** through `streambal_elastic::RoundDecisions`, the
//!    code the engine's controller pulls its scale and split actions
//!    from. So a plan drafted here replays on the runtime `ScaleEvent` for
//!    `ScaleEvent` and `SplitEvent` for `SplitEvent`.
//! 7. **Plan**: `end_interval` under the stopwatch. Whatever steps 6–7
//!    changed takes effect `lag` into the next interval.
//!
//! Two inputs to the shared round code differ from the engine's, and they
//! are the whole sim-vs-engine divergence in decisions. The dead-slot set
//! is always empty: the simulator models no failures, so it never revives
//! or holds, and a split's replica choice never has a dead slot to avoid.
//! And `can_grow` is `n_tasks < max_tasks`, where the engine also requires
//! a channel-bearing slot at the tail (its spawn slot must be the
//! contiguous physical tail). A scale-in is instantaneous here; the
//! engine decides a round that closes while a retire is still
//! re-provisioning once the retire ends, later but on the same
//! statistics, so a policy that flaps in→out across adjacent intervals
//! grows in both instead of having the engine clamp its `ScaleOut`
//! (`tests/elasticity.rs` pins the replay identity). The tuple-level consequences — state movement,
//! replica partials, the merge stage — need the real engine.

#![forbid(unsafe_code)]

pub mod report;
pub mod source;

pub use report::SimReport;
pub use source::IntervalSource;

use streambal_core::{
    skew_alert, AssignmentFn, IntervalStats, Key, KeyStat, Partitioner, RoutingView, TaskId,
};
use streambal_elastic::{
    ElasticityPolicy, HoldPolicy, IntervalObservation, RoundAction, RoundDecisions, RoundInputs,
    SplitPolicy,
};
use streambal_hashring::mix64;
use streambal_metrics::Stopwatch;

/// Deterministic queue/latency proxy: the simulator has no physical
/// channels, so the backpressure signals the engine samples
/// (tuple-weighted channel occupancy at interval close, per-interval
/// latency) are modeled as a per-task fluid queue. Each interval a task
/// receives its routed tuple count and drains up to `service_rate`
/// tuples; the standing remainder is its queue depth, clamped to
/// `channel_capacity` exactly as the engine's bounded channel clamps real
/// occupancy (beyond the bound, backpressure stalls the source instead of
/// growing the queue). Latency is a sojourn proxy: a tuple waits
/// `us_per_tuple` behind the standing backlog plus half its own
/// interval's cohort — coarse, but it moves when and only when queues
/// move, which is all a watermark policy consumes.
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
    /// and latencies observe as zero.
    pub fn none() -> Self {
        QueueModel {
            service_rate: f64::INFINITY,
            channel_capacity: 0,
            us_per_tuple: 0.0,
        }
    }

    /// Absorbs one interval's per-task `arrivals` into `backlog`, drains
    /// the service rate and clamps to the channel bound. Returns what the
    /// engine's controller samples at interval close: per-task depths and
    /// the mean and p99 latency, µs.
    fn absorb(&self, backlog: &mut [f64], arrivals: &[f64]) -> (Vec<u64>, f64, f64) {
        let mut depths = Vec::with_capacity(backlog.len());
        let (mut lat_weighted, mut lat_total, mut p99) = (0.0f64, 0.0f64, 0.0f64);
        for (queue, &arrived) in backlog.iter_mut().zip(arrivals) {
            let standing = *queue;
            *queue = (standing + arrived - self.service_rate)
                .max(0.0)
                .min(self.channel_capacity as f64);
            depths.push(queue.round() as u64);
            // Sojourn proxy: wait behind the standing backlog plus half
            // the own cohort (mean); the cohort's last tuple (p99-ish)
            // waits behind all of it.
            lat_weighted += self.us_per_tuple * (standing + arrived * 0.5) * arrived;
            lat_total += arrived;
            p99 = p99.max(self.us_per_tuple * (standing + arrived));
        }
        let mean = if lat_total > 0.0 {
            lat_weighted / lat_total
        } else {
            0.0
        };
        (depths, mean, p99)
    }
}

/// The source-side half of a provisional round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyRounds {
    /// Share of the interval fed (under the routes in force) when the
    /// alert is evaluated and the provisional statistics are cut.
    pub sample: f64,
    /// The alert's floor (see `streambal_core::skew_alert`).
    pub floor: f64,
    /// Whether a provisional round may split a heavy hitter (the engine:
    /// yes; `false` models the controller before early splits).
    pub split: bool,
    /// Seeds the sample: each tuple of the interval is kept
    /// independently, so the sample carries its sampling noise.
    pub seed: u64,
}

/// How the simulated controller reacts in time. The default reacts at
/// the interval boundary, instantly, and never inside an interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Reaction {
    /// Share of an interval between a statistics cut — closing or
    /// provisional — and the routing it changes taking effect. The
    /// routing a closing round replaced is replayed from its table view,
    /// so after a closing round the lag applies to table-backed
    /// partitioners only.
    pub lag: f64,
    /// Provisional rounds, if the source raises alerts.
    pub early: Option<EarlyRounds>,
}

/// One simulation run: plain fields, and `EngineConfig`'s names and types
/// where the concept is the same, so one policy value configures both
/// drivers. The parallelism is the partitioner's own.
#[derive(Debug, Clone)]
pub struct Sim {
    /// Number of intervals to run.
    pub intervals: usize,
    /// Consulted after every closing round, as the engine's controller
    /// consults `EngineConfig::elasticity`. Default: [`HoldPolicy`].
    pub elasticity: Box<dyn ElasticityPolicy>,
    /// The parallelism a scale-out may grow to — the engine's
    /// `max_workers`. Default 0: nothing grows.
    pub max_tasks: usize,
    /// Modeled backpressure signals. Default: [`QueueModel::none`].
    pub queue: QueueModel,
    /// Consulted after the elasticity decision, as the engine consults
    /// `EngineConfig::split`. Default: `None` (never splits).
    pub split: Option<Box<dyn SplitPolicy>>,
    /// How the controller reacts in time. Default: at the boundary.
    pub reaction: Reaction,
}

impl Default for Sim {
    fn default() -> Self {
        Sim {
            intervals: 10,
            elasticity: Box::new(HoldPolicy),
            max_tasks: 0,
            queue: QueueModel::none(),
            split: None,
            reaction: Reaction::default(),
        }
    }
}

/// Per-task load of one interval's statistics under one routing.
struct Loads {
    cost: Vec<f64>,
    tuples: Vec<f64>,
}

/// Per-task cost and tuple count of `stats` over `n_tasks`, destinations
/// from `route_batch` and a split key's share spread evenly over its
/// replicas.
fn loads_under(
    stats: &IntervalStats,
    n_tasks: usize,
    splits: &[(Key, Vec<TaskId>)],
    route_batch: impl FnOnce(&[Key], &mut Vec<TaskId>),
) -> Loads {
    let keys: Vec<Key> = stats.iter().map(|(k, _)| k).collect();
    let mut dests = Vec::with_capacity(keys.len());
    route_batch(&keys, &mut dests);
    let mut loads = Loads {
        cost: vec![0.0; n_tasks],
        tuples: vec![0.0; n_tasks],
    };
    for ((key, s), d) in stats.iter().zip(&dests) {
        if !splits.iter().any(|(k, _)| *k == key) {
            loads.cost[d.index()] += s.cost as f64;
            loads.tuples[d.index()] += s.freq as f64;
        }
    }
    for (key, replicas) in splits {
        if let Some(s) = stats.get(*key) {
            let r = replicas.len() as f64;
            for t in replicas {
                loads.cost[t.index()] += s.cost as f64 / r;
                loads.tuples[t.index()] += s.freq as f64 / r;
            }
        }
    }
    loads
}

/// [`loads_under`] the partitioner's current routing. A strategy that
/// does not keep a key on one task is routed tuple by tuple, as the
/// engine's source routes it: each key's tuples spread evenly over the
/// interval, as in a shuffled stream, each carrying its key's mean cost.
fn live_loads(p: &mut dyn Partitioner, stats: &IntervalStats) -> Loads {
    if p.preserves_key_semantics() {
        return loads_under(stats, p.n_tasks(), &p.splits(), |keys, out| {
            p.route_batch(keys, out)
        });
    }
    let keys: Vec<(Key, KeyStat)> = stats.iter().collect();
    // `(where in the interval, which key)` per tuple.
    let mut stream: Vec<(f64, usize)> = Vec::new();
    for (i, (_, s)) in keys.iter().enumerate() {
        let n = s.freq.max(1);
        stream.extend((0..n).map(|j| ((j as f64 + 0.5) / n as f64, i)));
    }
    stream.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tuples: Vec<Key> = stream.iter().map(|&(_, i)| keys[i].0).collect();
    let mut dests = Vec::with_capacity(tuples.len());
    p.route_batch(&tuples, &mut dests);
    let mut loads = Loads {
        cost: vec![0.0; p.n_tasks()],
        tuples: vec![0.0; p.n_tasks()],
    };
    for (&(_, i), d) in stream.iter().zip(&dests) {
        let s = keys[i].1;
        let n = s.freq.max(1) as f64;
        loads.cost[d.index()] += s.cost as f64 / n;
        loads.tuples[d.index()] += s.freq as f64 / n;
    }
    loads
}

/// A table view as a standalone routing function; `None` for the
/// table-less views.
fn table_routing(view: RoutingView) -> Option<AssignmentFn> {
    match view {
        RoutingView::TablePlusHash {
            table,
            n_tasks,
            splits,
        } => {
            let mut a = AssignmentFn::with_table(n_tasks, table);
            a.set_splits(splits);
            Some(a)
        }
        _ => None,
    }
}

/// What the round core observes: loads as whole cost units.
fn whole_units(loads: &[f64]) -> Vec<u64> {
    loads.iter().map(|&l| l as u64).collect()
}

/// The statistics of a `share` of `stats`' tuples, each tuple kept
/// independently (seeded): what workers have seen once the source has fed
/// that share of a shuffled interval.
fn thin(stats: &IntervalStats, share: f64, seed: u64) -> IntervalStats {
    let cut = (share.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    stats
        .iter()
        .filter_map(|(key, s)| {
            let kept = (0..s.freq)
                .filter(|&j| mix64(mix64(seed ^ key.raw()) ^ j) < cut)
                .count() as u64;
            (kept > 0).then(|| {
                let part = KeyStat {
                    freq: kept,
                    cost: s.cost * kept / s.freq,
                    mem: s.mem * kept / s.freq,
                };
                (key, part)
            })
        })
        .collect()
}

impl Sim {
    /// Runs `p` against `source` for [`Sim::intervals`] intervals (see the
    /// crate docs for the loop) and collects the paper's scheduling
    /// metrics.
    pub fn run(mut self, p: &mut dyn Partitioner, source: &mut dyn IntervalSource) -> SimReport {
        let mut report = SimReport::new(p.name(), p.n_tasks());
        // Modeled standing backlog per task, in tuples.
        let mut backlog = vec![0.0; p.n_tasks()];
        // The routing the last closing round replaced, still in force for
        // the first `lag` of the next interval.
        let mut replaced: Option<AssignmentFn> = None;
        // The last closed interval's cost: what a provisional round
        // scales its partial costs up to.
        let mut last_total = 0;
        for interval in 0..self.intervals {
            let n_tasks = p.n_tasks();
            let stats = source.next_interval(n_tasks, &mut |k| p.route(k));
            let mut current = live_loads(p, &stats);
            let (queues, mean_latency_us, p99_latency_us) =
                self.queue.absorb(&mut backlog, &current.tuples);

            // `(share of the interval, per-task cost over the whole of it)`.
            let mut segments: Vec<(f64, Vec<f64>)> = Vec::new();
            let mut at = 0.0;
            if let Some(old) = replaced.take() {
                let old_loads = loads_under(&stats, old.n_tasks(), &old.splits(), |keys, out| {
                    old.route_batch(keys, out)
                });
                segments.push((self.reaction.lag, old_loads.cost));
                at = self.reaction.lag;
            }
            if let Some(effective) =
                self.provisional(p, interval, &stats, at, last_total, &mut report)
            {
                let before = std::mem::replace(&mut current, live_loads(p, &stats));
                segments.push((effective - at, before.cost));
                at = effective;
            }
            let loads = whole_units(&current.cost);
            segments.push((1.0 - at, current.cost));
            let mut ran = vec![0.0; n_tasks];
            for (share, seg) in &segments {
                for (l, s) in ran.iter_mut().zip(seg) {
                    *l += share * s;
                }
            }
            report.observe_interval(interval, &ran);

            let snapshot = if self.reaction.lag > 0.0 {
                table_routing(p.routing_view())
            } else {
                None
            };
            let before = report.scale_events.len() + report.split_events.len();
            let mut round = RoundDecisions::new(RoundInputs {
                obs: IntervalObservation {
                    interval: interval as u64,
                    n_tasks,
                    loads: &loads,
                    queue_depths: &queues,
                    mean_latency_us,
                    p99_latency_us,
                    n_dead: 0,
                },
                stats: &stats,
                dead: Vec::new(),
                can_grow: n_tasks < self.max_tasks,
            });
            while let Some(action) =
                round.next(p, self.elasticity.as_mut(), self.split.as_deref_mut())
            {
                match action {
                    RoundAction::ScaleOut { event, .. } => {
                        // The pre-placement moves are notional here
                        // (simulated state follows its key for free); the
                        // new slot joins drained.
                        backlog.push(0.0);
                        report.scale_events.push(event);
                    }
                    RoundAction::ScaleIn { event, .. } => {
                        // The victim drains its own backlog before retiring
                        // (the engine's Retire marker lands behind it), so
                        // its queue leaves with it.
                        backlog.truncate(event.to);
                        report.scale_events.push(event);
                    }
                    RoundAction::Split { event, .. } | RoundAction::Unsplit { event, .. } => {
                        report.split_events.push(event);
                    }
                    // The dead-slot actions cannot arise from an empty
                    // dead set.
                    RoundAction::Revive { .. } | RoundAction::ScaleHeld => {}
                }
            }
            let decided = report.scale_events.len() + report.split_events.len() > before;

            last_total = stats.total_cost();
            let watch = Stopwatch::start();
            let outcome = p.end_interval(stats);
            let elapsed_ms = watch.elapsed_ms();
            if let Some(out) = &outcome {
                report.observe_rebalance(interval, elapsed_ms, out);
            }
            if outcome.is_some() || decided {
                replaced = snapshot;
            }
        }
        report
    }

    /// Step 4 over the interval's `stats`, the source having fed `at` of
    /// it under the routing the last round replaced. `whole` is the last
    /// closed interval's cost. Returns when what the round changed takes
    /// effect, if it changed anything.
    fn provisional(
        &mut self,
        p: &mut dyn Partitioner,
        interval: usize,
        stats: &IntervalStats,
        at: f64,
        whole: u64,
        report: &mut SimReport,
    ) -> Option<f64> {
        // The source evaluates the alert once it has fed `sample` under
        // the routes in force, in the first half of the interval.
        let early = self.reaction.early.filter(|e| at + e.sample < 0.5)?;
        let salt = early.seed ^ (interval as u64) << 32;
        let recent = thin(stats, early.sample, salt);
        if !skew_alert(&whole_units(&live_loads(p, &recent).cost), early.floor) {
            return None;
        }
        report.early_fired += 1;
        // Workers report everything since the interval began.
        let mut seen = recent;
        if at > 0.0 {
            seen.absorb(thin(stats, at, !salt));
        }
        let splits = report.split_events.len();
        if let Some(sp) = self.split.as_deref_mut().filter(|_| early.split) {
            let loads = whole_units(&live_loads(p, &seen).cost);
            let inputs = RoundInputs {
                obs: IntervalObservation {
                    interval: interval as u64,
                    n_tasks: p.n_tasks(),
                    loads: &loads,
                    queue_depths: &[],
                    mean_latency_us: 0.0,
                    p99_latency_us: 0.0,
                    n_dead: 0,
                },
                stats: &seen,
                dead: Vec::new(),
                can_grow: false,
            };
            let mut round = RoundDecisions::provisional(inputs, whole);
            while let Some(action) = round.next(p, self.elasticity.as_mut(), Some(&mut *sp)) {
                if let RoundAction::Split { event, .. } = action {
                    report.split_events.push(event);
                }
            }
        }
        let split = report.split_events.len() > splits;
        let watch = Stopwatch::start();
        let plan = p.end_interval(seen.into_provisional());
        let elapsed_ms = watch.elapsed_ms();
        if let Some(out) = &plan {
            report.early_planned += 1;
            report.observe_rebalance(interval, elapsed_ms, out);
        }
        (plan.is_some() || split).then(|| (at + early.sample + self.reaction.lag).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use source::{ReplaySource, ZipfSource};
    use streambal_baselines::storm;
    use streambal_baselines::CoreBalancer;
    use streambal_core::{BalanceParams, RebalanceStrategy};
    use streambal_elastic::{HotKeyPolicy, ScaleDecision, ScaleEvent, SplitEvent};
    use streambal_workloads::FluctuatingWorkload;

    fn zipf_source(k: usize, z: f64, f: f64) -> ZipfSource {
        ZipfSource::new(k, z, 50_000, f, 77)
    }

    fn run(intervals: usize, p: &mut dyn Partitioner, src: &mut dyn IntervalSource) -> SimReport {
        Sim {
            intervals,
            ..Sim::default()
        }
        .run(p, src)
    }

    #[test]
    fn hash_partitioner_never_rebalances_but_skews() {
        let report = run(10, &mut storm(8), &mut zipf_source(2_000, 0.9, 0.5));
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
        let hash_report = run(12, &mut storm(8), &mut zipf_source(2_000, 0.9, 0.2));

        let mut mixed = CoreBalancer::new(
            8,
            5,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.08,
                ..BalanceParams::default()
            },
        );
        let mixed_report = run(12, &mut mixed, &mut zipf_source(2_000, 0.9, 0.2));

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
        let iv: IntervalStats = keys.iter().map(|&k| (k, KeyStat::new(1, 1, 1))).collect();
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
        let report = run(intervals, &mut p, &mut src);
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
    fn elastic_sim_executes_a_fixed_cycle() {
        use streambal_elastic::FixedSchedule;
        let mut p = CoreBalancer::new(
            4,
            5,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.2,
                ..BalanceParams::default()
            },
        );
        let sim = Sim {
            intervals: 8,
            elasticity: Box::new(FixedSchedule::cycle(2, 5, 1)),
            max_tasks: 5,
            ..Sim::default()
        };
        let report = sim.run(&mut p, &mut zipf_source(3_000, 0.9, 0.3));
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
        let always = |decision| Sim {
            intervals: 5,
            elasticity: Box::new(Always(decision)),
            max_tasks: 3,
            ..Sim::default()
        };
        let mut p = storm(2);
        let mut src = zipf_source(500, 0.5, 0.0);
        let report = always(ScaleDecision::ScaleOut).run(&mut p, &mut src);
        assert_eq!(p.n_tasks(), 3, "grew to the cap and stopped");
        assert_eq!(report.scale_events.len(), 1);

        let mut p = storm(2);
        let mut src = zipf_source(500, 0.5, 0.0);
        let report = always(ScaleDecision::ScaleIn).run(&mut p, &mut src);
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
        use streambal_elastic::BackpressurePolicy;
        let volumes = [400u64, 400, 1600, 1600, 400, 400, 400];
        let stats = || {
            volumes.map(|v| -> IntervalStats {
                let stat = KeyStat::new(v / 200, v / 200, 8);
                (0..200u64).map(|k| (Key(k), stat)).collect()
            })
        };
        let sim = |queue| {
            let mut policy = BackpressurePolicy::new(100, 20, 2, 4);
            policy.down_after = 2;
            policy.cooldown = 0;
            Sim {
                intervals: volumes.len(),
                elasticity: Box::new(policy),
                max_tasks: 4,
                queue,
                ..Sim::default()
            }
        };
        // Service 300 t/interval/task: 2 tasks absorb the quiet 400 but
        // queue ~500/task at the 1600 burst — clamped at the channel
        // bound, exactly as real occupancy would be, so the quiet tail
        // can drain it within a couple of intervals.
        let model = QueueModel {
            service_rate: 300.0,
            channel_capacity: 256,
            us_per_tuple: 50.0,
        };
        let report = sim(model).run(&mut storm(2), &mut ReplaySource::new(stats()));
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
        let report = sim(QueueModel::none()).run(&mut storm(2), &mut ReplaySource::new(stats()));
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
        use streambal_elastic::FixedSplitSchedule;
        let mut p = storm(4);
        let sim = Sim {
            intervals: 6,
            split: Some(Box::new(FixedSplitSchedule::cycle(42, 3, 1, 3))),
            ..Sim::default()
        };
        let report = sim.run(&mut p, &mut zipf_source(1_000, 0.9, 0.2));
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
    /// While it is split, its cost and its tuples count on every replica.
    #[test]
    fn hotkey_policy_splits_the_dominant_burst_in_sim() {
        use std::sync::{Arc, Mutex};
        /// Holds, recording the queue depths every closing round observes.
        #[derive(Debug, Clone, Default)]
        struct QueueProbe(Arc<Mutex<Vec<Vec<u64>>>>);
        impl ElasticityPolicy for QueueProbe {
            fn name(&self) -> String {
                "queue-probe".into()
            }
            fn decide(&mut self, obs: &IntervalObservation) -> ScaleDecision {
                self.0.lock().unwrap().push(obs.queue_depths.to_vec());
                ScaleDecision::Hold
            }
            fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
                Box::new(self.clone())
            }
        }
        // Interval costs: quiet, 3 burst intervals of a single dominant
        // key, quiet tail.
        let hot_cost = [0u64, 5_000, 5_000, 5_000, 0, 0, 0];
        let stats = hot_cost.map(|h| -> IntervalStats {
            let quiet = (0..20u64).map(|k| (Key(k), KeyStat::new(10, 10, 8)));
            let hot = (h > 0).then_some((Key(999), KeyStat::new(h, h, 8)));
            quiet.chain(hot).collect()
        });
        // budget = 5400/1.08 = 5000; the 5000-cost burst crosses the 0.9
        // high mark, the quiet tail sits under the 0.5 low mark. The
        // burst key carries ~96% of the interval, so share-based sizing
        // salts it across all four tasks. A service rate of 1 000 tuples
        // per task queues a quarter of the key on every replica.
        let model = QueueModel {
            service_rate: 1_000.0,
            channel_capacity: 10_000,
            us_per_tuple: 1.0,
        };
        let split = |interval, from, to| SplitEvent {
            interval,
            key: 999,
            from,
            to,
        };
        let queued = [QueueModel::none(), model].map(|queue| {
            let probe = QueueProbe::default();
            let sim = Sim {
                intervals: hot_cost.len(),
                elasticity: Box::new(probe.clone()),
                queue,
                split: Some(Box::new(HotKeyPolicy::new(5_400.0))),
                ..Sim::default()
            };
            let mut p = storm(4);
            let report = sim.run(&mut p, &mut ReplaySource::new(stats.clone()));
            assert_eq!(
                report.split_events,
                vec![split(1, 1, 4), split(5, 4, 1)],
                "one split per burst, one unsplit per cool-down"
            );
            assert!(p.splits().is_empty());
            // Intervals 2–3 run split: no task sits far above the mean.
            for &(interval, theta) in &report.theta_series.points()[2..4] {
                assert!(theta < 0.2, "interval {interval}: θ {theta}");
            }
            let depths = probe.0.lock().unwrap().clone();
            depths
        });
        // And every replica queues its quarter of the key's tuples.
        for depths in &queued[1][2..4] {
            assert!(depths.iter().all(|&q| q > 0), "{depths:?}");
        }
    }

    #[test]
    fn report_counts_intervals() {
        let report = run(7, &mut storm(4), &mut zipf_source(500, 0.5, 0.0));
        assert_eq!(report.theta_series.len(), 7);
    }

    fn drifting(n: usize) -> Vec<IntervalStats> {
        let mut w = FluctuatingWorkload::new(2_000, 0.85, 40_000, 1.0, 42);
        let mut hash = storm(4);
        (0..n)
            .map(|i| {
                if i > 0 {
                    w.advance(4, |k| hash.route(k));
                }
                w.interval_stats()
            })
            .collect()
    }

    fn mixed() -> CoreBalancer {
        CoreBalancer::new(4, 5, RebalanceStrategy::Mixed, BalanceParams::default())
    }

    fn replay(
        p: &mut dyn Partitioner,
        split: Option<Box<dyn SplitPolicy>>,
        intervals: &[IntervalStats],
        reaction: Reaction,
    ) -> SimReport {
        let sim = Sim {
            intervals: intervals.len(),
            split,
            reaction,
            ..Sim::default()
        };
        sim.run(p, &mut ReplaySource::new(intervals.iter().cloned()))
    }

    #[test]
    fn thinning_keeps_about_its_share_and_never_more_than_all() {
        let stats = &drifting(1)[0];
        let total: u64 = stats.iter().map(|(_, s)| s.freq).sum();
        let tenth: u64 = thin(stats, 0.1, 7).iter().map(|(_, s)| s.freq).sum();
        assert!((tenth as f64 / total as f64 - 0.1).abs() < 0.01, "{tenth}");
        assert_eq!(thin(stats, 0.0, 7).len(), 0);
        let all = thin(stats, 1.0, 7);
        assert_eq!(all.iter().map(|(_, s)| s.freq).sum::<u64>(), total);
        assert_eq!(all.total_cost(), stats.total_cost());
    }

    /// Reacting inside the interval can only help a drifting stream, a
    /// reaction lag can only hurt, and a static partitioner is untouched
    /// by both.
    #[test]
    fn early_rounds_cut_theta_and_lag_raises_it() {
        let intervals = drifting(24);
        let run = |lag: f64, early: Option<EarlyRounds>| {
            replay(&mut mixed(), None, &intervals, Reaction { lag, early })
        };
        let alert = EarlyRounds {
            sample: 0.05,
            floor: 0.08,
            split: true,
            seed: 1,
        };
        let stale = run(0.0, None);
        let lagged = run(0.2, None);
        let early = run(0.2, Some(alert));
        assert!(lagged.mean_imbalance(4) > stale.mean_imbalance(4));
        assert!(
            early.mean_imbalance(4) < 0.8 * lagged.mean_imbalance(4),
            "{} vs {}",
            early.mean_imbalance(4),
            lagged.mean_imbalance(4)
        );
        assert!(early.early_planned > 0 && early.early_planned <= early.early_fired);
        assert_eq!(stale.early_fired, 0);

        let reaction = Reaction {
            lag: 0.2,
            early: Some(alert),
        };
        let a = replay(&mut storm(4), None, &intervals, reaction);
        let b = replay(&mut storm(4), None, &intervals, Reaction::default());
        assert_eq!(a.imbalance(), b.imbalance());
        assert_eq!(a.rebalances, 0);
    }

    /// A key no whole-key plan can place: a closing round splits it an
    /// interval late, a provisional round inside the interval that shows
    /// it — the same events, and the burst's first interval runs mostly
    /// split.
    #[test]
    fn early_split_records_the_same_events_sooner() {
        let mut g = streambal_workloads::ChurnWorkload::new(500, 20_000, 20, 0.1, 3)
            .with_dominant_burst(Key(500), 0.6, 3, 6);
        let mut intervals = vec![g.interval_stats()];
        for _ in 1..8 {
            g.advance();
            intervals.push(g.interval_stats());
        }
        let run = |split: bool| {
            let (sample, floor, seed) = (0.125, 0.08, 1);
            let early = Some(EarlyRounds {
                split,
                sample,
                floor,
                seed,
            });
            let hot = HotKeyPolicy::new(20_000.0 / 3.0);
            let reaction = Reaction { lag: 0.1, early };
            replay(&mut mixed(), Some(Box::new(hot)), &intervals, reaction)
        };
        let (closing, early) = (run(false), run(true));
        assert_eq!(closing.split_events, early.split_events);
        let trace = early.split_events.iter().map(|e| (e.interval, e.to));
        assert_eq!(trace.collect::<Vec<_>>(), vec![(3, 4), (7, 1)]);
        let (early, closing) = (early.imbalance(), closing.imbalance());
        assert!(early[3] < 0.5 * closing[3], "{early:?}");
    }
}
