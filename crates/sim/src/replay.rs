//! Intra-interval replay: the imbalance an interval actually *runs* at.
//!
//! [`run_sim`](crate::run_sim) scores an assignment against the interval
//! that produced it. An engine never runs that way: the plan made from
//! interval `i − 1`'s statistics serves interval `i` (stale by one), it
//! takes effect some way *into* interval `i` (the statistics markers
//! drain, the plan is generated, the moved keys pause), and — with
//! provisional rounds — a second plan may land inside the interval. This
//! module replays a frozen interval sequence through a [`Partitioner`]
//! with those three effects as parameters and reports, per interval, the
//! time-weighted `max/mean − 1` of the per-task load: the quantity a
//! saturated run's throughput is `ideal ÷ (1 + θ̄)` of.
//!
//! The provisional round is modelled the way the engine runs it: the
//! source has fed a `sample` share of the interval's tuples (a seeded
//! Bernoulli thinning of the interval's statistics, so the sample carries
//! its sampling noise) when it evaluates `streambal_core::skew_alert` —
//! the engine's own function — on the per-destination counts; if it
//! fires, the thinned statistics go to `end_interval` marked provisional,
//! and the plan they produce takes effect `lag` later. Decisions are the
//! partitioner's; only the clock is modelled.
//!
//! With a split policy, every cut — closing or provisional — first runs
//! through `streambal_elastic::RoundDecisions`, the code the engine's
//! controller pulls its split decisions from, and a split key's cost is
//! spread evenly over its replicas.

use streambal_core::{skew_alert, IntervalStats, Key, KeyStat, Partitioner, TaskId};
use streambal_elastic::{
    HoldPolicy, IntervalObservation, RoundAction, RoundDecisions, RoundInputs, SplitEvent,
    SplitPolicy,
};
use streambal_hashring::mix64;

/// The source-side half of a provisional round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyRounds {
    /// Share of the interval fed (under the current view) when the alert
    /// is evaluated and the provisional statistics are cut.
    pub sample: f64,
    /// The alert's floor (see `streambal_core::skew_alert`).
    pub floor: f64,
    /// Whether a provisional round may split a heavy hitter (the engine:
    /// yes; `false` replays the controller before early splits).
    pub split: bool,
}

/// How the replayed controller reacts in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reaction {
    /// Share of an interval between a statistics cut — closing or
    /// provisional — and the plan made from it taking effect.
    pub lag: f64,
    /// Provisional rounds, if the source raises alerts.
    pub early: Option<EarlyRounds>,
}

/// What [`replay_theta`] measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThetaReplay {
    /// Time-weighted `max/mean − 1` of the per-task load, per interval.
    pub theta: Vec<f64>,
    /// Plans generated, closing and provisional.
    pub rebalances: usize,
    /// Intervals whose alert fired.
    pub early_fired: usize,
    /// Provisional rounds that produced a plan.
    pub early_planned: usize,
    /// State bytes the plans moved.
    pub migrated_bytes: u64,
    /// Splits and unsplits, closing and provisional, as the engine
    /// would record them.
    pub split_events: Vec<SplitEvent>,
}

impl ThetaReplay {
    /// Mean of [`ThetaReplay::theta`] from interval `from` on.
    pub fn mean_theta(&self, from: usize) -> f64 {
        let tail = self.theta.get(from..).unwrap_or(&[]);
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    }
}

/// Per-task cost of `stats` under `p`'s current routing.
fn loads_under(p: &mut dyn Partitioner, stats: &IntervalStats) -> Vec<f64> {
    let keys: Vec<Key> = stats.iter().map(|(k, _)| k).collect();
    let mut dests: Vec<TaskId> = Vec::with_capacity(keys.len());
    p.route_batch(&keys, &mut dests);
    let mut loads = vec![0.0; p.n_tasks()];
    for ((_, s), d) in stats.iter().zip(&dests) {
        loads[d.index()] += s.cost as f64;
    }
    // A split key's tuples go round its replicas.
    for (key, replicas) in p.splits() {
        if let Some(at) = keys.iter().position(|&k| k == key) {
            let cost = stats.get(key).map_or(0, |s| s.cost) as f64;
            loads[dests[at].index()] -= cost;
            for r in &replicas {
                loads[r.index()] += cost / replicas.len() as f64;
            }
        }
    }
    loads
}

/// Runs one cut's split decision — `whole_interval` is `Some` for a
/// provisional cut — through the engine's round core; whether it acted.
fn decide_split(
    p: &mut dyn Partitioner,
    split: &mut dyn SplitPolicy,
    interval: usize,
    stats: &IntervalStats,
    whole_interval: Option<u64>,
    out: &mut ThetaReplay,
) -> bool {
    let loads: Vec<u64> = loads_under(p, stats).iter().map(|&l| l as u64).collect();
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
        stats,
        dead: Vec::new(),
        can_grow: false,
    };
    let mut round = match whole_interval {
        None => RoundDecisions::new(inputs),
        Some(whole) => RoundDecisions::provisional(inputs, whole),
    };
    let before = out.split_events.len();
    while let Some(action) = round.next(p, &mut HoldPolicy, Some(&mut *split)) {
        if let RoundAction::Split { event, .. } | RoundAction::Unsplit { event, .. } = action {
            out.split_events.push(event);
        }
    }
    out.split_events.len() > before
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

/// Replays `intervals` through `p` — and `split`, if the run has a split
/// policy — under `reaction` (see the module docs). `seed` drives the
/// provisional samples only.
pub fn replay_theta(
    p: &mut dyn Partitioner,
    mut split: Option<&mut dyn SplitPolicy>,
    intervals: &[IntervalStats],
    reaction: &Reaction,
    seed: u64,
) -> ThetaReplay {
    let mut out = ThetaReplay::default();
    // This interval's loads under the assignment the previous closing
    // round replaced — still in force for the first `lag` of it.
    let mut before_close: Option<Vec<f64>> = None;
    for (i, stats) in intervals.iter().enumerate() {
        // `(share of the interval, per-task loads over the whole of it)`.
        let mut segments: Vec<(f64, Vec<f64>)> = Vec::new();
        let mut at = 0.0;
        if let Some(old) = before_close.take() {
            segments.push((reaction.lag, old));
            at = reaction.lag;
        }
        let mut current = loads_under(p, stats);
        // The source evaluates the alert once it has fed `sample` under
        // the view in force, in the first half of the interval.
        if let Some(early) = reaction.early.filter(|e| at + e.sample < 0.5) {
            let salt = seed ^ (i as u64) << 32;
            let recent = thin(stats, early.sample, salt);
            let sent: Vec<u64> = loads_under(p, &recent).iter().map(|&l| l as u64).collect();
            if skew_alert(&sent, early.floor) {
                out.early_fired += 1;
                // Workers report everything since the interval began.
                let mut seen = recent;
                if at > 0.0 {
                    seen.merge(&thin(stats, at, !salt));
                }
                let whole = i.checked_sub(1).map_or(0, |j| intervals[j].total_cost());
                let sp = split.as_deref_mut().filter(|_| early.split);
                let acted =
                    sp.is_some_and(|sp| decide_split(p, sp, i, &seen, Some(whole), &mut out));
                let plan = p.end_interval(seen.into_provisional());
                if let Some(plan) = &plan {
                    out.early_planned += 1;
                    out.rebalances += 1;
                    out.migrated_bytes += plan.plan.cost_bytes();
                }
                if plan.is_some() || acted {
                    let effective = (at + early.sample + reaction.lag).min(1.0);
                    segments.push((effective - at, current));
                    at = effective;
                    current = loads_under(p, stats);
                }
            }
        }
        segments.push((1.0 - at, current));
        let mut loads = vec![0.0; p.n_tasks()];
        for (share, seg) in &segments {
            for (l, s) in loads.iter_mut().zip(seg) {
                *l += share * s;
            }
        }
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        let max = loads.iter().copied().fold(0.0, f64::max);
        out.theta
            .push(if mean > 0.0 { max / mean - 1.0 } else { 0.0 });

        let next_under_old = intervals.get(i + 1).map(|next| loads_under(p, next));
        let sp = split.as_deref_mut();
        let acted = sp.is_some_and(|sp| decide_split(p, sp, i, stats, None, &mut out));
        let plan = p.end_interval(stats.clone());
        if let Some(plan) = &plan {
            out.rebalances += 1;
            out.migrated_bytes += plan.plan.cost_bytes();
        }
        if (plan.is_some() || acted) && reaction.lag > 0.0 {
            before_close = next_under_old;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_baselines::{storm, CoreBalancer};
    use streambal_core::{BalanceParams, RebalanceStrategy};
    use streambal_workloads::FluctuatingWorkload;

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
            replay_theta(&mut mixed(), None, &intervals, &Reaction { lag, early }, 1)
        };
        let alert = EarlyRounds {
            sample: 0.05,
            floor: 0.08,
            split: true,
        };
        let stale = run(0.0, None);
        let lagged = run(0.2, None);
        let early = run(0.2, Some(alert));
        assert!(lagged.mean_theta(4) > stale.mean_theta(4));
        assert!(
            early.mean_theta(4) < 0.8 * lagged.mean_theta(4),
            "{} vs {}",
            early.mean_theta(4),
            lagged.mean_theta(4)
        );
        assert!(early.early_planned > 0 && early.early_planned <= early.early_fired);
        assert_eq!(stale.early_fired, 0);

        let reaction = Reaction {
            lag: 0.2,
            early: Some(alert),
        };
        let a = replay_theta(&mut storm(4), None, &intervals, &reaction, 1);
        let b = replay_theta(
            &mut storm(4),
            None,
            &intervals,
            &Reaction {
                lag: 0.0,
                early: None,
            },
            1,
        );
        assert_eq!(a.theta, b.theta);
        assert_eq!(a.rebalances, 0);
    }

    /// A key no whole-key plan can place: a closing round splits it an
    /// interval late, a provisional round inside the interval that shows
    /// it — the same events, and the burst's first interval runs mostly
    /// split.
    #[test]
    fn early_split_records_the_same_events_sooner() {
        use streambal_elastic::HotKeyPolicy;
        let mut g = streambal_workloads::ChurnWorkload::new(500, 20_000, 20, 0.1, 3)
            .with_dominant_burst(Key(500), 0.6, 3, 6);
        let mut intervals = vec![g.interval_stats()];
        for _ in 1..8 {
            g.advance();
            intervals.push(g.interval_stats());
        }
        let run = |split: bool| {
            let (sample, floor) = (0.125, 0.08);
            let early = Some(EarlyRounds {
                split,
                sample,
                floor,
            });
            let mut hot = HotKeyPolicy::new(20_000.0 / 3.0);
            let reaction = Reaction { lag: 0.1, early };
            replay_theta(&mut mixed(), Some(&mut hot), &intervals, &reaction, 1)
        };
        let (closing, early) = (run(false), run(true));
        assert_eq!(closing.split_events, early.split_events);
        let trace = early.split_events.iter().map(|e| (e.interval, e.to));
        assert_eq!(trace.collect::<Vec<_>>(), vec![(3, 4), (7, 1)]);
        assert!(early.theta[3] < 0.5 * closing.theta[3], "{:?}", early.theta);
    }
}
