//! Load accounting and balance indicators (paper §II-A).
//!
//! `Lᵢ(d, F) = Σ_{k : F(k)=d} cᵢ(k)` is the load of task `d`;
//! `θᵢ(d, F) = |Lᵢ(d,F) − L̄ᵢ| / L̄ᵢ` its balance indicator. A task is
//! *overloaded* when `L > Lmax = (1+θmax)·L̄`, and the controller triggers
//! a rebalance when any task violates the bound.

use crate::key::{Key, TaskId};
use crate::stats::{IntervalStats, KeyRecord};

/// Per-task load vector plus derived aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// `Lᵢ(d, F)` per task, indexed by task id.
    pub loads: Vec<u64>,
    /// Mean load `L̄ᵢ`.
    pub mean: f64,
}

impl LoadSummary {
    /// Builds from a raw load vector.
    pub fn new(loads: Vec<u64>) -> Self {
        assert!(!loads.is_empty(), "load summary needs at least one task");
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        LoadSummary { loads, mean }
    }

    /// The overload threshold `Lmax = (1 + θmax) · L̄`.
    #[inline]
    pub fn l_max(&self, theta_max: f64) -> f64 {
        (1.0 + theta_max) * self.mean
    }

    /// Balance indicator `θ(d)` of one task. Zero when the operator is
    /// entirely idle (`L̄ = 0`): an idle operator is trivially balanced.
    pub fn theta(&self, d: TaskId) -> f64 {
        balance_indicator(self.loads[d.index()], self.mean)
    }

    /// The worst balance indicator across tasks.
    pub fn max_theta(&self) -> f64 {
        (0..self.loads.len())
            .map(|i| self.theta(TaskId::from(i)))
            .fold(0.0, f64::max)
    }

    /// The overload cutoff actually compared against: `Lmax` plus a small
    /// epsilon absorbing `(1+θmax)·L̄` rounding, so an exactly-at-bound
    /// task never counts as overloaded.
    #[inline]
    fn lmax_cutoff(&self, theta_max: f64) -> f64 {
        self.l_max(theta_max) + 1e-9
    }

    /// True when any task exceeds `Lmax` — the trigger condition, without
    /// materializing the candidate list.
    pub fn is_overloaded(&self, theta_max: f64) -> bool {
        let cutoff = self.lmax_cutoff(theta_max);
        self.loads.iter().any(|&l| l as f64 > cutoff)
    }

    /// Tasks exceeding `Lmax`, the candidates drained in Phase II.
    pub fn overloaded(&self, theta_max: f64) -> Vec<TaskId> {
        let cutoff = self.lmax_cutoff(theta_max);
        (0..self.loads.len())
            .filter(|&i| self.loads[i] as f64 > cutoff)
            .map(TaskId::from)
            .collect()
    }

    /// The paper's *workload skewness* report metric: `max L(d) / L̄`
    /// (Fig. 7 y-axis). 1.0 is perfect balance; 0 when idle.
    pub fn skewness(&self) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        self.loads.iter().copied().max().unwrap_or(0) as f64 / self.mean
    }
}

/// `θ = |L − L̄| / L̄`, with the idle-operator convention `θ = 0` when
/// `L̄ = 0`.
#[inline]
pub fn balance_indicator(load: u64, mean: f64) -> f64 {
    if mean == 0.0 {
        return 0.0;
    }
    (load as f64 - mean).abs() / mean
}

/// Computes per-task loads from key records under their `current`
/// assignment.
pub fn loads_of(records: &[KeyRecord], n_tasks: usize) -> LoadSummary {
    let mut loads = vec![0u64; n_tasks];
    for r in records {
        loads[r.current.index()] += r.cost;
    }
    LoadSummary::new(loads)
}

/// The trigger predicate evaluated by the controller at each interval end:
/// is any task *overloaded*, i.e. `L(d) > Lmax = (1+θmax)·L̄` (§II-A)?
///
/// Deliberately one-sided. `θ` measures absolute deviation, so a merely
/// *under*-loaded task (a hash gap leaving one worker idle) drives
/// `max θ` past `θmax` without any task exceeding `Lmax`; triggering on
/// that would fire a rebalance — and pay its migration cost — every
/// interval while fixing nothing, since no key move can fill a hash gap
/// the generator never feeds. The paper's controller only reacts to
/// overload, and Phase II only drains tasks above `Lmax`.
pub fn needs_rebalance(summary: &LoadSummary, theta_max: f64) -> bool {
    summary.is_overloaded(theta_max)
}

/// How far `max/mean` of the per-destination counts must exceed 1 —
/// beyond sampling noise — before [`skew_alert`] fires. A constant, not
/// `θmax`: the source that evaluates it does not know the partitioner's
/// parameters, and `bench_results/theta_gap.json` shows the gain is flat
/// in it up to several times the paper's `θmax` (DESIGN.md §5).
pub const SKEW_ALERT_FLOOR: f64 = 0.08;

/// The share of an interval's tuples a source must have sent (under one
/// routing view) before it may raise a skew alert. The alert's counts
/// are also the sample the provisional plan is made from: a plan that
/// balances a few hundred tuples balances their sampling noise, and
/// `bench_results/theta_gap.json`'s sample sweep shows the later,
/// better-informed plan winning up to a quarter of the interval.
pub const SKEW_ALERT_MIN_SHARE: f64 = 0.125;

/// The source-side skew test behind a provisional statistics round: do
/// the tuples `sent` to each destination so far in the open interval
/// show an imbalance that is not sampling noise?
///
/// With `m` tuples drawn independently, a destination holding a `1/n`
/// share receives `m/n ± σ`, `σ² = m·(1/n)(1 − 1/n)` (one multinomial
/// cell). The alert fires when the busiest destination exceeds
/// `(1 + floor)·m/n` by more than `3σ`, so early in an interval — few
/// tuples, wide noise — only a large skew trips it, and a small one has
/// to persist. The engine's source and the simulator's replay share this
/// one function.
pub fn skew_alert(sent: &[u64], floor: f64) -> bool {
    let n = sent.len() as f64;
    let total = sent.iter().sum::<u64>() as f64;
    if sent.len() < 2 || total == 0.0 {
        return false;
    }
    let mean = total / n;
    let sigma = (mean * (1.0 - 1.0 / n)).sqrt();
    let max = sent.iter().copied().max().unwrap_or(0) as f64;
    max > (1.0 + floor) * mean + 3.0 * sigma
}

/// The heavy-hitter test behind an early split (DESIGN.md §6): is the
/// hottest key of `stats` not already in `split` heavier than
/// `Lmax = (1 + θmax)·L̄` on its own, i.e. a share of the report's cost
/// above `(1 + θmax)/n`? Then no placement of whole keys puts its holder
/// under `Lmax`. A share, so a report cut anywhere inside an interval
/// answers like the whole one. Returns the key and its share; ties go to
/// the lower key, and a key exactly at the bound is not over it.
pub fn heavy_hitter(
    stats: &IntervalStats,
    split: &[Key],
    n_tasks: usize,
    theta_max: f64,
) -> Option<(Key, f64)> {
    let total = stats.total_cost() as f64;
    let (key, hot) = stats
        .iter()
        .filter(|(k, s)| s.cost > 0 && !split.contains(k))
        .max_by(|a, b| a.1.cost.cmp(&b.1.cost).then(b.0.cmp(&a.0)))?;
    let l_max = (1.0 + theta_max) * total / n_tasks as f64;
    (hot.cost as f64 > l_max + 1e-9).then(|| (key, hot.cost as f64 / total))
}

/// Convenience: `max L(d) / L̄` over an explicit load vector.
pub fn max_skewness(loads: &[u64]) -> f64 {
    LoadSummary::new(loads.to_vec()).skewness()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::KeyStat;

    fn rec(key: u64, cost: u64, current: u32) -> KeyRecord {
        KeyRecord {
            key: Key(key),
            cost,
            mem: 1,
            current: TaskId(current),
            hash_dest: TaskId(current),
        }
    }

    #[test]
    fn loads_accumulate_per_task() {
        let records = vec![rec(1, 5, 0), rec(2, 3, 0), rec(3, 2, 1)];
        let s = loads_of(&records, 3);
        assert_eq!(s.loads, vec![8, 2, 0]);
        assert!((s.mean - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn theta_matches_definition() {
        let s = LoadSummary::new(vec![16, 4]);
        // L̄ = 10; θ(d0) = 6/10, θ(d1) = 6/10.
        assert!((s.theta(TaskId(0)) - 0.6).abs() < 1e-12);
        assert!((s.theta(TaskId(1)) - 0.6).abs() < 1e-12);
        assert!((s.max_theta() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overloaded_uses_lmax() {
        let s = LoadSummary::new(vec![16, 4, 10]);
        // L̄ = 10, θmax = 0.2 ⇒ Lmax = 12.
        assert_eq!(s.overloaded(0.2), vec![TaskId(0)]);
        assert_eq!(s.overloaded(0.7), Vec::<TaskId>::new());
    }

    #[test]
    fn trigger_predicate() {
        let balanced = LoadSummary::new(vec![10, 10, 10]);
        assert!(!needs_rebalance(&balanced, 0.0));
        let skewed = LoadSummary::new(vec![20, 5, 5]);
        assert!(needs_rebalance(&skewed, 0.08));
        assert!(!needs_rebalance(&skewed, 1.0));
    }

    #[test]
    fn underload_alone_never_triggers() {
        // One idle task (hash gap): max θ = |0 − 75|/75 = 1.0 > θmax, but
        // no task exceeds Lmax = 1.5 · 75 = 112.5. The deviation-based
        // predicate this replaces fired a spurious rebalance every
        // interval here; the documented overload predicate must not.
        let s = LoadSummary::new(vec![0, 100, 100, 100]);
        assert!(s.max_theta() > 0.5, "deviation exceeds θmax by design");
        assert!(s.overloaded(0.5).is_empty());
        assert!(!needs_rebalance(&s, 0.5));
        // The same loads with a genuinely overloaded task still trigger.
        let s = LoadSummary::new(vec![0, 100, 100, 250]);
        assert!(needs_rebalance(&s, 0.5));
    }

    #[test]
    fn trigger_matches_hand_computed_lmax() {
        // Each expectation computed by hand from L̄ and Lmax = (1+θmax)·L̄,
        // independently of the implementation.
        for (loads, theta_max, expect) in [
            (vec![20u64, 5, 5], 0.08, true),      // L̄=10, Lmax=10.8 < 20
            (vec![20, 5, 5], 1.0, false),         // Lmax=20, 20 not > 20
            (vec![10, 10, 10], 0.0, false),       // exactly at the bound
            (vec![1, 0, 0, 0], 0.0, true),        // L̄=0.25, 1 > 0.25
            (vec![1, 0, 0, 0], 2.9, true),        // Lmax=0.975 < 1
            (vec![1, 0, 0, 0], 3.0, false),       // Lmax=1.0, 1 not > 1
            (vec![0, 100, 100, 100], 0.5, false), // L̄=75, Lmax=112.5
        ] {
            let s = LoadSummary::new(loads.clone());
            assert_eq!(
                needs_rebalance(&s, theta_max),
                expect,
                "loads {loads:?}, θmax {theta_max}"
            );
            assert_eq!(
                s.overloaded(theta_max).is_empty(),
                !expect,
                "candidate list must agree: loads {loads:?}, θmax {theta_max}"
            );
        }
    }

    #[test]
    fn skewness_metric() {
        assert!((max_skewness(&[20, 5, 5]) - 2.0).abs() < 1e-12);
        assert!((max_skewness(&[10, 10]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_operator_is_balanced() {
        let s = LoadSummary::new(vec![0, 0, 0]);
        assert_eq!(s.max_theta(), 0.0);
        assert_eq!(s.skewness(), 0.0);
        assert!(!needs_rebalance(&s, 0.0));
    }

    /// The alert needs the skew to clear the floor by three sigmas of
    /// the sample it has: the same 30 % skew is noise in 200 tuples and
    /// a signal in 20 000.
    #[test]
    fn skew_alert_scales_its_margin_with_the_sample() {
        assert!(!skew_alert(&[65, 45, 45, 45], 0.08));
        assert!(skew_alert(&[6_500, 4_500, 4_500, 4_500], 0.08));
        // Within the floor: never, however large the sample.
        assert!(!skew_alert(&[1_050_000, 1_000_000, 1_000_000], 0.08));
        // A higher floor tolerates more.
        assert!(!skew_alert(&[6_500, 4_500, 4_500, 4_500], 0.40));
        assert!(skew_alert(&[9_000, 4_500, 4_500, 4_500], 0.40));
        // Nothing to compare.
        assert!(!skew_alert(&[], 0.08));
        assert!(!skew_alert(&[10], 0.08));
        assert!(!skew_alert(&[0, 0], 0.08));
    }

    #[test]
    fn heavy_hitter_is_a_key_no_placement_can_fit() {
        let report = |costs: &[(u64, u64)]| -> IntervalStats {
            costs
                .iter()
                .map(|&(k, c)| (Key(k), KeyStat::new(c, c, 8)))
                .collect()
        };
        // n = 4, θmax = 0.08: the bound is a 0.27 share. Exactly on it is
        // not over it; one cost unit more is, at any scale.
        let rest = [Key(2), Key(3)];
        let at = report(&[(1, 27), (2, 40), (3, 33)]);
        assert_eq!(heavy_hitter(&at, &rest, 4, 0.08), None);
        let over = report(&[(1, 2_800), (2, 4_000), (3, 3_200)]);
        assert_eq!(heavy_hitter(&over, &rest, 4, 0.08), Some((Key(1), 0.28)));
        // The hottest unsplit key is the candidate, ties to the lower key.
        assert_eq!(heavy_hitter(&over, &[], 4, 0.08), Some((Key(2), 0.4)));
        let tie = report(&[(9, 50), (4, 50)]);
        assert_eq!(heavy_hitter(&tie, &[], 4, 0.08), Some((Key(4), 0.5)));
        // One task holds everything whatever the share; an empty report
        // and a report whose every key is split have no candidate.
        assert_eq!(heavy_hitter(&over, &[], 1, 0.08), None);
        assert_eq!(heavy_hitter(&IntervalStats::new(), &[], 4, 0.08), None);
        assert_eq!(heavy_hitter(&tie, &[Key(4), Key(9)], 4, 0.08), None);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_loads_panic() {
        LoadSummary::new(vec![]);
    }
}
