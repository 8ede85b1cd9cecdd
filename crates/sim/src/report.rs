//! Collected scheduling metrics of one simulation run.

use streambal_core::RebalanceOutcome;
use streambal_elastic::{ScaleEvent, SplitEvent};
use streambal_metrics::{OnlineStats, TimeSeries};

/// Everything a simulation run measures, mirroring the paper's §V metric
/// definitions. Per-interval loads are the ones the interval *ran* at:
/// under the routing in force before its closing round, time-weighted
/// over any routing a reaction lag or a provisional round put in force
/// during it.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Partitioner display name.
    pub name: String,
    /// Max-θ per interval (what the operator actually experienced during
    /// the interval).
    pub theta_series: TimeSeries,
    /// Workload skewness `max L/L̄` per interval.
    pub skew_series: TimeSeries,
    /// Routing-table size per rebalance.
    pub table_series: TimeSeries,
    /// Plan-generation wall time (ms) per fired rebalance.
    pub gen_time_ms: OnlineStats,
    /// Migration cost as a fraction of total state, per fired rebalance.
    pub mig_fraction: OnlineStats,
    /// Post-rebalance (estimated) θ per fired rebalance.
    pub theta_after: OnlineStats,
    /// Number of rebalances fired, closing and provisional.
    pub rebalances: usize,
    /// State bytes the rebalances moved.
    pub migrated_bytes: u64,
    /// Intervals whose skew alert opened a provisional round.
    pub early_fired: usize,
    /// Provisional rounds that produced a plan.
    pub early_planned: usize,
    /// Executed elasticity decisions, in order (same type as the engine
    /// report's, so sim and runtime decision traces compare directly).
    pub scale_events: Vec<ScaleEvent>,
    /// Executed hot-key split/unsplit decisions, closing and provisional,
    /// in order (same type as `EngineReport::split_events` for the same
    /// `==` trace comparison).
    pub split_events: Vec<SplitEvent>,
    /// Per-task accumulated normalized load (for Fig. 7-style CDFs).
    /// Grows with scale-out; a retired task's accumulation stops but its
    /// history remains.
    per_task_norm_load: Vec<f64>,
    intervals_seen: usize,
}

impl SimReport {
    /// Creates an empty report.
    pub fn new(name: String, n_tasks: usize) -> Self {
        SimReport {
            name,
            theta_series: TimeSeries::labelled("max θ"),
            skew_series: TimeSeries::labelled("skewness"),
            table_series: TimeSeries::labelled("table size"),
            gen_time_ms: OnlineStats::new(),
            mig_fraction: OnlineStats::new(),
            theta_after: OnlineStats::new(),
            rebalances: 0,
            migrated_bytes: 0,
            early_fired: 0,
            early_planned: 0,
            scale_events: Vec::new(),
            split_events: Vec::new(),
            per_task_norm_load: vec![0.0; n_tasks],
            intervals_seen: 0,
        }
    }

    /// Records the per-task load one interval ran at.
    pub fn observe_interval(&mut self, interval: usize, loads: &[f64]) {
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        let (theta, skew) = if mean > 0.0 {
            let max = loads.iter().copied().fold(0.0, f64::max);
            let theta = loads.iter().map(|&l| (l - mean).abs() / mean);
            (theta.fold(0.0, f64::max), max / mean)
        } else {
            (0.0, 0.0)
        };
        self.theta_series.push(interval as f64, theta);
        self.skew_series.push(interval as f64, skew);
        if loads.len() > self.per_task_norm_load.len() {
            // Scale-out mid-run: new slots join with zero history.
            self.per_task_norm_load.resize(loads.len(), 0.0);
        }
        if mean > 0.0 {
            for (d, &l) in loads.iter().enumerate() {
                self.per_task_norm_load[d] += l / mean;
            }
        }
        self.intervals_seen += 1;
    }

    /// Records one fired rebalance.
    pub fn observe_rebalance(&mut self, interval: usize, gen_ms: f64, out: &RebalanceOutcome) {
        self.rebalances += 1;
        self.migrated_bytes += out.plan.cost_bytes();
        self.gen_time_ms.add(gen_ms);
        self.mig_fraction.add(out.migration_fraction);
        self.theta_after.add(out.achieved_theta);
        self.table_series
            .push(interval as f64, out.table.len() as f64);
    }

    /// Mean workload skewness across intervals.
    pub fn mean_skewness(&self) -> f64 {
        self.skew_series.mean()
    }

    /// Per interval, `max/mean − 1` of the per-task load it ran at: its
    /// skewness minus one (0 for an idle interval).
    pub fn imbalance(&self) -> Vec<f64> {
        let skew = self.skew_series.points().iter().map(|&(_, s)| s);
        skew.map(|s| if s > 0.0 { s - 1.0 } else { 0.0 }).collect()
    }

    /// Mean [`SimReport::imbalance`] from interval `from` on: the `θ̄` of
    /// a saturated run's throughput `ideal ÷ (1 + θ̄)`.
    pub fn mean_imbalance(&self, from: usize) -> f64 {
        let imbalance = self.imbalance();
        let tail = imbalance.get(from..).unwrap_or(&[]);
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    }

    /// Mean max-θ over the second half of the run — after the strategy has
    /// had a chance to converge (the paper also discards warm-up).
    pub fn mean_theta_after_warmup(&self) -> f64 {
        let n = self.theta_series.len() as f64;
        self.theta_series.mean_in(n / 2.0, n + 1.0)
    }

    /// Fig. 7-style per-task skewness samples: each task's average
    /// normalized load over the run, sorted ascending.
    pub fn per_task_skew_samples(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .per_task_norm_load
            .iter()
            .map(|s| {
                if self.intervals_seen == 0 {
                    0.0
                } else {
                    s / self.intervals_seen as f64
                }
            })
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    /// One-line summary for experiment logs.
    pub fn summary_row(&self) -> String {
        format!(
            "{:<10} rebal={:<3} gen={:.2}ms mig={:.1}% θ̄={:.3} skew̄={:.3} table={:.0}",
            self.name,
            self.rebalances,
            self.gen_time_ms.mean(),
            self.mig_fraction.mean() * 100.0,
            self.mean_theta_after_warmup(),
            self.mean_skewness(),
            self.table_series.points().last().map_or(0.0, |&(_, v)| v),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_core::{LoadSummary, MigrationPlan, RoutingTable};

    fn outcome(theta: f64, mig: f64, table: usize) -> RebalanceOutcome {
        let mut t = RoutingTable::new();
        for i in 0..table {
            t.insert(streambal_core::Key(i as u64), streambal_core::TaskId(0));
        }
        RebalanceOutcome {
            table: t,
            plan: MigrationPlan::empty(),
            loads: LoadSummary::new(vec![10, 10]),
            achieved_theta: theta,
            migration_fraction: mig,
        }
    }

    #[test]
    fn per_task_samples_average_to_one() {
        let mut r = SimReport::new("test".into(), 4);
        r.observe_interval(0, &[10.0, 20.0, 30.0, 40.0]);
        r.observe_interval(1, &[40.0, 30.0, 20.0, 10.0]);
        let samples = r.per_task_skew_samples();
        let mean: f64 = samples.iter().sum::<f64>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-9);
        // Sorted ascending.
        for w in samples.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn rebalance_observation_accumulates() {
        let mut r = SimReport::new("x".into(), 2);
        r.observe_rebalance(3, 1.5, &outcome(0.05, 0.1, 7));
        r.observe_rebalance(5, 2.5, &outcome(0.07, 0.3, 9));
        assert_eq!(r.rebalances, 2);
        assert!((r.gen_time_ms.mean() - 2.0).abs() < 1e-9);
        assert!((r.mig_fraction.mean() - 0.2).abs() < 1e-9);
        assert_eq!(r.table_series.points().last().unwrap().1, 9.0);
    }

    #[test]
    fn summary_row_contains_name() {
        let r = SimReport::new("Mixed".into(), 2);
        assert!(r.summary_row().contains("Mixed"));
    }

    #[test]
    fn warmup_mean_uses_second_half() {
        let mut r = SimReport::new("x".into(), 2);
        // First half skewed, second half balanced.
        r.observe_interval(0, &[100.0, 0.0]);
        r.observe_interval(1, &[100.0, 0.0]);
        r.observe_interval(2, &[50.0, 50.0]);
        r.observe_interval(3, &[50.0, 50.0]);
        assert!(r.mean_theta_after_warmup() < 0.01);
    }
}
