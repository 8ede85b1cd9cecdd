//! Experiment harness: one entry point per figure of the paper's
//! evaluation (§V and appendix).
//!
//! Run figures with `cargo run -p streambal-bench --release --bin figs`
//! (all of them) or `--bin figs fig08 fig12` (just those); each prints
//! its tables and writes `bench_results/<name>.{txt,json}`. The `figs`
//! binary's module docs (`src/bin/figs.rs`) list every figure, what it
//! reproduces and what drives it. Absolute numbers differ from the
//! paper's 21-node Storm cluster — the *shape* (who wins, by what
//! factor, where crossovers fall) is the reproduction target. Each
//! simulator figure point is one `streambal_sim::Sim` run with rounds at
//! the interval boundary: [`run_core_sim`], [`run_readj_best`], or one
//! Storm run per seed for fig07.
//!
//! Two scales are supported via the `STREAMBAL_SCALE` environment
//! variable: `quick` (default; minutes, smaller key domains) and `full`
//! (closer to Tab. II's bold defaults).
//!
//! Beside the figures, the isolated benches under `benches/` write
//! `bench_results/<bench>.json`, declaring each metric's direction where
//! they write it ([`json::Json::higher`] / [`json::Json::lower`]; a plain
//! number is an echo or a trajectory fact). The `benchdiff` binary
//! compares two such trees and gates regressions on those declarations;
//! `tracecat` reads the flight-recorder traces under `traces/`, whose
//! file formats [`trace_file`] owns.

pub mod alloc;
pub mod fig11;
pub mod figs_runtime;
pub mod figs_sim;
pub mod figure;
pub mod json;
pub mod trace_file;

use streambal_baselines::{readj, CoreBalancer, ReadjConfig};
use streambal_core::{BalanceParams, Key, Partitioner, RebalanceStrategy, TriggerPolicy};
use streambal_hashring::FxHashMap;
use streambal_sim::source::ZipfSource;
use streambal_sim::{Sim, SimReport};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-friendly: small key domains, few intervals.
    Quick,
    /// Near the paper's Tab. II defaults (minutes to hours).
    Full,
}

impl Scale {
    /// Reads `STREAMBAL_SCALE` (`quick`/`full`), defaulting to quick.
    pub fn from_env() -> Self {
        match std::env::var("STREAMBAL_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Tab. II defaults (bold entries), at the given scale.
#[derive(Debug, Clone, Copy)]
pub struct Defaults {
    /// Key-domain size `K`.
    pub k: usize,
    /// Zipf skew `z`.
    pub z: f64,
    /// Fluctuation rate `f`.
    pub f: f64,
    /// Imbalance tolerance `θmax`.
    pub theta_max: f64,
    /// Migration selection factor `β`.
    pub beta: f64,
    /// Routing-table bound `Amax`.
    pub table_max: usize,
    /// Downstream tasks `N_D`.
    pub nd: usize,
    /// Statistics window `w`.
    pub window: usize,
    /// Tuples per interval.
    pub tuples: u64,
    /// Simulated intervals per run.
    pub intervals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Defaults {
    /// Defaults at `scale`.
    pub fn at(scale: Scale) -> Self {
        Defaults {
            k: scale.pick(20_000, 100_000),
            z: 0.85,
            f: 1.0,
            theta_max: 0.08,
            beta: 1.5,
            table_max: 3_000,
            nd: 10,
            window: scale.pick(5, 10),
            tuples: scale.pick(200_000, 1_000_000),
            intervals: scale.pick(10, 30),
            seed: 42,
        }
    }

    /// A [`BalanceParams`] from these defaults.
    pub fn params(&self) -> BalanceParams {
        BalanceParams {
            theta_max: self.theta_max,
            beta: self.beta,
            table_max: self.table_max,
        }
    }

    /// A fresh Zipf interval source from these defaults.
    pub fn source(&self) -> ZipfSource {
        ZipfSource::new(self.k, self.z, self.tuples, self.f, self.seed)
    }
}

/// A core strategy exactly as the paper runs it: plans go to `θmax`
/// ([`TriggerPolicy::paper`]), so the figures reproduce the paper's
/// controller and not this repo's settle-inside default (DESIGN.md §4).
fn paper_balancer(d: &Defaults, strategy: RebalanceStrategy) -> CoreBalancer {
    CoreBalancer::new(d.nd, d.window, strategy, d.params())
        .with_trigger_policy(TriggerPolicy::paper())
}

/// Runs one simulator experiment with a core strategy.
pub fn run_core_sim(d: &Defaults, strategy: RebalanceStrategy) -> SimReport {
    let sim = Sim {
        intervals: d.intervals,
        ..Sim::default()
    };
    sim.run(&mut paper_balancer(d, strategy), &mut d.source())
}

/// Runs Readj across a σ sweep and returns the best report (the paper:
/// "we run Readj with different σs and only report the best result").
/// Best = lowest post-rebalance θ, ties broken by migration cost.
pub fn run_readj_best(d: &Defaults, sigmas: &[f64]) -> SimReport {
    let mut best: Option<SimReport> = None;
    for &sigma in sigmas {
        let cfg = ReadjConfig {
            theta_max: d.theta_max,
            sigma,
            max_actions: 512,
        };
        let sim = Sim {
            intervals: d.intervals,
            ..Sim::default()
        };
        let report = sim.run(&mut readj(d.nd, d.window, cfg), &mut d.source());
        let better = match &best {
            None => true,
            Some(b) => {
                let (ra, rb) = (report.theta_after.mean(), b.theta_after.mean());
                ra < rb - 1e-9
                    || ((ra - rb).abs() <= 1e-9
                        && report.mig_fraction.mean() < b.mig_fraction.mean())
            }
        };
        if better {
            best = Some(report);
        }
    }
    best.expect("at least one sigma")
}

/// The σ sweep used throughout (paper: binary search; we grid).
pub const READJ_SIGMAS: [f64; 4] = [0.005, 0.02, 0.05, 0.2];

/// Formats a numeric row: label then fixed-width columns.
pub fn row(label: &str, values: &[f64], width: usize, precision: usize) -> String {
    let mut s = format!("{label:<22}");
    for v in values {
        s.push_str(&format!(" {v:>width$.precision$}"));
    }
    s
}

/// Formats a header row.
pub fn header(label: &str, cols: &[String], width: usize) -> String {
    let mut s = format!("{label:<22}");
    for c in cols {
        s.push_str(&format!(" {c:>width$}"));
    }
    s
}

/// Convenience: a boxed core-strategy partitioner.
pub fn core_partitioner(d: &Defaults, strategy: RebalanceStrategy) -> Box<dyn Partitioner> {
    Box::new(paper_balancer(d, strategy))
}

/// The Mixed balancer the engine benches drive (window 100), at `θmax`.
pub fn mixed_balancer(n_workers: usize, theta_max: f64) -> Box<dyn Partitioner> {
    Box::new(CoreBalancer::new(
        n_workers,
        100,
        RebalanceStrategy::Mixed,
        BalanceParams {
            theta_max,
            ..BalanceParams::default()
        },
    ))
}

/// Per-key tuple counts of a fed stream: what a word-count run must
/// account for, key by key.
pub fn reference_counts(intervals: &[Vec<Key>]) -> FxHashMap<Key, u64> {
    let mut m = FxHashMap::default();
    for iv in intervals {
        for &k in iv {
            *m.entry(k).or_insert(0) += 1;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_quick() {
        // No env poking (tests run in parallel): just the picker.
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn defaults_reflect_table_ii() {
        let d = Defaults::at(Scale::Full);
        assert_eq!(d.k, 100_000);
        assert_eq!(d.z, 0.85);
        assert_eq!(d.theta_max, 0.08);
        assert_eq!(d.beta, 1.5);
        assert_eq!(d.table_max, 3_000);
        assert_eq!(d.nd, 10);
    }

    #[test]
    fn row_formatting() {
        let s = row("Mixed", &[1.5, 2.25], 8, 2);
        assert!(s.starts_with("Mixed"));
        assert!(s.contains("1.50"));
        assert!(s.contains("2.25"));
    }
}
