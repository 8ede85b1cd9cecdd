//! Simulator-based figures: 7, 8, 9, 10, 12, 17, 18, 19, 20, 21.
//!
//! Every figure returns a [`Figure`], rendering to both the fixed-width
//! console tables and `bench_results/figNN.json`.

use streambal_baselines::storm;
use streambal_core::{rebalance, RebalanceStrategy};
use streambal_sim::Sim;

use crate::fig11::skewed_input;
use crate::figure::{Figure, Table};
use crate::{run_core_sim, run_readj_best, Defaults, Scale, READJ_SIGMAS};

/// Fig. 7 — cumulative distribution of workload skewness under pure
/// hashing, varying (a) the number of task instances and (b) the key
/// domain size.
pub fn fig07(scale: Scale) -> Figure {
    let d = Defaults::at(scale);
    // Each run is one random draw of key-popularity → ring placement;
    // pool per-task samples over several seeds so the CDF reflects the
    // distribution, not a single layout. Storm never plans, so each run
    // is the hash assignment's per-task normalized loads.
    let seeds: Vec<u64> = scale.pick((1..=12).collect(), (1..=24).collect());
    let pooled = |k: usize, nd: usize| -> Vec<f64> {
        let mut all = Vec::new();
        for &seed in &seeds {
            let mut dd = d;
            dd.k = k;
            dd.seed = seed;
            let sim = Sim {
                intervals: d.intervals.min(5),
                ..Sim::default()
            };
            let report = sim.run(&mut storm(nd), &mut dd.source());
            all.extend(report.per_task_skew_samples());
        }
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        all
    };
    let percentiles = [0.2, 0.4, 0.6, 0.8, 1.0];
    let at = |samples: &[f64]| -> Vec<f64> {
        percentiles
            .iter()
            .map(|&q| {
                let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                samples[idx - 1]
            })
            .collect()
    };
    let pct_cols: Vec<String> = percentiles
        .iter()
        .map(|p| format!("{:.0}%", p * 100.0))
        .collect();

    let mut fig = Figure::new("fig07");
    let mut a = Table::new(
        "Fig 7(a): skewness CDF under hash, varying ND (z=0.85)",
        "ND \\ percentile",
        pct_cols.clone(),
        8,
        3,
    );
    for nd in [5usize, 10, 20, 40] {
        a.row(format!("ND={nd}"), &at(&pooled(d.k, nd)));
    }
    fig.push(a);

    let mut b = Table::new(
        "Fig 7(b): skewness CDF under hash, varying K (ND=10)",
        "K \\ percentile",
        pct_cols,
        8,
        3,
    );
    let ks = match scale {
        Scale::Quick => vec![5_000usize, 10_000, 100_000],
        Scale::Full => vec![5_000, 10_000, 100_000, 1_000_000],
    };
    for k in ks {
        b.row(format!("K={k}"), &at(&pooled(k, d.nd)));
    }
    fig.push(b);
    fig
}

/// Fig. 8 — plan-generation time and migration cost vs `N_D`
/// (Mixed vs MinTable, `w ∈ {1, 5}`).
pub fn fig08(scale: Scale) -> Figure {
    let base = Defaults::at(scale);
    let nds: Vec<usize> = scale.pick(vec![5, 10, 20, 30, 40], vec![5, 10, 15, 20, 25, 30, 35, 40]);
    let cols: Vec<String> = nds.iter().map(|n| n.to_string()).collect();
    let mut gen: Vec<Vec<f64>> = vec![vec![], vec![]];
    let mut mig: Vec<Vec<f64>> = vec![vec![], vec![], vec![], vec![]];
    for &nd in &nds {
        for (si, strategy) in [RebalanceStrategy::Mixed, RebalanceStrategy::MinTable]
            .iter()
            .enumerate()
        {
            for (wi, w) in [1usize, 5].iter().enumerate() {
                let mut d = base;
                d.nd = nd;
                d.window = *w;
                let r = run_core_sim(&d, *strategy);
                if *w == 1 {
                    gen[si].push(r.gen_time_ms.mean());
                }
                mig[si * 2 + wi].push(r.mig_fraction.mean() * 100.0);
            }
        }
    }
    let mut fig = Figure::new("fig08");
    let mut a = Table::new(
        "Fig 8(a): avg plan-generation time (ms) vs ND",
        "strategy \\ ND",
        cols.clone(),
        8,
        2,
    );
    a.row("Mixed", &gen[0]);
    a.row("MinTable", &gen[1]);
    fig.push(a);
    let mut b = Table::new(
        "Fig 8(b): migration cost (%) vs ND",
        "strategy \\ ND",
        cols,
        8,
        2,
    );
    for (label, series) in [
        ("Mixed w=1", &mig[0]),
        ("Mixed w=5", &mig[1]),
        ("MinTable w=1", &mig[2]),
        ("MinTable w=5", &mig[3]),
    ] {
        b.row(label, series);
    }
    fig.push(b);
    fig
}

/// Fig. 9 — generation time / migration cost vs `θmax`.
pub fn fig09(scale: Scale) -> Figure {
    let base = Defaults::at(scale);
    let thetas = [0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.3, 0.4, 0.5];
    let cols: Vec<String> = thetas.iter().map(|t| format!("{t}")).collect();
    let mut gen = [vec![], vec![]];
    let mut mig: Vec<Vec<f64>> = vec![vec![], vec![], vec![], vec![]];
    for &theta in &thetas {
        for (si, strategy) in [RebalanceStrategy::Mixed, RebalanceStrategy::MinTable]
            .iter()
            .enumerate()
        {
            for (wi, w) in [1usize, 5].iter().enumerate() {
                let mut d = base;
                d.theta_max = theta;
                d.window = *w;
                let r = run_core_sim(&d, *strategy);
                if *w == 1 {
                    gen[si].push(r.gen_time_ms.mean());
                }
                mig[si * 2 + wi].push(r.mig_fraction.mean() * 100.0);
            }
        }
    }
    let mut fig = Figure::new("fig09");
    let mut a = Table::new(
        "Fig 9(a): avg plan-generation time (ms) vs θmax",
        "strategy \\ θmax",
        cols.clone(),
        8,
        2,
    );
    a.row("Mixed", &gen[0]);
    a.row("MinTable", &gen[1]);
    fig.push(a);
    let mut b = Table::new(
        "Fig 9(b): migration cost (%) vs θmax",
        "strategy \\ θmax",
        cols,
        8,
        2,
    );
    for (label, series) in [
        ("Mixed w=1", &mig[0]),
        ("Mixed w=5", &mig[1]),
        ("MinTable w=1", &mig[2]),
        ("MinTable w=5", &mig[3]),
    ] {
        b.row(label, series);
    }
    fig.push(b);
    fig
}

/// Fig. 10 — generation time / migration cost vs key-domain size `K`.
pub fn fig10(scale: Scale) -> Figure {
    let base = Defaults::at(scale);
    let ks: Vec<usize> = scale.pick(
        vec![5_000, 10_000, 100_000],
        vec![5_000, 10_000, 100_000, 1_000_000],
    );
    let cols: Vec<String> = ks.iter().map(|k| format!("{k}")).collect();
    let mut gen = [vec![], vec![]];
    let mut mig: Vec<Vec<f64>> = vec![vec![], vec![], vec![], vec![]];
    for &k in &ks {
        for (si, strategy) in [RebalanceStrategy::Mixed, RebalanceStrategy::MinTable]
            .iter()
            .enumerate()
        {
            for (wi, w) in [1usize, 5].iter().enumerate() {
                let mut d = base;
                d.k = k;
                d.window = *w;
                let r = run_core_sim(&d, *strategy);
                if *w == 1 {
                    gen[si].push(r.gen_time_ms.mean());
                }
                mig[si * 2 + wi].push(r.mig_fraction.mean() * 100.0);
            }
        }
    }
    let mut fig = Figure::new("fig10");
    let mut a = Table::new(
        "Fig 10(a): avg plan-generation time (ms) vs K",
        "strategy \\ K",
        cols.clone(),
        9,
        2,
    );
    a.row("Mixed", &gen[0]);
    a.row("MinTable", &gen[1]);
    fig.push(a);
    let mut b = Table::new(
        "Fig 10(b): migration cost (%) vs K",
        "strategy \\ K",
        cols,
        9,
        2,
    );
    for (label, series) in [
        ("Mixed w=1", &mig[0]),
        ("Mixed w=5", &mig[1]),
        ("MinTable w=1", &mig[2]),
        ("MinTable w=5", &mig[3]),
    ] {
        b.row(label, series);
    }
    fig.push(b);
    fig
}

/// Fig. 12 — generation time / migration cost vs fluctuation rate `f`,
/// comparing Mixed, MinTable, Readj (best σ) and MixedBF.
pub fn fig12(scale: Scale) -> Figure {
    let mut base = Defaults::at(scale);
    // BF re-runs the pipeline per candidate n; keep the domain small like
    // the paper's Fig. 12 setting.
    base.k = scale.pick(2_000, 10_000);
    base.tuples = scale.pick(50_000, 200_000);
    base.table_max = scale.pick(300, 1_000);
    let fs = [0.1, 0.3, 0.5, 0.7, 0.9];
    let cols: Vec<String> = fs.iter().map(|f| format!("{f}")).collect();
    let mut gen: Vec<Vec<f64>> = vec![vec![]; 4];
    let mut mig: Vec<Vec<f64>> = vec![vec![]; 4];
    for &f in &fs {
        let mut d = base;
        d.f = f;
        for (i, strategy) in [
            RebalanceStrategy::Mixed,
            RebalanceStrategy::MinTable,
            RebalanceStrategy::MixedBF,
        ]
        .iter()
        .enumerate()
        {
            let r = run_core_sim(&d, *strategy);
            gen[i].push(r.gen_time_ms.mean());
            mig[i].push(r.mig_fraction.mean() * 100.0);
        }
        let r = run_readj_best(&d, &READJ_SIGMAS);
        gen[3].push(r.gen_time_ms.mean());
        mig[3].push(r.mig_fraction.mean() * 100.0);
    }
    let mut fig = Figure::new("fig12");
    let mut a = Table::new(
        "Fig 12(a): avg plan-generation time (ms) vs f",
        "strategy \\ f",
        cols.clone(),
        9,
        2,
    );
    let mut b = Table::new(
        "Fig 12(b): migration cost (%) vs f",
        "strategy \\ f",
        cols,
        9,
        2,
    );
    for (i, label) in ["Mixed", "MinTable", "MixedBF", "Readj"].iter().enumerate() {
        a.row(*label, &gen[i]);
        b.row(*label, &mig[i]);
    }
    fig.push(a);
    fig.push(b);
    fig
}

/// Fig. 17 (appendix) — Mixed's migration cost vs the routing-table bound
/// `N_A = 2^i`, for several `θmax`.
pub fn fig17(scale: Scale) -> Figure {
    let base = Defaults::at(scale);
    let is: Vec<u32> = scale.pick(vec![1, 3, 5, 7, 9, 11, 13], vec![1, 3, 5, 7, 9, 11, 13]);
    let thetas = [0.02, 0.08, 0.15, 0.3];
    let cols: Vec<String> = is.iter().map(|i| format!("2^{i}")).collect();
    let mut fig = Figure::new("fig17");
    let mut t = Table::new(
        "Fig 17: Mixed migration cost (%) vs table bound NA",
        "θmax \\ NA",
        cols,
        8,
        2,
    );
    for &theta in &thetas {
        let mut vals = Vec::new();
        for &i in &is {
            let mut d = base;
            d.theta_max = theta;
            d.table_max = 1usize << i;
            let r = run_core_sim(&d, RebalanceStrategy::Mixed);
            vals.push(r.mig_fraction.mean() * 100.0);
        }
        t.row(format!("θmax={theta}"), &vals);
    }
    fig.push(t);
    fig
}

/// Fig. 18 (appendix) — MinMig's routing-table growth over successive
/// adjustments, converging toward `(N_D − 1)/N_D · K`.
pub fn fig18(scale: Scale) -> Figure {
    let mut d = Defaults::at(scale);
    d.k = 10_000; // the paper sets K = 10^4 here
    d.tuples = scale.pick(100_000, 500_000);
    d.intervals = scale.pick(64, 256);
    let thetas = [0.02, 0.08, 0.15, 0.3];
    let marks: Vec<usize> = (0..)
        .map(|i| 1usize << i)
        .take_while(|&m| m <= d.intervals)
        .collect();
    let mut fig = Figure::new("fig18");
    let mut t = Table::new(
        "Fig 18: MinMig routing-table size vs #adjustments (K=10^4)",
        "θmax \\ #adj",
        marks.iter().map(|m| m.to_string()).collect(),
        8,
        0,
    );
    for &theta in &thetas {
        let mut dd = d;
        dd.theta_max = theta;
        dd.table_max = usize::MAX; // MinMig ignores the bound by design
        let r = run_core_sim(&dd, RebalanceStrategy::MinMig);
        let table = &r.table_series;
        let mut vals = Vec::new();
        for &m in &marks {
            // Table size at the m-th adjustment (or the last one before).
            let v = table
                .points()
                .iter()
                .take(m)
                .next_back()
                .map_or(0.0, |&(_, v)| v);
            vals.push(v);
        }
        t.row(format!("θmax={theta}"), &vals);
    }
    t.note(format!(
        "(convergence bound (ND-1)/ND·K = {:.0})",
        (d.nd - 1) as f64 / d.nd as f64 * d.k as f64
    ));
    fig.push(t);
    fig
}

/// Fig. 19 (appendix) — migration cost vs the window size `w`.
pub fn fig19(scale: Scale) -> Figure {
    let base = Defaults::at(scale);
    let ws = [1usize, 3, 5, 7, 9, 11, 13, 15];
    let mut fig = Figure::new("fig19");
    let mut t = Table::new(
        "Fig 19: migration cost (%) vs window size w",
        "strategy \\ w",
        ws.iter().map(|w| w.to_string()).collect(),
        8,
        2,
    );
    for strategy in [RebalanceStrategy::Mixed, RebalanceStrategy::MinTable] {
        let mut vals = Vec::new();
        for &w in &ws {
            let mut d = base;
            d.window = w;
            let r = run_core_sim(&d, strategy);
            vals.push(r.mig_fraction.mean() * 100.0);
        }
        t.row(strategy.name(), &vals);
    }
    fig.push(t);
    fig
}

/// Figs. 20 & 21 (appendix) — MinMig's routing-table size and migration
/// cost vs the weight-scaling factor `β`.
pub fn fig20_21(scale: Scale) -> Figure {
    let base = Defaults::at(scale);
    let betas = [1.0, 1.2, 1.4, 1.5, 1.6, 1.8, 2.0];
    let thetas = [0.02, 0.08, 0.15, 0.3];
    let cols: Vec<String> = betas.iter().map(|b| format!("{b}")).collect();
    let mut table_rows = Vec::new();
    let mut mig_rows = Vec::new();
    for &theta in &thetas {
        let mut tvals = Vec::new();
        let mut mvals = Vec::new();
        for &beta in &betas {
            let mut d = base;
            d.theta_max = theta;
            d.beta = beta;
            d.table_max = usize::MAX;
            let r = run_core_sim(&d, RebalanceStrategy::MinMig);
            tvals.push(r.table_series.points().last().map_or(0.0, |&(_, v)| v));
            mvals.push(r.mig_fraction.mean() * 100.0);
        }
        table_rows.push((theta, tvals));
        mig_rows.push((theta, mvals));
    }
    let mut fig = Figure::new("fig20_21");
    let mut a = Table::new(
        "Fig 20: MinMig routing-table size vs β",
        "θmax \\ β",
        cols.clone(),
        8,
        0,
    );
    for (theta, vals) in &table_rows {
        a.row(format!("θmax={theta}"), vals);
    }
    fig.push(a);
    let mut b = Table::new(
        "Fig 21: MinMig migration cost (%) vs β",
        "θmax \\ β",
        cols,
        8,
        2,
    );
    for (theta, vals) in &mig_rows {
        b.row(format!("θmax={theta}"), vals);
    }
    fig.push(b);
    fig
}

/// Sanity helper for tests: a single Mixed rebalance over a fixed skewed
/// input must be reproducible.
pub fn smoke_rebalance() -> f64 {
    let d = Defaults::at(Scale::Quick);
    rebalance(&skewed_input(&d), RebalanceStrategy::Mixed, &d.params()).achieved_theta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_emits_all_rows() {
        let fig = fig07(Scale::Quick);
        let out = fig.to_text();
        for nd in [5, 10, 20, 40] {
            assert!(out.contains(&format!("ND={nd}")), "missing ND={nd}\n{out}");
        }
        assert!(out.contains("K=5000"));
        // And the JSON carries the same rows.
        let json = fig.to_json(Scale::Quick).to_pretty();
        assert!(json.contains("\"label\": \"ND=40\""));
        assert!(json.contains("\"figure\": \"fig07\""));
    }

    #[test]
    fn smoke_rebalance_balances() {
        let theta = smoke_rebalance();
        assert!(theta < 0.2, "θ after Mixed = {theta}");
    }

    #[test]
    fn fig19_structure() {
        // Small structural check without paying for a full run: only
        // verify the sim wiring by running two window sizes directly.
        let mut d = Defaults::at(Scale::Quick);
        d.k = 2_000;
        d.tuples = 20_000;
        d.intervals = 4;
        let r1 = run_core_sim(&d, RebalanceStrategy::Mixed);
        d.window = 5;
        let r5 = run_core_sim(&d, RebalanceStrategy::Mixed);
        assert!(r1.rebalances > 0 && r5.rebalances > 0);
    }
}
