//! Engine-based figures: 13 (throughput/latency vs f), 14 (real-workload
//! throughput), 15 (scale-out timeline), 16 (TPC-H Q5 timeline).
//!
//! All strategies within one figure consume byte-identical tuple
//! sequences (pre-generated per configuration), so differences are purely
//! due to routing and migration behaviour.

use streambal_baselines::{readj, storm, PkgPartitioner, ReadjConfig, ShufflePartitioner};
use streambal_core::{Key, Partitioner, RebalanceStrategy};
use streambal_elastic::FixedSchedule;
use streambal_hashring::FxHashMap;
use streambal_runtime::{
    CoJoinOp, Collector, Engine, EngineConfig, EngineReport, SumCollector, Tuple,
    WindowedSelfJoinOp, WordCountOp, TAG_LEFT, TAG_RIGHT,
};
use streambal_workloads::{
    FluctuatingWorkload, SocialWorkload, StockWorkload, TpchEvent, TpchGen, TpchParams,
};

use crate::figure::{Figure, Table};
use crate::{core_partitioner, Defaults, Scale};

/// Runtime experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct RtParams {
    /// Downstream workers.
    pub nd: usize,
    /// Tuples per interval.
    pub tuples: u64,
    /// Intervals.
    pub intervals: usize,
    /// Busy-work per tuple.
    pub spin: u32,
    /// State window.
    pub window: usize,
    /// Data-plane batch size (tuples per `TupleBatch` send).
    pub batch: usize,
}

impl RtParams {
    /// Sizing at `scale`.
    pub fn at(scale: Scale) -> Self {
        // spin is sized so the workers (not the source) are the
        // bottleneck — the engine must be CPU-saturated downstream for
        // imbalance to cost throughput, as in the paper's setup. The
        // worker count matches the sandbox's small core count: with more
        // workers than cores the OS scheduler time-shares and masks
        // imbalance (see `src/bin/figs.rs`).
        RtParams {
            nd: 2,
            tuples: scale.pick(15_000, 60_000),
            intervals: scale.pick(6, 12),
            spin: scale.pick(6_000, 8_000),
            window: 5,
            batch: EngineConfig::default().batch_size,
        }
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            n_workers: self.nd,
            max_workers: self.nd,
            spin_work: self.spin,
            window: self.window,
            batch_size: self.batch,
            ..EngineConfig::default()
        }
    }
}

/// The strategies compared in the runtime figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtStrategy {
    /// Plain hash ("Storm").
    Storm,
    /// Gedik's Readj at the given θmax.
    Readj,
    /// The paper's Mixed at the given θmax.
    Mixed,
    /// MinTable at the given θmax.
    MinTable,
    /// PKG two-choice with partial/merge.
    Pkg,
    /// Shuffle ("Ideal").
    Ideal,
}

impl RtStrategy {
    /// Figure-legend name.
    pub fn name(self) -> &'static str {
        match self {
            RtStrategy::Storm => "Storm",
            RtStrategy::Readj => "Readj",
            RtStrategy::Mixed => "Mixed",
            RtStrategy::MinTable => "MinTable",
            RtStrategy::Pkg => "PKG",
            RtStrategy::Ideal => "Ideal",
        }
    }

    fn partitioner(self, rt: &RtParams, theta: f64) -> Box<dyn Partitioner> {
        let d = Defaults {
            nd: rt.nd,
            window: rt.window,
            theta_max: theta,
            ..Defaults::at(Scale::Quick)
        };
        match self {
            RtStrategy::Storm => Box::new(storm(rt.nd)),
            RtStrategy::Readj => Box::new(readj(
                rt.nd,
                rt.window,
                ReadjConfig {
                    theta_max: theta,
                    sigma: 0.01,
                    max_actions: 512,
                },
            )),
            RtStrategy::Mixed => core_partitioner(&d, RebalanceStrategy::Mixed),
            RtStrategy::MinTable => core_partitioner(&d, RebalanceStrategy::MinTable),
            RtStrategy::Pkg => Box::new(PkgPartitioner::new(rt.nd)),
            RtStrategy::Ideal => Box::new(ShufflePartitioner::new(rt.nd)),
        }
    }
}

/// Runs a word-count topology over pre-generated keyed intervals.
pub fn run_wordcount(
    rt: &RtParams,
    strategy: RtStrategy,
    theta: f64,
    intervals: &[Vec<Key>],
    scale_out_at: Option<u64>,
) -> EngineReport {
    let feed: Vec<Vec<Key>> = intervals.to_vec();
    let mut config = rt.engine_config();
    if let Some(iv) = scale_out_at {
        config.max_workers = rt.nd + 1;
        config.elasticity = Box::new(FixedSchedule::scale_out_at(iv));
    }
    let pkg = strategy == RtStrategy::Pkg;
    Engine::run(
        config,
        strategy.partitioner(rt, theta),
        move |_| {
            if pkg {
                Box::new(WordCountOp::with_partial_emission(64))
            } else {
                Box::new(WordCountOp::new())
            }
        },
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        pkg.then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
    )
}

/// Runs a windowed self-join topology (the Stock workload's shape).
pub fn run_selfjoin(
    rt: &RtParams,
    strategy: RtStrategy,
    theta: f64,
    intervals: &[Vec<Key>],
    scale_out_at: Option<u64>,
) -> EngineReport {
    let feed: Vec<Vec<Key>> = intervals.to_vec();
    let mut config = rt.engine_config();
    if let Some(iv) = scale_out_at {
        config.max_workers = rt.nd + 1;
        config.elasticity = Box::new(FixedSchedule::scale_out_at(iv));
    }
    Engine::run(
        config,
        strategy.partitioner(rt, theta),
        |_| Box::new(WindowedSelfJoinOp::new()),
        move |iv| {
            feed.get(iv as usize).map(|ks| {
                ks.iter()
                    .enumerate()
                    .map(|(i, &k)| Tuple::tagged(k, 0, [i as u64, 0]))
                    .collect()
            })
        },
        None,
    )
}

/// Pre-generates Zipf interval key sequences (identical across
/// strategies). The fluctuation reference assignment is the static hash
/// map, as the generator needs *some* destination oracle.
pub fn zipf_intervals(rt: &RtParams, k: usize, z: f64, f: f64, seed: u64) -> Vec<Vec<Key>> {
    let mut w = FluctuatingWorkload::new(k, z, rt.tuples, f, seed);
    let mut hash = storm(rt.nd);
    let mut out = Vec::with_capacity(rt.intervals);
    for i in 0..rt.intervals {
        if i > 0 {
            w.advance(rt.nd, |key| hash.route(key));
        }
        out.push(w.tuples());
    }
    out
}

/// Pre-generates Social interval key sequences.
pub fn social_intervals(rt: &RtParams, scale: Scale, seed: u64) -> Vec<Vec<Key>> {
    let vocab = scale.pick(20_000, 180_000);
    let mut w = SocialWorkload::new(vocab, rt.tuples, 0.03, seed);
    let mut out = Vec::with_capacity(rt.intervals);
    for i in 0..rt.intervals {
        if i > 0 {
            w.advance();
        }
        out.push(w.tuples());
    }
    out
}

/// Pre-generates Stock interval key sequences. Bursts are few and large
/// so they land asymmetrically even at small worker counts (with many
/// small bursts, symmetry across 2 workers cancels the imbalance the
/// experiment needs).
pub fn stock_intervals(rt: &RtParams, seed: u64) -> Vec<Vec<Key>> {
    let mut w = StockWorkload::new(
        streambal_workloads::stock::PAPER_N_STOCKS,
        rt.tuples,
        3,
        60,
        seed,
    );
    let mut out = Vec::with_capacity(rt.intervals);
    for i in 0..rt.intervals {
        if i > 0 {
            w.advance();
        }
        out.push(w.tuples());
    }
    out
}

/// Fig. 13 — throughput and latency vs fluctuation rate `f`.
pub fn fig13(scale: Scale) -> Figure {
    let rt = RtParams::at(scale);
    let fs: Vec<f64> = scale.pick(vec![0.1, 0.9, 1.7], vec![0.1, 0.5, 0.9, 1.3, 1.7, 2.0]);
    let strategies = [
        RtStrategy::Storm,
        RtStrategy::Readj,
        RtStrategy::Mixed,
        RtStrategy::Ideal,
    ];
    let theta = 0.08;
    let k = scale.pick(5_000, 20_000);
    let mut thr: Vec<Vec<f64>> = vec![vec![]; strategies.len()];
    let mut lat: Vec<Vec<f64>> = vec![vec![]; strategies.len()];
    for &f in &fs {
        let intervals = zipf_intervals(&rt, k, 0.85, f, 1000 + (f * 10.0) as u64);
        for (i, &s) in strategies.iter().enumerate() {
            let r = run_wordcount(&rt, s, theta, &intervals, None);
            thr[i].push(r.mean_throughput / 1e3);
            lat[i].push(r.latency_us.mean() / 1e3);
        }
    }
    let cols: Vec<String> = fs.iter().map(|f| format!("f={f}")).collect();
    let mut fig = Figure::new("fig13");
    let mut a = Table::new(
        "Fig 13(a): throughput (10^3 tuples/s) vs f",
        "strategy",
        cols.clone(),
        9,
        1,
    );
    for (i, &s) in strategies.iter().enumerate() {
        a.row(s.name(), &thr[i]);
    }
    fig.push(a);
    let mut b = Table::new(
        "Fig 13(b): mean processing latency (ms) vs f",
        "strategy",
        cols,
        9,
        2,
    );
    for (i, &s) in strategies.iter().enumerate() {
        b.row(s.name(), &lat[i]);
    }
    fig.push(b);
    fig
}

/// Fig. 14 — throughput on the Social (word count) and Stock (self-join)
/// workloads across `θmax` settings.
pub fn fig14(scale: Scale) -> Figure {
    let rt = RtParams::at(scale);
    let thetas = [0.02, 0.08, 0.15, 0.3];
    let cols: Vec<String> = thetas.iter().map(|t| format!("θ={t}")).collect();
    let mut fig = Figure::new("fig14");

    let mut a = Table::new(
        "Fig 14(a): throughput (10^3 tuples/s) on Social data",
        "strategy",
        cols.clone(),
        9,
        1,
    );
    let social = social_intervals(&rt, scale, 7);
    for s in [
        RtStrategy::Storm,
        RtStrategy::Readj,
        RtStrategy::Mixed,
        RtStrategy::Pkg,
        RtStrategy::MinTable,
    ] {
        let mut vals = Vec::new();
        for &theta in &thetas {
            let r = run_wordcount(&rt, s, theta, &social, None);
            vals.push(r.mean_throughput / 1e3);
        }
        a.row(s.name(), &vals);
    }
    fig.push(a);

    let mut b = Table::new(
        "Fig 14(b): throughput (10^3 tuples/s) on Stock data (join: no PKG)",
        "strategy",
        cols,
        9,
        1,
    );
    let stock = stock_intervals(&rt, 9);
    for s in [
        RtStrategy::Storm,
        RtStrategy::Readj,
        RtStrategy::Mixed,
        RtStrategy::MinTable,
    ] {
        let mut vals = Vec::new();
        for &theta in &thetas {
            let r = run_selfjoin(&rt, s, theta, &stock, None);
            vals.push(r.mean_throughput / 1e3);
        }
        b.row(s.name(), &vals);
    }
    fig.push(b);
    fig
}

/// Fig. 15 — throughput timeline during scale-out (one worker added
/// mid-run) on Social and Stock.
pub fn fig15(scale: Scale) -> Figure {
    let mut rt = RtParams::at(scale);
    rt.intervals = scale.pick(8, 16);
    let add_at = (rt.intervals / 3) as u64;
    let mut fig = Figure::new("fig15");
    for (name, intervals, join) in [
        ("Social", social_intervals(&rt, scale, 21), false),
        ("Stock", stock_intervals(&rt, 22), true),
    ] {
        let cols: Vec<String> = (0..rt.intervals).map(|i| format!("iv{i}")).collect();
        let mut t = Table::new(
            format!(
                "Fig 15 ({name}): interval throughput (10^3 t/s), +1 worker after interval {add_at}"
            ),
            "strategy",
            cols,
            7,
            0,
        );
        let mut runs: Vec<(String, EngineReport)> = Vec::new();
        for &theta in &[0.1, 0.2] {
            for s in [RtStrategy::Mixed, RtStrategy::Readj] {
                let r = if join {
                    run_selfjoin(&rt, s, theta, &intervals, Some(add_at))
                } else {
                    run_wordcount(&rt, s, theta, &intervals, Some(add_at))
                };
                runs.push((format!("{} θ={theta}", s.name()), r));
            }
        }
        let storm = if join {
            run_selfjoin(&rt, RtStrategy::Storm, 0.1, &intervals, Some(add_at))
        } else {
            run_wordcount(&rt, RtStrategy::Storm, 0.1, &intervals, Some(add_at))
        };
        runs.push(("Storm".into(), storm));
        if !join {
            let pkg = run_wordcount(&rt, RtStrategy::Pkg, 0.1, &intervals, Some(add_at));
            runs.push(("PKG".into(), pkg));
        }
        for (label, r) in &runs {
            let vals: Vec<f64> = r
                .interval_throughput
                .points()
                .iter()
                .map(|&(_, v)| v / 1e3)
                .collect();
            t.row(label.clone(), &vals);
        }
        fig.push(t);
    }
    fig
}

/// The Q5 downstream aggregation: joins the dimension tables, filters one
/// region, sums revenue per nation.
pub struct Q5Collector {
    nation_of_customer: Vec<u8>,
    nation_of_supplier: Vec<u8>,
    region: u8,
    revenue: FxHashMap<u8, u64>,
}

impl Q5Collector {
    /// Builds from the generator's dimension tables.
    pub fn new(gen: &TpchGen, region: u8) -> Self {
        Q5Collector {
            nation_of_customer: (0..gen.params().customers)
                .map(|c| gen.nation_of_customer(c as u64))
                .collect(),
            nation_of_supplier: (0..gen.params().suppliers)
                .map(|s| gen.nation_of_supplier(s as u64))
                .collect(),
            region,
            revenue: FxHashMap::default(),
        }
    }
}

impl Collector for Q5Collector {
    fn collect(&mut self, tuple: &Tuple) {
        // Joined tuple: key = suppkey, vals = [revenue, custkey].
        let sn = self.nation_of_supplier[tuple.key.raw() as usize];
        let cn = self.nation_of_customer[tuple.vals[1] as usize];
        if sn == cn && streambal_workloads::tpch::REGION_OF_NATION[sn as usize] == self.region {
            *self.revenue.entry(sn).or_insert(0) += tuple.vals[0];
        }
    }

    fn result(&mut self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.revenue.iter().map(|(&n, &r)| (n as u64, r)).collect();
        v.sort_unstable();
        v
    }
}

/// Converts TPC-H events to wire tuples keyed by the stream-side join key.
pub fn tpch_tuples(events: &[TpchEvent]) -> Vec<Tuple> {
    events
        .iter()
        .map(|e| match *e {
            TpchEvent::Order {
                orderkey,
                custkey,
                orderdate,
            } => Tuple::tagged(Key(orderkey), TAG_LEFT, [custkey, orderdate as u64]),
            TpchEvent::Lineitem {
                orderkey,
                suppkey,
                revenue_cents,
            } => Tuple::tagged(Key(orderkey), TAG_RIGHT, [suppkey, revenue_cents]),
        })
        .collect()
}

/// Runs the Q5 pipeline (order⋈lineitem join workers + Q5 aggregation)
/// over pre-generated per-interval events.
pub fn run_q5(
    rt: &RtParams,
    strategy: RtStrategy,
    theta: f64,
    gen: &TpchGen,
    intervals: &[Vec<TpchEvent>],
    region: u8,
) -> EngineReport {
    let feed: Vec<Vec<Tuple>> = intervals.iter().map(|e| tpch_tuples(e)).collect();
    Engine::run(
        rt.engine_config(),
        strategy.partitioner(rt, theta),
        |_| Box::new(CoJoinOp::new()),
        move |iv| feed.get(iv as usize).cloned(),
        Some(Box::new(Q5Collector::new(gen, region))),
    )
}

/// Fig. 16 — TPC-H Q5 throughput timeline with a distribution change
/// every few intervals, for `θmax ∈ {0.1, 0.2}`.
pub fn fig16(scale: Scale) -> Figure {
    let mut rt = RtParams::at(scale);
    rt.intervals = scale.pick(9, 16);
    let region = 2; // ASIA
    let change_every = 3;
    let mut gen = TpchGen::new(TpchParams {
        customers: scale.pick(3_000, 15_000),
        suppliers: scale.pick(400, 1_000),
        orders_per_interval: scale.pick(4_000, 15_000),
        z: 0.8,
        max_lineitems: 7,
        seed: 5,
    });
    let mut intervals = Vec::with_capacity(rt.intervals);
    for i in 0..rt.intervals {
        if i > 0 && i % change_every == 0 {
            gen.reshuffle(); // the paper's 15-minute distribution change
        }
        intervals.push(gen.interval_events());
    }
    let mut fig = Figure::new("fig16");
    for &theta in &[0.1, 0.2] {
        let cols: Vec<String> = (0..rt.intervals).map(|i| format!("iv{i}")).collect();
        let mut t = Table::new(
            format!(
                "Fig 16 (θmax={theta}): Q5 interval throughput (10^3 t/s), reshuffle every {change_every} intervals"
            ),
            "strategy",
            cols,
            7,
            0,
        );
        for s in [
            RtStrategy::Mixed,
            RtStrategy::Readj,
            RtStrategy::Storm,
            RtStrategy::MinTable,
        ] {
            let r = run_q5(&rt, s, theta, &gen, &intervals, region);
            let vals: Vec<f64> = r
                .interval_throughput
                .points()
                .iter()
                .map(|&(_, v)| v / 1e3)
                .collect();
            t.row(s.name(), &vals);
        }
        fig.push(t);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rt() -> RtParams {
        RtParams {
            nd: 3,
            tuples: 3_000,
            intervals: 3,
            spin: 50,
            window: 10,
            batch: 32,
        }
    }

    #[test]
    fn wordcount_runs_for_every_strategy() {
        let rt = tiny_rt();
        let intervals = zipf_intervals(&rt, 500, 0.9, 0.5, 3);
        for s in [
            RtStrategy::Storm,
            RtStrategy::Mixed,
            RtStrategy::Readj,
            RtStrategy::Pkg,
            RtStrategy::Ideal,
        ] {
            let r = run_wordcount(&rt, s, 0.1, &intervals, None);
            let expect: u64 = intervals.iter().map(|v| v.len() as u64).sum();
            assert_eq!(r.processed, expect, "{} lost tuples", s.name());
        }
    }

    #[test]
    fn q5_pipeline_matches_reference() {
        let rt = tiny_rt();
        let mut gen = TpchGen::new(TpchParams {
            customers: 300,
            suppliers: 60,
            orders_per_interval: 800,
            z: 0.8,
            max_lineitems: 5,
            seed: 17,
        });
        let intervals: Vec<Vec<TpchEvent>> =
            (0..rt.intervals).map(|_| gen.interval_events()).collect();
        let all: Vec<TpchEvent> = intervals.iter().flatten().copied().collect();
        let region = 2u8;
        let expect = gen.reference_q5(&all, region, 0, rt.intervals as u32);
        let r = run_q5(&rt, RtStrategy::Mixed, 0.05, &gen, &intervals, region);
        let got: std::collections::BTreeMap<u8, u64> = r
            .collector_result
            .iter()
            .map(|&(n, v)| (n as u8, v))
            .collect();
        assert_eq!(got, expect, "streaming Q5 must equal batch reference");
    }

    #[test]
    fn selfjoin_runs_with_migrations() {
        let rt = tiny_rt();
        let intervals = stock_intervals(&rt, 4);
        let r = run_selfjoin(&rt, RtStrategy::Mixed, 0.05, &intervals, None);
        let expect: u64 = intervals.iter().map(|v| v.len() as u64).sum();
        assert_eq!(r.processed, expect);
    }
}
