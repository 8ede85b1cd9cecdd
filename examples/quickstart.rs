//! Quickstart: the five-minute tour promised by the crate docs.
//!
//! Three stops:
//!
//! 1. the core rebalancing loop in isolation — a [`Rebalancer`] ingests
//!    one skewed interval and emits a routing table + migration plan;
//! 2. a simulator sweep — the paper's Mixed strategy vs plain hashing on
//!    the same fluctuating Zipf workload (prints a `SimReport` per run);
//! 3. a small live-engine run — word count over threads with real state
//!    migration (prints the `EngineReport`).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use streambal::baselines::{storm, CoreBalancer};
use streambal::core::IntervalStats;
use streambal::prelude::*;
use streambal::runtime::{Engine, EngineConfig, Tuple, WordCountOp};
use streambal::sim::source::ZipfSource;
use streambal::sim::{run_sim, SimConfig};
use streambal::workloads::FluctuatingWorkload;

fn main() {
    one_rebalance();
    sim_sweep();
    engine_run();
}

/// Stop 1: one interval through the controller, by hand.
fn one_rebalance() {
    println!("== 1. one rebalance, by hand =====================================");

    // An operator with 4 downstream task instances, keeping 2 intervals
    // of state, rebalanced by the paper's Mixed algorithm.
    let mut rebalancer = Rebalancer::new(
        4,
        2,
        RebalanceStrategy::Mixed,
        BalanceParams {
            theta_max: 0.08, // tolerate 8% deviation from the mean load
            beta: 1.5,       // γ = c^β / S migration priority
            table_max: 100,  // at most 100 explicit routing entries
        },
    );

    // One interval of measurements: 1000 keys, heavy head, long tail.
    let mut stats = IntervalStats::new();
    for k in 0..1000u64 {
        let freq = 2000 / (k + 1);
        stats.observe(Key(k), freq, freq, freq * 8);
    }

    // The imbalance hashing alone produces.
    let mut loads = vec![0u64; 4];
    for (k, s) in stats.iter() {
        loads[rebalancer.route(k).index()] += s.cost;
    }
    let before = streambal::core::LoadSummary::new(loads);
    println!("before: per-task loads {:?}", before.loads);
    println!("before: max θ = {:.3}  (bound 0.080)", before.max_theta());

    // End the interval: the controller triggers and constructs F′.
    let outcome = rebalancer
        .end_interval(stats)
        .expect("skew above θmax must trigger a rebalance");
    println!(
        "after:  rebalance fired — {} table entries, {} keys moved ({:.1}% of state), max θ = {:.3}",
        outcome.table.len(),
        outcome.plan.keys_moved(),
        outcome.migration_fraction * 100.0,
        outcome.achieved_theta,
    );
    println!("hot key 0 now routes to {}\n", rebalancer.route(Key(0)));
}

/// Stop 2: the simulator — scheduling metrics without materializing
/// tuples.
fn sim_sweep() {
    println!("== 2. simulator sweep: Mixed vs hash on fluctuating Zipf =========");
    let cfg = SimConfig {
        n_tasks: 8,
        intervals: 12,
    };
    let params = BalanceParams {
        theta_max: 0.08,
        ..BalanceParams::default()
    };

    let mut hash = storm(cfg.n_tasks);
    let mut src = ZipfSource::new(2_000, 0.9, 50_000, 0.2, 77);
    let hash_report = run_sim(&mut hash, &mut src, &cfg);

    let mut mixed = CoreBalancer::new(cfg.n_tasks, 5, RebalanceStrategy::Mixed, params);
    let mut src = ZipfSource::new(2_000, 0.9, 50_000, 0.2, 77);
    let mixed_report = run_sim(&mut mixed, &mut src, &cfg);

    println!("sim report: {}", hash_report.summary_row());
    println!("sim report: {}", mixed_report.summary_row());
    println!(
        "Mixed held post-warmup θ̄ to {:.3} vs {:.3} under plain hashing\n",
        mixed_report.mean_theta_after_warmup(),
        hash_report.mean_theta_after_warmup(),
    );
}

/// Stop 3: the live engine — worker threads, interval statistics, and the
/// pause → migrate → resume protocol of Fig. 5.
fn engine_run() {
    println!("== 3. live engine run: word count with state migration ===========");
    let n_workers = 3;
    let mut workload = FluctuatingWorkload::new(300, 1.0, 5_000, 0.8, 23);
    let mut intervals: Vec<Vec<Key>> = Vec::new();
    for _ in 0..5 {
        intervals.push(workload.tuples());
        workload.advance(n_workers, |k| TaskId::from(k.raw() as usize % n_workers));
    }
    let total: usize = intervals.iter().map(Vec::len).sum();

    let report = Engine::run(
        EngineConfig {
            n_workers,
            max_workers: n_workers,
            spin_work: 50,
            window: 100,
            ..EngineConfig::default()
        },
        Box::new(CoreBalancer::new(
            n_workers,
            100,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.05,
                ..BalanceParams::default()
            },
        )),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            intervals
                .get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );

    println!(
        "engine report: strategy={} processed={} ({} fed) wall={:?}",
        report.name, report.processed, total, report.wall,
    );
    println!(
        "engine report: throughput={:.0} tuples/s, p50 latency={}µs, p99={}µs",
        report.mean_throughput,
        report.latency_us.quantile(0.5),
        report.latency_us.quantile(0.99),
    );
    println!(
        "engine report: rebalances={}, migrated {} keys / {} state bytes, per-worker {:?}",
        report.rebalances, report.migrated_keys, report.migrated_bytes, report.per_worker_processed,
    );
}
