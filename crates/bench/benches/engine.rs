//! End-to-end engine throughput of the batched data plane
//! (`Message::TupleBatch`, pooled buffers, one channel op /
//! `Counter::add(n)` / clock read per batch).
//!
//! Three measurement groups, all on a hash-routed Zipf word count (no
//! rebalances, so the data plane — not the scheduler — is what moves),
//! at Tab. II skew (`z = 0.85`) through `EngineConfig::default()`
//! (4 workers, batch 256, spin 500) unless the group varies it:
//!
//! 1. **batch-size sweep** — 1, 16, 64, 256, 1024 at the default worker
//!    count. Batch 1 ships one-tuple batches through the pooled path:
//!    the price of the channel operation the larger sizes amortize.
//! 2. **worker-count sweep** — batch 256 at 2 and 4 workers.
//! 3. **flight-recorder overhead guard** — the default batched shape
//!    with the trace recorder on vs off, best-of-5 in every mode; the
//!    on/off ratio is committed as `trace_overhead_ratio` and the run
//!    *aborts* below 0.97, so a hot-path recording regression fails CI.
//!
//! Each configuration runs `REPS` times over an identical pre-generated
//! tuple sequence; the mean and best (max) throughput are reported. The
//! results are printed and written to `bench_results/engine.json`
//! (hand-rolled writer, no serde) so future PRs can diff the trajectory.
//! `--test` (as passed by the CI smoke step via `cargo bench --bench
//! engine -- --test`) shrinks the workload and writes to
//! `bench_results/engine.smoke.json` instead, so noisy smoke numbers can
//! never clobber the committed full-run file.

use streambal_baselines::storm;
use streambal_bench::json::{write_json, Json};
use streambal_core::Key;
use streambal_runtime::{Engine, EngineConfig, Tuple, WordCountOp};
use streambal_workloads::FluctuatingWorkload;

/// Tab. II defaults (quick scale): key-domain size and skew.
const KEY_DOMAIN: usize = 20_000;
const ZIPF_Z: f64 = 0.85;
const SEED: u64 = 42;

/// One measured configuration.
#[derive(Clone, Copy)]
struct Shape {
    batch: usize,
    workers: usize,
}

impl Shape {
    fn label(&self) -> String {
        format!("batched/b{}/w{}", self.batch, self.workers)
    }
}

/// Runs one engine pass over `intervals` and returns end-to-end
/// tuples/sec (processed over wall time, setup and drain included).
/// `trace` toggles the flight recorder (the default config leaves it on;
/// the overhead guard below runs both arms).
fn run_once(shape: Shape, intervals: &[Vec<Key>], trace: bool) -> f64 {
    let feed: Vec<Vec<Key>> = intervals.to_vec();
    let config = EngineConfig {
        n_workers: shape.workers,
        max_workers: shape.workers,
        batch_size: shape.batch,
        trace,
        ..EngineConfig::default()
    };
    let report = Engine::run(
        config,
        Box::new(storm(shape.workers)),
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
    assert_eq!(report.processed, total, "tuples lost in {}", shape.label());
    report.mean_throughput
}

/// Pre-generates identical Zipf interval key sequences for every shape.
fn make_intervals(tuples: u64, n_intervals: usize) -> Vec<Vec<Key>> {
    let mut w = FluctuatingWorkload::new(KEY_DOMAIN, ZIPF_Z, tuples, 0.0, SEED);
    (0..n_intervals).map(|_| w.tuples()).collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(0.0, f64::max)
}

fn main() {
    // `cargo bench --bench engine -- --test` (the CI smoke step) passes
    // `--test`; shrink the workload but keep the JSON emission.
    let smoke = std::env::args().any(|a| a == "--test");
    let (tuples, n_intervals, reps) = if smoke {
        (5_000, 2, 1)
    } else {
        (120_000, 4, 4)
    };
    let intervals = make_intervals(tuples, n_intervals);
    let default_workers = EngineConfig::default().n_workers;

    let mut shapes: Vec<Shape> = [1usize, 16, 64, 256, 1024]
        .into_iter()
        .map(|batch| Shape {
            batch,
            workers: default_workers,
        })
        .collect();
    shapes.push(Shape {
        batch: 256,
        workers: 2,
    });

    let mut rows: Vec<Json> = Vec::new();
    println!(
        "engine throughput: {} tuples/run, {} reps (z={ZIPF_Z}, K={KEY_DOMAIN}, spin={})",
        tuples * n_intervals as u64,
        reps,
        EngineConfig::default().spin_work,
    );
    for shape in &shapes {
        // One untimed warm-up pass (page-in, pool priming parity).
        let _ = run_once(*shape, &intervals, true);
        let runs: Vec<f64> = (0..reps)
            .map(|_| run_once(*shape, &intervals, true))
            .collect();
        let (m, b) = (mean(&runs), max(&runs));
        println!(
            "  {:<24} mean {:>10.0} t/s   best {:>10.0} t/s",
            shape.label(),
            m,
            b
        );
        rows.push(Json::obj([
            ("id", Json::str(shape.label())),
            ("batch", Json::Int(shape.batch as u64)),
            ("workers", Json::Int(shape.workers as u64)),
            ("mean_tuples_per_sec", Json::Num(m)),
            ("best_tuples_per_sec", Json::Num(b)),
            ("reps", Json::Int(reps as u64)),
        ]));
    }

    // Flight-recorder overhead guard: the default batched shape with the
    // recorder on vs off, best-of-OVERHEAD_REPS even in smoke (a single
    // noisy rep must not produce a spurious CI failure). The recorder's
    // data-plane cost is two counter adds per batch, so the ratio should
    // sit at 1.0; the assert holds it above 0.97 (≤ 3% overhead) and is
    // deliberately blocking — an accidental per-tuple record() or lock
    // on the hot path fails the bench, not just a review.
    const OVERHEAD_REPS: usize = 5;
    let overhead_shape = Shape {
        batch: 256,
        workers: default_workers,
    };
    let _ = run_once(overhead_shape, &intervals, true);
    let trace_on: Vec<f64> = (0..OVERHEAD_REPS)
        .map(|_| run_once(overhead_shape, &intervals, true))
        .collect();
    let trace_off: Vec<f64> = (0..OVERHEAD_REPS)
        .map(|_| run_once(overhead_shape, &intervals, false))
        .collect();
    let trace_overhead_ratio = max(&trace_on) / max(&trace_off);
    println!(
        "  trace overhead: on {:>10.0} t/s   off {:>10.0} t/s   ratio {:.4}",
        max(&trace_on),
        max(&trace_off),
        trace_overhead_ratio
    );
    assert!(
        trace_overhead_ratio >= 0.97,
        "flight recorder costs more than 3% throughput \
         (on/off ratio {trace_overhead_ratio:.4}); the data plane must \
         stay at two counter adds per batch"
    );

    let doc = Json::obj([
        ("bench", Json::str("engine")),
        ("key_domain", Json::Int(KEY_DOMAIN as u64)),
        ("zipf_z", Json::Num(ZIPF_Z)),
        ("tuples_per_run", Json::Int(tuples * n_intervals as u64)),
        (
            "spin_work",
            Json::Int(EngineConfig::default().spin_work as u64),
        ),
        ("default_workers", Json::Int(default_workers as u64)),
        ("smoke", Json::Bool(smoke)),
        ("results", Json::Arr(rows)),
        // Flight-recorder cost at the default shape (on/off, best-of-5);
        // the run aborts above if this drops below 0.97.
        ("trace_overhead_ratio", Json::Num(trace_overhead_ratio)),
    ]);
    // Anchored at the workspace root (cargo runs bench binaries with the
    // package dir as CWD). Smoke runs go to a separate, untracked path so
    // they can never clobber the committed full-run trajectory in
    // engine.json.
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "engine.smoke.json"
    } else {
        "engine.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
