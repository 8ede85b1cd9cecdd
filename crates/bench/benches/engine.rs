//! End-to-end engine throughput of the batched data plane
//! (`Message::TupleBatch`: one channel op and one clock read per batch),
//! and the flight recorder's data-plane cost.
//!
//! The engine groups run a hash-routed Zipf word count (no rebalances,
//! so the data plane — not the scheduler — is what moves), at Tab. II
//! skew (`z = 0.85`) through `EngineConfig::default()` (4 workers, batch
//! 256, spin 500) unless the group varies it:
//!
//! 1. **batch-size sweep** — 1, 16, 64, 256, 1024 at the default worker
//!    count. Batch 1 ships one-tuple batches through the same path: the
//!    price of the channel operation the larger sizes amortize.
//! 2. **worker-count sweep** — batch 256 at 2 and 4 workers.
//! 3. **flight recorder** — first a count guard: under hashing, over a
//!    key cycle it spreads evenly (so no skew alert fires), the events
//!    the source and worker threads record, counted per thread and kind,
//!    must be equal at two feed sizes with the same interval count — a
//!    fixed number per interval and none per tuple. The run *aborts*
//!    otherwise; the counts are exact, so the guard does not swing with
//!    the host. Then the
//!    default batched shape with the recorder on vs off, runs
//!    alternating, best-of-5 in every mode; the on/off ratio is reported
//!    as `trace_overhead_ratio`.
//!
//! Each configuration runs `REPS` times over an identical pre-generated
//! tuple sequence; the mean and best (max) throughput are reported. The
//! binary runs on the system allocator, as production does; the keyed
//! stage's footprint, which needs a counting allocator, is the `state`
//! bench.
//!
//! The results are printed and written to `bench_results/engine.json`
//! (hand-rolled writer, no serde) so future PRs can diff the trajectory.
//! `--test` (as passed by the CI smoke step via `cargo bench --bench
//! engine -- --test`) shrinks the workload and the repetitions (not the
//! count guard's feeds) and writes to `bench_results/engine.smoke.json`
//! instead, so noisy smoke numbers can never clobber the committed
//! full-run file.

use std::collections::BTreeMap;

use streambal_baselines::storm;
use streambal_bench::json::{write_json, Json};
use streambal_core::{Key, Partitioner};
use streambal_runtime::{replay, Engine, EngineConfig, ThreadLabel, WordCountOp};
use streambal_workloads::FluctuatingWorkload;

/// Tab. II defaults (quick scale): key-domain size and skew.
const KEY_DOMAIN: usize = 20_000;
const ZIPF_Z: f64 = 0.85;
const SEED: u64 = 42;

/// The count guard's feeds: `COUNT_INTERVALS` intervals cycling through
/// `COUNT_KEYS` keys per worker, at each of `COUNT_FEEDS` tuples per
/// interval.
const COUNT_INTERVALS: usize = 4;
const COUNT_KEYS: usize = 1_024;
const COUNT_FEEDS: [usize; 2] = [8_192, 32_768];

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
        replay(intervals),
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

/// A cycle of `COUNT_KEYS` keys per worker that hashing sends to the
/// workers in turn, so every worker has been sent as many tuples as the
/// next, give or take one, at every point of the feed: no skew alert can
/// fire, however long the feed.
fn uniform_keys(workers: usize) -> Vec<Key> {
    let mut hash = storm(workers);
    let mut owned: Vec<Vec<Key>> = vec![Vec::new(); workers];
    for k in 0.. {
        if owned.iter().all(|keys| keys.len() == COUNT_KEYS) {
            break;
        }
        let keys = &mut owned[hash.route(Key(k)).index()];
        if keys.len() < COUNT_KEYS {
            keys.push(Key(k));
        }
    }
    (0..COUNT_KEYS)
        .flat_map(|i| owned.iter().map(move |keys| keys[i]))
        .collect()
}

/// The events the source and worker threads record in one traced run of
/// `COUNT_INTERVALS` intervals of `tuples` uniform keys, counted per
/// thread and event kind. Aborts if a skew alert fired: then the counts
/// would depend on where in an interval it tripped.
fn recorded_events(tuples: usize) -> BTreeMap<(String, String), u64> {
    let workers = EngineConfig::default().n_workers;
    let cycle = uniform_keys(workers);
    let interval: Vec<Key> = cycle.iter().copied().cycle().take(tuples).collect();
    let intervals = vec![interval; COUNT_INTERVALS];
    let report = Engine::run(
        EngineConfig::default(),
        Box::new(storm(workers)),
        |_| Box::new(WordCountOp::new()),
        replay(&intervals),
        None,
    );
    assert_eq!(report.processed, (tuples * COUNT_INTERVALS) as u64);
    let mut counts = BTreeMap::new();
    for e in &report.trace.events {
        if !matches!(e.thread, ThreadLabel::Source | ThreadLabel::Worker(_)) {
            continue;
        }
        let kind = format!("{:?}", e.kind);
        let kind = kind
            .split([' ', '('])
            .next()
            .unwrap_or_default()
            .to_string();
        *counts.entry((e.thread.name(), kind)).or_insert(0) += 1;
    }
    assert!(
        !counts.keys().any(|(_, kind)| kind == "SkewAlert"),
        "a uniform feed raised a skew alert: {counts:?}"
    );
    counts
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

    // Flight-recorder count guard, first: it is exact, so it aborts
    // before any timing is spent.
    let [small, large] = COUNT_FEEDS.map(recorded_events);
    assert_eq!(
        small, large,
        "the source and the workers recorded a different number of events \
         at {} and {} tuples per interval: the data plane must record \
         nothing per tuple",
        COUNT_FEEDS[0], COUNT_FEEDS[1]
    );
    let events_per_run: u64 = small.values().sum();
    println!(
        "flight recorder: {events_per_run} source and worker events per \
         {COUNT_INTERVALS}-interval run at both {} and {} tuples per interval",
        COUNT_FEEDS[0], COUNT_FEEDS[1]
    );

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
        // One untimed warm-up pass (page-in).
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
            ("mean_tuples_per_sec", Json::higher(Json::Num(m))),
            ("best_tuples_per_sec", Json::higher(Json::Num(b))),
            ("reps", Json::Int(reps as u64)),
        ]));
    }

    // Flight-recorder overhead: the default batched shape with the
    // recorder on vs off, best-of-OVERHEAD_REPS even in smoke. The
    // recorder's data-plane cost is two counter adds per batch, so the
    // ratio should sit at 1.0. It is reported, not asserted: on a 2-vCPU
    // host it swings by several percent run to run, and the count guard
    // above is what fails a per-tuple record. On and off runs alternate,
    // so a slow stretch of the host lands on both sides.
    const OVERHEAD_REPS: usize = 5;
    let overhead_shape = Shape {
        batch: 256,
        workers: default_workers,
    };
    let _ = run_once(overhead_shape, &intervals, true);
    let (trace_on, trace_off): (Vec<f64>, Vec<f64>) = (0..OVERHEAD_REPS)
        .map(|_| {
            let on = run_once(overhead_shape, &intervals, true);
            (on, run_once(overhead_shape, &intervals, false))
        })
        .unzip();
    let trace_overhead_ratio = max(&trace_on) / max(&trace_off);
    println!(
        "  trace overhead: on {:>10.0} t/s   off {:>10.0} t/s   ratio {:.4}",
        max(&trace_on),
        max(&trace_off),
        trace_overhead_ratio
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
        // What the count guard compared: equal at both feed sizes.
        ("recorded_events_per_run", Json::Int(events_per_run)),
        // Flight-recorder cost at the default shape (on/off, best-of-5).
        (
            "trace_overhead_ratio",
            Json::higher(Json::Num(trace_overhead_ratio)),
        ),
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
