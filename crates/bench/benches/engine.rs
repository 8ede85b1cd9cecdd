//! End-to-end engine throughput of the batched data plane
//! (`Message::TupleBatch`, pooled buffers, one channel op /
//! `Counter::add(n)` / clock read per batch), and the keyed stage's own
//! ceiling.
//!
//! The three engine groups run a hash-routed Zipf word count (no
//! rebalances, so the data plane — not the scheduler — is what moves),
//! at Tab. II skew (`z = 0.85`) through `EngineConfig::default()`
//! (4 workers, batch 256, spin 500) unless the group varies it:
//!
//! 1. **batch-size sweep** — 1, 16, 64, 256, 1024 at the default worker
//!    count. Batch 1 ships one-tuple batches through the pooled path:
//!    the price of the channel operation the larger sizes amortize.
//! 2. **worker-count sweep** — batch 256 at 2 and 4 workers.
//! 3. **flight-recorder overhead guard** — the default batched shape
//!    with the trace recorder on vs off, runs alternating, best-of-5 in
//!    every mode; the on/off ratio is committed as
//!    `trace_overhead_ratio` and the run *aborts* below 0.97, so a
//!    hot-path recording regression fails CI.
//!
//! Each configuration runs `REPS` times over an identical pre-generated
//! tuple sequence; the mean and best (max) throughput are reported.
//!
//! 4. **keyed-stage ceiling** (thread-free, run first) — `WordCountOp`
//!    alone: `process` over a Zipf(0.85) interval on `K ∈ {2·10⁴,
//!    2·10⁵}` keys (its expected counts, rounded: ≈ 0.85·K tuples, and
//!    the same keys every interval), replayed for `STATE_INTERVALS`
//!    intervals with `evict_before` at every boundary as a worker does
//!    (`w = 5`). It reports ns per tuple (eviction included) and the
//!    live heap bytes per live key at the end of the last interval — the
//!    fullest the window gets, `w` closed intervals plus the open one —
//!    counted by this binary's counting global allocator. Two more rows
//!    price the worker's other per-key structures: the heap a
//!    `StatsAccumulator` holds per key once one interval is added to it
//!    (a worker's interval statistics), and the heap `drain()` allocates
//!    per live key when the last interval is in (a worker's shutdown,
//!    where a large run's memory peaks). The byte counts are exact and
//!    repeat run to run, so at `K = 2·10⁵` the run *aborts* when any of
//!    the three exceeds its guard (`STATE_BYTES_PER_KEY_GUARD`,
//!    `ACC_BYTES_PER_KEY_GUARD`, `DRAIN_BYTES_PER_KEY_GUARD`): CI's smoke
//!    guards the keyed state's footprint.
//!
//! The results are printed and written to `bench_results/engine.json`
//! (hand-rolled writer, no serde) so future PRs can diff the trajectory.
//! `--test` (as passed by the CI smoke step via `cargo bench --bench
//! engine -- --test`) shrinks the engine workload and the repetitions
//! (not the keyed-stage shapes, which the guard needs) and writes to
//! `bench_results/engine.smoke.json` instead, so noisy smoke numbers can
//! never clobber the committed full-run file.

use std::hint::black_box;
use std::time::Instant;

use streambal_baselines::storm;
use streambal_bench::alloc::{allocated_bytes, live_bytes, CountingAlloc};
use streambal_bench::json::{write_json, Json};
use streambal_core::{Key, StatsAccumulator};
use streambal_runtime::{Engine, EngineConfig, Operator, Tuple, WordCountOp};
use streambal_workloads::FluctuatingWorkload;

/// Tab. II defaults (quick scale): key-domain size and skew.
const KEY_DOMAIN: usize = 20_000;
const ZIPF_Z: f64 = 0.85;
const SEED: u64 = 42;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Keyed-stage group: key domains, window, and intervals per pass.
const STATE_DOMAINS: [usize; 2] = [20_000, 200_000];
const STATE_WINDOW: u64 = 5;
const STATE_INTERVALS: u64 = 10;
/// Most live heap bytes per live key `WordCountOp` may hold at
/// `K = 2·10⁵`: 80.5 measured, plus about 5 %.
const STATE_BYTES_PER_KEY_GUARD: f64 = 85.0;
/// Most heap bytes per key a `StatsAccumulator` may hold at
/// `K = 2·10⁵`: 38.1 measured, plus about 5 %.
const ACC_BYTES_PER_KEY_GUARD: f64 = 40.0;
/// Most heap bytes per live key `WordCountOp::drain` may allocate at
/// `K = 2·10⁵`: 112.0 measured, plus about 5 %.
const DRAIN_BYTES_PER_KEY_GUARD: f64 = 118.0;

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

/// One keyed-stage pass.
struct StatePass {
    ns_per_tuple: f64,
    live_keys: usize,
    bytes_per_live_key: f64,
    drain_bytes_per_live_key: f64,
}

/// Feeds `keys` as each of `STATE_INTERVALS` intervals into a fresh
/// `WordCountOp`, evicting at every boundary as a worker does, reads the
/// heap it holds once the last interval is in, and then what draining it
/// allocates.
fn state_pass(keys: &[Key]) -> StatePass {
    let before = live_bytes();
    let mut op = WordCountOp::new();
    let mut added = 0u64;
    let start = Instant::now();
    for iv in 0..STATE_INTERVALS {
        if iv > 0 {
            // Closing interval `iv − 1` keeps the last `w` closed ones.
            op.evict_before(iv.saturating_sub(STATE_WINDOW));
        }
        for &k in keys {
            added += op.process(&Tuple::keyed(k), iv, &mut |_| {});
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let held = live_bytes() - before;
    black_box(added);
    let live_keys = op.held_counts().len();
    let before = allocated_bytes();
    let drained = op.drain();
    let drain_bytes = allocated_bytes() - before;
    assert_eq!(drained.len(), live_keys);
    StatePass {
        ns_per_tuple: elapsed * 1e9 / (STATE_INTERVALS as f64 * keys.len() as f64),
        live_keys,
        bytes_per_live_key: held as f64 / live_keys.max(1) as f64,
        drain_bytes_per_live_key: drain_bytes as f64 / live_keys.max(1) as f64,
    }
}

/// The heap per key of a worker's statistics accumulator holding one
/// interval of `keys`, added tuple by tuple at eight state bytes each.
fn accumulator_bytes_per_key(keys: &[Key]) -> f64 {
    let before = live_bytes();
    let mut acc = StatsAccumulator::new(1);
    for &k in keys {
        acc.add(k, 1, 8);
    }
    (live_bytes() - before) as f64 / acc.len().max(1) as f64
}

/// Aborts when `measured` exceeds `guard`.
fn check_guard(what: &str, k: usize, measured: f64, guard: f64) {
    assert!(
        measured <= guard,
        "{what} at K = {k}: {measured:.1} B per key, over the {guard} B guard"
    );
}

/// The keyed-stage group's rows; aborts past the footprint guards.
fn state_rows(reps: usize) -> Vec<Json> {
    println!(
        "keyed stage: WordCountOp::process, z={ZIPF_Z}, w={STATE_WINDOW}, \
         {STATE_INTERVALS} intervals, {reps} reps"
    );
    let mut rows = Vec::new();
    for k in STATE_DOMAINS {
        let keys = FluctuatingWorkload::new(k, ZIPF_Z, k as u64, 0.0, SEED).tuples();
        let passes: Vec<StatePass> = (0..reps).map(|_| state_pass(&keys)).collect();
        let first = &passes[0];
        assert!(
            passes
                .iter()
                .all(|p| p.bytes_per_live_key == first.bytes_per_live_key
                    && p.drain_bytes_per_live_key == first.drain_bytes_per_live_key),
            "heap held and allocated per key must repeat exactly"
        );
        let acc_bytes = accumulator_bytes_per_key(&keys);
        let mut ns: Vec<f64> = passes.iter().map(|p| p.ns_per_tuple).collect();
        ns.sort_by(f64::total_cmp);
        let median_ns = ns[ns.len() / 2];
        println!(
            "  K={k:<7} {:>7.1} ns/tuple   {:>6.1} B/live key ({} live keys)   \
             drain {:>6.1} B/live key   accumulator {acc_bytes:>5.1} B/key",
            median_ns, first.bytes_per_live_key, first.live_keys, first.drain_bytes_per_live_key
        );
        if k == 200_000 {
            check_guard(
                "WordCountOp's state",
                k,
                first.bytes_per_live_key,
                STATE_BYTES_PER_KEY_GUARD,
            );
            check_guard(
                "WordCountOp::drain's allocations",
                k,
                first.drain_bytes_per_live_key,
                DRAIN_BYTES_PER_KEY_GUARD,
            );
            check_guard("StatsAccumulator", k, acc_bytes, ACC_BYTES_PER_KEY_GUARD);
        }
        rows.push(Json::obj([
            ("id", Json::str(format!("wordcount/k{k}/w{STATE_WINDOW}"))),
            ("key_domain", Json::Int(k as u64)),
            ("tuples_per_interval", Json::Int(keys.len() as u64)),
            ("intervals", Json::Int(STATE_INTERVALS)),
            ("live_keys", Json::Int(first.live_keys as u64)),
            ("process_ns_per_tuple", Json::lower(Json::Num(median_ns))),
            (
                "bytes_per_live_key",
                Json::lower(Json::Num(first.bytes_per_live_key)),
            ),
            (
                "drain_alloc_bytes_per_live_key",
                Json::lower(Json::Num(first.drain_bytes_per_live_key)),
            ),
            (
                "accumulator_bytes_per_key",
                Json::lower(Json::Num(acc_bytes)),
            ),
            ("reps", Json::Int(reps as u64)),
        ]));
    }
    rows
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
    let (tuples, n_intervals, reps, state_reps) = if smoke {
        (5_000, 2, 1, 1)
    } else {
        (120_000, 4, 4, 5)
    };
    // First, while this is the only thread allocating.
    let state = state_rows(state_reps);
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
            ("mean_tuples_per_sec", Json::higher(Json::Num(m))),
            ("best_tuples_per_sec", Json::higher(Json::Num(b))),
            ("reps", Json::Int(reps as u64)),
        ]));
    }

    // Flight-recorder overhead guard: the default batched shape with the
    // recorder on vs off, best-of-OVERHEAD_REPS even in smoke (a single
    // noisy rep must not produce a spurious CI failure). The recorder's
    // data-plane cost is two counter adds per batch, so the ratio should
    // sit at 1.0; the assert holds it above 0.97 (≤ 3% overhead) and is
    // deliberately blocking — an accidental per-tuple record() or lock
    // on the hot path fails the bench, not just a review. On and off
    // runs alternate, so a slow stretch of the host lands on both sides
    // instead of on one block of five.
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
        ("state", Json::Arr(state)),
        // Flight-recorder cost at the default shape (on/off, best-of-5);
        // the run aborts above if this drops below 0.97.
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
