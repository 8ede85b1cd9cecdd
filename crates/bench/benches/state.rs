//! The keyed stage's own ceiling and footprint, thread-free: `WordCountOp`
//! alone, and the worker's statistics accumulator.
//!
//! `process` runs over a Zipf(0.85) interval on `K ∈ {2·10⁴, 2·10⁵}`
//! keys (its expected counts, rounded: ≈ 0.85·K tuples, and the same
//! keys every interval), replayed for `STATE_INTERVALS` intervals with
//! `evict_before` at every boundary as a worker does (`w = 5`). It
//! reports ns per tuple (eviction included) and the live heap bytes per
//! live key at the end of the last interval — the fullest the window
//! gets, `w` closed intervals plus the open one — counted by this
//! binary's counting global allocator. Two more rows price the worker's
//! other per-key structures: the heap a `StatsAccumulator` holds per key
//! once one interval is added to it (a worker's interval statistics),
//! and the heap `drain()` allocates per live key when the last interval
//! is in (a worker's shutdown, where a large run's memory peaks). The
//! byte counts are exact and repeat run to run, so at `K = 2·10⁵` the
//! run *aborts* when any of the three exceeds its guard
//! (`STATE_BYTES_PER_KEY_GUARD`, `ACC_BYTES_PER_KEY_GUARD`,
//! `DRAIN_BYTES_PER_KEY_GUARD`): CI's smoke guards the keyed state's
//! footprint.
//!
//! One `data_plane` row prices what every tuple and every interval
//! costs a worker whatever its operator: the bytes of one wire `Tuple`,
//! and the heap a worker's flight recorder allocates over a seeded
//! sequence of intervals (`count_batch` per batch, `close_interval` per
//! interval, into an enabled sink). Both are exact, and the run aborts
//! unless each equals its pinned value (`TUPLE_BYTES`,
//! `RECORDER_ALLOC_BYTES`).
//!
//! One `generator` row guards what once raised the benchmark's `wide`
//! peak RSS by 23 MiB: a large block freed while its inputs are built.
//! It counts the frees of blocks of 128 KiB or more (`alloc::
//! large_frees`) and the largest of them over `FluctuatingWorkload::new`
//! and 15 `advance` steps at `wide`'s shape, and aborts unless both
//! equal their pinned values (`GENERATOR_LARGE_FREES`,
//! `GENERATOR_LARGEST_FREE`) and the largest stays below the 2 MB
//! interval buffers that follow it (`INTERVAL_BUFFER_BYTES`).
//!
//! The counting allocator does atomic read-modify-writes on process-wide
//! statics at every allocation and free, so this group has a binary of
//! its own: the engine's throughput rows (`benches/engine.rs`) run on the
//! system allocator, as production does.
//!
//! Results land in `bench_results/state.json`; `--test` runs one rep of
//! the same shapes (the guards need them) and writes `state.smoke.json`.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streambal_bench::alloc::{
    allocated_bytes, large_frees, largest_free, live_bytes, reset_large_frees, CountingAlloc,
};
use streambal_bench::json::{write_json, Json};
use streambal_core::{AssignmentFn, Key, StatsAccumulator};
use streambal_runtime::{Operator, ThreadLabel, TraceSink, Tuple, WordCountOp};
use streambal_workloads::FluctuatingWorkload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Tab. II skew and the generator seed.
const ZIPF_Z: f64 = 0.85;
const SEED: u64 = 42;

/// Key domains, window, and intervals per pass.
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

/// The recorder row's interval sequence: 48 intervals (a 20-second
/// run's), each handing the worker up to 64 batches of 1–256 tuples.
const RECORDER_INTERVALS: u64 = 48;
const RECORDER_MAX_BATCHES: u64 = 64;
const RECORDER_MAX_TUPLES: u64 = 256;
/// One wire tuple: the key, the tag and two payload words, padded.
const TUPLE_BYTES: usize = 32;
/// Heap a worker's recorder allocates over that sequence: its event
/// buffer (4 events) and the sink's log doubling to hold its 48
/// `DataFlush` events (to 64), 104 bytes an event.
const RECORDER_ALLOC_BYTES: usize = 7_072;

/// The generator row's shape: the benchmark's `wide` input, `K` keys
/// and 250 000 tuples an interval at `f = 1`, advanced `GENERATOR_STEPS`
/// times against the static `AssignmentFn::hash_only(4)`.
const GENERATOR_K: usize = 200_000;
const GENERATOR_TUPLES: u64 = 250_000;
const GENERATOR_STEPS: usize = 15;
/// One of `wide`'s interval buffers: 250 000 keys of 8 bytes. A freed
/// block this large or larger raises glibc's mmap threshold above them.
const INTERVAL_BUFFER_BYTES: usize = 2_000_000;
/// Frees of blocks of 128 KiB or more over that sequence, and the
/// largest: three in `new` (the largest, 1.6 MB, its sorted hashes at 8
/// bytes a key) and each step's donor and cold lists (`u32` ids).
const GENERATOR_LARGE_FREES: usize = 33;
const GENERATOR_LARGEST_FREE: usize = 1_600_000;

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

/// The heap a worker's `ThreadRecorder` allocates over the seeded
/// interval sequence, from its creation to its drop; the sink exists
/// before, as the engine builds it once per run.
fn recorder_alloc_bytes() -> usize {
    let mut rng = StdRng::seed_from_u64(SEED);
    let sink = TraceSink::new(true);
    let before = allocated_bytes();
    let mut recorder = sink.recorder(ThreadLabel::Worker(0));
    for interval in 0..RECORDER_INTERVALS {
        for _ in 0..rng.gen_range(0..=RECORDER_MAX_BATCHES) {
            recorder.count_batch(rng.gen_range(1..=RECORDER_MAX_TUPLES));
        }
        recorder.close_interval(interval);
    }
    drop(recorder);
    let bytes = allocated_bytes() - before;
    black_box(sink.take_log());
    bytes
}

/// The data plane's per-tuple and per-interval bytes; aborts unless both
/// equal their pinned values.
fn data_plane_row() -> Json {
    let tuple_bytes = std::mem::size_of::<Tuple>();
    let recorder_bytes = recorder_alloc_bytes();
    println!(
        "data plane: {tuple_bytes} B per tuple, recorder {recorder_bytes} B allocated over \
         {RECORDER_INTERVALS} intervals"
    );
    assert_eq!(tuple_bytes, TUPLE_BYTES, "the wire tuple changed size");
    assert_eq!(
        recorder_bytes, RECORDER_ALLOC_BYTES,
        "a worker's recorder allocates a different number of bytes"
    );
    Json::obj([
        ("tuple_bytes", Json::lower(Json::Int(tuple_bytes as u64))),
        (
            "recorder_alloc_bytes",
            Json::lower(Json::Int(recorder_bytes as u64)),
        ),
        ("intervals", Json::Int(RECORDER_INTERVALS)),
        ("seed", Json::Int(SEED)),
    ])
}

/// The large frees of building and advancing `wide`'s generator; aborts
/// unless they equal their pinned values, under the interval buffers.
fn generator_row() -> Json {
    let hash_only = AssignmentFn::hash_only(4);
    reset_large_frees();
    let mut w = FluctuatingWorkload::new(GENERATOR_K, ZIPF_Z, GENERATOR_TUPLES, 1.0, SEED);
    for _ in 0..GENERATOR_STEPS {
        w.advance(4, |key| hash_only.route(key));
    }
    let (frees, largest) = (large_frees(), largest_free());
    black_box(w);
    println!(
        "generator: K={GENERATOR_K}, {GENERATOR_STEPS} steps: {frees} frees of 128 KiB or more, \
         largest {largest} B"
    );
    assert!(
        largest < INTERVAL_BUFFER_BYTES,
        "a {largest} B block freed while generating lifts the mmap threshold over the \
         {INTERVAL_BUFFER_BYTES} B interval buffers"
    );
    assert_eq!(
        (frees, largest),
        (GENERATOR_LARGE_FREES, GENERATOR_LARGEST_FREE),
        "the generator frees different large blocks"
    );
    Json::obj([
        ("key_domain", Json::Int(GENERATOR_K as u64)),
        ("tuples_per_interval", Json::Int(GENERATOR_TUPLES)),
        ("steps", Json::Int(GENERATOR_STEPS as u64)),
        ("large_frees", Json::lower(Json::Int(frees as u64))),
        ("largest_free_bytes", Json::lower(Json::Int(largest as u64))),
    ])
}

/// Aborts when `measured` exceeds `guard`.
fn check_guard(what: &str, k: usize, measured: f64, guard: f64) {
    assert!(
        measured <= guard,
        "{what} at K = {k}: {measured:.1} B per key, over the {guard} B guard"
    );
}

/// One row per key domain; aborts past the footprint guards.
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

fn main() {
    // `cargo bench --bench state -- --test` (the CI smoke step) passes
    // `--test`: one rep of the same shapes.
    let smoke = std::env::args().any(|a| a == "--test");
    let state = state_rows(if smoke { 1 } else { 5 });
    let data_plane = data_plane_row();
    let generator = generator_row();
    let doc = Json::obj([
        ("bench", Json::str("state")),
        ("zipf_z", Json::Num(ZIPF_Z)),
        ("smoke", Json::Bool(smoke)),
        ("state", Json::Arr(state)),
        ("data_plane", data_plane),
        ("generator", generator),
    ]);
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "state.smoke.json"
    } else {
        "state.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
