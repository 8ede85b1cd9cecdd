//! Criterion bench: per-tuple routing cost of the mixed strategy (Eq. 1).
//!
//! Three groups:
//!
//! 1. **table-size sweep** — batched routing from an empty table to 50k
//!    entries, alternating hits and misses (ring fallback).
//! 2. **large-domain sweep** — hit and miss probing with `route_batch`
//!    at 3e3 → 3e6 table entries (from the paper's production table
//!    bound `Amax = 3000`, §II "both the memory and computation cost of
//!    the scheme are acceptable", up), with every batch drawn from a
//!    shuffled pool spanning the whole key domain so big slabs are
//!    actually probed cold.
//! 3. **rebuild vs delta** — table-maintenance latency at the same
//!    sizes: building the whole table afresh (what every mutation cost
//!    before incremental maintenance, and what a resync still costs)
//!    against `apply_delta` of a 1%-churn rebalance (what a rebalance
//!    costs now).
//!
//! The rows that compared this slab with an `FxHashMap`-backed table
//! went with that table; their last committed numbers are in CHANGES.md
//! (PR 20).
//!
//! Every *routing* benchmark routes `BATCH × REPS` keys per timed
//! sample, so mean sample times divide directly into ns/key and
//! compare across benchmarks (the mutation group measures whole
//! operations instead; its ns_per_key column is meaningless and its
//! derived metric is the rebuild/delta speedup). Results are printed and
//! written machine-readably to `bench_results/routing.json` (hand-rolled
//! writer, no serde) so future PRs can diff the trajectory. `--test` (as
//! passed by the CI smoke step via `cargo bench --bench routing -- --test`)
//! shrinks the sample count, drops the two largest domain sizes, and
//! writes to `bench_results/routing.smoke.json` instead, so noisy smoke
//! numbers can never clobber the committed full-run file.

use criterion::{black_box, take_measurements, BenchmarkId, Criterion, Measurement};
use streambal_bench::json::{write_json, Json};
use streambal_core::{AssignmentFn, Key, RoutingTable, TaskId};
use streambal_hashring::mix64;

/// Downstream parallelism `N_D`.
const N_TASKS: usize = 10;
/// Keys routed per `route_batch` call (a channel batch).
const BATCH: usize = 1_024;
/// Batch repetitions per timed sample, so samples are ≳ 100 µs and well
/// above timer resolution.
const REPS: usize = 32;
/// The large-domain sweep's table sizes: the paper's `Amax` up to the
/// ROADMAP's millions-of-keys regime. Smoke mode keeps only the first
/// two (the larger tables take seconds just to construct).
const LARGE_SIZES: [usize; 4] = [3_000, 30_000, 300_000, 3_000_000];
/// Churn fraction for the delta-apply mutation bench: a 1% rebalance,
/// the acceptance shape (`apply_delta` ≥10× faster than a full rebuild
/// at ≥3e5 entries).
const CHURN_DENOM: usize = 100;

fn assignment(table_size: usize) -> AssignmentFn {
    let table: RoutingTable = (0..table_size as u64)
        .map(|k| (Key(k), TaskId((k % N_TASKS as u64) as u32)))
        .collect();
    AssignmentFn::with_table(N_TASKS, table)
}

/// `BATCH` keys present in a `table_size`-entry table, in shuffled order.
fn hit_keys(table_size: usize) -> Vec<Key> {
    (0..BATCH as u64)
        .map(|i| Key(mix64(i) % table_size as u64))
        .collect()
}

/// `BATCH` keys guaranteed absent from the table (raw ≥ table size).
fn miss_keys(table_size: usize) -> Vec<Key> {
    (0..BATCH as u64)
        .map(|i| Key(table_size as u64 + mix64(i) / 2))
        .collect()
}

/// Alternating hit/miss keys.
fn mixed_keys(table_size: usize) -> Vec<Key> {
    hit_keys(table_size)
        .into_iter()
        .zip(miss_keys(table_size))
        .enumerate()
        .map(|(i, (h, m))| if i % 2 == 0 { h } else { m })
        .collect()
}

/// Batched routing across table sizes: alternating hits and misses, as
/// upstream tuple streams do.
fn bench_sweep(c: &mut Criterion, samples: usize) {
    let mut group = c.benchmark_group("routing_sweep");
    group.sample_size(samples);
    for table_size in [0usize, 1_000, 10_000, 50_000] {
        let f = assignment(table_size);
        let keys = if table_size == 0 {
            miss_keys(1) // empty table: everything is a ring lookup
        } else {
            mixed_keys(table_size)
        };
        group.bench_with_input(
            BenchmarkId::new("route_batch", table_size),
            &keys,
            |b, keys| {
                let mut out: Vec<TaskId> = Vec::with_capacity(BATCH);
                b.iter(|| {
                    let mut acc = 0u32;
                    for _ in 0..REPS {
                        f.route_batch(black_box(keys), &mut out);
                        acc ^= out.last().map_or(0, |d| d.0);
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

/// A shuffled pool of **every** present key (hits) or of `table_size`
/// guaranteed-absent keys (misses). The large-domain bench walks this
/// pool in consecutive `BATCH`-key chunks rather than re-routing one
/// fixed batch: re-probing the same 1 024 keys keeps their 64 KiB of
/// home slots L1-resident no matter how big the slab is, which measures
/// cache hits, not large-domain probing. Streaming the whole domain
/// touches every slot of the slab across a sample, so once the slab
/// outgrows L2 the probes genuinely miss it.
fn key_pool(table_size: usize, set: &str) -> Vec<Key> {
    let mut pool: Vec<Key> = match set {
        "hit" => (0..table_size as u64).map(Key).collect(),
        _ => (table_size as u64..2 * table_size as u64)
            .map(Key)
            .collect(),
    };
    pool.sort_by_key(|k| mix64(k.raw()));
    pool
}

/// Hit/miss probing at 3e3 → 3e6 entries with `route_batch`, each
/// batch drawn from a shuffled pool spanning the whole key domain (see
/// [`key_pool`]).
fn bench_large_domain(c: &mut Criterion, samples: usize, sizes: &[usize]) {
    let mut group = c.benchmark_group("routing_large_domain");
    group.sample_size(samples);
    for &table_size in sizes {
        let f = assignment(table_size);
        for set in ["hit", "miss"] {
            let pool = key_pool(table_size, set);
            group.bench_with_input(
                BenchmarkId::new(&format!("batched_{set}"), table_size),
                &pool,
                |b, pool| {
                    let mut out: Vec<TaskId> = Vec::with_capacity(BATCH);
                    let mut chunks = pool.chunks_exact(BATCH).cycle();
                    b.iter(|| {
                        let mut acc = 0u32;
                        for _ in 0..REPS {
                            let keys = chunks.next().unwrap();
                            f.route_batch(black_box(keys), &mut out);
                            acc ^= out.last().map_or(0, |d| d.0);
                        }
                        acc
                    })
                },
            );
        }
    }
    group.finish();
}

/// Table-maintenance latency at the large-domain sizes: collecting the
/// whole table afresh (the per-mutation cost before incremental
/// maintenance) against one `apply_delta` of a 1%-churn rebalance. The delta
/// alternates between two move lists so every sample does real work —
/// half the churn re-pins entries in place, half bounces between a
/// move-back to `h(k)` (tombstoning the entry) and a re-pin (reusing the
/// tombstone) — exercising exactly the mutation mix a steady-state
/// rebalance cadence produces.
fn bench_mutation(c: &mut Criterion, samples: usize, sizes: &[usize]) {
    let mut group = c.benchmark_group("routing_mutation");
    for &table_size in sizes {
        // Whole-table rebuilds at 3e6 entries run tens of milliseconds;
        // cap the samples so the full sweep stays minutes, not hours.
        group.sample_size(if table_size >= 300_000 {
            samples.min(10)
        } else {
            samples
        });
        let entries: Vec<(Key, TaskId)> = (0..table_size as u64)
            .map(|k| (Key(k), TaskId((k % N_TASKS as u64) as u32)))
            .collect();
        group.bench_with_input(BenchmarkId::new("rebuild", table_size), &entries, |b, e| {
            b.iter(|| black_box(e).iter().copied().collect::<RoutingTable>().len())
        });

        let churn = (table_size / CHURN_DENOM).max(1);
        let mut f = assignment(table_size);
        // Destinations guaranteed ≠ h(k) (inserts) or = h(k) (removals).
        let pin = |f: &AssignmentFn, k: Key, off: u32| {
            TaskId((f.hash_route(k).0 + 1 + off) % N_TASKS as u32)
        };
        let moves_a: Vec<(Key, TaskId)> = (0..churn as u64)
            .map(Key)
            .map(|k| {
                if k.raw() % 2 == 0 {
                    (k, pin(&f, k, 0)) // re-pin in place
                } else {
                    (k, f.hash_route(k)) // move back: tombstone
                }
            })
            .collect();
        let moves_b: Vec<(Key, TaskId)> = (0..churn as u64)
            .map(Key)
            .map(|k| {
                if k.raw() % 2 == 0 {
                    (k, pin(&f, k, 1)) // re-pin elsewhere
                } else {
                    (k, pin(&f, k, 0)) // re-insert into the tombstone
                }
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("apply_delta", table_size),
            &(moves_a, moves_b),
            |b, (moves_a, moves_b)| {
                let mut flip = false;
                b.iter(|| {
                    let moves = if flip { moves_b } else { moves_a };
                    flip = !flip;
                    f.apply_delta(moves.iter().copied());
                    f.table().len()
                })
            },
        );
    }
    group.finish();
}

fn mean_ns(ms: &[Measurement], id: &str) -> Option<f64> {
    ms.iter()
        .find(|m| m.id == id)
        .map(|m| m.mean.as_nanos() as f64)
}

/// Serializes measurements (and derived per-key costs / speedups) to
/// `bench_results/routing.json`.
fn write_results(ms: &[Measurement], smoke: bool) {
    let keys_per_sample = (BATCH * REPS) as f64;
    let results: Vec<Json> = ms
        .iter()
        .map(|m| {
            Json::obj([
                ("id", Json::str(m.id.clone())),
                ("mean_ns", Json::lower(Json::Num(m.mean.as_nanos() as f64))),
                ("min_ns", Json::lower(Json::Num(m.min.as_nanos() as f64))),
                (
                    "ns_per_key",
                    Json::lower(Json::Num(m.mean.as_nanos() as f64 / keys_per_sample)),
                ),
                ("samples", Json::Int(m.samples as u64)),
            ])
        })
        .collect();
    // Table-maintenance win: one full rebuild over one 1%-churn delta
    // apply, per table size (the ≥10×-at-≥3e5 acceptance series).
    let mut mutation_speedups = Vec::new();
    for n in LARGE_SIZES {
        let rebuild_id = format!("rebuild/{n}");
        let delta_id = format!("apply_delta/{n}");
        if let (Some(r), Some(d)) = (mean_ns(ms, &rebuild_id), mean_ns(ms, &delta_id)) {
            let speedup = Json::Num(if d > 0.0 { r / d } else { 0.0 });
            mutation_speedups.push((n.to_string(), Json::higher(speedup)));
        }
    }
    let doc = Json::obj([
        ("bench", Json::str("routing")),
        ("n_tasks", Json::Int(N_TASKS as u64)),
        ("batch", Json::Int(BATCH as u64)),
        ("reps", Json::Int(REPS as u64)),
        ("churn_denom", Json::Int(CHURN_DENOM as u64)),
        ("smoke", Json::Bool(smoke)),
        ("results", Json::Arr(results)),
        (
            "mutation_speedup_delta_vs_rebuild",
            Json::Obj(mutation_speedups),
        ),
    ]);
    // Anchored at the workspace root (cargo runs bench binaries with the
    // package dir as CWD). Smoke runs (3 noisy samples) go to a separate,
    // untracked path so they can never clobber the committed full-run
    // trajectory in routing.json.
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "routing.smoke.json"
    } else {
        "routing.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}

fn main() {
    // `cargo bench --bench routing -- --test` (the CI smoke step) passes
    // `--test`; shrink the sample count and the large-domain sizes but
    // keep the JSON emission.
    let smoke = std::env::args().any(|a| a == "--test");
    let samples = if smoke { 3 } else { 40 };
    let sizes: &[usize] = if smoke {
        &LARGE_SIZES[..2]
    } else {
        &LARGE_SIZES
    };
    let mut c = Criterion::default();
    bench_sweep(&mut c, samples);
    bench_large_domain(&mut c, samples, sizes);
    bench_mutation(&mut c, samples, sizes);
    let ms = take_measurements();
    write_results(&ms, smoke);
}
