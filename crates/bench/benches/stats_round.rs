//! Statistics-round bench: what one controller round costs, whether or
//! not it plans.
//!
//! The paper's plan-generation-time axis (Figs. 10a/12a) starts when a
//! plan is wanted. A controller pays before that: every interval it
//! folds the round's per-key reports into the statistics window and asks
//! "is any task above `(1+θmax)·L̄`?" — and on most rounds the answer is
//! no. This bench times `Partitioner::end_interval` on both kinds of
//! round, for the three table-building strategies and the Readj
//! baseline, at `K ∈ {2·10⁴, 7.6·10⁴, 3·10⁵, 10⁶}` keys reported per
//! round and `w = 5`, and measures what the window holds per live key.
//!
//! The rounds are synthetic and seeded by construction, not by an RNG:
//! round `r` reports the `K` keys starting at `r·K/20` in a domain of
//! `5K/4` (so a twentieth of the keys is new each round and the window
//! spans about `6K/5` live keys), and the keys hashing to task
//! `r mod n` cost three times the rest — one task carries twice the mean
//! every round, so a θmax = 0.08 controller plans every round while the
//! same rounds never trigger a θmax = 10⁹ one. Eight heavy keys clear
//! Readj's `σ·L̄` candidate threshold, so its search has something to
//! search.
//!
//! Each round is delivered in two shapes: as one shard (a report
//! collected from `(Key, KeyStat)` pairs, what the simulator and any
//! single reporter hand over) and as `N_TASKS` sealed shards, one per
//! task holding the keys that hash to it, absorbed into one report the
//! way the engine's controller collects its workers'.
//!
//! Bytes are measured, not modelled: a counting global allocator reports
//! the heap held by the partitioner once the window is full, the heap
//! the round's report holds when it reaches `end_interval`, and what a
//! MinTable, MinMig or Mixed plan adds (`plan_heap_peak_bytes`): the most
//! heap live while `rebalance_window` runs beyond what was live when it
//! was called. The plans run over a bare `StatsPlane`, so the fold before
//! each one, and the report it frees, stay outside the count. Rounds are
//! measured once the window's key index has its steady size: it last
//! grows in round `w`, the first whose fold sees the whole key domain.
//! These counts are exact and repeat run to run, so the run *aborts*
//! when either shape's report exceeds `ROUND_BYTES_PER_KEY_GUARD` bytes
//! per reported key — CI's smoke guards against a report copied on its
//! way in — and the smoke aborts when a plan's heap exceeds
//! `plan_guard`, a bound in the table entries, the moves and the
//! `FIRST_ROWS` keys per task a plan starts from: a plan holds the table
//! entries and a bounded number of each task's other keys, never a copy
//! of the window.
//!
//! Results land in `bench_results/stats_round.json`; `--test` runs one
//! `K` for one measured round and writes `stats_round.smoke.json`.

use std::time::Instant;

use streambal_baselines::{readj, CoreBalancer, ReadjConfig};
use streambal_bench::alloc::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use streambal_bench::json::{write_json, Json};
use streambal_core::rebalance::FIRST_ROWS;
use streambal_core::{
    needs_rebalance, rebalance_window, AssignmentFn, BalanceParams, IntervalStats, Key, KeyRecord,
    KeyStat, Partitioner, RebalanceStrategy, StatsAccumulator, StatsPlane, SETTLE_FRACTION,
};
use streambal_hashring::FxHashSet;

const N_TASKS: usize = 4;
const WINDOW: usize = 5;
const THETA_MAX: f64 = 0.08;
/// A tolerance no load vector exceeds: the round is folded in and the
/// trigger evaluated, and that is all.
const NEVER: f64 = 1e9;
const HEAVY_KEYS: u64 = 8;
/// Most heap bytes per reported key a round's report may hold, in
/// either shape: a 32-byte record per key, plus under 10 %.
const ROUND_BYTES_PER_KEY_GUARD: f64 = 35.0;
/// Most heap bytes a plan may add per row its guard counts: a held
/// key's 32-byte record and the arena's state beside it, or a built
/// table entry's slab slots and move — two records' worth.
const PLAN_BYTES_PER_ROW: usize = 2 * std::mem::size_of::<KeyRecord>();
/// Rounds before the measured ones: the window fills in `WINDOW`, and
/// its key index takes its steady size in the round after.
const WARM_UP: u64 = WINDOW as u64 + 1;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The keys round `r` reports.
fn round_keys(k: u64, r: u64) -> impl Iterator<Item = Key> {
    let domain = k + k / 4;
    (0..k).map(move |i| Key((r * (k / 20) + i) % domain))
}

fn round_stats(k: u64, r: u64, hash: &AssignmentFn) -> IntervalStats {
    let hot = r as usize % N_TASKS;
    round_keys(k, r)
        .map(|key| {
            let mut cost = if hash.hash_route(key).index() == hot {
                3
            } else {
                1
            };
            if key.raw() % (k / HEAVY_KEYS) == 0 {
                cost += k / 40;
            }
            (key, KeyStat::new(cost, cost, 8 + key.raw() % 5))
        })
        .collect()
}

fn partitioner(name: &str, k: u64, theta_max: f64) -> Box<dyn Partitioner> {
    let core = |strategy| -> Box<dyn Partitioner> {
        let params = BalanceParams {
            theta_max,
            table_max: k as usize,
            ..BalanceParams::default()
        };
        Box::new(CoreBalancer::new(N_TASKS, WINDOW, strategy, params))
    };
    match name {
        "Mixed" => core(RebalanceStrategy::Mixed),
        "MinTable" => core(RebalanceStrategy::MinTable),
        "MinMig" => core(RebalanceStrategy::MinMig),
        _ => Box::new(readj(
            N_TASKS,
            WINDOW,
            ReadjConfig {
                theta_max,
                ..ReadjConfig::default()
            },
        )),
    }
}

/// How a round's report reaches `end_interval`.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    /// One shard, collected from the round's records.
    OneShard,
    /// One sealed shard per task, absorbed into one report.
    Shards,
}

/// Round `r` in `shape`, and the heap bytes its report holds. A task's
/// accumulator outlives the round, as a worker's does, so only what
/// sealing and absorbing add is the round's.
fn round_report(
    k: u64,
    r: u64,
    hash: &AssignmentFn,
    shape: Shape,
    tasks: &mut [StatsAccumulator],
) -> (IntervalStats, usize) {
    let before = live_bytes();
    let stats = round_stats(k, r, hash);
    if shape == Shape::OneShard {
        return (stats, live_bytes() - before);
    }
    for (key, s) in stats.iter() {
        tasks[hash.hash_route(key).index()].add(key, s.freq, s.mem);
    }
    drop(stats);
    let before = live_bytes();
    let mut report = IntervalStats::new();
    for task in tasks {
        report.absorb(task.seal());
    }
    (report, live_bytes() - before)
}

struct Timed {
    median_ms: f64,
    fired: usize,
    /// Heap the partitioner holds after the last round.
    held_bytes: usize,
    /// Heap the last round's report held when it was handed over.
    round_bytes: usize,
}

/// Fills the window and warms it up, then times `rounds` further
/// `end_interval` calls.
fn time_rounds(name: &str, k: u64, theta_max: f64, rounds: u64, shape: Shape) -> Timed {
    let hash = AssignmentFn::hash_only(N_TASKS);
    // A round's cost is its tuple count: one unit per tuple.
    let mut tasks = vec![StatsAccumulator::new(1); N_TASKS];
    let before = live_bytes();
    let mut p = partitioner(name, k, theta_max);
    let mut ms = Vec::new();
    let mut fired = 0;
    let mut round_bytes = 0;
    for r in 0..WARM_UP + rounds {
        let stats;
        (stats, round_bytes) = round_report(k, r, &hash, shape, &mut tasks);
        let start = Instant::now();
        let outcome = p.end_interval(stats);
        if r >= WARM_UP {
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            fired += usize::from(outcome.is_some());
        }
    }
    let held_bytes = live_bytes() - before;
    ms.sort_by(f64::total_cmp);
    Timed {
        median_ms: ms[ms.len() / 2],
        fired,
        held_bytes,
        round_bytes,
    }
}

/// What one strategy's plans added to the heap over the measured rounds.
struct PlanHeap {
    /// The most heap one plan added.
    bytes: usize,
    /// The largest table one plan built.
    entries: usize,
    /// The largest share of its guard one plan used (see [`plan_guard`]).
    guard_share: f64,
}

/// The most heap a plan may add, in rows of `PLAN_BYTES_PER_ROW`: the
/// `table_in` entries of the table it starts from and `FIRST_ROWS` of
/// each task's other keys, which it holds; up to twice the keys it
/// `moves`, since a task's `m` doubles past the keys its drain takes;
/// and the `table_out` entries of the table it builds. None of these is
/// the number of keys in the window.
fn plan_guard(table_in: usize, moves: usize, table_out: usize) -> usize {
    PLAN_BYTES_PER_ROW * (table_in + N_TASKS * FIRST_ROWS + 2 * moves + table_out)
}

/// What `strategy`'s plans add to the heap, apart from the folds before
/// them: the rounds go through a bare `StatsPlane`, which plans and
/// installs as a `Rebalancer` with the default trigger policy does, and
/// each plan's peak is counted from the heap live once its round is
/// folded and its report freed.
fn plan_heap(strategy: RebalanceStrategy, k: u64, rounds: u64) -> PlanHeap {
    let hash = AssignmentFn::hash_only(N_TASKS);
    let params = BalanceParams {
        theta_max: THETA_MAX * SETTLE_FRACTION,
        table_max: k as usize,
        ..BalanceParams::default()
    };
    let mut plane = StatsPlane::new(N_TASKS, WINDOW);
    let mut most = PlanHeap {
        bytes: 0,
        entries: 0,
        guard_share: 0.0,
    };
    for r in 0..WARM_UP + rounds {
        plane.push(round_stats(k, r, &hash));
        if !needs_rebalance(&plane.loads(), THETA_MAX) {
            continue;
        }
        let table_in = plane.assignment().table().len();
        let before = live_bytes();
        reset_peak();
        let outcome = rebalance_window(plane.window(), strategy, &params);
        let bytes = peak_bytes() - before;
        if r >= WARM_UP {
            let (moves, entries) = (outcome.plan.keys_moved(), outcome.table.len());
            let guard = plan_guard(table_in, moves, entries);
            most.bytes = most.bytes.max(bytes);
            most.entries = most.entries.max(entries);
            most.guard_share = most.guard_share.max(bytes as f64 / guard as f64);
        }
        plane.install_rebalance(&outcome.table, outcome.plan.moves());
    }
    most
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (sizes, rounds): (&[u64], u64) = if smoke {
        (&[20_000], 1)
    } else {
        (&[20_000, 76_000, 300_000, 1_000_000], 9)
    };
    println!("stats_round: end_interval per round, w = {WINDOW}, {N_TASKS} tasks");
    let mut by_size = Vec::new();
    for &k in sizes {
        let last = WARM_UP + rounds;
        let live: FxHashSet<Key> = (last - WINDOW as u64..last)
            .flat_map(|r| round_keys(k, r))
            .collect();
        let mut fields = vec![
            ("name", Json::str(format!("k{k}"))),
            ("keys_per_round", Json::Int(k)),
            ("live_keys", Json::Int(live.len() as u64)),
        ];
        println!("\n  K = {k} ({} live keys in the window)", live.len());
        let mut round_bytes = [0.0; 2];
        for (name, strategy) in [
            ("Mixed", Some(RebalanceStrategy::Mixed)),
            ("MinTable", Some(RebalanceStrategy::MinTable)),
            ("MinMig", Some(RebalanceStrategy::MinMig)),
            ("Readj", None),
        ] {
            let mut rows = Vec::new();
            for (shape, label) in [(Shape::OneShard, "one_shard"), (Shape::Shards, "shards")] {
                let idle = time_rounds(name, k, NEVER, rounds, shape);
                let firing = time_rounds(name, k, THETA_MAX, rounds, shape);
                assert_eq!(idle.fired, 0, "{name}: θmax = {NEVER} must never plan");
                assert_eq!(
                    firing.fired, rounds as usize,
                    "{name}: a task at twice the mean must plan every round"
                );
                round_bytes[usize::from(shape == Shape::Shards)] =
                    idle.round_bytes as f64 / k as f64;
                let mut row = vec![
                    (
                        "idle_end_interval_ms",
                        Json::lower(Json::Num(idle.median_ms)),
                    ),
                    (
                        "firing_end_interval_ms",
                        Json::lower(Json::Num(firing.median_ms)),
                    ),
                ];
                print!(
                    "    {name:<9} {label:<9} idle {:>8.3} ms   firing {:>9.3} ms",
                    idle.median_ms, firing.median_ms
                );
                // The window is the same whichever shape fed it.
                if shape == Shape::OneShard {
                    let bytes_per_key = idle.held_bytes as f64 / live.len() as f64;
                    print!("   window {bytes_per_key:>6.1} B/live key");
                    row.push((
                        "window_bytes_per_live_key",
                        Json::lower(Json::Num(bytes_per_key)),
                    ));
                }
                println!();
                rows.push((label, Json::obj(row)));
            }
            // Readj plans over a copy of every record by design.
            if let Some(strategy) = strategy {
                let plan = plan_heap(strategy, k, rounds);
                println!(
                    "    {name:<9} plan heap {:>11} B ({} table entries, {:.0} % of its guard)",
                    plan.bytes,
                    plan.entries,
                    plan.guard_share * 1e2
                );
                assert!(
                    !smoke || plan.guard_share <= 1.0,
                    "{name}: a plan at K = {k} used {:.0} % of its heap guard",
                    plan.guard_share * 1e2
                );
                rows.push((
                    "plan_heap_peak_bytes",
                    Json::lower(Json::Int(plan.bytes as u64)),
                ));
                rows.push(("plan_table_entries", Json::Int(plan.entries as u64)));
            }
            fields.push((name, Json::obj(rows)));
        }
        let [one_bytes, shard_bytes] = round_bytes;
        println!(
            "    round report: one shard {one_bytes:.1} B/key, {N_TASKS} shards {shard_bytes:.1} B/key"
        );
        for (bytes, shape) in [(one_bytes, "a one-shard"), (shard_bytes, "a sharded")] {
            assert!(
                bytes <= ROUND_BYTES_PER_KEY_GUARD,
                "{shape} round holds {bytes:.1} B per reported key at K = {k}, over the \
                 {ROUND_BYTES_PER_KEY_GUARD} B guard"
            );
        }
        fields.push((
            "round_bytes_per_key",
            Json::obj([
                ("one_shard", Json::lower(Json::Num(one_bytes))),
                ("shards", Json::lower(Json::Num(shard_bytes))),
            ]),
        ));
        by_size.push(Json::obj(fields));
    }
    let doc = Json::obj([
        ("bench", Json::str("stats_round")),
        ("n_tasks", Json::Int(N_TASKS as u64)),
        ("window_intervals", Json::Int(WINDOW as u64)),
        ("theta_max", Json::Num(THETA_MAX)),
        ("warm_up_rounds", Json::Int(WARM_UP)),
        ("measured_rounds", Json::Int(rounds)),
        ("smoke", Json::Bool(smoke)),
        ("sizes", Json::Arr(by_size)),
    ]);
    let path = streambal_bench::figure::results_dir().join(if smoke {
        "stats_round.smoke.json"
    } else {
        "stats_round.json"
    });
    match write_json(&path, &doc) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
