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
//! Window bytes are measured, not modelled: a counting global allocator
//! reports the heap held by the partitioner once the window is full.
//!
//! Results land in `bench_results/stats_round.json`; `--test` runs one
//! small `K` for one measured round and writes `stats_round.smoke.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use streambal_baselines::{readj, CoreBalancer, ReadjConfig};
use streambal_bench::json::{write_json, Json};
use streambal_core::{
    AssignmentFn, BalanceParams, IntervalStats, Key, Partitioner, RebalanceStrategy,
};
use streambal_hashring::FxHashSet;

const N_TASKS: usize = 4;
const WINDOW: usize = 5;
const THETA_MAX: f64 = 0.08;
/// A tolerance no load vector exceeds: the round is folded in and the
/// trigger evaluated, and that is all.
const NEVER: f64 = 1e9;
const HEAVY_KEYS: u64 = 8;

/// Heap bytes currently allocated by this process.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's contract for `alloc`, taken over as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    // SAFETY: the trait's contract for `dealloc`, taken over as is.
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `p` was returned by `alloc`/`realloc` above, i.e. by
        // `System`, with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }

    // SAFETY: the trait's contract for `realloc`, taken over as is.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

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
            let stat = streambal_core::KeyStat {
                freq: cost,
                cost,
                mem: 8 + key.raw() % 5,
            };
            (key, stat)
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

struct Timed {
    median_ms: f64,
    fired: usize,
    /// Heap the partitioner holds after the last round.
    held_bytes: usize,
}

/// Fills the window, then times `rounds` further `end_interval` calls.
fn time_rounds(name: &str, k: u64, theta_max: f64, rounds: u64) -> Timed {
    let hash = AssignmentFn::hash_only(N_TASKS);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut p = partitioner(name, k, theta_max);
    let mut ms = Vec::new();
    let mut fired = 0;
    for r in 0..WINDOW as u64 + rounds {
        let stats = round_stats(k, r, &hash);
        let start = Instant::now();
        let outcome = p.end_interval(stats);
        if r >= WINDOW as u64 {
            ms.push(start.elapsed().as_secs_f64() * 1e3);
            fired += usize::from(outcome.is_some());
        }
    }
    let held_bytes = LIVE_BYTES.load(Ordering::Relaxed) - before;
    ms.sort_by(f64::total_cmp);
    Timed {
        median_ms: ms[ms.len() / 2],
        fired,
        held_bytes,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (sizes, rounds): (&[u64], u64) = if smoke {
        (&[2_000], 1)
    } else {
        (&[20_000, 76_000, 300_000, 1_000_000], 9)
    };
    println!("stats_round: end_interval per round, w = {WINDOW}, {N_TASKS} tasks");
    let mut by_size = Vec::new();
    for &k in sizes {
        let last = WINDOW as u64 + rounds;
        let live: FxHashSet<Key> = (last - WINDOW as u64..last)
            .flat_map(|r| round_keys(k, r))
            .collect();
        let mut fields = vec![
            ("name", Json::str(format!("k{k}"))),
            ("keys_per_round", Json::Int(k)),
            ("live_keys", Json::Int(live.len() as u64)),
        ];
        println!("\n  K = {k} ({} live keys in the window)", live.len());
        for name in ["Mixed", "MinTable", "MinMig", "Readj"] {
            let idle = time_rounds(name, k, NEVER, rounds);
            let firing = time_rounds(name, k, THETA_MAX, rounds);
            assert_eq!(idle.fired, 0, "{name}: θmax = {NEVER} must never plan");
            assert_eq!(
                firing.fired, rounds as usize,
                "{name}: a task at twice the mean must plan every round"
            );
            let bytes_per_key = idle.held_bytes as f64 / live.len() as f64;
            println!(
                "    {name:<9} idle {:>8.3} ms   firing {:>9.3} ms   window {bytes_per_key:>6.1} B/live key",
                idle.median_ms, firing.median_ms
            );
            fields.push((
                name,
                Json::obj([
                    ("idle_end_interval_ms", Json::Num(idle.median_ms)),
                    ("firing_end_interval_ms", Json::Num(firing.median_ms)),
                    ("window_bytes_per_live_key", Json::Num(bytes_per_key)),
                ]),
            ));
        }
        by_size.push(Json::obj(fields));
    }
    let doc = Json::obj([
        ("bench", Json::str("stats_round")),
        ("n_tasks", Json::Int(N_TASKS as u64)),
        ("window_intervals", Json::Int(WINDOW as u64)),
        ("theta_max", Json::Num(THETA_MAX)),
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
