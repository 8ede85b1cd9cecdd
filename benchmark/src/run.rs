//! One engine run of one workload, and the metrics read off it.
//!
//! Run kinds (each its own child process in the CLI, so process CPU and
//! peak RSS are per run):
//!
//! * `sat` — closed loop: the feeder never waits. A fixed interval
//!   count sized from the workload's frozen nominal rate; measured from
//!   the feeder call that hands out the first post-warm-up interval to
//!   `Engine::run` returning.
//! * `open` — open loop: interval `i` (all its tuples stamped due at
//!   `i·T`, a micro-batch arrival) is released no earlier than `i·T`.
//!   If the source calls the feeder late, the lateness is recorded and
//!   the tuples keep their scheduled due time.
//! * `budget` — `sat` unpaced, for the workloads that have a CPU-bound
//!   variant (`plane`, `wide`): the CPU-bound saturation numbers, which
//!   this sandbox cannot measure steadily enough to bound. On `drift`
//!   and `burst` worker capacity is the limit by design, `sat` is the
//!   budget run and no second one is made.
//! * `traced` — the budget run again with every probe, the schedstat
//!   reads, the span log and the isolated ceilings on; its numbers are
//!   the per-layer metrics.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streambal_baselines::CoreBalancer;
use streambal_core::{BalanceParams, LoadSummary, Partitioner, RebalanceStrategy};
use streambal_elastic::{HotKeyPolicy, SplitPolicy};
use streambal_metrics::Cdf;
use streambal_runtime::{
    Collector, Engine, EngineConfig, EngineReport, EventKind, OpLabel, Operator, Outcome,
    SumCollector, WordCountOp,
};

use crate::ceilings;
use crate::probes::{
    peak_rss_mib, process_cpu_ticks, Clock, ControllerLog, Feeder, MergeLog, ProbeCollector,
    ProbeOp, ProbePartitioner, ProbeSplitPolicy, Release, SourceLog, StallMeter, Stamp, WorkerLog,
};
use crate::report::{median, Metric};
use crate::workloads::{generate, Inputs, Workload, LAT_LIMIT_MS, N_WORKERS, T_MS, WARMUP_FRAC};

/// `/proc/self/stat` counts CPU in ticks of 1/100 s on every Linux
/// configuration in use (`getconf CLK_TCK`).
const US_PER_TICK: f64 = 10_000.0;
/// Partial-emission period of the `burst` workload's word count.
const PARTIAL_PERIOD: u64 = 256;
/// Input set-ups per run; the run's set-up time is their median. The
/// first two or three run on cold pages and take up to twice as long.
pub const SETUP_REPEATS: usize = 9;
/// A host stall this long is listed among the run's `problems`: it is
/// enough to move a latency row, and a reader of a surprising number
/// should know the host, not the engine, made it.
const HOST_STALL: Duration = Duration::from_millis(150);

/// The run kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sat,
    Open,
    Budget,
    Traced,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Sat, Kind::Open, Kind::Budget, Kind::Traced];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Sat => "sat",
            Kind::Open => "open",
            Kind::Budget => "budget",
            Kind::Traced => "traced",
        }
    }

    pub fn from_name(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The runs one workload needs: for the `--trace 0` result line
    /// (`Some(false)`), for the `--trace 1` line (`Some(true)`: the
    /// traced run and the untraced one it is compared with), or all of
    /// them. A `budget` run is made only where it differs from `sat`.
    pub fn for_workload(w: &Workload, trace: Option<bool>) -> Vec<Kind> {
        let own_budget_run = w.cpu_nominal_tps.is_some();
        match (trace, own_budget_run) {
            (Some(false), _) => vec![Kind::Sat, Kind::Open],
            (Some(true), true) => vec![Kind::Budget, Kind::Traced],
            (Some(true), false) => vec![Kind::Sat, Kind::Traced],
            (None, true) => Kind::ALL.to_vec(),
            (None, false) => vec![Kind::Sat, Kind::Open, Kind::Traced],
        }
    }

    /// Share of a workload's `--seconds` this kind measures for.
    pub fn share(self) -> f64 {
        match self {
            Kind::Sat | Kind::Budget | Kind::Traced => 0.4,
            Kind::Open => 0.6,
        }
    }
}

/// How many intervals a run of `kind` lasting about `seconds` feeds.
pub fn n_intervals(w: &Workload, kind: Kind, seconds: f64) -> u64 {
    let n = match kind {
        Kind::Open => seconds * 1000.0 / T_MS as f64,
        Kind::Sat => seconds * w.sat_nominal_tps as f64 / w.interval_tuples() as f64,
        Kind::Budget | Kind::Traced => {
            let nominal = w.cpu_nominal_tps.unwrap_or(w.sat_nominal_tps);
            seconds * nominal as f64 / w.interval_tuples() as f64
        }
    };
    (n.round() as u64).max(4)
}

/// First measured interval of an `n`-interval run.
pub fn window_from(n: u64) -> u64 {
    ((n as f64 * WARMUP_FRAC).ceil() as u64).clamp(1, n - 1)
}

/// The shared slots the probes publish into.
#[derive(Debug, Default)]
pub struct Logs {
    pub source: Arc<Mutex<SourceLog>>,
    pub workers: Arc<Mutex<Vec<WorkerLog>>>,
    pub merge: Arc<Mutex<MergeLog>>,
    pub controller: Arc<Mutex<ControllerLog>>,
}

fn take<T: Default>(slot: &Mutex<T>) -> T {
    slot.lock()
        .map(|mut g| std::mem::take(&mut *g))
        .unwrap_or_default()
}

/// The common engine shape of every workload.
fn engine_config(split: Option<Box<dyn SplitPolicy>>) -> EngineConfig {
    EngineConfig {
        n_workers: N_WORKERS,
        max_workers: N_WORKERS,
        batch_size: 256,
        channel_capacity: 1024,
        window: 5,
        spin_work: 0,
        split,
        ..EngineConfig::default()
    }
}

/// Runs the engine once over `inputs`. With `probes` off the
/// partitioner, operator, collector and split policy go in bare (the
/// transparency test compares the two); the feeder is the generator
/// itself and always present.
#[allow(clippy::too_many_arguments)]
pub fn engine_run(
    w: &Workload,
    inputs: &Arc<Inputs>,
    n: u64,
    release: Release,
    trace: bool,
    probes: bool,
    pace_ns: u64,
    clock: Clock,
    deadline: Duration,
) -> (EngineReport, Logs) {
    let logs = Logs::default();
    let balancer: Box<dyn Partitioner> = Box::new(CoreBalancer::new(
        N_WORKERS,
        5,
        RebalanceStrategy::Mixed,
        BalanceParams {
            table_max: w.table_max,
            ..BalanceParams::default()
        },
    ));
    let policy: Option<Box<dyn SplitPolicy>> = w
        .split_capacity
        .map(|capacity| Box::new(HotKeyPolicy::new(capacity)) as Box<dyn SplitPolicy>);
    let merged = policy.is_some();
    let word_count = || {
        if merged {
            WordCountOp::with_partial_emission(PARTIAL_PERIOD)
        } else {
            WordCountOp::new()
        }
    };
    let (mut partitioner, mut split) = (balancer, policy);
    let mut collector: Box<dyn Collector> = Box::new(SumCollector::new());
    if probes {
        let ctl = &logs.controller;
        partitioner = Box::new(ProbePartitioner::new(
            partitioner,
            clock,
            trace,
            Arc::clone(ctl),
        ));
        split = split.map(|p| {
            Box::new(ProbeSplitPolicy::new(p, clock, Arc::clone(ctl))) as Box<dyn SplitPolicy>
        });
        collector = Box::new(ProbeCollector::new(
            SumCollector::new(),
            clock,
            trace,
            Arc::clone(&logs.merge),
        ));
    }
    let mut feeder = Feeder::new(
        Arc::clone(inputs),
        n,
        window_from(n),
        release,
        clock,
        deadline,
        trace,
        Arc::clone(&logs.source),
    );
    let key_space = inputs.key_space;
    let worker_logs = Arc::clone(&logs.workers);
    let report = Engine::run(
        engine_config(split),
        partitioner,
        |id| -> Box<dyn Operator> {
            if probes {
                Box::new(ProbeOp::new(
                    word_count(),
                    id.index(),
                    key_space,
                    pace_ns,
                    clock,
                    trace,
                    Arc::clone(&worker_logs),
                ))
            } else {
                Box::new(word_count())
            }
        },
        move |i| feeder.next(i),
        merged.then_some(collector),
    );
    (report, logs)
}

/// One span of the traced run: a named stretch of one thread's time,
/// `id` = the interval it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: u64,
    pub parent: Option<String>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    /// Tuples fed.
    pub attempted: u64,
    /// Tuples not accounted for exactly, plus engine-reported errors.
    pub failed: u64,
    /// Human-readable reasons behind `failed` (and warnings).
    pub problems: Vec<String>,
    pub input_hash: u64,
    /// One sample per input set-up, seconds.
    pub setup_s: Vec<f64>,
    pub spans: Vec<Span>,
}

/// Generates the inputs [`SETUP_REPEATS`] times (timing each) and runs
/// the workload once.
pub fn run(w: &Workload, kind: Kind, seed: u64, seconds: f64) -> RunOutput {
    let n = n_intervals(w, kind, seconds);
    let mut gen_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        inputs = Some(generate(w, seed, n));
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = Arc::new(inputs.expect("SETUP_REPEATS > 0"));
    let release = match kind {
        Kind::Open => Release::Open {
            period_ns: T_MS * 1_000_000,
        },
        Kind::Sat | Kind::Budget | Kind::Traced => Release::Closed,
    };
    let pace_ns = match kind {
        Kind::Sat | Kind::Open => w.pace_ns,
        // Unpaced where the workload has a CPU-bound variant.
        Kind::Budget | Kind::Traced if w.cpu_nominal_tps.is_some() => 0,
        Kind::Budget | Kind::Traced => w.pace_ns,
    };
    // Safety net only: a machine several times slower than the one the
    // nominal rates were frozen on still ends inside the time cap.
    let deadline = Duration::from_secs_f64(seconds * 2.5 + 5.0);
    let trace = kind == Kind::Traced;
    let stalls = StallMeter::start();
    let clock = Clock::start();
    let (report, logs) = engine_run(
        w, &inputs, n, release, trace, true, pace_ns, clock, deadline,
    );
    let end_ns = clock.now_ns();
    let (cpu_ticks_end, peak_rss) = (process_cpu_ticks(), peak_rss_mib());
    let stall = stalls.worst_oversleep();

    let mut out = RunOutput {
        input_hash: inputs.hash,
        ..RunOutput::default()
    };
    if stall >= HOST_STALL {
        out.problems.push(format!(
            "the host stalled the process for {} ms during the run",
            stall.as_millis()
        ));
    }
    let source = take(&logs.source);
    let mut workers = take(&logs.workers);
    workers.sort_by_key(|l| l.worker);
    let merge = take(&logs.merge);
    let controller = take(&logs.controller);
    let n_fed = source.recs.len() as u64;
    let from = window_from(n) as usize;
    if source.truncated || from >= source.recs.len() {
        out.problems.push(format!(
            "run cut short by the safety deadline after {n_fed} of {n} intervals"
        ));
    }
    // Engine start-up (spawns, initial view) belongs to set-up: it ends
    // at the first feeder call.
    let startup_s = source
        .recs
        .first()
        .map_or(0.0, |r| r.call.wall_ns as f64 / 1e9);
    out.setup_s = gen_s.iter().map(|g| g + startup_s).collect();

    check(
        &mut out,
        &inputs,
        &report,
        &workers,
        n_fed,
        w.split_capacity.is_some(),
    );

    let window = source.recs.get(from..).unwrap_or(&[]);
    let window_tuples: u64 = window.iter().map(|r| r.tuples).sum();
    let start_ns = window.first().map_or(0, |r| r.call.wall_ns);
    let wall_s = end_ns.saturating_sub(start_ns) as f64 / 1e9;
    let tps = (wall_s > 0.0 && window_tuples > 0).then(|| window_tuples as f64 / wall_s);
    let budget_metrics = |out: &mut RunOutput| {
        out.metrics.push(Metric::named("budget.sat_tps", tps));
        let cpu_us = cpu_ticks_end
            .zip(source.cpu_ticks_at_window)
            .map(|(e, s)| (e - s) as f64 * US_PER_TICK);
        out.metrics.push(Metric::named(
            "budget.cpu_us_per_ktuple",
            cpu_us.map(|c| c / (window_tuples as f64 / 1000.0)),
        ));
    };
    match kind {
        Kind::Sat => {
            out.metrics.push(Metric::named("sat_tps", tps));
            // Without a CPU-bound variant this is the budget run too.
            if w.cpu_nominal_tps.is_none() {
                budget_metrics(&mut out);
            }
        }
        Kind::Budget => budget_metrics(&mut out),
        Kind::Open => open_metrics(&mut out, &source, &workers, from, peak_rss),
        Kind::Traced => {
            out.metrics.push(Metric::named("trace.sat_tps", tps));
            layer_metrics(
                &mut out,
                w,
                &inputs,
                &report,
                &source,
                &workers,
                &merge,
                &controller,
                from,
                pace_ns,
            );
            out.spans = spans(&report, &source, &workers, &merge, &controller);
        }
    }
    out
}

/// Output checks: any miss is counted into `failed`.
fn check(
    out: &mut RunOutput,
    inputs: &Inputs,
    report: &EngineReport,
    workers: &[WorkerLog],
    n_fed: u64,
    merged: bool,
) {
    let reference = inputs.reference(n_fed);
    out.attempted = reference.iter().sum();
    let mut fail = |n: u64, what: String| {
        if n > 0 {
            out.failed += n;
            out.problems.push(what);
        }
    };
    fail(
        report.processed.abs_diff(out.attempted),
        format!("processed {} != fed {}", report.processed, out.attempted),
    );
    let mut off = 0u64;
    for (key, &want) in reference.iter().enumerate() {
        let seen: u64 = workers.iter().map(|l| u64::from(l.counts[key])).sum();
        off += seen.abs_diff(want);
    }
    off += workers.iter().map(|l| l.stray).sum::<u64>();
    fail(
        off,
        format!("{off} tuples off the per-key reference at the probes"),
    );
    if merged {
        let want: Vec<(u64, u64)> = reference
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| (k as u64, c))
            .collect();
        if report.collector_result != want {
            let got: u64 = report.collector_result.iter().map(|&(_, c)| c).sum();
            fail(
                got.abs_diff(out.attempted).max(1),
                "merge-stage result differs from the per-key reference".into(),
            );
        }
    }
    fail(
        report.protocol_errors.len() as u64,
        format!("protocol errors: {:?}", report.protocol_errors),
    );
    fail(
        report.faults.len() as u64,
        format!("fault ledger not empty: {:?}", report.faults),
    );
    fail(
        report.lost_tuples.iter().map(|&(_, c)| c).sum(),
        format!("lost tuples: {:?}", report.lost_tuples),
    );
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Latency (due → keyed-stage completion), goodput and memory of the
/// open-loop run, over the post-warm-up intervals.
fn open_metrics(
    out: &mut RunOutput,
    source: &SourceLog,
    workers: &[WorkerLog],
    from: usize,
    peak_rss: Option<f64>,
) {
    // One micro-batch arrives per interval; its latency quantiles are
    // the batch's drain profile. Averaging the per-interval quantiles
    // weighs every interval once, so a single stalled interval cannot
    // own the tail the way it owns a whole-run p99.
    let mut by_interval: Vec<Vec<f64>> = vec![Vec::new(); source.recs.len().saturating_sub(from)];
    for &(iv, us) in workers.iter().flat_map(|l| l.lat.iter()) {
        if let Some(slot) = (iv as usize)
            .checked_sub(from)
            .and_then(|i| by_interval.get_mut(i))
        {
            slot.push(f64::from(us) / 1000.0);
        }
    }
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let (mut samples, mut within) = (0u64, 0.0);
    for interval in by_interval {
        let n = interval.len() as f64;
        let mut cdf = Cdf::from_samples(interval);
        p50s.extend(cdf.percentile(0.50));
        p99s.extend(cdf.percentile(0.99));
        within += cdf.fraction_below(LAT_LIMIT_MS as f64) * n;
        samples += n as u64;
    }
    out.metrics
        .push(Metric::named("lat_p50_ms", mean(&p50s)).with_samples(samples));
    out.metrics
        .push(Metric::named("lat_p99_ms", mean(&p99s)).with_samples(samples));
    // A tuple that was lost never completes: it misses any limit.
    let fed: u64 = source
        .recs
        .get(from..)
        .unwrap_or(&[])
        .iter()
        .map(|r| r.tuples)
        .sum();
    let seen: u64 = workers
        .iter()
        .flat_map(|l| l.per_interval.iter().skip(from))
        .map(|&c| u64::from(c))
        .sum();
    let goodput = (samples > 0 && fed > 0)
        .then(|| within / samples as f64 * (seen.min(fed) as f64 / fed as f64));
    out.metrics
        .push(Metric::named("goodput_frac", goodput).with_samples(samples));
    out.metrics.push(Metric::named("peak_rss_mb", peak_rss));
    // How late the source could start on each interval: the generator's
    // own lag. Ending later than one period means the backlog grows.
    let late: Vec<f64> = source
        .recs
        .iter()
        .map(|r| ms(r.build_ns.saturating_sub(r.due_ns)))
        .collect();
    let late_end = late.last().copied();
    out.metrics.push(Metric::named(
        "source.late_ms_max",
        late.iter().copied().reduce(f64::max),
    ));
    out.metrics
        .push(Metric::named("source.late_ms_end", late_end));
    if late_end.is_some_and(|l| l > T_MS as f64) {
        out.problems.push(format!(
            "unsustained: the source ended {:.0} ms behind schedule (> T = {T_MS} ms)",
            late_end.unwrap_or(0.0)
        ));
    }
}

/// `(on-CPU, run-queue)` ns between two stamps; `None` off Linux.
fn sched_delta(a: &Stamp, b: &Stamp) -> Option<(f64, f64)> {
    let ((c0, q0), (c1, q1)) = (a.sched?, b.sched?);
    Some((
        (c1.saturating_sub(c0)) as f64,
        (q1.saturating_sub(q0)) as f64,
    ))
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Nearest-rank percentile of `samples`; `None` when there are none.
fn percentile(samples: impl IntoIterator<Item = f64>, p: f64) -> Option<f64> {
    Cdf::from_samples(samples).percentile(p)
}

/// The per-layer budget, read off the traced run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut RunOutput,
    w: &Workload,
    inputs: &Inputs,
    report: &EngineReport,
    source: &SourceLog,
    workers: &[WorkerLog],
    merge: &MergeLog,
    controller: &ControllerLog,
    from: usize,
    pace_ns: u64,
) {
    let mut push = |name: &str, value: Option<f64>| {
        out.metrics.push(Metric::named(name, value));
    };
    let window = source.recs.get(from..).unwrap_or(&[]);
    let tuples: f64 = window.iter().map(|r| r.tuples as f64).sum();
    let n_window = window.len();

    // workloads (generator) and the runtime::engine source loop.
    if let Some(first) = window.first() {
        let wall = (source.end.wall_ns - first.call.wall_ns) as f64;
        let build: f64 = window.iter().map(|r| (r.ret_ns - r.build_ns) as f64).sum();
        push("gen.feeder_busy_frac", Some(build / wall));
        push("source.tuples", Some(tuples));
        let d = sched_delta(&first.call, &source.end);
        push("source.cpu_ns_per_tuple", d.map(|(c, _)| c / tuples));
        push("source.busy_frac", d.map(|(c, _)| c / wall));
        push("source.runq_frac", d.map(|(_, q)| q / wall));
        push(
            "source.blocked_frac",
            d.map(|(c, q)| (1.0 - (c + q) / wall).max(0.0)),
        );
    }

    // core::routing / runtime::router.
    let mut entries: Vec<f64> = Vec::new();
    for e in &report.trace.events {
        if let EventKind::RouterSnapshot { table_entries, .. } = e.kind {
            entries.push(table_entries as f64);
        }
    }
    push(
        "routing.table_entries_max",
        entries.iter().copied().reduce(f64::max),
    );
    push("routing.table_entries_end", entries.last().copied());
    let fired: Vec<_> = controller
        .plans
        .iter()
        .filter(|p| p.moves.is_some())
        .collect();
    push(
        "routing.delta_installs_frac",
        (!fired.is_empty())
            .then(|| fired.iter().filter(|p| p.delta).count() as f64 / fired.len() as f64),
    );
    push(
        "routing.route_batch_ns_per_tuple",
        controller
            .final_view
            .clone()
            .map(|v| ceilings::route_batch_ns_per_tuple(v, inputs.play(0))),
    );

    // vendor/crossbeam and metrics, isolated.
    push(
        "channel.ns_per_tuple",
        Some(ceilings::channel_ns_per_tuple()),
    );
    push("metrics.hist_record_ns", Some(ceilings::hist_record_ns()));

    // runtime::worker + operator. Per-interval boundary stamps: `ends[i]`
    // closes interval `i`, so the window runs ends[from-1] → ends[last].
    let mut busy = Vec::new();
    let mut idle = Vec::new();
    let mut runq = Vec::new();
    let mut cpu_total = 0.0;
    let mut sched_ok = true;
    for l in workers {
        let (Some(a), Some(b)) = (
            l.ends.get(from.saturating_sub(1)),
            l.ends.get(from + n_window - 1),
        ) else {
            continue;
        };
        let wall = (b.wall_ns - a.wall_ns) as f64;
        match sched_delta(a, b) {
            Some((c, q)) => {
                cpu_total += c;
                // A paced worker is busy for its service time, most of
                // which it spends asleep rather than on the CPU.
                let seen: u64 = l.per_interval[from..].iter().map(|&n| u64::from(n)).sum();
                let service = c.max((seen * pace_ns) as f64);
                busy.push((service / wall).min(1.0));
                runq.push(q / wall);
                idle.push((1.0 - (service + q) / wall).max(0.0));
            }
            None => sched_ok = false,
        }
    }
    let sched = |v: Option<f64>| v.filter(|_| sched_ok);
    push("worker.cpu_ns_per_tuple", sched(Some(cpu_total / tuples)));
    push("worker.busy_frac_mean", sched(mean(&busy)));
    push(
        "worker.busy_frac_max",
        sched(busy.iter().copied().reduce(f64::max)),
    );
    push("worker.idle_frac_mean", sched(mean(&idle)));
    push("worker.runq_frac_mean", sched(mean(&runq)));
    let op_ns = workers
        .iter()
        .flat_map(|l| l.op_ns.iter().map(|&n| f64::from(n)));
    push("worker.op_ns_per_tuple", percentile(op_ns, 0.5));
    push(
        "worker.state_keys_end",
        Some(workers.iter().map(|l| l.state_keys_end as f64).sum()),
    );
    push(
        "worker.state_bytes_end",
        Some(workers.iter().map(|l| l.state_bytes_end as f64).sum()),
    );

    // core::rebalance: θ per interval from the probes' per-worker counts.
    let mut theta = Vec::new();
    let mut skew = Vec::new();
    for i in from..from + n_window {
        let loads: Vec<u64> = workers
            .iter()
            .map(|l| u64::from(l.per_interval.get(i).copied().unwrap_or(0)))
            .collect();
        if loads.len() == N_WORKERS && loads.iter().sum::<u64>() > 0 {
            let s = LoadSummary::new(loads);
            theta.push(s.max_theta());
            skew.push(s.skewness());
        }
    }
    push("worker.tuples_max_over_mean", mean(&skew));
    let theta_max = BalanceParams::default().theta_max;
    push("rebalance.theta_mean", mean(&theta));
    push(
        "rebalance.theta_p90",
        percentile(theta.iter().copied(), 0.9),
    );
    push(
        "rebalance.over_theta_max_frac",
        (!theta.is_empty())
            .then(|| theta.iter().filter(|&&t| t > theta_max).count() as f64 / theta.len() as f64),
    );
    push("rebalance.count", Some(report.rebalances as f64));
    let plan_ms = || controller.plans.iter().skip(from).map(|p| ms(p.dur_ns));
    push("rebalance.plan_ms_p50", percentile(plan_ms(), 0.5));
    push("rebalance.plan_ms_max", plan_ms().reduce(f64::max));
    push(
        "rebalance.moves_per_op",
        mean(
            &fired
                .iter()
                .filter_map(|p| p.moves)
                .map(|m| m as f64)
                .collect::<Vec<_>>(),
        ),
    );

    // core::stats + runtime::controller.
    let keys: Vec<f64> = controller
        .plans
        .iter()
        .skip(from)
        .map(|p| p.keys as f64)
        .collect();
    push("stats.keys_per_round", median(&keys));
    let mut interval_end_us = vec![None; source.recs.len()];
    let mut lag_ms = Vec::new();
    for e in &report.trace.events {
        match e.kind {
            EventKind::IntervalEnd { interval, .. } => {
                if let Some(slot) = interval_end_us.get_mut(interval as usize) {
                    *slot = Some(e.at_us);
                }
            }
            EventKind::Snapshot { interval, .. } if interval as usize >= from => {
                if let Some(Some(fed_at)) = interval_end_us.get(interval as usize) {
                    lag_ms.push(e.at_us.saturating_sub(*fed_at) as f64 / 1000.0);
                }
            }
            _ => {}
        }
    }
    push("controller.round_lag_ms_p50", percentile(lag_ms, 0.5));
    let ctl = controller
        .stamps
        .get(from.saturating_sub(1))
        .zip(controller.stamps.last())
        .and_then(|(a, b)| sched_delta(a, b))
        .map(|(c, _)| c / 1e6 / (controller.stamps.len() - from).max(1) as f64);
    push("controller.cpu_ms_per_interval", ctl);

    // runtime::engine protocol ops, from the engine's own span summaries.
    let ops = report.trace.span_summaries();
    let pause_ms: Vec<f64> = ops
        .iter()
        .map(|s| s.disruption_us() as f64 / 1000.0)
        .collect();
    push("protocol.ops", Some(ops.len() as f64));
    push(
        "protocol.aborted",
        Some(
            ops.iter()
                .filter(|s| s.outcome != Some(Outcome::Completed))
                .count() as f64,
        ),
    );
    push(
        "protocol.pause_ms_p50",
        percentile(pause_ms.iter().copied(), 0.5),
    );
    push(
        "protocol.pause_ms_max",
        Some(pause_ms.iter().copied().fold(0.0, f64::max)),
    );
    push("protocol.pause_ms_total", Some(pause_ms.iter().sum()));
    push(
        "migration.keys_per_op",
        Some(report.migrated_keys as f64 / ops.len().max(1) as f64),
    );
    push(
        "migration.mb_per_mtuple",
        Some(report.migrated_bytes as f64 / report.processed.max(1) as f64),
    );

    // elastic + the split layer.
    push("split.events", Some(report.split_events.len() as f64));
    let installed = ops
        .iter()
        .find(|s| s.op == OpLabel::Split)
        .map(|s| s.close_us * 1000);
    let react = inputs.burst.zip(installed).map(|((burst_from, _), at_ns)| {
        // The first interval fed entirely under the split view.
        let first = source.recs.partition_point(|r| r.call.wall_ns < at_ns) as f64;
        first - burst_from as f64
    });
    push("split.react_intervals", react);
    let replicas: Vec<f64> = report
        .split_events
        .iter()
        .filter(|e| e.to > 1)
        .map(|e| e.to as f64)
        .collect();
    push("split.replicas_mean", Some(mean(&replicas).unwrap_or(0.0)));
    let decide_us = controller.splits.iter().map(|s| s.dur_ns as f64 / 1000.0);
    push("elastic.decide_us_p50", percentile(decide_us, 0.5));

    // runtime::merge: merge-plane tuples per input tuple is the
    // communication the split layer's replica fan-out costs.
    let fed: f64 = source.recs.iter().map(|r| r.tuples as f64).sum();
    push("merge.tuples_per_input", Some(merge.tuples as f64 / fed));
    if let crate::workloads::Input::Burst { dom_share, .. } = w.input {
        push(
            "merge.replication_bound",
            mean(&replicas).map(|r| r * dom_share),
        );
    }
    // An idle merge stage cost nothing: 0, not "unmeasured".
    let fold = merge.stamps.first().zip(merge.stamps.last());
    let fold_cpu = fold.and_then(|(a, b)| sched_delta(a, b)).map(|(c, _)| c);
    let or_idle = |v: Option<f64>| if merge.tuples == 0 { Some(0.0) } else { v };
    push(
        "merge.cpu_ns_per_tuple",
        or_idle(fold_cpu.map(|c| c / merge.tuples as f64)),
    );
    push(
        "merge.busy_frac",
        or_idle(
            fold_cpu
                .zip(fold)
                .map(|(c, (a, b))| c / (b.wall_ns - a.wall_ns).max(1) as f64),
        ),
    );

    push("trace.events", Some(report.trace.events.len() as f64));
}

/// The span log of the traced run: roots `interval(i)` with children
/// per thread, protocol ops (and their phases) from the engine's own
/// flight recorder.
fn spans(
    report: &EngineReport,
    source: &SourceLog,
    workers: &[WorkerLog],
    merge: &MergeLog,
    controller: &ControllerLog,
) -> Vec<Span> {
    let mut out = Vec::new();
    let interval_of = |at_ns: u64| -> u64 {
        (source.recs.partition_point(|r| r.call.wall_ns <= at_ns) as u64).saturating_sub(1)
    };
    let child = |name: String, id: u64, start_ns: u64, end_ns: u64| Span {
        name,
        id,
        parent: Some("interval".into()),
        start_ns,
        end_ns,
    };
    for (i, r) in source.recs.iter().enumerate() {
        let id = i as u64;
        let shipped = source
            .recs
            .get(i + 1)
            .map_or(source.end.wall_ns, |n| n.call.wall_ns);
        let done = workers
            .iter()
            .filter_map(|l| l.ends.get(i))
            .map(|s| s.wall_ns)
            .max()
            .unwrap_or(shipped);
        out.push(Span {
            name: "interval".into(),
            id,
            parent: None,
            start_ns: r.call.wall_ns,
            end_ns: done.max(shipped),
        });
        out.push(child("gen.feed".into(), id, r.call.wall_ns, r.ret_ns));
        out.push(child("source.ship".into(), id, r.ret_ns, shipped));
    }
    for l in workers {
        for &(iv, start_ns) in &l.starts {
            if let Some(end) = l.ends.get(iv as usize) {
                out.push(child(
                    format!("worker{}.process", l.worker),
                    u64::from(iv),
                    start_ns,
                    end.wall_ns,
                ));
            }
        }
    }
    for (i, p) in controller.plans.iter().enumerate() {
        out.push(child(
            "controller.plan".into(),
            i as u64,
            p.start_ns,
            p.start_ns + p.dur_ns,
        ));
    }
    for s in report.trace.span_summaries() {
        let (open_ns, close_ns) = (s.open_us * 1000, s.close_us * 1000);
        let id = interval_of(open_ns);
        let name = format!("protocol.{}({})", s.op.as_str(), s.span);
        out.push(child(name.clone(), id, open_ns, close_ns));
        let mut at = s
            .phases
            .iter()
            .map(|&(_, us)| us * 1000)
            .skip(1)
            .chain([close_ns]);
        for &(phase, start_us) in &s.phases {
            out.push(Span {
                name: format!("phase.{}", phase.as_str()),
                id,
                parent: Some(name.clone()),
                start_ns: start_us * 1000,
                end_ns: at.next().unwrap_or(close_ns),
            });
        }
    }
    for pair in merge.stamps.windows(2) {
        out.push(child(
            "merge.fold".into(),
            interval_of(pair[0].wall_ns),
            pair[0].wall_ns,
            pair[1].wall_ns,
        ));
    }
    out
}

/// Renders spans as JSONL: one object per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in spans {
        let parent = match &s.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".into(),
        };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.id,
            s.start_ns as f64 / 1000.0,
            s.end_ns as f64 / 1000.0
        );
    }
    out
}
