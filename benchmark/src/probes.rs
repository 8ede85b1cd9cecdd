//! Probes: measuring the engine from outside, with no engine edits.
//!
//! Everything the engine runs on its own threads that the caller
//! supplies is wrapped: the feeder closure (source thread), the keyed
//! operator (worker threads), the collector (merge thread), and the
//! partitioner and split policy (controller = calling thread). Each
//! probe reads one monotonic clock and — in traced runs only — the
//! calling thread's `/proc/thread-self/schedstat` at interval
//! boundaries, so every engine thread gets on-CPU / run-queue / blocked
//! shares without the engine naming or knowing about it.
//!
//! Probes forward *every* trait method, defaulted ones included
//! (`tests/transparent.rs` pins it); untraced probes read the clock at
//! most once per [`TICK`] tuples.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use streambal_core::{IntervalStats, Key, Partitioner, RebalanceOutcome, RoutingView, TaskId};
use streambal_elastic::{SplitDecision, SplitObservation, SplitPolicy};
use streambal_runtime::{Collector, Operator, Tuple};

use crate::workloads::Inputs;

/// Tuples between two probe clock reads on a worker.
pub const TICK: u64 = 64;
/// A paced worker sleeps once it is at least this far ahead of its
/// virtual deadline; shorter sleeps cost more in overshoot than they pace.
const MIN_SLEEP_NS: u64 = 1_000_000;
/// The most sleep overshoot a paced worker may make up for afterwards;
/// a longer stall (the thread was descheduled) is capacity lost.
const MAX_OVERSLEEP_NS: u64 = 5_000_000;

/// The benchmark's clock: one epoch shared by every probe of a run.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One reading of the calling thread's clocks. `sched` is
/// `(on-CPU ns, run-queue-wait ns)` from `/proc/thread-self/schedstat`,
/// `None` where that file does not exist (non-Linux hosts).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stamp {
    pub wall_ns: u64,
    pub sched: Option<(u64, u64)>,
}

impl Stamp {
    pub fn now(clock: Clock) -> Stamp {
        Stamp {
            wall_ns: clock.now_ns(),
            sched: thread_sched(),
        }
    }
}

/// `(on-CPU ns, run-queue-wait ns)` of the calling thread so far.
pub fn thread_sched() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_ascii_whitespace();
    let cpu = fields.next()?.parse().ok()?;
    let runq = fields.next()?.parse().ok()?;
    Some((cpu, runq))
}

/// Process CPU (user + system) in clock ticks, from `/proc/self/stat`.
pub fn process_cpu_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Measures host stalls: a thread that only sleeps [`StallMeter::TICK`]
/// at a time and notes how late it wakes. This sandbox's host freezes
/// the whole VM for 0.3–0.5 s now and then (measured: about one
/// 20-second run in ten to twenty, idle or loaded); a sleeper that wakes
/// that late was not run at all, and neither was the engine. The run is
/// kept as measured; the stall is reported beside it.
pub struct StallMeter {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Duration>,
}

impl StallMeter {
    const TICK: Duration = Duration::from_millis(5);

    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut worst = Duration::ZERO;
            let mut last = Instant::now();
            // Relaxed: the flag publishes no data.
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Self::TICK);
                let now = Instant::now();
                worst = worst.max((now - last).saturating_sub(Self::TICK));
                last = now;
            }
            worst
        });
        StallMeter { stop, handle }
    }

    /// Stops the thread and returns the longest it overslept.
    pub fn worst_oversleep(self) -> Duration {
        self.stop.store(true, Ordering::Relaxed);
        // A panicked meter saw nothing.
        self.handle.join().unwrap_or(Duration::ZERO)
    }
}

fn publish<T>(slot: &Mutex<T>, f: impl FnOnce(&mut T)) {
    // A poisoned lock means another probe panicked mid-publish; its data
    // is suspect either way and the run's checks will fail on the gap.
    if let Ok(mut guard) = slot.lock() {
        f(&mut guard);
    }
}

// ------------------------------------------------------------------
// Source thread: the feeder
// ------------------------------------------------------------------

/// How the feeder releases intervals.
#[derive(Debug, Clone, Copy)]
pub enum Release {
    /// Closed loop: never waits; tuples are stamped due at creation.
    Closed,
    /// Open loop: interval `i` is due (and stamped) at `i · period` and
    /// released no earlier.
    Open { period_ns: u64 },
}

/// What the feeder saw of one interval.
#[derive(Debug, Clone, Copy)]
pub struct FeedRec {
    /// When the source called the feeder (previous interval shipped).
    pub call: Stamp,
    /// The due time stamped on the interval's tuples.
    pub due_ns: u64,
    /// When tuple construction began (after any open-loop wait).
    pub build_ns: u64,
    /// When the feeder returned the interval.
    pub ret_ns: u64,
    pub tuples: u64,
}

/// Everything the feeder recorded, published at its final call.
#[derive(Debug, Default)]
pub struct SourceLog {
    pub recs: Vec<FeedRec>,
    /// The source's final feeder call (the one answered `None`).
    pub end: Stamp,
    /// Process CPU ticks at the first measured interval's feeder call.
    pub cpu_ticks_at_window: Option<u64>,
    /// True when the safety deadline cut the run short.
    pub truncated: bool,
}

/// The feeder closure's state: hands the engine pre-generated intervals.
pub struct Feeder {
    inputs: Arc<Inputs>,
    n_intervals: u64,
    window_from: u64,
    release: Release,
    clock: Clock,
    /// Wall-clock safety net: a run slower than this stops feeding.
    deadline_ns: u64,
    trace: bool,
    log: SourceLog,
    out: Arc<Mutex<SourceLog>>,
}

impl Feeder {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        inputs: Arc<Inputs>,
        n_intervals: u64,
        window_from: u64,
        release: Release,
        clock: Clock,
        deadline: Duration,
        trace: bool,
        out: Arc<Mutex<SourceLog>>,
    ) -> Self {
        Feeder {
            inputs,
            n_intervals,
            window_from,
            release,
            clock,
            deadline_ns: deadline.as_nanos() as u64,
            trace,
            log: SourceLog::default(),
            out,
        }
    }

    fn stamp(&self) -> Stamp {
        if self.trace {
            Stamp::now(self.clock)
        } else {
            Stamp {
                wall_ns: self.clock.now_ns(),
                sched: None,
            }
        }
    }

    /// The engine's feeder callback.
    pub fn next(&mut self, interval: u64) -> Option<Vec<Tuple>> {
        let call = self.stamp();
        let truncated = call.wall_ns > self.deadline_ns;
        if interval >= self.n_intervals || truncated {
            self.log.end = call;
            self.log.truncated = truncated && interval < self.n_intervals;
            let log = std::mem::take(&mut self.log);
            publish(&self.out, |out| *out = log);
            return None;
        }
        if interval == self.window_from {
            self.log.cpu_ticks_at_window = process_cpu_ticks();
        }
        let due_ns = match self.release {
            Release::Closed => call.wall_ns,
            Release::Open { period_ns } => {
                let due = interval * period_ns;
                if call.wall_ns < due {
                    std::thread::sleep(Duration::from_nanos(due - call.wall_ns));
                }
                due
            }
        };
        let build_ns = self.clock.now_ns();
        let due_us = due_ns / 1000;
        // Event time rides in `vals[1]`, which `WordCountOp` ignores.
        let tuples: Vec<Tuple> = self
            .inputs
            .play(interval)
            .iter()
            .map(|&k| Tuple::tagged(k, streambal_runtime::TAG_DEFAULT, [0, due_us]))
            .collect();
        self.log.recs.push(FeedRec {
            call,
            due_ns,
            build_ns,
            ret_ns: self.clock.now_ns(),
            tuples: tuples.len() as u64,
        });
        Some(tuples)
    }
}

// ------------------------------------------------------------------
// Worker threads: the operator probe
// ------------------------------------------------------------------

/// What one worker's probe recorded, published when the worker drops it.
#[derive(Debug, Default)]
pub struct WorkerLog {
    pub worker: usize,
    /// Tuples seen per key (dense, `key_space` long).
    pub counts: Vec<u32>,
    /// Tuples whose key fell outside `key_space`.
    pub stray: u64,
    /// Tuples processed in each interval.
    pub per_interval: Vec<u32>,
    /// `(interval, due → completion µs)`, one per clock read.
    pub lat: Vec<(u32, u32)>,
    /// Inner `process` durations in ns, sampled 1/[`TICK`] (traced).
    pub op_ns: Vec<u32>,
    /// First tuple of each interval: `(interval, wall ns)` (traced).
    pub starts: Vec<(u32, u64)>,
    /// One stamp per interval boundary, at the stats flush (traced).
    pub ends: Vec<Stamp>,
    /// Keys and serialized bytes held at shutdown.
    pub state_keys_end: u64,
    pub state_bytes_end: u64,
}

/// Wraps the keyed operator of one worker.
///
/// With `pace_ns > 0` the worker is *paced*: it keeps a virtual
/// deadline advancing `pace_ns` per tuple and sleeps whenever it is at
/// least [`MIN_SLEEP_NS`] ahead, so it has a fixed capacity of
/// `1/pace` tuples/s and burns no CPU while "working" — like a worker on
/// its own machine. The deadline is absolute, so sleep overshoot
/// self-corrects (one extra clock read per sleep measures it).
pub struct ProbeOp<O: Operator> {
    inner: O,
    clock: Clock,
    pace_ns: u64,
    trace: bool,
    n: u64,
    deadline_ns: u64,
    oversleep_ns: u64,
    cur_interval: u64,
    cur_count: u32,
    log: WorkerLog,
    out: Arc<Mutex<Vec<WorkerLog>>>,
}

impl<O: Operator> ProbeOp<O> {
    pub fn new(
        inner: O,
        worker: usize,
        key_space: usize,
        pace_ns: u64,
        clock: Clock,
        trace: bool,
        out: Arc<Mutex<Vec<WorkerLog>>>,
    ) -> Self {
        ProbeOp {
            inner,
            clock,
            pace_ns,
            trace,
            n: 0,
            deadline_ns: 0,
            oversleep_ns: 0,
            cur_interval: 0,
            cur_count: 0,
            log: WorkerLog {
                worker,
                counts: vec![0; key_space],
                ..WorkerLog::default()
            },
            out,
        }
    }

    /// Closes the running interval's tuple count.
    fn roll(&mut self, interval: u64) {
        let at = self.cur_interval as usize;
        if self.log.per_interval.len() <= at {
            self.log.per_interval.resize(at + 1, 0);
        }
        self.log.per_interval[at] += self.cur_count;
        self.cur_interval = interval;
        self.cur_count = 0;
    }

    /// Every [`TICK`]th tuple: the one clock read that serves latency
    /// sampling and pacing (plus a second one timing `process` when
    /// traced).
    #[cold]
    fn tick(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64 {
        let before = if self.trace { self.clock.now_ns() } else { 0 };
        let mem = self.inner.process(tuple, interval, emit);
        let now = self.clock.now_ns();
        if self.trace {
            self.log.op_ns.push((now - before) as u32);
        }
        let mut done = now;
        if self.pace_ns > 0 {
            // Trailing real time is allowed only as far as the last sleep
            // overshot, and the allowance shrinks as it is repaid: time
            // the worker sat idle (starved by the source) is never banked
            // into a burst above its rate.
            self.deadline_ns += TICK * self.pace_ns;
            let floor = now.saturating_sub(self.oversleep_ns);
            if self.deadline_ns < floor {
                self.deadline_ns = floor;
            }
            self.oversleep_ns = self.oversleep_ns.min(now.saturating_sub(self.deadline_ns));
            // A paced tuple completes at its virtual deadline, not when
            // the probe ran ahead of it.
            done = done.max(self.deadline_ns);
            if self.deadline_ns >= now + MIN_SLEEP_NS {
                let nap = self.deadline_ns - now;
                std::thread::sleep(Duration::from_nanos(nap));
                self.oversleep_ns = self
                    .clock
                    .now_ns()
                    .saturating_sub(self.deadline_ns)
                    .min(MAX_OVERSLEEP_NS);
            }
        }
        let lat_us = (done / 1000).saturating_sub(tuple.vals[1]);
        self.log
            .lat
            .push((interval as u32, lat_us.min(u32::MAX as u64) as u32));
        mem
    }
}

impl<O: Operator> Operator for ProbeOp<O> {
    #[inline]
    fn process(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64 {
        if interval != self.cur_interval || self.n == 0 {
            self.roll(interval);
            if self.trace {
                self.log.starts.push((interval as u32, self.clock.now_ns()));
            }
        }
        self.cur_count += 1;
        match self.log.counts.get_mut(tuple.key.raw() as usize) {
            Some(c) => *c += 1,
            None => self.log.stray += 1,
        }
        self.n += 1;
        if self.n % TICK == 0 {
            self.tick(tuple, interval, emit)
        } else {
            self.inner.process(tuple, interval, emit)
        }
    }

    fn state_size(&self, key: Key) -> u64 {
        self.inner.state_size(key)
    }

    fn extract(&mut self, key: Key) -> Option<Bytes> {
        self.inner.extract(key)
    }

    fn install(&mut self, key: Key, blob: Bytes) {
        self.inner.install(key, blob);
    }

    fn evict_before(&mut self, oldest_keep: u64) {
        self.inner.evict_before(oldest_keep);
    }

    /// The worker calls this at every interval boundary (before it
    /// ships its statistics), which makes it the probe's boundary hook.
    fn flush(&mut self, emit: &mut dyn FnMut(Tuple)) {
        self.inner.flush(emit);
        if self.trace {
            self.log.ends.push(Stamp::now(self.clock));
        }
    }

    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        let states = self.inner.drain();
        self.log.state_keys_end = states.len() as u64;
        self.log.state_bytes_end = states.iter().map(|(_, b)| b.len() as u64).sum();
        states
    }

    fn held_counts(&self) -> Vec<(Key, u64)> {
        self.inner.held_counts()
    }

    fn tuples_in_blob(&self, blob: &Bytes) -> u64 {
        self.inner.tuples_in_blob(blob)
    }
}

impl<O: Operator> Drop for ProbeOp<O> {
    fn drop(&mut self) {
        self.roll(self.cur_interval);
        let log = std::mem::take(&mut self.log);
        publish(&self.out, |out| out.push(log));
    }
}

// ------------------------------------------------------------------
// Merge thread: the collector probe
// ------------------------------------------------------------------

/// What the collector probe recorded, published at `result()`.
#[derive(Debug, Default)]
pub struct MergeLog {
    /// Merge-plane tuples folded.
    pub tuples: u64,
    /// One stamp every [`MERGE_BLOCK`] tuples and one at the end (traced).
    pub stamps: Vec<Stamp>,
}

/// Merge-plane tuples between two collector stamps.
pub const MERGE_BLOCK: u64 = 4096;

/// Wraps the merge stage's collector.
pub struct ProbeCollector<C: Collector> {
    inner: C,
    clock: Clock,
    trace: bool,
    log: MergeLog,
    out: Arc<Mutex<MergeLog>>,
}

impl<C: Collector> ProbeCollector<C> {
    pub fn new(inner: C, clock: Clock, trace: bool, out: Arc<Mutex<MergeLog>>) -> Self {
        ProbeCollector {
            inner,
            clock,
            trace,
            log: MergeLog::default(),
            out,
        }
    }
}

impl<C: Collector> Collector for ProbeCollector<C> {
    #[inline]
    fn collect(&mut self, tuple: &Tuple) {
        if self.trace && self.log.tuples % MERGE_BLOCK == 0 {
            self.log.stamps.push(Stamp::now(self.clock));
        }
        self.log.tuples += 1;
        self.inner.collect(tuple);
    }

    fn result(&mut self) -> Vec<(u64, u64)> {
        let rows = self.inner.result();
        if self.trace {
            self.log.stamps.push(Stamp::now(self.clock));
        }
        let log = std::mem::take(&mut self.log);
        publish(&self.out, |out| *out = log);
        rows
    }
}

// ------------------------------------------------------------------
// Controller thread: partitioner and split-policy probes
// ------------------------------------------------------------------

/// One `end_interval` call on the controller.
#[derive(Debug, Clone, Copy)]
pub struct PlanRec {
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Keys in the merged statistics round.
    pub keys: u64,
    /// Keys the returned plan moves (`None`: no rebalance fired).
    pub moves: Option<u64>,
    /// Whether the rebalance was installed as a delta.
    pub delta: bool,
}

/// One split-policy decision.
#[derive(Debug, Clone, Copy)]
pub struct SplitRec {
    pub interval: u64,
    pub dur_ns: u64,
    /// Replicas asked for (`Some(0)` = unsplit, `None` = hold).
    pub replicas: Option<usize>,
}

/// What the controller-side probes recorded.
#[derive(Debug, Default)]
pub struct ControllerLog {
    pub plans: Vec<PlanRec>,
    pub splits: Vec<SplitRec>,
    /// Stamp after each `end_interval` (traced).
    pub stamps: Vec<Stamp>,
    /// The routing function when the engine dropped the partitioner.
    pub final_view: Option<RoutingView>,
}

/// Wraps the partitioner under test.
pub struct ProbePartitioner {
    inner: Box<dyn Partitioner>,
    clock: Clock,
    trace: bool,
    out: Arc<Mutex<ControllerLog>>,
}

impl ProbePartitioner {
    pub fn new(
        inner: Box<dyn Partitioner>,
        clock: Clock,
        trace: bool,
        out: Arc<Mutex<ControllerLog>>,
    ) -> Self {
        ProbePartitioner {
            inner,
            clock,
            trace,
            out,
        }
    }
}

impl Partitioner for ProbePartitioner {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn n_tasks(&self) -> usize {
        self.inner.n_tasks()
    }

    fn route(&mut self, key: Key) -> TaskId {
        self.inner.route(key)
    }

    fn route_batch(&mut self, keys: &[Key], out: &mut Vec<TaskId>) {
        self.inner.route_batch(keys, out);
    }

    fn end_interval(&mut self, stats: IntervalStats) -> Option<RebalanceOutcome> {
        let keys = stats.len() as u64;
        let start_ns = self.clock.now_ns();
        let outcome = self.inner.end_interval(stats);
        let rec = PlanRec {
            start_ns,
            dur_ns: self.clock.now_ns() - start_ns,
            keys,
            moves: outcome.as_ref().map(|o| o.plan.keys_moved() as u64),
            delta: outcome.is_some() && self.inner.last_install_was_delta(),
        };
        let stamp = self.trace.then(|| Stamp::now(self.clock));
        publish(&self.out, |log| {
            log.plans.push(rec);
            log.stamps.extend(stamp);
        });
        outcome
    }

    fn add_task(&mut self) -> TaskId {
        self.inner.add_task()
    }

    fn scale_out(&mut self, live: &[Key]) -> TaskId {
        self.inner.scale_out(live)
    }

    fn scale_out_plan(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        self.inner.scale_out_plan(live)
    }

    fn scale_in(&mut self, victim: TaskId, live: &[Key]) {
        self.inner.scale_in(victim, live);
    }

    fn routing_view(&self) -> RoutingView {
        self.inner.routing_view()
    }

    fn last_install_was_delta(&self) -> bool {
        self.inner.last_install_was_delta()
    }

    fn preserves_key_semantics(&self) -> bool {
        self.inner.preserves_key_semantics()
    }

    fn reroute_dead(
        &mut self,
        dead: TaskId,
        is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        self.inner.reroute_dead(dead, is_dead)
    }

    fn apply_moves(&mut self, moves: &[(Key, TaskId)]) -> bool {
        self.inner.apply_moves(moves)
    }

    fn split_key(&mut self, key: Key, replicas: &[TaskId]) -> bool {
        self.inner.split_key(key, replicas)
    }

    fn unsplit_key(&mut self, key: Key) -> Option<Vec<TaskId>> {
        self.inner.unsplit_key(key)
    }

    fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
        self.inner.splits()
    }
}

impl Drop for ProbePartitioner {
    fn drop(&mut self) {
        if self.trace {
            let view = self.inner.routing_view();
            publish(&self.out, |log| log.final_view = Some(view));
        }
    }
}

/// Wraps the hot-key split policy.
#[derive(Debug)]
pub struct ProbeSplitPolicy {
    inner: Box<dyn SplitPolicy>,
    clock: Clock,
    out: Arc<Mutex<ControllerLog>>,
}

impl ProbeSplitPolicy {
    pub fn new(inner: Box<dyn SplitPolicy>, clock: Clock, out: Arc<Mutex<ControllerLog>>) -> Self {
        ProbeSplitPolicy { inner, clock, out }
    }
}

impl SplitPolicy for ProbeSplitPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, obs: &SplitObservation) -> SplitDecision {
        let start = self.clock.now_ns();
        let decision = self.inner.decide(obs);
        let rec = SplitRec {
            interval: obs.interval,
            dur_ns: self.clock.now_ns() - start,
            replicas: match &decision {
                SplitDecision::Hold => None,
                SplitDecision::Split { replicas, .. } => Some(*replicas),
                SplitDecision::Unsplit { .. } => Some(0),
            },
        };
        publish(&self.out, |log| log.splits.push(rec));
        decision
    }

    /// The engine clones its config (and with it the policy) for the
    /// source thread and the controller; clones share the one log.
    fn box_clone(&self) -> Box<dyn SplitPolicy> {
        Box::new(ProbeSplitPolicy {
            inner: self.inner.box_clone(),
            clock: self.clock,
            out: Arc::clone(&self.out),
        })
    }
}
