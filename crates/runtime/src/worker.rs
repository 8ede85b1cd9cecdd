//! The worker (downstream task instance) thread loop.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};
use streambal_core::{IntervalStats, Key, TaskId};
use streambal_hashring::FxHashMap;
use streambal_metrics::{Counter, Histogram};

use crate::fault::{CtlKind, FaultInjector};
use crate::message::{Message, WorkerEvent};
use crate::operator::Operator;
use crate::tuple::{Tuple, TAG_PARTIAL};
use streambal_trace::ThreadRecorder;

/// Spare drained input buffers an emitter keeps for its own batches
/// before surplus flows back to the source pool.
const EMIT_SPARES: usize = 2;

/// Drained buffers accumulated before one grouped pool return. Returning
/// buffers in groups amortizes the pool-channel lock to `1/RETURN_GROUP`
/// per batch, which is what keeps one-tuple batches (`batch_size = 1`)
/// from paying a pool-channel lock per tuple.
const RETURN_GROUP: usize = 8;

/// Everything one worker thread needs.
pub(crate) struct WorkerCtx {
    pub id: TaskId,
    pub rx: Receiver<Message>,
    pub events: Sender<WorkerEvent>,
    pub collector: Option<Sender<Vec<Tuple>>>,
    pub op: Box<dyn Operator>,
    /// Busy-work iterations per tuple (CPU saturation control).
    pub spin_work: u32,
    /// State window `w` in intervals.
    pub window: u64,
    /// Shared processed-tuples counter (throughput sampling).
    pub processed_counter: Arc<Counter>,
    /// Engine start instant (latency reference).
    pub epoch: Instant,
    /// The interval this worker joins at (0 for initial workers; the
    /// current interval for scale-out spawns, so window eviction does not
    /// misfire on its early state).
    pub start_interval: u64,
    /// Return path for drained batch buffers — the source recycles them,
    /// keeping the steady state allocation-free. Buffers travel in groups
    /// of [`RETURN_GROUP`] to amortize the channel lock.
    pub pool: Sender<Vec<Vec<Tuple>>>,
    /// Tuples accumulated per collector batch before a flush is forced
    /// (the emitter also flushes at every input-batch boundary).
    pub emit_batch: usize,
    /// Shared fault-injection state (passive when the plan is empty).
    pub injector: Arc<FaultInjector>,
    /// Flight-recorder handle. The data plane only touches its local
    /// counters ([`ThreadRecorder::count_batch`]); one `DataFlush` event
    /// per interval reaches the shared sink. Dropped (flushing
    /// stragglers) when the worker exits — including injected kills, so
    /// a dead worker's partial interval is still accounted.
    pub recorder: ThreadRecorder,
}

/// Calibrated busy work: `iters` dependent multiply-xor rounds. The
/// optimizer cannot elide it (the result feeds a `black_box`), so one unit
/// costs the same nanoseconds everywhere — this is how the engine
/// emulates the paper's per-tuple CPU cost.
#[inline]
pub(crate) fn spin(iters: u32) -> u64 {
    let mut x = 0x9E37_79B9u64 | 1;
    for i in 0..iters {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (i as u64);
    }
    std::hint::black_box(x)
}

/// Batches operator emissions toward the collector: one channel send per
/// full (or force-flushed) buffer instead of one per emitted tuple.
/// Buffers come from the worker's drained input batches (`stash`) and
/// return to the engine pool from the collector side, so emission batches
/// ride the same free-list as data batches.
struct BatchEmitter {
    tx: Option<Sender<Vec<Tuple>>>,
    buf: Vec<Tuple>,
    cap: usize,
    spares: Vec<Vec<Tuple>>,
}

impl BatchEmitter {
    fn new(tx: Option<Sender<Vec<Tuple>>>, cap: usize) -> Self {
        BatchEmitter {
            tx,
            buf: Vec::new(),
            cap: cap.max(1),
            spares: Vec::new(),
        }
    }

    /// Buffers one emission; sends when the buffer reaches capacity. The
    /// collector channel is bounded: a slow merger backpressures workers,
    /// the PKG max-pending effect (now at batch granularity).
    #[inline]
    fn emit(&mut self, t: Tuple) {
        if self.tx.is_none() {
            return; // no collector: emissions are dropped, as before
        }
        self.buf.push(t);
        if self.buf.len() >= self.cap {
            self.flush();
        }
    }

    /// Ships the buffered emissions, if any. The send is weighted by the
    /// batch length so the collector channel's capacity stays
    /// tuple-denominated.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let next = self.spares.pop().unwrap_or_default();
        let full = std::mem::replace(&mut self.buf, next);
        if let Some(tx) = &self.tx {
            let weight = full.len();
            let _ = tx.send_weighted(full, weight);
        }
    }

    /// Offers a drained buffer for reuse; hands it back when the emitter
    /// has no use for it (the caller returns it to the pool).
    fn stash(&mut self, buf: Vec<Tuple>) -> Option<Vec<Tuple>> {
        if self.tx.is_some() && self.spares.len() < EMIT_SPARES {
            self.spares.push(buf);
            None
        } else {
            Some(buf)
        }
    }

    /// Per-key input-tuple counts represented by emissions still sitting
    /// in the buffer — partials that die with the worker on a kill.
    /// Only `TAG_PARTIAL` deltas map back to input tuples; derived
    /// emissions (join outputs) carry no input-count semantics.
    fn buffered_counts(&self) -> Vec<(Key, u64)> {
        self.buf
            .iter()
            .filter(|t| t.tag == TAG_PARTIAL)
            .map(|t| (t.key, t.vals[0]))
            .collect()
    }
}

/// Builds the `Killed` event for a controlled worker death: merges the
/// operator's unobserved per-key counts, the emitter's buffered
/// partials, and any `extra` counts the death site supplies (e.g. the
/// blobs of a `StateInstall` that crashed the worker).
#[allow(clippy::too_many_arguments)]
fn killed_event(
    id: TaskId,
    op: &dyn Operator,
    emitter: &BatchEmitter,
    extra: Vec<(Key, u64)>,
    stats: IntervalStats,
    processed: u64,
    mut latency: Box<Histogram>,
    iv_latency: &Histogram,
    first_interval: Option<u64>,
    rx: Receiver<Message>,
) -> WorkerEvent {
    let mut lost: FxHashMap<Key, u64> = FxHashMap::default();
    for (k, c) in op
        .held_counts()
        .into_iter()
        .chain(emitter.buffered_counts())
        .chain(extra)
    {
        *lost.entry(k).or_insert(0) += c;
    }
    let mut lost: Vec<(Key, u64)> = lost.into_iter().collect();
    lost.sort_unstable_by_key(|&(k, _)| k);
    latency.merge(iv_latency);
    WorkerEvent::Killed {
        worker: id,
        lost,
        stats,
        processed,
        latency,
        first_interval,
        rx,
    }
}

/// Runs the worker until `Shutdown`.
pub(crate) fn run_worker(mut ctx: WorkerCtx) {
    let mut stats = IntervalStats::new();
    let mut latency = Box::new(Histogram::new());
    // Interval-scoped latency: recorded per tuple, shipped with each
    // stats report (the controller merges workers into the interval's
    // mean/p99 observation), folded into the lifetime histogram at every
    // boundary so totals never double-count.
    let mut iv_latency = Box::new(Histogram::new());
    let mut processed = 0u64;
    let mut first_interval: Option<u64> = None;
    let mut current_interval = ctx.start_interval;
    let mut emitter = BatchEmitter::new(ctx.collector.clone(), ctx.emit_batch);
    // Drained buffers awaiting a grouped pool return.
    let mut returns: Vec<Vec<Tuple>> = Vec::with_capacity(RETURN_GROUP);
    // Fault-injection ordinals and the install-dedupe epoch. The epoch
    // guard makes `StateInstall` idempotent under controller retries: a
    // resent install for the epoch already applied re-acks without
    // re-merging (which would double the counts).
    let faulty = !ctx.injector.is_passive();
    let mut migrate_outs_seen = 0usize;
    let mut installs_seen = 0usize;
    let mut last_installed_epoch: Option<u64> = None;

    while let Ok(msg) = ctx.rx.recv() {
        match msg {
            Message::TupleBatch(mut batch) => {
                let n = batch.len() as u64;
                // Batch-local stats accumulation by key runs: consecutive
                // same-key tuples fold into one interval-map probe. Costs
                // one compare per tuple on shuffled streams, collapses
                // bursty ones. (A per-batch scratch hashmap was measured
                // slower here — the interval map is cache-resident while
                // the scratch doubles the hashing.)
                let cost_per = ctx.spin_work as u64 + 1;
                let mut run: Option<(Key, u64, u64)> = None; // key, freq, mem
                for t in batch.iter() {
                    spin(ctx.spin_work);
                    let mem = ctx
                        .op
                        .process(t, current_interval, &mut |t| emitter.emit(t));
                    match &mut run {
                        Some((k, freq, m)) if *k == t.key => {
                            *freq += 1;
                            *m += mem;
                        }
                        other => {
                            if let Some((k, freq, m)) = other.take() {
                                stats.observe(k, freq, freq * cost_per, m);
                            }
                            *other = Some((t.key, 1, mem));
                        }
                    }
                }
                if let Some((k, freq, m)) = run {
                    stats.observe(k, freq, freq * cost_per, m);
                }
                // One monotonic-clock read per batch, taken *after* the
                // drain so recorded latencies include the batch's own
                // processing (reading before the drain would
                // systematically under-report late tuples). Latency is
                // recorded per tuple against its own emission stamp, in
                // a second cache-hot pass over the stamps.
                let now_us = ctx.epoch.elapsed().as_micros() as u64;
                for t in batch.iter() {
                    iv_latency.record(now_us.saturating_sub(t.emitted_us));
                }
                if n > 0 {
                    first_interval.get_or_insert(current_interval);
                }
                batch.clear();
                processed += n;
                ctx.processed_counter.add(n);
                ctx.recorder.count_batch(n);
                emitter.flush();
                if let Some(back) = emitter.stash(batch) {
                    // Already drained: queue the capacity for a grouped
                    // return to the source. A failed send means the
                    // source is gone (engine teardown) — buffers drop.
                    returns.push(back);
                    if returns.len() >= RETURN_GROUP {
                        let _ = ctx.pool.send(std::mem::take(&mut returns));
                    }
                }
            }
            Message::StatsRequest { interval } => {
                if faulty {
                    if ctx
                        .injector
                        .should_kill_at_interval(ctx.id.index(), interval)
                    {
                        let ev = killed_event(
                            ctx.id,
                            ctx.op.as_ref(),
                            &emitter,
                            Vec::new(),
                            std::mem::take(&mut stats),
                            processed,
                            latency,
                            &iv_latency,
                            first_interval,
                            ctx.rx,
                        );
                        let _ = ctx.events.send(ev);
                        return;
                    }
                    if let Some(ms) = ctx.injector.stall_at_interval(ctx.id.index(), interval) {
                        // Slow-but-alive: FIFO order (and therefore
                        // state) is preserved, only time passes.
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
                ctx.op.flush(&mut |t| emitter.emit(t));
                emitter.flush();
                // The next interval reports about as many keys: size its
                // map once instead of regrowing it from empty.
                let next = IntervalStats::with_capacity(stats.len());
                let out = std::mem::replace(&mut stats, next);
                // Fold the interval's latency into the lifetime total,
                // then ship the interval histogram with the report.
                latency.merge(&iv_latency);
                let out_latency = std::mem::take(&mut iv_latency);
                if !(faulty && ctx.injector.should_drop(CtlKind::Stats)) {
                    let _ = ctx.events.send(WorkerEvent::Stats {
                        worker: ctx.id,
                        interval,
                        stats: out,
                        latency: out_latency,
                    });
                }
                current_interval = interval + 1;
                // Interval boundary: the flight recorder rolls its
                // batch-granularity counters into one DataFlush event.
                // The counts are deterministic — FIFO guarantees every
                // tuple the source fed for this interval was processed
                // before this marker arrived.
                ctx.recorder.close_interval(interval);
                // Keep the last `window` intervals: evict everything
                // strictly older than (closed_interval + 1 − w).
                let oldest_keep = (interval + 1).saturating_sub(ctx.window);
                ctx.op.evict_before(oldest_keep);
            }
            Message::StatsPeek { interval } => {
                // A copy, and nothing else: the closing report, the
                // operator's window and the flight recorder's interval
                // roll-up must not be able to tell this request came.
                let _ = ctx.events.send(WorkerEvent::StatsPeek {
                    worker: ctx.id,
                    interval,
                    stats: stats.clone(),
                });
            }
            Message::MigrateOut { epoch, moves } => {
                migrate_outs_seen += 1;
                if faulty
                    && ctx
                        .injector
                        .should_kill_on_migrate_out(ctx.id.index(), migrate_outs_seen)
                {
                    // Crash mid-migration, before extracting: the
                    // requested moves die with the rest of the state.
                    let ev = killed_event(
                        ctx.id,
                        ctx.op.as_ref(),
                        &emitter,
                        Vec::new(),
                        std::mem::take(&mut stats),
                        processed,
                        latency,
                        &iv_latency,
                        first_interval,
                        ctx.rx,
                    );
                    let _ = ctx.events.send(ev);
                    return;
                }
                let mut states = Vec::with_capacity(moves.len());
                for (key, to) in moves {
                    let blob = ctx.op.extract(key).unwrap_or_default();
                    states.push((key, to, blob));
                }
                let _ = ctx.events.send(WorkerEvent::StateOut {
                    worker: ctx.id,
                    epoch,
                    states,
                });
            }
            Message::StateInstall { epoch, states } => {
                installs_seen += 1;
                if faulty
                    && ctx
                        .injector
                        .should_kill_on_install(ctx.id.index(), installs_seen)
                {
                    // Crash inside the install path: nothing is merged,
                    // so the incoming blobs are lost too — count them.
                    let extra: Vec<(Key, u64)> = states
                        .iter()
                        .map(|(k, b)| (*k, ctx.op.tuples_in_blob(b)))
                        .collect();
                    let ev = killed_event(
                        ctx.id,
                        ctx.op.as_ref(),
                        &emitter,
                        extra,
                        std::mem::take(&mut stats),
                        processed,
                        latency,
                        &iv_latency,
                        first_interval,
                        ctx.rx,
                    );
                    let _ = ctx.events.send(ev);
                    return;
                }
                if last_installed_epoch != Some(epoch) {
                    for (key, blob) in states {
                        if !blob.is_empty() {
                            ctx.op.install(key, blob);
                        }
                    }
                    last_installed_epoch = Some(epoch);
                }
                if !(faulty && ctx.injector.should_drop(CtlKind::InstallAck)) {
                    let _ = ctx.events.send(WorkerEvent::InstallAck {
                        worker: ctx.id,
                        epoch,
                    });
                }
            }
            Message::Retire { epoch } => {
                // Scale-in: the FIFO channel already delivered every
                // batch the source sent before the pause ack, so the
                // backlog is fully processed — drain *all* remaining
                // state (windowed state outlives the statistics that
                // created it) and hand everything back, including the
                // receiver, so the slot's channel stays connected for a
                // later re-provision.
                ctx.op.flush(&mut |t| emitter.emit(t));
                emitter.flush();
                if !returns.is_empty() {
                    let _ = ctx.pool.send(std::mem::take(&mut returns));
                }
                let states = ctx.op.drain();
                latency.merge(&iv_latency);
                let _ = ctx.events.send(WorkerEvent::Retired {
                    worker: ctx.id,
                    epoch,
                    states,
                    stats: std::mem::take(&mut stats),
                    processed,
                    latency,
                    first_interval,
                    rx: ctx.rx,
                });
                return;
            }
            Message::Shutdown => {
                ctx.op.flush(&mut |t| emitter.emit(t));
                emitter.flush();
                if !returns.is_empty() {
                    let _ = ctx.pool.send(std::mem::take(&mut returns));
                }
                let final_states = ctx.op.drain();
                latency.merge(&iv_latency);
                let _ = ctx.events.send(WorkerEvent::Drained {
                    worker: ctx.id,
                    final_states,
                    processed,
                    latency,
                    first_interval,
                });
                return;
            }
        }
    }
    // Channel closed without Shutdown (engine dropped): exit quietly.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::operator::WordCountOp;
    use crossbeam::channel::unbounded;
    use streambal_core::Key;
    use streambal_trace::{EventKind, ThreadLabel, TraceSink};

    /// Handles to a spawned test worker: input, events, pool returns,
    /// join handle.
    type WorkerHandles = (
        Sender<Message>,
        Receiver<WorkerEvent>,
        Receiver<Vec<Vec<Tuple>>>,
        std::thread::JoinHandle<()>,
    );

    fn spawn_worker(window: u64) -> WorkerHandles {
        spawn_worker_with(window, FaultPlan::none(), &TraceSink::disabled())
    }

    fn spawn_worker_with(window: u64, plan: FaultPlan, sink: &Arc<TraceSink>) -> WorkerHandles {
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let (pool_tx, pool_rx) = unbounded();
        let ctx = WorkerCtx {
            id: TaskId(0),
            rx,
            events: etx,
            collector: None,
            op: Box::new(WordCountOp::new()),
            spin_work: 4,
            window,
            processed_counter: Arc::new(Counter::new()),
            epoch: Instant::now(),
            start_interval: 0,
            pool: pool_tx,
            emit_batch: 8,
            injector: Arc::new(FaultInjector::new(plan)),
            recorder: sink.recorder(ThreadLabel::Worker(0)),
        };
        let h = std::thread::spawn(move || run_worker(ctx));
        (tx, erx, pool_rx, h)
    }

    /// The `batch_size = 1` shape: a batch holding one tuple.
    fn one(key: u64) -> Message {
        Message::TupleBatch(vec![Tuple::keyed(Key(key))])
    }

    #[test]
    fn processes_and_reports_stats() {
        let (tx, erx, _pool, h) = spawn_worker(5);
        for _ in 0..10 {
            tx.send(one(1)).unwrap();
        }
        tx.send(Message::StatsRequest { interval: 0 }).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Stats {
                interval,
                stats,
                latency,
                ..
            } => {
                assert_eq!(interval, 0);
                let s = stats.get(Key(1)).unwrap();
                assert_eq!(s.freq, 10);
                assert_eq!(s.cost, 50); // (spin_work + 1) · freq
                assert_eq!(s.mem, 80);
                // The interval's latency distribution rides the report.
                assert_eq!(latency.count(), 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        // An idle interval ships an empty latency histogram (it was
        // drained into the lifetime total, not resent).
        tx.send(Message::StatsRequest { interval: 1 }).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Stats { latency, .. } => assert_eq!(latency.count(), 0),
            other => panic!("unexpected {other:?}"),
        }
        tx.send(Message::Shutdown).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Drained {
                processed,
                final_states,
                latency,
                first_interval,
                ..
            } => {
                assert_eq!(processed, 10);
                assert_eq!(final_states.len(), 1);
                assert_eq!(latency.count(), 10, "lifetime total survives shipping");
                assert_eq!(first_interval, Some(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    /// A one-tuple batch — what `batch_size = 1` ships — is accounted as
    /// exactly one tuple in one batch: one processed count, one latency
    /// sample, one `count_batch` increment.
    #[test]
    fn one_tuple_batch_counts_once() {
        let sink = TraceSink::new(true);
        let (tx, erx, _pool, h) = spawn_worker_with(5, FaultPlan::none(), &sink);
        tx.send(one(1)).unwrap();
        tx.send(Message::StatsRequest { interval: 0 }).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Stats { stats, latency, .. } => {
                assert_eq!(stats.get(Key(1)).unwrap().freq, 1);
                assert_eq!(latency.count(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        tx.send(Message::Shutdown).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Drained {
                processed, latency, ..
            } => {
                assert_eq!(processed, 1);
                assert_eq!(latency.count(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
        let flushes: Vec<(u64, u64, u64)> = sink
            .take_log()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::DataFlush {
                    interval,
                    tuples,
                    batches,
                } => Some((interval, tuples, batches)),
                _ => None,
            })
            .collect();
        assert_eq!(flushes, vec![(0, 1, 1)]);
    }

    /// A provisional request is answered with a copy and changes
    /// nothing: a worker that is peeked at mid-interval ships the same
    /// closing reports, rolls up the same `DataFlush` events, and ends
    /// with the same windowed state (same interval attribution, same
    /// evictions) as one that never was.
    #[test]
    fn stats_peek_copies_and_leaves_the_interval_alone() {
        let keys =
            |ks: &[u64]| Message::TupleBatch(ks.iter().map(|&k| Tuple::keyed(Key(k))).collect());
        let run = |peek: bool| {
            let sink = TraceSink::new(true);
            // w = 1: interval 0's state is evicted when interval 1 closes.
            let (tx, erx, _pool, h) = spawn_worker_with(1, FaultPlan::none(), &sink);
            let script = [
                (keys(&[1, 1, 1]), Some(0)),
                (keys(&[1, 1, 2]), Some(0)),
                (Message::StatsRequest { interval: 0 }, None),
                (keys(&[2, 2, 2, 2]), Some(1)),
                (Message::StatsRequest { interval: 1 }, None),
                (keys(&[3]), Some(2)),
                (Message::Shutdown, None),
            ];
            for (msg, open) in script {
                tx.send(msg).unwrap();
                if let (true, Some(interval)) = (peek, open) {
                    tx.send(Message::StatsPeek { interval }).unwrap();
                }
            }
            h.join().unwrap();
            let mut peeks = Vec::new();
            let mut rest = Vec::new();
            while let Ok(ev) = erx.try_recv() {
                match ev {
                    WorkerEvent::StatsPeek {
                        interval, stats, ..
                    } => {
                        let mut seen: Vec<(u64, u64)> =
                            stats.iter().map(|(k, s)| (k.raw(), s.freq)).collect();
                        seen.sort_unstable();
                        peeks.push((interval, seen));
                    }
                    WorkerEvent::Stats {
                        interval,
                        stats,
                        latency,
                        ..
                    } => {
                        let mut seen: Vec<(u64, u64, u64)> = stats
                            .iter()
                            .map(|(k, s)| (k.raw(), s.freq, s.mem))
                            .collect();
                        seen.sort_unstable();
                        rest.push(format!("stats {interval} {seen:?} {}", latency.count()));
                    }
                    WorkerEvent::Drained {
                        final_states,
                        processed,
                        ..
                    } => {
                        let mut held: Vec<(u64, Vec<(u64, u64)>)> = final_states
                            .iter()
                            .map(|(k, blob)| (k.raw(), WordCountOp::decode(blob)))
                            .collect();
                        held.sort_unstable();
                        rest.push(format!("drained {processed} {held:?}"));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            for e in sink.take_log().events {
                if let EventKind::DataFlush { .. } = e.kind {
                    rest.push(format!("{:?}", e.kind));
                }
            }
            (peeks, rest)
        };
        let (peeks, peeked) = run(true);
        let (none, plain) = run(false);
        assert_eq!(peeked, plain);
        assert!(none.is_empty());
        // Each answer is the open interval's statistics so far: they
        // accumulate across peeks and restart only at a closing request.
        assert_eq!(
            peeks,
            vec![
                (0, vec![(1, 3)]),
                (0, vec![(1, 5), (2, 1)]),
                (1, vec![(2, 4)]),
                (2, vec![(3, 1)]),
            ]
        );
        // Interval 0's state went when interval 1 closed, on schedule:
        // key 1 is gone, key 2 keeps interval 1 only.
        assert!(
            plain.contains(&"drained 11 [(2, [(1, 4)]), (3, [(2, 1)])]".to_string()),
            "{plain:?}"
        );
    }

    /// A multi-tuple `TupleBatch` is accounted per tuple — stats, counts,
    /// and state — and the drained buffer comes back through the pool
    /// with its capacity intact.
    #[test]
    fn batch_matches_per_tuple_accounting_and_recycles_buffer() {
        let (tx, erx, pool_rx, h) = spawn_worker(5);
        let batch: Vec<Tuple> = (0..10)
            .map(|i| Tuple::keyed(Key(if i % 2 == 0 { 1 } else { 2 })))
            .collect();
        let cap = batch.capacity();
        tx.send(Message::TupleBatch(batch)).unwrap();
        tx.send(Message::StatsRequest { interval: 0 }).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Stats { stats, .. } => {
                let s1 = stats.get(Key(1)).unwrap();
                assert_eq!(s1.freq, 5);
                assert_eq!(s1.cost, 25); // (spin_work + 1) · freq
                assert_eq!(s1.mem, 40);
                let s2 = stats.get(Key(2)).unwrap();
                assert_eq!(s2.freq, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        tx.send(Message::Shutdown).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Drained {
                processed, latency, ..
            } => {
                assert_eq!(processed, 10);
                assert_eq!(latency.count(), 10, "latency recorded per tuple");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The buffer came back through the pool (grouped return, flushed
        // at shutdown), drained but with its capacity intact.
        let group = pool_rx.recv().unwrap();
        assert_eq!(group.len(), 1);
        assert!(group[0].is_empty());
        assert_eq!(group[0].capacity(), cap);
        h.join().unwrap();
    }

    /// Emissions toward a collector arrive batched, and the batch buffers
    /// the worker drains feed the emitter before surplus hits the pool.
    #[test]
    fn collector_emissions_are_batched() {
        let (tx, rx) = unbounded();
        let (etx, erx) = unbounded();
        let (pool_tx, _pool_rx) = unbounded();
        let (col_tx, col_rx) = unbounded();
        let ctx = WorkerCtx {
            id: TaskId(0),
            rx,
            events: etx,
            collector: Some(col_tx),
            op: Box::new(WordCountOp::with_partial_emission(3)),
            spin_work: 1,
            window: 5,
            processed_counter: Arc::new(Counter::new()),
            epoch: Instant::now(),
            start_interval: 0,
            pool: pool_tx,
            emit_batch: 4,
            injector: Arc::new(FaultInjector::new(FaultPlan::none())),
            recorder: TraceSink::disabled().recorder(ThreadLabel::Worker(0)),
        };
        let h = std::thread::spawn(move || run_worker(ctx));
        let batch: Vec<Tuple> = (0..9).map(|_| Tuple::keyed(Key(7))).collect();
        tx.send(Message::TupleBatch(batch)).unwrap();
        tx.send(Message::Shutdown).unwrap();
        let _ = erx.recv();
        drop(tx);
        let mut emitted = 0u64;
        while let Ok(b) = col_rx.recv() {
            assert!(!b.is_empty(), "empty collector batches are never sent");
            emitted += b.iter().map(|t| t.vals[0]).sum::<u64>();
        }
        // 9 tuples of key 7, partial period 3 → all 9 counted in partials.
        assert_eq!(emitted, 9);
        h.join().unwrap();
    }

    #[test]
    fn migrate_out_then_install_roundtrip() {
        let (tx_a, erx_a, _pa, ha) = spawn_worker(5);
        let (tx_b, erx_b, _pb, hb) = spawn_worker(5);
        // Worker A accumulates state for key 9 — via a batch, as the
        // batched data plane delivers it.
        tx_a.send(Message::TupleBatch(vec![Tuple::keyed(Key(9)); 4]))
            .unwrap();
        tx_a.send(Message::MigrateOut {
            epoch: 1,
            moves: vec![(Key(9), TaskId(1))],
        })
        .unwrap();
        let states = match erx_a.recv().unwrap() {
            WorkerEvent::StateOut { states, epoch, .. } => {
                assert_eq!(epoch, 1);
                states
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(states.len(), 1);
        // Forward to worker B.
        tx_b.send(Message::StateInstall {
            epoch: 1,
            states: states.into_iter().map(|(k, _, b)| (k, b)).collect(),
        })
        .unwrap();
        assert!(matches!(
            erx_b.recv().unwrap(),
            WorkerEvent::InstallAck { epoch: 1, .. }
        ));
        // B now owns the counts: drain and decode.
        tx_b.send(Message::Shutdown).unwrap();
        match erx_b.recv().unwrap() {
            WorkerEvent::Drained { final_states, .. } => {
                assert_eq!(final_states.len(), 1);
                let (k, blob) = &final_states[0];
                assert_eq!(*k, Key(9));
                let total: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
                assert_eq!(total, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        tx_a.send(Message::Shutdown).unwrap();
        let _ = erx_a.recv();
        ha.join().unwrap();
        hb.join().unwrap();
    }

    /// Retire must process the whole backlog first (FIFO), then hand back
    /// every piece of state, the lifetime metrics, and the still-usable
    /// channel receiver.
    #[test]
    fn retire_drains_backlog_and_returns_receiver() {
        let (tx, erx, _pool, h) = spawn_worker(100);
        tx.send(Message::TupleBatch(vec![Tuple::keyed(Key(1)); 3]))
            .unwrap();
        tx.send(one(2)).unwrap();
        tx.send(Message::Retire { epoch: 9 }).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Retired {
                epoch,
                states,
                processed,
                latency,
                rx,
                ..
            } => {
                assert_eq!(epoch, 9);
                assert_eq!(processed, 4, "backlog processed before retiring");
                assert_eq!(latency.count(), 4);
                let keys: Vec<u64> = states.iter().map(|(k, _)| k.raw()).collect();
                assert_eq!(keys, vec![1, 2], "all state handed back");
                // The channel stayed connected: a respawn on the same
                // slot picks up right where the retiree left.
                tx.send(one(3)).unwrap();
                assert!(matches!(rx.recv().unwrap(), Message::TupleBatch(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn window_eviction_after_stats() {
        let (tx, erx, _pool, h) = spawn_worker(1); // keep only current interval
        tx.send(one(5)).unwrap();
        tx.send(Message::StatsRequest { interval: 0 }).unwrap();
        let _ = erx.recv();
        // Interval 1: nothing for key 5; window=1 evicts interval 0 state.
        tx.send(Message::StatsRequest { interval: 1 }).unwrap();
        let _ = erx.recv();
        tx.send(Message::Shutdown).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Drained { final_states, .. } => {
                assert!(final_states.is_empty(), "state must be evicted");
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    /// An injected interval kill must exit with a `Killed` event whose
    /// per-key lost counts equal the tuples whose contribution never
    /// became observable, and hand the receiver back for draining.
    #[test]
    fn injected_kill_accounts_held_state() {
        let plan = FaultPlan::new(vec![FaultSpec::KillWorker {
            worker: 0,
            at_interval: 1,
        }]);
        let (tx, erx, _pool, h) = spawn_worker_with(100, plan, &TraceSink::disabled());
        tx.send(Message::TupleBatch(vec![Tuple::keyed(Key(4)); 6]))
            .unwrap();
        tx.send(Message::StatsRequest { interval: 0 }).unwrap();
        let _ = erx.recv(); // interval 0 stats, no kill yet
        tx.send(Message::TupleBatch(vec![Tuple::keyed(Key(9)); 2]))
            .unwrap();
        tx.send(Message::StatsRequest { interval: 1 }).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Killed {
                lost,
                processed,
                stats,
                rx,
                ..
            } => {
                assert_eq!(processed, 8);
                assert_eq!(lost, vec![(Key(4), 6), (Key(9), 2)]);
                // Unreported interval-1 residue rides the event.
                assert_eq!(stats.get(Key(9)).unwrap().freq, 2);
                // The receiver is handed back so in-flight messages can
                // be drained for accounting.
                tx.send(one(1)).unwrap();
                assert!(matches!(rx.recv().unwrap(), Message::TupleBatch(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    /// A resent `StateInstall` for the already-applied epoch re-acks
    /// without re-merging (idempotence under controller retries).
    #[test]
    fn duplicate_install_epoch_is_deduped() {
        let (tx, erx, _pool, h) = spawn_worker(100);
        let blob = {
            let mut op = WordCountOp::new();
            let mut sink = |_| {};
            for _ in 0..3 {
                op.process(&Tuple::keyed(Key(2)), 0, &mut sink);
            }
            op.extract(Key(2)).unwrap()
        };
        for _ in 0..2 {
            tx.send(Message::StateInstall {
                epoch: 7,
                states: vec![(Key(2), blob.clone())],
            })
            .unwrap();
            assert!(matches!(
                erx.recv().unwrap(),
                WorkerEvent::InstallAck { epoch: 7, .. }
            ));
        }
        tx.send(Message::Shutdown).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Drained { final_states, .. } => {
                let total: u64 = WordCountOp::decode(&final_states[0].1)
                    .iter()
                    .map(|&(_, c)| c)
                    .sum();
                assert_eq!(total, 3, "duplicate epoch must not double counts");
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn spin_is_not_optimized_away() {
        let t0 = Instant::now();
        for _ in 0..1000 {
            spin(1000);
        }
        assert!(t0.elapsed().as_nanos() > 1000, "spin must consume time");
    }
}
