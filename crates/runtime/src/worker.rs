//! The worker (downstream task instance): one `Worker` value per
//! thread, with one handler per inbox [`Message`].

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use streambal_core::{Key, StatsAccumulator, TaskId};
use streambal_hashring::FxHashMap;
use streambal_metrics::Histogram;
use streambal_trace::{ThreadLabel, ThreadRecorder, TraceSink};

use crate::fault::{FaultEvent, FaultPlan, KillTrigger};
use crate::message::{Event, Message, WorkerEvent, WorkerExit, WorkerTotals};
use crate::operator::Operator;
use crate::tuple::{Tuple, TAG_PARTIAL};

/// What every worker of a run shares; the engine clones one per spawn.
#[derive(Clone)]
pub(crate) struct WorkerWiring {
    /// Where reports, acks and the exit event go: the controller's one
    /// inbox, shared with the source.
    pub events: Sender<Event>,
    /// The merge stage's input, when the run has one.
    pub collector: Option<Sender<Vec<Tuple>>>,
    /// Busy-work iterations per tuple (CPU saturation control).
    pub spin_work: u32,
    /// State window `w` in intervals.
    pub window: u64,
    /// Engine start instant (latency reference).
    pub epoch: Instant,
    /// Tuples accumulated per collector batch before a flush is forced
    /// (the emitter also flushes at every input-batch boundary).
    pub emit_batch: usize,
    /// The run's fault plan, read for this worker's own kills and
    /// stalls ([`FaultPlan::kills`], [`FaultPlan::stall`]).
    pub faults: FaultPlan,
    /// The run's flight recorder; each worker takes its own
    /// [`ThreadRecorder`] from it.
    pub sink: Arc<TraceSink>,
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
struct BatchEmitter {
    tx: Option<Sender<Vec<Tuple>>>,
    buf: Vec<Tuple>,
    cap: usize,
}

impl BatchEmitter {
    fn new(tx: Option<Sender<Vec<Tuple>>>, cap: usize) -> Self {
        BatchEmitter {
            tx,
            buf: Vec::new(),
            cap: cap.max(1),
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
        let full = std::mem::replace(&mut self.buf, Vec::with_capacity(self.cap));
        if let Some(tx) = &self.tx {
            let weight = full.len();
            let _ = tx.send_weighted(full, weight);
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

/// How a handler ends the worker; [`Worker::exit`] turns it into the
/// one exit event.
enum End {
    /// A planned death at kill point `at` (the exit names it for the
    /// ledger), with the per-key counts only the death site knows: the
    /// blobs of the `StateInstall` that killed the worker.
    Killed {
        at: KillTrigger,
        extra: Vec<(Key, u64)>,
    },
    /// `Retire`: hand back all state and the receiver.
    Retired { epoch: u64 },
    /// `Shutdown`: hand back all state.
    Drained,
}

/// A handler's verdict: carry on, or end the worker.
type Step = ControlFlow<End>;

/// One worker thread: its wiring, its operator, and everything its loop
/// carries from one message to the next. [`Worker::run`] hands each
/// inbox message to its own handler.
pub(crate) struct Worker {
    id: TaskId,
    rx: Receiver<Message>,
    op: Box<dyn Operator>,
    wiring: WorkerWiring,
    /// Flight-recorder handle. The data plane only touches its local
    /// counters ([`ThreadRecorder::count_batch`]); one `DataFlush` event
    /// per interval reaches the shared sink. Dropped (flushing
    /// stragglers) when the worker exits — including injected kills, so
    /// a dead worker's partial interval is still accounted.
    recorder: ThreadRecorder,
    emitter: BatchEmitter,
    /// The open interval's statistics: one accumulator for the whole
    /// run, sealed at every interval boundary with its capacity kept.
    stats: StatsAccumulator,
    /// Interval-scoped latency: one sample per tuple, added per batch
    /// (its tuples share the source's staging stamp), shipped with each
    /// stats report (the controller merges workers into the interval's
    /// mean/p99 observation), folded into the lifetime histogram at every
    /// boundary so totals never double-count.
    iv_latency: Box<Histogram>,
    totals: WorkerTotals,
    current_interval: u64,
    /// Fault-injection ordinals.
    migrate_outs_seen: usize,
    installs_seen: usize,
    /// The install-dedupe epoch: makes `StateInstall` idempotent under
    /// controller retries — a resent install for the epoch already
    /// applied re-acks without re-merging (which would double the
    /// counts).
    last_installed_epoch: Option<u64>,
}

impl Worker {
    /// A worker on slot `id` that joins at `start_interval`: 0 for
    /// initial workers; for a mid-run spawn, the interval after the
    /// latest cut the controller has read, so window eviction does not
    /// misfire on its early state. The source may have cut further by
    /// then, so that first partial interval can carry an older label
    /// than the source's; the first `StatsRequest` re-aligns it.
    pub(crate) fn new(
        mut wiring: WorkerWiring,
        id: TaskId,
        rx: Receiver<Message>,
        op: Box<dyn Operator>,
        start_interval: u64,
    ) -> Self {
        Worker {
            id,
            rx,
            op,
            recorder: wiring.sink.recorder(ThreadLabel::Worker(id.index() as u32)),
            emitter: BatchEmitter::new(wiring.collector.take(), wiring.emit_batch),
            // Every tuple costs its spin plus one unit.
            stats: StatsAccumulator::new(u64::from(wiring.spin_work) + 1),
            wiring,
            iv_latency: Box::default(),
            totals: WorkerTotals::default(),
            current_interval: start_interval,
            migrate_outs_seen: 0,
            installs_seen: 0,
            last_installed_epoch: None,
        }
    }

    /// Runs the worker until `Retire`, `Shutdown` or an injected death.
    pub(crate) fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            let step = match msg {
                Message::TupleBatch { emitted_us, tuples } => self.on_batch(emitted_us, tuples),
                Message::StatsRequest { interval } => self.on_stats_request(interval),
                Message::StatsPeek { interval } => self.on_stats_peek(interval),
                Message::MigrateOut { epoch, moves } => self.on_migrate_out(epoch, moves),
                Message::StateInstall { epoch, states } => self.on_install(epoch, states),
                Message::Retire { epoch } => Step::Break(End::Retired { epoch }),
                Message::Shutdown => Step::Break(End::Drained),
            };
            if let Step::Break(end) = step {
                return self.exit(end);
            }
        }
        // Channel closed without Shutdown (engine dropped): exit quietly.
    }

    fn on_batch(&mut self, emitted_us: u64, batch: Vec<Tuple>) -> Step {
        let n = batch.len() as u64;
        // Batch-local stats accumulation by key runs: consecutive
        // same-key tuples fold into one interval-map probe. Costs one
        // compare per tuple on shuffled streams, collapses bursty ones.
        // (A per-batch scratch hashmap was measured slower here — the
        // interval map is cache-resident while the scratch doubles the
        // hashing.)
        let (spin_work, interval) = (self.wiring.spin_work, self.current_interval);
        let mut run: Option<(Key, u64, u64)> = None; // key, freq, mem
        for t in batch.iter() {
            spin(spin_work);
            let mem = self.op.process(t, interval, &mut |t| self.emitter.emit(t));
            match &mut run {
                Some((k, freq, m)) if *k == t.key => {
                    *freq += 1;
                    *m += mem;
                }
                other => {
                    if let Some((k, freq, m)) = other.take() {
                        self.stats.add(k, freq, m);
                    }
                    *other = Some((t.key, 1, mem));
                }
            }
        }
        if let Some((k, freq, m)) = run {
            self.stats.add(k, freq, m);
        }
        // One monotonic-clock read per batch, taken *after* the drain so
        // recorded latencies include the batch's own processing (reading
        // before the drain would systematically under-report late
        // tuples). Every tuple of the message was staged at its one
        // stamp, so the batch adds `n` samples of one latency at once.
        let now_us = self.wiring.epoch.elapsed().as_micros() as u64;
        self.iv_latency
            .record_n(now_us.saturating_sub(emitted_us), n);
        if n > 0 {
            self.totals.first_interval.get_or_insert(interval);
        }
        self.totals.processed += n;
        self.recorder.count_batch(n);
        self.emitter.flush();
        Step::Continue(())
    }

    /// Interval boundary: report the closed interval's statistics and
    /// latency, roll the recorder's counters, advance the window. The
    /// source enqueued this marker at its cut, so FIFO has delivered
    /// every tuple it routed here in `interval` and none of the next
    /// one's: report, label and window follow the source's cut exactly.
    fn on_stats_request(&mut self, interval: u64) -> Step {
        let at = KillTrigger::Interval(interval);
        if self.wiring.faults.kills(self.id.index(), at) {
            return Step::Break(End::Killed { at, extra: vec![] });
        }
        let worker = self.id.index();
        if let Some(ms) = self.wiring.faults.stall(worker, interval) {
            let at_interval = interval;
            let stall = FaultEvent::InjectedStall {
                worker,
                at_interval,
            };
            let _ = self.wiring.events.send(Event::Injected(stall));
            // Slow-but-alive: FIFO order (and therefore state) is
            // preserved, only time passes.
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        self.flush();
        // The next interval reports about as many keys: it refills the
        // table the sealed report leaves behind, already sized.
        let out = self.stats.seal();
        // Fold the interval's latency into the lifetime total, then ship
        // the interval histogram with the report.
        self.totals.latency.merge(&self.iv_latency);
        let out_latency = std::mem::take(&mut self.iv_latency);
        self.send(WorkerEvent::Stats {
            worker: self.id,
            interval,
            stats: out,
            latency: out_latency,
        });
        self.current_interval = interval + 1;
        // The flight recorder rolls its batch-granularity counters into
        // one DataFlush event: by the FIFO argument above, exactly the
        // tuples the source routed here in this interval.
        self.recorder.close_interval(interval);
        // Keep the last `window` intervals: evict everything strictly
        // older than (closed_interval + 1 − w).
        let oldest_keep = (interval + 1).saturating_sub(self.wiring.window);
        self.op.evict_before(oldest_keep);
        Step::Continue(())
    }

    /// A copy, and nothing else: the closing report, the operator's
    /// window and the flight recorder's interval roll-up must not be able
    /// to tell this request came.
    fn on_stats_peek(&self, interval: u64) -> Step {
        self.send(WorkerEvent::StatsPeek {
            worker: self.id,
            interval,
            stats: self.stats.peek(),
        });
        Step::Continue(())
    }

    /// Step 5a: extract and ship the requested keys' state.
    fn on_migrate_out(&mut self, epoch: u64, moves: Vec<(Key, TaskId)>) -> Step {
        self.migrate_outs_seen += 1;
        let at = KillTrigger::MigrateOut(self.migrate_outs_seen);
        if self.wiring.faults.kills(self.id.index(), at) {
            // Crash mid-migration, before extracting: the requested moves
            // die with the rest of the state.
            return Step::Break(End::Killed { at, extra: vec![] });
        }
        let states = moves
            .into_iter()
            .map(|(key, to)| (key, to, self.op.extract(key).unwrap_or_default()))
            .collect();
        self.send(WorkerEvent::StateOut {
            worker: self.id,
            epoch,
            states,
        });
        Step::Continue(())
    }

    /// Step 5b: merge arriving state (once per epoch) and acknowledge.
    fn on_install(&mut self, epoch: u64, states: Vec<(Key, Bytes)>) -> Step {
        self.installs_seen += 1;
        let at = KillTrigger::Install(self.installs_seen);
        if self.wiring.faults.kills(self.id.index(), at) {
            // Crash inside the install path: nothing is merged, so the
            // incoming blobs are lost too — count them.
            let extra = states
                .iter()
                .map(|(k, b)| (*k, self.op.tuples_in_blob(b)))
                .collect();
            return Step::Break(End::Killed { at, extra });
        }
        if self.last_installed_epoch != Some(epoch) {
            for (key, blob) in states {
                if !blob.is_empty() {
                    self.op.install(key, blob);
                }
            }
            self.last_installed_epoch = Some(epoch);
        }
        self.send(WorkerEvent::InstallAck {
            worker: self.id,
            epoch,
        });
        Step::Continue(())
    }

    /// Sends the controller one event. The inbox outlives every worker,
    /// so the send fails only at engine teardown, when nobody reads.
    fn send(&self, ev: WorkerEvent) {
        let _ = self.wiring.events.send(Event::Worker(ev));
    }

    /// Pushes the operator's pending emissions and the emitter's buffer
    /// downstream.
    fn flush(&mut self) {
        self.op.flush(&mut |t| self.emitter.emit(t));
        self.emitter.flush();
    }

    /// `Retire` and `Shutdown`'s tail. FIFO already delivered every batch
    /// sent before the marker, so the backlog is fully processed: flush,
    /// and drain *all* remaining state (windowed state outlives the
    /// statistics that created it).
    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        self.flush();
        self.op.drain()
    }

    /// The worker's one way out: builds its exit event from its own
    /// fields and sends it. A death flushes nothing — everything it held
    /// is counted lost: the operator's unobserved per-key counts, the
    /// emitter's buffered partials, and the death site's `extra`.
    fn exit(mut self, end: End) {
        let exit = match end {
            End::Killed { at, extra } => {
                let mut lost: FxHashMap<Key, u64> = FxHashMap::default();
                for (k, c) in self
                    .op
                    .held_counts()
                    .into_iter()
                    .chain(self.emitter.buffered_counts())
                    .chain(extra)
                {
                    *lost.entry(k).or_insert(0) += c;
                }
                let mut lost: Vec<(Key, u64)> = lost.into_iter().collect();
                lost.sort_unstable_by_key(|&(k, _)| k);
                WorkerExit::Killed {
                    trigger: at,
                    lost,
                    stats: self.stats.seal(),
                    rx: self.rx,
                }
            }
            // The receiver goes back too, so the slot's channel stays
            // connected for a later re-provision.
            End::Retired { epoch } => WorkerExit::Retired {
                epoch,
                states: self.drain(),
                stats: self.stats.seal(),
                rx: self.rx,
            },
            End::Drained => {
                // Nothing reads the statistics again: their table goes
                // before the state is serialized.
                self.stats = StatsAccumulator::new(1);
                WorkerExit::Drained {
                    final_states: self.drain(),
                }
            }
        };
        self.totals.latency.merge(&self.iv_latency);
        let _ = self.wiring.events.send(Event::Worker(WorkerEvent::Exited {
            worker: self.id,
            totals: self.totals,
            exit,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::operator::WordCountOp;
    use crossbeam::channel::unbounded;
    use std::time::Duration;
    use streambal_core::Key;
    use streambal_trace::EventKind;

    /// The test's end of a worker's event channel: the inbox it shares
    /// with the source in a run, read as the worker's own events.
    struct Events(Receiver<Event>);

    impl Events {
        fn recv(&self) -> Option<WorkerEvent> {
            self.0.recv().ok().map(Self::worker)
        }

        fn try_recv(&self) -> Option<WorkerEvent> {
            self.0.try_recv().ok().map(Self::worker)
        }

        fn worker(ev: Event) -> WorkerEvent {
            match ev {
                Event::Worker(ev) => ev,
                Event::Source(ev) => panic!("a worker sent a source event: {ev:?}"),
                Event::Injected(ev) => panic!("unexpected injected fault: {ev:?}"),
            }
        }
    }

    /// Handles to a spawned test worker: input, events, join handle.
    type WorkerHandles = (Sender<Message>, Events, std::thread::JoinHandle<()>);

    /// Wiring for one test worker, with its event receiver.
    fn wiring(window: u64, plan: FaultPlan, sink: &Arc<TraceSink>) -> (WorkerWiring, Events) {
        let (etx, erx) = unbounded();
        let wiring = WorkerWiring {
            events: etx,
            collector: None,
            spin_work: 4,
            window,
            epoch: Instant::now(),
            emit_batch: 8,
            faults: plan,
            sink: Arc::clone(sink),
        };
        (wiring, Events(erx))
    }

    fn spawn_worker(window: u64) -> WorkerHandles {
        spawn_worker_with(window, FaultPlan::none(), &TraceSink::disabled())
    }

    fn spawn_worker_with(window: u64, plan: FaultPlan, sink: &Arc<TraceSink>) -> WorkerHandles {
        let (tx, rx) = unbounded();
        let (wiring, erx) = wiring(window, plan, sink);
        let worker = Worker::new(wiring, TaskId(0), rx, Box::new(WordCountOp::new()), 0);
        let h = std::thread::spawn(move || worker.run());
        (tx, erx, h)
    }

    /// A message of `tuples`, stamped at engine start.
    fn batch_of(tuples: Vec<Tuple>) -> Message {
        Message::TupleBatch {
            emitted_us: 0,
            tuples,
        }
    }

    /// The `batch_size = 1` shape: a batch holding one tuple.
    fn one(key: u64) -> Message {
        batch_of(vec![Tuple::keyed(Key(key))])
    }

    #[test]
    fn processes_and_reports_stats() {
        let (tx, erx, h) = spawn_worker(5);
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
            WorkerEvent::Exited {
                totals,
                exit: WorkerExit::Drained { final_states },
                ..
            } => {
                assert_eq!(totals.processed, 10);
                assert_eq!(final_states.len(), 1);
                assert_eq!(
                    totals.latency.count(),
                    10,
                    "lifetime total survives shipping"
                );
                assert_eq!(totals.first_interval, Some(0));
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
        let (tx, erx, h) = spawn_worker_with(5, FaultPlan::none(), &sink);
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
            WorkerEvent::Exited {
                totals,
                exit: WorkerExit::Drained { .. },
                ..
            } => {
                assert_eq!(totals.processed, 1);
                assert_eq!(totals.latency.count(), 1);
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
        let keys = |ks: &[u64]| batch_of(ks.iter().map(|&k| Tuple::keyed(Key(k))).collect());
        let run = |peek: bool| {
            let sink = TraceSink::new(true);
            // w = 1: interval 0's state is evicted when interval 1 closes.
            let (tx, erx, h) = spawn_worker_with(1, FaultPlan::none(), &sink);
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
            while let Some(ev) = erx.try_recv() {
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
                    WorkerEvent::Exited {
                        totals,
                        exit: WorkerExit::Drained { final_states },
                        ..
                    } => {
                        let mut held: Vec<(u64, Vec<(u64, u64)>)> = final_states
                            .iter()
                            .map(|(k, blob)| (k.raw(), WordCountOp::decode(blob)))
                            .collect();
                        held.sort_unstable();
                        rest.push(format!("drained {} {held:?}", totals.processed));
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
    /// and state.
    #[test]
    fn batch_matches_per_tuple_accounting_and_recycles_buffer() {
        let (tx, erx, h) = spawn_worker(5);
        let batch: Vec<Tuple> = (0..10)
            .map(|i| Tuple::keyed(Key(if i % 2 == 0 { 1 } else { 2 })))
            .collect();
        tx.send(batch_of(batch)).unwrap();
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
            WorkerEvent::Exited {
                totals,
                exit: WorkerExit::Drained { .. },
                ..
            } => {
                assert_eq!(totals.processed, 10);
                assert_eq!(totals.latency.count(), 10, "latency recorded per tuple");
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    /// One message of `n` tuples stamped `s` adds exactly `n` samples of
    /// `now − s` to the interval's latency histogram: one value, read
    /// from the clock once after the batch is processed.
    #[test]
    fn a_message_adds_one_latency_per_tuple_from_its_stamp() {
        let (tx, rx) = unbounded();
        drop(tx);
        let (mut wiring, _events) = wiring(5, FaultPlan::none(), &TraceSink::disabled());
        let ago = Duration::from_millis(50);
        wiring.epoch = Instant::now().checked_sub(ago).expect("a clock 50 ms old");
        let mut worker = Worker::new(wiring, TaskId(0), rx, Box::new(WordCountOp::new()), 0);
        let (stamp, n) = (10_000u64, 7u64);
        let tuples: Vec<Tuple> = (0..n).map(|k| Tuple::keyed(Key(k % 3))).collect();
        let before = worker.wiring.epoch.elapsed().as_micros() as u64 - stamp;
        let _ = worker.on_batch(stamp, tuples);
        let after = worker.wiring.epoch.elapsed().as_micros() as u64 - stamp;
        let latency = worker.iv_latency.min();
        assert!(
            (before..=after).contains(&latency),
            "{before} ≤ {latency} ≤ {after}"
        );
        let mut expect = Histogram::new();
        for _ in 0..n {
            expect.record(latency);
        }
        assert_eq!(*worker.iv_latency, expect);
        assert_eq!(worker.totals.processed, n);
    }

    /// Emissions toward a collector arrive batched.
    #[test]
    fn collector_emissions_are_batched() {
        let (tx, rx) = unbounded();
        let (col_tx, col_rx) = unbounded();
        let (wiring, erx) = wiring(5, FaultPlan::none(), &TraceSink::disabled());
        let wiring = WorkerWiring {
            collector: Some(col_tx),
            spin_work: 1,
            emit_batch: 4,
            ..wiring
        };
        let op = Box::new(WordCountOp::with_partial_emission(3));
        let worker = Worker::new(wiring, TaskId(0), rx, op, 0);
        let h = std::thread::spawn(move || worker.run());
        let batch: Vec<Tuple> = (0..9).map(|_| Tuple::keyed(Key(7))).collect();
        tx.send(batch_of(batch)).unwrap();
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
        let (tx_a, erx_a, ha) = spawn_worker(5);
        let (tx_b, erx_b, hb) = spawn_worker(5);
        // Worker A accumulates state for key 9 — via a batch, as the
        // batched data plane delivers it.
        tx_a.send(batch_of(vec![Tuple::keyed(Key(9)); 4])).unwrap();
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
            WorkerEvent::Exited {
                exit: WorkerExit::Drained { final_states },
                ..
            } => {
                assert_eq!(final_states.len(), 1);
                let (k, blob) = &final_states[0];
                assert_eq!(*k, Key(9));
                assert_eq!(WordCountOp::new().tuples_in_blob(blob), 4);
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
        let (tx, erx, h) = spawn_worker(100);
        tx.send(batch_of(vec![Tuple::keyed(Key(1)); 3])).unwrap();
        tx.send(one(2)).unwrap();
        tx.send(Message::Retire { epoch: 9 }).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Exited {
                totals,
                exit:
                    WorkerExit::Retired {
                        epoch, states, rx, ..
                    },
                ..
            } => {
                assert_eq!(epoch, 9);
                assert_eq!(totals.processed, 4, "backlog processed before retiring");
                assert_eq!(totals.latency.count(), 4);
                let keys: Vec<u64> = states.iter().map(|(k, _)| k.raw()).collect();
                assert_eq!(keys, vec![1, 2], "all state handed back");
                // The channel stayed connected: a respawn on the same
                // slot picks up right where the retiree left.
                tx.send(one(3)).unwrap();
                assert!(matches!(rx.recv().unwrap(), Message::TupleBatch { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn window_eviction_after_stats() {
        let (tx, erx, h) = spawn_worker(1); // keep only current interval
        tx.send(one(5)).unwrap();
        tx.send(Message::StatsRequest { interval: 0 }).unwrap();
        let _ = erx.recv();
        // Interval 1: nothing for key 5; window=1 evicts interval 0 state.
        tx.send(Message::StatsRequest { interval: 1 }).unwrap();
        let _ = erx.recv();
        tx.send(Message::Shutdown).unwrap();
        match erx.recv().unwrap() {
            WorkerEvent::Exited {
                exit: WorkerExit::Drained { final_states },
                ..
            } => {
                assert!(final_states.is_empty(), "state must be evicted");
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    /// A word-count state blob holding `n` tuples of `key`.
    fn blob_of(key: u64, n: usize) -> bytes::Bytes {
        let mut op = WordCountOp::new();
        let mut sink = |_| {};
        for _ in 0..n {
            op.process(&Tuple::keyed(Key(key)), 0, &mut sink);
        }
        op.extract(Key(key)).unwrap()
    }

    /// Every injected kill point must exit with a `Killed` event whose
    /// per-key lost counts equal the tuples whose contribution never
    /// became observable, and hand the receiver back for draining. The
    /// `MigrateOut` kill fires before extracting, so the requested key
    /// dies with the rest of the state; the install kill fires before
    /// merging, so the incoming blobs' tuples are lost too.
    #[test]
    fn injected_kill_accounts_held_state() {
        let cases = [
            (
                KillTrigger::Interval(1),
                Message::StatsRequest { interval: 1 },
                vec![(Key(4), 6), (Key(9), 2)],
            ),
            (
                KillTrigger::MigrateOut(1),
                Message::MigrateOut {
                    epoch: 1,
                    moves: vec![(Key(4), TaskId(1))],
                },
                vec![(Key(4), 6), (Key(9), 2)],
            ),
            (
                KillTrigger::Install(1),
                Message::StateInstall {
                    epoch: 1,
                    states: vec![(Key(7), blob_of(7, 3)), (Key(4), blob_of(4, 5))],
                },
                vec![(Key(4), 11), (Key(7), 3), (Key(9), 2)],
            ),
        ];
        for (at, trigger, expect_lost) in cases {
            let label = format!("{at:?}");
            let plan = FaultPlan::new(vec![FaultSpec::Kill { worker: 0, at }]);
            let (tx, erx, h) = spawn_worker_with(100, plan, &TraceSink::disabled());
            tx.send(batch_of(vec![Tuple::keyed(Key(4)); 6])).unwrap();
            tx.send(Message::StatsRequest { interval: 0 }).unwrap();
            let _ = erx.recv(); // interval 0 stats, no kill yet
            tx.send(batch_of(vec![Tuple::keyed(Key(9)); 2])).unwrap();
            tx.send(trigger).unwrap();
            match erx.recv().unwrap() {
                WorkerEvent::Exited {
                    totals,
                    exit:
                        WorkerExit::Killed {
                            trigger,
                            lost,
                            stats,
                            rx,
                        },
                    ..
                } => {
                    // The exit names the kill point that fired.
                    assert_eq!(trigger, at, "{label}");
                    assert_eq!(totals.processed, 8, "{label}");
                    assert_eq!(lost, expect_lost, "{label}");
                    // Unreported interval-1 residue rides the event.
                    assert_eq!(stats.get(Key(9)).unwrap().freq, 2, "{label}");
                    // The receiver is handed back so in-flight messages
                    // can be drained for accounting.
                    tx.send(one(1)).unwrap();
                    assert!(
                        matches!(rx.recv().unwrap(), Message::TupleBatch { .. }),
                        "{label}"
                    );
                }
                other => panic!("{label}: unexpected {other:?}"),
            }
            h.join().unwrap();
        }
    }

    /// A resent `StateInstall` for the already-applied epoch re-acks
    /// without re-merging (idempotence under controller retries).
    #[test]
    fn duplicate_install_epoch_is_deduped() {
        let (tx, erx, h) = spawn_worker(100);
        let blob = blob_of(2, 3);
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
            WorkerEvent::Exited {
                exit: WorkerExit::Drained { final_states },
                ..
            } => {
                let total = WordCountOp::new().tuples_in_blob(&final_states[0].1);
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
