//! Engine wiring: source, workers, collector, and the Fig. 5 controller.
//!
//! The data plane is batched end-to-end: the source routes and ships
//! tuples as [`Message::TupleBatch`]es from per-destination fan-out
//! accumulators (one channel send per destination per routed batch),
//! workers drain whole batches, and drained buffers recycle to the
//! source over a pool channel. Consistency: batches and migration
//! markers share each worker's FIFO channel, and the source only
//! acknowledges `Pause`/`Resume` between routed batches when its
//! accumulators are flushed, so every marker the controller sends after
//! an ack lands behind every batch the ack covered — the paper's
//! per-tuple FIFO argument (see the crate docs) holds verbatim with
//! "tuple" replaced by "batch".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender};
use streambal_core::{
    skew_alert, Key, Partitioner, RoutingView, TaskId, SKEW_ALERT_FLOOR, SKEW_ALERT_MIN_SHARE,
};
use streambal_elastic::{ElasticityPolicy, HoldPolicy, SplitPolicy};
use streambal_hashring::FxHashSet;
// Only the unit tests below use these; they glob-import this module.
use streambal_metrics::{Counter, Histogram, RateMeter, TimeSeries};
use streambal_trace::{Outcome, ThreadLabel, ThreadRecorder, TraceLog, TraceSink};
#[cfg(test)]
use {streambal_elastic::ScaleDecision, streambal_hashring::FxHashMap};

use crate::controller::{ControlIo, Controller};
use crate::fault::{next_live, CtlKind, FaultEvent, FaultInjector, FaultPlan};
use crate::message::{Message, SourceCtl, SourceEvent, WorkerEvent};
use crate::operator::{Collector, Operator};
use crate::router::SourceRouter;
use crate::tuple::Tuple;
use crate::worker::{run_worker, WorkerCtx};

/// Engine sizing and behaviour knobs.
///
/// `Clone` but not `Copy`: the elasticity policy is a boxed, stateful
/// object (cloned with its state via `ElasticityPolicy::box_clone`).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Initial downstream parallelism `N_D`.
    pub n_workers: usize,
    /// Pre-provisioned worker slots (≥ `n_workers`; extra slots allow
    /// scale-out).
    pub max_workers: usize,
    /// Source → worker channel depth in *tuples*; a full channel
    /// backpressures the source (the paper's "backpushing effect").
    /// Batched sends are weighted by their tuple count
    /// (`send_weighted`), so the bound stays exactly tuple-denominated
    /// at any batch size and any fan-out fill — control markers weigh 1.
    pub channel_capacity: usize,
    /// Worker → collector channel depth in *tuples* (PKG's max-pending
    /// analogue), weighted like [`EngineConfig::channel_capacity`].
    pub collector_capacity: usize,
    /// Tuples staged per routed batch on the source thread — the
    /// data-plane batch. Each routed batch fans out into per-destination
    /// buffers shipped as one [`Message::TupleBatch`] per destination
    /// touched. The source drains pause/resume/view updates every
    /// `max(batch_size, 256)` staged tuples, bounding how many tuples can
    /// be routed under a stale view. `1` (`0` is read as `1`) ships
    /// one-tuple batches through the same pooled path.
    pub batch_size: usize,
    /// Busy-work iterations per tuple — calibrates per-tuple CPU cost so
    /// the workers saturate, as the paper's experiments arrange.
    pub spin_work: u32,
    /// State window `w` in intervals.
    pub window: usize,
    /// The elasticity policy consulted after every interval's statistics
    /// round: it decides `ScaleOut` / `ScaleIn` / `Hold`, and the
    /// controller executes the decision. Out: spawn, then pre-place —
    /// the partitioner's `Partitioner::scale_out_plan` names the keys
    /// that follow the grown ring, and the plan runs through the
    /// pause → migrate → resume machinery inside the scale-out
    /// quiescence window, so the new worker owns its keys — and takes
    /// their traffic — in the decision interval itself (an empty plan
    /// publishes the grown view directly). In: the drain → migrate →
    /// retire walk (the `scale_in` column of the crate docs' table). Decisions
    /// are clamped to `[1, max_workers]`; scale-ins may queue up
    /// (multi-step re-provisioning executes them in order), while a
    /// scale-out arriving before queued retires finish is skipped,
    /// because the spawn slot must be the contiguous physical tail.
    /// Default: [`HoldPolicy`] (the static engine).
    pub elasticity: Box<dyn ElasticityPolicy>,
    /// The hot-key split policy consulted after every interval's
    /// statistics round, alongside [`EngineConfig::elasticity`]: it sees
    /// the merged per-key costs and the current split set and decides
    /// `Split` / `Unsplit` / `Hold`. The controller executes a split as
    /// a degenerate migration (routing-view change under a pause window,
    /// no state moved) and an unsplit as a real one (replica partials
    /// extracted and merged into the primary), both as first-class
    /// protocol ops with epochs, spans, and deadline/abort handling.
    /// Decisions the routing layer cannot honour (fewer than two tasks,
    /// an already-split key, a degenerate replica set) are skipped, not
    /// deferred. Default: `None` (never splits).
    pub split: Option<Box<dyn SplitPolicy>>,
    /// Deterministic fault schedule for this run (default: none). See
    /// [`crate::fault`] — every fired fault and recovery action lands in
    /// [`EngineReport::faults`], and unrecoverable tuples are accounted
    /// per key in [`EngineReport::lost_tuples`].
    pub fault_plan: FaultPlan,
    /// Protocol-op deadline, interval-denominated: an in-flight
    /// `Pause`/`MigrateOut`/`StateInstall`/`Retire` phase showing no
    /// progress for this many source intervals *and*
    /// [`EngineConfig::op_deadline`] of wall time is retried once, then
    /// aborted with rollback. Intervals are the primary clock (they are
    /// deterministic per run); the wall bound keeps healthy-but-slow
    /// runs from spurious expiry and takes over alone once the source
    /// has finished and intervals stop.
    pub op_deadline_intervals: u64,
    /// Wall-clock component of the op deadline (see above).
    pub op_deadline: Duration,
    /// Stats-round deadline, interval-denominated: a round still
    /// missing reporters after this many further intervals *and*
    /// [`EngineConfig::round_deadline`] of wall time closes with what
    /// it has (the missing reporters are recorded in the fault ledger),
    /// so a dead or wedged worker cannot hold statistics — or shutdown,
    /// which waits on open rounds — hostage.
    pub round_deadline_intervals: u64,
    /// Wall-clock component of the round deadline (see above).
    pub round_deadline: Duration,
    /// Flight recorder on/off (default `true`). When on, every thread
    /// carries a [`streambal_trace::ThreadRecorder`]: the controller
    /// records protocol-phase spans and per-interval telemetry
    /// snapshots, the source records routing-table shape and interval
    /// totals, and workers roll batch counters into one `DataFlush`
    /// per interval — nothing per tuple, no locks or clock reads on the
    /// data plane. The merged log lands in [`EngineReport::trace`].
    /// `false` makes every recording call a no-op (the overhead
    /// benchmark's baseline).
    pub trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_workers: 4,
            max_workers: 4,
            channel_capacity: 1024,
            collector_capacity: 256,
            batch_size: 256,
            spin_work: 500,
            window: 5,
            elasticity: Box::new(HoldPolicy),
            split: None,
            fault_plan: FaultPlan::none(),
            op_deadline_intervals: 4,
            op_deadline: Duration::from_secs(5),
            round_deadline_intervals: 4,
            round_deadline: Duration::from_secs(5),
            trace: true,
        }
    }
}

pub use streambal_elastic::{ScaleEvent, SplitEvent};

/// A survivable violation of the pause → migrate → resume protocol.
///
/// Each variant pins the event the controller observed with no matching
/// in-flight op (or the auxiliary thread that died), plus what was
/// dropped or skipped as a result. `Display` renders the exact
/// diagnostic strings these carried when [`EngineReport::protocol_errors`]
/// was a `Vec<String>`, so log scrapers and test messages are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A source `PauseAck` arrived with nothing in flight and no closed
    /// epoch to absorb it.
    StrayPauseAck {
        /// The ack's epoch.
        epoch: u64,
    },
    /// A worker shipped extracted state for an epoch with no migration
    /// in flight; the blobs were dropped.
    StrayStateOut {
        /// The shipping worker's slot.
        worker: usize,
        /// The orphaned epoch.
        epoch: u64,
        /// How many key states were dropped with it.
        dropped_keys: usize,
    },
    /// A worker acknowledged a `StateInstall` for an epoch with no
    /// pending op.
    StrayInstallAck {
        /// The acking worker's slot.
        worker: usize,
        /// The orphaned epoch.
        epoch: u64,
    },
    /// A worker completed retirement for an epoch with no pending
    /// scale-in.
    StrayRetired {
        /// The retiring worker's slot.
        worker: usize,
        /// The orphaned epoch.
        epoch: u64,
    },
    /// A scale-out decision found the spawn slot's receiver missing (a
    /// prior retire mismatch); the engine kept its current width.
    ScaleOutAborted {
        /// The parallelism the decision aimed for.
        to: usize,
        /// The slot with no channel to hand out.
        slot: usize,
    },
    /// An auxiliary thread (source, throughput sampler, collector)
    /// panicked; the run completed without it.
    ThreadPanicked {
        /// Which thread: `"source"`, `"throughput sampler"`, or
        /// `"collector"`.
        thread: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::StrayPauseAck { epoch } => {
                write!(f, "PauseAck for epoch {epoch} with no pending op")
            }
            ProtocolError::StrayStateOut {
                worker,
                epoch,
                dropped_keys,
            } => write!(
                f,
                "StateOut from worker {worker} for epoch {epoch} with no \
                 migration in flight; {dropped_keys} key states dropped"
            ),
            ProtocolError::StrayInstallAck { worker, epoch } => write!(
                f,
                "InstallAck from worker {worker} for epoch {epoch} with no pending op"
            ),
            ProtocolError::StrayRetired { worker, epoch } => write!(
                f,
                "Retired from worker {worker} for epoch {epoch} with no pending scale-in"
            ),
            ProtocolError::ScaleOutAborted { to, slot } => write!(
                f,
                "scale-out to {to} aborted: worker slot {slot} has no channel to hand out"
            ),
            ProtocolError::ThreadPanicked { thread } => {
                write!(f, "{thread} thread panicked")
            }
        }
    }
}

/// Everything one engine run measured.
#[derive(Debug)]
pub struct EngineReport {
    /// Partitioner name.
    pub name: String,
    /// Total tuples processed by all workers.
    pub processed: u64,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Mean throughput, tuples/second.
    pub mean_throughput: f64,
    /// Wall-clock-sampled throughput series (seconds, tuples/s).
    pub throughput: TimeSeries,
    /// Per-interval throughput series (interval, tuples/s).
    pub interval_throughput: TimeSeries,
    /// End-to-end tuple latency distribution (µs), merged over workers.
    pub latency_us: Histogram,
    /// Rebalances executed.
    pub rebalances: usize,
    /// Keys migrated across all rebalances.
    pub migrated_keys: u64,
    /// State bytes migrated across all rebalances.
    pub migrated_bytes: u64,
    /// Tuples processed per worker slot (summed across respawns when a
    /// slot is retired and later re-provisioned).
    pub per_worker_processed: Vec<u64>,
    /// All key state at shutdown (sorted by key) for validation.
    pub final_states: Vec<(Key, Bytes)>,
    /// The collector's result rows, if a collector ran.
    pub collector_result: Vec<(u64, u64)>,
    /// Executed elasticity decisions, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Executed hot-key split/unsplit decisions, in order (empty when
    /// [`EngineConfig::split`] is `None`). Comparable `==` against the
    /// simulator's trace, like [`EngineReport::scale_events`].
    pub split_events: Vec<SplitEvent>,
    /// Integral of live workers over wall time (the provisioning cost an
    /// elastic policy saves against a static peak-sized deployment).
    pub worker_seconds: f64,
    /// Per slot: the earliest interval a worker on that slot processed a
    /// tuple (`None` if the slot never saw traffic). For a scaled-out
    /// slot, `first − decision_interval` is its time-to-first-tuple in
    /// intervals — the cold-start lag pre-placement closes.
    pub first_tuple_interval: Vec<Option<u64>>,
    /// Violations of the pause→migrate→resume protocol the controller
    /// observed and survived: an ack or state transfer arriving with no
    /// matching in-flight op, a scale-out slot with no receiver, an
    /// auxiliary thread that panicked. Each entry names the event and
    /// what was dropped or skipped. The controller used to panic on
    /// these (poisoning every channel and deadlocking the topology
    /// mid-protocol); now the run completes and the report carries the
    /// evidence — **empty on every healthy run**, and tests assert so.
    /// Each [`ProtocolError`]'s `Display` is the diagnostic string this
    /// field used to carry verbatim.
    pub protocol_errors: Vec<ProtocolError>,
    /// The fault ledger: every injected fault that fired and every
    /// recovery action the controller took (deaths, re-routes, op
    /// retries/aborts, timed-out stats rounds). Structural entries only
    /// — replaying the same [`EngineConfig::fault_plan`] yields the
    /// same ledger (see [`crate::fault`]). Empty on every healthy run.
    pub faults: Vec<FaultEvent>,
    /// Per-key tuple counts irrecoverably lost to worker deaths (held
    /// state, un-flushed partials, and in-flight messages drained from
    /// a dead worker's channel), sorted by key. The accounting
    /// invariant chaos tests assert: `fed − lost == observed`. Empty on
    /// every healthy run.
    pub lost_tuples: Vec<(Key, u64)>,
    /// The flight-recorder log (empty when [`EngineConfig::trace`] is
    /// off): protocol-phase spans keyed by op epoch, per-interval
    /// telemetry snapshots, per-worker data-flush counters, and a
    /// mirror of every fault-ledger entry. Deterministic modulo
    /// wall-clock — [`TraceLog::skeleton`] of a seeded run reproduces
    /// exactly across replays, like [`EngineReport::faults`].
    pub trace: TraceLog,
}

impl EngineReport {
    /// The report of a run that has not processed anything yet.
    pub(crate) fn empty(name: String, max_workers: usize) -> Self {
        EngineReport {
            name,
            processed: 0,
            wall: Duration::ZERO,
            mean_throughput: 0.0,
            throughput: TimeSeries::labelled("throughput"),
            interval_throughput: TimeSeries::labelled("interval throughput"),
            latency_us: Histogram::new(),
            rebalances: 0,
            migrated_keys: 0,
            migrated_bytes: 0,
            per_worker_processed: vec![0; max_workers],
            final_states: Vec::new(),
            collector_result: Vec::new(),
            scale_events: Vec::new(),
            split_events: Vec::new(),
            worker_seconds: 0.0,
            first_tuple_interval: vec![None; max_workers],
            protocol_errors: Vec::new(),
            faults: Vec::new(),
            lost_tuples: Vec::new(),
            trace: TraceLog::default(),
        }
    }
}

/// Samples the shared processed counter every 50 ms until `stop`.
fn sample_throughput(counter: &Counter, stop: &AtomicBool) -> TimeSeries {
    let meter = RateMeter::new();
    let mut series = TimeSeries::labelled("throughput");
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(50));
        meter.sample(counter);
    }
    for &(t, v) in &meter.series() {
        series.push(t, v);
    }
    series
}

/// The engine: call [`Engine::run`].
pub struct Engine;

impl Engine {
    /// Runs a topology to completion and returns the report.
    ///
    /// * `partitioner` — the routing strategy under test (owned by the
    ///   controller, which runs on the calling thread).
    /// * `op_factory` — builds the keyed operator for each worker slot.
    /// * `feeder` — called with the interval index on the source thread;
    ///   returns that interval's tuples, or `None` to finish.
    /// * `collector` — optional downstream stage receiving operator
    ///   emissions (PKG merger, Q5 aggregation).
    pub fn run<F, OF>(
        config: EngineConfig,
        partitioner: Box<dyn Partitioner>,
        mut op_factory: OF,
        feeder: F,
        collector: Option<Box<dyn Collector>>,
    ) -> EngineReport
    where
        F: FnMut(u64) -> Option<Vec<Tuple>> + Send,
        OF: FnMut(TaskId) -> Box<dyn Operator>,
    {
        let t0 = Instant::now();
        let max_workers = config.max_workers.max(config.n_workers);
        assert!(config.n_workers >= 1, "need at least one worker");
        assert_eq!(
            partitioner.n_tasks(),
            config.n_workers,
            "partitioner and engine must agree on initial parallelism"
        );

        let (event_tx, event_rx) = unbounded::<WorkerEvent>();
        let (ctl_tx, ctl_rx) = unbounded::<SourceCtl>();
        let (src_evt_tx, src_evt_rx) = unbounded::<SourceEvent>();
        let (col_tx, col_rx) = bounded::<Vec<Tuple>>(config.collector_capacity);
        // Batch-buffer free list: workers (and the collector) return
        // drained `Vec<Tuple>`s here — in groups, amortizing the channel
        // lock — and the source reuses them, so the steady-state data
        // plane allocates nothing per batch.
        let (pool_tx, pool_rx) = unbounded::<Vec<Vec<Tuple>>>();

        let counter = Arc::new(Counter::new());
        let stop = AtomicBool::new(false);
        // One flight-recorder sink per run; every thread gets its own
        // lock-free ThreadRecorder view of it.
        let sink = TraceSink::new(config.trace);
        // One injector per run, shared with the source loop and every
        // worker. Drop ordinals are global (each kind is sent from one
        // thread), so all sites must share this instance. The sink lets
        // it mirror each ledger entry into the trace as it is recorded.
        let injector = Arc::new(FaultInjector::with_trace(
            config.fault_plan.clone(),
            Arc::clone(&sink),
        ));

        let mut report = std::thread::scope(|s| {
            // --- workers (initially, and on scale-out) -------------------
            let worker_col_tx = collector.is_some().then(|| col_tx.clone());
            let worker_pool_tx = pool_tx.clone();
            let (spin_work, window) = (config.spin_work, config.window as u64);
            let emit_batch = config.batch_size.max(1);
            let (counter, injector, sink) = (&counter, &injector, &sink);
            let spawn_worker = move |id: usize, rx, op, start_interval| {
                let ctx = WorkerCtx {
                    id: TaskId::from(id),
                    rx,
                    events: event_tx.clone(),
                    collector: worker_col_tx.clone(),
                    op,
                    spin_work,
                    window,
                    processed_counter: Arc::clone(counter),
                    epoch: t0,
                    start_interval,
                    pool: worker_pool_tx.clone(),
                    emit_batch,
                    injector: Arc::clone(injector),
                    recorder: sink.recorder(ThreadLabel::Worker(id as u32)),
                };
                s.spawn(move || run_worker(ctx));
            };
            // One channel per slot, provisioned or not. Capacities are
            // tuple-denominated: batch sends are weighted by their tuple
            // count, so the in-flight bound — the backpushing effect —
            // is exactly what the config documents at any batch size and
            // any fan-out fill.
            let mut worker_txs: Vec<Sender<Message>> = Vec::with_capacity(max_workers);
            let mut worker_rxs: Vec<Option<Receiver<Message>>> = Vec::with_capacity(max_workers);
            for d in 0..max_workers {
                let (tx, rx) = bounded(config.channel_capacity);
                worker_txs.push(tx);
                worker_rxs.push(if d < config.n_workers {
                    spawn_worker(d, rx, op_factory(TaskId::from(d)), 0);
                    None
                } else {
                    Some(rx)
                });
            }

            // --- merge stage (the downstream operator) --------------------
            let col_handle = collector.map(|c| {
                let stage = crate::merge::MergeStage::new(
                    c,
                    col_rx,
                    pool_tx,
                    sink.recorder(ThreadLabel::Collector),
                );
                s.spawn(move || stage.run())
            });

            // --- throughput sampler ---------------------------------------
            let sampler = s.spawn(|| sample_throughput(counter, &stop));

            // --- source ---------------------------------------------------
            let initial_view = partitioner.routing_view();
            let src_worker_txs = worker_txs.clone();
            let src_batch = config.batch_size;
            let src_injector = Arc::clone(injector);
            let src_rec = sink.recorder(ThreadLabel::Source);
            let src_handle = s.spawn(move || {
                source_loop(
                    feeder,
                    initial_view,
                    src_worker_txs,
                    ctl_rx,
                    src_evt_tx,
                    pool_rx,
                    t0,
                    src_batch,
                    src_injector,
                    src_rec,
                )
            });

            // --- controller (this thread) ----------------------------------
            let io = ControlIo {
                worker_txs,
                worker_rxs,
                ctl_tx,
                counter: Arc::clone(counter),
                injector: Arc::clone(injector),
                rec: sink.recorder(ThreadLabel::Controller),
                make_op: Box::new(op_factory),
                spawn: Box::new(spawn_worker),
            };
            let mut ctl = Controller::new(config, partitioner, io, t0);
            let mut select = Select::new();
            let src_idx = select.recv(&src_evt_rx);
            select.recv(&event_rx);
            while !ctl.done() {
                // Bounded wait: the tick (deadline retries/aborts,
                // stats-round expiry, the shutdown gate) must run even
                // when no event arrives.
                if let Ok(ready) = select.select_timeout(Duration::from_millis(10)) {
                    if ready.index() == src_idx {
                        let Ok(ev) = ready.recv(&src_evt_rx) else {
                            continue;
                        };
                        ctl.on_source_event(ev);
                    } else {
                        let Ok(ev) = ready.recv(&event_rx) else {
                            continue;
                        };
                        ctl.on_worker_event(ev);
                    }
                    if ctl.done() {
                        break;
                    }
                }
                ctl.tick();
            }

            // All workers drained: tell the source to exit and tear down
            // the auxiliaries. `finish` drops the worker spawner with the
            // controller — it holds a collector-sender clone, which must
            // go before the collector join, or the collector never
            // observes closure.
            let (mut report, mut rec, leftover_spans) = ctl.finish();
            stop.store(true, Ordering::Relaxed);
            drop(col_tx);
            // Join the source before taking the ledger: it records
            // (drop ordinals, send failures) until it exits, and a
            // ledger taken while it still runs could miss a tail entry.
            if src_handle.join().is_err() {
                report
                    .protocol_errors
                    .push(ProtocolError::ThreadPanicked { thread: "source" });
            }
            report.faults = injector.take_ledger();
            match sampler.join() {
                Ok(t) => report.throughput = t,
                Err(_) => report.protocol_errors.push(ProtocolError::ThreadPanicked {
                    thread: "throughput sampler",
                }),
            }
            if let Some(h) = col_handle {
                match h.join() {
                    Ok(r) => report.collector_result = r,
                    Err(_) => report.protocol_errors.push(ProtocolError::ThreadPanicked {
                        thread: "collector",
                    }),
                }
            }
            // Every thread's recorder has flushed by now (workers drained,
            // source and collector joined). Force-close any span still
            // open — an op the teardown outran — as Abandoned, in epoch
            // order, then merge the run's trace into the report.
            for epoch in leftover_spans {
                rec.span_close(epoch, Outcome::Abandoned);
            }
            drop(rec);
            report.trace = sink.take_log();
            report
        });

        report.wall = t0.elapsed();
        report.mean_throughput = report.processed as f64 / report.wall.as_secs_f64().max(1e-9);
        report
    }
}

/// What the source is holding back during an in-flight control op.
enum PauseFilter {
    /// Migration: the affected key set `Δ(F, F′)`.
    Keys(FxHashSet<Key>),
    /// Scale-in: everything routed to the retiring destination. Evaluated
    /// *after* routing (in [`SourcePlane::ship`]), because membership is a
    /// property of the route, not the key.
    Dest(TaskId),
}

/// The source-thread data plane: router, fan-out accumulators, pause
/// buffer, and the batch-buffer free list.
///
/// Every `batch_size` staged tuples are routed with one
/// [`SourceRouter::route_batch`] call, scattered into per-destination
/// buffers, and shipped as one [`Message::TupleBatch`] per destination
/// touched. Every routed batch is flushed whole before control messages
/// are drained (polling happens only between routed batches), so the
/// accumulators are empty at every poll point: a `PauseAck` never races
/// unsent data and the paper's per-tuple FIFO consistency argument (see
/// crate docs) holds per batch.
struct SourcePlane {
    router: SourceRouter,
    worker_txs: Vec<Sender<Message>>,
    events: Sender<SourceEvent>,
    /// In-flight control op: epoch and the pause filter.
    paused: Option<(u64, PauseFilter)>,
    /// Tuples of paused keys, held until `Resume`.
    buffer: Vec<Tuple>,
    /// Per-destination batch accumulators (indexed by worker slot).
    fan: Vec<Vec<Tuple>>,
    /// Destinations with a non-empty accumulator, in first-touch order.
    touched: Vec<usize>,
    /// Grouped drained-buffer returns from workers and the collector.
    pool: Receiver<Vec<Vec<Tuple>>>,
    /// Local free list fed from the pool.
    free: Vec<Vec<Tuple>>,
    /// Routing scratch, reused across batches.
    keys: Vec<Key>,
    dests: Vec<TaskId>,
    batch: usize,
    /// Dead worker slots (`DeadDest`, or a send failure observed first-
    /// hand): routed tuples divert past them in [`SourcePlane::send_batch`]
    /// until a `ReviveDest` swaps in a fresh channel.
    dead: FxHashSet<usize>,
    /// Tuples sent to each slot in the open interval under the current
    /// view (zeroed at every interval boundary and view change) — what
    /// the skew alert is evaluated on.
    sent: Vec<u64>,
    /// Shared fault injector: ack sends honour injected control drops.
    injector: Arc<FaultInjector>,
}

impl SourcePlane {
    /// A buffer from the free list (refilled from the pool channel), or a
    /// fresh one on a miss (only until enough buffers circulate).
    fn take_buf(&mut self) -> Vec<Tuple> {
        if let Some(buf) = self.free.pop() {
            return buf;
        }
        if let Ok(group) = self.pool.try_recv() {
            self.free.extend(group);
            if let Some(buf) = self.free.pop() {
                return buf;
            }
        }
        Vec::with_capacity(self.batch)
    }

    /// Drains every pending pool return into the free list and bounds
    /// it. Called at control-poll points: workers and the collector
    /// return buffers whether or not `ship` is consuming any (a pause
    /// covering the hot keys diverts nearly everything to the pause
    /// buffer), so without reclamation the unbounded pool channel could
    /// grow for the whole run. Excess capacity is just dropped.
    fn reclaim(&mut self) {
        while let Ok(group) = self.pool.try_recv() {
            self.free.extend(group);
        }
        let cap = self.fan.len() * 4 + 8;
        self.free.truncate(cap);
    }

    /// Routes `staged` and ships it downstream: one channel send per
    /// destination touched. Drains `staged`, preserving per-destination tuple order. Under a
    /// destination pause (scale-in), tuples routed to the quiesced worker
    /// divert to the pause buffer instead — in arrival order, so the
    /// Resume flush replays them FIFO under the new view.
    fn ship(&mut self, staged: &mut Vec<Tuple>) {
        if staged.is_empty() {
            return;
        }
        self.keys.clear();
        self.keys.extend(staged.iter().map(|t| t.key));
        let mut dests = std::mem::take(&mut self.dests);
        self.router.route_batch(&self.keys, &mut dests);
        let pause_dest = match &self.paused {
            Some((_, PauseFilter::Dest(d))) => Some(*d),
            _ => None,
        };
        for (t, d) in staged.drain(..).zip(&dests) {
            if pause_dest == Some(*d) {
                self.buffer.push(t);
                continue;
            }
            let slot = &mut self.fan[d.index()];
            if slot.is_empty() {
                self.touched.push(d.index());
            }
            slot.push(t);
        }
        for i in 0..self.touched.len() {
            let d = self.touched[i];
            let next = self.take_buf();
            let batch = std::mem::replace(&mut self.fan[d], next);
            self.send_batch(d, batch);
        }
        self.touched.clear();
        self.dests = dests;
    }

    /// Ships one batch to `dest`, weighted by its tuple count, diverting
    /// past dead slots (the slot index cycled to the next live one — the
    /// same rule the controller's re-route pins into the table, so a
    /// divert under a stale view lands where the re-route will). A send
    /// failure means the worker died under us before the controller
    /// could say so: mark the slot, report it once, and re-divert — the
    /// batch is recovered from the failed send, so nothing is silently
    /// dropped.
    fn send_batch(&mut self, dest: usize, batch: Vec<Tuple>) {
        let mut d = dest;
        let weight = batch.len();
        let mut msg = Message::TupleBatch(batch);
        loop {
            if self.dead.contains(&d) {
                let n = self.router.n_tasks();
                let nd = next_live(d, n, |x| self.dead.contains(&x));
                if self.dead.contains(&nd) {
                    // Every slot is dead — unreachable in practice
                    // (worker 0 is never fault-injected), and with no
                    // live channel there is nowhere to account it either.
                    return;
                }
                d = nd;
            }
            match self.worker_txs[d].send_weighted(msg, weight) {
                Ok(()) => {
                    self.sent[d] += weight as u64;
                    return;
                }
                Err(e) => {
                    if self.dead.insert(d) {
                        // The event channel outlives the source (the
                        // controller joins it before dropping the
                        // receiver), so this send cannot disconnect.
                        let _ = self.events.send(SourceEvent::SendFailed {
                            dest: TaskId::from(d),
                        });
                    }
                    msg = e.0;
                }
            }
        }
    }

    /// Sends a controller-bound ack, honouring an injected control drop.
    /// The event channel outlives the source (see `send_batch`), so the
    /// discarded send result can only ever be `Ok`.
    fn ack(&self, ev: SourceEvent, kind: CtlKind) {
        if !self.injector.is_passive() && self.injector.should_drop(kind) {
            return;
        }
        let _ = self.events.send(ev);
    }

    /// Whether the per-destination counts of an interval of `fed` tuples
    /// show, on a large enough sample, a skew that is not sampling noise.
    /// Never while a pause holds tuples back (the counts would be missing
    /// them) or a slot is dead (its traffic is being diverted, and the
    /// controller holds plans while degraded).
    fn skewed(&self, fed: u64) -> bool {
        let sent = &self.sent[..self.router.n_tasks()];
        self.paused.is_none()
            && self.dead.is_empty()
            && sent.iter().sum::<u64>() as f64 >= SKEW_ALERT_MIN_SHARE * fed as f64
            && skew_alert(sent, SKEW_ALERT_FLOOR)
    }

    /// Handles one control message; returns false on Shutdown.
    fn handle_ctl(&mut self, msg: SourceCtl) -> bool {
        // Every message but a pause changes where tuples go: counts
        // taken under the old view say nothing about the new one, and
        // neither does the pause-buffer flush a resume ships.
        let rerouted = !matches!(msg, SourceCtl::Pause { .. } | SourceCtl::PauseDest { .. });
        let go_on = self.apply_ctl(msg);
        if rerouted {
            self.sent.fill(0);
        }
        go_on
    }

    fn apply_ctl(&mut self, msg: SourceCtl) -> bool {
        match msg {
            SourceCtl::Pause { epoch, affected } => {
                // Re-arming an identical pause (a deadline-retried Pause
                // whose ack was dropped) is idempotent: overwrite and
                // re-ack.
                self.paused = Some((epoch, PauseFilter::Keys(affected.into_iter().collect())));
                self.ack(SourceEvent::PauseAck { epoch }, CtlKind::PauseAck);
            }
            SourceCtl::PauseDest { epoch, dest } => {
                // The ack is valid here for the same reason as a key-set
                // pause: control runs only between routed batches, when
                // the fan-out accumulators are empty — everything routed
                // to `dest` so far is already in its channel.
                self.paused = Some((epoch, PauseFilter::Dest(dest)));
                self.ack(SourceEvent::PauseAck { epoch }, CtlKind::PauseAck);
            }
            SourceCtl::Resume { epoch, view } => {
                if let Some((cur, _)) = &self.paused {
                    if *cur != epoch {
                        // A deadline-retried Resume for an op that
                        // already finished must not clear a newer op's
                        // pause: ack it (the controller absorbs the
                        // duplicate by epoch) and keep holding.
                        self.ack(SourceEvent::ResumeAck { epoch }, CtlKind::ResumeAck);
                        return true;
                    }
                }
                // Clear the pause *before* flushing: the flush below runs
                // through ship(), which must not divert tuples back into
                // the buffer it is draining.
                self.paused = None;
                self.router.update(view);
                // Flush the pause buffer under the new view, batched like
                // the main path (order within each key is the buffer's
                // arrival order, which scatter preserves per destination).
                // The flush goes through ship() in batch-sized chunks, so
                // the tuple-denominated channel bound holds even for a
                // buffer that grew far beyond one batch during the pause
                // (an unchunked flush would also recycle an oversized
                // buffer into the pool, pinning its capacity for the
                // rest of the run).
                let mut buffered = std::mem::take(&mut self.buffer);
                let mut staged: Vec<Tuple> = Vec::with_capacity(self.batch);
                for t in buffered.drain(..) {
                    staged.push(t);
                    if staged.len() >= self.batch {
                        self.ship(&mut staged);
                    }
                }
                self.ship(&mut staged);
                // Drained, but keeps its capacity.
                self.buffer = buffered;
                // Flush complete: only now may the controller shut workers
                // down (Message ordering across two senders is otherwise
                // unconstrained, and a Shutdown overtaking the flushed
                // tuples would drop them).
                self.ack(SourceEvent::ResumeAck { epoch }, CtlKind::ResumeAck);
            }
            SourceCtl::UpdateView { view } => self.router.update(view),
            SourceCtl::DeadDest { dest, moves } => {
                // Pin the controller's re-route into the local table (a
                // delta keeps both sides in lockstep; key-oblivious
                // routers ship no moves and rely on the divert alone),
                // then ack: the ack tells the controller no further
                // tuple can enter the dead channel, so its backlog can
                // be drained and accounted.
                self.dead.insert(dest.index());
                if !moves.is_empty() {
                    let n_tasks = self.router.n_tasks();
                    self.router
                        .update(RoutingView::TableDelta { n_tasks, moves });
                }
                let _ = self.events.send(SourceEvent::DeadDestAck { dest });
            }
            SourceCtl::ReviveDest { dest, tx } => {
                self.worker_txs[dest.index()] = tx;
                self.dead.remove(&dest.index());
            }
            SourceCtl::Shutdown => return false,
        }
        true
    }
}

/// The source thread: feeds tuples, honours pause/resume, reports
/// interval boundaries. Staging, routing, and shipping all happen per
/// batch of `batch_size` tuples; emission timestamps are taken
/// once per staged batch.
#[allow(clippy::too_many_arguments)]
fn source_loop<F>(
    mut feeder: F,
    view: RoutingView,
    worker_txs: Vec<Sender<Message>>,
    ctl: Receiver<SourceCtl>,
    events: Sender<SourceEvent>,
    pool: Receiver<Vec<Vec<Tuple>>>,
    epoch: Instant,
    batch_size: usize,
    injector: Arc<FaultInjector>,
    mut recorder: ThreadRecorder,
) where
    F: FnMut(u64) -> Option<Vec<Tuple>> + Send,
{
    let batch = batch_size.max(1);
    // Control-poll granularity: at least every CTL_POLL staged tuples,
    // decoupled from the batch size so tiny batches do not pay a control
    // channel probe per send. 256 matches the pre-batching loop's bound
    // on tuples routed under a stale view.
    const CTL_POLL: usize = 256;
    let ctl_every = batch.max(CTL_POLL);
    let n_slots = worker_txs.len();
    let mut plane = SourcePlane {
        router: SourceRouter::from_view(view),
        worker_txs,
        events,
        paused: None,
        buffer: Vec::new(),
        fan: (0..n_slots).map(|_| Vec::with_capacity(batch)).collect(),
        touched: Vec::with_capacity(n_slots),
        pool,
        free: Vec::new(),
        keys: Vec::with_capacity(batch),
        dests: Vec::with_capacity(batch),
        batch,
        dead: FxHashSet::default(),
        sent: vec![0; n_slots],
        injector,
    };
    // Staging scratch, reused across batches to stay allocation-free.
    let mut staged: Vec<Tuple> = Vec::with_capacity(batch);
    let mut since_ctl = usize::MAX; // poll before the first batch

    let mut interval = 0u64;
    'feed: loop {
        let Some(tuples) = feeder(interval) else {
            break 'feed;
        };
        let fed = tuples.len() as u64;
        let mut pending = tuples.into_iter();
        plane.sent.fill(0);
        let mut alerted = false;
        loop {
            if since_ctl >= ctl_every {
                since_ctl = 0;
                plane.reclaim();
                while let Ok(msg) = ctl.try_recv() {
                    if !plane.handle_ctl(msg) {
                        return;
                    }
                }
                // One shot per interval, and only while at least half of
                // it is still to come: a plan made later has too little
                // of the interval left to pay for its pause.
                if !alerted && pending.len() as u64 * 2 > fed && plane.skewed(fed) {
                    alerted = true;
                    recorder.skew_alert(interval, plane.sent.clone());
                    let _ = plane.events.send(SourceEvent::SkewAlert { interval });
                }
            }
            // Stage the next batch, holding back keys paused for an
            // in-flight migration. One clock read stamps the whole batch.
            // The loop is bounded by tuples *consumed*, not staged: under
            // a pause that covers the hot keys, nearly everything goes to
            // the pause buffer, and a staged-only bound would starve the
            // control poll (and the Resume that empties that buffer) for
            // the rest of the interval.
            staged.clear();
            let mut consumed = 0usize;
            let batch_us = epoch.elapsed().as_micros() as u64;
            while staged.len() < batch && consumed < batch {
                let Some(mut t) = pending.next() else {
                    break;
                };
                consumed += 1;
                t.emitted_us = batch_us;
                if let Some((_, PauseFilter::Keys(affected))) = &plane.paused {
                    if affected.contains(&t.key) {
                        plane.buffer.push(t);
                        continue;
                    }
                }
                staged.push(t);
            }
            if consumed == 0 && pending.len() == 0 {
                break;
            }
            since_ctl += consumed;
            plane.ship(&mut staged);
        }
        since_ctl = usize::MAX; // interval boundary: poll immediately
        while let Ok(msg) = ctl.try_recv() {
            if !plane.handle_ctl(msg) {
                return;
            }
        }
        // Interval telemetry: routing-table shape (live entries vs.
        // tombstone debris), pool occupancy, and the interval's fed
        // total — all deterministic per seeded feed, all
        // batch-granularity.
        let (entries, tombstones) = plane.router.table_stats();
        recorder.router_snapshot(
            interval,
            entries as u64,
            tombstones as u64,
            plane.free.len() as u64,
        );
        recorder.interval_end(interval, fed);
        let _ = plane.events.send(SourceEvent::IntervalDone { interval });
        interval += 1;
    }
    let _ = plane.events.send(SourceEvent::Finished);

    // Stay responsive to control traffic (in-flight migrations) until the
    // controller says shutdown.
    while let Ok(msg) = ctl.recv() {
        if !plane.handle_ctl(msg) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::WordCountOp;
    use streambal_baselines::storm;
    use streambal_baselines::CoreBalancer;
    use streambal_core::{BalanceParams, RebalanceStrategy};
    use streambal_elastic::FixedSchedule;
    use streambal_workloads::FluctuatingWorkload;

    /// Reference word counts for a tuple sequence.
    fn reference_counts(tuples: &[Vec<Key>]) -> FxHashMap<Key, u64> {
        let mut m = FxHashMap::default();
        for iv in tuples {
            for &k in iv {
                *m.entry(k).or_insert(0) += 1;
            }
        }
        m
    }

    fn decode_counts(states: &[(Key, Bytes)]) -> FxHashMap<Key, u64> {
        let mut m = FxHashMap::default();
        for (k, blob) in states {
            let total: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *m.entry(*k).or_insert(0) += total;
        }
        m
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            n_workers: 3,
            max_workers: 3,
            channel_capacity: 256,
            collector_capacity: 64,
            batch_size: 32, // small batches: more batch boundaries under test
            spin_work: 10,
            window: 100, // keep everything: exact count validation
            elasticity: Box::new(HoldPolicy),
            split: None,
            fault_plan: FaultPlan::none(),
            op_deadline_intervals: 4,
            op_deadline: Duration::from_secs(5),
            round_deadline_intervals: 4,
            round_deadline: Duration::from_secs(5),
            trace: true,
        }
    }

    #[test]
    fn word_count_exact_under_hash() {
        let mut w = FluctuatingWorkload::new(200, 0.9, 3_000, 0.0, 11);
        let intervals: Vec<Vec<Key>> = (0..3).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let report = Engine::run(
            small_config(),
            Box::new(storm(3)),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert_eq!(
            report.processed,
            intervals.iter().map(|v| v.len() as u64).sum()
        );
        assert_eq!(decode_counts(&report.final_states), expect);
        assert_eq!(report.rebalances, 0);
    }

    #[test]
    fn word_count_exact_under_mixed_with_migrations() {
        // Skewed + fluctuating: Mixed must fire migrations, and the final
        // counts must still be exact (no tuple lost or double-counted, no
        // state lost in flight).
        let mut w = FluctuatingWorkload::new(300, 1.0, 5_000, 0.8, 23);
        let mut intervals: Vec<Vec<Key>> = Vec::new();
        for _ in 0..5 {
            intervals.push(w.tuples());
            w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
        }
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let report = Engine::run(
            small_config(),
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(report.rebalances > 0, "skew must trigger migration");
        assert!(report.migrated_keys > 0);
        assert_eq!(decode_counts(&report.final_states), expect, "exactly-once");
    }

    /// Provisional rounds under the paper's hardest regime (f = 1.0) and
    /// tiny channels: the source's alerts open rounds inside intervals,
    /// their plans migrate state at arbitrary cut points, and the final
    /// counts are still exact — with nothing in the error list or the
    /// fault ledger, and every span closed in protocol order.
    #[test]
    fn early_rounds_keep_word_counts_exact() {
        let mut hash = storm(3);
        let mut w = FluctuatingWorkload::new(300, 1.0, 8_000, 1.0, 23);
        let mut intervals: Vec<Vec<Key>> = Vec::new();
        for _ in 0..12 {
            intervals.push(w.tuples());
            w.advance(3, |k| hash.route(k));
        }
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let report = Engine::run(
            EngineConfig {
                channel_capacity: 64,
                ..small_config()
            },
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams::default(),
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        use streambal_trace::{EarlyStep, EventKind};
        let fired = report
            .trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::EarlyRound {
                        step: EarlyStep::Open,
                        ..
                    }
                )
            })
            .count();
        assert!(fired >= 1, "no early round fired in 12 drifting intervals");
        assert_eq!(report.protocol_errors, vec![]);
        assert_eq!(report.faults, vec![]);
        assert_eq!(report.trace.check_integrity(), Vec::<String>::new());
        assert_eq!(decode_counts(&report.final_states), expect, "exactly-once");
    }

    #[test]
    fn latency_and_throughput_recorded() {
        let report = Engine::run(
            small_config(),
            Box::new(storm(3)),
            |_| Box::new(WordCountOp::new()),
            |iv| (iv < 2).then(|| (0..2000u64).map(|i| Tuple::keyed(Key(i % 50))).collect()),
            None,
        );
        assert_eq!(report.processed, 4000);
        assert!(report.latency_us.count() == 4000);
        assert!(report.latency_us.mean() > 0.0);
        assert!(report.mean_throughput > 0.0);
        assert_eq!(report.interval_throughput.len(), 2);
    }

    #[test]
    fn pkg_partials_merge_to_exact_counts() {
        use crate::operator::SumCollector;
        use streambal_baselines::PkgPartitioner;
        let mut w = FluctuatingWorkload::new(100, 0.9, 4_000, 0.0, 7);
        let intervals: Vec<Vec<Key>> = (0..3)
            .map(|_| {
                let t = w.tuples();
                w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
                t
            })
            .collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let report = Engine::run(
            small_config(),
            Box::new(PkgPartitioner::new(3)),
            |_| Box::new(WordCountOp::with_partial_emission(16)),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            Some(Box::new(SumCollector::new())),
        );
        // The merged partial counts must equal the reference exactly.
        let merged: FxHashMap<Key, u64> = report
            .collector_result
            .iter()
            .map(|&(k, v)| (Key(k), v))
            .collect();
        assert_eq!(merged, expect, "partial/merge must reconstruct counts");
    }

    #[test]
    fn scale_out_adds_worker_and_keeps_counts_exact() {
        let mut w = FluctuatingWorkload::new(200, 0.9, 4_000, 0.0, 31);
        let intervals: Vec<Vec<Key>> = (0..6).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 3,
            elasticity: Box::new(FixedSchedule::scale_out_at(2)),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(CoreBalancer::new(
                2,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.1,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        // The third worker processed something after joining.
        assert!(
            report.per_worker_processed[2] > 0,
            "new worker got traffic: {:?}",
            report.per_worker_processed
        );
        assert_eq!(decode_counts(&report.final_states), expect);
        assert_eq!(
            report.scale_events,
            vec![ScaleEvent {
                interval: 2,
                from: 2,
                to: 3
            }]
        );
    }

    /// A full scale-out → scale-in cycle mid-run: the retired worker's
    /// state is re-homed losslessly (exact counts), its slot stops
    /// receiving traffic, and the report pins both events.
    #[test]
    fn scale_cycle_is_lossless_and_retires_the_worker() {
        let mut w = FluctuatingWorkload::new(250, 0.9, 4_000, 0.0, 57);
        let intervals: Vec<Vec<Key>> = (0..8).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 3,
            elasticity: Box::new(FixedSchedule::cycle(1, 4, 1)),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(CoreBalancer::new(
                2,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.1,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert_eq!(
            report.scale_events,
            vec![
                ScaleEvent {
                    interval: 1,
                    from: 2,
                    to: 3
                },
                ScaleEvent {
                    interval: 4,
                    from: 3,
                    to: 2
                },
            ]
        );
        assert_eq!(report.processed, total, "tuples lost or duplicated");
        // Counts are summed per key: scale-out without state movement may
        // split a key across workers; the sum must still be exact.
        let mut got: FxHashMap<Key, u64> = FxHashMap::default();
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "exactly-once across the cycle");
        assert!(
            report.per_worker_processed[2] > 0,
            "the transient worker processed traffic"
        );
        assert!(report.worker_seconds > 0.0);
    }

    /// Retiring into a re-provision: 2 → 3 → 2 → 3 reuses the retired
    /// slot's channel for a fresh worker, and counts stay exact.
    #[test]
    fn slot_reuse_after_scale_in_stays_exact() {
        let mut w = FluctuatingWorkload::new(150, 0.8, 3_000, 0.0, 71);
        let intervals: Vec<Vec<Key>> = (0..10).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 3,
            elasticity: Box::new(FixedSchedule::new([
                (1, ScaleDecision::ScaleOut),
                (3, ScaleDecision::ScaleIn),
                (5, ScaleDecision::ScaleOut),
                (7, ScaleDecision::ScaleIn),
            ])),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(storm(2)),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert_eq!(report.scale_events.len(), 4, "{:?}", report.scale_events);
        let mut got: FxHashMap<Key, u64> = FxHashMap::default();
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "exactly-once across two cycles");
    }

    /// A threshold policy on a ramp-up/ramp-down workload scales out at
    /// the burst and back in after it, and worker-seconds reflect the
    /// shorter high-parallelism span.
    #[test]
    fn threshold_policy_tracks_a_burst() {
        use streambal_elastic::ThresholdPolicy;
        // Interval volumes: 2 quiet, 4 burst (4×), 4 quiet; round-robin
        // over 200 keys, which hashing spreads evenly enough.
        let volumes = [800u64, 800, 3200, 3200, 3200, 3200, 800, 800, 800, 800];
        let intervals: Vec<Vec<Key>> = volumes
            .iter()
            .map(|&v| (0..v).map(|i| Key(i % 200)).collect())
            .collect();
        let expect = reference_counts(&intervals);
        // Worker cost per tuple = spin_work + 1 = 11: quiet total
        // Q = 8 800, burst total R = 35 200. On a one-core box the OS can
        // merge adjacent intervals into one stats round, so the
        // watermarks are placed to survive that blur: budget = 20 000,
        // high·budget = 14 000 — a burst round at 2 workers (mean 17 600)
        // fires, a double-merged quiet round (mean 8 800) cannot — and
        // low·budget = 12 000, below which no spreading of the 4-interval
        // quiet tail (4Q = 35 200 total) can keep *every* round's
        // survivors-mean: all ≥ 12 000 at 3 tasks needs ≥ 24 000 cost per
        // round, i.e. ≥ 96 000 in the tail. Mass conservation guarantees
        // the scale-in.
        let mut policy = ThresholdPolicy::new(21_600.0, 2, 4);
        policy.high = 0.7;
        policy.low = 0.6;
        policy.up_after = 1;
        policy.down_after = 1;
        policy.cooldown = 0;
        let feed = intervals.clone();
        let config = EngineConfig {
            n_workers: 2,
            max_workers: 4,
            elasticity: Box::new(policy),
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(storm(2)),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(
            report.scale_events.iter().any(|e| e.to > e.from),
            "burst must trigger scale-out: {:?}",
            report.scale_events
        );
        assert!(
            report.scale_events.iter().any(|e| e.to < e.from),
            "quiet tail must trigger scale-in: {:?}",
            report.scale_events
        );
        let mut got: FxHashMap<Key, u64> = FxHashMap::default();
        for (k, blob) in &report.final_states {
            let n: u64 = WordCountOp::decode(blob).iter().map(|&(_, c)| c).sum();
            *got.entry(*k).or_insert(0) += n;
        }
        assert_eq!(got, expect, "elastic run stays exact");
    }

    /// No cold scale-out lag: with the rebalance trigger damped (so no
    /// rebalance can feed the new slot), pre-placement alone migrates the
    /// churned keys' state into the new worker inside the scale-out
    /// quiescence window, so it takes their traffic within an interval or
    /// two of the decision — and the run stays exact.
    #[test]
    fn preplacement_feeds_the_new_worker() {
        use streambal_core::TriggerPolicy;
        let intervals: Vec<Vec<Key>> = (0..8)
            .map(|_| (0..3_000u64).map(|i| Key(i % 300)).collect())
            .collect();
        let expect = reference_counts(&intervals);
        let damped = CoreBalancer::new(3, 100, RebalanceStrategy::Mixed, BalanceParams::default())
            .with_trigger_policy(TriggerPolicy {
                consecutive: 100, // never fires within this run
                ..TriggerPolicy::default()
            });
        let decision = 1u64;
        let pre = Engine::run(
            EngineConfig {
                max_workers: 4,
                elasticity: Box::new(FixedSchedule::scale_out_at(decision)),
                // Small channels keep stats rounds close to interval
                // boundaries, so the decision lands promptly.
                channel_capacity: 64,
                ..small_config()
            },
            Box::new(damped),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                intervals
                    .get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert_eq!(pre.rebalances, 0, "trigger must stay damped");
        assert!(
            pre.migrated_keys > 0,
            "pre-placement must move the churned keys' state"
        );
        let first = pre.first_tuple_interval[3].expect("new worker fed");
        assert!(
            first <= decision + 2,
            "pre-placed worker cold for {} intervals",
            first - decision
        );
        assert!(pre.per_worker_processed[3] > 0);
        assert_eq!(decode_counts(&pre.final_states), expect, "pre-place exact");
    }

    /// Batch sizes 1, 3 and 256 must all be observationally identical:
    /// exact counts, exact processed totals, exact latency sample counts.
    #[test]
    fn batch_sizes_agree() {
        let mut w = FluctuatingWorkload::new(200, 0.9, 3_000, 0.0, 19);
        let intervals: Vec<Vec<Key>> = (0..3).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let total: u64 = intervals.iter().map(|v| v.len() as u64).sum();
        for batch_size in [1, 3, 256] {
            let config = EngineConfig {
                batch_size,
                ..small_config()
            };
            let feed = intervals.clone();
            let report = Engine::run(
                config,
                Box::new(storm(3)),
                |_| Box::new(WordCountOp::new()),
                move |iv| {
                    feed.get(iv as usize)
                        .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
                },
                None,
            );
            let label = format!("batch={batch_size}");
            assert_eq!(report.processed, total, "{label}");
            assert_eq!(report.latency_us.count(), total, "{label}");
            assert_eq!(decode_counts(&report.final_states), expect, "{label}");
        }
    }

    /// Migration consistency under batching with the channels squeezed to
    /// almost nothing: batch flushes must never reorder around
    /// `MigrateOut`/`Shutdown` markers even when every send blocks.
    #[test]
    fn tiny_channels_with_migrations_stay_exact() {
        let mut w = FluctuatingWorkload::new(300, 1.0, 4_000, 0.8, 29);
        let mut intervals: Vec<Vec<Key>> = Vec::new();
        for _ in 0..4 {
            intervals.push(w.tuples());
            w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
        }
        let expect = reference_counts(&intervals);
        let feed = intervals.clone();
        let config = EngineConfig {
            channel_capacity: 4,
            collector_capacity: 2,
            batch_size: 16,
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
            |_| Box::new(WordCountOp::new()),
            move |iv| {
                feed.get(iv as usize)
                    .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
            },
            None,
        );
        assert!(report.rebalances > 0, "skew must trigger migration");
        assert_eq!(decode_counts(&report.final_states), expect, "exactly-once");
    }

    #[test]
    fn backpressure_with_tiny_channels_terminates() {
        let config = EngineConfig {
            channel_capacity: 4,
            collector_capacity: 2,
            ..small_config()
        };
        let report = Engine::run(
            config,
            Box::new(storm(3)),
            |_| Box::new(WordCountOp::new()),
            |iv| (iv < 2).then(|| (0..500u64).map(|i| Tuple::keyed(Key(i % 7))).collect()),
            None,
        );
        assert_eq!(report.processed, 1000);
    }

    #[test]
    #[should_panic(expected = "must agree")]
    fn mismatched_parallelism_panics() {
        let _ = Engine::run(
            small_config(), // 3 workers
            Box::new(storm(2)),
            |_| Box::new(WordCountOp::new()),
            |_| None,
            None,
        );
    }
}
