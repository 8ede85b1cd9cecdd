//! Engine wiring: source, workers, collector, and the Fig. 5 controller.
//!
//! The data plane is batched end-to-end: the source routes and ships
//! tuples as [`Message::TupleBatch`]es from per-destination fan-out
//! accumulators (one channel send per destination per routed batch),
//! and workers drain whole batches. Consistency: batches and migration
//! markers share each worker's FIFO channel, and the source only
//! acknowledges `Pause`/`Resume` between routed batches when its
//! accumulators are flushed, so every marker the controller sends after
//! an ack lands behind every batch the ack covered — the paper's
//! per-tuple FIFO argument (see the crate docs) holds verbatim with
//! "tuple" replaced by "batch".

use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use streambal_core::{
    divert, skew_alert, Key, Partitioner, RoutingView, SourceRouter, TaskId, SKEW_ALERT_FLOOR,
    SKEW_ALERT_MIN_SHARE,
};
use streambal_elastic::{ElasticityPolicy, HoldPolicy, SplitPolicy};
use streambal_hashring::{FxHashSet, HashRing};
use streambal_metrics::{Histogram, TimeSeries};
use streambal_trace::{Outcome, ThreadLabel, ThreadRecorder, TraceLog, TraceSink};

use crate::controller::{ControlIo, Controller};
use crate::fault::{CtlKind, DropCounter, FaultEvent, FaultPlan};
use crate::merge::MergeStage;
use crate::message::{Event, Message, PauseScope, SourceCtl, SourceEvent};
use crate::operator::{Collector, Combine, Operator};
use crate::tuple::Tuple;
use crate::worker::{Worker, WorkerWiring};

/// Engine sizing and behaviour knobs.
///
/// `Clone` but not `Copy`: the elasticity policy is a boxed, stateful
/// object (cloned with its state via `ElasticityPolicy::box_clone`).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Initial downstream parallelism `N_D`.
    pub n_workers: usize,
    /// Pre-provisioned worker slots (extra slots allow scale-out). Slot
    /// `d` runs task `d`: a scale-out spawns on the slot of the
    /// partitioner's new task, and only while that slot is vacant — a
    /// scale-in victim still running there (a zombie whose op aborted)
    /// holds it until it retires. A run with fewer than `n_workers` is
    /// refused ([`Refusal::Slots`]).
    pub max_workers: usize,
    /// Source → worker channel depth in *tuples*; a full channel
    /// backpressures the source (the paper's "backpushing effect").
    /// Batched sends are weighted by their tuple count
    /// (`send_weighted`), so the bound stays exactly tuple-denominated
    /// at any batch size and any fan-out fill — control markers weigh
    /// nothing and never wait.
    /// A run with 0 is refused ([`Refusal::NoChannelCapacity`]).
    pub channel_capacity: usize,
    /// Worker → collector channel depth in *tuples* (PKG's max-pending
    /// analogue), weighted like [`EngineConfig::channel_capacity`]; 0 is
    /// refused ([`Refusal::NoCollectorCapacity`]).
    pub collector_capacity: usize,
    /// Tuples staged per routed batch on the source thread — the
    /// data-plane batch. Each routed batch fans out into per-destination
    /// buffers shipped as one [`Message::TupleBatch`] per destination
    /// touched. The source drains pause/resume/view updates every
    /// `max(batch_size, 256)` staged tuples, bounding how many tuples can
    /// be routed under a stale view. `1` (`0` is read as `1`) ships
    /// one-tuple batches through the same path.
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
    /// walks the op too, moving nothing). In: the drain → migrate →
    /// retire walk (the `scale_in` column of the crate docs' table). Decisions
    /// are clamped to `[1, max_workers]`. A round that closes while a
    /// retire is in flight or queued is decided when it ends, because a
    /// scale-out spawns on the partitioner's new task — the victim's
    /// slot, once freed: a scale-out after a scale-in grows onto it,
    /// whatever the threads' timing.
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
    /// deferred; a run of a [`Combine::Join`] operator with a split policy
    /// is refused. Default: `None` (never splits).
    pub split: Option<Box<dyn SplitPolicy>>,
    /// Deterministic fault schedule for this run (default: none). See
    /// [`crate::fault`] — every fired fault and recovery action lands in
    /// [`EngineReport::faults`], and unrecoverable tuples are accounted
    /// per key in [`EngineReport::lost_tuples`].
    pub fault_plan: FaultPlan,
    /// The deadline every controller wait is measured against — an
    /// in-flight op's current phase (`Pause`, `MigrateOut`,
    /// `StateInstall`, `Retire`, `Resume`), a statistics round's
    /// reports. A wait expires once this much wall time has passed since
    /// it started *and* either [`EngineConfig::deadline_intervals`]
    /// source intervals have passed or the source has finished (its
    /// intervals stop then, and the wall bound rules alone). Intervals
    /// are the deterministic clock; the wall bound keeps healthy-but-slow
    /// runs from spurious expiry. An expired op phase is re-driven once,
    /// then aborted with rollback, except the resume phase, which is
    /// re-driven at every expiry and never aborted; an expired round
    /// closes with the reports it has, its missing reporters recorded in
    /// the fault ledger, so a dead or wedged worker cannot hold
    /// statistics — or shutdown, which waits on open rounds — hostage.
    pub deadline: Duration,
    /// The interval half of [`EngineConfig::deadline`].
    pub deadline_intervals: u64,
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
            deadline: Duration::from_secs(5),
            deadline_intervals: 4,
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
    /// An auxiliary thread (source, collector) panicked; the run
    /// completed without it.
    ThreadPanicked {
        /// Which thread: `"source"` or `"collector"`.
        thread: &'static str,
    },
    /// [`Engine::run`] refused the run and started no thread; the
    /// report is otherwise empty.
    Refused(Refusal),
    /// At teardown, with no op abandoned, the source and the controller
    /// route a routing-table key to different workers after the divert
    /// (see `SourceCtl::Resume`): the lowest such key, where each sends
    /// it, and how many table keys are out of step.
    OutOfStep {
        /// The lowest key out of step.
        key: Key,
        /// Where the source sends it.
        source: usize,
        /// Where the controller routes it.
        controller: usize,
        /// How many table keys are out of step.
        keys: usize,
    },
}

/// Why [`Engine::run`] refused a run ([`ProtocolError::Refused`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// [`EngineConfig::n_workers`] is 0.
    NoWorkers,
    /// [`EngineConfig::max_workers`] provisions fewer slots than the
    /// initial workers need.
    Slots {
        /// The configured `max_workers`.
        max_workers: usize,
        /// The configured initial parallelism.
        workers: usize,
    },
    /// [`EngineConfig::channel_capacity`] is 0: no worker channel could
    /// hold a batch.
    NoChannelCapacity,
    /// [`EngineConfig::collector_capacity`] is 0: the merge stage's
    /// channel could hold nothing.
    NoCollectorCapacity,
    /// The partitioner routes over a different number of tasks than
    /// [`EngineConfig::n_workers`].
    Parallelism {
        /// The partitioner's `n_tasks()`.
        partitioner: usize,
        /// The configured initial parallelism.
        workers: usize,
    },
    /// A [`Combine::Join`] operator under a split policy.
    JoinSplit,
    /// A [`Combine::Join`] operator under a partitioner that spreads a
    /// key over several tasks (`preserves_key_semantics() == false`).
    JoinSpread,
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
            ProtocolError::ThreadPanicked { thread } => {
                write!(f, "{thread} thread panicked")
            }
            ProtocolError::Refused(why) => write!(f, "run refused: {why:?}"),
            ProtocolError::OutOfStep {
                key,
                source,
                controller,
                keys,
            } => write!(
                f,
                "source sends {key:?} to worker {source}, the controller routes it to \
                 {controller} ({keys} table keys out of step)"
            ),
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
    /// Wall time of the run, from start until every worker has drained —
    /// the same instant [`EngineReport::worker_seconds`] closes at.
    pub wall: Duration,
    /// Mean throughput, tuples/second (`processed / wall`).
    pub mean_throughput: f64,
    /// Per-interval throughput series (interval, tuples/s), one point
    /// per decided statistics round, in interval order: the tuples its
    /// reports cover (their merged latency histogram holds one sample per
    /// tuple) over the wall time between the source's previous cut and
    /// the one that closed the interval, both as the controller read
    /// them.
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
    ///
    /// A run that cannot be sound returns at once, before any thread
    /// starts, with [`ProtocolError::Refused`] saying why ([`Refusal`]).
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
        let max_workers = config.max_workers;
        // The initial workers' operators, built before any thread
        // starts: whether the run is sound depends on how they combine.
        let ops: Vec<Box<dyn Operator>> = (0..config.n_workers)
            .map(|d| op_factory(TaskId::from(d)))
            .collect();
        if let Some(why) = refusal(&config, &*partitioner, &ops) {
            let mut report = EngineReport::empty(partitioner.name(), max_workers);
            report.protocol_errors.push(ProtocolError::Refused(why));
            return report;
        }

        // One channel per slot, provisioned or not. Capacities are
        // tuple-denominated: batch sends are weighted by their tuple
        // count, so the in-flight bound — the backpushing effect — is
        // exactly what the config documents at any batch size and any
        // fan-out fill.
        let (worker_txs, mut slot_rxs): (Vec<_>, Vec<_>) = (0..max_workers)
            .map(|_| bounded::<Message>(config.channel_capacity))
            .unzip();
        // The controller's one inbox: the source's events and the
        // workers' share it, so a report lands behind the cut it answers.
        let (event_tx, event_rx) = unbounded::<Event>();
        let (ctl_tx, ctl_rx) = unbounded::<SourceCtl>();
        let (col_tx, col_rx) = bounded::<Vec<Tuple>>(config.collector_capacity);
        // One flight-recorder sink per run; every thread gets its own
        // lock-free ThreadRecorder view of it.
        let sink = TraceSink::new(config.trace);
        // Fault state belongs to the thread that uses it (`crate::fault`).
        let wiring = WorkerWiring {
            events: event_tx.clone(),
            collector: collector.is_some().then(|| col_tx.clone()),
            spin_work: config.spin_work,
            window: config.window as u64,
            epoch: t0,
            emit_batch: config.batch_size.max(1),
            faults: config.fault_plan.clone(),
            sink: Arc::clone(&sink),
        };

        // Each thread body is built on the thread that runs it, so its
        // buffers come from that thread's allocator arena (building them
        // here measurably raised peak RSS).
        std::thread::scope(|s| {
            // --- workers (initially, and on scale-out) -------------------
            let spawn_worker = move |id: usize, rx, op, start_interval| {
                let wiring = wiring.clone();
                s.spawn(move || {
                    Worker::new(wiring, TaskId::from(id), rx, op, start_interval).run()
                });
            };
            let spare = slot_rxs.split_off(ops.len());
            for (d, (rx, op)) in slot_rxs.into_iter().zip(ops).enumerate() {
                spawn_worker(d, rx, op, 0);
            }

            // --- merge stage (the downstream operator) --------------------
            let merge = collector.map(|c| {
                let stage = MergeStage::new(c, col_rx, sink.recorder(ThreadLabel::Collector));
                s.spawn(move || stage.run())
            });

            // --- source ---------------------------------------------------
            let (view, txs, batch) = (
                partitioner.routing_view(),
                worker_txs.clone(),
                config.batch_size,
            );
            let drops = DropCounter::new(&config.fault_plan);
            let rec = sink.recorder(ThreadLabel::Source);
            let source = s.spawn(move || {
                SourcePlane::new(view, txs, ctl_rx, event_tx, batch, drops).run(feeder, t0, rec)
            });

            // --- controller (this thread) ----------------------------------
            let io = ControlIo {
                worker_txs,
                ctl_tx,
                rec: sink.recorder(ThreadLabel::Controller),
                make_op: Box::new(op_factory),
                spawn: Box::new(spawn_worker),
            };
            let mut ctl = Controller::new(config, partitioner, io, spare, t0);
            drive(&mut ctl, &event_rx);
            teardown(ctl, source, merge, col_tx, &sink)
        })
    }
}

/// A feeder for [`Engine::run`] that replays a copy of `intervals`: the
/// keys of interval `i` as keyed tuples on call `i`, then `None`.
pub fn replay(intervals: &[Vec<Key>]) -> impl FnMut(u64) -> Option<Vec<Tuple>> + Send {
    let feed = intervals.to_vec();
    move |iv| {
        feed.get(iv as usize)
            .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
    }
}

/// Why a run cannot start, if it cannot: no worker, fewer slots than
/// workers, a channel that can hold nothing, a partitioner over a
/// different number of tasks, or a join operator whose keys the run
/// could spread over several workers — a join does not fold, so each
/// replica would pair only its own share of a key's tuples.
fn refusal(
    config: &EngineConfig,
    partitioner: &dyn Partitioner,
    ops: &[Box<dyn Operator>],
) -> Option<Refusal> {
    if config.n_workers == 0 {
        return Some(Refusal::NoWorkers);
    }
    if config.max_workers < config.n_workers {
        return Some(Refusal::Slots {
            max_workers: config.max_workers,
            workers: config.n_workers,
        });
    }
    if config.channel_capacity == 0 {
        return Some(Refusal::NoChannelCapacity);
    }
    if config.collector_capacity == 0 {
        return Some(Refusal::NoCollectorCapacity);
    }
    if partitioner.n_tasks() != config.n_workers {
        return Some(Refusal::Parallelism {
            partitioner: partitioner.n_tasks(),
            workers: config.n_workers,
        });
    }
    if !ops.iter().any(|op| op.combine() == Combine::Join) {
        return None;
    }
    if config.split.is_some() {
        return Some(Refusal::JoinSplit);
    }
    (!partitioner.preserves_key_semantics()).then_some(Refusal::JoinSpread)
}

/// The controller's event loop: hands every event of its one inbox to
/// the controller, and ticks it after each one and on every idle
/// wake-up, until every worker has drained. It reads the clock once per
/// turn and passes that instant in; the controller reads none.
fn drive(ctl: &mut Controller<'_>, events: &Receiver<Event>) {
    while !ctl.done() {
        // Bounded wait: the tick (deadline retries/aborts, stats-round
        // expiry, the shutdown gate) must run even when no event arrives.
        let ev = events.recv_timeout(Duration::from_millis(10));
        let now = Instant::now();
        if let Ok(ev) = ev {
            ctl.on_event(ev, now);
            if ctl.done() {
                break;
            }
        }
        ctl.tick(now);
    }
}

/// Closes a run whose workers have all drained: tells the source to
/// exit, joins it and the merge stage, and merges the trace into the
/// report. `finish` drops the worker spawner with the controller — it
/// holds a collector-sender clone, which must go (with `col_tx`) before
/// the merge-stage join, or the stage never observes closure.
/// The source's routing, checked against the controller's unless the
/// teardown abandoned an op ([`out_of_step`]).
fn teardown(
    ctl: Controller<'_>,
    source: ScopedJoinHandle<'_, Routing>,
    merge: Option<ScopedJoinHandle<'_, Vec<(u64, u64)>>>,
    col_tx: Sender<Vec<Tuple>>,
    sink: &TraceSink,
) -> EngineReport {
    let (mut report, mut rec, open_span, settled) = ctl.finish(Instant::now());
    drop(col_tx);
    match source.join() {
        Ok(routed) => {
            let fault = settled.and_then(|ctl| out_of_step(routed, ctl));
            report.protocol_errors.extend(fault);
        }
        Err(_) => report
            .protocol_errors
            .push(ProtocolError::ThreadPanicked { thread: "source" }),
    }
    if let Some(h) = merge {
        match h.join() {
            Ok(r) => report.collector_result = r,
            Err(_) => report.protocol_errors.push(ProtocolError::ThreadPanicked {
                thread: "collector",
            }),
        }
    }
    // Every thread's recorder has flushed by now (workers drained,
    // source and collector joined). Force-close the span still open, if
    // any — the op the teardown outran — as Abandoned, then merge the
    // run's trace into the report.
    if let Some(epoch) = open_span {
        rec.span_close(epoch, Outcome::Abandoned);
    }
    drop(rec);
    report.trace = sink.take_log();
    report
}

/// A holder's routing: its router and the slots it diverts around.
pub(crate) type Routing = (SourceRouter, FxHashSet<usize>);

/// The lockstep check: every key in either holder's routing table lands,
/// after the divert, on the same slot at the source as at the controller.
/// A key the controller splits is in step wherever the source routes it
/// among the controller's replicas — each holder rotates its own cursor.
/// Reports the lowest key out of step, and how many are.
pub(crate) fn out_of_step(source: Routing, controller: Routing) -> Option<ProtocolError> {
    let ((mut src, src_dead), (mut ctl, ctl_dead)) = (source, controller);
    let mut keys: Vec<Key> = [&src, &ctl]
        .iter()
        .filter_map(|r| r.assignment())
        .flat_map(|a| a.table().iter().map(|(k, _)| k))
        .collect();
    if keys.is_empty() {
        return None;
    }
    keys.sort_unstable();
    keys.dedup();
    let (src_ring, ctl_ring) = (HashRing::new(src.n_tasks()), HashRing::new(ctl.n_tasks()));
    let mut first = None;
    let mut count = 0;
    for k in keys {
        let at_source = src.route(k);
        let replicas = ctl.assignment().and_then(|a| a.split_replicas(k));
        if replicas.is_some_and(|r| r.contains(&at_source)) {
            continue;
        }
        let s = divert(&src_ring, k, at_source, |x| src_dead.contains(&x));
        let c = divert(&ctl_ring, k, ctl.route(k), |x| ctl_dead.contains(&x));
        if s != c {
            count += 1;
            first.get_or_insert((k, s, c));
        }
    }
    first.map(|(key, source, controller)| ProtocolError::OutOfStep {
        key,
        source: source.index(),
        controller: controller.index(),
        keys: count,
    })
}

/// What the source is holding back during an in-flight control op: the
/// `Pause` message's [`PauseScope`], its keys as a set for the per-tuple
/// lookup.
enum PauseFilter {
    /// Migration: the affected key set `Δ(F, F′)`.
    Keys(FxHashSet<Key>),
    /// Scale-in: everything routed to the retiring destination. Evaluated
    /// *after* routing (in [`SourcePlane::ship`]), because membership is a
    /// property of the route, not the key.
    Dest(TaskId),
}

/// The source's pause buffer: the tuples an in-flight op holds back, in
/// arrival order, cut into runs by the stamp they were staged at, so the
/// `Resume` flush ships each run under its own stamp.
#[derive(Default)]
struct PauseBuffer {
    tuples: Vec<Tuple>,
    /// `(emitted_us, len)` per run, in order: the next `len` tuples were
    /// staged at `emitted_us`.
    runs: Vec<(u64, usize)>,
}

impl PauseBuffer {
    fn push(&mut self, t: Tuple, emitted_us: u64) {
        match self.runs.last_mut() {
            Some((stamp, len)) if *stamp == emitted_us => *len += 1,
            _ => self.runs.push((emitted_us, 1)),
        }
        self.tuples.push(t);
    }
}

/// Control-poll granularity: the source drains its control inbox at
/// least every `CTL_POLL` staged tuples, decoupled from the batch size so
/// tiny batches do not pay a control-channel probe per send. 256 matches
/// the pre-batching loop's bound on tuples routed under a stale view.
const CTL_POLL: usize = 256;

/// The source thread ([`SourcePlane::run`]) and its data plane: router,
/// fan-out accumulators and pause buffer.
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
    /// The control inbox, handled one message at a time by
    /// [`SourcePlane::handle_ctl`].
    ctl: Receiver<SourceCtl>,
    /// The controller's inbox.
    events: Sender<Event>,
    /// In-flight control op: epoch and the pause filter.
    paused: Option<(u64, PauseFilter)>,
    /// Tuples of paused keys, held until `Resume`.
    buffer: PauseBuffer,
    /// Per-destination batch accumulators (indexed by worker slot).
    fan: Vec<Vec<Tuple>>,
    /// Destinations with a non-empty accumulator, in first-touch order.
    touched: Vec<usize>,
    /// Routing scratch, reused across batches.
    keys: Vec<Key>,
    dests: Vec<TaskId>,
    batch: usize,
    /// Dead worker slots (`DeadDest`, or a send failure observed first-
    /// hand): routed tuples divert past them in [`SourcePlane::ship`]
    /// until a `ReviveDest` swaps in a fresh channel.
    dead: FxHashSet<usize>,
    /// `h` over the router's slots, built at the first divert under a
    /// view.
    ring: Option<HashRing>,
    /// Tuples sent to each slot in the open interval under the current
    /// view (zeroed at every interval boundary and view change) — what
    /// the skew alert is evaluated on.
    sent: Vec<u64>,
    /// Drop ordinals of the statistics markers it puts into channels.
    drops: DropCounter,
}

impl SourcePlane {
    fn new(
        view: RoutingView,
        worker_txs: Vec<Sender<Message>>,
        ctl: Receiver<SourceCtl>,
        events: Sender<Event>,
        batch_size: usize,
        drops: DropCounter,
    ) -> Self {
        let batch = batch_size.max(1);
        let n_slots = worker_txs.len();
        SourcePlane {
            router: SourceRouter::from_view(view),
            worker_txs,
            ctl,
            events,
            paused: None,
            buffer: PauseBuffer::default(),
            fan: (0..n_slots).map(|_| Vec::with_capacity(batch)).collect(),
            touched: Vec::with_capacity(n_slots),
            keys: Vec::with_capacity(batch),
            dests: Vec::with_capacity(batch),
            batch,
            dead: FxHashSet::default(),
            ring: None,
            sent: vec![0; n_slots],
            drops,
        }
    }

    /// The source thread: feeds each interval ([`SourcePlane::feed`]),
    /// reports its boundary, and once the feeder is exhausted stays
    /// responsive to control traffic (in-flight migrations) until the
    /// controller says shutdown.
    /// Returns the routing it ends on, for the teardown's lockstep check.
    fn run<F>(mut self, mut feeder: F, epoch: Instant, mut recorder: ThreadRecorder) -> Routing
    where
        F: FnMut(u64) -> Option<Vec<Tuple>> + Send,
    {
        let mut interval = 0u64;
        while let Some(tuples) = feeder(interval) {
            let fed = tuples.len() as u64;
            if !self.feed(interval, tuples, epoch, &mut recorder) || !self.poll_ctl() {
                return (self.router, self.dead);
            }
            // Interval telemetry: routing-table shape (live entries vs.
            // tombstone debris) and the interval's fed total — both
            // deterministic per seeded feed.
            let (entries, tombstones) = self.router.table_stats();
            recorder.router_snapshot(interval, entries as u64, tombstones as u64);
            recorder.interval_end(interval, fed);
            self.cut(interval, false);
            interval += 1;
        }
        self.emit(SourceEvent::Finished);
        while let Ok(msg) = self.ctl.recv() {
            if !self.handle_ctl(msg) {
                break;
            }
        }
        (self.router, self.dead)
    }

    /// Routes and ships one interval's tuples, staging, routing and
    /// shipping per batch of `batch_size` tuples with one emission
    /// stamp per staged batch (every message it ships carries it), and
    /// polling control between batches. Returns false on `Shutdown`.
    fn feed(
        &mut self,
        interval: u64,
        tuples: Vec<Tuple>,
        epoch: Instant,
        recorder: &mut ThreadRecorder,
    ) -> bool {
        let batch = self.batch;
        let ctl_every = batch.max(CTL_POLL);
        let fed = tuples.len() as u64;
        let mut pending = tuples.into_iter();
        let mut staged: Vec<Tuple> = Vec::with_capacity(batch);
        let mut since_ctl = usize::MAX; // poll before the first batch
        let mut alerted = false;
        self.sent.fill(0);
        loop {
            if since_ctl >= ctl_every {
                since_ctl = 0;
                if !self.poll_ctl() {
                    return false;
                }
                // One shot per interval, and only while at least half of
                // it is still to come: a plan made later has too little
                // of the interval left to pay for its pause.
                if !alerted && pending.len() as u64 * 2 > fed && self.skewed(fed) {
                    alerted = true;
                    recorder.skew_alert(interval, self.sent.clone());
                    self.cut(interval, true);
                }
            }
            // Stage the next batch, holding back keys paused for an
            // in-flight migration. One clock read stamps the whole batch:
            // its messages, and its run of the pause buffer.
            // The loop is bounded by tuples *consumed*, not staged: under
            // a pause that covers the hot keys, nearly everything goes to
            // the pause buffer, and a staged-only bound would starve the
            // control poll (and the Resume that empties that buffer) for
            // the rest of the interval.
            staged.clear();
            let mut consumed = 0usize;
            let batch_us = epoch.elapsed().as_micros() as u64;
            while staged.len() < batch && consumed < batch {
                let Some(t) = pending.next() else {
                    break;
                };
                consumed += 1;
                if let Some((_, PauseFilter::Keys(affected))) = &self.paused {
                    if affected.contains(&t.key) {
                        self.buffer.push(t, batch_us);
                        continue;
                    }
                }
                staged.push(t);
            }
            if consumed == 0 && pending.len() == 0 {
                return true;
            }
            since_ctl += consumed;
            self.ship(&mut staged, batch_us);
        }
    }

    /// Handles every control message waiting in the inbox; false on
    /// `Shutdown`.
    fn poll_ctl(&mut self) -> bool {
        while let Ok(msg) = self.ctl.try_recv() {
            if !self.handle_ctl(msg) {
                return false;
            }
        }
        true
    }

    /// Routes `staged`, staged at `emitted_us`, and ships it downstream:
    /// one channel send per destination touched, each message stamped
    /// `emitted_us`. Drains `staged`, preserving per-destination tuple
    /// order. Under a destination pause (scale-in), tuples routed to the
    /// quiesced worker divert to the pause buffer instead — in arrival
    /// order and under their stamp, so the Resume flush replays them FIFO
    /// under the new view. A tuple routed to a dead slot takes the one
    /// divert rule ([`divert`]), like the controller's table and state.
    /// A failed send means the worker died before the controller said
    /// so: the slot is marked dead, and the batch, recovered from the
    /// send, is shipped again the same way, under the same stamp.
    fn ship(&mut self, staged: &mut Vec<Tuple>, emitted_us: u64) {
        if staged.is_empty() {
            return;
        }
        self.keys.clear();
        self.keys.extend(staged.iter().map(|t| t.key));
        let mut dests = std::mem::take(&mut self.dests);
        self.router.route_batch(&self.keys, &mut dests);
        if !self.dead.is_empty() {
            let n = self.router.n_tasks();
            let ring = self.ring.get_or_insert_with(|| HashRing::new(n));
            let dead = &self.dead;
            for (d, &k) in dests.iter_mut().zip(&self.keys) {
                *d = divert(ring, k, *d, |x| dead.contains(&x));
            }
        }
        let pause_dest = match &self.paused {
            Some((_, PauseFilter::Dest(d))) => Some(*d),
            _ => None,
        };
        for (t, d) in staged.drain(..).zip(&dests) {
            if pause_dest == Some(*d) {
                self.buffer.push(t, emitted_us);
                continue;
            }
            let slot = &mut self.fan[d.index()];
            if slot.is_empty() {
                self.touched.push(d.index());
            }
            slot.push(t);
        }
        self.dests = dests;
        let mut failed = Vec::new();
        for i in 0..self.touched.len() {
            let d = self.touched[i];
            let tuples = std::mem::replace(&mut self.fan[d], Vec::with_capacity(self.batch));
            let weight = tuples.len();
            match self.worker_txs[d]
                .send_weighted(Message::TupleBatch { emitted_us, tuples }, weight)
            {
                Ok(()) => self.sent[d] += weight as u64,
                // A slot already dead was the divert's last resort:
                // every slot is dead (unreachable in practice — worker 0
                // is never fault-injected), and nowhere can account it.
                Err(e) => {
                    if let (true, Message::TupleBatch { tuples, .. }) = (self.lost_dest(d), e.0) {
                        failed.extend(tuples);
                    }
                }
            }
        }
        self.touched.clear();
        self.ship(&mut failed, emitted_us);
    }

    /// A send to `dest` failed: the worker died under us before the
    /// controller could say so. Marks the slot and reports it once;
    /// true the first time.
    fn lost_dest(&mut self, dest: usize) -> bool {
        let first = self.dead.insert(dest);
        if first {
            self.emit(SourceEvent::SendFailed {
                dest: TaskId::from(dest),
            });
        }
        first
    }

    /// Cuts a statistics round in-band: the interval's closing round, or
    /// with `peek` the skew alert's provisional one. Called between
    /// routed batches, when every accumulator is flushed. It announces
    /// the round with the slots it marks *before* it marks them, so no
    /// answer can reach the controller ahead of its round; then each
    /// marker lands behind every batch routed so far and ahead of every
    /// later one. A marker weighs nothing, so marking never waits for
    /// room. A marker the plan drops stays announced, as one lost in
    /// flight would; the controller is told of the drop instead.
    fn cut(&mut self, interval: u64, peek: bool) {
        let held = match &self.paused {
            Some((_, PauseFilter::Dest(d))) => Some(d.index()),
            _ => None,
        };
        let marked: Vec<usize> = (0..self.router.n_tasks())
            .filter(|d| !self.dead.contains(d) && held != Some(*d))
            .collect();
        let announced = marked.iter().copied().map(TaskId::from).collect();
        self.emit(if peek {
            SourceEvent::SkewAlert {
                interval,
                marked: announced,
            }
        } else {
            SourceEvent::IntervalDone {
                interval,
                marked: announced,
            }
        });
        for d in marked {
            if let Some(dropped) = self.drops.count(CtlKind::StatsRequest) {
                let _ = self.events.send(Event::Injected(dropped));
                continue;
            }
            let marker = if peek {
                Message::StatsPeek { interval }
            } else {
                Message::StatsRequest { interval }
            };
            if self.worker_txs[d].send_weighted(marker, 0).is_err() {
                self.lost_dest(d);
            }
        }
    }

    /// Sends the controller one event. Its inbox outlives the source
    /// (the controller joins the source before dropping the receiver),
    /// so the discarded send result can only ever be `Ok`.
    fn emit(&self, ev: SourceEvent) {
        let _ = self.events.send(Event::Source(ev));
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
        let rerouted = !matches!(msg, SourceCtl::Pause { .. });
        let go_on = self.apply_ctl(msg);
        if rerouted {
            self.sent.fill(0);
        }
        go_on
    }

    fn apply_ctl(&mut self, msg: SourceCtl) -> bool {
        match msg {
            SourceCtl::Pause { epoch, scope } => {
                // Re-arming an identical pause (a deadline-retried Pause
                // whose ack was dropped) is idempotent: overwrite and
                // re-ack. The ack is valid because control runs only
                // between routed batches, when the fan-out accumulators
                // are empty.
                let filter = match scope {
                    PauseScope::Keys(keys) => PauseFilter::Keys(keys.into_iter().collect()),
                    PauseScope::Dest(dest) => PauseFilter::Dest(dest),
                };
                self.paused = Some((epoch, filter));
                self.emit(SourceEvent::PauseAck { epoch });
            }
            SourceCtl::Resume { epoch, view } => {
                if let Some((cur, _)) = &self.paused {
                    if *cur != epoch {
                        // A deadline-retried Resume for an op that
                        // already finished must not clear a newer op's
                        // pause: ack it (the controller absorbs the
                        // duplicate by epoch) and keep holding.
                        self.emit(SourceEvent::ResumeAck { epoch });
                        return true;
                    }
                }
                // Clear the pause *before* flushing: the flush below runs
                // through ship(), which must not divert tuples back into
                // the buffer it is draining.
                self.paused = None;
                self.router.update(view);
                self.ring = None;
                // Flush the pause buffer under the new view, batched like
                // the main path (order within each key is the buffer's
                // arrival order, which scatter preserves per destination).
                // The flush goes through ship() in batch-sized chunks, so
                // the tuple-denominated channel bound holds even for a
                // buffer that grew far beyond one batch during the pause,
                // and a chunk never crosses a run: each ships under the
                // stamp its tuples were staged at.
                let PauseBuffer {
                    mut tuples,
                    mut runs,
                } = std::mem::take(&mut self.buffer);
                let mut held = tuples.drain(..);
                let mut staged: Vec<Tuple> = Vec::with_capacity(self.batch);
                for &(stamp, len) in &runs {
                    for t in held.by_ref().take(len) {
                        staged.push(t);
                        if staged.len() >= self.batch {
                            self.ship(&mut staged, stamp);
                        }
                    }
                    self.ship(&mut staged, stamp);
                }
                drop(held);
                // Drained, but keeps its capacity.
                runs.clear();
                self.buffer = PauseBuffer { tuples, runs };
                // Flush complete: only now may the controller shut workers
                // down (Message ordering across two senders is otherwise
                // unconstrained, and a Shutdown overtaking the flushed
                // tuples would drop them).
                self.emit(SourceEvent::ResumeAck { epoch });
            }
            SourceCtl::DeadDest { dest } => {
                // Divert around the slot from now on, then ack: the ack
                // tells the controller no further tuple can enter the
                // dead channel, so its backlog can be drained and
                // accounted.
                self.dead.insert(dest.index());
                self.emit(SourceEvent::DeadDestAck { dest });
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
#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::WordCountOp;
    use streambal_baselines::storm;
    use streambal_baselines::CoreBalancer;
    use streambal_core::{BalanceParams, RebalanceStrategy};
    use streambal_elastic::{FixedSchedule, ScaleDecision};
    use streambal_hashring::FxHashMap;
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
        let op = WordCountOp::new();
        for (k, blob) in states {
            *m.entry(*k).or_insert(0) += op.tuples_in_blob(blob);
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
            deadline: Duration::from_secs(5),
            deadline_intervals: 4,
            trace: true,
        }
    }

    #[test]
    fn word_count_exact_under_hash() {
        let mut w = FluctuatingWorkload::new(200, 0.9, 3_000, 0.0, 11);
        let intervals: Vec<Vec<Key>> = (0..3).map(|_| w.tuples()).collect();
        let expect = reference_counts(&intervals);
        let report = Engine::run(
            small_config(),
            Box::new(storm(3)),
            |_| Box::new(WordCountOp::new()),
            replay(&intervals),
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
            replay(&intervals),
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
            replay(&intervals),
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
        // One point per interval, from its closed round.
        let points = report.interval_throughput.points();
        assert_eq!(points.iter().map(|p| p.0).collect::<Vec<_>>(), [0.0, 1.0]);
        assert!(points.iter().all(|p| p.1 > 0.0), "{points:?}");
    }

    #[test]
    fn pkg_partials_merge_to_exact_counts() {
        use crate::operator::SumCollector;
        let mut w = FluctuatingWorkload::new(100, 0.9, 4_000, 0.0, 7);
        let intervals: Vec<Vec<Key>> = (0..3)
            .map(|_| {
                let t = w.tuples();
                w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
                t
            })
            .collect();
        let expect = reference_counts(&intervals);
        let report = Engine::run(
            small_config(),
            Box::new(streambal_baselines::pkg(3)),
            |_| Box::new(WordCountOp::with_partial_emission(16)),
            replay(&intervals),
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
            replay(&intervals),
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
            replay(&intervals),
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
        let got = decode_counts(&report.final_states);
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
            replay(&intervals),
            None,
        );
        assert_eq!(report.scale_events.len(), 4, "{:?}", report.scale_events);
        let got = decode_counts(&report.final_states);
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
            replay(&intervals),
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
        let got = decode_counts(&report.final_states);
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
            replay(&intervals),
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
            let report = Engine::run(
                config,
                Box::new(storm(3)),
                |_| Box::new(WordCountOp::new()),
                replay(&intervals),
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
            replay(&intervals),
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

    /// Bad parallelism or sizing is refused before any thread starts:
    /// the feeder is never called, and the report says why.
    #[test]
    fn mismatched_parallelism_is_a_reported_error() {
        let refused = |config: EngineConfig, partitioner| {
            let report = Engine::run(
                config,
                Box::new(partitioner),
                |_| Box::new(WordCountOp::new()),
                |_| -> Option<Vec<Tuple>> { panic!("a refused run fed a tuple") },
                None,
            );
            assert_eq!(report.processed, 0);
            report.protocol_errors
        };
        let reason = |why| vec![ProtocolError::Refused(why)];
        let two = Refusal::Parallelism {
            partitioner: 2,
            workers: 3,
        };
        assert_eq!(refused(small_config(), storm(2)), reason(two));
        let none = EngineConfig {
            n_workers: 0,
            ..small_config()
        };
        assert_eq!(refused(none, storm(1)), reason(Refusal::NoWorkers));
        let slots = EngineConfig {
            max_workers: 2,
            ..small_config()
        };
        let short = Refusal::Slots {
            max_workers: 2,
            workers: 3,
        };
        assert_eq!(refused(slots, storm(3)), reason(short));
        let channel = EngineConfig {
            channel_capacity: 0,
            ..small_config()
        };
        assert_eq!(
            refused(channel, storm(3)),
            reason(Refusal::NoChannelCapacity)
        );
        let collector = EngineConfig {
            collector_capacity: 0,
            ..small_config()
        };
        assert_eq!(
            refused(collector, storm(3)),
            reason(Refusal::NoCollectorCapacity)
        );
    }

    /// A join does not fold, so a run that could put one key's tuples on
    /// several workers is refused before any thread starts: each worker
    /// would pair only its own share of the key's tuples, and nothing
    /// would report the missing pairs.
    #[test]
    fn joins_refuse_to_split_or_spread() {
        use crate::operator::CoJoinOp;
        use crate::tuple::{TAG_LEFT, TAG_RIGHT};
        use streambal_baselines::pkg;
        use streambal_elastic::FixedSplitSchedule;
        // 40 orders and 40 lineitems of key 7 per interval, 4 intervals.
        let feed = |iv: u64| {
            (iv < 4).then(|| {
                (0..80u64)
                    .map(|i| {
                        let tag = if i % 2 == 0 { TAG_LEFT } else { TAG_RIGHT };
                        Tuple::tagged(Key(7), tag, [i, iv])
                    })
                    .collect()
            })
        };
        let run = |config: EngineConfig, partitioner: Box<dyn Partitioner>| {
            let collector = Box::new(crate::operator::SumCollector::new());
            Engine::run(
                config,
                partitioner,
                |_| Box::new(CoJoinOp::new()),
                feed,
                Some(collector as Box<dyn Collector>),
            )
        };
        let split = EngineConfig {
            split: Some(Box::new(FixedSplitSchedule::cycle(7, 4, 1, 99))),
            ..small_config()
        };
        let report = run(split, Box::new(storm(3)));
        let refused = |why| vec![ProtocolError::Refused(why)];
        assert_eq!(report.protocol_errors, refused(Refusal::JoinSplit));
        assert_eq!((report.processed, report.split_events.len()), (0, 0));
        let report = run(small_config(), Box::new(pkg(3)));
        assert_eq!(report.protocol_errors, refused(Refusal::JoinSpread));
        // Unsplit under key grouping, the same join runs.
        let report = run(small_config(), Box::new(storm(3)));
        assert_eq!(report.protocol_errors, vec![]);
        assert_eq!(report.processed, 320);
    }

    /// The source diverts each tuple routed to a dead slot from its
    /// key's hash home, as the controller re-pins and re-homes it — not
    /// from the dead slot — and a send that fails marks its slot dead,
    /// reports it, and ships the batch again the same way.
    #[test]
    fn source_diverts_each_tuple_from_its_hash_home() {
        let (txs, mut rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| bounded::<Message>(8)).unzip();
        let (events, inbox) = unbounded();
        let (_ctl_tx, ctl) = unbounded();
        let mut p = storm(3);
        let mut homed = |slot| (0..).map(Key).find(|&k| p.route(k) == TaskId(slot));
        let (Some(pinned), Some(hashed)) = (homed(0), homed(1)) else {
            panic!("some key hashes to every slot");
        };
        // `pinned` is homed on 0 and routed to 1 by its table entry.
        p.apply_moves(&[(pinned, TaskId(1))]);
        let drops = DropCounter::new(&FaultPlan::none());
        let mut plane = SourcePlane::new(p.routing_view(), txs, ctl, events, 4, drops);
        let keys_at = |rx: &Receiver<Message>| -> Vec<Key> {
            std::iter::from_fn(|| rx.try_recv().ok())
                .flat_map(|m| match m {
                    Message::TupleBatch { tuples, .. } => tuples.iter().map(|t| t.key).collect(),
                    _ => Vec::new(),
                })
                .collect()
        };
        plane.dead.insert(1);
        plane.ship(&mut vec![Tuple::keyed(pinned), Tuple::keyed(hashed)], 0);
        let got: Vec<Vec<Key>> = rxs.iter().map(keys_at).collect();
        assert_eq!(got, vec![vec![pinned], vec![], vec![hashed]]);
        drop(rxs.pop());
        plane.ship(&mut vec![Tuple::keyed(hashed)], 0);
        assert_eq!(keys_at(&rxs[0]), vec![hashed], "re-shipped past both");
        let failed = SourceEvent::SendFailed { dest: TaskId(2) };
        match inbox.try_recv() {
            Ok(Event::Source(ev)) => assert_eq!(format!("{ev:?}"), format!("{failed:?}")),
            other => panic!("expected the failed send, got {other:?}"),
        }
    }

    /// Tuples a `Pause { Keys }` holds keep the stamp of the batch that
    /// staged them: the `Resume` flush ships each held run as messages
    /// of its own, under its own staging stamp — the stamp the batch's
    /// unpaused tuples went out with — and never merges two runs under
    /// one stamp.
    #[test]
    fn source_flushes_each_held_run_under_its_staging_stamp() {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| bounded::<Message>(8)).unzip();
        let (events, _inbox) = unbounded();
        let (_ctl_tx, ctl) = unbounded();
        let mut p = storm(3);
        let mut homed = |slot, n| -> Vec<Key> {
            let on_slot = |k: &Key| p.route(*k) == TaskId(slot);
            (0..).map(Key).filter(on_slot).take(n).collect()
        };
        let (paused, free) = (homed(0, 1)[0], homed(1, 2));
        let drops = DropCounter::new(&FaultPlan::none());
        let view = p.routing_view();
        let mut plane = SourcePlane::new(view.clone(), txs, ctl, events, 8, drops);
        let mut recorder = TraceSink::disabled().recorder(ThreadLabel::Source);
        let epoch = Instant::now();
        let scope = PauseScope::Keys(vec![paused]);
        assert!(plane.handle_ctl(SourceCtl::Pause { epoch: 1, scope }));
        let staged = [vec![free[0], paused, paused], vec![paused, free[1]]];
        for (interval, keys) in staged.into_iter().enumerate() {
            if interval > 0 {
                // Two batches, two clock reads at least 2 ms apart.
                std::thread::sleep(Duration::from_millis(2));
            }
            let tuples = keys.into_iter().map(Tuple::keyed).collect();
            assert!(plane.feed(interval as u64, tuples, epoch, &mut recorder));
        }
        let sent = |rx: &Receiver<Message>| -> Vec<(u64, Vec<Key>)> {
            std::iter::from_fn(|| rx.try_recv().ok())
                .map(|m| match m {
                    Message::TupleBatch { emitted_us, tuples } => {
                        (emitted_us, tuples.iter().map(|t| t.key).collect())
                    }
                    other => panic!("expected a batch, got {other:?}"),
                })
                .collect()
        };
        let unpaused = sent(&rxs[1]);
        let [(first, _), (second, _)] = unpaused[..] else {
            panic!("one message per staged batch: {unpaused:?}");
        };
        assert!(second >= first + 2_000, "{unpaused:?}");
        assert!(sent(&rxs[0]).is_empty(), "held until the resume");
        assert!(plane.handle_ctl(SourceCtl::Resume { epoch: 1, view }));
        let flushed = sent(&rxs[0]);
        assert_eq!(
            flushed,
            vec![(first, vec![paused, paused]), (second, vec![paused])]
        );
    }

    /// The source cuts a round in-band: it announces the slots it marks,
    /// then queues one marker into each — every slot of its view but the
    /// dead ones and a scale-in victim its pause holds back. A marker the
    /// plan drops stays announced, and the drop follows the announcement.
    #[test]
    fn source_announces_each_cut_then_marks_its_slots() {
        use crate::fault::FaultSpec;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| bounded::<Message>(8)).unzip();
        let (events, inbox) = unbounded();
        let (_ctl_tx, ctl) = unbounded();
        let plan = FaultPlan::new(vec![FaultSpec::DropCtl {
            kind: CtlKind::StatsRequest,
            nth: 2,
        }]);
        let view = storm(3).routing_view();
        let drops = DropCounter::new(&plan);
        let mut plane = SourcePlane::new(view, txs, ctl, events, 4, drops);
        let markers = |rx: &Receiver<Message>| -> Vec<String> {
            std::iter::from_fn(|| rx.try_recv().ok())
                .map(|m| format!("{m:?}"))
                .collect()
        };
        let announced = || match inbox.try_recv() {
            Ok(Event::Source(ev)) => format!("{ev:?}"),
            other => panic!("expected a source event, got {other:?}"),
        };

        plane.cut(0, false);
        let all = vec![TaskId(0), TaskId(1), TaskId(2)];
        let done = SourceEvent::IntervalDone {
            interval: 0,
            marked: all,
        };
        assert_eq!(announced(), format!("{done:?}"));
        let dropped = FaultEvent::InjectedDrop {
            kind: CtlKind::StatsRequest,
            nth: 2,
        };
        match inbox.try_recv() {
            Ok(Event::Injected(fault)) => assert_eq!(fault, dropped),
            other => panic!("expected the drop, got {other:?}"),
        }
        let request = vec![format!("{:?}", Message::StatsRequest { interval: 0 })];
        let got: Vec<Vec<String>> = rxs.iter().map(markers).collect();
        assert_eq!(
            got,
            vec![request.clone(), vec![], request],
            "the 2nd dropped"
        );

        plane.dead.insert(0);
        plane.paused = Some((1, PauseFilter::Dest(TaskId(2))));
        plane.cut(1, true);
        let alert = SourceEvent::SkewAlert {
            interval: 1,
            marked: vec![TaskId(1)],
        };
        assert_eq!(announced(), format!("{alert:?}"));
        let peek = vec![format!("{:?}", Message::StatsPeek { interval: 1 })];
        let got: Vec<Vec<String>> = rxs.iter().map(markers).collect();
        assert_eq!(got, vec![vec![], peek, vec![]]);
    }
}
