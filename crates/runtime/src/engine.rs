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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Select, SendTimeoutError, Sender};
use streambal_core::{Key, Partitioner, RoutingView, TaskId};
use streambal_elastic::{
    choose_replicas, ElasticityPolicy, HoldPolicy, IntervalObservation, ScaleDecision,
    SplitDecision, SplitObservation, SplitPolicy,
};
use streambal_hashring::{FxHashMap, FxHashSet};
use streambal_metrics::{Counter, Histogram, RateMeter, TimeSeries};
use streambal_trace::{OpLabel, Outcome, Phase, ThreadLabel, ThreadRecorder, TraceLog, TraceSink};

use crate::controller::{ClosedEpochs, ClosedRound, StatsLedger, WorkerSeconds};
use crate::fault::{next_live, CtlKind, FaultEvent, FaultInjector, FaultPlan, OpKind, SendPeer};
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
    /// retire protocol (see `streambal-elastic` crate docs). Decisions
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

/// Keeps the earliest first-tuple interval across a slot's successive
/// occupants (a retired slot can be re-provisioned mid-run).
fn merge_first(slot: &mut Option<u64>, seen: Option<u64>) {
    *slot = match (*slot, seen) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    };
}

/// A planned migration waiting its turn (one in flight at a time).
struct PlannedMigration {
    /// Moves grouped by source worker.
    by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>>,
    affected: Vec<Key>,
    view: RoutingView,
    /// A scale-out pre-placement plan (vs. a rebalance): its
    /// `migrated_bytes` are billed from the *actual* extracted blobs at
    /// `StateOut` — the plan covers windowed state a single interval's
    /// statistics cannot size — where a rebalance is billed up front
    /// from its plan's windowed-mem estimate, as always.
    preplaced: bool,
    /// What the op's flight-recorder span is labelled: `ScaleOut`,
    /// `Rebalance`, `Split` (degenerate: empty `by_source`), or
    /// `Unsplit` (replica partials consolidating into the primary).
    label: OpLabel,
}

/// A control-plane operation queued behind the in-flight one. Migrations
/// and scale-ins serialize through the same queue, so state placement
/// always advances one routing-function delta at a time — each op moves
/// state from the previous op's placement to its own captured view.
enum PlannedOp {
    /// A rebalance migration (Fig. 5).
    Migrate(PlannedMigration),
    /// Retire `victim` (always the then-highest slot) under `view`, the
    /// routing function captured right after `Partitioner::scale_in`.
    ScaleIn { victim: TaskId, view: RoutingView },
}

impl PlannedOp {
    fn is_scale_in(&self) -> bool {
        matches!(self, PlannedOp::ScaleIn { .. })
    }
}

/// An in-flight migration epoch.
struct ActiveMigration {
    epoch: u64,
    plan: PlannedMigration,
    /// Whether the source acknowledged the pause — the phase a deadline
    /// retry must re-drive when false.
    pause_acked: bool,
    awaiting_out: FxHashSet<TaskId>,
    collected: Vec<(Key, TaskId, Bytes)>,
    awaiting_install: FxHashSet<TaskId>,
    /// Installs already sent, kept for idempotent deadline resends (the
    /// worker dedupes by epoch) and for rollback accounting. `Bytes`
    /// blobs are refcounted, so the clones are cheap.
    sent_installs: FxHashMap<TaskId, Vec<(Key, Bytes)>>,
    /// Whether the span's `StateOut` phase marker was recorded (at the
    /// first live extraction) — phases are recorded exactly once;
    /// deadline re-drives and duplicate answers must not repeat them.
    state_out_marked: bool,
}

/// An in-flight scale-in: pause-dest → retire → re-install → resume.
struct ActiveRetire {
    epoch: u64,
    victim: TaskId,
    view: RoutingView,
    pause_acked: bool,
    /// Whether the Retire marker went out (deadline retries resend it —
    /// the victim answers the first one it sees; a duplicate lands on a
    /// drained channel and is discarded with it).
    retire_sent: bool,
    awaiting_install: FxHashSet<TaskId>,
    sent_installs: FxHashMap<TaskId, Vec<(Key, Bytes)>>,
}

/// The one control-plane operation in flight.
enum ActiveOp {
    Migration(ActiveMigration),
    Retire(ActiveRetire),
}

impl ActiveOp {
    fn is_scale_in(&self) -> bool {
        matches!(self, ActiveOp::Retire(_))
    }
}

/// Deadline clock for the one in-flight op: reset on every phase
/// progress, compared against the interval count *and* wall time (see
/// [`EngineConfig::op_deadline_intervals`]).
struct OpClock {
    started: Instant,
    started_interval: u64,
    /// One retry per phase-stall; the second expiry aborts.
    retried: bool,
}

impl OpClock {
    fn start(interval: u64) -> Self {
        OpClock {
            started: Instant::now(),
            started_interval: interval,
            retried: false,
        }
    }
}

/// An outstanding source resume: the view to re-drive it with and its
/// deadline clock. Resumes are retried but never aborted — an abandoned
/// resume would leave pause-buffered tuples unflushed, which is
/// unaccounted loss; and the source cannot have died (it runs the
/// resume handler) short of the whole engine tearing down.
struct ResumeClock {
    view: RoutingView,
    started: Instant,
    started_interval: u64,
    retried: bool,
}

/// Longest the controller will wait for room in a worker's channel. A
/// live worker drains continuously, so a one-unit slot opens in well
/// under this; only a worker that died with a full queue (its `Killed`
/// event still in flight) keeps the channel full for the whole bound.
const CTL_SEND_TIMEOUT: Duration = Duration::from_millis(100);

/// Bounded-wait control send to worker slot `w`. The controller must
/// never block indefinitely against a worker channel: the worker may
/// have died with a full queue before its `Killed` event was processed,
/// and a wedged controller can drain neither that event nor the dead
/// channel. A timeout is treated like a message lost in flight — the
/// deadline machinery re-drives it; a disconnect is recorded.
fn ctl_send(injector: &FaultInjector, tx: &Sender<Message>, w: usize, msg: Message) -> bool {
    match tx.send_timeout(msg, CTL_SEND_TIMEOUT) {
        Ok(()) => true,
        Err(SendTimeoutError::Timeout(_)) => false,
        Err(SendTimeoutError::Disconnected(_)) => {
            injector.record(FaultEvent::SendFailed {
                to: SendPeer::Worker(w),
            });
            false
        }
    }
}

/// Sends a control marker to worker `w` through the drop gate. Returns
/// false when the message did not reach the channel — injected drop
/// (proceed as if lost in flight; the deadline machinery recovers), a
/// full channel that never opened (same recovery), or a disconnected
/// receiver, which is recorded as a failed send.
fn send_ctl_marker(
    injector: &FaultInjector,
    txs: &[Sender<Message>],
    w: usize,
    kind: CtlKind,
    msg: Message,
) -> bool {
    if !injector.is_passive() && injector.should_drop(kind) {
        return false;
    }
    ctl_send(injector, &txs[w], w, msg)
}

/// Drains whatever currently sits in a dead worker's channel, counting
/// every in-flight tuple and state blob into the per-key loss map;
/// returns the total drained. Called repeatedly while the source may
/// still be routing at the slot — a bounded channel left un-drained
/// would fill and backpressure the source against a corpse — and one
/// final time when the source acknowledges the death.
fn drain_dead_channel(
    rx: &Receiver<Message>,
    sop: &mut dyn Operator,
    lost: &mut FxHashMap<Key, u64>,
) -> u64 {
    let mut n_lost = 0u64;
    while let Ok(msg) = rx.try_recv() {
        match msg {
            Message::TupleBatch(batch) => {
                for t in &batch {
                    *lost.entry(t.key).or_insert(0) += 1;
                    n_lost += 1;
                }
            }
            Message::StateInstall { states, .. } => {
                for (k, blob) in states {
                    let n = sop.tuples_in_blob(&blob);
                    *lost.entry(k).or_insert(0) += n;
                    n_lost += n;
                }
            }
            // Markers carry no tuples. Named one by one so a new
            // payload-carrying variant fails to compile here instead of
            // silently dropping out of `fed == observed + lost`.
            Message::StatsRequest { .. }
            | Message::MigrateOut { .. }
            | Message::Retire { .. }
            | Message::Shutdown => {}
        }
    }
    n_lost
}

/// Issues (or re-issues on a fresh epoch) a source resume and arms its
/// deadline clock. A resume dropped by the injector is indistinguishable
/// from a slow one; the clock re-drives it. When the epoch still has an
/// open trace span (normal completion — aborted spans are closed before
/// their rollback resume), the span's `Resume` phase is recorded here,
/// once: deadline re-drives bypass this function.
#[allow(clippy::too_many_arguments)]
fn issue_resume(
    injector: &FaultInjector,
    ctl_tx: &Sender<SourceCtl>,
    resume_state: &mut FxHashMap<u64, ResumeClock>,
    rec: &mut ThreadRecorder,
    open_spans: &FxHashSet<u64>,
    epoch: u64,
    view: RoutingView,
    current_interval: u64,
) {
    if open_spans.contains(&epoch) {
        rec.span_phase(epoch, Phase::Resume);
    }
    send_src(
        injector,
        ctl_tx,
        Some(CtlKind::Resume),
        SourceCtl::Resume {
            epoch,
            view: view.clone(),
        },
    );
    resume_state.insert(
        epoch,
        ResumeClock {
            view,
            started: Instant::now(),
            started_interval: current_interval,
            retried: false,
        },
    );
}

/// Sends a source control message, drop-gating it when `kind` names a
/// droppable control kind (view updates and shutdown are never dropped:
/// losing them models nothing a real network loses independently of the
/// protocol messages around them).
fn send_src(
    injector: &FaultInjector,
    ctl_tx: &Sender<SourceCtl>,
    kind: Option<CtlKind>,
    msg: SourceCtl,
) -> bool {
    if let Some(k) = kind {
        if !injector.is_passive() && injector.should_drop(k) {
            return false;
        }
    }
    if ctl_tx.send(msg).is_err() {
        injector.record(FaultEvent::SendFailed {
            to: SendPeer::Source,
        });
        return false;
    }
    true
}

/// Shared ingredients for spawning worker threads (initially and on
/// scale-out).
struct WorkerSpawner {
    event_tx: Sender<WorkerEvent>,
    col_tx: Option<Sender<Vec<Tuple>>>,
    pool_tx: Sender<Vec<Vec<Tuple>>>,
    spin_work: u32,
    window: u64,
    emit_batch: usize,
    counter: Arc<Counter>,
    epoch: Instant,
    injector: Arc<FaultInjector>,
    sink: Arc<TraceSink>,
}

impl WorkerSpawner {
    fn spawn<'scope>(
        &self,
        s: &'scope std::thread::Scope<'scope, '_>,
        id: usize,
        rx: Receiver<Message>,
        op: Box<dyn Operator>,
        start_interval: u64,
    ) {
        let ctx = WorkerCtx {
            id: TaskId::from(id),
            rx,
            events: self.event_tx.clone(),
            collector: self.col_tx.clone(),
            op,
            spin_work: self.spin_work,
            window: self.window,
            processed_counter: Arc::clone(&self.counter),
            epoch: self.epoch,
            start_interval,
            pool: self.pool_tx.clone(),
            emit_batch: self.emit_batch,
            injector: Arc::clone(&self.injector),
            recorder: self.sink.recorder(ThreadLabel::Worker(id as u32)),
        };
        s.spawn(move || run_worker(ctx));
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
    pub fn run<F, OF>(
        config: EngineConfig,
        mut partitioner: Box<dyn Partitioner>,
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

        // Channels. Capacities are tuple-denominated: batch sends are
        // weighted by their tuple count, so the in-flight bound — the
        // backpushing effect — is exactly what the config documents at
        // any batch size and any fan-out fill.
        let mut worker_txs: Vec<Sender<Message>> = Vec::with_capacity(max_workers);
        let mut worker_rxs: Vec<Option<Receiver<Message>>> = Vec::with_capacity(max_workers);
        for _ in 0..max_workers {
            let (tx, rx) = bounded(config.channel_capacity);
            worker_txs.push(tx);
            worker_rxs.push(Some(rx));
        }
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
        let stop = Arc::new(AtomicBool::new(false));
        let has_collector = collector.is_some();

        let name = partitioner.name();
        let initial_view = partitioner.routing_view();

        let mut report = EngineReport {
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
        };

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

        std::thread::scope(|s| {
            // --- workers -------------------------------------------------
            let spawner = WorkerSpawner {
                event_tx: event_tx.clone(),
                col_tx: has_collector.then(|| col_tx.clone()),
                pool_tx: pool_tx.clone(),
                spin_work: config.spin_work,
                window: config.window as u64,
                emit_batch: config.batch_size.max(1),
                counter: Arc::clone(&counter),
                epoch: t0,
                injector: Arc::clone(&injector),
                sink: Arc::clone(&sink),
            };
            for (d, slot) in worker_rxs.iter_mut().enumerate().take(config.n_workers) {
                // lint: allow(panic, reason = "startup invariant: every slot was
                // filled Some(rx) in the channel-construction loop above and
                // nothing has taken from them yet")
                let rx = slot.take().expect("slot free");
                spawner.spawn(s, d, rx, op_factory(TaskId::from(d)), 0);
            }

            // --- merge stage (the downstream operator) --------------------
            let col_handle = collector.map(|c| {
                let stage = crate::merge::MergeStage::new(
                    c,
                    col_rx,
                    pool_tx.clone(),
                    sink.recorder(ThreadLabel::Collector),
                );
                s.spawn(move || stage.run())
            });

            // --- throughput sampler ---------------------------------------
            let sampler = {
                let counter = Arc::clone(&counter);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let meter = RateMeter::new();
                    let mut series = TimeSeries::labelled("throughput");
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(50));
                        meter.sample(&counter);
                    }
                    for &(t, v) in &meter.series() {
                        series.push(t, v);
                    }
                    series
                })
            };

            // --- source ---------------------------------------------------
            let src_worker_txs = worker_txs.clone();
            let src_batch = config.batch_size;
            let src_injector = Arc::clone(&injector);
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
            let mut policy = config.elasticity.clone();
            let mut split_policy = config.split.clone();
            let mut active = config.n_workers;
            let mut pending: Option<ActiveOp> = None;
            let mut queue: VecDeque<PlannedOp> = VecDeque::new();
            let mut next_epoch = 0u64;
            // The statistics-round ledger (see `controller.rs`): open
            // rounds, retired-victim residue, and graceful handling of
            // late or duplicate reports. The expected count is pinned at
            // issue time — scale-out must not retroactively change how
            // many workers a round waits for, and a victim whose Retire
            // marker is already enqueued is excluded because it will
            // never answer.
            let mut ledger = StatsLedger::new();
            // Outstanding source resumes, keyed by epoch: the view to
            // re-drive each with and its deadline clock. Resumes retry
            // forever (never abort — an abandoned resume would leave
            // pause-buffered tuples unflushed, which is unaccounted
            // loss); a duplicate ack is absorbed by the missing key.
            let mut resume_state: FxHashMap<u64, ResumeClock> = FxHashMap::default();
            // Set between sending a `Retire` marker and its `Retired` ack.
            let mut retiring: Option<TaskId> = None;
            let mut source_finished = false;
            let mut draining = false;
            let mut drained = 0usize;
            // Shutdown markers actually delivered (dead slots and failed
            // sends are excluded — they will never answer `Drained`).
            let mut drain_target = 0usize;
            let mut last_interval_mark = (Instant::now(), 0u64);
            // Worker-seconds integral, advanced at every change of the
            // *live* count (and closed once at shutdown).
            let mut ws = WorkerSeconds::new(t0, config.n_workers);
            // --- fault-recovery state ------------------------------------
            // Dead worker slots (indices < active). `active` never
            // shrinks on a death: the routing function still counts the
            // slot, the source diverts its traffic to survivors, and a
            // later scale-out decision re-provisions it (SlotRevived).
            let mut dead: FxHashSet<usize> = FxHashSet::default();
            // A dead worker's receiver, held until the source
            // acknowledges the re-route; then drained (every in-flight
            // tuple counted lost) and dropped, so later sends fail fast.
            let mut dead_pending: FxHashMap<usize, Receiver<Message>> = FxHashMap::default();
            // Per-key tuples irrecoverably lost to deaths.
            let mut lost: FxHashMap<Key, u64> = FxHashMap::default();
            // The deterministic half of every deadline: the latest
            // source interval observed.
            let mut current_interval = 0u64;
            // Deadline clock for the one in-flight op; re-armed on every
            // phase progress.
            let mut op_clock: Option<OpClock> = None;
            // Late echoes of closed epochs are absorbed as stale instead
            // of counted as protocol errors.
            let mut closed_epochs = ClosedEpochs::new();
            // Lazily-built operator used only to size state blobs drained
            // from a dead worker's channel (loss accounting).
            let mut scratch_op: Option<Box<dyn Operator>> = None;
            // Completed stats rounds awaiting the decision block — filled
            // by reports, dead-worker strikes, and deadline expiry alike,
            // so every round is decided by exactly one code path.
            let mut closed_rounds: Vec<(u64, ClosedRound)> = Vec::new();
            // The controller's flight recorder: protocol spans (id = op
            // epoch) and per-interval telemetry snapshots.
            let mut rec = sink.recorder(ThreadLabel::Controller);
            // Epochs whose span is open: a span closes `Completed` at its
            // ResumeAck, `Aborted` at abort_op, `Abandoned` at teardown —
            // exactly once, whichever comes first.
            let mut open_spans: FxHashSet<u64> = FxHashSet::default();

            let mut select = Select::new();
            let src_idx = select.recv(&src_evt_rx);
            let _evt_idx = select.recv(&event_rx);

            'ctl: loop {
                // Bounded wait: the bottom half of the loop (deadline
                // retries/aborts, stats-round expiry, the shutdown gate)
                // must run even when no event arrives.
                if let Ok(op_ready) = select.select_timeout(Duration::from_millis(10)) {
                    match op_ready.index() {
                        i if i == src_idx => {
                            let Ok(ev) = op_ready.recv(&src_evt_rx) else {
                                continue;
                            };
                            match ev {
                                SourceEvent::IntervalDone { interval } => {
                                    current_interval = interval;
                                    // Interval throughput point.
                                    let now = Instant::now();
                                    let count = counter.get();
                                    let dt = now
                                        .duration_since(last_interval_mark.0)
                                        .as_secs_f64()
                                        .max(1e-9);
                                    report.interval_throughput.push(
                                        interval as f64,
                                        (count - last_interval_mark.1) as f64 / dt,
                                    );
                                    last_interval_mark = (now, count);
                                    // Queue depths sampled at interval close
                                    // (tuple-weighted channel occupancy, the
                                    // backpressure signal), *before* the stats
                                    // markers join the queues they measure.
                                    let queues: Vec<u64> = worker_txs
                                        .iter()
                                        .take(active)
                                        .map(|tx| tx.queued_weight() as u64)
                                        .collect();
                                    // In-band stats round, skipping a retiring
                                    // victim (its Retire marker is already in
                                    // the channel ahead of this request) and
                                    // dead slots. A request dropped by the
                                    // injector stays *expected* — the
                                    // controller cannot know it was lost in
                                    // flight; the round deadline closes it.
                                    let mut expected: Vec<TaskId> = Vec::new();
                                    for (i, tx) in worker_txs.iter().enumerate().take(active) {
                                        if retiring == Some(TaskId::from(i)) || dead.contains(&i) {
                                            continue;
                                        }
                                        if !injector.is_passive()
                                            && injector.should_drop(CtlKind::StatsRequest)
                                        {
                                            expected.push(TaskId::from(i));
                                            continue;
                                        }
                                        if !ctl_send(
                                            &injector,
                                            tx,
                                            i,
                                            Message::StatsRequest { interval },
                                        ) {
                                            continue;
                                        }
                                        expected.push(TaskId::from(i));
                                    }
                                    if !expected.is_empty() {
                                        ledger.open(interval, active, expected, queues);
                                    }
                                }
                                SourceEvent::PauseAck { epoch } => {
                                    let resume_now = match pending.as_mut() {
                                        None => {
                                            // A pause ack with nothing in
                                            // flight: a late echo of a closed
                                            // epoch (absorbed), or genuine
                                            // protocol desync (recorded).
                                            if closed_epochs.contains(epoch) {
                                                injector.record(FaultEvent::StaleEpochAbsorbed {
                                                    epoch,
                                                    what: "pause ack",
                                                });
                                            } else {
                                                report
                                                    .protocol_errors
                                                    .push(ProtocolError::StrayPauseAck { epoch });
                                            }
                                            None
                                        }
                                        Some(ActiveOp::Migration(m)) if m.epoch == epoch => {
                                            if m.pause_acked {
                                                // Duplicate (the pause was
                                                // retried but the original ack
                                                // was merely slow, not lost).
                                                injector.record(FaultEvent::StaleEpochAbsorbed {
                                                    epoch,
                                                    what: "pause ack",
                                                });
                                                None
                                            } else {
                                                m.pause_acked = true;
                                                op_clock = Some(OpClock::start(current_interval));
                                                // The source is quiesced; the
                                                // span now waits on holders to
                                                // drain and extract.
                                                rec.span_phase(epoch, Phase::QuiesceWait);
                                                for (&w, moves) in &m.plan.by_source {
                                                    // A holder that died after
                                                    // planning has nothing left
                                                    // to extract (its loss is
                                                    // already accounted).
                                                    if dead.contains(&w.index()) {
                                                        continue;
                                                    }
                                                    m.awaiting_out.insert(w);
                                                    // Dropped markers stay
                                                    // awaited: the op deadline
                                                    // re-drives them.
                                                    send_ctl_marker(
                                                        &injector,
                                                        &worker_txs,
                                                        w.index(),
                                                        CtlKind::MigrateOut,
                                                        Message::MigrateOut {
                                                            epoch,
                                                            moves: moves.clone(),
                                                        },
                                                    );
                                                }
                                                // Degenerate plan: resume immediately.
                                                m.awaiting_out
                                                    .is_empty()
                                                    .then(|| m.plan.view.clone())
                                            }
                                        }
                                        Some(ActiveOp::Retire(r)) if r.epoch == epoch => {
                                            if r.pause_acked {
                                                injector.record(FaultEvent::StaleEpochAbsorbed {
                                                    epoch,
                                                    what: "pause ack",
                                                });
                                            } else {
                                                r.pause_acked = true;
                                                op_clock = Some(OpClock::start(current_interval));
                                                rec.span_phase(epoch, Phase::QuiesceWait);
                                                // Every tuple the source will ever
                                                // send the victim is now in its
                                                // channel; the Retire marker lands
                                                // behind all of them. A dropped
                                                // marker is re-driven by the op
                                                // deadline.
                                                send_ctl_marker(
                                                    &injector,
                                                    &worker_txs,
                                                    r.victim.index(),
                                                    CtlKind::Retire,
                                                    Message::Retire { epoch },
                                                );
                                                r.retire_sent = true;
                                                retiring = Some(r.victim);
                                            }
                                            None
                                        }
                                        Some(_) => {
                                            injector.record(FaultEvent::StaleEpochAbsorbed {
                                                epoch,
                                                what: "pause ack",
                                            });
                                            None
                                        }
                                    };
                                    if let Some(view) = resume_now {
                                        issue_resume(
                                            &injector,
                                            &ctl_tx,
                                            &mut resume_state,
                                            &mut rec,
                                            &open_spans,
                                            epoch,
                                            view,
                                            current_interval,
                                        );
                                        closed_epochs.close(epoch);
                                        pending = None;
                                        op_clock = None;
                                    }
                                }
                                SourceEvent::ResumeAck { epoch } => {
                                    if resume_state.remove(&epoch).is_none() {
                                        injector.record(FaultEvent::StaleEpochAbsorbed {
                                            epoch,
                                            what: "resume ack",
                                        });
                                    } else if open_spans.remove(&epoch) {
                                        // The op's span runs to the ack: its
                                        // disruption window covers the whole
                                        // pause → ... → resume round trip.
                                        // (Aborted spans closed at abort_op;
                                        // their rollback resume's ack lands
                                        // here with the span already gone.)
                                        rec.span_close(epoch, Outcome::Completed);
                                    }
                                }
                                SourceEvent::DeadDestAck { dest } => {
                                    // The source has stopped routing to the
                                    // dead slot; drain its channel (counting
                                    // every in-flight tuple and state blob as
                                    // lost) and drop the receiver so any
                                    // later send fails fast instead of
                                    // queueing into a void.
                                    if let Some(rx) = dead_pending.remove(&dest.index()) {
                                        let sop =
                                            scratch_op.get_or_insert_with(|| op_factory(dest));
                                        let n = drain_dead_channel(&rx, sop.as_mut(), &mut lost);
                                        injector.add_lost(n);
                                    }
                                }
                                SourceEvent::SendFailed { dest } => {
                                    // The source hit a disconnected channel
                                    // before (or after) the controller's
                                    // DeadDest reached it; the tuples were
                                    // re-shipped to a survivor, so this is an
                                    // observation, not a loss.
                                    injector.record(FaultEvent::SendFailed {
                                        to: SendPeer::Worker(dest.index()),
                                    });
                                }
                                SourceEvent::Finished => {
                                    source_finished = true;
                                }
                            }
                        }
                        _ => {
                            let Ok(ev) = op_ready.recv(&event_rx) else {
                                continue;
                            };
                            match ev {
                                WorkerEvent::Stats {
                                    worker,
                                    interval,
                                    stats,
                                    latency,
                                } => {
                                    // The ledger absorbs late and duplicate
                                    // reports (a retiring worker can answer a
                                    // round the controller already closed)
                                    // instead of crashing; a report only
                                    // completes a round when every distinct
                                    // expected worker has answered. Completed
                                    // rounds queue for the decision pass at
                                    // the bottom of the loop — the same path
                                    // that decides rounds closed by a death
                                    // or by deadline expiry.
                                    if let Some(round) =
                                        ledger.on_stats(worker, interval, stats, &latency)
                                    {
                                        closed_rounds.push((interval, round));
                                    }
                                }
                                WorkerEvent::StateOut {
                                    worker,
                                    epoch,
                                    states,
                                } => 'state_out: {
                                    let m = match pending.as_mut() {
                                        Some(ActiveOp::Migration(m)) if m.epoch == epoch => m,
                                        _ => {
                                            // A late answer on a closed epoch is
                                            // absorbed — but not dropped. An
                                            // aborted migration's victim can wake
                                            // after the rollback, process the
                                            // queued MigrateOut, and ship real
                                            // state here; the blobs have left
                                            // their owner, so they are re-homed
                                            // under the *current* (rolled-back)
                                            // view on a fresh pre-closed epoch.
                                            // A retried MigrateOut's empty
                                            // double-answer re-homes nothing.
                                            // Anything else is genuine
                                            // bookkeeping divergence, worth
                                            // shouting about.
                                            if closed_epochs.contains(epoch) {
                                                injector.record(FaultEvent::StaleEpochAbsorbed {
                                                    epoch,
                                                    what: "state out",
                                                });
                                                let n_tasks = partitioner.n_tasks();
                                                let mut router = SourceRouter::from_view(
                                                    partitioner.routing_view(),
                                                );
                                                let mut by_dest: FxHashMap<
                                                    TaskId,
                                                    Vec<(Key, Bytes)>,
                                                > = FxHashMap::default();
                                                for (k, _to, blob) in states {
                                                    if blob.is_empty() {
                                                        continue;
                                                    }
                                                    let mut d = router.route(k);
                                                    if dead.contains(&d.index()) {
                                                        d = TaskId::from(next_live(
                                                            d.index(),
                                                            n_tasks,
                                                            |x| dead.contains(&x),
                                                        ));
                                                    }
                                                    by_dest.entry(d).or_default().push((k, blob));
                                                }
                                                if !by_dest.is_empty() {
                                                    next_epoch += 1;
                                                    closed_epochs.close(next_epoch);
                                                    for (dest, st) in by_dest {
                                                        ctl_send(
                                                            &injector,
                                                            &worker_txs[dest.index()],
                                                            dest.index(),
                                                            Message::StateInstall {
                                                                epoch: next_epoch,
                                                                states: st,
                                                            },
                                                        );
                                                    }
                                                }
                                            } else {
                                                report.protocol_errors.push(
                                                    ProtocolError::StrayStateOut {
                                                        worker: worker.index(),
                                                        epoch,
                                                        dropped_keys: states.len(),
                                                    },
                                                );
                                            }
                                            break 'state_out;
                                        }
                                    };
                                    if !m.awaiting_out.remove(&worker) {
                                        // Duplicate answer to a re-driven
                                        // MigrateOut: the first extraction
                                        // emptied the keys, so this one
                                        // carries nothing to keep.
                                        injector.record(FaultEvent::StaleEpochAbsorbed {
                                            epoch,
                                            what: "state out",
                                        });
                                        break 'state_out;
                                    }
                                    op_clock = Some(OpClock::start(current_interval));
                                    if !m.state_out_marked {
                                        m.state_out_marked = true;
                                        rec.span_phase(epoch, Phase::StateOut);
                                    }
                                    if m.plan.preplaced {
                                        // Pre-placement bills the bytes actually
                                        // extracted: the plan moves windowed
                                        // state no single interval's statistics
                                        // can size (rebalances bill their plan's
                                        // windowed-mem estimate up front).
                                        report.migrated_bytes += states
                                            .iter()
                                            .map(|(_, _, b)| b.len() as u64)
                                            .sum::<u64>();
                                    }
                                    m.collected.extend(states);
                                    if m.awaiting_out.is_empty() {
                                        // Step 5b: forward to destinations,
                                        // diverting any that died since the
                                        // plan was cut to the next live slot
                                        // (state must land where it can be
                                        // drained at shutdown).
                                        let n_tasks = partitioner.n_tasks();
                                        let mut by_dest: FxHashMap<TaskId, Vec<(Key, Bytes)>> =
                                            FxHashMap::default();
                                        for (k, to, blob) in m.collected.drain(..) {
                                            let d = if dead.contains(&to.index()) {
                                                TaskId::from(next_live(to.index(), n_tasks, |x| {
                                                    dead.contains(&x)
                                                }))
                                            } else {
                                                to
                                            };
                                            by_dest.entry(d).or_default().push((k, blob));
                                        }
                                        if by_dest.is_empty() {
                                            issue_resume(
                                                &injector,
                                                &ctl_tx,
                                                &mut resume_state,
                                                &mut rec,
                                                &open_spans,
                                                epoch,
                                                m.plan.view.clone(),
                                                current_interval,
                                            );
                                            closed_epochs.close(epoch);
                                            pending = None;
                                            op_clock = None;
                                        } else {
                                            rec.span_phase(epoch, Phase::Install);
                                            for (dest, states) in by_dest {
                                                m.awaiting_install.insert(dest);
                                                // StateInstall is never
                                                // injector-dropped (it carries
                                                // state); a failed send is
                                                // recovered by the deadline or
                                                // the dest's own death event.
                                                ctl_send(
                                                    &injector,
                                                    &worker_txs[dest.index()],
                                                    dest.index(),
                                                    Message::StateInstall {
                                                        epoch,
                                                        states: states.clone(),
                                                    },
                                                );
                                                m.sent_installs.insert(dest, states);
                                            }
                                        }
                                    }
                                }
                                WorkerEvent::InstallAck { worker, epoch } => {
                                    let resume_view = match pending.as_mut() {
                                        Some(ActiveOp::Migration(m)) if m.epoch == epoch => {
                                            if m.awaiting_install.remove(&worker) {
                                                op_clock = Some(OpClock::start(current_interval));
                                                // Step 7: resume with F′.
                                                m.awaiting_install
                                                    .is_empty()
                                                    .then(|| m.plan.view.clone())
                                            } else {
                                                // Duplicate ack of a re-driven
                                                // install (the worker dedupes
                                                // the install, then re-acks).
                                                injector.record(FaultEvent::StaleEpochAbsorbed {
                                                    epoch,
                                                    what: "install ack",
                                                });
                                                None
                                            }
                                        }
                                        Some(ActiveOp::Retire(r)) if r.epoch == epoch => {
                                            if r.awaiting_install.remove(&worker) {
                                                op_clock = Some(OpClock::start(current_interval));
                                                // Re-provision complete: resume
                                                // under the shrunk view.
                                                r.awaiting_install
                                                    .is_empty()
                                                    .then(|| r.view.clone())
                                            } else {
                                                injector.record(FaultEvent::StaleEpochAbsorbed {
                                                    epoch,
                                                    what: "install ack",
                                                });
                                                None
                                            }
                                        }
                                        _ => {
                                            // Installs are only sent by a pending
                                            // op (or fire-and-forget under a
                                            // pre-closed rollback epoch, absorbed
                                            // here) — a stray ack for an unknown
                                            // epoch is bookkeeping divergence,
                                            // not a reason to kill the pipeline.
                                            if closed_epochs.contains(epoch) {
                                                injector.record(FaultEvent::StaleEpochAbsorbed {
                                                    epoch,
                                                    what: "install ack",
                                                });
                                            } else {
                                                report.protocol_errors.push(
                                                    ProtocolError::StrayInstallAck {
                                                        worker: worker.index(),
                                                        epoch,
                                                    },
                                                );
                                            }
                                            None
                                        }
                                    };
                                    if let Some(view) = resume_view {
                                        issue_resume(
                                            &injector,
                                            &ctl_tx,
                                            &mut resume_state,
                                            &mut rec,
                                            &open_spans,
                                            epoch,
                                            view,
                                            current_interval,
                                        );
                                        closed_epochs.close(epoch);
                                        pending = None;
                                        op_clock = None;
                                    }
                                }
                                WorkerEvent::Retired {
                                    worker,
                                    epoch,
                                    states,
                                    stats,
                                    processed,
                                    latency,
                                    first_interval,
                                    rx,
                                } => 'retired: {
                                    let is_ours = matches!(
                                        pending.as_ref(),
                                        Some(ActiveOp::Retire(r)) if r.epoch == epoch
                                    );
                                    if !is_ours {
                                        // A zombie victim: its scale-in was
                                        // aborted (deadline) but the Retire
                                        // marker had already landed, so the
                                        // drain completed anyway — or genuine
                                        // divergence. Either way, keep the
                                        // books: merge its totals, give the
                                        // slot's channel back, and re-home its
                                        // state under the *current* view on a
                                        // fresh, pre-closed epoch (the installs
                                        // are fire-and-forget; their acks
                                        // absorb as stale).
                                        let stale = closed_epochs.contains(epoch);
                                        if stale {
                                            injector.record(FaultEvent::StaleEpochAbsorbed {
                                                epoch,
                                                what: "retired",
                                            });
                                        } else {
                                            report.protocol_errors.push(
                                                ProtocolError::StrayRetired {
                                                    worker: worker.index(),
                                                    epoch,
                                                },
                                            );
                                        }
                                        report.per_worker_processed[worker.index()] += processed;
                                        report.processed += processed;
                                        report.latency_us.merge(&latency);
                                        merge_first(
                                            &mut report.first_tuple_interval[worker.index()],
                                            first_interval,
                                        );
                                        ledger.on_residue(worker, &stats);
                                        worker_rxs[worker.index()] = Some(rx);
                                        if retiring == Some(worker) {
                                            retiring = None;
                                        }
                                        if stale && worker.index() == active - 1 {
                                            ws.set_active(Instant::now(), active - 1 - dead.len());
                                            active -= 1;
                                        }
                                        if stale {
                                            let n_tasks = partitioner.n_tasks();
                                            let mut router =
                                                SourceRouter::from_view(partitioner.routing_view());
                                            let mut by_dest: FxHashMap<TaskId, Vec<(Key, Bytes)>> =
                                                FxHashMap::default();
                                            for (k, blob) in states {
                                                if blob.is_empty() {
                                                    continue;
                                                }
                                                let mut d = router.route(k);
                                                if dead.contains(&d.index()) {
                                                    d = TaskId::from(next_live(
                                                        d.index(),
                                                        n_tasks,
                                                        |x| dead.contains(&x),
                                                    ));
                                                }
                                                by_dest.entry(d).or_default().push((k, blob));
                                            }
                                            if !by_dest.is_empty() {
                                                next_epoch += 1;
                                                closed_epochs.close(next_epoch);
                                                for (dest, st) in by_dest {
                                                    ctl_send(
                                                        &injector,
                                                        &worker_txs[dest.index()],
                                                        dest.index(),
                                                        Message::StateInstall {
                                                            epoch: next_epoch,
                                                            states: st,
                                                        },
                                                    );
                                                }
                                            }
                                        }
                                        break 'retired;
                                    }
                                    // lint: allow(panic, reason = "is_ours above
                                    // matched pending as Some(Retire) with this
                                    // epoch, and nothing between takes it")
                                    let Some(ActiveOp::Retire(mut r)) = pending.take() else {
                                        unreachable!("checked above");
                                    };
                                    debug_assert_eq!(r.victim, worker);
                                    op_clock = Some(OpClock::start(current_interval));
                                    // The victim's drained state is in hand —
                                    // the scale-in's state-out phase.
                                    rec.span_phase(epoch, Phase::StateOut);
                                    report.per_worker_processed[worker.index()] += processed;
                                    report.processed += processed;
                                    report.latency_us.merge(&latency);
                                    merge_first(
                                        &mut report.first_tuple_interval[worker.index()],
                                        first_interval,
                                    );
                                    // Fold the victim's unreported residue into
                                    // the oldest open round (issued while the
                                    // victim was alive, so its slot exists) —
                                    // dropping it would read as a load dip and
                                    // re-trigger the scale-in policy.
                                    ledger.on_residue(worker, &stats);
                                    // The slot's channel stays connected (our
                                    // sender clones live on), so a later
                                    // scale-out can respawn here and no message
                                    // can ever be silently dropped.
                                    worker_rxs[worker.index()] = Some(rx);
                                    retiring = None;
                                    ws.set_active(Instant::now(), active - 1 - dead.len());
                                    active -= 1;
                                    debug_assert_eq!(worker.index(), active);
                                    // Re-home the drained state under the op's
                                    // captured view — the placement every later
                                    // op's delta is computed against — diverting
                                    // destinations that died since the view was
                                    // cut.
                                    let n_tasks = partitioner.n_tasks();
                                    let mut router = SourceRouter::from_view(r.view.clone());
                                    let mut by_dest: FxHashMap<TaskId, Vec<(Key, Bytes)>> =
                                        FxHashMap::default();
                                    for (k, blob) in states {
                                        if blob.is_empty() {
                                            continue;
                                        }
                                        let mut d = router.route(k);
                                        if dead.contains(&d.index()) {
                                            d = TaskId::from(next_live(d.index(), n_tasks, |x| {
                                                dead.contains(&x)
                                            }));
                                        }
                                        by_dest.entry(d).or_default().push((k, blob));
                                    }
                                    if by_dest.is_empty() {
                                        issue_resume(
                                            &injector,
                                            &ctl_tx,
                                            &mut resume_state,
                                            &mut rec,
                                            &open_spans,
                                            epoch,
                                            r.view.clone(),
                                            current_interval,
                                        );
                                        closed_epochs.close(epoch);
                                        op_clock = None;
                                    } else {
                                        rec.span_phase(epoch, Phase::Install);
                                        for (dest, st) in by_dest {
                                            debug_assert!(dest.index() < active);
                                            r.awaiting_install.insert(dest);
                                            ctl_send(
                                                &injector,
                                                &worker_txs[dest.index()],
                                                dest.index(),
                                                Message::StateInstall {
                                                    epoch,
                                                    states: st.clone(),
                                                },
                                            );
                                            r.sent_installs.insert(dest, st);
                                        }
                                        pending = Some(ActiveOp::Retire(r));
                                    }
                                }
                                WorkerEvent::Killed {
                                    worker,
                                    lost: worker_lost,
                                    stats,
                                    processed,
                                    latency,
                                    first_interval,
                                    rx,
                                } => {
                                    let w = worker.index();
                                    injector.record(FaultEvent::WorkerDead { worker: w });
                                    // Keep the books: what the worker *did*
                                    // process counts; what it held is lost and
                                    // accounted per key.
                                    report.per_worker_processed[w] += processed;
                                    report.processed += processed;
                                    report.latency_us.merge(&latency);
                                    merge_first(
                                        &mut report.first_tuple_interval[w],
                                        first_interval,
                                    );
                                    ledger.on_residue(worker, &stats);
                                    for closed in ledger.on_worker_dead(worker) {
                                        closed_rounds.push(closed);
                                    }
                                    let mut n_lost = 0u64;
                                    for (k, n) in worker_lost {
                                        n_lost += n;
                                        *lost.entry(k).or_insert(0) += n;
                                    }
                                    injector.add_lost(n_lost);
                                    injector.record(FaultEvent::StateLost { worker: w });
                                    dead.insert(w);
                                    ws.set_active(Instant::now(), active - dead.len());
                                    // Pin the dead slot's keys onto survivors
                                    // (via each key's hash home, cycled past
                                    // dead slots) and tell the source; its ack
                                    // returns when the re-route is live, at
                                    // which point the channel backlog is
                                    // drained and accounted (DeadDestAck).
                                    let moves =
                                        partitioner.reroute_dead(worker, &|x| dead.contains(&x));
                                    injector.record(FaultEvent::Rerouted {
                                        from_worker: w,
                                        moved_keys: moves.len(),
                                    });
                                    send_src(
                                        &injector,
                                        &ctl_tx,
                                        None,
                                        SourceCtl::DeadDest {
                                            dest: worker,
                                            moves,
                                        },
                                    );
                                    dead_pending.insert(w, rx);
                                    // Untangle the in-flight op from the
                                    // corpse: a pending phase waiting on the
                                    // dead worker must not wait for the
                                    // deadline to notice.
                                    let mut resolve_retire: Option<(u64, RoutingView)> = None;
                                    let mut forward_now = false;
                                    match pending.as_mut() {
                                        Some(ActiveOp::Migration(m)) => {
                                            if m.awaiting_out.remove(&worker)
                                                && m.awaiting_out.is_empty()
                                            {
                                                // Remaining extractions are all
                                                // in; forward below (outside
                                                // this borrow).
                                                forward_now = true;
                                            }
                                            if m.awaiting_install.remove(&worker)
                                                && m.awaiting_install.is_empty()
                                            {
                                                let epoch = m.epoch;
                                                let view = m.plan.view.clone();
                                                issue_resume(
                                                    &injector,
                                                    &ctl_tx,
                                                    &mut resume_state,
                                                    &mut rec,
                                                    &open_spans,
                                                    epoch,
                                                    view,
                                                    current_interval,
                                                );
                                                closed_epochs.close(epoch);
                                                pending = None;
                                                op_clock = None;
                                            }
                                        }
                                        Some(ActiveOp::Retire(r)) if r.victim == worker => {
                                            // The victim died mid-retire: its
                                            // state died with it (accounted
                                            // above); resume under the shrunk
                                            // view and close the op.
                                            resolve_retire = Some((r.epoch, r.view.clone()));
                                        }
                                        Some(ActiveOp::Retire(r)) => {
                                            // A re-home install dest died; the
                                            // blob in its channel is counted
                                            // by the DeadDestAck drain.
                                            let was_awaited = r.awaiting_install.remove(&worker);
                                            if was_awaited && r.awaiting_install.is_empty() {
                                                resolve_retire = Some((r.epoch, r.view.clone()));
                                            }
                                        }
                                        _ => {}
                                    }
                                    if forward_now {
                                        // Re-enter the forwarding step exactly
                                        // as a final StateOut would have.
                                        if let Some(ActiveOp::Migration(m)) = pending.as_mut() {
                                            let n_tasks = partitioner.n_tasks();
                                            let epoch = m.epoch;
                                            let mut by_dest: FxHashMap<TaskId, Vec<(Key, Bytes)>> =
                                                FxHashMap::default();
                                            for (k, to, blob) in m.collected.drain(..) {
                                                let d = if dead.contains(&to.index()) {
                                                    TaskId::from(next_live(
                                                        to.index(),
                                                        n_tasks,
                                                        |x| dead.contains(&x),
                                                    ))
                                                } else {
                                                    to
                                                };
                                                by_dest.entry(d).or_default().push((k, blob));
                                            }
                                            if by_dest.is_empty() {
                                                issue_resume(
                                                    &injector,
                                                    &ctl_tx,
                                                    &mut resume_state,
                                                    &mut rec,
                                                    &open_spans,
                                                    epoch,
                                                    m.plan.view.clone(),
                                                    current_interval,
                                                );
                                                closed_epochs.close(epoch);
                                                pending = None;
                                                op_clock = None;
                                            } else {
                                                rec.span_phase(epoch, Phase::Install);
                                                for (dest, st) in by_dest {
                                                    m.awaiting_install.insert(dest);
                                                    ctl_send(
                                                        &injector,
                                                        &worker_txs[dest.index()],
                                                        dest.index(),
                                                        Message::StateInstall {
                                                            epoch,
                                                            states: st.clone(),
                                                        },
                                                    );
                                                    m.sent_installs.insert(dest, st);
                                                }
                                            }
                                        }
                                    }
                                    if let Some((epoch, view)) = resolve_retire {
                                        issue_resume(
                                            &injector,
                                            &ctl_tx,
                                            &mut resume_state,
                                            &mut rec,
                                            &open_spans,
                                            epoch,
                                            view,
                                            current_interval,
                                        );
                                        closed_epochs.close(epoch);
                                        if retiring == Some(worker) {
                                            retiring = None;
                                        }
                                        pending = None;
                                        op_clock = None;
                                    }
                                    // A death during the drain means one
                                    // Shutdown marker will never be answered.
                                    if draining {
                                        drain_target = drain_target.saturating_sub(1);
                                        if drained >= drain_target {
                                            break 'ctl;
                                        }
                                    }
                                }
                                WorkerEvent::Drained {
                                    worker,
                                    final_states,
                                    processed,
                                    latency,
                                    first_interval,
                                } => {
                                    report.per_worker_processed[worker.index()] += processed;
                                    report.processed += processed;
                                    report.latency_us.merge(&latency);
                                    merge_first(
                                        &mut report.first_tuple_interval[worker.index()],
                                        first_interval,
                                    );
                                    report.final_states.extend(final_states);
                                    drained += 1;
                                    if draining && drained >= drain_target {
                                        break 'ctl;
                                    }
                                }
                            }
                        }
                    }
                }

                // ---- bottom half: runs every wake-up, timeouts included ----

                // Keep dead channels drained while the source may still
                // be routing at them (its DeadDest is in flight): a
                // bounded channel left full would backpressure the source
                // against a corpse and stall the data plane. Everything
                // drained is accounted as lost, exactly as the final
                // DeadDestAck drain does.
                for (&w, rx) in &dead_pending {
                    let sop = scratch_op.get_or_insert_with(|| op_factory(TaskId::from(w)));
                    let n = drain_dead_channel(rx, sop.as_mut(), &mut lost);
                    injector.add_lost(n);
                }

                // Stats rounds whose reporters went silent close by
                // deadline, so a wedged worker cannot hold decisions — or
                // shutdown, which waits on open rounds — hostage.
                for (interval, round, missing) in ledger.expire_rounds(
                    current_interval,
                    config.round_deadline_intervals,
                    config.round_deadline,
                ) {
                    injector.record(FaultEvent::RoundTimedOut { interval, missing });
                    closed_rounds.push((interval, round));
                }

                // Decide every round closed this tick — whether a full
                // report set, a dead-worker strike, or deadline expiry
                // closed it, the same code decides.
                for (interval, round) in std::mem::take(&mut closed_rounds) {
                    // Telemetry snapshot: exactly what the elasticity
                    // policy and partitioner are about to see.
                    rec.snapshot(
                        interval,
                        round.loads.clone(),
                        round.queues.clone(),
                        round.mean_latency_us,
                        round.p99_latency_us,
                    );
                    let merged = round.merged;
                    let loads = round.loads;
                    // Elasticity decision. The observation's parallelism
                    // is the *planned* one — `partitioner.n_tasks()`,
                    // which every decision mutates immediately — not the
                    // physical worker count, which lags while retires
                    // drain; deciding on the stale physical count would
                    // re-trigger on parallelism the policy already gave
                    // up. Scale-ins may queue (victims walk down from the
                    // planned tail, ops execute in order); a scale-out is
                    // skipped while any scale-in is still
                    // re-provisioning, since the spawn slot must be the
                    // contiguous physical tail.
                    let planned = partitioner.n_tasks();
                    let scale_in_flight = pending.as_ref().is_some_and(ActiveOp::is_scale_in)
                        || queue.iter().any(PlannedOp::is_scale_in);
                    let obs = IntervalObservation {
                        interval,
                        n_tasks: planned,
                        loads: &loads,
                        queue_depths: &round.queues,
                        mean_latency_us: round.mean_latency_us,
                        p99_latency_us: round.p99_latency_us,
                        n_dead: dead.len(),
                    };
                    match policy.decide(&obs) {
                        ScaleDecision::ScaleOut if !dead.is_empty() => {
                            // Re-provision the lowest dead slot rather
                            // than widening: the capacity the policy
                            // wants back is the capacity the death took.
                            // Routing is untouched (the revived slot
                            // starts key-less; the next rebalance loads
                            // it) — only the source's divert set shrinks,
                            // once it swaps in the fresh channel that
                            // `ReviveDest` carries.
                            // lint: allow(panic, reason = "guarded by
                            // !dead.is_empty() on the arm")
                            let slot = *dead.iter().min().expect("dead non-empty");
                            let (tx, rx) = bounded(config.channel_capacity);
                            worker_txs[slot] = tx.clone();
                            spawner.spawn(
                                s,
                                slot,
                                rx,
                                op_factory(TaskId::from(slot)),
                                interval + 1,
                            );
                            send_src(
                                &injector,
                                &ctl_tx,
                                None,
                                SourceCtl::ReviveDest {
                                    dest: TaskId::from(slot),
                                    tx,
                                },
                            );
                            dead.remove(&slot);
                            ws.set_active(Instant::now(), active - dead.len());
                            injector.record(FaultEvent::SlotRevived { worker: slot });
                        }
                        ScaleDecision::ScaleOut if !scale_in_flight && active < max_workers => 'scale_out: {
                            debug_assert_eq!(planned, active);
                            let Some(rx) = worker_rxs[active].take() else {
                                // The slot's receiver was never
                                // returned (a prior retire
                                // mismatch): record it and keep
                                // running at the current width
                                // rather than tearing down the
                                // topology.
                                report.protocol_errors.push(ProtocolError::ScaleOutAborted {
                                    to: active + 1,
                                    slot: active,
                                });
                                break 'scale_out;
                            };
                            ws.set_active(Instant::now(), active + 1 - dead.len());
                            let live: Vec<Key> = merged.iter().map(|(k, _)| k).collect();
                            spawner.spawn(
                                s,
                                active,
                                rx,
                                op_factory(TaskId::from(active)),
                                interval + 1,
                            );
                            // Pre-placement: plan the migration at
                            // provision time — the new slot's keys
                            // move in through the same quiesce →
                            // install → resume machinery as a
                            // rebalance, so it takes load this
                            // interval.
                            let (new, moves) = partitioner.scale_out_plan(&live);
                            debug_assert_eq!(new.index(), active);
                            report.scale_events.push(ScaleEvent {
                                interval,
                                from: active,
                                to: active + 1,
                            });
                            active += 1;
                            if moves.is_empty() {
                                // Nothing to pre-place (a
                                // key-oblivious strategy whose
                                // new worker takes traffic
                                // without any state): publish
                                // the grown view directly.
                                send_src(
                                    &injector,
                                    &ctl_tx,
                                    None,
                                    SourceCtl::UpdateView {
                                        view: partitioner.routing_view(),
                                    },
                                );
                            } else {
                                report.migrated_keys += moves.len() as u64;
                                let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> =
                                    FxHashMap::default();
                                let mut affected = Vec::with_capacity(moves.len());
                                for (k, holder) in moves {
                                    affected.push(k);
                                    by_source.entry(holder).or_default().push((k, new));
                                }
                                queue.push_back(PlannedOp::Migrate(PlannedMigration {
                                    by_source,
                                    affected,
                                    view: partitioner.routing_view(),
                                    preplaced: true,
                                    label: OpLabel::ScaleOut,
                                }));
                            }
                        }
                        ScaleDecision::ScaleIn if !dead.is_empty() => {
                            // Degraded: retiring a live worker while a
                            // dead slot's keys are already packed onto
                            // survivors would shed real capacity on top
                            // of the loss. Hold, and let the ledger say
                            // why the policy's wish was refused.
                            injector.record(FaultEvent::ScaleHeld { interval });
                        }
                        ScaleDecision::ScaleIn if planned > 1 => {
                            // Shrink the routing function now
                            // (later decisions and rebalances
                            // build on it); the physical
                            // retirement queues behind any
                            // in-flight op.
                            let victim = TaskId::from(planned - 1);
                            let live: Vec<Key> = merged.iter().map(|(k, _)| k).collect();
                            partitioner.scale_in(victim, &live);
                            report.scale_events.push(ScaleEvent {
                                interval,
                                from: planned,
                                to: planned - 1,
                            });
                            queue.push_back(PlannedOp::ScaleIn {
                                victim,
                                view: partitioner.routing_view(),
                            });
                        }
                        _ => {}
                    }
                    // Hot-key split decision: same cadence as elasticity,
                    // executed through the same serialized protocol queue.
                    // The observation's per-key costs are the merged round
                    // totals — a split key's entry already sums its
                    // replicas' partial loads, which is the signal the
                    // unsplit watermark needs.
                    if let Some(sp) = split_policy.as_mut() {
                        let key_loads: Vec<(u64, u64)> =
                            merged.iter().map(|(k, st)| (k.raw(), st.cost)).collect();
                        let mut split_keys: Vec<u64> =
                            partitioner.splits().iter().map(|(k, _)| k.raw()).collect();
                        split_keys.sort_unstable();
                        let sobs = SplitObservation {
                            interval,
                            n_tasks: planned,
                            key_loads: &key_loads,
                            split_keys: &split_keys,
                        };
                        match sp.decide(&sobs) {
                            SplitDecision::Split { key, replicas }
                                if planned >= 2 && replicas >= 2 && !split_keys.contains(&key) =>
                            {
                                // Replica slots: the key's current route
                                // stays primary (unsplit consolidates back
                                // onto it with no table change); the rest
                                // are the least-loaded live tasks. Dead
                                // slots sort last — routing to them would
                                // only bounce off the source's divert.
                                let k = Key(key);
                                let primary = partitioner.route(k);
                                let task_loads: Vec<u64> = (0..planned)
                                    .map(|i| {
                                        if dead.contains(&i) {
                                            u64::MAX
                                        } else {
                                            loads.get(i).copied().unwrap_or(0)
                                        }
                                    })
                                    .collect();
                                let slots: Vec<TaskId> =
                                    choose_replicas(primary.index(), &task_loads, replicas)
                                        .into_iter()
                                        .map(TaskId::from)
                                        .collect();
                                if slots.len() >= 2 && partitioner.split_key(k, &slots) {
                                    report.split_events.push(SplitEvent {
                                        interval,
                                        key,
                                        from: 1,
                                        to: slots.len(),
                                    });
                                    // A split moves no state: the op is a
                                    // degenerate migration whose pause
                                    // window makes the view swap atomic
                                    // (PauseAck with nothing awaited
                                    // resumes immediately under the split
                                    // view).
                                    queue.push_back(PlannedOp::Migrate(PlannedMigration {
                                        by_source: FxHashMap::default(),
                                        affected: vec![k],
                                        view: partitioner.routing_view(),
                                        preplaced: false,
                                        label: OpLabel::Split,
                                    }));
                                }
                            }
                            SplitDecision::Unsplit { key } => {
                                let k = Key(key);
                                // `unsplit_key` consolidates the routing
                                // onto the primary and returns the replica
                                // set; the physical consolidation is a
                                // real migration moving each live
                                // non-primary replica's partial state into
                                // the primary (whose `install` merges
                                // additively).
                                if let Some(replica_set) = partitioner.unsplit_key(k) {
                                    let primary = replica_set[0];
                                    let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> =
                                        FxHashMap::default();
                                    for &r in replica_set.iter().skip(1) {
                                        if r != primary && !dead.contains(&r.index()) {
                                            by_source.insert(r, vec![(k, primary)]);
                                        }
                                    }
                                    report.split_events.push(SplitEvent {
                                        interval,
                                        key,
                                        from: replica_set.len(),
                                        to: 1,
                                    });
                                    // Billed like a pre-placement: the
                                    // moved bytes are whatever partials
                                    // the replicas actually hold, which
                                    // no single interval's stats can
                                    // size.
                                    queue.push_back(PlannedOp::Migrate(PlannedMigration {
                                        by_source,
                                        affected: vec![k],
                                        view: partitioner.routing_view(),
                                        preplaced: true,
                                        label: OpLabel::Unsplit,
                                    }));
                                }
                            }
                            _ => {}
                        }
                    }
                    if let Some(out) = partitioner.end_interval(merged) {
                        if !out.plan.is_empty() {
                            report.rebalances += 1;
                            report.migrated_keys += out.plan.keys_moved() as u64;
                            report.migrated_bytes += out.plan.cost_bytes();
                            let n_tasks = partitioner.n_tasks();
                            let mut dead_involved = false;
                            let mut fixups: Vec<(Key, TaskId)> = Vec::new();
                            let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> =
                                FxHashMap::default();
                            let mut affected = Vec::with_capacity(out.plan.keys_moved());
                            for mv in out.plan.moves() {
                                affected.push(mv.key);
                                let to = if dead.contains(&mv.to.index()) {
                                    // The planner aimed a key at a corpse
                                    // (its stats predate the death):
                                    // divert it to the slot its traffic
                                    // already lands on.
                                    dead_involved = true;
                                    let d = TaskId::from(next_live(mv.to.index(), n_tasks, |x| {
                                        dead.contains(&x)
                                    }));
                                    fixups.push((mv.key, d));
                                    d
                                } else {
                                    mv.to
                                };
                                if dead.contains(&mv.from.index()) {
                                    // The holder died: its state is gone
                                    // and already accounted, so this is a
                                    // routing-only move.
                                    dead_involved = true;
                                    continue;
                                }
                                by_source.entry(mv.from).or_default().push((mv.key, to));
                            }
                            if !fixups.is_empty() {
                                partitioner.apply_moves(&fixups);
                            }
                            // When the partitioner applied
                            // the rebalance as a delta, ship
                            // the source the same delta —
                            // O(churn), and the source's
                            // table stays in lockstep because
                            // both sides mutate equal tables
                            // identically. Swaps (and every
                            // scale op above) keep shipping
                            // full views: those are the
                            // resync points. Dead involvement
                            // also forces a full view — the
                            // fixups above made the
                            // controller's table diverge from
                            // the plan's moves, so the raw
                            // delta would desync the source.
                            let view = if dead_involved {
                                partitioner.routing_view()
                            } else if partitioner.last_install_was_delta() {
                                RoutingView::TableDelta {
                                    n_tasks: partitioner.n_tasks(),
                                    moves: out.plan.moves().iter().map(|m| (m.key, m.to)).collect(),
                                }
                            } else {
                                partitioner.routing_view()
                            };
                            queue.push_back(PlannedOp::Migrate(PlannedMigration {
                                by_source,
                                affected,
                                view,
                                preplaced: false,
                                label: OpLabel::Rebalance,
                            }));
                        }
                    }
                }

                // In-flight-op deadline. Intervals are the deterministic
                // clock; the wall bound keeps healthy-but-slow runs from
                // spurious expiry, and rules alone once the source has
                // finished and intervals stop. First expiry re-drives
                // the stuck phase (markers are idempotent: workers and
                // source absorb duplicates by epoch); the second aborts
                // with rollback.
                let mut abort_op = false;
                if let (Some(op), Some(clock)) = (pending.as_mut(), op_clock.as_mut()) {
                    let wall_ok = clock.started.elapsed() < config.op_deadline;
                    let iv_ok =
                        current_interval < clock.started_interval + config.op_deadline_intervals;
                    if !wall_ok && (!iv_ok || source_finished) {
                        if clock.retried {
                            abort_op = true;
                        } else {
                            clock.retried = true;
                            clock.started = Instant::now();
                            clock.started_interval = current_interval;
                            match op {
                                ActiveOp::Migration(m) => {
                                    injector.record(FaultEvent::OpRetried {
                                        op: OpKind::Migrate,
                                        epoch: m.epoch,
                                    });
                                    if !m.pause_acked {
                                        send_src(
                                            &injector,
                                            &ctl_tx,
                                            Some(CtlKind::Pause),
                                            SourceCtl::Pause {
                                                epoch: m.epoch,
                                                affected: m.plan.affected.clone(),
                                            },
                                        );
                                    } else if !m.awaiting_out.is_empty() {
                                        let stuck: Vec<TaskId> =
                                            m.awaiting_out.iter().copied().collect();
                                        for w in stuck {
                                            if dead.contains(&w.index()) {
                                                continue;
                                            }
                                            let moves = m
                                                .plan
                                                .by_source
                                                .get(&w)
                                                .cloned()
                                                .unwrap_or_default();
                                            send_ctl_marker(
                                                &injector,
                                                &worker_txs,
                                                w.index(),
                                                CtlKind::MigrateOut,
                                                Message::MigrateOut {
                                                    epoch: m.epoch,
                                                    moves,
                                                },
                                            );
                                        }
                                    } else {
                                        for (&dst, states) in &m.sent_installs {
                                            if !m.awaiting_install.contains(&dst)
                                                || dead.contains(&dst.index())
                                            {
                                                continue;
                                            }
                                            ctl_send(
                                                &injector,
                                                &worker_txs[dst.index()],
                                                dst.index(),
                                                Message::StateInstall {
                                                    epoch: m.epoch,
                                                    states: states.clone(),
                                                },
                                            );
                                        }
                                    }
                                }
                                ActiveOp::Retire(r) => {
                                    injector.record(FaultEvent::OpRetried {
                                        op: OpKind::Retire,
                                        epoch: r.epoch,
                                    });
                                    if !r.pause_acked {
                                        send_src(
                                            &injector,
                                            &ctl_tx,
                                            Some(CtlKind::Pause),
                                            SourceCtl::PauseDest {
                                                epoch: r.epoch,
                                                dest: r.victim,
                                            },
                                        );
                                    } else if retiring == Some(r.victim) {
                                        send_ctl_marker(
                                            &injector,
                                            &worker_txs,
                                            r.victim.index(),
                                            CtlKind::Retire,
                                            Message::Retire { epoch: r.epoch },
                                        );
                                    } else {
                                        for (&dst, states) in &r.sent_installs {
                                            if !r.awaiting_install.contains(&dst)
                                                || dead.contains(&dst.index())
                                            {
                                                continue;
                                            }
                                            ctl_send(
                                                &injector,
                                                &worker_txs[dst.index()],
                                                dst.index(),
                                                Message::StateInstall {
                                                    epoch: r.epoch,
                                                    states: states.clone(),
                                                },
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                if abort_op {
                    if let Some(op) = pending.take() {
                        op_clock = None;
                        match op {
                            ActiveOp::Migration(m) => {
                                injector.record(FaultEvent::OpAborted {
                                    op: OpKind::Migrate,
                                    epoch: m.epoch,
                                });
                                closed_epochs.close(m.epoch);
                                // Close the span Aborted *before* the
                                // rollback resume goes out, so the resume
                                // phase (and its ack) cannot land on a
                                // closed span.
                                if open_spans.remove(&m.epoch) {
                                    rec.span_close(m.epoch, Outcome::Aborted);
                                }
                                // Roll the routing back: every affected
                                // key returns to its origin (diverted
                                // past corpses). State still in hand
                                // (`collected`) is re-installed under a
                                // fresh pre-closed epoch; state already
                                // delivered stays where it landed —
                                // re-sending it could double-count, and
                                // per-key counts merge at shutdown
                                // regardless of which slot holds them.
                                let n_tasks = partitioner.n_tasks();
                                let mut origin_of: FxHashMap<Key, TaskId> = FxHashMap::default();
                                let mut reverse: Vec<(Key, TaskId)> = Vec::new();
                                for (&src, moves) in &m.plan.by_source {
                                    let home = if dead.contains(&src.index()) {
                                        TaskId::from(next_live(src.index(), n_tasks, |x| {
                                            dead.contains(&x)
                                        }))
                                    } else {
                                        src
                                    };
                                    for &(k, _) in moves {
                                        reverse.push((k, home));
                                        origin_of.insert(k, home);
                                    }
                                }
                                partitioner.apply_moves(&reverse);
                                next_epoch += 1;
                                closed_epochs.close(next_epoch);
                                let mut by_origin: FxHashMap<TaskId, Vec<(Key, Bytes)>> =
                                    FxHashMap::default();
                                for (k, _to, blob) in m.collected {
                                    let Some(&home) = origin_of.get(&k) else {
                                        continue;
                                    };
                                    by_origin.entry(home).or_default().push((k, blob));
                                }
                                // The rollback is its own span on the fresh
                                // pre-closed epoch: its installs and the
                                // resume happen synchronously right here,
                                // so it opens and closes in one breath.
                                rec.span_open(next_epoch, OpLabel::Rollback);
                                if !by_origin.is_empty() {
                                    rec.span_phase(next_epoch, Phase::Install);
                                }
                                for (dst, states) in by_origin {
                                    ctl_send(
                                        &injector,
                                        &worker_txs[dst.index()],
                                        dst.index(),
                                        Message::StateInstall {
                                            epoch: next_epoch,
                                            states,
                                        },
                                    );
                                }
                                rec.span_phase(next_epoch, Phase::Resume);
                                issue_resume(
                                    &injector,
                                    &ctl_tx,
                                    &mut resume_state,
                                    &mut rec,
                                    &open_spans,
                                    m.epoch,
                                    partitioner.routing_view(),
                                    current_interval,
                                );
                                rec.span_close(next_epoch, Outcome::Completed);
                            }
                            ActiveOp::Retire(r) => {
                                injector.record(FaultEvent::OpAborted {
                                    op: OpKind::Retire,
                                    epoch: r.epoch,
                                });
                                closed_epochs.close(r.epoch);
                                if open_spans.remove(&r.epoch) {
                                    rec.span_close(r.epoch, Outcome::Aborted);
                                }
                                // The routing already shrank at decision
                                // time, so resume under the retire's view:
                                // a still-live victim becomes a routed-
                                // around zombie that drains at shutdown
                                // with its state intact; a late `Retired`
                                // is absorbed by the closed epoch.
                                if retiring == Some(r.victim) {
                                    retiring = None;
                                }
                                issue_resume(
                                    &injector,
                                    &ctl_tx,
                                    &mut resume_state,
                                    &mut rec,
                                    &open_spans,
                                    r.epoch,
                                    r.view,
                                    current_interval,
                                );
                            }
                        }
                    }
                }

                // Resume deadline: re-drive, forever — an abandoned
                // resume would strand pause-buffered tuples at the
                // source (unaccounted loss) and hang shutdown. Only the
                // first re-drive is ledgered; the source absorbs
                // duplicates by epoch.
                let mut redrive: Vec<(u64, RoutingView)> = Vec::new();
                for (&epoch, rc) in resume_state.iter_mut() {
                    let wall_ok = rc.started.elapsed() < config.op_deadline;
                    let iv_ok =
                        current_interval < rc.started_interval + config.op_deadline_intervals;
                    if wall_ok || (iv_ok && !source_finished) {
                        continue;
                    }
                    if !rc.retried {
                        rc.retried = true;
                        injector.record(FaultEvent::OpRetried {
                            op: OpKind::Resume,
                            epoch,
                        });
                    }
                    rc.started = Instant::now();
                    rc.started_interval = current_interval;
                    redrive.push((epoch, rc.view.clone()));
                }
                for (epoch, view) in redrive {
                    send_src(
                        &injector,
                        &ctl_tx,
                        Some(CtlKind::Resume),
                        SourceCtl::Resume { epoch, view },
                    );
                }

                // Start the next queued control-plane op when idle.
                if pending.is_none() {
                    if let Some(op) = queue.pop_front() {
                        match op {
                            PlannedOp::Migrate(mut plan) => {
                                // Movers that died since planning hold no
                                // state (lost and accounted at death);
                                // their keys still move in the view.
                                plan.by_source.retain(|src, _| !dead.contains(&src.index()));
                                next_epoch += 1;
                                // The span id is the op epoch: Plan marks
                                // the pop, Pause marks the quiesce request
                                // going out.
                                rec.span_open(next_epoch, plan.label);
                                rec.span_phase(next_epoch, Phase::Plan);
                                rec.span_phase(next_epoch, Phase::Pause);
                                open_spans.insert(next_epoch);
                                send_src(
                                    &injector,
                                    &ctl_tx,
                                    Some(CtlKind::Pause),
                                    SourceCtl::Pause {
                                        epoch: next_epoch,
                                        affected: plan.affected.clone(),
                                    },
                                );
                                op_clock = Some(OpClock::start(current_interval));
                                pending = Some(ActiveOp::Migration(ActiveMigration {
                                    epoch: next_epoch,
                                    plan,
                                    pause_acked: false,
                                    awaiting_out: FxHashSet::default(),
                                    collected: Vec::new(),
                                    awaiting_install: FxHashSet::default(),
                                    sent_installs: FxHashMap::default(),
                                    state_out_marked: false,
                                }));
                            }
                            PlannedOp::ScaleIn { victim, view }
                                if dead.contains(&victim.index()) =>
                            {
                                // The victim died before its retirement
                                // started: state accounted, keys already
                                // re-routed. Finalize the width
                                // bookkeeping and publish the shrunk
                                // view; no pause is needed because the
                                // source diverts the slot anyway.
                                dead.remove(&victim.index());
                                active -= 1;
                                debug_assert_eq!(victim.index(), active);
                                ws.set_active(Instant::now(), active - dead.len());
                                send_src(&injector, &ctl_tx, None, SourceCtl::UpdateView { view });
                            }
                            PlannedOp::ScaleIn { victim, view } => {
                                next_epoch += 1;
                                rec.span_open(next_epoch, OpLabel::ScaleIn);
                                rec.span_phase(next_epoch, Phase::Plan);
                                rec.span_phase(next_epoch, Phase::Pause);
                                open_spans.insert(next_epoch);
                                send_src(
                                    &injector,
                                    &ctl_tx,
                                    Some(CtlKind::Pause),
                                    SourceCtl::PauseDest {
                                        epoch: next_epoch,
                                        dest: victim,
                                    },
                                );
                                op_clock = Some(OpClock::start(current_interval));
                                pending = Some(ActiveOp::Retire(ActiveRetire {
                                    epoch: next_epoch,
                                    victim,
                                    view,
                                    pause_acked: false,
                                    retire_sent: false,
                                    awaiting_install: FxHashSet::default(),
                                    sent_installs: FxHashMap::default(),
                                }));
                            }
                        }
                    }
                }

                // Shutdown when fully quiesced. `resume_state` guards
                // the flush race: the source must confirm it has
                // re-enqueued all pause-buffered tuples before Shutdown
                // markers enter the worker channels behind them.
                // `dead_pending` guards loss accounting: a dead slot's
                // channel backlog must be counted before teardown.
                if source_finished
                    && !draining
                    && pending.is_none()
                    && queue.is_empty()
                    && ledger.outstanding() == 0
                    && resume_state.is_empty()
                    && dead_pending.is_empty()
                {
                    draining = true;
                    drain_target = 0;
                    for (i, tx) in worker_txs.iter().enumerate().take(active) {
                        if dead.contains(&i) {
                            continue;
                        }
                        // A slot whose Shutdown did not land (timeout or
                        // disconnect) is left out of the drain target;
                        // its thread still exits when the channel
                        // disconnects at teardown.
                        if ctl_send(&injector, tx, i, Message::Shutdown) {
                            drain_target += 1;
                        }
                    }
                    if drained >= drain_target {
                        break 'ctl;
                    }
                }
            }

            // All workers drained. Close the worker-seconds integral and
            // tear down the auxiliaries. The spawner holds a
            // collector-sender clone; it must drop before the collector
            // join, or the collector never observes closure.
            report.worker_seconds = ws.finish(Instant::now());
            // Disconnect here means the source already exited (it only
            // does so on Shutdown or panic; a panic is surfaced by the
            // join below) — nothing to tell it.
            let _ = ctl_tx.send(SourceCtl::Shutdown);
            stop.store(true, Ordering::Relaxed);
            drop(spawner);
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
            let mut lost_tuples: Vec<(Key, u64)> = lost.into_iter().collect();
            lost_tuples.sort_unstable_by_key(|&(k, _)| k);
            report.lost_tuples = lost_tuples;
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
            let mut leftover: Vec<u64> = open_spans.drain().collect();
            leftover.sort_unstable();
            for epoch in leftover {
                rec.span_close(epoch, Outcome::Abandoned);
            }
            drop(rec);
            report.trace = sink.take_log();
            report.final_states.sort_unstable_by_key(|&(k, _)| k);
        });

        report.wall = t0.elapsed();
        report.mean_throughput = report.processed as f64 / report.wall.as_secs_f64().max(1e-9);
        report
    }
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
/// What the source is holding back during an in-flight control op.
enum PauseFilter {
    /// Migration: the affected key set `Δ(F, F′)`.
    Keys(FxHashSet<Key>),
    /// Scale-in: everything routed to the retiring destination. Evaluated
    /// *after* routing (in [`SourcePlane::ship`]), because membership is a
    /// property of the route, not the key.
    Dest(TaskId),
}

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
                Ok(()) => return,
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

    /// Handles one control message; returns false on Shutdown.
    fn handle_ctl(&mut self, msg: SourceCtl) -> bool {
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
                self.buffer = buffered; // drained; keeps its capacity
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
        loop {
            if since_ctl >= ctl_every {
                since_ctl = 0;
                plane.reclaim();
                while let Ok(msg) = ctl.try_recv() {
                    if !plane.handle_ctl(msg) {
                        return;
                    }
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
    use streambal_baselines::CoreBalancer;
    use streambal_baselines::HashPartitioner;
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
            Box::new(HashPartitioner::new(3)),
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

    #[test]
    fn latency_and_throughput_recorded() {
        let report = Engine::run(
            small_config(),
            Box::new(HashPartitioner::new(3)),
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
            Box::new(HashPartitioner::new(2)),
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
            Box::new(HashPartitioner::new(2)),
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
                cooldown: 0,
                consecutive: 100, // never fires within this run
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
                Box::new(HashPartitioner::new(3)),
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
            Box::new(HashPartitioner::new(3)),
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
            Box::new(HashPartitioner::new(2)),
            |_| Box::new(WordCountOp::new()),
            |_| None,
            None,
        );
    }
}
