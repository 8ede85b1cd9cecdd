//! The controller: the Fig. 5 protocol as one event-driven state
//! machine ([`Controller`]) walking one operation shape
//! ([`ProtocolOp`]), plus the accounting it leans on, each piece
//! unit-testable without spinning up threads — the statistics-round
//! ledger (which must survive late and duplicate worker reports — a
//! retiring worker can answer a round the controller already closed)
//! and the worker-seconds integral (which must bill queued scale-ins
//! exactly once per parallelism change).
//!
//! One op runs at a time, from its pause to the source's `ResumeAck`:
//! the next op's pause goes out only after the source confirmed it runs
//! on the previous op's view, so no later pause or view can overtake an
//! earlier resume, and no re-driven resume can roll the source back.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use streambal_core::{divert, IntervalStats, Key, Partitioner, RoutingView, SourceRouter, TaskId};
use streambal_elastic::{IntervalObservation, RoundAction, RoundDecisions, RoundInputs};
use streambal_hashring::{FxHashMap, FxHashSet, HashRing};
use streambal_metrics::Histogram;
use streambal_trace::{EarlySplit, EarlyStep, OpLabel, Outcome, Phase, ThreadRecorder};

use crate::engine::{EngineConfig, EngineReport, ProtocolError, Routing};
use crate::fault::{CtlKind, DropCounter, FaultEvent, KillTrigger, OpKind, SendPeer};
use crate::message::{
    Event, Message, PauseScope, SourceCtl, SourceEvent, WorkerEvent, WorkerExit, WorkerTotals,
};
use crate::operator::Operator;

/// Where a wait started, on both of the controller's clocks — an instant
/// and a source interval — and whether it was already re-driven once.
/// Op phases and statistics rounds both wait this way, and
/// [`Clock::expired`] is the one rule that ends every wait.
#[derive(Clone, Copy)]
struct Wait {
    at: Instant,
    interval: u64,
    /// An op phase re-drives once before it aborts (a resume phase
    /// re-drives at every expiry); a statistics round only expires.
    retried: bool,
}

/// The controller's time, advanced only by its inputs — the instant the
/// event loop passed with the latest event or tick (the controller reads
/// no clock of its own), the latest source interval, and whether the
/// source has finished — plus the deadline every wait is measured
/// against.
struct Clock {
    now: Instant,
    interval: u64,
    source_finished: bool,
    deadline: Duration,
    deadline_intervals: u64,
}

impl Clock {
    /// A wait starting now.
    fn wait(&self) -> Wait {
        Wait {
            at: self.now,
            interval: self.interval,
            retried: false,
        }
    }

    /// The wait after a re-drive: restarted now, marked retried.
    fn retry(&self) -> Wait {
        Wait {
            retried: true,
            ..self.wait()
        }
    }

    /// The one deadline rule (see [`EngineConfig::deadline`]): a wait has
    /// expired once `deadline` of wall time has passed since it started
    /// *and* either `deadline_intervals` source intervals have passed or
    /// the source has finished — its intervals stop then, and the wall
    /// bound rules alone.
    fn expired(&self, wait: &Wait) -> bool {
        self.now.duration_since(wait.at) >= self.deadline
            && (self.interval >= wait.interval + self.deadline_intervals || self.source_finished)
    }
}

/// One open statistics round: absorbed stats, per-slot loads, queue-depth
/// samples, the interval's latency distribution (one sample per tuple a
/// reporter processed in it), the interval's wall span, and which workers
/// have reported. The expected *set* is pinned at issue time — scale-out must
/// not retroactively change which workers a round waits for — but it can
/// shrink: a reporter that dies mid-round is struck off
/// ([`StatsLedger::on_worker_dead`]), and a round that outlives its
/// deadline closes with whoever answered
/// ([`StatsLedger::expire_rounds`]), so a dead or wedged worker cannot
/// hold statistics — or shutdown, which waits on open rounds — hostage.
struct StatsRound {
    merged: IntervalStats,
    loads: Vec<u64>,
    queues: Vec<u64>,
    latency: Histogram,
    /// From the source's previous cut to the one that opened the round.
    span: Duration,
    reporters: FxHashSet<TaskId>,
    expected: FxHashSet<TaskId>,
    opened: Wait,
}

impl StatsRound {
    fn is_complete(&self) -> bool {
        self.expected.iter().all(|w| self.reporters.contains(w))
    }

    fn close(self) -> ClosedRound {
        ClosedRound {
            merged: self.merged,
            loads: self.loads,
            queues: self.queues,
            mean_latency_us: self.latency.mean(),
            p99_latency_us: self.latency.quantile(0.99) as f64,
            throughput: self.latency.count() as f64 / self.span.as_secs_f64().max(1e-9),
        }
    }
}

/// Everything a completed round hands the elasticity policy, the
/// partitioner, and the flight recorder's per-interval `Snapshot`
/// event: the merged stats, the per-slot load vector, the queue
/// depths sampled when the round was issued, the interval latency
/// summary, and the tuples its reporters processed per second of the
/// interval.
pub(crate) struct ClosedRound {
    pub merged: IntervalStats,
    pub loads: Vec<u64>,
    pub queues: Vec<u64>,
    pub mean_latency_us: f64,
    pub p99_latency_us: f64,
    pub throughput: f64,
}

/// The controller's statistics-round ledger.
///
/// A round opens when the controller reads the source's cut; no report
/// can arrive before that, since the source announces a cut before it
/// marks, on the inbox the workers answer on. Robustness contract (the
/// seed crashed on both): a report for a round already closed — by its
/// deadline or a death — and a departing worker's unreported residue fold
/// into the oldest open round, or into the carry buffer consumed by the
/// next round, so totals never under-count; and a *duplicate* report
/// from a worker that already answered merges its load without
/// advancing the round's completion count, so a round can neither close
/// early nor leak.
pub(crate) struct StatsLedger {
    rounds: FxHashMap<u64, StatsRound>,
    /// Residual statistics with no open round to absorb them — folded
    /// into the next round issued.
    carry: IntervalStats,
}

impl StatsLedger {
    pub fn new() -> Self {
        StatsLedger {
            rounds: FxHashMap::default(),
            carry: IntervalStats::new(),
        }
    }

    /// Rounds still waiting for reports.
    pub fn outstanding(&self) -> usize {
        self.rounds.len()
    }

    /// Opens the round for `interval`, expecting a report from each
    /// worker in `expected`, with `queues` the queue depth of each active
    /// worker slot sampled as the cut was read, and `span` the interval's
    /// wall time; its deadline runs from `opened`. Any carried residue is
    /// folded in (the slot attribution is gone with the retired slot;
    /// totals are what policies consume).
    fn open(
        &mut self,
        interval: u64,
        expected: Vec<TaskId>,
        queues: Vec<u64>,
        opened: Wait,
        span: Duration,
    ) {
        let active = queues.len();
        debug_assert!(!expected.is_empty() && active > 0);
        let mut round = StatsRound {
            merged: IntervalStats::new(),
            loads: vec![0; active],
            queues,
            latency: Histogram::new(),
            span,
            reporters: FxHashSet::default(),
            expected: expected.into_iter().collect(),
            opened,
        };
        round.loads[active - 1] += self.carry.total_cost();
        round.merged.absorb(std::mem::take(&mut self.carry));
        self.rounds.insert(interval, round);
    }

    /// Strikes a dead worker off every open round's expected set and
    /// closes the rounds that were only waiting on it, oldest first.
    /// Its already-merged contributions stay — the load was real.
    pub fn on_worker_dead(&mut self, worker: TaskId) -> Vec<(u64, ClosedRound)> {
        for round in self.rounds.values_mut() {
            round.expected.remove(&worker);
        }
        self.drain_complete()
    }

    /// Closes the rounds whose wait `expired` (the controller's
    /// [`Clock::expired`]) with whoever answered. Returns `(interval,
    /// round, missing reporters)` oldest first; the caller records the
    /// missing set in the fault ledger. A silent-but-subscribed worker
    /// thus delays statistics by a bounded amount instead of wedging
    /// shutdown.
    fn expire_rounds(
        &mut self,
        expired: impl Fn(&Wait) -> bool,
    ) -> Vec<(u64, ClosedRound, Vec<usize>)> {
        let mut due: Vec<u64> = self
            .rounds
            .iter()
            .filter(|(_, round)| expired(&round.opened))
            .map(|(iv, _)| *iv)
            .collect();
        due.sort_unstable();
        due.into_iter()
            .filter_map(|iv| {
                let round = self.rounds.remove(&iv)?;
                let mut missing: Vec<usize> = round
                    .expected
                    .difference(&round.reporters)
                    .map(|w| w.index())
                    .collect();
                missing.sort_unstable();
                Some((iv, round.close(), missing))
            })
            .collect()
    }

    /// Removes and returns every complete round, oldest first.
    fn drain_complete(&mut self) -> Vec<(u64, ClosedRound)> {
        let mut done: Vec<u64> = self
            .rounds
            .iter()
            .filter(|(_, r)| r.is_complete())
            .map(|(iv, _)| *iv)
            .collect();
        done.sort_unstable();
        done.into_iter()
            .filter_map(|iv| Some((iv, self.rounds.remove(&iv)?.close())))
            .collect()
    }

    /// Ingests one worker report. Returns the completed round when this
    /// report was the last one still expected.
    pub fn on_stats(
        &mut self,
        worker: TaskId,
        interval: u64,
        stats: IntervalStats,
        latency: &Histogram,
    ) -> Option<ClosedRound> {
        let Some(round) = self.rounds.get_mut(&interval) else {
            // Late or unknown round: never crash the controller — the
            // load is real traffic, so absorb it where the next decision
            // will see it.
            self.absorb(worker, stats);
            return None;
        };
        let slot = worker.index().min(round.loads.len() - 1);
        round.loads[slot] += stats.total_cost();
        round.merged.absorb(stats);
        round.latency.merge(latency);
        // A duplicate report is absorbed (discarding would under-count) but
        // must not advance completion, or the round would close while a
        // distinct worker's report is still in flight.
        if round.reporters.insert(worker) && round.is_complete() {
            return self.rounds.remove(&interval).map(StatsRound::close);
        }
        None
    }

    /// Folds a retired victim's unreported residue into the oldest open
    /// round (issued while the victim was alive, so its slot exists), or
    /// carries it for the next round — dropping it would read as a load
    /// dip and re-trigger the scale-in policy.
    pub fn on_residue(&mut self, worker: TaskId, stats: IntervalStats) {
        if !stats.is_empty() {
            self.absorb(worker, stats);
        }
    }

    fn absorb(&mut self, worker: TaskId, stats: IntervalStats) {
        if let Some((_, round)) = self.rounds.iter_mut().min_by_key(|(k, _)| **k) {
            let slot = worker.index().min(round.loads.len() - 1);
            round.loads[slot] += stats.total_cost();
            round.merged.absorb(stats);
        } else {
            self.carry.absorb(stats);
        }
    }
}

/// The provisional statistics round open inside the current interval:
/// sealed copies of the workers' statistics so far, which the source
/// asked for in-band when it raised a skew alert. It feeds the split stage of the shared round
/// core (to split a heavy hitter, nothing else) and the partitioner's
/// rebalance hook — the elasticity policy, the snapshot stream and the
/// ledger above see whole intervals only — and the interval's closing
/// round cancels it if it is still waiting.
struct EarlyRound {
    interval: u64,
    merged: IntervalStats,
    /// Cost each worker reported, by slot: the replica choice's loads.
    loads: Vec<u64>,
    awaiting: FxHashSet<TaskId>,
}

/// The worker-seconds integral `∫ active(t) dt` — the provisioning cost
/// an elastic policy saves against a static peak-sized deployment.
///
/// One accumulation rule at every parallelism change: bill the *old*
/// parallelism for the span since the last change, then advance the
/// mark. Queued scale-ins thus bill each victim until its own retirement
/// completes (it is processing its backlog the whole time), not until
/// the decision that doomed it.
pub(crate) struct WorkerSeconds {
    mark: Instant,
    active: usize,
    total: f64,
}

impl WorkerSeconds {
    pub fn new(start: Instant, active: usize) -> Self {
        WorkerSeconds {
            mark: start,
            active,
            total: 0.0,
        }
    }

    /// Records a parallelism change at `now`.
    pub fn set_active(&mut self, now: Instant, active: usize) {
        self.total += self.active as f64 * now.duration_since(self.mark).as_secs_f64();
        self.mark = now;
        self.active = active;
    }

    /// Closes the integral at `now` and returns it.
    pub fn finish(&mut self, now: Instant) -> f64 {
        self.set_active(now, 0);
        self.total
    }
}

/// Where an op's state comes from.
enum Extract {
    /// `MigrateOut` each holder's `(key, destination)` moves; the plan
    /// names where every blob lands. Empty for a split (view change
    /// only).
    Moves(FxHashMap<TaskId, Vec<(Key, TaskId)>>),
    /// `Retire` the victim: it drains its backlog, hands back *all* its
    /// state (`Retired` is this op's state-out answer), and each blob's
    /// destination comes from routing under the op's view.
    Retire(TaskId),
}

/// What the in-flight op is waiting on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// The source's `PauseAck`.
    PauseAck,
    /// The holders in `awaiting_out`.
    StateOut,
    /// The destinations in `awaiting_install`.
    InstallAcks,
    /// The source's `ResumeAck`: it runs on `view` and has flushed its
    /// pause buffer. The last phase of every op, aborted or not; it is
    /// re-driven at every expiry and never aborted — an abandoned resume
    /// would strand pause-buffered tuples at the source and hang
    /// shutdown.
    ResumeAck,
}

/// One control-plane operation, queued or in flight. Every op the
/// controller runs — rebalance, scale-out, revive, scale-in, split,
/// unsplit — is this one walk (plan → pause → quiesce → state_out →
/// install → resume → resume ack) with a different pause scope and state
/// source; ops serialize through one queue, and an op leaves it only at
/// the source's `ResumeAck`, so every planned view reaches the source in
/// an op's `Resume`, one routing-function delta at a time.
/// The op's span (id = its epoch) lives as long as the op, except that
/// an abort closes it early and the op then walks its resume phase
/// spanless.
struct ProtocolOp {
    /// Assigned when the op starts (0 while queued).
    epoch: u64,
    /// The flight-recorder span label.
    label: OpLabel,
    /// The routing function to resume under, captured right after the
    /// partitioner mutation that planned the op (an abort replaces it
    /// with the rolled-back view).
    view: RoutingView,
    pause: PauseScope,
    extract: Extract,
    /// Bill `migrated_bytes` from the blobs actually extracted (scale-out
    /// pre-placement and unsplit move windowed state no single
    /// interval's statistics can size); a rebalance is billed up front
    /// from its plan's estimate.
    bill_extracted: bool,
    waiting: Waiting,
    awaiting_out: FxHashSet<TaskId>,
    collected: Vec<(Key, TaskId, Bytes)>,
    /// Installs sent and not yet acknowledged, kept whole for idempotent
    /// deadline resends (the worker dedupes by epoch). `Bytes` blobs are
    /// refcounted, so the clones are cheap.
    awaiting_install: FxHashMap<TaskId, Vec<(Key, Bytes)>>,
    /// Whether the span's `StateOut` marker was recorded (at the first
    /// live extraction) — phases are recorded exactly once; re-drives
    /// and duplicate answers must not repeat them.
    state_out_marked: bool,
    /// Whether a deadline aborted the op: its span is closed, and its
    /// resume phase records nothing on it.
    aborted: bool,
    /// The dead slot a revive op gives back to the source.
    revive: Option<usize>,
    /// The wait of the op's current phase: from its queueing, restarted
    /// when it starts, at every awaited answer and when it resumes.
    wait: Wait,
}

impl ProtocolOp {
    fn new(
        label: OpLabel,
        view: RoutingView,
        pause: PauseScope,
        extract: Extract,
        bill_extracted: bool,
        queued: Wait,
    ) -> Self {
        ProtocolOp {
            epoch: 0,
            label,
            view,
            pause,
            extract,
            bill_extracted,
            waiting: Waiting::PauseAck,
            awaiting_out: FxHashSet::default(),
            collected: Vec::new(),
            awaiting_install: FxHashMap::default(),
            state_out_marked: false,
            aborted: false,
            revive: None,
            wait: queued,
        }
    }

    fn is_scale_in(&self) -> bool {
        matches!(self.extract, Extract::Retire(_))
    }

    /// The fault ledger's name for the op's shape.
    fn kind(&self) -> OpKind {
        match self.extract {
            Extract::Moves(_) => OpKind::Migrate,
            Extract::Retire(_) => OpKind::Retire,
        }
    }
}

/// How an acknowledgement relates to the in-flight op.
#[derive(PartialEq)]
enum Answer {
    /// The in-flight op was waiting for exactly this.
    Awaited,
    /// A late or duplicate echo (of this op or a closed one).
    Stale,
    /// No op, open or closed, explains it.
    Stray,
}

/// The controller's handles on the rest of the topology. Every message
/// it sends goes through [`Controller::send_worker`] or
/// [`Controller::send_src`].
pub(crate) struct ControlIo<'a> {
    pub worker_txs: Vec<Sender<Message>>,
    pub ctl_tx: Sender<SourceCtl>,
    /// Protocol spans (id = op epoch), per-interval snapshots, and the
    /// fault ledger's mirror.
    pub rec: ThreadRecorder,
    /// Builds the keyed operator for a worker slot.
    pub make_op: Box<dyn FnMut(TaskId) -> Box<dyn Operator> + 'a>,
    /// Starts a worker thread on a slot.
    pub spawn: Box<SpawnWorker<'a>>,
}

/// `(slot, receiver, operator, first interval)`.
type SpawnWorker<'a> = dyn FnMut(usize, Receiver<Message>, Box<dyn Operator>, u64) + 'a;

/// One worker slot: the task the partitioner routes to, in one of three
/// states. A slot changes state only through [`Controller::set_slot`].
enum Slot {
    /// No worker runs here; the receiver, emptied, waits for the next
    /// spawn.
    Vacant(Receiver<Message>),
    /// A worker runs here — a routed-around zombie victim too.
    Live,
    /// The worker died. Its receiver is drained at every tick while the
    /// source may still route at the slot, and dropped at its
    /// `DeadDestAck`, so later sends fail fast. A revived slot stays
    /// dead until its revive op's resume ack.
    Dead(Option<Receiver<Message>>),
}

impl Slot {
    fn is_dead(&self) -> bool {
        matches!(self, Slot::Dead(_))
    }
}

/// Drains whatever currently sits in a slot's channel, counting every
/// in-flight tuple and state blob into the per-key loss map; markers
/// are dropped. Called at every tick while the source may still be
/// routing at a dead slot — a bounded channel left un-drained would
/// fill and backpressure the source against a corpse — and whenever a
/// slot changes state ([`Controller::set_slot`]).
fn drain_dead_channel(
    rx: &Receiver<Message>,
    sop: &mut dyn Operator,
    lost: &mut FxHashMap<Key, u64>,
) {
    while let Ok(msg) = rx.try_recv() {
        match msg {
            Message::TupleBatch { tuples, .. } => {
                for t in &tuples {
                    *lost.entry(t.key).or_insert(0) += 1;
                }
            }
            Message::StateInstall { states, .. } => {
                for (k, blob) in states {
                    *lost.entry(k).or_insert(0) += sop.tuples_in_blob(&blob);
                }
            }
            // Markers carry no tuples. Named one by one so a new
            // payload-carrying variant fails to compile here instead of
            // silently dropping out of `fed == observed + lost`.
            Message::StatsRequest { .. }
            | Message::StatsPeek { .. }
            | Message::MigrateOut { .. }
            | Message::Retire { .. }
            | Message::Shutdown => {}
        }
    }
}

/// Pairs each non-empty blob with its home under `view`.
fn place_under(
    view: RoutingView,
    states: impl IntoIterator<Item = (Key, Bytes)>,
) -> Vec<(Key, TaskId, Bytes)> {
    let mut router = SourceRouter::from_view(view);
    states
        .into_iter()
        .filter(|(_, blob)| !blob.is_empty())
        .map(|(k, blob)| (k, router.route(k), blob))
        .collect()
}

/// The Fig. 5 controller: owns the partitioner, the statistics rounds,
/// the one in-flight [`ProtocolOp`] and the queue behind it, and every
/// piece of failure bookkeeping. Single-threaded and event-driven —
/// [`Controller::on_source_event`], [`Controller::on_worker_event`] and
/// a periodic [`Controller::tick`] — so `Engine::run` is only wiring,
/// and tests drive it with hand-made events and bare channels. Time is
/// an input too: every entry point takes the instant its caller read,
/// and nothing here reads a clock.
pub(crate) struct Controller<'a> {
    config: EngineConfig,
    partitioner: Box<dyn Partitioner>,
    io: ControlIo<'a>,
    /// One entry per slot `0..max_workers`. A death alone never vacates
    /// a slot: the routing function still counts it, the source diverts
    /// its traffic to survivors, and a later scale-out revives it
    /// (`SlotRevived`); a dead scale-in victim's op frees it instead.
    slots: Vec<Slot>,
    pending: Option<ProtocolOp>,
    queue: VecDeque<ProtocolOp>,
    /// The last epoch issued: every epoch in `1..=next_epoch` but the
    /// in-flight op's belongs to an op that is over.
    next_epoch: u64,
    ledger: StatsLedger,
    /// Completed stats rounds awaiting the decision pass — filled by
    /// reports, dead-worker strikes, and deadline expiry alike, so every
    /// round is decided by exactly one code path, in the order they
    /// closed; held while a scale-in op is in flight or queued.
    closed_rounds: Vec<(u64, ClosedRound)>,
    /// The provisional round of the open interval, if one is waiting.
    early: Option<EarlyRound>,
    /// Total cost of the round decided last (0 before the first): what
    /// a provisional round's partial costs are scaled up to.
    last_round_cost: u64,
    clock: Clock,
    /// When the source's latest cut was read: the next interval's span
    /// is measured from here.
    last_cut: Instant,
    /// Each decided round's `(interval, throughput)`; rounds can close
    /// out of interval order, so the report's series is built from it,
    /// sorted, at [`Controller::finish`].
    throughput: Vec<(u64, f64)>,
    /// The worker exits still owed: `Some` once the shutdown gate has
    /// sent its markers, one per live worker reached.
    draining: Option<usize>,
    /// The drained state, one part per `Drained` worker or post-drain
    /// re-home, gathered into `EngineReport::final_states` only at
    /// [`Controller::finish`], once the rest of the controller is freed.
    drained_states: Vec<Vec<(Key, Bytes)>>,
    /// The run's start: `EngineReport::wall` counts from here.
    started: Instant,
    ws: WorkerSeconds,
    /// Per-key tuples irrecoverably lost to deaths.
    lost: FxHashMap<Key, u64>,
    /// Lazily-built operator used only to size state blobs drained from
    /// a dead worker's channel (loss accounting).
    scratch_op: Option<Box<dyn Operator>>,
    /// Drop ordinals of the control kinds this thread sends or reads.
    drops: DropCounter,
    report: EngineReport,
}

impl<'a> Controller<'a> {
    /// A controller over `config.n_workers` already-running workers on
    /// the first slots, and the `spare` receivers of the slots after
    /// them, vacant.
    pub fn new(
        config: EngineConfig,
        partitioner: Box<dyn Partitioner>,
        io: ControlIo<'a>,
        spare: Vec<Receiver<Message>>,
        t0: Instant,
    ) -> Self {
        let live = (0..config.n_workers).map(|_| Slot::Live);
        Controller {
            slots: live.chain(spare.into_iter().map(Slot::Vacant)).collect(),
            pending: None,
            queue: VecDeque::new(),
            next_epoch: 0,
            ledger: StatsLedger::new(),
            closed_rounds: Vec::new(),
            early: None,
            last_round_cost: 0,
            clock: Clock {
                now: t0,
                interval: 0,
                source_finished: false,
                deadline: config.deadline,
                deadline_intervals: config.deadline_intervals,
            },
            last_cut: t0,
            throughput: Vec::new(),
            draining: None,
            drained_states: Vec::new(),
            started: t0,
            ws: WorkerSeconds::new(t0, config.n_workers),
            lost: FxHashMap::default(),
            scratch_op: None,
            drops: DropCounter::new(&config.fault_plan),
            report: EngineReport::empty(partitioner.name(), config.max_workers),
            config,
            partitioner,
            io,
        }
    }

    /// Whether every worker that was sent `Shutdown` has exited.
    pub fn done(&self) -> bool {
        self.draining == Some(0)
    }

    /// Closes the books once [`Controller::done`]: tells the source to
    /// exit and returns the report, the recorder, the epoch of the
    /// in-flight op if its span is still open, for the caller to close
    /// `Abandoned` after the other threads have joined, and the routing
    /// the source must have ended on — `None` when an op in flight or
    /// queued never delivered its view. Dropping the controller drops
    /// its worker spawner — which holds a collector-sender clone — so
    /// the collector can observe closure.
    ///
    /// The drained state is gathered last: the partitioner (its
    /// statistics window and plan arena) and the rest of the controller
    /// are freed first, so the run's teardown does not hold both at once.
    pub fn finish(
        mut self,
        end: Instant,
    ) -> (EngineReport, ThreadRecorder, Option<u64>, Option<Routing>) {
        // The run's wall time and its worker-seconds integral close at
        // one instant, so `worker_seconds ≤ max_workers × wall` holds by
        // construction.
        self.report.worker_seconds = self.ws.finish(end);
        self.report.wall = end.duration_since(self.started);
        self.report.mean_throughput =
            self.report.processed as f64 / self.report.wall.as_secs_f64().max(1e-9);
        // Disconnect here means the source already exited (it only does
        // so on Shutdown or panic; a panic is surfaced by the caller's
        // join) — nothing to tell it.
        let _ = self.io.ctl_tx.send(SourceCtl::Shutdown);
        let mut lost_tuples: Vec<(Key, u64)> = std::mem::take(&mut self.lost).into_iter().collect();
        lost_tuples.sort_unstable_by_key(|&(k, _)| k);
        self.report.lost_tuples = lost_tuples;
        self.throughput
            .sort_unstable_by_key(|&(interval, _)| interval);
        for &(interval, tps) in &self.throughput {
            self.report.interval_throughput.push(interval as f64, tps);
        }
        let settled = (self.pending.is_none() && self.queue.is_empty()).then(|| {
            let router = SourceRouter::from_view(self.partitioner.routing_view());
            (router, self.dead().collect())
        });
        let open_span = self
            .pending
            .as_ref()
            .filter(|op| !op.aborted)
            .map(|op| op.epoch);
        let (mut report, rec, parts) = self.release();
        let mut states = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            states.extend(part);
        }
        states.sort_unstable_by_key(|&(k, _)| k);
        report.final_states = states;
        (report, rec, open_span, settled)
    }

    /// The report, the recorder and the drained state; everything else
    /// the controller holds is dropped here.
    fn release(self) -> (EngineReport, ThreadRecorder, Vec<Vec<(Key, Bytes)>>) {
        (self.report, self.io.rec, self.drained_states)
    }

    // ---- the fault ledger and sends -------------------------------------

    /// The fault ledger's one writer: appends `fault` to
    /// `EngineReport::faults` and mirrors it into the trace, with the
    /// ledger index as its `seq`.
    fn fault(&mut self, fault: FaultEvent) {
        self.io.rec.fault(self.report.faults.len() as u64, &fault);
        self.report.faults.push(fault);
    }

    /// Counts one control message of `kind` this thread sends or reads;
    /// true when the plan drops it, which is ledgered.
    fn planned_drop(&mut self, kind: CtlKind) -> bool {
        let Some(dropped) = self.drops.count(kind) else {
            return false;
        };
        self.fault(dropped);
        true
    }

    /// Control send to worker slot `w`, drop-gated when `kind` names a
    /// droppable kind. A control message weighs nothing, so it never
    /// waits for room — not even in the full queue of a worker that died
    /// before its `Killed` event was read — and lands behind every batch
    /// already queued. False when the message did not reach the channel:
    /// a planned drop (recovered by the deadline machinery, like a loss
    /// in flight) or a disconnect, which is ledgered.
    fn send_worker(&mut self, w: usize, kind: Option<CtlKind>, msg: Message) -> bool {
        if kind.is_some_and(|k| self.planned_drop(k)) {
            return false;
        }
        if self.io.worker_txs[w].send_weighted(msg, 0).is_ok() {
            return true;
        }
        self.fault(FaultEvent::SendFailed {
            to: SendPeer::Worker(w),
        });
        false
    }

    /// Sends a source control message, drop-gating it when `kind` names
    /// a droppable control kind (`DeadDest` and `ReviveDest` are never
    /// dropped: losing them models nothing a real network loses
    /// independently of the protocol messages around them).
    fn send_src(&mut self, kind: Option<CtlKind>, msg: SourceCtl) {
        if kind.is_some_and(|k| self.planned_drop(k)) {
            return;
        }
        if self.io.ctl_tx.send(msg).is_err() {
            self.fault(FaultEvent::SendFailed {
                to: SendPeer::Source,
            });
        }
    }

    // ---- events ---------------------------------------------------------

    /// Handles one event of the inbox that arrived at `now`. An event of
    /// a droppable kind the plan drops is lost on arrival.
    pub fn on_event(&mut self, ev: Event, now: Instant) {
        self.clock.now = now;
        if ev.ctl_kind().is_some_and(|kind| self.planned_drop(kind)) {
            return;
        }
        match ev {
            Event::Source(ev) => self.on_source_event(ev),
            Event::Worker(ev) => self.on_worker_event(ev),
            Event::Injected(fault) => self.fault(fault),
        }
    }

    fn on_source_event(&mut self, ev: SourceEvent) {
        match ev {
            SourceEvent::IntervalDone { interval, marked } => {
                self.on_interval_done(interval, marked)
            }
            SourceEvent::PauseAck { epoch } => self.on_pause_ack(epoch),
            SourceEvent::ResumeAck { epoch } => self.on_resume_ack(epoch),
            SourceEvent::DeadDestAck { dest } => {
                // The source has stopped routing to the dead slot; drain
                // its channel one last time and drop the receiver so any
                // later send fails fast instead of queueing into a void.
                if let Slot::Dead(Some(_)) = self.slots[dest.index()] {
                    self.set_slot(dest.index(), Slot::Dead(None));
                }
            }
            SourceEvent::SendFailed { dest } => {
                // The source hit a disconnected channel before (or
                // after) the controller's DeadDest reached it; the
                // tuples were re-shipped to a survivor, so this is an
                // observation, not a loss.
                self.fault(FaultEvent::SendFailed {
                    to: SendPeer::Worker(dest.index()),
                });
            }
            SourceEvent::SkewAlert { interval, marked } => self.on_skew_alert(interval, marked),
            SourceEvent::Finished => self.clock.source_finished = true,
        }
    }

    fn on_worker_event(&mut self, ev: WorkerEvent) {
        match ev {
            WorkerEvent::Stats {
                worker,
                interval,
                stats,
                latency,
            } => {
                // The ledger absorbs late and duplicate reports (a
                // retiring worker can answer a round the controller
                // already closed); a report only completes a round when
                // every distinct expected worker has answered.
                if let Some(round) = self.ledger.on_stats(worker, interval, stats, &latency) {
                    self.closed_rounds.push((interval, round));
                }
            }
            WorkerEvent::StatsPeek {
                worker,
                interval,
                stats,
            } => {
                // An answer to a round already cancelled (or to another
                // interval's) is only a copy: dropping it loses nothing.
                if let Some(early) = self.early.as_mut().filter(|e| e.interval == interval) {
                    if early.awaiting.remove(&worker) {
                        if let Some(load) = early.loads.get_mut(worker.index()) {
                            *load = stats.total_cost();
                        }
                        early.merged.absorb(stats);
                    }
                }
            }
            WorkerEvent::StateOut {
                worker,
                epoch,
                states,
            } => self.on_state_out(worker, epoch, states),
            WorkerEvent::InstallAck { worker, epoch } => self.on_install_ack(worker, epoch),
            WorkerEvent::Exited {
                worker,
                totals,
                exit,
            } => {
                self.absorb_totals(worker, &totals);
                // Each worker the shutdown gate reached owes one exit,
                // whether it drains, dies, or retires as a zombie.
                if let Some(owed) = self.draining.as_mut() {
                    *owed = owed.saturating_sub(1);
                }
                match exit {
                    WorkerExit::Retired {
                        epoch,
                        states,
                        stats,
                        rx,
                    } => self.on_retired(worker, epoch, states, stats, rx),
                    WorkerExit::Killed {
                        trigger,
                        lost,
                        stats,
                        rx,
                    } => self.on_killed(worker, trigger, lost, stats, rx),
                    WorkerExit::Drained { final_states } => {
                        self.drained_states.push(final_states);
                    }
                }
            }
        }
    }

    /// The bottom half: runs after every event and on every idle
    /// wake-up, because deadlines, round expiry and the shutdown gate
    /// must advance even when nothing arrives; `now` is when it runs.
    pub fn tick(&mut self, now: Instant) {
        self.clock.now = now;
        // Keep dead channels drained while the source may still be
        // routing at them (its DeadDest is in flight): a bounded channel
        // left full would backpressure the source against a corpse.
        // Everything drained is accounted as lost, exactly as the final
        // DeadDestAck drain does.
        for w in 0..self.slots.len() {
            if let Slot::Dead(Some(_)) = self.slots[w] {
                self.drain_slot(w);
            }
        }
        // Stats rounds whose reporters went silent close by deadline, so
        // a wedged worker cannot hold decisions — or shutdown, which
        // waits on open rounds — hostage.
        let clock = &self.clock;
        for (interval, round, missing) in self.ledger.expire_rounds(|w| clock.expired(w)) {
            self.fault(FaultEvent::RoundTimedOut { interval, missing });
            self.closed_rounds.push((interval, round));
        }
        // A round closed while a scale-in walks its op waits for the op's
        // end: only then is the victim's slot free for a later scale-out
        // to grow onto. The source can cut rounds faster than an op
        // walks, so deciding them at once would skip, by thread timing,
        // a scale-out a policy asked for.
        while !self.closed_rounds.is_empty() && !self.scaling_in() {
            let (interval, round) = self.closed_rounds.remove(0);
            self.decide_round(interval, round);
        }
        self.settle_early_round();
        self.check_op_deadline();
        self.start_next_op();
        self.shutdown_gate();
    }

    /// Counts whatever sits in the receiver slot `w` holds as lost.
    fn drain_slot(&mut self, w: usize) {
        let (Slot::Vacant(rx) | Slot::Dead(Some(rx))) = &self.slots[w] else {
            return;
        };
        let sop = self
            .scratch_op
            .get_or_insert_with(|| (self.io.make_op)(TaskId::from(w)));
        drain_dead_channel(rx, sop.as_mut(), &mut self.lost);
    }

    /// The source cut `interval`: open its round, expecting every marked
    /// slot not known dead — a dropped marker too, which the round's
    /// deadline closes.
    fn on_interval_done(&mut self, interval: u64, marked: Vec<TaskId>) {
        self.clock.interval = interval;
        // The closing round overtakes a provisional one still waiting:
        // whole-interval statistics are about to arrive.
        self.cancel_early_round();
        let now = self.clock.now;
        let span = now.duration_since(std::mem::replace(&mut self.last_cut, now));
        // Tuple-weighted channel occupancy: the backpressure signal.
        let queues: Vec<u64> = self.io.worker_txs[..self.active()]
            .iter()
            .map(|tx| tx.queued_weight() as u64)
            .collect();
        let mut expected = marked;
        expected.retain(|w| !self.slots[w.index()].is_dead());
        if !expected.is_empty() {
            let opened = self.clock.wait();
            self.ledger.open(interval, expected, queues, opened, span);
        }
    }

    /// The source saw the open `interval` skewed and asked the `marked`
    /// slots for a copy of their statistics so far: await them, unless
    /// the control plane is busy — an op in flight or queued is already
    /// changing the routing the alert was measured under, and a degraded
    /// or draining topology plans at interval boundaries only — and then
    /// drop the copies. A lost copy stays awaited until the closing round
    /// cancels the round.
    fn on_skew_alert(&mut self, interval: u64, marked: Vec<TaskId>) {
        let busy = self.pending.is_some()
            || !self.queue.is_empty()
            || self.early.is_some()
            || self.dead().next().is_some()
            || self.draining.is_some();
        if busy {
            return;
        }
        self.io.rec.early_round(interval, EarlyStep::Open);
        self.early = Some(EarlyRound {
            interval,
            merged: IntervalStats::new(),
            loads: vec![0; self.active()],
            awaiting: marked.into_iter().collect(),
        });
    }

    /// Decides a fully answered provisional round: the split stage of
    /// the shared round core first — a heavy hitter is split now rather
    /// than an interval late — then the partitioner's rebalance hook
    /// over the same report, so the split op and the plan for the
    /// remaining keys queue FIFO inside the interval that raised the
    /// alert. Runs after the closed rounds are decided: a worker answers
    /// the previous interval's closing request before the provisional
    /// one (same FIFO channel), so that round is in the window by now,
    /// and if it planned an op the routing is already moving — the
    /// provisional statistics are dropped rather than planned on twice.
    fn settle_early_round(&mut self) {
        let Some(early) = self.early.take_if(|e| e.awaiting.is_empty()) else {
            return;
        };
        let interval = early.interval;
        if self.pending.is_some() || !self.queue.is_empty() {
            self.io.rec.early_round(interval, EarlyStep::Cancelled);
            return;
        }
        let inputs = RoundInputs {
            obs: IntervalObservation {
                interval,
                n_tasks: self.partitioner.n_tasks(),
                loads: &early.loads,
                queue_depths: &[],
                mean_latency_us: 0.0,
                p99_latency_us: 0.0,
                n_dead: self.dead().count(),
            },
            stats: &early.merged,
            dead: self.dead().collect(),
            can_grow: false,
        };
        let action = RoundDecisions::provisional(inputs, self.last_round_cost).next(
            &mut *self.partitioner,
            &mut *self.config.elasticity,
            self.config.split.as_deref_mut(),
        );
        let split = match &action {
            Some(RoundAction::Split { event, .. }) => Some(*event),
            _ => None,
        };
        if let Some(action) = action {
            self.apply_action(interval, action);
        }
        let total = early.merged.total_cost().max(1) as f64;
        let hot_cost = split.and_then(|e| early.merged.get(Key(e.key)));
        let planned = self.plan_rebalance(early.merged.into_provisional());
        match (split, planned) {
            (Some(event), _) => self.io.rec.early_split(
                interval,
                EarlySplit {
                    key: event.key,
                    share: hot_cost.map_or(0.0, |s| s.cost as f64 / total),
                    rescale: self.last_round_cost as f64 / total,
                    replicas: event.to,
                    loads: early.loads,
                    planned,
                },
            ),
            (None, true) => self.io.rec.early_round(interval, EarlyStep::Planned),
            (None, false) => self.io.rec.early_round(interval, EarlyStep::Held),
        }
    }

    fn cancel_early_round(&mut self) {
        if let Some(early) = self.early.take() {
            self.io
                .rec
                .early_round(early.interval, EarlyStep::Cancelled);
        }
    }

    fn on_pause_ack(&mut self, epoch: u64) {
        // A duplicate means the pause was retried but the original ack
        // was merely slow, not lost.
        let stray = ProtocolError::StrayPauseAck { epoch };
        let answer = self.claim(epoch, "pause ack", stray, |op| {
            op.waiting == Waiting::PauseAck
        });
        let (Answer::Awaited, Some(op)) = (answer, self.pending.as_mut()) else {
            return;
        };
        op.waiting = Waiting::StateOut;
        let mut holders: Vec<TaskId> = match &op.extract {
            Extract::Moves(by_source) => by_source.keys().copied().collect(),
            Extract::Retire(victim) => vec![*victim],
        };
        // A holder or victim that died after planning has nothing left
        // to extract (its loss is already accounted).
        holders.retain(|w| !self.slots[w.index()].is_dead());
        op.awaiting_out.extend(holders);
        // The source is quiesced: every tuple it will ever send under
        // the old view is in the holders' channels, and the extraction
        // markers land behind all of them. A dropped marker stays
        // awaited; the op deadline re-drives it.
        self.io.rec.span_phase(epoch, Phase::QuiesceWait);
        self.send_phase();
        // A degenerate op (a split, an empty scale-out, a revive, every
        // holder or the victim dead) awaits nothing and resumes
        // immediately: its pause window alone makes the view swap atomic.
        self.advance_op();
    }

    fn on_state_out(&mut self, worker: TaskId, epoch: u64, states: Vec<(Key, TaskId, Bytes)>) {
        let stray = ProtocolError::StrayStateOut {
            worker: worker.index(),
            epoch,
            dropped_keys: states.len(),
        };
        match self.claim(epoch, "state out", stray, |op| {
            op.awaiting_out.remove(&worker)
        }) {
            Answer::Awaited => self.collect_state_out(states),
            // Absorbed — but not dropped. An aborted migration's holder
            // can wake after the rollback, process the queued
            // MigrateOut, and ship real state here; the blobs have left
            // their owner, so they are re-homed under the *current*
            // (rolled-back) view. A retried MigrateOut's empty
            // double-answer (the first extraction emptied the keys)
            // re-homes nothing.
            Answer::Stale => self.rehome_stale(states.into_iter().map(|(k, _, blob)| (k, blob))),
            Answer::Stray => {}
        }
    }

    /// `Retired` is the state-out answer of a scale-in op: everything the
    /// victim held, plus the slot's channel receiver.
    fn on_retired(
        &mut self,
        worker: TaskId,
        epoch: u64,
        states: Vec<(Key, Bytes)>,
        stats: IntervalStats,
        rx: Receiver<Message>,
    ) {
        let stray = ProtocolError::StrayRetired {
            worker: worker.index(),
            epoch,
        };
        let answer = self.claim(epoch, "retired", stray, |op| {
            op.awaiting_out.remove(&worker)
        });
        // Whichever it is, keep the books: fold the victim's unreported
        // residue into the oldest open round (dropping it would read as
        // a load dip and re-trigger the scale-in policy) and vacate the
        // slot — its channel, emptied, waits for a later scale-out.
        self.ledger.on_residue(worker, stats);
        self.set_slot(worker.index(), Slot::Vacant(rx));
        if answer == Answer::Stray {
            return;
        }
        match (answer, self.pending.as_ref()) {
            // Re-home under the op's captured view — the placement every
            // later op's delta is computed against.
            (Answer::Awaited, Some(op)) => {
                let placed = place_under(op.view.clone(), states);
                self.collect_state_out(placed);
            }
            // A zombie victim: its scale-in was aborted (deadline) but
            // the Retire marker had already landed, so the drain
            // completed anyway.
            _ => self.rehome_stale(states),
        }
    }

    fn on_install_ack(&mut self, worker: TaskId, epoch: u64) {
        // A duplicate is a re-driven install's second ack (the worker
        // dedupes the install, then re-acks); fire-and-forget installs
        // under an epoch no op owns are absorbed the same way.
        let stray = ProtocolError::StrayInstallAck {
            worker: worker.index(),
            epoch,
        };
        let awaited = |op: &mut ProtocolOp| op.awaiting_install.remove(&worker).is_some();
        if self.claim(epoch, "install ack", stray, awaited) == Answer::Awaited {
            self.advance_op();
        }
    }

    /// The source runs on the in-flight op's view and has flushed its
    /// pause buffer: the op is over, and its span — unless an abort
    /// closed it — covers the whole pause → … → resume round trip. An
    /// ack no op awaits (a re-driven resume's second ack) is absorbed.
    fn on_resume_ack(&mut self, epoch: u64) {
        let awaited = self
            .pending
            .take_if(|op| op.epoch == epoch && op.waiting == Waiting::ResumeAck);
        let Some(op) = awaited else {
            self.absorb_stale(epoch, "resume ack");
            return;
        };
        if !op.aborted {
            self.io.rec.span_close(epoch, Outcome::Completed);
        }
        // The source routes under the op's view — a revive's whole
        // current one, or a scale-in's that routes nothing to its dead
        // victim — so no stale entry can reach the slot: its death ends.
        // The victim's receiver died with it; a fresh one frees the slot.
        let revived = match op.extract {
            Extract::Retire(victim) if self.slots[victim.index()].is_dead() => {
                let slot = victim.index();
                Some((slot, Slot::Vacant(self.fresh_channel(slot))))
            }
            _ => op.revive.map(|slot| (slot, Slot::Live)),
        };
        if let Some((slot, to)) = revived {
            self.set_slot(slot, to);
            let (dest, tx) = (TaskId::from(slot), self.io.worker_txs[slot].clone());
            self.send_src(None, SourceCtl::ReviveDest { dest, tx });
        }
    }

    /// Whether a scale-in op is in flight or queued.
    fn scaling_in(&self) -> bool {
        self.pending
            .iter()
            .chain(&self.queue)
            .any(ProtocolOp::is_scale_in)
    }

    /// The one place a slot changes state. The receiver the old state
    /// held, and the one a vacant slot gets, are emptied first — every
    /// tuple and blob in them counted lost — so nothing sent to one
    /// worker reaches the next one on the slot. Bills the live width and
    /// returns the old state.
    fn set_slot(&mut self, w: usize, to: Slot) -> Slot {
        self.drain_slot(w);
        let old = std::mem::replace(&mut self.slots[w], to);
        self.drain_slot(w);
        let live = self.slots.iter().filter(|s| matches!(s, Slot::Live));
        self.ws.set_active(self.clock.now, live.count());
        old
    }

    /// One past the last slot in use: the width rounds and loads span.
    fn active(&self) -> usize {
        let vacant = |s: &&Slot| matches!(s, Slot::Vacant(_));
        self.slots.len() - self.slots.iter().rev().take_while(vacant).count()
    }

    /// The dead slots, in order.
    fn dead(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots.len()).filter(|&w| self.slots[w].is_dead())
    }

    /// Classifies an acknowledgement stamped `epoch`. When that is the
    /// in-flight op's own, `strike` says whether the op was still waiting
    /// for it (and strikes it off); an awaited answer is phase progress,
    /// so the op's wait restarts. Any other epoch the one counter issued
    /// belongs to an op that is over — finished, aborted, or a re-home or
    /// rollback install — so its answer is a late echo, absorbed into
    /// the fault ledger as `what`. One nothing explains (an epoch never
    /// issued) is bookkeeping divergence — recorded as `stray`, not a
    /// reason to kill the pipeline.
    fn claim(
        &mut self,
        epoch: u64,
        what: &'static str,
        stray: ProtocolError,
        strike: impl FnOnce(&mut ProtocolOp) -> bool,
    ) -> Answer {
        match self.pending.as_mut() {
            Some(op) if op.epoch == epoch => {
                if strike(op) {
                    op.wait = self.clock.wait();
                    return Answer::Awaited;
                }
            }
            _ if (1..=self.next_epoch).contains(&epoch) => {}
            _ => {
                self.report.protocol_errors.push(stray);
                return Answer::Stray;
            }
        }
        self.absorb_stale(epoch, what);
        Answer::Stale
    }

    fn absorb_stale(&mut self, epoch: u64, what: &'static str) {
        self.fault(FaultEvent::StaleEpochAbsorbed { epoch, what });
    }

    /// Folds a finished (retired, killed, or drained) worker's lifetime
    /// totals into the report.
    fn absorb_totals(&mut self, worker: TaskId, totals: &WorkerTotals) {
        let w = worker.index();
        self.report.per_worker_processed[w] += totals.processed;
        self.report.processed += totals.processed;
        self.report.latency_us.merge(&totals.latency);
        // The earliest first-tuple interval across a slot's successive
        // occupants (a retired slot can be re-provisioned mid-run).
        let slot = &mut self.report.first_tuple_interval[w];
        *slot = match (*slot, totals.first_interval) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// An awaited holder's extracted state is in hand.
    fn collect_state_out(&mut self, states: Vec<(Key, TaskId, Bytes)>) {
        let Some(op) = self.pending.as_mut() else {
            return;
        };
        if !op.state_out_marked {
            op.state_out_marked = true;
            self.io.rec.span_phase(op.epoch, Phase::StateOut);
        }
        if op.bill_extracted {
            self.report.migrated_bytes +=
                states.iter().map(|(_, _, b)| b.len() as u64).sum::<u64>();
        }
        op.collected.extend(states);
        self.advance_op();
    }

    /// Walks the in-flight op past every phase with nothing left to wait
    /// for: extraction complete → install what was collected (step 5b);
    /// installs acked, or none to send → resume under the op's view
    /// (step 7) and await the source's ack.
    fn advance_op(&mut self) {
        let Some(op) = self.pending.as_mut() else {
            return;
        };
        let epoch = op.epoch;
        if op.waiting == Waiting::StateOut && op.awaiting_out.is_empty() {
            op.waiting = Waiting::InstallAcks;
            let collected = std::mem::take(&mut op.collected);
            if !collected.is_empty() {
                self.io.rec.span_phase(epoch, Phase::Install);
                // StateInstall is never dropped by a plan (it carries
                // state); a failed send is recovered by the deadline or
                // the destination's own death event.
                let sent = self.rehome(epoch, collected);
                if let Some(op) = self.pending.as_mut() {
                    op.awaiting_install = sent;
                }
            }
        }
        if let Some(op) = self.pending.as_ref() {
            if op.waiting == Waiting::InstallAcks && op.awaiting_install.is_empty() {
                self.start_resume();
            }
        }
    }

    /// The one place blobs in hand become `StateInstall`s: groups them
    /// by destination — diverting any that died since the destination
    /// was chosen by the one divert rule, so state lands where the key's
    /// tuples do — sends one install per destination under `epoch`, and
    /// returns what went where.
    fn rehome(
        &mut self,
        epoch: u64,
        states: Vec<(Key, TaskId, Bytes)>,
    ) -> FxHashMap<TaskId, Vec<(Key, Bytes)>> {
        let mut by_dest: FxHashMap<TaskId, Vec<(Key, Bytes)>> = FxHashMap::default();
        let divert = self.diverter();
        for (k, to, blob) in states {
            by_dest.entry(divert(k, to)).or_default().push((k, blob));
        }
        drop(divert);
        for (dest, states) in &by_dest {
            let states = states.clone();
            self.send_worker(dest.index(), None, Message::StateInstall { epoch, states });
        }
        by_dest
    }

    /// State that arrived on a closed epoch has left its owner: re-home
    /// it under the *current* view on a fresh epoch no op owns (the
    /// installs are fire-and-forget; their acks absorb as stale). Once
    /// the drain has begun it joins the drained state instead:
    /// every worker's `Shutdown` is already queued ahead of any install,
    /// and no tuple is left to reach the state.
    fn rehome_stale(&mut self, states: impl IntoIterator<Item = (Key, Bytes)>) {
        if self.draining.is_some() {
            let states = states.into_iter().filter(|(_, blob)| !blob.is_empty());
            self.drained_states.push(states.collect());
            return;
        }
        let placed = place_under(self.partitioner.routing_view(), states);
        if !placed.is_empty() {
            self.next_epoch += 1;
            self.rehome(self.next_epoch, placed);
        }
    }

    /// `(key, to)` ↦ where the source sends `key` routed to `to`: the one
    /// divert rule ([`divert`]) over the dead slots.
    fn diverter(&self) -> impl Fn(Key, TaskId) -> TaskId + '_ {
        let ring = (self.dead().next()).map(|_| HashRing::new(self.partitioner.n_tasks()));
        move |k, to| (ring.as_ref()).map_or(to, |r| divert(r, k, to, |x| self.slots[x].is_dead()))
    }

    /// Moves the in-flight op to its last phase: nothing is owed to it
    /// any more, so resume the source under the op's view and await the
    /// ack. The span's `Resume` phase is recorded here, once (deadline
    /// re-drives go through [`Controller::send_phase`] alone), unless an
    /// abort already closed the span.
    fn start_resume(&mut self) {
        let Some(op) = self.pending.as_mut() else {
            return;
        };
        op.waiting = Waiting::ResumeAck;
        op.awaiting_out.clear();
        op.awaiting_install.clear();
        op.wait = self.clock.wait();
        if !op.aborted {
            self.io.rec.span_phase(op.epoch, Phase::Resume);
        }
        self.send_phase();
    }

    /// A worker died at its planned kill point `trigger`. The kill and
    /// the death are ledgered back to back, from the one exit event.
    fn on_killed(
        &mut self,
        worker: TaskId,
        trigger: KillTrigger,
        worker_lost: Vec<(Key, u64)>,
        stats: IntervalStats,
        rx: Receiver<Message>,
    ) {
        let w = worker.index();
        self.fault(FaultEvent::InjectedKill { worker: w, trigger });
        self.fault(FaultEvent::WorkerDead { worker: w });
        // What the worker *did* process counts (its totals are already
        // absorbed); what it held is lost and accounted per key.
        self.ledger.on_residue(worker, stats);
        self.closed_rounds
            .extend(self.ledger.on_worker_dead(worker));
        for (k, n) in worker_lost {
            *self.lost.entry(k).or_insert(0) += n;
        }
        self.fault(FaultEvent::StateLost { worker: w });
        self.set_slot(w, Slot::Dead(Some(rx)));
        // A provisional round would wait on the corpse forever.
        self.cancel_early_round();
        // Re-pin the dead slot's keys by the divert rule the source
        // applies to its traffic, and tell the source; its ack returns
        // when it diverts, and the channel backlog is then drained and
        // accounted (DeadDestAck).
        let moves = (self.partitioner).reroute_dead(worker, &|x| self.slots[x].is_dead());
        self.fault(FaultEvent::Rerouted {
            from_worker: w,
            moved_keys: moves.len(),
        });
        self.send_src(None, SourceCtl::DeadDest { dest: worker });
        // Untangle the in-flight op from the corpse: a phase waiting on
        // the dead worker must not wait for the deadline to notice.
        // Whatever it still owed (state, an install ack) is gone; a blob
        // already in its channel is counted by the DeadDestAck drain.
        if let Some(op) = self.pending.as_mut() {
            op.awaiting_out.remove(&worker);
            op.awaiting_install.remove(&worker);
            self.advance_op();
        }
    }

    // ---- round decisions --------------------------------------------------

    /// Decides one closed round — whether a full report set, a
    /// dead-worker strike, or deadline expiry closed it, the same code
    /// decides: the shared elasticity/split core first, then the
    /// partitioner's rebalance hook.
    fn decide_round(&mut self, interval: u64, round: ClosedRound) {
        // Telemetry snapshot: exactly what the policies and the
        // partitioner are about to see.
        self.last_round_cost = round.merged.total_cost();
        self.throughput.push((interval, round.throughput));
        self.io.rec.snapshot(
            interval,
            round.loads.clone(),
            round.queues.clone(),
            round.mean_latency_us,
            round.p99_latency_us,
        );
        // The planned parallelism — `partitioner.n_tasks()`, which every
        // decision mutates immediately — not the physical worker count.
        // A scale-out spawns on the partitioner's new task, so it can
        // grow only when that slot is vacant: not past `max_workers`,
        // and not onto a victim still retiring (`tick` holds the round
        // until a scale-in's op ends; a zombie victim holds the slot
        // until it retires).
        let ops: Vec<&ProtocolOp> = self.pending.iter().chain(&self.queue).collect();
        // Capacity to revive is a dead slot the routing function still
        // counts (a dead scale-in victim's op frees it) and no revive op
        // holds already.
        let n_tasks = self.partitioner.n_tasks();
        let dead: Vec<usize> = self
            .dead()
            .filter(|&w| w < n_tasks && !ops.iter().any(|op| op.revive == Some(w)))
            .collect();
        let inputs = RoundInputs {
            obs: IntervalObservation {
                interval,
                n_tasks,
                loads: &round.loads,
                queue_depths: &round.queues,
                mean_latency_us: round.mean_latency_us,
                p99_latency_us: round.p99_latency_us,
                n_dead: dead.len(),
            },
            stats: &round.merged,
            dead,
            can_grow: matches!(self.slots.get(n_tasks), Some(Slot::Vacant(_))),
        };
        let mut decisions = RoundDecisions::new(inputs);
        while let Some(action) = decisions.next(
            &mut *self.partitioner,
            &mut *self.config.elasticity,
            self.config.split.as_deref_mut(),
        ) {
            self.apply_action(interval, action);
        }
        self.plan_rebalance(round.merged);
    }

    /// Executes one decision of the shared core. The partitioner has
    /// just been mutated for it, so `routing_view()` here is the view
    /// the decision produced.
    fn apply_action(&mut self, interval: u64, action: RoundAction) {
        match action {
            RoundAction::Revive { slot } => {
                // Routing is untouched (the revived slot starts
                // key-less). The fresh worker stays counted dead until
                // its op's resume ack gives the source the slot back.
                let rx = self.fresh_channel(slot);
                self.spawn_on(slot, rx);
                self.fault(FaultEvent::SlotRevived { worker: slot });
                self.enqueue(OpLabel::ScaleOut, Vec::new(), FxHashMap::default(), false);
                if let Some(op) = self.queue.back_mut() {
                    op.revive = Some(slot);
                }
            }
            RoundAction::ScaleOut { event, new, moves } => {
                let slot = new.index();
                let Slot::Vacant(rx) = self.set_slot(slot, Slot::Live) else {
                    // lint: allow(panic, reason = "`can_grow` is `slots[n_tasks]`
                    // being vacant, and the new task is `n_tasks` (`add_task`)")
                    unreachable!("`can_grow` vouched that slot {slot} is vacant");
                };
                self.spawn_on(slot, rx);
                self.report.scale_events.push(event);
                // Pre-placement: the new slot's keys move in through the
                // same quiesce → install → resume walk as a rebalance,
                // so it takes load this interval; with no key to move,
                // the op still carries the grown view, behind every
                // earlier op's.
                self.report.migrated_keys += moves.len() as u64;
                let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> = FxHashMap::default();
                let mut affected = Vec::with_capacity(moves.len());
                for (k, holder) in moves {
                    affected.push(k);
                    by_source.entry(holder).or_default().push((k, new));
                }
                self.enqueue(OpLabel::ScaleOut, affected, by_source, true);
            }
            RoundAction::ScaleHeld => {
                // Let the ledger say why the policy's wish was refused.
                self.fault(FaultEvent::ScaleHeld { interval });
            }
            RoundAction::ScaleIn { event, victim } => {
                // The routing function has shrunk; the physical
                // retirement queues behind any in-flight op.
                self.report.scale_events.push(event);
                self.queue.push_back(ProtocolOp::new(
                    OpLabel::ScaleIn,
                    self.partitioner.routing_view(),
                    PauseScope::Dest(victim),
                    Extract::Retire(victim),
                    false,
                    self.clock.wait(),
                ));
            }
            RoundAction::Split { event, key } => {
                self.report.split_events.push(event);
                // A split moves no state: the op's pause window alone
                // makes the view swap atomic.
                self.enqueue(OpLabel::Split, vec![key], FxHashMap::default(), false);
            }
            RoundAction::Unsplit {
                event,
                key,
                replicas,
            } => {
                // The routing already consolidated onto the primary; the
                // physical consolidation is a real migration moving each
                // live non-primary replica's partial state into the
                // primary (whose `install` merges additively).
                let primary = replicas[0];
                let by_source = replicas[1..]
                    .iter()
                    .filter(|r| **r != primary && !self.slots[r.index()].is_dead())
                    .map(|&r| (r, vec![(key, primary)]))
                    .collect();
                self.report.split_events.push(event);
                self.enqueue(OpLabel::Unsplit, vec![key], by_source, true);
            }
        }
    }

    /// Queues a key-scoped op resuming under the partitioner's current
    /// view.
    fn enqueue(
        &mut self,
        label: OpLabel,
        affected: Vec<Key>,
        by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>>,
        bill_extracted: bool,
    ) {
        self.queue.push_back(ProtocolOp::new(
            label,
            self.partitioner.routing_view(),
            PauseScope::Keys(affected),
            Extract::Moves(by_source),
            bill_extracted,
            self.clock.wait(),
        ));
    }

    /// Hands the round's statistics to the partitioner and queues the
    /// rebalance it plans, if any; returns whether it planned one.
    fn plan_rebalance(&mut self, merged: IntervalStats) -> bool {
        let Some(out) = self.partitioner.end_interval(merged) else {
            return false;
        };
        if out.plan.is_empty() {
            return false;
        }
        self.report.rebalances += 1;
        self.report.migrated_keys += out.plan.keys_moved() as u64;
        self.report.migrated_bytes += out.plan.cost_bytes();
        let moves = out.plan.moves();
        // The planner may aim a key at a corpse (its stats predate the
        // death): each key's destination after the divert.
        let divert = self.diverter();
        let placed: Vec<(Key, TaskId)> = (moves.iter())
            .map(|mv| (mv.key, divert(mv.key, mv.to)))
            .collect();
        drop(divert);
        // Pin diverted keys where their traffic goes, so no entry names
        // a corpse once a revive brings its slot back (re-applying the
        // other moves changes nothing).
        if placed.iter().zip(moves).any(|(&(_, to), mv)| to != mv.to) {
            self.partitioner.apply_moves(&placed);
        }
        // A dead holder's state is gone and already accounted: its key's
        // move is routing-only.
        let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> = FxHashMap::default();
        for mv in moves {
            if !self.slots[mv.from.index()].is_dead() {
                by_source.entry(mv.from).or_default().push((mv.key, mv.to));
            }
        }
        // When the partitioner applied the rebalance as a delta, ship
        // the source the same delta, as placed — O(churn), and both
        // sides apply the same moves to tables equal up to entries that
        // name dead slots, which both divert alike. Swaps (and every
        // scale op) ship full views: those are the resync points.
        let view = if self.partitioner.last_install_was_delta() {
            RoutingView::TableDelta {
                n_tasks: self.partitioner.n_tasks(),
                moves: placed,
            }
        } else {
            self.partitioner.routing_view()
        };
        let affected = moves.iter().map(|mv| mv.key).collect();
        self.queue.push_back(ProtocolOp::new(
            OpLabel::Rebalance,
            view,
            PauseScope::Keys(affected),
            Extract::Moves(by_source),
            false,
            self.clock.wait(),
        ));
        true
    }

    /// Replaces `slot`'s channel with a fresh one — the old receiver
    /// died with its worker — and returns the new receiver.
    fn fresh_channel(&mut self, slot: usize) -> Receiver<Message> {
        let (tx, rx) = bounded(self.config.channel_capacity);
        self.io.worker_txs[slot] = tx;
        rx
    }

    /// Starts a worker on `slot`, labelled after the latest cut read.
    fn spawn_on(&mut self, slot: usize, rx: Receiver<Message>) {
        let op = (self.io.make_op)(TaskId::from(slot));
        (self.io.spawn)(slot, rx, op, self.clock.interval + 1);
    }

    // ---- deadlines, queue, shutdown ---------------------------------------

    /// In-flight-op deadline: the first expiry re-drives the stuck
    /// phase, the second aborts with rollback — except a resume phase,
    /// which is re-driven at every expiry. Only the first re-drive of a
    /// phase is ledgered.
    fn check_op_deadline(&mut self) {
        let Some(op) = self.pending.as_mut() else {
            return;
        };
        if !self.clock.expired(&op.wait) {
            return;
        }
        let resuming = op.waiting == Waiting::ResumeAck;
        if op.wait.retried && !resuming {
            self.abort_op();
            return;
        }
        let first = !op.wait.retried;
        let kind = if resuming { OpKind::Resume } else { op.kind() };
        let epoch = op.epoch;
        op.wait = self.clock.retry();
        if first {
            self.fault(FaultEvent::OpRetried { op: kind, epoch });
        }
        self.send_phase();
    }

    /// Sends what the in-flight op's phase waits on: the quiesce request,
    /// a `MigrateOut` to each live holder still awaited (the victim's
    /// `Retire`, for a scale-in), the installs not yet acknowledged, or
    /// the resume under the op's view. Every re-drive, and the first
    /// pause, extraction and resume sends (the first installs go out
    /// through [`Controller::rehome`]); workers and source absorb
    /// duplicates by epoch.
    fn send_phase(&mut self) {
        // Out of its slot while the messages go out.
        let Some(op) = self.pending.take() else {
            return;
        };
        let epoch = op.epoch;
        match (op.waiting, &op.extract) {
            (Waiting::PauseAck, _) => {
                let scope = op.pause.clone();
                self.send_src(Some(CtlKind::Pause), SourceCtl::Pause { epoch, scope });
            }
            (Waiting::StateOut, extract) => {
                // Nothing dead is awaited: a death strikes its slot off.
                for w in &op.awaiting_out {
                    let (kind, marker) = match extract {
                        Extract::Moves(by_source) => {
                            let moves = by_source.get(w).cloned().unwrap_or_default();
                            (CtlKind::MigrateOut, Message::MigrateOut { epoch, moves })
                        }
                        // A scale-in awaits only its victim, which answers
                        // the first marker it sees; a duplicate stays in
                        // the receiver it hands back, which is emptied
                        // before the slot is reused (`set_slot`).
                        Extract::Retire(_) => (CtlKind::Retire, Message::Retire { epoch }),
                    };
                    self.send_worker(w.index(), Some(kind), marker);
                }
            }
            (Waiting::InstallAcks, _) => {
                for (dst, states) in &op.awaiting_install {
                    let states = states.clone();
                    self.send_worker(dst.index(), None, Message::StateInstall { epoch, states });
                }
            }
            (Waiting::ResumeAck, _) => {
                let view = op.view.clone();
                self.send_src(Some(CtlKind::Resume), SourceCtl::Resume { epoch, view });
            }
        }
        self.pending = Some(op);
    }

    /// Second deadline expiry: give the op up, close its span `Aborted`,
    /// and walk its resume phase under a routing function that matches
    /// where the state is. For a scale-in that is the retire's own view
    /// — the routing already shrank at decision time — so a still-live
    /// victim becomes a routed-around zombie that drains at shutdown with
    /// its state intact; answers the op no longer awaits (a late
    /// `StateOut` or `Retired`) are absorbed as stale and re-homed.
    fn abort_op(&mut self) {
        let Some(mut op) = self.pending.take() else {
            return;
        };
        let epoch = op.epoch;
        self.fault(FaultEvent::OpAborted {
            op: op.kind(),
            epoch,
        });
        self.io.rec.span_close(epoch, Outcome::Aborted);
        op.aborted = true;
        if let Extract::Moves(by_source) = &op.extract {
            op.view = self.roll_back(by_source, std::mem::take(&mut op.collected));
        }
        self.pending = Some(op);
        self.start_resume();
    }

    /// Rolls an aborted migration's routing back: every affected key
    /// returns to its origin (diverted past corpses), and the rolled-back
    /// view is returned for the op to resume under. State still in hand
    /// (`collected`) is re-installed there; state already delivered
    /// stays where it landed — re-sending it could double-count, and
    /// per-key counts merge at shutdown regardless of which slot holds
    /// them. The rollback is its own span on a fresh epoch no op owns:
    /// its installs go out right here and the aborted op resumes next,
    /// so it opens and closes in one breath.
    fn roll_back(
        &mut self,
        by_source: &FxHashMap<TaskId, Vec<(Key, TaskId)>>,
        collected: Vec<(Key, TaskId, Bytes)>,
    ) -> RoutingView {
        let mut origin_of: FxHashMap<Key, TaskId> = FxHashMap::default();
        let mut reverse: Vec<(Key, TaskId)> = Vec::new();
        let divert = self.diverter();
        for (&src, moves) in by_source {
            for &(k, _) in moves {
                let home = divert(k, src);
                reverse.push((k, home));
                origin_of.insert(k, home);
            }
        }
        drop(divert);
        // The views queued behind were captured before the rollback: a
        // later op's move of a key the rollback returns must not undo it
        // at the source when that op resumes.
        if self.partitioner.apply_moves(&reverse) {
            for op in &mut self.queue {
                op.view.apply_moves(&reverse);
            }
        }
        self.next_epoch += 1;
        let rollback = self.next_epoch;
        let in_hand: Vec<(Key, TaskId, Bytes)> = collected
            .into_iter()
            .filter_map(|(k, _, blob)| origin_of.get(&k).map(|&home| (k, home, blob)))
            .collect();
        self.io.rec.span_open(rollback, OpLabel::Rollback);
        if !in_hand.is_empty() {
            self.io.rec.span_phase(rollback, Phase::Install);
        }
        self.rehome(rollback, in_hand);
        self.io.rec.span_phase(rollback, Phase::Resume);
        self.io.rec.span_close(rollback, Outcome::Completed);
        self.partitioner.routing_view()
    }

    /// Starts the next queued op when idle: plan → pause.
    fn start_next_op(&mut self) {
        if self.pending.is_some() {
            return;
        }
        let Some(mut op) = self.queue.pop_front() else {
            return;
        };
        // Movers that died since planning hold no state (lost and
        // accounted at death); their keys still move in the view.
        if let Extract::Moves(by_source) = &mut op.extract {
            by_source.retain(|src, _| !self.slots[src.index()].is_dead());
        }
        self.next_epoch += 1;
        op.epoch = self.next_epoch;
        // The span id is the op epoch: Plan marks the pop, Pause marks
        // the quiesce request going out.
        self.io.rec.span_open(op.epoch, op.label);
        self.io.rec.span_phase(op.epoch, Phase::Plan);
        self.io.rec.span_phase(op.epoch, Phase::Pause);
        op.wait = self.clock.wait();
        self.pending = Some(op);
        self.send_phase();
    }

    /// Ships `Shutdown` to the live workers once fully quiesced. No op
    /// in flight guards the flush race: an op ends only when the source
    /// has confirmed it re-enqueued all pause-buffered tuples, so
    /// Shutdown markers enter the worker channels behind them. No dead
    /// slot may still hold its receiver: its channel backlog must be
    /// counted before teardown.
    fn shutdown_gate(&mut self) {
        let quiesced = self.clock.source_finished
            && self.draining.is_none()
            && self.pending.is_none()
            && self.queue.is_empty()
            && self.ledger.outstanding() == 0
            && !self.slots.iter().any(|s| matches!(s, Slot::Dead(Some(_))));
        if !quiesced {
            return;
        }
        // A slot whose Shutdown did not land (a disconnect) owes no
        // exit; its thread still exits when the channel disconnects at
        // teardown.
        let mut reached = 0;
        for w in 0..self.slots.len() {
            if matches!(self.slots[w], Slot::Live) && self.send_worker(w, None, Message::Shutdown) {
                reached += 1;
            }
        }
        self.draining = Some(reached);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use streambal_core::{Key, KeyStat};

    fn stats_with_cost(key: u64, cost: u64) -> IntervalStats {
        [(Key(key), KeyStat::new(1, cost, 1))].into_iter().collect()
    }

    fn expect_n(n: usize) -> Vec<TaskId> {
        (0..n).map(TaskId::from).collect()
    }

    /// The controller's clock at `now` in `interval`, with a deadline of
    /// 1 s and 2 intervals.
    fn clock(now: Instant, interval: u64, source_finished: bool) -> Clock {
        Clock {
            now,
            interval,
            source_finished,
            deadline: Duration::from_secs(1),
            deadline_intervals: 2,
        }
    }

    /// A round's wait, where its timing does not matter.
    fn opened() -> Wait {
        clock(Instant::now(), 0, false).wait()
    }

    fn close_all_but(ledger: &mut StatsLedger, interval: u64, workers: &[usize]) {
        for &w in workers {
            assert!(ledger
                .on_stats(
                    TaskId::from(w),
                    interval,
                    stats_with_cost(w as u64, 10),
                    &Histogram::new(),
                )
                .is_none());
        }
    }

    #[test]
    fn round_closes_when_all_expected_report() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, expect_n(3), vec![5, 0, 2], opened(), Duration::ZERO);
        close_all_but(&mut ledger, 0, &[0, 1]);
        let closed = ledger
            .on_stats(TaskId(2), 0, stats_with_cost(2, 30), &Histogram::new())
            .expect("third report closes");
        assert_eq!(closed.loads, vec![10, 10, 30]);
        assert_eq!(closed.queues, vec![5, 0, 2]);
        assert_eq!(ledger.outstanding(), 0);
    }

    /// The seed's first panic path: a report for a round the ledger
    /// already closed (a retiring worker answering late) must fold into
    /// an open round instead of crashing.
    #[test]
    fn late_report_folds_into_oldest_open_round() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, expect_n(2), vec![0, 0], opened(), Duration::ZERO);
        close_all_but(&mut ledger, 0, &[0]);
        assert!(ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .is_some());
        // Round 0 is gone. Rounds 1 and 2 are open; a late report for
        // round 0 lands in round 1 (the oldest), clamped to its slots.
        ledger.open(1, expect_n(2), vec![0, 0], opened(), Duration::ZERO);
        ledger.open(2, expect_n(2), vec![0, 0], opened(), Duration::ZERO);
        assert!(ledger
            .on_stats(TaskId(7), 0, stats_with_cost(9, 55), &Histogram::new())
            .is_none());
        close_all_but(&mut ledger, 1, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("round 1 closes");
        assert_eq!(closed.loads, vec![10, 65], "late load folded, clamped");
        assert_eq!(ledger.outstanding(), 1);
    }

    /// With no round open at all, a late report carries into the next
    /// round issued — the retired-victim residue path.
    #[test]
    fn late_report_with_no_open_round_carries_forward() {
        let mut ledger = StatsLedger::new();
        assert!(ledger
            .on_stats(TaskId(3), 9, stats_with_cost(4, 40), &Histogram::new())
            .is_none());
        ledger.open(10, expect_n(2), vec![0, 0], opened(), Duration::ZERO);
        close_all_but(&mut ledger, 10, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 10, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 50], "carry lands on the tail slot");
    }

    /// The seed's second hazard: a duplicate report must not close a
    /// round early (a distinct worker's report is still in flight) and
    /// must not lose the duplicated load.
    #[test]
    fn duplicate_report_merges_without_advancing_completion() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, expect_n(3), vec![0, 0, 0], opened(), Duration::ZERO);
        close_all_but(&mut ledger, 0, &[0, 1]);
        // Worker 1 reports again: still waiting on worker 2.
        assert!(ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 7), &Histogram::new())
            .is_none());
        let closed = ledger
            .on_stats(TaskId(2), 0, stats_with_cost(2, 10), &Histogram::new())
            .expect("real third report closes");
        assert_eq!(closed.loads, vec![10, 17, 10]);
    }

    #[test]
    fn residue_folds_into_oldest_round_or_carry() {
        let mut ledger = StatsLedger::new();
        // No round open: residue carries into the next open().
        ledger.on_residue(TaskId(2), stats_with_cost(5, 21));
        ledger.open(0, expect_n(2), vec![0, 0], opened(), Duration::ZERO);
        close_all_but(&mut ledger, 0, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 31]);
        // Round open: residue folds straight in, slot clamped.
        ledger.open(1, expect_n(2), vec![0, 0], opened(), Duration::ZERO);
        ledger.on_residue(TaskId(6), stats_with_cost(5, 9));
        close_all_but(&mut ledger, 1, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 19]);
    }

    #[test]
    fn latency_summary_merges_across_reporters() {
        let mut ledger = StatsLedger::new();
        let span = Duration::from_millis(500);
        ledger.open(0, expect_n(2), vec![0, 0], opened(), span);
        let mut h0 = Histogram::new();
        h0.record(100);
        let mut h1 = Histogram::new();
        h1.record(300);
        assert!(ledger
            .on_stats(TaskId(0), 0, stats_with_cost(0, 1), &h0)
            .is_none());
        let closed = ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 1), &h1)
            .expect("closes");
        assert_eq!(closed.mean_latency_us, 200.0);
        assert!(closed.p99_latency_us >= 250.0, "{}", closed.p99_latency_us);
        // One latency sample per tuple: two tuples in half a second.
        assert_eq!(closed.throughput, 4.0);
    }

    /// A reporter that dies mid-round must not wedge the round: striking
    /// it off closes every round that was only waiting on it, and its
    /// already-merged load stays in the closed totals.
    #[test]
    fn dead_reporter_closes_waiting_rounds() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, expect_n(3), vec![0, 0, 0], opened(), Duration::ZERO);
        ledger.open(1, expect_n(3), vec![0, 0, 0], opened(), Duration::ZERO);
        close_all_but(&mut ledger, 0, &[0, 1]);
        close_all_but(&mut ledger, 1, &[0]);
        // Worker 2 dies. Round 0 was only waiting on it → closes with
        // the two real reports; round 1 still waits on worker 1.
        let closed = ledger.on_worker_dead(TaskId(2));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, 0);
        assert_eq!(closed[0].1.loads, vec![10, 10, 0]);
        assert_eq!(ledger.outstanding(), 1);
        let done = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("round 1 closes without the dead worker");
        assert_eq!(done.loads, vec![10, 10, 0]);
        assert_eq!(ledger.outstanding(), 0);
    }

    /// The satellite regression: a permanently-silent reporter (alive
    /// but never answering) delays a round only until the deadline, then
    /// the round closes with whoever answered and names the missing
    /// worker — instead of holding `outstanding()` (and shutdown, which
    /// gates on it) hostage forever. Once the source has finished, its
    /// intervals stop and the wall bound rules alone, so a round opened
    /// in the last interval closes too.
    #[test]
    fn silent_reporter_round_closes_by_deadline() {
        let t0 = Instant::now();
        let secs = |s: u64| t0 + Duration::from_secs(s);
        let mut ledger = StatsLedger::new();
        ledger.open(
            0,
            expect_n(2),
            vec![0, 0],
            clock(t0, 0, false).wait(),
            Duration::ZERO,
        );
        close_all_but(&mut ledger, 0, &[0]);
        // Worker 1 never reports. Not enough intervals elapsed: no expiry.
        let mut expire = |c: Clock| ledger.expire_rounds(|w| c.expired(w));
        assert!(expire(clock(secs(5), 1, false)).is_empty());
        // Interval clock satisfied but wall deadline not yet: no expiry.
        assert!(expire(clock(t0, 5, false)).is_empty());
        let expired = expire(clock(secs(1), 2, false));
        assert_eq!(expired.len(), 1);
        let (iv, round, missing) = &expired[0];
        assert_eq!(*iv, 0);
        assert_eq!(round.loads, vec![10, 0]);
        assert_eq!(missing, &vec![1], "the silent worker is named");
        assert_eq!(ledger.outstanding(), 0, "shutdown is no longer gated");

        // The last interval's round, with the source finished: the
        // interval clock never moves again.
        let last = clock(secs(10), 9, false).wait();
        ledger.open(9, expect_n(2), vec![0, 0], last, Duration::ZERO);
        close_all_but(&mut ledger, 9, &[1]);
        let mut expire = |c: Clock| ledger.expire_rounds(|w| c.expired(w));
        assert!(expire(clock(secs(10), 9, true)).is_empty());
        let expired = expire(clock(secs(11), 9, true));
        let closed: Vec<(u64, Vec<usize>)> = expired.into_iter().map(|e| (e.0, e.2)).collect();
        assert_eq!(closed, vec![(9, vec![0])]);
        assert_eq!(ledger.outstanding(), 0);
    }

    /// The hand-computed worker-seconds trace for a queued scale-in: a
    /// scale-out at t=2 (3→4), two queued victims whose retirements
    /// complete at t=5 (4→3) and t=6 (3→2), shutdown at t=10. Each span
    /// bills the parallelism that was actually live:
    /// 3·2 + 4·3 + 3·1 + 2·4 = 29 — exactly, so double- or
    /// under-counting can never regress silently.
    #[test]
    fn worker_seconds_bills_queued_scale_ins_exactly() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut ws = WorkerSeconds::new(t0, 3);
        ws.set_active(at(2), 4); // scale-out decided and spawned
        ws.set_active(at(5), 3); // first queued victim retires
        ws.set_active(at(6), 2); // second victim (queued behind the first)
        assert_eq!(ws.finish(at(10)), 29.0);
    }

    /// Back-to-back changes at the same instant (a scale-out landing in
    /// the same event-loop turn as a retirement) bill zero-length spans,
    /// not negative or doubled ones.
    #[test]
    fn worker_seconds_zero_length_spans_are_free() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut ws = WorkerSeconds::new(t0, 2);
        ws.set_active(at(3), 3);
        ws.set_active(at(3), 2);
        ws.set_active(at(3), 3);
        assert_eq!(ws.finish(at(4)), 2.0 * 3.0 + 3.0);
    }
}

/// Tests that drive the [`Controller`] directly: hand-made events in,
/// bare channels out — no feeder, no worker threads, no data plane.
#[cfg(test)]
mod protocol_tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    use crossbeam::channel::unbounded;
    use streambal_baselines::storm;
    use streambal_core::{KeyStat, StatsAccumulator};
    use streambal_elastic::{
        FixedSchedule, FixedSplitSchedule, HotKeyPolicy, ScaleDecision, ScaleEvent, SplitEvent,
        SplitPolicy,
    };
    use streambal_trace::{EventKind, ThreadLabel, TraceSink};

    use crate::fault::FaultPlan;
    use crate::operator::WordCountOp;

    /// The far ends of a controller's channels.
    struct Rig {
        sink: Arc<TraceSink>,
        /// The three "running" workers' receivers, by slot (the spare
        /// slot's receiver is the controller's to hand a spawn).
        workers: Vec<Receiver<Message>>,
        source: Receiver<SourceCtl>,
        spawned: Rc<RefCell<Vec<Spawned>>>,
    }

    /// `(slot, first interval, receiver)` of a worker the controller
    /// spawned.
    type Spawned = (usize, u64, Receiver<Message>);

    /// A controller over three provisioned slots, all of them running,
    /// and a spare fourth a scale-out can provision.
    fn rig(policy: FixedSchedule) -> (Controller<'static>, Rig) {
        rig_with(policy, FaultPlan::none(), Box::new(storm(3)))
    }

    fn rig_with(
        policy: FixedSchedule,
        plan: FaultPlan,
        partitioner: Box<dyn Partitioner>,
    ) -> (Controller<'static>, Rig) {
        let config = EngineConfig {
            n_workers: 3,
            max_workers: 4,
            elasticity: Box::new(policy),
            fault_plan: plan,
            ..EngineConfig::default()
        };
        let sink = TraceSink::new(true);
        let (worker_txs, mut workers): (Vec<_>, Vec<_>) =
            (0..4).map(|_| bounded(config.channel_capacity)).unzip();
        let spare = workers.split_off(3);
        let (ctl_tx, source) = unbounded();
        let spawned = Rc::new(RefCell::new(Vec::new()));
        let spawned_by_ctl = Rc::clone(&spawned);
        let io = ControlIo {
            worker_txs,
            ctl_tx,
            rec: sink.recorder(ThreadLabel::Controller),
            make_op: Box::new(|_| Box::new(WordCountOp::new())),
            spawn: Box::new(move |slot, rx, _op, first| {
                spawned_by_ctl.borrow_mut().push((slot, first, rx));
            }),
        };
        let ctl = Controller::new(config, partitioner, io, spare, Instant::now());
        let rig = Rig {
            sink,
            workers,
            source,
            spawned,
        };
        (ctl, rig)
    }

    /// Hand-made events arrive at the instant the controller saw last:
    /// time stands still unless a test moves it.
    impl Controller<'_> {
        fn on_source(&mut self, ev: SourceEvent) {
            self.on_event(Event::Source(ev), self.clock.now);
        }

        fn on_worker(&mut self, ev: WorkerEvent) {
            self.on_event(Event::Worker(ev), self.clock.now);
        }

        fn tick_now(&mut self) {
            self.tick(self.clock.now);
        }

        /// Takes the fault ledger's entries so far.
        fn take_faults(&mut self) -> Vec<FaultEvent> {
            std::mem::take(&mut self.report.faults)
        }
    }

    /// The slots `0..n`, as the source marks them when none is dead or
    /// held.
    fn slots(n: usize) -> Vec<TaskId> {
        (0..n).map(TaskId::from).collect()
    }

    /// The source's cut of `interval`, marking every provisioned slot.
    fn cut(ctl: &Controller<'_>, interval: u64) -> SourceEvent {
        let marked = slots(ctl.active());
        SourceEvent::IntervalDone { interval, marked }
    }

    /// Closes `interval`'s statistics round with one empty report per
    /// provisioned live worker, then ticks (which decides the round).
    fn close_round(ctl: &mut Controller<'_>, interval: u64) {
        close_round_with(ctl, interval, &[]);
    }

    /// [`close_round`] with worker `w` reporting `reports[w]`.
    fn close_round_with(ctl: &mut Controller<'_>, interval: u64, reports: &[IntervalStats]) {
        ctl.on_source(cut(ctl, interval));
        let live: Vec<usize> = (0..ctl.active())
            .filter(|&w| !ctl.slots[w].is_dead())
            .collect();
        for w in live {
            ctl.on_worker(WorkerEvent::Stats {
                worker: TaskId::from(w),
                interval,
                stats: reports.get(w).cloned().unwrap_or_default(),
                latency: Box::new(Histogram::new()),
            });
        }
        ctl.tick_now();
    }

    fn retired(worker: usize, epoch: u64, states: Vec<(Key, Bytes)>) -> WorkerEvent {
        // The victim hands its receiver back; any receiver will do here.
        let (_tx, rx) = bounded(1);
        exited(
            worker,
            WorkerExit::Retired {
                epoch,
                states,
                stats: IntervalStats::new(),
                rx,
            },
        )
    }

    /// `worker`'s exit event, with empty lifetime totals.
    fn exited(worker: usize, exit: WorkerExit) -> WorkerEvent {
        WorkerEvent::Exited {
            worker: TaskId::from(worker),
            totals: WorkerTotals::default(),
            exit,
        }
    }

    /// A key whose hash home among `n` tasks is `task`.
    fn key_homed_on(task: usize, n: usize) -> Key {
        let mut p = storm(n);
        (0..10_000u64)
            .map(Key)
            .find(|&k| p.route(k) == TaskId::from(task))
            .expect("some key hashes to every task")
    }

    fn installs_at(rx: &Receiver<Message>) -> Vec<(u64, Vec<Key>)> {
        let mut out = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            if let Message::StateInstall { epoch, states } = msg {
                out.push((epoch, states.iter().map(|&(k, _)| k).collect()));
            }
        }
        out
    }

    /// The dead-victim scale-in bug: a scale-in whose victim died while
    /// the op was still queued used to shrink `active` without giving
    /// the slot a channel again — its receiver was dropped with the
    /// corpse — so every later scale-out into the slot was refused,
    /// forever.
    #[test]
    fn scale_out_reuses_a_slot_whose_queued_scale_in_victim_died() {
        let (mut ctl, rig) = rig(FixedSchedule::new([
            (0, ScaleDecision::ScaleOut),
            (1, ScaleDecision::ScaleIn),
            (2, ScaleDecision::ScaleOut),
        ]));
        // Round 0 grows onto slot 3 (in flight: its pause is unanswered);
        // round 1 queues slot 3's retirement behind it.
        close_round(&mut ctl, 0);
        close_round(&mut ctl, 1);
        assert_eq!(ctl.pending.as_ref().map(|op| op.epoch), Some(1));
        assert!(ctl.queue.front().is_some_and(ProtocolOp::is_scale_in));
        // The queued victim dies.
        let (_tx, corpse_rx) = bounded(1);
        ctl.on_worker(exited(
            3,
            WorkerExit::Killed {
                trigger: KillTrigger::Interval(1),
                lost: Vec::new(),
                stats: IntervalStats::new(),
                rx: corpse_rx,
            },
        ));
        ctl.tick_now();
        // The scale-out completes; the next tick starts the dead
        // victim's op, which extracts nothing and frees the slot at its
        // resume ack.
        ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
        ctl.on_source(SourceEvent::ResumeAck { epoch: 1 });
        ctl.tick_now();
        ctl.on_source(SourceEvent::PauseAck { epoch: 2 });
        ctl.on_source(SourceEvent::ResumeAck { epoch: 2 });
        assert_eq!(ctl.active(), 3);
        assert_eq!(ctl.dead().count(), 0);
        // Round 2 scales out into slot 3 again.
        close_round(&mut ctl, 2);
        assert_eq!(ctl.report.protocol_errors, vec![]);
        let spawned: Vec<(usize, u64)> = rig.spawned.borrow().iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(
            spawned,
            vec![(3, 1), (3, 3)],
            "a worker on slot 3 from interval 3"
        );
        assert_eq!(ctl.active(), 4);
        let event = |interval, from, to| ScaleEvent { interval, from, to };
        assert_eq!(
            ctl.report.scale_events,
            vec![event(0, 3, 4), event(1, 4, 3), event(2, 3, 4)]
        );
        // The source was told to swap slot 3's sender in and stop
        // diverting it — after the shrunk view, under which nothing
        // routes there.
        let to_source: Vec<SourceCtl> = std::iter::from_fn(|| rig.source.try_recv().ok()).collect();
        let at = |pred: &dyn Fn(&SourceCtl) -> bool| to_source.iter().position(pred);
        let shrunk = at(&|m| matches!(m, SourceCtl::Resume { epoch: 2, .. })).expect("shrunk view");
        let revive = at(&|m| matches!(m, SourceCtl::ReviveDest { dest, .. } if dest == &TaskId(3)))
            .expect("fresh channel for slot 3");
        assert!(shrunk < revive);
    }

    /// Duplicates at every phase, for both state sources: a re-driven
    /// marker's second answer is absorbed as stale — one ledger entry
    /// each, no protocol error — and no span phase is recorded twice.
    /// The op ends at the source's first `ResumeAck`.
    #[test]
    fn duplicate_answers_are_absorbed_once_per_phase() {
        let key = key_homed_on(1, 2);
        let blob = Bytes::copy_from_slice(b"state");
        let view = storm(2).routing_view();
        type Reply = Box<dyn Fn(u64) -> WorkerEvent>;
        type Case = (OpLabel, PauseScope, Extract, &'static str, Reply);
        let cases: Vec<Case> = vec![
            (
                OpLabel::Rebalance,
                PauseScope::Keys(vec![key]),
                Extract::Moves([(TaskId(0), vec![(key, TaskId(1))])].into_iter().collect()),
                "state out",
                Box::new({
                    let blob = blob.clone();
                    move |epoch| WorkerEvent::StateOut {
                        worker: TaskId(0),
                        epoch,
                        states: vec![(key, TaskId(1), blob.clone())],
                    }
                }),
            ),
            (
                OpLabel::ScaleIn,
                PauseScope::Dest(TaskId(2)),
                Extract::Retire(TaskId(2)),
                "retired",
                Box::new(move |epoch| retired(2, epoch, vec![(key, blob.clone())])),
            ),
        ];
        for (label, pause, extract, what, answer) in cases {
            let (mut ctl, rig) = rig(FixedSchedule::new([]));
            let op = ProtocolOp::new(label, view.clone(), pause, extract, false, ctl.clock.wait());
            ctl.queue.push_back(op);
            ctl.tick_now();
            ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
            ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
            ctl.on_worker(answer(1));
            ctl.on_worker(answer(1));
            let ack = || WorkerEvent::InstallAck {
                worker: TaskId(1),
                epoch: 1,
            };
            ctl.on_worker(ack());
            assert!(
                awaits_resume_ack(&ctl, 1),
                "{what}: op resumed at the last ack"
            );
            ctl.on_worker(ack());
            ctl.on_source(SourceEvent::ResumeAck { epoch: 1 });
            assert!(ctl.pending.is_none(), "{what}: op ended at the resume ack");
            ctl.on_source(SourceEvent::ResumeAck { epoch: 1 });

            assert_eq!(ctl.report.protocol_errors, vec![], "{what}");
            let stale = |what| FaultEvent::StaleEpochAbsorbed { epoch: 1, what };
            assert_eq!(
                ctl.take_faults(),
                vec![
                    stale("pause ack"),
                    stale(what),
                    stale("install ack"),
                    stale("resume ack")
                ]
            );
            drop(ctl.finish(Instant::now()));
            let phases: Vec<Phase> = rig
                .sink
                .take_log()
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::SpanPhase { span: 1, phase } => Some(phase),
                    _ => None,
                })
                .collect();
            assert_eq!(
                phases,
                vec![
                    Phase::Plan,
                    Phase::Pause,
                    Phase::QuiesceWait,
                    Phase::StateOut,
                    Phase::Install,
                    Phase::Resume
                ],
                "{what}"
            );
        }
    }

    /// Whether the in-flight op is `epoch` and awaits its `ResumeAck`.
    fn awaits_resume_ack(ctl: &Controller<'_>, epoch: u64) -> bool {
        let op = ctl.pending.as_ref();
        op.is_some_and(|op| op.epoch == epoch && op.waiting == Waiting::ResumeAck)
    }

    /// The `MigrateOut` markers waiting in `rx`, by epoch.
    fn migrate_outs_at(rx: &Receiver<Message>) -> Vec<u64> {
        std::iter::from_fn(|| rx.try_recv().ok())
            .filter_map(|msg| match msg {
                Message::MigrateOut { epoch, .. } => Some(epoch),
                _ => None,
            })
            .collect()
    }

    /// The deadline ladder in virtual time — synthetic instants, no
    /// sleeps, no threads. A migration whose holder never answers is
    /// re-driven at the first expiry and aborted at the second, resuming
    /// under the rolled-back view until the source acks; the holder's
    /// late answer is re-homed, not dropped; and once the source has
    /// finished, a round still missing a reporter closes on the wall
    /// bound alone.
    #[test]
    fn deadline_ladder_redrives_aborts_and_closes_rounds_in_virtual_time() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        let t0 = ctl.clock.now;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let (key, from, to) = (key_homed_on(0, 3), TaskId(0), TaskId(1));
        ctl.partitioner.apply_moves(&[(key, to)]);
        let moves = [(from, vec![(key, to)])].into_iter().collect();
        ctl.enqueue(OpLabel::Rebalance, vec![key], moves, false);
        ctl.tick_now();
        ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
        assert_eq!(migrate_outs_at(&rig.workers[0]), vec![1]);

        // The default deadline is 5 s *and* 4 intervals: neither alone.
        ctl.tick(at(5_000));
        close_round(&mut ctl, 3);
        assert_eq!(ctl.take_faults(), vec![]);
        close_round(&mut ctl, 4);
        let retried = FaultEvent::OpRetried {
            op: OpKind::Migrate,
            epoch: 1,
        };
        assert_eq!(ctl.take_faults(), vec![retried]);
        // Exactly one re-sent marker.
        assert_eq!(migrate_outs_at(&rig.workers[0]), vec![1]);

        // The second expiry runs from the re-drive: abort, roll back.
        close_round(&mut ctl, 8);
        ctl.tick(at(9_999));
        assert!(ctl.pending.is_some());
        ctl.tick(at(10_000));
        assert!(awaits_resume_ack(&ctl, 1), "the aborted op resumes");
        let aborted = FaultEvent::OpAborted {
            op: OpKind::Migrate,
            epoch: 1,
        };
        assert_eq!(ctl.take_faults(), vec![aborted]);
        let resume = std::iter::from_fn(|| rig.source.try_recv().ok()).find_map(|m| match m {
            SourceCtl::Resume { epoch: 1, view } => Some(view),
            _ => None,
        });
        // The key resumes on its origin.
        let mut router = SourceRouter::from_view(resume.expect("the rollback resumes"));
        assert_eq!(router.route(key), from);
        ctl.on_source(SourceEvent::ResumeAck { epoch: 1 });
        assert!(ctl.pending.is_none(), "the op ends at the resume ack");

        // The holder wakes and answers on the closed epoch.
        let states = vec![(key, to, Bytes::copy_from_slice(b"state"))];
        ctl.on_worker(WorkerEvent::StateOut {
            worker: from,
            epoch: 1,
            states,
        });
        assert_eq!(installs_at(&rig.workers[0]), vec![(3, vec![key])]);
        let stale = FaultEvent::StaleEpochAbsorbed {
            epoch: 1,
            what: "state out",
        };
        assert_eq!(ctl.take_faults(), vec![stale]);

        // The last interval's round misses worker 2; the source finishes,
        // so the interval clock never reaches the deadline.
        ctl.on_event(Event::Source(cut(&ctl, 9)), at(20_000));
        for w in 0..2 {
            ctl.on_worker(WorkerEvent::Stats {
                worker: TaskId(w),
                interval: 9,
                stats: IntervalStats::new(),
                latency: Box::new(Histogram::new()),
            });
        }
        ctl.on_source(SourceEvent::Finished);
        ctl.tick(at(24_999));
        assert_eq!(ctl.ledger.outstanding(), 1);
        ctl.tick(at(25_000));
        assert_eq!(ctl.ledger.outstanding(), 0);
        let timed_out = FaultEvent::RoundTimedOut {
            interval: 9,
            missing: vec![2],
        };
        assert_eq!(ctl.take_faults(), vec![timed_out]);
        assert!(ctl.draining.is_some(), "shutdown is no longer gated");
        assert_eq!(ctl.report.protocol_errors, vec![]);
        drop(ctl.finish(at(25_000)));
        let spans: Vec<(OpLabel, Option<Outcome>)> = rig
            .sink
            .take_log()
            .span_summaries()
            .iter()
            .map(|s| (s.op, s.outcome))
            .collect();
        let rolled_back = vec![
            (OpLabel::Rebalance, Some(Outcome::Aborted)),
            (OpLabel::Rollback, Some(Outcome::Completed)),
        ];
        assert_eq!(spans, rolled_back);
    }

    /// An answer for an epoch the counter issued to an op that is over —
    /// however long ago — is a late echo, and so is a duplicate of the
    /// in-flight op's own answer: each is absorbed into the fault ledger.
    /// An answer for an epoch never issued is a protocol error.
    #[test]
    fn answers_are_stale_for_issued_epochs_and_stray_beyond_them() {
        let (mut ctl, _rig) = rig(FixedSchedule::new([]));
        for epoch in 1..=100 {
            ctl.enqueue(OpLabel::Split, vec![Key(7)], FxHashMap::default(), false);
            ctl.tick_now();
            ctl.on_source(SourceEvent::PauseAck { epoch });
            ctl.on_source(SourceEvent::ResumeAck { epoch });
        }
        // Op 101 waits for its holder after its pause ack.
        let (key, to) = (key_homed_on(0, 3), TaskId(1));
        let moves = [(TaskId(0), vec![(key, to)])].into_iter().collect();
        ctl.enqueue(OpLabel::Rebalance, vec![key], moves, false);
        ctl.tick_now();
        ctl.on_source(SourceEvent::PauseAck { epoch: 101 });
        for epoch in [1, 101, 102] {
            ctl.on_source(SourceEvent::PauseAck { epoch });
            ctl.on_worker(WorkerEvent::InstallAck { worker: to, epoch });
        }
        assert!(ctl.pending.as_ref().is_some_and(|op| op.epoch == 101));
        let stale = |epoch, what| FaultEvent::StaleEpochAbsorbed { epoch, what };
        let faults = [1, 101].map(|e| [stale(e, "pause ack"), stale(e, "install ack")]);
        assert_eq!(ctl.take_faults(), faults.concat());
        let (epoch, worker) = (102, 1);
        let stray = [
            ProtocolError::StrayPauseAck { epoch },
            ProtocolError::StrayInstallAck { worker, epoch },
        ];
        assert_eq!(ctl.report.protocol_errors, stray);
    }

    /// Control messages weigh nothing: a worker channel filled to
    /// capacity by one batch takes a `MigrateOut`, a `StateInstall` and
    /// `Shutdown` at once, behind the batch and in the order sent, and
    /// its queued weight still counts tuples only.
    #[test]
    fn control_messages_never_wait_on_a_full_worker_channel() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        let epoch = 1;
        let (cap, tx) = (ctl.config.channel_capacity, ctl.io.worker_txs[0].clone());
        let tuples = vec![crate::tuple::Tuple::keyed(Key(9)); cap];
        let emitted_us = 0;
        tx.send_weighted(Message::TupleBatch { emitted_us, tuples }, cap)
            .unwrap();
        // Workers 0 and 1 swap a key each: 0 is asked for `a` and
        // installs `b`.
        let (a, b) = (key_homed_on(0, 3), key_homed_on(1, 3));
        let blob = Bytes::copy_from_slice(b"state");
        let swap = [(0, a, 1), (1, b, 0)].map(|(w, k, to)| (TaskId(w), k, TaskId(to)));
        let moves = swap.iter().map(|&(w, k, to)| (w, vec![(k, to)])).collect();
        ctl.enqueue(OpLabel::Rebalance, vec![a, b], moves, false);
        ctl.tick_now();
        ctl.on_source(SourceEvent::PauseAck { epoch });
        for (worker, k, to) in swap {
            let states = vec![(k, to, blob.clone())];
            ctl.on_worker(WorkerEvent::StateOut {
                worker,
                epoch,
                states,
            });
        }
        for (worker, ..) in swap {
            ctl.on_worker(WorkerEvent::InstallAck { worker, epoch });
        }
        ctl.on_source(SourceEvent::ResumeAck { epoch });
        ctl.on_source(SourceEvent::Finished);
        ctl.tick_now();
        assert_eq!((ctl.draining, tx.queued_weight()), (Some(3), cap));
        let got: Vec<String> = std::iter::from_fn(|| rig.workers[0].try_recv().ok())
            .map(|msg| match msg {
                Message::TupleBatch { tuples, .. } => format!("{} tuples", tuples.len()),
                Message::StateInstall { epoch, states } => {
                    format!("install {epoch} {:?}", states[0].0)
                }
                other => format!("{other:?}"),
            })
            .collect();
        let moves = vec![(a, TaskId(1))];
        let migrate_out = format!("{:?}", Message::MigrateOut { epoch, moves });
        let install = format!("install 1 {b:?}");
        let sent = [
            format!("{cap} tuples"),
            migrate_out,
            install,
            "Shutdown".into(),
        ];
        assert_eq!(got, sent);
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// A `PauseAck` the plan drops is lost on arrival: the controller
    /// discards the first it reads and ledgers the drop; the deadline
    /// re-drives the pause, and the second ack walks the op on to its
    /// resume ack.
    #[test]
    fn planned_pause_ack_drop_is_lost_on_arrival_then_redriven() {
        let plan = FaultPlan::new(vec![crate::fault::FaultSpec::DropCtl {
            kind: CtlKind::PauseAck,
            nth: 1,
        }]);
        let (mut ctl, rig) = rig_with(FixedSchedule::new([]), plan, Box::new(storm(3)));
        let (key, from, to) = (key_homed_on(0, 3), TaskId(0), TaskId(1));
        ctl.partitioner.apply_moves(&[(key, to)]);
        let moves = [(from, vec![(key, to)])].into_iter().collect();
        ctl.enqueue(OpLabel::Rebalance, vec![key], moves, false);
        ctl.tick_now();
        ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
        let dropped = FaultEvent::InjectedDrop {
            kind: CtlKind::PauseAck,
            nth: 1,
        };
        assert_eq!(ctl.take_faults(), vec![dropped]);
        assert!(migrate_outs_at(&rig.workers[0]).is_empty(), "still pausing");

        ctl.tick(ctl.clock.now + Duration::from_secs(5));
        close_round(&mut ctl, 4);
        ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
        assert_eq!(migrate_outs_at(&rig.workers[0]), vec![1]);
        let states = vec![(key, to, Bytes::copy_from_slice(b"state"))];
        let (worker, epoch) = (from, 1);
        ctl.on_worker(WorkerEvent::StateOut {
            worker,
            epoch,
            states,
        });
        ctl.on_worker(WorkerEvent::InstallAck { worker: to, epoch });
        assert!(awaits_resume_ack(&ctl, epoch), "the re-driven op resumed");
        ctl.on_source(SourceEvent::ResumeAck { epoch });
        assert!(ctl.pending.is_none(), "the re-driven op completed");
        let op = OpKind::Migrate;
        assert_eq!(ctl.take_faults(), vec![FaultEvent::OpRetried { op, epoch }]);
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// One op at a time, through its resume ack: two queued ops route a
    /// key to different slots, and the first op's `ResumeAck` (or its
    /// `Resume`, or its first two `Resume`s) is lost. The lost resume is
    /// re-driven — at every expiry, never aborted, ledgered once — and
    /// the second op waits behind it, so the source never hears of an
    /// epoch lower than one it already heard of, and replaying the views
    /// it was sent ends on the controller's newest view.
    #[test]
    fn a_lost_resume_is_redriven_before_the_next_op_pauses() {
        let drop = |kind, nth| crate::fault::FaultSpec::DropCtl { kind, nth };
        let cases = [
            vec![drop(CtlKind::ResumeAck, 1)],
            vec![drop(CtlKind::Resume, 1)],
            vec![drop(CtlKind::Resume, 1), drop(CtlKind::Resume, 2)],
        ];
        for specs in cases {
            let label = format!("{specs:?}");
            let plan = FaultPlan::new(specs);
            let (mut ctl, rig) = rig_with(FixedSchedule::new([]), plan, Box::new(storm(3)));
            let key = key_homed_on(0, 3);
            let mut src = Source::of(&ctl);
            for to in [TaskId(1), TaskId(2)] {
                ctl.partitioner.apply_moves(&[(key, to)]);
                ctl.enqueue(OpLabel::Split, vec![key], FxHashMap::default(), false);
            }
            ctl.on_source(SourceEvent::Finished);
            // Time moves one wall deadline per turn.
            ctl.tick_now();
            for _ in 0..6 {
                src.answer(&mut ctl, &rig);
                ctl.tick(ctl.clock.now + ctl.clock.deadline);
            }
            assert!(ctl.pending.is_none() && ctl.queue.is_empty(), "{label}");
            assert_epochs_never_fall(&src.heard, &label);
            assert_eq!(src.send(key), TaskId(2), "{label}: {:?}", src.heard);
            assert_eq!(ctl.partitioner.route(key), TaskId(2));
            let retried = FaultEvent::OpRetried {
                op: OpKind::Resume,
                epoch: 1,
            };
            let faults = ctl.take_faults();
            assert_eq!(faults.iter().filter(|f| **f == retried).count(), 1);
            let aborted = |f: &FaultEvent| matches!(f, FaultEvent::OpAborted { .. });
            assert!(!faults.iter().any(aborted), "{label}: {faults:?}");
            assert_eq!(ctl.report.protocol_errors, vec![], "{label}");
        }
    }

    /// What a source answering in order heard: `("pause" | "resume",
    /// epoch)`, and `("dead" | "revive", slot)`.
    type Heard = Vec<(&'static str, u64)>;

    /// A source that answers every control message it was sent, in
    /// order, ticking after each: it records what it heard, replays each
    /// resume's view through its router, and plays deaths and revives
    /// into its dead set, which it diverts around by the one rule.
    struct Source {
        router: SourceRouter,
        dead: FxHashSet<usize>,
        heard: Heard,
    }

    impl Source {
        /// A source on the controller's current view, no slot dead.
        fn of(ctl: &Controller<'_>) -> Self {
            Source {
                router: SourceRouter::from_view(ctl.partitioner.routing_view()),
                dead: FxHashSet::default(),
                heard: Vec::new(),
            }
        }

        /// Answers every message waiting for it.
        fn answer(&mut self, ctl: &mut Controller<'_>, rig: &Rig) {
            while self.step(ctl, rig) {}
        }

        /// Answers the next message waiting for it, if any.
        fn step(&mut self, ctl: &mut Controller<'_>, rig: &Rig) -> bool {
            let Ok(msg) = rig.source.try_recv() else {
                return false;
            };
            match msg {
                SourceCtl::Pause { epoch, .. } => {
                    self.heard.push(("pause", epoch));
                    ctl.on_source(SourceEvent::PauseAck { epoch });
                }
                SourceCtl::Resume { epoch, view } => {
                    self.heard.push(("resume", epoch));
                    self.router.update(view);
                    ctl.on_source(SourceEvent::ResumeAck { epoch });
                }
                SourceCtl::DeadDest { dest } => {
                    self.heard.push(("dead", dest.index() as u64));
                    self.dead.insert(dest.index());
                    ctl.on_source(SourceEvent::DeadDestAck { dest });
                }
                SourceCtl::ReviveDest { dest, .. } => {
                    self.heard.push(("revive", dest.index() as u64));
                    self.dead.remove(&dest.index());
                }
                SourceCtl::Shutdown => {}
            }
            ctl.tick_now();
            true
        }

        /// Where the source sends `key`'s next tuple: its route, diverted.
        fn send(&mut self, key: Key) -> TaskId {
            let ring = HashRing::new(self.router.n_tasks());
            let to = self.router.route(key);
            divert(&ring, key, to, |x| self.dead.contains(&x))
        }
    }

    /// Where the controller routes `key`: its partitioner's route,
    /// diverted.
    fn routed(ctl: &mut Controller<'_>, key: Key) -> TaskId {
        let to = ctl.partitioner.route(key);
        ctl.diverter()(key, to)
    }

    /// No `Pause` or `Resume` the source heard carries an epoch below
    /// one it heard before.
    fn assert_epochs_never_fall(heard: &Heard, label: &str) {
        let epochs: Vec<u64> = (heard.iter())
            .filter(|(kind, _)| matches!(*kind, "pause" | "resume"))
            .map(|&(_, epoch)| epoch)
            .collect();
        for (i, &epoch) in epochs.iter().enumerate() {
            let newest = epochs[..i].iter().copied().max().unwrap_or(0);
            assert!(epoch >= newest, "{label}: epoch {epoch} after {heard:?}");
        }
    }

    /// A scale-out with nothing to pre-place walks its own op, so a
    /// re-driven resume cannot roll the source back from its view: the
    /// scale-out is decided while op 1's `ResumeAck` is lost, queues
    /// behind op 1's re-driven resume, and the source ends on the grown
    /// view the controller routes under.
    #[test]
    fn a_redriven_resume_never_rolls_back_a_scale_out() {
        let lost = crate::fault::FaultSpec::DropCtl {
            kind: CtlKind::ResumeAck,
            nth: 1,
        };
        let policy = FixedSchedule::new([(0, ScaleDecision::ScaleOut)]);
        let (mut ctl, rig) = rig_with(policy, FaultPlan::new(vec![lost]), Box::new(storm(3)));
        let mut src = Source::of(&ctl);
        let key = key_homed_on(0, 3);
        ctl.partitioner.apply_moves(&[(key, TaskId(1))]);
        ctl.enqueue(OpLabel::Split, vec![key], FxHashMap::default(), false);
        ctl.tick_now();
        src.answer(&mut ctl, &rig);
        assert!(awaits_resume_ack(&ctl, 1), "op 1's resume ack was lost");
        // Round 0's reports name no key: nothing to pre-place.
        close_round(&mut ctl, 0);
        let grown = ScaleEvent {
            interval: 0,
            from: 3,
            to: 4,
        };
        assert_eq!(ctl.report.scale_events, vec![grown]);
        ctl.on_source(SourceEvent::Finished);
        for _ in 0..3 {
            ctl.tick(ctl.clock.now + ctl.clock.deadline);
            src.answer(&mut ctl, &rig);
        }
        assert!(ctl.pending.is_none() && ctl.queue.is_empty());
        let (router, heard) = (&src.router, &src.heard);
        assert_eq!(router.n_tasks(), ctl.partitioner.n_tasks(), "{heard:?}");
        assert_eq!(router.n_tasks(), 4);
        assert_epochs_never_fall(heard, "scale-out");
        let walk = [("pause", 1), ("resume", 1), ("resume", 1)];
        assert_eq!(*heard, [&walk[..], &[("pause", 2), ("resume", 2)]].concat());
        assert_eq!(ctl.report.protocol_errors, vec![]);
        drop(ctl.finish(Instant::now()));
        let log = rig.sink.take_log();
        assert_eq!(log.check_integrity(), Vec::<String>::new());
        let spans = log.span_summaries();
        let op = spans.iter().find(|s| s.span == 2).expect("op 2's span");
        let phases: Vec<Phase> = op.phases.iter().map(|&(p, _)| p).collect();
        let walked = [Phase::Plan, Phase::Pause, Phase::QuiesceWait, Phase::Resume];
        assert_eq!((op.op, &phases[..]), (OpLabel::ScaleOut, &walked[..]));
        assert_eq!(op.outcome, Some(Outcome::Completed));
    }

    /// `worker`'s death at an interval-boundary kill point, holding
    /// nothing.
    fn killed(worker: usize) -> WorkerEvent {
        let (_tx, rx) = bounded(1);
        exited(
            worker,
            WorkerExit::Killed {
                trigger: KillTrigger::Interval(0),
                lost: Vec::new(),
                stats: IntervalStats::new(),
                rx,
            },
        )
    }

    /// A scale-in victim that dies mid-op owes the op nothing, and the op
    /// frees its slot when it ends, as a retired victim's: `active`
    /// shrinks, the slot leaves `dead`, and its fresh channel reaches the
    /// source after the shrunk view's resume. The victim dies before the
    /// pause ack, or before its `Retired` — and then a round that closes
    /// before the op ends waits for it, so its scale-out is neither a
    /// revive of a slot nothing routes to nor skipped: it grows onto the
    /// freed slot, as a later one does.
    #[test]
    fn a_victim_that_dies_mid_retire_frees_its_slot() {
        let cases = [
            ("before its pause ack", true, false),
            ("before its retired", false, false),
            ("then a scale-out", false, true),
        ];
        for (label, before_pause_ack, round_mid_op) in cases {
            let (mut ctl, rig) = rig(FixedSchedule::new([
                (0, ScaleDecision::ScaleIn),
                (1, ScaleDecision::ScaleOut),
                (2, ScaleDecision::ScaleOut),
            ]));
            close_round(&mut ctl, 0);
            assert!(ctl.pending.as_ref().is_some_and(ProtocolOp::is_scale_in));
            if before_pause_ack {
                ctl.on_worker(killed(2));
                ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
            } else {
                ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
                ctl.on_worker(killed(2));
            }
            ctl.tick_now();
            assert!(
                awaits_resume_ack(&ctl, 1),
                "{label}: resumed without the victim"
            );
            if round_mid_op {
                close_round(&mut ctl, 1);
                assert!(rig.spawned.borrow().is_empty(), "{label}: held");
                assert_eq!(ctl.closed_rounds.len(), 1, "{label}: held");
            }
            ctl.on_source(SourceEvent::ResumeAck { epoch: 1 });
            assert_eq!((ctl.active(), ctl.dead().count()), (2, 0), "{label}");
            let to_source: Vec<SourceCtl> =
                std::iter::from_fn(|| rig.source.try_recv().ok()).collect();
            let at = |pred: &dyn Fn(&SourceCtl) -> bool| to_source.iter().position(pred);
            let shrunk = at(&|m| match m {
                SourceCtl::Resume { epoch: 1, view } => {
                    SourceRouter::from_view(view.clone()).n_tasks() == 2
                }
                _ => false,
            });
            let revive =
                at(&|m| matches!(m, SourceCtl::ReviveDest { dest, .. } if dest == &TaskId(2)));
            let (shrunk, revive) = (shrunk.expect(label), revive.expect(label));
            assert!(shrunk < revive, "{label}: {to_source:?}");

            // The held round is decided first, on the freed slot; round
            // 2 then grows onto the rig's spare slot 3.
            close_round(&mut ctl, 2);
            let event = |interval, from, to| ScaleEvent { interval, from, to };
            let (events, spawned, width) = if round_mid_op {
                let events = vec![event(0, 3, 2), event(1, 2, 3), event(2, 3, 4)];
                (events, vec![(2, 3), (3, 3)], 4)
            } else {
                (vec![event(0, 3, 2), event(2, 2, 3)], vec![(2, 3)], 3)
            };
            assert_eq!(ctl.report.scale_events, events, "{label}");
            let got: Vec<(usize, u64)> = rig.spawned.borrow().iter().map(|s| (s.0, s.1)).collect();
            assert_eq!(got, spawned, "{label}: a worker on slot 2");
            assert_eq!(
                (ctl.active(), ctl.partitioner.n_tasks()),
                (width, width),
                "{label}"
            );
            let revived = |f: &FaultEvent| matches!(f, FaultEvent::SlotRevived { .. });
            assert!(!ctl.take_faults().iter().any(revived), "{label}");
            assert_eq!(ctl.report.protocol_errors, vec![], "{label}");
        }
    }

    /// When a death lands, relative to an op that moves key `k` from
    /// slot 0 onto the slot that dies.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kill {
        /// The op is still queued.
        Queued,
        /// The source paused; the holder has not answered.
        BeforeStateOut,
        /// The state went out to slot 1, which never acks it.
        BeforeInstallAck,
    }

    /// A death changes no view behind an op's back. On `storm(3)`, an
    /// op moves `k` (homed on slot 0) to slot 1, and slot 1 dies while
    /// the op is queued, before the holder answers, or before the
    /// install ack. The op's view still names slot 1; the source diverts
    /// it by the rule the controller re-pinned `k` with, so both send
    /// `k` to slot 0 — after the op, and after a later op ships the
    /// controller's whole view — and a blob re-homed past the corpse
    /// lands on the worker `k`'s tuples reach.
    #[test]
    fn a_death_never_puts_the_source_out_of_step() {
        for kill in [Kill::Queued, Kill::BeforeStateOut, Kill::BeforeInstallAck] {
            let (mut ctl, rig) = rig(FixedSchedule::new([]));
            let mut src = Source::of(&ctl);
            let k = key_homed_on(0, 3);
            ctl.partitioner.apply_moves(&[(k, TaskId(1))]);
            let moves = [(TaskId(0), vec![(k, TaskId(1))])].into_iter().collect();
            ctl.enqueue(OpLabel::Rebalance, vec![k], moves, false);
            if kill == Kill::Queued {
                ctl.on_worker(killed(1));
            }
            ctl.tick_now();
            src.answer(&mut ctl, &rig);
            if kill == Kill::BeforeStateOut {
                ctl.on_worker(killed(1));
            }
            let states = vec![(k, TaskId(1), Bytes::copy_from_slice(b"state"))];
            let (worker, epoch) = (TaskId(0), 1);
            ctl.on_worker(WorkerEvent::StateOut {
                worker,
                epoch,
                states,
            });
            let installed: Vec<usize> = (0..3)
                .filter(|&w| !installs_at(&rig.workers[w]).is_empty())
                .collect();
            if kill == Kill::BeforeInstallAck {
                assert_eq!(installed, vec![1], "{kill:?}: sent before the death");
                ctl.on_worker(killed(1));
            } else {
                let worker = TaskId::from(installed[0]);
                ctl.on_worker(WorkerEvent::InstallAck { worker, epoch });
            }
            src.answer(&mut ctl, &rig);
            assert!(ctl.pending.is_none(), "{kill:?}: the op ended");
            assert_eq!(
                src.send(k),
                routed(&mut ctl, k),
                "{kill:?}: {:?}",
                src.heard
            );
            assert_eq!(routed(&mut ctl, k), TaskId(0), "{kill:?}: re-pinned home");
            // A later op carries the controller's whole current view.
            ctl.enqueue(
                OpLabel::Split,
                vec![Key(u64::MAX)],
                FxHashMap::default(),
                false,
            );
            ctl.tick_now();
            src.answer(&mut ctl, &rig);
            let at = src.send(k);
            assert_eq!(at, routed(&mut ctl, k), "{kill:?}: {:?}", src.heard);
            if kill != Kill::BeforeInstallAck {
                assert_eq!(
                    installed,
                    vec![at.index()],
                    "{kill:?}: state with its tuples"
                );
            }
            let settled = (
                SourceRouter::from_view(ctl.partitioner.routing_view()),
                ctl.dead().collect(),
            );
            let routing = (src.router, src.dead);
            assert_eq!(
                crate::engine::out_of_step(routing, settled),
                None,
                "{kill:?}"
            );
            assert_eq!(ctl.report.protocol_errors, vec![], "{kill:?}");
        }
    }

    /// A revive walks an op, and its slot comes back to the source only
    /// at that op's resume ack, under the controller's whole view. Slot 1
    /// dies while an op captured before the death — moving `k` onto slot
    /// 1 — is queued; a scale-out then revives slot 1 behind it. The
    /// source never sends `k` to the revived slot while the controller
    /// routes it elsewhere. A second scale-out decided while the revive
    /// op is queued widens onto the spare slot instead of reviving slot 1
    /// twice.
    #[test]
    fn a_revive_walks_an_op_and_never_routes_a_stale_key_to_its_slot() {
        let (mut ctl, rig) = rig(FixedSchedule::new([
            (0, ScaleDecision::ScaleOut),
            (1, ScaleDecision::ScaleOut),
        ]));
        let mut src = Source::of(&ctl);
        let k = key_homed_on(0, 3);
        // Op 1 in flight; op 2, queued behind it, moves `k` to slot 1.
        ctl.enqueue(
            OpLabel::Split,
            vec![Key(u64::MAX)],
            FxHashMap::default(),
            false,
        );
        ctl.tick_now();
        ctl.partitioner.apply_moves(&[(k, TaskId(1))]);
        ctl.enqueue(OpLabel::Rebalance, vec![k], FxHashMap::default(), false);
        ctl.on_worker(killed(1));
        close_round(&mut ctl, 0);
        let revived = |ctl: &mut Controller<'_>| {
            let faults = ctl.take_faults();
            let revived = |f: &&FaultEvent| matches!(f, FaultEvent::SlotRevived { .. });
            faults.iter().filter(revived).count()
        };
        assert_eq!(revived(&mut ctl), 1);
        close_round(&mut ctl, 1);
        assert_eq!(revived(&mut ctl), 0, "slot 1 revived twice");
        let spawned: Vec<(usize, u64)> = rig.spawned.borrow().iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(spawned, vec![(1, 1), (3, 2)]);
        while src.step(&mut ctl, &rig) {
            let (at, there) = (src.send(k), routed(&mut ctl, k));
            assert!(at != TaskId(1) || there == at, "{:?}", src.heard);
        }
        assert!(ctl.pending.is_none() && ctl.queue.is_empty());
        assert_eq!(src.send(k), routed(&mut ctl, k), "{:?}", src.heard);
        assert!(src.dead.is_empty() && ctl.dead().count() == 0);
        let resume = |epoch| ("resume", epoch);
        let walked = [
            ("pause", 1),
            ("dead", 1),
            resume(1),
            ("pause", 2),
            resume(2),
            ("pause", 3),
            resume(3),
            ("revive", 1),
            ("pause", 4),
            resume(4),
        ];
        assert_eq!(src.heard, walked);
        assert_eq!((ctl.active(), ctl.partitioner.n_tasks()), (4, 4));
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// A rollback is not undone by a view queued behind it. Op 1 moves
    /// `k` from slot 0 to 1 and op 2, queued behind it, on to slot 2;
    /// op 1's holder never answers, so op 1 aborts and returns `k` to
    /// slot 0. Op 2's view, captured before the rollback, gets the same
    /// reverse move, so the source ends where the controller routes `k`.
    #[test]
    fn a_rollback_is_not_undone_by_a_view_queued_behind_it() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        let mut src = Source::of(&ctl);
        let t0 = ctl.clock.now;
        let k = key_homed_on(0, 3);
        for (from, to) in [(0, 1), (1, 2)] {
            ctl.partitioner.apply_moves(&[(k, TaskId(to))]);
            let moves = [(TaskId(from), vec![(k, TaskId(to))])]
                .into_iter()
                .collect();
            ctl.enqueue(OpLabel::Rebalance, vec![k], moves, false);
        }
        ctl.tick_now();
        src.answer(&mut ctl, &rig);
        ctl.tick(t0 + Duration::from_secs(5));
        close_round(&mut ctl, 4);
        close_round(&mut ctl, 8);
        ctl.tick(t0 + Duration::from_secs(10));
        assert!(awaits_resume_ack(&ctl, 1), "op 1 aborted");
        src.answer(&mut ctl, &rig);
        let (worker, epoch, states) = (TaskId(1), 3, Vec::new());
        ctl.on_worker(WorkerEvent::StateOut {
            worker,
            epoch,
            states,
        });
        src.answer(&mut ctl, &rig);
        assert!(
            ctl.pending.is_none() && ctl.queue.is_empty(),
            "{:?}",
            src.heard
        );
        assert_eq!(routed(&mut ctl, k), TaskId(0), "the rollback holds");
        assert_eq!(src.send(k), TaskId(0), "{:?}", src.heard);
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// A split key whose replica dies follows the one divert rule too:
    /// its tuples routed to the corpse go to the next live slot from its
    /// hash home — here its primary, so all of `k` lands on the live
    /// replica, where an unsplit consolidates it — and the controller
    /// diverts it alike. The merge stage sums partials from any worker.
    #[test]
    fn a_split_key_whose_replica_dies_stays_on_its_live_replicas() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        let mut src = Source::of(&ctl);
        let k = key_homed_on(0, 3);
        assert!(ctl.partitioner.split_key(k, &[TaskId(0), TaskId(1)]));
        ctl.enqueue(OpLabel::Split, vec![k], FxHashMap::default(), false);
        ctl.tick_now();
        src.answer(&mut ctl, &rig);
        let sent: Vec<TaskId> = (0..4).map(|_| src.send(k)).collect();
        assert_eq!(sent, [0, 1, 0, 1].map(TaskId));
        ctl.on_worker(killed(1));
        ctl.tick_now();
        src.answer(&mut ctl, &rig);
        let sent: Vec<TaskId> = (0..4).map(|_| src.send(k)).collect();
        let there: Vec<TaskId> = (0..4).map(|_| routed(&mut ctl, k)).collect();
        assert_eq!((sent, there), (vec![TaskId(0); 4], vec![TaskId(0); 4]));
        let settled = (
            SourceRouter::from_view(ctl.partitioner.routing_view()),
            ctl.dead().collect(),
        );
        assert_eq!(
            crate::engine::out_of_step((src.router, src.dead), settled),
            None
        );
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// A scale-in victim whose op aborted runs on as a zombie; when it
    /// retires after a later victim has, every free tail slot leaves
    /// `active`, so a scale-out grows onto the slot the routing function
    /// adds — not past it, onto a slot nothing routes to.
    #[test]
    fn a_zombie_victim_that_retires_last_frees_every_tail_slot() {
        let (mut ctl, rig) = rig(FixedSchedule::new([
            (0, ScaleDecision::ScaleOut),
            (1, ScaleDecision::ScaleIn),
            (2, ScaleDecision::ScaleIn),
            (11, ScaleDecision::ScaleOut),
        ]));
        let t0 = ctl.clock.now;
        let mut src = Source::of(&ctl);
        close_round(&mut ctl, 0);
        src.answer(&mut ctl, &rig);
        assert_eq!(ctl.active(), 4);
        // Victim 3's op pauses and awaits its `Retired`; victim 2's queues.
        close_round(&mut ctl, 1);
        close_round(&mut ctl, 2);
        src.answer(&mut ctl, &rig);
        ctl.tick(t0 + Duration::from_secs(5));
        close_round(&mut ctl, 6);
        close_round(&mut ctl, 10);
        ctl.tick(t0 + Duration::from_secs(10));
        let aborted = FaultEvent::OpAborted {
            op: OpKind::Retire,
            epoch: 2,
        };
        assert!(ctl.take_faults().contains(&aborted), "victim 3 is a zombie");
        src.answer(&mut ctl, &rig);
        ctl.on_worker(retired(2, 3, Vec::new()));
        src.answer(&mut ctl, &rig);
        assert!(ctl.pending.is_none() && ctl.queue.is_empty());
        ctl.on_worker(retired(3, 2, Vec::new()));
        assert_eq!((ctl.active(), ctl.partitioner.n_tasks()), (2, 2));
        close_round(&mut ctl, 11);
        let spawned: Vec<(usize, u64)> = rig.spawned.borrow().iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(
            spawned,
            vec![(3, 1), (2, 12)],
            "the grown slot is the routed one"
        );
        assert_eq!((ctl.active(), ctl.partitioner.n_tasks()), (3, 3));
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// A scale-in at round 0 whose victim, slot 2, has its `Retire`
    /// re-driven once: the pause is acked, the source finishes (the wall
    /// bound alone then ends a wait), and one deadline expires.
    fn retire_redriven(policy: FixedSchedule) -> (Controller<'static>, Rig) {
        let (mut ctl, rig) = rig(policy);
        close_round(&mut ctl, 0);
        ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
        ctl.on_source(SourceEvent::Finished);
        ctl.tick(ctl.clock.now + ctl.clock.deadline);
        let (op, epoch) = (OpKind::Retire, 1);
        assert_eq!(ctl.take_faults(), vec![FaultEvent::OpRetried { op, epoch }]);
        (ctl, rig)
    }

    /// The re-driven `Retire` lands behind the first in the victim's
    /// channel, and the victim hands its receiver back with the
    /// duplicate inside. The slot is vacated only once that receiver is
    /// emptied, so the worker a later scale-out spawns there never reads
    /// the old epoch's `Retire` — a worker retires on any epoch.
    #[test]
    fn a_redriven_retire_never_reaches_the_next_worker() {
        let (mut ctl, mut rig) = retire_redriven(FixedSchedule::new([
            (0, ScaleDecision::ScaleIn),
            (1, ScaleDecision::ScaleOut),
        ]));
        let rx = rig.workers.remove(2);
        assert!(matches!(rx.try_recv(), Ok(Message::Retire { epoch: 1 })));
        let (epoch, states, stats) = (1, Vec::new(), IntervalStats::new());
        let exit = WorkerExit::Retired {
            epoch,
            states,
            stats,
            rx,
        };
        ctl.on_worker(exited(2, exit));
        ctl.on_source(SourceEvent::ResumeAck { epoch });
        close_round(&mut ctl, 1);
        let spawned = rig.spawned.borrow();
        let [(2, 2, rx)] = &spawned[..] else {
            panic!("one worker on slot 2: {:?}", spawned.len());
        };
        let queued: Vec<Message> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let retire = |m: &Message| matches!(m, Message::Retire { .. });
        assert!(!queued.iter().any(retire), "{queued:?}");
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// A scale-in aborted while its victim still runs leaves a zombie on
    /// slot 2, the slot of the task a scale-out adds. A scale-out decided
    /// before the zombie retires is skipped — not grown onto slot 3,
    /// where no key routes — and one decided after it grows onto slot 2.
    #[test]
    fn a_scale_out_beside_a_zombie_grows_only_onto_the_new_task() {
        let (mut ctl, rig) = retire_redriven(FixedSchedule::new([
            (0, ScaleDecision::ScaleIn),
            (1, ScaleDecision::ScaleOut),
            (2, ScaleDecision::ScaleOut),
        ]));
        ctl.tick(ctl.clock.now + ctl.clock.deadline);
        let (op, epoch) = (OpKind::Retire, 1);
        assert_eq!(ctl.take_faults(), vec![FaultEvent::OpAborted { op, epoch }]);
        ctl.on_source(SourceEvent::ResumeAck { epoch });
        assert!(ctl.pending.is_none(), "victim 2 is a zombie");
        close_round(&mut ctl, 1);
        let event = |interval, from, to| ScaleEvent { interval, from, to };
        assert!(rig.spawned.borrow().is_empty(), "no slot for task 2 yet");
        assert_eq!(ctl.report.scale_events, vec![event(0, 3, 2)]);
        ctl.on_worker(retired(2, epoch, Vec::new()));
        close_round(&mut ctl, 2);
        let spawned: Vec<(usize, u64)> = rig.spawned.borrow().iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(spawned, vec![(2, 3)], "the grown slot is the new task");
        let events = vec![event(0, 3, 2), event(2, 2, 3)];
        assert_eq!(ctl.report.scale_events, events);
        assert_eq!((ctl.active(), ctl.partitioner.n_tasks()), (3, 3));
        assert_eq!(ctl.report.protocol_errors, vec![]);
    }

    /// The single re-home path: a destination that is dead at send time
    /// is diverted to the next live slot, and state arriving on a closed
    /// epoch is re-routed under the current view with empty blobs
    /// skipped — or, once the drain has begun and no worker will install
    /// again, kept with the drained state.
    #[test]
    fn rehome_diverts_past_dead_slots_and_skips_empty_blobs() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        ctl.slots[1] = Slot::Dead(None);
        let blob = Bytes::copy_from_slice(b"state");
        let key = key_homed_on(1, 3);

        let sent = ctl.rehome(7, vec![(key, TaskId(1), blob.clone())]);
        assert_eq!(sent.keys().copied().collect::<Vec<_>>(), vec![TaskId(2)]);

        let hollow = key_homed_on(0, 3);
        ctl.rehome_stale(vec![(key, blob.clone()), (hollow, Bytes::new())]);

        let installs = |slot: usize| installs_at(&rig.workers[slot]);
        assert_eq!(installs(0), vec![], "the empty blob went nowhere");
        assert_eq!(installs(1), vec![], "nothing lands on the corpse");
        // The stale re-home ran on a fresh epoch.
        assert_eq!(installs(2), vec![(7, vec![key]), (1, vec![key])]);

        ctl.draining = Some(3);
        ctl.rehome_stale(vec![(key, blob.clone()), (hollow, Bytes::new())]);
        assert_eq!((installs(0), installs(2)), (vec![], vec![]));
        assert_eq!(ctl.drained_states, vec![vec![(key, blob)]]);
    }

    /// The teardown gathers the drained state after the rest of the
    /// controller is gone, in one allocation of exactly its length:
    /// every worker's part and a post-drain re-home, sorted by key.
    #[test]
    fn finish_gathers_the_drained_parts_into_one_exact_list() {
        let (mut ctl, _rig) = rig(FixedSchedule::new([]));
        ctl.on_source(SourceEvent::Finished);
        ctl.tick_now();
        assert!(ctl.draining.is_some() && !ctl.done());
        let blob = |n: u8| Bytes::copy_from_slice(&[4, n]);
        let parts: [Vec<(Key, Bytes)>; 3] = [
            vec![(Key(3), blob(3)), (Key(9), blob(9)), (Key(12), blob(12))],
            vec![(Key(1), blob(1)), (Key(10), blob(10))],
            vec![
                (Key(2), blob(2)),
                (Key(4), blob(4)),
                (Key(8), blob(8)),
                (Key(11), blob(11)),
            ],
        ];
        let mut expect: Vec<(Key, Bytes)> = parts.iter().flatten().cloned().collect();
        expect.push((Key(7), blob(7)));
        expect.sort_unstable_by_key(|&(k, _)| k);
        for (w, final_states) in parts.into_iter().enumerate() {
            ctl.on_worker(exited(w, WorkerExit::Drained { final_states }));
        }
        ctl.rehome_stale(vec![(Key(7), blob(7)), (Key(5), Bytes::new())]);
        assert!(ctl.done());
        let (report, ..) = ctl.finish(Instant::now());
        assert_eq!(report.final_states, expect);
        assert_eq!(report.final_states.capacity(), expect.len());
    }

    /// A report naming one key.
    fn one_key(key: Key, stat: KeyStat) -> IntervalStats {
        [(key, stat)].into_iter().collect()
    }

    fn peek_answer(worker: usize, interval: u64) -> WorkerEvent {
        WorkerEvent::StatsPeek {
            worker: TaskId::from(worker),
            interval,
            stats: one_key(Key(worker as u64), KeyStat::new(1, 1, 1)),
        }
    }

    /// The source's skew alert for `interval`, marking all three slots.
    fn alert(interval: u64) -> SourceEvent {
        let marked = slots(3);
        SourceEvent::SkewAlert { interval, marked }
    }

    /// The slots the open provisional round still awaits, in order.
    fn awaited(ctl: &Controller<'_>) -> Option<Vec<usize>> {
        let early = ctl.early.as_ref()?;
        let mut slots: Vec<usize> = early.awaiting.iter().map(|w| w.index()).collect();
        slots.sort_unstable();
        Some(slots)
    }

    /// The early-round steps the controller recorded, in order.
    fn early_steps(rig: &Rig) -> Vec<(u64, EarlyStep)> {
        rig.sink
            .take_log()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::EarlyRound { interval, step, .. } => Some((interval, step)),
                _ => None,
            })
            .collect()
    }

    /// The early-split tests' topology: the rig's three workers with
    /// `split` as the split policy, thirty background keys homed on each
    /// worker, and a hot key homed on worker 2.
    fn split_rig(
        partitioner: Box<dyn Partitioner>,
        policy: FixedSchedule,
        split: Box<dyn SplitPolicy>,
    ) -> (Controller<'static>, Rig, [Vec<Key>; 3], Key) {
        let (mut ctl, rig) = rig_with(policy, FaultPlan::none(), partitioner);
        ctl.config.split = Some(split);
        let mut hash = storm(3);
        let mut keys = [0usize, 1, 2].map(|w| {
            let homed = (0..10_000)
                .map(Key)
                .filter(|&k| hash.route(k) == TaskId::from(w));
            homed.take(31).collect::<Vec<Key>>()
        });
        let hot = keys[2][30];
        keys.iter_mut().for_each(|k| k.truncate(30));
        (ctl, rig, keys, hot)
    }

    /// Worker reports over [`split_rig`]'s keys: worker `w`'s background
    /// keys at `costs[w]` each, plus the hot key at `hot.1` on worker 2.
    fn reports(keys: &[Vec<Key>; 3], costs: [u64; 3], hot: (Key, u64)) -> Vec<IntervalStats> {
        (0..3)
            .map(|w| {
                let stat = |c| KeyStat::new(c, c, 8);
                let own = keys[w].iter().map(|&k| (k, stat(costs[w])));
                let hot = (w == 2 && hot.1 > 0).then(|| (hot.0, stat(hot.1)));
                own.chain(hot).collect()
            })
            .collect()
    }

    /// Answers the provisional round of `interval` with `reports`, then
    /// ticks (which settles it).
    fn settle(ctl: &mut Controller<'_>, interval: u64, reports: Vec<IntervalStats>) {
        ctl.on_source(alert(interval));
        for (w, stats) in reports.into_iter().enumerate() {
            let worker = TaskId::from(w);
            ctl.on_worker(WorkerEvent::StatsPeek {
                worker,
                interval,
                stats,
            });
        }
        ctl.tick_now();
    }

    /// A skew alert opens a provisional round — awaiting a copy from
    /// every slot the source marked, settled when every copy is in —
    /// unless an op is in flight or queued: that op is already changing
    /// the routing the alert was measured under. The controller itself
    /// sends no marker either way.
    #[test]
    fn skew_alert_opens_a_round_only_while_the_control_plane_is_idle() {
        let (mut ctl, rig) = rig(FixedSchedule::new([(0, ScaleDecision::ScaleIn)]));
        // Idle: the round opens on the marked slots, and the last answer
        // settles it (a hash partitioner never plans: held).
        let marked = vec![TaskId(0), TaskId(2)];
        ctl.on_source(SourceEvent::SkewAlert {
            interval: 0,
            marked,
        });
        assert_eq!(awaited(&ctl), Some(vec![0, 2]));
        ctl.on_worker(peek_answer(1, 0));
        assert_eq!(awaited(&ctl), Some(vec![0, 2]), "slot 1 was not asked");
        for w in [0, 2] {
            assert!(ctl.early.is_some());
            ctl.on_worker(peek_answer(w, 0));
            ctl.tick_now();
        }
        assert!(ctl.early.is_none());
        // A second alert for the interval cannot arrive (the source
        // raises one), but the interval's close must find nothing open.
        close_round(&mut ctl, 0);
        // Round 0 decided a scale-in: its op is in flight, and alerts
        // are ignored for as long as it is (and while it is queued).
        assert!(ctl.pending.is_some());
        ctl.on_source(alert(1));
        assert_eq!(awaited(&ctl), None, "no round opens");
        ctl.on_worker(peek_answer(0, 1));
        ctl.tick_now();
        assert!(rig.workers.iter().all(|rx| rx.try_recv().is_err()));
        assert_eq!(ctl.report.protocol_errors, vec![]);
        assert_eq!(ctl.take_faults(), vec![]);
        drop(ctl.finish(Instant::now()));
        assert_eq!(
            early_steps(&rig),
            vec![(0, EarlyStep::Open), (0, EarlyStep::Held)]
        );
    }

    /// The interval's closing round cancels a provisional round still
    /// waiting; the answers that trickle in afterwards are copies nobody
    /// needs — dropped without a protocol error or a ledger entry — and
    /// so is an answer for an interval no round was opened for.
    #[test]
    fn closing_round_cancels_an_open_provisional_round() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        ctl.on_source(alert(4));
        ctl.on_worker(peek_answer(0, 4));
        ctl.tick_now();
        assert!(ctl.early.is_some(), "two answers outstanding");
        close_round(&mut ctl, 4);
        assert!(ctl.early.is_none());
        ctl.on_worker(peek_answer(1, 4));
        ctl.on_worker(peek_answer(2, 4));
        ctl.on_worker(peek_answer(2, 9));
        ctl.tick_now();
        // The next interval's round is not confused by the stragglers.
        ctl.on_source(alert(5));
        ctl.on_worker(peek_answer(1, 4));
        ctl.tick_now();
        assert_eq!(ctl.early.as_ref().map(|e| e.awaiting.len()), Some(3));
        assert_eq!(ctl.report.protocol_errors, vec![]);
        assert_eq!(ctl.report.rebalances, 0);
        assert_eq!(ctl.take_faults(), vec![]);
        drop(ctl.finish(Instant::now()));
        assert_eq!(
            early_steps(&rig),
            vec![
                (4, EarlyStep::Open),
                (4, EarlyStep::Cancelled),
                (5, EarlyStep::Open)
            ]
        );
    }

    /// A provisional request lost on the way (the source announced it,
    /// then the plan dropped it) leaves its worker awaited: the
    /// round simply never settles, the closing round cancels it, and the
    /// statistics rounds around it are untouched.
    #[test]
    fn dropped_provisional_request_is_harmless() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        ctl.on_source(alert(0));
        ctl.on_worker(peek_answer(0, 0));
        ctl.on_worker(peek_answer(2, 0));
        ctl.tick_now();
        assert_eq!(awaited(&ctl), Some(vec![1]));
        close_round(&mut ctl, 0);
        assert!(ctl.early.is_none());
        assert_eq!(ctl.ledger.outstanding(), 0, "the closing round closed");
        assert_eq!(ctl.report.protocol_errors, vec![]);
        assert_eq!(ctl.take_faults(), vec![]);
        drop(ctl.finish(Instant::now()));
        let steps = vec![(0, EarlyStep::Open), (0, EarlyStep::Cancelled)];
        assert_eq!(early_steps(&rig), steps);
    }

    /// A provisional round that finds the open interval skewed plans
    /// through the ordinary walk — a `rebalance` op, queued and started
    /// like any other — and the interval's closing report then lands in
    /// the partitioner's window as if the provisional one never had.
    #[test]
    fn provisional_round_plans_an_ordinary_rebalance_op() {
        use streambal_baselines::CoreBalancer;
        use streambal_core::{BalanceParams, RebalanceStrategy};
        let mixed = CoreBalancer::new(3, 2, RebalanceStrategy::Mixed, BalanceParams::default());
        let (mut ctl, rig) = rig_with(FixedSchedule::new([]), FaultPlan::none(), Box::new(mixed));
        // Worker 2 reports a pile of equal keys; the others little.
        let report = |w: usize, interval: u64| {
            let keys = if w == 2 { 0..300u64 } else { 0..30u64 };
            let stats = keys
                .map(|k| (Key(1_000 * w as u64 + k), KeyStat::new(1, 1, 8)))
                .collect();
            WorkerEvent::StatsPeek {
                worker: TaskId::from(w),
                interval,
                stats,
            }
        };
        ctl.on_source(alert(0));
        for w in 0..3 {
            ctl.on_worker(report(w, 0));
        }
        ctl.tick_now();
        assert_eq!(ctl.report.rebalances, 1);
        let op = ctl.pending.as_ref().expect("the plan's op started");
        assert!(op.label == OpLabel::Rebalance && op.epoch == 1);
        assert!(matches!(
            rig.source.try_recv(),
            Ok(SourceCtl::Pause { epoch: 1, .. })
        ));
        assert_eq!(ctl.report.protocol_errors, vec![]);
        drop(ctl.finish(Instant::now()));
        assert_eq!(
            early_steps(&rig),
            vec![(0, EarlyStep::Open), (0, EarlyStep::Planned)]
        );
    }

    /// A provisional round that finds a key heavier than `Lmax` splits it
    /// inside the interval — judged at whole-interval scale on a clone of
    /// the policy — and plans the remaining keys behind the split, FIFO;
    /// the interval's closing round finds the key already split.
    #[test]
    fn provisional_round_splits_a_heavy_hitter_then_plans_the_rest() {
        use streambal_baselines::CoreBalancer;
        use streambal_core::{BalanceParams, RebalanceStrategy};
        let mixed = CoreBalancer::new(3, 2, RebalanceStrategy::Mixed, BalanceParams::default());
        // High mark 0.9 · 500 / 1.08 ≈ 417 per interval: above the hot
        // key's 180 in a third of an interval, below its 540 in a whole.
        let policy = Box::new(HotKeyPolicy::new(500.0));
        let (mut ctl, rig, keys, hot) = split_rig(Box::new(mixed), FixedSchedule::new([]), policy);
        close_round_with(&mut ctl, 0, &reports(&keys, [10, 10, 10], (hot, 0)));
        assert_eq!((ctl.last_round_cost, ctl.report.rebalances), (900, 0));
        let before = format!("{:?}", ctl.config.split); // judged on a clone: unchanged below

        // The hot key holds 0.6 so far, and the rest leans on worker 0.
        settle(&mut ctl, 1, reports(&keys, [2, 1, 1], (hot, 180)));
        let split = SplitEvent {
            interval: 1,
            key: hot.raw(),
            from: 1,
            to: 3,
        };
        assert_eq!(ctl.report.split_events, vec![split]);
        let ops = ctl.pending.iter().chain(ctl.queue.iter());
        let labels: Vec<OpLabel> = ops.map(|op| op.label).collect();
        assert_eq!(labels, vec![OpLabel::Split, OpLabel::Rebalance]);
        assert_eq!(format!("{:?}", ctl.config.split), before);

        close_round_with(&mut ctl, 1, &reports(&keys, [6, 3, 3], (hot, 540)));
        assert_eq!(ctl.report.split_events, vec![split]);
        assert_eq!(ctl.report.protocol_errors, vec![]);
        drop(ctl.finish(Instant::now()));
        let log = rig.sink.take_log();
        let inputs = log.events.iter().find_map(|e| match &e.kind {
            EventKind::EarlyRound { split, .. } => split.clone(),
            _ => None,
        });
        let inputs = inputs.expect("the split step carries its inputs");
        assert_eq!(
            (inputs.key, inputs.share, inputs.rescale),
            (hot.raw(), 0.6, 3.0)
        );
        assert_eq!(
            (inputs.replicas, inputs.planned, &inputs.loads[..]),
            (3, true, &[60, 30, 210][..])
        );
    }

    /// A provisional round reaches the split stage only, and only to
    /// split: schedules that would scale in and unsplit in interval 1 do
    /// both at its closing round and neither at its provisional one.
    #[test]
    fn provisional_round_never_scales_or_unsplits() {
        // A background key of worker 0: with equal loads its second
        // replica is worker 1, clear of the scale-in's victim.
        let cold = key_homed_on(0, 3);
        let (mut ctl, rig, keys, hot) = split_rig(
            Box::new(storm(3)),
            FixedSchedule::new([(1, ScaleDecision::ScaleIn)]),
            Box::new(FixedSplitSchedule::cycle(cold.raw(), 2, 0, 1)),
        );
        // Round 0 splits `cold`; run its op to completion.
        let calm = reports(&keys, [10, 10, 10], (hot, 0));
        close_round_with(&mut ctl, 0, &calm);
        ctl.on_source(SourceEvent::PauseAck { epoch: 1 });
        ctl.on_source(SourceEvent::ResumeAck { epoch: 1 });

        // Interval 1 holds a heavy hitter, so the policy is asked — and
        // answers `Unsplit`, which a provisional round does not take.
        settle(&mut ctl, 1, reports(&keys, [1, 1, 1], (hot, 180)));
        assert_eq!(ctl.report.split_events.len(), 1);
        assert_eq!(ctl.report.scale_events, vec![]);
        assert!(ctl.pending.is_none() && ctl.queue.is_empty());

        close_round_with(&mut ctl, 1, &calm);
        assert_eq!(ctl.report.scale_events.len(), 1);
        assert_eq!(ctl.report.split_events.len(), 2);
        assert_eq!(ctl.report.protocol_errors, vec![]);
        drop(ctl.finish(Instant::now()));
        let steps: Vec<EarlyStep> = early_steps(&rig).into_iter().map(|s| s.1).collect();
        assert_eq!(steps, vec![EarlyStep::Open, EarlyStep::Held]);
    }

    /// [`split_rig`] over hash routing (which never plans) and a
    /// `HotKeyPolicy` splitting after `up_after` hot intervals.
    fn hot_key_rig(up_after: usize) -> (Controller<'static>, Rig, [Vec<Key>; 3], Key) {
        let mut policy = HotKeyPolicy::new(500.0);
        policy.up_after = up_after;
        let (hash, hold) = (Box::new(storm(3)), FixedSchedule::new([]));
        split_rig(hash, hold, Box::new(policy))
    }

    /// A provisional round that holds leaves the policy as it found it:
    /// a streak one interval short of splitting one key is neither
    /// advanced nor reset by another key leading a partial interval.
    #[test]
    fn provisional_round_that_holds_leaves_the_policy_untouched() {
        let (mut ctl, rig, keys, hot) = hot_key_rig(2);
        close_round_with(&mut ctl, 0, &reports(&keys, [6, 6, 6], (hot, 540)));
        let mid_streak = format!("{:?}", ctl.config.split);
        assert!(mid_streak.contains(&format!("hot: Some(({}, 1))", hot.raw())));
        let mut other = reports(&keys, [2, 2, 2], (hot, 0));
        other[1].absorb(one_key(Key(77_777), KeyStat::new(200, 200, 8)));
        settle(&mut ctl, 1, other);
        assert_eq!(format!("{:?}", ctl.config.split), mid_streak);
        assert_eq!(ctl.report.split_events, vec![]);
        drop(ctl.finish(Instant::now()));
        let steps = vec![(1, EarlyStep::Open), (1, EarlyStep::Held)];
        assert_eq!(early_steps(&rig), steps);
    }

    /// Nothing is split before the first closed round (nothing to scale
    /// the partial costs by), behind an op that queued while the round
    /// waited, or on a degraded topology.
    #[test]
    fn early_split_needs_a_closed_round_and_an_idle_healthy_control_plane() {
        let (mut ctl, rig, keys, hot) = hot_key_rig(1);
        let heavy = || reports(&keys, [1, 1, 1], (hot, 180));
        settle(&mut ctl, 0, heavy());
        assert_eq!(ctl.report.split_events, vec![]);

        let calm = reports(&keys, [10, 10, 10], (hot, 0));
        close_round_with(&mut ctl, 0, &calm);
        ctl.on_source(alert(1));
        ctl.queue.push_back(ProtocolOp::new(
            OpLabel::Rebalance,
            ctl.partitioner.routing_view(),
            PauseScope::Keys(vec![hot]),
            Extract::Moves(FxHashMap::default()),
            false,
            ctl.clock.wait(),
        ));
        settle(&mut ctl, 1, heavy());
        assert_eq!(ctl.report.split_events, vec![]);
        drop(ctl.finish(Instant::now()));
        let (open, held) = (EarlyStep::Open, EarlyStep::Held);
        let steps = vec![(0, open), (0, held), (1, open), (1, EarlyStep::Cancelled)];
        assert_eq!(early_steps(&rig), steps);

        let (mut ctl, _rig, ..) = hot_key_rig(1);
        close_round_with(&mut ctl, 0, &calm);
        ctl.slots[1] = Slot::Dead(None);
        settle(&mut ctl, 1, heavy());
        assert_eq!(ctl.report.split_events, vec![]);
        assert!(ctl.partitioner.splits().is_empty() && ctl.early.is_none());
    }

    /// Worker `w`'s accumulator: `hot` at `cost` (when non-zero) plus
    /// one key of its own.
    fn accumulated(w: usize, hot: Key, cost: u64) -> StatsAccumulator {
        let mut acc = StatsAccumulator::new(1);
        acc.add(Key(1_000 + w as u64), 1, 1);
        if cost > 0 {
            acc.add(hot, cost, 8);
        }
        acc
    }

    fn sealed_report(w: usize, hot: Key, cost: u64) -> IntervalStats {
        accumulated(w, hot, cost).seal()
    }

    fn stats_event(w: usize, interval: u64, stats: IntervalStats) -> WorkerEvent {
        WorkerEvent::Stats {
            worker: TaskId::from(w),
            interval,
            stats,
            latency: Box::new(Histogram::new()),
        }
    }

    /// A round holds its workers' shards as they came: a key two workers
    /// report (a split key's replicas) and a duplicate report are summed
    /// when the closed round is read, and the duplicate does not count
    /// toward completion.
    #[test]
    fn round_sums_a_key_across_workers_and_a_duplicate_report() {
        let (mut ctl, _rig) = rig(FixedSchedule::new([]));
        let hot = Key(7);
        ctl.on_source(cut(&ctl, 0));
        ctl.on_worker(stats_event(0, 0, sealed_report(0, hot, 10)));
        ctl.on_worker(stats_event(1, 0, sealed_report(1, hot, 20)));
        ctl.on_worker(stats_event(1, 0, sealed_report(1, hot, 20)));
        assert!(ctl.closed_rounds.is_empty(), "closed by a duplicate");
        ctl.on_worker(stats_event(2, 0, sealed_report(2, hot, 0)));
        let [(0, round)] = &ctl.closed_rounds[..] else {
            panic!("round 0 closes on its third distinct reporter");
        };
        let summed = streambal_core::KeyStat {
            freq: 50,
            cost: 50,
            mem: 24,
        };
        assert_eq!(round.merged.get(hot), Some(summed));
        assert_eq!(round.merged.get(Key(1_001)).map(|s| s.freq), Some(2));
        assert_eq!(round.merged.len(), 4);
        assert_eq!(round.merged.total_cost(), 54);
        assert_eq!(round.loads, vec![11, 42, 1]);
    }

    /// A round awaits exactly the slots the source marked, less the ones
    /// the controller knows are dead: a slot the source held back (a
    /// scale-in victim under its pause) is not waited for, nor is a
    /// corpse the source has not heard of yet.
    #[test]
    fn round_awaits_the_marked_slots_not_known_dead() {
        let (mut ctl, _rig) = rig(FixedSchedule::new([]));
        let marked = vec![TaskId(0), TaskId(2)];
        ctl.on_source(SourceEvent::IntervalDone {
            interval: 0,
            marked,
        });
        ctl.on_worker(stats_event(0, 0, IntervalStats::new()));
        assert!(ctl.closed_rounds.is_empty());
        ctl.on_worker(stats_event(2, 0, IntervalStats::new()));
        assert_eq!(ctl.closed_rounds.len(), 1, "slot 1 was not awaited");
        ctl.tick_now();
        ctl.slots[1] = Slot::Dead(None);
        ctl.on_source(cut(&ctl, 1));
        ctl.on_worker(stats_event(0, 1, IntervalStats::new()));
        ctl.on_worker(stats_event(2, 1, IntervalStats::new()));
        let closed: Vec<u64> = ctl.closed_rounds.iter().map(|r| r.0).collect();
        assert_eq!(closed, vec![1], "the corpse was not awaited");
    }

    /// A report for a round already closed, with no round open, waits in
    /// the carry and is folded into the next round issued.
    #[test]
    fn late_report_is_carried_into_the_next_round() {
        let (mut ctl, _rig) = rig(FixedSchedule::new([]));
        let hot = Key(7);
        close_round(&mut ctl, 0);
        ctl.on_worker(stats_event(1, 0, sealed_report(1, hot, 9)));
        assert_eq!(ctl.ledger.carry.get(hot).map(|s| s.cost), Some(9));
        ctl.on_source(cut(&ctl, 1));
        assert!(ctl.ledger.carry.is_empty());
        for w in 0..3 {
            let cost = if w == 0 { 5 } else { 0 };
            ctl.on_worker(stats_event(w, 1, sealed_report(w, hot, cost)));
        }
        let [(1, round)] = &ctl.closed_rounds[..] else {
            panic!("round 1 closes");
        };
        assert_eq!(round.merged.get(hot).map(|s| s.cost), Some(14));
        assert_eq!(round.merged.get(Key(1_001)).map(|s| s.freq), Some(2));
        assert_eq!(round.loads, vec![6, 1, 11], "carry lands on the tail slot");
    }

    /// A provisional round reads its peek copies as one report: a key
    /// two workers hold so far is their sum.
    #[test]
    fn early_round_sums_a_key_across_its_peek_copies() {
        let (mut ctl, _rig) = rig(FixedSchedule::new([]));
        let hot = Key(7);
        close_round(&mut ctl, 0);
        ctl.on_source(alert(1));
        let accs: Vec<StatsAccumulator> = [5, 0, 30]
            .into_iter()
            .enumerate()
            .map(|(w, cost)| accumulated(w, hot, cost))
            .collect();
        for (w, acc) in accs.iter().enumerate() {
            ctl.on_worker(WorkerEvent::StatsPeek {
                worker: TaskId::from(w),
                interval: 1,
                stats: acc.peek(),
            });
        }
        let early = ctl.early.as_ref().expect("settled only by a tick");
        assert_eq!(early.merged.get(hot), Some(KeyStat::new(35, 35, 16)));
        assert_eq!(early.loads, vec![6, 1, 31]);
        assert!(accs.iter().all(|acc| !acc.is_empty()), "a peek copies");
    }
}
