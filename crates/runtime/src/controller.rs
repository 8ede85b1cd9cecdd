//! The controller: the Fig. 5 protocol as one event-driven state
//! machine ([`Controller`]) walking one operation shape
//! ([`ProtocolOp`]), plus the accounting it leans on, each piece
//! unit-testable without spinning up threads — the statistics-round
//! ledger (which must survive late and duplicate worker reports — a
//! retiring worker can answer a round the controller already closed),
//! the closed-epoch set, and the worker-seconds integral (which must
//! bill queued scale-ins exactly once per parallelism change).

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, SendTimeoutError, Sender};
use streambal_core::{IntervalStats, Key, Partitioner, RoutingView, TaskId};
use streambal_elastic::{IntervalObservation, RoundAction, RoundDecisions, RoundInputs};
use streambal_hashring::{FxHashMap, FxHashSet};
use streambal_metrics::{Counter, Histogram};
use streambal_trace::{EarlySplit, EarlyStep, OpLabel, Outcome, Phase, ThreadRecorder};

use crate::engine::{EngineConfig, EngineReport, ProtocolError};
use crate::fault::{next_live, CtlKind, FaultEvent, FaultInjector, OpKind, SendPeer};
use crate::message::{Message, SourceCtl, SourceEvent, WorkerEvent};
use crate::operator::Operator;
use crate::router::SourceRouter;

/// One open statistics round: merged stats, per-slot loads, queue-depth
/// samples, the interval's latency distribution, and which workers have
/// reported. The expected *set* is pinned at issue time — scale-out must
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
    reporters: FxHashSet<TaskId>,
    expected: FxHashSet<TaskId>,
    /// When the round was issued (wall half of the expiry deadline).
    opened: Instant,
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
        }
    }
}

/// Everything a completed round hands the elasticity policy, the
/// partitioner, and the flight recorder's per-interval `Snapshot`
/// event: the merged stats, the per-slot load vector, the queue
/// depths sampled when the round was issued, and the interval latency
/// summary.
pub(crate) struct ClosedRound {
    pub merged: IntervalStats,
    pub loads: Vec<u64>,
    pub queues: Vec<u64>,
    pub mean_latency_us: f64,
    pub p99_latency_us: f64,
}

/// The controller's statistics-round ledger.
///
/// Robustness contract (the seed crashed on both): a report for a round
/// the ledger does not know — late (the round already closed without the
/// retiring reporter) or simply unknown — **degrades gracefully**: its
/// load folds into the oldest open round, or into the carry buffer
/// consumed by the next round, so totals never under-count; and a
/// *duplicate* report from a worker that already answered merges its
/// load without advancing the round's completion count, so a round can
/// neither close early nor leak.
pub(crate) struct StatsLedger {
    rounds: FxHashMap<u64, StatsRound>,
    /// Residual statistics with no open round to absorb them — folded
    /// into the next round issued.
    carry: IntervalStats,
    /// Keys in the round closed last: the next round's merge map is
    /// sized for as many, so merging never rehashes it from empty.
    last_round_keys: usize,
}

impl StatsLedger {
    pub fn new() -> Self {
        StatsLedger {
            rounds: FxHashMap::default(),
            carry: IntervalStats::new(),
            last_round_keys: 0,
        }
    }

    /// Rounds still waiting for reports.
    pub fn outstanding(&self) -> usize {
        self.rounds.len()
    }

    /// Opens the round for `interval`, expecting a report from each
    /// worker in `expected`, over `active` worker slots, with `queues`
    /// the per-slot queue depths sampled at interval close. Any carried
    /// residue is folded in (the slot attribution is gone with the
    /// retired slot; totals are what policies consume).
    pub fn open(&mut self, interval: u64, active: usize, expected: Vec<TaskId>, queues: Vec<u64>) {
        debug_assert!(!expected.is_empty() && active > 0);
        let mut round = StatsRound {
            merged: IntervalStats::with_capacity(self.last_round_keys),
            loads: vec![0; active],
            queues,
            latency: Histogram::new(),
            reporters: FxHashSet::default(),
            expected: expected.into_iter().collect(),
            opened: Instant::now(),
        };
        if !self.carry.is_empty() {
            round.loads[active - 1] += self.carry.iter().map(|(_, s)| s.cost).sum::<u64>();
            round.merged.merge(&self.carry);
            self.carry = IntervalStats::new();
        }
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

    /// Closes rounds past their deadline — `deadline_intervals` newer
    /// intervals have been issued (the deterministic clock) *and*
    /// `deadline` wall time has passed since the round opened — with
    /// whoever answered. Returns `(interval, round, missing reporters)`
    /// oldest first; the caller records the missing set in the fault
    /// ledger. A silent-but-subscribed worker thus delays statistics by
    /// a bounded amount instead of wedging shutdown.
    pub fn expire_rounds(
        &mut self,
        current_interval: u64,
        deadline_intervals: u64,
        deadline: std::time::Duration,
    ) -> Vec<(u64, ClosedRound, Vec<usize>)> {
        let now = Instant::now();
        let mut expired: Vec<u64> = self
            .rounds
            .iter()
            .filter(|(iv, round)| {
                current_interval.saturating_sub(**iv) >= deadline_intervals
                    && now.duration_since(round.opened) >= deadline
            })
            .map(|(iv, _)| *iv)
            .collect();
        expired.sort_unstable();
        expired
            .into_iter()
            .filter_map(|iv| {
                let round = self.take_round(iv)?;
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

    /// Removes a round for closing, noting its size for the next one.
    fn take_round(&mut self, interval: u64) -> Option<StatsRound> {
        let round = self.rounds.remove(&interval)?;
        self.last_round_keys = round.merged.len();
        Some(round)
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
            .filter_map(|iv| Some((iv, self.take_round(iv)?.close())))
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
            self.absorb(worker, &stats);
            return None;
        };
        let slot = worker.index().min(round.loads.len() - 1);
        round.loads[slot] += stats.iter().map(|(_, s)| s.cost).sum::<u64>();
        round.merged.merge(&stats);
        round.latency.merge(latency);
        // A duplicate reporter merges (discarding would under-count) but
        // must not advance completion, or the round would close while a
        // distinct worker's report is still in flight.
        if round.reporters.insert(worker) && round.is_complete() {
            return self.take_round(interval).map(StatsRound::close);
        }
        None
    }

    /// Folds a retired victim's unreported residue into the oldest open
    /// round (issued while the victim was alive, so its slot exists), or
    /// carries it for the next round — dropping it would read as a load
    /// dip and re-trigger the scale-in policy.
    pub fn on_residue(&mut self, worker: TaskId, stats: &IntervalStats) {
        if !stats.is_empty() {
            self.absorb(worker, stats);
        }
    }

    fn absorb(&mut self, worker: TaskId, stats: &IntervalStats) {
        if let Some((_, round)) = self.rounds.iter_mut().min_by_key(|(k, _)| **k) {
            let slot = worker.index().min(round.loads.len() - 1);
            round.loads[slot] += stats.iter().map(|(_, s)| s.cost).sum::<u64>();
            round.merged.merge(stats);
        } else {
            self.carry.merge(stats);
        }
    }
}

/// The provisional statistics round open inside the current interval:
/// copies of the workers' statistics so far, requested when the source
/// raised a skew alert. It feeds the split stage of the shared round
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

/// Epochs whose op finished, aborted, or was synthesized for a re-home
/// or rollback install: a late echo of one (a retried op's duplicate
/// ack, a zombie victim's `Retired`) is absorbed as stale instead of
/// counted as a protocol error.
///
/// Epochs are issued in increasing order and ops run one at a time, so
/// the closed set is a growing prefix plus a few stragglers around the
/// op in flight: a watermark covers the prefix and a bounded set the
/// rest, which keeps the ledger at constant size however long the run.
/// Every caller matches the in-flight op's own epoch first, so an epoch
/// below the watermark can only be an echo.
pub(crate) struct ClosedEpochs {
    /// Every epoch below this is closed.
    below: u64,
    /// Closed epochs at or above `below`; at most [`Self::RECENT`].
    recent: BTreeSet<u64>,
}

impl ClosedEpochs {
    /// How many closed epochs are remembered individually.
    const RECENT: usize = 64;

    pub fn new() -> Self {
        ClosedEpochs {
            below: 0,
            recent: BTreeSet::new(),
        }
    }

    /// Records `epoch` as closed.
    pub fn close(&mut self, epoch: u64) {
        if epoch >= self.below {
            self.recent.insert(epoch);
        }
        while self.recent.len() > Self::RECENT {
            if let Some(oldest) = self.recent.pop_first() {
                self.below = oldest + 1;
            }
        }
    }

    /// Whether a message stamped `epoch` is an echo of a closed op.
    pub fn contains(&self, epoch: u64) -> bool {
        epoch < self.below || self.recent.contains(&epoch)
    }
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
    pub fn finish(mut self, now: Instant) -> f64 {
        self.set_active(now, 0);
        self.total
    }
}

/// Deadline clock for the in-flight op or an outstanding resume: reset
/// on every phase progress, compared against the interval count *and*
/// wall time (see [`EngineConfig::op_deadline_intervals`]).
struct OpClock {
    started: Instant,
    started_interval: u64,
    /// Whether the stalled phase was already re-driven once.
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

    /// Intervals are the deterministic clock; the wall bound keeps
    /// healthy-but-slow runs from spurious expiry, and rules alone once
    /// the source has finished and intervals stop.
    fn expired(&self, config: &EngineConfig, interval: u64, source_finished: bool) -> bool {
        let wall_ok = self.started.elapsed() < config.op_deadline;
        let iv_ok = interval < self.started_interval + config.op_deadline_intervals;
        !wall_ok && (!iv_ok || source_finished)
    }

    fn rearm(&mut self, interval: u64) {
        *self = OpClock {
            retried: true,
            ..OpClock::start(interval)
        };
    }
}

/// What the source holds back while an op is in flight.
enum PauseScope {
    /// The affected key set `Δ(F, F′)`.
    Keys(Vec<Key>),
    /// Everything routed to one destination (the retiring worker).
    Dest(TaskId),
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
}

/// One control-plane operation, queued or in flight. Every op the
/// controller runs — rebalance, pre-placed scale-out, scale-in, split,
/// unsplit — is this one walk (plan → pause → quiesce → state_out →
/// install → resume) with a different pause scope and state source; ops
/// serialize through one queue, so state placement always advances one
/// routing-function delta at a time.
struct ProtocolOp {
    /// Assigned when the op starts (0 while queued).
    epoch: u64,
    /// The flight-recorder span label.
    label: OpLabel,
    /// The routing function to resume under, captured right after the
    /// partitioner mutation that planned the op.
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
}

impl ProtocolOp {
    fn new(
        label: OpLabel,
        view: RoutingView,
        pause: PauseScope,
        extract: Extract,
        bill_extracted: bool,
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

/// Longest the controller will wait for room in a worker's channel. A
/// live worker drains continuously, so a one-unit slot opens in well
/// under this; only a worker that died with a full queue (its `Killed`
/// event still in flight) keeps the channel full for the whole bound.
const CTL_SEND_TIMEOUT: Duration = Duration::from_millis(100);

/// The controller's handles on the rest of the topology. Every message
/// it sends goes through [`ControlIo::ctl_send`],
/// [`ControlIo::send_ctl_marker`] or [`ControlIo::send_src`].
pub(crate) struct ControlIo<'a> {
    pub worker_txs: Vec<Sender<Message>>,
    /// A slot's receiver while no worker runs on it (never provisioned,
    /// or handed back by `Retired`).
    pub worker_rxs: Vec<Option<Receiver<Message>>>,
    pub ctl_tx: Sender<SourceCtl>,
    /// Tuples processed so far, across all workers.
    pub counter: Arc<Counter>,
    /// Shared with the source and every worker: drop ordinals are global.
    pub injector: Arc<FaultInjector>,
    /// Protocol spans (id = op epoch) and per-interval snapshots.
    pub rec: ThreadRecorder,
    /// Builds the keyed operator for a worker slot.
    pub make_op: Box<dyn FnMut(TaskId) -> Box<dyn Operator> + 'a>,
    /// Starts a worker thread on a slot.
    pub spawn: Box<SpawnWorker<'a>>,
}

/// `(slot, receiver, operator, first interval)`.
type SpawnWorker<'a> = dyn FnMut(usize, Receiver<Message>, Box<dyn Operator>, u64) + 'a;

impl ControlIo<'_> {
    /// Bounded-wait control send to worker slot `w`. The controller must
    /// never block indefinitely against a worker channel: the worker may
    /// have died with a full queue before its `Killed` event was
    /// processed, and a wedged controller can drain neither that event
    /// nor the dead channel. A timeout is treated like a message lost in
    /// flight — the deadline machinery re-drives it; a disconnect is
    /// recorded.
    fn ctl_send(&self, w: usize, msg: Message) -> bool {
        match self.worker_txs[w].send_timeout(msg, CTL_SEND_TIMEOUT) {
            Ok(()) => true,
            Err(SendTimeoutError::Timeout(_)) => false,
            Err(SendTimeoutError::Disconnected(_)) => {
                self.injector.record(FaultEvent::SendFailed {
                    to: SendPeer::Worker(w),
                });
                false
            }
        }
    }

    /// Sends a control marker to worker `w` through the drop gate.
    /// Returns false when the message did not reach the channel —
    /// injected drop (proceed as if lost in flight; the deadline
    /// machinery recovers), a full channel that never opened (same
    /// recovery), or a disconnected receiver, which is recorded as a
    /// failed send.
    fn send_ctl_marker(&self, w: usize, kind: CtlKind, msg: Message) -> bool {
        !self.injector.should_drop(kind) && self.ctl_send(w, msg)
    }

    /// Sends a source control message, drop-gating it when `kind` names
    /// a droppable control kind (view updates and shutdown are never
    /// dropped: losing them models nothing a real network loses
    /// independently of the protocol messages around them).
    fn send_src(&self, kind: Option<CtlKind>, msg: SourceCtl) -> bool {
        if kind.is_some_and(|k| self.injector.should_drop(k)) {
            return false;
        }
        if self.ctl_tx.send(msg).is_err() {
            self.injector.record(FaultEvent::SendFailed {
                to: SendPeer::Source,
            });
            return false;
        }
        true
    }

    /// (Re-)sends the op's quiesce request to the source.
    fn send_pause(&self, op: &ProtocolOp) {
        let epoch = op.epoch;
        let msg = match &op.pause {
            PauseScope::Keys(affected) => SourceCtl::Pause {
                epoch,
                affected: affected.clone(),
            },
            PauseScope::Dest(dest) => SourceCtl::PauseDest { epoch, dest: *dest },
        };
        self.send_src(Some(CtlKind::Pause), msg);
    }
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
            | Message::StatsPeek { .. }
            | Message::MigrateOut { .. }
            | Message::Retire { .. }
            | Message::Shutdown => {}
        }
    }
    n_lost
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
/// and tests drive it with hand-made events and bare channels.
pub(crate) struct Controller<'a> {
    config: EngineConfig,
    max_workers: usize,
    partitioner: Box<dyn Partitioner>,
    io: ControlIo<'a>,
    /// Provisioned slots are `0..active`. Never shrinks on a death: the
    /// routing function still counts the slot, the source diverts its
    /// traffic to survivors, and a later scale-out decision
    /// re-provisions it (`SlotRevived`).
    active: usize,
    pending: Option<ProtocolOp>,
    queue: VecDeque<ProtocolOp>,
    next_epoch: u64,
    /// Deadline clock for `pending`; re-armed on every phase progress.
    op_clock: Option<OpClock>,
    ledger: StatsLedger,
    /// Completed stats rounds awaiting the decision pass — filled by
    /// reports, dead-worker strikes, and deadline expiry alike, so every
    /// round is decided by exactly one code path.
    closed_rounds: Vec<(u64, ClosedRound)>,
    /// The provisional round of the open interval, if one is waiting.
    early: Option<EarlyRound>,
    /// Total cost of the round decided last (0 before the first): what
    /// a provisional round's partial costs are scaled up to.
    last_round_cost: u64,
    /// Outstanding source resumes by epoch: the view to re-drive each
    /// with and its deadline clock. Resumes are retried forever and
    /// never aborted — an abandoned resume would leave pause-buffered
    /// tuples unflushed, which is unaccounted loss; and the source
    /// cannot have died (it runs the resume handler) short of the whole
    /// engine tearing down. A duplicate ack is absorbed by the missing
    /// key.
    resume_state: FxHashMap<u64, (RoutingView, OpClock)>,
    /// Set between sending a `Retire` marker and its `Retired` answer.
    retiring: Option<TaskId>,
    /// Late echoes of closed epochs are absorbed as stale instead of
    /// counted as protocol errors.
    closed_epochs: ClosedEpochs,
    /// Epochs whose span is open: a span closes `Completed` at its
    /// ResumeAck, `Aborted` at a deadline abort, `Abandoned` at teardown
    /// — exactly once, whichever comes first.
    open_spans: FxHashSet<u64>,
    /// The deterministic half of every deadline: the latest source
    /// interval observed.
    current_interval: u64,
    last_interval_mark: (Instant, u64),
    source_finished: bool,
    draining: bool,
    drained: usize,
    /// Shutdown markers actually delivered (dead slots and failed sends
    /// are excluded — they will never answer `Drained`).
    drain_target: usize,
    ws: WorkerSeconds,
    /// Dead worker slots (indices < `active`).
    dead: FxHashSet<usize>,
    /// A dead worker's receiver, held until the source acknowledges the
    /// re-route; then drained (every in-flight tuple counted lost) and
    /// dropped, so later sends fail fast.
    dead_pending: FxHashMap<usize, Receiver<Message>>,
    /// Per-key tuples irrecoverably lost to deaths.
    lost: FxHashMap<Key, u64>,
    /// Lazily-built operator used only to size state blobs drained from
    /// a dead worker's channel (loss accounting).
    scratch_op: Option<Box<dyn Operator>>,
    report: EngineReport,
}

impl<'a> Controller<'a> {
    /// A controller over `config.n_workers` already-running workers.
    pub fn new(
        config: EngineConfig,
        partitioner: Box<dyn Partitioner>,
        io: ControlIo<'a>,
        t0: Instant,
    ) -> Self {
        let max_workers = io.worker_txs.len();
        Controller {
            max_workers,
            active: config.n_workers,
            pending: None,
            queue: VecDeque::new(),
            next_epoch: 0,
            op_clock: None,
            ledger: StatsLedger::new(),
            closed_rounds: Vec::new(),
            early: None,
            last_round_cost: 0,
            resume_state: FxHashMap::default(),
            retiring: None,
            closed_epochs: ClosedEpochs::new(),
            open_spans: FxHashSet::default(),
            current_interval: 0,
            last_interval_mark: (Instant::now(), 0),
            source_finished: false,
            draining: false,
            drained: 0,
            drain_target: 0,
            ws: WorkerSeconds::new(t0, config.n_workers),
            dead: FxHashSet::default(),
            dead_pending: FxHashMap::default(),
            lost: FxHashMap::default(),
            scratch_op: None,
            report: EngineReport::empty(partitioner.name(), max_workers),
            config,
            partitioner,
            io,
        }
    }

    /// Whether every worker that was sent `Shutdown` has drained.
    pub fn done(&self) -> bool {
        self.draining && self.drained >= self.drain_target
    }

    /// Closes the books once [`Controller::done`]: tells the source to
    /// exit and returns the report, the recorder, and the epochs whose
    /// span is still open (ascending) for the caller to close
    /// `Abandoned` after the other threads have joined. Dropping the
    /// controller drops its worker spawner — which holds a
    /// collector-sender clone — so the collector can observe closure.
    pub fn finish(mut self) -> (EngineReport, ThreadRecorder, Vec<u64>) {
        self.report.worker_seconds = self.ws.finish(Instant::now());
        // Disconnect here means the source already exited (it only does
        // so on Shutdown or panic; a panic is surfaced by the caller's
        // join) — nothing to tell it.
        let _ = self.io.ctl_tx.send(SourceCtl::Shutdown);
        let mut lost_tuples: Vec<(Key, u64)> = self.lost.into_iter().collect();
        lost_tuples.sort_unstable_by_key(|&(k, _)| k);
        self.report.lost_tuples = lost_tuples;
        self.report.final_states.sort_unstable_by_key(|&(k, _)| k);
        let mut leftover: Vec<u64> = self.open_spans.into_iter().collect();
        leftover.sort_unstable();
        (self.report, self.io.rec, leftover)
    }

    // ---- events ---------------------------------------------------------

    pub fn on_source_event(&mut self, ev: SourceEvent) {
        match ev {
            SourceEvent::IntervalDone { interval } => self.on_interval_done(interval),
            SourceEvent::PauseAck { epoch } => self.on_pause_ack(epoch),
            SourceEvent::ResumeAck { epoch } => {
                if self.resume_state.remove(&epoch).is_none() {
                    self.absorb_stale(epoch, "resume ack");
                } else if self.open_spans.remove(&epoch) {
                    // The op's span runs to the ack: its disruption
                    // window covers the whole pause → ... → resume round
                    // trip. (Aborted spans closed at the abort; their
                    // rollback resume's ack lands here with the span
                    // already gone.)
                    self.io.rec.span_close(epoch, Outcome::Completed);
                }
            }
            SourceEvent::DeadDestAck { dest } => {
                // The source has stopped routing to the dead slot; drain
                // its channel one last time and drop the receiver so any
                // later send fails fast instead of queueing into a void.
                self.drain_dead(dest.index());
                self.dead_pending.remove(&dest.index());
            }
            SourceEvent::SendFailed { dest } => {
                // The source hit a disconnected channel before (or
                // after) the controller's DeadDest reached it; the
                // tuples were re-shipped to a survivor, so this is an
                // observation, not a loss.
                self.io.injector.record(FaultEvent::SendFailed {
                    to: SendPeer::Worker(dest.index()),
                });
            }
            SourceEvent::SkewAlert { interval } => self.on_skew_alert(interval),
            SourceEvent::Finished => self.source_finished = true,
        }
    }

    pub fn on_worker_event(&mut self, ev: WorkerEvent) {
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
                        early.loads[worker.index()] = stats.total_cost();
                        early.merged.merge(&stats);
                    }
                }
            }
            WorkerEvent::StateOut {
                worker,
                epoch,
                states,
            } => self.on_state_out(worker, epoch, states),
            WorkerEvent::InstallAck { worker, epoch } => self.on_install_ack(worker, epoch),
            WorkerEvent::Retired {
                worker,
                epoch,
                states,
                stats,
                processed,
                latency,
                first_interval,
                rx,
            } => {
                self.absorb_totals(worker, processed, &latency, first_interval);
                self.on_retired(worker, epoch, states, &stats, rx);
            }
            WorkerEvent::Killed {
                worker,
                lost,
                stats,
                processed,
                latency,
                first_interval,
                rx,
            } => {
                self.absorb_totals(worker, processed, &latency, first_interval);
                self.on_killed(worker, lost, &stats, rx);
            }
            WorkerEvent::Drained {
                worker,
                final_states,
                processed,
                latency,
                first_interval,
            } => {
                self.absorb_totals(worker, processed, &latency, first_interval);
                self.report.final_states.extend(final_states);
                self.drained += 1;
            }
        }
    }

    /// The bottom half: runs after every event and on every idle
    /// wake-up, because deadlines, round expiry and the shutdown gate
    /// must advance even when nothing arrives.
    pub fn tick(&mut self) {
        // Keep dead channels drained while the source may still be
        // routing at them (its DeadDest is in flight): a bounded channel
        // left full would backpressure the source against a corpse.
        // Everything drained is accounted as lost, exactly as the final
        // DeadDestAck drain does.
        for w in self.dead_pending.keys().copied().collect::<Vec<_>>() {
            self.drain_dead(w);
        }
        // Stats rounds whose reporters went silent close by deadline, so
        // a wedged worker cannot hold decisions — or shutdown, which
        // waits on open rounds — hostage.
        for (interval, round, missing) in self.ledger.expire_rounds(
            self.current_interval,
            self.config.round_deadline_intervals,
            self.config.round_deadline,
        ) {
            self.io
                .injector
                .record(FaultEvent::RoundTimedOut { interval, missing });
            self.closed_rounds.push((interval, round));
        }
        for (interval, round) in std::mem::take(&mut self.closed_rounds) {
            self.decide_round(interval, round);
        }
        self.settle_early_round();
        self.check_op_deadline();
        self.redrive_resumes();
        self.start_next_op();
        self.shutdown_gate();
    }

    /// Counts whatever sits in dead slot `w`'s channel as lost.
    fn drain_dead(&mut self, w: usize) {
        let Some(rx) = self.dead_pending.get(&w) else {
            return;
        };
        let sop = self
            .scratch_op
            .get_or_insert_with(|| (self.io.make_op)(TaskId::from(w)));
        let n = drain_dead_channel(rx, sop.as_mut(), &mut self.lost);
        self.io.injector.add_lost(n);
    }

    fn on_interval_done(&mut self, interval: u64) {
        self.current_interval = interval;
        // The closing round overtakes a provisional one still waiting:
        // whole-interval statistics are about to arrive.
        self.cancel_early_round();
        let now = Instant::now();
        let count = self.io.counter.get();
        let (mark_at, mark_count) = self.last_interval_mark;
        let dt = now.duration_since(mark_at).as_secs_f64().max(1e-9);
        self.report
            .interval_throughput
            .push(interval as f64, (count - mark_count) as f64 / dt);
        self.last_interval_mark = (now, count);
        // Queue depths sampled at interval close (tuple-weighted channel
        // occupancy, the backpressure signal), *before* the stats
        // markers join the queues they measure.
        let queues: Vec<u64> = self.io.worker_txs[..self.active]
            .iter()
            .map(|tx| tx.queued_weight() as u64)
            .collect();
        // In-band stats round, skipping a retiring victim (its Retire
        // marker is already in the channel ahead of this request — it
        // will never answer) and dead slots. The expected set is pinned
        // here: a later scale-out must not change how many workers the
        // round waits for. A request dropped by the injector stays
        // *expected* — the controller cannot know it was lost in flight;
        // the round deadline closes it.
        let mut expected: Vec<TaskId> = Vec::new();
        for i in 0..self.active {
            if self.retiring == Some(TaskId::from(i)) || self.dead.contains(&i) {
                continue;
            }
            let dropped = self.io.injector.should_drop(CtlKind::StatsRequest);
            if dropped || self.io.ctl_send(i, Message::StatsRequest { interval }) {
                expected.push(TaskId::from(i));
            }
        }
        if !expected.is_empty() {
            self.ledger.open(interval, self.active, expected, queues);
        }
    }

    /// The source sees the open `interval` skewed: ask every worker for
    /// a copy of its statistics so far, unless the control plane is busy
    /// — an op in flight or queued is already changing the routing the
    /// alert was measured under, and a degraded or draining topology
    /// plans at interval boundaries only. A request lost on the way (or
    /// injector-dropped) is still awaited; the closing round cancels
    /// the round it leaves hanging.
    fn on_skew_alert(&mut self, interval: u64) {
        let busy = self.pending.is_some()
            || !self.queue.is_empty()
            || self.early.is_some()
            || !self.dead.is_empty()
            || self.draining;
        if busy {
            return;
        }
        for w in 0..self.active {
            let msg = Message::StatsPeek { interval };
            self.io.send_ctl_marker(w, CtlKind::StatsRequest, msg);
        }
        self.io.rec.early_round(interval, EarlyStep::Open);
        self.early = Some(EarlyRound {
            interval,
            merged: IntervalStats::with_capacity(self.ledger.last_round_keys),
            loads: vec![0; self.active],
            awaiting: (0..self.active).map(TaskId::from).collect(),
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
                n_dead: self.dead.len(),
            },
            stats: &early.merged,
            dead: self.dead.iter().copied().collect(),
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
        self.op_clock = Some(OpClock::start(self.current_interval));
        // The source is quiesced: every tuple it will ever send under
        // the old view is in the holders' channels, and the extraction
        // markers land behind all of them. A dropped marker stays
        // awaited; the op deadline re-drives it.
        self.io.rec.span_phase(epoch, Phase::QuiesceWait);
        match &op.extract {
            Extract::Moves(by_source) => {
                for (&w, moves) in by_source {
                    // A holder that died after planning has nothing left
                    // to extract (its loss is already accounted).
                    if self.dead.contains(&w.index()) {
                        continue;
                    }
                    op.awaiting_out.insert(w);
                    let moves = moves.clone();
                    self.io.send_ctl_marker(
                        w.index(),
                        CtlKind::MigrateOut,
                        Message::MigrateOut { epoch, moves },
                    );
                }
            }
            Extract::Retire(victim) => {
                op.awaiting_out.insert(*victim);
                self.io
                    .send_ctl_marker(victim.index(), CtlKind::Retire, Message::Retire { epoch });
                self.retiring = Some(*victim);
            }
        }
        // A degenerate plan (a split, or every holder dead) awaits
        // nothing and resumes immediately: its pause window alone makes
        // the view swap atomic.
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
        stats: &IntervalStats,
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
        // a load dip and re-trigger the scale-in policy) and take the
        // slot's channel back — it stays connected, so a later scale-out
        // can respawn here and no message can ever be silently dropped.
        self.ledger.on_residue(worker, stats);
        self.io.worker_rxs[worker.index()] = Some(rx);
        if self.retiring == Some(worker) {
            self.retiring = None;
        }
        if answer == Answer::Stray {
            return;
        }
        if worker.index() + 1 == self.active {
            self.active -= 1;
            self.bill_live_width();
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
        // under a pre-closed epoch are absorbed the same way.
        let stray = ProtocolError::StrayInstallAck {
            worker: worker.index(),
            epoch,
        };
        let awaited = |op: &mut ProtocolOp| op.awaiting_install.remove(&worker).is_some();
        if self.claim(epoch, "install ack", stray, awaited) == Answer::Awaited {
            self.op_clock = Some(OpClock::start(self.current_interval));
            self.advance_op();
        }
    }

    /// Classifies an acknowledgement stamped `epoch`; when that is the
    /// in-flight op's own, `strike` says whether the op was still
    /// waiting for it (and strikes it off). A late echo is absorbed into
    /// the fault ledger as `what`; one nothing explains is bookkeeping
    /// divergence — recorded as `stray`, not a reason to kill the
    /// pipeline.
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
                    return Answer::Awaited;
                }
            }
            _ if self.closed_epochs.contains(epoch) => {}
            _ => {
                self.report.protocol_errors.push(stray);
                return Answer::Stray;
            }
        }
        self.absorb_stale(epoch, what);
        Answer::Stale
    }

    fn absorb_stale(&self, epoch: u64, what: &'static str) {
        self.io
            .injector
            .record(FaultEvent::StaleEpochAbsorbed { epoch, what });
    }

    /// Folds a finished (retired, killed, or drained) worker's lifetime
    /// totals into the report.
    fn absorb_totals(
        &mut self,
        worker: TaskId,
        processed: u64,
        latency: &Histogram,
        first_interval: Option<u64>,
    ) {
        let w = worker.index();
        self.report.per_worker_processed[w] += processed;
        self.report.processed += processed;
        self.report.latency_us.merge(latency);
        // The earliest first-tuple interval across a slot's successive
        // occupants (a retired slot can be re-provisioned mid-run).
        let slot = &mut self.report.first_tuple_interval[w];
        *slot = match (*slot, first_interval) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// An awaited holder's extracted state is in hand.
    fn collect_state_out(&mut self, states: Vec<(Key, TaskId, Bytes)>) {
        let Some(op) = self.pending.as_mut() else {
            return;
        };
        self.op_clock = Some(OpClock::start(self.current_interval));
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
    /// (step 7).
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
                // StateInstall is never injector-dropped (it carries
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
                let view = op.view.clone();
                self.finish_op(epoch, view);
            }
        }
    }

    /// The one place blobs in hand become `StateInstall`s: groups them
    /// by destination — diverting any that died since the destination
    /// was chosen to the next live slot, so state lands where it can be
    /// drained at shutdown — sends one install per destination under
    /// `epoch`, and returns what went where.
    fn rehome(
        &mut self,
        epoch: u64,
        states: Vec<(Key, TaskId, Bytes)>,
    ) -> FxHashMap<TaskId, Vec<(Key, Bytes)>> {
        let mut by_dest: FxHashMap<TaskId, Vec<(Key, Bytes)>> = FxHashMap::default();
        for (k, to, blob) in states {
            by_dest
                .entry(self.live_slot(to))
                .or_default()
                .push((k, blob));
        }
        for (dest, states) in &by_dest {
            let states = states.clone();
            self.io
                .ctl_send(dest.index(), Message::StateInstall { epoch, states });
        }
        by_dest
    }

    /// State that arrived on a closed epoch has left its owner: re-home
    /// it under the *current* view on a fresh, pre-closed epoch (the
    /// installs are fire-and-forget; their acks absorb as stale).
    fn rehome_stale(&mut self, states: impl IntoIterator<Item = (Key, Bytes)>) {
        let placed = place_under(self.partitioner.routing_view(), states);
        if !placed.is_empty() {
            self.next_epoch += 1;
            self.closed_epochs.close(self.next_epoch);
            self.rehome(self.next_epoch, placed);
        }
    }

    /// `slot`, or the next live slot after it when it is dead.
    fn live_slot(&self, slot: TaskId) -> TaskId {
        if !self.dead.contains(&slot.index()) {
            return slot;
        }
        let n_tasks = self.partitioner.n_tasks();
        TaskId::from(next_live(slot.index(), n_tasks, |x| self.dead.contains(&x)))
    }

    /// The in-flight op is through: resume the source under `view` and
    /// free the op slot.
    fn finish_op(&mut self, epoch: u64, view: RoutingView) {
        self.issue_resume(epoch, view);
        self.closed_epochs.close(epoch);
        self.pending = None;
        self.op_clock = None;
    }

    /// Issues a source resume and arms its deadline clock. A resume
    /// dropped by the injector is indistinguishable from a slow one; the
    /// clock re-drives it. When the epoch still has an open span (normal
    /// completion — aborted spans are closed before their rollback
    /// resume), the span's `Resume` phase is recorded here, once:
    /// deadline re-drives bypass this function.
    fn issue_resume(&mut self, epoch: u64, view: RoutingView) {
        if self.open_spans.contains(&epoch) {
            self.io.rec.span_phase(epoch, Phase::Resume);
        }
        let msg = SourceCtl::Resume {
            epoch,
            view: view.clone(),
        };
        self.io.send_src(Some(CtlKind::Resume), msg);
        let clock = OpClock::start(self.current_interval);
        self.resume_state.insert(epoch, (view, clock));
    }

    fn on_killed(
        &mut self,
        worker: TaskId,
        worker_lost: Vec<(Key, u64)>,
        stats: &IntervalStats,
        rx: Receiver<Message>,
    ) {
        let w = worker.index();
        self.io
            .injector
            .record(FaultEvent::WorkerDead { worker: w });
        // What the worker *did* process counts (its totals are already
        // absorbed); what it held is lost and accounted per key.
        self.ledger.on_residue(worker, stats);
        self.closed_rounds
            .extend(self.ledger.on_worker_dead(worker));
        let mut n_lost = 0u64;
        for (k, n) in worker_lost {
            n_lost += n;
            *self.lost.entry(k).or_insert(0) += n;
        }
        self.io.injector.add_lost(n_lost);
        self.io.injector.record(FaultEvent::StateLost { worker: w });
        self.dead.insert(w);
        self.bill_live_width();
        // A provisional round would wait on the corpse forever.
        self.cancel_early_round();
        // Pin the dead slot's keys onto survivors (via each key's hash
        // home, cycled past dead slots) and tell the source; its ack
        // returns when the re-route is live, at which point the channel
        // backlog is drained and accounted (DeadDestAck).
        let dead = &self.dead;
        let moves = self
            .partitioner
            .reroute_dead(worker, &|x| dead.contains(&x));
        self.io.injector.record(FaultEvent::Rerouted {
            from_worker: w,
            moved_keys: moves.len(),
        });
        let msg = SourceCtl::DeadDest {
            dest: worker,
            moves,
        };
        self.io.send_src(None, msg);
        self.dead_pending.insert(w, rx);
        // Untangle the in-flight op from the corpse: a phase waiting on
        // the dead worker must not wait for the deadline to notice.
        if let Some(op) = self.pending.as_mut() {
            if matches!(op.extract, Extract::Retire(victim) if victim == worker) {
                // The victim died mid-retire: its state died with it
                // (accounted above); resume under the shrunk view.
                let (epoch, view) = (op.epoch, op.view.clone());
                self.retiring = None;
                self.finish_op(epoch, view);
            } else {
                // Whatever it still owed is gone; a blob already in its
                // channel is counted by the DeadDestAck drain.
                op.awaiting_out.remove(&worker);
                op.awaiting_install.remove(&worker);
                self.advance_op();
            }
        }
        // A death during the drain means one Shutdown marker will never
        // be answered.
        if self.draining {
            self.drain_target = self.drain_target.saturating_sub(1);
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
        self.io.rec.snapshot(
            interval,
            round.loads.clone(),
            round.queues.clone(),
            round.mean_latency_us,
            round.p99_latency_us,
        );
        // The planned parallelism — `partitioner.n_tasks()`, which every
        // decision mutates immediately — not the physical worker count,
        // which lags while retires drain. Scale-ins may queue (victims
        // walk down from the planned tail, ops execute in order); a
        // scale-out is skipped while any scale-in is still
        // re-provisioning, since the spawn slot must be the contiguous
        // physical tail.
        let scale_in_flight = self.pending.iter().any(|op| op.is_scale_in())
            || self.queue.iter().any(ProtocolOp::is_scale_in);
        let room = !scale_in_flight && self.active < self.max_workers;
        let inputs = RoundInputs {
            obs: IntervalObservation {
                interval,
                n_tasks: self.partitioner.n_tasks(),
                loads: &round.loads,
                queue_depths: &round.queues,
                mean_latency_us: round.mean_latency_us,
                p99_latency_us: round.p99_latency_us,
                n_dead: self.dead.len(),
            },
            stats: &round.merged,
            dead: self.dead.iter().copied().collect(),
            can_grow: room && self.io.worker_rxs[self.active].is_some(),
        };
        let mut decisions = RoundDecisions::new(inputs);
        while let Some(action) = decisions.next(
            &mut *self.partitioner,
            &mut *self.config.elasticity,
            self.config.split.as_deref_mut(),
        ) {
            match action {
                // Only the slot's receiver stood in the way (it was never
                // returned — a prior retire mismatch): record it and
                // keep running at the current width rather than tearing
                // down the topology.
                RoundAction::ScaleOutClamped if room => {
                    self.report
                        .protocol_errors
                        .push(ProtocolError::ScaleOutAborted {
                            to: self.active + 1,
                            slot: self.active,
                        });
                }
                action => self.apply_action(interval, action),
            }
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
                // key-less; the next rebalance loads it) — only the
                // source's divert set shrinks, once it swaps in the
                // fresh channel `ReviveDest` carries.
                let rx = self.fresh_channel(slot);
                self.spawn_on(slot, rx, interval + 1);
                self.dead.remove(&slot);
                self.bill_live_width();
                self.io
                    .injector
                    .record(FaultEvent::SlotRevived { worker: slot });
            }
            RoundAction::ScaleOut { event, new, moves } => {
                let slot = self.active;
                // `can_grow` vouched for the receiver.
                let Some(rx) = self.io.worker_rxs[slot].take() else {
                    return;
                };
                self.spawn_on(slot, rx, interval + 1);
                self.report.scale_events.push(event);
                self.active += 1;
                self.bill_live_width();
                if moves.is_empty() {
                    // Nothing to pre-place (a key-oblivious strategy
                    // whose new worker takes traffic without any state):
                    // publish the grown view directly.
                    let view = self.partitioner.routing_view();
                    self.io.send_src(None, SourceCtl::UpdateView { view });
                    return;
                }
                // Pre-placement: the new slot's keys move in through the
                // same quiesce → install → resume walk as a rebalance,
                // so it takes load this interval.
                self.report.migrated_keys += moves.len() as u64;
                let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> = FxHashMap::default();
                let mut affected = Vec::with_capacity(moves.len());
                for (k, holder) in moves {
                    affected.push(k);
                    by_source.entry(holder).or_default().push((k, new));
                }
                self.enqueue(OpLabel::ScaleOut, affected, by_source, true);
            }
            // Skipped, not deferred; the policy is not told.
            RoundAction::ScaleOutClamped => {}
            RoundAction::ScaleHeld => {
                // Let the ledger say why the policy's wish was refused.
                self.io.injector.record(FaultEvent::ScaleHeld { interval });
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
                    .filter(|r| **r != primary && !self.dead.contains(&r.index()))
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
        let mut dead_involved = false;
        let mut fixups: Vec<(Key, TaskId)> = Vec::new();
        let mut by_source: FxHashMap<TaskId, Vec<(Key, TaskId)>> = FxHashMap::default();
        let mut affected = Vec::with_capacity(out.plan.keys_moved());
        for mv in out.plan.moves() {
            affected.push(mv.key);
            let to = self.live_slot(mv.to);
            if self.dead.contains(&mv.to.index()) {
                // The planner aimed a key at a corpse (its stats predate
                // the death): divert it to the slot its traffic already
                // lands on.
                dead_involved = true;
                fixups.push((mv.key, to));
            }
            if self.dead.contains(&mv.from.index()) {
                // The holder died: its state is gone and already
                // accounted, so this is a routing-only move.
                dead_involved = true;
                continue;
            }
            by_source.entry(mv.from).or_default().push((mv.key, to));
        }
        if !fixups.is_empty() {
            self.partitioner.apply_moves(&fixups);
        }
        // When the partitioner applied the rebalance as a delta, ship
        // the source the same delta — O(churn), and the source's table
        // stays in lockstep because both sides mutate equal tables
        // identically. Swaps (and every scale op) ship full views: those
        // are the resync points. Dead involvement also forces a full
        // view — the fixups above made the controller's table diverge
        // from the plan's moves, so the raw delta would desync the
        // source.
        let view = if !dead_involved && self.partitioner.last_install_was_delta() {
            RoutingView::TableDelta {
                n_tasks: self.partitioner.n_tasks(),
                moves: out.plan.moves().iter().map(|m| (m.key, m.to)).collect(),
            }
        } else {
            self.partitioner.routing_view()
        };
        self.queue.push_back(ProtocolOp::new(
            OpLabel::Rebalance,
            view,
            PauseScope::Keys(affected),
            Extract::Moves(by_source),
            false,
        ));
        true
    }

    /// Replaces `slot`'s channel with a fresh one — the old receiver
    /// died with its worker — and tells the source to swap the sender in
    /// and stop diverting the slot. Returns the new receiver.
    fn fresh_channel(&mut self, slot: usize) -> Receiver<Message> {
        let (tx, rx) = bounded(self.config.channel_capacity);
        self.io.worker_txs[slot] = tx.clone();
        let dest = TaskId::from(slot);
        self.io.send_src(None, SourceCtl::ReviveDest { dest, tx });
        rx
    }

    /// Advances the worker-seconds integral to the live width — call
    /// after every change to `active` or `dead`.
    fn bill_live_width(&mut self) {
        self.ws
            .set_active(Instant::now(), self.active - self.dead.len());
    }

    fn spawn_on(&mut self, slot: usize, rx: Receiver<Message>, first_interval: u64) {
        let op = (self.io.make_op)(TaskId::from(slot));
        (self.io.spawn)(slot, rx, op, first_interval);
    }

    // ---- deadlines, queue, shutdown ---------------------------------------

    /// In-flight-op deadline: the first expiry re-drives the stuck
    /// phase, the second aborts with rollback.
    fn check_op_deadline(&mut self) {
        let (Some(op), Some(clock)) = (self.pending.as_ref(), self.op_clock.as_mut()) else {
            return;
        };
        if !clock.expired(&self.config, self.current_interval, self.source_finished) {
            return;
        }
        if clock.retried {
            self.abort_op();
        } else {
            clock.rearm(self.current_interval);
            self.redrive(op);
        }
    }

    /// Re-sends whatever the stalled phase is waiting on. Markers are
    /// idempotent: workers and source absorb duplicates by epoch.
    fn redrive(&self, op: &ProtocolOp) {
        let epoch = op.epoch;
        self.io.injector.record(FaultEvent::OpRetried {
            op: op.kind(),
            epoch,
        });
        match (op.waiting, &op.extract) {
            (Waiting::PauseAck, _) => self.io.send_pause(op),
            (Waiting::StateOut, Extract::Moves(by_source)) => {
                for w in &op.awaiting_out {
                    if self.dead.contains(&w.index()) {
                        continue;
                    }
                    let moves = by_source.get(w).cloned().unwrap_or_default();
                    self.io.send_ctl_marker(
                        w.index(),
                        CtlKind::MigrateOut,
                        Message::MigrateOut { epoch, moves },
                    );
                }
            }
            (Waiting::StateOut, Extract::Retire(victim)) => {
                // The victim answers the first marker it sees; a
                // duplicate lands on a drained channel and is discarded
                // with it.
                if self.retiring == Some(*victim) {
                    self.io.send_ctl_marker(
                        victim.index(),
                        CtlKind::Retire,
                        Message::Retire { epoch },
                    );
                }
            }
            (Waiting::InstallAcks, _) => {
                for (dst, states) in &op.awaiting_install {
                    if self.dead.contains(&dst.index()) {
                        continue;
                    }
                    let states = states.clone();
                    self.io
                        .ctl_send(dst.index(), Message::StateInstall { epoch, states });
                }
            }
        }
    }

    /// Second deadline expiry: give the op up and put the source back on
    /// a routing function that matches where the state is.
    fn abort_op(&mut self) {
        let Some(op) = self.pending.take() else {
            return;
        };
        self.op_clock = None;
        let epoch = op.epoch;
        self.io.injector.record(FaultEvent::OpAborted {
            op: op.kind(),
            epoch,
        });
        self.closed_epochs.close(epoch);
        // Close the span Aborted *before* the rollback resume goes out,
        // so the resume phase (and its ack) cannot land on a closed
        // span.
        if self.open_spans.remove(&epoch) {
            self.io.rec.span_close(epoch, Outcome::Aborted);
        }
        match op.extract {
            Extract::Moves(by_source) => self.roll_back(epoch, &by_source, op.collected),
            Extract::Retire(victim) => {
                // The routing already shrank at decision time, so resume
                // under the retire's view: a still-live victim becomes a
                // routed-around zombie that drains at shutdown with its
                // state intact; a late `Retired` is absorbed by the
                // closed epoch.
                if self.retiring == Some(victim) {
                    self.retiring = None;
                }
                self.issue_resume(epoch, op.view);
            }
        }
    }

    /// Rolls an aborted migration's routing back: every affected key
    /// returns to its origin (diverted past corpses). State still in
    /// hand (`collected`) is re-installed there; state already delivered
    /// stays where it landed — re-sending it could double-count, and
    /// per-key counts merge at shutdown regardless of which slot holds
    /// them. The rollback is its own span on a fresh pre-closed epoch:
    /// its installs and the resume happen synchronously right here, so
    /// it opens and closes in one breath.
    fn roll_back(
        &mut self,
        epoch: u64,
        by_source: &FxHashMap<TaskId, Vec<(Key, TaskId)>>,
        collected: Vec<(Key, TaskId, Bytes)>,
    ) {
        let mut origin_of: FxHashMap<Key, TaskId> = FxHashMap::default();
        let mut reverse: Vec<(Key, TaskId)> = Vec::new();
        for (&src, moves) in by_source {
            let home = self.live_slot(src);
            for &(k, _) in moves {
                reverse.push((k, home));
                origin_of.insert(k, home);
            }
        }
        self.partitioner.apply_moves(&reverse);
        self.next_epoch += 1;
        let rollback = self.next_epoch;
        self.closed_epochs.close(rollback);
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
        self.issue_resume(epoch, self.partitioner.routing_view());
        self.io.rec.span_close(rollback, Outcome::Completed);
    }

    /// Resume deadline: re-drive, forever — an abandoned resume would
    /// strand pause-buffered tuples at the source (unaccounted loss) and
    /// hang shutdown. Only the first re-drive is ledgered; the source
    /// absorbs duplicates by epoch.
    fn redrive_resumes(&mut self) {
        let mut redrive: Vec<(u64, RoutingView)> = Vec::new();
        for (&epoch, (view, clock)) in self.resume_state.iter_mut() {
            if !clock.expired(&self.config, self.current_interval, self.source_finished) {
                continue;
            }
            if !clock.retried {
                self.io.injector.record(FaultEvent::OpRetried {
                    op: OpKind::Resume,
                    epoch,
                });
            }
            clock.rearm(self.current_interval);
            redrive.push((epoch, view.clone()));
        }
        for (epoch, view) in redrive {
            self.io
                .send_src(Some(CtlKind::Resume), SourceCtl::Resume { epoch, view });
        }
    }

    /// Starts the next queued op when idle: plan → pause.
    fn start_next_op(&mut self) {
        if self.pending.is_some() {
            return;
        }
        let Some(mut op) = self.queue.pop_front() else {
            return;
        };
        match &mut op.extract {
            Extract::Retire(victim) if self.dead.contains(&victim.index()) => {
                // The victim died before its retirement started: state
                // accounted, keys already re-routed. Finalize the width
                // bookkeeping and publish the shrunk view; no pause is
                // needed because the source diverts the slot anyway.
                let slot = victim.index();
                self.dead.remove(&slot);
                self.active -= 1;
                self.bill_live_width();
                self.io
                    .send_src(None, SourceCtl::UpdateView { view: op.view });
                // The slot's receiver died with the worker, so give it a
                // fresh channel — after the shrunk view, under which
                // nothing routes to it — or no later scale-out could
                // ever provision it again.
                let rx = self.fresh_channel(slot);
                self.io.worker_rxs[slot] = Some(rx);
                return;
            }
            Extract::Retire(_) => {}
            // Movers that died since planning hold no state (lost and
            // accounted at death); their keys still move in the view.
            Extract::Moves(by_source) => {
                by_source.retain(|src, _| !self.dead.contains(&src.index()));
            }
        }
        self.next_epoch += 1;
        op.epoch = self.next_epoch;
        // The span id is the op epoch: Plan marks the pop, Pause marks
        // the quiesce request going out.
        self.io.rec.span_open(op.epoch, op.label);
        self.io.rec.span_phase(op.epoch, Phase::Plan);
        self.io.rec.span_phase(op.epoch, Phase::Pause);
        self.open_spans.insert(op.epoch);
        self.io.send_pause(&op);
        self.op_clock = Some(OpClock::start(self.current_interval));
        self.pending = Some(op);
    }

    /// Ships `Shutdown` to the workers once fully quiesced.
    /// `resume_state` guards the flush race: the source must confirm it
    /// has re-enqueued all pause-buffered tuples before Shutdown markers
    /// enter the worker channels behind them. `dead_pending` guards loss
    /// accounting: a dead slot's channel backlog must be counted before
    /// teardown.
    fn shutdown_gate(&mut self) {
        let quiesced = self.source_finished
            && !self.draining
            && self.pending.is_none()
            && self.queue.is_empty()
            && self.ledger.outstanding() == 0
            && self.resume_state.is_empty()
            && self.dead_pending.is_empty();
        if !quiesced {
            return;
        }
        self.draining = true;
        // A slot whose Shutdown did not land (timeout or disconnect) is
        // left out of the drain target; its thread still exits when the
        // channel disconnects at teardown.
        self.drain_target = (0..self.active)
            .filter(|i| !self.dead.contains(i) && self.io.ctl_send(*i, Message::Shutdown))
            .count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A run of any length leaves the closed-epoch ledger at constant
    /// size, and an echo of any closed epoch — however old — is still
    /// recognised (absorbed as stale, never a `StrayPauseAck`).
    #[test]
    fn closed_epochs_stay_bounded_and_absorb_late_echoes() {
        let mut closed = ClosedEpochs::new();
        assert!(!closed.contains(0) && !closed.contains(1));
        // Epoch 7 is the op in flight while its neighbours close.
        for epoch in (1..=100_000u64).filter(|&e| e != 7) {
            closed.close(epoch);
            assert!(closed.recent.len() <= ClosedEpochs::RECENT);
        }
        for echo in [1, 6, 8, 50_000, 99_936, 99_937, 100_000] {
            assert!(closed.contains(echo), "epoch {echo} closed");
        }
        assert!(!closed.contains(100_001), "never issued");
        // A straggler below the watermark adds nothing.
        closed.close(7);
        assert_eq!(closed.recent.len(), ClosedEpochs::RECENT);
        assert!(closed.contains(7));
    }

    /// While few epochs have closed, one skipped in between (the op in
    /// flight) is not mistaken for closed.
    #[test]
    fn closed_epochs_keep_the_in_flight_epoch_open() {
        let mut closed = ClosedEpochs::new();
        for epoch in [1, 2, 4, 5] {
            closed.close(epoch);
        }
        assert!(!closed.contains(3));
        assert!(!closed.contains(6));
        closed.close(3);
        assert!(closed.contains(3));
    }
    use streambal_core::Key;

    fn stats_with_cost(key: u64, cost: u64) -> IntervalStats {
        let mut s = IntervalStats::new();
        s.observe(Key(key), 1, cost, 1);
        s
    }

    fn expect_n(n: usize) -> Vec<TaskId> {
        (0..n).map(TaskId::from).collect()
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
        ledger.open(0, 3, expect_n(3), vec![5, 0, 2]);
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
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        assert!(ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .is_some());
        // Round 0 is gone. Rounds 1 and 2 are open; a late report for
        // round 0 lands in round 1 (the oldest), clamped to its slots.
        ledger.open(1, 2, expect_n(2), vec![0, 0]);
        ledger.open(2, 2, expect_n(2), vec![0, 0]);
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
        ledger.open(10, 2, expect_n(2), vec![0, 0]);
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
        ledger.open(0, 3, expect_n(3), vec![0, 0, 0]);
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
        ledger.on_residue(TaskId(2), &stats_with_cost(5, 21));
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 31]);
        // Round open: residue folds straight in, slot clamped.
        ledger.open(1, 2, expect_n(2), vec![0, 0]);
        ledger.on_residue(TaskId(6), &stats_with_cost(5, 9));
        close_all_but(&mut ledger, 1, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 19]);
    }

    #[test]
    fn latency_summary_merges_across_reporters() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
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
    }

    /// A reporter that dies mid-round must not wedge the round: striking
    /// it off closes every round that was only waiting on it, and its
    /// already-merged load stays in the closed totals.
    #[test]
    fn dead_reporter_closes_waiting_rounds() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 3, expect_n(3), vec![0, 0, 0]);
        ledger.open(1, 3, expect_n(3), vec![0, 0, 0]);
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
    /// gates on it) hostage forever.
    #[test]
    fn silent_reporter_round_closes_by_deadline() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        // Worker 1 never reports. Not enough intervals elapsed: no expiry.
        assert!(ledger
            .expire_rounds(1, 2, Duration::from_millis(0))
            .is_empty());
        // Interval clock satisfied but wall deadline not yet: no expiry.
        assert!(ledger
            .expire_rounds(5, 2, Duration::from_secs(3600))
            .is_empty());
        let expired = ledger.expire_rounds(5, 2, Duration::from_millis(0));
        assert_eq!(expired.len(), 1);
        let (iv, round, missing) = &expired[0];
        assert_eq!(*iv, 0);
        assert_eq!(round.loads, vec![10, 0]);
        assert_eq!(missing, &vec![1], "the silent worker is named");
        assert_eq!(ledger.outstanding(), 0, "shutdown is no longer gated");
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

    use crossbeam::channel::unbounded;
    use streambal_baselines::storm;
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
        injector: Arc<FaultInjector>,
        /// The three "running" workers' receivers, by slot.
        workers: Vec<Receiver<Message>>,
        source: Receiver<SourceCtl>,
        spawned: Rc<RefCell<Vec<Spawned>>>,
    }

    /// `(slot, first interval, receiver)` of a worker the controller
    /// spawned.
    type Spawned = (usize, u64, Receiver<Message>);

    /// A controller over three provisioned slots, all of them running.
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
            max_workers: 3,
            elasticity: Box::new(policy),
            ..EngineConfig::default()
        };
        let sink = TraceSink::new(true);
        let injector = Arc::new(FaultInjector::with_trace(plan, Arc::clone(&sink)));
        let (worker_txs, workers): (Vec<_>, Vec<_>) =
            (0..3).map(|_| bounded(config.channel_capacity)).unzip();
        let (ctl_tx, source) = unbounded();
        let spawned = Rc::new(RefCell::new(Vec::new()));
        let spawned_by_ctl = Rc::clone(&spawned);
        let io = ControlIo {
            worker_txs,
            worker_rxs: vec![None, None, None],
            ctl_tx,
            counter: Arc::new(Counter::new()),
            injector: Arc::clone(&injector),
            rec: sink.recorder(ThreadLabel::Controller),
            make_op: Box::new(|_| Box::new(WordCountOp::new())),
            spawn: Box::new(move |slot, rx, _op, first| {
                spawned_by_ctl.borrow_mut().push((slot, first, rx));
            }),
        };
        let ctl = Controller::new(config, partitioner, io, Instant::now());
        let rig = Rig {
            sink,
            injector,
            workers,
            source,
            spawned,
        };
        (ctl, rig)
    }

    /// Closes `interval`'s statistics round with one empty report per
    /// provisioned live worker, then ticks (which decides the round).
    fn close_round(ctl: &mut Controller<'_>, interval: u64) {
        close_round_with(ctl, interval, &[]);
    }

    /// [`close_round`] with worker `w` reporting `reports[w]`.
    fn close_round_with(ctl: &mut Controller<'_>, interval: u64, reports: &[IntervalStats]) {
        ctl.on_source_event(SourceEvent::IntervalDone { interval });
        let live: Vec<usize> = (0..ctl.active).filter(|w| !ctl.dead.contains(w)).collect();
        for w in live {
            ctl.on_worker_event(WorkerEvent::Stats {
                worker: TaskId::from(w),
                interval,
                stats: reports.get(w).cloned().unwrap_or_default(),
                latency: Box::new(Histogram::new()),
            });
        }
        ctl.tick();
    }

    fn retired(worker: usize, epoch: u64, states: Vec<(Key, Bytes)>) -> WorkerEvent {
        // The victim hands its receiver back; any receiver will do here.
        let (_tx, rx) = bounded(1);
        WorkerEvent::Retired {
            worker: TaskId::from(worker),
            epoch,
            states,
            stats: IntervalStats::new(),
            processed: 0,
            latency: Box::new(Histogram::new()),
            first_interval: None,
            rx,
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
    /// corpse — so every later scale-out into the slot aborted with
    /// `ScaleOutAborted`, forever.
    #[test]
    fn scale_out_reuses_a_slot_whose_queued_scale_in_victim_died() {
        let (mut ctl, rig) = rig(FixedSchedule::new([
            (0, ScaleDecision::ScaleIn),
            (1, ScaleDecision::ScaleIn),
            (2, ScaleDecision::ScaleOut),
        ]));
        // Round 0 retires worker 2 (in flight: its pause is unanswered);
        // round 1 queues worker 1's retirement behind it.
        close_round(&mut ctl, 0);
        close_round(&mut ctl, 1);
        assert_eq!(ctl.pending.as_ref().map(|op| op.epoch), Some(1));
        assert_eq!(ctl.queue.len(), 1);
        // The queued victim dies.
        let (_tx, corpse_rx) = bounded(1);
        ctl.on_worker_event(WorkerEvent::Killed {
            worker: TaskId(1),
            lost: Vec::new(),
            stats: IntervalStats::new(),
            processed: 0,
            latency: Box::new(Histogram::new()),
            first_interval: None,
            rx: corpse_rx,
        });
        ctl.tick();
        // The first retirement completes; the next tick pops the dead
        // victim's op.
        ctl.on_source_event(SourceEvent::PauseAck { epoch: 1 });
        ctl.on_worker_event(retired(2, 1, Vec::new()));
        ctl.on_source_event(SourceEvent::ResumeAck { epoch: 1 });
        ctl.tick();
        assert_eq!(ctl.active, 1);
        assert!(ctl.dead.is_empty());
        // Round 2 scales out into slot 1.
        close_round(&mut ctl, 2);
        assert_eq!(ctl.report.protocol_errors, vec![]);
        let spawned: Vec<(usize, u64)> = rig.spawned.borrow().iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(spawned, vec![(1, 3)], "a worker on slot 1 from interval 3");
        assert_eq!(ctl.active, 2);
        let event = |interval, from, to| ScaleEvent { interval, from, to };
        assert_eq!(
            ctl.report.scale_events,
            vec![event(0, 3, 2), event(1, 2, 1), event(2, 1, 2)]
        );
        // The source was told to swap slot 1's sender in and stop
        // diverting it — after the shrunk view, under which nothing
        // routes there.
        let to_source: Vec<SourceCtl> = std::iter::from_fn(|| rig.source.try_recv().ok()).collect();
        let at = |pred: &dyn Fn(&SourceCtl) -> bool| to_source.iter().position(pred);
        let shrunk = at(&|m| matches!(m, SourceCtl::UpdateView { .. })).expect("shrunk view");
        let revive = at(&|m| matches!(m, SourceCtl::ReviveDest { dest, .. } if dest == &TaskId(1)))
            .expect("fresh channel for slot 1");
        assert!(shrunk < revive);
    }

    /// Duplicates at every phase, for both state sources: a re-driven
    /// marker's second answer is absorbed as stale — one ledger entry
    /// each, no protocol error — and no span phase is recorded twice.
    #[test]
    fn duplicate_answers_are_absorbed_once_per_phase() {
        let key = key_homed_on(1, 2);
        let blob = Bytes::copy_from_slice(b"state");
        let view = storm(2).routing_view();
        type Op = (ProtocolOp, &'static str, Box<dyn Fn(u64) -> WorkerEvent>);
        let cases: Vec<Op> = vec![
            (
                ProtocolOp::new(
                    OpLabel::Rebalance,
                    view.clone(),
                    PauseScope::Keys(vec![key]),
                    Extract::Moves([(TaskId(0), vec![(key, TaskId(1))])].into_iter().collect()),
                    false,
                ),
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
                ProtocolOp::new(
                    OpLabel::ScaleIn,
                    view,
                    PauseScope::Dest(TaskId(2)),
                    Extract::Retire(TaskId(2)),
                    false,
                ),
                "retired",
                Box::new(move |epoch| retired(2, epoch, vec![(key, blob.clone())])),
            ),
        ];
        for (op, what, answer) in cases {
            let (mut ctl, rig) = rig(FixedSchedule::new([]));
            ctl.queue.push_back(op);
            ctl.tick();
            ctl.on_source_event(SourceEvent::PauseAck { epoch: 1 });
            ctl.on_source_event(SourceEvent::PauseAck { epoch: 1 });
            ctl.on_worker_event(answer(1));
            ctl.on_worker_event(answer(1));
            let ack = || WorkerEvent::InstallAck {
                worker: TaskId(1),
                epoch: 1,
            };
            ctl.on_worker_event(ack());
            assert!(ctl.pending.is_none(), "{what}: op resumed at the last ack");
            ctl.on_worker_event(ack());
            ctl.on_source_event(SourceEvent::ResumeAck { epoch: 1 });

            assert_eq!(ctl.report.protocol_errors, vec![], "{what}");
            let stale = |what| FaultEvent::StaleEpochAbsorbed { epoch: 1, what };
            assert_eq!(
                rig.injector.take_ledger(),
                vec![stale("pause ack"), stale(what), stale("install ack")]
            );
            drop(ctl.finish());
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

    /// The single re-home path: a destination that is dead at send time
    /// is diverted to the next live slot, and state arriving on a closed
    /// epoch is re-routed under the current view with empty blobs
    /// skipped.
    #[test]
    fn rehome_diverts_past_dead_slots_and_skips_empty_blobs() {
        let (mut ctl, rig) = rig(FixedSchedule::new([]));
        ctl.dead.insert(1);
        let blob = Bytes::copy_from_slice(b"state");
        let key = key_homed_on(1, 3);

        let sent = ctl.rehome(7, vec![(key, TaskId(1), blob.clone())]);
        assert_eq!(sent.keys().copied().collect::<Vec<_>>(), vec![TaskId(2)]);

        let hollow = key_homed_on(0, 3);
        ctl.rehome_stale(vec![(key, blob), (hollow, Bytes::new())]);

        let installs = |slot: usize| installs_at(&rig.workers[slot]);
        assert_eq!(installs(0), vec![], "the empty blob went nowhere");
        assert_eq!(installs(1), vec![], "nothing lands on the corpse");
        // The stale re-home ran on a fresh, pre-closed epoch.
        assert_eq!(installs(2), vec![(7, vec![key]), (1, vec![key])]);
        assert!(ctl.closed_epochs.contains(1));
    }
    fn peeks_at(rx: &Receiver<Message>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Ok(msg) = rx.try_recv() {
            if let Message::StatsPeek { interval } = msg {
                out.push(interval);
            }
        }
        out
    }

    fn peek_answer(worker: usize, interval: u64) -> WorkerEvent {
        let mut stats = IntervalStats::new();
        stats.observe(Key(worker as u64), 1, 1, 1);
        WorkerEvent::StatsPeek {
            worker: TaskId::from(worker),
            interval,
            stats,
        }
    }

    fn alert(interval: u64) -> SourceEvent {
        SourceEvent::SkewAlert { interval }
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
        let mut out = vec![IntervalStats::new(); 3];
        for (w, stats) in out.iter_mut().enumerate() {
            for &k in &keys[w] {
                stats.observe(k, costs[w], costs[w], 8);
            }
        }
        if hot.1 > 0 {
            out[2].observe(hot.0, hot.1, hot.1, 8);
        }
        out
    }

    /// Answers the provisional round of `interval` with `reports`, then
    /// ticks (which settles it).
    fn settle(ctl: &mut Controller<'_>, interval: u64, reports: Vec<IntervalStats>) {
        ctl.on_source_event(alert(interval));
        for (w, stats) in reports.into_iter().enumerate() {
            let worker = TaskId::from(w);
            ctl.on_worker_event(WorkerEvent::StatsPeek {
                worker,
                interval,
                stats,
            });
        }
        ctl.tick();
    }

    /// A skew alert opens a provisional round — one request per worker,
    /// settled when every copy is in — unless an op is in flight or
    /// queued: that op is already changing the routing the alert was
    /// measured under.
    #[test]
    fn skew_alert_opens_a_round_only_while_the_control_plane_is_idle() {
        let (mut ctl, rig) = rig(FixedSchedule::new([(0, ScaleDecision::ScaleIn)]));
        // Idle: the round opens, every worker is asked, and the last
        // answer settles it (a hash partitioner never plans: held).
        ctl.on_source_event(alert(0));
        for rx in &rig.workers {
            assert_eq!(peeks_at(rx), vec![0]);
        }
        for w in 0..3 {
            assert!(ctl.early.is_some());
            ctl.on_worker_event(peek_answer(w, 0));
            ctl.tick();
        }
        assert!(ctl.early.is_none());
        // A second alert for the interval cannot arrive (the source
        // raises one), but the interval's close must find nothing open.
        close_round(&mut ctl, 0);
        // Round 0 decided a scale-in: its op is in flight, and alerts
        // are ignored for as long as it is (and while it is queued).
        assert!(ctl.pending.is_some());
        ctl.on_source_event(alert(1));
        assert!(ctl.early.is_none());
        for rx in &rig.workers {
            assert_eq!(peeks_at(rx), vec![]);
        }
        assert_eq!(ctl.report.protocol_errors, vec![]);
        assert_eq!(rig.injector.take_ledger(), vec![]);
        drop(ctl.finish());
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
        ctl.on_source_event(alert(4));
        ctl.on_worker_event(peek_answer(0, 4));
        ctl.tick();
        assert!(ctl.early.is_some(), "two answers outstanding");
        close_round(&mut ctl, 4);
        assert!(ctl.early.is_none());
        ctl.on_worker_event(peek_answer(1, 4));
        ctl.on_worker_event(peek_answer(2, 4));
        ctl.on_worker_event(peek_answer(2, 9));
        ctl.tick();
        // The next interval's round is not confused by the stragglers.
        ctl.on_source_event(alert(5));
        ctl.on_worker_event(peek_answer(1, 4));
        ctl.tick();
        assert_eq!(ctl.early.as_ref().map(|e| e.awaiting.len()), Some(3));
        assert_eq!(ctl.report.protocol_errors, vec![]);
        assert_eq!(ctl.report.rebalances, 0);
        assert_eq!(rig.injector.take_ledger(), vec![]);
        drop(ctl.finish());
        assert_eq!(
            early_steps(&rig),
            vec![
                (4, EarlyStep::Open),
                (4, EarlyStep::Cancelled),
                (5, EarlyStep::Open)
            ]
        );
    }

    /// A provisional request lost on the way leaves its worker awaited:
    /// the round simply never settles, the closing round cancels it, and
    /// the statistics rounds around it are untouched.
    #[test]
    fn dropped_provisional_request_is_harmless() {
        let plan = FaultPlan::new(vec![crate::fault::FaultSpec::DropCtl {
            kind: CtlKind::StatsRequest,
            nth: 2,
        }]);
        let hash = Box::new(storm(3));
        let (mut ctl, rig) = rig_with(FixedSchedule::new([]), plan, hash);
        ctl.on_source_event(alert(0));
        let asked: Vec<Vec<u64>> = rig.workers.iter().map(peeks_at).collect();
        assert_eq!(asked, vec![vec![0], vec![], vec![0]], "the 2nd was dropped");
        ctl.on_worker_event(peek_answer(0, 0));
        ctl.on_worker_event(peek_answer(2, 0));
        ctl.tick();
        assert_eq!(ctl.early.as_ref().map(|e| e.awaiting.len()), Some(1));
        close_round(&mut ctl, 0);
        assert!(ctl.early.is_none());
        assert_eq!(ctl.ledger.outstanding(), 0, "the closing round closed");
        assert_eq!(ctl.report.protocol_errors, vec![]);
        assert_eq!(
            rig.injector.take_ledger(),
            vec![FaultEvent::InjectedDrop {
                kind: CtlKind::StatsRequest,
                nth: 2
            }]
        );
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
            let mut stats = IntervalStats::new();
            let keys = if w == 2 { 0..300u64 } else { 0..30u64 };
            for k in keys {
                stats.observe(Key(1_000 * w as u64 + k), 1, 1, 8);
            }
            WorkerEvent::StatsPeek {
                worker: TaskId::from(w),
                interval,
                stats,
            }
        };
        ctl.on_source_event(alert(0));
        for w in 0..3 {
            ctl.on_worker_event(report(w, 0));
        }
        ctl.tick();
        assert_eq!(ctl.report.rebalances, 1);
        let op = ctl.pending.as_ref().expect("the plan's op started");
        assert!(op.label == OpLabel::Rebalance && op.epoch == 1);
        assert!(matches!(
            rig.source.try_recv(),
            Ok(SourceCtl::Pause { epoch: 1, .. })
        ));
        assert_eq!(ctl.report.protocol_errors, vec![]);
        drop(ctl.finish());
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
        drop(ctl.finish());
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
        ctl.on_source_event(SourceEvent::PauseAck { epoch: 1 });
        ctl.on_source_event(SourceEvent::ResumeAck { epoch: 1 });

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
        drop(ctl.finish());
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
        other[1].observe(Key(77_777), 200, 200, 8);
        settle(&mut ctl, 1, other);
        assert_eq!(format!("{:?}", ctl.config.split), mid_streak);
        assert_eq!(ctl.report.split_events, vec![]);
        drop(ctl.finish());
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
        ctl.on_source_event(alert(1));
        ctl.queue.push_back(ProtocolOp::new(
            OpLabel::Rebalance,
            ctl.partitioner.routing_view(),
            PauseScope::Keys(vec![hot]),
            Extract::Moves(FxHashMap::default()),
            false,
        ));
        settle(&mut ctl, 1, heavy());
        assert_eq!(ctl.report.split_events, vec![]);
        drop(ctl.finish());
        let (open, held) = (EarlyStep::Open, EarlyStep::Held);
        let steps = vec![(0, open), (0, held), (1, open), (1, EarlyStep::Cancelled)];
        assert_eq!(early_steps(&rig), steps);

        let (mut ctl, _rig, ..) = hot_key_rig(1);
        close_round_with(&mut ctl, 0, &calm);
        ctl.dead.insert(1);
        settle(&mut ctl, 1, heavy());
        assert_eq!(ctl.report.split_events, vec![]);
        assert!(ctl.partitioner.splits().is_empty() && ctl.early.is_none());
    }
}
