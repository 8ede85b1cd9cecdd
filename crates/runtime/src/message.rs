//! Channel message types: worker inputs, the controller's one inbox of
//! source and worker events, source control.

use bytes::Bytes;
use streambal_core::{IntervalStats, Key, RoutingView, TaskId};

use crate::fault::{CtlKind, FaultEvent, KillTrigger};
use crate::tuple::Tuple;

/// Messages flowing into a worker's input channel. Tuple batches and
/// control markers share the channel, so FIFO ordering *is* the migration
/// consistency argument (see crate docs): a batch enqueued before a
/// `StatsRequest`/`MigrateOut`/`StateInstall`/`Shutdown` marker is
/// processed — whole — before it.
#[derive(Debug)]
pub enum Message {
    /// A batch of data tuples — the only payload-carrying variant: one
    /// channel operation covers the whole vector, sent with the batch
    /// length as its channel weight. The worker owns the buffer from
    /// then on and drops it once drained.
    TupleBatch {
        /// Microseconds since engine start when the source staged these
        /// tuples: its one clock read for their staged batch. Every
        /// tuple of the message shares it, so the worker records the
        /// latency once for all of them.
        emitted_us: u64,
        /// The tuples, in the order the source routed them.
        tuples: Vec<Tuple>,
    },
    /// Interval boundary: report statistics, advance the window. The
    /// source puts it into every slot it can route to at the moment it
    /// cuts the interval, behind the interval's last batch and ahead of
    /// the next interval's first, so FIFO makes the cut exact: the
    /// report, the window label and the flight recorder's `DataFlush`
    /// (the worker rolls its batch counters into one here) hold exactly
    /// the tuples the source routed to this worker in the interval.
    StatsRequest {
        /// The interval being closed.
        interval: u64,
    },
    /// Provisional statistics request, inside an open interval, put into
    /// every slot by the source when it raises a skew alert: answer
    /// with a *copy* of the statistics accumulated so far
    /// ([`WorkerEvent::StatsPeek`]) and change nothing — no operator
    /// flush, no window eviction, no interval advance, accumulators not
    /// reset — so the interval's closing report is exactly what it would
    /// have been without the request.
    StatsPeek {
        /// The open interval.
        interval: u64,
    },
    /// Step 5a of Fig. 5: extract and ship state for the listed keys.
    MigrateOut {
        /// Migration epoch (one rebalance = one epoch).
        epoch: u64,
        /// `(key, destination)` pairs whose state must leave this worker.
        moves: Vec<(Key, TaskId)>,
    },
    /// Step 5b: install state arriving from peers.
    StateInstall {
        /// Migration epoch.
        epoch: u64,
        /// `(key, serialized state)` pairs.
        states: Vec<(Key, Bytes)>,
    },
    /// Scale-in: drain the backlog already in the channel (FIFO puts this
    /// marker behind it), extract *all* remaining key state, report it
    /// with [`WorkerExit::Retired`] — channel receiver included, so the
    /// slot can be re-provisioned later — and exit. A worker retires on
    /// any epoch, so the controller empties the handed-back receiver (a
    /// re-driven duplicate of this marker may sit in it) before the slot
    /// is reused.
    Retire {
        /// The scale-in epoch (same counter as migration epochs).
        epoch: u64,
    },
    /// Drain final state and exit.
    Shutdown,
}

/// The controller's one inbox: source and worker events on one unbounded
/// FIFO channel — neither ever blocks on the controller, which rules out
/// protocol deadlocks. One channel orders a worker's answer behind the
/// source's announcement of the round it answers: the source sends
/// `IntervalDone`/`SkewAlert` *before* it enqueues the markers, and a
/// worker answers only after it dequeues one.
#[derive(Debug)]
pub enum Event {
    /// From the source thread.
    Source(SourceEvent),
    /// From a worker thread.
    Worker(WorkerEvent),
    /// From the source or a worker: a planned fault that fired on that
    /// thread (a stall, a dropped statistics marker), sent ahead of its
    /// consequences for the controller to ledger. A kill needs none: the
    /// worker's `Killed` exit names it.
    Injected(FaultEvent),
}

impl Event {
    /// The droppable control kind this event is, if any: the kinds the
    /// controller counts in inbox order and drops on arrival.
    pub(crate) fn ctl_kind(&self) -> Option<CtlKind> {
        match self {
            Event::Source(SourceEvent::PauseAck { .. }) => Some(CtlKind::PauseAck),
            Event::Source(SourceEvent::ResumeAck { .. }) => Some(CtlKind::ResumeAck),
            Event::Worker(WorkerEvent::Stats { .. }) => Some(CtlKind::Stats),
            Event::Worker(WorkerEvent::InstallAck { .. }) => Some(CtlKind::InstallAck),
            _ => None,
        }
    }
}

/// Events workers send the controller.
#[derive(Debug)]
pub enum WorkerEvent {
    /// Response to [`Message::StatsRequest`].
    Stats {
        /// Reporting worker.
        worker: TaskId,
        /// Closed interval.
        interval: u64,
        /// Statistics collected since the previous request, sealed.
        stats: IntervalStats,
        /// End-to-end tuple latency distribution of the closed interval
        /// (µs) — the controller merges the per-worker histograms into
        /// the interval's mean/p99 observation for elasticity policies.
        latency: Box<streambal_metrics::Histogram>,
    },
    /// Response to [`Message::StatsPeek`].
    StatsPeek {
        /// Reporting worker.
        worker: TaskId,
        /// The open interval.
        interval: u64,
        /// A sealed copy of the statistics collected since the last
        /// [`Message::StatsRequest`].
        stats: IntervalStats,
    },
    /// Response to [`Message::MigrateOut`]: extracted states (step 6a).
    StateOut {
        /// Source worker.
        worker: TaskId,
        /// Migration epoch.
        epoch: u64,
        /// `(key, destination, state)` triples.
        states: Vec<(Key, TaskId, Bytes)>,
    },
    /// Response to [`Message::StateInstall`] (step 6b ack).
    InstallAck {
        /// Installing worker.
        worker: TaskId,
        /// Migration epoch.
        epoch: u64,
    },
    /// A worker's last event, however it finished: answering
    /// [`Message::Retire`] or [`Message::Shutdown`], or dying of an
    /// injected fault. Nothing from that worker follows it.
    Exited {
        /// The finished worker.
        worker: TaskId,
        /// Its lifetime totals, the same for every way of finishing.
        totals: WorkerTotals,
        /// How it finished, with what only that kind of exit carries.
        exit: WorkerExit,
    },
}

/// What every finished worker hands back: its lifetime totals, which the
/// controller folds into the report whichever way the worker ended.
#[derive(Debug, Default)]
pub struct WorkerTotals {
    /// Tuples processed over the worker's lifetime.
    pub processed: u64,
    /// Lifetime end-to-end tuple latency distribution (µs).
    pub latency: Box<streambal_metrics::Histogram>,
    /// The interval this worker processed its first tuple in, if it
    /// processed any (time-to-first-tuple instrumentation for scale-out
    /// pre-placement).
    pub first_interval: Option<u64>,
}

/// How a worker finished ([`WorkerEvent::Exited`]).
#[derive(Debug)]
pub enum WorkerExit {
    /// Response to [`Message::Retire`]: everything the controller needs
    /// to re-home the victim's state and later reuse its slot.
    Retired {
        /// Scale-in epoch.
        epoch: u64,
        /// All `(key, state)` pairs the worker still held — the whole
        /// windowed state, not just last-interval keys.
        states: Vec<(Key, Bytes)>,
        /// Statistics accumulated since the victim's last stats report —
        /// the controller folds them into the open round so retirement
        /// never makes load observations under-count (a dropped share
        /// reads as a load drop and can re-trigger the scale-in policy).
        stats: IntervalStats,
        /// The worker's channel receiver, handed back so a later
        /// scale-out can respawn on the same slot. The controller empties
        /// it first — markers dropped, any tuple or blob counted lost —
        /// so nothing sent to this worker reaches the next one.
        rx: crossbeam::channel::Receiver<Message>,
    },
    /// A controlled worker death fired by the fault-injection layer
    /// (standing in for a crashed process). Carries everything the
    /// recovery path needs to *account* the loss: the tuples whose
    /// contribution was not yet observable downstream die here.
    Killed {
        /// The planned kill point that fired: the controller ledgers the
        /// injection, then the death, from this one event.
        trigger: KillTrigger,
        /// Per-key tuple counts irrecoverably lost with this worker
        /// (held windowed state / un-flushed partials, plus any
        /// emissions still buffered in the worker, plus the blobs of a
        /// `StateInstall` that killed it).
        lost: Vec<(Key, u64)>,
        /// Statistics accumulated since the last stats report — folded
        /// into the open round so the death does not read as a load
        /// drop to the elasticity policy.
        stats: IntervalStats,
        /// The worker's channel receiver. A real dead process's inbound
        /// queue is reclaimed by the OS; here the controller drains it
        /// to count in-flight tuples as lost, then drops it so later
        /// sends fail fast (the disconnect-detection path).
        rx: crossbeam::channel::Receiver<Message>,
    },
    /// Response to [`Message::Shutdown`]: final state for validation.
    Drained {
        /// All remaining `(key, state)` pairs.
        final_states: Vec<(Key, Bytes)>,
    },
}

/// What the source holds back (and locally buffers) while an op is in
/// flight.
#[derive(Debug, Clone)]
pub enum PauseScope {
    /// Migration: the affected key set `Δ(F, F′)`.
    Keys(Vec<Key>),
    /// Scale-in: everything routed to one destination, the worker about
    /// to retire.
    Dest(TaskId),
}

/// Control messages from the controller to the source ("tuples router").
#[derive(Debug)]
pub enum SourceCtl {
    /// Step 4 of Fig. 5: stop sending (and locally buffer) the tuples in
    /// `scope`; acknowledge via [`SourceEvent::PauseAck`]. The ack is sent
    /// only between routed batches, so every tuple the source will ever
    /// send under the old view is already in its channel when the
    /// controller reads it — the `MigrateOut` / `Retire` marker it then
    /// enqueues lands behind all of them.
    Pause {
        /// Protocol epoch.
        epoch: u64,
        /// What to hold back.
        scope: PauseScope,
    },
    /// Step 7: switch to the new routing view and flush buffered tuples:
    /// the only message that changes the source's routing function.
    Resume {
        /// Migration epoch.
        epoch: u64,
        /// The new routing function `F′`.
        view: RoutingView,
    },
    /// A worker died: stop sending to `dest`. A death notice, not a view:
    /// the source diverts every tuple routed to a dead slot by the one
    /// divert rule (`streambal_core::divert`), which the controller's
    /// re-pinned table follows. Acknowledge via
    /// [`SourceEvent::DeadDestAck`] — sent only between routed batches,
    /// so when the controller reads the ack every tuple the source will
    /// ever send the dead slot is already in its channel and can be
    /// drained for loss accounting.
    DeadDest {
        /// The dead destination.
        dest: TaskId,
    },
    /// A dead slot is live again: swap in its channel sender and stop
    /// diverting it. Sent at the resume ack of the op that ends the death
    /// (a revive, or a dead victim's scale-in), so no stale entry of an
    /// older view can route a key to the slot.
    ReviveDest {
        /// The revived destination.
        dest: TaskId,
        /// Sender for the slot's new channel.
        tx: crossbeam::channel::Sender<crate::message::Message>,
    },
    /// Exit the source loop.
    Shutdown,
}

/// Events the source sends the controller.
#[derive(Debug)]
pub enum SourceEvent {
    /// All tuples of `interval` have been enqueued downstream; a
    /// [`Message::StatsRequest`] follows into each `marked` slot.
    IntervalDone {
        /// The finished interval.
        interval: u64,
        /// The slots the source could route to at the cut — every slot
        /// of its view but the dead ones and a scale-in victim its pause
        /// holds back — in slot order. A marker the source drops for a
        /// planned fault still counts: the round waits for it until its
        /// deadline.
        marked: Vec<TaskId>,
    },
    /// Acknowledges [`SourceCtl::Pause`]: no further affected-key tuples
    /// are in flight beyond what is already enqueued.
    PauseAck {
        /// Migration epoch.
        epoch: u64,
    },
    /// Acknowledges [`SourceCtl::Resume`]: the source routes under the
    /// resume's view, and every tuple buffered during the pause has been
    /// enqueued downstream. It is the last phase of every protocol op:
    /// the controller starts no later op — no later `Pause`, so no later
    /// view — and ships no worker `Shutdown` before it. A `Shutdown`
    /// marker would overtake the flushed tuples in the worker channels,
    /// and the workers would drain without processing them.
    ResumeAck {
        /// Migration epoch.
        epoch: u64,
    },
    /// Acknowledges [`SourceCtl::DeadDest`]: the source diverts around
    /// the dead slot, which will receive no further tuples from it until
    /// a [`SourceCtl::ReviveDest`].
    DeadDestAck {
        /// The quiesced dead destination.
        dest: TaskId,
    },
    /// A data-plane send failed (receiver gone) for a destination the
    /// source did not yet know was dead — the detection path for
    /// non-injected deaths. The tuples were diverted, not lost.
    SendFailed {
        /// The destination whose channel is disconnected.
        dest: TaskId,
    },
    /// The tuples sent to each destination so far in the open interval
    /// are skewed beyond sampling noise (`streambal_core::skew_alert`).
    /// Raised at a control-poll point in the first half of an interval,
    /// at most once per interval, and never while a pause is in force; a
    /// [`Message::StatsPeek`] follows into each `marked` slot.
    SkewAlert {
        /// The open interval.
        interval: u64,
        /// The slots asked for a copy, as in [`SourceEvent::IntervalDone`].
        marked: Vec<TaskId>,
    },
    /// The feeder is exhausted; no more tuples will ever be emitted.
    Finished,
}
