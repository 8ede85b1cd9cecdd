//! Channel message types: worker inputs, worker events, source control.

use bytes::Bytes;
use streambal_core::{IntervalStats, Key, RoutingView, TaskId};

use crate::tuple::Tuple;

/// Messages flowing into a worker's input channel. Tuple batches and
/// control markers share the channel, so FIFO ordering *is* the migration
/// consistency argument (see crate docs): a batch enqueued before a
/// `MigrateOut`/`StateInstall`/`Shutdown` marker is processed — whole —
/// before it.
#[derive(Debug)]
pub enum Message {
    /// A batch of data tuples — the only payload-carrying variant: one
    /// channel operation covers the whole vector, sent with the batch
    /// length as its channel weight. The buffer is pooled — after draining it, the worker
    /// returns it (cleared, capacity intact) to the source through the
    /// engine's recycle channel, so the steady state allocates nothing.
    TupleBatch(Vec<Tuple>),
    /// Interval boundary: report statistics, advance the window. Also
    /// the flight recorder's flush point: the worker rolls its local
    /// batch counters into one `DataFlush` trace event here — FIFO
    /// guarantees every tuple the source fed for the closing interval
    /// was drained before this marker, so the counts are deterministic
    /// per seeded feed.
    StatsRequest {
        /// The interval being closed.
        interval: u64,
    },
    /// Provisional statistics request, inside an open interval: answer
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
    /// with [`WorkerEvent::Retired`] — channel receiver included, so the
    /// slot can be re-provisioned later — and exit.
    Retire {
        /// The scale-in epoch (same counter as migration epochs).
        epoch: u64,
    },
    /// Drain final state and exit.
    Shutdown,
}

/// Events workers send the controller (unbounded channel — workers never
/// block on the controller, which rules out protocol deadlocks).
#[derive(Debug)]
pub enum WorkerEvent {
    /// Response to [`Message::StatsRequest`].
    Stats {
        /// Reporting worker.
        worker: TaskId,
        /// Closed interval.
        interval: u64,
        /// Statistics collected since the previous request.
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
        /// A copy of the statistics collected since the last
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
    /// Response to [`Message::Retire`]: everything the controller needs
    /// to re-home the victim's state and later reuse its slot.
    Retired {
        /// The retiring worker.
        worker: TaskId,
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
        /// Tuples processed over the worker's lifetime.
        processed: u64,
        /// Lifetime latency distribution (µs).
        latency: Box<streambal_metrics::Histogram>,
        /// The interval this worker processed its first tuple in, if it
        /// processed any (time-to-first-tuple instrumentation for
        /// scale-out pre-placement).
        first_interval: Option<u64>,
        /// The worker's channel receiver, handed back so the slot's
        /// channel stays connected (messages can never be silently
        /// dropped) and a later scale-out can respawn on the same slot.
        rx: crossbeam::channel::Receiver<Message>,
    },
    /// A controlled worker death fired by the fault-injection layer
    /// (standing in for a crashed process). Carries everything the
    /// recovery path needs to *account* the loss: the tuples whose
    /// contribution was not yet observable downstream die here.
    Killed {
        /// The dead worker.
        worker: TaskId,
        /// Per-key tuple counts irrecoverably lost with this worker
        /// (held windowed state / un-flushed partials, plus any
        /// emissions still buffered in the worker).
        lost: Vec<(Key, u64)>,
        /// Statistics accumulated since the last stats report — folded
        /// into the open round so the death does not read as a load
        /// drop to the elasticity policy.
        stats: IntervalStats,
        /// Tuples processed over the worker's lifetime.
        processed: u64,
        /// Lifetime latency distribution (µs).
        latency: Box<streambal_metrics::Histogram>,
        /// The interval this worker processed its first tuple in, if
        /// any.
        first_interval: Option<u64>,
        /// The worker's channel receiver. A real dead process's inbound
        /// queue is reclaimed by the OS; here the controller drains it
        /// to count in-flight tuples as lost, then drops it so later
        /// sends fail fast (the disconnect-detection path).
        rx: crossbeam::channel::Receiver<Message>,
    },
    /// Response to [`Message::Shutdown`]: final state for validation.
    Drained {
        /// Exiting worker.
        worker: TaskId,
        /// All remaining `(key, state)` pairs.
        final_states: Vec<(Key, Bytes)>,
        /// Tuples this worker processed over its lifetime.
        processed: u64,
        /// This worker's end-to-end tuple latency distribution (µs).
        latency: Box<streambal_metrics::Histogram>,
        /// The interval this worker processed its first tuple in, if any
        /// (time-to-first-tuple instrumentation for scale-out
        /// pre-placement).
        first_interval: Option<u64>,
    },
}

/// Control messages from the controller to the source ("tuples router").
#[derive(Debug)]
pub enum SourceCtl {
    /// Step 4 of Fig. 5: stop sending (and locally buffer) the affected
    /// keys; acknowledge via [`SourceEvent::PauseAck`].
    Pause {
        /// Migration epoch.
        epoch: u64,
        /// Keys in `Δ(F, F′)`.
        affected: Vec<Key>,
    },
    /// Scale-in analogue of `Pause`: stop sending to (and locally buffer
    /// tuples routed to) one destination — the worker about to retire.
    /// The ack carries the same guarantee as a key-set pause: it is sent
    /// only between routed batches, so every tuple the source will ever
    /// send the victim is already in its channel when the controller
    /// reads the ack, and the `Retire` marker it then enqueues lands
    /// behind all of them.
    PauseDest {
        /// Scale-in epoch.
        epoch: u64,
        /// The destination to quiesce.
        dest: TaskId,
    },
    /// Step 7: switch to the new routing view and flush buffered tuples.
    Resume {
        /// Migration epoch.
        epoch: u64,
        /// The new routing function `F′`.
        view: RoutingView,
    },
    /// Routing view changed without migration (e.g. hash-only scale-out).
    UpdateView {
        /// The new routing function.
        view: RoutingView,
    },
    /// A worker died: stop sending to `dest`, apply the re-pin `moves`
    /// to the local router (empty for strategies without a routing
    /// table), and divert any key that still routes to a dead slot to
    /// the next live slot. Acknowledge via [`SourceEvent::DeadDestAck`]
    /// — sent only between routed batches, so when the controller reads
    /// the ack every tuple the source will ever send the dead slot is
    /// already in its channel and can be drained for loss accounting.
    DeadDest {
        /// The dead destination.
        dest: TaskId,
        /// Key moves pinning the dead slot's routed keys to survivors
        /// (applied via the router's incremental delta path).
        moves: Vec<(Key, TaskId)>,
    },
    /// A dead slot was re-provisioned by a scale-out: swap in the fresh
    /// channel sender and stop diverting traffic away from it.
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
    /// All tuples of `interval` have been enqueued downstream.
    IntervalDone {
        /// The finished interval.
        interval: u64,
    },
    /// Acknowledges [`SourceCtl::Pause`]: no further affected-key tuples
    /// are in flight beyond what is already enqueued.
    PauseAck {
        /// Migration epoch.
        epoch: u64,
    },
    /// Acknowledges [`SourceCtl::Resume`]: every tuple buffered during the
    /// pause has been enqueued downstream. The controller must not ship
    /// worker `Shutdown` with a resume outstanding — the shutdown marker
    /// would overtake the flushed tuples in the worker channels and the
    /// workers would drain without processing them.
    ResumeAck {
        /// Migration epoch.
        epoch: u64,
    },
    /// Acknowledges [`SourceCtl::DeadDest`]: the dead slot will receive
    /// no further tuples from the source.
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
    /// at most once per interval, and never while a pause is in force.
    SkewAlert {
        /// The open interval.
        interval: u64,
    },
    /// The feeder is exhausted; no more tuples will ever be emitted.
    Finished,
}
