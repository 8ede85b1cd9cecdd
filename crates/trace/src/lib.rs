//! # streambal-trace
//!
//! The runtime's always-on flight recorder: every thread of the engine
//! (source, each worker, controller, collector, plus the fault injector)
//! holds a [`ThreadRecorder`] that buffers [`TraceEvent`]s locally and
//! batch-appends them to one shared [`TraceSink`]; after teardown the
//! sink yields a merged, time-ordered [`TraceLog`].
//!
//! Design constraints, in order:
//!
//! 1. **The data plane pays nothing measurable.** Workers never stamp a
//!    clock or touch the sink per tuple: [`ThreadRecorder::count_batch`]
//!    is two local counter increments, and the counts are emitted as one
//!    [`EventKind::DataFlush`] per interval. The only lock is the sink
//!    append, taken at most once per buffered-64-events / per interval /
//!    at drop.
//! 2. **Traces are deterministic modulo wall clock.** Every structural
//!    field (span ids = protocol epochs, phases, interval indices,
//!    per-interval tuple counts, fault ledger entries) is decided by the
//!    seeded run, not by thread timing; [`TraceLog::skeleton`] projects
//!    exactly those fields (as a sorted multiset, since cross-thread
//!    *interleaving* is timing) so seeded runs compare under `==` the
//!    same way the fault ledger does.
//! 3. **Spans tell the protocol story.** Every protocol operation
//!    (rebalance, scale-out pre-placement, drain→migrate→retire,
//!    rollback) is a span keyed by its epoch, opened once, stepped
//!    through [`Phase`]s in protocol order, and closed exactly once with
//!    an [`Outcome`] — checked by [`TraceLog::check_integrity`].
//!
//! Exports: [`TraceLog::to_jsonl`] (one JSON object per line, the
//! `tracecat` input format) and [`TraceLog::to_chrome_json`] (Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto: spans as async
//! b/e pairs, faults and phases as instants, snapshots as counters).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which runtime thread emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreadLabel {
    /// The source ("tuples router") thread.
    Source,
    /// The controller (protocol) thread.
    Controller,
    /// The collector / merge thread.
    Collector,
    /// The fault injector (events mirrored from the fault ledger; their
    /// `seq` is the ledger index, so ledger order survives the merge).
    Fault,
    /// Worker thread for the given slot.
    Worker(u32),
}

impl ThreadLabel {
    /// Stable textual name (`"worker:3"`, `"controller"`, …) — used in
    /// the JSONL export and skeleton strings.
    pub fn name(&self) -> String {
        match self {
            ThreadLabel::Source => "source".to_string(),
            ThreadLabel::Controller => "controller".to_string(),
            ThreadLabel::Collector => "collector".to_string(),
            ThreadLabel::Fault => "fault".to_string(),
            ThreadLabel::Worker(i) => format!("worker:{i}"),
        }
    }

    /// Parses [`ThreadLabel::name`] output back.
    pub fn from_name(s: &str) -> Option<ThreadLabel> {
        match s {
            "source" => Some(ThreadLabel::Source),
            "controller" => Some(ThreadLabel::Controller),
            "collector" => Some(ThreadLabel::Collector),
            "fault" => Some(ThreadLabel::Fault),
            other => other
                .strip_prefix("worker:")
                .and_then(|n| n.parse().ok())
                .map(ThreadLabel::Worker),
        }
    }

    /// Chrome-trace thread id: fixed slots for the singleton threads,
    /// workers at `10 + slot` so the tracks sort stably.
    pub fn tid(&self) -> u64 {
        match self {
            ThreadLabel::Source => 0,
            ThreadLabel::Controller => 1,
            ThreadLabel::Collector => 2,
            ThreadLabel::Fault => 3,
            ThreadLabel::Worker(i) => 10 + u64::from(*i),
        }
    }
}

/// What kind of protocol operation a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpLabel {
    /// A plan-driven key migration (steps ③–⑦ of Fig. 5).
    Rebalance,
    /// A scale-out executing its pre-placement plan inside the
    /// quiescence window.
    ScaleOut,
    /// A drain→migrate→retire scale-in.
    ScaleIn,
    /// The synchronous re-install + resume an aborted op rolls back
    /// through (runs under its own fresh epoch).
    Rollback,
    /// A hot key being salted across replica slots (degenerate
    /// migration: pause → install split view → resume, no state moves).
    Split,
    /// A split dissolving: replica partial state consolidates onto the
    /// key's primary through the full migrate machinery.
    Unsplit,
}

impl OpLabel {
    /// Stable textual name.
    pub fn as_str(&self) -> &'static str {
        match self {
            OpLabel::Rebalance => "rebalance",
            OpLabel::ScaleOut => "scale_out",
            OpLabel::ScaleIn => "scale_in",
            OpLabel::Rollback => "rollback",
            OpLabel::Split => "split",
            OpLabel::Unsplit => "unsplit",
        }
    }

    /// Parses [`OpLabel::as_str`] output back.
    pub fn from_name(s: &str) -> Option<OpLabel> {
        match s {
            "rebalance" => Some(OpLabel::Rebalance),
            "scale_out" => Some(OpLabel::ScaleOut),
            "scale_in" => Some(OpLabel::ScaleIn),
            "rollback" => Some(OpLabel::Rollback),
            "split" => Some(OpLabel::Split),
            "unsplit" => Some(OpLabel::Unsplit),
            _ => None,
        }
    }
}

/// A protocol phase inside a span, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The plan is computed / the op dequeued.
    Plan,
    /// `Pause` sent to the source; waiting for its ack.
    Pause,
    /// Markers (`MigrateOut` / `Retire`) enqueued behind the paused
    /// keys' backlogs; waiting for the drain.
    QuiesceWait,
    /// Extracted state is arriving at the controller.
    StateOut,
    /// `StateInstall` sent to the destinations; waiting for acks.
    Install,
    /// `Resume` sent to the source under the new view.
    Resume,
}

impl Phase {
    /// All phases, in protocol order.
    pub const ALL: [Phase; 6] = [
        Phase::Plan,
        Phase::Pause,
        Phase::QuiesceWait,
        Phase::StateOut,
        Phase::Install,
        Phase::Resume,
    ];

    /// Position in protocol order (0 = first).
    pub fn rank(&self) -> u8 {
        match self {
            Phase::Plan => 0,
            Phase::Pause => 1,
            Phase::QuiesceWait => 2,
            Phase::StateOut => 3,
            Phase::Install => 4,
            Phase::Resume => 5,
        }
    }

    /// Stable textual name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Pause => "pause",
            Phase::QuiesceWait => "quiesce_wait",
            Phase::StateOut => "state_out",
            Phase::Install => "install",
            Phase::Resume => "resume",
        }
    }

    /// Parses [`Phase::as_str`] output back.
    pub fn from_name(s: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.as_str() == s)
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The op ran to its `ResumeAck` (or synchronous completion).
    Completed,
    /// The op exhausted its deadline retries and was rolled back.
    Aborted,
    /// The run tore down with the op still in flight (shutdown gate).
    Abandoned,
}

impl Outcome {
    /// Stable textual name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Aborted => "aborted",
            Outcome::Abandoned => "abandoned",
        }
    }

    /// Parses [`Outcome::as_str`] output back.
    pub fn from_name(s: &str) -> Option<Outcome> {
        match s {
            "completed" => Some(Outcome::Completed),
            "aborted" => Some(Outcome::Aborted),
            "abandoned" => Some(Outcome::Abandoned),
            _ => None,
        }
    }
}

/// What happened to a provisional statistics round — the one the
/// controller opens inside an interval when the source raises a skew
/// alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EarlyStep {
    /// Provisional requests went out to the workers.
    Open,
    /// Every answer arrived and the partitioner planned a rebalance.
    Planned,
    /// Every answer arrived and the partitioner held.
    Held,
    /// Every answer arrived and a heavy hitter was split, with or
    /// without a rebalance behind it; the event carries an [`EarlySplit`].
    Split,
    /// The interval's closing round overtook it.
    Cancelled,
}

/// The inputs behind an early split, as the controller saw them.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlySplit {
    /// The raw key split.
    pub key: u64,
    /// Its share of the provisional report's cost.
    pub share: f64,
    /// Last closed round's cost ÷ the report's: what costs were scaled by.
    pub rescale: f64,
    /// Replicas installed, primary included.
    pub replicas: usize,
    /// Cost each worker had reported, by slot.
    pub loads: Vec<u64>,
    /// Whether a rebalance of the remaining keys queued behind the split.
    pub planned: bool,
}

impl EarlyStep {
    /// Stable lowercase name (used in exports).
    pub fn as_str(&self) -> &'static str {
        match self {
            EarlyStep::Open => "open",
            EarlyStep::Planned => "planned",
            EarlyStep::Held => "held",
            EarlyStep::Split => "split",
            EarlyStep::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`EarlyStep::as_str`].
    pub fn from_name(s: &str) -> Option<EarlyStep> {
        [
            EarlyStep::Open,
            EarlyStep::Planned,
            EarlyStep::Held,
            EarlyStep::Split,
            EarlyStep::Cancelled,
        ]
        .into_iter()
        .find(|step| step.as_str() == s)
    }
}

/// One trace event's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A protocol span opened (`span` = the op's epoch).
    SpanOpen {
        /// Span id: the protocol epoch.
        span: u64,
        /// What kind of operation this is.
        op: OpLabel,
    },
    /// The span entered a protocol phase.
    SpanPhase {
        /// Span id.
        span: u64,
        /// The phase entered.
        phase: Phase,
    },
    /// The span closed.
    SpanClose {
        /// Span id.
        span: u64,
        /// How it ended.
        outcome: Outcome,
    },
    /// A fault-ledger entry, mirrored into the trace (the event's `seq`
    /// is the ledger index).
    Fault {
        /// The ledger entry's `Display` rendering.
        detail: String,
    },
    /// Per-interval controller telemetry, emitted when a statistics
    /// round closes.
    Snapshot {
        /// The closed interval.
        interval: u64,
        /// Per-worker tuple loads this interval (dead slots read 0).
        loads: Vec<u64>,
        /// Per-worker queue depth (tuple-weighted channel occupancy).
        queues: Vec<u64>,
        /// Mean end-to-end latency of the interval (µs).
        mean_latency_us: f64,
        /// p99 end-to-end latency of the interval (µs).
        p99_latency_us: f64,
    },
    /// Per-interval source-side telemetry: routing-table shape and
    /// batch-buffer pool occupancy.
    RouterSnapshot {
        /// The interval just finished.
        interval: u64,
        /// Live routing-table entries (0 for table-less routers).
        table_entries: u64,
        /// Tombstone debris in the routing table's slab.
        table_tombstones: u64,
        /// Pooled batch buffers currently held by the source.
        pool_buffers: u64,
    },
    /// A worker's per-interval data-plane roll-up: the batch-granularity
    /// counters accumulated by [`ThreadRecorder::count_batch`], emitted
    /// once per interval (never per tuple).
    DataFlush {
        /// The interval the counts belong to.
        interval: u64,
        /// Tuples processed this interval.
        tuples: u64,
        /// Batches those tuples arrived in.
        batches: u64,
    },
    /// The source finished feeding an interval.
    IntervalEnd {
        /// The finished interval.
        interval: u64,
        /// Tuples fed during it.
        tuples: u64,
    },
    /// The source saw the open interval's per-destination tuple counts
    /// skewed beyond sampling noise (at a control-poll point, so batch
    /// granularity; at most once per interval).
    SkewAlert {
        /// The open interval.
        interval: u64,
        /// Tuples sent to each destination so far in it.
        sent: Vec<u64>,
    },
    /// A provisional statistics round moved on.
    EarlyRound {
        /// The open interval the round samples.
        interval: u64,
        /// What happened.
        step: EarlyStep,
        /// What decided it, for [`EarlyStep::Split`].
        split: Option<EarlySplit>,
    },
    /// A free-form structural marker.
    Mark {
        /// The marker label.
        label: String,
    },
}

/// One event: a wall-clock stamp, a per-thread sequence number, the
/// emitting thread, and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the sink's epoch (engine start). Wall clock:
    /// masked by [`TraceLog::skeleton`].
    pub at_us: u64,
    /// Per-thread monotonic sequence number (for [`ThreadLabel::Fault`]
    /// events: the fault-ledger index, so ledger order is canonical).
    pub seq: u64,
    /// The emitting thread.
    pub thread: ThreadLabel,
    /// The payload.
    pub kind: EventKind,
}

/// The shared collection point all [`ThreadRecorder`]s append to.
///
/// Created once per engine run (enabled or not); recorders are handed
/// out per thread; [`TraceSink::take_log`] merges everything after the
/// threads joined.
#[derive(Debug)]
pub struct TraceSink {
    enabled: bool,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// A recorder's local buffer flushes to the sink at this many events.
const FLUSH_CAP: usize = 64;

impl TraceSink {
    /// A new sink; `enabled = false` turns every recorder handed out
    /// into a no-op (the recorder-off arm of the overhead bench).
    pub fn new(enabled: bool) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            enabled,
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// A disabled sink — the default for contexts without an engine run
    /// (unit tests constructing workers directly).
    pub fn disabled() -> Arc<TraceSink> {
        TraceSink::new(false)
    }

    /// Whether events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the sink was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A recorder for one thread. Cheap; each thread owns its own.
    pub fn recorder(self: &Arc<Self>, thread: ThreadLabel) -> ThreadRecorder {
        ThreadRecorder {
            sink: Arc::clone(self),
            thread,
            enabled: self.enabled,
            seq: 0,
            interval: 0,
            pending_tuples: 0,
            pending_batches: 0,
            buf: Vec::new(),
        }
    }

    /// Mirrors one fault-ledger entry (`seq` = its ledger index, stamped
    /// inside the ledger lock by the caller so ledger order is the
    /// canonical order even if sink appends race).
    pub fn fault(&self, seq: u64, detail: String) {
        if !self.enabled {
            return;
        }
        let ev = TraceEvent {
            at_us: self.now_us(),
            seq,
            thread: ThreadLabel::Fault,
            kind: EventKind::Fault { detail },
        };
        self.lock_events().push(ev);
    }

    /// Takes the merged log, sorted by `(at_us, thread, seq)`. Call
    /// after every recorder-owning thread has joined (their `Drop`
    /// flushes stragglers).
    pub fn take_log(&self) -> TraceLog {
        let mut events = std::mem::take(&mut *self.lock_events());
        events.sort_by_key(|e| (e.at_us, e.thread.tid(), e.seq));
        TraceLog { events }
    }

    fn lock_events(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        // A panicked recorder thread poisons nothing we care about: the
        // vector is append-only and every element was fully written
        // before the push returned.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One thread's handle on the recorder: a local event buffer plus the
/// batch-granularity data-plane counters.
///
/// The data-plane contract (lint rule L007): hot loops call
/// [`ThreadRecorder::count_batch`] only — no per-tuple events, no
/// clock reads, no locks. Everything else (spans, snapshots, marks) is
/// control-plane rate.
#[derive(Debug)]
pub struct ThreadRecorder {
    sink: Arc<TraceSink>,
    thread: ThreadLabel,
    enabled: bool,
    seq: u64,
    /// The interval the pending counters belong to (advanced by
    /// [`ThreadRecorder::close_interval`]; used by `Drop` to label a
    /// straggler flush).
    interval: u64,
    pending_tuples: u64,
    pending_batches: u64,
    buf: Vec<TraceEvent>,
}

impl ThreadRecorder {
    /// Data-plane hook: account one batch of `tuples`. Two integer
    /// adds — no clock, no allocation, no lock.
    #[inline]
    pub fn count_batch(&mut self, tuples: u64) {
        self.pending_tuples += tuples;
        self.pending_batches += 1;
    }

    /// Closes an interval: emits one [`EventKind::DataFlush`] carrying
    /// the counters accumulated since the last close, and flushes the
    /// local buffer to the sink.
    pub fn close_interval(&mut self, interval: u64) {
        if self.pending_tuples > 0 || self.pending_batches > 0 {
            let tuples = std::mem::take(&mut self.pending_tuples);
            let batches = std::mem::take(&mut self.pending_batches);
            self.event(EventKind::DataFlush {
                interval,
                tuples,
                batches,
            });
        }
        self.interval = interval + 1;
        self.flush();
    }

    /// Opens a protocol span (id = the op's epoch).
    pub fn span_open(&mut self, span: u64, op: OpLabel) {
        self.event(EventKind::SpanOpen { span, op });
    }

    /// Marks a span entering `phase`.
    pub fn span_phase(&mut self, span: u64, phase: Phase) {
        self.event(EventKind::SpanPhase { span, phase });
    }

    /// Closes a span.
    pub fn span_close(&mut self, span: u64, outcome: Outcome) {
        self.event(EventKind::SpanClose { span, outcome });
    }

    /// Emits a controller telemetry snapshot for a closed interval.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &mut self,
        interval: u64,
        loads: Vec<u64>,
        queues: Vec<u64>,
        mean_latency_us: f64,
        p99_latency_us: f64,
    ) {
        self.event(EventKind::Snapshot {
            interval,
            loads,
            queues,
            mean_latency_us,
            p99_latency_us,
        });
    }

    /// Emits a source-side router/pool snapshot.
    pub fn router_snapshot(
        &mut self,
        interval: u64,
        table_entries: u64,
        table_tombstones: u64,
        pool_buffers: u64,
    ) {
        self.event(EventKind::RouterSnapshot {
            interval,
            table_entries,
            table_tombstones,
            pool_buffers,
        });
    }

    /// Emits the source's end-of-interval event.
    pub fn interval_end(&mut self, interval: u64, tuples: u64) {
        self.event(EventKind::IntervalEnd { interval, tuples });
    }

    /// Emits the source's skew alert for the open interval.
    pub fn skew_alert(&mut self, interval: u64, sent: Vec<u64>) {
        self.event(EventKind::SkewAlert { interval, sent });
    }

    /// Marks a provisional statistics round moving on.
    pub fn early_round(&mut self, interval: u64, step: EarlyStep) {
        self.event(EventKind::EarlyRound {
            interval,
            step,
            split: None,
        });
    }

    /// Marks a provisional statistics round ending in a split.
    pub fn early_split(&mut self, interval: u64, split: EarlySplit) {
        self.event(EventKind::EarlyRound {
            interval,
            step: EarlyStep::Split,
            split: Some(split),
        });
    }

    /// Emits a free-form marker.
    pub fn mark(&mut self, label: impl Into<String>) {
        self.event(EventKind::Mark {
            label: label.into(),
        });
    }

    fn event(&mut self, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let at_us = self.sink.now_us();
        let seq = self.seq;
        self.seq += 1;
        self.buf.push(TraceEvent {
            at_us,
            seq,
            thread: self.thread,
            kind,
        });
        if self.buf.len() >= FLUSH_CAP {
            self.flush();
        }
    }

    /// Pushes the local buffer to the sink.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.sink.lock_events().append(&mut self.buf);
    }
}

impl Drop for ThreadRecorder {
    fn drop(&mut self) {
        // A killed worker's partial interval still gets its roll-up
        // (the counts cover only tuples fully processed before the
        // death marker, which FIFO makes deterministic).
        if self.enabled && (self.pending_tuples > 0 || self.pending_batches > 0) {
            let interval = self.interval;
            let tuples = std::mem::take(&mut self.pending_tuples);
            let batches = std::mem::take(&mut self.pending_batches);
            self.event(EventKind::DataFlush {
                interval,
                tuples,
                batches,
            });
        }
        self.flush();
    }
}

/// A finished span, reconstructed from the log: open/close stamps plus
/// phase entry stamps.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    /// Span id (the protocol epoch).
    pub span: u64,
    /// The op kind.
    pub op: OpLabel,
    /// How it closed (`None` when the log has no close — an integrity
    /// violation [`TraceLog::check_integrity`] reports).
    pub outcome: Option<Outcome>,
    /// Open stamp (µs since engine start).
    pub open_us: u64,
    /// Close stamp; equals `open_us` when no close was recorded.
    pub close_us: u64,
    /// Phase entry stamps, in log order.
    pub phases: Vec<(Phase, u64)>,
}

impl SpanSummary {
    /// The span's total disruption window (µs).
    pub fn disruption_us(&self) -> u64 {
        self.close_us.saturating_sub(self.open_us)
    }

    /// Per-phase durations: each phase runs from its entry stamp to the
    /// next phase's entry (or the close).
    pub fn phase_durations(&self) -> Vec<(Phase, u64)> {
        let mut out = Vec::with_capacity(self.phases.len());
        for (i, &(phase, at)) in self.phases.iter().enumerate() {
            let end = self
                .phases
                .get(i + 1)
                .map(|&(_, next)| next)
                .unwrap_or(self.close_us);
            out.push((phase, end.saturating_sub(at)));
        }
        out
    }
}

/// The merged, time-ordered event stream of one engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Events sorted by `(at_us, thread, seq)`.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// The deterministic projection of the trace: every structural field
    /// (span ids, phases, outcomes, fault ledger entries by index,
    /// interval indices, per-interval tuple counts) with wall-clock
    /// stamps and timing-dependent telemetry numbers masked, as a
    /// *sorted* multiset of strings — cross-thread interleaving is
    /// timing, so order across threads is not part of the contract.
    /// Seeded runs produce equal skeletons (asserted like the fault
    /// ledger).
    ///
    /// Masked besides timestamps: [`EventKind::DataFlush`] events
    /// entirely — both their cadence (occupancy-driven: a flush fires
    /// on `FLUSH_CAP` batches or interval close, whichever lands first)
    /// and their interval attribution (tuples routed to a worker around
    /// a kill or interval boundary land where the races fall) are wall
    /// clock in disguise; the deterministic per-interval totals live in
    /// the source's [`EventKind::IntervalEnd`]. Likewise all numeric
    /// telemetry in [`EventKind::Snapshot`] / [`EventKind::RouterSnapshot`]
    /// (load split across racing rebalances), and
    /// [`EventKind::SkewAlert`] / [`EventKind::EarlyRound`] entirely:
    /// whether the source's counts trip the alert depends on which view
    /// it routed the interval's first tuples under, i.e. on when the last
    /// `Resume` reached it.
    pub fn skeleton(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    EventKind::DataFlush { .. }
                        | EventKind::SkewAlert { .. }
                        | EventKind::EarlyRound { .. }
                )
            })
            .map(|e| match &e.kind {
                EventKind::SpanOpen { span, op } => {
                    format!("span {span} open {}", op.as_str())
                }
                EventKind::SpanPhase { span, phase } => {
                    format!("span {span} phase {}", phase.as_str())
                }
                EventKind::SpanClose { span, outcome } => {
                    format!("span {span} close {}", outcome.as_str())
                }
                EventKind::Fault { detail } => format!("fault {} {detail}", e.seq),
                EventKind::Snapshot { interval, .. } => format!("snapshot {interval}"),
                EventKind::RouterSnapshot { interval, .. } => format!("router {interval}"),
                // Filtered above; unreachable but kept total for match.
                EventKind::DataFlush { .. }
                | EventKind::SkewAlert { .. }
                | EventKind::EarlyRound { .. } => String::new(),
                EventKind::IntervalEnd { interval, tuples } => {
                    format!("interval {interval} end {tuples}")
                }
                EventKind::Mark { label } => format!("mark {} {label}", e.thread.name()),
            })
            .collect();
        out.sort();
        out
    }

    /// Validates the span lifecycle: every span id is opened exactly
    /// once (before any of its other events), closed exactly once (after
    /// all of them), and its phases' first entries respect protocol
    /// order. Returns a list of problems; empty = clean.
    pub fn check_integrity(&self) -> Vec<String> {
        use std::collections::BTreeMap;
        #[derive(Default)]
        struct Acc {
            opens: u32,
            closes: u32,
            /// Events in log order: 0 = open, 1 = phase, 2 = close.
            order: Vec<(u8, Option<Phase>)>,
        }
        let mut spans: BTreeMap<u64, Acc> = BTreeMap::new();
        for e in &self.events {
            match &e.kind {
                EventKind::SpanOpen { span, .. } => {
                    let a = spans.entry(*span).or_default();
                    a.opens += 1;
                    a.order.push((0, None));
                }
                EventKind::SpanPhase { span, phase } => {
                    spans
                        .entry(*span)
                        .or_default()
                        .order
                        .push((1, Some(*phase)));
                }
                EventKind::SpanClose { span, .. } => {
                    let a = spans.entry(*span).or_default();
                    a.closes += 1;
                    a.order.push((2, None));
                }
                _ => {}
            }
        }
        let mut problems = Vec::new();
        for (span, a) in &spans {
            if a.opens != 1 {
                problems.push(format!("span {span}: opened {} times (want 1)", a.opens));
            }
            if a.closes != 1 {
                problems.push(format!("span {span}: closed {} times (want 1)", a.closes));
            }
            if a.order.first().map(|&(t, _)| t) != Some(0) {
                problems.push(format!("span {span}: first event is not its open"));
            }
            if a.order.last().map(|&(t, _)| t) != Some(2) {
                problems.push(format!("span {span}: last event is not its close"));
            }
            let mut last_rank: Option<u8> = None;
            for (t, phase) in &a.order {
                if *t != 1 {
                    continue;
                }
                let Some(p) = phase else { continue };
                let r = p.rank();
                if let Some(prev) = last_rank {
                    if r <= prev {
                        problems.push(format!(
                            "span {span}: phase {} out of protocol order",
                            p.as_str()
                        ));
                    }
                }
                last_rank = Some(r);
            }
        }
        problems
    }

    /// Reconstructs one [`SpanSummary`] per span id, in span-id order.
    pub fn span_summaries(&self) -> Vec<SpanSummary> {
        use std::collections::BTreeMap;
        let mut spans: BTreeMap<u64, SpanSummary> = BTreeMap::new();
        for e in &self.events {
            match &e.kind {
                EventKind::SpanOpen { span, op } => {
                    let s = spans.entry(*span).or_insert(SpanSummary {
                        span: *span,
                        op: *op,
                        outcome: None,
                        open_us: e.at_us,
                        close_us: e.at_us,
                        phases: Vec::new(),
                    });
                    s.op = *op;
                    s.open_us = e.at_us;
                    if s.close_us < s.open_us {
                        s.close_us = s.open_us;
                    }
                }
                EventKind::SpanPhase { span, phase } => {
                    if let Some(s) = spans.get_mut(span) {
                        s.phases.push((*phase, e.at_us));
                    }
                }
                EventKind::SpanClose { span, outcome } => {
                    if let Some(s) = spans.get_mut(span) {
                        s.outcome = Some(*outcome);
                        s.close_us = e.at_us;
                    }
                }
                _ => {}
            }
        }
        spans.into_values().collect()
    }

    /// Exports one JSON object per line (the `tracecat` input format).
    ///
    /// Schema per line: `at_us`, `seq`, `thread` (a
    /// [`ThreadLabel::name`] string), `kind` (a discriminator string),
    /// plus the kind's own fields. Non-finite floats render as `null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"at_us\":{},\"seq\":{},\"thread\":\"{}\",",
                e.at_us,
                e.seq,
                e.thread.name()
            );
            match &e.kind {
                EventKind::SpanOpen { span, op } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"span_open\",\"span\":{span},\"op\":\"{}\"",
                        op.as_str()
                    );
                }
                EventKind::SpanPhase { span, phase } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"span_phase\",\"span\":{span},\"phase\":\"{}\"",
                        phase.as_str()
                    );
                }
                EventKind::SpanClose { span, outcome } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"span_close\",\"span\":{span},\"outcome\":\"{}\"",
                        outcome.as_str()
                    );
                }
                EventKind::Fault { detail } => {
                    let _ = write!(out, "\"kind\":\"fault\",\"detail\":\"{}\"", esc(detail));
                }
                EventKind::Snapshot {
                    interval,
                    loads,
                    queues,
                    mean_latency_us,
                    p99_latency_us,
                } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"snapshot\",\"interval\":{interval},\"loads\":{},\"queues\":{},\
                         \"mean_latency_us\":{},\"p99_latency_us\":{}",
                        int_arr(loads),
                        int_arr(queues),
                        fnum(*mean_latency_us),
                        fnum(*p99_latency_us)
                    );
                }
                EventKind::RouterSnapshot {
                    interval,
                    table_entries,
                    table_tombstones,
                    pool_buffers,
                } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"router_snapshot\",\"interval\":{interval},\
                         \"table_entries\":{table_entries},\"table_tombstones\":{table_tombstones},\
                         \"pool_buffers\":{pool_buffers}"
                    );
                }
                EventKind::DataFlush {
                    interval,
                    tuples,
                    batches,
                } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"data_flush\",\"interval\":{interval},\"tuples\":{tuples},\
                         \"batches\":{batches}"
                    );
                }
                EventKind::IntervalEnd { interval, tuples } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"interval_end\",\"interval\":{interval},\"tuples\":{tuples}"
                    );
                }
                EventKind::Mark { label } => {
                    let _ = write!(out, "\"kind\":\"mark\",\"label\":\"{}\"", esc(label));
                }
                EventKind::SkewAlert { interval, sent } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"skew_alert\",\"interval\":{interval},\"sent\":{}",
                        int_arr(sent)
                    );
                }
                EventKind::EarlyRound {
                    interval,
                    step,
                    split,
                } => {
                    let _ = write!(
                        out,
                        "\"kind\":\"early_round\",\"interval\":{interval},\"step\":\"{}\"",
                        step.as_str()
                    );
                    if let Some(s) = split {
                        let (share, rescale) = (fnum(s.share), fnum(s.rescale));
                        let (loads, key, replicas, planned) =
                            (int_arr(&s.loads), s.key, s.replicas, s.planned);
                        let _ = write!(
                            out,
                            ",\"key\":{key},\"share\":{share},\"rescale\":{rescale},\
                             \"replicas\":{replicas},\"loads\":{loads},\"planned\":{planned}"
                        );
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Exports Chrome `trace_event` JSON (open in `chrome://tracing` or
    /// Perfetto): spans as async `b`/`e` pairs keyed by span id, phases
    /// and faults as instants, snapshots as counter tracks.
    pub fn to_chrome_json(&self) -> String {
        let mut evs: Vec<String> = Vec::with_capacity(self.events.len() * 2);
        let meta = |tid: u64, name: &str| {
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )
        };
        let mut seen_threads: Vec<ThreadLabel> = Vec::new();
        for e in &self.events {
            if !seen_threads.contains(&e.thread) {
                seen_threads.push(e.thread);
                evs.push(meta(e.thread.tid(), &e.thread.name()));
            }
            let tid = e.thread.tid();
            let ts = e.at_us;
            match &e.kind {
                EventKind::SpanOpen { span, op } => evs.push(format!(
                    "{{\"ph\":\"b\",\"cat\":\"protocol\",\"id\":{span},\"name\":\"{}\",\
                     \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                    op.as_str()
                )),
                EventKind::SpanClose { span, outcome } => evs.push(format!(
                    "{{\"ph\":\"e\",\"cat\":\"protocol\",\"id\":{span},\"name\":\"span\",\
                     \"ts\":{ts},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"outcome\":\"{}\"}}}}",
                    outcome.as_str()
                )),
                EventKind::SpanPhase { span, phase } => evs.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"p\",\"cat\":\"protocol\",\
                     \"name\":\"{}#{span}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                    phase.as_str()
                )),
                EventKind::Fault { detail } => evs.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"g\",\"cat\":\"fault\",\"name\":\"{}\",\
                     \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                    esc(detail)
                )),
                EventKind::Snapshot {
                    loads,
                    queues,
                    p99_latency_us,
                    ..
                } => {
                    let args = |xs: &[u64]| {
                        let mut s = String::new();
                        for (i, x) in xs.iter().enumerate() {
                            if i > 0 {
                                s.push(',');
                            }
                            let _ = write!(s, "\"w{i}\":{x}");
                        }
                        s
                    };
                    evs.push(format!(
                        "{{\"ph\":\"C\",\"name\":\"load\",\"ts\":{ts},\"pid\":1,\
                         \"args\":{{{}}}}}",
                        args(loads)
                    ));
                    evs.push(format!(
                        "{{\"ph\":\"C\",\"name\":\"queue\",\"ts\":{ts},\"pid\":1,\
                         \"args\":{{{}}}}}",
                        args(queues)
                    ));
                    evs.push(format!(
                        "{{\"ph\":\"C\",\"name\":\"p99_latency_us\",\"ts\":{ts},\"pid\":1,\
                         \"args\":{{\"p99\":{}}}}}",
                        fnum(*p99_latency_us)
                    ));
                }
                EventKind::RouterSnapshot {
                    table_entries,
                    table_tombstones,
                    pool_buffers,
                    ..
                } => evs.push(format!(
                    "{{\"ph\":\"C\",\"name\":\"router\",\"ts\":{ts},\"pid\":1,\
                     \"args\":{{\"entries\":{table_entries},\"tombstones\":{table_tombstones},\
                     \"pool\":{pool_buffers}}}}}"
                )),
                EventKind::DataFlush {
                    interval,
                    tuples,
                    batches,
                } => evs.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"data\",\
                     \"name\":\"flush#{interval}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"tuples\":{tuples},\"batches\":{batches}}}}}"
                )),
                EventKind::IntervalEnd { interval, tuples } => evs.push(format!(
                    "{{\"ph\":\"C\",\"name\":\"interval_tuples\",\"ts\":{ts},\"pid\":1,\
                     \"args\":{{\"tuples\":{tuples},\"interval\":{interval}}}}}"
                )),
                EventKind::Mark { label } => evs.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"g\",\"cat\":\"mark\",\"name\":\"{}\",\
                     \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                    esc(label)
                )),
                EventKind::SkewAlert { interval, .. } => evs.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"early\",\
                     \"name\":\"skew_alert#{interval}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}"
                )),
                EventKind::EarlyRound { interval, step, .. } => evs.push(format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"early\",\
                     \"name\":\"early_round#{interval} {}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                    step.as_str()
                )),
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in evs.iter().enumerate() {
            out.push_str(e);
            if i + 1 < evs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Renders a `u64` slice as a JSON array.
fn int_arr(xs: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
    s
}

/// Renders a float as JSON: shortest round-trip form, `null` for
/// non-finite (JSON has no NaN/∞).
fn fnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        let sink = TraceSink::new(true);
        let mut ctl = sink.recorder(ThreadLabel::Controller);
        let mut w0 = sink.recorder(ThreadLabel::Worker(0));
        let mut src = sink.recorder(ThreadLabel::Source);

        src.interval_end(0, 100);
        w0.count_batch(60);
        w0.count_batch(40);
        w0.close_interval(0);
        ctl.span_open(1, OpLabel::Rebalance);
        ctl.span_phase(1, Phase::Pause);
        ctl.span_phase(1, Phase::Install);
        ctl.span_phase(1, Phase::Resume);
        ctl.span_close(1, Outcome::Completed);
        ctl.snapshot(0, vec![100, 0], vec![3, 0], 12.5, 40.0);
        src.router_snapshot(0, 7, 1, 4);
        ctl.mark("teardown");
        sink.fault(0, "injected kill: worker 1".to_string());
        drop((ctl, w0, src));
        sink.take_log()
    }

    #[test]
    fn recorder_batches_and_flushes_on_drop() {
        let sink = TraceSink::new(true);
        let mut w = sink.recorder(ThreadLabel::Worker(3));
        w.count_batch(10);
        w.count_batch(5);
        // Nothing reaches the sink before an interval close or drop.
        assert!(sink.lock_events().is_empty());
        drop(w);
        let log = sink.take_log();
        assert_eq!(log.events.len(), 1);
        assert_eq!(
            log.events[0].kind,
            EventKind::DataFlush {
                interval: 0,
                tuples: 15,
                batches: 2
            }
        );
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        let mut w = sink.recorder(ThreadLabel::Worker(0));
        w.count_batch(10);
        w.close_interval(0);
        w.span_open(1, OpLabel::Rebalance);
        sink.fault(0, "x".to_string());
        drop(w);
        assert!(sink.take_log().events.is_empty());
    }

    #[test]
    fn skeleton_masks_wall_clock_but_keeps_structure() {
        let sk = sample_log().skeleton();
        assert!(sk.contains(&"span 1 open rebalance".to_string()));
        assert!(sk.contains(&"span 1 phase pause".to_string()));
        assert!(sk.contains(&"span 1 close completed".to_string()));
        // DataFlush is masked entirely: flush cadence and interval
        // attribution are channel-occupancy artifacts, not structure.
        assert!(!sk.iter().any(|s| s.starts_with("flush")));
        assert!(sk.contains(&"interval 0 end 100".to_string()));
        assert!(sk.contains(&"snapshot 0".to_string()));
        assert!(sk.contains(&"router 0".to_string()));
        assert!(sk.contains(&"fault 0 injected kill: worker 1".to_string()));
        // Sorted multiset: identical regardless of emission interleaving.
        let mut sorted = sk.clone();
        sorted.sort();
        assert_eq!(sk, sorted);
    }

    #[test]
    fn integrity_accepts_well_formed_spans() {
        assert_eq!(sample_log().check_integrity(), Vec::<String>::new());
    }

    #[test]
    fn integrity_rejects_double_open_missing_close_and_phase_disorder() {
        let sink = TraceSink::new(true);
        let mut ctl = sink.recorder(ThreadLabel::Controller);
        ctl.span_open(1, OpLabel::Rebalance);
        ctl.span_open(1, OpLabel::Rebalance);
        ctl.span_open(2, OpLabel::ScaleIn);
        ctl.span_phase(2, Phase::Install);
        ctl.span_phase(2, Phase::Pause);
        ctl.span_close(2, Outcome::Completed);
        drop(ctl);
        let problems = sink.take_log().check_integrity();
        assert!(problems
            .iter()
            .any(|p| p.contains("span 1") && p.contains("opened 2")));
        assert!(problems
            .iter()
            .any(|p| p.contains("span 1") && p.contains("closed 0")));
        assert!(problems
            .iter()
            .any(|p| p.contains("span 2") && p.contains("out of protocol order")));
    }

    #[test]
    fn span_summaries_compute_phase_durations() {
        let spans = sample_log().span_summaries();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.span, 1);
        assert_eq!(s.op, OpLabel::Rebalance);
        assert_eq!(s.outcome, Some(Outcome::Completed));
        assert!(s.close_us >= s.open_us);
        let phases: Vec<Phase> = s.phase_durations().iter().map(|&(p, _)| p).collect();
        assert_eq!(phases, vec![Phase::Pause, Phase::Install, Phase::Resume]);
    }

    #[test]
    fn jsonl_lines_carry_the_schema() {
        let jsonl = sample_log().to_jsonl();
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"at_us\":"), "{line}");
            assert!(line.contains("\"thread\":"), "{line}");
            assert!(line.contains("\"kind\":"), "{line}");
        }
        assert!(jsonl.contains("\"kind\":\"span_open\""));
        assert!(jsonl.contains("\"kind\":\"data_flush\""));
        assert!(jsonl.contains("\"kind\":\"fault\""));
        assert!(jsonl.contains("\"loads\":[100,0]"));
    }

    #[test]
    fn chrome_export_pairs_span_begin_end() {
        let chrome = sample_log().to_chrome_json();
        assert!(chrome.starts_with("{\"displayTimeUnit\""));
        assert_eq!(chrome.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(chrome.matches("\"ph\":\"e\"").count(), 1);
        assert!(chrome.contains("\"ph\":\"C\""), "counter tracks present");
        assert!(
            chrome.contains("\"thread_name\""),
            "thread metadata present"
        );
    }

    #[test]
    fn names_round_trip() {
        for t in [
            ThreadLabel::Source,
            ThreadLabel::Controller,
            ThreadLabel::Collector,
            ThreadLabel::Fault,
            ThreadLabel::Worker(7),
        ] {
            assert_eq!(ThreadLabel::from_name(&t.name()), Some(t));
        }
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.as_str()), Some(p));
        }
        for o in [Outcome::Completed, Outcome::Aborted, Outcome::Abandoned] {
            assert_eq!(Outcome::from_name(o.as_str()), Some(o));
        }
        for op in [
            OpLabel::Rebalance,
            OpLabel::ScaleOut,
            OpLabel::ScaleIn,
            OpLabel::Rollback,
            OpLabel::Split,
            OpLabel::Unsplit,
        ] {
            assert_eq!(OpLabel::from_name(op.as_str()), Some(op));
        }
    }

    #[test]
    fn merged_log_sorts_by_time_then_thread() {
        let log = sample_log();
        for w in log.events.windows(2) {
            assert!(
                (w[0].at_us, w[0].thread.tid(), w[0].seq)
                    <= (w[1].at_us, w[1].thread.tid(), w[1].seq)
            );
        }
    }
}
