//! # streambal-runtime
//!
//! A thread-based mini stream-processing engine — the workspace's
//! substitute for the Apache Storm deployment the paper evaluates on.
//!
//! ## Shape
//!
//! ```text
//!  Source thread ──(bounded channels: backpressure)──▶ Worker threads (keyed, stateful)
//!       ▲   │                                              │        │
//!       │   └───────────── interval markers ───────────────┼──▶ Collector thread
//!       │                                                  │     (merge / aggregate)
//!  Controller (Fig. 5 protocol) ◀───── events ─────────────┘
//! ```
//!
//! * The **source** pulls tuples from a feeder closure, stamps them, and
//!   routes them with a local [`SourceRouter`] snapshot — the "tuples
//!   router" of Fig. 5. The data plane is *batched*: every
//!   `batch_size` tuples are routed with one `route_batch` call,
//!   scattered into per-destination buffers, and shipped as one
//!   [`Message::TupleBatch`] per destination touched, so a channel
//!   operation is paid per batch, not per tuple. Batch buffers are
//!   pooled — workers and the collector return drained `Vec<Tuple>`s to
//!   the source over a recycle channel, so the steady state allocates
//!   nothing per batch.
//! * **Workers** are downstream task instances: one thread per instance,
//!   one bounded input channel each (full channel = backpressure, the
//!   "backpushing effect" of the paper's Fig. 1 — now at batch
//!   granularity). They run an [`Operator`], keep windowed per-key state,
//!   and account per-key statistics, draining a whole batch per channel
//!   operation: one shared-counter `add(n)`, one latency clock read, and
//!   one batch-local statistics merge per batch.
//! * The **controller** implements the paper's rebalance workflow
//!   (Fig. 5): ① collect per-interval statistics; ② run the partitioner's
//!   rebalance; ③④ broadcast the plan and pause affected keys at the
//!   source (which buffers them); ⑤ migrate key state between workers via
//!   in-band messages; ⑥ collect acks; ⑦ resume with the new routing
//!   table. Tuples of unaffected keys keep flowing throughout.
//!
//! In-band delivery over FIFO channels gives exactly-once state movement,
//! and the argument survives batching unchanged because batches and
//! markers share the same FIFO channel: a `MigrateOut` marker is enqueued
//! only after the source acknowledged the pause, and the source only
//! acknowledges between routed batches — when every per-destination
//! accumulator has been flushed — so the marker lands *behind* every
//! batch containing pre-pause tuples, and a worker drains those batches
//! whole before extracting state. Likewise `Resume` is sent only after
//! the destination acknowledged installation, so post-resume batches land
//! behind the installed state; and the controller ships `Shutdown` only
//! after the source's `ResumeAck` confirms the pause-buffer flush
//! batches are already enqueued ahead of it.
//!
//! CPU saturation is emulated by `spin_work` busy-iterations per tuple,
//! mirroring the paper's "controlling the latency on tuple processing to
//! force the system to a saturation point".
//!
//! ## One protocol op
//!
//! Every control operation is the same walk — the paper's rebalance
//! workflow — with a different pause scope and a different state
//! source. The controller ([`engine`] wires it; the state machine is
//! the crate-private `controller::Controller`) holds one `ProtocolOp`
//! in flight and a FIFO queue behind it, so state placement advances
//! one routing-function delta at a time. The phases are the ones the
//! flight recorder names; the columns are the op's span label:
//!
//! | phase | `rebalance` | `scale_out` | `scale_in` | `split` | `unsplit` |
//! |---|---|---|---|---|---|
//! | **plan** (decision time: the partitioner mutates, the op captures the resulting view) | `end_interval` returned a plan — on an interval's closing statistics, or on a *provisional round*'s (next section) | `scale_out_plan`: a worker is spawned on the tail slot; the plan names the live keys that follow the grown ring, with their holders | `scale_in` on the highest-numbered task | `split_key` over the chosen replica slots | `unsplit_key` back onto the primary |
//! | **pause** (source holds back…) | the keys in Δ(F, F′) | the moved keys | everything routed to the victim | the key | the key |
//! | **quiesce → state_out** (after `PauseAck`, behind every pre-pause batch) | `MigrateOut` to each holder | `MigrateOut` to each holder | `Retire` to the victim: it drains its backlog and hands back *all* its state, its totals, and its channel receiver (`Retired`) | nothing to extract | `MigrateOut` to each live non-primary replica |
//! | **install** (`StateInstall`, acked) | at the plan's destinations | on the new worker | wherever each key routes under the op's view | — | on the primary (`install` merges additively) |
//! | **resume** (source adopts the view, flushes its pause buffer, acks) | the rebalance delta, or a full view | the grown view | the shrunk view | the split view | the consolidated view |
//! | `migrated_bytes` billed | up front, from the plan's estimate | from the blobs extracted | — | — | from the blobs extracted |
//!
//! An empty pre-placement plan (shuffle, PKG: no state to move) skips
//! the op and publishes the grown view directly. Anywhere a destination
//! has died since it was chosen, the blob is diverted to the next live
//! slot. A phase showing no progress for
//! `EngineConfig::op_deadline{,_intervals}` is re-driven once (markers
//! are idempotent — workers, source and controller absorb duplicates by
//! epoch), then the op is **aborted**: a key-scoped op rolls its keys'
//! routing back to their origins and re-installs the state still in the
//! controller's hand there (its own `rollback` span); an aborted
//! `scale_in` resumes under the shrunk view and leaves the victim a
//! routed-around zombie that drains at shutdown. A late answer on a
//! closed epoch is absorbed and its blobs re-homed under the current
//! view — never dropped. Resumes are retried forever.
//!
//! The FIFO argument above covers every column: the extraction marker
//! lands behind every pre-pause batch, and `Resume` goes out only after
//! the install acks, so a key's tuples reach its new home only after its
//! state did — which is also why a scaled-out worker takes its keys'
//! traffic in the decision interval itself instead of idling until a
//! later rebalance. A split moves no state, but its pause window still
//! makes the view swap atomic: every tuple routed under the unsplit
//! view is in the primary's channel before any replica-routed tuple is
//! sent. A retired slot's channel survives (the receiver travels back
//! in `Retired`), so a later scale-out can re-provision the same slot
//! mid-run.
//!
//! ## Provisional rounds
//!
//! A plan made when an interval closes serves the *next* interval, and
//! a fluctuating stream can move its hot keys in between: the interval
//! then runs whole under a plan made for another distribution. So the
//! source also watches the open interval. It counts the tuples it has
//! sent each destination (per batch, where it already knows the batch's
//! weight) and, at its control-poll points, tests the counts with
//! `streambal_core::skew_alert` — imbalance beyond a constant floor by
//! three sigmas of the sampling noise — once it has sent an eighth of
//! the interval under one view, in the first half of the interval, at
//! most once per interval and never under a pause. A `SkewAlert` that
//! finds the control plane idle (no op in flight or queued, no dead
//! slot) makes the controller send every worker a `StatsPeek` marker;
//! each answers with a **copy** of its statistics so far and changes
//! nothing else — no `Operator::flush`, no window eviction, no interval
//! advance, accumulators not reset. The merged copies go to
//! `Partitioner::end_interval` marked provisional
//! (`IntervalStats::is_provisional`), and a plan that comes back is an
//! ordinary `rebalance` op, walked like any other. Ahead of it the
//! copies pass the split stage of `streambal_elastic::RoundDecisions`
//! in its provisional mode (DESIGN.md §6): a key heavier than `Lmax` on
//! its own, which no plan of whole keys can place, is put to a clone of
//! the split policy at whole-interval scale, and a `Split` verdict
//! queues an ordinary `split` op in front of the rebalance. Everything
//! else — the elasticity policy, an unsplit, `Snapshot` events, the
//! statistics ledger — sees whole intervals only. The interval's closing
//! round cancels a provisional
//! round still waiting (late answers are copies: dropped, not errors),
//! and `StatsWindow` lets the closing report *supersede* the provisional
//! one, so everything decided after the interval closes is decided on
//! exactly the statistics a run without the alert would have had.
//!
//! **Why an arbitrary cut point is safe.** Nothing in the FIFO argument
//! above refers to interval boundaries: it orders each batch against
//! each marker on one channel. The `StatsPeek` markers are enqueued by
//! the controller at one instant, so the copies are a consistent cut —
//! each worker reports exactly the tuples the source had sent it by
//! then — but even that is only plan *quality*: whatever the statistics
//! say, the op that follows pauses its keys at the source, extracts
//! behind every pre-pause batch and resumes behind the installs, so
//! state and tuples cannot cross wherever in the interval it runs. Per
//! key the interval's closing report is still complete: a key moved
//! mid-interval is reported in part by its old holder and in part by its
//! new one, and the controller's merge adds the parts.
//!
//! ## Elasticity and hot-key splitting
//!
//! After every statistics round the controller pulls the round's
//! decisions from `streambal_elastic::RoundDecisions` — the
//! `ElasticityPolicy` (observing per-task loads, tuple-weighted queue
//! depth sampled at interval close, and the interval's mean/p99
//! latency), then the `SplitPolicy` (per-key costs and the current split
//! set) — and queues one op per executed decision; the simulator pulls
//! from the same code. Migration and scale-out move *whole keys*;
//! neither helps when a single key's load exceeds one worker's
//! capacity, which is what splitting is for: `split_key` salts the key
//! across `R` replica slots, each accumulating an independent *partial*
//! state, and `unsplit_key` consolidates them.
//!
//! **Replica/merge consistency argument.** The migration protocol's
//! per-key argument relies on each key having *one* home per epoch and
//! FIFO order on that one channel. A split key deliberately breaks the
//! single-home premise, and consistency is re-established one level
//! down: per replica, FIFO still orders every batch against every
//! marker (each replica's partial is exact for the tuples it saw), and
//! the key's total is recovered by a commutative, associative fold over
//! replica partials — at the merge stage ([`merge::MergeStage`], the
//! second operator of the two-stage pipeline) for partial-emission
//! runs, or at shutdown when `EngineReport::final_states` merges blobs
//! per key. Because the fold is order-insensitive, replica cursors
//! need no coordination (holders may rotate out of phase) and a replica
//! killed mid-split costs exactly the tuples it held — counted per key
//! in `lost_tuples` — so the accounting invariant
//! `fed == observed + lost` holds *after the merge* across splits,
//! unsplits, and mid-split kills, for every partitioner.
//!
//! ## Failure model
//!
//! The engine tolerates — and accounts for — three fault classes,
//! exercised deterministically by a seeded [`FaultPlan`] threaded
//! through [`EngineConfig`] (module [`fault`]):
//!
//! * **Worker crashes** (`KillWorker`, `KillOnMigrateOut`,
//!   `KillOnInstall`): a worker thread exits mid-run, possibly holding
//!   un-extracted state or an in-flight `StateInstall`. The controller
//!   detects the death (`Killed` event), marks the slot dead, re-routes
//!   its keys to the next live slot, and continuously drains the dead
//!   slot's channel so neither the source nor the controller can block
//!   on its bounded capacity. State that died with the worker is *lost,
//!   not leaked*: every tuple it absorbed is tallied per key in
//!   `EngineReport::lost_tuples`, so the accounting invariant
//!   `fed == observed + lost` holds for every key on every run. A dead
//!   slot stays revivable — a later scale-out re-provisions it.
//! * **Lost control messages** (`DropCtl`): pause/resume/migrate/stats
//!   markers are dropped at injection points. Every in-flight protocol
//!   op carries a deadline (wall clock ∧ interval clock, see
//!   `EngineConfig::op_deadline{,_intervals}`): first expiry re-drives
//!   the stuck phase (markers are idempotent — workers, source, and
//!   controller absorb duplicates by epoch), second expiry **aborts
//!   with rollback**: routing reverts to each key's origin, state still
//!   in the controller's hand is re-installed under a fresh pre-closed
//!   epoch, and a victim's *late* `StateOut`/`Retired` on the closed
//!   epoch is absorbed and its blobs re-homed under the current view —
//!   never dropped. Statistics rounds have their own deadline
//!   (`round_deadline{,_intervals}`); an expired round closes over the
//!   missing workers and is ledgered as `RoundTimedOut`.
//! * **Stalls** (`StallWorker`): a worker sleeps mid-interval. Nothing
//!   is lost; the op-deadline machinery above decides whether to wait,
//!   re-drive, or roll back.
//!
//! Every detection, retry, abort, re-route, and absorption is recorded
//! in order in the `EngineReport::faults` ledger ([`FaultEvent`]), so a
//! run with a given seed is *replayable*: same plan, same ledger. The
//! chaos suite (`tests/chaos.rs`) asserts exactly that, plus the per-key
//! accounting invariant, across all eight partitioners; the chaos bench
//! (`benches/chaos.rs`) prices the degradation (lost tuples, degraded
//! window, rollback overhead) into `bench_results/chaos.json`.
//!
//! ## Flight recorder
//!
//! Every run carries an always-on structured trace
//! (`EngineConfig::trace`, default on; crate `streambal-trace`). Each
//! thread owns a lock-free `ThreadRecorder`: the **data plane records
//! nothing per tuple** — workers add to two local counters per batch
//! and roll them into one `DataFlush` event per interval; spans,
//! snapshots, and marks are control-plane-only. What lands in
//! `EngineReport::trace` (a merged, time-ordered `TraceLog`):
//!
//! * **Protocol spans**, one per op, id = the op's epoch, labelled
//!   `rebalance` / `scale_out` / `scale_in` / `rollback` and decomposed
//!   into phases `plan → pause → quiesce_wait → state_out → install →
//!   resume`. A span closes `completed` at its `ResumeAck`, `aborted`
//!   at a deadline abort, `abandoned` if teardown outran it — exactly
//!   once, which `TraceLog::check_integrity` enforces.
//! * **Telemetry snapshots** per statistics round: per-worker loads,
//!   queue depths (tuple-weighted channel occupancy), mean/p99 interval
//!   latency — plus per-interval `RouterSnapshot`s from the source
//!   (routing-table entries, tombstone debris, pool occupancy) and
//!   `IntervalEnd` totals.
//! * **Early rounds**: the source's `SkewAlert` (interval,
//!   per-destination counts — recorded at a control-poll point, so batch
//!   granularity) and the controller's `EarlyRound` steps (`open`, then
//!   `planned`, `split` — with the inputs that decided it — `held` or
//!   `cancelled`). Both are masked from the
//!   skeleton: whether an alert trips depends on which view the source
//!   routed the interval's first tuples under.
//! * **Fault mirrors**: every fault-ledger entry, with its ledger index
//!   as the sequence number.
//!
//! Traces are deterministic modulo wall-clock: `TraceLog::skeleton()`
//! (event structure with timestamps, load numerics, and the
//! occupancy-driven `DataFlush` stream masked) is identical across
//! replays of the same seeded config, and
//! `tests/trace.rs` asserts it like the fault ledger. Artifacts export
//! as JSONL (`TraceLog::to_jsonl`) and Chrome `trace_event` JSON
//! (`TraceLog::to_chrome_json`, load into `chrome://tracing` or
//! Perfetto).
//!
//! ### tracecat quickstart
//!
//! The analyzer CLI lives in `crates/bench` and reads committed traces:
//!
//! ```text
//! cargo run -p streambal-bench --bin tracecat -- traces/chaos_kill.trace.jsonl
//! cargo run -p streambal-bench --bin tracecat -- --check traces/*.trace.jsonl
//! ```
//!
//! The default report prints per-span phase breakdowns (where each op's
//! disruption window went), a text timeline, and **dip attribution**:
//! each interval whose throughput dips below 0.85× the run median is
//! joined against overlapping spans and faults, so "the dip at interval
//! 4 was the scale-in's install phase" is a grep, not an archaeology
//! session. `--check` validates schema + span integrity and exits
//! nonzero on violation (CI runs it on every committed trace).

pub(crate) mod controller;
pub mod engine;
pub mod fault;
pub mod merge;
pub mod message;
pub mod operator;
pub mod router;
pub mod tuple;
pub mod worker;

pub use engine::{Engine, EngineConfig, EngineReport, ProtocolError, ScaleEvent, SplitEvent};
pub use fault::{CtlKind, FaultEvent, FaultInjector, FaultPlan, FaultSpec, KillTrigger, OpKind};
pub use merge::MergeStage;
pub use message::{Message, SourceCtl, SourceEvent, WorkerEvent};
pub use operator::{CoJoinOp, Collector, Operator, SumCollector, WindowedSelfJoinOp, WordCountOp};
pub use router::SourceRouter;
pub use streambal_trace::{
    EarlySplit, EarlyStep, EventKind, OpLabel, Outcome, Phase, SpanSummary, ThreadLabel,
    ThreadRecorder, TraceEvent, TraceLog, TraceSink,
};
pub use tuple::{Tuple, TAG_DEFAULT, TAG_LEFT, TAG_PARTIAL, TAG_RIGHT};
