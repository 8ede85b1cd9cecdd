//! # streambal-runtime
//!
//! A thread-based mini stream-processing engine — the workspace's
//! substitute for the Apache Storm deployment the paper evaluates on.
//!
//! ## Shape
//!
//! ```text
//!  Source thread ──(bounded channels: batches + in-band markers)──▶ Worker threads
//!       ▲   │                                                        │        │
//!       │   └──────────── events ───────────┐                        │        ▼
//!       │                                   ▼                        │  Collector thread
//!  Controller (Fig. 5 protocol) ◀── one inbox (unbounded FIFO) ◀─────┘  (merge / aggregate)
//! ```
//!
//! Those are all the threads a run has: one source, one per provisioned
//! worker, and a collector when one is given; the controller runs on the
//! caller's thread. Each thread body is a value whose loop hands every
//! inbox message to its own handler — the source's plane handles one
//! [`SourceCtl`] at a time between routed batches, a worker's
//! `Worker::run` dispatches each [`Message`] to one method
//! (`on_batch`, `on_stats_request`, `on_stats_peek`, `on_migrate_out`,
//! `on_install`), and the controller takes one [`Event`] per call from
//! its one inbox, which the source and the workers share. A worker
//! leaves by exactly one path, whatever ended it (`Retire`, `Shutdown`,
//! or an injected death): one [`WorkerEvent::Exited`] carrying its
//! lifetime [`WorkerTotals`], which the controller folds in one place,
//! and a [`WorkerExit`] with what only that kind of exit carries.
//!
//! * The **source** pulls tuples from a feeder closure and routes them
//!   with a local [`SourceRouter`] snapshot (the one materialized view,
//!   `streambal_core::SourceRouter`, re-exported here) — the "tuples
//!   router" of Fig. 5. The data plane is *batched*: every
//!   `batch_size` tuples are staged under one clock read, routed with
//!   one `route_batch` call, scattered into per-destination buffers,
//!   and shipped as one [`Message::TupleBatch`] per destination touched,
//!   stamped with that read, so a channel operation and a latency stamp
//!   are paid per batch, not per tuple. Each send hands its
//!   buffer over for good (the source refills that slot with a fresh
//!   one): the channels are all the data-plane threads share.
//! * **Workers** are downstream task instances: one thread per instance,
//!   one bounded input channel each (full channel = backpressure, the
//!   "backpushing effect" of the paper's Fig. 1 — now at batch
//!   granularity). They run an [`Operator`], keep windowed per-key state,
//!   and account per-key statistics, draining a whole batch per channel
//!   operation: one latency clock read per batch, recorded once for all
//!   its tuples against the message's stamp, with each run of equal
//!   keys folded straight into the interval's statistics map (one probe
//!   per run; a batch-local scratch map measured slower). Everything a
//!   worker counts travels in its own events — the interval report's
//!   latency histogram holds one sample per tuple, which is where the
//!   controller's per-interval throughput comes from.
//! * The **controller** implements the paper's rebalance workflow
//!   (Fig. 5): ① collect per-interval statistics — the source cuts each
//!   interval in-band, putting a [`Message::StatsRequest`] into every
//!   worker channel it can route to, behind the interval's last batch,
//!   so a round holds exactly the tuples the source cut into it; ② run
//!   the partitioner's rebalance; ③④ broadcast the plan and pause
//!   affected keys at the source (which buffers them); ⑤ migrate key
//!   state between workers via in-band messages; ⑥ collect acks; ⑦
//!   resume with the new routing table. Tuples of unaffected keys keep
//!   flowing throughout.
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
//! batches are already enqueued ahead of it. A marker weighs nothing on
//! the tuple-weighted channels: it is enqueued at once, in FIFO order,
//! however full the channel is, so the bound counts tuples only and no
//! control send ever waits for room.
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
//! one routing-function delta at a time. An op ends at the source's
//! `ResumeAck`, not when the `Resume` goes out: the next op's `Pause`
//! follows the ack, so no later pause or view can overtake an earlier
//! resume at the source. The phases are the ones the flight recorder
//! names; the columns are the op's span label:
//!
//! | phase | `rebalance` | `scale_out` | `scale_in` | `split` | `unsplit` |
//! |---|---|---|---|---|---|
//! | **plan** (decision time: the partitioner mutates, the op captures the resulting view) | `end_interval` returned a plan — on an interval's closing statistics, or on a *provisional round*'s (next section) | `scale_out_plan`: a worker is spawned on the new task's slot; the plan names the live keys that follow the grown ring, with their holders | `scale_in` on the highest-numbered task | `split_key` over the chosen replica slots | `unsplit_key` back onto the primary |
//! | **pause** (source holds back…) | the keys in Δ(F, F′) | the moved keys | everything routed to the victim | the key | the key |
//! | **quiesce → state_out** (after `PauseAck`, behind every pre-pause batch) | `MigrateOut` to each holder | `MigrateOut` to each holder | `Retire` to the victim: it drains its backlog and hands back *all* its state, its totals, and its channel receiver (`Retired`) | nothing to extract | `MigrateOut` to each live non-primary replica |
//! | **install** (`StateInstall`, acked) | at the plan's destinations | on the new worker | wherever each key routes under the op's view | — | on the primary (`install` merges additively) |
//! | **resume** (source adopts the view, flushes its pause buffer, acks) | the rebalance delta, or a full view | the grown view | the shrunk view | the split view | the consolidated view |
//! | `migrated_bytes` billed | up front, from the plan's estimate | from the blobs extracted | — | — | from the blobs extracted |
//!
//! An empty pre-placement plan (shuffle, PKG, Ideal: nothing to move)
//! walks the op too, pausing nothing, and so does a revive. A blob whose
//! destination has died since it was chosen is diverted as the key's
//! tuples are (`streambal_core::divert`). A phase that outlives its
//! deadline (the one rule every wait follows; see *Failure model*) is
//! re-driven once (markers are
//! idempotent — workers, source and controller absorb duplicates by
//! epoch), then the op is **aborted**: a key-scoped op rolls its keys'
//! routing back to their origins and re-installs the state still in the
//! controller's hand there (its own `rollback` span), then resumes under
//! the rolled-back view; an aborted `scale_in` resumes under the shrunk
//! view and leaves the victim a routed-around zombie, which holds its
//! slot until it reaches a `Retire` (or drains at shutdown if none
//! landed), so no scale-out grows beside it. A late answer the op no longer awaits is absorbed and its
//! blobs re-homed under the current view — never dropped. Every op,
//! aborted or not, ends with the resume phase, and a resume phase is
//! re-driven, never aborted: an abandoned resume would strand the
//! source's pause buffer.
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
//! mid-run; the controller empties it first — markers dropped, any tuple
//! or blob counted lost — so nothing sent to the retired worker (a
//! re-driven `Retire`) reaches the next one. Each slot is vacant, live
//! or dead, in one table (DESIGN.md §16).
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
//! most once per interval and never under a pause. On an alert the source
//! cuts a provisional round the way it cuts an interval: it announces
//! `SkewAlert` with the slots it marks, then puts a `StatsPeek` marker
//! into each, at the same poll point — so the copies hold exactly the
//! sample the alert measured. If the controller finds the control plane
//! idle (no op in flight or queued, no dead slot) it awaits the copies;
//! otherwise it opens no round and drops them as they arrive. Each
//! worker answers with a sealed **copy** of its statistics so far and
//! changes nothing else — no `Operator::flush`, no window eviction, no
//! interval advance, accumulators not reset. The absorbed copies go to
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
//! **Why the cut is exact, and why any cut point is safe.** Both kinds
//! of round are cut by the source, between routed batches, when every
//! fan-out accumulator is flushed: each marker lands behind every batch
//! the source had routed to that worker and ahead of every later one, so
//! each worker reports exactly the tuples the source sent it before the
//! cut — a consistent cut, the in-band barrier of Carbone et al.
//! (2015). The source announces a round (`IntervalDone` / `SkewAlert`,
//! with the marked slots) *before* it enqueues the markers, and source
//! and worker events share the controller's one FIFO inbox, so no
//! report can reach the controller ahead of its round. A round expects
//! the marked slots less those the controller knows are dead. A tuple
//! held in the pause buffer across a cut counts in the interval it is
//! shipped in. A worker spawned mid-run starts at the interval after
//! the latest cut the controller has read; the source may have cut
//! further by then, so the worker's first partial interval can carry
//! that older label until its first `StatsRequest`. Where the cut falls
//! is still only plan *quality*: whatever the statistics say, the op
//! that follows pauses its keys at the source, extracts behind every
//! pre-pause batch and resumes behind the installs, so state and tuples
//! cannot cross wherever in the interval it runs. Per key the
//! interval's closing report is still complete: a key moved
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
//! * **Worker crashes** (`Kill` at an interval boundary, a `MigrateOut`
//!   or a `StateInstall`): a worker thread exits mid-run, possibly holding
//!   un-extracted state or an in-flight `StateInstall`. The controller
//!   detects the death (`Killed` event), marks the slot dead (a dead
//!   slot holds the corpse's receiver until the source's `DeadDestAck`,
//!   then drops it, so later sends fail fast), re-pins
//!   its keys by the one divert rule the source applies to every tuple
//!   routed to a dead slot (its routing changes only at a resume), and
//!   continuously drains the dead slot's channel so neither the source
//!   nor the controller can block on its bounded capacity. State that died with the worker is *lost,
//!   not leaked*: every tuple it absorbed is tallied per key in
//!   `EngineReport::lost_tuples`, so the accounting invariant
//!   `fed == observed + lost` holds for every key on every run. A dead
//!   slot stays revivable — a later scale-out re-provisions it through
//!   an op — unless it was a `scale_in` victim: its op frees the slot at
//!   its resume ack. At teardown every table key must land on the same
//!   worker at the source as at the controller (`ProtocolError::OutOfStep`).
//! * **Lost control messages** (`DropCtl`): the *n*-th message of a
//!   kind is dropped by the one thread that counts that kind (see
//!   `CtlKind`). Every controller wait —
//!   an in-flight op's phase, its last one the source's resume ack, or
//!   a statistics round's reports — ends by one rule: it expires once
//!   `EngineConfig::deadline` of wall time has passed since it started
//!   *and* either `EngineConfig::deadline_intervals` source intervals
//!   have passed or the source has finished (its intervals stop then,
//!   so the wall bound rules alone). The controller reads no clock: the
//!   event loop passes the instant in with every event and tick. An op
//!   phase's first expiry re-drives it (markers are idempotent —
//!   workers, source, and controller absorb duplicates by epoch), its
//!   second **aborts with rollback**: routing reverts to each key's
//!   origin, state still in the controller's hand is re-installed under
//!   a fresh epoch no op owns, and a victim's *late* `StateOut`/`Retired`
//!   on the aborted epoch is absorbed and its blobs re-homed under the
//!   current view — never dropped. An expired resume phase is re-driven
//!   at every expiry until the source acks (only the first re-drive is
//!   ledgered, as `OpRetried` of `OpKind::Resume`); an expired round
//!   closes over the missing workers and is ledgered as
//!   `RoundTimedOut`.
//! * **Stalls** (`StallWorker`): a worker sleeps mid-interval. Nothing
//!   is lost; the deadline above decides whether to wait, re-drive, or
//!   roll back.
//!
//! Every injection, detection, retry, abort, re-route, and absorption is
//! recorded in order in the `EngineReport::faults` ledger
//! ([`FaultEvent`]), so a run with a given seed is *replayable*: same
//! plan, same ledger. The controller is its only writer: an injection
//! on another thread reaches it as an inbox event (module [`fault`]). The
//! chaos suite (`tests/chaos.rs`) asserts the replay, plus the per-key
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
//!   resume`. A span lives as long as its op: it closes `completed` at
//!   the op's `ResumeAck`, `aborted` at a deadline abort (the op then
//!   walks its resume phase spanless), `abandoned` if teardown outran
//!   the op — exactly once, which `TraceLog::check_integrity` enforces.
//!   Ops run one at a time, so no op span opens while another is open
//!   (the chaos suite asserts it; a `rollback` span opens after its
//!   aborted op's span closed).
//! * **Telemetry snapshots** per statistics round: per-worker loads,
//!   queue depths (tuple-weighted channel occupancy), mean/p99 interval
//!   latency — plus per-interval `RouterSnapshot`s from the source
//!   (routing-table entries and tombstone debris) and
//!   `IntervalEnd` totals.
//! * **Early rounds**: the source's `SkewAlert` (interval,
//!   per-destination counts — recorded at the control-poll point where
//!   the source cuts the provisional round) and the controller's
//!   `EarlyRound` steps (`open`, then `planned`, `split` — with the
//!   inputs that decided it — `held` or `cancelled`). `check_integrity` allows one alert per interval and
//!   one open and one end per early round, behind its alert. Both are
//!   masked from the skeleton: whether an alert trips depends on which
//!   view the source routed the interval's first tuples under.
//! * **Fault mirrors**: every fault-ledger entry, recorded by the
//!   controller with its ledger index as the sequence number.
//!
//! Traces are deterministic modulo wall-clock: `TraceLog::skeleton()`
//! (event structure with timestamps, load numerics, and the
//! occupancy-driven `DataFlush` stream masked) is identical across
//! replays of the same seeded config, and
//! `tests/trace.rs` asserts it like the fault ledger. Artifacts export
//! as JSONL (`streambal_bench::trace_file::to_jsonl`, read back by
//! `trace_file::from_jsonl`) and Chrome `trace_event` JSON
//! (`trace_file::to_chrome_json`, load into `chrome://tracing` or
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
//! session. `--check` validates schema + integrity, requires the file
//! to re-encode to itself, and exits nonzero on violation (CI runs it
//! on every committed trace).

#![forbid(unsafe_code)]

pub(crate) mod controller;
pub mod engine;
pub mod fault;
pub mod merge;
pub mod message;
pub mod operator;
pub mod tuple;
pub mod worker;

pub use engine::{
    replay, Engine, EngineConfig, EngineReport, ProtocolError, Refusal, ScaleEvent, SplitEvent,
};
pub use fault::{CtlKind, FaultEvent, FaultPlan, FaultSpec, KillTrigger, OpKind};
pub use merge::MergeStage;
pub use message::{Event, Message, SourceCtl, SourceEvent, WorkerEvent, WorkerExit, WorkerTotals};
pub use operator::{
    CoJoinOp, Collector, Combine, Operator, SumCollector, WindowedSelfJoinOp, WordCountOp,
};
pub use streambal_core::SourceRouter;
pub use streambal_trace::{
    EarlySplit, EarlyStep, EventKind, OpLabel, Outcome, Phase, SpanSummary, ThreadLabel,
    ThreadRecorder, TraceEvent, TraceLog, TraceSink,
};
pub use tuple::{Tuple, TAG_DEFAULT, TAG_LEFT, TAG_PARTIAL, TAG_RIGHT};
