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
//! ## Elasticity
//!
//! The controller consults an `ElasticityPolicy` (crate
//! `streambal-elastic`) after every statistics round — observing per-task
//! loads, per-task queue depth (tuple-weighted channel occupancy sampled
//! at interval close: the backpushing signal), and the interval's
//! mean/p99 latency — and executes its decision.
//!
//! **Scale-out** pre-places state at provision time, in four ordered
//! steps:
//!
//! 1. **Plan.** Spawn the worker on its pre-provisioned slot, then ask
//!    the partitioner for the placement delta at the same instant the
//!    routing function grows (`Partitioner::scale_out_plan`): the live
//!    keys the grown hash ring re-homes onto the new slot, each paired
//!    with the task currently holding its state.
//! 2. **Quiesce.** The plan runs through the rebalance machinery: the
//!    source pauses (and locally buffers) exactly the moved keys — its
//!    ack certifies every pre-pause tuple is already in the old holders'
//!    FIFO channels, and `MigrateOut` markers land behind them.
//! 3. **Install.** The old holders extract the moved keys' windowed
//!    state after draining their backlogs; the controller installs it in
//!    the new worker and waits for the ack.
//! 4. **Resume.** Only then does the source adopt the grown view and
//!    flush its pause buffer, so a moved key's tuples can reach the new
//!    worker only after its state did.
//!
//! The new slot therefore takes its keys' traffic in the decision
//! interval itself — the overloaded stretch the policy scaled out for —
//! instead of idling until a later rebalance moves keys onto it.
//! Strategies with no state to move (shuffle, PKG) return an empty plan
//! and the grown view is published directly.
//!
//! **Scale-in** runs the drain → migrate → retire protocol — pause the
//! victim's destination at the source, enqueue a `Retire` marker behind
//! the victim's backlog, re-install its entire drained state at each
//! key's new home, and only then resume under the shrunk view. The
//! FIFO-consistency argument is spelled out in the `streambal-elastic`
//! crate docs; the retired slot's channel survives (the receiver travels
//! back in the `Retired` event), so a later scale-out can re-provision
//! the same slot mid-run.
//!
//! CPU saturation is emulated by `spin_work` busy-iterations per tuple,
//! mirroring the paper's "controlling the latency on tuple processing to
//! force the system to a saturation point".
//!
//! ## Hot-key splitting
//!
//! Migration and scale-out both move *whole keys*; neither helps when a
//! single key's load exceeds one worker's capacity. For that case the
//! controller consults a `SplitPolicy` (crate `streambal-elastic`)
//! after every statistics round and executes **split** / **unsplit** as
//! first-class protocol ops, sharing the migration queue, epochs,
//! pause → quiesce → install → resume phases, deadline/abort machinery,
//! fault-ledger entries, and flight-recorder spans (`OpLabel::Split`,
//! `OpLabel::Unsplit`):
//!
//! * **Split** salts the key across `R` replica slots
//!   (`Partitioner::split_key`): the routing layer round-robins the
//!   key's batches over the replicas, each of which accumulates an
//!   independent *partial* state. No state moves — the op is a
//!   degenerate migration (empty move set) whose pause window makes the
//!   view install atomic: the source's ack certifies every tuple routed
//!   under the unsplit view is already in the primary's FIFO channel,
//!   so replica-routed tuples land strictly after it.
//! * **Unsplit** consolidates (`Partitioner::unsplit_key`): a real
//!   migration extracting each non-primary replica's partial state for
//!   the key and installing it into the primary, whose `install` merges
//!   additively. The pause covers the whole transfer, so no tuple is
//!   routed under the consolidated view before the partials landed.
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
pub mod topk;
pub mod tuple;
pub mod worker;

pub use engine::{Engine, EngineConfig, EngineReport, ProtocolError, ScaleEvent, SplitEvent};
pub use fault::{CtlKind, FaultEvent, FaultInjector, FaultPlan, FaultSpec, KillTrigger, OpKind};
pub use merge::MergeStage;
pub use message::{Message, SourceCtl, SourceEvent, WorkerEvent};
pub use operator::{
    CoJoinOp, Collector, CountingCollector, Operator, SumCollector, WindowedSelfJoinOp, WordCountOp,
};
pub use router::SourceRouter;
pub use streambal_trace::{
    EventKind, OpLabel, Outcome, Phase, SpanSummary, ThreadLabel, ThreadRecorder, TraceEvent,
    TraceLog, TraceSink,
};
pub use topk::TopKOp;
pub use tuple::{Tuple, TAG_DEFAULT, TAG_LEFT, TAG_PARTIAL, TAG_RIGHT};
