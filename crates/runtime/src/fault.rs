//! Deterministic fault injection and the engine fault ledger.
//!
//! A [`FaultPlan`] is a seeded, replayable schedule of faults to inject
//! into one engine run: worker kills pinned to interval boundaries or to
//! protocol markers (`MigrateOut`, `StateInstall`), drops of the *n*-th
//! control message of a given kind, and bounded stalls of a worker
//! thread. The plan is carried by `EngineConfig` and read, never
//! written, by the threads it targets. Each piece of fault state belongs
//! to the one thread that uses it:
//!
//! * **The ledger** — every fired fault and every recovery action, in
//!   `EngineReport::faults` ([`FaultEvent`]) — is written by the
//!   controller alone, through one method that also mirrors the entry
//!   into the flight recorder (`seq` = its ledger index).
//! * **Drop ordinals** are counted by a `DropCounter` on the thread
//!   that sees the messages ([`CtlKind`] says which, kind by kind): the
//!   controller counts what it sends and what it reads, the source its
//!   statistics markers. No counter is shared, so none needs a lock.
//! * **Kills and stalls** are plan lookups a worker makes for its own id
//!   ([`FaultPlan::kills`], [`FaultPlan::stall`]). An injection that
//!   fires off the controller thread reaches the controller as one event
//!   on the shared inbox, ahead of its consequences: a stall or a
//!   dropped statistics marker as an `Event::Injected`, a kill as the
//!   worker's `Killed` exit, which names the kill point — so the ledger
//!   lists `InjectedKill` immediately before the `WorkerDead` it causes.
//!
//! Determinism contract: with the same plan (same seed), the set of
//! *structural* ledger entries — injections, worker deaths, op retries
//! and aborts — is identical across runs. Entries therefore carry plan
//! coordinates (worker ids, interval numbers from the plan, message
//! ordinals, op epochs) and never wall-clock readings. Quantities that
//! depend on scheduling (how many in-flight tuples died in a killed
//! worker's queue) go to `EngineReport::lost_tuples`, not the ledger.
//!
//! Injected deaths are *controlled* worker exits, not real panics: a
//! panicking thread inside `std::thread::scope` would abort the whole
//! engine at scope exit, which is exactly the behaviour the recovery
//! layer exists to avoid. A killed worker ships a final
//! `WorkerExit::Killed` carrying its unrecoverable per-key counts and
//! its receiver (standing in for the OS reclaiming a dead process's
//! socket), then returns.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Control-plane message kinds that [`FaultSpec::DropCtl`] can target.
/// Each kind's ordinal is counted on one thread, in the order that
/// thread sends or reads the kind; its doc says where.
///
/// Deliberately excludes the state-bearing messages (`StateOut`,
/// `StateInstall` payload, `Retired`): dropping those would destroy
/// state without a death the accounting layer can attribute it to. Use
/// the kill/panic faults to lose state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtlKind {
    /// Source pause request (`SourceCtl::Pause`); counted and dropped
    /// by the controller as it sends.
    Pause,
    /// Source pause acknowledgement (`SourceEvent::PauseAck`); counted
    /// by the controller in inbox order and dropped on arrival.
    PauseAck,
    /// Source resume request (`SourceCtl::Resume`); counted and dropped
    /// by the controller as it sends.
    Resume,
    /// Source resume acknowledgement (`SourceEvent::ResumeAck`);
    /// counted by the controller in inbox order and dropped on arrival.
    ResumeAck,
    /// Statistics marker the source puts into a worker's channel at a
    /// cut (`Message::StatsRequest`, or `Message::StatsPeek` at a skew
    /// alert); counted and dropped by the source as it marks.
    StatsRequest,
    /// Worker stats report (`WorkerEvent::Stats`), from any worker;
    /// counted by the controller in inbox order and dropped on arrival.
    Stats,
    /// Migration extraction marker (`Message::MigrateOut`); counted and
    /// dropped by the controller as it sends.
    MigrateOut,
    /// State installation acknowledgement (`WorkerEvent::InstallAck`),
    /// from any worker; counted by the controller in inbox order and
    /// dropped on arrival.
    InstallAck,
    /// Scale-in retire marker (`Message::Retire`); counted and dropped
    /// by the controller as it sends.
    Retire,
}

impl CtlKind {
    /// Stable short name, used in ledger display and seeded generation.
    pub fn name(self) -> &'static str {
        match self {
            CtlKind::Pause => "pause",
            CtlKind::PauseAck => "pause_ack",
            CtlKind::Resume => "resume",
            CtlKind::ResumeAck => "resume_ack",
            CtlKind::StatsRequest => "stats_request",
            CtlKind::Stats => "stats",
            CtlKind::MigrateOut => "migrate_out",
            CtlKind::InstallAck => "install_ack",
            CtlKind::Retire => "retire",
        }
    }

    /// All droppable kinds, in the order seeded generation samples them.
    pub const ALL: [CtlKind; 9] = [
        CtlKind::Pause,
        CtlKind::PauseAck,
        CtlKind::Resume,
        CtlKind::ResumeAck,
        CtlKind::StatsRequest,
        CtlKind::Stats,
        CtlKind::MigrateOut,
        CtlKind::InstallAck,
        CtlKind::Retire,
    ];
}

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// Worker `worker` performs a controlled death at the point `at`
    /// names ([`KillTrigger`]).
    Kill { worker: usize, at: KillTrigger },
    /// Drop the `nth` (1-based) control message of kind `kind`,
    /// counted across the whole run on the one thread that counts the
    /// kind (see [`CtlKind`]).
    DropCtl { kind: CtlKind, nth: usize },
    /// Worker `worker` sleeps `ms` milliseconds when it sees the stats
    /// request for interval `at_interval` — a slow-but-alive worker.
    /// FIFO order is preserved, so no state is lost; this exercises
    /// deadlines, retries, and timed-out stats rounds.
    StallWorker {
        worker: usize,
        at_interval: u64,
        ms: u64,
    },
}

/// A seeded, deterministic schedule of faults for one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The faults to inject.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan: no faults, and nothing on the hot path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit faults.
    pub fn new(faults: Vec<FaultSpec>) -> Self {
        FaultPlan { seed: 0, faults }
    }

    /// Generates a replayable mixed plan from `seed`: 1–3 faults drawn
    /// over `n_workers` workers and `n_intervals` intervals. Worker 0
    /// is never killed (at least one survivor must exist for re-routing
    /// to have a target even in 2-worker configs).
    pub fn from_seed(seed: u64, n_workers: usize, n_intervals: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_faults = rng.gen_range(1..=3usize);
        let mut faults = Vec::with_capacity(n_faults);
        let mut killed = false;
        for _ in 0..n_faults {
            let kind = rng.gen_range(0..5u32);
            let worker = if n_workers > 1 {
                rng.gen_range(1..n_workers)
            } else {
                0
            };
            let interval = rng.gen_range(1..n_intervals.max(2));
            match kind {
                // At most one kill per seeded plan: multi-kill runs are
                // legal but make tiny test configs mostly-dead.
                0 | 1 if !killed => {
                    killed = true;
                    let at = if kind == 0 {
                        KillTrigger::Interval(interval)
                    } else {
                        KillTrigger::MigrateOut(1)
                    };
                    faults.push(FaultSpec::Kill { worker, at });
                }
                2 => {
                    let k = CtlKind::ALL[rng.gen_range(0..CtlKind::ALL.len())];
                    faults.push(FaultSpec::DropCtl {
                        kind: k,
                        nth: rng.gen_range(1..=2usize),
                    });
                }
                3 => faults.push(FaultSpec::StallWorker {
                    worker,
                    at_interval: interval,
                    ms: rng.gen_range(5..40u64),
                }),
                _ => {
                    if !killed {
                        killed = true;
                        faults.push(FaultSpec::Kill {
                            worker,
                            at: KillTrigger::Install(1),
                        });
                    }
                }
            }
        }
        FaultPlan { seed, faults }
    }

    /// Whether worker `worker` is planned to die at kill point `at`.
    pub fn kills(&self, worker: usize, at: KillTrigger) -> bool {
        self.faults.contains(&FaultSpec::Kill { worker, at })
    }

    /// How many milliseconds worker `worker` is planned to stall for at
    /// the stats request closing `interval`, if it is.
    pub fn stall(&self, worker: usize, interval: u64) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            FaultSpec::StallWorker {
                worker: w,
                at_interval,
                ms,
            } if w == worker && at_interval == interval => Some(ms),
            _ => None,
        })
    }
}

/// What a protocol operation was doing when a deadline verdict landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A pause→migrate→resume rebalance (or scale-out pre-placement).
    Migrate,
    /// A drain→migrate→retire scale-in.
    Retire,
    /// A source resume awaiting its acknowledgement.
    Resume,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Migrate => "migrate",
            OpKind::Retire => "retire",
            OpKind::Resume => "resume",
        }
    }
}

/// One entry in the fault ledger (`EngineReport::faults`).
///
/// Entries are structural — plan coordinates and protocol epochs only,
/// no wall-clock readings and no scheduling-dependent quantities — so
/// replaying a plan yields a comparable ledger (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A planned kill fired.
    InjectedKill { worker: usize, trigger: KillTrigger },
    /// A planned control-message drop fired.
    InjectedDrop { kind: CtlKind, nth: usize },
    /// A planned stall fired.
    InjectedStall { worker: usize, at_interval: u64 },
    /// The controller observed a worker death (injected kill, channel
    /// disconnect, or a failed send to it) and started recovery.
    WorkerDead { worker: usize },
    /// A failed control-plane send revealed a disconnected peer.
    SendFailed { to: SendPeer },
    /// The worker's windowed state could not be recovered; its per-key
    /// tuple counts were added to `EngineReport::lost_tuples`.
    StateLost { worker: usize },
    /// Keys pinned away from a dead worker onto survivors.
    Rerouted {
        from_worker: usize,
        moved_keys: usize,
    },
    /// An in-flight protocol op missed its deadline and was re-driven
    /// (idempotent resend of the stalled phase).
    OpRetried { op: OpKind, epoch: u64 },
    /// An op missed its deadline after a retry and was aborted: state
    /// re-installed at its origin, source resumed under the pre-op
    /// routing view.
    OpAborted { op: OpKind, epoch: u64 },
    /// A stats round closed by deadline with reporters still missing.
    RoundTimedOut { interval: u64, missing: Vec<usize> },
    /// An elasticity decision was suppressed while recovery was in
    /// progress (dead workers present or within the hold-down window).
    ScaleHeld { interval: u64 },
    /// A dead slot was re-provisioned by a scale-out decision.
    SlotRevived { worker: usize },
    /// A late/duplicate protocol message was absorbed because its epoch
    /// already completed or aborted (echo of a retried op, or state
    /// from a zombie worker re-homed under the current view).
    StaleEpochAbsorbed { epoch: u64, what: &'static str },
}

/// Where a worker's planned kill fires: the point the worker checks
/// ([`FaultPlan::kills`]) with its own coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillTrigger {
    /// The stats request closing this interval (an interval boundary —
    /// the deterministic clock every worker observes).
    Interval(u64),
    /// The n-th (1-based) `MigrateOut` marker the worker receives,
    /// *before* extracting — a crash mid-migration.
    MigrateOut(usize),
    /// The n-th (1-based) `StateInstall` the worker receives, before
    /// installing — a panic inside the install path; the incoming blobs
    /// are counted as lost.
    Install(usize),
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::InjectedKill { worker, trigger } => match trigger {
                KillTrigger::Interval(iv) => {
                    write!(f, "inject: kill worker {worker} at interval {iv}")
                }
                KillTrigger::MigrateOut(n) => {
                    write!(f, "inject: kill worker {worker} on migrate-out #{n}")
                }
                KillTrigger::Install(n) => {
                    write!(f, "inject: kill worker {worker} on install #{n}")
                }
            },
            FaultEvent::InjectedDrop { kind, nth } => {
                write!(f, "inject: drop {} #{nth}", kind.name())
            }
            FaultEvent::InjectedStall {
                worker,
                at_interval,
            } => {
                write!(f, "inject: stall worker {worker} at interval {at_interval}")
            }
            FaultEvent::WorkerDead { worker } => write!(f, "worker {worker} dead"),
            FaultEvent::SendFailed { to } => write!(f, "send failed: {to}"),
            FaultEvent::StateLost { worker } => {
                write!(f, "worker {worker} state lost (accounted)")
            }
            FaultEvent::Rerouted {
                from_worker,
                moved_keys,
            } => write!(f, "rerouted {moved_keys} keys off worker {from_worker}"),
            FaultEvent::OpRetried { op, epoch } => {
                write!(
                    f,
                    "op {} epoch {epoch}: deadline expired, retried",
                    op.name()
                )
            }
            FaultEvent::OpAborted { op, epoch } => {
                write!(f, "op {} epoch {epoch}: aborted, rolled back", op.name())
            }
            FaultEvent::RoundTimedOut { interval, missing } => {
                write!(
                    f,
                    "stats round {interval} closed by deadline, missing {missing:?}"
                )
            }
            FaultEvent::ScaleHeld { interval } => {
                write!(
                    f,
                    "scale decision held during recovery at interval {interval}"
                )
            }
            FaultEvent::SlotRevived { worker } => write!(f, "slot {worker} revived"),
            FaultEvent::StaleEpochAbsorbed { epoch, what } => {
                write!(f, "stale {what} for closed epoch {epoch} absorbed")
            }
        }
    }
}

/// A peer a control-plane send can fail toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPeer {
    /// A worker's data/control channel.
    Worker(usize),
    /// The source control channel.
    Source,
}

impl std::fmt::Display for SendPeer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendPeer::Worker(w) => write!(f, "worker {w}"),
            SendPeer::Source => write!(f, "source"),
        }
    }
}

/// One thread's drop ordinals: counts the control messages of each
/// kind that thread sends or reads, and says which ones the plan drops.
/// Each [`CtlKind`] is counted on exactly one thread, so no two counters
/// ever count the same kind.
#[derive(Debug)]
pub(crate) struct DropCounter {
    plan: FaultPlan,
    /// Messages of each kind counted so far, indexed by `CtlKind as usize`.
    seen: [usize; CtlKind::ALL.len()],
}

impl DropCounter {
    /// A counter for `plan`'s drops, none counted yet.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        let seen = [0; CtlKind::ALL.len()];
        DropCounter {
            plan: plan.clone(),
            seen,
        }
    }

    /// Counts one message of `kind`. When the plan drops this one,
    /// returns its ledger entry: the caller discards the message, as if
    /// it were lost in flight, and ledgers the drop.
    pub(crate) fn count(&mut self, kind: CtlKind) -> Option<FaultEvent> {
        let seen = &mut self.seen[kind as usize];
        *seen += 1;
        let nth = *seen;
        let planned = self.plan.faults.contains(&FaultSpec::DropCtl { kind, nth });
        planned.then_some(FaultEvent::InjectedDrop { kind, nth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay() {
        for seed in 0..50 {
            let a = FaultPlan::from_seed(seed, 4, 10);
            let b = FaultPlan::from_seed(seed, 4, 10);
            assert_eq!(a, b, "seed {seed} not replayable");
            assert!(!a.faults.is_empty());
            assert!(a.faults.len() <= 3);
        }
    }

    #[test]
    fn seeded_plans_never_kill_worker_zero() {
        for seed in 0..200 {
            let p = FaultPlan::from_seed(seed, 4, 10);
            for f in &p.faults {
                if let FaultSpec::Kill { worker, .. } = f {
                    assert_ne!(*worker, 0, "seed {seed} kills worker 0");
                }
            }
        }
    }

    #[test]
    fn at_most_one_kill_per_seeded_plan() {
        for seed in 0..200 {
            let p = FaultPlan::from_seed(seed, 4, 10);
            let kills = p
                .faults
                .iter()
                .filter(|f| matches!(f, FaultSpec::Kill { .. }))
                .count();
            assert!(kills <= 1, "seed {seed} has {kills} kills");
        }
    }

    #[test]
    fn drop_counter_fires_on_exact_ordinal() {
        let mut drops = DropCounter::new(&FaultPlan::new(vec![FaultSpec::DropCtl {
            kind: CtlKind::PauseAck,
            nth: 2,
        }]));
        assert_eq!(drops.count(CtlKind::PauseAck), None); // #1
        assert_eq!(drops.count(CtlKind::Pause), None); // other kind, own ordinal
        assert_eq!(
            drops.count(CtlKind::PauseAck), // #2 fires
            Some(FaultEvent::InjectedDrop {
                kind: CtlKind::PauseAck,
                nth: 2
            })
        );
        assert_eq!(drops.count(CtlKind::PauseAck), None); // #3
    }

    #[test]
    fn kill_probes_fire_once_per_coordinate() {
        let plan = FaultPlan::new(vec![
            FaultSpec::Kill {
                worker: 2,
                at: KillTrigger::Interval(3),
            },
            FaultSpec::Kill {
                worker: 1,
                at: KillTrigger::MigrateOut(1),
            },
            FaultSpec::StallWorker {
                worker: 1,
                at_interval: 4,
                ms: 7,
            },
        ]);
        assert!(!plan.kills(2, KillTrigger::Interval(2)));
        assert!(!plan.kills(1, KillTrigger::Interval(3)));
        assert!(!plan.kills(2, KillTrigger::Install(3)));
        assert!(plan.kills(2, KillTrigger::Interval(3)));
        assert!(plan.kills(1, KillTrigger::MigrateOut(1)));
        assert!(!plan.kills(1, KillTrigger::MigrateOut(2)));
        assert_eq!(plan.stall(1, 4), Some(7));
        assert_eq!(plan.stall(1, 3), None);
        assert_eq!(plan.stall(2, 4), None);
    }

    #[test]
    fn next_live_cycles_past_dead_slots() {
        use streambal_core::next_live;
        let dead = [false, true, true, false];
        assert_eq!(next_live(1, 4, |d| dead[d]), 3);
        assert_eq!(next_live(2, 4, |d| dead[d]), 3);
        assert_eq!(next_live(3, 4, |d| dead[d]), 3);
        assert_eq!(next_live(0, 4, |d| dead[d]), 0);
        // All dead: caller gets the original slot back.
        assert_eq!(next_live(2, 4, |_| true), 2);
    }
}
