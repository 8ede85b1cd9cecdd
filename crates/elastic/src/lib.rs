//! # streambal-elastic
//!
//! The elasticity controller: per-interval **scale-out / scale-in / hold**
//! decisions driving downstream parallelism, the decision layer the paper
//! motivates but leaves to a single hard-coded scale-out experiment
//! (Fig. 15). Both drivers consult the same [`ElasticityPolicy`] at every
//! interval boundary — the simulator through `run_sim_elastic`, the engine
//! through `EngineConfig::elasticity` — so a policy's decision trace is
//! identical across them for matching load observations.
//!
//! ## The observation
//!
//! A policy sees an [`IntervalObservation`]: the closed interval's index,
//! the current parallelism, the per-task load vector `Lᵢ(d)` (cost
//! units, the same `cᵢ(k)` sums the rebalance algorithms consume), the
//! per-task input **queue depth** at interval close (tuples — the
//! engine samples tuple-weighted channel occupancy, the simulator a
//! modeled backlog proxy), and the interval's **mean/p99 end-to-end
//! latency** (µs). From it the policy derives whatever signal it wants —
//! the load-watermark built-ins use the mean load against a per-task
//! capacity budget shaped by the paper's `θmax`
//! (`budget = capacity / (1 + θmax)`: a task whose *mean* share exceeds
//! the budget is within θmax of overload even under perfect balance,
//! which is exactly when adding instances — not moving keys — is the
//! only remaining repair), while [`BackpressurePolicy`] watches the
//! queue/latency symptoms directly.
//!
//! ## Built-in policies
//!
//! * [`HoldPolicy`] — never scales (the default; today's static engine).
//! * [`FixedSchedule`] — replays a fixed `(interval → decision)` table;
//!   [`FixedSchedule::scale_out_at`] reproduces the old
//!   `EngineConfig::scale_out_at` behaviour exactly.
//! * [`ThresholdPolicy`] — θ/`Lmax`-style watermarks with hysteresis:
//!   scale out when the mean load stays above the high watermark for
//!   `up_after` consecutive intervals, scale in when the load the
//!   survivors would inherit stays below the low watermark for
//!   `down_after` intervals, with a cooldown after every action. The two
//!   watermarks plus the post-action re-evaluation window are what keeps
//!   a flat load from flapping 4→5→4→5.
//! * [`BackpressurePolicy`] — queue-depth watermarks with the same
//!   hysteresis/cooldown shape: scale out on a standing per-task queue
//!   (optionally a blown p99 latency), scale in when the whole pipeline's
//!   backlog stays drained. This is the Dhalion-style symptom-driven
//!   diagnosis: backpushing shows up in channel depth and latency before
//!   any load/capacity model notices.
//! * [`TargetPlanner`] — the multi-step re-provisioner: smooths total
//!   load with an EWMA, computes a target parallelism
//!   `⌈load / (target_util · capacity)⌉`, and steps **one instance per
//!   interval** toward it, so a large deficit is provisioned over several
//!   intervals instead of one jump (each step's migration stays small and
//!   the policy re-plans against the load it just changed).
//!
//! ## What a decision turns into
//!
//! Deciding is cheap; executing is a protocol. The moment a decision is
//! taken the *routing function* changes — `Partitioner::scale_in`
//! removes the victim (always the highest-numbered task) from table and
//! ring, `scale_out_plan` grows them — and later decisions and
//! rebalances build on that planned parallelism at once. A driver with
//! physical state then catches the topology up: the engine queues one
//! protocol op per decision (pause → drain or extract → install →
//! resume; the phase-by-op table and its FIFO-consistency argument are
//! in the `streambal-runtime` crate docs), during which the source keeps
//! routing under the old view, so no tuple is lost or double-counted and
//! no state is extracted before the tuples that produced it have landed.
//! A retired slot's channel survives retirement, so a later scale-out
//! can re-provision the same slot mid-run.
//!
//! ## Hot-key splitting
//!
//! Scaling out cannot help when a *single key* exceeds one worker's
//! capacity: key-contiguous routing pins all of a key's tuples to one
//! task, so adding instances only adds idle ones. The split decision
//! layer ([`SplitPolicy`]) watches the per-key cost window and flags a
//! key for **salted replication** — the routing layer fans the key
//! across `R` replica slots and a downstream merge stage reconciles the
//! partial state. [`HotKeyPolicy`] is the watermark implementation
//! (same hysteresis/cooldown shape as [`ThresholdPolicy`]);
//! [`FixedSplitSchedule`] replays forced split/unsplit sequences for
//! tests and reproductions. Both drivers consult the policy at interval
//! close with a [`SplitObservation`], so split decision traces pin
//! across sim and engine exactly like scale decisions do.
//!
//! A split policy is also consulted *inside* an interval, when a driver
//! cuts provisional statistics because the source saw it skewed
//! ([`RoundDecisions::provisional`]): only over a key no whole-key
//! placement can fit, on a clone, at whole-interval scale, and only a
//! `Split` is honoured. Scale policies see whole intervals only.
//!
//! ## One round, one decision core
//!
//! Policies are pure decision logic over load vectors. What a driver
//! *does* with a decision — the clamps (`ScaleOut` only with room to
//! grow, `ScaleIn` never below one task, `Split` only for an unsplit key
//! over ≥ 2 tasks with ≥ 2 replicas), revive-instead-of-widen and
//! hold-while-degraded when slots are dead, the dead-aware replica
//! choice, and the `Partitioner` mutation itself — lives once, in
//! [`RoundDecisions`] (module [`round`]), which the simulator and the
//! engine both pull their actions from. That is the crate's one
//! dependency: `streambal-core`, for the `Partitioner` trait.

pub mod round;

pub use round::{RoundAction, RoundDecisions, RoundInputs};

/// One elasticity decision for the coming interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the current parallelism.
    Hold,
    /// Add one downstream instance.
    ScaleOut,
    /// Retire the highest-numbered downstream instance.
    ScaleIn,
}

impl ScaleDecision {
    /// Short display name (`hold` / `out` / `in`).
    pub fn name(self) -> &'static str {
        match self {
            ScaleDecision::Hold => "hold",
            ScaleDecision::ScaleOut => "out",
            ScaleDecision::ScaleIn => "in",
        }
    }
}

/// One executed parallelism change, as drivers record it (the simulator's
/// and the engine's reports share this type, so decision traces compare
/// with `==`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// The interval whose statistics triggered the decision.
    pub interval: u64,
    /// Parallelism before.
    pub from: usize,
    /// Parallelism after.
    pub to: usize,
}

/// What a policy sees at an interval boundary.
#[derive(Debug, Clone, Copy)]
pub struct IntervalObservation<'a> {
    /// The interval just closed.
    pub interval: u64,
    /// The *planned* downstream parallelism: what the routing function
    /// targets after every decision taken so far, which is what the next
    /// decision must reason about. In the engine this can be smaller than
    /// `loads.len()` while scale-ins are still re-provisioning.
    pub n_tasks: usize,
    /// Per-task load `Lᵢ(d)` of the closed interval, in cost units,
    /// indexed by task id. May be *longer* than `n_tasks` while a
    /// retiring worker still drains: its slot's load is real traffic the
    /// survivors inherit, so totals keep counting it.
    pub loads: &'a [u64],
    /// Per-task input queue depth at interval close, in *tuples*
    /// (tuple-weighted channel occupancy in the engine; the modeled
    /// backlog proxy in the simulator). This is where the paper's
    /// backpushing effect shows up first: a worker whose queue stays deep
    /// is saturated even when its per-interval load share looks
    /// acceptable. Empty when the driver has no queue signal.
    pub queue_depths: &'a [u64],
    /// Mean end-to-end tuple latency over the closed interval, µs
    /// (0 when the driver has no latency signal).
    pub mean_latency_us: f64,
    /// 99th-percentile end-to-end tuple latency over the closed
    /// interval, µs (0 when the driver has no latency signal).
    pub p99_latency_us: f64,
    /// Worker slots that are dead but not yet respawned. While this is
    /// non-zero the survivors already carry the casualties' keys, so the
    /// observed per-task signals describe a *degraded* topology: policies
    /// must not volunteer a scale-in on top of an unplanned capacity loss
    /// (the engine additionally refuses one), though scale-out remains
    /// the correct response to the resulting overload.
    pub n_dead: usize,
}

impl IntervalObservation<'_> {
    /// Total load of the interval.
    pub fn total(&self) -> u64 {
        self.loads.iter().sum()
    }

    /// Mean per-task load `L̄ᵢ` over the *planned* parallelism — the load
    /// each task will carry once in-flight re-provisioning completes,
    /// which is the quantity watermark policies must compare against
    /// capacity (dividing by the physical count would hide that a
    /// just-decided scale-in leaves the survivors over budget).
    pub fn mean(&self) -> f64 {
        if self.n_tasks == 0 {
            return 0.0;
        }
        self.total() as f64 / self.n_tasks as f64
    }

    /// Deepest per-task input queue at interval close, in tuples (0 when
    /// the driver supplies no queue signal).
    pub fn max_queue(&self) -> u64 {
        self.queue_depths.iter().copied().max().unwrap_or(0)
    }

    /// Total queued tuples across all tasks at interval close.
    pub fn total_queue(&self) -> u64 {
        self.queue_depths.iter().sum()
    }

    /// Worst balance indicator `max θ(d) = max |L(d) − L̄| / L̄` (0 when
    /// idle) — the paper's per-interval imbalance signal.
    pub fn max_theta(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 0.0;
        }
        self.loads
            .iter()
            .map(|&l| (l as f64 - mean).abs() / mean)
            .fold(0.0, f64::max)
    }
}

/// A pluggable per-interval elasticity decision-maker.
///
/// Policies are stateful (streaks, cooldowns, EWMAs) and deterministic:
/// the same observation sequence yields the same decision sequence, which
/// is what makes sim and runtime traces comparable. Drivers clamp
/// decisions against their hard bounds (a free worker slot for scale-out,
/// more than one task for scale-in) — a clamped decision is skipped, not
/// deferred, and the policy is *not* told, so it must keep deciding from
/// observations alone.
pub trait ElasticityPolicy: Send + std::fmt::Debug {
    /// Display name for reports and bench legends.
    fn name(&self) -> String;

    /// Decides what to do after the observed interval.
    fn decide(&mut self, obs: &IntervalObservation) -> ScaleDecision;

    /// Clones the policy with its current state (lets `EngineConfig`
    /// remain `Clone` while holding a boxed policy).
    fn box_clone(&self) -> Box<dyn ElasticityPolicy>;
}

impl Clone for Box<dyn ElasticityPolicy> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

// ------------------------------------------------------------------
// Hold
// ------------------------------------------------------------------

/// Never scales — the static engine of every earlier PR.
#[derive(Debug, Clone, Copy, Default)]
pub struct HoldPolicy;

impl ElasticityPolicy for HoldPolicy {
    fn name(&self) -> String {
        "hold".into()
    }

    fn decide(&mut self, _obs: &IntervalObservation) -> ScaleDecision {
        ScaleDecision::Hold
    }

    fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
        Box::new(*self)
    }
}

// ------------------------------------------------------------------
// Fixed schedule
// ------------------------------------------------------------------

/// Replays a fixed `(interval → decision)` schedule — the reproduction
/// policy. [`FixedSchedule::scale_out_at`] is byte-for-byte the old
/// `EngineConfig::scale_out_at` behaviour (one worker added after that
/// interval's statistics are collected).
#[derive(Debug, Clone, Default)]
pub struct FixedSchedule {
    at: Vec<(u64, ScaleDecision)>,
}

impl FixedSchedule {
    /// A schedule from explicit `(interval, decision)` pairs. Intervals
    /// without an entry hold.
    pub fn new(at: impl IntoIterator<Item = (u64, ScaleDecision)>) -> Self {
        FixedSchedule {
            at: at.into_iter().collect(),
        }
    }

    /// The Fig. 15 experiment: one scale-out after `interval`.
    pub fn scale_out_at(interval: u64) -> Self {
        FixedSchedule::new([(interval, ScaleDecision::ScaleOut)])
    }

    /// The forced elasticity cycle the tests pin: scale out (to double
    /// the parallelism) after `out_at`, scale back in after `in_at` —
    /// `steps` workers each way, one per interval.
    pub fn cycle(out_at: u64, in_at: u64, steps: u64) -> Self {
        let mut at = Vec::new();
        for s in 0..steps {
            at.push((out_at + s, ScaleDecision::ScaleOut));
            at.push((in_at + s, ScaleDecision::ScaleIn));
        }
        FixedSchedule::new(at)
    }
}

impl ElasticityPolicy for FixedSchedule {
    fn name(&self) -> String {
        "fixed".into()
    }

    fn decide(&mut self, obs: &IntervalObservation) -> ScaleDecision {
        self.at
            .iter()
            .find(|&&(iv, _)| iv == obs.interval)
            .map_or(ScaleDecision::Hold, |&(_, d)| d)
    }

    fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------
// Hysteresis shared by the watermark policies
// ------------------------------------------------------------------

/// The tunables [`Hysteresis::step`] reads, copied per call from the
/// owning policy's public fields.
#[derive(Clone, Copy)]
struct HysteresisLimits {
    up_after: usize,
    down_after: usize,
    cooldown: u64,
    min_tasks: usize,
    max_tasks: usize,
}

/// Consecutive-interval streaks on a high and a low watermark plus the
/// post-action cooldown — the state [`ThresholdPolicy`] and
/// [`BackpressurePolicy`] step identically ([`HotKeyPolicy`] keeps
/// per-key streaks of its own and uses only the cooldown gate).
#[derive(Debug, Clone, Default)]
struct Hysteresis {
    high_streak: usize,
    low_streak: usize,
    hold_until: u64,
}

impl Hysteresis {
    /// Whether `interval` still falls inside the last action's cooldown.
    fn cooling(&self, interval: u64) -> bool {
        interval < self.hold_until
    }

    /// Starts the cooldown for an action taken at `interval`.
    fn acted(&mut self, interval: u64, cooldown: u64) {
        self.hold_until = interval + 1 + cooldown;
    }

    /// One interval: advance the streaks on this interval's `high` / `low`
    /// watermark verdicts, then act once a streak is long enough, the
    /// cooldown has passed, and the task bounds allow it (a scale-in
    /// additionally needs every task alive).
    fn step(
        &mut self,
        obs: &IntervalObservation,
        high: bool,
        low: bool,
        lim: HysteresisLimits,
    ) -> ScaleDecision {
        // Streaks advance even inside the cooldown window: the cooldown
        // delays the *action*, not the evidence.
        self.high_streak = if high { self.high_streak + 1 } else { 0 };
        self.low_streak = if low { self.low_streak + 1 } else { 0 };
        if self.cooling(obs.interval) {
            return ScaleDecision::Hold;
        }
        let n = obs.n_tasks;
        let decision = if self.high_streak >= lim.up_after && n < lim.max_tasks {
            ScaleDecision::ScaleOut
        } else if self.low_streak >= lim.down_after && n > lim.min_tasks && obs.n_dead == 0 {
            ScaleDecision::ScaleIn
        } else {
            return ScaleDecision::Hold;
        };
        self.high_streak = 0;
        self.low_streak = 0;
        self.acted(obs.interval, lim.cooldown);
        decision
    }
}

// ------------------------------------------------------------------
// Threshold with hysteresis
// ------------------------------------------------------------------

/// θ/`Lmax`-style watermark policy with hysteresis.
///
/// The per-task budget is `capacity / (1 + theta_max)`: `capacity` is the
/// load (cost units per interval) one task can sustain, and dividing by
/// `1 + θmax` reserves the imbalance headroom the rebalancer is allowed
/// to leave — when even the *mean* exceeds the budget, some task must sit
/// above `Lmax` no matter how well keys are placed, so more parallelism
/// is the only repair. Symmetrically, scale-in fires only when the load
/// the `n − 1` survivors would inherit stays under `low · budget`.
///
/// Hysteresis: `high > low` separates the watermarks, `up_after` /
/// `down_after` demand consecutive violations, and `cooldown` suppresses
/// decisions right after an action (whose own transient would otherwise
/// re-trigger).
#[derive(Debug, Clone)]
pub struct ThresholdPolicy {
    /// Sustainable load (cost units per interval) of one task.
    pub capacity: f64,
    /// Imbalance tolerance `θmax` shaping the budget (paper default 0.08).
    pub theta_max: f64,
    /// Scale out when `mean > high · budget` (default 0.9).
    pub high: f64,
    /// Scale in when `total / (n−1) < low · budget` (default 0.6).
    pub low: f64,
    /// Consecutive high intervals before scaling out (default 1).
    pub up_after: usize,
    /// Consecutive low intervals before scaling in (default 2).
    pub down_after: usize,
    /// Intervals to hold after any action (default 1).
    pub cooldown: u64,
    /// Lower parallelism bound.
    pub min_tasks: usize,
    /// Upper parallelism bound.
    pub max_tasks: usize,
    hysteresis: Hysteresis,
}

impl ThresholdPolicy {
    /// A policy for tasks sustaining `capacity` cost units per interval,
    /// scaling within `[min_tasks, max_tasks]`.
    pub fn new(capacity: f64, min_tasks: usize, max_tasks: usize) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(min_tasks >= 1 && min_tasks <= max_tasks, "bad task bounds");
        ThresholdPolicy {
            capacity,
            theta_max: 0.08,
            high: 0.9,
            low: 0.6,
            up_after: 1,
            down_after: 2,
            cooldown: 1,
            min_tasks,
            max_tasks,
            hysteresis: Hysteresis::default(),
        }
    }

    /// The per-task budget `capacity / (1 + θmax)`.
    pub fn budget(&self) -> f64 {
        self.capacity / (1.0 + self.theta_max)
    }
}

impl ElasticityPolicy for ThresholdPolicy {
    fn name(&self) -> String {
        "threshold".into()
    }

    fn decide(&mut self, obs: &IntervalObservation) -> ScaleDecision {
        let budget = self.budget();
        let n = obs.n_tasks;
        let total = obs.total() as f64;
        let survivors_mean = if n > 1 {
            total / (n - 1) as f64
        } else {
            f64::MAX
        };
        let lim = HysteresisLimits {
            up_after: self.up_after,
            down_after: self.down_after,
            cooldown: self.cooldown,
            min_tasks: self.min_tasks,
            max_tasks: self.max_tasks,
        };
        self.hysteresis.step(
            obs,
            obs.mean() > self.high * budget,
            survivors_mean < self.low * budget,
            lim,
        )
    }

    fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------
// Backpressure watermarks
// ------------------------------------------------------------------

/// Queue-depth watermark policy — the Dhalion-style diagnosis: decide
/// from the *symptom* (standing backlog in the worker channels, where
/// the paper's backpushing effect surfaces first) instead of the cause
/// (per-task load vs. a capacity model the operator must calibrate).
///
/// Scale out when the deepest per-task queue stays above `high_depth`
/// tuples for `up_after` consecutive intervals — a standing queue means
/// some worker's service rate lost to its arrival rate, whatever the
/// load numbers claim. Optionally the p99 interval latency doubles as a
/// second overload symptom (`high_p99_us`, disabled by default): queues
/// saturate at the channel capacity, latency keeps growing past it.
/// Scale in when the *total* queued backlog stays below `low_depth` for
/// `down_after` intervals — survivors can only be expected to absorb a
/// retiree's traffic while the whole pipeline is drained-ish. The
/// hysteresis shape (consecutive-interval streaks, post-action cooldown,
/// `high_depth > low_depth`) is [`ThresholdPolicy`]'s, applied to queue
/// watermarks.
///
/// Unlike load watermarks, queue depth needs no per-task capacity
/// estimate — but it is bounded by the driver's channel capacity, so
/// `high_depth` must sit below that bound to be reachable.
#[derive(Debug, Clone)]
pub struct BackpressurePolicy {
    /// Scale out when `max_queue() > high_depth` (tuples).
    pub high_depth: u64,
    /// Scale in when `total_queue() < low_depth` (tuples).
    pub low_depth: u64,
    /// Additional overload symptom: p99 interval latency above this many
    /// µs counts like a deep queue (`f64::INFINITY` = disabled, the
    /// default).
    pub high_p99_us: f64,
    /// Consecutive backed-up intervals before scaling out (default 1).
    pub up_after: usize,
    /// Consecutive drained intervals before scaling in (default 2).
    pub down_after: usize,
    /// Intervals to hold after any action (default 1).
    pub cooldown: u64,
    /// Lower parallelism bound.
    pub min_tasks: usize,
    /// Upper parallelism bound.
    pub max_tasks: usize,
    hysteresis: Hysteresis,
}

impl BackpressurePolicy {
    /// A policy scaling within `[min_tasks, max_tasks]` on queue-depth
    /// watermarks `high_depth`/`low_depth` (tuples).
    pub fn new(high_depth: u64, low_depth: u64, min_tasks: usize, max_tasks: usize) -> Self {
        assert!(high_depth > low_depth, "watermarks must separate");
        assert!(min_tasks >= 1 && min_tasks <= max_tasks, "bad task bounds");
        BackpressurePolicy {
            high_depth,
            low_depth,
            high_p99_us: f64::INFINITY,
            up_after: 1,
            down_after: 2,
            cooldown: 1,
            min_tasks,
            max_tasks,
            hysteresis: Hysteresis::default(),
        }
    }
}

impl ElasticityPolicy for BackpressurePolicy {
    fn name(&self) -> String {
        "backpressure".into()
    }

    fn decide(&mut self, obs: &IntervalObservation) -> ScaleDecision {
        let backed_up = obs.max_queue() > self.high_depth || obs.p99_latency_us > self.high_p99_us;
        let lim = HysteresisLimits {
            up_after: self.up_after,
            down_after: self.down_after,
            cooldown: self.cooldown,
            min_tasks: self.min_tasks,
            max_tasks: self.max_tasks,
        };
        self.hysteresis
            .step(obs, backed_up, obs.total_queue() < self.low_depth, lim)
    }

    fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------
// Multi-step target planner
// ------------------------------------------------------------------

/// The multi-step re-provisioner: plans a target parallelism from
/// EWMA-smoothed total load and walks toward it one instance per
/// interval.
///
/// `target = ⌈ewma_load / (target_util · capacity)⌉`, clamped to
/// `[min_tasks, max_tasks]`. Stepping (instead of jumping) bounds each
/// interval's migration volume to one worker's worth of state and lets
/// the plan self-correct: the next observation already includes the
/// previous step's effect.
#[derive(Debug, Clone)]
pub struct TargetPlanner {
    /// Sustainable load (cost units per interval) of one task.
    pub capacity: f64,
    /// Fraction of capacity to plan for (default 0.7 — headroom for
    /// variance between plans).
    pub target_util: f64,
    /// EWMA smoothing factor α on total load (default 0.5; 1.0 = react
    /// to the last interval only).
    pub alpha: f64,
    /// Lower parallelism bound.
    pub min_tasks: usize,
    /// Upper parallelism bound.
    pub max_tasks: usize,
    ewma: Option<f64>,
}

impl TargetPlanner {
    /// A planner for tasks sustaining `capacity` cost units per interval,
    /// scaling within `[min_tasks, max_tasks]`.
    pub fn new(capacity: f64, min_tasks: usize, max_tasks: usize) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(min_tasks >= 1 && min_tasks <= max_tasks, "bad task bounds");
        TargetPlanner {
            capacity,
            target_util: 0.7,
            alpha: 0.5,
            min_tasks,
            max_tasks,
            ewma: None,
        }
    }

    /// The parallelism currently planned for (after the last `decide`).
    pub fn planned_tasks(&self) -> Option<usize> {
        self.ewma.map(|l| self.target_for(l))
    }

    fn target_for(&self, load: f64) -> usize {
        let per_task = self.target_util * self.capacity;
        let raw = (load / per_task).ceil() as usize;
        raw.clamp(self.min_tasks, self.max_tasks)
    }
}

impl ElasticityPolicy for TargetPlanner {
    fn name(&self) -> String {
        "planner".into()
    }

    fn decide(&mut self, obs: &IntervalObservation) -> ScaleDecision {
        let total = obs.total() as f64;
        let smoothed = match self.ewma {
            None => total,
            Some(prev) => self.alpha * total + (1.0 - self.alpha) * prev,
        };
        self.ewma = Some(smoothed);
        let target = self.target_for(smoothed);
        match target.cmp(&obs.n_tasks) {
            std::cmp::Ordering::Greater => ScaleDecision::ScaleOut,
            std::cmp::Ordering::Less if obs.n_dead == 0 => ScaleDecision::ScaleIn,
            _ => ScaleDecision::Hold,
        }
    }

    fn box_clone(&self) -> Box<dyn ElasticityPolicy> {
        Box::new(self.clone())
    }
}

// ------------------------------------------------------------------
// Hot-key splitting
// ------------------------------------------------------------------

/// One split decision for the coming interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitDecision {
    /// Change nothing.
    Hold,
    /// Salt `key` across `replicas` slots (primary + `replicas − 1`
    /// others chosen by the driver, see [`choose_replicas`]).
    Split {
        /// The hot key (raw `u64`: policies never touch routing types).
        key: u64,
        /// Total replica slots, ≥ 2.
        replicas: usize,
    },
    /// Consolidate `key` back onto its primary replica.
    Unsplit {
        /// The previously split key.
        key: u64,
    },
}

impl SplitDecision {
    /// Short display name (`hold` / `split` / `unsplit`).
    pub fn name(self) -> &'static str {
        match self {
            SplitDecision::Hold => "hold",
            SplitDecision::Split { .. } => "split",
            SplitDecision::Unsplit { .. } => "unsplit",
        }
    }
}

/// One executed split/unsplit, as drivers record it. `from`/`to` are the
/// key's replica counts before and after (1 means unsplit), so the sim's
/// and the engine's split traces compare with `==` just like
/// [`ScaleEvent`] traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitEvent {
    /// The interval whose statistics triggered the decision.
    pub interval: u64,
    /// The raw key.
    pub key: u64,
    /// Replica count before (1 = was unsplit).
    pub from: usize,
    /// Replica count after (1 = consolidated).
    pub to: usize,
}

/// What a split policy sees at an interval boundary (in a provisional
/// round: the open interval, scaled as if it closed as it began).
#[derive(Debug, Clone, Copy)]
pub struct SplitObservation<'a> {
    /// The interval just closed (provisional round: the open one).
    pub interval: u64,
    /// Downstream parallelism the routing function targets.
    pub n_tasks: usize,
    /// Per-key `(key, cost)` of the closed interval. Order is
    /// driver-defined; policies must not depend on it.
    pub key_loads: &'a [(u64, u64)],
    /// Keys currently split (ascending). Their `key_loads` entries carry
    /// the key's *total* cost summed across replicas.
    pub split_keys: &'a [u64],
}

impl SplitObservation<'_> {
    /// The hottest currently-unsplit key, deterministically: max cost,
    /// ties broken toward the lower key. `None` when every key is split
    /// or the interval was idle.
    pub fn hottest_unsplit(&self) -> Option<(u64, u64)> {
        self.key_loads
            .iter()
            .filter(|(k, c)| *c > 0 && !self.split_keys.contains(k))
            .copied()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// The cost of `key` this interval (0 when unobserved).
    pub fn cost_of(&self, key: u64) -> u64 {
        self.key_loads
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, c)| c)
    }
}

/// A pluggable per-interval split/unsplit decision-maker.
///
/// The contract mirrors [`ElasticityPolicy`]: stateful, deterministic,
/// and clamped by the driver (splitting needs ≥ 2 tasks; a decision the
/// driver cannot honour is skipped, not deferred, without telling the
/// policy). At most one decision per interval — splitting is a protocol
/// op with a pause window, so drivers serialize them like migrations.
pub trait SplitPolicy: Send + std::fmt::Debug {
    /// Display name for reports and bench legends.
    fn name(&self) -> String;

    /// Decides what to do after the observed interval.
    fn decide(&mut self, obs: &SplitObservation) -> SplitDecision;

    /// Clones the policy with its current state.
    fn box_clone(&self) -> Box<dyn SplitPolicy>;
}

impl Clone for Box<dyn SplitPolicy> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Picks the replica slots for a split: `primary` first (the key's
/// pre-split route, so unsplit consolidates without a table change),
/// then the `r − 1` least-loaded *other* tasks, ascending by
/// `(load, index)` for determinism. Returns fewer than `r` slots only
/// when there aren't enough tasks.
pub fn choose_replicas(primary: usize, loads: &[u64], r: usize) -> Vec<usize> {
    let mut others: Vec<usize> = (0..loads.len()).filter(|&i| i != primary).collect();
    others.sort_by_key(|&i| (loads[i], i));
    let mut out = Vec::with_capacity(r.min(loads.len()));
    out.push(primary);
    out.extend(others.into_iter().take(r.saturating_sub(1)));
    out
}

/// Watermark split policy with hysteresis — [`ThresholdPolicy`]'s shape
/// applied to a single key's load.
///
/// The per-task budget is `capacity / (1 + theta_max)`, as in
/// [`ThresholdPolicy`]. When the hottest unsplit key's cost stays above
/// `high · budget` for `up_after` consecutive intervals, no placement
/// of whole keys can bring its worker under `Lmax` — the key itself is
/// the imbalance — so the policy splits it. The replica count comes
/// from the key's load *share* `s` of the observed interval: a replica
/// worker carries `(1 − s)/n` of the background plus `s/r` of the key,
/// so keeping it under `(1 + θmax)/n` needs
/// `r ≥ ⌈s · n / (s + θmax)⌉` (clamped to `[2, max_replicas]` and the
/// parallelism). Sizing by share rather than absolute cost is
/// deliberate: a statistics round that catches only part of an
/// interval scales every cost down together, which halves an absolute
/// estimate but leaves the share — and hence the replica count —
/// unchanged. When a split key's total
/// cost stays below `low · budget` for `down_after` intervals, one
/// worker can carry it again and the policy consolidates. A `cooldown`
/// follows every action; streaks keep advancing inside it (the cooldown
/// delays the action, not the evidence).
#[derive(Debug, Clone)]
pub struct HotKeyPolicy {
    /// Sustainable load (cost units per interval) of one task.
    pub capacity: f64,
    /// Imbalance tolerance `θmax` shaping the budget (paper default 0.08).
    pub theta_max: f64,
    /// Split when the hottest key's cost exceeds `high · budget`
    /// (default 0.9).
    pub high: f64,
    /// Unsplit when a split key's cost drops below `low · budget`
    /// (default 0.5).
    pub low: f64,
    /// Consecutive hot intervals before splitting (default 1).
    pub up_after: usize,
    /// Consecutive cool intervals before unsplitting (default 2).
    pub down_after: usize,
    /// Intervals to hold after any action (default 1).
    pub cooldown: u64,
    /// Upper bound on replicas per split key (default 4).
    pub max_replicas: usize,
    /// The key whose hot streak is running, with its count. The streak
    /// follows the *hottest* key: if a different key takes the lead the
    /// streak restarts — a split must be justified by one key's
    /// sustained dominance, not by the maximum hopping around.
    hot: Option<(u64, usize)>,
    /// Cool streaks per currently-split key.
    cool: Vec<(u64, usize)>,
    /// Only the cooldown gate is used; the streaks above are per key.
    hysteresis: Hysteresis,
}

impl HotKeyPolicy {
    /// A policy for tasks sustaining `capacity` cost units per interval.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        HotKeyPolicy {
            capacity,
            theta_max: 0.08,
            high: 0.9,
            low: 0.5,
            up_after: 1,
            down_after: 2,
            cooldown: 1,
            max_replicas: 4,
            hot: None,
            cool: Vec::new(),
            hysteresis: Hysteresis::default(),
        }
    }

    /// The per-task budget `capacity / (1 + θmax)`.
    pub fn budget(&self) -> f64 {
        self.capacity / (1.0 + self.theta_max)
    }
}

impl SplitPolicy for HotKeyPolicy {
    fn name(&self) -> String {
        "hotkey".into()
    }

    fn decide(&mut self, obs: &SplitObservation) -> SplitDecision {
        let budget = self.budget();
        let high_mark = self.high * budget;
        let low_mark = self.low * budget;

        // Advance the hot streak on the hottest unsplit key.
        match obs.hottest_unsplit() {
            Some((key, cost)) if cost as f64 > high_mark => {
                self.hot = match self.hot {
                    Some((k, n)) if k == key => Some((key, n + 1)),
                    _ => Some((key, 1)),
                };
            }
            _ => self.hot = None,
        }

        // Advance cool streaks for every currently-split key; drop
        // streaks for keys no longer split (the driver may have
        // dissolved one through scale-in repair).
        self.cool.retain(|(k, _)| obs.split_keys.contains(k));
        for &key in obs.split_keys {
            let cool = (obs.cost_of(key) as f64) < low_mark;
            match self.cool.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n = if cool { *n + 1 } else { 0 },
                None => self.cool.push((key, usize::from(cool))),
            }
        }

        if self.hysteresis.cooling(obs.interval) {
            return SplitDecision::Hold;
        }

        // Split takes precedence: overload repair beats consolidation.
        if let Some((key, n)) = self.hot {
            if n >= self.up_after && obs.n_tasks >= 2 {
                let cost = obs.cost_of(key) as f64;
                let total: u64 = obs.key_loads.iter().map(|&(_, c)| c).sum();
                // Share-based sizing: scale-free, so a truncated
                // statistics round sizes the same as a full one.
                let share = cost / total.max(1) as f64;
                let want = (share * obs.n_tasks as f64 / (share + self.theta_max)).ceil() as usize;
                let replicas = want.clamp(2, self.max_replicas.min(obs.n_tasks).max(2));
                self.hot = None;
                self.hysteresis.acted(obs.interval, self.cooldown);
                return SplitDecision::Split { key, replicas };
            }
        }

        // Unsplit the lowest eligible key (deterministic tie-break).
        let done = self
            .cool
            .iter()
            .filter(|&&(_, n)| n >= self.down_after)
            .map(|&(k, _)| k)
            .min();
        if let Some(key) = done {
            self.cool.retain(|(k, _)| *k != key);
            self.hysteresis.acted(obs.interval, self.cooldown);
            return SplitDecision::Unsplit { key };
        }
        SplitDecision::Hold
    }

    fn box_clone(&self) -> Box<dyn SplitPolicy> {
        Box::new(self.clone())
    }
}

/// Replays a fixed `(interval → decision)` split schedule — the
/// reproduction policy for forced-split tests, mirroring
/// [`FixedSchedule`]. Intervals without an entry hold.
#[derive(Debug, Clone, Default)]
pub struct FixedSplitSchedule {
    at: Vec<(u64, SplitDecision)>,
}

impl FixedSplitSchedule {
    /// A schedule from explicit `(interval, decision)` pairs.
    pub fn new(at: impl IntoIterator<Item = (u64, SplitDecision)>) -> Self {
        FixedSplitSchedule {
            at: at.into_iter().collect(),
        }
    }

    /// The forced split cycle tests pin: split `key` over `replicas`
    /// slots after `split_at`, consolidate after `unsplit_at`.
    pub fn cycle(key: u64, replicas: usize, split_at: u64, unsplit_at: u64) -> Self {
        FixedSplitSchedule::new([
            (split_at, SplitDecision::Split { key, replicas }),
            (unsplit_at, SplitDecision::Unsplit { key }),
        ])
    }
}

impl SplitPolicy for FixedSplitSchedule {
    fn name(&self) -> String {
        "fixed-split".into()
    }

    fn decide(&mut self, obs: &SplitObservation) -> SplitDecision {
        self.at
            .iter()
            .find(|&&(iv, _)| iv == obs.interval)
            .map_or(SplitDecision::Hold, |&(_, d)| d)
    }

    fn box_clone(&self) -> Box<dyn SplitPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(interval: u64, loads: &[u64]) -> IntervalObservation<'_> {
        IntervalObservation {
            interval,
            n_tasks: loads.len(),
            loads,
            queue_depths: &[],
            mean_latency_us: 0.0,
            p99_latency_us: 0.0,
            n_dead: 0,
        }
    }

    /// An observation with a queue signal (loads idle: backpressure
    /// policies must not need them).
    fn obs_q<'a>(interval: u64, n_tasks: usize, queues: &'a [u64]) -> IntervalObservation<'a> {
        IntervalObservation {
            interval,
            n_tasks,
            loads: &[],
            queue_depths: queues,
            mean_latency_us: 0.0,
            p99_latency_us: 0.0,
            n_dead: 0,
        }
    }

    #[test]
    fn observation_derivations() {
        let loads = [16, 4];
        let o = obs(0, &loads);
        assert_eq!(o.total(), 20);
        assert!((o.mean() - 10.0).abs() < 1e-12);
        assert!((o.max_theta() - 0.6).abs() < 1e-12);
        let empty: [u64; 0] = [];
        let o = IntervalObservation {
            interval: 0,
            n_tasks: 0,
            loads: &empty,
            queue_depths: &empty,
            mean_latency_us: 0.0,
            p99_latency_us: 0.0,
            n_dead: 0,
        };
        assert_eq!(o.mean(), 0.0);
        assert_eq!(o.max_theta(), 0.0);
        assert_eq!(o.max_queue(), 0);
        assert_eq!(o.total_queue(), 0);
    }

    #[test]
    fn hold_never_scales() {
        let mut p = HoldPolicy;
        for iv in 0..10 {
            assert_eq!(p.decide(&obs(iv, &[1_000_000, 0])), ScaleDecision::Hold);
        }
    }

    #[test]
    fn fixed_schedule_reproduces_scale_out_at() {
        let mut p = FixedSchedule::scale_out_at(2);
        let decisions: Vec<ScaleDecision> =
            (0..5).map(|iv| p.decide(&obs(iv, &[10, 10]))).collect();
        assert_eq!(
            decisions,
            vec![
                ScaleDecision::Hold,
                ScaleDecision::Hold,
                ScaleDecision::ScaleOut,
                ScaleDecision::Hold,
                ScaleDecision::Hold,
            ]
        );
    }

    #[test]
    fn fixed_cycle_schedules_out_then_in() {
        let mut p = FixedSchedule::cycle(1, 4, 2);
        let decisions: Vec<&str> = (0..7)
            .map(|iv| p.decide(&obs(iv, &[10, 10])).name())
            .collect();
        assert_eq!(
            decisions,
            vec!["hold", "out", "out", "hold", "in", "in", "hold"]
        );
    }

    #[test]
    fn threshold_scales_out_on_sustained_overload_only() {
        let mut p = ThresholdPolicy::new(100.0, 1, 8);
        p.up_after = 2;
        p.low = 0.0; // disable scale-in for this test
                     // budget ≈ 92.6; mean 95 > 0.9·budget ≈ 83.3.
        assert_eq!(p.decide(&obs(0, &[95, 95])), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(1, &[95, 95])), ScaleDecision::ScaleOut);
        // Cooldown: the next interval holds even under overload.
        assert_eq!(p.decide(&obs(2, &[95, 95, 95])), ScaleDecision::Hold);
    }

    #[test]
    fn threshold_scales_in_when_survivors_absorb_the_load() {
        let mut p = ThresholdPolicy::new(100.0, 1, 8);
        p.down_after = 2;
        // 4 tasks at 20 → survivors' mean 80/3 ≈ 26.7 < 0.6·92.6 ≈ 55.6.
        assert_eq!(p.decide(&obs(0, &[20, 20, 20, 20])), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(1, &[20, 20, 20, 20])), ScaleDecision::ScaleIn);
    }

    #[test]
    fn threshold_hysteresis_does_not_flap() {
        // A load flat at mid-band (between low·budget·(n−1)/n and
        // high·budget) must never trigger in either direction.
        let mut p = ThresholdPolicy::new(100.0, 1, 8);
        for iv in 0..20 {
            // mean 70: below high (83.3); survivors' mean 93.3 above low.
            assert_eq!(
                p.decide(&obs(iv, &[70, 70, 70])),
                ScaleDecision::Hold,
                "interval {iv}"
            );
        }
    }

    #[test]
    fn threshold_respects_bounds() {
        let mut p = ThresholdPolicy::new(100.0, 2, 2);
        assert_eq!(p.decide(&obs(0, &[500, 500])), ScaleDecision::Hold);
        let mut p = ThresholdPolicy::new(100.0, 2, 2);
        p.down_after = 1;
        assert_eq!(p.decide(&obs(0, &[1, 1])), ScaleDecision::Hold);
    }

    #[test]
    fn threshold_streaks_reset_on_recovery() {
        let mut p = ThresholdPolicy::new(100.0, 1, 8);
        p.up_after = 2;
        assert_eq!(p.decide(&obs(0, &[95, 95])), ScaleDecision::Hold);
        // Recovery interval breaks the streak.
        assert_eq!(p.decide(&obs(1, &[70, 70])), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs(2, &[95, 95])), ScaleDecision::Hold);
    }

    #[test]
    fn backpressure_scales_out_on_standing_queue_only() {
        let mut p = BackpressurePolicy::new(100, 10, 1, 8);
        p.up_after = 2;
        // One deep sample is noise; two consecutive are a standing queue.
        assert_eq!(p.decide(&obs_q(0, 2, &[150, 0])), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs_q(1, 2, &[150, 0])), ScaleDecision::ScaleOut);
        // Cooldown: the next interval holds even while still backed up.
        assert_eq!(p.decide(&obs_q(2, 3, &[150, 0, 0])), ScaleDecision::Hold);
    }

    #[test]
    fn backpressure_streak_resets_when_queue_drains() {
        let mut p = BackpressurePolicy::new(100, 10, 1, 8);
        p.up_after = 2;
        assert_eq!(p.decide(&obs_q(0, 2, &[150, 0])), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs_q(1, 2, &[0, 0])), ScaleDecision::Hold);
        assert_eq!(p.decide(&obs_q(2, 2, &[150, 0])), ScaleDecision::Hold);
    }

    #[test]
    fn backpressure_scales_in_when_pipeline_drains() {
        let mut p = BackpressurePolicy::new(100, 10, 1, 8);
        p.down_after = 2;
        assert_eq!(p.decide(&obs_q(0, 4, &[1, 2, 0, 1])), ScaleDecision::Hold);
        assert_eq!(
            p.decide(&obs_q(1, 4, &[1, 2, 0, 1])),
            ScaleDecision::ScaleIn
        );
    }

    #[test]
    fn backpressure_mid_band_never_flaps() {
        // Queues between the watermarks (total ≥ low, max ≤ high): hold
        // forever in either direction.
        let mut p = BackpressurePolicy::new(100, 10, 1, 8);
        for iv in 0..20 {
            assert_eq!(
                p.decide(&obs_q(iv, 3, &[40, 30, 20])),
                ScaleDecision::Hold,
                "interval {iv}"
            );
        }
    }

    #[test]
    fn backpressure_respects_bounds() {
        let mut p = BackpressurePolicy::new(100, 10, 2, 2);
        assert_eq!(p.decide(&obs_q(0, 2, &[500, 500])), ScaleDecision::Hold);
        let mut p = BackpressurePolicy::new(100, 10, 2, 2);
        p.down_after = 1;
        assert_eq!(p.decide(&obs_q(0, 2, &[0, 0])), ScaleDecision::Hold);
    }

    #[test]
    fn backpressure_latency_symptom_counts_as_overload() {
        let mut p = BackpressurePolicy::new(100, 10, 1, 8);
        p.high_p99_us = 5_000.0;
        // Queues shallow (sampled between bursts) but tail latency blown:
        // the latency symptom fires the same scale-out path.
        let o = IntervalObservation {
            interval: 0,
            n_tasks: 2,
            loads: &[],
            queue_depths: &[3, 1],
            mean_latency_us: 2_000.0,
            p99_latency_us: 20_000.0,
            n_dead: 0,
        };
        assert_eq!(p.decide(&o), ScaleDecision::ScaleOut);
    }

    /// While a worker slot is dead, policies must refuse to scale in no
    /// matter how drained the survivors look — an unplanned capacity loss
    /// never justifies a voluntary one — but must still allow scale-out.
    #[test]
    fn no_policy_scales_in_while_degraded() {
        let degraded = |interval, loads: &'static [u64]| IntervalObservation {
            interval,
            n_tasks: loads.len(),
            loads,
            queue_depths: &[],
            mean_latency_us: 0.0,
            p99_latency_us: 0.0,
            n_dead: 1,
        };
        let mut t = ThresholdPolicy::new(100.0, 1, 8);
        t.down_after = 1;
        for iv in 0..4 {
            assert_eq!(
                t.decide(&degraded(iv, &[5, 5, 5, 5])),
                ScaleDecision::Hold,
                "threshold interval {iv}"
            );
        }
        // The same trace with the slot revived scales in at once: the
        // low streak kept accumulating while the action was held.
        assert_eq!(t.decide(&obs(4, &[5, 5, 5, 5])), ScaleDecision::ScaleIn);

        let mut b = BackpressurePolicy::new(100, 10, 1, 8);
        b.down_after = 1;
        let mut drained = degraded(0, &[]);
        drained.n_tasks = 3;
        assert_eq!(b.decide(&drained), ScaleDecision::Hold, "backpressure");

        let mut pl = TargetPlanner::new(100.0, 1, 16);
        pl.alpha = 1.0;
        assert_eq!(pl.decide(&degraded(0, &[5, 5, 5, 5])), ScaleDecision::Hold);

        // Scale-out stays live under degradation: overload on the
        // survivors is exactly when replacement capacity is needed.
        let mut t = ThresholdPolicy::new(100.0, 1, 8);
        assert_eq!(
            t.decide(&degraded(0, &[95, 95])),
            ScaleDecision::ScaleOut,
            "degradation must not block scale-out"
        );
    }

    #[test]
    fn planner_steps_toward_target_one_at_a_time() {
        let mut p = TargetPlanner::new(100.0, 1, 16);
        p.alpha = 1.0; // no smoothing: deterministic targets
                       // Load 560 at util 0.7 → target ⌈560/70⌉ = 8; from 4 tasks the
                       // planner emits ScaleOut each interval until parallelism reaches
                       // the target, then holds.
        let mut n = 4usize;
        let mut steps = Vec::new();
        for iv in 0..8 {
            let loads: Vec<u64> = (0..n).map(|_| 560 / n as u64).collect();
            let d = p.decide(&obs(iv, &loads));
            if d == ScaleDecision::ScaleOut {
                n += 1;
            }
            steps.push((d, n));
        }
        assert_eq!(p.planned_tasks(), Some(8));
        assert_eq!(n, 8, "reached the target: {steps:?}");
        assert!(
            steps[4..].iter().all(|&(d, _)| d == ScaleDecision::Hold),
            "held after convergence: {steps:?}"
        );
    }

    #[test]
    fn planner_steps_back_down_when_load_drops() {
        let mut p = TargetPlanner::new(100.0, 2, 16);
        p.alpha = 1.0;
        let loads = [10u64, 10, 10, 10, 10, 10];
        // Target ⌈60/70⌉ = 1, clamped to min 2 → scale in from 6.
        assert_eq!(p.decide(&obs(0, &loads)), ScaleDecision::ScaleIn);
    }

    #[test]
    fn planner_ewma_smooths_spikes() {
        let mut p = TargetPlanner::new(100.0, 1, 16);
        p.alpha = 0.25;
        // Steady 140 (target 2), one interval spikes to 1400.
        let steady = [70u64, 70];
        assert_eq!(p.decide(&obs(0, &steady)), ScaleDecision::Hold);
        // Smoothed: 0.25·1400 + 0.75·140 = 455 → target 7 > 2 → out,
        // but one recovery interval pulls the EWMA back down fast.
        let spike = [700u64, 700];
        assert_eq!(p.decide(&obs(1, &spike)), ScaleDecision::ScaleOut);
        let mut n = 3usize;
        let mut peak = n;
        for iv in 2..40 {
            let loads: Vec<u64> = vec![140 / n as u64; n];
            match p.decide(&obs(iv, &loads)) {
                ScaleDecision::ScaleIn => n -= 1,
                ScaleDecision::ScaleOut => n += 1,
                ScaleDecision::Hold => {}
            }
            peak = peak.max(n);
        }
        // α = 0.25 discounts the one-interval spike: the overshoot stays
        // far below the spike's raw target (⌈1400/70⌉ = 20)…
        assert!(peak <= 7, "smoothing failed: peaked at {peak}");
        // …and the EWMA walks parallelism back once the load recovers.
        assert_eq!(n, 2, "EWMA converged back after the spike");
    }

    fn sobs<'a>(
        interval: u64,
        n_tasks: usize,
        key_loads: &'a [(u64, u64)],
        split_keys: &'a [u64],
    ) -> SplitObservation<'a> {
        SplitObservation {
            interval,
            n_tasks,
            key_loads,
            split_keys,
        }
    }

    #[test]
    fn hottest_unsplit_is_deterministic() {
        let loads = [(7u64, 50u64), (3, 90), (9, 90), (1, 0)];
        let o = sobs(0, 4, &loads, &[]);
        // Tie at 90 breaks toward the lower key.
        assert_eq!(o.hottest_unsplit(), Some((3, 90)));
        // A split key is excluded from the scan.
        let o = sobs(0, 4, &loads, &[3]);
        assert_eq!(o.hottest_unsplit(), Some((9, 90)));
        assert_eq!(o.cost_of(7), 50);
        assert_eq!(o.cost_of(42), 0);
    }

    #[test]
    fn choose_replicas_prefers_idle_tasks() {
        // Primary 2 first, then the least-loaded others by (load, index).
        assert_eq!(choose_replicas(2, &[40, 10, 99, 10], 3), vec![2, 1, 3]);
        // Asking for more slots than tasks returns all of them.
        assert_eq!(choose_replicas(0, &[5, 5], 8), vec![0, 1]);
    }

    #[test]
    fn hotkey_splits_on_sustained_dominance_only() {
        let mut p = HotKeyPolicy::new(100.0);
        p.up_after = 2;
        // budget ≈ 92.6, high mark ≈ 83.3; key 5 carries 170.
        let hot = [(5u64, 170u64), (6, 10), (7, 10)];
        assert_eq!(p.decide(&sobs(0, 4, &hot, &[])), SplitDecision::Hold);
        // Share 170/190 ≈ 0.895 → ⌈0.895 · 4 / 0.975⌉ = 4 replicas.
        assert_eq!(
            p.decide(&sobs(1, 4, &hot, &[])),
            SplitDecision::Split {
                key: 5,
                replicas: 4
            }
        );
        // Cooldown: still hot next interval, but the action is held.
        assert_eq!(p.decide(&sobs(2, 4, &hot, &[5])), SplitDecision::Hold);
    }

    #[test]
    fn hotkey_streak_resets_when_the_leader_changes() {
        let mut p = HotKeyPolicy::new(100.0);
        p.up_after = 2;
        assert_eq!(
            p.decide(&sobs(0, 4, &[(5, 170), (6, 10)], &[])),
            SplitDecision::Hold
        );
        // A different key takes the lead: no split on its first interval.
        assert_eq!(
            p.decide(&sobs(1, 4, &[(5, 10), (6, 170)], &[])),
            SplitDecision::Hold
        );
    }

    #[test]
    fn hotkey_unsplits_when_the_key_cools() {
        let mut p = HotKeyPolicy::new(100.0);
        p.down_after = 2;
        p.cooldown = 0;
        // Key 5 split, now cold (low mark ≈ 46.3).
        let cold = [(5u64, 20u64), (6, 10)];
        assert_eq!(p.decide(&sobs(0, 4, &cold, &[5])), SplitDecision::Hold);
        assert_eq!(
            p.decide(&sobs(1, 4, &cold, &[5])),
            SplitDecision::Unsplit { key: 5 }
        );
    }

    #[test]
    fn hotkey_mid_band_never_flaps() {
        // A split key between the watermarks must stay split; an unsplit
        // key between them must stay unsplit.
        let mut p = HotKeyPolicy::new(100.0);
        let mid = [(5u64, 60u64), (6, 10)];
        for iv in 0..20 {
            assert_eq!(
                p.decide(&sobs(iv, 4, &mid, &[5])),
                SplitDecision::Hold,
                "interval {iv}"
            );
        }
        let mut p = HotKeyPolicy::new(100.0);
        for iv in 0..20 {
            assert_eq!(
                p.decide(&sobs(iv, 4, &mid, &[])),
                SplitDecision::Hold,
                "interval {iv}"
            );
        }
    }

    #[test]
    fn hotkey_respects_replica_and_task_bounds() {
        // 2 tasks: replicas clamp to 2 even for a huge key.
        let mut p = HotKeyPolicy::new(100.0);
        assert_eq!(
            p.decide(&sobs(0, 2, &[(5, 100_000)], &[])),
            SplitDecision::Split {
                key: 5,
                replicas: 2
            }
        );
        // 1 task: splitting is meaningless, hold.
        let mut p = HotKeyPolicy::new(100.0);
        assert_eq!(
            p.decide(&sobs(0, 1, &[(5, 100_000)], &[])),
            SplitDecision::Hold
        );
        // max_replicas caps the spread.
        let mut p = HotKeyPolicy::new(100.0);
        p.max_replicas = 3;
        assert_eq!(
            p.decide(&sobs(0, 16, &[(5, 100_000)], &[])),
            SplitDecision::Split {
                key: 5,
                replicas: 3
            }
        );
    }

    #[test]
    fn hotkey_split_beats_unsplit_and_serializes_actions() {
        let mut p = HotKeyPolicy::new(100.0);
        p.down_after = 1;
        p.cooldown = 0;
        // Key 3 is split and cold; key 5 is hot: split wins the interval.
        let loads = [(3u64, 5u64), (5, 170), (6, 10)];
        assert_eq!(
            p.decide(&sobs(0, 4, &loads, &[3])),
            SplitDecision::Split {
                key: 5,
                replicas: 4
            }
        );
        // The postponed unsplit fires on the next eligible interval.
        let loads = [(3u64, 5u64), (5, 60), (6, 10)];
        assert_eq!(
            p.decide(&sobs(1, 4, &loads, &[3, 5])),
            SplitDecision::Unsplit { key: 3 }
        );
    }

    #[test]
    fn fixed_split_schedule_replays() {
        let mut p = FixedSplitSchedule::cycle(9, 2, 1, 3);
        let names: Vec<&str> = (0..5)
            .map(|iv| p.decide(&sobs(iv, 4, &[], &[])).name())
            .collect();
        assert_eq!(names, vec!["hold", "split", "hold", "unsplit", "hold"]);
        assert_eq!(
            FixedSplitSchedule::cycle(9, 2, 1, 3).decide(&sobs(3, 4, &[], &[])),
            SplitDecision::Unsplit { key: 9 }
        );
    }

    #[test]
    fn boxed_split_policies_clone_with_state() {
        let mut p = HotKeyPolicy::new(100.0);
        p.up_after = 2;
        let hot = [(5u64, 170u64)];
        let _ = p.decide(&sobs(0, 4, &hot, &[])); // streak = 1
        let mut boxed: Box<dyn SplitPolicy> = Box::new(p);
        let mut cloned = boxed.clone();
        assert!(matches!(
            cloned.decide(&sobs(1, 4, &hot, &[])),
            SplitDecision::Split { key: 5, .. }
        ));
        assert!(matches!(
            boxed.decide(&sobs(1, 4, &hot, &[])),
            SplitDecision::Split { key: 5, .. }
        ));
        assert_eq!(boxed.name(), "hotkey");
    }

    #[test]
    fn boxed_policies_clone_with_state() {
        let mut p = ThresholdPolicy::new(100.0, 1, 8);
        p.up_after = 2;
        let _ = p.decide(&obs(0, &[95, 95])); // streak = 1
        let mut boxed: Box<dyn ElasticityPolicy> = Box::new(p);
        let mut cloned = boxed.clone();
        // Both fire on the next interval: the streak survived the clone.
        assert_eq!(cloned.decide(&obs(1, &[95, 95])), ScaleDecision::ScaleOut);
        assert_eq!(boxed.decide(&obs(1, &[95, 95])), ScaleDecision::ScaleOut);
        assert_eq!(boxed.name(), "threshold");
    }
}
