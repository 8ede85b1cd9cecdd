//! The rebalance façade: strategy dispatch and the stateful [`Rebalancer`]
//! — the one table-backed [`Partitioner`].
//!
//! This is the module the engine talks to. At each interval boundary the
//! controller feeds the collected [`IntervalStats`] into
//! [`Partitioner::end_interval`]; if any task violates `θmax`, the
//! rebalancer's planner constructs a new assignment `F′`, its move list
//! is applied to the routing table, and the resulting [`MigrationPlan`]
//! is handed back for the engine to execute with the pause → migrate →
//! ack → resume protocol (Fig. 5).

use std::fmt;

use crate::key::{Key, TaskId};
use crate::load::{loads_of, needs_rebalance, LoadSummary};
use crate::migration::{MigrationPlan, Move};
use crate::minmig::minmig_assign;
use crate::mintable::mintable_assign;
use crate::mixed::{mixed_assign, mixed_bf_assign};
use crate::partitioner::{Partitioner, RoutingView};
use crate::routing::{AssignmentFn, RoutingTable};
use crate::simple::simple_assign;
use crate::stats::{IntervalStats, KeyRecord, StatsPlane};

/// Tuning knobs of the optimization problem (Eq. 3) plus the γ weight β.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceParams {
    /// Imbalance tolerance `θmax`; rebalance triggers when any task's
    /// balance indicator exceeds it. Paper default 0.08.
    pub theta_max: f64,
    /// The migration-selection factor β in `γ = c^β / S`. Paper default
    /// 1.5 (selected via the appendix's Figs. 20–21).
    pub beta: f64,
    /// Routing-table bound `Amax`. Paper default 3000.
    pub table_max: usize,
}

impl Default for BalanceParams {
    fn default() -> Self {
        BalanceParams {
            theta_max: 0.08,
            beta: 1.5,
            table_max: 3_000,
        }
    }
}

/// Which §III algorithm constructs `F′`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RebalanceStrategy {
    /// Algorithm 2 — minimal routing table, expensive migrations.
    MinTable,
    /// Algorithm 3 — minimal migrations, unbounded table growth.
    MinMig,
    /// Algorithm 4 — the paper's production algorithm.
    Mixed,
    /// Brute-force Mixed: optimal cleaning depth by exhaustive trial.
    MixedBF,
    /// Appendix Algorithm 5 — LPT from scratch; theory baseline.
    Simple,
}

impl RebalanceStrategy {
    /// Human-readable name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            RebalanceStrategy::MinTable => "MinTable",
            RebalanceStrategy::MinMig => "MinMig",
            RebalanceStrategy::Mixed => "Mixed",
            RebalanceStrategy::MixedBF => "MixedBF",
            RebalanceStrategy::Simple => "Simple",
        }
    }
}

/// A single rebalance decision's input: the flattened key records (cost
/// from the last interval, state from the window, current + hash
/// destinations) and the task count.
#[derive(Debug, Clone)]
pub struct RebalanceInput {
    /// Downstream parallelism `N_D`.
    pub n_tasks: usize,
    /// One record per live key.
    pub records: Vec<KeyRecord>,
}

impl RebalanceInput {
    /// Load summary under the *current* assignment.
    pub fn current_loads(&self) -> LoadSummary {
        loads_of(&self.records, self.n_tasks)
    }

    /// Total state bytes held across all keys (denominator of the
    /// migration-cost percentage).
    pub fn total_state(&self) -> u64 {
        self.records.iter().map(|r| r.mem).sum()
    }
}

/// Everything a rebalance decision produces.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// The new routing table `A′` (entries where `F′(k) ≠ h(k)`).
    pub table: RoutingTable,
    /// The migration plan `Δ(F, F′)` with per-key state sizes.
    pub plan: MigrationPlan,
    /// Estimated post-migration loads.
    pub loads: LoadSummary,
    /// Worst balance indicator after rebalance (estimated).
    pub achieved_theta: f64,
    /// Fraction of total state migrated, the paper's "migration cost %".
    pub migration_fraction: f64,
}

/// Builds the outcome artifacts (routing table, migration plan, load
/// summary) from a raw assignment vector parallel to `input.records`.
///
/// Public so that external strategies (e.g. the Readj baseline) can emit
/// the same outcome type as the built-in algorithms.
pub fn outcome_from_assignment(input: &RebalanceInput, assign: &[TaskId]) -> RebalanceOutcome {
    debug_assert_eq!(assign.len(), input.records.len());
    let mut table = RoutingTable::new();
    let mut loads = vec![0u64; input.n_tasks];
    for (r, &d) in input.records.iter().zip(assign) {
        loads[d.index()] += r.cost;
        if d != r.hash_dest {
            table.insert(r.key, d);
        }
    }
    // `assign` is parallel to the records: Δ(F, F′) falls out of one zip.
    let plan = MigrationPlan::from_moves(input.records.iter().zip(assign).map(|(r, &to)| Move {
        key: r.key,
        from: r.current,
        to,
        state_bytes: r.mem,
    }));
    let loads = LoadSummary::new(loads);
    let achieved_theta = loads.max_theta();
    let migration_fraction = plan.cost_fraction(input.total_state());
    RebalanceOutcome {
        table,
        plan,
        loads,
        achieved_theta,
        migration_fraction,
    }
}

/// Runs one rebalance with the chosen strategy. Pure function of its
/// inputs; the stateful wrapper is [`Rebalancer`].
pub fn rebalance(
    input: &RebalanceInput,
    strategy: RebalanceStrategy,
    params: &BalanceParams,
) -> RebalanceOutcome {
    let assign = match strategy {
        RebalanceStrategy::MinTable => {
            mintable_assign(&input.records, input.n_tasks, params.theta_max)
        }
        RebalanceStrategy::MinMig => {
            minmig_assign(&input.records, input.n_tasks, params.theta_max, params.beta)
        }
        RebalanceStrategy::Mixed => {
            mixed_assign(
                &input.records,
                input.n_tasks,
                params.theta_max,
                params.beta,
                params.table_max,
            )
            .assign
        }
        RebalanceStrategy::MixedBF => {
            mixed_bf_assign(
                &input.records,
                input.n_tasks,
                params.theta_max,
                params.beta,
                params.table_max,
            )
            .assign
        }
        RebalanceStrategy::Simple => simple_assign(&input.records, input.n_tasks),
    };
    outcome_from_assignment(input, &assign)
}

/// When the controller may fire a rebalance, beyond the θmax condition,
/// and how far a plan that fires goes.
///
/// The paper triggers whenever imbalance is detected at an interval end
/// and plans to `θmax`; production controllers usually add damping so
/// that a single noisy interval (or a migration's own transient) does
/// not cause thrash. `cooldown` and `consecutive` default to the paper's
/// behaviour. `settle_inside` does not: by default a plan stops well
/// inside the tolerance that triggered it (DESIGN.md §4), and
/// [`TriggerPolicy::paper`] is the paper-exact policy the figure
/// harness pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerPolicy {
    /// Minimum intervals between consecutive rebalances (0 = none).
    pub cooldown: usize,
    /// Require this many *consecutive* violating intervals before firing
    /// (1 = fire on first violation, the paper's behaviour).
    pub consecutive: usize,
    /// Plan to [`SETTLE_FRACTION`]` · θmax` instead of to `θmax` itself.
    /// A plan that lands exactly on the trigger threshold is re-tripped
    /// by the next ripple and leaves every interval between two plans
    /// running at `θ ≈ θmax`; the trigger stays at `θmax` either way.
    pub settle_inside: bool,
}

/// The share of `θmax` a settling plan aims for.
pub const SETTLE_FRACTION: f64 = 0.25;

impl TriggerPolicy {
    /// The paper's controller: fire on the first violation, plan to
    /// `θmax`.
    pub fn paper() -> Self {
        TriggerPolicy {
            settle_inside: false,
            ..TriggerPolicy::default()
        }
    }
}

impl Default for TriggerPolicy {
    fn default() -> Self {
        TriggerPolicy {
            cooldown: 0,
            consecutive: 1,
            settle_inside: true,
        }
    }
}

/// An external planning function: given the rebalance input, the new
/// assignment, parallel to `input.records`.
pub type PlanFn = Box<dyn Fn(&RebalanceInput) -> Vec<TaskId> + Send>;

/// What constructs `F′` when a [`Rebalancer`]'s trigger fires.
enum Planner {
    /// One of the §III algorithms, planning to the trigger policy's
    /// target.
    Strategy(RebalanceStrategy),
    /// A competitor's algorithm under its own tolerance (Readj).
    External {
        /// Display name.
        name: &'static str,
        /// The planning function.
        plan: PlanFn,
    },
}

impl fmt::Debug for Planner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Planner::Strategy(s) => f.debug_tuple("Strategy").field(s).finish(),
            Planner::External { name, .. } => f.debug_tuple("External").field(name).finish(),
        }
    }
}

/// The table-backed partitioner: owns the assignment function (routing
/// table + hash ring + split layer) and the statistics window (together
/// the [`StatsPlane`]), decides when to trigger, and applies accepted
/// plans to the table. Every strategy that routes by Eq. 1 is this type
/// and differs only in its planner — a §III algorithm
/// ([`Rebalancer::new`]), a competitor's planning function
/// ([`Rebalancer::with_planner`]), or none at all
/// ([`Rebalancer::hash_only`], static consistent hashing) — so scale-out,
/// scale-in, dead-slot re-pinning, roll-backs and hot-key splits behave
/// alike for all of them. Its [`Partitioner`] methods hand each table
/// mutation to the [`StatsPlane`], the single place a mutation meets the
/// window.
#[derive(Debug)]
pub struct Rebalancer {
    plane: StatsPlane,
    params: BalanceParams,
    /// `None`: the assignment never changes on its own and statistics
    /// are not even retained.
    planner: Option<Planner>,
    rebalances: usize,
    trigger: TriggerPolicy,
    intervals_since_rebalance: usize,
    consecutive_violations: usize,
    last_install_was_delta: bool,
}

impl Rebalancer {
    /// Creates a rebalancer for `n_tasks` downstream instances keeping `w`
    /// intervals of state.
    pub fn new(
        n_tasks: usize,
        window: usize,
        strategy: RebalanceStrategy,
        params: BalanceParams,
    ) -> Self {
        Rebalancer::build(n_tasks, window, Some(Planner::Strategy(strategy)), params)
    }

    /// Static consistent hashing over `n_tasks` instances — what a stock
    /// Storm `fields` grouping does ("Storm" in the paper's figures): it
    /// never plans, so its table only ever holds what scale and recovery
    /// operations pin.
    pub fn hash_only(n_tasks: usize) -> Self {
        Rebalancer::build(n_tasks, 1, None, BalanceParams::default())
    }

    /// A rebalancer that triggers at `theta_max` like the paper's
    /// controller ([`TriggerPolicy::paper`]) and plans with `plan`, shown
    /// as `name`. The planner runs under its own tolerance: a
    /// `settle_inside` trigger policy does not reach it.
    pub fn with_planner(
        n_tasks: usize,
        window: usize,
        name: &'static str,
        theta_max: f64,
        plan: PlanFn,
    ) -> Self {
        let params = BalanceParams {
            theta_max,
            ..BalanceParams::default()
        };
        Rebalancer::build(
            n_tasks,
            window,
            Some(Planner::External { name, plan }),
            params,
        )
        .with_trigger_policy(TriggerPolicy::paper())
    }

    fn build(
        n_tasks: usize,
        window: usize,
        planner: Option<Planner>,
        params: BalanceParams,
    ) -> Self {
        Rebalancer {
            plane: StatsPlane::new(n_tasks, window),
            params,
            planner,
            rebalances: 0,
            trigger: TriggerPolicy::default(),
            intervals_since_rebalance: usize::MAX,
            consecutive_violations: 0,
            last_install_was_delta: false,
        }
    }

    /// Replaces the trigger damping policy. A cooldown or
    /// consecutive-violation requirement sets the effective *rebalance
    /// period*, which is exactly the cold-start lag a pinned scale-out
    /// pays while the new instance waits for the next plan.
    pub fn with_trigger_policy(mut self, trigger: TriggerPolicy) -> Self {
        self.trigger = trigger;
        self
    }

    /// The live assignment function.
    pub fn assignment(&self) -> &AssignmentFn {
        self.plane.assignment()
    }

    /// How many rebalances have fired so far.
    pub fn rebalances(&self) -> usize {
        self.rebalances
    }

    /// Materialises the rebalance input from the window's rows — the
    /// `O(live keys)` step, taken only when a plan is generated. Split
    /// keys are excluded: their routing rotates over replicas, so they
    /// have no single "current" placement for a plan to move, and their
    /// load is the split layer's problem, not the rebalancer's.
    pub fn build_input(&self) -> RebalanceInput {
        RebalanceInput {
            n_tasks: self.plane.assignment().n_tasks(),
            records: self.plane.window().records(),
        }
    }

    /// Load summary of the latest interval under the current assignment
    /// — what the trigger is evaluated on.
    pub fn current_loads(&self) -> LoadSummary {
        self.plane.loads()
    }
}

impl Partitioner for Rebalancer {
    fn name(&self) -> String {
        match &self.planner {
            None => "Storm",
            Some(Planner::Strategy(s)) => s.name(),
            Some(Planner::External { name, .. }) => *name,
        }
        .into()
    }

    fn n_tasks(&self) -> usize {
        self.plane.assignment().n_tasks()
    }

    #[inline]
    fn route(&mut self, key: Key) -> TaskId {
        self.plane.assignment().route(key)
    }

    fn route_batch(&mut self, keys: &[Key], out: &mut Vec<TaskId>) {
        self.plane.assignment().route_batch(keys, out);
    }

    /// Ends an interval: ingests the stats, evaluates the trigger on the
    /// window's running per-task loads, and — when imbalance exceeds
    /// `θmax` — constructs and applies `F′`. A round that does not fire
    /// costs `O(keys reported + n_tasks)`.
    ///
    /// A provisional report (the interval is still open, see
    /// [`IntervalStats::is_provisional`]) is evaluated the same way — as
    /// if the interval closed now — but is not an interval: it advances
    /// neither the cooldown nor the violation streak, and the window
    /// forgets it at the next report.
    ///
    /// Returns the outcome when a rebalance fired (its
    /// [`MigrationPlan`] must then be executed by the engine *before*
    /// routing resumes for affected keys), or `None` when balanced.
    fn end_interval(&mut self, stats: IntervalStats) -> Option<RebalanceOutcome> {
        let planner = self.planner.as_ref()?;
        let closing = !stats.is_provisional();
        self.plane.push(stats);
        if closing {
            self.intervals_since_rebalance = self.intervals_since_rebalance.saturating_add(1);
        }
        if !self.plane.window().has_records() {
            return None;
        }
        // The shared overload predicate is also an external planner's
        // actionable region: Readj's move/swap loop only acts while some
        // task exceeds `Lmax`, so on an under-load-only shape it provably
        // returns the identity assignment, and firing on deviation would
        // only add no-op rebalances to the reports.
        if !needs_rebalance(&self.plane.loads(), self.params.theta_max) {
            if closing {
                self.consecutive_violations = 0;
            }
            return None;
        }
        // What the counters would read had the interval closed here.
        let open = usize::from(!closing);
        let violations = self.consecutive_violations + 1;
        let since = self.intervals_since_rebalance.saturating_add(open);
        if closing {
            self.consecutive_violations = violations;
        }
        if violations < self.trigger.consecutive || since <= self.trigger.cooldown {
            return None; // damped
        }
        let input = self.build_input();
        let outcome = match planner {
            Planner::Strategy(strategy) => {
                let mut plan_to = self.params;
                if self.trigger.settle_inside {
                    plan_to.theta_max *= SETTLE_FRACTION;
                }
                rebalance(&input, *strategy, &plan_to)
            }
            Planner::External { plan, .. } => outcome_from_assignment(&input, &plan(&input)),
        };
        // O(churn) delta install, with an occasional staleness resync —
        // never an O(table) clone-and-swap per rebalance.
        self.last_install_was_delta = self
            .plane
            .install_rebalance(&outcome.table, outcome.plan.moves());
        self.rebalances += 1;
        self.intervals_since_rebalance = 0;
        self.consecutive_violations = 0;
        Some(outcome)
    }

    /// The next `end_interval` sees the new task in its load vector and
    /// rebalances onto it (Fig. 15).
    fn add_task(&mut self) -> TaskId {
        self.plane.add_task()
    }

    fn scale_out(&mut self, live: &[Key]) -> TaskId {
        self.plane.scale_out(live)
    }

    fn scale_out_plan(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        self.plane.scale_out_plan(live)
    }

    /// # Panics
    /// Panics if `victim` is not the last task or only one task remains.
    fn scale_in(&mut self, victim: TaskId, live: &[Key]) {
        self.plane.scale_in(victim, live);
    }

    fn routing_view(&self) -> RoutingView {
        RoutingView::of_assignment(self.plane.assignment())
    }

    fn last_install_was_delta(&self) -> bool {
        self.last_install_was_delta
    }

    fn reroute_dead(
        &mut self,
        dead: TaskId,
        is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        self.plane.reroute_dead(dead, is_dead)
    }

    fn apply_moves(&mut self, moves: &[(Key, TaskId)]) -> bool {
        self.plane.apply_moves(moves);
        true
    }

    /// While split, the key is owned by the split layer: it is excluded
    /// from rebalance inputs (its "current" placement rotates per tuple,
    /// so whole-key moves are meaningless for it) and the planner
    /// balances the remainder.
    fn split_key(&mut self, key: Key, replicas: &[TaskId]) -> bool {
        self.plane.split_key(key, replicas)
    }

    fn unsplit_key(&mut self, key: Key) -> Option<Vec<TaskId>> {
        self.plane.unsplit_key(key)
    }

    fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
        self.plane.assignment().splits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_interval(n_keys: u64, hot_cost: u64) -> IntervalStats {
        let mut iv = IntervalStats::new();
        for k in 0..n_keys {
            let cost = if k == 0 { hot_cost } else { 1 };
            iv.observe(Key(k), 1, cost, cost);
        }
        iv
    }

    #[test]
    fn balanced_stream_never_triggers() {
        let mut rb = Rebalancer::new(
            4,
            2,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.5,
                ..BalanceParams::default()
            },
        );
        // Uniform keys, plenty of them: hash spreads well within θ=0.5.
        let mut iv = IntervalStats::new();
        for k in 0..10_000u64 {
            iv.observe(Key(k), 1, 1, 1);
        }
        assert!(rb.end_interval(iv).is_none());
        assert_eq!(rb.rebalances(), 0);
    }

    #[test]
    fn split_keys_are_excluded_from_rebalance_input() {
        let mut rb = Rebalancer::new(4, 1, RebalanceStrategy::Mixed, BalanceParams::default());
        assert!(rb.split_key(Key(0), &[TaskId(0), TaskId(1)]));
        let outcome = rb.end_interval(skewed_interval(500, 100_000));
        // Whatever the remainder does, no plan may move the split key —
        // its "current" placement rotates and whole-key moves are
        // meaningless for it.
        if let Some(o) = &outcome {
            assert!(o.plan.moves().iter().all(|m| m.key != Key(0)));
        }
        let input = rb.build_input();
        assert_eq!(input.records.len(), 499, "split key excluded");
        assert!(input.records.iter().all(|r| r.key != Key(0)));
        // Unsplit hands back the replica set and the key re-enters.
        assert_eq!(rb.unsplit_key(Key(0)), Some(vec![TaskId(0), TaskId(1)]));
        assert_eq!(rb.build_input().records.len(), 500);
        assert_eq!(rb.splits(), vec![]);
    }

    #[test]
    fn skewed_stream_triggers_and_balances() {
        let mut rb = Rebalancer::new(4, 2, RebalanceStrategy::Mixed, BalanceParams::default());
        let before = {
            rb.plane.push(skewed_interval(1000, 5_000));
            let input = rb.build_input();
            assert_eq!(input.current_loads(), rb.current_loads());
            input.current_loads().max_theta()
        };
        assert!(before > 0.08, "hash routing must be skewed here");
        let outcome = rb
            .end_interval(skewed_interval(1000, 5_000))
            .expect("must trigger");
        assert!(
            outcome.achieved_theta < before,
            "θ {} → {}",
            before,
            outcome.achieved_theta
        );
        assert!(!outcome.plan.is_empty());
        assert_eq!(rb.rebalances(), 1);
        // The table was applied: routing now honours it.
        for (k, d) in outcome.table.iter() {
            assert_eq!(rb.route(k), d);
        }
    }

    #[test]
    fn empty_interval_is_noop() {
        let mut rb = Rebalancer::new(2, 1, RebalanceStrategy::Mixed, BalanceParams::default());
        assert!(rb.end_interval(IntervalStats::new()).is_none());
    }

    #[test]
    fn all_strategies_produce_consistent_outcomes() {
        let mut records = Vec::new();
        for i in 0..200u64 {
            records.push(KeyRecord {
                key: Key(i),
                cost: 1 + (i % 13),
                mem: 1 + (i % 7),
                current: TaskId((i % 3) as u32),
                hash_dest: TaskId((i % 3) as u32),
            });
        }
        // Make task 0 heavy.
        for r in records.iter_mut().take(40) {
            r.current = TaskId(0);
            r.hash_dest = TaskId(0);
        }
        let input = RebalanceInput {
            n_tasks: 3,
            records,
        };
        let params = BalanceParams::default();
        for strategy in [
            RebalanceStrategy::MinTable,
            RebalanceStrategy::MinMig,
            RebalanceStrategy::Mixed,
            RebalanceStrategy::MixedBF,
            RebalanceStrategy::Simple,
        ] {
            let out = rebalance(&input, strategy, &params);
            // Table entries must disagree with hash (else they'd be
            // redundant).
            for (k, d) in out.table.iter() {
                let rec = input.records.iter().find(|r| r.key == k).unwrap();
                assert_ne!(d, rec.hash_dest, "{}: redundant entry", strategy.name());
            }
            // Plan cost fraction within [0,1].
            assert!(
                (0.0..=1.0).contains(&out.migration_fraction),
                "{}: fraction {}",
                strategy.name(),
                out.migration_fraction
            );
            // Load conservation: total load invariant.
            let total_before: u64 = input.records.iter().map(|r| r.cost).sum();
            let total_after: u64 = out.loads.loads.iter().sum();
            assert_eq!(total_before, total_after, "{}", strategy.name());
        }
    }

    #[test]
    fn scale_out_adds_task_and_next_interval_uses_it() {
        let mut rb = Rebalancer::new(
            2,
            1,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.05,
                ..BalanceParams::default()
            },
        );
        // Fill two tasks evenly-ish.
        let mut iv = IntervalStats::new();
        for k in 0..1000u64 {
            iv.observe(Key(k), 1, 10, 10);
        }
        let _ = rb.end_interval(iv.clone());
        let new = rb.add_task();
        assert_eq!(new, TaskId(2));
        // New task has zero load ⇒ θ(new) = 1 > θmax ⇒ triggers, and the
        // plan ships keys onto the new task.
        let outcome = rb.end_interval(iv).expect("scale-out must trigger");
        let onto_new = outcome.plan.moves_to(new).count();
        assert!(onto_new > 0, "keys must move to the new instance");
        assert!(outcome.achieved_theta < 0.2);
    }

    #[test]
    fn scale_in_retires_last_task_and_rebalance_avoids_it() {
        let mut rb = Rebalancer::new(
            3,
            1,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.05,
                ..BalanceParams::default()
            },
        );
        let mut iv = IntervalStats::new();
        for k in 0..3_000u64 {
            iv.observe(Key(k), 1, 10, 10);
        }
        let _ = rb.end_interval(iv.clone());
        let live: Vec<Key> = (0..3_000u64).map(Key).collect();
        rb.scale_in(TaskId(2), &live);
        assert_eq!(rb.assignment().n_tasks(), 2);
        for &k in &live {
            assert!(rb.route(k).index() < 2, "key routed to retired task");
        }
        // The next interval rebalances (if at all) over two tasks only.
        if let Some(out) = rb.end_interval(iv) {
            assert_eq!(out.loads.loads.len(), 2);
            for mv in out.plan.moves() {
                assert!(mv.to.index() < 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "highest-numbered task")]
    fn scale_in_rejects_non_tail_victim() {
        let mut rb = Rebalancer::new(3, 1, RebalanceStrategy::Mixed, BalanceParams::default());
        rb.scale_in(TaskId(0), &[]);
    }

    #[test]
    fn trigger_policy_consecutive_damping() {
        let mut rb = Rebalancer::new(4, 2, RebalanceStrategy::Mixed, BalanceParams::default())
            .with_trigger_policy(TriggerPolicy {
                consecutive: 3,
                ..TriggerPolicy::default()
            });
        // Two violating intervals: damped. Third: fires.
        assert!(rb.end_interval(skewed_interval(1000, 5_000)).is_none());
        assert!(rb.end_interval(skewed_interval(1000, 5_000)).is_none());
        assert!(rb.end_interval(skewed_interval(1000, 5_000)).is_some());
        assert_eq!(rb.rebalances(), 1);
    }

    #[test]
    fn trigger_policy_cooldown() {
        let mut rb = Rebalancer::new(4, 1, RebalanceStrategy::Mixed, BalanceParams::default())
            .with_trigger_policy(TriggerPolicy {
                cooldown: 2,
                ..TriggerPolicy::default()
            });
        // First violation fires immediately (no previous rebalance).
        assert!(rb.end_interval(skewed_interval(1000, 5_000)).is_some());
        // Window w=1 forgets the balanced table's effect... keep feeding
        // the same skew: violations persist but cooldown suppresses.
        let fired: Vec<bool> = (0..4)
            .map(|_| rb.end_interval(skewed_interval(1000, 9_999)).is_some())
            .collect();
        // At most intervals 3.. can fire (cooldown 2 after interval 0).
        assert!(!fired[0] && !fired[1], "cooldown must suppress: {fired:?}");
    }

    #[test]
    fn violation_streak_resets_on_balanced_interval() {
        // θmax = 0.5: hash-routing 10k uniform keys stays well within
        // bounds (ring variance ~10%), while the hot-key interval violates.
        let mut rb = Rebalancer::new(
            4,
            1,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.5,
                ..BalanceParams::default()
            },
        )
        .with_trigger_policy(TriggerPolicy {
            consecutive: 2,
            ..TriggerPolicy::default()
        });
        assert!(rb.end_interval(skewed_interval(1000, 5_000)).is_none());
        // A balanced interval breaks the streak.
        let mut balanced = IntervalStats::new();
        for k in 0..10_000u64 {
            balanced.observe(Key(k), 1, 1, 1);
        }
        assert!(rb.end_interval(balanced).is_none());
        // One more violation: streak restarts at 1 — still damped.
        assert!(rb.end_interval(skewed_interval(1000, 5_000)).is_none());
        assert_eq!(rb.rebalances(), 0);
    }

    /// A provisional report is judged as if the interval closed there,
    /// but it is not an interval: it can fire, yet it moves neither the
    /// violation streak nor the cooldown clock, and a balanced one does
    /// not break a streak.
    #[test]
    fn provisional_reports_do_not_advance_trigger_counters() {
        let skew = || skewed_interval(1000, 5_000);
        let balanced = || {
            let mut iv = IntervalStats::new();
            for k in 0..10_000u64 {
                iv.observe(Key(k), 1, 1, 1);
            }
            iv
        };
        let params = BalanceParams {
            theta_max: 0.5,
            ..BalanceParams::default()
        };
        // Streak: two closing violations are needed. Provisional ones in
        // between — violating or balanced — count for nothing.
        let mut rb = Rebalancer::new(4, 2, RebalanceStrategy::Mixed, params).with_trigger_policy(
            TriggerPolicy {
                consecutive: 3,
                ..TriggerPolicy::default()
            },
        );
        assert!(rb.end_interval(skew().into_provisional()).is_none());
        assert!(rb.end_interval(skew().into_provisional()).is_none());
        assert!(rb.end_interval(skew()).is_none(), "streak 1");
        assert!(rb.end_interval(balanced().into_provisional()).is_none());
        assert!(rb.end_interval(skew()).is_none(), "streak 2, not reset");
        // The third violation may be the open interval's.
        assert!(rb.end_interval(skew().into_provisional()).is_some());
        assert_eq!(rb.rebalances(), 1);

        // Cooldown: a rebalance that fired on a provisional report starts
        // the clock; provisional reports do not run it down.
        let mut rb = Rebalancer::new(4, 1, RebalanceStrategy::Mixed, BalanceParams::default())
            .with_trigger_policy(TriggerPolicy {
                cooldown: 2,
                ..TriggerPolicy::default()
            });
        let hot = |key: u64| {
            let mut iv = skewed_interval(1000, 1);
            iv.observe(Key(key), 1, 5_000, 5_000);
            iv
        };
        assert!(rb.end_interval(hot(1).into_provisional()).is_some());
        for key in 2..6 {
            assert!(rb.end_interval(hot(key).into_provisional()).is_none());
        }
        assert!(
            rb.end_interval(hot(6)).is_none(),
            "interval 1 of the cooldown"
        );
        assert!(
            rb.end_interval(hot(7)).is_none(),
            "interval 2 of the cooldown"
        );
        assert!(rb.end_interval(hot(8).into_provisional()).is_some());
    }

    /// The trigger stays at θmax either way; only where the plan stops
    /// differs: at θmax under the paper's policy, well inside it by
    /// default.
    #[test]
    fn plans_settle_inside_theta_max_unless_pinned_to_the_paper() {
        let mut iv = IntervalStats::new();
        for k in 0..4_000u64 {
            iv.observe(Key(k), 1, 10 + k % 17, 8);
        }
        let theta_after = |trigger: TriggerPolicy| {
            let mut rb = Rebalancer::new(4, 1, RebalanceStrategy::Mixed, BalanceParams::default())
                .with_trigger_policy(trigger);
            // Pile a third of the keys onto task 0.
            let pile: Vec<(Key, TaskId)> = (0..1_300u64).map(|k| (Key(k), TaskId(0))).collect();
            rb.apply_moves(&pile);
            rb.end_interval(iv.clone())
                .expect("the pile must trigger")
                .achieved_theta
        };
        let paper = theta_after(TriggerPolicy::paper());
        let settled = theta_after(TriggerPolicy::default());
        let theta_max = BalanceParams::default().theta_max;
        assert!(paper <= theta_max && settled <= theta_max * SETTLE_FRACTION + 1e-9);
        assert!(
            paper > theta_max * SETTLE_FRACTION,
            "the paper's plan stops once inside θmax: {paper}"
        );
    }

    #[test]
    fn strategy_names() {
        assert_eq!(RebalanceStrategy::Mixed.name(), "Mixed");
        assert_eq!(RebalanceStrategy::MixedBF.name(), "MixedBF");
    }

    #[test]
    fn default_params_match_paper() {
        let p = BalanceParams::default();
        assert_eq!(p.theta_max, 0.08);
        assert_eq!(p.beta, 1.5);
        assert_eq!(p.table_max, 3_000);
    }
}
