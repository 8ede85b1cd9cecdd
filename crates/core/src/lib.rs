//! # streambal-core
//!
//! The primary contribution of *“Parallel Stream Processing Against
//! Workload Skewness and Variance”* (Fang et al., HPDC 2017): a dynamic,
//! intra-operator, key-based workload partitioning framework for stream
//! processing engines.
//!
//! ## The mixed routing strategy (paper §II, Eq. 1)
//!
//! A tuple with key `k` is routed to downstream task `F(k)`:
//!
//! ```text
//! F(k) = d      if (k, d) ∈ A      (explicit routing-table entry)
//!      = h(k)   otherwise          (consistent hash fallback)
//! ```
//!
//! The routing table `A` is bounded by `Amax`, so routing stays O(1) in
//! time and O(Amax) in memory, while still letting the controller redirect
//! any troublesome key. The function exists once per layer: one
//! [`RoutingTable`] slab inside an [`AssignmentFn`] (module [`routing`]),
//! one [`StatsPlane`] where a table mutation meets the statistics window,
//! one table-backed [`Partitioner`] ([`Rebalancer`]), one table
//! [`RoutingView`].
//!
//! ## The rebalance problem (paper §II-B, Eq. 3)
//!
//! At the start of interval `Tᵢ`, given last-interval statistics, construct
//! a new assignment `F′` minimizing state-migration cost `Mᵢ(w, F, F′)`
//! subject to per-task balance `θ(d, F′) ≤ θmax` and table size
//! `N_A ≤ Amax`. The problem is NP-hard (bin-packing reduction), so the
//! paper proposes heuristics, all implemented here:
//!
//! * [`llfd`] — Least-Load Fit Decreasing (Algorithm 1), the Phase-III
//!   assignment subroutine with the `Adjust` exchange mechanism.
//! * [`simple`] — the appendix's Algorithm 5 (LPT greedy), used for the
//!   Theorem 1 bound.
//! * [`mintable`] — Algorithm 2: clean the whole table first, minimizing
//!   the table size.
//! * [`minmig`] — Algorithm 3: never clean, prioritize keys by the
//!   migration-priority index `γᵢ(k, w) = cᵢ(k)^β / Sᵢ(k, w)`.
//! * [`mixed`] — Algorithm 4: iterate MinTable-style cleaning depth `n`
//!   until the table bound is met; plus the brute-force `MixedBF`.
//!
//! ## Implementation optimizations (paper §IV)
//!
//! * [`compact`] — the 6-dimensional compact statistics representation
//!   `(d′, d, dₕ, v_c, v_S, #)` that shrinks the optimization input from
//!   `|K|` keys to `O(N_D³ · |v_c| · |v_S|)` records.
//! * [`discretize`] — the half-linear-half-exponential (HLHE) value
//!   discretization with greedy accumulated-deviation cancellation
//!   (Fig. 6b / Theorem 3).
//!
//! ## Entry points
//!
//! Most users want [`Rebalancer`], which owns the routing table, watches
//! interval statistics, and emits [`MigrationPlan`]s; the engine applies
//! plans with the pause → migrate → ack → resume protocol (implemented in
//! `streambal-runtime`).
//!
//! The pluggable strategy interface the simulator and engine drive —
//! [`Partitioner`] and its shippable [`RoutingView`] snapshot — also
//! lives here (module [`partitioner`]), and `Rebalancer` implements it
//! for every strategy that routes through a table: drivers depend on
//! this crate alone, and `streambal-baselines` adds the two table-less
//! competitors (shuffle, PKG) and the Readj planning function.

pub mod compact;
pub mod discretize;
pub mod key;
pub mod llfd;
pub mod load;
pub mod migration;
pub mod minmig;
pub mod mintable;
pub mod mixed;
pub mod partitioner;
pub mod rebalance;
pub mod routing;
pub mod simple;
pub mod stats;

pub use key::{Key, TaskId};
pub use load::{
    balance_indicator, heavy_hitter, loads_of, max_skewness, needs_rebalance, skew_alert,
    LoadSummary, SKEW_ALERT_FLOOR, SKEW_ALERT_MIN_SHARE,
};
pub use migration::{migration_delta, MigrationPlan, Move};
pub use partitioner::{Partitioner, RoutingView};
pub use rebalance::{
    outcome_from_assignment, rebalance, BalanceParams, PlanFn, RebalanceInput, RebalanceOutcome,
    RebalanceStrategy, Rebalancer, TriggerPolicy, SETTLE_FRACTION,
};
pub use routing::{next_live, AssignmentFn, RoutingTable};
pub use stats::{IntervalStats, KeyRecord, KeyStat, StatsPlane, StatsWindow};
