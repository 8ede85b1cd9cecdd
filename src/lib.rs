//! # streambal
//!
//! Facade crate re-exporting the full `streambal` stack — a from-scratch
//! Rust reproduction of *“Parallel Stream Processing Against Workload
//! Skewness and Variance”* (Fang et al., HPDC 2017).
//!
//! The stack:
//!
//! * [`core`] — the paper's contribution: mixed hash/routing-table
//!   partitioning, rebalance algorithms (LLFD, MinTable, MinMig, Mixed),
//!   compact statistics and discretization.
//! * [`hashring`] — fast hashing and the consistent-hash substrate.
//! * [`baselines`] — Readj, PKG, hash-only, and shuffle partitioners.
//! * [`workloads`] — Zipf-with-fluctuation, social-feed, stock, and
//!   TPC-H-like generators.
//! * [`sim`] — interval-driven simulator for algorithm-level metrics.
//! * [`runtime`] — a thread-based mini stream engine with live state
//!   migration (the Storm substitute).
//! * [`elastic`] — elasticity policies deciding scale-out / scale-in /
//!   hold per interval, shared by the simulator and the engine.
//! * [`metrics`] — counters, histograms, time-series.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use streambal_baselines as baselines;
pub use streambal_core as core;
pub use streambal_elastic as elastic;
pub use streambal_hashring as hashring;
pub use streambal_metrics as metrics;
pub use streambal_runtime as runtime;
pub use streambal_sim as sim;
pub use streambal_workloads as workloads;

/// Convenience prelude pulling in the types most programs need.
///
/// The strategy interface ([`Partitioner`](streambal_core::Partitioner),
/// [`RoutingView`](streambal_core::RoutingView)) is re-exported from
/// `streambal-core`, where it lives — downstream users never need to
/// import `baselines` just to name the trait.
pub mod prelude {
    pub use streambal_core::{
        AssignmentFn, BalanceParams, Key, MigrationPlan, Partitioner, RebalanceStrategy,
        Rebalancer, RoutingTable, RoutingView, TaskId,
    };
    pub use streambal_hashring::HashRing;
}
