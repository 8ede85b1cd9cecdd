//! Workload generators reproducing the paper's evaluation inputs (§V).
//!
//! | Paper workload | Module | Notes |
//! |----------------|--------|-------|
//! | Synthetic Zipf tuples with skew `z` and fluctuation rate `f` | [`zipf`] | the Tab. II parameter grid |
//! | 5-day microblog **Social** feed, 180 K topic words, slow drift | [`social`] | synthetic substitution, see DESIGN.md |
//! | 3-day **Stock** exchange records, 1,036 keys, abrupt bursts | [`stock`] | synthetic substitution |
//! | TPC-H `DBGen` with zipfed foreign keys + continuous Q5 | [`tpch`] | scaled-down DBGen-like generator |
//! | Adversarial key churn (fresh hot set every interval) | [`churn`] | elasticity/table stressor, beyond the paper |
//!
//! Each generator is deterministic given a seed and produces, per logical
//! interval, both:
//!
//! * an [`IntervalStats`](streambal_core::IntervalStats) view (for the
//!   simulator, which never materializes tuples), and
//! * a concrete tuple sequence (for the runtime).

#![forbid(unsafe_code)]

pub mod churn;
pub mod social;
pub mod stock;
pub mod tpch;
pub mod zipf;

pub use churn::ChurnWorkload;
pub use social::SocialWorkload;
pub use stock::StockWorkload;
pub use tpch::{TpchEvent, TpchGen, TpchParams};
pub use zipf::{CostModel, FluctuatingWorkload, ZipfGen};
