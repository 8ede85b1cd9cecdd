//! Lightweight measurement substrate for the `streambal` workspace.
//!
//! The paper reports five metric families (§V *Evaluation Metrics*):
//! workload skewness, migration cost, throughput, average plan-generation
//! time, and processing latency. This crate provides the raw instruments
//! those reports are built from, with no external dependencies:
//!
//! * [`Histogram`] — a log-bucketed (HDR-flavoured) histogram for latency
//!   quantiles (Fig. 13b).
//! * [`Cdf`] — exact empirical CDFs for the skewness distribution plots
//!   (Fig. 7).
//! * [`TimeSeries`] — `(tick, value)` recording for the timeline figures
//!   (Figs. 15, 16).
//! * [`Stopwatch`] / [`OnlineStats`] — wall-time measurement and running
//!   mean/min/max for plan-generation times (Figs. 8a, 9a, 10a, 12a).

#![forbid(unsafe_code)]

pub mod cdf;
pub mod histogram;
pub mod stats;
pub mod timeseries;

pub use cdf::Cdf;
pub use histogram::Histogram;
pub use stats::{OnlineStats, Stopwatch};
pub use timeseries::TimeSeries;
