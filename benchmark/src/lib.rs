//! # streambal-benchmark
//!
//! The repo's benchmark: one open+closed-loop end-to-end measurement of
//! the engine with paced workers, four workloads that each let a
//! different layer be the limit (`plane`, `drift`, `burst`, `wide`), and
//! a per-thread layer budget read from outside the engine. `README.md`
//! documents every metric and workload; `../BENCHMARK.json` is the
//! machine-readable contract.

pub mod ceilings;
pub mod probes;
pub mod report;
pub mod run;
pub mod workloads;
