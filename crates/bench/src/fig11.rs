//! Fig. 11 — the compact representation and discretization experiment.
//!
//! (a) plan-generation time vs the discretization degree `R`, including
//!     the "original key space" reference point (plain Mixed over all
//!     keys); (b) the load-estimation error the discretization introduces,
//!     for several `θmax` (paper: under 1% everywhere).

use streambal_core::{compact::compact_mixed, rebalance, RebalanceInput, RebalanceStrategy};
use streambal_metrics::Stopwatch;

use crate::figure::{Figure, Table};
use crate::{Defaults, Scale};

/// Builds a skewed rebalance input at defaults scale (hash-routed Zipf
/// interval).
pub fn skewed_input(d: &Defaults) -> RebalanceInput {
    use streambal_core::Partitioner;
    let mut src = d.source();
    let mut hash = streambal_baselines::storm(d.nd);
    let stats = streambal_sim::source::IntervalSource::next_interval(&mut src, d.nd, &mut |k| {
        hash.route(k)
    });
    let records = stats
        .iter()
        .map(|(k, s)| {
            let dest = hash.route(k);
            streambal_core::KeyRecord {
                key: k,
                cost: s.cost,
                mem: s.mem,
                current: dest,
                hash_dest: dest,
            }
        })
        .collect();
    RebalanceInput {
        n_tasks: d.nd,
        records,
    }
}

/// Runs the Fig. 11 experiment.
pub fn fig11(scale: Scale) -> Figure {
    let mut d = Defaults::at(scale);
    d.k = scale.pick(30_000, 200_000);
    d.tuples = scale.pick(300_000, 2_000_000);
    let input = skewed_input(&d);
    let rs: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7, 8]; // R = 2^r → 1..256
    let mut fig = Figure::new("fig11");

    // (a) generation time. The paper's controller receives pre-aggregated
    // compact records from the workers (§IV), so its plan latency is the
    // solve time over records; build/materialize are shown separately.
    let reps = scale.pick(3, 5);
    let mut cols: Vec<String> = rs.iter().map(|r| format!("R={}", 1u64 << r)).collect();
    cols.push("orig".into());
    let mut a = Table::new(
        "Fig 11(a): plan-generation time (ms) vs R (plus original key space)",
        "",
        cols,
        9,
        2,
    );
    let mut solve = Vec::new();
    let mut build = Vec::new();
    let mut materialize = Vec::new();
    let mut n_records = Vec::new();
    for &r in &rs {
        let (mut s, mut b, mut m) = (0.0, 0.0, 0.0);
        let mut last = None;
        for _ in 0..reps {
            let c = compact_mixed(&input, &d.params(), r);
            s += c.solve_time.as_secs_f64() * 1e3;
            b += c.build_time.as_secs_f64() * 1e3;
            m += c.materialize_time.as_secs_f64() * 1e3;
            last = Some(c);
        }
        solve.push(s / reps as f64);
        build.push(b / reps as f64);
        materialize.push(m / reps as f64);
        n_records.push(last.unwrap().n_records as f64);
    }
    let watch = Stopwatch::start();
    for _ in 0..reps {
        let _ = rebalance(&input, RebalanceStrategy::Mixed, &d.params());
    }
    let orig = watch.elapsed_ms() / reps as f64;
    solve.push(orig);
    build.push(0.0);
    materialize.push(0.0);
    a.row("plan time (ms)", &solve);
    a.row("  +build (worker)", &build);
    a.row("  +materialize", &materialize);
    n_records.push(input.records.len() as f64);
    a.row_prec("working set", &n_records, 0);
    fig.push(a);

    // (b) estimation error.
    let thetas = [0.0, 0.02, 0.08, 0.15];
    let mut b = Table::new(
        "Fig 11(b): load-estimation error (%) vs R",
        "θmax \\ R",
        rs.iter().map(|r| format!("{}", 1u64 << r)).collect(),
        9,
        4,
    );
    for &theta in &thetas {
        let mut params = d.params();
        params.theta_max = theta;
        let mut vals = Vec::new();
        for &r in &rs {
            let c = compact_mixed(&input, &params, r);
            vals.push(c.estimation_error * 100.0);
        }
        b.row(format!("θmax={theta}"), &vals);
    }
    fig.push(b);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_faster_than_original_at_coarse_r() {
        let mut d = Defaults::at(Scale::Quick);
        d.k = 20_000;
        d.tuples = 200_000;
        let input = skewed_input(&d);
        // Working set shrinks with coarser discretization.
        let fine = compact_mixed(&input, &d.params(), 0);
        let coarse = compact_mixed(&input, &d.params(), 6);
        assert!(coarse.n_records < fine.n_records);
        assert!(coarse.n_records < input.records.len() / 10);
    }

    #[test]
    fn estimation_error_below_two_percent() {
        // The paper reports < 1%; we allow 2% across the R sweep at quick
        // scale.
        let mut d = Defaults::at(Scale::Quick);
        d.k = 10_000;
        d.tuples = 100_000;
        let input = skewed_input(&d);
        for r in [1u32, 4, 8] {
            let c = compact_mixed(&input, &d.params(), r);
            assert!(
                c.estimation_error < 0.02,
                "R=2^{r}: error {}",
                c.estimation_error
            );
        }
    }
}
