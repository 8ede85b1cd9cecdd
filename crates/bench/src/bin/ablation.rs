//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. LLFD's `Adjust` exchange mechanism (on/off) — what the
//!    exchangeable-set machinery buys in balance quality;
//! 2. Mixed's Phase-I cleaning order η (smallest-memory vs largest vs
//!    arbitrary) — what the smallest-`S` heuristic saves in migration;
//! 3. HLHE greedy deviation-cancelling discretization vs naive nearest
//!    rounding — what the holistic assignment buys in estimation error.

use streambal_bench::fig11::skewed_input;
use streambal_bench::{header, row, Defaults, Scale};
use streambal_core::discretize::{discretize, discretize_naive, total_deviation};
use streambal_core::llfd::{llfd_with_options, Arena, Criteria, LlfdOptions};
use streambal_core::mixed::{mixed_assign_with_eta, EtaOrder};
use streambal_core::{LoadSummary, TaskId};

fn main() {
    let scale = Scale::from_env();
    let mut d = Defaults::at(scale);
    d.k = scale.pick(10_000, 50_000);
    d.tuples = scale.pick(100_000, 500_000);
    let input = skewed_input(&d);

    // ---- 1. LLFD exchange on/off -------------------------------------
    println!("# Ablation 1: LLFD Adjust/exchange mechanism (θmax=0)");
    println!(
        "{}",
        header(
            "",
            &["θ achieved".into(), "forced".into(), "exchanges".into()],
            12
        )
    );
    for (label, exchange) in [("with exchange", true), ("without", false)] {
        let mut arena = Arena::new(&input.records, d.nd, Criteria::HighestCost, |_, r| {
            r.hash_dest
        });
        let cands = arena.drain_overloaded(0.0);
        let report = llfd_with_options(&mut arena, cands, 0.0, LlfdOptions { exchange });
        let assign = arena.into_assignment();
        let mut loads = vec![0u64; d.nd];
        for (r, dd) in input.records.iter().zip(&assign) {
            loads[dd.index()] += r.cost;
        }
        let s = LoadSummary::new(loads);
        println!(
            "{}",
            row(
                label,
                &[s.max_theta(), report.forced as f64, report.exchanges as f64],
                12,
                4
            )
        );
    }

    // ---- 2. Mixed η cleaning order ------------------------------------
    // Build an input with a populated routing table: rebalance once, then
    // measure the cost of a second rebalance under each η.
    println!("\n# Ablation 2: Mixed Phase-I cleaning order η (Amax pressure)");
    let params = d.params();
    let first = streambal_core::rebalance(
        &input,
        streambal_core::RebalanceStrategy::Mixed,
        &streambal_core::BalanceParams {
            table_max: usize::MAX,
            ..params
        },
    );
    // Re-point the records at the new assignment (table now populated),
    // and give keys state sizes *independent* of cost so the cleaning
    // order faces real trade-offs.
    let mut records2 = input.records.clone();
    for r in &mut records2 {
        if let Some(to) = first.table.lookup(r.key) {
            r.current = to;
        } else {
            r.current = r.hash_dest;
        }
        r.mem = 1 + streambal_hashring::mix64(r.key.raw()) % 10_000;
    }
    // Perturb: make task 0 hot again by boosting its keys' costs.
    for r in &mut records2 {
        if r.current == TaskId(0) {
            r.cost = r.cost.saturating_mul(2);
        }
    }
    // (a) Cost of the forced Phase-I move-backs at a fixed cleaning depth
    // n = N_A/2: the η choice decides *which* states travel.
    let mut entries: Vec<&streambal_core::KeyRecord> =
        records2.iter().filter(|r| r.in_table()).collect();
    let n_clean = entries.len() / 2;
    println!("(move-back state bytes at fixed n = N_A/2 = {n_clean})");
    println!("{}", header("", &["move-back bytes".into()], 16));
    for (label, order) in [
        ("smallest-S (paper)", EtaOrder::SmallestMem),
        ("largest-S", EtaOrder::LargestMem),
        ("key-order", EtaOrder::KeyOrder),
    ] {
        match order {
            EtaOrder::SmallestMem => entries.sort_by_key(|r| (r.mem, r.key)),
            EtaOrder::LargestMem => entries.sort_by_key(|r| (std::cmp::Reverse(r.mem), r.key)),
            EtaOrder::KeyOrder => entries.sort_by_key(|r| r.key),
        }
        let bytes: u64 = entries.iter().take(n_clean).map(|r| r.mem).sum();
        println!("{}", row(label, &[bytes as f64], 16, 0));
    }

    // (b) End-to-end Mixed under moderate table pressure (the loop may
    // converge to deep cleaning, where the orders coincide — shown for
    // completeness).
    println!(
        "{}",
        header("", &["mig bytes".into(), "table".into(), "θ".into()], 12)
    );
    let tight = (first.table.len() * 3 / 4).max(2);
    for (label, order) in [
        ("smallest-S (paper)", EtaOrder::SmallestMem),
        ("largest-S", EtaOrder::LargestMem),
        ("key-order", EtaOrder::KeyOrder),
    ] {
        let res =
            mixed_assign_with_eta(&records2, d.nd, params.theta_max, params.beta, tight, order);
        let mig: u64 = records2
            .iter()
            .zip(&res.assign)
            .filter(|(r, &to)| to != r.current)
            .map(|(r, _)| r.mem)
            .sum();
        let mut loads = vec![0u64; d.nd];
        for (r, dd) in records2.iter().zip(&res.assign) {
            loads[dd.index()] += r.cost;
        }
        let s = LoadSummary::new(loads);
        println!(
            "{}",
            row(
                label,
                &[mig as f64, res.table_len as f64, s.max_theta()],
                12,
                3
            )
        );
    }

    // ---- 3. discretization: greedy vs naive ---------------------------
    println!("\n# Ablation 3: HLHE greedy vs naive rounding, |δ| / Σx (%)");
    let costs: Vec<u64> = input.records.iter().map(|r| r.cost).collect();
    let total: i128 = costs.iter().map(|&c| c as i128).sum();
    let rs = [0u32, 2, 4, 6, 8];
    println!(
        "{}",
        header(
            "",
            &rs.iter()
                .map(|r| format!("R={}", 1u64 << r))
                .collect::<Vec<_>>(),
            10
        )
    );
    let pct = |dev: i128| dev.unsigned_abs() as f64 / total as f64 * 100.0;
    let greedy: Vec<f64> = rs
        .iter()
        .map(|&r| pct(total_deviation(&costs, &discretize(&costs, r))))
        .collect();
    let naive: Vec<f64> = rs
        .iter()
        .map(|&r| pct(total_deviation(&costs, &discretize_naive(&costs, r))))
        .collect();
    println!("{}", row("greedy (paper)", &greedy, 10, 4));
    println!("{}", row("naive", &naive, 10, 4));
}
