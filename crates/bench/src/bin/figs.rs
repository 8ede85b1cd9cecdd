//! Regenerates the paper's evaluation figures: prints each figure's text
//! tables and writes `bench_results/<name>.txt` plus the machine-readable
//! `bench_results/<name>.json` that PRs diff.
//!
//! ```text
//! cargo run --release -p streambal-bench --bin figs                # every figure
//! cargo run --release -p streambal-bench --bin figs fig08 fig12    # just these
//! STREAMBAL_SCALE=full cargo run --release -p streambal-bench --bin figs
//! ```
//!
//! `STREAMBAL_SCALE` is `quick` (default; small key domains, a few
//! minutes for everything) or `full` (near Tab. II's bold defaults).
//! Absolute numbers differ from the paper's 21-node Storm cluster — the
//! *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target. The simulator figures are deterministic per
//! seed apart from their timing rows; the engine figures run real
//! threads and vary run to run.
//!
//! | name | reproduces | driven by |
//! |---|---|---|
//! | `fig07` | Fig. 7 — CDF of workload skewness under pure hashing, varying `N_D` and the key domain `K` | simulator |
//! | `fig08` | Fig. 8 — plan-generation time and migration cost vs `N_D` (Mixed vs MinTable, `w ∈ {1, 5}`) | simulator |
//! | `fig09` | Fig. 9 — generation time / migration cost vs `θmax` | simulator |
//! | `fig10` | Fig. 10 — generation time / migration cost vs `K` | simulator |
//! | `fig11` | Fig. 11 — compact representation: generation time vs discretization degree `R`, and the load-estimation error it introduces | planner only |
//! | `fig12` | Fig. 12 — generation time / migration cost vs fluctuation rate `f` (Mixed, MinTable, Readj at its best σ, MixedBF) | simulator |
//! | `fig13` | Fig. 13 — throughput and latency vs `f` | engine, 2 workers (the sandbox's cores: more workers than cores time-share and mask imbalance) |
//! | `fig14` | Fig. 14 — throughput on Social (word count) and Stock (self-join) across `θmax` | engine |
//! | `fig15` | Fig. 15 — throughput timeline through a scale-out on Social and Stock | engine |
//! | `fig16` | Fig. 16 — TPC-H Q5 throughput timeline under distribution changes, `θmax ∈ {0.1, 0.2}` | engine |
//! | `fig17` | Fig. 17 — Mixed's migration cost vs the table bound `N_A = 2^i` | simulator |
//! | `fig18` | Fig. 18 — MinMig's table growth toward `(N_D − 1)/N_D · K` | simulator |
//! | `fig19` | Fig. 19 — migration cost vs window size `w` | simulator |
//! | `fig20_21` | Figs. 20–21 — MinMig's table size and migration cost vs `β` | simulator |

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use streambal_bench::figure::{results_dir, Figure};
use streambal_bench::{fig11, figs_runtime, figs_sim, Scale};

type FigureFn = fn(Scale) -> Figure;

const FIGURES: [(&str, FigureFn); 14] = [
    ("fig07", figs_sim::fig07),
    ("fig08", figs_sim::fig08),
    ("fig09", figs_sim::fig09),
    ("fig10", figs_sim::fig10),
    ("fig11", fig11::fig11),
    ("fig12", figs_sim::fig12),
    ("fig13", figs_runtime::fig13),
    ("fig14", figs_runtime::fig14),
    ("fig15", figs_runtime::fig15),
    ("fig16", figs_runtime::fig16),
    ("fig17", figs_sim::fig17),
    ("fig18", figs_sim::fig18),
    ("fig19", figs_sim::fig19),
    ("fig20_21", figs_sim::fig20_21),
];

fn main() -> ExitCode {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| FIGURES.iter().all(|(name, _)| name != w))
    {
        let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
        eprintln!("unknown figure `{unknown}`; known: {}", names.join(" "));
        return ExitCode::FAILURE;
    }
    let scale = Scale::from_env();
    let dir = results_dir();
    fs::create_dir_all(dir).expect("create bench_results/");
    for (name, run) in FIGURES {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let t0 = Instant::now();
        eprintln!(">>> {name} ...");
        let fig = run(scale);
        debug_assert_eq!(fig.name(), name);
        let text = fig.to_text();
        print!("{text}");
        fs::write(dir.join(format!("{name}.txt")), text).expect("write text result");
        fig.write_json(dir, scale).expect("write json result");
        eprintln!("<<< {name} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
