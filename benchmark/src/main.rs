//! The benchmark's command line.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--repeats R] [--smoke]
//!     every workload × (sat, open, budget, traced): prints `workload metric
//!     value unit`, writes results/latest.json, exits non-zero on a
//!     failed output check
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload; the last stdout line is the BENCHMARK.json result
//!     object (end-to-end metrics for --trace 0, per-layer for 1)
//! benchmark compare a.json b.json
//!     one row per (end-to-end metric, workload); exits non-zero on a
//!     regression beyond the metric's bound
//! ```
//!
//! Every (workload, run kind) executes in a child process of its own
//! (`--child`, internal), so process CPU time and peak RSS are per run.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use streambal_bench::json::{write_json, Json};
use streambal_benchmark::report::{
    self, compare, find, median, metrics_json, Metric, END_TO_END, LAYERS,
};
use streambal_benchmark::run::{run, spans_jsonl, Kind, RunOutput};
use streambal_benchmark::workloads::{by_name, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    child: Option<String>,
    repeats: usize,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        repeats: 1,
        ..Args::default()
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs {what}"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--child" => args.child = Some(value("a run kind")?),
            "--repeats" => {
                args.repeats = value("a number")?
                    .parse()
                    .ok()
                    .filter(|&r| (1..=100).contains(&r))
                    .ok_or_else(|| "--repeats takes 1..=100".to_string())?;
            }
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(raw)?;
    if args.positional.first().map(String::as_str) == Some("compare") {
        return compare_files(&args.positional[1..]);
    }
    if let Some(extra) = args.positional.first() {
        return Err(format!("unexpected argument {extra}"));
    }
    let workload = args
        .workload
        .as_deref()
        .map(|name| by_name(name).ok_or_else(|| format!("unknown workload {name}")))
        .transpose()?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        DEFAULT_SECONDS / 10.0
    } else {
        DEFAULT_SECONDS
    });
    match (&args.child, workload) {
        (Some(kind), Some(w)) => {
            let kind = Kind::from_name(kind).ok_or_else(|| format!("unknown run kind {kind}"))?;
            child(w, kind, args.seed, seconds)
        }
        (Some(_), None) => Err("--child needs --workload".into()),
        (None, Some(w)) => contract_run(w, args.seed, seconds, args.trace.unwrap_or(false)),
        (None, None) => full_run(args.seed, seconds, args.repeats),
    }
}

// ------------------------------------------------------------------
// Child: one (workload, kind) run in this process
// ------------------------------------------------------------------

fn child(w: &Workload, kind: Kind, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let out = run(w, kind, seed, seconds);
    if kind == Kind::Traced {
        let path = results_dir().join(format!("{}.spans.jsonl", w.name));
        std::fs::create_dir_all(results_dir())
            .and_then(|()| std::fs::write(&path, spans_jsonl(&out.spans)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    // The whole of stdout is one JSON document for the parent.
    print!("{}", child_json(&out).to_pretty());
    Ok(ExitCode::SUCCESS)
}

fn child_json(out: &RunOutput) -> Json {
    Json::obj([
        ("attempted", Json::Int(out.attempted)),
        ("failed", Json::Int(out.failed)),
        (
            "problems",
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
        ("input_hash", Json::Str(format!("{:016x}", out.input_hash))),
        (
            "setup_s",
            Json::Arr(out.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("metrics", metrics_json(&out.metrics)),
    ])
}

// ------------------------------------------------------------------
// Parent: one workload = a few children
// ------------------------------------------------------------------

/// The merged result of one workload's children.
#[derive(Debug, Default)]
struct WorkloadResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    input_hashes: Vec<(&'static str, String)>,
}

fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    kinds: &[Kind],
) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut result = WorkloadResult::default();
    // One child's set-up time is the median of its set-ups; the
    // workload's is the sum over its `sat` and `open` children, so the
    // full run and the `--trace 0` line report the same thing. (Pooling
    // the samples instead would take the median of two populations:
    // the children generate runs of different lengths.)
    let (mut setup_s, mut setup_samples) = (0.0, 0u64);
    for &kind in kinds {
        let output = Command::new(&exe)
            .args(["--child", kind.name(), "--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &(seconds * kind.share()).to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning the {} child: {e}", kind.name()))?;
        if !output.status.success() {
            return Err(format!(
                "{} {} child: {}",
                w.name,
                kind.name(),
                output.status
            ));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let doc = Json::parse(&text)
            .map_err(|e| format!("{} {} child output: {e}", w.name, kind.name()))?;
        let int = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        result.attempted += int("attempted");
        result.failed += int("failed");
        if let Some(Json::Arr(problems)) = doc.get("problems") {
            result.problems.extend(
                problems
                    .iter()
                    .filter_map(Json::as_str)
                    .map(|p| format!("{}: {p}", kind.name())),
            );
        }
        if let (Kind::Sat | Kind::Open, Some(Json::Arr(samples))) = (kind, doc.get("setup_s")) {
            let samples: Vec<f64> = samples.iter().filter_map(Json::as_f64).collect();
            setup_s += median(&samples).unwrap_or(f64::NAN);
            setup_samples += samples.len() as u64;
        }
        if let Some(hash) = doc.get("input_hash").and_then(Json::as_str) {
            result.input_hashes.push((kind.name(), hash.to_string()));
        }
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let mut metric = Metric::named(name, m.get("value").and_then(Json::as_f64));
                metric.samples = m.get("samples").and_then(Json::as_f64).map(|n| n as u64);
                result.metrics.push(metric);
            }
        }
    }
    result
        .metrics
        .push(Metric::named("setup_s", Some(setup_s)).with_samples(setup_samples));
    let tps = |name: &str| find(&result.metrics, name).and_then(|m| m.value);
    if kinds.contains(&Kind::Traced) {
        let overhead = tps("budget.sat_tps")
            .zip(tps("trace.sat_tps"))
            .map(|(sat, traced)| (sat - traced) / sat);
        result
            .metrics
            .push(Metric::named("trace.overhead_frac", overhead));
    }
    Ok(result)
}

fn print_metrics(w: &Workload, r: &WorkloadResult) {
    for m in &r.metrics {
        let value = m.value.map_or("null".to_string(), |v| format!("{v}"));
        let samples = m.samples.map_or(String::new(), |n| format!(" (n={n})"));
        println!("{} {} {value} {}{samples}", w.name, m.name, m.unit);
    }
    let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{} failed_frac {failed_frac} frac (attempted={}, failed={})",
        w.name, r.attempted, r.failed
    );
    for (kind, hash) in &r.input_hashes {
        println!("{} input_hash.{kind} {hash}", w.name);
    }
    for p in &r.problems {
        println!("{} problem: {p}", w.name);
    }
}

// ------------------------------------------------------------------
// The BENCHMARK.json contract: one workload, one result line
// ------------------------------------------------------------------

fn contract_run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    let r = run_workload(w, seed, seconds, &Kind::for_workload(w, Some(trace)))?;
    print_metrics(w, &r);
    let names: Vec<&str> = if trace {
        LAYERS.iter().filter(|l| l.always).map(|l| l.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut fields = Vec::with_capacity(names.len());
    for name in names {
        let m = find(&r.metrics, name).ok_or_else(|| format!("metric {name} was not measured"))?;
        let value = m.value.map_or("null".to_string(), |v| format!("{v}"));
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        fields.join(", ")
    );
    Ok(if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ------------------------------------------------------------------
// The full run: every workload, every kind, a results file
// ------------------------------------------------------------------

fn full_run(seed: u64, seconds: f64, repeats: usize) -> Result<ExitCode, String> {
    let mut failed = 0u64;
    let mut repeat_docs = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut workloads = Vec::with_capacity(WORKLOADS.len());
        for w in &WORKLOADS {
            let r = run_workload(w, seed, seconds, &Kind::for_workload(w, None))?;
            print_metrics(w, &r);
            failed += r.failed;
            workloads.push((
                w.name.to_string(),
                Json::obj([
                    ("attempted", Json::Int(r.attempted)),
                    ("failed", Json::Int(r.failed)),
                    (
                        "failed_frac",
                        Json::Num(r.failed as f64 / r.attempted.max(1) as f64),
                    ),
                    (
                        "input_hash",
                        Json::Obj(
                            r.input_hashes
                                .iter()
                                .map(|(k, h)| (k.to_string(), Json::str(h.clone())))
                                .collect(),
                        ),
                    ),
                    (
                        "problems",
                        Json::Arr(r.problems.iter().map(Json::str).collect()),
                    ),
                    ("metrics", metrics_json(&r.metrics)),
                ]),
            ));
        }
        repeat_docs.push(Json::obj([("workloads", Json::Obj(workloads))]));
    }
    let doc = Json::obj([
        ("context", report::run_context(seed, seconds)),
        ("repeats", Json::Arr(repeat_docs)),
    ]);
    let path = results_dir().join("latest.json");
    write_json(&path, &doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("usage: benchmark compare a.json b.json".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let (table, breach) = compare(&load(a)?, &load(b)?, &names);
    print!("{table}");
    Ok(if breach {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
