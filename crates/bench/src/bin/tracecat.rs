//! `tracecat` — the flight-recorder trace analyzer.
//!
//! ```text
//! tracecat <trace.jsonl>...           # per-span phase breakdowns, dip
//!                                     # attribution, text timeline
//! tracecat --check <trace.jsonl>...   # schema + span-integrity gate
//! ```
//!
//! Reads the JSONL export of [`streambal_trace::TraceLog::to_jsonl`] (one
//! JSON object per line, parsed with the hand-rolled reader in
//! `streambal_bench::json`) back into a [`TraceLog`] and reports:
//!
//! * **Spans** — one line per protocol op (id = epoch) with its outcome,
//!   total disruption window, and per-phase durations, so "where did the
//!   scale-out's 40 ms go" reads straight off the report.
//! * **Early rounds** — how many provisional statistics rounds the
//!   source's skew alerts opened, how many of them planned a rebalance,
//!   split a heavy hitter, held, or were cancelled by the interval's
//!   closing round, and per round that acted the latency from the alert
//!   to the split's and the plan's view reaching the source.
//! * **Dip attribution** — each interval whose fed-tuple count dips below
//!   [`DIP_FRACTION`] × the run median is joined against the spans and
//!   faults overlapping its time window: the dip names its culprit.
//! * **Timeline** — the control-plane story in time order (span events,
//!   faults, marks, interval ends); data-plane flushes are summarized,
//!   not listed.
//!
//! `--check` validates every line against the schema and runs
//! [`TraceLog::check_integrity`], exiting nonzero on any violation — CI
//! runs it over the committed `traces/` artifacts so a malformed or
//! protocol-violating trace cannot land.

use std::process::ExitCode;

use streambal_bench::json::Json;
use streambal_trace::{
    EarlySplit, EarlyStep, EventKind, OpLabel, Outcome, Phase, SpanSummary, ThreadLabel,
    TraceEvent, TraceLog,
};

/// An interval is a "dip" when its fed tuples fall below this fraction
/// of the run's median interval.
const DIP_FRACTION: f64 = 0.85;

fn usage() -> String {
    "usage: tracecat [--check] <trace.jsonl>...".to_string()
}

/// Field access helpers over the parsed line object. All failures carry
/// the field name so a schema error names its culprit.
fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        Some(Json::Int(v)) => Ok(*v),
        _ => Err(format!("missing or non-integer field '{key}'")),
    }
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

/// A float field; the writer renders non-finite values as `null`, which
/// the parser hands back as NaN — accepted here.
fn get_f64(obj: &Json, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Num(v)) => Ok(*v),
        Some(Json::Int(v)) => Ok(*v as f64),
        _ => Err(format!("missing or non-numeric field '{key}'")),
    }
}

fn get_u64_arr(obj: &Json, key: &str) -> Result<Vec<u64>, String> {
    let Some(Json::Arr(items)) = obj.get(key) else {
        return Err(format!("missing or non-array field '{key}'"));
    };
    items
        .iter()
        .map(|v| match v {
            Json::Int(x) => Ok(*x),
            _ => Err(format!("non-integer element in '{key}'")),
        })
        .collect()
}

/// Parses one JSONL line back into a [`TraceEvent`].
fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let obj = Json::parse(line).map_err(|e| e.to_string())?;
    let at_us = get_u64(&obj, "at_us")?;
    let seq = get_u64(&obj, "seq")?;
    let thread_name = get_str(&obj, "thread")?;
    let thread = ThreadLabel::from_name(thread_name)
        .ok_or_else(|| format!("unknown thread '{thread_name}'"))?;
    let kind_name = get_str(&obj, "kind")?;
    let kind = match kind_name {
        "span_open" => {
            let op_name = get_str(&obj, "op")?;
            EventKind::SpanOpen {
                span: get_u64(&obj, "span")?,
                op: OpLabel::from_name(op_name).ok_or_else(|| format!("unknown op '{op_name}'"))?,
            }
        }
        "span_phase" => {
            let phase_name = get_str(&obj, "phase")?;
            EventKind::SpanPhase {
                span: get_u64(&obj, "span")?,
                phase: Phase::from_name(phase_name)
                    .ok_or_else(|| format!("unknown phase '{phase_name}'"))?,
            }
        }
        "span_close" => {
            let outcome_name = get_str(&obj, "outcome")?;
            EventKind::SpanClose {
                span: get_u64(&obj, "span")?,
                outcome: Outcome::from_name(outcome_name)
                    .ok_or_else(|| format!("unknown outcome '{outcome_name}'"))?,
            }
        }
        "fault" => EventKind::Fault {
            detail: get_str(&obj, "detail")?.to_string(),
        },
        "snapshot" => EventKind::Snapshot {
            interval: get_u64(&obj, "interval")?,
            loads: get_u64_arr(&obj, "loads")?,
            queues: get_u64_arr(&obj, "queues")?,
            mean_latency_us: get_f64(&obj, "mean_latency_us")?,
            p99_latency_us: get_f64(&obj, "p99_latency_us")?,
        },
        "router_snapshot" => EventKind::RouterSnapshot {
            interval: get_u64(&obj, "interval")?,
            table_entries: get_u64(&obj, "table_entries")?,
            table_tombstones: get_u64(&obj, "table_tombstones")?,
            pool_buffers: get_u64(&obj, "pool_buffers")?,
        },
        "data_flush" => EventKind::DataFlush {
            interval: get_u64(&obj, "interval")?,
            tuples: get_u64(&obj, "tuples")?,
            batches: get_u64(&obj, "batches")?,
        },
        "interval_end" => EventKind::IntervalEnd {
            interval: get_u64(&obj, "interval")?,
            tuples: get_u64(&obj, "tuples")?,
        },
        "mark" => EventKind::Mark {
            label: get_str(&obj, "label")?.to_string(),
        },
        "skew_alert" => EventKind::SkewAlert {
            interval: get_u64(&obj, "interval")?,
            sent: get_u64_arr(&obj, "sent")?,
        },
        "early_round" => {
            let step_name = get_str(&obj, "step")?;
            let step = EarlyStep::from_name(step_name)
                .ok_or_else(|| format!("unknown step '{step_name}'"))?;
            let split = match step {
                EarlyStep::Split => Some(EarlySplit {
                    key: get_u64(&obj, "key")?,
                    share: get_f64(&obj, "share")?,
                    rescale: get_f64(&obj, "rescale")?,
                    replicas: get_u64(&obj, "replicas")? as usize,
                    loads: get_u64_arr(&obj, "loads")?,
                    planned: matches!(obj.get("planned"), Some(Json::Bool(true))),
                }),
                _ => None,
            };
            EventKind::EarlyRound {
                interval: get_u64(&obj, "interval")?,
                step,
                split,
            }
        }
        other => return Err(format!("unknown kind '{other}'")),
    };
    Ok(TraceEvent {
        at_us,
        seq,
        thread,
        kind,
    })
}

/// Parses a whole JSONL document; schema errors are collected per line
/// (1-based), not short-circuited, so `--check` reports them all.
fn parse_log(text: &str) -> Result<TraceLog, Vec<String>> {
    let mut events = Vec::new();
    let mut problems = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_event(line) {
            Ok(e) => events.push(e),
            Err(e) => problems.push(format!("line {}: {e}", i + 1)),
        }
    }
    if problems.is_empty() {
        events.sort_by_key(|e| (e.at_us, e.thread.tid(), e.seq));
        Ok(TraceLog { events })
    } else {
        Err(problems)
    }
}

/// `(interval, fed tuples, end stamp)` rows from the source's
/// `IntervalEnd` events, in interval order.
fn interval_rows(log: &TraceLog) -> Vec<(u64, u64, u64)> {
    let mut rows: Vec<(u64, u64, u64)> = log
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::IntervalEnd { interval, tuples } => Some((interval, tuples, e.at_us)),
            _ => None,
        })
        .collect();
    rows.sort_unstable();
    rows
}

fn median(mut xs: Vec<u64>) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// One line per early round that acted: the latency from its alert to
/// the split's and the plan's view reaching the source. An early round
/// settles only while the control plane is idle, so the ops it queued
/// are the next `split` / `rebalance` spans to open, in that order; a
/// view is installed when its span closes (the source's `ResumeAck`).
fn early_reactions(log: &TraceLog, spans: &[SpanSummary]) -> Vec<String> {
    let mut alerts = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in &log.events {
        let (interval, split) = match &e.kind {
            EventKind::SkewAlert { interval, .. } => {
                alerts.insert(*interval, e.at_us);
                continue;
            }
            EventKind::EarlyRound {
                interval,
                step: EarlyStep::Planned | EarlyStep::Split,
                split,
            } => (interval, split.as_ref()),
            _ => continue,
        };
        let Some(&alert_us) = alerts.get(interval) else {
            continue;
        };
        let installed = |op: OpLabel| {
            let span = spans.iter().find(|s| s.op == op && s.open_us >= e.at_us);
            span.filter(|s| s.outcome == Some(Outcome::Completed))
                .map(|s| format!("+{:.1}ms", ms(s.close_us.saturating_sub(alert_us))))
        };
        let mut line = format!("round {interval:>3}: alert at {:.1}ms", ms(alert_us));
        if let Some((s, at)) = split.zip(installed(OpLabel::Split)) {
            line.push_str(&format!(
                " → split installed {at} (key {}, share {:.2} ×{:.1} → {} replicas over loads {:?})",
                s.key, s.share, s.rescale, s.replicas, s.loads
            ));
        }
        if let Some(at) = installed(OpLabel::Rebalance).filter(|_| split.is_none_or(|s| s.planned))
        {
            line.push_str(&format!(" → plan installed {at}"));
        }
        out.push(line);
    }
    out
}

/// The default report for one parsed trace.
fn report(path: &str, log: &TraceLog) {
    let spans = log.span_summaries();
    let last_us = log.events.iter().map(|e| e.at_us).max().unwrap_or(0);
    let n_faults = log
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fault { .. }))
        .count();
    println!(
        "== {path}: {} events, {} spans, {} faults, {:.1} ms",
        log.events.len(),
        spans.len(),
        n_faults,
        ms(last_us)
    );

    // Spans: outcome, disruption window, and where it went.
    if spans.is_empty() {
        println!("  spans: none (steady run)");
    } else {
        println!("  spans:");
        for s in &spans {
            let outcome = s.outcome.map_or("UNCLOSED", |o| o.as_str());
            let mut phases = String::new();
            for (phase, dur) in s.phase_durations() {
                if !phases.is_empty() {
                    phases.push_str(", ");
                }
                phases.push_str(&format!("{} {:.1}ms", phase.as_str(), ms(dur)));
            }
            println!(
                "    span {:>3} {:<9} {:<9} at {:>8.1}ms disruption {:>7.1}ms  [{phases}]",
                s.span,
                s.op.as_str(),
                outcome,
                ms(s.open_us),
                ms(s.disruption_us())
            );
        }
    }

    // Early rounds: what the source's skew alerts led to.
    let early = |want: EarlyStep| {
        log.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::EarlyRound { step, .. } if step == want))
            .count()
    };
    println!(
        "  early rounds: {} fired, {} planned, {} split, {} held, {} cancelled",
        early(EarlyStep::Open),
        early(EarlyStep::Planned),
        early(EarlyStep::Split),
        early(EarlyStep::Held),
        early(EarlyStep::Cancelled)
    );
    for line in early_reactions(log, &spans) {
        println!("    {line}");
    }

    // Dip attribution: intervals whose fed-tuple count falls below
    // DIP_FRACTION of the median, joined against overlapping spans and
    // faults in the interval's time window.
    let rows = interval_rows(log);
    let med = median(rows.iter().map(|&(_, t, _)| t).collect());
    let threshold = (med as f64 * DIP_FRACTION) as u64;
    let mut dips = 0;
    println!(
        "  throughput: {} intervals, median {med} tuples",
        rows.len()
    );
    let mut win_start = 0u64;
    for &(interval, tuples, end_us) in &rows {
        if tuples < threshold {
            dips += 1;
            let mut culprits: Vec<String> = Vec::new();
            for s in &spans {
                if s.open_us < end_us && s.close_us > win_start {
                    culprits.push(format!(
                        "span {} ({} {})",
                        s.span,
                        s.op.as_str(),
                        s.outcome.map_or("unclosed", |o| o.as_str())
                    ));
                }
            }
            for e in &log.events {
                if let EventKind::Fault { detail } = &e.kind {
                    if e.at_us >= win_start && e.at_us < end_us {
                        culprits.push(format!("fault[{}] {detail}", e.seq));
                    }
                }
            }
            let why = if culprits.is_empty() {
                "no overlapping span or fault (external)".to_string()
            } else {
                culprits.join("; ")
            };
            println!(
                "    DIP interval {interval}: {tuples} tuples \
                 ({:.0}% of median) — {why}",
                tuples as f64 / med.max(1) as f64 * 100.0
            );
        }
        win_start = end_us;
    }
    if dips == 0 {
        println!("    no dips below {:.0}% of median", DIP_FRACTION * 100.0);
    }

    // Timeline: the control-plane story; data-plane flushes summarized.
    let n_flushes = log
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DataFlush { .. }))
        .count();
    println!("  timeline ({n_flushes} data flushes omitted):");
    for e in &log.events {
        let line = match &e.kind {
            EventKind::SpanOpen { span, op } => format!("span {span} open ({})", op.as_str()),
            EventKind::SpanPhase { span, phase } => {
                format!("span {span} → {}", phase.as_str())
            }
            EventKind::SpanClose { span, outcome } => {
                format!("span {span} close ({})", outcome.as_str())
            }
            EventKind::Fault { detail } => format!("fault[{}]: {detail}", e.seq),
            EventKind::IntervalEnd { interval, tuples } => {
                format!("interval {interval} fed ({tuples} tuples)")
            }
            EventKind::Mark { label } => format!("mark: {label}"),
            EventKind::SkewAlert { interval, sent } => {
                format!("skew alert in interval {interval}: sent {sent:?}")
            }
            EventKind::EarlyRound { interval, step, .. } => {
                format!("early round {interval} {}", step.as_str())
            }
            EventKind::Snapshot { .. }
            | EventKind::RouterSnapshot { .. }
            | EventKind::DataFlush { .. } => continue,
        };
        println!("    {:>9.1}ms {:<10} {line}", ms(e.at_us), e.thread.name());
    }
}

/// `--check`: schema already validated by the caller's parse; run span
/// integrity and basic sanity. Returns problems; empty = clean.
fn check(log: &TraceLog) -> Vec<String> {
    let mut problems = log.check_integrity();
    if log.events.is_empty() {
        problems.push("trace is empty".to_string());
    }
    for s in &log.span_summaries() {
        if s.outcome.is_none() {
            problems.push(format!("span {}: no close recorded", s.span));
        }
    }
    // An early round is opened at most once per interval, by that
    // interval's one skew alert, and ends at most once.
    // (The alert is the source's event and the round the controller's:
    // their stamps can tie, so only the controller's own order is
    // checked.)
    let mut alerted = std::collections::BTreeSet::new();
    let mut rounds: std::collections::BTreeMap<u64, (u32, u32)> = Default::default();
    for e in &log.events {
        match e.kind {
            EventKind::SkewAlert { interval, .. } if !alerted.insert(interval) => {
                problems.push(format!("interval {interval}: more than one skew alert"));
            }
            EventKind::EarlyRound { interval, step, .. } => {
                let (opens, ends) = rounds.entry(interval).or_default();
                if step == EarlyStep::Open {
                    *opens += 1;
                } else {
                    *ends += 1;
                    if *opens == 0 {
                        problems.push(format!("early round {interval}: ends before it opens"));
                    }
                }
            }
            _ => {}
        }
    }
    for (interval, (opens, ends)) in rounds {
        if !alerted.contains(&interval) {
            problems.push(format!("early round {interval}: no skew alert behind it"));
        }
        if opens > 1 || ends > 1 {
            problems.push(format!(
                "early round {interval}: opened {opens} times, ended {ends} times (want ≤ 1 each)"
            ));
        }
    }
    problems
}

fn main() -> ExitCode {
    let mut check_mode = false;
    let mut paths: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--check" => check_mode = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return ExitCode::from(1);
            }
            _ => paths.push(a),
        }
    }
    if paths.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(1);
    }

    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
                continue;
            }
        };
        let log = match parse_log(&text) {
            Ok(log) => log,
            Err(problems) => {
                for p in &problems {
                    eprintln!("{path}: {p}");
                }
                failed = true;
                continue;
            }
        };
        if check_mode {
            let problems = check(&log);
            if problems.is_empty() {
                println!(
                    "ok {path}: {} events, {} spans clean",
                    log.events.len(),
                    log.span_summaries().len()
                );
            } else {
                for p in &problems {
                    eprintln!("{path}: {p}");
                }
                failed = true;
            }
        } else {
            report(path, &log);
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_trace::TraceSink;

    fn sample_log() -> TraceLog {
        let sink = TraceSink::new(true);
        let mut ctl = sink.recorder(ThreadLabel::Controller);
        let mut src = sink.recorder(ThreadLabel::Source);
        let mut w0 = sink.recorder(ThreadLabel::Worker(0));
        src.interval_end(0, 1000);
        w0.count_batch(1000);
        w0.close_interval(0);
        ctl.span_open(1, OpLabel::ScaleOut);
        ctl.span_phase(1, Phase::Plan);
        ctl.span_phase(1, Phase::Pause);
        ctl.span_phase(1, Phase::Install);
        ctl.span_phase(1, Phase::Resume);
        ctl.span_close(1, Outcome::Completed);
        ctl.snapshot(0, vec![600, 400], vec![2, 1], 15.0, 42.5);
        src.router_snapshot(0, 12, 2, 4);
        sink.fault(0, "injected kill: worker \"1\"".to_string());
        src.skew_alert(1, vec![90, 310]);
        ctl.early_round(1, EarlyStep::Open);
        ctl.early_round(1, EarlyStep::Planned);
        src.interval_end(1, 400);
        ctl.mark("teardown");
        drop((ctl, src, w0));
        sink.take_log()
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let log = sample_log();
        let parsed = parse_log(&log.to_jsonl()).expect("round trip");
        assert_eq!(parsed, log);
    }

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(parse_event("not json").is_err());
        // Wrong types and unknown enum values all name their field.
        let e = parse_event(r#"{"at_us":"x","seq":0,"thread":"source","kind":"mark","label":"a"}"#)
            .unwrap_err();
        assert!(e.contains("at_us"), "{e}");
        let e = parse_event(r#"{"at_us":1,"seq":0,"thread":"nobody","kind":"mark","label":"a"}"#)
            .unwrap_err();
        assert!(e.contains("nobody"), "{e}");
        let e = parse_event(r#"{"at_us":1,"seq":0,"thread":"source","kind":"wat"}"#).unwrap_err();
        assert!(e.contains("wat"), "{e}");
        let e = parse_event(
            r#"{"at_us":1,"seq":0,"thread":"controller","kind":"span_open","span":1,"op":"x"}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown op"), "{e}");
    }

    #[test]
    fn parse_log_reports_all_bad_lines_with_numbers() {
        let text = "garbage\n\n{\"at_us\":1,\"seq\":0,\"thread\":\"source\",\
                    \"kind\":\"mark\",\"label\":\"ok\"}\nmore garbage\n";
        let problems = parse_log(text).unwrap_err();
        assert_eq!(problems.len(), 2);
        assert!(problems[0].starts_with("line 1:"), "{}", problems[0]);
        assert!(problems[1].starts_with("line 4:"), "{}", problems[1]);
    }

    #[test]
    fn check_accepts_clean_and_rejects_unclosed_spans() {
        assert_eq!(check(&sample_log()), Vec::<String>::new());

        let sink = TraceSink::new(true);
        let mut ctl = sink.recorder(ThreadLabel::Controller);
        ctl.span_open(7, OpLabel::Rebalance);
        drop(ctl);
        let problems = check(&sink.take_log());
        assert!(
            problems.iter().any(|p| p.contains("span 7")),
            "{problems:?}"
        );

        // An early round needs its alert, and ends once.
        let sink = TraceSink::new(true);
        let mut ctl = sink.recorder(ThreadLabel::Controller);
        ctl.early_round(3, EarlyStep::Open);
        ctl.early_round(3, EarlyStep::Held);
        ctl.early_round(3, EarlyStep::Cancelled);
        drop(ctl);
        let problems = check(&sink.take_log());
        assert!(
            problems.iter().any(|p| p.contains("no skew alert")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("ended 2 times")),
            "{problems:?}"
        );
    }

    #[test]
    fn split_spans_round_trip_and_attribute_dips() {
        // A hot-key split / unsplit cycle as the engine records it: a
        // split span (pause → install → resume, no state moved) during
        // a dipped interval, and the consolidating unsplit span after.
        let sink = TraceSink::new(true);
        let mut ctl = sink.recorder(ThreadLabel::Controller);
        let mut src = sink.recorder(ThreadLabel::Source);
        src.interval_end(0, 1000);
        // Real (if tiny) wall-clock gaps: the overlap join below uses
        // strict inequalities, degenerate when every event lands in the
        // same microsecond.
        std::thread::sleep(std::time::Duration::from_millis(2));
        // …queued by an early round, whose inputs ride on its last step.
        src.skew_alert(1, vec![90, 310]);
        ctl.early_round(1, EarlyStep::Open);
        let split = EarlySplit {
            key: 7,
            share: 0.625,
            rescale: 8.0,
            replicas: 2,
            loads: vec![90, 310],
            planned: false,
        };
        ctl.early_split(1, split);
        ctl.span_open(1, OpLabel::Split);
        ctl.span_phase(1, Phase::Pause);
        ctl.span_phase(1, Phase::Install);
        ctl.span_phase(1, Phase::Resume);
        ctl.span_close(1, Outcome::Completed);
        std::thread::sleep(std::time::Duration::from_millis(2));
        src.interval_end(1, 300);
        ctl.span_open(2, OpLabel::Unsplit);
        ctl.span_phase(2, Phase::Pause);
        ctl.span_phase(2, Phase::QuiesceWait);
        ctl.span_phase(2, Phase::StateOut);
        ctl.span_phase(2, Phase::Install);
        ctl.span_phase(2, Phase::Resume);
        ctl.span_close(2, Outcome::Completed);
        src.interval_end(2, 1000);
        drop((ctl, src));
        let log = sink.take_log();

        // The split/unsplit op names survive the jsonl round trip and
        // the log passes `--check` integrity.
        let parsed = parse_log(&log.to_jsonl()).expect("round trip");
        assert_eq!(parsed, log);
        assert_eq!(check(&log), Vec::<String>::new());
        let spans = log.span_summaries();
        assert_eq!(
            spans.iter().map(|s| s.op).collect::<Vec<_>>(),
            vec![OpLabel::Split, OpLabel::Unsplit]
        );
        // The early round is joined to the split it queued — and, its
        // inputs saying no plan followed, to no rebalance.
        let reactions = early_reactions(&log, &spans);
        assert!(
            reactions[0].contains("→ split installed +"),
            "{reactions:?}"
        );
        assert!(reactions[0].contains("key 7, share 0.62 ×8.0 → 2 replicas"));
        assert!(reactions.len() == 1 && !reactions[0].contains("plan installed"));

        // The dipped interval 1 overlaps the split span's window — the
        // same join `report` prints as the dip's culprit.
        let rows = interval_rows(&log);
        let (win_start, win_end) = (rows[0].2, rows[1].2);
        assert!(rows[1].1 < (median(vec![1000, 300, 1000]) as f64 * DIP_FRACTION) as u64);
        let split_span = &spans[0];
        assert!(
            split_span.open_us < win_end && split_span.close_us > win_start,
            "split span must land in the dipped interval's window"
        );
    }

    #[test]
    fn dip_detection_finds_the_short_interval() {
        let log = sample_log();
        let rows = interval_rows(&log);
        assert_eq!(rows.len(), 2);
        let med = median(rows.iter().map(|&(_, t, _)| t).collect());
        assert_eq!(med, 1000);
        // Interval 1 fed 400 < 850 = 0.85 × median: a dip.
        assert!(rows[1].1 < (med as f64 * DIP_FRACTION) as u64);
    }
}
