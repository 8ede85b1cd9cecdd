//! `tracecat` — the flight-recorder trace analyzer.
//!
//! ```text
//! tracecat <trace.jsonl>...           # per-span phase breakdowns, dip
//!                                     # attribution, text timeline
//! tracecat --check <trace.jsonl>...   # schema + re-encode + integrity
//!                                     # gate
//! ```
//!
//! Reads the JSONL files `streambal_bench::trace_file` writes (one JSON
//! object per line, decoded by [`trace_file::from_jsonl`]) back into a
//! [`TraceLog`] and reports:
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
//! `--check` validates every line against the schema, requires the file
//! to re-encode to itself byte for byte (so the writer and the reader
//! agree), and runs [`TraceLog::check_integrity`] (spans and early
//! rounds), exiting nonzero on any violation — CI runs it over the
//! committed `traces/` artifacts and the fresh smoke exports, so a
//! malformed, drifting or protocol-violating trace cannot land.

use std::process::ExitCode;

use streambal_bench::trace_file;
use streambal_trace::{EarlyStep, EventKind, OpLabel, Outcome, SpanSummary, TraceLog};

/// An interval is a "dip" when its fed tuples fall below this fraction
/// of the run's median interval.
const DIP_FRACTION: f64 = 0.85;

fn usage() -> String {
    "usage: tracecat [--check] <trace.jsonl>...".to_string()
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

/// `--check`, on a file that parsed: it must re-encode to itself, hold
/// events, and pass [`TraceLog::check_integrity`]. Returns problems;
/// empty = clean.
fn check(text: &str, log: &TraceLog) -> Vec<String> {
    let mut problems = log.check_integrity();
    if log.events.is_empty() {
        problems.push("trace is empty".to_string());
    }
    let reencoded = trace_file::to_jsonl(log);
    if reencoded != text {
        let lines = text.split('\n').zip(reencoded.split('\n'));
        let same = lines.take_while(|(a, b)| a == b).count();
        problems.push(format!(
            "line {}: does not re-encode to itself (writer and reader disagree)",
            same + 1
        ));
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
        let log = match trace_file::from_jsonl(&text) {
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
            let problems = check(&text, &log);
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
    use streambal_trace::{EarlySplit, Phase, ThreadLabel, TraceSink};

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
        // the log passes `--check` — unless its file holds other bytes
        // than the writer's, here a space on line 1.
        let text = trace_file::to_jsonl(&log);
        assert_eq!(trace_file::from_jsonl(&text).expect("round trip"), log);
        assert_eq!(check(&text, &log), Vec::<String>::new());
        let drifted = text.replacen('{', "{ ", 1);
        assert_eq!(
            check(&drifted, &log),
            ["line 1: does not re-encode to itself (writer and reader disagree)"]
        );
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
        let sink = TraceSink::new(true);
        let mut src = sink.recorder(ThreadLabel::Source);
        src.interval_end(0, 1000);
        src.interval_end(1, 400);
        drop(src);
        let log = sink.take_log();
        let rows = interval_rows(&log);
        assert_eq!(rows.len(), 2);
        let med = median(rows.iter().map(|&(_, t, _)| t).collect());
        assert_eq!(med, 1000);
        // Interval 1 fed 400 < 850 = 0.85 × median: a dip.
        assert!(rows[1].1 < (med as f64 * DIP_FRACTION) as u64);
    }
}
