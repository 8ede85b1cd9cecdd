//! The flight-recorder trace files: one encoder and one decoder between
//! a [`TraceEvent`] and a [`Json`] object, and the two file formats built
//! on them.
//!
//! * **JSONL** ([`to_jsonl`] / [`from_jsonl`]) — one JSON object per
//!   line, the `tracecat` input format: `at_us`, `seq`, `thread` (a
//!   [`ThreadLabel::name`] string), `kind` (a discriminator string), plus
//!   the kind's own fields. Non-finite floats render as `null` and read
//!   back as NaN.
//! * **Chrome `trace_event` JSON** ([`to_chrome_json`], for
//!   `chrome://tracing` / Perfetto) — spans as async `b`/`e` pairs keyed
//!   by span id, phases, faults and marks as instants, snapshots as
//!   counter tracks. Written, never read.
//!
//! A new [`EventKind`] needs one [`encode`] arm, one [`decode`] arm and
//! its Chrome record shape, all here; `tracecat --check` fails any file
//! that does not re-encode to itself, so encoder and decoder cannot drift
//! apart unnoticed.

use streambal_trace::{
    EarlySplit, EarlyStep, EventKind, OpLabel, Outcome, Phase, ThreadLabel, TraceEvent, TraceLog,
};

use crate::json::Json;

fn ints(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Int(x)).collect())
}

/// One event as its JSONL object.
pub fn encode(e: &TraceEvent) -> Json {
    let (kind, mut fields) = match &e.kind {
        EventKind::SpanOpen { span, op } => (
            "span_open",
            vec![("span", Json::Int(*span)), ("op", Json::str(op.as_str()))],
        ),
        EventKind::SpanPhase { span, phase } => (
            "span_phase",
            vec![
                ("span", Json::Int(*span)),
                ("phase", Json::str(phase.as_str())),
            ],
        ),
        EventKind::SpanClose { span, outcome } => (
            "span_close",
            vec![
                ("span", Json::Int(*span)),
                ("outcome", Json::str(outcome.as_str())),
            ],
        ),
        EventKind::Fault { detail } => ("fault", vec![("detail", Json::str(detail))]),
        EventKind::Snapshot {
            interval,
            loads,
            queues,
            mean_latency_us,
            p99_latency_us,
        } => (
            "snapshot",
            vec![
                ("interval", Json::Int(*interval)),
                ("loads", ints(loads)),
                ("queues", ints(queues)),
                ("mean_latency_us", Json::Num(*mean_latency_us)),
                ("p99_latency_us", Json::Num(*p99_latency_us)),
            ],
        ),
        EventKind::RouterSnapshot {
            interval,
            table_entries,
            table_tombstones,
        } => (
            "router_snapshot",
            vec![
                ("interval", Json::Int(*interval)),
                ("table_entries", Json::Int(*table_entries)),
                ("table_tombstones", Json::Int(*table_tombstones)),
            ],
        ),
        EventKind::DataFlush {
            interval,
            tuples,
            batches,
        } => (
            "data_flush",
            vec![
                ("interval", Json::Int(*interval)),
                ("tuples", Json::Int(*tuples)),
                ("batches", Json::Int(*batches)),
            ],
        ),
        EventKind::IntervalEnd { interval, tuples } => (
            "interval_end",
            vec![
                ("interval", Json::Int(*interval)),
                ("tuples", Json::Int(*tuples)),
            ],
        ),
        EventKind::SkewAlert { interval, sent } => (
            "skew_alert",
            vec![("interval", Json::Int(*interval)), ("sent", ints(sent))],
        ),
        EventKind::EarlyRound {
            interval,
            step,
            split,
        } => {
            let mut fields = vec![
                ("interval", Json::Int(*interval)),
                ("step", Json::str(step.as_str())),
            ];
            if let Some(s) = split {
                fields.extend([
                    ("key", Json::Int(s.key)),
                    ("share", Json::Num(s.share)),
                    ("rescale", Json::Num(s.rescale)),
                    ("replicas", Json::Int(s.replicas as u64)),
                    ("loads", ints(&s.loads)),
                    ("planned", Json::Bool(s.planned)),
                ]);
            }
            ("early_round", fields)
        }
        EventKind::Mark { label } => ("mark", vec![("label", Json::str(label))]),
    };
    let mut head = vec![
        ("at_us", Json::Int(e.at_us)),
        ("seq", Json::Int(e.seq)),
        ("thread", Json::str(e.thread.name())),
        ("kind", Json::str(kind)),
    ];
    head.append(&mut fields);
    Json::obj(head)
}

/// Reads one [`encode`]d object back. Every failure names its field.
pub fn decode(obj: &Json) -> Result<TraceEvent, String> {
    let f = Fields(obj);
    let at_us = f.u64("at_us")?;
    let seq = f.u64("seq")?;
    let thread = f.name("thread", ThreadLabel::from_name)?;
    let kind = match f.str("kind")? {
        "span_open" => EventKind::SpanOpen {
            span: f.u64("span")?,
            op: f.name("op", OpLabel::from_name)?,
        },
        "span_phase" => EventKind::SpanPhase {
            span: f.u64("span")?,
            phase: f.name("phase", Phase::from_name)?,
        },
        "span_close" => EventKind::SpanClose {
            span: f.u64("span")?,
            outcome: f.name("outcome", Outcome::from_name)?,
        },
        "fault" => EventKind::Fault {
            detail: f.str("detail")?.to_string(),
        },
        "snapshot" => EventKind::Snapshot {
            interval: f.u64("interval")?,
            loads: f.u64s("loads")?,
            queues: f.u64s("queues")?,
            mean_latency_us: f.f64("mean_latency_us")?,
            p99_latency_us: f.f64("p99_latency_us")?,
        },
        "router_snapshot" => EventKind::RouterSnapshot {
            interval: f.u64("interval")?,
            table_entries: f.u64("table_entries")?,
            table_tombstones: f.u64("table_tombstones")?,
        },
        "data_flush" => EventKind::DataFlush {
            interval: f.u64("interval")?,
            tuples: f.u64("tuples")?,
            batches: f.u64("batches")?,
        },
        "interval_end" => EventKind::IntervalEnd {
            interval: f.u64("interval")?,
            tuples: f.u64("tuples")?,
        },
        "skew_alert" => EventKind::SkewAlert {
            interval: f.u64("interval")?,
            sent: f.u64s("sent")?,
        },
        "early_round" => {
            let step = f.name("step", EarlyStep::from_name)?;
            let split = match step {
                EarlyStep::Split => Some(EarlySplit {
                    key: f.u64("key")?,
                    share: f.f64("share")?,
                    rescale: f.f64("rescale")?,
                    replicas: f.u64("replicas")? as usize,
                    loads: f.u64s("loads")?,
                    planned: obj.get("planned") == Some(&Json::Bool(true)),
                }),
                _ => None,
            };
            EventKind::EarlyRound {
                interval: f.u64("interval")?,
                step,
                split,
            }
        }
        "mark" => EventKind::Mark {
            label: f.str("label")?.to_string(),
        },
        other => return Err(format!("unknown kind '{other}'")),
    };
    Ok(TraceEvent {
        at_us,
        seq,
        thread,
        kind,
    })
}

/// Typed field reads over one decoded line.
struct Fields<'a>(&'a Json);

impl<'a> Fields<'a> {
    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.0.get(key) {
            Some(Json::Int(v)) => Ok(*v),
            _ => Err(format!("missing or non-integer field '{key}'")),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.0
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field '{key}'"))
    }

    /// A float; the writer's `null` (a non-finite value) reads as NaN.
    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.0.get(key) {
            Some(Json::Num(v)) => Ok(*v),
            Some(Json::Int(v)) => Ok(*v as f64),
            _ => Err(format!("missing or non-numeric field '{key}'")),
        }
    }

    fn u64s(&self, key: &str) -> Result<Vec<u64>, String> {
        let Some(Json::Arr(items)) = self.0.get(key) else {
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

    /// A label string parsed by `from_name` (`unknown op 'x'` otherwise).
    fn name<T>(&self, key: &str, from_name: fn(&str) -> Option<T>) -> Result<T, String> {
        let s = self.str(key)?;
        from_name(s).ok_or_else(|| format!("unknown {key} '{s}'"))
    }
}

/// The log as JSONL: one [`encode`]d object per line.
pub fn to_jsonl(log: &TraceLog) -> String {
    let mut out = String::new();
    for e in &log.events {
        out.push_str(&encode(e).to_compact());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document, skipping blank lines. Errors are collected
/// per line as `line N: …` (1-based), not short-circuited, so `--check`
/// reports them all. Events come back sorted by `(at_us, thread, seq)`,
/// as the sink merges them.
pub fn from_jsonl(text: &str) -> Result<TraceLog, Vec<String>> {
    let mut events = Vec::new();
    let mut problems = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match decode_line(line) {
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

/// Parses and [`decode`]s one JSONL line.
fn decode_line(line: &str) -> Result<TraceEvent, String> {
    decode(&Json::parse(line).map_err(|e| e.to_string())?)
}

/// The log as Chrome `trace_event` JSON: a thread-name record before each
/// thread's first event, then one record per line.
pub fn to_chrome_json(log: &TraceLog) -> String {
    let mut seen_threads: Vec<ThreadLabel> = Vec::new();
    let mut records: Vec<String> = Vec::with_capacity(log.events.len() * 2);
    for e in &log.events {
        if !seen_threads.contains(&e.thread) {
            seen_threads.push(e.thread);
            let thread_name = Json::obj([
                ("ph", Json::str("M")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(e.thread.tid())),
                ("name", Json::str("thread_name")),
                ("args", Json::obj([("name", Json::str(e.thread.name()))])),
            ]);
            records.push(thread_name.to_compact());
        }
        records.extend(chrome_records(e).iter().map(Json::to_compact));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(r);
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// One event's Chrome records: spans as async `b`/`e`, phases, faults,
/// marks and early rounds as instants, the rest as counters.
fn chrome_records(e: &TraceEvent) -> Vec<Json> {
    // `head`, then the stamp (counters are process-wide: no `tid`), then
    // `args` when there are any.
    let record = |mut head: Vec<(&'static str, Json)>, tid: bool, args: Option<Json>| {
        head.extend([("ts", Json::Int(e.at_us)), ("pid", Json::Int(1))]);
        if tid {
            head.push(("tid", Json::Int(e.thread.tid())));
        }
        head.extend(args.map(|a| ("args", a)));
        Json::obj(head)
    };
    let span = |ph: &str, id: u64, name: &str, args: Option<Json>| {
        let head = vec![
            ("ph", Json::str(ph)),
            ("cat", Json::str("protocol")),
            ("id", Json::Int(id)),
            ("name", Json::str(name)),
        ];
        record(head, true, args)
    };
    let instant = |scope: &str, cat: &str, name: String, args: Option<Json>| {
        let head = vec![
            ("ph", Json::str("i")),
            ("s", Json::str(scope)),
            ("cat", Json::str(cat)),
            ("name", Json::str(name)),
        ];
        record(head, true, args)
    };
    let counter = |name: &str, args: Json| {
        let head = vec![("ph", Json::str("C")), ("name", Json::str(name))];
        record(head, false, Some(args))
    };
    let per_worker = |xs: &[u64]| {
        let cells = xs.iter().enumerate();
        Json::Obj(
            cells
                .map(|(i, &x)| (format!("w{i}"), Json::Int(x)))
                .collect(),
        )
    };
    match &e.kind {
        EventKind::SpanOpen { span: id, op } => vec![span("b", *id, op.as_str(), None)],
        EventKind::SpanClose { span: id, outcome } => {
            let args = Json::obj([("outcome", Json::str(outcome.as_str()))]);
            vec![span("e", *id, "span", Some(args))]
        }
        EventKind::SpanPhase { span, phase } => {
            let name = format!("{}#{span}", phase.as_str());
            vec![instant("p", "protocol", name, None)]
        }
        EventKind::Fault { detail } => vec![instant("g", "fault", detail.clone(), None)],
        EventKind::Snapshot {
            loads,
            queues,
            p99_latency_us,
            ..
        } => {
            let p99 = Json::obj([("p99", Json::Num(*p99_latency_us))]);
            vec![
                counter("load", per_worker(loads)),
                counter("queue", per_worker(queues)),
                counter("p99_latency_us", p99),
            ]
        }
        EventKind::RouterSnapshot {
            table_entries,
            table_tombstones,
            ..
        } => vec![counter(
            "router",
            Json::obj([
                ("entries", Json::Int(*table_entries)),
                ("tombstones", Json::Int(*table_tombstones)),
            ]),
        )],
        EventKind::DataFlush {
            interval,
            tuples,
            batches,
        } => {
            let args = Json::obj([
                ("tuples", Json::Int(*tuples)),
                ("batches", Json::Int(*batches)),
            ]);
            vec![instant(
                "t",
                "data",
                format!("flush#{interval}"),
                Some(args),
            )]
        }
        EventKind::IntervalEnd { interval, tuples } => {
            let args = Json::obj([
                ("tuples", Json::Int(*tuples)),
                ("interval", Json::Int(*interval)),
            ]);
            vec![counter("interval_tuples", args)]
        }
        EventKind::Mark { label } => vec![instant("g", "mark", label.clone(), None)],
        EventKind::SkewAlert { interval, .. } => {
            vec![instant(
                "t",
                "early",
                format!("skew_alert#{interval}"),
                None,
            )]
        }
        EventKind::EarlyRound { interval, step, .. } => {
            let name = format!("early_round#{interval} {}", step.as_str());
            vec![instant("t", "early", name, None)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_trace::TraceSink;

    /// Every [`EventKind`] (an early round that carries its split, a
    /// fault whose detail needs escaping, a non-finite latency), with
    /// fixed stamps so the exports are literal.
    fn sample_log() -> TraceLog {
        let sink = TraceSink::new(true);
        let mut src = sink.recorder(ThreadLabel::Source);
        let mut ctl = sink.recorder(ThreadLabel::Controller);
        let mut w0 = sink.recorder(ThreadLabel::Worker(0));
        src.interval_end(0, 1000);
        w0.count_batch(1000);
        w0.close_interval(0);
        ctl.span_open(1, OpLabel::ScaleOut);
        for phase in [Phase::Plan, Phase::Pause, Phase::Install, Phase::Resume] {
            ctl.span_phase(1, phase);
        }
        ctl.span_close(1, Outcome::Completed);
        ctl.snapshot(0, vec![600, 400], vec![2, 1], 12.5, f64::NAN);
        src.router_snapshot(0, 12, 2);
        ctl.fault(0, "injected kill: worker \"1\"\nat once");
        src.skew_alert(1, vec![90, 310]);
        ctl.early_round(1, EarlyStep::Open);
        let split = EarlySplit {
            key: 7,
            share: 0.625,
            rescale: 8.0,
            replicas: 2,
            loads: vec![90, 310],
            planned: true,
        };
        ctl.early_split(1, split);
        src.interval_end(1, 400);
        ctl.mark("teardown");
        drop((src, ctl, w0));
        // Thread by thread, each in recording order, 10 µs apart.
        let mut log = sink.take_log();
        log.events.sort_by_key(|e| (e.thread.tid(), e.seq));
        for (e, at_us) in log.events.iter_mut().zip((10..).step_by(10)) {
            e.at_us = at_us;
        }
        log
    }

    const SAMPLE_JSONL: &str = r#"{"at_us":10,"seq":0,"thread":"source","kind":"interval_end","interval":0,"tuples":1000}
{"at_us":20,"seq":1,"thread":"source","kind":"router_snapshot","interval":0,"table_entries":12,"table_tombstones":2}
{"at_us":30,"seq":2,"thread":"source","kind":"skew_alert","interval":1,"sent":[90,310]}
{"at_us":40,"seq":3,"thread":"source","kind":"interval_end","interval":1,"tuples":400}
{"at_us":50,"seq":0,"thread":"controller","kind":"span_open","span":1,"op":"scale_out"}
{"at_us":60,"seq":1,"thread":"controller","kind":"span_phase","span":1,"phase":"plan"}
{"at_us":70,"seq":2,"thread":"controller","kind":"span_phase","span":1,"phase":"pause"}
{"at_us":80,"seq":3,"thread":"controller","kind":"span_phase","span":1,"phase":"install"}
{"at_us":90,"seq":4,"thread":"controller","kind":"span_phase","span":1,"phase":"resume"}
{"at_us":100,"seq":5,"thread":"controller","kind":"span_close","span":1,"outcome":"completed"}
{"at_us":110,"seq":6,"thread":"controller","kind":"snapshot","interval":0,"loads":[600,400],"queues":[2,1],"mean_latency_us":12.5,"p99_latency_us":null}
{"at_us":120,"seq":7,"thread":"controller","kind":"early_round","interval":1,"step":"open"}
{"at_us":130,"seq":8,"thread":"controller","kind":"early_round","interval":1,"step":"split","key":7,"share":0.625,"rescale":8,"replicas":2,"loads":[90,310],"planned":true}
{"at_us":140,"seq":9,"thread":"controller","kind":"mark","label":"teardown"}
{"at_us":150,"seq":0,"thread":"fault","kind":"fault","detail":"injected kill: worker \"1\"\nat once"}
{"at_us":160,"seq":0,"thread":"worker:0","kind":"data_flush","interval":0,"tuples":1000,"batches":1}
"#;

    const SAMPLE_CHROME: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"source"}},
{"ph":"C","name":"interval_tuples","ts":10,"pid":1,"args":{"tuples":1000,"interval":0}},
{"ph":"C","name":"router","ts":20,"pid":1,"args":{"entries":12,"tombstones":2}},
{"ph":"i","s":"t","cat":"early","name":"skew_alert#1","ts":30,"pid":1,"tid":0},
{"ph":"C","name":"interval_tuples","ts":40,"pid":1,"args":{"tuples":400,"interval":1}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"controller"}},
{"ph":"b","cat":"protocol","id":1,"name":"scale_out","ts":50,"pid":1,"tid":1},
{"ph":"i","s":"p","cat":"protocol","name":"plan#1","ts":60,"pid":1,"tid":1},
{"ph":"i","s":"p","cat":"protocol","name":"pause#1","ts":70,"pid":1,"tid":1},
{"ph":"i","s":"p","cat":"protocol","name":"install#1","ts":80,"pid":1,"tid":1},
{"ph":"i","s":"p","cat":"protocol","name":"resume#1","ts":90,"pid":1,"tid":1},
{"ph":"e","cat":"protocol","id":1,"name":"span","ts":100,"pid":1,"tid":1,"args":{"outcome":"completed"}},
{"ph":"C","name":"load","ts":110,"pid":1,"args":{"w0":600,"w1":400}},
{"ph":"C","name":"queue","ts":110,"pid":1,"args":{"w0":2,"w1":1}},
{"ph":"C","name":"p99_latency_us","ts":110,"pid":1,"args":{"p99":null}},
{"ph":"i","s":"t","cat":"early","name":"early_round#1 open","ts":120,"pid":1,"tid":1},
{"ph":"i","s":"t","cat":"early","name":"early_round#1 split","ts":130,"pid":1,"tid":1},
{"ph":"i","s":"g","cat":"mark","name":"teardown","ts":140,"pid":1,"tid":1},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"fault"}},
{"ph":"i","s":"g","cat":"fault","name":"injected kill: worker \"1\"\nat once","ts":150,"pid":1,"tid":3},
{"ph":"M","pid":1,"tid":10,"name":"thread_name","args":{"name":"worker:0"}},
{"ph":"i","s":"t","cat":"data","name":"flush#0","ts":160,"pid":1,"tid":10,"args":{"tuples":1000,"batches":1}}
]}
"#;

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        // As text: the `null` a NaN latency writes reads back as NaN,
        // which no `==` on the log accepts.
        let parsed = from_jsonl(SAMPLE_JSONL).expect("round trip");
        assert_eq!(to_jsonl(&parsed), SAMPLE_JSONL);
        assert_eq!(to_chrome_json(&parsed), SAMPLE_CHROME);
    }

    #[test]
    fn committed_traces_re_encode_byte_for_byte() {
        let dir = crate::figure::traces_dir();
        for name in ["chaos_kill", "chaos_rollback", "split"] {
            let read = |ext: &str| {
                let path = dir.join(format!("{name}.trace.{ext}"));
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            };
            let jsonl = read("jsonl");
            let log = from_jsonl(&jsonl).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert!(!log.events.is_empty(), "{name}");
            assert!(
                to_jsonl(&log) == jsonl,
                "{name}.trace.jsonl re-encodes differently"
            );
            assert!(
                to_chrome_json(&log) == read("json"),
                "{name}.trace.json differs"
            );
        }
    }

    #[test]
    fn jsonl_lines_carry_the_schema() {
        assert_eq!(to_jsonl(&sample_log()), SAMPLE_JSONL);
    }

    #[test]
    fn chrome_export_pairs_span_begin_end() {
        assert_eq!(to_chrome_json(&sample_log()), SAMPLE_CHROME);
        assert_eq!(
            to_chrome_json(&TraceLog::default()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
        );
    }

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(decode_line("not json").is_err());
        // Wrong types and unknown enum values all name their field.
        let e = decode_line(r#"{"at_us":"x","seq":0,"thread":"source","kind":"mark","label":"a"}"#)
            .unwrap_err();
        assert!(e.contains("at_us"), "{e}");
        let e = decode_line(r#"{"at_us":1,"seq":0,"thread":"nobody","kind":"mark","label":"a"}"#)
            .unwrap_err();
        assert!(e.contains("nobody"), "{e}");
        let e = decode_line(r#"{"at_us":1,"seq":0,"thread":"source","kind":"wat"}"#).unwrap_err();
        assert!(e.contains("wat"), "{e}");
        let e = decode_line(
            r#"{"at_us":1,"seq":0,"thread":"controller","kind":"span_open","span":1,"op":"x"}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown op"), "{e}");
    }

    #[test]
    fn from_jsonl_reports_all_bad_lines_with_numbers() {
        let text = "garbage\n\n{\"at_us\":1,\"seq\":0,\"thread\":\"source\",\
                    \"kind\":\"mark\",\"label\":\"ok\"}\nmore garbage\n";
        let problems = from_jsonl(text).unwrap_err();
        assert_eq!(problems.len(), 2);
        assert!(problems[0].starts_with("line 1:"), "{}", problems[0]);
        assert!(problems[1].starts_with("line 4:"), "{}", problems[1]);
    }
}
