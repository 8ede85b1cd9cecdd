//! Probe transparency: the probes forward *every* trait method —
//! defaulted ones included — and an engine run behaves identically
//! with and without them.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use streambal_benchmark::probes::{
    Clock, ControllerLog, MergeLog, ProbeCollector, ProbeOp, ProbePartitioner, ProbeSplitPolicy,
    Release, WorkerLog,
};
use streambal_benchmark::run::engine_run;
use streambal_benchmark::workloads::{by_name, generate, Workload};
use streambal_core::{IntervalStats, Key, Partitioner, RebalanceOutcome, RoutingView, TaskId};
use streambal_elastic::{SplitDecision, SplitObservation, SplitPolicy};
use streambal_runtime::{Collector, EngineReport, Operator, Tuple};

type Calls = Arc<Mutex<Vec<&'static str>>>;

fn note(calls: &Calls, name: &'static str) {
    calls.lock().unwrap().push(name);
}

/// Overrides every `Partitioner` method, defaults included, with a
/// recognisable answer.
struct FakePartitioner(Calls);

impl Partitioner for FakePartitioner {
    fn name(&self) -> String {
        note(&self.0, "name");
        "fake".into()
    }
    fn n_tasks(&self) -> usize {
        note(&self.0, "n_tasks");
        7
    }
    fn route(&mut self, _key: Key) -> TaskId {
        note(&self.0, "route");
        TaskId(3)
    }
    fn route_batch(&mut self, keys: &[Key], out: &mut Vec<TaskId>) {
        note(&self.0, "route_batch");
        out.clear();
        out.extend(keys.iter().map(|_| TaskId(5)));
    }
    fn end_interval(&mut self, _stats: IntervalStats) -> Option<RebalanceOutcome> {
        note(&self.0, "end_interval");
        None
    }
    fn add_task(&mut self) -> TaskId {
        note(&self.0, "add_task");
        TaskId(11)
    }
    fn scale_out(&mut self, _live: &[Key]) -> TaskId {
        note(&self.0, "scale_out");
        TaskId(12)
    }
    fn scale_out_plan(&mut self, _live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        note(&self.0, "scale_out_plan");
        (TaskId(13), vec![(Key(1), TaskId(0))])
    }
    fn scale_in(&mut self, _victim: TaskId, _live: &[Key]) {
        note(&self.0, "scale_in");
    }
    fn routing_view(&self) -> RoutingView {
        note(&self.0, "routing_view");
        RoutingView::RoundRobin { n_tasks: 9 }
    }
    fn last_install_was_delta(&self) -> bool {
        note(&self.0, "last_install_was_delta");
        true
    }
    fn preserves_key_semantics(&self) -> bool {
        note(&self.0, "preserves_key_semantics");
        false
    }
    fn reroute_dead(
        &mut self,
        _dead: TaskId,
        _is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        note(&self.0, "reroute_dead");
        vec![(Key(2), TaskId(1))]
    }
    fn apply_moves(&mut self, _moves: &[(Key, TaskId)]) -> bool {
        note(&self.0, "apply_moves");
        true
    }
    fn split_key(&mut self, _key: Key, _replicas: &[TaskId]) -> bool {
        note(&self.0, "split_key");
        true
    }
    fn unsplit_key(&mut self, _key: Key) -> Option<Vec<TaskId>> {
        note(&self.0, "unsplit_key");
        Some(vec![TaskId(0), TaskId(2)])
    }
    fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
        note(&self.0, "splits");
        vec![(Key(4), vec![TaskId(0), TaskId(1)])]
    }
}

#[test]
fn partitioner_probe_forwards_every_method() {
    let calls = Calls::default();
    let log = Arc::new(Mutex::new(ControllerLog::default()));
    let mut p = ProbePartitioner::new(
        Box::new(FakePartitioner(Arc::clone(&calls))),
        Clock::start(),
        false,
        Arc::clone(&log),
    );
    assert_eq!(p.name(), "fake");
    assert_eq!(p.n_tasks(), 7);
    assert_eq!(p.route(Key(1)), TaskId(3));
    let mut out = Vec::new();
    p.route_batch(&[Key(1), Key(2)], &mut out);
    assert_eq!(out, vec![TaskId(5), TaskId(5)]);
    assert!(p.end_interval(IntervalStats::new()).is_none());
    assert_eq!(p.add_task(), TaskId(11));
    assert_eq!(p.scale_out(&[]), TaskId(12));
    assert_eq!(
        p.scale_out_plan(&[]),
        (TaskId(13), vec![(Key(1), TaskId(0))])
    );
    p.scale_in(TaskId(6), &[]);
    assert!(matches!(
        p.routing_view(),
        RoutingView::RoundRobin { n_tasks: 9 }
    ));
    assert!(p.last_install_was_delta());
    assert!(!p.preserves_key_semantics());
    assert_eq!(
        p.reroute_dead(TaskId(1), &|_| false),
        vec![(Key(2), TaskId(1))]
    );
    assert!(p.apply_moves(&[]));
    assert!(p.split_key(Key(4), &[TaskId(0), TaskId(1)]));
    assert_eq!(p.unsplit_key(Key(4)), Some(vec![TaskId(0), TaskId(2)]));
    assert_eq!(p.splits(), vec![(Key(4), vec![TaskId(0), TaskId(1)])]);
    assert_eq!(
        *calls.lock().unwrap(),
        vec![
            "name",
            "n_tasks",
            "route",
            "route_batch",
            "end_interval",
            "add_task",
            "scale_out",
            "scale_out_plan",
            "scale_in",
            "routing_view",
            "last_install_was_delta",
            "preserves_key_semantics",
            "reroute_dead",
            "apply_moves",
            "split_key",
            "unsplit_key",
            "splits",
        ]
    );
    // The one thing the probe adds: a record per end_interval.
    assert_eq!(log.lock().unwrap().plans.len(), 1);
}

struct FakeOp(Calls);

impl Operator for FakeOp {
    fn process(&mut self, _t: &Tuple, _interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64 {
        note(&self.0, "process");
        emit(Tuple::keyed(Key(99)));
        17
    }
    fn state_size(&self, _key: Key) -> u64 {
        note(&self.0, "state_size");
        23
    }
    fn extract(&mut self, _key: Key) -> Option<Bytes> {
        note(&self.0, "extract");
        Some(Bytes::copy_from_slice(b"blob"))
    }
    fn install(&mut self, _key: Key, _blob: Bytes) {
        note(&self.0, "install");
    }
    fn evict_before(&mut self, _oldest_keep: u64) {
        note(&self.0, "evict_before");
    }
    fn flush(&mut self, emit: &mut dyn FnMut(Tuple)) {
        note(&self.0, "flush");
        emit(Tuple::keyed(Key(98)));
    }
    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        note(&self.0, "drain");
        vec![(Key(1), Bytes::copy_from_slice(b"abc"))]
    }
    fn held_counts(&self) -> Vec<(Key, u64)> {
        note(&self.0, "held_counts");
        vec![(Key(1), 5)]
    }
    fn tuples_in_blob(&self, _blob: &Bytes) -> u64 {
        note(&self.0, "tuples_in_blob");
        29
    }
}

#[test]
fn operator_probe_forwards_every_method() {
    let calls = Calls::default();
    let out = Arc::new(Mutex::new(Vec::<WorkerLog>::new()));
    let mut emitted = Vec::new();
    {
        let mut op = ProbeOp::new(
            FakeOp(Arc::clone(&calls)),
            2,
            8,
            0,
            Clock::start(),
            true,
            Arc::clone(&out),
        );
        // 64 tuples cross one sampling tick: the slow path forwards too.
        for i in 0..64u64 {
            assert_eq!(
                op.process(&Tuple::keyed(Key(i % 8)), 0, &mut |t| emitted.push(t)),
                17
            );
        }
        assert_eq!(op.state_size(Key(1)), 23);
        assert_eq!(op.extract(Key(1)), Some(Bytes::copy_from_slice(b"blob")));
        op.install(Key(1), Bytes::new());
        op.evict_before(3);
        op.flush(&mut |t| emitted.push(t));
        assert_eq!(op.drain(), vec![(Key(1), Bytes::copy_from_slice(b"abc"))]);
        assert_eq!(op.held_counts(), vec![(Key(1), 5)]);
        assert_eq!(op.tuples_in_blob(&Bytes::new()), 29);
    }
    let calls = calls.lock().unwrap();
    assert_eq!(calls.iter().filter(|&&c| c == "process").count(), 64);
    assert_eq!(
        calls[64..],
        [
            "state_size",
            "extract",
            "install",
            "evict_before",
            "flush",
            "drain",
            "held_counts",
            "tuples_in_blob"
        ]
    );
    assert_eq!(emitted.len(), 65, "every inner emission passes through");
    // Dropping the probe published what it saw.
    let logs = out.lock().unwrap();
    assert_eq!(logs.len(), 1);
    assert_eq!(logs[0].worker, 2);
    assert_eq!(logs[0].counts, vec![8; 8]);
    assert_eq!(logs[0].per_interval, vec![64]);
    assert_eq!(logs[0].lat.len(), 1);
    assert_eq!((logs[0].state_keys_end, logs[0].state_bytes_end), (1, 3));
}

struct FakeCollector(Calls);

impl Collector for FakeCollector {
    fn collect(&mut self, _tuple: &Tuple) {
        note(&self.0, "collect");
    }
    fn result(&mut self) -> Vec<(u64, u64)> {
        note(&self.0, "result");
        vec![(1, 2)]
    }
}

#[derive(Debug)]
struct FakeSplit(Calls);

impl SplitPolicy for FakeSplit {
    fn name(&self) -> String {
        note(&self.0, "name");
        "fake-split".into()
    }
    fn decide(&mut self, _obs: &SplitObservation) -> SplitDecision {
        note(&self.0, "decide");
        SplitDecision::Split {
            key: 7,
            replicas: 3,
        }
    }
    fn box_clone(&self) -> Box<dyn SplitPolicy> {
        note(&self.0, "box_clone");
        Box::new(FakeSplit(Arc::clone(&self.0)))
    }
}

#[test]
fn collector_and_split_probes_forward_every_method() {
    let calls = Calls::default();
    let merge = Arc::new(Mutex::new(MergeLog::default()));
    let mut c = ProbeCollector::new(
        FakeCollector(Arc::clone(&calls)),
        Clock::start(),
        true,
        Arc::clone(&merge),
    );
    c.collect(&Tuple::keyed(Key(1)));
    c.collect(&Tuple::keyed(Key(2)));
    assert_eq!(c.result(), vec![(1, 2)]);
    assert_eq!(merge.lock().unwrap().tuples, 2);

    let log = Arc::new(Mutex::new(ControllerLog::default()));
    let mut s = ProbeSplitPolicy::new(
        Box::new(FakeSplit(Arc::clone(&calls))),
        Clock::start(),
        Arc::clone(&log),
    );
    assert_eq!(s.name(), "fake-split");
    let obs = SplitObservation {
        interval: 4,
        n_tasks: 4,
        key_loads: &[],
        split_keys: &[],
    };
    let mut clone = s.box_clone();
    for policy in [&mut s as &mut dyn SplitPolicy, clone.as_mut()] {
        assert!(matches!(
            policy.decide(&obs),
            SplitDecision::Split {
                key: 7,
                replicas: 3
            }
        ));
    }
    assert_eq!(
        *calls.lock().unwrap(),
        [
            "collect",
            "collect",
            "result",
            "name",
            "box_clone",
            "decide",
            "decide"
        ]
    );
    // The clone shares the original's log.
    let log = log.lock().unwrap();
    assert_eq!(log.splits.len(), 2);
    assert_eq!(log.splits[0].replicas, Some(3));
}

/// `burst` scaled down 7.5× and unpaced: the dominant key still
/// crosses the (equally scaled) split watermark.
fn small_burst() -> Workload {
    Workload {
        open_rate: 40_000,
        split_capacity: Some(25_000.0 / 7.5),
        ..*by_name("burst").unwrap()
    }
}

/// A seeded unpaced `burst` run with and without probes agrees on
/// everything the engine itself reproduces from run to run.
///
/// Intervals are released 50 ms apart so each one's statistics round and
/// protocol ops finish before the next arrives (a free-running unpaced
/// source outruns the in-band stats markers and blurs the rounds).
/// Even so the *number* of rebalances is not reproducible on this
/// engine, probes or not — worker reports merge in arrival order and
/// the planner breaks ties by that order — so `rebalances` and the
/// span lines of the skeleton are compared within the run-to-run range
/// of bare runs, and everything else exactly.
#[test]
fn engine_run_is_identical_with_and_without_probes() {
    let w = small_burst();
    let n = 32;
    let inputs = Arc::new(generate(&w, 11, n));
    let release = Release::Open {
        period_ns: 50_000_000,
    };
    let run = |probes: bool| {
        let clock = Clock::start();
        engine_run(
            &w,
            &inputs,
            n,
            release,
            probes,
            probes,
            0,
            clock,
            Duration::from_secs(120),
        )
        .0
    };
    let structure = |r: &EngineReport| -> Vec<String> {
        let mut lines = r.trace.skeleton();
        lines.retain(|l| !l.starts_with("span "));
        lines
    };
    let (bare, probed) = (run(false), run(true));
    assert_eq!(
        bare.split_events
            .iter()
            .map(|e| (e.from, e.to))
            .collect::<Vec<_>>(),
        [(1, 4), (4, 1)],
        "the smoke must split the dominant key and consolidate it again"
    );
    assert_eq!(bare.processed, probed.processed);
    assert_eq!(bare.split_events, probed.split_events);
    assert_eq!(bare.final_states, probed.final_states);
    assert_eq!(bare.collector_result, probed.collector_result);
    assert_eq!(structure(&bare), structure(&probed));
    assert!(bare.rebalances > 0 && probed.rebalances > 0);
    assert!(
        bare.rebalances.abs_diff(probed.rebalances) <= 2,
        "rebalances: bare {} vs probed {}",
        bare.rebalances,
        probed.rebalances
    );
    for r in [&bare, &probed] {
        assert!(r.protocol_errors.is_empty() && r.faults.is_empty() && r.lost_tuples.is_empty());
        assert!(r.trace.check_integrity().is_empty());
    }
}

/// `drift` inputs depend on the seed alone: generating them again
/// after the partitioner under test has rebalanced over them changes
/// nothing.
#[test]
fn drift_inputs_are_independent_of_the_partitioner() {
    let w = Workload {
        open_rate: 40_000,
        ..*by_name("drift").unwrap()
    };
    let n = 12;
    let before = generate(&w, 5, n);
    let inputs = Arc::new(generate(&w, 5, n));
    let (report, _) = engine_run(
        &w,
        &inputs,
        n,
        Release::Closed,
        false,
        true,
        0,
        Clock::start(),
        Duration::from_secs(120),
    );
    assert!(report.rebalances > 0, "the partitioner must have acted");
    let after = generate(&w, 5, n);
    assert_eq!(before.hash, after.hash);
    assert_eq!(before.intervals, after.intervals);
}
