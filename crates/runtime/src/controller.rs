//! Controller-side accounting, factored out of the engine loop so its
//! edge cases are unit-testable without spinning up threads: the
//! statistics-round ledger (which must survive late and duplicate worker
//! reports — a retiring worker can answer a round the controller already
//! closed) and the worker-seconds integral (which must bill queued
//! scale-ins exactly once per parallelism change).

use std::collections::BTreeSet;
use std::time::Instant;

use streambal_core::{IntervalStats, TaskId};
use streambal_hashring::{FxHashMap, FxHashSet};
use streambal_metrics::Histogram;

/// One open statistics round: merged stats, per-slot loads, queue-depth
/// samples, the interval's latency distribution, and which workers have
/// reported. The expected *set* is pinned at issue time — scale-out must
/// not retroactively change which workers a round waits for — but it can
/// shrink: a reporter that dies mid-round is struck off
/// ([`StatsLedger::on_worker_dead`]), and a round that outlives its
/// deadline closes with whoever answered
/// ([`StatsLedger::expire_rounds`]), so a dead or wedged worker cannot
/// hold statistics — or shutdown, which waits on open rounds — hostage.
struct StatsRound {
    merged: IntervalStats,
    loads: Vec<u64>,
    queues: Vec<u64>,
    latency: Histogram,
    reporters: FxHashSet<TaskId>,
    expected: FxHashSet<TaskId>,
    /// When the round was issued (wall half of the expiry deadline).
    opened: Instant,
}

impl StatsRound {
    fn is_complete(&self) -> bool {
        self.expected.iter().all(|w| self.reporters.contains(w))
    }

    fn close(self) -> ClosedRound {
        ClosedRound {
            merged: self.merged,
            loads: self.loads,
            queues: self.queues,
            mean_latency_us: self.latency.mean(),
            p99_latency_us: self.latency.quantile(0.99) as f64,
        }
    }
}

/// Everything a completed round hands the elasticity policy, the
/// partitioner, and the flight recorder's per-interval `Snapshot`
/// event: the merged stats, the per-slot load vector, the queue
/// depths sampled when the round was issued, and the interval latency
/// summary.
pub(crate) struct ClosedRound {
    pub merged: IntervalStats,
    pub loads: Vec<u64>,
    pub queues: Vec<u64>,
    pub mean_latency_us: f64,
    pub p99_latency_us: f64,
}

/// The controller's statistics-round ledger.
///
/// Robustness contract (the seed crashed on both): a report for a round
/// the ledger does not know — late (the round already closed without the
/// retiring reporter) or simply unknown — **degrades gracefully**: its
/// load folds into the oldest open round, or into the carry buffer
/// consumed by the next round, so totals never under-count; and a
/// *duplicate* report from a worker that already answered merges its
/// load without advancing the round's completion count, so a round can
/// neither close early nor leak.
pub(crate) struct StatsLedger {
    rounds: FxHashMap<u64, StatsRound>,
    /// Residual statistics with no open round to absorb them — folded
    /// into the next round issued.
    carry: IntervalStats,
    /// Keys in the round closed last: the next round's merge map is
    /// sized for as many, so merging never rehashes it from empty.
    last_round_keys: usize,
}

impl StatsLedger {
    pub fn new() -> Self {
        StatsLedger {
            rounds: FxHashMap::default(),
            carry: IntervalStats::new(),
            last_round_keys: 0,
        }
    }

    /// Rounds still waiting for reports.
    pub fn outstanding(&self) -> usize {
        self.rounds.len()
    }

    /// Opens the round for `interval`, expecting a report from each
    /// worker in `expected`, over `active` worker slots, with `queues`
    /// the per-slot queue depths sampled at interval close. Any carried
    /// residue is folded in (the slot attribution is gone with the
    /// retired slot; totals are what policies consume).
    pub fn open(&mut self, interval: u64, active: usize, expected: Vec<TaskId>, queues: Vec<u64>) {
        debug_assert!(!expected.is_empty() && active > 0);
        let mut round = StatsRound {
            merged: IntervalStats::with_capacity(self.last_round_keys),
            loads: vec![0; active],
            queues,
            latency: Histogram::new(),
            reporters: FxHashSet::default(),
            expected: expected.into_iter().collect(),
            opened: Instant::now(),
        };
        if !self.carry.is_empty() {
            round.loads[active - 1] += self.carry.iter().map(|(_, s)| s.cost).sum::<u64>();
            round.merged.merge(&self.carry);
            self.carry = IntervalStats::new();
        }
        self.rounds.insert(interval, round);
    }

    /// Strikes a dead worker off every open round's expected set and
    /// closes the rounds that were only waiting on it, oldest first.
    /// Its already-merged contributions stay — the load was real.
    pub fn on_worker_dead(&mut self, worker: TaskId) -> Vec<(u64, ClosedRound)> {
        for round in self.rounds.values_mut() {
            round.expected.remove(&worker);
        }
        self.drain_complete()
    }

    /// Closes rounds past their deadline — `deadline_intervals` newer
    /// intervals have been issued (the deterministic clock) *and*
    /// `deadline` wall time has passed since the round opened — with
    /// whoever answered. Returns `(interval, round, missing reporters)`
    /// oldest first; the caller records the missing set in the fault
    /// ledger. A silent-but-subscribed worker thus delays statistics by
    /// a bounded amount instead of wedging shutdown.
    pub fn expire_rounds(
        &mut self,
        current_interval: u64,
        deadline_intervals: u64,
        deadline: std::time::Duration,
    ) -> Vec<(u64, ClosedRound, Vec<usize>)> {
        let now = Instant::now();
        let mut expired: Vec<u64> = self
            .rounds
            .iter()
            .filter(|(iv, round)| {
                current_interval.saturating_sub(**iv) >= deadline_intervals
                    && now.duration_since(round.opened) >= deadline
            })
            .map(|(iv, _)| *iv)
            .collect();
        expired.sort_unstable();
        expired
            .into_iter()
            .filter_map(|iv| {
                let round = self.take_round(iv)?;
                let mut missing: Vec<usize> = round
                    .expected
                    .difference(&round.reporters)
                    .map(|w| w.index())
                    .collect();
                missing.sort_unstable();
                Some((iv, round.close(), missing))
            })
            .collect()
    }

    /// Removes a round for closing, noting its size for the next one.
    fn take_round(&mut self, interval: u64) -> Option<StatsRound> {
        let round = self.rounds.remove(&interval)?;
        self.last_round_keys = round.merged.len();
        Some(round)
    }

    /// Removes and returns every complete round, oldest first.
    fn drain_complete(&mut self) -> Vec<(u64, ClosedRound)> {
        let mut done: Vec<u64> = self
            .rounds
            .iter()
            .filter(|(_, r)| r.is_complete())
            .map(|(iv, _)| *iv)
            .collect();
        done.sort_unstable();
        done.into_iter()
            .filter_map(|iv| Some((iv, self.take_round(iv)?.close())))
            .collect()
    }

    /// Ingests one worker report. Returns the completed round when this
    /// report was the last one still expected.
    pub fn on_stats(
        &mut self,
        worker: TaskId,
        interval: u64,
        stats: IntervalStats,
        latency: &Histogram,
    ) -> Option<ClosedRound> {
        let Some(round) = self.rounds.get_mut(&interval) else {
            // Late or unknown round: never crash the controller — the
            // load is real traffic, so absorb it where the next decision
            // will see it.
            self.absorb(worker, &stats);
            return None;
        };
        let slot = worker.index().min(round.loads.len() - 1);
        round.loads[slot] += stats.iter().map(|(_, s)| s.cost).sum::<u64>();
        round.merged.merge(&stats);
        round.latency.merge(latency);
        // A duplicate reporter merges (discarding would under-count) but
        // must not advance completion, or the round would close while a
        // distinct worker's report is still in flight.
        if round.reporters.insert(worker) && round.is_complete() {
            return self.take_round(interval).map(StatsRound::close);
        }
        None
    }

    /// Folds a retired victim's unreported residue into the oldest open
    /// round (issued while the victim was alive, so its slot exists), or
    /// carries it for the next round — dropping it would read as a load
    /// dip and re-trigger the scale-in policy.
    pub fn on_residue(&mut self, worker: TaskId, stats: &IntervalStats) {
        if !stats.is_empty() {
            self.absorb(worker, stats);
        }
    }

    fn absorb(&mut self, worker: TaskId, stats: &IntervalStats) {
        if let Some((_, round)) = self.rounds.iter_mut().min_by_key(|(k, _)| **k) {
            let slot = worker.index().min(round.loads.len() - 1);
            round.loads[slot] += stats.iter().map(|(_, s)| s.cost).sum::<u64>();
            round.merged.merge(stats);
        } else {
            self.carry.merge(stats);
        }
    }
}

/// Epochs whose op finished, aborted, or was synthesized for a re-home
/// or rollback install: a late echo of one (a retried op's duplicate
/// ack, a zombie victim's `Retired`) is absorbed as stale instead of
/// counted as a protocol error.
///
/// Epochs are issued in increasing order and ops run one at a time, so
/// the closed set is a growing prefix plus a few stragglers around the
/// op in flight: a watermark covers the prefix and a bounded set the
/// rest, which keeps the ledger at constant size however long the run.
/// Every caller matches the in-flight op's own epoch first, so an epoch
/// below the watermark can only be an echo.
pub(crate) struct ClosedEpochs {
    /// Every epoch below this is closed.
    below: u64,
    /// Closed epochs at or above `below`; at most [`Self::RECENT`].
    recent: BTreeSet<u64>,
}

impl ClosedEpochs {
    /// How many closed epochs are remembered individually.
    const RECENT: usize = 64;

    pub fn new() -> Self {
        ClosedEpochs {
            below: 0,
            recent: BTreeSet::new(),
        }
    }

    /// Records `epoch` as closed.
    pub fn close(&mut self, epoch: u64) {
        if epoch >= self.below {
            self.recent.insert(epoch);
        }
        while self.recent.len() > Self::RECENT {
            if let Some(oldest) = self.recent.pop_first() {
                self.below = oldest + 1;
            }
        }
    }

    /// Whether a message stamped `epoch` is an echo of a closed op.
    pub fn contains(&self, epoch: u64) -> bool {
        epoch < self.below || self.recent.contains(&epoch)
    }
}

/// The worker-seconds integral `∫ active(t) dt` — the provisioning cost
/// an elastic policy saves against a static peak-sized deployment.
///
/// One accumulation rule at every parallelism change: bill the *old*
/// parallelism for the span since the last change, then advance the
/// mark. Queued scale-ins thus bill each victim until its own retirement
/// completes (it is processing its backlog the whole time), not until
/// the decision that doomed it.
pub(crate) struct WorkerSeconds {
    mark: Instant,
    active: usize,
    total: f64,
}

impl WorkerSeconds {
    pub fn new(start: Instant, active: usize) -> Self {
        WorkerSeconds {
            mark: start,
            active,
            total: 0.0,
        }
    }

    /// Records a parallelism change at `now`.
    pub fn set_active(&mut self, now: Instant, active: usize) {
        self.total += self.active as f64 * now.duration_since(self.mark).as_secs_f64();
        self.mark = now;
        self.active = active;
    }

    /// Closes the integral at `now` and returns it.
    pub fn finish(mut self, now: Instant) -> f64 {
        self.set_active(now, 0);
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A run of any length leaves the closed-epoch ledger at constant
    /// size, and an echo of any closed epoch — however old — is still
    /// recognised (absorbed as stale, never a `StrayPauseAck`).
    #[test]
    fn closed_epochs_stay_bounded_and_absorb_late_echoes() {
        let mut closed = ClosedEpochs::new();
        assert!(!closed.contains(0) && !closed.contains(1));
        // Epoch 7 is the op in flight while its neighbours close.
        for epoch in (1..=100_000u64).filter(|&e| e != 7) {
            closed.close(epoch);
            assert!(closed.recent.len() <= ClosedEpochs::RECENT);
        }
        for echo in [1, 6, 8, 50_000, 99_936, 99_937, 100_000] {
            assert!(closed.contains(echo), "epoch {echo} closed");
        }
        assert!(!closed.contains(100_001), "never issued");
        // A straggler below the watermark adds nothing.
        closed.close(7);
        assert_eq!(closed.recent.len(), ClosedEpochs::RECENT);
        assert!(closed.contains(7));
    }

    /// While few epochs have closed, one skipped in between (the op in
    /// flight) is not mistaken for closed.
    #[test]
    fn closed_epochs_keep_the_in_flight_epoch_open() {
        let mut closed = ClosedEpochs::new();
        for epoch in [1, 2, 4, 5] {
            closed.close(epoch);
        }
        assert!(!closed.contains(3));
        assert!(!closed.contains(6));
        closed.close(3);
        assert!(closed.contains(3));
    }
    use streambal_core::Key;

    fn stats_with_cost(key: u64, cost: u64) -> IntervalStats {
        let mut s = IntervalStats::new();
        s.observe(Key(key), 1, cost, 1);
        s
    }

    fn expect_n(n: usize) -> Vec<TaskId> {
        (0..n).map(TaskId::from).collect()
    }

    fn close_all_but(ledger: &mut StatsLedger, interval: u64, workers: &[usize]) {
        for &w in workers {
            assert!(ledger
                .on_stats(
                    TaskId::from(w),
                    interval,
                    stats_with_cost(w as u64, 10),
                    &Histogram::new(),
                )
                .is_none());
        }
    }

    #[test]
    fn round_closes_when_all_expected_report() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 3, expect_n(3), vec![5, 0, 2]);
        close_all_but(&mut ledger, 0, &[0, 1]);
        let closed = ledger
            .on_stats(TaskId(2), 0, stats_with_cost(2, 30), &Histogram::new())
            .expect("third report closes");
        assert_eq!(closed.loads, vec![10, 10, 30]);
        assert_eq!(closed.queues, vec![5, 0, 2]);
        assert_eq!(ledger.outstanding(), 0);
    }

    /// The seed's first panic path: a report for a round the ledger
    /// already closed (a retiring worker answering late) must fold into
    /// an open round instead of crashing.
    #[test]
    fn late_report_folds_into_oldest_open_round() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        assert!(ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .is_some());
        // Round 0 is gone. Rounds 1 and 2 are open; a late report for
        // round 0 lands in round 1 (the oldest), clamped to its slots.
        ledger.open(1, 2, expect_n(2), vec![0, 0]);
        ledger.open(2, 2, expect_n(2), vec![0, 0]);
        assert!(ledger
            .on_stats(TaskId(7), 0, stats_with_cost(9, 55), &Histogram::new())
            .is_none());
        close_all_but(&mut ledger, 1, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("round 1 closes");
        assert_eq!(closed.loads, vec![10, 65], "late load folded, clamped");
        assert_eq!(ledger.outstanding(), 1);
    }

    /// With no round open at all, a late report carries into the next
    /// round issued — the retired-victim residue path.
    #[test]
    fn late_report_with_no_open_round_carries_forward() {
        let mut ledger = StatsLedger::new();
        assert!(ledger
            .on_stats(TaskId(3), 9, stats_with_cost(4, 40), &Histogram::new())
            .is_none());
        ledger.open(10, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 10, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 10, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 50], "carry lands on the tail slot");
    }

    /// The seed's second hazard: a duplicate report must not close a
    /// round early (a distinct worker's report is still in flight) and
    /// must not lose the duplicated load.
    #[test]
    fn duplicate_report_merges_without_advancing_completion() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 3, expect_n(3), vec![0, 0, 0]);
        close_all_but(&mut ledger, 0, &[0, 1]);
        // Worker 1 reports again: still waiting on worker 2.
        assert!(ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 7), &Histogram::new())
            .is_none());
        let closed = ledger
            .on_stats(TaskId(2), 0, stats_with_cost(2, 10), &Histogram::new())
            .expect("real third report closes");
        assert_eq!(closed.loads, vec![10, 17, 10]);
    }

    #[test]
    fn residue_folds_into_oldest_round_or_carry() {
        let mut ledger = StatsLedger::new();
        // No round open: residue carries into the next open().
        ledger.on_residue(TaskId(2), &stats_with_cost(5, 21));
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 31]);
        // Round open: residue folds straight in, slot clamped.
        ledger.open(1, 2, expect_n(2), vec![0, 0]);
        ledger.on_residue(TaskId(6), &stats_with_cost(5, 9));
        close_all_but(&mut ledger, 1, &[0]);
        let closed = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("closes");
        assert_eq!(closed.loads, vec![10, 19]);
    }

    #[test]
    fn latency_summary_merges_across_reporters() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        let mut h0 = Histogram::new();
        h0.record(100);
        let mut h1 = Histogram::new();
        h1.record(300);
        assert!(ledger
            .on_stats(TaskId(0), 0, stats_with_cost(0, 1), &h0)
            .is_none());
        let closed = ledger
            .on_stats(TaskId(1), 0, stats_with_cost(1, 1), &h1)
            .expect("closes");
        assert_eq!(closed.mean_latency_us, 200.0);
        assert!(closed.p99_latency_us >= 250.0, "{}", closed.p99_latency_us);
    }

    /// A reporter that dies mid-round must not wedge the round: striking
    /// it off closes every round that was only waiting on it, and its
    /// already-merged load stays in the closed totals.
    #[test]
    fn dead_reporter_closes_waiting_rounds() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 3, expect_n(3), vec![0, 0, 0]);
        ledger.open(1, 3, expect_n(3), vec![0, 0, 0]);
        close_all_but(&mut ledger, 0, &[0, 1]);
        close_all_but(&mut ledger, 1, &[0]);
        // Worker 2 dies. Round 0 was only waiting on it → closes with
        // the two real reports; round 1 still waits on worker 1.
        let closed = ledger.on_worker_dead(TaskId(2));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, 0);
        assert_eq!(closed[0].1.loads, vec![10, 10, 0]);
        assert_eq!(ledger.outstanding(), 1);
        let done = ledger
            .on_stats(TaskId(1), 1, stats_with_cost(1, 10), &Histogram::new())
            .expect("round 1 closes without the dead worker");
        assert_eq!(done.loads, vec![10, 10, 0]);
        assert_eq!(ledger.outstanding(), 0);
    }

    /// The satellite regression: a permanently-silent reporter (alive
    /// but never answering) delays a round only until the deadline, then
    /// the round closes with whoever answered and names the missing
    /// worker — instead of holding `outstanding()` (and shutdown, which
    /// gates on it) hostage forever.
    #[test]
    fn silent_reporter_round_closes_by_deadline() {
        let mut ledger = StatsLedger::new();
        ledger.open(0, 2, expect_n(2), vec![0, 0]);
        close_all_but(&mut ledger, 0, &[0]);
        // Worker 1 never reports. Not enough intervals elapsed: no expiry.
        assert!(ledger
            .expire_rounds(1, 2, Duration::from_millis(0))
            .is_empty());
        // Interval clock satisfied but wall deadline not yet: no expiry.
        assert!(ledger
            .expire_rounds(5, 2, Duration::from_secs(3600))
            .is_empty());
        let expired = ledger.expire_rounds(5, 2, Duration::from_millis(0));
        assert_eq!(expired.len(), 1);
        let (iv, round, missing) = &expired[0];
        assert_eq!(*iv, 0);
        assert_eq!(round.loads, vec![10, 0]);
        assert_eq!(missing, &vec![1], "the silent worker is named");
        assert_eq!(ledger.outstanding(), 0, "shutdown is no longer gated");
    }

    /// The hand-computed worker-seconds trace for a queued scale-in: a
    /// scale-out at t=2 (3→4), two queued victims whose retirements
    /// complete at t=5 (4→3) and t=6 (3→2), shutdown at t=10. Each span
    /// bills the parallelism that was actually live:
    /// 3·2 + 4·3 + 3·1 + 2·4 = 29 — exactly, so double- or
    /// under-counting can never regress silently.
    #[test]
    fn worker_seconds_bills_queued_scale_ins_exactly() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut ws = WorkerSeconds::new(t0, 3);
        ws.set_active(at(2), 4); // scale-out decided and spawned
        ws.set_active(at(5), 3); // first queued victim retires
        ws.set_active(at(6), 2); // second victim (queued behind the first)
        assert_eq!(ws.finish(at(10)), 29.0);
    }

    /// Back-to-back changes at the same instant (a scale-out landing in
    /// the same event-loop turn as a retirement) bill zero-length spans,
    /// not negative or doubled ones.
    #[test]
    fn worker_seconds_zero_length_spans_are_free() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let mut ws = WorkerSeconds::new(t0, 2);
        ws.set_active(at(3), 3);
        ws.set_active(at(3), 2);
        ws.set_active(at(3), 3);
        assert_eq!(ws.finish(at(4)), 2.0 * 3.0 + 3.0);
    }
}
