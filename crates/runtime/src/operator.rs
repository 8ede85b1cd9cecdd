//! Stateful operators and downstream collectors.
//!
//! Operators hold *windowed* per-key state (the last `w` intervals, paper
//! §II-A): each tuple appends to the current interval's slot, and slots
//! older than the window are evicted at interval boundaries. State is
//! serialized to length-prefixed little-endian `u64` sequences for
//! migration — the byte counts are what the migration-cost metric
//! measures.

use std::collections::VecDeque;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use streambal_core::Key;
use streambal_hashring::FxHashMap;

use crate::tuple::{Tuple, TAG_PARTIAL, TAG_RIGHT};

/// A keyed, stateful, windowed stream operator running inside one worker.
pub trait Operator: Send {
    /// Processes one tuple during `interval`; may emit downstream tuples.
    /// Returns the state bytes this tuple added (the `sᵢ(k)` increment).
    fn process(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64;

    /// Total state bytes currently held for `key` (the `Sᵢ(k, w)` the
    /// migration plan will move).
    fn state_size(&self, key: Key) -> u64;

    /// Removes and serializes all state of `key` (migration step 5).
    fn extract(&mut self, key: Key) -> Option<Bytes>;

    /// Installs serialized state received from a peer, merging with any
    /// existing state for the key.
    fn install(&mut self, key: Key, blob: Bytes);

    /// Drops state from intervals `< oldest_keep` (window eviction).
    fn evict_before(&mut self, oldest_keep: u64);

    /// Flushes any pending emissions (called at interval boundaries and
    /// shutdown; the PKG partial/merge pattern uses this).
    fn flush(&mut self, _emit: &mut dyn FnMut(Tuple)) {}

    /// Removes and serializes *all* state (shutdown validation).
    fn drain(&mut self) -> Vec<(Key, Bytes)>;

    /// Per-key tuple counts held by this operator that are not yet
    /// observable downstream — what is irrecoverably lost if the worker
    /// dies here. Under partial emission only the un-flushed deltas
    /// count (flushed partials already reached the collector); otherwise
    /// the windowed state itself is the unobserved contribution. The
    /// fault-recovery layer feeds this into `EngineReport::lost_tuples`;
    /// operators keeping the default (empty) lose tuples *unaccounted*
    /// on a kill, so stateful operators should implement it.
    fn held_counts(&self) -> Vec<(Key, u64)> {
        Vec::new()
    }

    /// Tuples represented by one serialized state blob of this operator
    /// — loss accounting for state destroyed in flight (e.g. a
    /// `StateInstall` drained from a dead worker's queue).
    fn tuples_in_blob(&self, _blob: &Bytes) -> u64 {
        0
    }
}

/// Receives worker emissions — the downstream operator of two-stage
/// topologies (PKG's merger, Q5's revenue aggregation).
pub trait Collector: Send {
    /// Consumes one emitted tuple.
    fn collect(&mut self, tuple: &Tuple);

    /// Final `(key, value)` result rows, sorted by key.
    fn result(&mut self) -> Vec<(u64, u64)>;
}

/// Sums `vals[0]` per key — merges PKG partials, aggregates Q5 revenue.
#[derive(Debug, Default)]
pub struct SumCollector {
    sums: FxHashMap<u64, u64>,
}

impl SumCollector {
    /// Creates an empty summing collector.
    pub fn new() -> Self {
        SumCollector::default()
    }
}

impl Collector for SumCollector {
    fn collect(&mut self, tuple: &Tuple) {
        *self.sums.entry(tuple.key.raw()).or_insert(0) += tuple.vals[0];
    }

    fn result(&mut self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.sums.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_unstable();
        v
    }
}

/// Windowed slots shared by the built-in operators: `(interval, payload)`
/// entries in interval order.
type Slots<T> = VecDeque<(u64, T)>;

fn evict_slots<T>(state: &mut FxHashMap<Key, Slots<T>>, oldest_keep: u64) {
    state.retain(|_, slots| {
        while slots.front().is_some_and(|&(iv, _)| iv < oldest_keep) {
            slots.pop_front();
        }
        !slots.is_empty()
    });
}

// ------------------------------------------------------------------
// Word count
// ------------------------------------------------------------------

/// The paper's Social topology: per-word counters with the recent tuples
/// retained in memory for `w` intervals.
///
/// With `partial_period` set, the operator additionally emits per-key
/// count *deltas* every that-many processed tuples — the partial/merge
/// pattern PKG requires (the paper tuned the merge period `p`).
#[derive(Debug)]
pub struct WordCountOp {
    state: FxHashMap<Key, Slots<u64>>,
    bytes_per_tuple: u64,
    partial_period: Option<u64>,
    since_flush: u64,
    dirty: FxHashMap<Key, u64>,
}

impl WordCountOp {
    /// Exact (key-grouped) word count.
    pub fn new() -> Self {
        WordCountOp {
            state: FxHashMap::default(),
            bytes_per_tuple: 8,
            partial_period: None,
            since_flush: 0,
            dirty: FxHashMap::default(),
        }
    }

    /// PKG-mode word count emitting partial deltas every `period` tuples.
    pub fn with_partial_emission(period: u64) -> Self {
        WordCountOp {
            partial_period: Some(period.max(1)),
            ..WordCountOp::new()
        }
    }

    /// Current count of a key across the window (tests).
    pub fn count_of(&self, key: Key) -> u64 {
        self.state
            .get(&key)
            .map_or(0, |s| s.iter().map(|&(_, c)| c).sum())
    }

    fn flush_partials(&mut self, emit: &mut dyn FnMut(Tuple)) {
        for (k, delta) in self.dirty.drain() {
            emit(Tuple::tagged(k, TAG_PARTIAL, [delta, 0]));
        }
        self.since_flush = 0;
    }

    /// Decodes a serialized blob into `(interval, count)` slots (tests and
    /// validation).
    pub fn decode(blob: &Bytes) -> Vec<(u64, u64)> {
        let mut buf = blob.clone();
        let mut out = Vec::new();
        while buf.remaining() >= 16 {
            out.push((buf.get_u64_le(), buf.get_u64_le()));
        }
        out
    }
}

impl Default for WordCountOp {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for WordCountOp {
    fn process(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64 {
        let slots = self.state.entry(tuple.key).or_default();
        match slots.back_mut() {
            Some((iv, c)) if *iv == interval => *c += 1,
            _ => slots.push_back((interval, 1)),
        }
        if let Some(period) = self.partial_period {
            *self.dirty.entry(tuple.key).or_insert(0) += 1;
            self.since_flush += 1;
            if self.since_flush >= period {
                self.flush_partials(emit);
            }
        }
        self.bytes_per_tuple
    }

    fn state_size(&self, key: Key) -> u64 {
        self.state.get(&key).map_or(0, |slots| {
            slots.iter().map(|&(_, c)| c * self.bytes_per_tuple).sum()
        })
    }

    fn extract(&mut self, key: Key) -> Option<Bytes> {
        let slots = self.state.remove(&key)?;
        let mut buf = BytesMut::with_capacity(slots.len() * 16);
        for (iv, c) in slots {
            buf.put_u64_le(iv);
            buf.put_u64_le(c);
        }
        Some(buf.freeze())
    }

    fn install(&mut self, key: Key, blob: Bytes) {
        let slots = self.state.entry(key).or_default();
        for (iv, c) in Self::decode(&blob) {
            // Merge by interval; decoded blobs are interval-ordered.
            if let Some(pos) = slots.iter().position(|&(i, _)| i == iv) {
                slots[pos].1 += c;
            } else {
                let at = slots.partition_point(|&(i, _)| i < iv);
                slots.insert(at, (iv, c));
            }
        }
    }

    fn evict_before(&mut self, oldest_keep: u64) {
        evict_slots(&mut self.state, oldest_keep);
    }

    fn flush(&mut self, emit: &mut dyn FnMut(Tuple)) {
        if self.partial_period.is_some() && !self.dirty.is_empty() {
            self.flush_partials(emit);
        }
    }

    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        let keys: Vec<Key> = self.state.keys().copied().collect();
        let mut out: Vec<(Key, Bytes)> = keys
            .into_iter()
            .filter_map(|k| self.extract(k).map(|b| (k, b)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    fn held_counts(&self) -> Vec<(Key, u64)> {
        if self.partial_period.is_some() {
            // Flushed partials already reached the collector; only the
            // un-emitted deltas die with this worker.
            self.dirty.iter().map(|(&k, &d)| (k, d)).collect()
        } else {
            self.state
                .iter()
                .map(|(&k, slots)| (k, slots.iter().map(|&(_, c)| c).sum()))
                .collect()
        }
    }

    fn tuples_in_blob(&self, blob: &Bytes) -> u64 {
        Self::decode(blob).iter().map(|&(_, c)| c).sum()
    }
}

// ------------------------------------------------------------------
// Windowed self-join
// ------------------------------------------------------------------

/// The paper's Stock topology: a sliding-window self-join per key —
/// each arriving tuple matches all retained tuples of the same key.
#[derive(Debug, Default)]
pub struct WindowedSelfJoinOp {
    state: FxHashMap<Key, Slots<Vec<u64>>>,
    /// Join matches produced so far (diagnostics).
    matches: u64,
}

impl WindowedSelfJoinOp {
    /// Creates an empty self-join operator.
    pub fn new() -> Self {
        WindowedSelfJoinOp::default()
    }

    /// Join matches produced so far.
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// Decodes a blob into `(interval, payloads)` slots.
    pub fn decode(blob: &Bytes) -> Vec<(u64, Vec<u64>)> {
        let mut buf = blob.clone();
        let mut out = Vec::new();
        while buf.remaining() >= 16 {
            let iv = buf.get_u64_le();
            let len = buf.get_u64_le() as usize;
            let mut payloads = Vec::with_capacity(len);
            for _ in 0..len {
                payloads.push(buf.get_u64_le());
            }
            out.push((iv, payloads));
        }
        out
    }
}

impl Operator for WindowedSelfJoinOp {
    fn process(&mut self, tuple: &Tuple, interval: u64, _emit: &mut dyn FnMut(Tuple)) -> u64 {
        let slots = self.state.entry(tuple.key).or_default();
        // Every retained tuple of this key joins with the new arrival.
        self.matches += slots.iter().map(|(_, p)| p.len() as u64).sum::<u64>();
        match slots.back_mut() {
            Some((iv, p)) if *iv == interval => p.push(tuple.vals[0]),
            _ => slots.push_back((interval, vec![tuple.vals[0]])),
        }
        8
    }

    fn state_size(&self, key: Key) -> u64 {
        self.state.get(&key).map_or(0, |slots| {
            slots.iter().map(|(_, p)| 8 * p.len() as u64).sum()
        })
    }

    fn extract(&mut self, key: Key) -> Option<Bytes> {
        let slots = self.state.remove(&key)?;
        let mut buf = BytesMut::new();
        for (iv, payloads) in slots {
            buf.put_u64_le(iv);
            buf.put_u64_le(payloads.len() as u64);
            for p in payloads {
                buf.put_u64_le(p);
            }
        }
        Some(buf.freeze())
    }

    fn install(&mut self, key: Key, blob: Bytes) {
        let slots = self.state.entry(key).or_default();
        for (iv, payloads) in Self::decode(&blob) {
            if let Some(pos) = slots.iter().position(|&(i, _)| i == iv) {
                slots[pos].1.extend(payloads);
            } else {
                let at = slots.partition_point(|&(i, _)| i < iv);
                slots.insert(at, (iv, payloads));
            }
        }
    }

    fn evict_before(&mut self, oldest_keep: u64) {
        evict_slots(&mut self.state, oldest_keep);
    }

    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        let keys: Vec<Key> = self.state.keys().copied().collect();
        let mut out: Vec<(Key, Bytes)> = keys
            .into_iter()
            .filter_map(|k| self.extract(k).map(|b| (k, b)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    fn held_counts(&self) -> Vec<(Key, u64)> {
        self.state
            .iter()
            .map(|(&k, slots)| (k, slots.iter().map(|(_, p)| p.len() as u64).sum()))
            .collect()
    }

    fn tuples_in_blob(&self, blob: &Bytes) -> u64 {
        Self::decode(blob).iter().map(|(_, p)| p.len() as u64).sum()
    }
}

// ------------------------------------------------------------------
// Co-join (orders ⋈ lineitems)
// ------------------------------------------------------------------

/// A two-stream windowed join on the tuple key — the Q5 pipeline's
/// `orders ⋈ lineitems` operator.
///
/// `TAG_LEFT` tuples (orders) are stored: `vals = [custkey, orderdate]`.
/// `TAG_RIGHT` tuples (lineitems, `vals = [suppkey, revenue]`) probe the
/// stored orders of the same key and emit one joined tuple per match,
/// keyed by `suppkey` with `vals = [revenue, custkey]` for the downstream
/// aggregation stage.
#[derive(Debug, Default)]
pub struct CoJoinOp {
    left: FxHashMap<Key, Slots<[u64; 2]>>,
    /// Right-side tuples whose order was absent (evicted or reordered).
    misses: u64,
}

impl CoJoinOp {
    /// Creates an empty co-join.
    pub fn new() -> Self {
        CoJoinOp::default()
    }

    /// Right-side probes that found no order.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl Operator for CoJoinOp {
    fn process(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64 {
        if tuple.tag == TAG_RIGHT {
            let mut matched = false;
            if let Some(slots) = self.left.get(&tuple.key) {
                for (_, order) in slots.iter() {
                    emit(Tuple::tagged(
                        Key(tuple.vals[0]), // suppkey
                        TAG_PARTIAL,
                        [tuple.vals[1], order[0]], // [revenue, custkey]
                    ));
                    matched = true;
                }
            }
            if !matched {
                self.misses += 1;
            }
            0
        } else {
            // Left (order): store within the window.
            let slots = self.left.entry(tuple.key).or_default();
            match slots.back_mut() {
                Some((iv, _)) if *iv == interval => {
                    // A second order under the same key in one interval is
                    // possible only with key collisions; keep the first.
                }
                _ => slots.push_back((interval, tuple.vals)),
            }
            16
        }
    }

    fn state_size(&self, key: Key) -> u64 {
        self.left.get(&key).map_or(0, |s| 16 * s.len() as u64)
    }

    fn extract(&mut self, key: Key) -> Option<Bytes> {
        let slots = self.left.remove(&key)?;
        let mut buf = BytesMut::new();
        for (iv, vals) in slots {
            buf.put_u64_le(iv);
            buf.put_u64_le(vals[0]);
            buf.put_u64_le(vals[1]);
        }
        Some(buf.freeze())
    }

    fn install(&mut self, key: Key, blob: Bytes) {
        let slots = self.left.entry(key).or_default();
        let mut buf = blob;
        while buf.remaining() >= 24 {
            let iv = buf.get_u64_le();
            let vals = [buf.get_u64_le(), buf.get_u64_le()];
            let at = slots.partition_point(|&(i, _)| i <= iv);
            slots.insert(at, (iv, vals));
        }
    }

    fn evict_before(&mut self, oldest_keep: u64) {
        evict_slots(&mut self.left, oldest_keep);
    }

    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        let keys: Vec<Key> = self.left.keys().copied().collect();
        let mut out: Vec<(Key, Bytes)> = keys
            .into_iter()
            .filter_map(|k| self.extract(k).map(|b| (k, b)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    fn held_counts(&self) -> Vec<(Key, u64)> {
        self.left
            .iter()
            .map(|(&k, slots)| (k, slots.len() as u64))
            .collect()
    }

    fn tuples_in_blob(&self, blob: &Bytes) -> u64 {
        (blob.len() / 24) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TAG_LEFT;

    fn no_emit() -> impl FnMut(Tuple) {
        |_| {}
    }

    #[test]
    fn word_count_accumulates_and_windows() {
        let mut op = WordCountOp::new();
        let mut sink = no_emit();
        for iv in 0..3u64 {
            for _ in 0..5 {
                op.process(&Tuple::keyed(Key(1)), iv, &mut sink);
            }
        }
        assert_eq!(op.count_of(Key(1)), 15);
        assert_eq!(op.state_size(Key(1)), 15 * 8);
        op.evict_before(1); // drop interval 0
        assert_eq!(op.count_of(Key(1)), 10);
    }

    #[test]
    fn word_count_extract_install_roundtrip() {
        let mut a = WordCountOp::new();
        let mut sink = no_emit();
        for iv in 0..2u64 {
            for _ in 0..3 {
                a.process(&Tuple::keyed(Key(7)), iv, &mut sink);
            }
        }
        let blob = a.extract(Key(7)).unwrap();
        assert_eq!(a.count_of(Key(7)), 0, "extract removes");
        let mut b = WordCountOp::new();
        b.install(Key(7), blob);
        assert_eq!(b.count_of(Key(7)), 6);
        assert_eq!(b.state_size(Key(7)), 48);
    }

    #[test]
    fn word_count_install_merges_same_interval() {
        let mut a = WordCountOp::new();
        let mut sink = no_emit();
        a.process(&Tuple::keyed(Key(1)), 5, &mut sink);
        let blob = a.extract(Key(1)).unwrap();
        let mut b = WordCountOp::new();
        b.process(&Tuple::keyed(Key(1)), 5, &mut sink);
        b.install(Key(1), blob);
        assert_eq!(b.count_of(Key(1)), 2);
        // Single merged slot, not two.
        let blob2 = b.extract(Key(1)).unwrap();
        assert_eq!(WordCountOp::decode(&blob2), vec![(5, 2)]);
    }

    #[test]
    fn word_count_partial_mode_emits_deltas() {
        let mut op = WordCountOp::with_partial_emission(3);
        let mut emitted = Vec::new();
        for _ in 0..7 {
            op.process(&Tuple::keyed(Key(9)), 0, &mut |t| emitted.push(t));
        }
        // Flushes at tuples 3 and 6 → two partials of 3 each.
        let total: u64 = emitted.iter().map(|t| t.vals[0]).sum();
        assert_eq!(total, 6);
        op.flush(&mut |t| emitted.push(t));
        let total: u64 = emitted.iter().map(|t| t.vals[0]).sum();
        assert_eq!(total, 7, "final flush emits the remainder");
        assert!(emitted.iter().all(|t| t.tag == TAG_PARTIAL));
    }

    #[test]
    fn self_join_counts_matches_within_window() {
        let mut op = WindowedSelfJoinOp::new();
        let mut sink = no_emit();
        for i in 0..4u64 {
            op.process(&Tuple::tagged(Key(1), 0, [i, 0]), 0, &mut sink);
        }
        // 0+1+2+3 pairwise matches.
        assert_eq!(op.matches(), 6);
        // Different key: no cross-key matches.
        op.process(&Tuple::tagged(Key(2), 0, [9, 0]), 0, &mut sink);
        assert_eq!(op.matches(), 6);
    }

    #[test]
    fn self_join_eviction_limits_matches() {
        let mut op = WindowedSelfJoinOp::new();
        let mut sink = no_emit();
        op.process(&Tuple::tagged(Key(1), 0, [1, 0]), 0, &mut sink);
        op.evict_before(1);
        op.process(&Tuple::tagged(Key(1), 0, [2, 0]), 1, &mut sink);
        assert_eq!(op.matches(), 0, "evicted tuples cannot match");
    }

    #[test]
    fn self_join_roundtrip() {
        let mut a = WindowedSelfJoinOp::new();
        let mut sink = no_emit();
        for i in 0..5u64 {
            a.process(&Tuple::tagged(Key(3), 0, [i, 0]), i / 2, &mut sink);
        }
        let blob = a.extract(Key(3)).unwrap();
        let decoded = WindowedSelfJoinOp::decode(&blob);
        let total: usize = decoded.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, 5);
        let mut b = WindowedSelfJoinOp::new();
        b.install(Key(3), blob);
        assert_eq!(b.state_size(Key(3)), 40);
    }

    #[test]
    fn cojoin_joins_right_to_stored_left() {
        let mut op = CoJoinOp::new();
        let mut emitted = Vec::new();
        // Order 100 from customer 5.
        op.process(&Tuple::tagged(Key(100), TAG_LEFT, [5, 0]), 0, &mut |t| {
            emitted.push(t)
        });
        // Lineitem for order 100: supplier 9, revenue 1234.
        op.process(
            &Tuple::tagged(Key(100), TAG_RIGHT, [9, 1234]),
            0,
            &mut |t| emitted.push(t),
        );
        assert_eq!(emitted.len(), 1);
        assert_eq!(emitted[0].key, Key(9), "joined tuple keyed by suppkey");
        assert_eq!(emitted[0].vals, [1234, 5]);
        assert_eq!(op.misses(), 0);
    }

    #[test]
    fn cojoin_miss_when_order_absent_or_evicted() {
        let mut op = CoJoinOp::new();
        let mut sink = no_emit();
        op.process(&Tuple::tagged(Key(1), TAG_RIGHT, [2, 10]), 0, &mut sink);
        assert_eq!(op.misses(), 1);
        op.process(&Tuple::tagged(Key(2), TAG_LEFT, [1, 0]), 0, &mut sink);
        op.evict_before(1);
        op.process(&Tuple::tagged(Key(2), TAG_RIGHT, [3, 10]), 1, &mut sink);
        assert_eq!(op.misses(), 2);
    }

    #[test]
    fn cojoin_state_migrates() {
        let mut a = CoJoinOp::new();
        let mut sink = no_emit();
        a.process(&Tuple::tagged(Key(42), TAG_LEFT, [7, 3]), 2, &mut sink);
        let blob = a.extract(Key(42)).unwrap();
        let mut b = CoJoinOp::new();
        b.install(Key(42), blob);
        let mut emitted = Vec::new();
        b.process(&Tuple::tagged(Key(42), TAG_RIGHT, [1, 500]), 2, &mut |t| {
            emitted.push(t)
        });
        assert_eq!(emitted.len(), 1, "migrated order still joins");
        assert_eq!(emitted[0].vals, [500, 7]);
    }

    #[test]
    fn collectors() {
        let mut s = SumCollector::new();
        s.collect(&Tuple::tagged(Key(1), TAG_PARTIAL, [5, 0]));
        s.collect(&Tuple::tagged(Key(1), TAG_PARTIAL, [3, 0]));
        s.collect(&Tuple::tagged(Key(2), TAG_PARTIAL, [1, 0]));
        assert_eq!(s.result(), vec![(1, 8), (2, 1)]);
    }

    #[test]
    fn drain_returns_everything_sorted() {
        let mut op = WordCountOp::new();
        let mut sink = no_emit();
        for k in [5u64, 1, 3] {
            op.process(&Tuple::keyed(Key(k)), 0, &mut sink);
        }
        let drained = op.drain();
        let keys: Vec<u64> = drained.iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, vec![1, 3, 5]);
        assert_eq!(op.count_of(Key(1)), 0);
    }
}
