//! Stateful operators and downstream collectors.
//!
//! Operators hold *windowed* per-key state (the last `w` intervals, paper
//! §II-A), evicted at interval boundaries, and serialize a key's state to
//! a little-endian blob for migration — the byte counts are what the
//! migration-cost metric measures. The joins' blobs are `u64` sequences;
//! a word count's is a width tag and then `(interval, count)` pairs of
//! 32-bit values, or of 64-bit ones when a value needs them. The window
//! has two layouts:
//!
//! * [`WordCountOp`] holds one count per (key, interval), so its window
//!   is a dense table: one row per live key and one count column per
//!   retained interval, each a `streambal_core::Cells` column of 32-bit
//!   cells that widens exactly if a count passes `u32::MAX`. A tuple is
//!   one hash probe and one indexed add; eviction pops whole columns. Its
//!   docs give the bytes per key and the trade-off.
//! * The joins ([`WindowedSelfJoinOp`], [`CoJoinOp`]) keep per-key
//!   `Slots`: `(interval, payload)` entries in interval order. A join's
//!   payload is a list of stored tuples whose length varies by key and
//!   interval, not a fixed-width counter, so it has no cell to put in a
//!   column.

use std::collections::VecDeque;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use streambal_core::{Cells, Key};
use streambal_hashring::FxHashMap;

use crate::tuple::{Tuple, TAG_PARTIAL, TAG_RIGHT};

/// How one key's partial results, computed on different workers,
/// combine — what decides whether a run may spread the key over several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Partials fold: merging each worker's share of a key by a
    /// commutative, associative fold gives the whole key's result (a
    /// word count's counts).
    Fold,
    /// A key's result pairs its tuples with each other, so a worker
    /// holding part of them misses the pairs across parts: the key must
    /// stay on one worker.
    Join,
}

/// A keyed, stateful, windowed stream operator running inside one worker.
pub trait Operator: Send {
    /// Processes one tuple during `interval`; may emit downstream tuples.
    /// Returns the state bytes this tuple added (the `sᵢ(k)` increment).
    fn process(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64;

    /// Total state bytes currently held for `key` — its `Sᵢ(k, w)`.
    /// Nothing in the engine calls this: the controller's
    /// `streambal_core::StatsWindow` sums `Sᵢ(k, w)` from the bytes
    /// [`Operator::process`] returns. It answers tests and wrappers that
    /// forward it.
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

    /// How this operator's per-key partials combine. `Engine::run`
    /// refuses to split or spread the keys of a [`Combine::Join`]
    /// operator.
    fn combine(&self) -> Combine {
        Combine::Fold
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

/// The joins' per-key window: `(interval, payload)` entries in interval
/// order.
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

/// Rows `WordCountOp`'s `drain` serializes between handing back the
/// table's tails.
const DRAIN_STEP: usize = 4096;

/// The largest word-count blob encoded on the stack: a tag and 32 wide
/// cells, far more than the `w + 1` columns a worker keeps.
const STACK_BLOB: usize = 1 + 32 * 16;

/// A key's row in [`WordCountOp`]'s columns.
#[derive(Debug)]
struct Row {
    key: Key,
    /// Retained columns holding a non-zero cell for this row; the row is
    /// freed when eviction takes this to zero.
    cells: u32,
}

/// The paper's Social topology: per-word counters with the recent tuples
/// retained in memory for `w` intervals.
///
/// The window is a table: one row per live key (`index` maps a key to
/// its row) and one dense count column per retained interval, in
/// interval order, each as long as the row table. A column is a
/// [`Cells`]: 4-byte counts, widened exactly to 8 bytes for the whole
/// column when one passes `u32::MAX`.
///
/// * A tuple costs one index probe and one indexed add into the newest
///   column.
/// * `evict_before` pops whole columns: one sequential scan of each
///   popped column frees the rows left without a non-zero cell (a freed
///   row is clean, all zeros, and goes to a free list for the next new
///   key), and the popped buffer becomes the next interval's column.
/// * `extract` and `drain` serialize a row as one width byte, 4 or 8,
///   then its non-zero cells in interval order as `(interval, count)`
///   pairs of that many bytes each: 8-byte pairs when every interval and
///   count fits 32 bits, 16-byte pairs otherwise. A blob is encoded on
///   the stack and copied once into its shared buffer.
/// * `drain` (shutdown, retire) serializes from the last row up and
///   hands the table back as it goes, so the blobs reuse its memory: a
///   draining worker holds about one copy of its state, not the table
///   and every blob at once.
/// * A live key costs its index entry, its row (key and non-zero cell
///   count, 16 B) and one 4-byte cell per retained interval: the engine
///   bench's keyed-stage group measures 81 B of heap per live key at
///   `K = 2·10⁵`, `w = 5`, against 220 B for a hash entry plus a per-key
///   deque of `(interval, count)` slots.
/// * The trade-off: a cell costs its 4 B whether or not the key occurred
///   in that interval, so the layout pays off when live keys recur
///   across the window, as they do on the benchmark's `wide` workload
///   (≈ 76 k live keys, ≈ 76 k reported every round). A key seen once
///   holds up to `w + 1` cells until it is evicted, and the table stays
///   as long as the most keys it has held at once (freed rows are
///   reused, not returned).
///
/// With `partial_period` set, the operator additionally emits per-key
/// count *deltas* every that-many processed tuples — the partial/merge
/// pattern PKG requires (the paper tuned the merge period `p`).
#[derive(Debug)]
pub struct WordCountOp {
    index: FxHashMap<Key, usize>,
    rows: Vec<Row>,
    /// Rows whose key left; every cell of a free row is zero.
    free: Vec<usize>,
    /// `(interval, counts by row)` in ascending interval order; every
    /// column is `rows.len()` long.
    cols: VecDeque<(u64, Cells)>,
    /// The last evicted column's buffer, for the next column opened.
    spare: Cells,
    bytes_per_tuple: u64,
    partial_period: Option<u64>,
    since_flush: u64,
    dirty: FxHashMap<Key, u64>,
}

impl WordCountOp {
    /// Exact (key-grouped) word count.
    pub fn new() -> Self {
        WordCountOp {
            index: FxHashMap::default(),
            rows: Vec::new(),
            free: Vec::new(),
            cols: VecDeque::new(),
            spare: Cells::new(),
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
        self.index.get(&key).map_or(0, |&row| self.row_sum(row))
    }

    fn row_sum(&self, row: usize) -> u64 {
        self.cols.iter().map(|(_, col)| col.get(row)).sum()
    }

    /// `key`'s row, taking a free one (or growing every column) if the
    /// key has none.
    fn row(&mut self, key: Key) -> usize {
        let WordCountOp {
            index,
            rows,
            free,
            cols,
            ..
        } = self;
        *index.entry(key).or_insert_with(|| match free.pop() {
            Some(row) => {
                rows[row] = Row { key, cells: 0 };
                row
            }
            None => {
                rows.push(Row { key, cells: 0 });
                for (_, col) in cols.iter_mut() {
                    col.push(0);
                }
                rows.len() - 1
            }
        })
    }

    /// The position of `interval`'s column, opening it in order if it is
    /// not retained. Tuples arrive for the newest column; an install may
    /// bring an older or a newer interval.
    fn column(&mut self, interval: u64) -> usize {
        if self.cols.back().is_some_and(|&(iv, _)| iv == interval) {
            return self.cols.len() - 1;
        }
        let at = self.cols.partition_point(|&(iv, _)| iv < interval);
        if self.cols.get(at).is_none_or(|&(iv, _)| iv != interval) {
            let mut col = std::mem::take(&mut self.spare);
            col.resize(self.rows.len());
            self.cols.insert(at, (interval, col));
        }
        at
    }

    /// Serializes `row`'s `cells` non-zero cells in interval order,
    /// zeroing them: a width byte, then `(interval, count)` pairs of that
    /// many bytes each.
    fn take_blob(&mut self, row: usize, cells: u32) -> Bytes {
        let wide = self.cols.iter().any(|(iv, col)| {
            let c = col.get(row);
            c != 0 && c.max(*iv) > u64::from(u32::MAX)
        });
        let width = if wide { 8 } else { 4 };
        let len = 1 + cells as usize * 2 * width;
        let mut stack = [0u8; STACK_BLOB];
        let mut heap = Vec::new();
        let buf = if len <= STACK_BLOB {
            &mut stack[..len]
        } else {
            heap.resize(len, 0);
            &mut heap[..]
        };
        buf[0] = width as u8;
        let mut at = 1;
        for (iv, col) in self.cols.iter_mut() {
            let c = col.take(row);
            if c != 0 {
                for v in [*iv, c] {
                    buf[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                    at += width;
                }
            }
        }
        debug_assert_eq!(at, len, "`cells` counts the row's non-zero cells");
        Bytes::copy_from_slice(buf)
    }

    /// Adds `n > 0` to `row`'s cell for `interval`.
    fn add(&mut self, row: usize, interval: u64, n: u64) {
        let col = self.column(interval);
        if self.cols[col].1.add(row, n) == n {
            self.rows[row].cells += 1;
        }
    }

    fn flush_partials(&mut self, emit: &mut dyn FnMut(Tuple)) {
        for (k, delta) in self.dirty.drain() {
            emit(Tuple::tagged(k, TAG_PARTIAL, [delta, 0]));
        }
        self.since_flush = 0;
    }

    /// A blob's `(interval, count)` cells, in the width its tag names. A
    /// blob with no tag — an absent key's — holds none.
    fn cells(blob: &Bytes) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (width, body) = match blob.split_first() {
            Some((&w, body)) if w == 4 || w == 8 => (usize::from(w), body),
            _ => (8, &[][..]),
        };
        body.chunks_exact(2 * width).map(move |pair| {
            let value = |b: &[u8]| {
                let mut le = [0u8; 8];
                le[..width].copy_from_slice(b);
                u64::from_le_bytes(le)
            };
            (value(&pair[..width]), value(&pair[width..]))
        })
    }

    /// Decodes a serialized blob into `(interval, count)` slots (tests and
    /// validation).
    pub fn decode(blob: &Bytes) -> Vec<(u64, u64)> {
        Self::cells(blob).collect()
    }
}

impl Default for WordCountOp {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for WordCountOp {
    fn process(&mut self, tuple: &Tuple, interval: u64, emit: &mut dyn FnMut(Tuple)) -> u64 {
        let row = self.row(tuple.key);
        self.add(row, interval, 1);
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
        self.count_of(key) * self.bytes_per_tuple
    }

    fn extract(&mut self, key: Key) -> Option<Bytes> {
        let row = self.index.remove(&key)?;
        let blob = self.take_blob(row, self.rows[row].cells);
        self.rows[row].cells = 0;
        self.free.push(row);
        Some(blob)
    }

    /// Merges by interval; a blob with no non-zero count adds nothing.
    fn install(&mut self, key: Key, blob: Bytes) {
        let mut slots = Self::cells(&blob).filter(|&(_, c)| c != 0).peekable();
        if slots.peek().is_none() {
            return;
        }
        let row = self.row(key);
        for (iv, c) in slots {
            self.add(row, iv, c);
        }
    }

    fn evict_before(&mut self, oldest_keep: u64) {
        let WordCountOp {
            index,
            rows,
            free,
            cols,
            spare,
            ..
        } = self;
        let stale = cols.partition_point(|&(iv, _)| iv < oldest_keep);
        for (_, mut col) in cols.drain(..stale) {
            for (row, c) in col.iter().enumerate() {
                if c != 0 {
                    let r = &mut rows[row];
                    r.cells -= 1;
                    if r.cells == 0 {
                        index.remove(&r.key);
                        free.push(row);
                    }
                }
            }
            col.clear();
            *spare = col;
        }
    }

    fn flush(&mut self, emit: &mut dyn FnMut(Tuple)) {
        if self.partial_period.is_some() && !self.dirty.is_empty() {
            self.flush_partials(emit);
        }
    }

    /// The index goes first, before the output list is allocated, then
    /// the rows' and columns' tails every `DRAIN_STEP` rows, shrunk in
    /// place for the next blobs to reuse.
    fn drain(&mut self) -> Vec<(Key, Bytes)> {
        let live = self.index.len();
        self.index = FxHashMap::default();
        self.free = Vec::new();
        let mut out = Vec::with_capacity(live);
        while let Some(row) = self.rows.pop() {
            let at = self.rows.len();
            if row.cells != 0 {
                out.push((row.key, self.take_blob(at, row.cells)));
            }
            if at % DRAIN_STEP == 0 {
                self.rows.shrink_to_fit();
                for (_, col) in self.cols.iter_mut() {
                    col.truncate(at);
                    col.shrink_to_fit();
                }
            }
        }
        self.cols.clear();
        self.spare = Cells::new();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    fn held_counts(&self) -> Vec<(Key, u64)> {
        if self.partial_period.is_some() {
            // Flushed partials already reached the collector; only the
            // un-emitted deltas die with this worker.
            self.dirty.iter().map(|(&k, &d)| (k, d)).collect()
        } else {
            self.index
                .iter()
                .map(|(&k, &row)| (k, self.row_sum(row)))
                .collect()
        }
    }

    fn tuples_in_blob(&self, blob: &Bytes) -> u64 {
        Self::cells(blob).map(|(_, c)| c).sum()
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

    fn combine(&self) -> Combine {
        Combine::Join
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

    fn combine(&self) -> Combine {
        Combine::Join
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

    /// A hand-built word-count blob: `width` bytes per value.
    fn blob(width: usize, cells: &[(u64, u64)]) -> Bytes {
        let mut buf = vec![width as u8];
        for &(iv, c) in cells {
            buf.extend_from_slice(&iv.to_le_bytes()[..width]);
            buf.extend_from_slice(&c.to_le_bytes()[..width]);
        }
        Bytes::from(buf)
    }

    #[test]
    fn word_count_blob_cells_are_eight_bytes_while_they_fit() {
        let mut op = WordCountOp::new();
        let mut sink = no_emit();
        for iv in [2u64, 3, 3] {
            op.process(&Tuple::keyed(Key(4)), iv, &mut sink);
        }
        let b = op.extract(Key(4)).unwrap();
        assert_eq!(b.len(), 1 + 2 * 8);
        assert_eq!(b, blob(4, &[(2, 1), (3, 2)]));
        assert_eq!(op.tuples_in_blob(&b), 3);
        assert_eq!(WordCountOp::decode(&Bytes::new()), vec![]);
    }

    /// A count or an interval past `u32::MAX` — installed from a wide
    /// blob, or reached by counting one past it — reads back exactly
    /// everywhere: `count_of`, `held_counts`, `extract` → `install`,
    /// `decode` and `tuples_in_blob`. Only a row that needs 16-byte cells
    /// ships them.
    #[test]
    fn word_count_is_exact_past_32_bits() {
        const BIG: u64 = u32::MAX as u64;
        let mut op = WordCountOp::new();
        let mut sink = no_emit();
        op.install(Key(1), blob(8, &[(3, BIG + 5)]));
        op.install(Key(2), blob(4, &[(3, 7), (4, BIG)]));
        op.process(&Tuple::keyed(Key(2)), 4, &mut sink);
        op.install(Key(3), blob(8, &[(BIG + 1, 2)]));
        op.process(&Tuple::keyed(Key(4)), 4, &mut sink);
        let mut held = op.held_counts();
        held.sort_unstable();
        let want = [
            (Key(1), BIG + 5),
            (Key(2), BIG + 8),
            (Key(3), 2),
            (Key(4), 1),
        ];
        assert_eq!(held, want);
        for (key, count) in want {
            assert_eq!(op.count_of(key), count);
        }
        let mut moved = WordCountOp::new();
        for (key, count) in want {
            let b = op.extract(key).unwrap();
            assert_eq!(moved.tuples_in_blob(&b), count);
            moved.install(key, b);
        }
        let drained = moved.drain();
        let decoded: Vec<Vec<(u64, u64)>> = drained
            .iter()
            .map(|(_, b)| WordCountOp::decode(b))
            .collect();
        assert_eq!(
            decoded,
            [
                vec![(3, BIG + 5)],
                vec![(3, 7), (4, BIG + 1)],
                vec![(BIG + 1, 2)],
                vec![(4, 1)],
            ]
        );
        let widths: Vec<u8> = drained.iter().map(|(_, b)| b[0]).collect();
        assert_eq!(widths, [8, 8, 8, 4]);
    }

    /// A row with more cells than the stack buffer holds (a long window
    /// or installed history) serializes the same way.
    #[test]
    fn word_count_blob_past_the_stack_buffer_round_trips() {
        let cells: Vec<(u64, u64)> = (0..70).map(|iv| (iv, iv + 1)).collect();
        let mut op = WordCountOp::new();
        op.install(Key(5), blob(4, &cells));
        let b = op.extract(Key(5)).unwrap();
        assert!(b.len() > STACK_BLOB);
        assert_eq!(b, blob(4, &cells));
        let wide: Vec<(u64, u64)> = (0..40).map(|iv| (iv, u64::MAX - iv)).collect();
        op.install(Key(6), blob(8, &wide));
        let b = op.extract(Key(6)).unwrap();
        assert!(b.len() > STACK_BLOB);
        assert_eq!(WordCountOp::decode(&b), wide);
    }

    /// Seeded round trips: random rows of narrow and wide cells,
    /// installed in pieces and counted on top, extract to a blob that
    /// decodes to their per-interval sums — in the narrowest width that
    /// holds them — and re-installs to the same counts.
    #[test]
    fn word_count_blob_round_trips_narrow_and_wide() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const BIG: u64 = u32::MAX as u64;
        let mut sink = no_emit();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut op = WordCountOp::new();
            let mut want: std::collections::BTreeMap<u64, u64> = Default::default();
            for _ in 0..rng.gen_range(1..6u32) {
                let cells: Vec<(u64, u64)> = (0..rng.gen_range(1..5u32))
                    .map(|_| {
                        let iv = match rng.gen_range(0..8u32) {
                            0 => BIG + rng.gen_range(0..3u64),
                            _ => rng.gen_range(0..6u64),
                        };
                        let count = match rng.gen_range(0..4u32) {
                            0 => BIG - rng.gen_range(0..3u64),
                            _ => rng.gen_range(1..20u64),
                        };
                        (iv, count)
                    })
                    .collect();
                let fits = cells.iter().all(|&(iv, c)| iv <= BIG && c <= BIG);
                let width = if fits && rng.gen_bool(0.5) { 4 } else { 8 };
                for &(iv, c) in &cells {
                    *want.entry(iv).or_default() += c;
                }
                op.install(Key(9), blob(width, &cells));
                for _ in 0..rng.gen_range(0..3u32) {
                    let iv = rng.gen_range(0..6u64);
                    op.process(&Tuple::keyed(Key(9)), iv, &mut sink);
                    *want.entry(iv).or_default() += 1;
                }
            }
            let want: Vec<(u64, u64)> = want.into_iter().collect();
            let total: u64 = want.iter().map(|&(_, c)| c).sum();
            assert_eq!(op.count_of(Key(9)), total, "seed {seed}");
            let b = op.extract(Key(9)).unwrap();
            let narrow = want.iter().all(|&(iv, c)| iv <= BIG && c <= BIG);
            assert_eq!(b[0], if narrow { 4 } else { 8 }, "seed {seed}");
            assert_eq!(b.len(), 1 + want.len() * 2 * usize::from(b[0]));
            assert_eq!(WordCountOp::decode(&b), want, "seed {seed}");
            assert_eq!(op.tuples_in_blob(&b), total);
            let mut back = WordCountOp::new();
            back.install(Key(9), b.clone());
            assert_eq!(back.count_of(Key(9)), total);
            assert_eq!(back.extract(Key(9)), Some(b), "seed {seed}");
        }
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
