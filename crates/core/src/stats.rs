//! Per-interval key statistics and the incrementally maintained windowed
//! key table.
//!
//! Paper §II-A: for each interval `Tᵢ` and key `k` the system measures the
//! frequency `gᵢ(k)`, the computation cost `cᵢ(k)` (CPU units consumed by
//! all tuples of `k`), and the memory footprint `sᵢ(k)` of the state
//! written in that interval. Stateful operators keep the last `w` intervals
//! of state, so the migration-relevant memory of a key is the windowed sum
//! `Sᵢ(k, w) = Σ_{j=i-w+1..i} sⱼ(k)` — that is what must travel when the
//! key is reassigned.
//!
//! # Complexity contract
//!
//! [`StatsWindow`] is one table, not `w` interval maps. With `Δ` the keys
//! an interval reports, `K` the keys live anywhere in the window and `n`
//! the task count:
//!
//! * **push** is `O(Δ)`: it touches the rows of the keys reported now
//!   and the rows of the interval it evicts — never the other retained
//!   intervals, and not the rows whose cost just went stale (a stamp
//!   retires those). A key's route is computed once, when its row
//!   appears.
//! * **the trigger question** ("is any task above `(1+θmax)·L̄`?") is
//!   `O(n)`: per-task load totals are kept current by every push and
//!   every re-route, so [`StatsWindow::loads`] is a slice read.
//! * **records** are `O(K log K)` (one pass over the rows plus the sort
//!   that makes plans reproducible) and are materialised only for a
//!   planner that reads every key. MinTable, MinMig and Mixed plan over
//!   a **selection** instead: two passes over the rows that hold the
//!   table entries and `m` keys per task, `O(K log m)` time and
//!   `O(table + n·m)` memory.
//! * **memory** is one 40-byte row and one 8-byte index slot (at most
//!   three quarters occupied) per live key, plus 8 bytes per record a
//!   retained interval reported (a key once per shard that named it) —
//!   the delta subtracted again on eviction, 12 bytes in an interval
//!   that reports a state size beyond 32 bits. There is no per-key ring,
//!   so `w = 100` costs nothing for keys that report once.
//!
//! # A report's way in
//!
//! An interval's statistics exist once on their way to the window: each
//! worker **accumulates** into its own [`StatsAccumulator`], kept for the
//! whole run, whose 16-byte entries hold a key's tuple count and state
//! bytes at 32 bits each (widened exactly when a value needs more); at
//! the interval boundary it **seals** the accumulator into an exact-size
//! shard sorted by key hash, pricing each key at its tuple count times
//! the accumulator's cost per tuple and keeping the table's capacity;
//! the controller **absorbs** the workers' shards into one
//! [`IntervalStats`] by moving them; and [`StatsWindow::push`] **folds**
//! them shard by shard. A report is always such a list of sealed shards:
//! one built any other way (a workload generator's, the simulator's) is
//! collected from `(Key, KeyStat)` pairs into one shard. A key several
//! shards name — a split key's replicas, a key migrated mid-interval, a
//! duplicate or late report — is summed in its window row by the fold,
//! and by every reader of the report as it reads; readers see the keys
//! in key-hash order.
//!
//! The cached routes are only as fresh as the caller keeps them: whoever
//! mutates the [`AssignmentFn`] a window was pushed against must call
//! [`StatsWindow::reroute`] for the keys whose route changed, or
//! [`StatsWindow::reroute_all`] after a ring change. [`StatsPlane`] owns
//! both halves and does exactly that for every mutation the controller
//! performs.

use std::collections::VecDeque;

use streambal_hashring::{fx_hash_u64, FxHashMap};

use crate::cells::{narrow_add, Cells};
use crate::key::{Key, TaskId};
use crate::llfd::{Criteria, Selection};
use crate::load::LoadSummary;
use crate::migration::Move;
use crate::routing::{AssignmentFn, RoutingTable};

/// Measurements for one key in one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyStat {
    /// Tuple count `gᵢ(k)`.
    pub freq: u64,
    /// Computation cost `cᵢ(k)`, in abstract CPU units. Generally grows
    /// with `freq` but the algorithms make no assumption about the
    /// correlation (paper §II-A).
    pub cost: u64,
    /// State bytes `sᵢ(k)` written in this interval.
    pub mem: u64,
}

impl KeyStat {
    /// `freq` tuples that cost `cost` and wrote `mem` state bytes.
    pub const fn new(freq: u64, cost: u64, mem: u64) -> Self {
        KeyStat { freq, cost, mem }
    }
}

impl std::ops::AddAssign for KeyStat {
    fn add_assign(&mut self, s: KeyStat) {
        self.freq += s.freq;
        self.cost += s.cost;
        self.mem += s.mem;
    }
}

/// The order a sealed shard keeps its records in: the key's
/// [`fx_hash_u64`]. That is a bijection on `u64`, so distinct keys never
/// tie, and its top bits are a key's [`RowIndex`] home slot at every
/// table size — a shard read in this order sweeps the window's index
/// front to back.
#[inline]
fn order(key: Key) -> u64 {
    fx_hash_u64(key.raw())
}

/// One reporter's sealed statistics: each key once, in [`order`], at
/// exactly the size it needs.
type Shard = Box<[(Key, KeyStat)]>;

/// `n` records of distinct keys as a list of at most one shard.
///
/// A worker pays for this at every interval boundary, so it sorts in
/// linear time: a counting sort on the top bits of [`order`], with one
/// to two keys per bucket, then an insertion sort that only ever moves
/// a key within its bucket (measured at 19 k keys: 0.4 ms, against
/// 1.2 ms for a comparison sort even on precomputed hashes).
fn seal_records(n: usize, records: impl Iterator<Item = (Key, KeyStat)> + Clone) -> Vec<Shard> {
    if n == 0 {
        return Vec::new();
    }
    let bits = n.ilog2();
    let bucket = |key: Key| order(key).checked_shr(64 - bits).unwrap_or(0) as usize;
    // `next[b]`: where bucket `b`'s next key goes. One reporter's keys
    // in one interval number far below 2³².
    let mut next = vec![0u32; 1 << bits];
    for (key, _) in records.clone() {
        next[bucket(key)] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        (*slot, start) = (start, start + *slot);
    }
    let mut shard = vec![(Key(0), KeyStat::default()); n].into_boxed_slice();
    for (key, stat) in records {
        let b = bucket(key);
        shard[next[b] as usize] = (key, stat);
        next[b] += 1;
    }
    for i in 1..n {
        let mut j = i;
        while j > 0 && order(shard[j - 1].0) > order(shard[j].0) {
            shard.swap(j - 1, j);
            j -= 1;
        }
    }
    vec![shard]
}

/// One reporter's statistics for the interval still open: per key, the
/// tuples seen and the state bytes they wrote.
///
/// A worker keeps one for the whole run. It never stores a cost: every
/// tuple costs the same `cost_per_tuple` CPU units, so a key's cost is
/// its tuple count times that, computed when the accumulator is sealed.
/// An entry is the key and a `(freq, mem)` pair of 32-bit cells — 16
/// bytes where a `KeyStat` entry takes 32 — and the first sum that does
/// not fit 32 bits widens the whole table to 64-bit cells, exactly, as a
/// [`Cells`] column widens. A sealed accumulator is narrow again.
#[derive(Debug, Clone)]
pub struct StatsAccumulator {
    cost_per_tuple: u64,
    pairs: Pairs,
}

/// [`StatsAccumulator`]'s table at its current width.
#[derive(Debug, Clone)]
enum Pairs {
    Narrow(FxHashMap<Key, [u32; 2]>),
    Wide(FxHashMap<Key, [u64; 2]>),
}

impl StatsAccumulator {
    /// An empty accumulator whose keys cost `cost_per_tuple` per tuple.
    pub fn new(cost_per_tuple: u64) -> Self {
        StatsAccumulator {
            cost_per_tuple,
            pairs: Pairs::Narrow(FxHashMap::default()),
        }
    }

    /// Adds `freq` tuples of `key` that wrote `mem` state bytes.
    #[inline]
    pub fn add(&mut self, key: Key, freq: u64, mem: u64) {
        let add = |cell: &mut [u64; 2]| {
            cell[0] += freq;
            cell[1] += mem;
        };
        match &mut self.pairs {
            Pairs::Narrow(map) => {
                let cell = map.entry(key).or_default();
                match (narrow_add(cell[0], freq), narrow_add(cell[1], mem)) {
                    (Some(f), Some(m)) => *cell = [f, m],
                    _ => {
                        let mut wide: FxHashMap<Key, [u64; 2]> = map
                            .iter()
                            .map(|(&k, &[f, m])| (k, [u64::from(f), u64::from(m)]))
                            .collect();
                        add(wide.entry(key).or_default());
                        self.pairs = Pairs::Wide(wide);
                    }
                }
            }
            Pairs::Wide(map) => add(map.entry(key).or_default()),
        }
    }

    /// Number of keys accumulated.
    pub fn len(&self) -> usize {
        match &self.pairs {
            Pairs::Narrow(map) => map.len(),
            Pairs::Wide(map) => map.len(),
        }
    }

    /// True when nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes everything accumulated as a closing report and leaves the
    /// accumulator empty with its capacity kept — a worker's interval
    /// boundary, so the next interval fills the same table.
    pub fn seal(&mut self) -> IntervalStats {
        let sealed = self.peek();
        match &mut self.pairs {
            Pairs::Narrow(map) => map.clear(),
            Pairs::Wide(map) => {
                let narrow =
                    FxHashMap::with_capacity_and_hasher(map.capacity(), Default::default());
                self.pairs = Pairs::Narrow(narrow);
            }
        }
        sealed
    }

    /// A report of what is accumulated so far, which stays as it is — a
    /// worker's answer to a provisional peek.
    pub fn peek(&self) -> IntervalStats {
        let stat = |freq: u64, mem: u64| KeyStat::new(freq, freq * self.cost_per_tuple, mem);
        let shards = match &self.pairs {
            Pairs::Narrow(map) => seal_records(
                map.len(),
                map.iter()
                    .map(|(&k, &[f, m])| (k, stat(u64::from(f), u64::from(m)))),
            ),
            Pairs::Wide(map) => {
                seal_records(map.len(), map.iter().map(|(&k, &[f, m])| (k, stat(f, m))))
            }
        };
        IntervalStats {
            shards,
            provisional: false,
        }
    }
}

/// All key statistics reported for one interval by the downstream tasks:
/// a list of sealed shards, each sorted by key hash.
///
/// A report lives through four steps, and each interval's statistics
/// exist once at every step:
///
/// 1. **accumulate** — a worker keeps one [`StatsAccumulator`] for the
///    whole run and adds every run of same-key tuples to it: a 32-bit
///    tuple count and a 32-bit state size per key, widened only when a
///    sum needs 64 bits;
/// 2. **seal** — at an interval boundary [`StatsAccumulator::seal`]
///    moves its records, each key's cost computed as its tuple count
///    times the cost per tuple, into an exact-size shard sorted in hash
///    order and clears the table, capacity kept (a provisional peek takes
///    a [`StatsAccumulator::peek`] copy instead);
/// 3. **absorb** — the controller collects the workers' reports with
///    [`absorb`](IntervalStats::absorb), which moves their shards in: no
///    merge map, no copy;
/// 4. **fold** — [`StatsWindow::push`] folds the shards one after
///    another, each a front-to-back sweep of its index, and drops them.
///
/// Any other report — a workload generator's interval, the simulator's,
/// a test's — is `collect`ed from `(Key, KeyStat)` pairs, which sums
/// repeated keys and seals the result as one shard.
///
/// A key can appear in several shards: a split key's replicas, a key
/// migrated mid-interval, a duplicate or late report. The fold sums the
/// repeats in the key's window row; every reader —
/// [`iter`](IntervalStats::iter) (a k-way merge of the sorted shards),
/// [`get`](IntervalStats::get), [`len`](IntervalStats::len) — sums them
/// as it reads, so a report reads as one key set whatever its shard
/// count, in key-hash order.
///
/// A report is *closing* (the default: the interval is over) or
/// *provisional*: a copy of the statistics accumulated so far in an
/// interval that is still open, taken when the source raised a skew
/// alert. A provisional report lets the partitioner plan inside the
/// interval; the window forgets it when the next report arrives (see
/// [`StatsWindow::push`]).
#[derive(Debug, Clone, Default)]
pub struct IntervalStats {
    /// None of them empty. A key appears at most once per shard but may
    /// repeat across shards; readers sum the repeats.
    shards: Vec<Shard>,
    provisional: bool,
}

impl IntervalStats {
    /// Creates an empty interval report.
    pub fn new() -> Self {
        IntervalStats::default()
    }

    /// Marks the report provisional: statistics of an interval that has
    /// not closed yet.
    pub fn into_provisional(mut self) -> Self {
        self.provisional = true;
        self
    }

    /// Whether this is a provisional report.
    pub fn is_provisional(&self) -> bool {
        self.provisional
    }

    /// Adds another report's statistics to this one (e.g. the per-task
    /// shards collected by the controller in workflow step 1 of Fig. 5)
    /// by moving its shards in; keys both name are summed when read.
    pub fn absorb(&mut self, other: IntervalStats) {
        self.shards.extend(other.shards);
    }

    /// Statistics for one key, if observed this interval.
    pub fn get(&self, key: Key) -> Option<KeyStat> {
        let o = order(key);
        self.shards
            .iter()
            .filter_map(|shard| {
                let i = shard.binary_search_by_key(&o, |&(k, _)| order(k)).ok()?;
                Some(shard[i].1)
            })
            .reduce(|mut sum, s| {
                sum += s;
                sum
            })
    }

    /// Number of distinct keys observed.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Every record as held, a key once per shard that names it: the
    /// input of a reader that sums repeats itself.
    fn records(&self) -> impl Iterator<Item = (Key, KeyStat)> + '_ {
        self.shards.iter().flatten().copied()
    }

    /// How many [`IntervalStats::records`] there are.
    fn records_held(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Iterates `(key, stat)`, each distinct key once with its shards
    /// summed, in key-hash order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, KeyStat)> + '_ {
        Iter(
            self.shards
                .iter()
                .map(|shard| (order(shard[0].0), &shard[..]))
                .collect(),
        )
    }

    /// Total computation cost across all keys.
    pub fn total_cost(&self) -> u64 {
        self.records().map(|(_, s)| s.cost).sum()
    }
}

/// [`IntervalStats::iter`]: a k-way merge of sealed shards, holding each
/// unfinished shard's rest with the [`order`] of its head.
struct Iter<'a>(Vec<(u64, &'a [(Key, KeyStat)])>);

impl Iterator for Iter<'_> {
    type Item = (Key, KeyStat);

    fn next(&mut self) -> Option<(Key, KeyStat)> {
        let heads = &mut self.0;
        let least = heads.iter().map(|&(o, _)| o).min()?;
        let mut out: Option<(Key, KeyStat)> = None;
        let mut i = 0;
        while i < heads.len() {
            let (o, rest) = &mut heads[i];
            if let (true, [(key, s), tail @ ..]) = (*o == least, &**rest) {
                out.get_or_insert((*key, KeyStat::default())).1 += *s;
                *rest = tail;
                match tail.first() {
                    Some(&(next, _)) => *o = order(next),
                    None => {
                        heads.swap_remove(i);
                        continue;
                    }
                }
            }
            i += 1;
        }
        out
    }
}

/// Sums repeated keys and seals the result as one shard.
impl FromIterator<(Key, KeyStat)> for IntervalStats {
    fn from_iter<T: IntoIterator<Item = (Key, KeyStat)>>(iter: T) -> Self {
        let mut acc: FxHashMap<Key, KeyStat> = FxHashMap::default();
        for (key, stat) in iter {
            *acc.entry(key).or_default() += stat;
        }
        IntervalStats {
            shards: seal_records(acc.len(), acc.iter().map(|(&k, &s)| (k, s))),
            provisional: false,
        }
    }
}

/// One live key of the window.
#[derive(Debug, Clone, Copy)]
struct Row {
    key: Key,
    /// `cᵢ(k)` as of push `reported`; see [`Row::cost_at`].
    cost: u64,
    /// The running windowed sum `Sᵢ(k, w)`.
    mem: u64,
    /// Cached `F(k)`, or [`Row::SPLIT`].
    current: TaskId,
    /// Cached `h(k)`.
    hash_dest: TaskId,
    /// Retained intervals that reported the key; zero marks a free slot.
    refs: u32,
    /// The push (modulo 2³²) that last reported the key.
    reported: u32,
}

impl Row {
    /// `current` of a split key. It rotates over its replicas, so it has
    /// no single placement: it counts toward no task's load and yields
    /// no record.
    const SPLIT: TaskId = TaskId(u32::MAX);

    fn is_split(&self) -> bool {
        self.current == Self::SPLIT
    }

    /// `cᵢ(k)` when `push` is the latest interval: the stored cost if
    /// that interval reported the key, zero otherwise. (A stamp can only
    /// alias after 2³² pushes without a report, far beyond any window.)
    fn cost_at(&self, push: u32) -> u64 {
        if self.reported == push {
            self.cost
        } else {
            0
        }
    }
}

/// `(F(k), h(k))` under `f`, with [`Row::SPLIT`] for a split key — which
/// is never routed: that would advance its rotation cursor.
fn resolve(key: Key, f: &AssignmentFn) -> (TaskId, TaskId) {
    let h = f.hash_route(key);
    if f.split_replicas(key).is_some() {
        (Row::SPLIT, h)
    } else {
        (f.route(key), h)
    }
}

/// What one retained interval contributed: the rows it reported and the
/// state bytes it added to each, subtracted again on eviction.
#[derive(Debug, Clone)]
struct Delta {
    rows: Vec<u32>,
    /// Per-row state bytes, parallel to `rows`: four bytes each in an
    /// interval whose every `sᵢ(k)` fits 32 bits — any realistic one.
    mems: Cells,
}

/// The `Key → row` index: an open-addressed table (linear probing,
/// backward-shift deletion). A slot packs the row id with the low 32 bits
/// of the key's hash — keys themselves live in the rows — so it costs
/// eight bytes where an `FxHashMap<Key, u32>` bucket costs seventeen, a
/// probe touches a row only on a hash match, and growing or closing a
/// gap never touches the rows at all.
///
/// The hash is the top half of a key's [`order`], and a key's home slot
/// is that hash's top bits, scaled to the table: sealed shards are
/// sorted in the same order, so folding one sweeps this table front to
/// back instead of probing it at random (measured: half the fold time
/// at 76 k keys), at every table size.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    /// `hash << 32 | row` per slot, [`RowIndex::EMPTY`] when vacant. The
    /// length is zero or a power of two, at most three quarters occupied.
    slots: Vec<u64>,
    len: usize,
}

impl RowIndex {
    /// No row has id `u32::MAX` (see [`StatsWindow::row_of`]).
    const EMPTY: u64 = u64::MAX;

    #[inline]
    fn hash(key: Key) -> u32 {
        (order(key) >> 32) as u32
    }

    /// The slot a probe for `hash` starts at (`slots` is non-empty): the
    /// hash's top `log₂ len` bits, so homes ascend with the hash.
    #[inline]
    fn home(&self, hash: u32) -> usize {
        ((u64::from(hash) * self.slots.len() as u64) >> 32) as usize
    }

    #[inline]
    fn next(&self, slot: usize) -> usize {
        (slot + 1) & (self.slots.len() - 1)
    }

    /// The slot holding `key`'s row id, if indexed.
    fn slot_of(&self, key: Key, rows: &[Row]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = Self::hash(key);
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot == Self::EMPTY {
                return None;
            }
            if (slot >> 32) as u32 == hash && rows[slot as u32 as usize].key == key {
                return Some(i);
            }
            i = self.next(i);
        }
    }

    fn get(&self, key: Key, rows: &[Row]) -> Option<u32> {
        self.slot_of(key, rows).map(|i| self.slots[i] as u32)
    }

    /// Indexes `key → row`; `key` must not be indexed yet.
    fn insert(&mut self, key: Key, row: u32) {
        self.reserve(self.len + 1);
        self.place(u64::from(Self::hash(key)) << 32 | u64::from(row));
        self.len += 1;
    }

    /// Grows the table, if need be, to hold `keys` entries at most three
    /// quarters full.
    fn reserve(&mut self, keys: usize) {
        if keys * 4 <= self.slots.len() * 3 {
            return;
        }
        let size = (keys * 4).div_ceil(3).next_power_of_two().max(16);
        for slot in std::mem::replace(&mut self.slots, vec![Self::EMPTY; size]) {
            if slot != Self::EMPTY {
                self.place(slot);
            }
        }
    }

    fn place(&mut self, slot: u64) {
        let mut i = self.home((slot >> 32) as u32);
        while self.slots[i] != Self::EMPTY {
            i = self.next(i);
        }
        self.slots[i] = slot;
    }

    /// Drops `key` from the index, closing the gap it leaves: every later
    /// entry of the probe run moves back unless that would put it ahead
    /// of its home slot.
    fn remove(&mut self, key: Key, rows: &[Row]) {
        let Some(mut hole) = self.slot_of(key, rows) else {
            return;
        };
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = self.next(j);
            let slot = self.slots[j];
            if slot == Self::EMPTY {
                break;
            }
            let from_home = j.wrapping_sub(self.home((slot >> 32) as u32)) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = Self::EMPTY;
        self.len -= 1;
    }
}

/// The windowed key table: the last `w` interval reports folded into one
/// row per live key.
///
/// Provides `Sᵢ(k, w)` (windowed memory), the last interval's costs and
/// the per-task loads they add up to — exactly the inputs the rebalance
/// optimization is allowed to use (the plan for `Tᵢ` is computed from
/// `Tᵢ₋₁` and the window, §II-B). See the module docs for what each
/// operation costs and who keeps the cached routes fresh.
#[derive(Debug, Clone)]
pub struct StatsWindow {
    window: usize,
    index: RowIndex,
    rows: Vec<Row>,
    /// Free slots of `rows`, reused before the vector grows.
    free: Vec<u32>,
    /// Retained intervals, oldest first.
    intervals: VecDeque<Delta>,
    /// What the latest push contributed, when it was provisional: undone
    /// by the next push, which takes over its stamp.
    provisional: Option<Delta>,
    /// `Lᵢ(d, F)` over the unsplit rows, indexed by task.
    loads: Vec<u64>,
    /// Live rows currently flagged split.
    split_rows: usize,
    /// Pushes so far, modulo 2³²: the stamp of the latest interval.
    pushes: u32,
}

impl StatsWindow {
    /// Creates a window retaining the last `w ≥ 1` intervals.
    ///
    /// # Panics
    /// Panics if `w == 0` — a stateful operator keeps at least the current
    /// interval's state.
    pub fn new(w: usize) -> Self {
        assert!(w >= 1, "window must hold at least one interval");
        StatsWindow {
            window: w,
            index: RowIndex::default(),
            rows: Vec::new(),
            free: Vec::new(),
            intervals: VecDeque::new(),
            provisional: None,
            loads: Vec::new(),
            split_rows: 0,
            pushes: 0,
        }
    }

    /// The configured window length `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of intervals currently held (≤ `w`).
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when no interval has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Pushes the newest interval, routing first-seen keys under `f`, and
    /// evicts the `w+1`-old one ("the task instance erases the state from
    /// interval `Tᵢ₋w`", §II-A).
    ///
    /// A provisional report (see [`IntervalStats::is_provisional`]) is
    /// folded in as the latest interval — loads, costs and `Sᵢ(k, w)` all
    /// see it — but evicts nothing and is *superseded* by the next push:
    /// that push first subtracts what the provisional one added and then
    /// lands in the same slot, under the same stamp. After the closing
    /// report the window therefore equals one that never saw the
    /// provisional report at all.
    pub fn push(&mut self, stats: IntervalStats, f: &AssignmentFn) {
        if self.loads.len() != f.n_tasks() {
            self.reroute_all(f);
        }
        // Rows left without a reference, kept until after the fold: a key
        // the new report names again keeps its row and its cached route.
        let mut unreferenced = Vec::new();
        let mut release = |rows: &mut [Row], delta: Delta| {
            for (i, &r) in delta.rows.iter().enumerate() {
                let row = &mut rows[r as usize];
                row.mem -= delta.mems.get(i);
                row.refs -= 1;
                if row.refs == 0 {
                    unreferenced.push(r);
                }
            }
        };
        match self.provisional.take() {
            // Superseding: the stamp stays, so every cost the
            // provisional report set must be retired by hand.
            Some(undone) => {
                for &r in &undone.rows {
                    self.rows[r as usize].reported = self.pushes.wrapping_sub(1);
                }
                release(&mut self.rows, undone);
            }
            // Load is the latest interval's cost only. Restamping retires
            // every older cost at once, without visiting the rows that
            // carried it.
            None => self.pushes = self.pushes.wrapping_add(1),
        }
        self.loads.fill(0);
        // Retire the oldest interval before the new one is folded in, so
        // its delta is freed before the new one is allocated.
        if !stats.is_provisional() && self.intervals.len() == self.window {
            if let Some(old) = self.intervals.pop_front() {
                release(&mut self.rows, old);
            }
        }
        let held = stats.records_held();
        // A shard's new keys arrive in home order. In a table smaller than
        // the shard they would pile into one probe run, each probing past
        // all the others; sized first, their homes outrun the run.
        self.index.reserve(held);
        let mut delta = Delta {
            rows: Vec::with_capacity(held),
            mems: Cells::with_capacity(held),
        };
        // Shard by shard, each one a front-to-back sweep of the index. A
        // key several shards name adds up in its row: no row carries the
        // new stamp before this fold, so `cost_at` reads a repeat's
        // running sum and a first report's zero.
        for (key, s) in stats.records() {
            let r = self.row_of(key, f);
            let row = &mut self.rows[r as usize];
            row.refs += 1;
            row.mem += s.mem;
            row.cost = row.cost_at(self.pushes) + s.cost;
            row.reported = self.pushes;
            if !row.is_split() {
                self.loads[row.current.index()] += s.cost;
            }
            delta.rows.push(r);
            delta.mems.push(s.mem);
        }
        if stats.is_provisional() {
            self.provisional = Some(delta);
        } else {
            self.intervals.push_back(delta);
        }
        // A row disappears exactly when the last report that named its
        // key is gone. It carries no load: only the newest report's keys
        // do, and each of those is referenced.
        for r in unreferenced {
            let row = self.rows[r as usize];
            if row.refs == 0 {
                self.index.remove(row.key, &self.rows);
                self.split_rows -= usize::from(row.is_split());
                self.free.push(r);
            }
        }
    }

    /// The row of `key`, created under `f` when the key is new.
    fn row_of(&mut self, key: Key, f: &AssignmentFn) -> u32 {
        if let Some(r) = self.index.get(key, &self.rows) {
            return r;
        }
        let (current, hash_dest) = resolve(key, f);
        let row = Row {
            key,
            cost: 0,
            mem: 0,
            current,
            hash_dest,
            refs: 0,
            reported: self.pushes,
        };
        let r = match self.free.pop() {
            Some(r) => {
                self.rows[r as usize] = row;
                r
            }
            None => {
                assert!(
                    self.rows.len() < u32::MAX as usize,
                    "window row ids are 32-bit"
                );
                self.rows.push(row);
                (self.rows.len() - 1) as u32
            }
        };
        self.index.insert(key, r);
        self.split_rows += usize::from(row.is_split());
        r
    }

    /// Re-reads the cached route of each of `keys` from `f` — the
    /// invalidation for an assignment mutation that touched exactly those
    /// keys (plan moves, roll-backs, dead-slot re-pins, split/unsplit).
    /// Keys without a row are skipped.
    pub fn reroute(&mut self, keys: impl IntoIterator<Item = Key>, f: &AssignmentFn) {
        for key in keys {
            let Some(r) = self.index.get(key, &self.rows) else {
                continue;
            };
            let row = &mut self.rows[r as usize];
            let cost = row.cost_at(self.pushes);
            if !row.is_split() {
                self.loads[row.current.index()] -= cost;
            }
            self.split_rows -= usize::from(row.is_split());
            (row.current, row.hash_dest) = resolve(key, f);
            self.split_rows += usize::from(row.is_split());
            if !row.is_split() {
                self.loads[row.current.index()] += cost;
            }
        }
    }

    /// Re-reads every cached route from `f` and re-derives the load
    /// vector at `f`'s task count — the invalidation for a ring change
    /// (scale-out/in), after which any key's `h(k)` may differ.
    pub fn reroute_all(&mut self, f: &AssignmentFn) {
        self.loads.clear();
        self.loads.resize(f.n_tasks(), 0);
        self.split_rows = 0;
        for row in self.rows.iter_mut().filter(|r| r.refs > 0) {
            (row.current, row.hash_dest) = resolve(row.key, f);
            if row.is_split() {
                self.split_rows += 1;
            } else {
                self.loads[row.current.index()] += row.cost_at(self.pushes);
            }
        }
    }

    /// The rows some retained interval references.
    fn live_rows(&self) -> impl Iterator<Item = &Row> + Clone + '_ {
        self.rows.iter().filter(|r| r.refs > 0)
    }

    /// Per-task load `Lᵢ(d, F)` of the latest interval under the cached
    /// routes, split keys excluded — what [`StatsWindow::records`] would
    /// sum to, without building them.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// True when [`StatsWindow::records`] would be non-empty.
    pub fn has_records(&self) -> bool {
        self.index.len > self.split_rows
    }

    /// The union of `live` with every key in the window, deduplicated and
    /// sorted — the state-bearing key set scale-out pre-placement plans
    /// over. `live` is typically the just-closed interval's observations,
    /// which on a loaded box can be an arbitrarily thin slice of the
    /// keyspace (statistics rounds blur when the controller lags), while
    /// the window names every key that recently carried state.
    pub fn union_keys(&self, live: impl IntoIterator<Item = Key>) -> Vec<Key> {
        let mut keys: Vec<Key> = self.live_rows().map(|r| r.key).collect();
        keys.extend(live);
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Windowed memory `Sᵢ(k, w)` — the migration cost contribution of `k`.
    pub fn windowed_mem(&self, key: Key) -> u64 {
        self.index
            .get(key, &self.rows)
            .map_or(0, |r| self.rows[r as usize].mem)
    }

    /// Materialises the flat per-key records the rebalance algorithms
    /// consume: cost from the latest interval, memory summed over the
    /// window, current and hash destinations from the cached routes.
    /// Split keys are left out (no single placement for a plan to move).
    ///
    /// Keys observed only in older intervals (state still alive, but no
    /// fresh tuples) are included with zero cost: their state still has to
    /// move if the key is reassigned, and the optimizer must know that.
    pub fn records(&self) -> Vec<KeyRecord> {
        let mut out = Vec::with_capacity(self.index.len - self.split_rows);
        out.extend(self.live_records());
        // Deterministic order for reproducible plans.
        out.sort_unstable_by_key(|r| r.key);
        out
    }

    /// The rows of a bounded arena over [`StatsWindow::records`]: every
    /// routing-table entry and, per task `d`, the first `m[d]` other
    /// keys of `d` in `criteria`'s order, the rest of `d` folded into its
    /// totals. Two passes over the rows, holding no more than it
    /// selects.
    pub(crate) fn select(&self, criteria: Criteria, m: &[usize]) -> Selection {
        debug_assert_eq!(m.len(), self.loads.len());
        Selection::new(self.live_records(), criteria, m)
    }

    /// [`StatsWindow::records`], in row order.
    fn live_records(&self) -> impl Iterator<Item = KeyRecord> + Clone + '_ {
        self.live_rows()
            .filter(|r| !r.is_split())
            .map(|r| KeyRecord {
                key: r.key,
                cost: r.cost_at(self.pushes),
                mem: r.mem,
                current: r.current,
                hash_dest: r.hash_dest,
            })
    }
}

/// The assignment function together with the statistics window routed
/// under it — the controller-side state every table-backed partitioner
/// keeps. Owning both is what makes the window's cached routes safe:
/// every mutation of the assignment goes through a method here, and each
/// one invalidates exactly the routes it changed.
#[derive(Debug)]
pub struct StatsPlane {
    assignment: AssignmentFn,
    window: StatsWindow,
}

impl StatsPlane {
    /// Hash-only assignment over `n_tasks` instances and an empty window
    /// of `w` intervals.
    pub fn new(n_tasks: usize, w: usize) -> Self {
        let assignment = AssignmentFn::hash_only(n_tasks);
        let mut window = StatsWindow::new(w);
        // Sizes the load vector, so `loads` answers before the first push.
        window.reroute_all(&assignment);
        StatsPlane { assignment, window }
    }

    /// The live assignment function.
    pub fn assignment(&self) -> &AssignmentFn {
        &self.assignment
    }

    /// The statistics window.
    pub fn window(&self) -> &StatsWindow {
        &self.window
    }

    /// Folds one interval's statistics into the window.
    pub fn push(&mut self, stats: IntervalStats) {
        self.window.push(stats, &self.assignment);
    }

    /// Load summary of the latest interval under the current assignment
    /// — `O(n_tasks)`, the trigger check's whole input.
    pub fn loads(&self) -> LoadSummary {
        LoadSummary::new(self.window.loads().to_vec())
    }

    /// Installs a rebalance outcome (see
    /// [`AssignmentFn::install_rebalance`]); the moved keys' cached
    /// routes follow the plan. Returns whether the delta sufficed.
    pub fn install_rebalance(&mut self, table: &RoutingTable, plan_moves: &[Move]) -> bool {
        let delta = self.assignment.install_rebalance(table, plan_moves);
        // A resync only drops entries of keys outside the plan's records:
        // departed keys (no row) and split keys (re-read on unsplit).
        self.window
            .reroute(plan_moves.iter().map(|m| m.key), &self.assignment);
        delta
    }

    /// Applies an explicit move list (see [`AssignmentFn::apply_delta`]).
    pub fn apply_moves(&mut self, moves: &[(Key, TaskId)]) {
        self.assignment.apply_delta(moves.iter().copied());
        self.window
            .reroute(moves.iter().map(|&(k, _)| k), &self.assignment);
    }

    /// Re-pins a dead slot's explicit entries onto survivors (see
    /// [`AssignmentFn::repin_dead`]) and returns the applied moves.
    pub fn reroute_dead(
        &mut self,
        dead: TaskId,
        is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        let moves = self.assignment.repin_dead(dead, is_dead);
        self.window
            .reroute(moves.iter().map(|&(k, _)| k), &self.assignment);
        moves
    }

    /// Adds a downstream instance (see [`AssignmentFn::add_task`]).
    pub fn add_task(&mut self) -> TaskId {
        let new = self.assignment.add_task();
        self.window.reroute_all(&self.assignment);
        new
    }

    /// Scale-out reporting ring churn as pre-placement moves (see
    /// [`AssignmentFn::add_task_with_moves`]). The plan covers the union
    /// of `live` and every key in the window
    /// ([`StatsWindow::union_keys`]) — exactly the set whose placement
    /// the plan must keep truthful, however thin a keyspace slice the
    /// last single (possibly blurred) round observed.
    pub fn scale_out_plan(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        let live = self.window.union_keys(live.iter().copied());
        let planned = self.assignment.add_task_with_moves(&live);
        self.window.reroute_all(&self.assignment);
        planned
    }

    /// Scale-in retiring the highest-numbered instance (see
    /// [`AssignmentFn::remove_task_pinned`]).
    ///
    /// # Panics
    /// Panics if `victim` is not the last task or only one task remains.
    pub fn scale_in(&mut self, victim: TaskId, live: &[Key]) {
        assert_eq!(
            victim.index(),
            self.assignment.n_tasks() - 1,
            "scale-in retires the highest-numbered task"
        );
        self.assignment.remove_task_pinned(live);
        self.window.reroute_all(&self.assignment);
    }

    /// Flags `key` as split over `replicas` (see
    /// [`AssignmentFn::set_split`]); its load leaves the window's totals.
    pub fn split_key(&mut self, key: Key, replicas: &[TaskId]) -> bool {
        let installed = self.assignment.set_split(key, replicas);
        self.window.reroute([key], &self.assignment);
        installed
    }

    /// Dissolves `key`'s split (see [`AssignmentFn::clear_split`]); the
    /// key re-enters the loads and records under its table/hash route.
    pub fn unsplit_key(&mut self, key: Key) -> Option<Vec<TaskId>> {
        let replicas = self.assignment.clear_split(key);
        self.window.reroute([key], &self.assignment);
        replicas
    }
}

/// One key's rebalance-relevant view: the unit the algorithms operate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRecord {
    /// The key.
    pub key: Key,
    /// Computation cost `cᵢ₋₁(k)` from the last interval.
    pub cost: u64,
    /// Windowed state size `Sᵢ₋₁(k, w)` — what migration of this key costs.
    pub mem: u64,
    /// Current destination `F(k)` under the active assignment.
    pub current: TaskId,
    /// Hash destination `h(k)`; `F(k) ≠ h(k)` ⇔ the key occupies a routing
    /// table entry.
    pub hash_dest: TaskId,
}

impl KeyRecord {
    /// The migration-priority index `γᵢ(k, w) = cᵢ(k)^β / Sᵢ(k, w)`
    /// (paper §III-B). Higher means "cheap to move per unit of load
    /// shifted". Zero-memory keys get `+∞` — moving them is free.
    #[inline]
    pub fn gamma(&self, beta: f64) -> f64 {
        if self.mem == 0 {
            return f64::INFINITY;
        }
        (self.cost as f64).powf(beta) / self.mem as f64
    }

    /// Whether this key occupies a routing-table entry.
    #[inline]
    pub fn in_table(&self) -> bool {
        self.current != self.hash_dest
    }
}

/// The `w`-interval-maps window this table replaced, kept as the oracle:
/// every answer is recomputed from the retained reports and a fresh route.
#[cfg(test)]
pub(crate) struct NaiveWindow {
    window: usize,
    intervals: VecDeque<IntervalStats>,
    /// The latest report while it is provisional; the next push drops it.
    provisional: Option<IntervalStats>,
}

#[cfg(test)]
impl NaiveWindow {
    pub(crate) fn new(w: usize) -> Self {
        NaiveWindow {
            window: w,
            intervals: VecDeque::new(),
            provisional: None,
        }
    }

    pub(crate) fn push(&mut self, stats: IntervalStats) {
        if stats.is_provisional() {
            self.provisional = Some(stats);
            return;
        }
        self.provisional = None;
        if self.intervals.len() == self.window {
            self.intervals.pop_front();
        }
        self.intervals.push_back(stats);
    }

    /// Every report in the window, oldest first.
    fn reports(&self) -> impl Iterator<Item = &IntervalStats> + '_ {
        self.intervals.iter().chain(&self.provisional)
    }

    pub(crate) fn union_keys(&self, live: impl IntoIterator<Item = Key>) -> Vec<Key> {
        let mut seen: streambal_hashring::FxHashSet<Key> = live.into_iter().collect();
        for iv in self.reports() {
            seen.extend(iv.iter().map(|(k, _)| k));
        }
        let mut keys: Vec<Key> = seen.into_iter().collect();
        keys.sort_unstable();
        keys
    }

    pub(crate) fn windowed_mem(&self, key: Key) -> u64 {
        self.reports()
            .filter_map(|iv| iv.get(key))
            .map(|s| s.mem)
            .sum()
    }

    pub(crate) fn records(&self, f: &AssignmentFn) -> Vec<KeyRecord> {
        let mut mem: FxHashMap<Key, u64> = FxHashMap::default();
        for iv in self.reports() {
            for (k, s) in iv.iter() {
                *mem.entry(k).or_insert(0) += s.mem;
            }
        }
        let latest = self.reports().last();
        let mut out: Vec<KeyRecord> = mem
            .into_iter()
            .filter(|&(k, _)| f.split_replicas(k).is_none())
            .map(|(k, m)| KeyRecord {
                key: k,
                cost: latest.and_then(|iv| iv.get(k)).map_or(0, |s| s.cost),
                mem: m,
                current: f.route(k),
                hash_dest: f.hash_route(k),
            })
            .collect();
        out.sort_unstable_by_key(|r| r.key);
        out
    }

    pub(crate) fn loads(&self, f: &AssignmentFn) -> Vec<u64> {
        crate::load::loads_of(&self.records(f), f.n_tasks()).loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: u64) -> Key {
        Key(v)
    }

    fn one_task() -> AssignmentFn {
        AssignmentFn::hash_only(1)
    }

    /// One report of `(key, freq, cost, mem)` observations.
    fn report(obs: &[(u64, u64, u64, u64)]) -> IntervalStats {
        obs.iter()
            .map(|&(key, freq, cost, mem)| (k(key), KeyStat::new(freq, cost, mem)))
            .collect()
    }

    #[test]
    fn collect_sums_repeated_keys() {
        let iv = report(&[(1, 1, 10, 100), (1, 2, 20, 200)]);
        assert_eq!(
            iv.get(k(1)),
            Some(KeyStat {
                freq: 3,
                cost: 30,
                mem: 300
            })
        );
        assert_eq!(iv.len(), 1);
        assert_eq!(iv.total_cost(), 30);
    }

    #[test]
    fn merge_adds_shards() {
        let mut a = report(&[(1, 1, 5, 0)]);
        let mut acc = StatsAccumulator::new(5);
        acc.add(k(1), 1, 0);
        acc.add(k(2), 1, 3);
        acc.add(k(2), 2, 4);
        a.absorb(acc.seal());
        assert!(acc.is_empty(), "sealing empties the accumulator");
        assert_eq!(a.get(k(1)).unwrap().cost, 10);
        assert_eq!(a.get(k(2)), Some(KeyStat::new(3, 15, 7)));
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_cost(), 25);
    }

    /// A key's tuple count and state bytes crossing `u32::MAX` widen the
    /// accumulator and read back exactly: in the sealed report and in a
    /// peek, for the key that crossed and for every other key; sealing
    /// leaves it narrow and empty.
    #[test]
    fn accumulator_is_exact_past_32_bits() {
        const BIG: u64 = u32::MAX as u64;
        for (freq, mem) in [(BIG, 1), (1, BIG), (BIG, BIG)] {
            let mut acc = StatsAccumulator::new(3);
            acc.add(k(1), 1, 8);
            acc.add(k(2), freq, mem);
            assert!(matches!(acc.pairs, Pairs::Narrow(_)), "u32::MAX still fits");
            acc.add(k(2), 1, 1);
            assert!(matches!(acc.pairs, Pairs::Wide(_)));
            acc.add(k(2), BIG, BIG);
            acc.add(k(3), 2, 16);
            let want = [
                (k(1), KeyStat::new(1, 3, 8)),
                (
                    k(2),
                    KeyStat::new(freq + 1 + BIG, 3 * (freq + 1 + BIG), mem + 1 + BIG),
                ),
                (k(3), KeyStat::new(2, 6, 16)),
            ];
            for report in [acc.peek(), acc.seal()] {
                for (key, stat) in want {
                    assert_eq!(report.get(key), Some(stat));
                }
                assert_eq!(report.len(), 3);
            }
            assert!(acc.is_empty());
            assert!(matches!(acc.pairs, Pairs::Narrow(_)), "sealed is narrow");
            acc.add(k(1), 1, 1);
            assert_eq!(acc.seal().get(k(1)), Some(KeyStat::new(1, 3, 1)));
        }
    }

    #[test]
    fn window_evicts_old_intervals() {
        let f = one_task();
        let mut w = StatsWindow::new(2);
        for mem in [10u64, 20, 40] {
            w.push(report(&[(1, 1, 1, mem)]), &f);
        }
        // Window keeps the last two: 20 + 40.
        assert_eq!(w.windowed_mem(k(1)), 60);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn windowed_mem_sums_only_present_intervals() {
        let f = one_task();
        let mut w = StatsWindow::new(5);
        w.push(report(&[(9, 1, 1, 33)]), &f);
        w.push(IntervalStats::new(), &f);
        assert_eq!(w.windowed_mem(k(9)), 33);
        assert_eq!(w.windowed_mem(k(8)), 0);
    }

    #[test]
    fn records_include_stale_state_keys_with_zero_cost() {
        let f = one_task();
        let mut w = StatsWindow::new(3);
        w.push(report(&[(1, 5, 50, 500)]), &f); // active earlier
        w.push(report(&[(2, 1, 10, 100)]), &f); // active now

        let recs = w.records();
        assert_eq!(recs.len(), 2);
        let r1 = recs.iter().find(|r| r.key == k(1)).unwrap();
        assert_eq!(r1.cost, 0, "stale key contributes no load");
        assert_eq!(r1.mem, 500, "but its state still must move");
        let r2 = recs.iter().find(|r| r.key == k(2)).unwrap();
        assert_eq!(r2.cost, 10);
        assert_eq!(r2.mem, 100);
        assert_eq!(w.loads(), [10]);
    }

    #[test]
    fn records_sorted_by_key() {
        let mut w = StatsWindow::new(1);
        w.push(
            report(&[(5, 1, 1, 1), (1, 1, 1, 1), (9, 1, 1, 1), (3, 1, 1, 1)]),
            &one_task(),
        );
        let keys: Vec<u64> = w.records().iter().map(|r| r.key.raw()).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    /// Seeded `mix64` stream — this crate has no `rand`.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(1);
            streambal_hashring::mix64(self.0) % n
        }
    }

    fn random_interval(rng: &mut Lcg, domain: u64) -> IntervalStats {
        let mut obs = Vec::new();
        // One interval in six reports nothing at all.
        if rng.below(6) > 0 {
            // A sliding sub-range makes keys vanish and reappear.
            let base = rng.below(domain);
            for _ in 0..rng.below(domain / 2) {
                let key = (base + rng.below(domain / 2)) % domain;
                // Zero cost and zero memory are legal reports, and so is
                // a state size past 32 bits.
                let huge = u64::from(rng.below(200) == 0) << 32;
                obs.push((key, 1, rng.below(50), huge + rng.below(30)));
            }
        }
        report(&obs)
    }

    fn assert_matches(table: &StatsWindow, naive: &NaiveWindow, f: &AssignmentFn, domain: u64) {
        assert_eq!(table.records(), naive.records(f));
        assert_eq!(table.loads(), naive.loads(f));
        assert_eq!(table.has_records(), !naive.records(f).is_empty());
        let live = [k(domain + 1), k(0), k(domain + 1)];
        assert_eq!(table.union_keys(live), naive.union_keys(live));
        assert_eq!(table.index.len, naive.union_keys([]).len());
        for key in 0..domain {
            assert_eq!(table.windowed_mem(k(key)), naive.windowed_mem(k(key)));
        }
    }

    /// Push/evict alone, against a fixed assignment: every answer equals
    /// the naive recompute after every push, for short and long windows.
    #[test]
    fn table_matches_naive_window_under_push_and_evict() {
        const DOMAIN: u64 = 60;
        for w in [1usize, 2, 5, 100] {
            let mut rng = Lcg(w as u64);
            let mut f = AssignmentFn::hash_only(3);
            f.insert_entries((0..DOMAIN).step_by(7).map(|key| (k(key), TaskId(2))));
            f.set_split(k(11), &[TaskId(0), TaskId(1)]);
            let mut table = StatsWindow::new(w);
            let mut naive = NaiveWindow::new(w);
            for _ in 0..(3 * w + 20) {
                let iv = random_interval(&mut rng, DOMAIN);
                naive.push(iv.clone());
                table.push(iv, &f);
                assert_matches(&table, &naive, &f, DOMAIN);
            }
        }
    }

    /// Every assignment mutation [`StatsPlane`] offers, interleaved with
    /// pushes: the cached routes never drift from a fresh recompute.
    #[test]
    fn plane_invalidates_exactly_what_mutations_change() {
        const DOMAIN: u64 = 300;
        for w in [1usize, 2, 5, 100] {
            let mut rng = Lcg(1000 + w as u64);
            let mut plane = StatsPlane::new(3, w);
            let mut naive = NaiveWindow::new(w);
            let mut resyncs = 0;
            for step in 0..160 {
                let iv = random_interval(&mut rng, DOMAIN);
                naive.push(iv.clone());
                plane.push(iv);
                let n = plane.assignment().n_tasks() as u64;
                let key = k(rng.below(DOMAIN));
                let live: Vec<Key> = (0..rng.below(10)).map(|_| k(rng.below(DOMAIN))).collect();
                match rng.below(9) {
                    0 => {
                        // Half the moved keys are never reported: their
                        // entries are the stale ones a resync drops.
                        let moves: Vec<(Key, TaskId)> = (0..rng.below(60))
                            .map(|_| (k(rng.below(2 * DOMAIN)), TaskId(rng.below(n) as u32)))
                            .collect();
                        plane.apply_moves(&moves);
                    }
                    1 => {
                        // A plan over the live records, installed as the
                        // rebalancer would. One in three sends every key
                        // home, which empties the outcome table and so
                        // forces the resync install once stale entries
                        // have piled up.
                        let records = plane.window().records();
                        let all_home = rng.below(3) == 0;
                        let assign: Vec<TaskId> = records
                            .iter()
                            .map(|r| match rng.below(4) {
                                _ if all_home => r.hash_dest,
                                0 => TaskId(rng.below(n) as u32),
                                _ => r.current,
                            })
                            .collect();
                        let table: RoutingTable = records
                            .iter()
                            .zip(&assign)
                            .filter(|&(r, &d)| d != r.hash_dest)
                            .map(|(r, &d)| (r.key, d))
                            .collect();
                        let moves: Vec<Move> = records
                            .iter()
                            .zip(&assign)
                            .filter(|&(r, &d)| d != r.current)
                            .map(|(r, &d)| Move {
                                key: r.key,
                                from: r.current,
                                to: d,
                                state_bytes: r.mem,
                            })
                            .collect();
                        resyncs += usize::from(!plane.install_rebalance(&table, &moves));
                    }
                    2 => {
                        let dead = rng.below(n) as usize;
                        plane.reroute_dead(TaskId(dead as u32), &|d| d == dead);
                    }
                    3 if n < 6 => {
                        plane.scale_out_plan(&live);
                    }
                    4 if n < 6 => {
                        // Table-then-hash, past the split layer: a split
                        // key's `route` rotates, its holder does not.
                        let unsplit_route = |f: &AssignmentFn, key| {
                            f.table().lookup(key).unwrap_or(f.hash_route(key))
                        };
                        let before = naive.union_keys(live.iter().copied());
                        let holders: Vec<TaskId> = before
                            .iter()
                            .map(|&key| unsplit_route(plane.assignment(), key))
                            .collect();
                        let (new, moves) = plane.scale_out_plan(&live);
                        // The plan is judged over the window's keys too.
                        for (key, holder) in moves {
                            let i = before.binary_search(&key).unwrap();
                            assert_eq!(holder, holders[i]);
                            assert_eq!(unsplit_route(plane.assignment(), key), new);
                        }
                    }
                    5 if n > 2 => plane.scale_in(TaskId(n as u32 - 1), &live),
                    6 => {
                        let replicas = [TaskId(0), TaskId(1 + rng.below(n - 1) as u32)];
                        assert!(plane.split_key(key, &replicas));
                    }
                    7 => {
                        for (key, _) in plane.assignment().splits() {
                            assert!(plane.unsplit_key(key).is_some());
                        }
                    }
                    _ if step % 2 == 0 => {
                        plane.add_task();
                    }
                    _ => {}
                }
                assert_matches(plane.window(), &naive, plane.assignment(), DOMAIN);
                assert_eq!(plane.loads().loads, naive.loads(plane.assignment()));
            }
            assert!(resyncs > 0, "w={w}: the resync install never ran");
        }
    }

    /// An assignment mutation drawn once and applied to two planes.
    enum Mutation {
        Moves(Vec<(Key, TaskId)>),
        Split(Key, [TaskId; 2]),
        UnsplitAll,
        AddTask,
        ScaleIn(Vec<Key>),
        Nothing,
    }

    fn random_mutation(rng: &mut Lcg, domain: u64, n: u64) -> Mutation {
        match rng.below(7) {
            0 => Mutation::Moves(
                (0..rng.below(40))
                    .map(|_| (k(rng.below(domain)), TaskId(rng.below(n) as u32)))
                    .collect(),
            ),
            1 => Mutation::Split(
                k(rng.below(domain)),
                [TaskId(0), TaskId(1 + rng.below(n - 1) as u32)],
            ),
            2 => Mutation::UnsplitAll,
            3 if n < 6 => Mutation::AddTask,
            4 if n > 2 => {
                Mutation::ScaleIn((0..rng.below(10)).map(|_| k(rng.below(domain))).collect())
            }
            _ => Mutation::Nothing,
        }
    }

    fn mutate(plane: &mut StatsPlane, m: &Mutation) {
        match m {
            Mutation::Moves(moves) => plane.apply_moves(moves),
            Mutation::Split(key, replicas) => {
                plane.split_key(*key, replicas);
            }
            Mutation::UnsplitAll => {
                for (key, _) in plane.assignment().splits() {
                    plane.unsplit_key(key);
                }
            }
            Mutation::AddTask => {
                plane.add_task();
            }
            Mutation::ScaleIn(live) => {
                let victim = TaskId(plane.assignment().n_tasks() as u32 - 1);
                plane.scale_in(victim, live);
            }
            Mutation::Nothing => {}
        }
    }

    /// `push(provisional p); push(closing c)` ≡ `push(c)`: a plane that
    /// sees provisional reports (and assignment mutations while one is
    /// live) equals, after every closing report, a plane that was never
    /// shown them — records, loads, windowed memory, row liveness and the
    /// push stamp — and both equal the naive recompute. While the
    /// provisional report is live it *is* the latest interval.
    #[test]
    fn provisional_report_is_superseded_by_the_next_push() {
        const DOMAIN: u64 = 120;
        for w in [1usize, 2, 5, 100] {
            let mut rng = Lcg(7000 + w as u64);
            let mut seen = StatsPlane::new(3, w);
            let mut blind = StatsPlane::new(3, w);
            let mut naive = NaiveWindow::new(w);
            for _ in 0..(3 * w + 60) {
                for _ in 0..rng.below(3) {
                    let p = random_interval(&mut rng, DOMAIN).into_provisional();
                    naive.push(p.clone());
                    seen.push(p);
                    assert_matches(seen.window(), &naive, seen.assignment(), DOMAIN);
                    let n = seen.assignment().n_tasks() as u64;
                    let m = random_mutation(&mut rng, DOMAIN, n);
                    mutate(&mut seen, &m);
                    mutate(&mut blind, &m);
                    assert_matches(seen.window(), &naive, seen.assignment(), DOMAIN);
                }
                let c = random_interval(&mut rng, DOMAIN);
                naive.push(c.clone());
                seen.push(c.clone());
                blind.push(c);
                let n = seen.assignment().n_tasks() as u64;
                let m = random_mutation(&mut rng, DOMAIN, n);
                mutate(&mut seen, &m);
                mutate(&mut blind, &m);
                assert_matches(seen.window(), &naive, seen.assignment(), DOMAIN);
                assert_matches(blind.window(), &naive, blind.assignment(), DOMAIN);
                assert_eq!(seen.window().records(), blind.window().records());
                assert_eq!(seen.window().loads(), blind.window().loads());
                assert_eq!(seen.window().len(), blind.window().len());
                assert_eq!(seen.window().pushes, blind.window().pushes);
                assert_eq!(seen.window().split_rows, blind.window().split_rows);
            }
        }
    }

    /// A row exists exactly as long as some retained interval reported
    /// its key; a vanished key's slot is reused, not leaked.
    #[test]
    fn row_lives_until_its_last_interval_is_evicted() {
        let f = one_task();
        let mut w = StatsWindow::new(3);
        let report = |keys: &[u64]| -> IntervalStats {
            keys.iter()
                .map(|&key| (k(key), KeyStat::new(1, 1, 1)))
                .collect()
        };
        w.push(report(&[1, 2]), &f); // T0
        w.push(report(&[2]), &f); // T1
        w.push(report(&[]), &f); // T2
        assert_eq!(w.index.len, 2);
        w.push(report(&[3]), &f); // T3 evicts T0: key 1's only report
        assert_eq!(w.union_keys([]), vec![k(2), k(3)]);
        assert_eq!(w.windowed_mem(k(1)), 0);
        w.push(report(&[1]), &f); // T4 evicts T1: key 2 goes, key 1 is back
        assert_eq!(w.union_keys([]), vec![k(1), k(3)]);
        assert_eq!(w.rows.len(), 3, "key 1 took a freed slot, not a fourth");
        w.push(report(&[]), &f);
        w.push(report(&[]), &f);
        w.push(report(&[]), &f);
        assert_eq!(w.index.len, 0);
        assert!(!w.has_records());
        assert_eq!(w.loads(), [0]);
    }

    /// A split key counts toward no task's load and yields no record, on
    /// both sides of the flag flipping.
    #[test]
    fn split_keys_leave_loads_and_records_together() {
        let mut plane = StatsPlane::new(2, 2);
        plane.push(report(&[(1, 1, 70, 7), (2, 1, 5, 1)]));
        let total = |p: &StatsPlane| p.window().loads().iter().sum::<u64>();
        assert_eq!(total(&plane), 75);
        assert!(plane.split_key(k(1), &[TaskId(0), TaskId(1)]));
        assert_eq!(total(&plane), 5);
        assert!(plane.window().records().iter().all(|r| r.key != k(1)));
        // Reported while split: still excluded, still windowed.
        plane.push(report(&[(1, 1, 90, 9)]));
        assert_eq!(total(&plane), 0);
        assert_eq!(plane.window().windowed_mem(k(1)), 16);
        assert_eq!(plane.unsplit_key(k(1)), Some(vec![TaskId(0), TaskId(1)]));
        assert_eq!(total(&plane), 90);
        assert_eq!(plane.window().records().len(), 2);
    }

    #[test]
    fn gamma_priority() {
        let rec = |cost, mem| KeyRecord {
            key: k(0),
            cost,
            mem,
            current: TaskId(0),
            hash_dest: TaskId(0),
        };
        // β = 1: γ = c / S.
        assert_eq!(rec(8, 4).gamma(1.0), 2.0);
        // Heavier cost per byte ⇒ higher priority.
        assert!(rec(8, 4).gamma(1.0) > rec(4, 4).gamma(1.0));
        // β = 0.5 de-emphasizes cost: c=7,S=7 → 7^0.5/7 < 1.
        assert!(rec(7, 7).gamma(0.5) < 1.0);
        // Zero memory is free to move.
        assert_eq!(rec(1, 0).gamma(1.5), f64::INFINITY);
    }

    #[test]
    fn in_table_flag() {
        let r = KeyRecord {
            key: k(1),
            cost: 1,
            mem: 1,
            current: TaskId(2),
            hash_dest: TaskId(0),
        };
        assert!(r.in_table());
        let r2 = KeyRecord {
            current: TaskId(0),
            ..r
        };
        assert!(!r2.in_table());
    }

    #[test]
    #[should_panic(expected = "at least one interval")]
    fn zero_window_panics() {
        StatsWindow::new(0);
    }
}
