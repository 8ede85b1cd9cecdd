//! The routing table `A` and the mixed assignment function `F` (Eq. 1).
//!
//! # Hot-path design: one slab, incrementally maintained, batch-routed
//!
//! Routing is the one operation executed *per tuple*; everything else in
//! the framework runs per interval. Three structural decisions keep it
//! fast, from the paper's `Amax = 3000` up to the millions of explicitly
//! routed keys the production regime needs:
//!
//! 1. **The table is stored once, as the slab that is probed.**
//!    [`RoutingTable`] is a flat, power-of-two, open-addressed slot array
//!    (≤ 50% load factor counting tombstones, linear probing) indexed by
//!    the ring's own avalanche primitive ([`streambal_hashring::mix64`] —
//!    see the `RoutingTable` docs for why a full avalanche, not the raw
//!    Fx multiply, is required). A lookup is one short hash, one mask,
//!    and on average about one slot read on a contiguous,
//!    bounds-check-free cache line — no control-byte metadata, no bucket
//!    machinery. The same value is what the rebalance algorithms build
//!    (`RebalanceOutcome::table`), what [`AssignmentFn`] holds, and what
//!    a routing view ships, so installing a whole table anywhere is a
//!    move and every mutation writes exactly one structure.
//!
//! 2. **Maintenance is incremental.** [`RoutingTable::insert`] and
//!    [`RoutingTable::remove`] update the slab in place (removal leaves a
//!    tombstone that keeps probe chains intact), so a rebalance costs
//!    `O(churn)` through [`AssignmentFn::apply_delta`], not `O(N_A)` — at
//!    millions of entries rebuilding the slab is a multi-millisecond
//!    source-stalling pause per mutation. `O(table)` work remains in
//!    exactly two places: (a) a whole-table replacement
//!    ([`AssignmentFn::swap_table`] — the install is a move, but the
//!    replacement had to be built and every other holder must be sent
//!    it), and (b) the **rehash threshold** — when live entries plus
//!    tombstones would exceed the 50% load factor, the slab rehashes into
//!    `(2·(live+1)).next_power_of_two()` slots, clearing tombstones;
//!    amortized `O(1)` per insert. The one table-backed partitioner
//!    ([`crate::Rebalancer`]) uses [`AssignmentFn::install_rebalance`],
//!    which applies the outcome's move list as a delta and falls back to
//!    a swap only when stale entries for departed keys outnumber the
//!    live table (a rare, amortized resync that bounds table growth
//!    under churning key domains).
//!
//! 3. **Routing is batched — and prefetched past L2.**
//!    [`AssignmentFn::route_batch`] routes a slice of keys per call.
//!    Callers (the engine's source loop, the simulator's interval loop)
//!    amortize dispatch and let the compiler pipeline the hash/probe
//!    sequence across independent keys instead of paying a call and a
//!    branch-misprediction window per tuple. Because the whole batch is
//!    known up front, tables too large to sit in L2 additionally issue a
//!    software prefetch for key `i + 8`'s home slot while probing key `i`
//!    ([`RoutingTable::prefetch`]), hiding the DRAM latency that
//!    dominates once the slab outgrows the cache; small tables keep the
//!    plain scalar loop (the prefetch instructions were measured neutral
//!    at L2-resident sizes, so `Amax = 3000` routing is unchanged).
//!
//! The `benches/routing.rs` bench in `streambal-bench` measures a
//! table-size sweep, the prefetched loop against the scalar one at
//! 3e3→3e6 entries, and rebuild-vs-delta mutation latency, and writes
//! the numbers to `bench_results/routing.json`.

use std::cell::Cell;

use streambal_hashring::{mix64, FxHashMap, HashRing};

use crate::key::{Key, TaskId};
use crate::migration::Move;

/// Sentinel marking an empty [`RoutingTable`] slot. Destinations are task
/// indices `0..N_D` with `N_D` bounded far below `u32::MAX` (task-id
/// construction panics past `u32`), so the sentinels can never collide
/// with a real destination.
const EMPTY_SLOT: u32 = u32::MAX;

/// Sentinel marking a removed (tombstoned) [`RoutingTable`] slot: probe
/// chains walk through it (unlike [`EMPTY_SLOT`], which terminates them)
/// so entries displaced past the removed one stay reachable.
const TOMBSTONE: u32 = u32::MAX - 1;

/// Slab size (in slots) from which [`AssignmentFn::route_batch`] switches
/// to the software-prefetch probe loop: `1 << 18` slots × 16 bytes = 4 MiB,
/// the first power-of-two size class strictly larger than a typical 1–2 MiB
/// L2, where probe latency turns memory-bound. Below it the scalar loop is
/// kept — prefetch instructions are pure overhead on a cache-resident slab
/// (measured ~20% slower at 1 MiB on a 2 MiB-L2 Xeon), and `Amax = 3000`
/// compiles to an 8192-slot slab, comfortably under the threshold.
const PREFETCH_MIN_SLOTS: usize = 1 << 18;

/// How many keys ahead [`AssignmentFn::route_batch`] prefetches: far
/// enough to cover a DRAM round-trip with ~8 probes of work, close enough
/// that the line is still resident when its key comes up.
const PREFETCH_AHEAD: usize = 8;

/// The explicit routing table `A ⊆ K × D`, stored as the flat
/// open-addressed array the per-tuple hot path probes.
///
/// Holds destinations for "a handful of keys only" (paper §II); every key
/// not present falls through to the hash function. The table does **not**
/// enforce `Amax` itself — the rebalance algorithms are responsible for
/// producing tables within bound, and [`RoutingTable::len`] lets callers
/// audit them — because a hard cap here would silently corrupt an
/// assignment mid-update.
///
/// [`RoutingTable::insert`] and [`RoutingTable::remove`] keep the slab
/// consistent per mutation at `O(probe chain)` cost, with an amortized
/// rehash when live entries plus tombstones would exceed the 50% load
/// factor. Slots hold `(key, dest)` pairs in a power-of-two array with
/// linear probing, indexed by the low bits of [`mix64`] — the ring's
/// avalanche primitive. The avalanche is load-bearing: indexing by the
/// raw Fx *multiply* alone clusters dense sequential key domains (the
/// three-distance effect pushes measured probe chains from ~1.3 to ~4.4
/// slots at `Amax = 3000`), and dense integer keys are exactly what the
/// workloads produce.
///
/// # Invariants
///
/// - At most one slot per key carries that key, live **or** tombstoned;
///   a live slot never sits later in its probe chain than a tombstoned
///   slot of the same key (inserts reuse the earliest reusable slot).
///   Lookups may therefore stop at the first key match.
/// - `occupied() ≤ capacity() / 2` after every mutation (counting
///   tombstones), so at least half the slots are [`EMPTY_SLOT`] and every
///   probe loop terminates without a length check.
///
/// Equality compares live entries, not slabs: two tables with the same
/// entries are equal whatever their capacities and tombstone histories.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// `(key, dest)` slots; `dest == EMPTY_SLOT` marks a never-used free
    /// slot, `dest == TOMBSTONE` a removed entry whose key is kept so the
    /// probe chain through it stays intact.
    slots: Box<[(u64, u32)]>,
    /// Number of live entries.
    len: usize,
    /// Number of non-[`EMPTY_SLOT`] slots: live entries plus tombstones.
    /// This — not `len` — is what the load-factor invariant bounds.
    used: usize,
}

/// True for a slot's `dest` when the slot holds a live entry.
#[inline]
fn is_live(dest: u32) -> bool {
    dest != EMPTY_SLOT && dest != TOMBSTONE
}

impl Default for RoutingTable {
    /// An empty table: a single empty slot, so lookups skip the emptiness
    /// branch entirely.
    fn default() -> Self {
        RoutingTable::with_slots(1)
    }
}

impl RoutingTable {
    /// Creates an empty table (pure hash routing).
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// An empty table of `cap` slots (a power of two).
    fn with_slots(cap: usize) -> Self {
        RoutingTable {
            slots: vec![(0u64, EMPTY_SLOT); cap].into_boxed_slice(),
            len: 0,
            used: 0,
        }
    }

    /// Number of entries `N_A`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no entries (pure hash routing).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count (always a power of two). Exposed so invariant
    /// tests can check the load-factor bound; not meaningful to routing.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Non-empty slots: live entries plus tombstones. The load-factor
    /// invariant is `occupied() ≤ capacity() / 2` after every mutation,
    /// which guarantees probe termination.
    #[inline]
    pub fn occupied(&self) -> usize {
        self.used
    }

    /// Inserts or replaces an entry in place, returning the previous
    /// destination. Amortized `O(1)`: rehashes (clearing tombstones) only
    /// when live entries plus tombstones would cross the 50% load factor.
    pub fn insert(&mut self, key: Key, dest: TaskId) -> Option<TaskId> {
        // Grow/clean eagerly so the probe below always terminates and the
        // write below never violates the load-factor invariant. This may
        // rehash before an in-place update that needed no room — rare
        // (only at the threshold) and harmless (the rehash was due).
        if (self.used + 1) * 2 > self.slots.len() {
            self.rehash();
        }
        let mask = self.slots.len() - 1;
        let raw = key.raw();
        let mut i = mix64(raw) as usize & mask;
        let mut grave: Option<usize> = None;
        loop {
            let (k, d) = self.slots[i];
            if d == EMPTY_SLOT {
                break;
            }
            if k == raw {
                if d != TOMBSTONE {
                    self.slots[i].1 = dest.0;
                    return Some(TaskId(d));
                }
                // The key's own tombstone: no live slot for this key can
                // sit past it (struct invariant), so stop probing.
                grave.get_or_insert(i);
                break;
            }
            if d == TOMBSTONE {
                grave.get_or_insert(i);
            }
            i = (i + 1) & mask;
        }
        match grave {
            // Reusing the earliest tombstone keeps chains short and — for
            // the key's own tombstone — preserves the one-slot-per-key
            // invariant.
            Some(g) => self.slots[g] = (raw, dest.0),
            None => {
                self.slots[i] = (raw, dest.0);
                self.used += 1;
            }
        }
        self.len += 1;
        None
    }

    /// Removes an entry in place, returning its destination. The slot
    /// becomes a tombstone (key kept, [`TOMBSTONE`] dest) so probe chains
    /// running through it stay connected; the slot is reclaimed by a later
    /// insert of any key probing past it, or by the next rehash.
    pub fn remove(&mut self, key: Key) -> Option<TaskId> {
        let mask = self.slots.len() - 1;
        let raw = key.raw();
        let mut i = mix64(raw) as usize & mask;
        loop {
            let (k, d) = self.slots[i];
            if d == EMPTY_SLOT {
                return None;
            }
            if k == raw {
                if d == TOMBSTONE {
                    return None;
                }
                self.slots[i].1 = TOMBSTONE;
                self.len -= 1;
                return Some(TaskId(d));
            }
            i = (i + 1) & mask;
        }
    }

    /// Rebuilds the slab at `(2·(len+1)).next_power_of_two()` slots,
    /// dropping tombstones. `O(capacity)`, amortized against the inserts
    /// that grew `used` to the threshold.
    fn rehash(&mut self) {
        let cap = ((self.len + 1) * 2).next_power_of_two();
        let mut slots = vec![(0u64, EMPTY_SLOT); cap].into_boxed_slice();
        let mask = cap - 1;
        for &(k, d) in self.slots.iter().filter(|&&(_, d)| is_live(d)) {
            let mut i = mix64(k) as usize & mask;
            while slots[i].1 != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = (k, d);
        }
        self.slots = slots;
        self.used = self.len;
    }

    /// Looks up the explicit destination for `key`, if present.
    ///
    /// `inline(always)`: this is the per-tuple hot path, and the probe
    /// loop is a handful of instructions. Without the annotation the
    /// inliner has been observed to leave it (or its `route` caller) as a
    /// per-key call inside non-inlined `route_batch` instantiations,
    /// costing ~40% of the batched win.
    #[inline(always)]
    pub fn lookup(&self, key: Key) -> Option<TaskId> {
        let slots = &*self.slots;
        // Deriving the mask from the slice length (rather than a stored
        // field) lets the compiler see `i & mask < slots.len()` and drop
        // the bounds checks from the probe loop.
        let mask = slots.len() - 1;
        let raw = key.raw();
        let mut i = mix64(raw) as usize & mask;
        loop {
            let (k, d) = slots[i];
            if d == EMPTY_SLOT {
                return None;
            }
            if k == raw {
                // A tombstoned match means the key was removed; no other
                // slot can carry it (struct invariant), so stop here. The
                // comparison folds into the same branch structure as the
                // pre-tombstone hot path — small-table routing is
                // unchanged.
                return (d != TOMBSTONE).then_some(TaskId(d));
            }
            i = (i + 1) & mask;
        }
    }

    /// True when the slab is large enough (≥ 4 MiB) that probe latency is
    /// DRAM-bound and [`AssignmentFn::route_batch`] should run the
    /// software-prefetch loop.
    #[inline]
    pub fn wants_prefetch(&self) -> bool {
        self.slots.len() >= PREFETCH_MIN_SLOTS
    }

    /// Issues a best-effort prefetch of `key`'s home slot into L1, hiding
    /// DRAM latency when the probe for `key` runs ~[`PREFETCH_AHEAD`]
    /// iterations later. A hint only (no-op on non-x86_64): correctness
    /// never depends on it, and keys whose chains extend past the home
    /// slot's cache line still take the miss on the spilled slots.
    #[inline(always)]
    pub fn prefetch(&self, key: Key) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the home index is masked into `self.slots`' bounds, and
        // prefetch has no architectural effect beyond the cache.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let i = mix64(key.raw()) as usize & (self.slots.len() - 1);
            _mm_prefetch::<_MM_HINT_T0>(self.slots.as_ptr().add(i).cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
    }

    /// Keeps only the entries for which `f` returns true, tombstoning the
    /// rest in one pass over the slab.
    pub fn retain(&mut self, mut f: impl FnMut(Key, TaskId) -> bool) {
        for slot in self.slots.iter_mut() {
            let (k, d) = *slot;
            if is_live(d) && !f(Key(k), TaskId(d)) {
                slot.1 = TOMBSTONE;
                self.len -= 1;
            }
        }
    }

    /// Iterates entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, TaskId)> + '_ {
        self.slots
            .iter()
            .filter(|&&(_, d)| is_live(d))
            .map(|&(k, d)| (Key(k), TaskId(d)))
    }

    /// Entries sorted by key, for deterministic output in tests/logs.
    pub fn sorted_entries(&self) -> Vec<(Key, TaskId)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }
}

impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, d)| other.lookup(k) == Some(d))
    }
}

impl FromIterator<(Key, TaskId)> for RoutingTable {
    /// Sized once from the iterator's lower bound, so collecting a known
    /// entry count allocates the slab a single time.
    fn from_iter<T: IntoIterator<Item = (Key, TaskId)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut table =
            RoutingTable::with_slots(((iter.size_hint().0 + 1) * 2).next_power_of_two());
        for (k, d) in iter {
            table.insert(k, d);
        }
        table
    }
}

/// The mixed assignment function `F : K → D` of Eq. 1 — a routing table
/// over a consistent-hash fallback.
///
/// Routing a tuple costs one table probe plus (on miss) one ring lookup;
/// this is the structure the upstream "tuples router" evaluates per tuple
/// (Fig. 3 / Fig. 5). The [`RoutingTable`] is held once: the slab reads
/// probe is the slab mutations edit in place (see the module docs for
/// where `O(table)` work still happens).
#[derive(Debug, Clone)]
pub struct AssignmentFn {
    table: RoutingTable,
    ring: HashRing,
    /// Hot-key split entries, consulted before the table (empty for the
    /// overwhelming majority of assignments — `route_batch` dispatches on
    /// emptiness once per batch so the no-split fast paths never probe it).
    splits: FxHashMap<Key, SplitEntry>,
}

impl AssignmentFn {
    /// Pure-hash assignment over `n_tasks` downstream instances.
    pub fn hash_only(n_tasks: usize) -> Self {
        AssignmentFn {
            table: RoutingTable::new(),
            ring: HashRing::new(n_tasks),
            splits: FxHashMap::default(),
        }
    }

    /// Assignment with an explicit initial table.
    pub fn with_table(n_tasks: usize, table: RoutingTable) -> Self {
        AssignmentFn {
            table,
            ring: HashRing::new(n_tasks),
            splits: FxHashMap::default(),
        }
    }

    /// Number of downstream task instances `N_D`.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.ring.slots()
    }

    /// Evaluates `F(k)` (Eq. 1), extended with the hot-key split layer:
    /// a split key rotates over its replica set (advancing this holder's
    /// cursor), everything else takes the table/hash path. The
    /// split probe is guarded by an emptiness check so the common
    /// no-split case costs one predictable branch.
    #[inline]
    pub fn route(&self, key: Key) -> TaskId {
        if !self.splits.is_empty() {
            if let Some(e) = self.splits.get(&key) {
                return e.next();
            }
        }
        match self.table.lookup(key) {
            Some(d) => d,
            None => TaskId::from(self.ring.slot_of(key.raw())),
        }
    }

    /// Evaluates `F(k)` for a batch of keys, filling `out` with one
    /// destination per key (previous contents discarded). One call per
    /// channel batch amortizes dispatch and keeps the probe sequence
    /// pipelined; past the 4 MiB slab threshold it additionally
    /// prefetches upcoming home slots to hide DRAM latency (see module
    /// docs). Observationally identical to routing each key in order —
    /// including split-key cursor rotation: when splits exist the batch
    /// takes a split-aware loop, when none do it dispatches straight to
    /// the scalar/prefetched fast paths, which stay byte-identical to
    /// their pre-split form.
    #[inline]
    pub fn route_batch(&self, keys: &[Key], out: &mut Vec<TaskId>) {
        if !self.splits.is_empty() {
            self.route_batch_split(keys, out);
        } else if self.table.wants_prefetch() {
            self.route_batch_prefetched(keys, out);
        } else {
            self.route_batch_scalar(keys, out);
        }
    }

    /// The plain batched probe loop, with no prefetching and no split
    /// probe. Public as the reference implementation the prefetched path
    /// is verified and benchmarked against;
    /// [`AssignmentFn::route_batch`] is the API callers should use. This
    /// loop covers the table/hash layers only — it is *not* equivalent to
    /// `route_batch` while splits are installed.
    #[inline]
    pub fn route_batch_scalar(&self, keys: &[Key], out: &mut Vec<TaskId>) {
        // The resize-then-overwrite shape avoids both a capacity check
        // per key and (when the caller reuses a same-sized buffer, as the
        // drivers do) any zero-fill.
        out.resize(keys.len(), TaskId(0));
        for (o, &k) in out.iter_mut().zip(keys) {
            // Open-coded `route`: the table probe must stay inline in this
            // loop (see `RoutingTable::lookup`); the ring fallback may be
            // an out-of-line call — a miss pays a binary search anyway.
            *o = match self.table.lookup(k) {
                Some(d) => d,
                None => self.hash_route(k),
            };
        }
    }

    /// The batched probe loop for larger-than-L2 slabs: while probing key
    /// `i`, issues a prefetch for key `i + PREFETCH_AHEAD`'s home slot,
    /// so by the time that key's probe runs its cache line is (usually)
    /// already in flight or resident.
    fn route_batch_prefetched(&self, keys: &[Key], out: &mut Vec<TaskId>) {
        out.resize(keys.len(), TaskId(0));
        for (i, (o, &k)) in out.iter_mut().zip(keys).enumerate() {
            if let Some(&ahead) = keys.get(i + PREFETCH_AHEAD) {
                self.table.prefetch(ahead);
            }
            *o = match self.table.lookup(k) {
                Some(d) => d,
                None => self.hash_route(k),
            };
        }
    }

    /// Evaluates the hash fallback `h(k)` regardless of the table.
    #[inline]
    pub fn hash_route(&self, key: Key) -> TaskId {
        TaskId::from(self.ring.slot_of(key.raw()))
    }

    /// The current routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Replaces the routing table wholesale (the controller broadcasts
    /// `F′` in step 3 of the Fig. 5 protocol — or a resync, see
    /// [`AssignmentFn::install_rebalance`]), returning the old one. The
    /// install itself is a move; what makes this the `O(table)` path is
    /// that the replacement had to be built and that every other holder
    /// of the old table needs the whole new one.
    pub fn swap_table(&mut self, table: RoutingTable) -> RoutingTable {
        std::mem::replace(&mut self.table, table)
    }

    /// Inserts many explicit entries (used to pin hash-churned keys to
    /// their physical location during scale-out). Each insert is
    /// incremental, so the batch costs `O(batch)` regardless of how large
    /// the surrounding table is.
    pub fn insert_entries(&mut self, entries: impl IntoIterator<Item = (Key, TaskId)>) {
        for (k, d) in entries {
            self.table.insert(k, d);
        }
    }

    /// Applies a rebalance delta: for each `(key, dest)` move, installs
    /// an explicit entry — or removes the key's entry when `dest` is the
    /// key's hash destination (an explicit entry would be redundant; this
    /// is how move-backs to `h(k)` shrink the table). Costs `O(moves)`,
    /// independent of table size — the entry point that makes million-key
    /// rebalances affordable.
    pub fn apply_delta(&mut self, moves: impl IntoIterator<Item = (Key, TaskId)>) {
        for (k, d) in moves {
            if d == self.hash_route(k) {
                self.table.remove(k);
            } else {
                self.table.insert(k, d);
            }
        }
    }

    /// Installs a rebalance outcome: `table` is the outcome's full table
    /// (entries where `F′(k) ≠ h(k)` over the stats window) and
    /// `plan_moves` its migration plan. Applies the plan as a delta
    /// (`O(churn)`) rather than swapping in `table` (`O(table)`).
    ///
    /// The two differ only on *stale* entries: keys that departed the
    /// stats window keep their old entries under the delta while the swap
    /// would drop them. Both route every windowed (stateful) key
    /// identically — departed keys have no windowed state, so the stale
    /// entries are harmless to correctness but accumulate under churning
    /// key domains. When they outgrow the live outcome
    /// (`held > 2·outcome + 64`), the install falls back to a full
    /// [`AssignmentFn::swap_table`] resync — rare, and amortized against
    /// the cheap installs that let the staleness build up.
    ///
    /// Returns `true` when the delta sufficed, `false` when it resynced —
    /// the caller's signal for whether sources can be updated with a
    /// matching delta view or need the full table.
    pub fn install_rebalance(&mut self, table: &RoutingTable, plan_moves: &[Move]) -> bool {
        self.apply_delta(plan_moves.iter().map(|m| (m.key, m.to)));
        if self.table.len() > 2 * table.len() + 64 {
            self.swap_table(table.clone());
            false
        } else {
            true
        }
    }

    /// Adds a downstream instance (scale-out), returning its id. Existing
    /// table entries are preserved; only hash-routed keys may move, and
    /// only onto the new instance (consistent hashing).
    pub fn add_task(&mut self) -> TaskId {
        TaskId::from(self.ring.add_slot())
    }

    /// Scale-out that preserves physical state placement: adds an
    /// instance, then pins every `live` key whose route churned onto the
    /// new ring slot back to its old destination with an explicit entry,
    /// so routing stays truthful to where state actually sits — the churn
    /// [`AssignmentFn::add_task_with_moves`] reports, suppressed instead
    /// of handed to the caller.
    pub fn add_task_pinned(&mut self, live: &[Key]) -> TaskId {
        let (new_task, churned) = self.add_task_with_moves(live);
        self.insert_entries(churned);
        new_task
    }

    /// Scale-out that **reports** churn instead of pinning it: adds an
    /// instance and returns `(new_task, moves)` — every `live` key whose
    /// route churned onto the new ring slot, paired with the task that
    /// held it before the slot was added (its current state holder).
    /// The table is untouched: churned keys route to the new slot by
    /// hash, and the caller is responsible for migrating their state
    /// there (the engine's scale-out pre-placement does exactly that
    /// inside the quiescence window). Keys with explicit table entries
    /// never churn, so their placement stays truthful for free.
    ///
    /// This is the dual of [`AssignmentFn::add_task_pinned`]: pinning
    /// keeps routing truthful by suppressing the ring delta, this keeps
    /// it truthful by executing the delta as a migration. Under a
    /// consistent ring the delta moves keys *only* onto the new slot, so
    /// every reported move's destination is the returned task.
    pub fn add_task_with_moves(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        let live = self.live_unsplit(live);
        let live = live.as_ref();
        let old: Vec<TaskId> = live.iter().map(|&k| self.route(k)).collect();
        let new_task = self.add_task();
        let moves: Vec<(Key, TaskId)> = live
            .iter()
            .zip(&old)
            .filter(|&(&k, &old_d)| {
                let now = self.route(k);
                debug_assert!(
                    now == old_d || now == new_task,
                    "ring churn must target the new slot only"
                );
                now != old_d
            })
            .map(|(&k, &old_d)| (k, old_d))
            .collect();
        (new_task, moves)
    }

    /// Scale-in that preserves physical state placement on the
    /// *survivors*: removes the highest-numbered instance from the ring
    /// (the exact inverse of [`AssignmentFn::add_task`] — only the
    /// victim's keys change hash owner), drops every table entry pointing
    /// at the victim (those keys fall back to their shrunk-ring hash
    /// destination; the caller is responsible for migrating their state
    /// off the victim, which is exactly what the engine's retire protocol
    /// does), and pins any `live` key that was *not* on the victim but
    /// whose route would nevertheless churn back to its old destination.
    /// With a consistent ring that pin set is empty; it is kept as a
    /// structural guarantee so survivors' placement stays truthful under
    /// any ring behaviour. Returns the retired task id.
    ///
    /// # Panics
    /// Panics if only one task remains.
    pub fn remove_task_pinned(&mut self, live: &[Key]) -> TaskId {
        assert!(self.n_tasks() > 1, "cannot scale in below one task");
        let victim = TaskId::from(self.n_tasks() - 1);
        // Splits referencing the victim drop it from their replica set;
        // a split left with fewer than two replicas dissolves (the key
        // reverts to table/hash routing — its state is consolidated by
        // the retire drain like any other victim-held key).
        self.splits.retain(|_, e| {
            e.replicas.retain(|&d| d != victim);
            if e.replicas.len() < 2 {
                return false;
            }
            e.cursor.set(0);
            true
        });
        let live = self.live_unsplit(live);
        let live = live.as_ref();
        let old: Vec<TaskId> = live.iter().map(|&k| self.route(k)).collect();
        // Drop entries pointing at the victim *before* shrinking the ring
        // so their keys re-route by hash, and redundant entries (equal to
        // the shrunk-ring hash) never enter the table.
        self.table.retain(|_, d| d != victim);
        self.ring.remove_slot();
        let pins: Vec<(Key, TaskId)> = live
            .iter()
            .zip(&old)
            .filter(|&(&k, &old_d)| old_d != victim && self.route(k) != old_d)
            .map(|(&k, &old_d)| (k, old_d))
            .collect();
        self.insert_entries(pins);
        victim
    }

    /// A worker slot died without draining: pins every explicit table
    /// entry routed to `dead` onto a surviving slot and returns the
    /// applied `(key, new destination)` moves, for shipping to other
    /// view holders as a delta. Each key's survivor starts from its
    /// *hash home* ([`next_live`] cycles past dead slots from there), so
    /// the dead slot's keys spread over survivors instead of piling onto
    /// one neighbour — and a key whose hash home is itself live simply
    /// drops its entry ([`AssignmentFn::apply_delta`] semantics),
    /// shrinking the table. The ring does **not** shrink: slot ids stay
    /// dense and the slot can be re-provisioned later. Hash-fallback
    /// keys routed to `dead` have no entries to re-pin; holders divert
    /// them with the same [`next_live`] rule at send time.
    pub fn repin_dead(
        &mut self,
        dead: TaskId,
        is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        let n = self.n_tasks();
        let moves: Vec<(Key, TaskId)> = self
            .table
            .iter()
            .filter(|&(_, d)| d == dead)
            .map(|(k, _)| {
                let home = self.hash_route(k).index();
                (k, TaskId::from(next_live(home, n, is_dead)))
            })
            .collect();
        self.apply_delta(moves.iter().copied());
        moves
    }

    /// Normalizes the table against the ring: removes entries whose
    /// destination equals the hash destination (they waste table space)
    /// in one sweep over the slab. Returns how many entries were dropped.
    pub fn prune_redundant(&mut self) -> usize {
        let ring = &self.ring;
        let before = self.table.len();
        self.table
            .retain(|k, d| TaskId::from(ring.slot_of(k.raw())) != d);
        before - self.table.len()
    }
}

/// A hot key's salted replica set: the slots a split key round-robins
/// over, plus the rotation cursor.
///
/// The cursor lives in a [`Cell`] so routing can stay `&self` — the same
/// contract every other routing read has — while still advancing the
/// rotation per routed tuple. `Cell<usize>` is `Send` but not `Sync`,
/// which matches how assignments are actually held: each holder (one
/// source thread, the controller, the simulator) owns its own copy and
/// never shares one across threads. Cursors are per-holder state, not
/// part of the distributed view: two holders of the same split table may
/// rotate out of phase, which only affects *which* replica absorbs a
/// given tuple, never correctness (any replica is a valid destination
/// and the merge stage reconciles).
#[derive(Debug, Clone)]
struct SplitEntry {
    /// Replica slots, primary first. Always ≥ 2 entries, all distinct.
    replicas: Vec<TaskId>,
    /// Next replica index to hand out.
    cursor: Cell<usize>,
}

impl SplitEntry {
    /// Hands out the next replica in rotation.
    #[inline]
    fn next(&self) -> TaskId {
        let i = self.cursor.get();
        self.cursor.set((i + 1) % self.replicas.len());
        self.replicas[i]
    }
}

impl AssignmentFn {
    /// Flags `key` as hot, salting it across `replicas` (primary first —
    /// by convention the key's pre-split route, so an unsplit that
    /// consolidates onto `replicas[0]` needs no table change). Returns
    /// `false` (and installs nothing) unless there are at least two
    /// distinct replicas; replacing an existing split resets its cursor.
    ///
    /// Split entries take precedence over both the explicit table and the
    /// hash fallback, and they are deliberately *not* touched by table
    /// maintenance ([`AssignmentFn::apply_delta`],
    /// [`AssignmentFn::swap_table`], [`AssignmentFn::repin_dead`]): the
    /// split layer is orthogonal routing state owned by the split/unsplit
    /// protocol ops, and a dead replica is diverted by holders at send
    /// time with the universal [`next_live`] rule, same as any dead slot.
    pub fn set_split(&mut self, key: Key, replicas: &[TaskId]) -> bool {
        if replicas.len() < 2 {
            return false;
        }
        let mut seen = replicas.to_vec();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != replicas.len() {
            return false;
        }
        self.splits.insert(
            key,
            SplitEntry {
                replicas: replicas.to_vec(),
                cursor: Cell::new(0),
            },
        );
        true
    }

    /// Clears `key`'s split, returning its replica set (primary first) if
    /// one was installed. The key reverts to table/hash routing.
    pub fn clear_split(&mut self, key: Key) -> Option<Vec<TaskId>> {
        self.splits.remove(&key).map(|e| e.replicas)
    }

    /// The current splits as `(key, replicas)` pairs, sorted by key for
    /// deterministic views/wire encoding. Cursors are not part of the
    /// view (they are per-holder rotation state, see [`SplitEntry`]).
    pub fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
        let mut v: Vec<(Key, Vec<TaskId>)> = self
            .splits
            .iter()
            .map(|(&k, e)| (k, e.replicas.clone()))
            .collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// `key`'s replica set (primary first) if it is currently split.
    pub fn split_replicas(&self, key: Key) -> Option<&[TaskId]> {
        self.splits.get(&key).map(|e| e.replicas.as_slice())
    }

    /// Installs a batch of splits wholesale (view materialization on the
    /// source side). Existing splits are dropped first; cursors start at
    /// the primary.
    pub fn set_splits(&mut self, splits: impl IntoIterator<Item = (Key, Vec<TaskId>)>) {
        self.splits.clear();
        for (k, replicas) in splits {
            self.set_split(k, &replicas);
        }
    }

    /// The batched routing loop when splits exist: per key, one extra map
    /// probe ahead of the table. Split keys are the hottest keys
    /// by construction, so the probe usually hits; the no-split fast
    /// paths ([`AssignmentFn::route_batch_scalar`] and the prefetched
    /// loop) never pay for it because [`AssignmentFn::route_batch`]
    /// dispatches on split emptiness once per batch.
    fn route_batch_split(&self, keys: &[Key], out: &mut Vec<TaskId>) {
        out.resize(keys.len(), TaskId(0));
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = match self.splits.get(&k) {
                Some(e) => e.next(),
                None => match self.table.lookup(k) {
                    Some(d) => d,
                    None => self.hash_route(k),
                },
            };
        }
    }

    /// `live` with split keys filtered out, borrowing when there are no
    /// splits (the common case). Scale maintenance computes old-vs-new
    /// routes per live key to detect ring churn; a split key's route
    /// rotates per call, which would read as spurious churn (and advance
    /// cursors as a side effect), so split keys are excluded — their
    /// routing is pinned by the split entry and immune to ring edits.
    fn live_unsplit<'a>(&self, live: &'a [Key]) -> std::borrow::Cow<'a, [Key]> {
        if self.splits.is_empty() {
            std::borrow::Cow::Borrowed(live)
        } else {
            std::borrow::Cow::Owned(
                live.iter()
                    .copied()
                    .filter(|k| !self.splits.contains_key(k))
                    .collect(),
            )
        }
    }
}

/// The next live slot at or after `dest`, cycling over `0..n` — the one
/// divert rule shared by every holder of a routing view: sources route
/// around a dead slot with it, [`AssignmentFn::repin_dead`] picks
/// survivors with it, and controllers re-home state with it, so traffic
/// and state land on the same survivor no matter who diverts.
///
/// Returns `dest` unchanged when every slot is dead (the caller is about
/// to fail the send and account the loss anyway).
pub fn next_live(dest: usize, n: usize, is_dead: impl Fn(usize) -> bool) -> usize {
    for off in 0..n {
        let d = (dest + off) % n;
        if !is_dead(d) {
            return d;
        }
    }
    dest
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn empty_table_routes_by_hash() {
        let f = AssignmentFn::hash_only(4);
        for raw in 0..100u64 {
            let k = Key(raw);
            assert_eq!(f.route(k), f.hash_route(k));
            assert!(f.route(k).index() < 4);
        }
    }

    #[test]
    fn table_entry_overrides_hash() {
        let mut f = AssignmentFn::hash_only(4);
        let k = Key(7);
        let hash_dest = f.hash_route(k);
        let other = TaskId((hash_dest.0 + 1) % 4);
        let mut t = RoutingTable::new();
        t.insert(k, other);
        f.swap_table(t);
        assert_eq!(f.route(k), other);
        assert_ne!(f.route(k), hash_dest);
    }

    #[test]
    fn swap_returns_old_table() {
        let mut f = AssignmentFn::hash_only(2);
        let mut t = RoutingTable::new();
        t.insert(Key(1), TaskId(0));
        f.swap_table(t.clone());
        let old = f.swap_table(RoutingTable::new());
        assert_eq!(old, t);
        assert!(f.table().is_empty());
    }

    #[test]
    fn prune_drops_no_op_entries() {
        let mut f = AssignmentFn::hash_only(4);
        let k_same = Key(3);
        let same = f.hash_route(k_same);
        let k_diff = Key(4);
        let diff = TaskId((f.hash_route(k_diff).0 + 1) % 4);
        let mut t = RoutingTable::new();
        t.insert(k_same, same); // redundant
        t.insert(k_diff, diff); // real entry
        f.swap_table(t);
        assert_eq!(f.prune_redundant(), 1);
        assert_eq!(f.table().len(), 1);
        assert_eq!(f.route(k_diff), diff);
    }

    #[test]
    fn add_task_preserves_table_entries() {
        let mut f = AssignmentFn::hash_only(3);
        let k = Key(11);
        let pinned = TaskId(1);
        let mut t = RoutingTable::new();
        t.insert(k, pinned);
        f.swap_table(t);
        let new = f.add_task();
        assert_eq!(new, TaskId(3));
        assert_eq!(f.n_tasks(), 4);
        assert_eq!(f.route(k), pinned, "explicit entries survive scale-out");
    }

    #[test]
    fn remove_task_drops_victim_entries_and_keeps_survivor_routes() {
        let mut f = AssignmentFn::hash_only(4);
        let victim = TaskId(3);
        // One entry pinning a key to the victim, one pinning elsewhere.
        let to_victim = Key(100);
        let elsewhere = Key(200);
        let other = TaskId((f.hash_route(elsewhere).0 + 1) % 3); // survivor slot
        let mut t = RoutingTable::new();
        t.insert(to_victim, victim);
        t.insert(elsewhere, other);
        f.swap_table(t);
        let live: Vec<Key> = (0..2_000u64).map(Key).collect();
        let before: Vec<TaskId> = live.iter().map(|&k| f.route(k)).collect();
        assert_eq!(f.remove_task_pinned(&live), victim);
        assert_eq!(f.n_tasks(), 3);
        // The victim entry is gone; the survivor entry is intact.
        assert_eq!(f.table().lookup(to_victim), None);
        assert_eq!(f.route(elsewhere), other);
        // No key routes to the victim anymore, and every key that was on
        // a survivor stays exactly where it was.
        for (&k, &old) in live.iter().zip(&before) {
            let now = f.route(k);
            assert_ne!(now, victim, "key {k:?} still routed to retired task");
            if old != victim && k != to_victim {
                assert_eq!(now, old, "survivor key {k:?} churned {old:?}→{now:?}");
            }
        }
    }

    #[test]
    fn scale_out_then_remove_task_restores_routes() {
        let mut f = AssignmentFn::hash_only(4);
        let live: Vec<Key> = (0..1_000u64).map(Key).collect();
        let before: Vec<TaskId> = live.iter().map(|&k| f.route(k)).collect();
        f.add_task_pinned(&live);
        f.remove_task_pinned(&live);
        // Pinned scale-out kept every live key in place, so the round
        // trip is the identity on live keys and leaves no stale entries
        // pointing at the removed slot.
        for (&k, &old) in live.iter().zip(&before) {
            assert_eq!(f.route(k), old);
        }
        for (_, d) in f.table().iter() {
            assert!(d.index() < 4);
        }
    }

    #[test]
    #[should_panic(expected = "below one task")]
    fn remove_task_below_one_panics() {
        AssignmentFn::hash_only(1).remove_task_pinned(&[]);
    }

    /// `add_task_with_moves` reports exactly the ring churn: every move
    /// is a live key now routing to the new slot, paired with its old
    /// holder; keys with explicit table entries never move; non-churned
    /// keys keep their routes.
    #[test]
    fn add_task_with_moves_reports_the_ring_delta() {
        let mut f = AssignmentFn::hash_only(4);
        let pinned = Key(7);
        let home = f.route(pinned);
        f.insert_entries([(pinned, home)]); // explicit entry: must not move
        let live: Vec<Key> = (0..2_000u64).map(Key).collect();
        let before: Vec<TaskId> = live.iter().map(|&k| f.route(k)).collect();
        let (new_task, moves) = f.add_task_with_moves(&live);
        assert_eq!(new_task, TaskId(4));
        assert!(!moves.is_empty(), "a 2000-key population must churn");
        let moved: std::collections::HashMap<Key, TaskId> = moves.iter().copied().collect();
        assert!(!moved.contains_key(&pinned), "table entry churned");
        for (&k, &old) in live.iter().zip(&before) {
            let now = f.route(k);
            match moved.get(&k) {
                Some(&holder) => {
                    assert_eq!(now, new_task, "move {k:?} must target the new slot");
                    assert_eq!(holder, old, "move {k:?} must name the old holder");
                }
                None => assert_eq!(now, old, "unmoved key {k:?} churned"),
            }
        }
        // The same population pinned instead: the pin set is exactly the
        // move set (the two scale-out flavours see one ring delta).
        let mut g = AssignmentFn::hash_only(4);
        g.insert_entries([(pinned, home)]);
        let before_pins = g.table().len();
        g.add_task_pinned(&live);
        assert_eq!(g.table().len() - before_pins, moves.len());
    }

    #[test]
    fn routing_table_crud() {
        let mut t = RoutingTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(Key(1), TaskId(2)), None);
        assert_eq!(t.insert(Key(1), TaskId(3)), Some(TaskId(2)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Key(1)), Some(TaskId(3)));
        assert_eq!(t.remove(Key(1)), Some(TaskId(3)));
        assert_eq!(t.remove(Key(1)), None);
    }

    #[test]
    fn compiled_table_matches_map_on_hits_and_misses() {
        // Adversarial sizes (pow2 boundaries, 1-entry, empty) and dense
        // key domains: slab lookups must agree with a map exactly.
        for size in [0usize, 1, 2, 3, 255, 256, 257, 3000] {
            let map: BTreeMap<Key, TaskId> = (0..size as u64)
                .map(|k| (Key(k * 3), TaskId((k % 7) as u32)))
                .collect();
            let table: RoutingTable = map.iter().map(|(&k, &d)| (k, d)).collect();
            assert_eq!(table.len(), size);
            assert_eq!(table.is_empty(), size == 0);
            assert_eq!(
                table.sorted_entries(),
                map.clone().into_iter().collect::<Vec<_>>()
            );
            for raw in 0..(size as u64 * 3 + 100) {
                assert_eq!(
                    table.lookup(Key(raw)),
                    map.get(&Key(raw)).copied(),
                    "size {size}, key {raw}"
                );
            }
        }
    }

    #[test]
    fn route_batch_matches_per_key() {
        let table: RoutingTable = (0..100u64).map(|k| (Key(k), TaskId(1))).collect();
        let f = AssignmentFn::with_table(4, table);
        let keys: Vec<Key> = (0..777u64).map(Key).collect();
        let mut out = vec![TaskId(9)]; // stale content must be cleared
        f.route_batch(&keys, &mut out);
        assert_eq!(out.len(), keys.len());
        for (&k, &d) in keys.iter().zip(&out) {
            assert_eq!(d, f.route(k));
        }
    }

    #[test]
    fn mutations_update_the_read_side() {
        let mut f = AssignmentFn::hash_only(4);
        let k = Key(42);
        let pinned = TaskId((f.hash_route(k).0 + 1) % 4);
        f.apply_delta([(k, pinned)]);
        assert_eq!(f.route(k), pinned);
        assert_eq!(f.table().len(), 1);
        // A move back home drops it again.
        f.apply_delta([(k, f.hash_route(k))]);
        assert_eq!(f.route(k), f.hash_route(k));
        assert!(f.table().is_empty());
        // swap_table replaces.
        f.apply_delta([(k, pinned)]);
        f.swap_table(RoutingTable::new());
        assert_eq!(f.route(k), f.hash_route(k));
        assert!(f.table().is_empty());
        // prune_redundant tombstones in place.
        let mut t = RoutingTable::new();
        t.insert(k, f.hash_route(k)); // redundant entry
        t.insert(Key(7), TaskId((f.hash_route(Key(7)).0 + 1) % 4));
        f.swap_table(t);
        assert_eq!(f.prune_redundant(), 1);
        assert_eq!(f.table().len(), 1);
        assert_eq!(f.route(k), f.hash_route(k));
    }

    #[test]
    fn insert_entries_applies_whole_batch() {
        let mut f = AssignmentFn::hash_only(4);
        let pins: Vec<(Key, TaskId)> = (0..100u64)
            .map(Key)
            .map(|k| (k, TaskId((f.hash_route(k).0 + 1) % 4)))
            .collect();
        f.insert_entries(pins.clone());
        assert_eq!(f.table().len(), 100);
        for (k, d) in pins {
            assert_eq!(f.route(k), d);
        }
        // Empty batch: no-op.
        let before = f.table().clone();
        f.insert_entries(std::iter::empty());
        assert_eq!(f.table(), &before);
    }

    /// Incremental insert/remove keeps lookups equivalent to a fresh
    /// build of the surviving entries through growth (rehash) and
    /// tombstone churn — the deterministic core of the property pinned
    /// down in `tests/compiled_table_props.rs`.
    #[test]
    fn incremental_insert_remove_matches_fresh_build() {
        let mut table: BTreeMap<Key, TaskId> = BTreeMap::new();
        let mut c = RoutingTable::new();
        assert_eq!(c.capacity(), 1);
        // Grow from the 1-slot default through several rehashes.
        for k in 0..600u64 {
            let d = TaskId((k % 9) as u32);
            assert_eq!(c.insert(Key(k), d), table.insert(Key(k), d));
        }
        // Tombstone a third, overwrite a third.
        for k in (0..600u64).step_by(3) {
            assert_eq!(c.remove(Key(k)), table.remove(&Key(k)));
        }
        for k in (1..600u64).step_by(3) {
            let d = TaskId((k % 5) as u32);
            assert_eq!(c.insert(Key(k), d), table.insert(Key(k), d));
        }
        // Re-insert some removed keys (exercises tombstone reuse).
        for k in (0..300u64).step_by(3) {
            let d = TaskId(7);
            assert_eq!(c.insert(Key(k), d), table.insert(Key(k), d));
        }
        let fresh: RoutingTable = table.iter().map(|(&k, &d)| (k, d)).collect();
        assert_eq!(c, fresh, "equality ignores capacity and tombstones");
        assert_eq!(fresh.occupied(), fresh.len());
        for k in 0..700u64 {
            assert_eq!(c.lookup(Key(k)), fresh.lookup(Key(k)), "key {k}");
            assert_eq!(c.lookup(Key(k)), table.get(&Key(k)).copied(), "key {k}");
        }
    }

    /// After any mutation sequence: at most one slot per key and at most
    /// 50% occupancy (tombstones included), so probes terminate.
    #[test]
    fn tombstone_churn_keeps_load_factor_and_termination_invariants() {
        let mut c = RoutingTable::new();
        // Repeated insert/remove of the same window would, without
        // tombstone reuse and rehash, fill the slab with graves.
        for round in 0..50u64 {
            for k in 0..64u64 {
                c.insert(Key(k), TaskId((round % 4) as u32));
            }
            for k in (0..64u64).step_by(2) {
                c.remove(Key(k));
            }
            assert!(
                c.occupied() * 2 <= c.capacity(),
                "round {round}: occupied {} of {} breaks the load factor",
                c.occupied(),
                c.capacity()
            );
            assert!(c.occupied() >= c.len());
        }
        // Misses on never-inserted keys must terminate (would hang
        // forever if a probe chain had no EMPTY slot).
        for k in 1000..1100u64 {
            assert_eq!(c.lookup(Key(k)), None);
        }
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn apply_delta_inserts_moves_and_removes_movebacks() {
        let mut f = AssignmentFn::hash_only(4);
        let k_pin = Key(11);
        let k_back = Key(22);
        let elsewhere = TaskId((f.hash_route(k_back).0 + 1) % 4);
        f.insert_entries([(k_back, elsewhere)]);
        let to_pin = TaskId((f.hash_route(k_pin).0 + 1) % 4);
        // One move to a non-hash destination, one move-back to h(k).
        f.apply_delta([(k_pin, to_pin), (k_back, f.hash_route(k_back))]);
        assert_eq!(f.route(k_pin), to_pin);
        assert_eq!(f.table().lookup(k_pin), Some(to_pin));
        assert_eq!(f.route(k_back), f.hash_route(k_back));
        assert_eq!(f.table().sorted_entries(), vec![(k_pin, to_pin)]);
    }

    #[test]
    fn install_rebalance_delta_then_resync() {
        let mut f = AssignmentFn::hash_only(4);
        // A big held table whose keys all "departed": the outcome table
        // is tiny, so the staleness bound forces a resync.
        let big: Vec<(Key, TaskId)> = (0..500u64)
            .map(Key)
            .map(|k| (k, TaskId((f.hash_route(k).0 + 1) % 4)))
            .collect();
        f.insert_entries(big);
        let outcome: RoutingTable = (1000..1010u64)
            .map(|k| (Key(k), TaskId((f.hash_route(Key(k)).0 + 1) % 4)))
            .collect();
        let moves: Vec<Move> = outcome
            .iter()
            .map(|(k, d)| Move {
                key: k,
                from: f.hash_route(k),
                to: d,
                state_bytes: 0,
            })
            .collect();
        assert!(!f.install_rebalance(&outcome, &moves), "must resync");
        assert_eq!(
            f.table().len(),
            outcome.len(),
            "resync swapped in the outcome"
        );
        // A small table with a small delta stays on the delta path and
        // routes every moved key correctly.
        let outcome2: RoutingTable = outcome.iter().chain([(Key(2000), TaskId(0))]).collect();
        let moves2 = [Move {
            key: Key(2000),
            from: f.hash_route(Key(2000)),
            to: TaskId(0),
            state_bytes: 0,
        }];
        assert!(f.install_rebalance(&outcome2, &moves2), "delta suffices");
        for (k, d) in outcome2.iter() {
            if d != f.hash_route(k) {
                assert_eq!(f.route(k), d);
            }
        }
    }

    /// The prefetched batch path kicks in at the slab threshold and stays
    /// observationally identical to the scalar loop.
    #[test]
    fn prefetched_route_batch_matches_scalar() {
        // 140_000 entries → 524_288 slots ≥ PREFETCH_MIN_SLOTS.
        let table: RoutingTable = (0..140_000u64)
            .map(|k| (Key(k * 7), TaskId((k % 6) as u32)))
            .collect();
        let f = AssignmentFn::with_table(6, table);
        assert!(f.table().wants_prefetch(), "slab must cross the threshold");
        let keys: Vec<Key> = (0..5_000u64).map(|k| Key(k * 11)).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        f.route_batch(&keys, &mut a);
        f.route_batch_scalar(&keys, &mut b);
        assert_eq!(a, b);
        // Small tables stay under the threshold (Amax = 3000 unchanged).
        let small: RoutingTable = (0..3_000u64).map(|k| (Key(k), TaskId(0))).collect();
        let g = AssignmentFn::with_table(4, small);
        assert!(!g.table().wants_prefetch());
    }

    #[test]
    fn split_key_round_robins_over_replicas() {
        let mut f = AssignmentFn::hash_only(4);
        let k = Key(9);
        assert!(f.set_split(k, &[TaskId(1), TaskId(3), TaskId(0)]));
        // The rotation hands out replicas in order, starting at the
        // primary, and wraps.
        let got: Vec<TaskId> = (0..7).map(|_| f.route(k)).collect();
        let want = [1u32, 3, 0, 1, 3, 0, 1].map(TaskId);
        assert_eq!(got, want);
        // Non-split keys are untouched.
        let other = Key(10);
        assert_eq!(f.route(other), f.hash_route(other));
    }

    #[test]
    fn set_split_rejects_degenerate_replica_sets() {
        let mut f = AssignmentFn::hash_only(4);
        assert!(!f.set_split(Key(1), &[TaskId(0)]), "one replica");
        assert!(!f.set_split(Key(1), &[]), "no replicas");
        assert!(
            !f.set_split(Key(1), &[TaskId(0), TaskId(0)]),
            "duplicate replicas"
        );
        assert!(f.splits().is_empty());
    }

    #[test]
    fn clear_split_reverts_to_table_then_hash() {
        let mut f = AssignmentFn::hash_only(4);
        let k = Key(5);
        let pinned = TaskId((f.hash_route(k).0 + 1) % 4);
        f.insert_entries([(k, pinned)]);
        assert!(f.set_split(k, &[pinned, TaskId((pinned.0 + 1) % 4)]));
        assert_eq!(f.split_replicas(k).unwrap()[0], pinned);
        let replicas = f.clear_split(k).unwrap();
        assert_eq!(replicas[0], pinned);
        // Split gone: the table entry routes again.
        assert_eq!(f.route(k), pinned);
        assert_eq!(f.clear_split(k), None);
        f.apply_delta([(k, f.hash_route(k))]);
        assert_eq!(f.route(k), f.hash_route(k));
    }

    #[test]
    fn route_batch_with_splits_matches_per_key_route() {
        let table: RoutingTable = (0..50u64).map(|k| (Key(k), TaskId(2))).collect();
        let mut f = AssignmentFn::with_table(4, table);
        f.set_split(Key(3), &[TaskId(0), TaskId(1), TaskId(2)]);
        f.set_split(Key(100), &[TaskId(3), TaskId(1)]);
        let keys: Vec<Key> = (0..200u64).map(|k| Key(k % 110)).collect();
        // Route the same sequence twice — batched vs per-key — from two
        // clones so the cursors start identical.
        let g = f.clone();
        let mut batched = Vec::new();
        f.route_batch(&keys, &mut batched);
        let scalar: Vec<TaskId> = keys.iter().map(|&k| g.route(k)).collect();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn splits_survive_table_maintenance() {
        let mut f = AssignmentFn::hash_only(4);
        let k = Key(7);
        f.set_split(k, &[TaskId(0), TaskId(2)]);
        // Table delta, swap, and prune leave the split layer intact.
        f.apply_delta([(Key(50), TaskId(1))]);
        f.swap_table(RoutingTable::new());
        f.prune_redundant();
        assert_eq!(f.split_replicas(k), Some(&[TaskId(0), TaskId(2)][..]));
        assert_eq!(f.route(k), TaskId(0));
    }

    #[test]
    fn scale_in_repairs_splits_referencing_the_victim() {
        let mut f = AssignmentFn::hash_only(4);
        // One split survives victim removal (3 replicas, one on victim),
        // one dissolves (2 replicas, one on victim).
        f.set_split(Key(1), &[TaskId(0), TaskId(3), TaskId(2)]);
        f.set_split(Key(2), &[TaskId(1), TaskId(3)]);
        let victim = f.remove_task_pinned(&[]);
        assert_eq!(victim, TaskId(3));
        assert_eq!(f.split_replicas(Key(1)), Some(&[TaskId(0), TaskId(2)][..]));
        assert_eq!(f.split_replicas(Key(2)), None, "degenerate split dissolves");
        assert_eq!(f.route(Key(2)), f.hash_route(Key(2)));
    }

    #[test]
    fn scale_out_ignores_split_keys_when_pinning() {
        let mut f = AssignmentFn::hash_only(3);
        let live: Vec<Key> = (0..2_000u64).map(Key).collect();
        f.set_split(Key(0), &[TaskId(0), TaskId(1)]);
        let before = f.split_replicas(Key(0)).unwrap().to_vec();
        let (_, moves) = f.add_task_with_moves(&live);
        assert!(
            moves.iter().all(|&(k, _)| k != Key(0)),
            "split key reported as ring churn"
        );
        assert_eq!(f.split_replicas(Key(0)).unwrap(), &before[..]);
        // Pinned flavour: no table entry materializes for the split key.
        let mut g = AssignmentFn::hash_only(3);
        g.set_split(Key(0), &[TaskId(0), TaskId(1)]);
        g.add_task_pinned(&live);
        assert_eq!(g.table().lookup(Key(0)), None);
    }

    #[test]
    fn splits_view_is_sorted_and_cursorless() {
        let mut f = AssignmentFn::hash_only(4);
        f.set_split(Key(9), &[TaskId(1), TaskId(2)]);
        f.set_split(Key(3), &[TaskId(0), TaskId(3)]);
        // Advance a cursor; the exported view must be unaffected.
        f.route(Key(9));
        let v = f.splits();
        assert_eq!(
            v,
            vec![
                (Key(3), vec![TaskId(0), TaskId(3)]),
                (Key(9), vec![TaskId(1), TaskId(2)]),
            ]
        );
        // Re-materializing from the view starts rotation at the primary.
        let mut g = AssignmentFn::hash_only(4);
        g.set_splits(v);
        assert_eq!(g.route(Key(9)), TaskId(1));
    }

    #[test]
    fn sorted_entries_deterministic() {
        let t: RoutingTable = [
            (Key(5), TaskId(0)),
            (Key(2), TaskId(1)),
            (Key(9), TaskId(0)),
        ]
        .into_iter()
        .collect();
        let keys: Vec<u64> = t.sorted_entries().iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, vec![2, 5, 9]);
    }
}
