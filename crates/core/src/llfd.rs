//! Least-Load Fit Decreasing (paper §III-A, Algorithm 1).
//!
//! LLFD is the Phase-III assignment subroutine shared by MinTable, MinMig
//! and Mixed. Candidate keys are processed in non-increasing order of
//! computation cost; each is offered to task instances in ascending order
//! of current load. The `Adjust` function decides acceptance: a task takes
//! the key outright if it stays under `Lmax = (1+θmax)·L̄`, or it may
//! *exchange* — evict an "exchangeable set" `E` of strictly-cheaper keys
//! (selected by the criteria ψ) back into the candidate pool so that the
//! incoming key fits. The strict `c(k′) < c(k)` eviction rule means every
//! displacement chain strictly decreases in cost, which (by well-founded
//! multiset ordering) guarantees termination.
//!
//! The pseudocode leaves one case open: a key that *no* instance accepts.
//! We force-assign it to the least-loaded instance (accepting temporary
//! overload) so the subroutine is total; DESIGN.md records this deviation.
//!
//! # Task lists
//!
//! Each task's keys are one `Vec<u32>` of record indices kept
//! ψ-*ascending* (ties: the higher index first), so the key the Phase-II
//! drain takes and the exchange scan starts from — highest ψ, lowest
//! index — is the last element. Removal is lazy: disassociating a key
//! clears its assignment and nothing else, and a list entry is live while
//! its key is assigned to the list's task. The drain pops dead entries
//! off the back, the exchange scan steps over them, and placing a key on
//! a task whose list still holds its dead entry revives that entry (a
//! key's ψ never changes, so the entry sits exactly where the insertion
//! would go). No step searches a list for a key or shifts one to remove
//! it.
//!
//! # Bounded arenas
//!
//! An arena need not hold every key. Over a selection
//! (`StatsWindow::select`) it holds every routing-table entry and, of
//! each task's other keys, the first `m` in ψ order; the rest of the
//! task is *folded* into one fixed load. Both phases read a task's list
//! from the top only, and every folded key ranks after the task's
//! *horizon* — its `m`-th held non-table key — so a scan that stops at
//! or before the horizon sees what it would see in the full arena. A
//! scan that would go further returns an overflow, and the caller plans
//! again with that task's `m` doubled. The one scan that goes on is an
//! exchange that fails even if every folded key were cheap enough to
//! count: a failed exchange changes nothing. DESIGN.md §8 has the
//! argument.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::key::{Key, TaskId};
use crate::stats::KeyRecord;

/// The key-selection criteria ψ used for Phase-II draining and for
/// exchangeable-set construction inside `Adjust`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Criteria {
    /// "Highest computation cost first" — MinTable's ψ.
    HighestCost,
    /// "Largest migration-priority index `γ = c^β / S` first" — MinMig's
    /// and Mixed's ψ.
    LargestGamma {
        /// The weight-scaling factor β trading computation cost against
        /// migration (memory) cost; the paper defaults to 1.5.
        beta: f64,
    },
}

impl Criteria {
    /// The ψ score of a record (higher = selected earlier).
    #[inline]
    pub fn score(&self, r: &KeyRecord) -> f64 {
        match *self {
            Criteria::HighestCost => r.cost as f64,
            Criteria::LargestGamma { beta } => r.gamma(beta),
        }
    }
}

/// Whether a key of ψ score `a` and tie-break `ka` is taken before one of
/// score `b` and tie-break `kb`: the higher ψ first, then the smaller
/// tie-break — the record index in an arena, the key in a selection,
/// which is one order because a selection's records are sorted by key.
#[inline]
fn ranks_before<T: Ord>(a: f64, ka: T, b: f64, kb: T) -> bool {
    a > b || (a == b && ka < kb)
}

/// Heap entry ordering candidates by descending cost, tie-broken by key id
/// for determinism.
#[derive(Debug, PartialEq, Eq)]
struct Candidate {
    cost: u64,
    idx: u32,
    key_raw: u64,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cost
            .cmp(&other.cost)
            .then_with(|| other.key_raw.cmp(&self.key_raw))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One task's keys a bounded arena leaves out: non-table keys that rank
/// after every non-table key of the task the arena holds. No scan reaches
/// them, so they stay where they are and only their totals take part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Folded {
    /// How many keys are folded; zero when the arena holds them all.
    pub(crate) keys: u64,
    /// Their summed cost: a fixed part of the task's load.
    pub(crate) cost: u64,
    /// Their summed state bytes.
    pub(crate) mem: u64,
    /// The task's horizon: the lowest-ranked non-table key held (when
    /// `keys > 0`).
    horizon: Key,
}

impl Folded {
    const NONE: Folded = Folded {
        keys: 0,
        cost: 0,
        mem: 0,
        horizon: Key(0),
    };

    fn add(&mut self, r: &KeyRecord) {
        self.keys += 1;
        self.cost += r.cost;
        self.mem += r.mem;
    }
}

/// The keys one plan runs over: the records an arena holds and, per
/// task, the totals of the keys folded away.
///
/// [`Rows::full`] folds nothing, and a plan over it never overflows. Only
/// a selection (`StatsWindow::select`) folds keys; it keeps its records
/// sorted by key and every horizon among them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<'a> {
    n_tasks: usize,
    records: &'a [KeyRecord],
    /// Per task; empty when nothing is folded.
    folded: &'a [Folded],
}

impl<'a> Rows<'a> {
    /// Every key, in `records` (any order), over `n_tasks` tasks.
    pub(crate) fn full(records: &'a [KeyRecord], n_tasks: usize) -> Self {
        Rows {
            n_tasks,
            records,
            folded: &[],
        }
    }

    /// The records an arena holds; a plan's assignment is parallel to
    /// them.
    pub(crate) fn records(&self) -> &'a [KeyRecord] {
        self.records
    }

    /// Downstream parallelism `N_D`.
    pub(crate) fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Per task, the keys folded away; empty when none are.
    pub(crate) fn folded(&self) -> &'a [Folded] {
        self.folded
    }
}

/// A selection candidate. `Ord` puts the later-ranked key last, so the
/// top of a max-heap is the worst key it holds.
#[derive(Debug)]
struct Ranked {
    score: f64,
    rec: KeyRecord,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = ((self.score, self.rec.key), (other.score, other.rec.key));
        if ranks_before(a.0, a.1, b.0, b.1) {
            Ordering::Less
        } else if ranks_before(b.0, b.1, a.0, a.1) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// The keys of a bounded arena: every routing-table entry and, of each
/// task's other keys, the first `m` in ψ order, the rest folded.
#[derive(Debug)]
pub(crate) struct Selection {
    n_tasks: usize,
    /// Sorted by key.
    records: Vec<KeyRecord>,
    folded: Vec<Folded>,
}

impl Selection {
    /// Selects from `records` — each live key once, in any order — every
    /// table entry and, of each task `d`'s other keys, the first `m[d]`
    /// (at least one) in `criteria`'s order.
    ///
    /// It passes over `records` twice: to count, then to collect the
    /// table entries into a buffer of its final size while a heap of
    /// `m[d]` per task keeps the task's best keys (every key a heap drops
    /// is folded into the task's totals).
    pub(crate) fn new(
        records: impl Iterator<Item = KeyRecord> + Clone,
        criteria: Criteria,
        m: &[usize],
    ) -> Self {
        let n_tasks = m.len();
        let mut entries = 0;
        let mut others = vec![0usize; n_tasks];
        for rec in records.clone() {
            match rec.in_table() {
                true => entries += 1,
                false => others[rec.current.index()] += 1,
            }
        }
        let m: Vec<usize> = m.iter().map(|&m| m.max(1)).collect();
        let kept: Vec<usize> = m.iter().zip(&others).map(|(&m, &o)| m.min(o)).collect();
        let mut held = Vec::with_capacity(entries + kept.iter().sum::<usize>());
        let mut top: Vec<BinaryHeap<Ranked>> =
            kept.into_iter().map(BinaryHeap::with_capacity).collect();
        let mut folded = vec![Folded::NONE; n_tasks];
        for rec in records {
            if rec.in_table() {
                held.push(rec);
                continue;
            }
            let d = rec.current.index();
            let next = Ranked {
                score: criteria.score(&rec),
                rec,
            };
            let heap = &mut top[d];
            if heap.len() < m[d] {
                heap.push(next);
                continue;
            }
            let out = match heap.peek_mut() {
                Some(mut worst) if next < *worst => std::mem::replace(&mut *worst, next),
                _ => next,
            };
            folded[d].add(&out.rec);
        }
        for (heap, f) in top.into_iter().zip(&mut folded) {
            if let Some(worst) = heap.peek() {
                f.horizon = worst.rec.key;
            }
            held.extend(heap.into_iter().map(|r| r.rec));
        }
        held.sort_unstable_by_key(|r| r.key);
        Selection {
            n_tasks,
            records: held,
            folded,
        }
    }

    /// The selected rows, for an arena.
    pub(crate) fn rows(&self) -> Rows<'_> {
        Rows {
            n_tasks: self.n_tasks,
            records: &self.records,
            folded: &self.folded,
        }
    }
}

/// A scan of a task's list would pass its horizon while keys are folded
/// there: only an arena holding more of the task's keys can tell what the
/// full arena does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Overflow {
    task: TaskId,
}

impl Overflow {
    /// Doubles the task's entry of `m`, the non-table keys per task the
    /// next arena holds.
    pub(crate) fn grow(self, m: &mut [usize]) {
        let m = &mut m[self.task.index()];
        *m = m.saturating_mul(2);
    }
}

/// The value of a plan step on an arena that folds nothing.
pub(crate) fn complete<T>(step: Result<T, Overflow>) -> T {
    // lint: allow(panic, reason = "only a selection folds keys, and the one
    // caller that plans over a selection handles its overflow")
    step.unwrap_or_else(|o| panic!("an arena that folds nothing overflowed on {}", o.task))
}

/// Mutable assignment state shared by all the rebalance algorithms.
///
/// Holds the key records, the working assignment (`None` = in candidate
/// set `C`), per-task loads, and per-task key lists ordered by ψ (see
/// the module docs), so that Phase-II draining and exchangeable-set
/// search read each list from its top.
#[derive(Debug)]
pub struct Arena<'a> {
    records: &'a [KeyRecord],
    /// Working assignment; `None` means the key sits in the candidate set.
    assign: Vec<Option<TaskId>>,
    /// ψ score per key (precomputed).
    score: Vec<f64>,
    /// Current load per task, folded keys included.
    loads: Vec<u64>,
    /// Key indices per task, ψ-ascending, dead entries included.
    task_keys: Vec<Vec<u32>>,
    /// Per task with folded keys: the horizon's index and the totals.
    horizon: Vec<Option<(u32, Folded)>>,
    /// Live keys, folded ones included: LLFD's budget counts them all.
    live_keys: usize,
    n_tasks: usize,
    /// Mean load `L̄` — invariant over the run since total cost is fixed.
    mean: f64,
}

impl<'a> Arena<'a> {
    /// Builds the arena with every key assigned to `initial(idx, record)`.
    ///
    /// `initial` lets MinTable start from hash destinations (table cleaned)
    /// while MinMig starts from `current`; Mixed mixes per key (Phase I
    /// moves back only the `n` selected table entries).
    pub fn new(
        records: &'a [KeyRecord],
        n_tasks: usize,
        criteria: Criteria,
        initial: impl FnMut(usize, &KeyRecord) -> TaskId,
    ) -> Self {
        Arena::over(Rows::full(records, n_tasks), criteria, initial)
    }

    /// [`Arena::new`] over `rows`, whose folded keys stay on their task.
    /// `initial` must leave a non-table key where it is, and `criteria`
    /// must be the order `rows` were selected in.
    pub(crate) fn over(
        rows: Rows<'a>,
        criteria: Criteria,
        mut initial: impl FnMut(usize, &KeyRecord) -> TaskId,
    ) -> Self {
        let Rows {
            n_tasks,
            records,
            folded,
        } = rows;
        assert!(n_tasks > 0, "arena needs at least one task");
        let mut assign = Vec::with_capacity(records.len());
        let mut score = Vec::with_capacity(records.len());
        let mut loads = vec![0u64; n_tasks];
        let mut live_keys = records.len();
        for (load, f) in loads.iter_mut().zip(folded) {
            *load = f.cost;
            live_keys += f.keys as usize;
        }
        let mut sizes = vec![0usize; n_tasks];
        for (i, r) in records.iter().enumerate() {
            let d = initial(i, r);
            assert!(d.index() < n_tasks, "initial assignment out of range");
            assign.push(Some(d));
            score.push(criteria.score(r));
            loads[d.index()] += r.cost;
            sizes[d.index()] += 1;
        }
        let mut task_keys: Vec<Vec<u32>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (i, d) in assign.iter().flatten().enumerate() {
            task_keys[d.index()].push(i as u32);
        }
        let score_ref = &score;
        for keys in &mut task_keys {
            keys.sort_unstable_by(|&a, &b| {
                let (sa, sb) = (score_ref[a as usize], score_ref[b as usize]);
                if ranks_before(sb, b, sa, a) {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            });
        }
        let horizon: Vec<Option<(u32, Folded)>> = (0..n_tasks)
            .map(|d| {
                let f = folded.get(d).filter(|f| f.keys > 0)?;
                // lint: allow(panic, reason = "a selection holds every
                // horizon key among its records, which it sorts by key")
                let h = records
                    .binary_search_by_key(&f.horizon, |r| r.key)
                    .expect("a selection holds its horizons");
                Some((h as u32, *f))
            })
            .collect();
        debug_assert!(
            horizon
                .iter()
                .zip(&task_keys)
                .all(|(h, list)| h.is_none_or(|(h, _)| {
                    list.iter().all(|&i| {
                        let (sh, si) = (score[h as usize], score[i as usize]);
                        records[i as usize].in_table() || !ranks_before(sh, h, si, i)
                    })
                })),
            "rows selected in another order than the arena's ψ"
        );
        let total: u64 = loads.iter().sum();
        Arena {
            records,
            assign,
            score,
            loads,
            task_keys,
            horizon,
            live_keys,
            n_tasks,
            mean: total as f64 / n_tasks as f64,
        }
    }

    /// The mean load `L̄`.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current per-task loads.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The working assignment of key index `i` (`None` = candidate).
    #[inline]
    pub fn assignment(&self, i: usize) -> Option<TaskId> {
        self.assign[i]
    }

    /// Extracts the final assignment vector; panics if any key is still a
    /// candidate (callers must run LLFD to completion first).
    pub fn into_assignment(self) -> Vec<TaskId> {
        // lint: allow(panic, reason = "documented contract: callers run LLFD
        // to completion first; an unassigned key here would otherwise
        // surface as keys silently routed to task 0")
        self.assign
            .into_iter()
            .map(|a| a.expect("LLFD left an unassigned key"))
            .collect()
    }

    /// Whether key `idx` ranks after task `d`'s horizon while keys are
    /// folded there.
    fn beyond(&self, d: usize, idx: u32) -> bool {
        self.horizon[d].is_some_and(|(h, _)| {
            ranks_before(self.score[h as usize], h, self.score[idx as usize], idx)
        })
    }

    /// Assigns candidate `idx` to task `d`, updating loads and key lists.
    fn place(&mut self, idx: u32, d: TaskId) {
        debug_assert!(self.assign[idx as usize].is_none());
        self.assign[idx as usize] = Some(d);
        self.loads[d.index()] += self.records[idx as usize].cost;
        let score = &self.score;
        let s = score[idx as usize];
        let keys = &mut self.task_keys[d.index()];
        let pos = keys.partition_point(|&o| ranks_before(s, idx, score[o as usize], o));
        if keys.get(pos) != Some(&idx) {
            keys.insert(pos, idx);
        }
    }

    /// Disassociates key `idx` from its task into the candidate set,
    /// returning its record. No-op panic guard: key must be assigned.
    pub fn disassociate(&mut self, idx: u32) -> &KeyRecord {
        // lint: allow(panic, reason = "documented no-op panic guard: callers
        // only disassociate assigned keys; proceeding would corrupt the
        // load accounting the whole Phase II drain is built on")
        let d = self.assign[idx as usize]
            .take()
            .expect("key already disassociated");
        self.loads[d.index()] -= self.records[idx as usize].cost;
        &self.records[idx as usize]
    }

    /// The highest-ψ key on task `d`, dead entries dropped off the back;
    /// an overflow when the full arena's could be a folded key.
    fn top(&mut self, d: usize) -> Result<Option<u32>, Overflow> {
        let overflow = Overflow {
            task: TaskId::from(d),
        };
        while let Some(&idx) = self.task_keys[d].last() {
            if self.assign[idx as usize] == Some(overflow.task) {
                return match self.beyond(d, idx) {
                    true => Err(overflow),
                    false => Ok(Some(idx)),
                };
            }
            self.task_keys[d].pop();
        }
        match self.horizon[d] {
            Some(_) => Err(overflow),
            None => Ok(None),
        }
    }

    /// Phase II: drains overloaded tasks (`L(d) > Lmax`) by disassociating
    /// keys in ψ-descending order until each drops to `Lmax` or runs out of
    /// keys. Returns the candidate indices.
    pub fn drain_overloaded(&mut self, theta_max: f64) -> Vec<u32> {
        complete(self.drain(theta_max))
    }

    /// [`Arena::drain_overloaded`], or the task whose horizon it reached.
    pub(crate) fn drain(&mut self, theta_max: f64) -> Result<Vec<u32>, Overflow> {
        let lmax = (1.0 + theta_max) * self.mean;
        let mut candidates = Vec::new();
        for d in 0..self.n_tasks {
            while self.loads[d] as f64 > lmax {
                let Some(idx) = self.top(d)? else {
                    break;
                };
                self.disassociate(idx);
                candidates.push(idx);
            }
        }
        Ok(candidates)
    }

    /// The `Adjust` function (Algorithm 1, lines 10–20). Returns true if
    /// key `idx` may be placed on `d`, possibly after evicting an
    /// exchangeable set `E` into `evicted`.
    ///
    /// `E` must satisfy: (i) `E ⊆ keys(d)`; (ii) every member strictly
    /// cheaper than the incoming key; (iii) `L(d) + c(k) − Σ_E c ≤ Lmax`.
    fn adjust(
        &mut self,
        idx: u32,
        d: TaskId,
        lmax: f64,
        evicted: &mut Vec<u32>,
        exchange: bool,
    ) -> Result<bool, Overflow> {
        let c_in = self.records[idx as usize].cost;
        let after = self.loads[d.index()] as f64 + c_in as f64;
        if after <= lmax {
            return Ok(true);
        }
        if !exchange {
            return Ok(false); // ablation: no exchangeable-set mechanism
        }
        // Pick E in ψ order among keys with c < c_in until (iii) holds.
        let need = after - lmax; // total cost E must shed
        let cost = |k: u32| self.records[k as usize].cost;
        let mut held = self.task_keys[d.index()]
            .iter()
            .rev()
            .copied()
            .filter(|&k| self.assign[k as usize] == Some(d));
        let mut chosen: Vec<u32> = Vec::new();
        let mut shed = 0u64;
        let mut past = None;
        let mut met = false;
        for cand in held.by_ref() {
            if self.beyond(d.index(), cand) {
                past = Some(cand);
                break;
            }
            let c = cost(cand);
            if c >= c_in {
                continue; // condition (ii)
            }
            chosen.push(cand);
            shed += c;
            if (shed as f64) >= need {
                met = true;
                break;
            }
        }
        if !met {
            // The full arena's scan would go on into the folded keys. It
            // fails — and changes nothing — unless every cheaper key left
            // could shed `need`, each folded one at most `c_in − 1`.
            if let Some((_, folded)) = self.horizon[d.index()] {
                let unseen: u64 = past
                    .into_iter()
                    .chain(held)
                    .map(cost)
                    .filter(|&c| c < c_in)
                    .sum();
                let cheap_folded = folded
                    .cost
                    .min(c_in.saturating_sub(1).saturating_mul(folded.keys));
                if shed.saturating_add(unseen).saturating_add(cheap_folded) as f64 >= need {
                    return Err(Overflow { task: d });
                }
            }
            return Ok(false); // no valid E exists
        }
        for cand in chosen {
            self.disassociate(cand);
            evicted.push(cand);
        }
        Ok(true)
    }
}

/// Outcome counters for one LLFD run, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlfdReport {
    /// Keys placed without exchange.
    pub direct_placements: usize,
    /// Keys placed after evicting an exchangeable set.
    pub exchanges: usize,
    /// Keys force-assigned because every instance rejected them.
    pub forced: usize,
}

/// LLFD variations, for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlfdOptions {
    /// Enable the `Adjust` exchange mechanism (the paper's fix for the
    /// "re-overloading" problem). Disabling degrades LLFD to plain
    /// least-load-fit-decreasing with force-assignment — the ablation
    /// bench quantifies what the exchange buys.
    pub exchange: bool,
}

impl Default for LlfdOptions {
    fn default() -> Self {
        LlfdOptions { exchange: true }
    }
}

/// Runs LLFD (Algorithm 1) over the arena's current candidate set.
///
/// `candidates` are the indices disassociated in Phase II (plus any Phase-I
/// move-backs that left keys unassigned — in our formulation move-backs
/// stay assigned, so normally just Phase II's output). On return every key
/// is assigned.
pub fn llfd(arena: &mut Arena<'_>, candidates: Vec<u32>, theta_max: f64) -> LlfdReport {
    llfd_with_options(arena, candidates, theta_max, LlfdOptions::default())
}

/// [`llfd`] with explicit [`LlfdOptions`].
pub fn llfd_with_options(
    arena: &mut Arena<'_>,
    candidates: Vec<u32>,
    theta_max: f64,
    options: LlfdOptions,
) -> LlfdReport {
    complete(try_llfd(arena, candidates, theta_max, options))
}

/// [`llfd_with_options`], or the task whose horizon an exchange reached.
pub(crate) fn try_llfd(
    arena: &mut Arena<'_>,
    candidates: Vec<u32>,
    theta_max: f64,
    options: LlfdOptions,
) -> Result<LlfdReport, Overflow> {
    let lmax = (1.0 + theta_max) * arena.mean();
    let mut heap: BinaryHeap<Candidate> = candidates
        .into_iter()
        .map(|idx| Candidate {
            cost: arena.records[idx as usize].cost,
            idx,
            key_raw: arena.records[idx as usize].key.raw(),
        })
        .collect();
    let mut report = LlfdReport::default();
    // Iteration budget: exchanges strictly decrease displaced cost, so this
    // terminates without it, but a budget turns a subtle regression into a
    // loud one. Beyond it we force-assign without exchange.
    let mut budget = 64 * (arena.live_keys + arena.n_tasks) as u64;

    let mut order: Vec<TaskId> = (0..arena.n_tasks).map(TaskId::from).collect();
    let mut evicted: Vec<u32> = Vec::new();

    while let Some(c) = heap.pop() {
        budget = budget.saturating_sub(1);
        // Tasks in ascending load order (ties by id), recomputed per key as
        // loads shift.
        order.sort_unstable_by_key(|d| (arena.loads[d.index()], d.0));
        let mut placed = false;
        if budget > 0 {
            for &d in &order {
                evicted.clear();
                if arena.adjust(c.idx, d, lmax, &mut evicted, options.exchange)? {
                    if evicted.is_empty() {
                        report.direct_placements += 1;
                    } else {
                        report.exchanges += 1;
                        for &e in &evicted {
                            heap.push(Candidate {
                                cost: arena.records[e as usize].cost,
                                idx: e,
                                key_raw: arena.records[e as usize].key.raw(),
                            });
                        }
                    }
                    arena.place(c.idx, d);
                    placed = true;
                    break;
                }
            }
        }
        if !placed {
            // Fallback: least-loaded instance, accepting temporary
            // overload (see module docs).
            report.forced += 1;
            arena.place(c.idx, order[0]);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;

    /// Builds records for the paper's Fig. 4 toy example:
    /// d1 ← {k1:7, k2:4, k5:5} (load 16), d2 ← {k3:2, k4:1, k6:1} (load 4).
    /// Hash destinations per the original routing table at the top of
    /// Fig. 4 (A = {(k3,d2),(k5,d1)} ⇒ h(k3)=d1, h(k5)=d2, others = where
    /// they sit).
    fn fig4_records() -> Vec<KeyRecord> {
        let rec = |key, cost, cur, hash| KeyRecord {
            key: Key(key),
            cost,
            mem: cost, // w=1, state proportional to cost
            current: TaskId(cur),
            hash_dest: TaskId(hash),
        };
        vec![
            rec(1, 7, 0, 0), // k1 on d1
            rec(2, 4, 0, 0), // k2 on d1
            rec(3, 2, 1, 0), // k3 on d2 via table
            rec(4, 1, 1, 1), // k4 on d2
            rec(5, 5, 0, 1), // k5 on d1 via table
            rec(6, 1, 1, 1), // k6 on d2
        ]
    }

    fn run_llfd(
        records: &[KeyRecord],
        theta: f64,
        criteria: Criteria,
    ) -> (Vec<TaskId>, LlfdReport) {
        let mut arena = Arena::new(records, 2, criteria, |_, r| r.current);
        let cands = arena.drain_overloaded(theta);
        let report = llfd(&mut arena, cands, theta);
        (arena.into_assignment(), report)
    }

    #[test]
    fn fig4_left_example_reaches_perfect_balance() {
        // θmax = 0 ⇒ both instances must end at load 10.
        let records = fig4_records();
        let (assign, report) = run_llfd(&records, 0.0, Criteria::HighestCost);
        let mut loads = [0u64; 2];
        for (r, d) in records.iter().zip(&assign) {
            loads[d.index()] += r.cost;
        }
        assert_eq!(loads, [10, 10], "paper: L(d1)=L(d2)=10");
        assert_eq!(report.forced, 0);
        // The paper's walkthrough: k1 displaces k3 (exchange), then k3
        // placing on d2 displaces k4 (second exchange).
        assert!(report.exchanges >= 2, "report: {report:?}");
    }

    #[test]
    fn fig4_final_assignment_matches_paper() {
        // Paper S4 result: d1 = {k2,k4,k5}? No — left side of Fig. 4 ends
        // with d2 = {k1,k3,k6} and d1 = {k2,k4,k5}.
        let records = fig4_records();
        let (assign, _) = run_llfd(&records, 0.0, Criteria::HighestCost);
        let dest = |key: u64| assign[records.iter().position(|r| r.key == Key(key)).unwrap()];
        assert_eq!(dest(1), TaskId(1), "k1 moves to d2");
        assert_eq!(dest(3), TaskId(1), "k3 stays on d2 after failed d1 try");
        assert_eq!(dest(4), TaskId(0), "k4 ends on d1");
        assert_eq!(dest(2), TaskId(0));
        assert_eq!(dest(5), TaskId(0));
        assert_eq!(dest(6), TaskId(1));
    }

    #[test]
    fn already_balanced_is_noop() {
        let rec = |key, cost, cur| KeyRecord {
            key: Key(key),
            cost,
            mem: 1,
            current: TaskId(cur),
            hash_dest: TaskId(cur),
        };
        let records = vec![rec(1, 5, 0), rec(2, 5, 1)];
        let mut arena = Arena::new(&records, 2, Criteria::HighestCost, |_, r| r.current);
        let cands = arena.drain_overloaded(0.0);
        assert!(cands.is_empty(), "no overload ⇒ nothing drained");
        let report = llfd(&mut arena, cands, 0.0);
        assert_eq!(report, LlfdReport::default());
        assert_eq!(arena.into_assignment(), vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn drain_stops_at_lmax() {
        let rec = |key, cost| KeyRecord {
            key: Key(key),
            cost,
            mem: 1,
            current: TaskId(0),
            hash_dest: TaskId(0),
        };
        // All load on d0 of 2 tasks: total 12, mean 6, θmax=0.5 ⇒ Lmax=9.
        let records = vec![rec(1, 4), rec(2, 4), rec(3, 4)];
        let mut arena = Arena::new(&records, 2, Criteria::HighestCost, |_, r| r.current);
        let cands = arena.drain_overloaded(0.5);
        assert_eq!(cands.len(), 1, "one key suffices: 12-4=8 ≤ 9");
        assert_eq!(arena.loads()[0], 8);
    }

    #[test]
    fn heavy_key_cannot_balance_but_terminates() {
        // One giant key dominating: perfect balance impossible; LLFD must
        // terminate and force-assign at most the giant.
        let rec = |key, cost| KeyRecord {
            key: Key(key),
            cost,
            mem: 1,
            current: TaskId(0),
            hash_dest: TaskId(0),
        };
        let records = vec![rec(1, 100), rec(2, 1), rec(3, 1)];
        let mut arena = Arena::new(&records, 2, Criteria::HighestCost, |_, r| r.current);
        let cands = arena.drain_overloaded(0.0);
        let report = llfd(&mut arena, cands, 0.0);
        let assign = arena.into_assignment();
        assert_eq!(assign.len(), 3);
        // The giant ends somewhere; everything is assigned.
        assert!(report.forced >= 1);
    }

    #[test]
    fn adjust_strictness_explicit() {
        let rec = |key, cost, cur| KeyRecord {
            key: Key(key),
            cost,
            mem: 1,
            current: TaskId(cur),
            hash_dest: TaskId(cur),
        };
        // d1 holds two cost-5 keys (load 10). Lmax = 10.
        let records = vec![rec(1, 5, 0), rec(2, 5, 1), rec(3, 5, 1)];
        let mut arena = Arena::new(&records, 2, Criteria::HighestCost, |_, r| r.current);
        arena.disassociate(0);
        let mut evicted = Vec::new();
        // Incoming cost 5: no key on d1 is strictly cheaper ⇒ no E ⇒ false.
        assert_eq!(
            arena.adjust(0, TaskId(1), 10.0, &mut evicted, true),
            Ok(false)
        );
        assert!(evicted.is_empty());
        // But a cheaper resident would be evictable: put cost-2 key on d1.
        let records2 = vec![rec(1, 5, 0), rec(2, 5, 1), rec(3, 2, 1)];
        let mut arena2 = Arena::new(&records2, 2, Criteria::HighestCost, |_, r| r.current);
        arena2.disassociate(0);
        let mut ev2 = Vec::new();
        // load(d1)=7, incoming 5 ⇒ 12 > Lmax=10, shed ≥ 2 via k3 (cost 2).
        assert_eq!(arena2.adjust(0, TaskId(1), 10.0, &mut ev2, true), Ok(true));
        assert_eq!(ev2.len(), 1);
        assert_eq!(records2[ev2[0] as usize].key, Key(3));
    }

    /// Removal is lazy: a key placed back on the task it left revives
    /// its dead entry, so no scan sees it twice.
    #[test]
    fn placing_a_key_back_revives_its_entry() {
        let rec = |key, cost, cur| KeyRecord {
            key: Key(key),
            cost,
            mem: 1,
            current: TaskId(cur),
            hash_dest: TaskId(cur),
        };
        // d0 holds k1 (5), k2 (1), k3 (1); d1 holds k4 (3).
        let records = vec![rec(1, 5, 0), rec(2, 1, 0), rec(3, 1, 0), rec(4, 3, 1)];
        let mut arena = Arena::new(&records, 2, Criteria::HighestCost, |_, r| r.current);
        arena.disassociate(1);
        arena.place(1, TaskId(0));
        assert_eq!(arena.task_keys[0].len(), 3);
        // k4 onto d0: 7 + 3 > Lmax = 8, so E must shed 2 — k2 and k3,
        // each once.
        arena.disassociate(3);
        let mut evicted = Vec::new();
        assert_eq!(
            arena.adjust(3, TaskId(0), 8.0, &mut evicted, true),
            Ok(true)
        );
        assert_eq!(evicted, vec![1, 2]);
    }

    #[test]
    fn no_exchange_ablation_degrades_balance() {
        // The Fig. 4 example needs exchanges to reach perfect balance;
        // without them the displaced keys force-assign and overload.
        let records = fig4_records();
        let mut with_x = Arena::new(&records, 2, Criteria::HighestCost, |_, r| r.current);
        let cands = with_x.drain_overloaded(0.0);
        let report = llfd_with_options(&mut with_x, cands, 0.0, LlfdOptions { exchange: true });
        assert_eq!(report.forced, 0);

        let mut without = Arena::new(&records, 2, Criteria::HighestCost, |_, r| r.current);
        let cands = without.drain_overloaded(0.0);
        let report = llfd_with_options(&mut without, cands, 0.0, LlfdOptions { exchange: false });
        assert!(report.exchanges == 0, "exchange disabled");
        assert!(
            report.forced > 0,
            "without exchange, k1 cannot be placed cleanly"
        );
    }

    #[test]
    fn gamma_criteria_prefers_high_cost_per_memory() {
        let rec = |key, cost, mem| KeyRecord {
            key: Key(key),
            cost,
            mem,
            current: TaskId(0),
            hash_dest: TaskId(0),
        };
        // Same cost, different memory: γ favors the low-memory key.
        let records = vec![rec(1, 10, 100), rec(2, 10, 1), rec(3, 1, 1)];
        let mut arena = Arena::new(&records, 2, Criteria::LargestGamma { beta: 1.0 }, |_, r| {
            r.current
        });
        let cands = arena.drain_overloaded(0.0);
        // Drained in γ order: key 2 (γ=10) before key 1 (γ=0.1).
        assert_eq!(records[cands[0] as usize].key, Key(2));
    }

    #[test]
    fn deterministic_across_runs() {
        let records = fig4_records();
        let a = run_llfd(&records, 0.0, Criteria::HighestCost).0;
        let b = run_llfd(&records, 0.0, Criteria::HighestCost).0;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_panics() {
        let records = fig4_records();
        Arena::new(&records, 0, Criteria::HighestCost, |_, r| r.current);
    }
}
