//! Consistent hash ring with virtual nodes.
//!
//! The paper's baseline assignment `h(k)` is consistent hashing: keys and
//! (virtual copies of) task instances are mapped onto a `u64` circle, and a
//! key is owned by the first instance point at or after it clockwise.
//! Virtual nodes smooth the per-instance arc length so that, for a uniform
//! key population, instance loads concentrate around the mean.
//!
//! Consistency is the property the Fig. 15 scale-out experiment relies on:
//! adding one instance only claims keys from existing arcs — every key
//! either keeps its owner or moves to the *new* instance, so the hash-side
//! churn of a scale-out is `≈ K / (n+1)` instead of `≈ K`.
//!
//! A lookup is one bucket probe, not a binary search: the circle is cut
//! into `2^b` equal buckets (`2^b` the power of two at or above twice the
//! point count), each holding the index of the first point at or after
//! its start. A key's position reads its bucket from the top `b` bits and
//! steps forward past its bucket's points still below it — fewer than one
//! on average, with at least two buckets per point. Every point
//! before a bucket's start lies below every position in the bucket, so
//! the answer is exactly the first point at or after the position, the
//! one a binary search over all points finds.

use crate::fx::mix64_seeded;

/// Number of virtual points placed on the ring per slot, by default.
///
/// Arc-length variation scales like `1/√vnodes`; 256 vnodes keeps the
/// per-slot ownership deviation around 6%. A lookup's cost does not grow
/// with the count (one bucket probe, see the module docs); at four slots
/// the points and the bucket table take 24 KiB.
/// Residual imbalance is expected — the paper's premise is that hashing
/// alone cannot balance skewed key populations.
pub const DEFAULT_VNODES: usize = 256;

/// A consistent hash ring mapping `u64` keys to slot indices `0..n`.
///
/// Slots model downstream task instances. The ring is immutable-by-value:
/// [`HashRing::add_slot`] grows it in place (used by scale-out), and cloning
/// is cheap enough for snapshotting a routing epoch.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted ring points: (position, slot).
    points: Vec<(u64, u32)>,
    /// `buckets[j]` is the index of the first point at or after
    /// `j << shift` (`points.len()` if none is), for `2^(64 − shift)`
    /// buckets — the power of two at or above twice the point count.
    buckets: Vec<u32>,
    /// A position's bucket is `pos >> shift`.
    shift: u32,
    slots: usize,
    vnodes: usize,
}

impl HashRing {
    /// Builds a ring with `slots` instances and [`DEFAULT_VNODES`] virtual
    /// points each.
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    pub fn new(slots: usize) -> Self {
        Self::with_vnodes(slots, DEFAULT_VNODES)
    }

    /// Builds a ring with an explicit virtual-node count (≥ 1).
    ///
    /// # Panics
    /// Panics if `slots == 0` or `vnodes == 0`.
    pub fn with_vnodes(slots: usize, vnodes: usize) -> Self {
        assert!(slots > 0, "ring needs at least one slot");
        assert!(vnodes > 0, "ring needs at least one vnode per slot");
        let mut ring = HashRing {
            points: Vec::with_capacity(slots * vnodes),
            buckets: Vec::new(),
            shift: 0,
            slots: 0,
            vnodes,
        };
        for _ in 0..slots {
            ring.place_slot();
        }
        ring.rebuild_buckets();
        ring
    }

    /// Number of slots (task instances) on the ring.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of virtual points per slot.
    #[inline]
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Adds one slot (scale-out), returning its index.
    ///
    /// Existing keys either keep their slot or move to the new slot —
    /// never between old slots (the consistency property, asserted by
    /// tests).
    pub fn add_slot(&mut self) -> usize {
        let slot = self.place_slot();
        self.rebuild_buckets();
        slot
    }

    /// Puts the next slot's virtual points on the circle, leaving the
    /// bucket table to the caller.
    fn place_slot(&mut self) -> usize {
        let slot = self.slots as u32;
        for v in 0..self.vnodes {
            let pos = mix64_seeded((slot as u64) << 32 | v as u64, 0x5851_F42D_4C95_7F2D);
            let at = self.points.partition_point(|&(p, _)| p < pos);
            self.points.insert(at, (pos, slot));
        }
        self.slots += 1;
        self.slots - 1
    }

    /// Recomputes the bucket table from the points: one pass over both.
    fn rebuild_buckets(&mut self) {
        let n = (2 * self.points.len()).next_power_of_two();
        self.shift = 64 - n.trailing_zeros();
        self.buckets.clear();
        self.buckets.reserve_exact(n);
        let mut idx = 0usize;
        for j in 0..n as u64 {
            let start = j << self.shift;
            while idx < self.points.len() && self.points[idx].0 < start {
                idx += 1;
            }
            self.buckets.push(idx as u32);
        }
    }

    /// Removes the most recently added slot (scale-in), returning its
    /// former index. The exact inverse of [`HashRing::add_slot`]: only the
    /// removed slot's virtual points leave the ring, so every key it owned
    /// redistributes to surviving slots and every other key keeps its
    /// owner — the consistency property scale-in relies on, mirrored from
    /// scale-out.
    ///
    /// # Panics
    /// Panics if the ring has only one slot (a ring must own the circle).
    pub fn remove_slot(&mut self) -> usize {
        assert!(self.slots > 1, "cannot remove the last ring slot");
        let slot = (self.slots - 1) as u32;
        self.points.retain(|&(_, s)| s != slot);
        self.slots -= 1;
        self.rebuild_buckets();
        slot as usize
    }

    /// Maps a key to its owning slot.
    #[inline]
    pub fn slot_of(&self, key: u64) -> usize {
        self.owner_at(mix64_seeded(key, 0x2545_F491_4F6C_DD1D))
    }

    /// The slot owning circle position `pos`: the first point at or after
    /// it, wrapping to the first point past the last one.
    #[inline]
    fn owner_at(&self, pos: u64) -> usize {
        debug_assert!(!self.points.is_empty());
        let start = self.buckets[(pos >> self.shift) as usize] as usize;
        let idx = match self.points[start..].iter().position(|&(p, _)| p >= pos) {
            Some(i) => start + i,
            // Past the last point: wrap around the circle.
            None => 0,
        };
        self.points[idx].1 as usize
    }

    /// Fraction of the ring circle owned by each slot, for diagnostics and
    /// balance tests.
    pub fn arc_ownership(&self) -> Vec<f64> {
        let mut arcs = vec![0.0f64; self.slots];
        if self.points.is_empty() {
            return arcs;
        }
        for w in self.points.windows(2) {
            let (p0, _) = w[0];
            let (p1, owner) = w[1];
            arcs[owner as usize] += (p1 - p0) as f64;
        }
        // Wrap-around arc: from the last point to the first.
        let (last, _) = *self.points.last().unwrap();
        let (first, owner) = self.points[0];
        arcs[owner as usize] += (u64::MAX - last) as f64 + first as f64;
        let total: f64 = arcs.iter().sum();
        for a in &mut arcs {
            *a /= total;
        }
        arcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fx::mix64;

    /// The definition `owner_at` must match: a binary search for the first
    /// point at or after `pos`, wrapping past the last point.
    fn owner_by_search(ring: &HashRing, pos: u64) -> usize {
        let idx = ring.points.partition_point(|&(p, _)| p < pos);
        let idx = if idx == ring.points.len() { 0 } else { idx };
        ring.points[idx].1 as usize
    }

    /// Checks `owner_at` against the search at the positions where an
    /// off-by-one would show — every point and its neighbours, every
    /// bucket start and the position before it, both ends of the circle —
    /// and `slot_of` at `keys` seeded keys.
    fn assert_lookup_is_the_search(ring: &HashRing, keys: u64) {
        let n = ring.buckets.len() as u64;
        assert_eq!(n, (2 * ring.points.len() as u64).next_power_of_two());
        assert_eq!(n << ring.shift, 0, "buckets must tile the circle");
        let last = ring.points.last().unwrap().0;
        let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX, last, last.wrapping_add(1)];
        for &(p, _) in &ring.points {
            probes.extend([p.wrapping_sub(1), p, p.wrapping_add(1)]);
        }
        for j in 0..n {
            let start = j << ring.shift;
            probes.extend([start.wrapping_sub(1), start, start + 1]);
        }
        for pos in probes {
            assert_eq!(
                ring.owner_at(pos),
                owner_by_search(ring, pos),
                "pos {pos:#x}"
            );
        }
        for i in 0..keys {
            let key = mix64(i ^ 0x9E37_79B9);
            let pos = mix64_seeded(key, 0x2545_F491_4F6C_DD1D);
            assert_eq!(ring.slot_of(key), owner_by_search(ring, pos), "key {key}");
        }
    }

    #[test]
    fn bucket_lookup_is_the_binary_search() {
        for vnodes in [1, 32, 256] {
            for slots in 1..=16 {
                assert_lookup_is_the_search(&HashRing::with_vnodes(slots, vnodes), 20_000);
            }
        }
    }

    #[test]
    fn points_on_bucket_starts_and_circle_ends_are_found() {
        // Hashed points never land exactly on a bucket start; place them
        // there by hand: 0, two equal points at 2^63, and 2^62, 2^62 + 1
        // and u64::MAX (8 buckets, so every multiple of 2^61 starts one).
        let mut ring = HashRing {
            points: vec![
                (0, 0),
                (1 << 62, 1),
                ((1 << 62) + 1, 2),
                (1 << 63, 3),
                (1 << 63, 1),
                (u64::MAX, 2),
            ],
            buckets: Vec::new(),
            shift: 0,
            slots: 4,
            vnodes: 1,
        };
        ring.rebuild_buckets();
        assert_eq!(ring.shift, 60);
        assert_lookup_is_the_search(&ring, 2_000);
        assert_eq!(ring.owner_at(1 << 62), 1);
        assert_eq!(ring.owner_at(1 << 63), 3);
        assert_eq!(ring.owner_at((1 << 63) + 1), 2);
    }

    #[test]
    fn bucket_table_follows_add_and_remove() {
        for vnodes in [1, 32, 256] {
            let mut ring = HashRing::with_vnodes(1, vnodes);
            // Grow to 9, shrink to 2, grow to 12: rebuilds across
            // power-of-two bucket counts in both directions.
            for (grow, steps) in [(true, 8), (false, 7), (true, 10)] {
                for _ in 0..steps {
                    if grow {
                        ring.add_slot();
                    } else {
                        ring.remove_slot();
                    }
                    assert_lookup_is_the_search(&ring, 2_000);
                }
            }
            assert_eq!(ring.slots(), 12);
            let fresh = HashRing::with_vnodes(12, vnodes);
            assert_eq!(ring.points, fresh.points);
            assert_eq!(ring.buckets, fresh.buckets);
        }
    }

    #[test]
    fn lookup_in_range_and_deterministic() {
        let ring = HashRing::new(10);
        for key in 0..10_000u64 {
            let s = ring.slot_of(key);
            assert!(s < 10);
            assert_eq!(s, ring.slot_of(key));
        }
    }

    #[test]
    fn uniform_keys_spread_within_tolerance() {
        let ring = HashRing::new(8);
        let n_keys = 200_000u64;
        let mut counts = [0usize; 8];
        for key in 0..n_keys {
            counts[ring.slot_of(key)] += 1;
        }
        let expect = n_keys as f64 / 8.0;
        for (slot, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.2, "slot {slot}: {c} vs {expect} (dev {dev:.3})");
        }
    }

    #[test]
    fn scale_out_only_moves_keys_to_new_slot() {
        let mut ring = HashRing::new(6);
        let before: Vec<usize> = (0..50_000u64).map(|k| ring.slot_of(k)).collect();
        let new_slot = ring.add_slot();
        assert_eq!(new_slot, 6);
        let mut moved = 0usize;
        for (k, &old) in before.iter().enumerate() {
            let now = ring.slot_of(k as u64);
            if now != old {
                assert_eq!(now, new_slot, "key {k} moved {old}→{now}, not to new slot");
                moved += 1;
            }
        }
        // Expected churn ≈ K/(n+1) = 50_000/7 ≈ 7_143; allow wide slack.
        let expect = 50_000.0 / 7.0;
        assert!(
            (moved as f64) < expect * 1.5 && (moved as f64) > expect * 0.5,
            "moved {moved}, expected ≈ {expect}"
        );
    }

    #[test]
    fn remove_slot_is_the_inverse_of_add_slot() {
        let mut ring = HashRing::new(6);
        let before: Vec<usize> = (0..50_000u64).map(|k| ring.slot_of(k)).collect();
        ring.add_slot();
        assert_eq!(ring.remove_slot(), 6);
        assert_eq!(ring.slots(), 6);
        let after: Vec<usize> = (0..50_000u64).map(|k| ring.slot_of(k)).collect();
        assert_eq!(before, after, "add then remove must restore ownership");
    }

    #[test]
    fn remove_slot_only_moves_the_victims_keys() {
        let mut ring = HashRing::new(7);
        let before: Vec<usize> = (0..50_000u64).map(|k| ring.slot_of(k)).collect();
        let victim = ring.remove_slot();
        assert_eq!(victim, 6);
        for (k, &old) in before.iter().enumerate() {
            let now = ring.slot_of(k as u64);
            if old == victim {
                assert_ne!(now, victim, "key {k} still owned by removed slot");
            } else {
                assert_eq!(now, old, "key {k} moved {old}→{now} without cause");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot remove the last ring slot")]
    fn remove_last_slot_panics() {
        HashRing::new(1).remove_slot();
    }

    #[test]
    fn arc_ownership_sums_to_one_and_is_balanced() {
        let ring = HashRing::new(12);
        let arcs = ring.arc_ownership();
        let sum: f64 = arcs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for (slot, &a) in arcs.iter().enumerate() {
            assert!(
                (a - 1.0 / 12.0).abs() < 0.05,
                "slot {slot} owns {a:.4} of the ring"
            );
        }
    }

    #[test]
    fn single_slot_owns_everything() {
        let ring = HashRing::new(1);
        for key in 0..1000u64 {
            assert_eq!(ring.slot_of(key), 0);
        }
        assert!((ring.arc_ownership()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        HashRing::new(0);
    }

    #[test]
    fn vnode_count_respected() {
        let ring = HashRing::with_vnodes(4, 16);
        assert_eq!(ring.vnodes(), 16);
        assert_eq!(ring.slots(), 4);
    }
}
