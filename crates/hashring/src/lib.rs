//! Fast non-cryptographic hashing and a consistent hash ring.
//!
//! This crate is the hashing substrate of the `streambal` workspace. The
//! paper's mixed routing strategy (Eq. 1) needs a *universal hash function*
//! `h : K → D` that deterministically maps a tuple key to a downstream task
//! instance; the paper uses consistent hashing (Karger et al., STOC'97) for
//! this role. Everything here is implemented from scratch:
//!
//! * [`mix64`] — a SplitMix64-style 64-bit finalizer used as the basic
//!   avalanche primitive.
//! * [`FxHasher64`] — a multiply-xor streaming hasher in the spirit of the
//!   Firefox/rustc `FxHash`, suitable for `HashMap` keys on hot paths (see
//!   the Rust Performance Book's hashing chapter).
//! * [`FxHashMap`]/[`FxHashSet`] — std collections pre-wired with the fast
//!   hasher.
//! * [`fx_hash_u64`] — the same hash as a one-shot function over `u64`,
//!   for flat structures or parity checks that need `FxHashMap`'s exact
//!   probe hash without the hasher machinery. (The routing layer's
//!   table slab indexes with plain [`mix64`] instead — one multiply
//!   cheaper, same avalanche family; see its docs.)
//! * [`HashRing`] — a consistent hash ring with virtual nodes mapping `u64`
//!   keys onto `n` task slots, supporting incremental scale-out (the
//!   Fig. 15 experiments add an instance at runtime).
//! * [`two_choices`] — the pair of independent hash choices used by the PKG
//!   baseline (power of two choices).

pub mod fx;
pub mod ring;

pub use fx::{fx_hash_u64, mix64, mix64_seeded, FxBuildHasher, FxHashMap, FxHashSet, FxHasher64};
pub use ring::HashRing;

/// Returns the two independent candidate slots `(h1(key), h2(key))` in
/// `0..n`, as used by partial key grouping's power-of-two-choices routing.
///
/// The two choices are guaranteed to be distinct whenever `n >= 2`, matching
/// PKG's requirement that each key's tuples are split across exactly two
/// workers.
///
/// # Panics
/// Panics if `n == 0`.
#[inline]
pub fn two_choices(key: u64, n: usize) -> (usize, usize) {
    assert!(n > 0, "two_choices requires at least one slot");
    let a = (mix64_seeded(key, 0x9E37_79B9_7F4A_7C15) % n as u64) as usize;
    if n == 1 {
        return (0, 0);
    }
    // Map the second choice into the remaining n-1 slots so that a != b.
    let b = (mix64_seeded(key, 0xC2B2_AE3D_27D4_EB4F) % (n as u64 - 1)) as usize;
    let b = if b >= a { b + 1 } else { b };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_choices_distinct() {
        for n in 2..20 {
            for key in 0..1000u64 {
                let (a, b) = two_choices(key, n);
                assert_ne!(a, b, "choices must differ for n={n} key={key}");
                assert!(a < n && b < n);
            }
        }
    }

    #[test]
    fn two_choices_single_slot() {
        assert_eq!(two_choices(42, 1), (0, 0));
    }

    #[test]
    fn two_choices_deterministic() {
        assert_eq!(two_choices(7, 8), two_choices(7, 8));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn two_choices_zero_slots_panics() {
        two_choices(1, 0);
    }

    #[test]
    fn two_choices_spread_is_roughly_uniform() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for key in 0..80_000u64 {
            let (a, b) = two_choices(key, n);
            counts[a] += 1;
            counts[b] += 1;
        }
        let expect = 2 * 80_000 / n;
        for (slot, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect as f64).abs() / (expect as f64) < 0.05,
                "slot {slot} count {c} deviates from {expect}"
            );
        }
    }
}
