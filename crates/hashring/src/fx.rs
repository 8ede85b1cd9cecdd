//! Multiply-xor hashing primitives.
//!
//! SipHash (std's default) is overkill for the router hot path: keys here
//! are 64-bit identifiers that are already well-distributed or get finished
//! through [`mix64`]. A single multiply-xor round per word is an order of
//! magnitude cheaper and is the same design rustc uses internally.

use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`.
///
/// Every bit of the output depends on every bit of the input, so taking
/// `mix64(k) % n` yields a near-uniform slot assignment even for dense
/// integer key domains (`0..K`), which is exactly how the synthetic
/// workloads name their keys.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The inverse of [`mix64`]: `unmix64(mix64(x)) == x` for every `x`.
///
/// Undoes each step in reverse order: an `x ^= x >> s` by xoring in the
/// further shifts, a multiply by the constant's inverse mod 2⁶⁴.
#[inline]
pub fn unmix64(mut x: u64) -> u64 {
    x ^= (x >> 31) ^ (x >> 62);
    x = x.wrapping_mul(0x3196_42B2_D24D_8EC3);
    x ^= (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(0x96DE_1B17_3F11_9089);
    x ^= (x >> 30) ^ (x >> 60);
    x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

/// [`mix64`] with an extra seed, producing an independent hash family
/// member. Used wherever two or more independent functions of the same key
/// are needed (ring points, power-of-two-choices).
#[inline]
pub fn mix64_seeded(x: u64, seed: u64) -> u64 {
    mix64(x ^ seed.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// A fast streaming hasher: one rotate-xor-multiply round per 8-byte word.
///
/// Not HashDoS-resistant — do not expose to untrusted keys. Inside the
/// engine all hashed values are internal identifiers, matching the threat
/// model under which rustc uses the same construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    state: u64,
}

impl FxHasher64 {
    const SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

    #[inline]
    fn round(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        // A final avalanche pass: the multiply-xor rounds alone are weak in
        // the low bits, and HashMap derives bucket indices from them.
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.round(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.round(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.round(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.round(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.round(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.round(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.round(v as u64);
    }
}

/// One-shot [`FxHasher64`] of a single `u64` — exactly the value
/// `FxBuildHasher::default().hash_one(x)` produces, without constructing a
/// hasher.
///
/// This is the full probe hash behind [`FxHashMap`] for `u64`-shaped keys,
/// exposed so that flat open-addressed structures can index with the
/// *same* hash function the map they replace used, keeping collision
/// behaviour and benchmarks comparable.
///
/// Do not be tempted to skip the avalanche and index flat tables with the
/// bare multiply (`x * SEED`): on dense sequential key domains — exactly
/// what the synthetic workloads produce — its bits land with
/// three-distance regularity and linear-probe chains triple (measured
/// ~4.4 vs ~1.3 average probes at a 3000-entry/8192-slot table). Use this
/// full hash, or [`mix64`], for any open-addressed indexing.
#[inline]
pub fn fx_hash_u64(x: u64) -> u64 {
    // write_u64 from a zero state: (rotl(0,5) ^ x) * SEED = x * SEED,
    // then the finish() avalanche.
    mix64(x.wrapping_mul(FxHasher64::SEED))
}

/// `BuildHasher` for [`FxHasher64`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// `HashMap` keyed with the fast hasher; drop-in for `std::HashMap`.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with the fast hasher; drop-in for `std::HashSet`.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_bytes(b: &[u8]) -> u64 {
        FxBuildHasher::default().hash_one(b)
    }

    #[test]
    fn mix64_is_bijective_on_sample() {
        // A bijection never collides; sample a window and check.
        let mut seen = std::collections::HashSet::new();
        for x in 0..100_000u64 {
            assert!(seen.insert(mix64(x)), "collision at {x}");
        }
    }

    #[test]
    fn unmix64_inverts_mix64() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for edge in [0, 1, u64::MAX, 1 << 63] {
            assert_eq!(unmix64(mix64(edge)), edge);
            assert_eq!(mix64(unmix64(edge)), edge);
        }
        for _ in 0..100_000 {
            assert_eq!(unmix64(mix64(x)), x);
            x = mix64(x);
        }
    }

    #[test]
    fn mix64_avalanche_flips_about_half_the_bits() {
        let mut total = 0u32;
        let n = 10_000u64;
        for x in 0..n {
            total += (mix64(x) ^ mix64(x ^ 1)).count_ones();
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 32.0).abs() < 2.0, "avalanche average {avg}");
    }

    #[test]
    fn seeded_families_are_independent() {
        // Two family members should disagree on slot assignments often.
        let n = 16u64;
        let mut same = 0;
        for x in 0..10_000u64 {
            if mix64_seeded(x, 1) % n == mix64_seeded(x, 2) % n {
                same += 1;
            }
        }
        // Expected agreement rate 1/16 ≈ 625.
        assert!((400..900).contains(&same), "agreement {same}");
    }

    #[test]
    fn hasher_deterministic_and_length_sensitive() {
        assert_eq!(hash_bytes(b"abcdef"), hash_bytes(b"abcdef"));
        assert_ne!(hash_bytes(b"abcdef"), hash_bytes(b"abcdeg"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abc\0"));
    }

    #[test]
    fn hasher_handles_all_chunk_remainders() {
        let data = b"0123456789abcdef0123456789";
        let mut outputs = std::collections::HashSet::new();
        for len in 0..data.len() {
            outputs.insert(hash_bytes(&data[..len]));
        }
        assert_eq!(outputs.len(), data.len(), "prefix hashes must be distinct");
    }

    #[test]
    fn fx_hash_u64_matches_hasher() {
        let b = FxBuildHasher::default();
        for x in (0..10_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
            assert_eq!(fx_hash_u64(x), b.hash_one(x), "mismatch at {x}");
        }
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&500), Some(&1000));
        let s: FxHashSet<u64> = (0..100).collect();
        assert!(s.contains(&99));
    }

    #[test]
    fn integer_writes_match_expected_distribution() {
        // Bucket 64k integers into 64 buckets via the hasher; expect no
        // bucket further than 15% from the mean.
        let b = FxBuildHasher::default();
        let mut counts = [0usize; 64];
        for i in 0..65_536u64 {
            counts[(b.hash_one(i) % 64) as usize] += 1;
        }
        let expect = 65_536 / 64;
        for &c in &counts {
            assert!((c as f64 - expect as f64).abs() / (expect as f64) < 0.15);
        }
    }
}
