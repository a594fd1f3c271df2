//! A fast, non-cryptographic hasher for the integer-code kernels.
//!
//! The dictionary-encoded hot paths ([`crate::encode`]) hash small
//! fixed-size keys — interned `Value`s once per row, then packed `u64`
//! pairs and short `u32` tuples everywhere after. The standard
//! library's default SipHash is keyed and DoS-resistant, which none of
//! these internal, non-adversarial tables need; its per-key cost
//! dominates the kernels. This module is the classic Fx multiply-xor
//! scheme (as used by rustc): one rotate, one xor, one multiply per
//! word. It is *not* HashDoS-resistant — use it only for keys derived
//! from data the process already holds, never for keys an external
//! client can choose freely.
//!
//! No third-party crates: the whole hasher is the ~40 lines below.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx scheme: a prime close to the golden ratio of
/// 2^64, spreading consecutive small integers across the hash space.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word-at-a-time hasher. Deterministic (unkeyed) — equal keys
/// hash equally across maps, processes, and runs.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The state folded through one widening multiply, so its high
    /// bits reach the low ones. Each step's multiply carries entropy
    /// upward only: the state's low bits depend on the low bytes of
    /// each word alone, and a hash table picks its bucket from the low
    /// bits, so keys differing only further into a word would share
    /// buckets.
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(SEED);
        (wide as u64) ^ (wide >> 64) as u64
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equally_and_deterministically() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Int(7)));
        assert_eq!(
            hash_of(&Value::str("abcdefghij")),
            hash_of(&Value::str("abcdefghij"))
        );
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn consecutive_codes_spread() {
        // Dense dictionary codes must not collide in the low bits the
        // hash map actually indexes with.
        let low_bits: FxHashSet<u64> = (0u32..1024).map(|c| hash_of(&c) >> 57).collect();
        assert!(low_bits.len() > 32, "top bits too clustered");
    }

    #[test]
    fn strings_differing_past_their_first_word_spread_over_the_low_bits() {
        // One 8-byte prefix, then a distinct number: the bucket index a
        // table takes from the low bits must still tell them apart.
        let low_bits: FxHashSet<u64> = (0..1024)
            .map(|i| hash_of(&format!("column__{i:08}")) & 1023)
            .collect();
        assert!(low_bits.len() > 512, "{} of 1024 buckets", low_bits.len());
    }

    #[test]
    fn works_as_map_and_set_state() {
        let mut m: FxHashMap<Value, u32> = FxHashMap::default();
        m.insert(Value::str("x"), 1);
        m.insert(Value::Null, 2);
        assert_eq!(m.get(&Value::str("x")), Some(&1));
        let mut s: FxHashSet<Box<[u32]>> = FxHashSet::default();
        s.insert(Box::from([1u32, 2]));
        assert!(s.contains([1u32, 2].as_slice()));
    }
}
