//! A fixed, fast hasher for the hot maps of the solver and the executors.
//!
//! The standard library's SipHash is keyed randomly per map and built to
//! resist adversarial keys. The keys here are small integers and structs of
//! them (expression refs, addresses, instruction ids) produced by the
//! engine itself, so a multiply-rotate hash in the style of rustc's
//! `FxHasher` does the job at a fraction of the cost. It is unkeyed:
//! iteration order is a fixed function of the insertions. Nothing may rely
//! on that order either way (see DESIGN.md §13).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits, which the multiply
        // mixes worst (aligned keys would share them); rotate the
        // well-mixed high bits down.
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_and_spreads_small_keys() {
        assert_eq!(hash_of(&(3u32, 7u64)), hash_of(&(3u32, 7u64)));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        // Byte addresses and 16-byte-aligned ones both spread over the low
        // bits, which is what the table's bucket index uses.
        for stride in [1u64, 16] {
            let buckets: HashSet<u64> = (0..64u64)
                .map(|a| hash_of(&(0x4000_0000 + a * stride)) & 63)
                .collect();
            assert!(
                buckets.len() > 32,
                "stride {stride}: {} buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
