//! Deterministic, DoS-hardening-free hashing for simulator-internal
//! maps.
//!
//! The standard library's default hasher is SipHash behind a
//! per-process random seed — the right default for servers parsing
//! untrusted input, and a waste for a simulator hashing its own small
//! integer keys (pids, file ids) millions of times per run. This is
//! the Fx multiply-xor hash (the rustc-internal scheme): one rotate,
//! one xor and one multiply per word, with a fixed seed.
//!
//! Determinism note: the simulator's bit-exactness never depended on
//! map *iteration* order (every iteration that feeds results is over
//! vectors or sorted keys), so hasher choice cannot change outputs —
//! it only removes per-lookup overhead and makes iteration order
//! stable across processes as a bonus.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx multiply-xor hasher with a fixed seed.
#[derive(Default)]
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
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic Fx hasher.
pub type DetHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the deterministic Fx hasher.
pub type DetHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&(7u64, 13u32)), hash_of(&(7u64, 13u32)));
        assert_eq!(hash_of(&"escat"), hash_of(&"escat"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&(0u32, 1u32)), hash_of(&(1u32, 0u32)));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn byte_tails_are_length_distinguished() {
        // Same prefix bytes, different lengths must not collide via
        // zero padding.
        assert_ne!(hash_of(&[1u8, 0][..]), hash_of(&[1u8][..]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: DetHashMap<(u32, u64), &str> = DetHashMap::default();
        for i in 0..1000 {
            m.insert((i, u64::from(i) * 7), "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&(999, 999 * 7)));
        let mut s: DetHashSet<u64> = DetHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }
}
