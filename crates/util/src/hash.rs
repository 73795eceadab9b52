//! FxHash-style hashing.
//!
//! The algorithm is the one popularized by Firefox and rustc: a multiply–
//! rotate mix applied word-by-word. It is not HashDoS-resistant, which is
//! acceptable here — every key hashed in this workspace is an internal
//! integer id (user, action, edge), never attacker-controlled input.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hasher (multiply-rotate word mixer).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
            // Length salt so "a" and "a\0" do not collide trivially.
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one((7u32, 9u32)), hash_one((7u32, 9u32)));
        assert_eq!(hash_one("cascade"), hash_one("cascade"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_one(1u64), hash_one(2u64));
        assert_ne!(hash_one((1u32, 2u32)), hash_one((2u32, 1u32)));
        assert_ne!(hash_one("a"), hash_one("a\0"));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn integer_keys_spread_over_buckets() {
        // Weak avalanche check: low 10 bits of hashes of 0..4096 should not
        // collapse to a handful of values.
        let mut buckets = std::collections::HashSet::new();
        for i in 0..4096u64 {
            buckets.insert(hash_one(i) & 0x3ff);
        }
        assert!(buckets.len() > 700, "only {} distinct buckets", buckets.len());
    }
}
