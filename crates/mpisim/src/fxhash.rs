//! A small non-cryptographic hasher for tables probed on every simulated
//! event.
//!
//! `std`'s default SipHash resists hash flooding, which matters when an
//! adversary picks the keys. The tables that use this hasher are keyed
//! by what the simulation itself produces — ranks, vertices, request ids,
//! collective sequence numbers — and are hit once or twice per event,
//! where SipHash's setup and finalization cost more than the table probe.
//! Keys a simulated program computes (tags, sizes) stay on SipHash. The
//! mixing step is the multiply-rotate rustc uses for its own interning
//! tables (`FxHasher`): one rotate, xor and multiply per word.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
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
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` behind [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_fields_are_ordered() {
        assert_eq!(hash_of((1usize, 2u32)), hash_of((1usize, 2u32)));
        assert_ne!(hash_of((1usize, 2u32)), hash_of((2usize, 1u32)));
        assert_ne!(hash_of(-1i64), hash_of(1i64));
    }

    #[test]
    fn map_round_trips_tuple_keys() {
        let mut map: FxHashMap<(usize, u32, usize, u32), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            *map.entry((i as usize % 7, i % 13, i as usize % 5, i % 3))
                .or_default() += 1;
        }
        // The residues repeat only every 7·13·5·3 = 1365 steps.
        assert_eq!(map.len(), 1000);
        assert!(map.values().all(|&n| n == 1));
    }
}
