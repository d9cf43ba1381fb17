//! A fast, non-cryptographic hasher for interning and CCT child lookup.
//!
//! The hot loop of profile construction is a hash-map probe per call
//! frame per sample; SipHash (std's default, DoS-resistant) costs more
//! than the rest of the insertion combined. Profiles are not
//! attacker-controlled hash-flooding targets in an IDE context, so the
//! builder uses the FxHash construction (as rustc does): multiply by a
//! large odd constant and rotate, one word at a time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash word-at-a-time hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Folds the high half into the low one. The last step multiplies,
    /// so the low bits of `hash` depend only on the low bits of the last
    /// word; a hash table picks buckets by its low bits, and every key
    /// packed as `(parent << 32) | frame` with one frame would start
    /// probing at the same bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn discriminates() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn byte_slices_of_all_lengths() {
        let data = [0xABu8; 17];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=17 {
            let mut h = FxHasher::default();
            h.write(&data[..len]);
            seen.insert(h.finish());
        }
        // All prefixes hash distinctly (17 zero-padded tails could
        // collide in a bad construction).
        assert!(seen.len() >= 16, "{} distinct", seen.len());
    }

    #[test]
    fn packed_keys_spread_over_low_bits() {
        // Keys that differ only in their high half must still land in
        // different buckets of a small table.
        let buckets: std::collections::HashSet<u64> = (0..64u64)
            .map(|parent| hash_of(&((parent << 32) | 7)) & 63)
            .collect();
        assert!(buckets.len() > 32, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn map_works_end_to_end() {
        let mut map: FxHashMap<(u32, u64), usize> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert((i, u64::from(i) * 7), i as usize);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(500, 3500)), Some(&500));
    }
}
