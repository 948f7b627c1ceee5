//! The one hasher every simulator map uses: Fx-style, one multiply per word
//! (`h = (h.rotate_left(5) ^ w) · K`) and no per-process random key, so a
//! map's layout — and every allocation count — repeats exactly for a seed.
//! Collision resistance buys nothing here: every key is made inside the
//! program (ids, addresses, generated account names, keys derived from
//! them).  `finish` applies [`mix64`]: a bare multiply leaves the low bits,
//! the bucket index, blind to a key's high half, and the aggregate clients'
//! `TxId`s are `(ordinal << 40) | counter`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// splitmix64's output function: every input bit reaches every output bit.
/// The map finisher here, and the way to derive independent seeds from one.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Fx multiplier (rustc's `FxHasher`).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// An unkeyed Fx-style hasher with a [`mix64`] finisher; see the module docs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Eight bytes per word, the tail zero-padded into one more.  (`str`
    /// appends a `0xff` terminator, so only strings that differ in trailing
    /// NULs collide — and a collision costs a probe, never a wrong answer.)
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    // Integers are one word each, without the byte path's tail copy.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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
        mix64(self.0)
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` under [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` under [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxId;
    use std::hash::BuildHasher;
    use std::sync::Arc;

    /// Equal strings hash equal however they are held, so a map keyed by
    /// `String` or `Arc<str>` answers `&str` look-ups.
    #[test]
    fn equal_keys_hash_equal_across_string_types() {
        let build = FxBuildHasher::default();
        for key in ["", "a", "a0_1", "exactly8", "D(2,1)/a17_40213"] {
            let h = build.hash_one(key);
            assert_eq!(build.hash_one(key.to_string()), h, "{key:?}");
            assert_eq!(build.hash_one(Arc::<str>::from(key)), h, "{key:?}");
        }
        let map: FxHashMap<Arc<str>, u64> = [(Arc::from("a3_7"), 7)].into_iter().collect();
        assert_eq!(map.get("a3_7"), Some(&7));
    }

    /// 128 ordinals × 64 counters as `(ordinal << 40) | counter` spread over
    /// a 2¹³-bucket table's index bits; a bare Fx multiply puts all 128
    /// ordinals of a counter in one bucket.
    #[test]
    fn aggregate_tx_ids_spread_over_the_low_bits() {
        let build = FxBuildHasher::default();
        let mut buckets = vec![0u32; 1 << 13];
        for ordinal in 0..128u64 {
            for counter in 0..64u64 {
                let h = build.hash_one(TxId((ordinal << 40) | counter));
                buckets[(h & ((1 << 13) - 1)) as usize] += 1;
            }
        }
        let fullest = buckets.iter().max().copied().unwrap_or(0);
        assert!(fullest <= 10, "{fullest} ids in one bucket");
    }
}
