//! The engine's internal hasher, for tables whose keys the engine makes
//! itself.
//!
//! Path exploration spends much of its time in hash tables: the
//! hash-consing table sees every constructor call, and the forced
//! environment, the blaster, the solver chain, the lane rewriter and the
//! projector all memoise per term. Their keys — [`TermId`]s, [`Node`]s,
//! sorted term lists, solver literals and the symbol names the models
//! pick — are small and made by this crate, so std's SipHash with a
//! per-table random key buys nothing there. [`TermHasher`] is a
//! multiplicative hash in the style of rustc's `FxHasher`: one add and
//! one multiply per word, and the same hash in every run.
//!
//! The multiply leaves its entropy in the high bits, while the std table
//! picks a bucket from the low bits, so [`Hasher::finish`] rotates the
//! high bits down. Without that step, keys that differ only in high bits
//! (such as the constants `k << 20`) would all share one bucket.
//!
//! Use [`TermMap`] and [`TermSet`] only for keys the engine creates.
//! Tables keyed by input from outside the process keep std's
//! `RandomState`, whose per-process random key keeps a crafted input from
//! forcing every key into one bucket: the offline audit checker and
//! DIMACS reader in `symcosim-sat`, the serve daemon, `core::json`, the
//! lint loaders, and the public [`Env`](crate::Env), which callers fill.
//!
//! [`TermId`]: crate::TermId
//! [`Node`]: crate::Node

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over engine-made keys, hashed with [`TermHasher`].
pub(crate) type TermMap<K, V> = HashMap<K, V, BuildHasherDefault<TermHasher>>;

/// A `HashSet` over engine-made keys, hashed with [`TermHasher`].
pub(crate) type TermSet<K> = HashSet<K, BuildHasherDefault<TermHasher>>;

/// The multiplier of rustc-hash 2's `FxHasher`: odd, with its set bits
/// spread over the whole word.
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic add–multiply hasher with a rotating finish (see the
/// [module docs](self)).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TermHasher {
    hash: u64,
}

impl TermHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for TermHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
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
        // The product's entropy sits in the high bits; bring it down to
        // the low bits the table indexes buckets with.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;
    use crate::term::Node;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<TermHasher>::default().hash_one(value)
    }

    #[test]
    fn constants_differing_in_high_bits_spread_over_low_buckets() {
        for shift in 0..=28 {
            let buckets: HashSet<u64> = (0..4096u64)
                .map(|k| {
                    hash_of(&Node::Const {
                        width: 32,
                        value: k << shift,
                    }) & 0xfff
                })
                .collect();
            assert!(
                buckets.len() >= 1000,
                "constants k << {shift} share {} of 4096 low-12-bit buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn hashes_are_deterministic_and_tell_keys_apart() {
        let a = Node::Const { width: 8, value: 1 };
        let b = Node::Const { width: 8, value: 2 };
        assert_eq!(hash_of(&a), hash_of(&a));
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&"x0"), hash_of(&"x1"));
        assert_ne!(hash_of(&"mem_word_0"), hash_of(&"mem_word_00"));
    }
}
