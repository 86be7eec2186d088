//! Multiply-rotate hashing for edge-key sets.
//!
//! `materialize`'s removed set and the `reference` strategy's kNN
//! relation are `HashSet`s of packed `u64` edge keys, probed once per
//! candidate edge. `std`'s default SipHash is DoS-resistant but slow for
//! 8-byte keys; these sets are process-internal (never fed
//! attacker-controlled keys), so a Fx-style multiply-rotate hash is the
//! right trade. The hasher is deterministic, which also keeps replay and
//! resume behaviour reproducible.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (a 64-bit
/// truncation of pi's hex expansion times 2^62).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word multiply-rotate hasher (the rustc "FxHasher" recipe).
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
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashSet` with the fast deterministic hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_instances() {
        let build = FxBuildHasher::default();
        let a = build.hash_one(0xdead_beef_u64);
        let b = FxBuildHasher::default().hash_one(0xdead_beef_u64);
        assert_eq!(a, b);
    }

    #[test]
    fn map_round_trips() {
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for k in 0..1000u64 {
            assert!(s.insert(k * k));
        }
        for k in 0..1000u64 {
            assert!(s.contains(&(k * k)));
        }
        assert!(!s.insert(7 * 7));
    }
}
