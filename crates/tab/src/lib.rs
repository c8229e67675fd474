//! The workspace's one hash: FNV-1a 64.
//!
//! Every persisted digest (checkpoints, fingerprints, ledger, trailer)
//! goes through [`fnv64`] or [`FnvHasher`], and the profile, layout,
//! stream, ledger and store maps key by the same hasher through
//! [`FnvMap`] / [`FnvSet`]: std's `HashMap`/`HashSet` (hashbrown's
//! SwissTable) with FNV in place of the default SipHash, which costs
//! more per lookup on these short keys. Every key is made by the program
//! itself (block, function and cell ids, stream addresses, store paths),
//! so SipHash's guard against crafted collisions buys nothing here.
//!
//! No caller depends on map iteration order: anything that reaches an
//! output sorts by a total order or only sums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64, the workspace's one hash: it keys the in-memory maps and
/// every persisted digest, so [`Hasher::write_u64`] folds little-endian
/// bytes on every platform.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// std's `HashMap` keyed by [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// std's `HashSet` keyed by [`FnvHasher`].
pub type FnvSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

/// FNV-1a 64-bit digest of a byte buffer in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_pinned() {
        // Persisted digests depend on these exact values.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = FnvHasher::default();
        h.write_u64(0x0102_0304_0506_0708);
        h.write(b"tail");
        assert_eq!(h.finish(), fnv64(&[8, 7, 6, 5, 4, 3, 2, 1, b't', b'a', b'i', b'l']));
    }

    #[test]
    fn iteration_is_deterministic() {
        // No per-process random seed: the same insert sequence iterates
        // identically in every map and every run.
        let build = || (0..500u64).map(|i| (i * 7919, i)).collect::<FnvMap<u64, u64>>();
        let a: Vec<_> = build().into_iter().collect();
        assert_eq!(a, build().into_iter().collect::<Vec<_>>());
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn equality_is_order_independent() {
        // `EdgeProfile`'s derived equality compares maps filled in
        // different orders.
        let a: FnvMap<u64, u64> = (0..100).map(|i| (i, i)).collect();
        let mut b: FnvMap<u64, u64> = (0..100).rev().map(|i| (i, i)).collect();
        assert_eq!(a, b, "same entries, different history");
        b.insert(100, 100);
        assert_ne!(a, b);
    }

    #[test]
    fn from_iterator_collects() {
        let m: FnvMap<u64, u64> = (0..64).map(|i| (i, i * 2)).collect();
        assert_eq!(m.len(), 64);
        assert_eq!(m.get(&63), Some(&126));
        let s: FnvSet<u64> = (0..64).chain(0..64).collect();
        assert_eq!(s.len(), 64);
    }
}
