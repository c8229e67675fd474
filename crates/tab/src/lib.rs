//! Open-addressed hash tables for the simulator's map-heavy hot paths.
//!
//! `std::collections::HashMap` is a chained SipHash table: every probe
//! pays a strong hash plus pointer-chasing through heap buckets, which
//! shows up hard in profile on paths that hit a map once per committed
//! instruction (stream working sets, edge profiles, ledger lookups).
//! [`OpenMap`] is the `hashbrown`-style alternative the riscv-sim
//! exemplar uses in its OoO core: a single flat allocation of
//! `Option<(K, V)>` slots, power-of-two capacity, FNV-1a hashing, and
//! linear probing with backward-shift deletion (no tombstones, so load
//! factor never degrades from churn).
//!
//! The crate is `std`-only by design — the build environment has no
//! registry access, so this is a vendored reimplementation of exactly
//! the surface the workspace needs, not a general-purpose collection.
//!
//! Determinism contract: iteration order is **probe order** (a pure
//! function of the inserted keys and the table's growth history), never
//! randomized — two tables built by the same insert sequence iterate
//! identically, which the bit-identical merge oracles rely on. Equality
//! ([`PartialEq`]) is order-independent, matching `HashMap` semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// FNV-1a 64, the workspace's one hash: it keys these tables and every
/// persisted digest (checkpoints, fingerprints, ledger, trailer), so
/// [`Hasher::write_u64`] folds little-endian bytes on every platform.
/// 3–4× cheaper than SipHash per lookup on short keys.
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

/// FNV-1a 64-bit digest of a byte buffer in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Hashes one value with [`FnvHasher`] (in-memory keys only).
pub fn fnv_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = FnvHasher::default();
    key.hash(&mut h);
    h.finish()
}

const INITIAL_CAP: usize = 16;

/// An open-addressed hash map: flat slot array, power-of-two capacity,
/// FNV-1a hashing, linear probing, backward-shift deletion.
///
/// Grows at 7/8 load factor (hashbrown's threshold). Iteration order is
/// deterministic probe order — see the crate docs for the contract.
///
/// ```
/// use sfetch_tab::OpenMap;
///
/// let mut m: OpenMap<u64, u64> = OpenMap::new();
/// *m.entry_or_insert(7, 0) += 1;
/// *m.entry_or_insert(7, 0) += 1;
/// assert_eq!(m.get(&7), Some(&2));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OpenMap<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K, V> Default for OpenMap<K, V> {
    fn default() -> Self {
        OpenMap { slots: Vec::new(), len: 0 }
    }
}

impl<K: Hash + Eq, V> OpenMap<K, V> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a map pre-sized for `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let cap = Self::cap_for(n);
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || None);
        OpenMap { slots, len: 0 }
    }

    fn cap_for(n: usize) -> usize {
        // 7/8 max load: capacity must exceed n * 8/7.
        let needed = n.saturating_mul(8) / 7 + 1;
        needed.next_power_of_two().max(INITIAL_CAP)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Index of `key`'s slot if present.
    fn probe<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = (fnv_hash(key) as usize) & mask;
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if k.borrow() == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Looks up a value.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.probe(key).map(|i| &self.slots[i].as_ref().expect("probed slot occupied").1)
    }

    /// Looks up a value mutably.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.probe(key)?;
        Some(&mut self.slots[i].as_mut().expect("probed slot occupied").1)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.probe(key).is_some()
    }

    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() { INITIAL_CAP } else { self.slots.len() * 2 };
        let mut new_slots: Vec<Option<(K, V)>> = Vec::with_capacity(new_cap);
        new_slots.resize_with(new_cap, || None);
        let mask = new_cap - 1;
        for slot in self.slots.drain(..).flatten() {
            let mut i = (fnv_hash(&slot.0) as usize) & mask;
            while new_slots[i].is_some() {
                i = (i + 1) & mask;
            }
            new_slots[i] = Some(slot);
        }
        self.slots = new_slots;
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = (fnv_hash(&key) as usize) & mask;
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Returns a mutable reference to `key`'s value, inserting `default`
    /// first if absent — the `entry().or_insert()` idiom without the
    /// entry machinery.
    pub fn entry_or_insert(&mut self, key: K, default: V) -> &mut V {
        // Grow eagerly so the probe below always finds a free slot; an
        // update-in-place pays one early grow at worst.
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = (fnv_hash(&key) as usize) & mask;
        loop {
            match &self.slots[i] {
                None => {
                    self.slots[i] = Some((key, default));
                    self.len += 1;
                    break;
                }
                Some((k, _)) if *k == key => break,
                Some(_) => i = (i + 1) & mask,
            }
        }
        &mut self.slots[i].as_mut().expect("slot occupied").1
    }

    /// Removes `key`, returning its value. Backward-shift deletion keeps
    /// probe chains intact without tombstones.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut hole = self.probe(key)?;
        let (_, v) = self.slots[hole].take().expect("probed slot occupied");
        self.len -= 1;
        let mask = self.mask();
        // Shift back any displaced successors in the probe chain.
        let mut i = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[i] {
            let home = (fnv_hash(k) as usize) & mask;
            // The entry at `i` may move into `hole` only if its home
            // position lies outside the cyclic range (hole, i].
            let in_range = if hole <= i { home > hole && home <= i } else { home > hole || home <= i };
            if !in_range {
                self.slots[hole] = self.slots[i].take();
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(v)
    }

    /// Iterates `(key, value)` in deterministic probe order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }

    /// Iterates values mutably in deterministic probe order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(|s| s.as_mut().map(|(_, v)| v))
    }

    /// Iterates keys in deterministic probe order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in deterministic probe order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }
}

/// Order-independent equality, matching `HashMap` semantics: same length
/// and every key maps to an equal value.
impl<K: Hash + Eq, V: PartialEq> PartialEq for OpenMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Hash + Eq, V: Eq> Eq for OpenMap<K, V> {}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for OpenMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let it = iter.into_iter();
        let mut m = OpenMap::with_capacity(it.size_hint().0);
        for (k, v) in it {
            m.insert(k, v);
        }
        m
    }
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
    fn insert_get_update() {
        let mut m: OpenMap<u64, String> = OpenMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(2, "b".into()), None);
        assert_eq!(m.insert(1, "c".into()), Some("a".into()));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1).map(String::as_str), Some("c"));
        assert_eq!(m.get(&3), None);
        *m.get_mut(&2).expect("present") = "z".into();
        assert_eq!(m.get(&2).map(String::as_str), Some("z"));
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m: OpenMap<u64, u64> = OpenMap::new();
        for i in 0..10_000 {
            m.insert(i * 2654435761 % 100_000, i);
        }
        for i in 0..10_000 {
            assert_eq!(m.get(&(i * 2654435761 % 100_000)), Some(&i), "key {i}");
        }
    }

    #[test]
    fn remove_backward_shift_keeps_chains() {
        // Force a dense table with colliding keys and remove from the
        // middle of probe chains.
        let mut m: OpenMap<u64, u64> = OpenMap::with_capacity(64);
        let keys: Vec<u64> = (0..48).collect();
        for &k in &keys {
            m.insert(k, k * 10);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(&k), Some(k * 10));
            assert_eq!(m.remove(&k), None, "double remove");
        }
        for &k in &keys {
            if k % 3 == 0 {
                assert_eq!(m.get(&k), None);
            } else {
                assert_eq!(m.get(&k), Some(&(k * 10)), "survivor {k} reachable after shifts");
            }
        }
        assert_eq!(m.len(), keys.len() - keys.iter().step_by(3).count());
    }

    #[test]
    fn equality_is_order_independent() {
        let mut a: OpenMap<u64, u64> = OpenMap::new();
        let mut b: OpenMap<u64, u64> = OpenMap::with_capacity(1000);
        for i in 0..100 {
            a.insert(i, i);
        }
        for i in (0..100).rev() {
            b.insert(i, i);
        }
        assert_eq!(a, b, "same entries, different history");
        b.insert(100, 100);
        assert_ne!(a, b);
    }

    #[test]
    fn iteration_is_deterministic() {
        let build = || {
            let mut m: OpenMap<u64, u64> = OpenMap::new();
            for i in 0..500 {
                m.insert(i * 7919, i);
            }
            m
        };
        let a: Vec<_> = build().iter().map(|(&k, &v)| (k, v)).collect();
        let b: Vec<_> = build().iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(a, b, "same insert sequence iterates identically");
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut m: OpenMap<String, u64> = OpenMap::new();
        m.insert("alpha".into(), 1);
        assert_eq!(m.get("alpha"), Some(&1));
        assert!(m.contains_key("alpha"));
        assert_eq!(m.remove("alpha"), Some(1));
    }

    #[test]
    fn from_iterator_collects() {
        let m: OpenMap<u64, u64> = (0..64).map(|i| (i, i * 2)).collect();
        assert_eq!(m.len(), 64);
        assert_eq!(m.get(&63), Some(&126));
    }
}
