//! Deterministic string-free interning for hot-path identifiers.
//!
//! The discovery pipeline hashes and compares 12-byte [`CellGlobalId`]s and
//! 8-byte [`Bssid`]s millions of times per simulated cohort: every GSM
//! sample touches the movement graph, every WiFi scan probes the SensLoc
//! signature index. An [`Interner`] maps each distinct identifier to a dense
//! `u32` symbol so those structures can use `Vec` indexing and cheap integer
//! hashing instead of map lookups on composite keys.
//!
//! The interner's own index, and every cell- or symbol-keyed map on the
//! per-sample path, hash with [`FxHasher`]: a fixed-key multiply-rotate
//! hash that costs one multiply per word, where std's default SipHash
//! runs several rounds per key. Std's default hasher is already seeded at
//! random per process, so no output may depend on map iteration order
//! either way; a fixed key changes speed, not results.
//!
//! # Determinism rules
//!
//! * Symbols are assigned in **first-seen order** and never reused: the
//!   *n*-th distinct value interned gets symbol *n − 1*. Two runs that
//!   observe the same identifier stream assign identical symbols.
//! * The table is **append-only** — `resolve` never invalidates.
//! * Symbols are process-local bookkeeping and must never leak onto the
//!   wire or into checkpoints: serialization resolves symbols back to the
//!   original identifiers so on-disk and on-wire shapes stay keyed by the
//!   real-world IDs (and stay independent of arrival order).
//!
//! [`CellGlobalId`]: crate::ids::CellGlobalId
//! [`Bssid`]: crate::ids::Bssid

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A dense symbol handed out by an [`Interner`].
pub type Symbol = u32;

/// The Fx hash: for each word, rotate the state, xor the word in and
/// multiply by a fixed odd constant. It is not DoS-resistant: a crafted
/// key set can make one map slow. Every map that uses it holds one
/// user's (or one phone's) identifiers, so a hostile client can slow only
/// its own engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
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
    fn write_u16(&mut self, i: u16) {
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
        self.hash
    }
}

/// Builds [`FxHasher`]s; every one starts from the same fixed state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// An append-only table mapping values to dense [`Symbol`]s.
///
/// Symbols are assigned by first-seen order, making them deterministic for
/// a deterministic input stream — see the module docs for the rules.
#[derive(Debug, Clone)]
pub struct Interner<T> {
    table: Vec<T>,
    index: FxHashMap<T, Symbol>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            table: Vec::new(),
            index: FxHashMap::default(),
        }
    }
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Returns the symbol for `value`, assigning the next dense symbol if
    /// it has not been seen before.
    pub fn intern(&mut self, value: &T) -> Symbol {
        if let Some(&sym) = self.index.get(value) {
            return sym;
        }
        let sym = Symbol::try_from(self.table.len()).expect("interner overflow");
        self.table.push(value.clone());
        self.index.insert(value.clone(), sym);
        sym
    }

    /// The symbol for `value` if it has been interned.
    pub fn get(&self, value: &T) -> Option<Symbol> {
        self.index.get(value).copied()
    }

    /// The value behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &T {
        &self.table[sym as usize]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// All interned values in symbol order (symbol `i` is `values()[i]`).
    pub fn values(&self) -> &[T] {
        &self.table
    }
}

impl<T: Clone + Eq + Hash> PartialEq for Interner<T> {
    /// Two interners are equal when they assigned the same symbols to the
    /// same values — i.e. their first-seen orders match. (The lookup index
    /// is derived state and does not participate.)
    fn eq(&self, other: &Self) -> bool {
        self.table == other.table
    }
}

impl<T: Clone + Eq + Hash> Eq for Interner<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Bssid;

    #[test]
    fn first_seen_order_is_dense_and_stable() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern(&Bssid(30)), 0);
        assert_eq!(i.intern(&Bssid(10)), 1);
        assert_eq!(i.intern(&Bssid(30)), 0, "re-intern returns the same symbol");
        assert_eq!(i.intern(&Bssid(20)), 2);
        assert_eq!(i.len(), 3);
        assert_eq!(*i.resolve(1), Bssid(10));
        assert_eq!(i.get(&Bssid(20)), Some(2));
        assert_eq!(i.get(&Bssid(99)), None);
        assert_eq!(i.values(), &[Bssid(30), Bssid(10), Bssid(20)]);
    }

    #[test]
    fn equality_is_first_seen_order() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        a.intern(&1u32);
        a.intern(&2u32);
        b.intern(&1u32);
        assert_ne!(a, b);
        b.intern(&2u32);
        assert_eq!(a, b);
        let mut c = Interner::new();
        c.intern(&2u32);
        c.intern(&1u32);
        assert_ne!(a, c, "same values, different order");
    }

    #[test]
    fn fx_hash_has_a_fixed_key() {
        let hash = |v: u32| {
            let mut h = FxHasher::default();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(7), hash(7), "no per-hasher seed");
        let distinct: std::collections::BTreeSet<u64> = (0..1000).map(hash).collect();
        assert_eq!(distinct.len(), 1000, "dense keys stay apart");
    }
}
