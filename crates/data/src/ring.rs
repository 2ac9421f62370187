//! `SeqRing<T>`: a sequence-indexed ring buffer replacing the
//! sequence-keyed `BTreeMap`s of the data plane.
//!
//! The data plane keys almost everything by a monotonically growing
//! `u64` sequence number (frame dts). A `BTreeMap` spends an allocation
//! per node and pointer-chases on every lookup; live sessions only ever
//! hold a *narrow, mostly-contiguous band* of sequences (the reorder
//! window), so a sorted circular buffer with binary-searched indexing
//! is strictly better: zero per-entry allocation in steady state (the
//! backing `VecDeque` reaches its high-water capacity once and is then
//! reused), O(log n) lookup, O(1) pop at the band's head, and amortised
//! O(1) insertion at the tail — the common case, since sequences mostly
//! arrive in order.
//!
//! Ordering is plain `u64` order, the same total order a `BTreeMap`
//! uses, so iteration is byte-identical to the map it replaces.
//! Evictions (`evict_below`) are counted and queryable, never silent.

use std::collections::VecDeque;

/// A sorted, sequence-indexed circular buffer with explicit eviction
/// statistics.
///
/// # Examples
///
/// ```
/// use rlive_data::ring::SeqRing;
///
/// let mut ring: SeqRing<&str> = SeqRing::new();
/// ring.insert(20, "b");
/// ring.insert(10, "a");
/// ring.insert(30, "c");
/// assert_eq!(ring.get(20), Some(&"b"));
/// let keys: Vec<u64> = ring.keys().collect();
/// assert_eq!(keys, vec![10, 20, 30], "iteration in sequence order");
/// assert_eq!(ring.evict_below(25), 2);
/// assert_eq!(ring.evicted(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SeqRing<T> {
    /// Entries sorted ascending by sequence key.
    entries: VecDeque<(u64, T)>,
    /// Entries dropped by `evict_below` so far.
    evicted: u64,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SeqRing<T> {
    /// An empty ring: behaves exactly like a `BTreeMap<u64, T>` (same
    /// ordering, same replace-on-insert semantics).
    pub fn new() -> Self {
        SeqRing {
            entries: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Entries evicted so far by `evict_below`.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary search: `Ok(i)` when `key` sits at index `i`, `Err(i)`
    /// with its insertion point otherwise.
    fn search(&self, key: u64) -> Result<usize, usize> {
        let i = self.entries.partition_point(|&(k, _)| k < key);
        if self.entries.get(i).map(|&(k, _)| k) == Some(key) {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// Reads the value at `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value at `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        match self.search(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.search(key).is_ok()
    }

    /// Inserts `value` at `key`, returning the replaced value if the
    /// key was present (identical to `BTreeMap::insert`).
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        match self.search(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Returns a mutable reference to the value at `key`, inserting
    /// `make()` first if absent (the `entry().or_insert_with()` shape).
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.search(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        match self.search(key) {
            Ok(i) => self.entries.remove(i).map(|(_, v)| v),
            Err(_) => None,
        }
    }

    /// Removes and returns the smallest-keyed entry.
    pub fn pop_first(&mut self) -> Option<(u64, T)> {
        self.entries.pop_front()
    }

    /// The smallest key, if any.
    pub fn first_key(&self) -> Option<u64> {
        self.entries.front().map(|&(k, _)| k)
    }

    /// The largest key, if any.
    pub fn last_key(&self) -> Option<u64> {
        self.entries.back().map(|&(k, _)| k)
    }

    /// The smallest key strictly greater than `key` (the
    /// `range(key+1..).next()` shape).
    pub fn next_after(&self, key: u64) -> Option<u64> {
        let i = self.entries.partition_point(|&(k, _)| k <= key);
        self.entries.get(i).map(|&(k, _)| k)
    }

    /// Iterates `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps only entries for which `keep` returns true (not counted as
    /// evictions: `retain` is semantic filtering, not capacity
    /// pressure).
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut T) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(*k, v));
    }

    /// Evicts every entry with key `< floor`; returns how many were
    /// dropped and adds them to the eviction counter.
    pub fn evict_below(&mut self, floor: u64) -> usize {
        let cut = self.entries.partition_point(|&(k, _)| k < floor);
        for _ in 0..cut {
            self.entries.pop_front();
        }
        self.evicted += cut as u64;
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_match_btreemap() {
        let keys = [50u64, 10, 30, 10, 90, 70, 30];
        let mut ring: SeqRing<u64> = SeqRing::new();
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ring.insert(k, i as u64), map.insert(k, i as u64), "key {k}");
        }
        assert_eq!(ring.len(), map.len());
        for k in 0..100 {
            assert_eq!(ring.get(k), map.get(&k), "get {k}");
            assert_eq!(ring.contains_key(k), map.contains_key(&k));
        }
        let ring_keys: Vec<u64> = ring.keys().collect();
        let map_keys: Vec<u64> = map.keys().copied().collect();
        assert_eq!(ring_keys, map_keys, "identical iteration order");
        assert_eq!(ring.remove(30), map.remove(&30));
        assert_eq!(ring.remove(31), map.remove(&31));
        assert_eq!(ring.first_key(), map.keys().next().copied());
        assert_eq!(ring.last_key(), map.keys().next_back().copied());
    }

    #[test]
    fn next_after_matches_range_semantics() {
        let mut ring: SeqRing<()> = SeqRing::new();
        for k in [10u64, 20, 30] {
            ring.insert(k, ());
        }
        assert_eq!(ring.next_after(5), Some(10));
        assert_eq!(ring.next_after(10), Some(20));
        assert_eq!(ring.next_after(25), Some(30));
        assert_eq!(ring.next_after(30), None);
        assert_eq!(ring.next_after(u64::MAX), None);
    }

    #[test]
    fn get_or_insert_with_is_entry_or_insert() {
        let mut ring: SeqRing<Vec<u32>> = SeqRing::new();
        ring.get_or_insert_with(7, Vec::new).push(1);
        ring.get_or_insert_with(7, || panic!("must not rebuild"))
            .push(2);
        assert_eq!(ring.get(7), Some(&vec![1, 2]));
    }

    #[test]
    fn evict_below_counts_and_drops() {
        let mut ring: SeqRing<u32> = SeqRing::new();
        for k in 0..10u64 {
            ring.insert(k * 10, k as u32);
        }
        assert_eq!(ring.evict_below(35), 4);
        assert_eq!(ring.first_key(), Some(40));
        assert_eq!(ring.evicted(), 4);
        assert_eq!(ring.evict_below(0), 0);
        assert_eq!(ring.evicted(), 4);
    }

    #[test]
    fn retain_filters_without_counting_evictions() {
        let mut ring: SeqRing<u32> = SeqRing::new();
        for k in 0..6u64 {
            ring.insert(k, k as u32);
        }
        ring.retain(|k, _| k % 2 == 0);
        assert_eq!(ring.keys().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(ring.evicted(), 0);
    }

    #[test]
    fn pop_first_drains_in_order() {
        let mut ring: SeqRing<u32> = SeqRing::new();
        for k in [5u64, 3, 9] {
            ring.insert(k, k as u32);
        }
        let mut popped = Vec::new();
        while let Some((k, _)) = ring.pop_first() {
            popped.push(k);
        }
        assert_eq!(popped, vec![3, 5, 9]);
        assert!(ring.is_empty());
    }
}
