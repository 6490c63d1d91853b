//! A small ordered map stored as one sorted vector.
//!
//! The per-node tables of the simulated cluster (a TaskTracker's attempts,
//! the memory manager's processes and its victim index) hold a handful of
//! live entries each, but are read on every task-lifecycle step. A
//! `BTreeMap` or `HashMap` spends most of such a lookup chasing pointers or
//! hashing; a sorted vector answers it with a binary search over a few
//! contiguous entries. Iteration is in key order, as with `BTreeMap`, so
//! replacing one with the other keeps every deterministic walk unchanged.
//! Insert and remove shift the tail, which is cheap at these sizes and
//! linear in the worst case.

use std::fmt;

/// An ordered map backed by a vector of `(key, value)` pairs sorted by key.
#[derive(Clone)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<K, V> VecMap<K, V> {
    /// Creates an empty map; allocates nothing until the first insert.
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entries as one slice, in ascending key order.
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns true, visiting them
    /// in ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Position of `key`, or where it would be inserted.
    #[inline]
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value stored under `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.find(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }
}

impl<K: Ord, V> std::ops::Index<&K> for VecMap<K, V> {
    type Output = V;

    /// The value stored under `key`.
    ///
    /// # Panics
    /// Panics if `key` is absent.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("key not present in VecMap")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_keys_sorted_and_replaces_on_reinsert() {
        let mut m = VecMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(5, "e"), None);
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(3, "c"), None);
        assert_eq!(m.insert(3, "C"), Some("c"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(m.get(&3), Some(&"C"));
        assert_eq!(m[&5], "e");
        assert_eq!(m.get(&4), None);
        assert_eq!(m.remove(&1), Some("a"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(format!("{m:?}"), r#"{3: "C", 5: "e"}"#);
        m.clear();
        assert!(m.is_empty());
    }
}
