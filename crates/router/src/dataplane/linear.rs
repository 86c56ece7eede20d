//! A tiny Vec-backed map for the data plane's hot-path lookups.
//!
//! Forwarding nodes key everything by small, short-lived identifiers —
//! port numbers, held-arrival timer keys, `(port, feeder)` pairs — and
//! the live population is a handful of entries at any instant. A
//! linear scan over a dense `Vec` beats hashing at these sizes and,
//! unlike a hash map, iterates in a deterministic order that depends
//! only on the operation sequence (insertion order, perturbed by
//! `swap_remove`), never on a per-instance hasher seed.

/// Vec-backed associative container with std-map-shaped calls.
///
/// `insert` overwrites an existing key in place. `remove` is
/// `swap_remove`: O(1), at the cost of reordering later entries — the
/// resulting iteration order is still fully deterministic, and no
/// caller here depends on order at all.
pub(crate) struct LinearMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Copy + Eq, V> LinearMap<K, V> {
    pub fn new() -> LinearMap<K, V> {
        LinearMap {
            entries: Vec::new(),
        }
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.get_mut(&key) {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.swap_remove(i).1)
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<K: Copy + Eq, V> FromIterator<(K, V)> for LinearMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> LinearMap<K, V> {
        let mut map = LinearMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_overwrites_and_returns_previous() {
        let mut m: LinearMap<u8, u32> = LinearMap::new();
        assert_eq!(m.insert(3, 30), None);
        assert_eq!(m.insert(3, 31), Some(30));
        assert_eq!(m.get(&3), Some(&31));
        assert_eq!(m.values().count(), 1);
    }

    #[test]
    fn remove_and_retain() {
        let mut m: LinearMap<u8, u32> = [(1, 10), (2, 20), (3, 30)].into_iter().collect();
        assert_eq!(m.remove(&2), Some(20));
        assert_eq!(m.remove(&2), None);
        m.retain(|k, _| *k != 1);
        assert!(!m.contains_key(&1));
        assert!(m.contains_key(&3));
        m.clear();
        assert_eq!(m.keys().count(), 0);
    }
}
