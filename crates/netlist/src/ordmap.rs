//! A small insertion-ordered map.
//!
//! Netlist sections (`instances`, `ports`, `models`) are JSON objects whose
//! order matters for readable serialization and stable diffs. Sizes are
//! tiny (tens of entries), so a `Vec` of pairs with linear lookup is both
//! simple and fast.

use std::fmt;

/// An insertion-ordered key-value map with `String` keys.
///
/// # Examples
///
/// ```
/// use picbench_netlist::OrderedMap;
///
/// let mut m = OrderedMap::new();
/// m.insert("b".to_string(), 1);
/// m.insert("a".to_string(), 2);
/// let keys: Vec<&str> = m.keys().collect();
/// assert_eq!(keys, vec!["b", "a"]); // insertion order, not sorted
/// ```
#[derive(PartialEq)]
pub struct OrderedMap<V> {
    entries: Vec<(String, V)>,
}

impl<V: Clone> Clone for OrderedMap<V> {
    fn clone(&self) -> Self {
        OrderedMap {
            entries: self.entries.clone(),
        }
    }

    /// Reuses the target's entries and their key buffers.
    fn clone_from(&mut self, source: &Self) {
        self.entries.truncate(source.entries.len());
        let kept = self.entries.len();
        for ((key, value), (src_key, src_value)) in self.entries.iter_mut().zip(&source.entries) {
            key.clone_from(src_key);
            value.clone_from(src_value);
        }
        self.entries.extend_from_slice(&source.entries[kept..]);
    }
}

impl<V> Default for OrderedMap<V> {
    fn default() -> Self {
        OrderedMap {
            entries: Vec::new(),
        }
    }
}

impl<V> OrderedMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        OrderedMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces; returns the previous value if the key existed.
    pub fn insert(&mut self, key: String, value: V) -> Option<V> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable lookup by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut V> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Removes a key, returning its value if present. Preserves the order
    /// of the remaining entries.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterates over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Entry at a given insertion index.
    pub fn get_index(&self, index: usize) -> Option<(&str, &V)> {
        self.entries.get(index).map(|(k, v)| (k.as_str(), v))
    }
}

impl<V: fmt::Debug> fmt::Debug for OrderedMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<V> FromIterator<(String, V)> for OrderedMap<V> {
    fn from_iter<I: IntoIterator<Item = (String, V)>>(iter: I) -> Self {
        let mut m = OrderedMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<V> Extend<(String, V)> for OrderedMap<V> {
    fn extend<I: IntoIterator<Item = (String, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_replace() {
        let mut m = OrderedMap::new();
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("a".into(), 2), Some(1));
        assert_eq!(m.get("a"), Some(&2));
        assert_eq!(m.len(), 1);
        assert!(m.contains_key("a"));
        assert!(!m.contains_key("b"));
    }

    #[test]
    fn preserves_insertion_order_across_replace() {
        let mut m = OrderedMap::new();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        m.insert("x".into(), 3);
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, vec!["x", "y"]);
    }

    #[test]
    fn remove_preserves_order() {
        let mut m: OrderedMap<i32> = [("a", 1), ("b", 2), ("c", 3)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(m.remove("b"), Some(2));
        assert_eq!(m.remove("b"), None);
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, vec!["a", "c"]);
    }

    #[test]
    fn get_mut_modifies_in_place() {
        let mut m = OrderedMap::new();
        m.insert("k".into(), 10);
        *m.get_mut("k").unwrap() += 5;
        assert_eq!(m.get("k"), Some(&15));
    }

    #[test]
    fn index_access() {
        let m: OrderedMap<i32> = [("p", 1), ("q", 2)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(m.get_index(1), Some(("q", &2)));
        assert_eq!(m.get_index(2), None);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let mut m = OrderedMap::new();
        m.insert("a".into(), 1);
        assert!(format!("{m:?}").contains('a'));
    }
}
