//! An insertion-ordered map.
//!
//! Netlist sections (`instances`, `ports`, `models`) are JSON objects whose
//! order matters for readable serialization and stable diffs. Most are a
//! handful of entries, but an 8×8 Spanke fabric has 112 instances,
//! looked up once per connection endpoint, and a hostile response may
//! declare thousands; a linear scan per lookup makes that quadratic. So
//! entries live in a `Vec` (insertion order, cheap `clone_from`), short
//! maps are scanned linearly, and longer ones keep a hash index of
//! positions into that `Vec`: every lookup and insert is O(1) expected.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// Maps of at most this many entries are searched linearly, without an
/// index: a few string compares beat hashing the key.
const LINEAR_MAX: usize = 8;

/// An open-addressing table of positions into the entries `Vec`.
///
/// The keys stay in the entries, so cloning the index copies integers,
/// never strings.
#[derive(Clone)]
struct Index {
    /// Random keys per table, so crafted names cannot force collisions.
    hasher: RandomState,
    /// `position + 1` of an entry, or 0 for an empty slot. The length is
    /// a power of two and at most half the slots are full.
    slots: Vec<u32>,
}

impl Index {
    /// An index over `keys`, sized for `capacity` entries.
    fn build<'a>(keys: impl Iterator<Item = &'a str>, capacity: usize) -> Index {
        let mut index = Index {
            hasher: RandomState::new(),
            slots: vec![0; (2 * capacity).next_power_of_two()],
        };
        for (position, key) in keys.enumerate() {
            index.occupy(key, position);
        }
        index
    }

    /// Slots to probe for `key`, starting at its home slot.
    fn probe(&self, key: &str) -> impl Iterator<Item = usize> + '_ {
        let mask = self.slots.len() - 1;
        let home = self.hasher.hash_one(key) as usize;
        (0..self.slots.len()).map(move |step| (home + step) & mask)
    }

    /// The position of `key` among `entries`, if present.
    fn find<V>(&self, entries: &[(String, V)], key: &str) -> Option<usize> {
        for slot in self.probe(key) {
            let position = (self.slots[slot] as usize).checked_sub(1)?;
            if entries[position].0 == key {
                return Some(position);
            }
        }
        None
    }

    /// Records that `key` (absent so far) sits at `position`.
    fn occupy(&mut self, key: &str, position: usize) {
        let tag = u32::try_from(position + 1).expect("fewer than 2^32 entries");
        let slot = self
            .probe(key)
            .find(|&slot| self.slots[slot] == 0)
            .expect("an index is never more than half full");
        self.slots[slot] = tag;
    }
}

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
pub struct OrderedMap<V> {
    entries: Vec<(String, V)>,
    /// Present exactly when `entries` is longer than [`LINEAR_MAX`].
    index: Option<Index>,
}

impl<V: PartialEq> PartialEq for OrderedMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl<V: Clone> Clone for OrderedMap<V> {
    fn clone(&self) -> Self {
        OrderedMap {
            entries: self.entries.clone(),
            index: self.index.clone(),
        }
    }

    /// Reuses the target's entries, their key buffers and its index.
    fn clone_from(&mut self, source: &Self) {
        self.entries.truncate(source.entries.len());
        let kept = self.entries.len();
        for ((key, value), (src_key, src_value)) in self.entries.iter_mut().zip(&source.entries) {
            key.clone_from(src_key);
            value.clone_from(src_value);
        }
        self.entries.extend_from_slice(&source.entries[kept..]);
        match (&mut self.index, &source.index) {
            (Some(index), Some(src_index)) => {
                index.hasher = src_index.hasher.clone();
                index.slots.clone_from(&src_index.slots);
            }
            (index, src_index) => *index = src_index.clone(),
        }
    }
}

impl<V> Default for OrderedMap<V> {
    fn default() -> Self {
        OrderedMap::new()
    }
}

impl<V> OrderedMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        OrderedMap {
            entries: Vec::new(),
            index: None,
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

    /// The insertion index of `key`, if present.
    pub fn position(&self, key: &str) -> Option<usize> {
        match &self.index {
            Some(index) => index.find(&self.entries, key),
            None => self.entries.iter().position(|(k, _)| k == key),
        }
    }

    /// Inserts or replaces; returns the previous value if the key existed.
    /// A replaced key keeps its position.
    pub fn insert(&mut self, key: String, value: V) -> Option<V> {
        if let Some(position) = self.position(&key) {
            return Some(std::mem::replace(&mut self.entries[position].1, value));
        }
        let position = self.entries.len();
        match &mut self.index {
            Some(index) if 2 * (position + 1) <= index.slots.len() => index.occupy(&key, position),
            // Past the linear threshold, or the index is half full: build
            // one with room to double, so rebuilds cost O(1) per insert.
            _ if position + 1 > LINEAR_MAX => {
                let keys = self.entries.iter().map(|(k, _)| k.as_str());
                let mut index = Index::build(keys, 2 * (position + 1));
                index.occupy(&key, position);
                self.index = Some(index);
            }
            _ => {}
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.position(key).map(|position| &self.entries[position].1)
    }

    /// Mutable lookup by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut V> {
        let position = self.position(key)?;
        Some(&mut self.entries[position].1)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Removes a key, returning its value if present. Preserves the order
    /// of the remaining entries.
    pub fn remove(&mut self, key: &str) -> Option<V> {
        let position = self.position(key)?;
        let (_, value) = self.entries.remove(position);
        // Every later entry moved down one place; removal is O(len)
        // anyway, so rebuild rather than patch.
        self.index = (self.entries.len() > LINEAR_MAX).then(|| {
            let keys = self.entries.iter().map(|(k, _)| k.as_str());
            Index::build(keys, self.entries.len())
        });
        Some(value)
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

    /// Checks `map` against a plain list of the same entries.
    fn assert_matches(map: &OrderedMap<usize>, reference: &[(String, usize)]) {
        assert_eq!(map.len(), reference.len());
        assert_eq!(map.index.is_some(), map.len() > LINEAR_MAX);
        for (position, (key, value)) in reference.iter().enumerate() {
            assert_eq!(map.position(key), Some(position), "{key}");
            assert_eq!(map.get(key), Some(value), "{key}");
            assert_eq!(map.get_index(position), Some((key.as_str(), value)));
        }
        assert_eq!(map.position("absent"), None);
    }

    #[test]
    fn indexed_map_agrees_with_a_linear_list() {
        let mut map = OrderedMap::new();
        let mut reference: Vec<(String, usize)> = Vec::new();
        for i in 0..300 {
            let key = format!("k{}", (i * 37) % 200);
            match reference.iter().position(|(k, _)| *k == key) {
                Some(p) => {
                    assert_eq!(map.insert(key, i), Some(reference[p].1));
                    reference[p].1 = i;
                }
                None => {
                    assert_eq!(map.insert(key.clone(), i), None);
                    reference.push((key, i));
                }
            }
            assert_matches(&map, &reference);
        }
        // Remove down through the linear threshold and back up.
        for i in (0..200).step_by(3) {
            let key = format!("k{i}");
            let p = reference.iter().position(|(k, _)| *k == key).unwrap();
            assert_eq!(map.remove(&key), Some(reference.remove(p).1));
        }
        assert_matches(&map, &reference);
        while reference.len() > 3 {
            let (key, value) = reference.remove(1);
            assert_eq!(map.remove(&key), Some(value));
            assert_matches(&map, &reference);
        }
        for i in 0..20 {
            map.insert(format!("again{i}"), i);
            reference.push((format!("again{i}"), i));
            *map.get_mut(&format!("again{i}")).unwrap() += 1;
            reference.last_mut().unwrap().1 += 1;
            assert_matches(&map, &reference);
        }
    }

    #[test]
    fn clone_from_carries_the_index_across_sizes() {
        let build =
            |n: usize| -> OrderedMap<usize> { (0..n).map(|i| (format!("k{i}"), i)).collect() };
        for (from, to) in [(3, 40), (40, 3), (40, 60), (60, 40), (0, 9)] {
            let source = build(to);
            let mut target = build(from);
            target.clone_from(&source);
            assert!(target == source);
            let reference: Vec<(String, usize)> = (0..to).map(|i| (format!("k{i}"), i)).collect();
            assert_matches(&target, &reference);
            assert_matches(&source.clone(), &reference);
        }
    }

    #[test]
    fn equality_ignores_how_the_map_was_built() {
        let mut a: OrderedMap<usize> = (0..20).map(|i| (format!("k{i}"), i)).collect();
        let b: OrderedMap<usize> = (0..10).map(|i| (format!("k{i}"), i)).collect();
        for i in 10..20 {
            a.remove(&format!("k{i}"));
        }
        assert!(a == b);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let mut m = OrderedMap::new();
        m.insert("a".into(), 1);
        assert!(format!("{m:?}").contains('a'));
    }
}
