//! A doubly-linked recency/insertion order over hashable keys, with a value
//! per key.
//!
//! All replacement policies need the same primitive: an ordered set of page
//! ids supporting O(1) insert-at-back, remove, move-to-back and
//! pop-from-front. `LinkedOrder` implements it as an intrusive doubly-linked
//! list over a slab (`Vec` of nodes with a free list) plus a
//! `HashMap<K, slot>` index under the fixed [`PageIdBuildHasher`] — no
//! per-operation allocation after warm-up.
//!
//! Each slab node also holds the key's value `V` next to its links, so a
//! policy keeps its per-page state (a spatial criterion, a last-access tick,
//! a reference bit) in the order that already ranks the page: a walk over
//! [`LinkedOrder::entries`] reads it without one hash lookup per page, and
//! a touch is one lookup that both moves the node and hands out its value.
//! Values are small `Copy` records; orders that need none use the default
//! `V = ()`.

use asb_storage::PageIdBuildHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

/// An ordered map with O(1) queue/recency operations.
///
/// Front = oldest (LRU / FIFO victim side), back = newest (MRU side).
#[derive(Debug, Clone)]
pub(crate) struct LinkedOrder<K: Eq + Hash + Copy, V = ()> {
    /// Slab of nodes; a freed slot keeps its stale node until reused, but
    /// only slots reachable from `index` (or the list links) are ever read.
    nodes: Vec<Node<K, V>>,
    index: HashMap<K, usize, PageIdBuildHasher>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Copy, V: Copy> Default for LinkedOrder<K, V> {
    fn default() -> Self {
        LinkedOrder::new()
    }
}

impl<K: Eq + Hash + Copy> LinkedOrder<K> {
    /// Appends `key` at the back (newest). Returns `false` (and does
    /// nothing) if the key is already present.
    pub fn push_back(&mut self, key: K) -> bool {
        self.push_back_with(key, ())
    }
}

impl<K: Eq + Hash + Copy, V: Copy> LinkedOrder<K, V> {
    /// Creates an empty order.
    pub fn new() -> Self {
        LinkedOrder {
            nodes: Vec::new(),
            index: HashMap::default(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the order is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Appends `key` with `val` at the back (newest). Returns `false` (and
    /// drops `val`, leaving the present entry as it was) if the key is
    /// already present.
    pub fn push_back_with(&mut self, key: K, val: V) -> bool {
        let Entry::Vacant(entry) = self.index.entry(key) else {
            return false;
        };
        let node = Node {
            key,
            val,
            prev: self.tail,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        entry.insert(slot);
        self.link_back(slot);
        true
    }

    /// Removes and returns the front (oldest) key.
    #[allow(dead_code)] // part of the complete queue API; used by tests
    pub fn pop_front(&mut self) -> Option<K> {
        let key = self.front()?;
        self.remove(&key);
        Some(key)
    }

    /// The front (oldest) key without removing it.
    pub fn front(&self) -> Option<K> {
        (self.head != NIL).then(|| self.nodes[self.head].key)
    }

    /// The back (newest) key without removing it.
    #[allow(dead_code)] // part of the complete queue API; used by tests
    pub fn back(&self) -> Option<K> {
        (self.tail != NIL).then(|| self.nodes[self.tail].key)
    }

    /// The value of `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let slot = *self.index.get(key)?;
        Some(&mut self.nodes[slot].val)
    }

    /// Removes `key` and returns its value, or `None` if it was absent.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        self.unlink(slot);
        self.free.push(slot);
        Some(self.nodes[slot].val)
    }

    /// Moves `key` to the back (newest) and returns its value, or `None`
    /// if it is absent. One index lookup does both.
    pub fn move_to_back(&mut self, key: &K) -> Option<&mut V> {
        let slot = *self.index.get(key)?;
        if slot != self.tail {
            self.unlink(slot);
            self.nodes[slot].prev = self.tail;
            self.nodes[slot].next = NIL;
            self.link_back(slot);
        }
        Some(&mut self.nodes[slot].val)
    }

    /// Iterates keys from front (oldest) to back (newest).
    pub fn iter(&self) -> impl Iterator<Item = &K> + '_ {
        self.walk().map(|node| &node.key)
    }

    /// Iterates `(key, value)` pairs from front (oldest) to back (newest).
    pub fn entries(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.walk().map(|node| (node.key, &node.val))
    }

    fn walk(&self) -> impl Iterator<Item = &Node<K, V>> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            // `NIL` is out of the slab's range, so the walk ends there.
            let node = self.nodes.get(cursor)?;
            cursor = node.next;
            Some(node)
        })
    }

    /// Makes `slot`, whose `prev` already points at the old tail, the tail.
    fn link_back(&mut self, slot: usize) {
        if self.tail != NIL {
            self.nodes[self.tail].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<V: Copy>(order: &LinkedOrder<u32, V>) -> Vec<u32> {
        order.iter().copied().collect()
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut o = LinkedOrder::new();
        for k in [1u32, 2, 3] {
            assert!(o.push_back(k));
        }
        assert_eq!(keys(&o), vec![1, 2, 3]);
        assert_eq!(o.front(), Some(1));
        assert_eq!(o.back(), Some(3));
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn duplicate_push_is_rejected() {
        let mut o = LinkedOrder::new();
        assert!(o.push_back(1u32));
        assert!(!o.push_back(1));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn pop_front_is_fifo() {
        let mut o = LinkedOrder::new();
        for k in [1u32, 2, 3] {
            o.push_back(k);
        }
        assert_eq!(o.pop_front(), Some(1));
        assert_eq!(o.pop_front(), Some(2));
        assert_eq!(o.pop_front(), Some(3));
        assert_eq!(o.pop_front(), None);
        assert!(o.is_empty());
    }

    #[test]
    fn move_to_back_models_lru_touch() {
        let mut o = LinkedOrder::new();
        for k in [1u32, 2, 3] {
            o.push_back(k);
        }
        assert!(o.move_to_back(&1).is_some());
        assert_eq!(keys(&o), vec![2, 3, 1]);
        // Moving the tail is a no-op but succeeds.
        assert!(o.move_to_back(&1).is_some());
        assert_eq!(keys(&o), vec![2, 3, 1]);
        assert!(o.move_to_back(&99).is_none());
    }

    #[test]
    fn remove_middle_front_back() {
        let mut o = LinkedOrder::new();
        for k in [1u32, 2, 3, 4] {
            o.push_back(k);
        }
        assert!(o.remove(&2).is_some());
        assert_eq!(keys(&o), vec![1, 3, 4]);
        assert!(o.remove(&1).is_some());
        assert_eq!(keys(&o), vec![3, 4]);
        assert!(o.remove(&4).is_some());
        assert_eq!(keys(&o), vec![3]);
        assert!(o.remove(&4).is_none());
    }

    #[test]
    fn slots_are_recycled() {
        let mut o = LinkedOrder::new();
        for k in 0..100u32 {
            o.push_back(k);
        }
        for k in 0..100u32 {
            o.remove(&k);
        }
        let slab_size = o.nodes.len();
        for k in 100..200u32 {
            o.push_back(k);
        }
        assert_eq!(o.nodes.len(), slab_size, "free slots must be reused");
    }

    #[test]
    fn stress_against_vec_model() {
        // Deterministic pseudo-random op sequence validated against a
        // Vec-based reference model of keys and their values. Every push
        // carries a fresh value, so a recycled slot that still exposed the
        // freed key's value would differ from the model.
        let mut o: LinkedOrder<u32, u64> = LinkedOrder::new();
        let mut model: Vec<(u32, u64)> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..10_000u64 {
            let k = (rng() % 50) as u32;
            let pos = model.iter().position(|&(x, _)| x == k);
            match rng() % 5 {
                0 => {
                    let pushed = o.push_back_with(k, step);
                    assert_eq!(pushed, pos.is_none());
                    if pushed {
                        model.push((k, step));
                    }
                }
                1 => {
                    assert_eq!(o.remove(&k), pos.map(|p| model.remove(p).1));
                }
                2 => {
                    let moved = o.move_to_back(&k).map(|v| {
                        *v += 1;
                        *v
                    });
                    let expected = pos.map(|p| {
                        let (x, v) = model.remove(p);
                        model.push((x, v + 1));
                        v + 1
                    });
                    assert_eq!(moved, expected);
                }
                3 => {
                    let got = o.get_mut(&k).map(|v| {
                        *v ^= step;
                        *v
                    });
                    let expected = pos.map(|p| {
                        model[p].1 ^= step;
                        model[p].1
                    });
                    assert_eq!(got, expected);
                }
                _ => {
                    assert_eq!(
                        o.pop_front(),
                        (!model.is_empty()).then(|| model.remove(0).0)
                    );
                }
            }
            assert_eq!(o.len(), model.len());
            let entries: Vec<(u32, u64)> = o.entries().map(|(k, &v)| (k, v)).collect();
            assert_eq!(entries, model);
        }
        assert_eq!(keys(&o), model.iter().map(|&(k, _)| k).collect::<Vec<_>>());
    }
}
