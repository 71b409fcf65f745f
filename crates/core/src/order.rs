//! A doubly-linked recency/insertion order over hashable keys.
//!
//! All replacement policies need the same primitive: an ordered set of page
//! ids supporting O(1) insert-at-back, remove, move-to-back and
//! pop-from-front. `LinkedOrder` implements it as an intrusive doubly-linked
//! list over a slab (`Vec` of nodes with a free list) plus a
//! `HashMap<K, slot>` index under the fixed [`PageIdBuildHasher`] — no
//! per-operation allocation after warm-up.

use asb_storage::PageIdBuildHasher;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// An ordered set with O(1) queue/recency operations.
///
/// Front = oldest (LRU / FIFO victim side), back = newest (MRU side).
#[derive(Debug, Clone)]
pub(crate) struct LinkedOrder<K: Eq + Hash + Copy> {
    nodes: Vec<Node<K>>,
    index: HashMap<K, usize, PageIdBuildHasher>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K: Eq + Hash + Copy> Default for LinkedOrder<K> {
    fn default() -> Self {
        LinkedOrder::new()
    }
}

impl<K: Eq + Hash + Copy> LinkedOrder<K> {
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

    /// Appends `key` at the back (newest). Returns `false` (and does
    /// nothing) if the key is already present.
    pub fn push_back(&mut self, key: K) -> bool {
        if self.index.contains_key(&key) {
            return false;
        }
        let slot = self.alloc(Node {
            key,
            prev: self.tail,
            next: NIL,
        });
        if self.tail != NIL {
            self.nodes[self.tail].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        self.index.insert(key, slot);
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

    /// Removes `key`. Returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(slot) = self.index.remove(key) else {
            return false;
        };
        self.unlink(slot);
        self.free.push(slot);
        true
    }

    /// Moves `key` to the back (newest). Returns `false` if absent.
    pub fn move_to_back(&mut self, key: &K) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        if slot == self.tail {
            return true;
        }
        self.unlink(slot);
        let node = &mut self.nodes[slot];
        node.prev = self.tail;
        node.next = NIL;
        if self.tail != NIL {
            self.nodes[self.tail].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        true
    }

    /// Iterates keys from front (oldest) to back (newest).
    pub fn iter(&self) -> Iter<'_, K> {
        Iter {
            order: self,
            cursor: self.head,
        }
    }

    fn alloc(&mut self, node: Node<K>) -> usize {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
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

/// Front-to-back iterator over a [`LinkedOrder`].
pub(crate) struct Iter<'a, K: Eq + Hash + Copy> {
    order: &'a LinkedOrder<K>,
    cursor: usize,
}

impl<'a, K: Eq + Hash + Copy> Iterator for Iter<'a, K> {
    type Item = &'a K;

    fn next(&mut self) -> Option<&'a K> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.order.nodes[self.cursor];
        self.cursor = node.next;
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(order: &LinkedOrder<u32>) -> Vec<u32> {
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
        assert!(o.move_to_back(&1));
        assert_eq!(keys(&o), vec![2, 3, 1]);
        // Moving the tail is a no-op but succeeds.
        assert!(o.move_to_back(&1));
        assert_eq!(keys(&o), vec![2, 3, 1]);
        assert!(!o.move_to_back(&99));
    }

    #[test]
    fn remove_middle_front_back() {
        let mut o = LinkedOrder::new();
        for k in [1u32, 2, 3, 4] {
            o.push_back(k);
        }
        assert!(o.remove(&2));
        assert_eq!(keys(&o), vec![1, 3, 4]);
        assert!(o.remove(&1));
        assert_eq!(keys(&o), vec![3, 4]);
        assert!(o.remove(&4));
        assert_eq!(keys(&o), vec![3]);
        assert!(!o.remove(&4));
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
        // Vec-based reference model.
        let mut o = LinkedOrder::new();
        let mut model: Vec<u32> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let k = (rng() % 50) as u32;
            match rng() % 4 {
                0 => {
                    if o.push_back(k) {
                        model.push(k);
                    }
                }
                1 => {
                    let removed = o.remove(&k);
                    let pos = model.iter().position(|&x| x == k);
                    assert_eq!(removed, pos.is_some());
                    if let Some(p) = pos {
                        model.remove(p);
                    }
                }
                2 => {
                    let moved = o.move_to_back(&k);
                    let pos = model.iter().position(|&x| x == k);
                    assert_eq!(moved, pos.is_some());
                    if let Some(p) = pos {
                        let v = model.remove(p);
                        model.push(v);
                    }
                }
                _ => {
                    assert_eq!(o.pop_front(), (!model.is_empty()).then(|| model.remove(0)));
                }
            }
            assert_eq!(o.len(), model.len());
        }
        assert_eq!(keys(&o), model);
    }
}
