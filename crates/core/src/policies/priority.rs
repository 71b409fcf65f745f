//! Type-based and priority-based LRU (Section 2.1 of the paper).

use crate::order::LinkedOrder;
use crate::policy::{PolicyEvents, ReplacementPolicy, VictimRanker};
use asb_storage::{AccessContext, Page, PageId, PageIdMap};
use std::collections::BTreeMap;

/// Type-based LRU (**LRU-T**): "object pages would be dropped immediately
/// from the buffer. Then, data pages would follow. Directory pages would be
/// stored in the buffer as long as possible. For pages of the same category,
/// the LRU strategy is used."
#[derive(Debug, Default)]
pub struct LruTypePolicy {
    // Index 0: object pages, 1: data pages, 2: directory pages.
    classes: [LinkedOrder<PageId>; 3],
    rank_of: PageIdMap<u8>,
}

impl LruTypePolicy {
    /// Creates an empty LRU-T policy.
    pub fn new() -> Self {
        LruTypePolicy::default()
    }
}

impl PolicyEvents for LruTypePolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        let rank = page.meta.page_type.type_rank();
        self.classes[rank as usize].push_back(page.id);
        self.rank_of.insert(page.id, rank);
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        if let Some(&rank) = self.rank_of.get(&page.id) {
            self.classes[rank as usize].move_to_back(&page.id);
        }
    }

    fn on_update(&mut self, page: &Page) {
        // A page's type can never change in place, but guard anyway.
        let new_rank = page.meta.page_type.type_rank();
        if let Some(&old) = self.rank_of.get(&page.id) {
            if old != new_rank {
                self.classes[old as usize].remove(&page.id);
                self.classes[new_rank as usize].push_back(page.id);
                self.rank_of.insert(page.id, new_rank);
            }
        }
    }

    fn on_remove(&mut self, id: PageId) {
        if let Some(rank) = self.rank_of.remove(&id) {
            self.classes[rank as usize].remove(&id);
        }
    }
}

impl VictimRanker for LruTypePolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        self.classes
            .iter()
            .flat_map(|class| class.iter().copied())
            .find(|&id| evictable(id))
    }
}

impl ReplacementPolicy for LruTypePolicy {
    fn name(&self) -> String {
        "LRU-T".into()
    }
}

/// Priority-based LRU (**LRU-P**): "each page has a priority: the higher the
/// priority of a page, the longer it should stay in the buffer." The
/// priority is the page's level in the spatial access method (the root has
/// the highest priority, object pages priority 0), generalizing buffers that
/// pin distinct levels of the SAM (Leutenegger & Lopez).
#[derive(Debug, Default)]
pub struct LruPriorityPolicy {
    classes: BTreeMap<u8, LinkedOrder<PageId>>,
    priority_of: PageIdMap<u8>,
}

impl LruPriorityPolicy {
    /// Creates an empty LRU-P policy.
    pub fn new() -> Self {
        LruPriorityPolicy::default()
    }

    fn file(&mut self, id: PageId, priority: u8) {
        self.classes.entry(priority).or_default().push_back(id);
        self.priority_of.insert(id, priority);
    }
}

impl PolicyEvents for LruPriorityPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.file(page.id, page.meta.priority());
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        if let Some(&prio) = self.priority_of.get(&page.id) {
            if let Some(class) = self.classes.get_mut(&prio) {
                class.move_to_back(&page.id);
            }
        }
    }

    fn on_update(&mut self, page: &Page) {
        let new = page.meta.priority();
        if let Some(&old) = self.priority_of.get(&page.id) {
            if old != new {
                if let Some(class) = self.classes.get_mut(&old) {
                    class.remove(&page.id);
                }
                self.file(page.id, new);
            }
        }
    }

    fn on_remove(&mut self, id: PageId) {
        if let Some(prio) = self.priority_of.remove(&id) {
            if let Some(class) = self.classes.get_mut(&prio) {
                class.remove(&id);
                if class.is_empty() {
                    self.classes.remove(&prio);
                }
            }
        }
    }
}

impl VictimRanker for LruPriorityPolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // BTreeMap iterates priorities ascending: lowest priority first,
        // LRU order within a priority.
        self.classes
            .values()
            .flat_map(|class| class.iter().copied())
            .find(|&id| evictable(id))
    }
}

impl ReplacementPolicy for LruPriorityPolicy {
    fn name(&self) -> String {
        "LRU-P".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::SpatialStats;
    use asb_storage::PageMeta;
    use bytes::Bytes;

    fn page_with(raw: u64, meta: PageMeta) -> Page {
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    fn obj(raw: u64) -> Page {
        page_with(raw, PageMeta::object(SpatialStats::EMPTY))
    }

    fn data(raw: u64) -> Page {
        page_with(raw, PageMeta::data(SpatialStats::EMPTY))
    }

    fn dir(raw: u64, level: u8) -> Page {
        page_with(raw, PageMeta::directory(level, SpatialStats::EMPTY))
    }

    fn ctx() -> AccessContext {
        AccessContext::default()
    }

    fn all(_: PageId) -> bool {
        true
    }

    #[test]
    fn lru_t_drops_object_pages_first() {
        let mut p = LruTypePolicy::new();
        p.on_insert(&dir(1, 2), ctx(), 1);
        p.on_insert(&data(2), ctx(), 2);
        p.on_insert(&obj(3), ctx(), 3);
        // Insertion order would favor the directory page under plain LRU,
        // but LRU-T picks the object page.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(3)));
        p.on_remove(PageId::new(3));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
        p.on_remove(PageId::new(2));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn lru_t_uses_lru_within_category() {
        let mut p = LruTypePolicy::new();
        p.on_insert(&data(1), ctx(), 1);
        p.on_insert(&data(2), ctx(), 2);
        p.on_hit(&data(1), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn lru_p_evicts_lowest_level_first() {
        let mut p = LruPriorityPolicy::new();
        p.on_insert(&dir(1, 4), ctx(), 1); // root
        p.on_insert(&dir(2, 3), ctx(), 2);
        p.on_insert(&dir(3, 2), ctx(), 3);
        p.on_insert(&data(4), ctx(), 4); // leaf, priority 1
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(4)));
        p.on_remove(PageId::new(4));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(3)));
        p.on_remove(PageId::new(3));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn lru_p_effectively_pins_the_root_under_pressure() {
        // With data pages always available, the root is never selected —
        // the generalization of level pinning.
        let mut p = LruPriorityPolicy::new();
        p.on_insert(&dir(0, 3), ctx(), 0);
        for i in 1..=5 {
            p.on_insert(&data(i), ctx(), i);
        }
        for expected in 1..=5u64 {
            let v = p.select_victim(ctx(), &all).unwrap();
            assert_eq!(v, PageId::new(expected));
            p.on_remove(v);
        }
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(0)));
    }

    #[test]
    fn lru_p_skips_unevictable() {
        let mut p = LruPriorityPolicy::new();
        p.on_insert(&data(1), ctx(), 1);
        p.on_insert(&dir(2, 2), ctx(), 2);
        let v = p.select_victim(ctx(), &|id| id != PageId::new(1));
        assert_eq!(v, Some(PageId::new(2)));
    }

    #[test]
    fn lru_p_priority_classes_are_cleaned_up() {
        let mut p = LruPriorityPolicy::new();
        p.on_insert(&data(1), ctx(), 1);
        p.on_remove(PageId::new(1));
        assert!(p.classes.is_empty());
        assert_eq!(p.select_victim(ctx(), &all), None);
    }
}
