//! Classic history-only baselines: LRU, FIFO, CLOCK and RANDOM.

use crate::order::LinkedOrder;
use crate::policy::{PolicyEvents, ReplacementPolicy, VictimRanker};
use asb_storage::{AccessContext, Page, PageId, PageIdMap};

/// Least-recently-used replacement — the paper's baseline against which all
/// gains are reported.
#[derive(Debug, Default)]
pub struct LruPolicy {
    order: LinkedOrder<PageId>,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        LruPolicy::default()
    }
}

impl PolicyEvents for LruPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.push_back(page.id);
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.move_to_back(&page.id);
    }

    fn on_update(&mut self, _page: &Page) {}

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
    }
}

impl VictimRanker for LruPolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        self.order.iter().copied().find(|&id| evictable(id))
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> String {
        "LRU".into()
    }
}

/// First-in-first-out replacement: hits do not refresh a page's position.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    order: LinkedOrder<PageId>,
}

impl FifoPolicy {
    /// Creates an empty FIFO policy.
    pub fn new() -> Self {
        FifoPolicy::default()
    }
}

impl PolicyEvents for FifoPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.push_back(page.id);
    }

    fn on_hit(&mut self, _page: &Page, _ctx: AccessContext, _now: u64) {}

    fn on_update(&mut self, _page: &Page) {}

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
    }
}

impl VictimRanker for FifoPolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        self.order.iter().copied().find(|&id| evictable(id))
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> String {
        "FIFO".into()
    }
}

/// Second-chance (CLOCK) replacement: an approximation of LRU with one
/// reference bit per page.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    order: LinkedOrder<PageId>,
    referenced: PageIdMap<bool>,
}

impl ClockPolicy {
    /// Creates an empty CLOCK policy.
    pub fn new() -> Self {
        ClockPolicy::default()
    }
}

impl PolicyEvents for ClockPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.push_back(page.id);
        self.referenced.insert(page.id, false);
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        if let Some(bit) = self.referenced.get_mut(&page.id) {
            *bit = true;
        }
    }

    fn on_update(&mut self, _page: &Page) {}

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
        self.referenced.remove(&id);
    }
}

impl VictimRanker for ClockPolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // Two sweeps suffice: the first clears reference bits, the second
        // must find a victim (the manager guarantees one evictable page).
        let limit = self.order.len() * 2 + 1;
        for _ in 0..limit {
            let hand = self.order.front()?;
            if !evictable(hand) {
                self.order.move_to_back(&hand);
                continue;
            }
            // invariant: `referenced` and `order` are updated together in
            // on_admit/on_remove, so every page in the clock order has a bit.
            let bit = (self.referenced.get_mut(&hand)).expect("tracked page has a ref bit");
            if *bit {
                *bit = false;
                self.order.move_to_back(&hand);
            } else {
                return Some(hand);
            }
        }
        None
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn name(&self) -> String {
        "CLOCK".into()
    }
}

/// Uniformly random replacement, driven by a deterministic xorshift64* RNG
/// so experiments stay reproducible.
#[derive(Debug)]
pub struct RandomPolicy {
    pages: Vec<PageId>,
    index: PageIdMap<usize>,
    state: u64,
}

impl RandomPolicy {
    /// Creates a RANDOM policy seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            pages: Vec::new(),
            index: PageIdMap::default(),
            // xorshift must not start at zero.
            state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl PolicyEvents for RandomPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        if self.index.contains_key(&page.id) {
            return;
        }
        self.index.insert(page.id, self.pages.len());
        self.pages.push(page.id);
    }

    fn on_hit(&mut self, _page: &Page, _ctx: AccessContext, _now: u64) {}

    fn on_update(&mut self, _page: &Page) {}

    fn on_remove(&mut self, id: PageId) {
        if let Some(pos) = self.index.remove(&id) {
            self.pages.swap_remove(pos);
            if pos < self.pages.len() {
                self.index.insert(self.pages[pos], pos);
            }
        }
    }
}

impl VictimRanker for RandomPolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        if self.pages.is_empty() {
            return None;
        }
        let start = (self.next_u64() % self.pages.len() as u64) as usize;
        // Linear probe from a random start so a few pinned pages cannot
        // starve the search.
        (0..self.pages.len())
            .map(|i| self.pages[(start + i) % self.pages.len()])
            .find(|&id| evictable(id))
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> String {
        "RANDOM".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::SpatialStats;
    use asb_storage::PageMeta;
    use bytes::Bytes;

    fn page(raw: u64) -> Page {
        Page::new(
            PageId::new(raw),
            PageMeta::data(SpatialStats::EMPTY),
            Bytes::new(),
        )
        .unwrap()
    }

    fn ctx() -> AccessContext {
        AccessContext::default()
    }

    fn all(_: PageId) -> bool {
        true
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut p = LruPolicy::new();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        p.on_hit(&page(0), ctx(), 10);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn lru_skips_unevictable() {
        let mut p = LruPolicy::new();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        let v = p.select_victim(ctx(), &|id| id != PageId::new(0));
        assert_eq!(v, Some(PageId::new(1)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = FifoPolicy::new();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        p.on_hit(&page(0), ctx(), 10);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(0)));
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::new();
        for i in 0..3 {
            p.on_insert(&page(i), ctx(), i);
        }
        p.on_hit(&page(0), ctx(), 10);
        // Page 0 is referenced: the hand clears its bit and advances to 1.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
        p.on_remove(PageId::new(1));
        // The hand moved past page 0 (now at the back with a cleared bit),
        // so page 2 is next, then page 0.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
        p.on_remove(PageId::new(2));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(0)));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = RandomPolicy::new(seed);
            for i in 0..10 {
                p.on_insert(&page(i), ctx(), i);
            }
            let mut victims = Vec::new();
            for _ in 0..5 {
                let v = p.select_victim(ctx(), &all).unwrap();
                victims.push(v);
                p.on_remove(v);
            }
            victims
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge (w.h.p.)");
    }

    #[test]
    fn random_respects_evictable_filter() {
        let mut p = RandomPolicy::new(3);
        for i in 0..10 {
            p.on_insert(&page(i), ctx(), i);
        }
        for _ in 0..20 {
            let v = p.select_victim(ctx(), &|id| id.raw() == 4).unwrap();
            assert_eq!(v, PageId::new(4));
        }
    }

    #[test]
    fn remove_unknown_is_noop() {
        let mut p = LruPolicy::new();
        p.on_insert(&page(1), ctx(), 1);
        p.on_remove(PageId::new(99));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }
}
