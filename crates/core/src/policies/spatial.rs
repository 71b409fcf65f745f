//! Pure spatial page replacement (Section 2.3 of the paper).

use crate::order::LinkedOrder;
use crate::policy::{PolicyEvents, ReplacementPolicy, VictimRanker};
use asb_geom::SpatialCriterion;
use asb_storage::{AccessContext, Page, PageId};

/// The page with the smallest criterion among `candidates`, in the order
/// given. The strict `<` keeps the first page found on ties, which is the
/// LRU tie-break when the candidates run from the LRU end.
pub(crate) fn smallest_crit(mut candidates: impl Iterator<Item = (PageId, f64)>) -> Option<PageId> {
    let (mut victim, mut best) = candidates.next()?;
    for (id, c) in candidates {
        if c < best {
            (victim, best) = (id, c);
        }
    }
    Some(victim)
}

/// Spatial page replacement: evict the page with the **smallest**
/// `spatialCrit(p)` for the chosen criterion (A, EA, M, EM or EO); the LRU
/// strategy breaks ties, exactly as in the paper:
///
/// 1. `C := { p | p ∈ buffer ∧ (q ∈ buffer ⇒ spatialCrit(p) ≤ spatialCrit(q)) }`
/// 2. if `|C| > 1`, the victim is determined from `C` by LRU.
#[derive(Debug)]
pub struct SpatialPolicy {
    criterion: SpatialCriterion,
    /// LRU order with each page's criterion; iterating from the front visits
    /// least-recently-used pages first, which makes "first minimum found"
    /// the LRU tie-break.
    order: LinkedOrder<PageId, f64>,
}

impl SpatialPolicy {
    /// Creates a spatial policy with the given criterion.
    pub fn new(criterion: SpatialCriterion) -> Self {
        SpatialPolicy {
            criterion,
            order: LinkedOrder::new(),
        }
    }

    /// The configured criterion.
    pub fn criterion(&self) -> SpatialCriterion {
        self.criterion
    }
}

impl PolicyEvents for SpatialPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        debug_assert!(
            !self.order.contains(&page.id),
            "{:?} inserted twice",
            page.id
        );
        self.order
            .push_back_with(page.id, page.meta.stats.criterion(self.criterion));
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.move_to_back(&page.id);
    }

    fn on_update(&mut self, page: &Page) {
        if let Some(crit) = self.order.get_mut(&page.id) {
            *crit = page.meta.stats.criterion(self.criterion);
        }
    }

    fn on_remove(&mut self, id: PageId) {
        self.order.remove(&id);
    }
}

impl VictimRanker for SpatialPolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // Ties go to the earliest (least recently used) page — the paper's
        // LRU tie-break.
        let candidates = self.order.entries().filter(|&(id, _)| evictable(id));
        smallest_crit(candidates.map(|(id, &c)| (id, c)))
    }
}

impl ReplacementPolicy for SpatialPolicy {
    fn name(&self) -> String {
        self.criterion.short_name().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::{Rect, SpatialStats};
    use asb_storage::PageMeta;
    use bytes::Bytes;

    fn page_area(raw: u64, rect: Rect) -> Page {
        let meta = PageMeta::data(SpatialStats::from_rects(&[rect]));
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    fn ctx() -> AccessContext {
        AccessContext::default()
    }

    fn all(_: PageId) -> bool {
        true
    }

    #[test]
    fn smallest_area_is_evicted_first() {
        let mut p = SpatialPolicy::new(SpatialCriterion::Area);
        p.on_insert(&page_area(1, Rect::new(0.0, 0.0, 10.0, 10.0)), ctx(), 1);
        p.on_insert(&page_area(2, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 2);
        p.on_insert(&page_area(3, Rect::new(0.0, 0.0, 5.0, 5.0)), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn recency_does_not_override_criterion() {
        let mut p = SpatialPolicy::new(SpatialCriterion::Area);
        p.on_insert(&page_area(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 1);
        p.on_insert(&page_area(2, Rect::new(0.0, 0.0, 9.0, 9.0)), ctx(), 2);
        // Touching the small page does not save it.
        p.on_hit(&page_area(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }

    #[test]
    fn ties_break_by_lru() {
        let same = Rect::new(0.0, 0.0, 2.0, 2.0);
        let mut p = SpatialPolicy::new(SpatialCriterion::Area);
        p.on_insert(&page_area(1, same), ctx(), 1);
        p.on_insert(&page_area(2, same), ctx(), 2);
        p.on_insert(&page_area(3, same), ctx(), 3);
        p.on_hit(&page_area(1, same), ctx(), 4);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn update_refreshes_criterion() {
        let mut p = SpatialPolicy::new(SpatialCriterion::Area);
        p.on_insert(&page_area(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 1);
        p.on_insert(&page_area(2, Rect::new(0.0, 0.0, 5.0, 5.0)), ctx(), 2);
        // Page 1 grows (e.g. an insertion enlarged its MBR).
        p.on_update(&page_area(1, Rect::new(0.0, 0.0, 20.0, 20.0)));
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn respects_evictable_filter() {
        let mut p = SpatialPolicy::new(SpatialCriterion::Area);
        p.on_insert(&page_area(1, Rect::new(0.0, 0.0, 1.0, 1.0)), ctx(), 1);
        p.on_insert(&page_area(2, Rect::new(0.0, 0.0, 5.0, 5.0)), ctx(), 2);
        let v = p.select_victim(ctx(), &|id| id != PageId::new(1));
        assert_eq!(v, Some(PageId::new(2)));
    }

    #[test]
    fn margin_criterion_prefers_thin_pages_to_stay() {
        // A long thin page: area 1 but margin 20.2 > square's 8.
        let thin = Rect::new(0.0, 0.0, 10.0, 0.1);
        let square = Rect::new(0.0, 0.0, 2.0, 2.0);
        let mut p = SpatialPolicy::new(SpatialCriterion::Margin);
        p.on_insert(&page_area(1, thin), ctx(), 1);
        p.on_insert(&page_area(2, square), ctx(), 2);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
        // Under the area criterion the thin page would be the victim.
        let mut p = SpatialPolicy::new(SpatialCriterion::Area);
        p.on_insert(&page_area(1, thin), ctx(), 1);
        p.on_insert(&page_area(2, square), ctx(), 2);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(1)));
    }
}
