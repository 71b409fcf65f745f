//! Static combination of LRU and spatial replacement (Section 4.1).

use crate::order::LinkedOrder;
use crate::policy::{PolicyEvents, ReplacementPolicy, VictimRanker};
use asb_geom::SpatialCriterion;
use asb_storage::{AccessContext, Page, PageId, PageIdMap};

/// **SLRU**: "1.) compute a set of candidates by using LRU and 2.) select
/// the page to be dropped out of the buffer from the candidate set by using
/// a spatial page-replacement algorithm."
///
/// The candidate set consists of the `candidate_fraction * capacity`
/// least-recently-used pages; the page with the smallest spatial criterion
/// among them is evicted. "The larger the candidate set, the larger is the
/// influence of the spatial page-replacement algorithm" — a fraction of 1.0
/// degenerates to the pure spatial policy, a fraction of ~0 to plain LRU.
#[derive(Debug)]
pub struct SlruPolicy {
    criterion: SpatialCriterion,
    candidate_count: usize,
    crit: PageIdMap<f64>,
    order: LinkedOrder<PageId>,
    label: String,
}

impl SlruPolicy {
    /// Creates an SLRU policy for a buffer of `capacity` pages with the
    /// given candidate-set fraction (the paper evaluates 0.25 and 0.5).
    ///
    /// # Panics
    /// Panics if `candidate_fraction` is not in `(0, 1]`.
    pub fn new(capacity: usize, candidate_fraction: f64, criterion: SpatialCriterion) -> Self {
        assert!(
            candidate_fraction > 0.0 && candidate_fraction <= 1.0,
            "candidate fraction must be in (0, 1]"
        );
        let candidate_count = ((capacity as f64 * candidate_fraction).round() as usize).max(1);
        SlruPolicy {
            criterion,
            candidate_count,
            crit: PageIdMap::default(),
            order: LinkedOrder::new(),
            label: format!("SLRU {:.0}%", candidate_fraction * 100.0),
        }
    }

    /// Size of the (static) candidate set in pages.
    pub fn candidate_count(&self) -> usize {
        self.candidate_count
    }
}

impl PolicyEvents for SlruPolicy {
    fn on_insert(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.crit
            .insert(page.id, page.meta.stats.criterion(self.criterion));
        self.order.push_back(page.id);
    }

    fn on_hit(&mut self, page: &Page, _ctx: AccessContext, _now: u64) {
        self.order.move_to_back(&page.id);
    }

    fn on_update(&mut self, page: &Page) {
        if self.crit.contains_key(&page.id) {
            self.crit
                .insert(page.id, page.meta.stats.criterion(self.criterion));
        }
    }

    fn on_remove(&mut self, id: PageId) {
        self.crit.remove(&id);
        self.order.remove(&id);
    }
}

impl VictimRanker for SlruPolicy {
    fn nominate(
        &mut self,
        _ctx: AccessContext,
        evictable: &dyn Fn(PageId) -> bool,
    ) -> Option<PageId> {
        // Walk from the LRU end, gathering up to `candidate_count`
        // evictable candidates; pick the smallest criterion among them
        // (first-found wins ties, i.e. LRU tie-break).
        let mut seen = 0usize;
        let mut victim: Option<(PageId, f64)> = None;
        for &id in self.order.iter() {
            if !evictable(id) {
                continue;
            }
            seen += 1;
            let c = self.crit[&id];
            if victim.is_none_or(|(_, best)| c < best) {
                victim = Some((id, c));
            }
            if seen >= self.candidate_count {
                break;
            }
        }
        victim.map(|(id, _)| id)
    }
}

impl ReplacementPolicy for SlruPolicy {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn candidate_size(&self) -> Option<usize> {
        Some(self.candidate_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::{Rect, SpatialStats};
    use asb_storage::PageMeta;
    use bytes::Bytes;

    fn page_area(raw: u64, side: f64) -> Page {
        let meta = PageMeta::data(SpatialStats::from_rects(&[Rect::new(0.0, 0.0, side, side)]));
        Page::new(PageId::new(raw), meta, Bytes::new()).unwrap()
    }

    fn ctx() -> AccessContext {
        AccessContext::default()
    }

    fn all(_: PageId) -> bool {
        true
    }

    #[test]
    fn candidate_count_is_rounded_and_clamped() {
        assert_eq!(
            SlruPolicy::new(100, 0.25, SpatialCriterion::Area).candidate_count(),
            25
        );
        assert_eq!(
            SlruPolicy::new(100, 0.5, SpatialCriterion::Area).candidate_count(),
            50
        );
        assert_eq!(
            SlruPolicy::new(2, 0.25, SpatialCriterion::Area).candidate_count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_is_rejected() {
        let _ = SlruPolicy::new(100, 0.0, SpatialCriterion::Area);
    }

    #[test]
    fn spatial_choice_is_limited_to_lru_candidates() {
        // Buffer of 4, candidate set 2: the two least-recently-used pages.
        let mut p = SlruPolicy::new(4, 0.5, SpatialCriterion::Area);
        p.on_insert(&page_area(1, 5.0), ctx(), 1); // LRU, area 25
        p.on_insert(&page_area(2, 4.0), ctx(), 2); // area 16
        p.on_insert(&page_area(3, 1.0), ctx(), 3); // smallest area, but MRU side
        p.on_insert(&page_area(4, 2.0), ctx(), 4);
        // Candidates are pages 1 and 2; the globally smallest page (3) is
        // protected by its recency. Victim: smaller of {25, 16} -> page 2.
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn full_fraction_degenerates_to_pure_spatial() {
        let mut p = SlruPolicy::new(3, 1.0, SpatialCriterion::Area);
        p.on_insert(&page_area(1, 5.0), ctx(), 1);
        p.on_insert(&page_area(2, 4.0), ctx(), 2);
        p.on_insert(&page_area(3, 1.0), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(3)));
    }

    #[test]
    fn hits_move_pages_out_of_the_candidate_zone() {
        let mut p = SlruPolicy::new(4, 0.25, SpatialCriterion::Area); // candidates: 1 page
        p.on_insert(&page_area(1, 1.0), ctx(), 1);
        p.on_insert(&page_area(2, 9.0), ctx(), 2);
        // Touch page 1: page 2 becomes the sole candidate.
        p.on_hit(&page_area(1, 1.0), ctx(), 3);
        assert_eq!(p.select_victim(ctx(), &all), Some(PageId::new(2)));
    }

    #[test]
    fn pinned_pages_do_not_consume_candidate_slots() {
        let mut p = SlruPolicy::new(4, 0.5, SpatialCriterion::Area); // 2 candidates
        p.on_insert(&page_area(1, 1.0), ctx(), 1);
        p.on_insert(&page_area(2, 2.0), ctx(), 2);
        p.on_insert(&page_area(3, 9.0), ctx(), 3);
        // Pages 1 and 2 pinned: candidates become {3}, the next evictable.
        let v = p.select_victim(ctx(), &|id| id.raw() > 2);
        assert_eq!(v, Some(PageId::new(3)));
    }
}
