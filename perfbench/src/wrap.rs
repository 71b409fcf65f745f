//! Pass-through wrappers that put spans and counters on the store and
//! pool boundaries. Every method forwards to the wrapped value; nothing is
//! left to a trait default, so the traced program is the program.

use crate::trace::{self, Layer};
use asb_core::{
    ArenaState, BufferPool, BufferStats, FetchOutcome, PageFetchResult, PageReadGuard,
    PageWriteGuard, ShardedBuffer,
};
use asb_storage::{
    AccessContext, ConcurrentPageStore, IoStats, Page, PageId, PageMeta, PageStore, QueryId, Result,
};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A page store whose reads and writes are counted and traced.
pub struct TracedStore<S> {
    inner: S,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl<S> TracedStore<S> {
    pub fn new(inner: S) -> Self {
        TracedStore {
            inner,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Pages read so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Pages written or allocated so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    pub fn reset_counts(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn counted_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    fn counted_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
}

impl<S: PageStore> PageStore for TracedStore<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.counted_read();
        trace::span(Layer::StoreRead, || self.inner.read(id, ctx))
    }

    fn write(&mut self, page: Page) -> Result<()> {
        self.counted_write();
        trace::span(Layer::StoreWrite, || self.inner.write(page))
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> Result<PageId> {
        self.counted_write();
        trace::span(Layer::StoreWrite, || self.inner.allocate(meta, payload))
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        trace::span(Layer::StoreWrite, || self.inner.free(id))
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for TracedStore<S> {
    fn read_shared(&self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.counted_read();
        trace::span(Layer::StoreRead, || self.inner.read_shared(id, ctx))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&self) {
        self.inner.reset_io_stats()
    }
}

/// A sharded pool whose fetches are traced, whose batches are counted, and
/// which can record the page reference string and mark serve rounds.
pub struct TracedPool<S: ConcurrentPageStore> {
    pool: ShardedBuffer<S>,
    batches: AtomicU64,
    batch_pages: AtomicU64,
    recording: AtomicBool,
    refs: Mutex<Vec<(PageId, QueryId)>>,
    round_marks: Mutex<Vec<Instant>>,
}

impl<S: ConcurrentPageStore + 'static> TracedPool<S> {
    pub fn new(pool: ShardedBuffer<S>) -> Self {
        TracedPool {
            pool,
            batches: AtomicU64::new(0),
            batch_pages: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            refs: Mutex::new(Vec::new()),
            round_marks: Mutex::new(Vec::new()),
        }
    }

    pub fn inner(&self) -> &ShardedBuffer<S> {
        &self.pool
    }

    pub fn into_inner(self) -> ShardedBuffer<S> {
        self.pool
    }

    /// `(batches, pages asked for in them)` so far.
    pub fn batch_counts(&self) -> (u64, u64) {
        (
            self.batches.load(Ordering::Relaxed),
            self.batch_pages.load(Ordering::Relaxed),
        )
    }

    /// Starts or stops recording the page reference string.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    pub fn take_refs(&self) -> Vec<(PageId, QueryId)> {
        std::mem::take(&mut *self.refs.lock().expect("reference log poisoned"))
    }

    /// Instants at which the shard count was asked for: the serve engine
    /// asks once when it starts and then once per round.
    pub fn take_round_marks(&self) -> Vec<Instant> {
        std::mem::take(&mut *self.round_marks.lock().expect("round marks poisoned"))
    }

    fn record(&self, ids: &[PageId], ctx: AccessContext) {
        if self.recording.load(Ordering::Relaxed) {
            let mut refs = self.refs.lock().expect("reference log poisoned");
            refs.extend(ids.iter().map(|&id| (id, ctx.query)));
        }
    }
}

impl<S: ConcurrentPageStore + 'static> BufferPool for TracedPool<S> {
    fn fetch(&self, id: PageId, ctx: AccessContext) -> Result<PageReadGuard> {
        self.record(&[id], ctx);
        trace::span(Layer::Pool, || BufferPool::fetch(&self.pool, id, ctx))
    }

    fn fetch_classified(&self, id: PageId, ctx: AccessContext) -> Result<FetchOutcome> {
        self.record(&[id], ctx);
        trace::span(Layer::Pool, || {
            BufferPool::fetch_classified(&self.pool, id, ctx)
        })
    }

    fn fetch_batch(&self, ids: &[PageId], ctx: AccessContext) -> Vec<PageFetchResult> {
        self.record(ids, ctx);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_pages
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        trace::span(Layer::Pool, || {
            BufferPool::fetch_batch(&self.pool, ids, ctx)
        })
    }

    fn fetch_resident(&self, id: PageId, ctx: AccessContext) -> Option<PageReadGuard> {
        self.record(&[id], ctx);
        trace::span(Layer::Pool, || {
            BufferPool::fetch_resident(&self.pool, id, ctx)
        })
    }

    fn shard_count(&self) -> usize {
        self.round_marks
            .lock()
            .expect("round marks poisoned")
            .push(Instant::now());
        BufferPool::shard_count(&self.pool)
    }

    fn shard_of(&self, id: PageId) -> usize {
        BufferPool::shard_of(&self.pool, id)
    }

    fn io_stats(&self) -> IoStats {
        BufferPool::io_stats(&self.pool)
    }

    fn fetch_mut(&self, id: PageId, ctx: AccessContext) -> Result<PageWriteGuard> {
        self.record(&[id], ctx);
        trace::span(Layer::Pool, || BufferPool::fetch_mut(&self.pool, id, ctx))
    }

    fn flush(&self) -> Result<()> {
        trace::span(Layer::Pool, || BufferPool::flush(&self.pool))
    }

    fn stats(&self) -> BufferStats {
        BufferPool::stats(&self.pool)
    }

    fn dirty_count(&self) -> usize {
        BufferPool::dirty_count(&self.pool)
    }

    fn live_guards(&self) -> u64 {
        BufferPool::live_guards(&self.pool)
    }

    fn capacity(&self) -> usize {
        BufferPool::capacity(&self.pool)
    }

    fn clear(&self) {
        BufferPool::clear(&self.pool)
    }

    fn arena_states(&self) -> Vec<Option<ArenaState>> {
        BufferPool::arena_states(&self.pool)
    }
}

/// The pool as a page store, so an `RTree` can be attached over it.
impl<S: ConcurrentPageStore + 'static> PageStore for TracedPool<S> {
    fn read(&mut self, id: PageId, ctx: AccessContext) -> Result<Page> {
        self.record(&[id], ctx);
        trace::span(Layer::Pool, || PageStore::read(&mut self.pool, id, ctx))
    }

    fn write(&mut self, page: Page) -> Result<()> {
        trace::span(Layer::Pool, || PageStore::write(&mut self.pool, page))
    }

    fn allocate(&mut self, meta: PageMeta, payload: Bytes) -> Result<PageId> {
        trace::span(Layer::Pool, || {
            PageStore::allocate(&mut self.pool, meta, payload)
        })
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        trace::span(Layer::Pool, || PageStore::free(&mut self.pool, id))
    }

    fn page_count(&self) -> usize {
        PageStore::page_count(&self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_core::PolicyKind;
    use asb_geom::SpatialStats;
    use asb_storage::DiskManager;

    fn pool(shards: usize) -> (TracedPool<TracedStore<DiskManager>>, Vec<PageId>) {
        let mut disk = DiskManager::new();
        let ids: Vec<PageId> = (0..64u8)
            .map(|i| {
                disk.allocate(
                    PageMeta::data(SpatialStats::EMPTY),
                    Bytes::from(vec![i; 16]),
                )
                .expect("allocate")
            })
            .collect();
        let sharded = ShardedBuffer::new(TracedStore::new(disk), PolicyKind::Lru, 16, shards);
        (TracedPool::new(sharded), ids)
    }

    #[test]
    fn shard_routing_is_forwarded_not_defaulted() {
        let (traced, ids) = pool(4);
        // The trait defaults would answer 1 shard, every page on shard 0.
        assert_eq!(BufferPool::shard_count(&traced), 4);
        assert!(ids
            .iter()
            .all(|&id| BufferPool::shard_of(&traced, id) == traced.inner().shard_of(id)));
        assert!(ids.iter().any(|&id| BufferPool::shard_of(&traced, id) != 0));
    }

    #[test]
    fn fetch_batch_is_forwarded_as_one_batch() {
        let (traced, ids) = pool(4);
        let (reference, _) = pool(4);
        let ctx = AccessContext::default();
        trace::set_enabled(true);
        let got = BufferPool::fetch_batch(&traced, &ids[..10], ctx);
        trace::set_enabled(false);
        let spans = trace::take();
        // One pool span for the whole batch: the default would have made
        // one `fetch_classified` span per page.
        let pool_spans = spans.iter().filter(|s| s.layer == Layer::Pool).count();
        assert_eq!(pool_spans, 1);
        assert_eq!(traced.batch_counts(), (1, 10));
        let want = BufferPool::fetch_batch(&reference, &ids[..10], ctx);
        let hits = |v: &[PageFetchResult]| -> Vec<bool> {
            v.iter().map(|r| r.as_ref().expect("fetch").hit).collect()
        };
        assert_eq!(hits(&got), hits(&want));
        drop(got);
        drop(want);
        assert_eq!(BufferPool::stats(&traced), BufferPool::stats(&reference));
        // Every store read happened inside the batch's span.
        let reads = spans.iter().filter(|s| s.layer == Layer::StoreRead).count();
        assert_eq!(reads, 10);
        assert!(spans
            .iter()
            .filter(|s| s.layer == Layer::StoreRead)
            .all(|s| s.parent == Some(0)));
    }

    #[test]
    fn recorded_references_follow_the_calls() {
        let (traced, ids) = pool(2);
        let ctx = AccessContext::query(QueryId::new(3));
        traced.set_recording(true);
        drop(BufferPool::fetch(&traced, ids[5], ctx).expect("fetch"));
        drop(BufferPool::fetch_batch(&traced, &ids[..2], ctx));
        traced.set_recording(false);
        drop(BufferPool::fetch(&traced, ids[9], ctx).expect("fetch"));
        let q = QueryId::new(3);
        assert_eq!(
            traced.take_refs(),
            vec![(ids[5], q), (ids[0], q), (ids[1], q)]
        );
    }
}
