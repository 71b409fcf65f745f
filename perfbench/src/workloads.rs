//! The three workloads. Each is a closed loop with one client on one
//! thread: the next operation is issued when the previous one returned.
//!
//! A workload is set up once from the seed, then run in *passes*. Every
//! pass starts from the same state (a fresh buffer pool, and for the update
//! workload a freshly loaded tree), so the counters of every pass are equal
//! and the timings of the passes are independent samples.

use crate::trace::{self, Layer, OpKind, Span};
use crate::wrap::{TracedPool, TracedStore};
use crate::Result;
use asb_core::{BufferManager, BufferPool, PolicyKind, ShardedBuffer};
use asb_geom::{Query, Rect, SpatialItem};
use asb_rtree::{RTree, TreeSnapshot};
use asb_serve::{bench_sessions, serve, Outcome, ServeConfig, ServeOutcome};
use asb_storage::{
    DiskManager, PageId, QueryId, RecordingStore, SharedWal, StorageError, Wal, WalConfig,
};
use asb_workload::{Dataset, DatasetKind, QueryKind, QuerySetSpec, Request, Scale};
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Shard count of the sharded pools.
pub const SHARDS: usize = 4;

/// Seed of the database every workload runs on. Like the paper's, the
/// database is fixed; the run's seed draws the queries, sessions and
/// update streams issued against it, so runs with different seeds measure
/// the same system under different but equally sized loads.
pub const DATASET_SEED: u64 = 42;

/// Counters of one pass. Every pass of a workload must produce equal
/// counts; the timings are what varies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub store_reads: u64,
    pub store_writes: u64,
    pub logical_reads: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub wal_bytes: u64,
    pub record_bytes: u64,
    pub rounds: u64,
    pub serve_p99_ticks: u64,
    pub batches: u64,
    pub batch_pages: u64,
    pub authority_switches: u64,
}

/// What one pass measured.
pub struct Pass {
    pub ops: u64,
    /// Wall time of the timed loop.
    pub wall: Duration,
    /// Wall latency of every operation (serve: of every round), in ns.
    pub lat_ns: Vec<u64>,
    pub counts: Counts,
    /// Operations that returned an error or a non-exact answer.
    pub failed: u64,
    /// Spans of the pass (empty unless traced).
    pub spans: Vec<Span>,
    /// Sum and number of ASB candidate-set sizes sampled after each op
    /// (traced passes only).
    pub candidate: (u64, u64),
}

/// Set-up time split into its two steps.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Generating the dataset and the workload's inputs.
    pub dataset_s: f64,
    /// Bulk load and pool build.
    pub load_s: f64,
}

/// The workload's recorded reference string and the policy it runs.
pub struct Replay {
    pub refs: Vec<(PageId, QueryId)>,
    pub policy: PolicyKind,
    pub capacity: usize,
}

pub trait Workload: Send {
    /// Operations one pass issues (serve: requests).
    fn ops_per_pass(&self) -> u64;
    /// Runs one pass. The first pass keeps its answers for [`check`] and
    /// records the reference string.
    ///
    /// [`check`]: Workload::check
    fn pass(&mut self, traced: bool, first: bool) -> Result<Pass>;
    /// Compares the first pass's answers with an independent computation
    /// and returns how many were wrong.
    fn check(&mut self) -> Result<u64>;
    /// Corrupts one kept answer, so that [`check`](Workload::check) must
    /// find it.
    fn plant_wrong_answer(&mut self);
    /// The reference string recorded in the first pass.
    fn replay(&mut self) -> Result<Replay>;
    /// Runs `f` on the workload's disk (every page the workload uses).
    fn with_disk(&mut self, f: &mut dyn FnMut(&mut DiskManager) -> Result<()>) -> Result<()>;
    /// The dataset the workload was generated from.
    fn dataset(&self) -> &Dataset;
    /// One line on the workload's size: items, pages, buffer frames.
    fn describe(&self) -> String;
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn seed_mix(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Sorted copy of `ids`.
fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids
}

/// The obviously-correct answer to `query` over `items`, which are sorted
/// by `min.x`, whose widest item is `max_w` wide: every item whose left
/// edge can still reach the query region is tested with the query's own
/// predicate.
fn brute_answer(items: &[SpatialItem], max_w: f64, query: &Query) -> Vec<u64> {
    let region = query.region();
    let from = items.partition_point(|it| it.mbr.min.x < region.min.x - max_w);
    let ids = items[from..]
        .iter()
        .take_while(|it| it.mbr.min.x <= region.max.x)
        .filter(|it| query.matches(&it.mbr))
        .map(|it| it.id)
        .collect();
    sorted(ids)
}

/// Items sorted by `min.x`, with the widest item's width.
fn by_min_x(items: &[SpatialItem]) -> (Vec<SpatialItem>, f64) {
    let mut v = items.to_vec();
    v.sort_by(|a, b| a.mbr.min.x.total_cmp(&b.mbr.min.x));
    let max_w = v.iter().map(|it| it.mbr.width()).fold(0.0, f64::max);
    (v, max_w)
}

// ---- paper_asb -----------------------------------------------------------

type PaperTree = RTree<TracedStore<RecordingStore<DiskManager>>>;

/// The paper's setting: ASB at 4.7 % of the tree on Medium mainland,
/// query families in phases INT-P → U-W-33 → S-W-33 → ID-W.
pub struct PaperAsb {
    dataset: Dataset,
    queries: Vec<(OpKind, Query)>,
    tree: PaperTree,
    capacity: usize,
    answers: Vec<Vec<u64>>,
}

impl PaperAsb {
    pub const BUFFER_FRAC: f64 = 0.047;

    pub fn setup(seed: u64, scale: Scale, per_phase: usize) -> Result<(Self, SetupTimes)> {
        let t = Instant::now();
        let dataset = Dataset::generate(DatasetKind::Mainland, scale, DATASET_SEED);
        let phases = [
            (OpKind::Point, QuerySetSpec::intensified(QueryKind::Point)),
            (OpKind::Window, QuerySetSpec::uniform_windows(33)),
            (
                OpKind::Window,
                QuerySetSpec::similar(QueryKind::Window { ex: 33 }),
            ),
            (OpKind::Window, QuerySetSpec::identical_windows()),
        ];
        let mut queries = Vec::with_capacity(4 * per_phase);
        for (k, (kind, spec)) in phases.iter().enumerate() {
            let set = spec.generate(&dataset, per_phase, seed_mix(seed, k as u64 + 1));
            queries.extend(set.into_iter().map(|q| (*kind, q)));
        }
        let dataset_s = secs(t);

        let t = Instant::now();
        let recording = RecordingStore::new(DiskManager::new());
        recording.set_recording(false);
        let mut tree = RTree::bulk_load(TracedStore::new(recording), dataset.items())?;
        let capacity = ((tree.page_count() as f64 * Self::BUFFER_FRAC).round() as usize).max(2);
        tree.set_buffer(BufferManager::with_policy(PolicyKind::Asb, capacity));
        let load_s = secs(t);
        let w = PaperAsb {
            dataset,
            queries,
            tree,
            capacity,
            answers: Vec::new(),
        };
        Ok((w, SetupTimes { dataset_s, load_s }))
    }
}

impl Workload for PaperAsb {
    fn ops_per_pass(&self) -> u64 {
        self.queries.len() as u64
    }

    fn pass(&mut self, traced: bool, first: bool) -> Result<Pass> {
        let tree = &mut self.tree;
        tree.set_buffer(BufferManager::with_policy(PolicyKind::Asb, self.capacity));
        tree.seed_query_counter(0);
        tree.store().reset_counts();
        let mut lat_ns = Vec::with_capacity(self.queries.len());
        let mut failed = 0;
        let mut candidate = (0, 0);
        trace::set_enabled(traced);
        let start = Instant::now();
        for (i, (kind, q)) in self.queries.iter().enumerate() {
            trace::set_op(i as u32);
            let t0 = Instant::now();
            let got = trace::span(Layer::Op(*kind), || tree.execute(q));
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            match got {
                Ok(ids) if first => self.answers.push(sorted(ids)),
                Ok(_) => {}
                Err(_) => {
                    failed += 1;
                    if first {
                        self.answers.push(Vec::new());
                    }
                }
            }
            if traced {
                let size = tree.buffer().and_then(|b| b.candidate_size());
                candidate.0 += size.unwrap_or(0) as u64;
                candidate.1 += 1;
            }
        }
        let wall = start.elapsed();
        trace::set_enabled(false);
        let stats = tree.buffer_stats().expect("buffer attached");
        let counts = Counts {
            store_reads: tree.store().reads(),
            store_writes: tree.store().writes(),
            logical_reads: stats.logical_reads,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            ..Counts::default()
        };
        Ok(Pass {
            ops: self.queries.len() as u64,
            wall,
            lat_ns,
            counts,
            failed,
            spans: trace::take(),
            candidate,
        })
    }

    fn check(&mut self) -> Result<u64> {
        let (items, max_w) = by_min_x(self.dataset.items());
        Ok(self
            .queries
            .iter()
            .zip(&self.answers)
            .filter(|((_, q), got)| brute_answer(&items, max_w, q) != **got)
            .count() as u64)
    }

    fn plant_wrong_answer(&mut self) {
        let ans = self.answers.last_mut().expect("answers kept");
        ans.push(u64::MAX);
    }

    /// The reference string is recorded on the unbuffered tree, where every
    /// page request reaches the store.
    fn replay(&mut self) -> Result<Replay> {
        let buffer = self.tree.take_buffer();
        self.tree.seed_query_counter(0);
        self.tree.store().inner().set_recording(true);
        for (_, q) in &self.queries {
            self.tree.execute(q)?;
        }
        let rec = self.tree.store().inner();
        rec.set_recording(false);
        let refs = rec.take_log();
        if let Some(b) = buffer {
            self.tree.set_buffer(b);
        }
        Ok(Replay {
            refs,
            policy: PolicyKind::Asb,
            capacity: self.capacity,
        })
    }

    fn with_disk(&mut self, f: &mut dyn FnMut(&mut DiskManager) -> Result<()>) -> Result<()> {
        f(self.tree.store_mut().inner_mut().inner_mut())
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn describe(&self) -> String {
        format!(
            "items={} tree_pages={} buffer_frames={} (ASB, {} %) queries={}",
            self.dataset.items().len(),
            self.tree.page_count(),
            self.capacity,
            Self::BUFFER_FRAC * 100.0,
            self.queries.len()
        )
    }
}

// ---- serve_arena ---------------------------------------------------------

/// `asb_serve::serve` over the browsing sessions on Small mainland: ARENA,
/// 85 % buffer, four shards (the `BENCH_serve.json` shape).
pub struct ServeArena {
    dataset: Dataset,
    sessions: Vec<Vec<Request>>,
    snapshot: TreeSnapshot,
    store: Option<TracedStore<DiskManager>>,
    capacity: usize,
    cfg: ServeConfig,
    kept: Option<ServeOutcome>,
    refs: Vec<(PageId, QueryId)>,
}

impl ServeArena {
    pub const BUFFER_FRAC: f64 = 0.85;
    pub const POLICY: PolicyKind = PolicyKind::Arena;
    /// Per-request deadline: one simulated minute. The default (two
    /// simulated seconds) cuts off the largest joins of a busy Small-scale
    /// run; this workload measures exact serving, and deadline handling
    /// is the chaos harness's subject.
    pub const DEADLINE_TICKS: u64 = 60_000_000;

    pub fn setup(
        seed: u64,
        scale: Scale,
        sessions: usize,
        steps: usize,
        think_ticks: u64,
    ) -> Result<(Self, SetupTimes)> {
        let t = Instant::now();
        let dataset = Dataset::generate(DatasetKind::Mainland, scale, DATASET_SEED);
        let streams = bench_sessions(&dataset, seed, sessions, steps);
        let dataset_s = secs(t);

        let t = Instant::now();
        let tree = RTree::bulk_load(TracedStore::new(DiskManager::new()), dataset.items())?;
        let capacity =
            ((tree.page_count() as f64 * Self::BUFFER_FRAC).round() as usize).max(2 * SHARDS);
        let snapshot = tree.snapshot();
        let pool = ShardedBuffer::new(tree.into_store(), Self::POLICY, capacity, SHARDS);
        let store = unpool(pool)?;
        let load_s = secs(t);
        let w = ServeArena {
            dataset,
            sessions: streams,
            snapshot,
            store: Some(store),
            capacity,
            cfg: ServeConfig {
                seed,
                think_ticks,
                deadline_ticks: Self::DEADLINE_TICKS,
                ..ServeConfig::default()
            },
            kept: None,
            refs: Vec::new(),
        };
        Ok((w, SetupTimes { dataset_s, load_s }))
    }

    fn take_store(&mut self) -> TracedStore<DiskManager> {
        self.store.take().expect("store returned after every pass")
    }
}

/// Takes the store back out of a pool with no live guards.
fn unpool<S: asb_storage::ConcurrentPageStore>(pool: ShardedBuffer<S>) -> Result<S> {
    pool.try_into_store()
        .map_err(|p| StorageError::GuardsOutstanding(p.live_guards()).into())
}

/// Number of pairs of the items in `ids` whose MBRs intersect.
fn join_count(mbrs: &HashMap<u64, Rect>, ids: &[u64]) -> u64 {
    let rects: Vec<Rect> = ids.iter().map(|id| mbrs[id]).collect();
    let mut count = 0;
    for (i, a) in rects.iter().enumerate() {
        count += rects[i + 1..].iter().filter(|b| a.intersects(b)).count() as u64;
    }
    count
}

impl Workload for ServeArena {
    fn ops_per_pass(&self) -> u64 {
        self.sessions.iter().map(|s| s.len() as u64).sum()
    }

    fn pass(&mut self, traced: bool, first: bool) -> Result<Pass> {
        let store = self.take_store();
        store.reset_counts();
        let pool = TracedPool::new(ShardedBuffer::new(
            store,
            Self::POLICY,
            self.capacity,
            SHARDS,
        ));
        pool.set_recording(first);
        trace::set_enabled(traced);
        trace::set_op(0);
        let start = Instant::now();
        let outcome = trace::span(Layer::Op(OpKind::Serve), || {
            serve(&pool, &self.snapshot, &self.sessions, &self.cfg)
        });
        let end = Instant::now();
        let wall = end - start;
        trace::set_enabled(false);
        let spans = trace::take();
        let marks = pool.take_round_marks();
        pool.set_recording(false);
        if first {
            self.refs = pool.take_refs();
        }
        let stats = BufferPool::stats(&pool);
        let (batches, batch_pages) = pool.batch_counts();
        let authority_switches = pool
            .arena_states()
            .iter()
            .flatten()
            .map(|a| a.switches)
            .sum();
        let inner = pool.into_inner();
        let store = unpool(inner)?;
        let (reads, writes) = (store.reads(), store.writes());
        self.store = Some(store);
        let outcome = outcome?;
        let r = &outcome.report;
        // The engine asks once when it starts and once per round.
        if marks.len() as u64 != r.rounds + 1 {
            return Err(format!(
                "round marks ({}) disagree with the engine's rounds ({} + 1)",
                marks.len(),
                r.rounds
            )
            .into());
        }
        let lat_ns = marks[1..]
            .iter()
            .zip(marks[2..].iter().copied().chain([end]))
            .map(|(a, b)| (b - *a).as_nanos() as u64)
            .collect();
        let failed = outcome
            .responses
            .iter()
            .filter(|resp| resp.outcome != Outcome::Exact)
            .count() as u64;
        let counts = Counts {
            store_reads: reads,
            store_writes: writes,
            logical_reads: stats.logical_reads,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            rounds: r.rounds,
            serve_p99_ticks: r.p99_ticks,
            batches,
            batch_pages,
            authority_switches,
            ..Counts::default()
        };
        let ops = r.requests;
        if first {
            self.kept = Some(outcome);
        }
        Ok(Pass {
            ops,
            wall,
            lat_ns,
            counts,
            failed,
            spans,
            candidate: (0, 0),
        })
    }

    /// Runs every served request again directly on an unbuffered tree.
    fn check(&mut self) -> Result<u64> {
        let mbrs: HashMap<u64, Rect> = self
            .dataset
            .items()
            .iter()
            .map(|it| (it.id, it.mbr))
            .collect();
        let mut tree = RTree::attach(self.take_store(), self.snapshot);
        let kept = self.kept.as_ref().expect("first pass kept");
        let mut wrong = 0;
        for resp in &kept.responses {
            let want = match &self.sessions[resp.session][resp.seq] {
                Request::Window(region) => sorted(tree.window_query(*region)?),
                Request::Nearest(p, k) => tree
                    .nearest_neighbors(*p, *k)?
                    .into_iter()
                    .map(|(id, _)| id)
                    .collect(),
                Request::Join(region) => vec![join_count(&mbrs, &tree.window_query(*region)?)],
            };
            if resp.results != want || resp.outcome != Outcome::Exact {
                wrong += 1;
            }
        }
        if kept.responses.len() as u64 != self.ops_per_pass() {
            wrong += self.ops_per_pass().abs_diff(kept.responses.len() as u64);
        }
        self.store = Some(tree.into_store());
        Ok(wrong)
    }

    fn plant_wrong_answer(&mut self) {
        let kept = self.kept.as_mut().expect("first pass kept");
        kept.responses[0].results.push(u64::MAX);
    }

    fn replay(&mut self) -> Result<Replay> {
        Ok(Replay {
            refs: self.refs.clone(),
            policy: Self::POLICY,
            capacity: self.capacity,
        })
    }

    fn with_disk(&mut self, f: &mut dyn FnMut(&mut DiskManager) -> Result<()>) -> Result<()> {
        f(self.store.as_mut().expect("store present").inner_mut())
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn describe(&self) -> String {
        format!(
            "items={} tree_pages={} buffer_frames={} (ARENA, {} %, {} shards) sessions={} requests={}",
            self.dataset.items().len(),
            self.store.as_ref().map_or(0, asb_storage::PageStore::page_count),
            self.capacity,
            Self::BUFFER_FRAC * 100.0,
            SHARDS,
            self.sessions.len(),
            self.ops_per_pass()
        )
    }
}

// ---- update_wal ----------------------------------------------------------

#[derive(Clone, Copy)]
enum Update {
    Insert(SpatialItem),
    Delete(SpatialItem),
    Window(Rect),
}

type WalTree = RTree<TracedPool<TracedStore<DiskManager>>>;

struct Loaded {
    tree: WalTree,
    wal: SharedWal,
}

/// Writes beside reads: half of Small mainland bulk-loaded, then inserts,
/// deletes and window queries (4 : 1 : 1) on a tree attached over a
/// four-shard ASB pool with a write-through WAL, checkpointing every
/// [`UpdateWal::CHECKPOINT_EVERY`] updates.
pub struct UpdateWal {
    dataset: Dataset,
    base: Vec<SpatialItem>,
    ops: Vec<Update>,
    live: BTreeSet<u64>,
    /// The tree the next pass runs on.
    loaded: Option<Loaded>,
    /// The tree the first pass left, for the check.
    kept: Option<Loaded>,
    windows: Vec<Vec<u64>>,
    refs: Vec<(PageId, QueryId)>,
    capacity: usize,
}

/// Bytes of one item record: id and MBR.
const ITEM_RECORD_BYTES: u64 = 8 + 4 * 8;

impl UpdateWal {
    pub const BUFFER_FRAC: f64 = 0.10;
    pub const CHECKPOINT_EVERY: usize = 500;

    pub fn setup(seed: u64, scale: Scale, max_inserts: usize) -> Result<(Self, SetupTimes)> {
        let t = Instant::now();
        let dataset = Dataset::generate(DatasetKind::Mainland, scale, DATASET_SEED);
        let mut items = dataset.items().to_vec();
        shuffle(&mut items, seed);
        let (base, rest) = items.split_at(items.len() / 2);
        let inserts = &rest[..rest.len().min(max_inserts)];
        let mut doomed = base.to_vec();
        shuffle(&mut doomed, seed_mix(seed, 7));
        doomed.truncate(inserts.len() / 4);
        let windows = QuerySetSpec::similar(QueryKind::Window { ex: 100 }).generate(
            &dataset,
            doomed.len(),
            seed_mix(seed, 11),
        );
        let mut ops = Vec::with_capacity(inserts.len() * 3 / 2);
        for (i, it) in inserts.iter().enumerate() {
            ops.push(Update::Insert(*it));
            if i % 4 == 3 {
                if let Some(d) = doomed.get(i / 4) {
                    ops.push(Update::Delete(*d));
                    ops.push(Update::Window(windows[i / 4].region()));
                }
            }
        }
        let mut live: BTreeSet<u64> = base.iter().chain(inserts).map(|it| it.id).collect();
        for d in &doomed {
            live.remove(&d.id);
        }
        let dataset_s = secs(t);

        let mut w = UpdateWal {
            base: base.to_vec(),
            dataset,
            ops,
            live,
            loaded: None,
            kept: None,
            windows: Vec::new(),
            refs: Vec::new(),
            capacity: 0,
        };
        let t = Instant::now();
        w.load()?;
        let load_s = secs(t);
        Ok((w, SetupTimes { dataset_s, load_s }))
    }

    /// Bulk-loads the base half and attaches the tree over a fresh pool
    /// with a fresh WAL.
    fn load(&mut self) -> Result<()> {
        let tree = RTree::bulk_load(TracedStore::new(DiskManager::new()), &self.base)?;
        self.capacity =
            ((tree.page_count() as f64 * Self::BUFFER_FRAC).round() as usize).max(2 * SHARDS);
        let snapshot = tree.snapshot();
        let pool = ShardedBuffer::new(tree.into_store(), PolicyKind::Asb, self.capacity, SHARDS);
        let wal = Wal::shared(WalConfig::default());
        pool.attach_wal(wal.clone());
        let tree = RTree::attach(TracedPool::new(pool), snapshot);
        self.loaded = Some(Loaded { tree, wal });
        Ok(())
    }

    fn record_bytes(&self) -> u64 {
        let updates = self
            .ops
            .iter()
            .filter(|op| !matches!(op, Update::Window(_)))
            .count() as u64;
        updates * ITEM_RECORD_BYTES
    }
}

/// Fisher–Yates shuffle driven by a seeded xorshift generator.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed | 1;
    for i in (1..v.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

impl Workload for UpdateWal {
    fn ops_per_pass(&self) -> u64 {
        self.ops.len() as u64
    }

    fn pass(&mut self, traced: bool, first: bool) -> Result<Pass> {
        if self.loaded.is_none() {
            self.load()?;
        }
        let record_bytes = self.record_bytes();
        let mut loaded = self.loaded.take().expect("tree loaded");
        let Loaded { tree, wal } = &mut loaded;
        tree.store().inner().with_store(|s| s.reset_counts())?;
        tree.store().set_recording(first);
        let mut lat_ns = Vec::with_capacity(self.ops.len());
        let mut failed = 0;
        let mut candidate = (0, 0);
        let mut windows = Vec::new();
        let mut updates = 0;
        trace::set_enabled(traced);
        let start = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            trace::set_op(i as u32);
            let t0 = Instant::now();
            let ok = match op {
                Update::Insert(it) => {
                    trace::span(Layer::Op(OpKind::Insert), || tree.insert(*it)).is_ok()
                }
                Update::Delete(it) => {
                    let r = trace::span(Layer::Op(OpKind::Delete), || tree.delete(it.id, &it.mbr));
                    matches!(r, Ok(true))
                }
                Update::Window(region) => {
                    match trace::span(Layer::Op(OpKind::Window), || tree.window_query(*region)) {
                        Ok(ids) => {
                            if first {
                                windows.push(sorted(ids));
                            }
                            true
                        }
                        Err(_) => false,
                    }
                }
            };
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            failed += u64::from(!ok);
            if !matches!(op, Update::Window(_)) {
                updates += 1;
                if updates % Self::CHECKPOINT_EVERY == 0 {
                    let pool = tree.store().inner();
                    if trace::span(Layer::Pool, || pool.checkpoint()).is_err() {
                        failed += 1;
                    }
                }
            }
            if traced {
                let sizes = tree.store().inner().shard_candidate_sizes();
                candidate.0 += sizes.iter().flatten().sum::<usize>() as u64;
                candidate.1 += sizes.iter().flatten().count() as u64;
            }
        }
        let wall = start.elapsed();
        trace::set_enabled(false);
        let pool = tree.store();
        pool.set_recording(false);
        let stats = BufferPool::stats(pool);
        let (reads, writes) = pool.inner().with_store(|s| (s.reads(), s.writes()))?;
        let counts = Counts {
            store_reads: reads,
            store_writes: writes,
            logical_reads: stats.logical_reads,
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            wal_bytes: wal.lock().stats().bytes_appended,
            record_bytes,
            ..Counts::default()
        };
        if first {
            self.refs = pool.take_refs();
            self.windows = windows;
            self.kept = Some(loaded);
        }
        Ok(Pass {
            ops: self.ops.len() as u64,
            wall,
            lat_ns,
            counts,
            failed,
            spans: trace::take(),
            candidate,
        })
    }

    /// Validates the tree the first pass left, compares its live id set
    /// with the expected one, and every window answer with a brute-force
    /// filter over the items live at that point.
    fn check(&mut self) -> Result<u64> {
        let mut wrong = 0;
        let live = &self.live;
        let loaded = self.kept.as_mut().expect("first pass kept its tree");
        if loaded.tree.validate().is_err() {
            wrong += 1;
        }
        let ids: BTreeSet<u64> = loaded.tree.scan_all()?.iter().map(|it| it.id).collect();
        if ids != *live {
            wrong += 1;
        }
        let mut current: HashMap<u64, Rect> = self.base.iter().map(|it| (it.id, it.mbr)).collect();
        let mut w = 0;
        for op in &self.ops {
            match op {
                Update::Insert(it) => {
                    current.insert(it.id, it.mbr);
                }
                Update::Delete(it) => {
                    current.remove(&it.id);
                }
                Update::Window(region) => {
                    let want = sorted(
                        current
                            .iter()
                            .filter(|(_, r)| r.intersects(region))
                            .map(|(id, _)| *id)
                            .collect(),
                    );
                    if self.windows.get(w) != Some(&want) {
                        wrong += 1;
                    }
                    w += 1;
                }
            }
        }
        Ok(wrong)
    }

    fn plant_wrong_answer(&mut self) {
        if let Some(ans) = self.windows.first_mut() {
            ans.push(u64::MAX);
        }
    }

    fn replay(&mut self) -> Result<Replay> {
        Ok(Replay {
            refs: self.refs.clone(),
            policy: PolicyKind::Asb,
            capacity: self.capacity,
        })
    }

    fn with_disk(&mut self, f: &mut dyn FnMut(&mut DiskManager) -> Result<()>) -> Result<()> {
        let kept = self.kept.as_ref().expect("first pass kept its tree");
        let pool = kept.tree.store().inner();
        pool.with_store(|s| f(s.inner_mut()))?
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn describe(&self) -> String {
        format!(
            "items={} bulk_loaded={} buffer_frames={} (ASB, {} % of the loaded tree, {} shards, WAL, checkpoint every {} updates) ops={}",
            self.dataset.items().len(),
            self.base.len(),
            self.capacity,
            Self::BUFFER_FRAC * 100.0,
            SHARDS,
            Self::CHECKPOINT_EVERY,
            self.ops.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_and_check(w: &mut dyn Workload) -> (Pass, u64) {
        let pass = w.pass(false, true).expect("pass");
        let wrong = w.check().expect("check");
        (pass, wrong)
    }

    fn assert_catches_plant(w: &mut dyn Workload) {
        let (pass, wrong) = run_and_check(w);
        assert_eq!(pass.failed, 0);
        assert_eq!(wrong, 0, "clean run must check clean");
        w.plant_wrong_answer();
        assert!(w.check().expect("check") > 0, "planted answer not caught");
    }

    #[test]
    fn paper_asb_checks_clean_and_catches_a_planted_answer() {
        let (mut w, _) = PaperAsb::setup(3, Scale::Tiny, 50).expect("setup");
        assert_catches_plant(&mut w);
    }

    #[test]
    fn serve_arena_checks_clean_and_catches_a_planted_answer() {
        let (mut w, _) = ServeArena::setup(3, Scale::Tiny, 4, 6, 20_000).expect("setup");
        assert_catches_plant(&mut w);
    }

    #[test]
    fn update_wal_checks_clean_and_catches_a_planted_answer() {
        let (mut w, _) = UpdateWal::setup(3, Scale::Tiny, 200).expect("setup");
        assert_catches_plant(&mut w);
    }

    #[test]
    fn passes_repeat_their_counts() {
        let (mut w, _) = UpdateWal::setup(5, Scale::Tiny, 120).expect("setup");
        let a = w.pass(false, true).expect("pass").counts;
        let b = w.pass(true, false).expect("pass").counts;
        let c = w.pass(false, false).expect("pass").counts;
        assert_eq!(a, b);
        assert_eq!(b, c);
        let (mut s, _) = ServeArena::setup(5, Scale::Tiny, 3, 4, 20_000).expect("setup");
        let a = s.pass(false, true).expect("pass").counts;
        let b = s.pass(true, false).expect("pass").counts;
        assert_eq!(a, b);
    }

    #[test]
    fn paper_asb_store_reads_equal_the_replayed_misses() {
        let (mut w, _) = PaperAsb::setup(9, Scale::Tiny, 40).expect("setup");
        let pass = w.pass(false, true).expect("pass");
        let replay = w.replay().expect("replay");
        let mut misses = 0;
        w.with_disk(&mut |disk| {
            let run = crate::layers::replay(disk, &replay.refs, replay.policy, replay.capacity)?;
            misses = run.misses;
            Ok(())
        })
        .expect("replay");
        assert_eq!(pass.counts.store_reads, misses);
    }
}
