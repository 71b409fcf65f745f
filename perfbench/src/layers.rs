//! Per-layer measurements: isolated timed loops over one public function,
//! replays of a recorded reference string, span arithmetic, and the probe
//! that times layers a workload does not reach.

use crate::trace::{self, percentile, Layer, OpKind, Span};
use crate::workloads::{Replay, SHARDS};
use crate::wrap::{TracedPool, TracedStore};
use crate::Result;
use asb_core::{BufferManager, BufferPool, PolicyKind, ShardedBuffer};
use asb_geom::{Rect, SpatialItem};
use asb_rtree::{Node, RTree};
use asb_serve::{bench_sessions, serve, ServeConfig};
use asb_storage::{
    page_checksum, AccessContext, DiskManager, Page, SingleFlight, Wal, WalConfig, PAGE_SIZE,
};
use asb_workload::Dataset;
use std::hint::black_box;
use std::time::Instant;

/// Pages an isolated loop sweeps over.
const SWEEP_PAGES: usize = 1024;
/// Sweeps per isolated loop; the median sweep is reported.
const SWEEPS: usize = 15;
/// Length of the reference-string prefix every policy is replayed on for
/// the in-run ratio rows (the arena is slow; the prefix bounds its cost).
pub const RATIO_PREFIX: usize = 10_000;

/// Median over `SWEEPS` runs of `sweep`, in ns per call, where one sweep
/// makes `calls` calls.
fn sweep_ns(calls: usize, mut sweep: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..SWEEPS)
        .map(|_| {
            let t = Instant::now();
            sweep();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    trace::median(&per)
}

/// Isolated per-call costs on the workload's own pages.
pub struct Isolated {
    /// `page_checksum`, scaled to a full 2 KiB page.
    pub checksum_ns: f64,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub wal_append_ns: f64,
    pub flight_run_ns: f64,
}

pub fn isolated(disk: &DiskManager) -> Result<Isolated> {
    let pages: Vec<Page> = disk.iter_pages().take(SWEEP_PAGES).cloned().collect();
    let n = pages.len();
    if n == 0 {
        return Err("workload has no pages".into());
    }
    let bytes: usize = pages.iter().map(|p| p.payload.len()).sum();
    let checksum_page_ns = sweep_ns(n, || {
        for p in &pages {
            black_box(page_checksum(black_box(&p.payload)));
        }
    });
    let nodes = pages
        .iter()
        .map(Node::decode)
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let decode_ns = sweep_ns(n, || {
        for p in &pages {
            black_box(Node::decode(black_box(p)).ok());
        }
    });
    let encode_ns = sweep_ns(n, || {
        for node in &nodes {
            black_box(node.encode());
        }
    });
    let mut wal_failed = false;
    let wal_append_ns = sweep_ns(n, || {
        let mut wal = Wal::new(WalConfig::default());
        for p in &pages {
            wal_failed |= wal.append_image(black_box(p)).is_err();
        }
        black_box(wal.len_bytes());
    });
    if wal_failed {
        return Err("WAL append failed".into());
    }
    let flight_run_ns = sweep_ns(n, || {
        let flight = SingleFlight::new();
        for p in &pages {
            black_box(flight.run(p.id, || ((), Ok(p.clone()))));
        }
    });
    Ok(Isolated {
        checksum_ns: checksum_page_ns * PAGE_SIZE as f64 * n as f64 / bytes as f64,
        decode_ns,
        encode_ns,
        wal_append_ns,
        flight_run_ns,
    })
}

/// One replay of a reference string through a fresh `BufferManager`.
pub struct ReplayRun {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub hit_ns: u64,
    pub miss_ns: u64,
}

impl ReplayRun {
    /// Mean ns per access.
    pub fn access_ns(&self) -> f64 {
        (self.hit_ns + self.miss_ns) as f64 / self.accesses.max(1) as f64
    }
}

/// Replays `refs` through `BufferManager::fetch` over `disk`, timing every
/// fetch and classifying it by residency before the call.
pub fn replay(
    disk: &mut DiskManager,
    refs: &[(asb_storage::PageId, asb_storage::QueryId)],
    policy: PolicyKind,
    capacity: usize,
) -> Result<ReplayRun> {
    let mut m = BufferManager::with_policy(policy, capacity);
    let mut run = ReplayRun {
        accesses: refs.len() as u64,
        hits: 0,
        misses: 0,
        hit_ns: 0,
        miss_ns: 0,
    };
    for &(id, q) in refs {
        let resident = m.contains(id);
        let t = Instant::now();
        let guard = m.fetch(disk, id, AccessContext::query(q))?;
        drop(black_box(guard));
        let ns = t.elapsed().as_nanos() as u64;
        if resident {
            run.hit_ns += ns;
        } else {
            run.miss_ns += ns;
        }
    }
    let stats = m.stats();
    run.hits = stats.hits;
    run.misses = stats.misses;
    Ok(run)
}

/// Replay-derived manager costs and the in-run policy ratios.
pub struct ReplayTimes {
    pub refs: usize,
    pub policy: ReplayRun,
    pub lru: ReplayRun,
    pub prefix: usize,
    pub asb_prefix_ns: f64,
    pub arena_prefix_ns: f64,
    pub lru_prefix_ns: f64,
}

/// Replays the workload's reference string with its own policy and with
/// LRU, and a prefix of it with ASB, ARENA and LRU.
pub fn replay_times(disk: &mut DiskManager, r: &Replay) -> Result<ReplayTimes> {
    // Pages freed during the run cannot be fetched again.
    let refs: Vec<_> = r
        .refs
        .iter()
        .copied()
        .filter(|(id, _)| disk.peek(*id).is_ok())
        .collect();
    let policy = replay(disk, &refs, r.policy, r.capacity)?;
    let lru = replay(disk, &refs, PolicyKind::Lru, r.capacity)?;
    let prefix = &refs[..refs.len().min(RATIO_PREFIX)];
    let asb = replay(disk, prefix, PolicyKind::Asb, r.capacity)?;
    let arena = replay(disk, prefix, PolicyKind::Arena, r.capacity)?;
    let lru_p = replay(disk, prefix, PolicyKind::Lru, r.capacity)?;
    Ok(ReplayTimes {
        refs: refs.len(),
        policy,
        lru,
        prefix: prefix.len(),
        asb_prefix_ns: asb.access_ns(),
        arena_prefix_ns: arena.access_ns(),
        lru_prefix_ns: lru_p.access_ns(),
    })
}

/// Per-layer times derived from one set of spans. `None` where the spans
/// hold no sample of that layer.
#[derive(Debug, Default)]
pub struct SpanTimes {
    pub store_read_us_per_op: Option<f64>,
    pub store_write_us_per_op: Option<f64>,
    pub pool_self_us_per_op: Option<f64>,
    pub tree_self_us_per_op: Option<f64>,
    pub point_us_p50: Option<f64>,
    pub window_us_p50: Option<f64>,
    pub insert_us_p50: Option<f64>,
    pub delete_us_p50: Option<f64>,
    /// Total self time of `serve` spans, in µs.
    pub serve_self_us: Option<f64>,
    /// Total duration of the root spans per op, in µs.
    pub op_us_per_op: f64,
    /// Self times of all spans minus the root spans' durations, in ns:
    /// zero when every child lies inside its parent.
    pub self_sum_gap_ns: i64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn span_times(spans: &[Span], ops: u64) -> SpanTimes {
    let own = trace::self_times(spans);
    let ops = ops.max(1) as f64;
    let total = |pick: &dyn Fn(&Span) -> bool, val: &dyn Fn(usize) -> u64| -> Option<u64> {
        let mut any = false;
        let mut sum = 0;
        for (i, s) in spans.iter().enumerate() {
            if pick(s) {
                any = true;
                sum += val(i);
            }
        }
        any.then_some(sum)
    };
    let dur = |i: usize| spans[i].duration();
    let selft = |i: usize| own[i];
    let p50 = |kind: OpKind| -> Option<f64> {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|s| s.layer == Layer::Op(kind))
            .map(Span::duration)
            .collect();
        v.sort_unstable();
        (!v.is_empty()).then(|| us(percentile(&v, 50.0)))
    };
    let is_tree_op = |s: &Span| matches!(s.layer, Layer::Op(k) if k != OpKind::Serve);
    let tree_ops = spans.iter().filter(|s| is_tree_op(s)).count() as f64;
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration)
        .sum();
    SpanTimes {
        store_read_us_per_op: total(&|s| s.layer == Layer::StoreRead, &dur).map(|t| us(t) / ops),
        store_write_us_per_op: total(&|s| s.layer == Layer::StoreWrite, &dur).map(|t| us(t) / ops),
        pool_self_us_per_op: total(&|s| s.layer == Layer::Pool, &selft).map(|t| us(t) / ops),
        tree_self_us_per_op: total(&is_tree_op, &selft).map(|t| us(t) / tree_ops),
        point_us_p50: p50(OpKind::Point),
        window_us_p50: p50(OpKind::Window),
        insert_us_p50: p50(OpKind::Insert),
        delete_us_p50: p50(OpKind::Delete),
        serve_self_us: total(&|s| s.layer == Layer::Op(OpKind::Serve), &selft).map(us),
        op_us_per_op: us(roots) / ops,
        self_sum_gap_ns: own.iter().sum::<u64>() as i64 - roots as i64,
    }
}

/// What the probe ran, for its per-op denominators.
pub struct Probe {
    pub spans: Vec<Span>,
    pub ops: u64,
    pub requests: u64,
    pub rounds: u64,
    /// Expert-authority switches of the ARENA pool during the `serve` run.
    pub authority_switches: u64,
    /// Simulated p99 request latency of the `serve` run.
    pub p99_ticks: u64,
}

/// Probe operations of each tree kind.
const PROBE_OPS: usize = 200;
/// Items the probe's tree is loaded with.
const PROBE_ITEMS: usize = 20_000;

/// Times every layer boundary on the workload's own dataset with a small
/// fixed mix, for the layers the workload itself does not reach: a short
/// `serve` run on an ARENA pool, then point and window queries, inserts and
/// deletes on a tree attached over the same pool.
pub fn probe(dataset: &Dataset, seed: u64) -> Result<Probe> {
    let items = &dataset.items()[..dataset.items().len().min(PROBE_ITEMS)];
    let tree = RTree::bulk_load(TracedStore::new(DiskManager::new()), items)?;
    let capacity = ((tree.page_count() as f64 * 0.85).round() as usize).max(2 * SHARDS);
    let snapshot = tree.snapshot();
    let pool = ShardedBuffer::new(tree.into_store(), PolicyKind::Arena, capacity, SHARDS);
    let pool = TracedPool::new(pool);
    let sessions = bench_sessions(dataset, seed, 64, 16);
    let cfg = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    trace::set_enabled(true);
    trace::set_op(0);
    let served = trace::span(Layer::Op(OpKind::Serve), || {
        serve(&pool, &snapshot, &sessions, &cfg)
    });
    trace::set_enabled(false);
    let report = served?.report;
    pool.take_round_marks();
    let authority_switches = BufferPool::arena_states(&pool)
        .iter()
        .flatten()
        .map(|a| a.switches)
        .sum();

    let mut tree = RTree::attach(pool, snapshot);
    let bounds = dataset.bounds();
    let half = bounds.width().min(bounds.height()) / 200.0;
    let step = (items.len() / PROBE_OPS).max(1);
    let picks: Vec<SpatialItem> = items
        .iter()
        .step_by(step)
        .take(PROBE_OPS)
        .copied()
        .collect();
    let mut ok = true;
    trace::set_enabled(true);
    for (i, it) in picks.iter().enumerate() {
        let c = it.mbr.center();
        let fresh = SpatialItem::new(u64::MAX - i as u64, it.mbr);
        trace::set_op(1 + 4 * i as u32);
        ok &= trace::span(Layer::Op(OpKind::Point), || tree.point_query(c)).is_ok();
        trace::set_op(2 + 4 * i as u32);
        let window = Rect::centered_square(c, half);
        ok &= trace::span(Layer::Op(OpKind::Window), || tree.window_query(window)).is_ok();
        trace::set_op(3 + 4 * i as u32);
        ok &= trace::span(Layer::Op(OpKind::Insert), || tree.insert(fresh)).is_ok();
        trace::set_op(4 + 4 * i as u32);
        let gone = trace::span(Layer::Op(OpKind::Delete), || {
            tree.delete(fresh.id, &fresh.mbr)
        });
        ok &= matches!(gone, Ok(true));
    }
    trace::set_enabled(false);
    if !ok {
        return Err("probe operation failed".into());
    }
    Ok(Probe {
        spans: trace::take(),
        ops: report.requests + 4 * picks.len() as u64,
        requests: report.requests,
        rounds: report.rounds,
        authority_switches,
        p99_ticks: report.p99_ticks,
    })
}
