//! In-memory span recorder and the arithmetic the report is built from.
//!
//! The benchmark is single-threaded, so the recorder is a thread-local:
//! a span is opened around a call into one layer, its parent is whatever
//! span was open when it started, and every span carries the index of the
//! operation that caused it. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// What a workload operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Point,
    Window,
    Insert,
    Delete,
    Serve,
}

/// The layer boundary a span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A call into the tree (`RTree`) or the serve engine (`serve`).
    Op(OpKind),
    /// A call into the buffer pool (`BufferPool` / pool `PageStore`).
    Pool,
    /// A page read from the store.
    StoreRead,
    /// A page write, allocation or free on the store.
    StoreWrite,
}

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the operation the span belongs to.
    pub op: u32,
    pub layer: Layer,
    /// Index (into the same span list) of the enclosing span.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        op: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Sets the operation index new spans are tagged with.
pub fn set_op(op: u32) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Runs `f` inside a span of `layer` when recording is on.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let span = Span {
            op: r.op,
            layer,
            parent: r.open.last().copied(),
            start_ns: r.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        r.spans.push(span);
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            r.spans[idx as usize].end_ns = now;
            r.open.pop();
        });
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Nearest-rank `p`-th percentile (`p` in `[0, 100]`) of sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder reported for tails, as `(label, num, den)`:
/// the `num/den` quantile.
const LADDER: [(&str, u64, u64); 5] = [
    ("p50", 1, 2),
    ("p90", 9, 10),
    ("p99", 99, 100),
    ("p99.9", 999, 1000),
    ("p99.99", 9999, 10000),
];

/// The highest ladder percentile that has at least ten samples beyond it
/// among `n` samples, as `(label, percent)`; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<(&'static str, f64)> {
    let n = n as u64;
    LADDER
        .iter()
        .rev()
        .find(|&&(_, num, den)| n * (den - num) / den >= 10)
        .map(|&(label, num, den)| (label, 100.0 * num as f64 / den as f64))
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: Layer, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_self_times_sum_to_the_root() {
        // op [0,100) ⊃ pool [10,60) ⊃ store [20,50); op ⊃ pool [70,90).
        let spans = [
            sp(Layer::Op(OpKind::Window), None, 0, 100),
            sp(Layer::Pool, Some(0), 10, 60),
            sp(Layer::StoreRead, Some(1), 20, 50),
            sp(Layer::Pool, Some(0), 70, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![30, 20, 30, 20]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration());
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children [10,40) and [30,70) overlap on [30,40); [90,120) runs
        // past the parent's end and is clipped to [90,100).
        let spans = [
            sp(Layer::Pool, None, 0, 100),
            sp(Layer::StoreRead, Some(0), 10, 40),
            sp(Layer::StoreRead, Some(0), 30, 70),
            sp(Layer::StoreWrite, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn contained_and_identical_children() {
        let spans = [
            sp(Layer::Pool, None, 0, 50),
            sp(Layer::StoreRead, Some(0), 5, 45),
            sp(Layer::StoreRead, Some(0), 10, 20),
            sp(Layer::StoreRead, Some(0), 5, 45),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_tags_spans() {
        set_enabled(true);
        set_op(7);
        span(Layer::Op(OpKind::Point), || {
            span(Layer::Pool, || span(Layer::StoreRead, || ()));
        });
        set_enabled(false);
        span(Layer::Pool, || ());
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(("p50", 50.0)));
        assert_eq!(tail_percentile(99), Some(("p50", 50.0)));
        assert_eq!(tail_percentile(100), Some(("p90", 90.0)));
        assert_eq!(tail_percentile(999), Some(("p90", 90.0)));
        assert_eq!(tail_percentile(1000), Some(("p99", 99.0)));
        assert_eq!(tail_percentile(10_000), Some(("p99.9", 99.9)));
        assert_eq!(tail_percentile(99_999), Some(("p99.9", 99.9)));
        assert_eq!(tail_percentile(100_000), Some(("p99.99", 99.99)));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[5], 99.0), 5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
