//! I/O scheduling: single-flight coalescing of duplicate page fetches.
//!
//! When several sessions pan over the same map tile, each one misses on
//! the same non-resident page at roughly the same moment. Without
//! coalescing, every miss performs its own store read — N sessions cost N
//! physical reads for one page. [`SingleFlight`] collapses them: the first
//! miss becomes the *leader* and performs the read; every concurrent miss
//! on the same page becomes a *follower* that blocks until the leader
//! publishes its result, then shares it. N concurrent misses cost one
//! store read.
//!
//! The latch is an ordinary facade [`Mutex`]: the leader locks the
//! flight's result slot *before* publishing the flight in the in-flight
//! map, so a follower that finds the flight can never observe an unfilled
//! slot — its `lock()` blocks until the leader has stored the outcome and
//! dropped the latch. No condition variable is needed, which keeps the
//! whole mechanism inside the surface the deterministic scheduler
//! (`--cfg asb_schedule`) models.
//!
//! Lock order: the in-flight map lock is never held while waiting on a
//! latch (followers drop it first), and the leader only re-locks the map
//! (to retire the flight) while holding a latch it already owns — the
//! latch is private to the flight, so no cycle is possible.

use crate::sync::{AtomicU64, Mutex, Ordering};
use crate::{Page, PageId, PageIdMap, Result, StorageError};
use std::sync::Arc;

/// One in-flight fetch. `result` doubles as the completion latch: the
/// leader holds it locked from before the flight is published until the
/// outcome is stored.
#[derive(Default)]
struct Flight {
    result: Mutex<Option<Result<Page>>>,
}

/// Counters describing how much duplicate I/O the scheduler absorbed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlightStats {
    /// Fetches that led a flight (performed, or at least were entitled to
    /// perform, the physical read).
    pub led: u64,
    /// Fetches that joined an existing flight and shared its result
    /// instead of issuing their own read.
    pub joined: u64,
}

/// How a [`SingleFlight::run`] call participated in a flight.
pub enum FlightOutcome<R> {
    /// This caller led: `R` is whatever its lead closure produced.
    Led(R),
    /// This caller joined a flight another thread was leading; the shared
    /// result is the page the leader published.
    Joined(Result<Page>),
}

/// Coalesces concurrent fetches of the same page into one store read.
///
/// The scheduler is deliberately policy-free: it does not know how to read
/// a page. The caller passes a *lead closure* that performs the miss path
/// (store read, buffer admission) and returns both its private outcome and
/// the page to publish to followers. Admission must happen inside the lead
/// closure — the flight is retired only after the closure returns, which
/// is what guarantees "N concurrent readers, exactly one store read": any
/// thread that misses after the flight retires finds the page resident.
pub struct SingleFlight {
    inflight: Mutex<PageIdMap<Arc<Flight>>>,
    led: AtomicU64,
    joined: AtomicU64,
}

impl Default for SingleFlight {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl SingleFlight {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(PageIdMap::default()),
            led: AtomicU64::new(0),
            joined: AtomicU64::new(0),
        }
    }

    /// Runs the miss path for `id`, coalescing with any concurrent miss on
    /// the same page.
    ///
    /// If no flight for `id` is in progress, `lead` runs and its `Result<
    /// Page>` half is published to every follower that arrived meanwhile.
    /// If a flight is already in progress, this call blocks until the
    /// leader finishes and returns the shared result without running
    /// `lead`.
    pub fn run<R>(&self, id: PageId, lead: impl FnOnce() -> (R, Result<Page>)) -> FlightOutcome<R> {
        let flight = Arc::new(Flight::default());
        let mut latch = {
            let mut map = self.inflight.lock();
            if let Some(existing) = map.get(&id) {
                let existing = Arc::clone(existing);
                drop(map);
                // Blocks until the leader stores the outcome and releases
                // the latch; the slot is always filled by then (the leader
                // held the latch before the flight became visible).
                let slot = existing.result.lock();
                let shared = match slot.as_ref() {
                    Some(outcome) => outcome.clone(),
                    // invariant: reachable only if the leader panicked
                    // mid-flight; surface it as a retryable fault rather
                    // than propagating the panic across threads.
                    None => Err(StorageError::TransientRead(id)),
                };
                // relaxed-ok: monotonic telemetry counter, read only after
                // the threads of interest have joined.
                self.joined.fetch_add(1, Ordering::Relaxed);
                return FlightOutcome::Joined(shared);
            }
            map.insert(id, Arc::clone(&flight));
            // Lock the latch while the map lock is still held: followers
            // can only discover the flight after this lock is ours.
            flight.result.lock()
        };
        // relaxed-ok: monotonic telemetry counter.
        self.led.fetch_add(1, Ordering::Relaxed);
        let (outcome, publish) = lead();
        // Retire the flight before releasing the latch: a late miss now
        // starts a fresh flight (the lead closure has already admitted the
        // page, so a fresh flight's residency re-check costs no read).
        self.inflight.lock().remove(&id);
        *latch = Some(publish);
        drop(latch);
        FlightOutcome::Led(outcome)
    }

    /// Snapshot of the led/joined counters.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            // relaxed-ok: telemetry snapshot; callers read it after the
            // accesses they care about have been joined.
            led: self.led.load(Ordering::Relaxed),
            joined: self.joined.load(Ordering::Relaxed),
        }
    }

    /// Number of flights currently in progress (for tests and probes).
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().len()
    }
}

impl std::fmt::Debug for SingleFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Page, PageMeta};
    use asb_geom::SpatialStats;
    use bytes::Bytes;

    fn page(raw: u64) -> Page {
        Page::new(
            PageId::new(raw),
            PageMeta::data(SpatialStats::EMPTY),
            Bytes::from(vec![raw as u8]),
        )
        .expect("page")
    }

    #[test]
    fn sole_caller_leads_and_retires_the_flight() {
        let sf = SingleFlight::new();
        let outcome = sf.run(PageId::new(1), || (42u32, Ok(page(1))));
        match outcome {
            FlightOutcome::Led(v) => assert_eq!(v, 42),
            FlightOutcome::Joined(_) => panic!("sole caller must lead"),
        }
        assert_eq!(sf.in_flight(), 0);
        assert_eq!(sf.stats(), FlightStats { led: 1, joined: 0 });
    }

    #[test]
    fn concurrent_misses_share_one_lead() {
        let sf = Arc::new(SingleFlight::new());
        let reads = Arc::new(AtomicU64::new(0));
        let id = PageId::new(9);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let reads = Arc::clone(&reads);
                crate::sync::thread::spawn(move || {
                    let outcome = sf.run(id, || {
                        // Simulated store read, slow enough that the other
                        // threads pile onto the flight or probe after it
                        // retires — either way the counter bounds leads.
                        reads.fetch_add(1, Ordering::SeqCst);
                        crate::sync::thread::sleep_ms(20);
                        ((), Ok(page(9)))
                    });
                    match outcome {
                        FlightOutcome::Led(()) => Ok(page(9)),
                        FlightOutcome::Joined(shared) => shared,
                    }
                })
            })
            .collect();
        for h in handles {
            let got = h.join().expect("shared result is Ok");
            assert_eq!(got.id, id);
        }
        let stats = sf.stats();
        assert_eq!(stats.led + stats.joined, 8);
        assert_eq!(stats.led, reads.load(Ordering::SeqCst));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn errors_are_shared_with_followers() {
        let sf = SingleFlight::new();
        let id = PageId::new(3);
        // Lead a failing flight; with no concurrency the caller simply
        // observes its own outcome and the flight retires.
        let outcome = sf.run(id, || {
            (
                Err::<Page, _>(StorageError::DeviceFailed(id)),
                Err(StorageError::DeviceFailed(id)),
            )
        });
        match outcome {
            FlightOutcome::Led(r) => assert_eq!(r, Err(StorageError::DeviceFailed(id))),
            FlightOutcome::Joined(_) => panic!("sole caller must lead"),
        }
        assert_eq!(sf.in_flight(), 0);
    }
}
