//! Exhaustive crash-recovery verification over recorded traces.
//!
//! A [`Trace`] replays deterministically, and the crash-injection layer
//! ([`CrashClock`]) makes every distinguishable crash of a deterministic
//! run enumerable: durable state only changes at store writes and WAL
//! appends, so killing at each such event index — in both
//! [`CrashMode::Clean`] and [`CrashMode::Torn`] — covers every crash a
//! real process could exhibit. This module turns that into an oracle:
//!
//! 1. **Golden run** — the trace replays once, crash-free, through a
//!    WAL-attached write-back buffer against a *recording* clock. A
//!    seed-derived subset of reads is followed by a buffered update with a
//!    deterministic payload, so the read-only trace becomes a read/write
//!    workload. The clock logs every durable event; image-append events
//!    align one-to-one with the logical updates.
//! 2. **Sweep** — for every event index `i` and both crash modes, the
//!    identical workload runs against a clock armed to kill at `i`. The
//!    surviving disk and WAL are handed to recovery.
//! 3. **Oracle** — a logical update is *committed* iff its WAL image
//!    append completed durably, i.e. its event index is `< i`. The
//!    recovered store must equal, bit for bit, the initial disk overlaid
//!    with the last committed update of each page — and every page must
//!    pass its checksum (torn store writes repaired, torn WAL tails
//!    discarded rather than replayed).
//!
//! Any divergence is reported with its crash point and, when an artifact
//! directory is configured, dumped as the trace plus the surviving WAL
//! bytes for offline debugging.

use asb_core::{BufferManager, PolicyKind};
use asb_storage::{
    splitmix64, AccessContext, CrashClock, CrashEvent, CrashMode, CrashOp, CrashPlan,
    CrashableStore, DiskManager, Page, PageId, PageMeta, QueryId, Result, SharedWal, StorageError,
    Wal, WalConfig,
};
use bytes::Bytes;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::Trace;

/// Configuration of a crash-recovery sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashConfig {
    /// Replacement policy of the write-back buffer under test.
    pub policy: PolicyKind,
    /// Buffer capacity in pages.
    pub capacity: usize,
    /// Issue a buffered update after roughly one in `update_every` reads
    /// (seed-derived selection; must be ≥ 1).
    pub update_every: u64,
    /// Auto-checkpoint the WAL every this many image appends.
    pub checkpoint_interval: u64,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: usize,
    /// Seed deriving which accesses update and what they write.
    pub seed: u64,
    /// Replay only the first N accesses of the trace (`None` = all) —
    /// debug-profile sweeps are quadratic in the event count.
    pub max_accesses: Option<usize>,
    /// Dump the trace and surviving WAL here when a sweep diverges.
    pub artifact_dir: Option<PathBuf>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            policy: PolicyKind::Asb,
            capacity: 12,
            update_every: 4,
            checkpoint_interval: 16,
            segment_bytes: 16 * 1024,
            seed: 1,
            max_accesses: None,
            artifact_dir: None,
        }
    }
}

/// One crash point whose recovered state did not match the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashDivergence {
    /// Event index the process was killed at.
    pub kill_at: u64,
    /// Whether the interrupted event was dropped or half-applied.
    pub mode: CrashMode,
    /// What recovery got wrong.
    pub detail: String,
}

impl std::fmt::Display for CrashDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kill@{} ({:?}): {}",
            self.kill_at, self.mode, self.detail
        )
    }
}

/// Outcome of sweeping every crash point of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashSweepReport {
    /// Durable events of the golden run (= crash points per mode).
    pub crash_points: u64,
    /// Crash runs executed (both modes).
    pub sweeps_run: u64,
    /// Logical updates the workload issued in the golden run.
    pub updates: u64,
    /// Checkpoints the golden run appended.
    pub checkpoints: u64,
    /// Sweeps whose recovery detected and discarded a torn WAL tail.
    pub torn_tails_dropped: u64,
    /// Total image records redone across all recoveries.
    pub images_redone: u64,
    /// Crash points where the recovered store differed from the oracle
    /// (empty = the crash-consistency property holds).
    pub divergences: Vec<CrashDivergence>,
}

impl CrashSweepReport {
    /// Whether every crash point recovered to exactly the committed
    /// prefix.
    pub fn holds(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Whether access `i` of the workload issues an update.
fn updates_at(i: u64, config: &CrashConfig) -> bool {
    splitmix64(i ^ config.seed).is_multiple_of(config.update_every.max(1))
}

/// The deterministic 16-byte payload update `i` writes to page `raw`.
fn update_payload(raw: u64, i: u64, seed: u64) -> Bytes {
    let a = splitmix64(raw ^ seed.rotate_left(17));
    let b = splitmix64(i.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ seed);
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&a.to_le_bytes());
    v.extend_from_slice(&b.to_le_bytes());
    Bytes::from(v)
}

/// An error that means "the simulated process is dead", possibly wrapped
/// by retry or flush aggregation.
fn is_crash(e: &StorageError) -> bool {
    match e {
        StorageError::Crashed => true,
        StorageError::RetriesExhausted { last, .. } => is_crash(last),
        StorageError::FlushIncomplete { failures } => failures.iter().any(|(_, e)| is_crash(e)),
        _ => false,
    }
}

struct WorkloadOutcome {
    /// The surviving disk image (all that remains after a crash).
    disk: DiskManager,
    /// The surviving write-ahead log.
    wal: SharedWal,
    /// Logical updates issued, in order, as `(page raw id, payload)`.
    updates: Vec<(u64, Bytes)>,
    /// Whether the injected kill fired before the workload finished.
    crashed: bool,
    /// Checkpoints appended (golden-run bookkeeping).
    checkpoints: u64,
}

/// Replays the seed-derived read/update workload of `trace` through a
/// WAL-attached write-back buffer whose durable events are governed by
/// `clock`. Ends with a flush and a final checkpoint when the process
/// survives; stops at the injected kill otherwise.
fn run_workload(
    trace: &Trace,
    config: &CrashConfig,
    clock: Arc<CrashClock>,
) -> Result<WorkloadOutcome> {
    let meta_of: HashMap<u64, PageMeta> = trace.pages.iter().copied().collect();
    let mut store = CrashableStore::new(trace.build_disk()?, clock.clone());
    let wal = Wal::shared_with_clock(
        WalConfig {
            segment_bytes: config.segment_bytes,
        },
        clock,
    );
    let mut mgr = BufferManager::with_policy(config.policy, config.capacity);
    mgr.attach_wal(wal.clone());
    mgr.set_checkpoint_interval(Some(config.checkpoint_interval));
    let mut updates = Vec::new();
    let mut crashed = false;
    let limit = config.max_accesses.unwrap_or(trace.accesses.len());
    'workload: for (i, &(p, q)) in trace.accesses.iter().take(limit).enumerate() {
        let id = PageId::new(p);
        let ctx = AccessContext::query(QueryId::new(q));
        match mgr.fetch(&mut store, id, ctx) {
            Ok(_) => {}
            Err(e) if is_crash(&e) => {
                crashed = true;
                break 'workload;
            }
            Err(e) => return Err(e),
        }
        if updates_at(i as u64, config) {
            let payload = update_payload(p, i as u64, config.seed);
            let page = Page::new(id, meta_of[&p], payload.clone())?;
            match mgr.write_buffered(&mut store, page) {
                Ok(()) => updates.push((p, payload)),
                Err(e) if is_crash(&e) => {
                    crashed = true;
                    break 'workload;
                }
                Err(e) => return Err(e),
            }
        }
    }
    if !crashed {
        // Graceful shutdown: write everything back, then checkpoint so a
        // restart has an empty redo window.
        let end: Result<()> = mgr.flush(&mut store).and_then(|()| {
            mgr.checkpoint()?;
            Ok(())
        });
        match end {
            Ok(()) => {}
            Err(e) if is_crash(&e) => crashed = true,
            Err(e) => return Err(e),
        }
    }
    Ok(WorkloadOutcome {
        disk: store.into_inner(),
        wal,
        updates,
        crashed,
        checkpoints: mgr.stats().checkpoints,
    })
}

/// The oracle: expected `(page raw id → payload)` after recovering from a
/// kill at `kill_at`, given the golden run's event log and update list.
/// Committed updates are exactly the image appends with event index
/// `< kill_at`; each page ends at its last committed update, or its
/// initial [`Trace::build_disk`] payload if it was never updated.
fn expected_state(
    trace: &Trace,
    events: &[CrashEvent],
    updates: &[(u64, Bytes)],
    kill_at: u64,
) -> HashMap<u64, Bytes> {
    let mut state: HashMap<u64, Bytes> = trace
        .pages
        .iter()
        .map(|&(raw, _)| (raw, Bytes::from(raw.to_le_bytes().to_vec())))
        .collect();
    let committed = events
        .iter()
        .filter(|e| matches!(e.op, CrashOp::WalAppend { page: Some(_) }))
        .take_while(|e| e.index < kill_at);
    for (k, _event) in committed.enumerate() {
        let (raw, payload) = &updates[k];
        state.insert(*raw, payload.clone());
    }
    state
}

/// Runs one crash point end-to-end: workload under an armed clock, then
/// recovery, then comparison against `expected`. Returns the recovery
/// report plus the divergence, if any, and the surviving WAL bytes for
/// artifact dumps.
#[allow(clippy::type_complexity)]
fn run_crash_point(
    trace: &Trace,
    config: &CrashConfig,
    plan: CrashPlan,
    expected: &HashMap<u64, Bytes>,
    expect_torn_tail: bool,
) -> Result<(asb_storage::RecoveryReport, Option<String>, Vec<u8>)> {
    let out = run_workload(trace, config, CrashClock::with_plan(plan))?;
    if !out.crashed {
        return Ok((
            asb_storage::RecoveryReport::default(),
            Some("the armed kill never fired".to_string()),
            Vec::new(),
        ));
    }
    let mut disk = out.disk;
    let wal_bytes = out.wal.lock().dump_bytes();
    let report = out.wal.lock().recover_into(&mut disk)?;
    if expect_torn_tail && !report.torn_tail_dropped {
        return Ok((
            report,
            Some("a torn WAL append left no detected torn tail".to_string()),
            wal_bytes,
        ));
    }
    for (&raw, want) in expected {
        let page = match disk.peek(PageId::new(raw)) {
            Ok(p) => p,
            Err(e) => {
                return Ok((
                    report,
                    Some(format!("page {raw} unreadable after recovery: {e}")),
                    wal_bytes,
                ))
            }
        };
        if !page.verify_checksum() {
            return Ok((
                report,
                Some(format!("page {raw} fails its checksum after recovery")),
                wal_bytes,
            ));
        }
        if page.payload != *want {
            return Ok((
                report,
                Some(format!(
                    "page {raw}: got {:02x?}, committed prefix says {:02x?}",
                    page.payload.as_ref(),
                    want.as_ref()
                )),
                wal_bytes,
            ));
        }
    }
    Ok((report, None, wal_bytes))
}

/// Sweeps every crash point of `trace` in both crash modes and verifies
/// that recovery always reproduces the committed prefix of the crash-free
/// golden run. See the module docs for the model.
pub fn crash_sweep(trace: &Trace, config: &CrashConfig) -> Result<CrashSweepReport> {
    let clock = CrashClock::recording();
    let golden = run_workload(trace, config, clock.clone())?;
    assert!(!golden.crashed, "a recording clock never kills");
    let events = clock.events();
    let image_events: Vec<&CrashEvent> = events
        .iter()
        .filter(|e| matches!(e.op, CrashOp::WalAppend { page: Some(_) }))
        .collect();
    assert_eq!(
        image_events.len(),
        golden.updates.len(),
        "every logical update must log exactly one image"
    );
    for (event, (raw, _)) in image_events.iter().zip(&golden.updates) {
        let CrashOp::WalAppend { page: Some(id) } = event.op else {
            unreachable!("filtered to image appends");
        };
        assert_eq!(id.raw(), *raw, "event order must match update order");
    }

    let mut report = CrashSweepReport {
        crash_points: events.len() as u64,
        sweeps_run: 0,
        updates: golden.updates.len() as u64,
        checkpoints: golden.checkpoints,
        torn_tails_dropped: 0,
        images_redone: 0,
        divergences: Vec::new(),
    };
    for event in &events {
        for mode in [CrashMode::Clean, CrashMode::Torn] {
            let plan = CrashPlan {
                kill_at: event.index,
                mode,
            };
            let expected = expected_state(trace, &events, &golden.updates, event.index);
            let expect_torn_tail =
                mode == CrashMode::Torn && matches!(event.op, CrashOp::WalAppend { .. });
            let (rec, divergence, wal_bytes) =
                run_crash_point(trace, config, plan, &expected, expect_torn_tail)?;
            report.sweeps_run += 1;
            report.images_redone += rec.images_redone;
            if rec.torn_tail_dropped {
                report.torn_tails_dropped += 1;
            }
            if let Some(detail) = divergence {
                let d = CrashDivergence {
                    kill_at: event.index,
                    mode,
                    detail,
                };
                if let Some(dir) = &config.artifact_dir {
                    dump_artifacts(dir, trace, &d, &wal_bytes);
                }
                report.divergences.push(d);
            }
        }
    }
    Ok(report)
}

/// Runs the golden workload once more under a recording clock and returns
/// the durable-event log. Replays are bit-for-bit deterministic, so this
/// equals the event sequence of any other crash-free run.
#[cfg(test)]
fn golden_events(trace: &Trace, config: &CrashConfig) -> Result<Vec<CrashEvent>> {
    let clock = CrashClock::recording();
    let out = run_workload(trace, config, clock.clone())?;
    debug_assert!(!out.crashed);
    Ok(clock.events())
}

/// Writes the diverging trace and surviving WAL segment bytes into `dir`
/// (best effort — artifact dumps never mask the divergence itself).
fn dump_artifacts(dir: &Path, trace: &Trace, d: &CrashDivergence, wal_bytes: &[u8]) {
    let tag = format!(
        "kill{}-{}",
        d.kill_at,
        match d.mode {
            CrashMode::Clean => "clean",
            CrashMode::Torn => "torn",
        }
    );
    let _ = std::fs::create_dir_all(dir);
    let _ = trace.save(dir.join(format!("diverging-{tag}.trace")));
    let _ = std::fs::write(dir.join(format!("wal-{tag}.bin")), wal_bytes);
    let _ = std::fs::write(
        dir.join(format!("divergence-{tag}.txt")),
        format!("{d}\ntrace: {}\n", trace.label),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_workload::{DatasetKind, QuerySetSpec, Scale};

    fn tiny_trace() -> Trace {
        Trace::record(
            DatasetKind::Mainland,
            Scale::Tiny,
            7,
            QuerySetSpec::uniform_windows(33),
            30,
        )
        .unwrap()
    }

    fn small_config() -> CrashConfig {
        CrashConfig {
            capacity: 6,
            update_every: 3,
            checkpoint_interval: 8,
            max_accesses: Some(60),
            ..CrashConfig::default()
        }
    }

    #[test]
    fn golden_run_is_deterministic() {
        let t = tiny_trace();
        let config = small_config();
        let a = golden_events(&t, &config).unwrap();
        let b = golden_events(&t, &config).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "the workload must produce durable events");
    }

    #[test]
    fn update_selection_and_payloads_are_seed_stable() {
        let config = small_config();
        let hits: Vec<u64> = (0..100).filter(|&i| updates_at(i, &config)).collect();
        assert!(!hits.is_empty());
        assert_eq!(
            update_payload(5, 9, config.seed),
            update_payload(5, 9, config.seed)
        );
        assert_ne!(
            update_payload(5, 9, config.seed),
            update_payload(5, 9, config.seed + 1)
        );
    }

    #[test]
    fn full_sweep_of_a_small_prefix_holds() {
        let t = tiny_trace();
        let report = crash_sweep(&t, &small_config()).unwrap();
        assert!(
            report.holds(),
            "divergences: {:?}",
            &report.divergences[..report.divergences.len().min(5)]
        );
        assert!(report.crash_points > 0);
        assert_eq!(report.sweeps_run, report.crash_points * 2);
        assert!(report.updates > 0);
        assert!(
            report.torn_tails_dropped > 0,
            "torn WAL appends must be swept and detected"
        );
    }

    #[test]
    fn oracle_tracks_the_committed_prefix() {
        let t = tiny_trace();
        let config = small_config();
        let events = golden_events(&t, &config).unwrap();
        let golden = run_workload(&t, &config, CrashClock::recording()).unwrap();
        // Before any event: every page holds its initial payload.
        let initial = expected_state(&t, &events, &golden.updates, 0);
        for &(raw, _) in &t.pages {
            assert_eq!(initial[&raw].as_ref(), raw.to_le_bytes());
        }
        // After all events: every updated page holds its last update.
        let last = events.last().unwrap().index + 1;
        let fin = expected_state(&t, &events, &golden.updates, last);
        let mut want: HashMap<u64, Bytes> = HashMap::new();
        for (raw, payload) in &golden.updates {
            want.insert(*raw, payload.clone());
        }
        for (raw, payload) in want {
            assert_eq!(fin[&raw], payload);
        }
    }
}
