//! # asb-storage — page and simulated-disk substrate
//!
//! The EDBT 2002 paper measures page-replacement policies by the number of
//! disk accesses R\*-tree queries cause. This crate provides the substrate
//! those measurements run on:
//!
//! * [`Page`] — a fixed-size page ([`PAGE_SIZE`] = 2048 bytes) carrying a
//!   payload plus [`PageMeta`]: the page type (directory / data / object),
//!   its level in the index, and the precomputed
//!   [`SpatialStats`](asb_geom::SpatialStats) the spatial replacement
//!   policies evaluate. The page geometry reproduces the paper's fan-outs:
//!   with an 8-byte header, 40-byte directory entries give 51 entries per
//!   directory page and 48-byte data entries give 42 entries per data page.
//! * [`PageStore`] — the read/write/allocate interface. Implemented by
//!   [`DiskManager`] (the simulated disk) and, in `asb-core`, by the buffer
//!   manager, so buffers stack transparently between an index and the disk.
//! * [`ConcurrentPageStore`] — the shared-reference read path on top of
//!   `PageStore`: reads through `&self` with interior-mutable [`IoStats`],
//!   which is what lets the sharded buffer pool in `asb-core` serve misses
//!   from several threads in parallel.
//! * [`DiskManager`] — an in-memory "disk" that counts physical reads and
//!   writes and distinguishes random from sequential accesses
//!   ([`IoStats`]), including a simulated-time model (10 ms per random
//!   access, the figure the paper quotes for year-2002 hard disks).
//! * [`AccessContext`] / [`QueryId`] — tags every read with the query that
//!   issued it; LRU-K uses this to detect *correlated* references ("two page
//!   accesses are regarded as correlated if they belong to the same query").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
mod disk;
mod error;
mod fault;
mod objects;
mod page;
mod recording;
mod retry;
mod scheduler;
mod store;
pub mod sync;
mod wal;

pub use crash::{
    torn_page, CrashClock, CrashEvent, CrashMode, CrashOp, CrashPlan, CrashableStore, WriteFate,
};
pub use disk::{DiskManager, DiskProfile, IoStats};
pub use error::{PageError, StorageError};
pub use fault::{FaultConfig, FaultStats, FaultyStore};
pub use objects::{decode_object_page, ObjectRecord, ObjectStore};
pub use page::{
    page_checksum, splitmix64, Page, PageId, PageIdBuildHasher, PageIdHasher, PageIdMap, PageMeta,
    PageType, PAGE_HEADER_SIZE, PAGE_SIZE,
};
pub use recording::RecordingStore;
pub use retry::RetryPolicy;
pub use scheduler::{FlightOutcome, FlightStats, SingleFlight};
pub use store::{AccessContext, ConcurrentPageStore, PageStore, QueryId};
pub use wal::{Lsn, RecoveryReport, SharedWal, Wal, WalConfig, WalRecord, WalStats};

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, StorageError>;
