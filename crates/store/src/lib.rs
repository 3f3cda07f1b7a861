//! Crash-safe, append-only, content-addressed storage for PICBench-rs.
//!
//! This crate is a generic byte-level key/value log: it knows nothing
//! about netlists, verdicts or campaigns. `picbench-core` layers typed
//! codecs on top (see `picbench_core::persist`) and uses it as the disk
//! tier under the evaluation cache and as the campaign cell journal.
//!
//! # Segment format (version 1)
//!
//! A store is a log of numbered segment files in one directory
//! (`seg-000000.picstore`, `seg-000001.picstore`, ...). The file prefix
//! (`seg` by default) names the log, so several logs can share a
//! directory: `picbench-core` keeps its journal in `seg-*` and its cache
//! in `cache-*`. Each segment is:
//!
//! ```text
//! header:  "PICSTOR1" (8 bytes) | version u32 LE (= 1)
//! record*: len u32 LE           -- payload length (kind..value)
//!          kind u8              -- record namespace; 0 is reserved
//!          key_len u32 LE
//!          key  [u8; key_len]
//!          value [u8; len - 5 - key_len]
//!          checksum u64 LE      -- FNV-1a over (len bytes ++ payload)
//! ```
//!
//! The last record of a *sealed* (rotated) segment is a footer
//! (`kind = 0`, empty key) whose value is the record count (`u64 LE`)
//! followed by the cumulative digest of every record checksum in write
//! order. Only the newest segment accepts appends; older segments are
//! immutable.
//!
//! # Invariants
//!
//! 1. **Append-only.** Bytes in a segment are never rewritten in place;
//!    an update appends a new record and last-write-wins at read time.
//!    The only mutation is truncating a torn tail off the *active*
//!    segment during recovery.
//! 2. **Checksummed.** Every record carries an FNV-1a checksum over its
//!    length prefix and payload; a record is only trusted if it
//!    verifies. Sealed segments additionally carry a footer digest over
//!    all record checksums.
//! 3. **Durability barrier.** [`Store::sync`] appends any buffered
//!    records and fsyncs the active segment. Records put before a
//!    completed `sync` survive any crash; records after the last `sync`
//!    may be lost (and then recompute). A store opted into
//!    [`Store::with_write_buffer`] keeps records in process memory until
//!    a batch fills, so even a process crash loses the records put since
//!    its last batch. It syncs only on `sync`, rotation and drop, and
//!    fsyncs each new segment's header at once, so a crash never leaves
//!    that segment headerless.
//!    [`SharedStore::sync_to`] is the same barrier for a store shared
//!    between threads: it fsyncs outside the index lock, and concurrent
//!    barriers share one fsync (group commit on a durable-sequence
//!    watermark).
//! 4. **Recovery never panics.** Opening a store classifies damage
//!    instead of failing:
//!    - a *torn tail* (incomplete frame at the end of the active
//!      segment — a crash mid-append) is truncated away;
//!    - a *corrupt record* (checksum mismatch with intact framing — a
//!      bit flip) is quarantined and the scan continues at the next
//!      frame;
//!    - an *implausible length prefix* means framing is lost: the rest
//!      of that segment is abandoned;
//!    - a segment with a bad header is quarantined whole.
//!
//!    Everything quarantined simply recomputes on demand; corruption
//!    costs time, never correctness.
//!
//! # Fault injection
//!
//! All IO flows through the [`StoreIo`]/[`SegmentFile`] traits.
//! [`FaultyIo`] decorates any implementation with a deterministic
//! [`FaultPlan`] — short writes, scheduled `io::Error`s and read-time
//! bit flips — and [`PageCacheIo`] models a power cut that drops every
//! unsynced byte, so every recovery path above is exercised in tests
//! without real power cuts.

mod io;
mod segment;
mod store;

pub use io::{FaultPlan, FaultyIo, FileIo, PageCacheIo, SegmentFile, StoreIo};
pub use segment::{fnv1a64, scan_segment, xorshift64, ScannedRecord, SegmentScan, KIND_FOOTER};
pub use store::{
    RecoveryReport, SharedStore, Snapshot, Store, DEFAULT_MAX_SEGMENT_BYTES, SEGMENT_PREFIX,
};
