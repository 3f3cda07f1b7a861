//! Typed persistence over the crash-safe store: the disk tier under
//! [`EvalCache`](crate::EvalCache) and the campaign cell journal.
//!
//! `picbench-store` is a byte-level key/value log; this module owns the
//! typed encode/decode for the things PICBench persists:
//!
//! * **verdicts** ([`EvalReport`] keyed by response-text digest) — the
//!   only thing a warm start reads back; sweeps stay in memory,
//! * **campaign cells** ([`ProblemTally`] keyed by campaign fingerprint
//!   and cell id — the journal resumable campaigns replay), plus the
//!   shard leases, statistics and marks around them.
//!
//! [`EvalStore`] keeps them in two logs in one directory. The journal
//! (`seg-*` segments) takes the cells and their companions and is
//! fsynced at every cell barrier; a cell whose
//! [`EvalStore::record_cell`] returned `true` survives any crash. The
//! cache (`cache-*` segments) takes verdicts. It is
//! buffered, and its bytes reach the disk on their own schedule, never
//! inside a cell barrier: a crash may lose its tail, which only costs
//! recomputation.
//!
//! Decoding is defensive end to end: any malformed value decodes to
//! `None` and the entry recomputes. Corruption costs time, never
//! correctness — the same contract the store's recovery scan makes at
//! the byte level.

use crate::evaluate::{EvalReport, ResponseKey};
use crate::passk::ProblemTally;
use picbench_netlist::{FailureType, ValidationIssue};
use picbench_sim::ResponseComparison;
use picbench_store::{FileIo, RecoveryReport, SharedStore, Snapshot, Store, StoreIo};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Record kind of a whole-verdict entry (level 0).
pub const KIND_VERDICT: u8 = 1;
/// Retired record kind of the former finished-report cache level. Kept
/// reserved so the number is never reused; records of this kind left by
/// earlier builds are never read.
pub const KIND_REPORT: u8 = 2;
/// Retired record kind of the former persisted sweep outcomes. Kept
/// reserved so the number is never reused; records of this kind left by
/// earlier builds are never read.
pub const KIND_SIM: u8 = 3;
/// Record kind of a campaign cell-completion journal entry.
pub const KIND_CELL: u8 = 4;
/// Record kind of a shard worker's lease (claim + heartbeats).
pub const KIND_LEASE: u8 = 5;
/// Record kind of a shard generation's completion statistics.
pub const KIND_STATS: u8 = 6;
/// Record kind marking a cell as *inherited* from a prior generation
/// during a shard takeover. The merge uses these marks to tell a stale
/// generation's pre-fence records (inherited by a successor) from its
/// post-fence ones (quarantined).
pub const KIND_INHERIT: u8 = 7;
/// Record kind marking a remote journal append (keyed by campaign
/// fingerprint and record seq) as applied. The network coordinator
/// writes the marker *after* the records of a batch, so a batch whose
/// marker survived a crash is known to be fully applied and a
/// replayed delivery dedupes exactly.
pub const KIND_APPLIED: u8 = 8;

/// Sanity cap on decoded element counts; corrupt length fields beyond
/// this are rejected instead of allocated.
const MAX_DECODE_ELEMS: u64 = 1 << 20;

// ---------------------------------------------------------------------
// Byte-level encode/decode helpers
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    fn u8(&mut self) -> Option<u8> {
        let (&first, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(first)
    }

    fn u64(&mut self) -> Option<u64> {
        if self.bytes.len() < 8 {
            return None;
        }
        let (head, rest) = self.bytes.split_at(8);
        self.bytes = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn count(&mut self) -> Option<usize> {
        let n = self.u64()?;
        (n <= MAX_DECODE_ELEMS).then_some(n as usize)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.count()?;
        if self.bytes.len() < len {
            return None;
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        String::from_utf8(head.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.bytes.is_empty()
    }
}

// ---------------------------------------------------------------------
// Key encodings
// ---------------------------------------------------------------------

fn put_grid(out: &mut Vec<u8>, grid: &(u64, u64, usize)) {
    put_u64(out, grid.0);
    put_u64(out, grid.1);
    put_u64(out, grid.2 as u64);
}

/// Verdict keys carry the solver's SIMD tier token (`scalar`, `avx2`,
/// …), the golden's digest and the port spec. Older stores carry a
/// backend token (`port-elimination`, …) or a problem-id digest there
/// instead; such records never match a current key, so they are plain
/// misses — never served, never treated as damage.
pub(crate) fn encode_response_key(key: &ResponseKey) -> Vec<u8> {
    let (text, grid, simd, golden, (inputs, outputs), tolerance) = key;
    let mut out = Vec::with_capacity(80);
    put_u64(&mut out, *text);
    put_grid(&mut out, grid);
    put_str(&mut out, simd.token());
    put_u64(&mut out, *golden);
    put_u64(&mut out, *inputs as u64);
    put_u64(&mut out, *outputs as u64);
    put_u64(&mut out, *tolerance);
    out
}

fn encode_cell_key(fingerprint: u64, cell: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_u64(&mut out, fingerprint);
    put_u64(&mut out, cell);
    out
}

fn encode_shard_key(fingerprint: u64, shard: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_u64(&mut out, fingerprint);
    put_u64(&mut out, u64::from(shard));
    out
}

fn decode_cell_entry(fingerprint: u64, key: &[u8], value: &[u8]) -> Option<(u64, ProblemTally)> {
    let mut r = Reader::new(key);
    let (fp, cell) = (r.u64()?, r.u64()?);
    if fp != fingerprint || !r.done() {
        return None;
    }
    Some((cell, decode_tally(value)?))
}

// ---------------------------------------------------------------------
// Value encodings
// ---------------------------------------------------------------------

fn encode_report(report: &EvalReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match &report.syntax {
        Ok(()) => out.push(1),
        Err(issues) => {
            out.push(0);
            put_u64(&mut out, issues.len() as u64);
            for issue in issues {
                let index = FailureType::ALL
                    .iter()
                    .position(|f| *f == issue.failure)
                    .expect("FailureType::ALL is exhaustive");
                out.push(index as u8);
                put_str(&mut out, &issue.message);
            }
        }
    }
    out.push(match report.functional {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    });
    match &report.comparison {
        None => out.push(0),
        Some(cmp) => {
            out.push(1);
            out.push(u8::from(cmp.ports_match));
            out.push(u8::from(cmp.grids_match));
            put_u64(&mut out, cmp.max_power_diff.to_bits());
            put_u64(&mut out, cmp.rms_power_diff.to_bits());
        }
    }
    out
}

fn decode_report(bytes: &[u8]) -> Option<EvalReport> {
    let mut r = Reader::new(bytes);
    let syntax = match r.u8()? {
        1 => Ok(()),
        0 => {
            let n = r.count()?;
            // A corrupt count must not reserve more than the bytes left
            // could hold: an issue encodes to at least 9 bytes.
            let mut issues = Vec::with_capacity(n.min(r.bytes.len() / 9));
            for _ in 0..n {
                let failure = *FailureType::ALL.get(r.u8()? as usize)?;
                issues.push(ValidationIssue::new(failure, r.str()?));
            }
            Err(issues)
        }
        _ => return None,
    };
    let functional = match r.u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        _ => return None,
    };
    let comparison = match r.u8()? {
        0 => None,
        1 => Some(ResponseComparison {
            ports_match: r.u8()? == 1,
            grids_match: r.u8()? == 1,
            max_power_diff: r.f64()?,
            rms_power_diff: r.f64()?,
        }),
        _ => return None,
    };
    r.done().then_some(EvalReport {
        syntax,
        functional,
        comparison,
    })
}

fn encode_tally(tally: &ProblemTally) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    put_u64(&mut out, tally.n as u64);
    put_u64(&mut out, tally.syntax_passes as u64);
    put_u64(&mut out, tally.functional_passes as u64);
    out
}

fn decode_tally(bytes: &[u8]) -> Option<ProblemTally> {
    let mut r = Reader::new(bytes);
    let tally = ProblemTally {
        n: r.count()?,
        syntax_passes: r.count()?,
        functional_passes: r.count()?,
    };
    r.done().then_some(tally)
}

// ---------------------------------------------------------------------
// Shard leases and generation statistics
// ---------------------------------------------------------------------

/// A shard worker's liveness record: claimed once at startup, renewed
/// (with a monotonically increasing `seq`) at every cell boundary.
///
/// The supervisor judges liveness by watching `seq` advance against its
/// *own* clock — `stamp_ms` is informational (it comes from the worker's
/// clock, which may be skewed in a different process) and never enters
/// the expiry decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRecord {
    /// The lease generation the supervisor assigned this worker. A
    /// reassignment bumps the generation; journal writes from older
    /// generations are fenced off the merge.
    pub generation: u32,
    /// Random id of the worker process/thread holding the lease.
    pub worker: u64,
    /// Heartbeat sequence number; strictly increasing within a lease.
    pub seq: u64,
    /// Worker-local wall-clock stamp (ms since the Unix epoch) at the
    /// time of the heartbeat. Diagnostic only.
    pub stamp_ms: u64,
}

fn encode_lease(lease: &LeaseRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_u64(&mut out, u64::from(lease.generation));
    put_u64(&mut out, lease.worker);
    put_u64(&mut out, lease.seq);
    put_u64(&mut out, lease.stamp_ms);
    out
}

fn decode_lease(bytes: &[u8]) -> Option<LeaseRecord> {
    let mut r = Reader::new(bytes);
    let lease = LeaseRecord {
        generation: u32::try_from(r.u64()?).ok()?,
        worker: r.u64()?,
        seq: r.u64()?,
        stamp_ms: r.u64()?,
    };
    r.done().then_some(lease)
}

/// What a shard generation did, written by the worker when it finishes
/// its shard. Merges read these to report redundant-work ratios without
/// re-deriving them from cell timestamps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGenStats {
    /// Cells this generation inherited (re-journalled) from prior
    /// generations of the same shard.
    pub restored: u64,
    /// Cells this generation evaluated fresh.
    pub evaluated: u64,
}

fn encode_gen_stats(stats: &ShardGenStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_u64(&mut out, stats.restored);
    put_u64(&mut out, stats.evaluated);
    out
}

fn decode_gen_stats(bytes: &[u8]) -> Option<ShardGenStats> {
    let mut r = Reader::new(bytes);
    let stats = ShardGenStats {
        restored: r.u64()?,
        evaluated: r.u64()?,
    };
    r.done().then_some(stats)
}

/// Outcome of [`EvalStore::advance_lease`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseAdvance {
    /// The key was absent; this worker now holds the lease.
    Claimed,
    /// The previous record belonged to the same `(generation, worker)`
    /// with an older `seq`; the heartbeat landed.
    Renewed,
    /// The stored lease belongs to a different generation or worker (or
    /// a newer heartbeat) — the caller has been superseded and must stop.
    Fenced,
    /// The store is degraded; liveness can no longer be recorded.
    Degraded,
}

// ---------------------------------------------------------------------
// EvalStore
// ---------------------------------------------------------------------

/// File prefix of the journal log: the store's default, so a directory
/// written before the cache had a log of its own opens as a journal.
const JOURNAL_PREFIX: &str = picbench_store::SEGMENT_PREFIX;
/// File prefix of the cache log.
const CACHE_PREFIX: &str = "cache";
/// The cache log appends in batches of about this many bytes.
const CACHE_BUFFER_BYTES: usize = 256 << 10;

/// Whether a record kind belongs to the cache log (recomputable) rather
/// than the journal.
fn is_cache_kind(kind: u8) -> bool {
    kind == KIND_VERDICT
}

/// The durable tier: two crash-safe [`Store`] logs in one directory, with
/// the typed codecs above.
///
/// * The **journal** (`seg-NNNNNN.picstore`) holds cells, leases, shard
///   statistics, inherit marks and applied marks. Its records are tens
///   of bytes, and every [`EvalStore::sync`] barrier fsyncs it.
/// * The **cache** (`cache-NNNNNN.picstore`) holds verdicts. It appends
///   through an in-memory buffer and fsyncs only when a segment rotates
///   and when the store closes — never under a journal barrier. A crash may lose its tail; the lost entries recompute.
///
/// All write failures degrade instead of crash: the store flips into a
/// degraded state, further writes to either log become no-ops, and
/// [`EvalStore::degraded`] lets callers surface the condition once.
/// Reads keep working off whatever was recovered.
pub struct EvalStore {
    journal: SharedStore,
    cache: Mutex<Store>,
    recovery: RecoveryReport,
    degraded: AtomicBool,
    write_errors: AtomicU64,
    reads: AtomicU64,
    read_hits: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
}

/// Cumulative counter snapshot of an [`EvalStore`] — cheap atomic loads,
/// no lock-the-world (the same contract as
/// [`EvalCacheStats`](crate::EvalCacheStats)). Served by the server's
/// `GET /v1/stats` and printed by `campaign_bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStoreStats {
    /// Typed lookups issued against the store.
    pub reads: u64,
    /// Lookups that found a record.
    pub read_hits: u64,
    /// Typed records accepted for writing (attempted, not necessarily
    /// durable — see `write_errors`).
    pub writes: u64,
    /// Journal durability barriers that completed.
    pub syncs: u64,
    /// Writes or syncs that failed (the first one degrades the store).
    pub write_errors: u64,
    /// Whether the store is in degraded (read-only) mode.
    pub degraded: bool,
}

impl std::fmt::Debug for EvalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalStore")
            .field("recovery", &self.recovery)
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish()
    }
}

impl EvalStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates IO failures opening the directory; damage *inside* the
    /// store never fails an open (see [`EvalStore::recovery`]).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        Self::open_with_io(
            Box::new(FileIo::new(dir, JOURNAL_PREFIX)?),
            Box::new(FileIo::new(dir, CACHE_PREFIX)?),
        )
    }

    /// Opens the journal and the cache log over injectable IO layers (the
    /// fault-injection seam).
    ///
    /// # Errors
    ///
    /// Propagates IO failures from the initial segment scans.
    pub fn open_with_io(journal: Box<dyn StoreIo>, cache: Box<dyn StoreIo>) -> io::Result<Self> {
        let journal = Store::open_with_io(journal)?;
        let cache = Store::open_with_io(cache)?.with_write_buffer(CACHE_BUFFER_BYTES)?;
        Ok(EvalStore {
            recovery: *journal.recovery() + *cache.recovery(),
            journal: SharedStore::new(journal),
            cache: Mutex::new(cache),
            degraded: AtomicBool::new(false),
            write_errors: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            read_hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        })
    }

    /// What recovery found (and repaired) in both logs when this store
    /// opened, summed.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Whether a write failure has put the store into degraded
    /// (read-only) mode.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Number of writes that failed (the first one degrades the store).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Cumulative counter snapshot (reads/writes/syncs/errors) — atomic
    /// loads only, safe to poll from a stats endpoint at any rate.
    pub fn stats(&self) -> EvalStoreStats {
        EvalStoreStats {
            reads: self.reads.load(Ordering::Relaxed),
            read_hits: self.read_hits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            degraded: self.degraded(),
        }
    }

    fn fail(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// The log a record kind lives in, locked.
    fn log(&self, kind: u8) -> MutexGuard<'_, Store> {
        if is_cache_kind(kind) {
            self.cache.lock().expect("store poisoned")
        } else {
            self.journal.lock()
        }
    }

    /// Writes one record into its log. Returns that log's sequence number
    /// after the write — for a journal record, what a barrier must reach
    /// to cover it — or `None` when nothing was written.
    fn put(&self, kind: u8, key: &[u8], value: &[u8]) -> Option<u64> {
        if self.degraded() {
            return None;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        let result = {
            let mut store = self.log(kind);
            store.put(kind, key, value).map(|_| store.appended())
        };
        if result.is_err() {
            self.fail();
        }
        result.ok()
    }

    fn get(&self, kind: u8, key: &[u8]) -> Option<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let value = self.log(kind).get(kind, key).map(<[u8]>::to_vec);
        if value.is_some() {
            self.read_hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Makes the journal durable up to sequence number `seq`.
    fn sync_to(&self, seq: u64) -> bool {
        let durable = if self.degraded() {
            // A degraded store attempts no IO, but what an earlier
            // barrier covered stays durable.
            self.journal.is_durable(seq)
        } else if self.journal.sync_to(seq).is_err() {
            self.fail();
            false
        } else {
            true
        };
        if durable {
            self.syncs.fetch_add(1, Ordering::Relaxed);
        }
        durable
    }

    /// The journal's durability barrier: once it returns `true`, every
    /// cell, lease, shard statistic, inherit mark and applied mark
    /// written before the call survives a crash. Cache records
    /// (verdicts) are not covered; they are recomputable. Concurrent
    /// barriers share one fsync, which runs without blocking cache reads
    /// and writes. Returns `false` (and
    /// degrades) on failure, and `false` once the store is degraded.
    pub fn sync(&self) -> bool {
        if self.degraded() {
            return false;
        }
        let seq = self.journal.lock().appended();
        self.sync_to(seq)
    }

    pub(crate) fn get_verdict(&self, key: &ResponseKey) -> Option<EvalReport> {
        decode_report(&self.get(KIND_VERDICT, &encode_response_key(key))?)
    }

    pub(crate) fn put_verdict(&self, key: &ResponseKey, report: &EvalReport) {
        self.put(
            KIND_VERDICT,
            &encode_response_key(key),
            &encode_report(report),
        );
    }

    /// Journals one completed campaign cell under the campaign's
    /// fingerprint, then runs the journal barrier — the
    /// crash-consistency point resumable campaigns rely on. Returns
    /// whether this cell's record is durable. When it is, so is every
    /// journal record written before it (cells, leases, shard
    /// statistics, inherit and applied marks); cache records never are.
    pub fn record_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) -> bool {
        self.put(
            KIND_CELL,
            &encode_cell_key(fingerprint, cell),
            &encode_tally(tally),
        )
        .is_some_and(|seq| self.sync_to(seq))
    }

    /// Every durably journaled cell of the campaign with this
    /// fingerprint (unordered). Malformed entries are skipped.
    pub fn completed_cells(&self, fingerprint: u64) -> Vec<(u64, ProblemTally)> {
        let mut cells = Vec::new();
        self.journal.lock().for_each(KIND_CELL, |key, value| {
            if let Some(entry) = decode_cell_entry(fingerprint, key, value) {
                cells.push(entry);
            }
        });
        cells
    }

    /// Claims or renews a shard lease with compare-and-swap semantics:
    /// the write only lands when the stored record is absent (claim) or
    /// belongs to the same `(generation, worker)` with an older `seq`
    /// (renew). Anything else is [`LeaseAdvance::Fenced`] — the caller
    /// has been superseded by a takeover and must stop journalling.
    ///
    /// A successful claim is fsynced (so a takeover decision survives a
    /// supervisor crash); renewals ride the cell-boundary syncs of
    /// [`EvalStore::record_cell`].
    pub fn advance_lease(&self, fingerprint: u64, shard: u32, lease: &LeaseRecord) -> LeaseAdvance {
        if self.degraded() {
            return LeaseAdvance::Degraded;
        }
        let key = encode_shard_key(fingerprint, shard);
        let value = encode_lease(lease);
        self.writes.fetch_add(1, Ordering::Relaxed);
        let result = {
            let mut store = self.journal.lock();
            match store.get(KIND_LEASE, &key).map(<[u8]>::to_vec) {
                None => store
                    .compare_and_put(KIND_LEASE, &key, None, &value)
                    .map(|landed| {
                        if landed {
                            LeaseAdvance::Claimed
                        } else {
                            LeaseAdvance::Fenced
                        }
                    }),
                Some(current) => {
                    // A corrupt previous record never fences: the lease
                    // protocol recomputes liveness, it never trusts
                    // damage.
                    let fenced = decode_lease(&current).is_some_and(|prev| {
                        prev.generation != lease.generation
                            || prev.worker != lease.worker
                            || prev.seq >= lease.seq
                    });
                    if fenced {
                        Ok(LeaseAdvance::Fenced)
                    } else {
                        store
                            .compare_and_put(KIND_LEASE, &key, Some(&current), &value)
                            .map(|landed| {
                                if landed {
                                    LeaseAdvance::Renewed
                                } else {
                                    LeaseAdvance::Fenced
                                }
                            })
                    }
                }
            }
        };
        match result {
            Ok(outcome) => {
                if outcome == LeaseAdvance::Claimed && !self.sync() {
                    return LeaseAdvance::Degraded;
                }
                outcome
            }
            Err(_) => {
                self.fail();
                LeaseAdvance::Degraded
            }
        }
    }

    /// The last lease written for this shard, if any.
    pub fn read_lease(&self, fingerprint: u64, shard: u32) -> Option<LeaseRecord> {
        decode_lease(&self.get(KIND_LEASE, &encode_shard_key(fingerprint, shard))?)
    }

    /// Journals one cell *inherited* from a prior generation during a
    /// shard takeover: the cell record itself plus an inherit mark.
    /// Unsynced — callers sync once after the whole restore pass.
    pub fn record_inherited_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) {
        let key = encode_cell_key(fingerprint, cell);
        self.put(KIND_CELL, &key, &encode_tally(tally));
        self.put(KIND_INHERIT, &key, b"");
    }

    /// Journals a shard generation's completion statistics, then syncs.
    /// Returns whether the entry is durable.
    pub fn record_shard_stats(&self, fingerprint: u64, shard: u32, stats: &ShardGenStats) -> bool {
        self.put(
            KIND_STATS,
            &encode_shard_key(fingerprint, shard),
            &encode_gen_stats(stats),
        )
        .is_some_and(|seq| self.sync_to(seq))
    }

    /// Journals one completed campaign cell *without* syncing — the
    /// network coordinator applies a remote worker's batch record by
    /// record and issues one durability barrier per batch instead of
    /// one per cell.
    pub fn journal_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) {
        self.put(
            KIND_CELL,
            &encode_cell_key(fingerprint, cell),
            &encode_tally(tally),
        );
    }

    /// Marks a remote append batch (identified by its record `seq`) as
    /// applied. Written after the batch's records, unsynced — it rides
    /// the batch's own durability barrier.
    pub fn record_applied(&self, fingerprint: u64, seq: u64) {
        self.put(KIND_APPLIED, &encode_cell_key(fingerprint, seq), b"");
    }

    /// Every `(fingerprint, seq)` applied-marker pair in the journal —
    /// how a restarted coordinator rebuilds its exactly-once dedup set.
    pub fn applied_records(&self) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        self.journal.lock().for_each(KIND_APPLIED, |key, _| {
            let mut r = Reader::new(key);
            if let (Some(fp), Some(seq)) = (r.u64(), r.u64()) {
                if r.done() {
                    pairs.push((fp, seq));
                }
            }
        });
        pairs
    }
}

/// A read-only, point-in-time view of a shard journal directory with the
/// same typed accessors as [`EvalStore`].
///
/// Built on [`picbench_store::Snapshot`], so loading one never creates
/// files or truncates torn tails — the supervisor polls live worker
/// journals through this without disturbing the single writer. A missing
/// directory loads as an empty snapshot.
pub struct EvalSnapshot {
    snap: Snapshot,
}

impl std::fmt::Debug for EvalSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalSnapshot")
            .field("snapshot", &self.snap)
            .finish()
    }
}

impl EvalSnapshot {
    /// Loads a read-only view of the store directory as it is right now.
    ///
    /// # Errors
    ///
    /// Propagates IO failures reading existing segment files; a missing
    /// directory is an empty snapshot, not an error.
    pub fn load(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(EvalSnapshot {
            snap: Snapshot::load(dir, JOURNAL_PREFIX)?,
        })
    }

    /// What the scan classified (nothing was repaired).
    pub fn recovery(&self) -> &RecoveryReport {
        self.snap.recovery()
    }

    /// Every journaled cell of the campaign with this fingerprint that
    /// was visible at load time (unordered). Malformed entries are
    /// skipped.
    pub fn completed_cells(&self, fingerprint: u64) -> Vec<(u64, ProblemTally)> {
        let mut cells = Vec::new();
        self.snap.for_each(KIND_CELL, |key, value| {
            if let Some(entry) = decode_cell_entry(fingerprint, key, value) {
                cells.push(entry);
            }
        });
        cells
    }

    /// The last lease visible for this shard, if any.
    pub fn lease(&self, fingerprint: u64, shard: u32) -> Option<LeaseRecord> {
        decode_lease(
            self.snap
                .get(KIND_LEASE, &encode_shard_key(fingerprint, shard))?,
        )
    }

    /// The generation statistics for this shard, if the worker finished.
    pub fn shard_stats(&self, fingerprint: u64, shard: u32) -> Option<ShardGenStats> {
        decode_gen_stats(
            self.snap
                .get(KIND_STATS, &encode_shard_key(fingerprint, shard))?,
        )
    }

    /// Cell keys this generation marked as inherited from prior
    /// generations during its takeover restore pass. The merge unions
    /// these marks to separate a stale generation's pre-fence records
    /// (inherited by a successor) from its post-fence, quarantined ones.
    pub fn inherited_cells(&self, fingerprint: u64) -> Vec<u64> {
        let mut cells = Vec::new();
        self.snap.for_each(KIND_INHERIT, |key, _| {
            let mut r = Reader::new(key);
            if let (Some(fp), Some(cell)) = (r.u64(), r.u64()) {
                if fp == fingerprint && r.done() {
                    cells.push(cell);
                }
            }
        });
        cells
    }
}

/// Shared handle to an [`EvalStore`].
pub type SharedEvalStore = Arc<EvalStore>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{EvalCache, Evaluator, SimKey};
    use picbench_math::SimdLevel;

    /// The key layout earlier builds filed sweep outcomes and finished
    /// reports under: netlist digest, grid, SIMD tier token, port spec.
    fn old_sim_key(key: &SimKey) -> Vec<u8> {
        let (hash, grid, simd, spec) = key;
        let mut out = Vec::new();
        put_u64(&mut out, *hash);
        put_grid(&mut out, grid);
        put_str(&mut out, simd.token());
        put_u64(&mut out, spec.0 as u64);
        put_u64(&mut out, spec.1 as u64);
        out
    }

    /// Writes one raw record into the cache log of `dir`, as an earlier
    /// build would have.
    fn plant_cache_record(dir: &Path, kind: u8, key: &[u8], value: &[u8]) {
        let mut raw =
            Store::open_with_io(Box::new(FileIo::new(dir, CACHE_PREFIX).unwrap())).unwrap();
        raw.put(kind, key, value).unwrap();
        raw.sync().unwrap();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("picbench-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn report_roundtrips_bit_for_bit() {
        let reports = [
            EvalReport {
                syntax: Ok(()),
                functional: Some(true),
                comparison: Some(ResponseComparison {
                    ports_match: true,
                    grids_match: true,
                    max_power_diff: 1.25e-9,
                    rms_power_diff: 3.5e-10,
                }),
            },
            EvalReport {
                syntax: Ok(()),
                functional: Some(false),
                comparison: Some(ResponseComparison {
                    ports_match: false,
                    grids_match: true,
                    max_power_diff: f64::INFINITY,
                    rms_power_diff: f64::INFINITY,
                }),
            },
            EvalReport {
                syntax: Err(vec![
                    ValidationIssue::new(FailureType::WrongPort, "port I9 missing"),
                    ValidationIssue::new(FailureType::OtherSyntax, "no payload"),
                ]),
                functional: None,
                comparison: None,
            },
        ];
        for report in &reports {
            let decoded = decode_report(&encode_report(report)).unwrap();
            assert_eq!(format!("{report:?}"), format!("{decoded:?}"));
            assert_eq!(
                report.comparison.map(|c| c.max_power_diff.to_bits()),
                decoded.comparison.map(|c| c.max_power_diff.to_bits()),
            );
        }
    }

    #[test]
    fn truncated_or_corrupt_report_decodes_to_none() {
        let report = EvalReport {
            syntax: Err(vec![ValidationIssue::new(FailureType::WrongPort, "x")]),
            functional: None,
            comparison: None,
        };
        let bytes = encode_report(&report);
        for cut in 0..bytes.len() {
            assert!(decode_report(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 7;
        assert!(decode_report(&bad_tag).is_none());
        // A count of 2^20 issues with nothing after it reserves no room
        // for them before failing.
        let mut huge = vec![0];
        put_u64(&mut huge, MAX_DECODE_ELEMS);
        assert!(decode_report(&huge).is_none());
    }

    #[test]
    fn keys_of_different_simd_tiers_never_collide() {
        let key = |simd| encode_response_key(&(42, (1, 2, 17), simd, 7, (2, 2), 8));
        let tiers = [
            SimdLevel::Scalar,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
            SimdLevel::Neon,
        ];
        for (i, a) in tiers.iter().enumerate() {
            for b in &tiers[i + 1..] {
                assert_ne!(key(*a), key(*b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cell_journal_roundtrips_per_fingerprint() {
        let dir = temp_dir("cells");
        let store = EvalStore::open(&dir).unwrap();
        let tally = ProblemTally {
            n: 10,
            syntax_passes: 7,
            functional_passes: 4,
        };
        assert!(store.record_cell(111, 1, &tally));
        assert!(store.record_cell(111, 2, &tally));
        assert!(store.record_cell(222, 1, &tally));
        let mut cells = store.completed_cells(111);
        cells.sort_by_key(|(cell, _)| *cell);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0], (1, tally));
        assert_eq!(store.completed_cells(222).len(), 1);
        assert_eq!(store.completed_cells(333).len(), 0);
        drop(store);
        let store = EvalStore::open(&dir).unwrap();
        assert_eq!(
            store.completed_cells(111).len(),
            2,
            "journal survives reopen"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_advance_claims_renews_and_fences() {
        let dir = temp_dir("lease");
        let store = EvalStore::open(&dir).unwrap();
        let fp = 99;
        let gen1 = |worker, seq| LeaseRecord {
            generation: 1,
            worker,
            seq,
            stamp_ms: 1000 + seq,
        };
        // First claim wins, a rival claim on the same shard is fenced.
        assert_eq!(
            store.advance_lease(fp, 0, &gen1(7, 0)),
            LeaseAdvance::Claimed
        );
        assert_eq!(
            store.advance_lease(fp, 0, &gen1(8, 0)),
            LeaseAdvance::Fenced
        );
        // Heartbeats renew only with a strictly newer seq.
        assert_eq!(
            store.advance_lease(fp, 0, &gen1(7, 1)),
            LeaseAdvance::Renewed
        );
        assert_eq!(
            store.advance_lease(fp, 0, &gen1(7, 1)),
            LeaseAdvance::Fenced
        );
        // A different generation never renews in the same store.
        let gen2 = LeaseRecord {
            generation: 2,
            worker: 7,
            seq: 2,
            stamp_ms: 0,
        };
        assert_eq!(store.advance_lease(fp, 0, &gen2), LeaseAdvance::Fenced);
        // Other shards are independent keys.
        assert_eq!(
            store.advance_lease(fp, 1, &gen1(8, 0)),
            LeaseAdvance::Claimed
        );
        let lease = store.read_lease(fp, 0).unwrap();
        assert_eq!((lease.worker, lease.seq), (7, 1));
        drop(store);
        let store = EvalStore::open(&dir).unwrap();
        assert_eq!(store.read_lease(fp, 0).unwrap().seq, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_snapshot_reads_cells_leases_and_stats_live() {
        let dir = temp_dir("snapshot");
        let store = EvalStore::open(&dir).unwrap();
        let fp = 123;
        let tally = ProblemTally {
            n: 4,
            syntax_passes: 3,
            functional_passes: 2,
        };
        assert!(store.record_cell(fp, 5, &tally));
        assert_eq!(
            store.advance_lease(
                fp,
                2,
                &LeaseRecord {
                    generation: 3,
                    worker: 42,
                    seq: 0,
                    stamp_ms: 7,
                }
            ),
            LeaseAdvance::Claimed
        );
        let stats = ShardGenStats {
            restored: 1,
            evaluated: 3,
        };
        assert!(store.record_shard_stats(fp, 2, &stats));
        // The writer stays open: the snapshot reads alongside it.
        let snap = EvalSnapshot::load(&dir).unwrap();
        assert_eq!(snap.completed_cells(fp), vec![(5, tally)]);
        assert!(snap.completed_cells(456).is_empty());
        let lease = snap.lease(fp, 2).unwrap();
        assert_eq!((lease.generation, lease.worker), (3, 42));
        assert!(snap.lease(fp, 0).is_none());
        assert_eq!(snap.shard_stats(fp, 2), Some(stats));
        assert!(!snap.recovery().damaged());
        drop(store);
        // A snapshot of a directory that was never created is empty.
        let missing = temp_dir("snapshot-missing");
        let empty = EvalSnapshot::load(&missing).unwrap();
        assert!(empty.completed_cells(fp).is_empty());
        assert!(empty.lease(fp, 2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_store_roundtrips_verdicts_across_reopen() {
        let dir = temp_dir("tiers");
        let report = EvalReport {
            syntax: Ok(()),
            functional: Some(true),
            comparison: Some(ResponseComparison {
                ports_match: true,
                grids_match: true,
                max_power_diff: 0.0,
                rms_power_diff: 0.0,
            }),
        };
        let response_key: ResponseKey = (9, (1, 2, 17), SimdLevel::Scalar, 7, (2, 2), 8);
        {
            let store = EvalStore::open(&dir).unwrap();
            store.put_verdict(&response_key, &report);
            store.sync();
        }
        let store = EvalStore::open(&dir).unwrap();
        assert!(store.get_verdict(&response_key).unwrap().functional_pass());
        assert!(store
            .get_verdict(&(10, (1, 2, 17), SimdLevel::Scalar, 7, (2, 2), 8))
            .is_none());
        assert!(!store.degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_report_records_are_never_served() {
        use crate::evaluate::DEFAULT_FUNCTIONAL_TOLERANCE;
        let dir = temp_dir("stale-report");
        let problem = picbench_problems::find("mzi-ps").unwrap();
        // An earlier build kept finished reports in the cache log, keyed
        // by the sim key, the problem-id digest and the tolerance bits.
        // Plant a poisoned one under the golden design's key.
        let mut ev = Evaluator::default();
        let golden = ev.golden(&problem).unwrap();
        let mut key = old_sim_key(&ev.sim_key(&problem, golden.hash()));
        put_u64(&mut key, picbench_netlist::Fnv64::hash_str(&problem.id));
        put_u64(&mut key, DEFAULT_FUNCTIONAL_TOLERANCE.to_bits());
        let poisoned = EvalReport {
            syntax: Ok(()),
            functional: Some(false),
            comparison: None,
        };
        plant_cache_record(&dir, KIND_REPORT, &key, &encode_report(&poisoned));

        let store = Arc::new(EvalStore::open(&dir).unwrap());
        let cache = Arc::new(EvalCache::new().with_disk(store));
        let mut ev = Evaluator::default().with_cache(Arc::clone(&cache));
        let report = ev.evaluate_netlist(&problem, &golden, &problem.golden);
        assert!(report.functional_pass(), "{report:?}");
        assert_eq!(cache.stats().report_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_sim_records_are_never_served() {
        let dir = temp_dir("stale-sim");
        let problem = picbench_problems::find("mzi-ps").unwrap();
        // An earlier build kept successful sweeps in the cache log: the
        // grid, the port names, then every sample's S-matrix. Plant one
        // with the golden response's shape and all-zero values under the
        // golden design's key.
        let mut ev = Evaluator::default();
        let golden = ev.golden(&problem).unwrap();
        let key = old_sim_key(&ev.sim_key(&problem, golden.hash()));
        let response = golden.response();
        let mut poisoned = Vec::new();
        put_u64(&mut poisoned, response.wavelengths().len() as u64);
        for wl in response.wavelengths() {
            put_u64(&mut poisoned, wl.to_bits());
        }
        put_u64(&mut poisoned, response.ports().len() as u64);
        for port in response.ports() {
            put_str(&mut poisoned, port);
        }
        let entries = response.wavelengths().len() * response.ports().len().pow(2);
        poisoned.resize(poisoned.len() + entries * 16, 0);
        plant_cache_record(&dir, KIND_SIM, &key, &poisoned);

        let store = Arc::new(EvalStore::open(&dir).unwrap());
        let cache = Arc::new(EvalCache::new().with_disk(store));
        let mut ev = Evaluator::default().with_cache(Arc::clone(&cache));
        let report = ev.evaluate_netlist(&problem, &golden, &problem.golden);
        assert!(report.functional_pass(), "{report:?}");
        assert_eq!(cache.stats().disk_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
