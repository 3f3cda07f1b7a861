//! The [`Store`]: a crash-safe, append-only, last-write-wins key/value
//! log with an in-memory index, and [`SharedStore`], a store shared
//! between threads whose durability barrier is a group commit.

use crate::io::{list_segment_ids, segment_path, FileIo, SegmentFile, StoreIo};
use crate::segment::{
    self, encode_footer_value, encode_record_into, fold_digest, header_bytes, scan_segment,
    SegmentScan, KIND_FOOTER,
};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Default rotation threshold for the active segment.
pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 64 << 20;

/// File prefix of the segments [`Store::open`] uses:
/// `seg-NNNNNN.picstore`.
pub const SEGMENT_PREFIX: &str = "seg";

/// The entries of one record kind: key → last value written.
type KindIndex = HashMap<Box<[u8]>, Box<[u8]>>;

/// The in-memory index, keyed by kind first, so a lookup borrows its
/// key and `for_each` visits one kind only.
#[derive(Default)]
struct Index(HashMap<u8, KindIndex>);

impl Index {
    fn get(&self, kind: u8, key: &[u8]) -> Option<&[u8]> {
        self.0.get(&kind)?.get(key).map(|v| &**v)
    }

    fn insert(&mut self, kind: u8, key: Box<[u8]>, value: Box<[u8]>) {
        self.0.entry(kind).or_default().insert(key, value);
    }

    fn len(&self) -> usize {
        self.0.values().map(KindIndex::len).sum()
    }

    fn for_each(&self, kind: u8, mut f: impl FnMut(&[u8], &[u8])) {
        for (key, value) in self.0.get(&kind).into_iter().flatten() {
            f(key, value);
        }
    }

    /// Indexes the records of one scanned segment and adds what the
    /// scan classified to `recovery`.
    fn absorb(&mut self, recovery: &mut RecoveryReport, scan: SegmentScan) {
        if scan.bad_header {
            recovery.corrupt_segments += 1;
            return;
        }
        recovery.records_recovered += scan.records.len() as u64;
        recovery.records_quarantined += scan.quarantined;
        recovery.torn_tail_bytes += scan.torn_tail_bytes;
        recovery.lost_framing_bytes += scan.lost_framing_bytes;
        recovery.sealed_segments += u32::from(scan.sealed);
        recovery.bad_seals += u32::from(scan.bad_seal);
        for record in scan.records {
            self.insert(
                record.kind,
                record.key.into_boxed_slice(),
                record.value.into_boxed_slice(),
            );
        }
    }
}

/// What recovery found (and repaired) while opening a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments present on open.
    pub segments: u32,
    /// Records that passed their checksum and entered the index.
    pub records_recovered: u64,
    /// Records whose checksum failed — skipped, their entries recompute.
    pub records_quarantined: u64,
    /// Torn-tail bytes truncated from the active segment.
    pub torn_tail_bytes: u64,
    /// Bytes abandoned to lost framing (an implausible length prefix).
    pub lost_framing_bytes: u64,
    /// Segments with a missing/unrecognized header, quarantined whole.
    pub corrupt_segments: u32,
    /// Segments carrying a valid seal footer.
    pub sealed_segments: u32,
    /// Segments whose seal footer disagreed with their contents.
    pub bad_seals: u32,
}

impl RecoveryReport {
    /// Whether recovery found any damage at all.
    pub fn damaged(&self) -> bool {
        self.records_quarantined > 0
            || self.torn_tail_bytes > 0
            || self.lost_framing_bytes > 0
            || self.corrupt_segments > 0
            || self.bad_seals > 0
    }
}

/// Field-wise sum: what recovery found across several logs.
impl std::ops::Add for RecoveryReport {
    type Output = RecoveryReport;

    fn add(self, other: RecoveryReport) -> RecoveryReport {
        RecoveryReport {
            segments: self.segments + other.segments,
            records_recovered: self.records_recovered + other.records_recovered,
            records_quarantined: self.records_quarantined + other.records_quarantined,
            torn_tail_bytes: self.torn_tail_bytes + other.torn_tail_bytes,
            lost_framing_bytes: self.lost_framing_bytes + other.lost_framing_bytes,
            corrupt_segments: self.corrupt_segments + other.corrupt_segments,
            sealed_segments: self.sealed_segments + other.sealed_segments,
            bad_seals: self.bad_seals + other.bad_seals,
        }
    }
}

/// A crash-safe, append-only key/value store over numbered segments.
///
/// Writes append checksummed records to the active segment ([`Store::put`])
/// and become durable at the next [`Store::sync`]. A store opted into
/// [`Store::with_write_buffer`] collects records in memory and appends
/// them in batches. Reads are served from an in-memory index rebuilt on
/// open by scanning every segment (last write wins). Damage never aborts
/// an open: torn tails are truncated, corrupt records quarantined — see
/// the crate docs for the recovery semantics.
pub struct Store {
    io: Box<dyn StoreIo>,
    active: Box<dyn SegmentFile>,
    active_id: u32,
    active_len: u64,
    active_records: u64,
    active_digest: u64,
    max_segment_bytes: u64,
    /// Encoded frames not yet appended to the active segment.
    pending: Vec<u8>,
    /// `pending` is appended once it holds this many bytes; 0 appends
    /// every frame at once.
    buffer_bytes: usize,
    /// Sequence number of the last append (header, record or footer).
    appended: u64,
    /// The highest `appended` an fsync covered: the durable watermark.
    synced: u64,
    index: Index,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("entries", &self.index.len())
            .field("active_segment", &self.active_id)
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl Store {
    /// Opens (creating if needed) a store of [`SEGMENT_PREFIX`] segments
    /// in the given directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        Store::open_with_io(Box::new(FileIo::new(dir.as_ref(), SEGMENT_PREFIX)?))
    }

    /// Opens a store over an arbitrary [`StoreIo`] — the seam the
    /// fault-injection harness uses.
    pub fn open_with_io(mut io: Box<dyn StoreIo>) -> io::Result<Store> {
        let ids = io.list_segments()?;
        let mut recovery = RecoveryReport {
            segments: ids.len() as u32,
            ..RecoveryReport::default()
        };
        let mut index = Index::default();
        let mut active_state: Option<(u32, u64, u64, u64, bool)> = None;
        for (position, &id) in ids.iter().enumerate() {
            let mut segment = io.open_segment(id)?;
            let bytes = segment.read_all()?;
            let scan = scan_segment(&bytes);
            // Only the newest segment can take appends. Older ones are
            // sealed (or abandoned) and read-only: trailing damage there
            // just means those bytes never made it.
            if position == ids.len() - 1 && !scan.bad_header {
                if bytes.len() as u64 != scan.valid_len {
                    // Truncate the damage so appended records re-establish
                    // a well-formed tail.
                    segment.truncate_to(scan.valid_len)?;
                }
                active_state = Some((
                    id,
                    scan.valid_len,
                    scan.records.len() as u64 + scan.quarantined,
                    scan.digest,
                    scan.sealed,
                ));
            }
            index.absorb(&mut recovery, scan);
        }

        // Resolve the active segment: continue the last unsealed one, or
        // start fresh after a sealed/missing tail.
        let (active_id, fresh) = match active_state {
            Some((id, _, _, _, sealed)) if sealed => (id + 1, true),
            Some((id, _, _, _, _)) => (id, false),
            None => (ids.last().map_or(0, |id| id + 1), true),
        };
        let mut active = io.open_segment(active_id)?;
        let (active_len, active_records, active_digest) = if fresh {
            active.append(&header_bytes())?;
            (segment::HEADER_LEN as u64, 0, 0)
        } else {
            let (_, len, records, digest, _) = active_state.expect("unsealed active");
            (len, records, digest)
        };

        Ok(Store {
            io,
            active,
            active_id,
            active_len,
            active_records,
            active_digest,
            max_segment_bytes: DEFAULT_MAX_SEGMENT_BYTES,
            pending: Vec::new(),
            buffer_bytes: 0,
            // A fresh header is the one append the next sync must cover.
            appended: u64::from(fresh),
            synced: 0,
            index,
            recovery,
        })
    }

    /// Overrides the active-segment rotation threshold.
    pub fn with_max_segment_bytes(mut self, bytes: u64) -> Self {
        self.max_segment_bytes = bytes.max(segment::HEADER_LEN as u64 + 1);
        self
    }

    /// Buffers appends in memory: records reach the segment in batches
    /// of about `bytes`, and at every [`Store::sync`], rotation and drop.
    /// This is for logs whose records can be recomputed and which sync
    /// rarely.
    ///
    /// A buffered store also fsyncs each new segment's header when it
    /// creates the segment (here, for a fresh active segment), so a crash
    /// between two rare syncs never leaves a headerless segment that
    /// recovery would quarantine.
    ///
    /// # Errors
    ///
    /// Propagates the failure of that header fsync.
    pub fn with_write_buffer(mut self, bytes: usize) -> io::Result<Self> {
        self.buffer_bytes = bytes;
        self.sync()?;
        Ok(self)
    }

    /// What recovery found while opening this store.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value last written for `(kind, key)`, if any.
    pub fn get(&self, kind: u8, key: &[u8]) -> Option<&[u8]> {
        self.index.get(kind, key)
    }

    /// Visits every live entry of one kind (iteration order is
    /// unspecified).
    pub fn for_each(&self, kind: u8, f: impl FnMut(&[u8], &[u8])) {
        self.index.for_each(kind, f);
    }

    /// The sequence number of the last append — a record, a segment
    /// header or a seal footer. [`SharedStore::sync_to`] takes it as a
    /// durability target.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one entry. Returns `false` (writing nothing) when the
    /// identical value is already stored under the key — warm re-runs
    /// re-put everything they read, and the dedup keeps the log from
    /// growing on replay.
    ///
    /// # Panics
    ///
    /// Panics on the reserved footer kind (`0`).
    ///
    /// # Errors
    ///
    /// Propagates IO failures from the segment append; the record is
    /// then not indexed. In a buffered store the failed append may also
    /// carry earlier buffered records: those stay readable from the
    /// index but never reach the segment.
    pub fn put(&mut self, kind: u8, key: &[u8], value: &[u8]) -> io::Result<bool> {
        assert!(kind != KIND_FOOTER, "kind 0 is reserved for seal footers");
        if self.get(kind, key) == Some(value) {
            return Ok(false);
        }
        let start = self.pending.len();
        let checksum = encode_record_into(&mut self.pending, kind, key, value);
        let frame_len = (self.pending.len() - start) as u64;
        if self.pending.len() >= self.buffer_bytes {
            self.flush()?;
        }
        self.active_digest = fold_digest(self.active_digest, checksum);
        self.active_records += 1;
        self.active_len += frame_len;
        self.appended += 1;
        self.index.insert(kind, Box::from(key), Box::from(value));
        if self.active_len >= self.max_segment_bytes {
            self.rotate()?;
        }
        Ok(true)
    }

    /// Appends the pending frames to the active segment. On failure they
    /// are dropped; whatever prefix landed is a torn tail the next open
    /// truncates.
    fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let result = self.active.append(&self.pending);
        self.pending.clear();
        result
    }

    /// Seals the active segment (footer + fsync) and starts the next one.
    fn rotate(&mut self) -> io::Result<()> {
        encode_record_into(
            &mut self.pending,
            KIND_FOOTER,
            b"",
            &encode_footer_value(self.active_records, self.active_digest),
        );
        self.appended += 1;
        self.sync()?;
        self.active_id += 1;
        self.active = self.io.open_segment(self.active_id)?;
        self.active.append(&header_bytes())?;
        self.appended += 1;
        self.active_len = segment::HEADER_LEN as u64;
        self.active_records = 0;
        self.active_digest = 0;
        if self.buffer_bytes > 0 {
            self.sync()?;
        }
        Ok(())
    }

    /// Compare-and-put: appends `value` under `(kind, key)` only when
    /// the currently indexed value equals `expected` (`None` meaning the
    /// key must be absent). Returns whether the swap landed.
    ///
    /// The comparison and the append happen under the store's
    /// single-writer discipline, so two callers racing through the same
    /// `Store` handle serialize: exactly one of two conflicting claims
    /// for an absent key wins. This is the primitive lease claims build
    /// on — claim with `expected = None`, renew with `expected =
    /// Some(previous lease bytes)`.
    ///
    /// # Panics
    ///
    /// Panics on the reserved footer kind (`0`).
    ///
    /// # Errors
    ///
    /// Propagates IO failures from the segment append; on error the
    /// index is unchanged and the swap did not land.
    pub fn compare_and_put(
        &mut self,
        kind: u8,
        key: &[u8],
        expected: Option<&[u8]>,
        value: &[u8],
    ) -> io::Result<bool> {
        if self.get(kind, key) != expected {
            return Ok(false);
        }
        // `put` dedups an identical value; the swap still "landed" then
        // because the stored state equals the requested state.
        self.put(kind, key, value)?;
        Ok(true)
    }

    /// Appends any buffered records and fsyncs the active segment — the
    /// durability barrier. Records put before a completed `sync` survive
    /// any crash.
    ///
    /// # Errors
    ///
    /// Propagates the underlying append or fsync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.synced < self.appended {
            self.active.sync()?;
            self.synced = self.appended;
        }
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; crashes are what the
        // recovery scan is for.
        let _ = self.sync();
    }
}

/// A [`Store`] shared between threads, whose durability barrier runs
/// outside the index lock.
///
/// [`SharedStore::sync_to`] fsyncs through a second handle on the
/// active segment, so readers and writers keep the index while the disk
/// works. Barriers are group-committed: one fsync runs at a time, and a
/// barrier that waited for it usually finds its records already covered
/// by the durable watermark and returns without an fsync of its own.
pub struct SharedStore {
    store: Mutex<Store>,
    /// Held while an fsync runs; waiting barriers queue here.
    commit: Mutex<()>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SharedStore").field(&self.store).finish()
    }
}

impl SharedStore {
    /// Shares an open store.
    pub fn new(store: Store) -> Self {
        SharedStore {
            store: Mutex::new(store),
            commit: Mutex::new(()),
        }
    }

    /// Locks the store for reads and writes. Never blocks on an fsync
    /// [`SharedStore::sync_to`] runs.
    pub fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().expect("store poisoned")
    }

    /// Whether an fsync already covered the append with sequence number
    /// `seq` (see [`Store::appended`]).
    pub fn is_durable(&self, seq: u64) -> bool {
        self.lock().synced >= seq
    }

    /// Makes every append up to sequence number `seq` durable, with one
    /// fsync shared by every barrier it covers.
    ///
    /// # Errors
    ///
    /// Propagates the underlying append or fsync failure.
    pub fn sync_to(&self, seq: u64) -> io::Result<()> {
        if self.is_durable(seq) {
            return Ok(());
        }
        let _commit = self.commit.lock().expect("commit lock poisoned");
        let (upto, mut segment) = {
            let mut store = self.lock();
            if store.synced >= seq {
                return Ok(());
            }
            store.flush()?;
            (store.appended, store.active.try_clone()?)
        };
        // A rotation meanwhile has already synced this segment whole.
        segment.sync()?;
        let mut store = self.lock();
        store.synced = store.synced.max(upto);
        Ok(())
    }
}

/// A read-only, point-in-time view of one log in a store directory.
///
/// Unlike [`Store::open`], loading a snapshot never creates files and
/// never truncates torn tails, so it is safe to point at a directory
/// another process is *actively appending to*: a partially written
/// record at the tail is skipped logically (classified as torn, exactly
/// as a full open would), not repaired on disk. A missing directory
/// loads as an empty snapshot — a worker that has not started yet looks
/// the same as one that has journalled nothing.
///
/// Supervisors poll worker journals through snapshots; the owning
/// worker keeps sole write access through its [`Store`].
pub struct Snapshot {
    index: Index,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("entries", &self.index.len())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl Snapshot {
    /// Loads a read-only view of the `{prefix}-NNNNNN.picstore` segments
    /// currently in `dir`; the segments of other logs there are ignored.
    ///
    /// # Errors
    ///
    /// Propagates IO failures reading existing segment files. A missing
    /// directory is not an error (empty snapshot).
    pub fn load(dir: impl AsRef<Path>, prefix: &str) -> io::Result<Snapshot> {
        let dir = dir.as_ref();
        let ids = list_segment_ids(dir, prefix)?;
        let mut recovery = RecoveryReport {
            segments: ids.len() as u32,
            ..RecoveryReport::default()
        };
        let mut index = Index::default();
        for id in ids {
            let bytes = std::fs::read(segment_path(dir, prefix, id))?;
            index.absorb(&mut recovery, scan_segment(&bytes));
        }
        Ok(Snapshot { index, recovery })
    }

    /// What the scan classified (nothing was repaired).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value last written for `(kind, key)`, if any.
    pub fn get(&self, kind: u8, key: &[u8]) -> Option<&[u8]> {
        self.index.get(kind, key)
    }

    /// Visits every live entry of one kind (iteration order is
    /// unspecified).
    pub fn for_each(&self, kind: u8, f: impl FnMut(&[u8], &[u8])) {
        self.index.for_each(kind, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultPlan, FaultyIo, PageCacheIo};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "picbench-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_across_reopen() {
        let dir = temp_dir("roundtrip");
        {
            let mut store = Store::open(&dir).unwrap();
            assert!(store.put(1, b"alpha", b"one").unwrap());
            assert!(store.put(2, b"beta", b"two").unwrap());
            assert!(store.put(1, b"alpha", b"uno").unwrap(), "overwrite appends");
            store.sync().unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(1, b"alpha"), Some(&b"uno"[..]));
        assert_eq!(store.get(2, b"beta"), Some(&b"two"[..]));
        assert_eq!(store.get(3, b"beta"), None, "kinds are namespaces");
        assert!(!store.recovery().damaged());
        assert_eq!(store.recovery().records_recovered, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identical_put_is_deduplicated() {
        let dir = temp_dir("dedup");
        let mut store = Store::open(&dir).unwrap();
        assert!(store.put(1, b"k", b"v").unwrap());
        assert!(!store.put(1, b"k", b"v").unwrap());
        let before = store.active_len;
        assert!(!store.put(1, b"k", b"v").unwrap());
        assert_eq!(store.active_len, before, "dedup writes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_and_survives_reopen() {
        let dir = temp_dir("rotate");
        {
            let mut store = Store::open(&dir).unwrap().with_max_segment_bytes(256);
            for i in 0..32u32 {
                store
                    .put(1, &i.to_le_bytes(), format!("value-{i}").as_bytes())
                    .unwrap();
            }
            store.sync().unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 32);
        assert!(store.recovery().segments > 1, "rotation produced segments");
        assert!(store.recovery().sealed_segments >= 1);
        assert_eq!(store.recovery().bad_seals, 0);
        for i in 0..32u32 {
            assert_eq!(
                store.get(1, &i.to_le_bytes()),
                Some(format!("value-{i}").as_bytes())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_recovers_as_torn_tail() {
        let dir = temp_dir("shortwrite");
        {
            let io = FaultyIo::new(
                Box::new(FileIo::new(&dir, SEGMENT_PREFIX).unwrap()),
                FaultPlan {
                    seed: 42,
                    // Append 1 is the fresh segment header; fail the third
                    // record append.
                    short_write_at: Some(4),
                    ..FaultPlan::default()
                },
            );
            let mut store = Store::open_with_io(Box::new(io)).unwrap();
            store.put(1, b"k1", b"v1").unwrap();
            store.put(1, b"k2", b"v2").unwrap();
            let err = store.put(1, b"k3", b"v3").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::WriteZero);
            // Simulated crash: drop without sync.
            std::mem::forget(store);
        }
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.get(1, b"k1"), Some(&b"v1"[..]));
        assert_eq!(store.get(1, b"k2"), Some(&b"v2"[..]));
        assert_eq!(store.get(1, b"k3"), None, "torn record never surfaces");
        // The truncated tail must be appendable again.
        store.put(1, b"k3", b"v3-recomputed").unwrap();
        store.sync().unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(1, b"k3"), Some(&b"v3-recomputed"[..]));
        assert!(!store.recovery().damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_error_surfaces_without_corrupting_index() {
        let dir = temp_dir("ioerror");
        let io = FaultyIo::new(
            Box::new(FileIo::new(&dir, SEGMENT_PREFIX).unwrap()),
            FaultPlan {
                seed: 7,
                io_error_at: Some((3, io::ErrorKind::Other)),
                ..FaultPlan::default()
            },
        );
        let mut store = Store::open_with_io(Box::new(io)).unwrap();
        store.put(1, b"k1", b"v1").unwrap();
        let err = store.put(1, b"k2", b"v2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(store.get(1, b"k2"), None, "failed put leaves no entry");
        store.put(1, b"k2", b"retry").unwrap();
        assert_eq!(store.get(1, b"k2"), Some(&b"retry"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_time_bit_flip_quarantines_one_record() {
        let dir = temp_dir("bitflip");
        {
            let mut store = Store::open(&dir).unwrap();
            store.put(1, b"k1", b"v1").unwrap();
            store.put(1, b"k2", b"v2").unwrap();
            store.sync().unwrap();
        }
        // Flip a bit inside the first record's frame on read.
        let io = FaultyIo::new(
            Box::new(FileIo::new(&dir, SEGMENT_PREFIX).unwrap()),
            FaultPlan {
                seed: 1,
                flip_bit_on_read: Some((segment::HEADER_LEN as u64 + 6) * 8),
                ..FaultPlan::default()
            },
        );
        let store = Store::open_with_io(Box::new(io)).unwrap();
        assert_eq!(store.recovery().records_quarantined, 1);
        assert_eq!(store.get(1, b"k1"), None, "damaged record never trusted");
        assert_eq!(store.get(1, b"k2"), Some(&b"v2"[..]), "rest recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_and_put_claims_and_fences() {
        let dir = temp_dir("cas");
        let mut store = Store::open(&dir).unwrap();
        // Claim an absent key.
        assert!(store.compare_and_put(5, b"lease", None, b"gen-0").unwrap());
        // A second claim against "absent" loses.
        assert!(!store.compare_and_put(5, b"lease", None, b"rival").unwrap());
        assert_eq!(store.get(5, b"lease"), Some(&b"gen-0"[..]));
        // Renew against the exact current bytes wins...
        assert!(store
            .compare_and_put(5, b"lease", Some(b"gen-0"), b"gen-1")
            .unwrap());
        // ...and a renew against stale bytes is fenced off.
        assert!(!store
            .compare_and_put(5, b"lease", Some(b"gen-0"), b"late")
            .unwrap());
        assert_eq!(store.get(5, b"lease"), Some(&b"gen-1"[..]));
        // Swapping to the value already stored is a successful no-op.
        assert!(store
            .compare_and_put(5, b"lease", Some(b"gen-1"), b"gen-1")
            .unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_reads_live_unsynced_appends_without_mutating() {
        let dir = temp_dir("snapshot");
        let mut store = Store::open(&dir).unwrap();
        store.put(1, b"k1", b"v1").unwrap();
        store.put(1, b"k2", b"v2").unwrap();
        // No sync: the snapshot still sees the appended bytes through
        // the page cache, like a supervisor polling a live worker.
        let snap = Snapshot::load(&dir, SEGMENT_PREFIX).unwrap();
        assert_eq!(snap.get(1, b"k1"), Some(&b"v1"[..]));
        assert_eq!(snap.get(1, b"k2"), Some(&b"v2"[..]));
        assert_eq!(snap.len(), 2);
        assert!(!snap.recovery().damaged());
        // The writer keeps appending afterwards, unaffected.
        store.put(1, b"k3", b"v3").unwrap();
        store.sync().unwrap();
        assert_eq!(Snapshot::load(&dir, SEGMENT_PREFIX).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_of_missing_dir_is_empty() {
        let dir = temp_dir("snapshot-missing");
        let snap = Snapshot::load(&dir, SEGMENT_PREFIX).unwrap();
        assert!(snap.is_empty());
        assert_eq!(snap.recovery().segments, 0);
        assert!(!dir.exists(), "loading a snapshot must not create files");
    }

    #[test]
    fn snapshot_skips_torn_tail_without_truncating() {
        let dir = temp_dir("snapshot-torn");
        {
            let mut store = Store::open(&dir).unwrap();
            store.put(1, b"k1", b"v1").unwrap();
            store.sync().unwrap();
        }
        // Simulate a crash mid-append by tacking garbage onto the tail.
        let seg = dir.join("seg-000000.picstore");
        let mut bytes = std::fs::read(&seg).unwrap();
        let intact_len = bytes.len() as u64;
        // Three bytes cannot even hold a length prefix: a torn tail.
        bytes.extend_from_slice(&[0x2a; 3]);
        std::fs::write(&seg, &bytes).unwrap();

        let snap = Snapshot::load(&dir, SEGMENT_PREFIX).unwrap();
        assert_eq!(snap.get(1, b"k1"), Some(&b"v1"[..]));
        assert!(snap.recovery().torn_tail_bytes > 0);
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            intact_len + 3,
            "snapshot must never repair the file"
        );
        // A full open afterwards still truncates as usual.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get(1, b"k1"), Some(&b"v1"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_fault_plans_never_panic_recovery() {
        for seed in 0..16u64 {
            let dir = temp_dir(&format!("seeded-{seed}"));
            {
                let io = FaultyIo::new(
                    Box::new(FileIo::new(&dir, SEGMENT_PREFIX).unwrap()),
                    FaultPlan::seeded(seed, 12),
                );
                // The fault may hit the very first append (the fresh
                // segment header), failing open itself — also a crash
                // recovery below must cope with.
                if let Ok(mut store) = Store::open_with_io(Box::new(io)) {
                    for i in 0..10u32 {
                        // Faults may surface as errors; recovery below
                        // must cope with whatever landed on disk.
                        let _ = store.put(1, &i.to_le_bytes(), &[seed as u8; 24]);
                    }
                    std::mem::forget(store);
                }
            }
            let mut store = Store::open(&dir).unwrap();
            // Whatever was lost recomputes: every put must succeed now.
            for i in 0..10u32 {
                store.put(1, &i.to_le_bytes(), &[seed as u8; 24]).unwrap();
            }
            store.sync().unwrap();
            let store = Store::open(&dir).unwrap();
            // Quarantined bytes may persist in the append-only log, but
            // after repair no tail damage remains and every entry reads.
            assert_eq!(store.recovery().torn_tail_bytes, 0, "seed {seed}");
            assert_eq!(store.recovery().lost_framing_bytes, 0, "seed {seed}");
            assert_eq!(store.len(), 10, "seed {seed}");
            for i in 0..10u32 {
                assert_eq!(
                    store.get(1, &i.to_le_bytes()),
                    Some(&[seed as u8; 24][..]),
                    "seed {seed}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn buffered_store_serves_reads_before_its_batch_lands() {
        let dir = temp_dir("buffered");
        let segment = dir.join("cache-000000.picstore");
        let len = || std::fs::metadata(&segment).unwrap().len();
        let open = || Store::open_with_io(Box::new(FileIo::new(&dir, "cache").unwrap())).unwrap();
        let mut store = open().with_write_buffer(256).unwrap();
        store.put(3, b"k1", b"v1").unwrap();
        assert_eq!(store.get(3, b"k1"), Some(&b"v1"[..]));
        assert!(
            !store.put(3, b"k1", b"v1").unwrap(),
            "dedup sees buffered records"
        );
        assert_eq!(
            len(),
            segment::HEADER_LEN as u64,
            "the record waits in the buffer"
        );
        for i in 0..16u32 {
            store.put(3, &i.to_le_bytes(), &[7; 32]).unwrap();
        }
        let landed = len();
        assert!(
            landed > segment::HEADER_LEN as u64 && landed <= store.active_len,
            "full buffers land in batches: {landed} of {}",
            store.active_len
        );
        store.sync().unwrap();
        assert_eq!(len(), store.active_len, "sync appends the rest first");
        drop(store);
        let store = open();
        assert_eq!(store.len(), 17);
        assert!(!store.recovery().damaged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_batch_recovers_as_a_torn_tail() {
        let dir = temp_dir("torn-batch");
        {
            let io = FaultyIo::new(
                Box::new(FileIo::new(&dir, "cache").unwrap()),
                FaultPlan {
                    seed: 5,
                    // Append 1 is the header, append 2 the batch of
                    // records 0 and 1; the batch of 2 and 3 tears.
                    short_write_at: Some(3),
                    ..FaultPlan::default()
                },
            );
            let mut store = Store::open_with_io(Box::new(io))
                .unwrap()
                .with_write_buffer(100)
                .unwrap();
            let mut i = 0u32;
            while store.put(3, &i.to_le_bytes(), &[i as u8; 40]).is_ok() {
                i += 1;
            }
            assert_eq!(i, 3, "the fourth put carries the torn batch");
            std::mem::forget(store);
        }
        let open = || Store::open_with_io(Box::new(FileIo::new(&dir, "cache").unwrap())).unwrap();
        let mut store = open();
        assert!(
            store.recovery().torn_tail_bytes > 0,
            "{:?}",
            store.recovery()
        );
        for i in 0..2u32 {
            assert!(store.get(3, &i.to_le_bytes()).is_some(), "record {i} lost");
        }
        assert_eq!(
            store.get(3, &3u32.to_le_bytes()),
            None,
            "torn record surfaced"
        );
        store.put(3, b"after", b"crash").unwrap();
        store.sync().unwrap();
        drop(store);
        let store = open();
        assert!(!store.recovery().damaged(), "{:?}", store.recovery());
        assert_eq!(store.get(3, b"after"), Some(&b"crash"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_power_cut_keeps_exactly_the_synced_records() {
        let io = PageCacheIo::new();
        let mut store = Store::open_with_io(Box::new(io.clone())).unwrap();
        store.put(1, b"k1", b"v1").unwrap();
        store.sync().unwrap();
        store.put(1, b"k2", b"v2").unwrap();
        io.crash();
        assert!(
            store.put(1, b"k3", b"v3").is_err(),
            "a dead process writes nothing"
        );
        drop(store);
        let store = Store::open_with_io(Box::new(io.restart())).unwrap();
        assert_eq!(store.get(1, b"k1"), Some(&b"v1"[..]));
        assert_eq!(store.get(1, b"k2"), None, "the unsynced record is lost");
        assert!(!store.recovery().damaged(), "{:?}", store.recovery());
    }

    /// A [`StoreIo`] whose fsyncs report on a channel, then wait for a
    /// gate the test holds.
    struct GatedIo {
        inner: PageCacheIo,
        gate: Arc<Mutex<()>>,
        fsyncs: mpsc::Sender<()>,
    }

    struct GatedSegment {
        inner: Box<dyn SegmentFile>,
        gate: Arc<Mutex<()>>,
        fsyncs: mpsc::Sender<()>,
    }

    impl StoreIo for GatedIo {
        fn list_segments(&mut self) -> io::Result<Vec<u32>> {
            self.inner.list_segments()
        }

        fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SegmentFile>> {
            Ok(Box::new(GatedSegment {
                inner: self.inner.open_segment(id)?,
                gate: Arc::clone(&self.gate),
                fsyncs: self.fsyncs.clone(),
            }))
        }
    }

    impl SegmentFile for GatedSegment {
        fn read_all(&mut self) -> io::Result<Vec<u8>> {
            self.inner.read_all()
        }

        fn truncate_to(&mut self, len: u64) -> io::Result<()> {
            self.inner.truncate_to(len)
        }

        fn append(&mut self, data: &[u8]) -> io::Result<()> {
            self.inner.append(data)
        }

        fn sync(&mut self) -> io::Result<()> {
            let _ = self.fsyncs.send(());
            let _open = self.gate.lock().unwrap();
            self.inner.sync()
        }

        fn try_clone(&self) -> io::Result<Box<dyn SegmentFile>> {
            Ok(Box::new(GatedSegment {
                inner: self.inner.try_clone()?,
                gate: Arc::clone(&self.gate),
                fsyncs: self.fsyncs.clone(),
            }))
        }
    }

    #[test]
    fn barriers_fsync_outside_the_index_lock_and_share_one_fsync() {
        let gate = Arc::new(Mutex::new(()));
        let closed = gate.lock().unwrap();
        let (fsync_tx, fsyncs) = mpsc::channel();
        let io = GatedIo {
            inner: PageCacheIo::new(),
            gate: Arc::clone(&gate),
            fsyncs: fsync_tx,
        };
        let shared = Arc::new(SharedStore::new(Store::open_with_io(Box::new(io)).unwrap()));
        let put = |key: &'static [u8]| {
            let shared = Arc::clone(&shared);
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let mut store = shared.lock();
                store.put(1, key, b"v").unwrap();
                tx.send(store.appended()).unwrap();
            });
            rx.recv_timeout(Duration::from_secs(30))
                .expect("a put must not wait for a running fsync")
        };
        let barrier = |seq| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.sync_to(seq))
        };

        let first = barrier(put(b"a"));
        fsyncs.recv().unwrap();
        // The first fsync is running, held at the gate. The index stays
        // free, and two more barriers queue behind it.
        let (seq_b, seq_c) = (put(b"b"), put(b"c"));
        assert!(!shared.is_durable(seq_b));
        let queued = [barrier(seq_b), barrier(seq_c)];
        drop(closed);
        first.join().unwrap().unwrap();
        for handle in queued {
            handle.join().unwrap().unwrap();
        }
        assert!(shared.is_durable(seq_c));
        assert_eq!(
            fsyncs.try_iter().count(),
            1,
            "the two queued barriers share one fsync"
        );
    }

    #[test]
    fn snapshot_of_a_split_directory_sees_its_own_log_only() {
        let dir = temp_dir("snapshot-split");
        let open_cache = || Store::open_with_io(Box::new(FileIo::new(&dir, "cache").unwrap()));
        {
            let mut journal = Store::open(&dir).unwrap();
            journal.put(4, b"cell", b"tally").unwrap();
            let mut cache = open_cache().unwrap().with_write_buffer(1 << 10).unwrap();
            cache.put(3, b"sim", b"response").unwrap();
        }
        // A torn tail on the cache log, as a crash mid-batch leaves it.
        let cache_segment = dir.join("cache-000000.picstore");
        let mut bytes = std::fs::read(&cache_segment).unwrap();
        bytes.extend_from_slice(&[0x2a; 3]);
        std::fs::write(&cache_segment, &bytes).unwrap();

        let snap = Snapshot::load(&dir, SEGMENT_PREFIX).unwrap();
        assert_eq!(snap.get(4, b"cell"), Some(&b"tally"[..]));
        assert_eq!(snap.get(3, b"sim"), None, "cache kinds stay out");
        assert_eq!((snap.len(), snap.recovery().segments), (1, 1));
        assert!(!snap.recovery().damaged(), "{:?}", snap.recovery());
        assert_eq!(
            std::fs::read(&cache_segment).unwrap(),
            bytes,
            "a snapshot never truncates the cache log"
        );
        let cache = Snapshot::load(&dir, "cache").unwrap();
        assert_eq!(cache.get(3, b"sim"), Some(&b"response"[..]));
        assert!(cache.recovery().torn_tail_bytes > 0);

        let journal_only = temp_dir("snapshot-journal-only");
        Store::open(&journal_only)
            .unwrap()
            .put(4, b"cell", b"tally")
            .unwrap();
        assert_eq!(
            Snapshot::load(&journal_only, SEGMENT_PREFIX).unwrap().len(),
            1
        );
        assert!(Snapshot::load(&journal_only, "cache").unwrap().is_empty());
        let names: Vec<String> = std::fs::read_dir(&journal_only)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            ["seg-000000.picstore"],
            "a snapshot creates no files"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&journal_only);
    }
}
