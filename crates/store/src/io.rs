//! The injectable IO layer under the store.
//!
//! [`Store`](crate::Store) never touches the filesystem directly: every
//! byte flows through a [`StoreIo`] (a directory of numbered segments)
//! and the [`SegmentFile`]s it opens. [`FileIo`] is the production
//! implementation. [`FaultyIo`] decorates any other implementation with
//! deterministic fault injection — short writes that simulate a crash
//! mid-append, bit flips that simulate media corruption on read, and
//! outright `io::Error`s at scheduled points. [`PageCacheIo`] models a
//! power cut: bytes no `sync` covered are lost. Together they make the
//! recovery paths testable without real power cuts.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// One open segment file: an append-only byte sequence that can be read
/// back in full, truncated (recovery only) and fsync'd.
pub trait SegmentFile: Send {
    /// Reads the entire segment.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Truncates the segment to `len` bytes (torn-tail recovery).
    fn truncate_to(&mut self, len: u64) -> io::Result<()>;
    /// Appends bytes at the end of the segment.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Flushes and fsyncs the segment to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// A second handle on the same segment. Syncing it makes durable
    /// every byte appended through any handle, which lets a store fsync
    /// without holding its index lock.
    fn try_clone(&self) -> io::Result<Box<dyn SegmentFile>>;
}

/// A directory of numbered segments.
pub trait StoreIo: Send {
    /// The segment ids present, in ascending order.
    fn list_segments(&mut self) -> io::Result<Vec<u32>>;
    /// Opens (creating if absent) the segment with the given id.
    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SegmentFile>>;
}

/// The path of segment `id` of the log with this file prefix:
/// `{prefix}-NNNNNN.picstore`.
pub(crate) fn segment_path(dir: &Path, prefix: &str, id: u32) -> PathBuf {
    dir.join(format!("{prefix}-{id:06}.picstore"))
}

/// The ids of the `{prefix}-NNNNNN.picstore` segments in `dir`,
/// ascending. Files of other prefixes are ignored, so several logs can
/// share one directory. A missing directory holds no segments.
pub(crate) fn list_segment_ids(dir: &Path, prefix: &str) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(ids),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let name = entry?.file_name();
        let id = name
            .to_string_lossy()
            .strip_prefix(prefix)
            .and_then(|r| r.strip_prefix('-'))
            .and_then(|r| r.strip_suffix(".picstore"))
            .and_then(|r| r.parse::<u32>().ok());
        ids.extend(id);
    }
    ids.sort_unstable();
    Ok(ids)
}

/// Production [`StoreIo`]: segments are `{prefix}-NNNNNN.picstore` files
/// in one directory (created on open if missing).
#[derive(Debug)]
pub struct FileIo {
    dir: PathBuf,
    prefix: &'static str,
}

impl FileIo {
    /// Opens (creating if needed) the store directory; this log's
    /// segments are the files named `{prefix}-NNNNNN.picstore`.
    pub fn new(dir: impl Into<PathBuf>, prefix: &'static str) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileIo { dir, prefix })
    }
}

impl StoreIo for FileIo {
    fn list_segments(&mut self) -> io::Result<Vec<u32>> {
        list_segment_ids(&self.dir, self.prefix)
    }

    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SegmentFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(segment_path(&self.dir, self.prefix, id))?;
        Ok(Box::new(FileSegment { file }))
    }
}

struct FileSegment {
    file: File,
}

impl SegmentFile for FileSegment {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn try_clone(&self) -> io::Result<Box<dyn SegmentFile>> {
        Ok(Box::new(FileSegment {
            file: self.file.try_clone()?,
        }))
    }
}

/// The deterministic fault schedule of a [`FaultyIo`].
///
/// Ordinals are 1-based and counted across every segment the decorated
/// IO opens, so a plan addresses "the Nth append since the store opened"
/// regardless of rotation.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the injected-fault geometry (short-write prefix length).
    pub seed: u64,
    /// The Nth append writes only a seeded prefix of its bytes and then
    /// fails — the on-disk image is exactly what a crash mid-write
    /// leaves behind (a torn tail).
    pub short_write_at: Option<u64>,
    /// The Nth IO operation (append or sync) fails outright with the
    /// given [`io::ErrorKind`], writing nothing.
    pub io_error_at: Option<(u64, io::ErrorKind)>,
    /// On every `read_all`, flip the bit at this absolute bit offset (if
    /// inside the segment) — simulated media corruption, which recovery
    /// must quarantine via the per-record checksum.
    pub flip_bit_on_read: Option<u64>,
}

impl FaultPlan {
    /// A seeded plan: one short write and one bit flip at
    /// xorshift-derived points within the given horizon of operations.
    pub fn seeded(seed: u64, op_horizon: u64) -> Self {
        let horizon = op_horizon.max(1);
        let a = crate::segment::xorshift64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let b = crate::segment::xorshift64(a);
        FaultPlan {
            seed,
            short_write_at: Some(a % horizon + 1),
            io_error_at: None,
            flip_bit_on_read: Some(b % (horizon * 64).max(1)),
        }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    appends: u64,
    ops: u64,
}

/// A [`StoreIo`] decorator that injects faults per a [`FaultPlan`].
pub struct FaultyIo {
    inner: Box<dyn StoreIo>,
    plan: FaultPlan,
    state: Arc<Mutex<FaultState>>,
}

impl FaultyIo {
    /// Decorates an IO layer with the given fault schedule.
    pub fn new(inner: Box<dyn StoreIo>, plan: FaultPlan) -> Self {
        FaultyIo {
            inner,
            plan,
            state: Arc::new(Mutex::new(FaultState::default())),
        }
    }
}

impl StoreIo for FaultyIo {
    fn list_segments(&mut self) -> io::Result<Vec<u32>> {
        self.inner.list_segments()
    }

    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SegmentFile>> {
        let inner = self.inner.open_segment(id)?;
        Ok(Box::new(FaultySegment {
            inner,
            plan: self.plan.clone(),
            state: Arc::clone(&self.state),
        }))
    }
}

struct FaultySegment {
    inner: Box<dyn SegmentFile>,
    plan: FaultPlan,
    state: Arc<Mutex<FaultState>>,
}

impl FaultySegment {
    fn next_op(&self) -> u64 {
        let mut state = self.state.lock().expect("fault state poisoned");
        state.ops += 1;
        state.ops
    }
}

impl SegmentFile for FaultySegment {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read_all()?;
        if let Some(bit) = self.plan.flip_bit_on_read {
            let (byte, shift) = ((bit / 8) as usize, (bit % 8) as u32);
            if byte < bytes.len() {
                bytes[byte] ^= 1 << shift;
            }
        }
        Ok(bytes)
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate_to(len)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let op = self.next_op();
        let append_no = {
            let mut state = self.state.lock().expect("fault state poisoned");
            state.appends += 1;
            state.appends
        };
        if let Some((at, kind)) = self.plan.io_error_at {
            if op == at {
                return Err(io::Error::new(kind, "injected io error"));
            }
        }
        if self.plan.short_write_at == Some(append_no) && !data.is_empty() {
            // Crash mid-write: a seeded prefix lands on disk, the rest is
            // lost, and the caller sees the failure.
            let keep =
                (crate::segment::xorshift64(self.plan.seed ^ append_no) as usize) % data.len();
            self.inner.append(&data[..keep])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write (crash mid-append)",
            ));
        }
        self.inner.append(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        let op = self.next_op();
        if let Some((at, kind)) = self.plan.io_error_at {
            if op == at {
                return Err(io::Error::new(kind, "injected io error"));
            }
        }
        self.inner.sync()
    }

    fn try_clone(&self) -> io::Result<Box<dyn SegmentFile>> {
        Ok(Box::new(FaultySegment {
            inner: self.inner.try_clone()?,
            plan: self.plan.clone(),
            state: Arc::clone(&self.state),
        }))
    }
}

/// An in-memory [`StoreIo`] that models a disk behind a volatile page
/// cache. Appends are visible to every reader at once, but a segment
/// keeps only the bytes a `sync` covered when [`PageCacheIo::crash`]
/// cuts the power. Clones share one disk.
///
/// A crash also kills every handle opened before it, and this IO with
/// them: their operations fail from then on, as in a dead process.
/// [`PageCacheIo::restart`] gives the IO the next process opens the
/// surviving segments through.
#[derive(Clone, Default)]
pub struct PageCacheIo {
    disk: Arc<Mutex<Disk>>,
    epoch: u64,
}

#[derive(Default)]
struct Disk {
    /// Bumped by every crash; handles of an older epoch are dead.
    epoch: u64,
    segments: BTreeMap<u32, MemSegment>,
}

#[derive(Default)]
struct MemSegment {
    bytes: Vec<u8>,
    /// Length of the prefix the last sync made durable.
    synced: usize,
}

impl PageCacheIo {
    /// An empty disk.
    pub fn new() -> Self {
        PageCacheIo::default()
    }

    /// Simulates a power cut: truncates every segment to its last-synced
    /// length and kills every handle opened so far.
    pub fn crash(&self) {
        let mut disk = self.disk.lock().expect("disk poisoned");
        disk.epoch += 1;
        for segment in disk.segments.values_mut() {
            segment.bytes.truncate(segment.synced);
        }
    }

    /// The IO a process started after the last crash opens the disk
    /// through.
    pub fn restart(&self) -> PageCacheIo {
        let epoch = self.disk.lock().expect("disk poisoned").epoch;
        PageCacheIo {
            disk: Arc::clone(&self.disk),
            epoch,
        }
    }

    /// Locks the disk; fails once a crash has killed this IO's epoch.
    fn live_disk(&self) -> io::Result<MutexGuard<'_, Disk>> {
        let disk = self.disk.lock().expect("disk poisoned");
        if disk.epoch == self.epoch {
            Ok(disk)
        } else {
            Err(io::Error::other("simulated power cut"))
        }
    }
}

impl StoreIo for PageCacheIo {
    fn list_segments(&mut self) -> io::Result<Vec<u32>> {
        Ok(self.live_disk()?.segments.keys().copied().collect())
    }

    fn open_segment(&mut self, id: u32) -> io::Result<Box<dyn SegmentFile>> {
        self.live_disk()?.segments.entry(id).or_default();
        Ok(Box::new(PageCacheSegment {
            io: self.clone(),
            id,
        }))
    }
}

#[derive(Clone)]
struct PageCacheSegment {
    io: PageCacheIo,
    id: u32,
}

impl PageCacheSegment {
    fn with<R>(&self, f: impl FnOnce(&mut MemSegment) -> R) -> io::Result<R> {
        let mut disk = self.io.live_disk()?;
        Ok(f(disk.segments.entry(self.id).or_default()))
    }
}

impl SegmentFile for PageCacheSegment {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.with(|s| s.bytes.clone())
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.with(|s| {
            s.bytes.truncate(len as usize);
            s.synced = s.synced.min(s.bytes.len());
        })
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.with(|s| s.bytes.extend_from_slice(data))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.with(|s| s.synced = s.bytes.len())
    }

    fn try_clone(&self) -> io::Result<Box<dyn SegmentFile>> {
        Ok(Box::new(self.clone()))
    }
}
