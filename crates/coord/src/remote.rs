//! The remote side of the journal seam: a [`ShardJournal`] that ships
//! records to the coordinator instead of writing a local store, and a
//! [`ShardLauncher`] that arms worker processes with the transport
//! flags to reach it.
//!
//! Durability contract mirrors [`LocalShardJournal`]: fresh cells and
//! stats ship with `sync: true` (the coordinator fsyncs before
//! replying `applied`), inherited cells batch unsynced and ride the
//! restore pass's single [`CellJournal::sync`]. Every batch carries a
//! worker-monotonic `seq` in a generation-scoped sequence space, so a
//! delivery duplicated by the network (or replayed by a retry whose
//! first delivery *did* land) dedupes exactly on the coordinator, and a
//! takeover worker's sequences never collide with its predecessor's.
//!
//! [`LocalShardJournal`]: picbench_core::LocalShardJournal

use crate::client::CoordClient;
use crate::proto::{AppendOutcome, AppendRequest, RecordMsg};
use picbench_core::{
    CellJournal, LeaseAdvance, LeaseRecord, ProblemTally, ProcessLauncher, ShardGenStats,
    ShardJournal, ShardLauncher, ShardWorkerHandle, ShardWorkload, WorkerRequest,
};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Inherited-cell records buffered before a chunk ships (bounds memory
/// and request size on large restored generations).
const INHERIT_CHUNK: usize = 512;

/// A [`ShardJournal`] backed by a [`CoordClient`] — the worker body
/// runs unchanged while every record crosses the wire.
pub struct RemoteJournal {
    client: Arc<CoordClient>,
    shard: u32,
    generation: u32,
    /// Next batch sequence number; starts at `generation << 32` so each
    /// generation owns a disjoint dedup-key space, monotonic per worker
    /// process.
    next_seq: AtomicU64,
    /// Fingerprint of the campaign being journalled, captured from the
    /// first record so [`CellJournal::sync`] (which takes none) can
    /// flush pending records under the right key.
    fingerprint: AtomicU64,
    /// Unsynced inherited-cell records awaiting the next flush.
    pending: Mutex<Vec<RecordMsg>>,
    /// Whether any batch shipped unsynced since the last synced one —
    /// the next synced flush must cross the wire even when empty, to
    /// deliver the durability barrier those batches deferred.
    unsynced: AtomicBool,
    degraded: AtomicBool,
}

impl RemoteJournal {
    /// A remote journal for `(shard, generation)`, shipping through
    /// `client`.
    pub fn new(client: Arc<CoordClient>, shard: u32, generation: u32) -> Self {
        RemoteJournal {
            client,
            shard,
            generation,
            next_seq: AtomicU64::new(u64::from(generation) << 32),
            fingerprint: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            unsynced: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
        }
    }

    /// The client this journal ships through (for counter inspection).
    pub fn client(&self) -> &Arc<CoordClient> {
        &self.client
    }

    /// Ships pending records (plus `extra`, in order) as one batch.
    /// Empty batches don't cross the wire: with nothing pending and
    /// nothing extra, everything already shipped carried its own sync.
    fn flush(&self, fingerprint: u64, sync: bool, extra: Option<RecordMsg>) -> bool {
        self.fingerprint.store(fingerprint, Ordering::Relaxed);
        let mut records = {
            let mut pending = self.pending.lock().expect("pending poisoned");
            std::mem::take(&mut *pending)
        };
        records.extend(extra);
        let barrier_due = sync && self.unsynced.load(Ordering::Relaxed);
        if records.is_empty() && !barrier_due {
            return !self.degraded.load(Ordering::Relaxed);
        }
        if self.degraded.load(Ordering::Relaxed) {
            return false;
        }
        let req = AppendRequest {
            fingerprint,
            shard: self.shard,
            generation: self.generation,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            sync,
            records,
        };
        match self.client.append(&req) {
            AppendOutcome::Applied | AppendOutcome::Duplicate => {
                self.unsynced.store(!sync, Ordering::Relaxed);
                true
            }
            AppendOutcome::Degraded => {
                self.degraded.store(true, Ordering::Relaxed);
                false
            }
        }
    }
}

impl CellJournal for RemoteJournal {
    fn record_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) -> bool {
        self.flush(
            fingerprint,
            true,
            Some(RecordMsg::Cell {
                cell,
                tally: *tally,
            }),
        )
    }

    fn sync(&self) -> bool {
        let fingerprint = self.fingerprint.load(Ordering::Relaxed);
        self.flush(fingerprint, true, None) && !self.degraded.load(Ordering::Relaxed)
    }

    fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

impl ShardJournal for RemoteJournal {
    fn advance_lease(&self, fingerprint: u64, shard: u32, lease: &LeaseRecord) -> LeaseAdvance {
        self.fingerprint.store(fingerprint, Ordering::Relaxed);
        self.client.advance_lease(fingerprint, shard, lease)
    }

    fn record_inherited_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) {
        self.fingerprint.store(fingerprint, Ordering::Relaxed);
        let flush_now = {
            let mut pending = self.pending.lock().expect("pending poisoned");
            pending.push(RecordMsg::Inherited {
                cell,
                tally: *tally,
            });
            pending.len() >= INHERIT_CHUNK
        };
        if flush_now {
            // Chunk boundary: ship unsynced, like local inherited puts.
            self.flush(fingerprint, false, None);
        }
    }

    fn record_shard_stats(&self, fingerprint: u64, shard: u32, stats: &ShardGenStats) -> bool {
        debug_assert_eq!(shard, self.shard);
        self.flush(fingerprint, true, Some(RecordMsg::Stats { stats: *stats }))
    }

    fn prior_generation_cells(
        &self,
        fingerprint: u64,
        generation: u32,
    ) -> io::Result<Vec<(u64, ProblemTally)>> {
        self.client.fetch_cells(fingerprint, self.shard, generation)
    }
}

/// A [`ShardLauncher`] spawning worker *processes* armed to talk to a
/// network coordinator: [`ProcessLauncher`] semantics (SIGKILL-able
/// children, per-generation relaunches) plus `--transport http
/// --coord-addr` so the child journals over the wire instead of the
/// shared filesystem.
#[derive(Debug, Clone)]
pub struct RemoteLauncher {
    inner: ProcessLauncher,
}

impl RemoteLauncher {
    /// A launcher for `program` with `base_args`, pointing workers at
    /// the coordinator on `coord_addr`.
    pub fn new(program: PathBuf, base_args: Vec<String>, coord_addr: SocketAddr) -> Self {
        let mut args = base_args;
        args.push("--transport".to_string());
        args.push("http".to_string());
        args.push("--coord-addr".to_string());
        args.push(coord_addr.to_string());
        RemoteLauncher {
            inner: ProcessLauncher {
                program,
                base_args: args,
            },
        }
    }
}

impl ShardLauncher for RemoteLauncher {
    fn launch(
        &self,
        workload: &Arc<ShardWorkload>,
        request: &WorkerRequest,
    ) -> io::Result<Box<dyn ShardWorkerHandle>> {
        self.inner.launch(workload, request)
    }
}
