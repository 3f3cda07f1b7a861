//! The journal seams between a campaign worker and wherever its records
//! durably land.
//!
//! [`CellJournal`] is the one seam every worker records cells through:
//! the in-process engine journals into the campaign's [`EvalStore`], a
//! shard worker into its own `(shard, generation)` journal. Its
//! [`CellJournal::record_cell`] is the durability barrier a cell passes
//! before it counts as complete.
//!
//! [`ShardJournal`] extends it with what only a shard worker does:
//! claim and renew its lease, inherit the cells of prior generations
//! and record its completion statistics. [`LocalShardJournal`] writes a
//! store directory on a filesystem the supervisor shares; a remote
//! journal ships the same records over the wire to a coordinator that
//! owns the store. The worker body — claim, inherit, evaluate,
//! heartbeat, stats — is identical over both.
//!
//! Every method mirrors an [`EvalStore`] operation, including its
//! durability contract: inherited cells are unsynced until
//! [`CellJournal::sync`]; fresh cells and stats carry their own
//! barrier.

use crate::passk::ProblemTally;
use crate::persist::{EvalSnapshot, EvalStore, LeaseAdvance, LeaseRecord, ShardGenStats};
use crate::shard::shard_journal_dir;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};

/// Where a worker's cell records go. See the module docs for the
/// durability contract.
pub trait CellJournal: Send + Sync {
    /// Journals one freshly evaluated cell, then syncs. Returns whether
    /// the record is durable; `false` marks the journal degraded.
    fn record_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) -> bool;

    /// Durability barrier for everything journalled so far. Returns
    /// `false` when the journal is (or just became) degraded.
    fn sync(&self) -> bool;

    /// Whether a write failure has degraded the journal. A degraded
    /// journal stops accepting writes; a shard worker's lease stops
    /// advancing and the supervisor reassigns the shard.
    fn degraded(&self) -> bool;
}

/// A handle to an [`EvalStore`] journals into it: the engine's
/// [`SharedEvalStore`](crate::persist::SharedEvalStore) and a
/// [`LocalShardJournal`] alike.
impl<J> CellJournal for J
where
    J: Deref<Target = EvalStore> + Send + Sync,
{
    fn record_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) -> bool {
        EvalStore::record_cell(self, fingerprint, cell, tally)
    }

    fn sync(&self) -> bool {
        EvalStore::sync(self)
    }

    fn degraded(&self) -> bool {
        EvalStore::degraded(self)
    }
}

/// Where a shard worker's records go — local store or remote
/// coordinator. See the module docs for the durability contract.
pub trait ShardJournal: CellJournal {
    /// Claims or renews the worker's lease with compare-and-swap
    /// semantics (see [`EvalStore::advance_lease`]). A successful claim
    /// is durable before this returns.
    fn advance_lease(&self, fingerprint: u64, shard: u32, lease: &LeaseRecord) -> LeaseAdvance;

    /// Journals one cell inherited from a prior generation (cell record
    /// plus inherit mark), unsynced — the restore pass calls
    /// [`CellJournal::sync`] once at its end.
    fn record_inherited_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally);

    /// Journals the generation's completion statistics, then syncs.
    fn record_shard_stats(&self, fingerprint: u64, shard: u32, stats: &ShardGenStats) -> bool;

    /// The completed cells a *prior* generation of this shard
    /// journalled — what a takeover worker inherits.
    ///
    /// # Errors
    ///
    /// Propagates IO (or transport) failures reading the prior
    /// generation's journal.
    fn prior_generation_cells(
        &self,
        fingerprint: u64,
        generation: u32,
    ) -> io::Result<Vec<(u64, ProblemTally)>>;
}

/// The shared-filesystem journal: an [`EvalStore`] opened on the
/// worker's own `(shard, generation)` directory, prior generations read
/// as sibling-directory snapshots. It derefs to that store, which
/// records its cells.
pub struct LocalShardJournal {
    store: EvalStore,
    root: PathBuf,
    shard: u32,
}

impl LocalShardJournal {
    /// Opens (creating if needed) the journal directory of
    /// `(shard, generation)` under `root`.
    ///
    /// # Errors
    ///
    /// Propagates IO failures opening the store directory.
    pub fn open(root: &Path, shard: u32, generation: u32) -> io::Result<Self> {
        Ok(LocalShardJournal {
            store: EvalStore::open(shard_journal_dir(root, shard, generation))?,
            root: root.to_path_buf(),
            shard,
        })
    }
}

impl Deref for LocalShardJournal {
    type Target = EvalStore;

    fn deref(&self) -> &EvalStore {
        &self.store
    }
}

impl ShardJournal for LocalShardJournal {
    fn advance_lease(&self, fingerprint: u64, shard: u32, lease: &LeaseRecord) -> LeaseAdvance {
        self.store.advance_lease(fingerprint, shard, lease)
    }

    fn record_inherited_cell(&self, fingerprint: u64, cell: u64, tally: &ProblemTally) {
        self.store.record_inherited_cell(fingerprint, cell, tally);
    }

    fn record_shard_stats(&self, fingerprint: u64, shard: u32, stats: &ShardGenStats) -> bool {
        self.store.record_shard_stats(fingerprint, shard, stats)
    }

    fn prior_generation_cells(
        &self,
        fingerprint: u64,
        generation: u32,
    ) -> io::Result<Vec<(u64, ProblemTally)>> {
        let snap = EvalSnapshot::load(shard_journal_dir(&self.root, self.shard, generation))?;
        Ok(snap.completed_cells(fingerprint))
    }
}
