//! Shard planning and deterministic multi-shard merge.
//!
//! A sharded campaign partitions the canonical problem-major cell list
//! into contiguous, balanced ranges — one per shard — under the same
//! campaign fingerprint as a single-process run (the shard count is a
//! scheduling knob, excluded from the fingerprint, so journals written
//! under any shard count recombine). Each worker journals its cells
//! into `<root>/shard-NNN/gen-GGG/`; a takeover bumps the generation,
//! which is the fence: the merge reads only each shard's *final*
//! generation, so journal writes from a superseded worker are
//! quarantined without any cross-process coordination.
//!
//! The merge itself is a union keyed by cell journal keys with a global
//! coverage check — deliberately independent of how cells were
//! partitioned, which is what the any-partition merge property test
//! exercises — followed by the same fold (`CellMatrix::report`) the
//! in-process engine uses. Same tallies, same fold ⇒ bit-identical report.

use crate::campaign::{Campaign, CampaignReport, CellMatrix};
use crate::passk::ProblemTally;
use crate::persist::{EvalSnapshot, ShardGenStats};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A deterministic partition of the campaign's cell space into
/// contiguous, balanced shards.
///
/// `partition(total, n)` always yields the same ranges for the same
/// inputs: the first `total % n` shards get one extra cell. Stable
/// across runs by construction — there is no randomness to disagree
/// about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Partitions `total` cells into `shards` contiguous ranges (a
    /// shard count of 0 is treated as 1).
    pub fn partition(total: usize, shards: u32) -> ShardPlan {
        let shards = (shards.max(1) as usize).min(total.max(1));
        let base = total / shards;
        let extra = total % shards;
        let ranges = (0..shards)
            .map(|i| {
                let start = i * base + i.min(extra);
                let len = base + usize::from(i < extra);
                start..start + len
            })
            .collect();
        ShardPlan { ranges }
    }

    /// Number of shards in the plan (possibly fewer than requested when
    /// there are fewer cells than shards).
    pub fn shards(&self) -> u32 {
        self.ranges.len() as u32
    }

    /// The contiguous cell-index range assigned to one shard.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= self.shards()`.
    pub fn cells(&self, shard: u32) -> Range<usize> {
        self.ranges[shard as usize].clone()
    }
}

/// The journal directory of one `(shard, generation)`:
/// `<root>/shard-NNN/gen-GGG/`. Each directory has exactly one writer
/// ever — the worker launched for that generation — preserving the
/// store's single-writer invariant across processes.
pub fn shard_journal_dir(root: &Path, shard: u32, generation: u32) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
        .join(format!("gen-{generation:03}"))
}

/// The highest generation directory present for a shard, if any.
pub(crate) fn latest_generation(root: &Path, shard: u32) -> io::Result<Option<u32>> {
    let dir = root.join(format!("shard-{shard:03}"));
    let mut latest = None;
    match std::fs::read_dir(&dir) {
        Ok(entries) => {
            for entry in entries {
                let name = entry?.file_name();
                if let Some(gen) = name
                    .to_string_lossy()
                    .strip_prefix("gen-")
                    .and_then(|g| g.parse::<u32>().ok())
                {
                    latest = latest.max(Some(gen));
                }
            }
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => {}
        Err(err) => return Err(err),
    }
    Ok(latest)
}

/// The shard directories present under a root, ascending.
pub(crate) fn shard_ids(root: &Path) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    match std::fs::read_dir(root) {
        Ok(entries) => {
            for entry in entries {
                let name = entry?.file_name();
                if let Some(id) = name
                    .to_string_lossy()
                    .strip_prefix("shard-")
                    .and_then(|s| s.parse::<u32>().ok())
                {
                    ids.push(id);
                }
            }
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => {}
        Err(err) => return Err(err),
    }
    ids.sort_unstable();
    Ok(ids)
}

/// What one shard contributed to a merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMergeInfo {
    /// Shard index.
    pub shard: u32,
    /// The final (merged) generation of the shard.
    pub generation: u32,
    /// Cells the final generation's journal contributed.
    pub cells: usize,
    /// Records quarantined from stale generations: cells journalled by
    /// superseded workers after their fence that the final generation
    /// never inherited.
    pub quarantined: usize,
}

/// A successful multi-shard merge.
#[derive(Debug)]
pub struct ShardMergeOutcome {
    /// The merged report — bit-identical to a single-process run of the
    /// same campaign (`cache_stats` is `None`: merges read journals,
    /// they evaluate nothing).
    pub report: CampaignReport,
    /// Per-shard contributions, ascending by shard index.
    pub shards: Vec<ShardMergeInfo>,
    /// Total cells shard workers inherited from prior generations
    /// (work that was *not* redone thanks to journal resume).
    pub restored: u64,
    /// Total cells shard workers evaluated fresh, summed over final
    /// generations.
    pub evaluated: u64,
}

/// Why a multi-shard merge failed.
#[derive(Debug)]
pub enum ShardMergeError {
    /// Reading a shard journal failed outright.
    Io(io::Error),
    /// The union of all final-generation journals does not cover the
    /// campaign's cell matrix — the campaign has not finished (or the
    /// root holds journals of a different campaign fingerprint).
    MissingCells {
        /// Cells with no journal record.
        missing: usize,
        /// Total cells in the matrix.
        total: usize,
    },
}

impl fmt::Display for ShardMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardMergeError::Io(err) => write!(f, "shard journal IO error: {err}"),
            ShardMergeError::MissingCells { missing, total } => {
                write!(
                    f,
                    "shard journals cover only {}/{total} cells",
                    total - missing
                )
            }
        }
    }
}

impl std::error::Error for ShardMergeError {}

impl From<io::Error> for ShardMergeError {
    fn from(err: io::Error) -> Self {
        ShardMergeError::Io(err)
    }
}

/// The raw journal contents of one shard under a campaign root: its
/// final (merge-visible) generation's cells plus the quarantine and
/// statistics accounting over every stale generation.
///
/// This is the shared read path under the supervisor's journal merge, the
/// coordinator's merged-state route, and the chaos drills' independent
/// quarantine recount — one definition of "what a shard contributed",
/// so they cannot disagree.
#[derive(Debug, Clone)]
pub struct ShardCells {
    /// Shard index.
    pub shard: u32,
    /// The final generation present — the only one whose cells merge.
    pub generation: u32,
    /// The final generation's completed cells (unordered; may include
    /// keys outside this campaign's matrix, which merges ignore).
    pub cells: Vec<(u64, ProblemTally)>,
    /// Cells journalled by superseded generations after their fence
    /// that no successor inherit-marked — counted, never merged.
    pub quarantined: usize,
    /// The final generation's completion statistics, if its worker
    /// finished.
    pub stats: Option<ShardGenStats>,
}

/// Reads every shard journal under `root`, ascending by shard index:
/// final-generation cells, stale-generation quarantine accounting and
/// completion statistics. See the module docs for the fencing
/// semantics this encodes.
///
/// # Errors
///
/// Propagates IO failures reading existing journal directories (a
/// missing directory reads as empty, not as an error).
pub fn collect_shard_cells(root: &Path, fingerprint: u64) -> io::Result<Vec<ShardCells>> {
    let mut collected = Vec::new();
    for shard in shard_ids(root)? {
        let Some(final_gen) = latest_generation(root, shard)? else {
            continue;
        };
        let snap = EvalSnapshot::load(shard_journal_dir(root, shard, final_gen))?;
        // Stale generations are fenced: a record some successor
        // inherit-marked during its restore pass was written before that
        // successor's fence; anything else a stale generation holds
        // landed after it was superseded — counted, never merged.
        let mut quarantined = 0;
        if final_gen > 0 {
            let mut inherited: HashSet<u64> =
                snap.inherited_cells(fingerprint).into_iter().collect();
            let mut stale_keys: Vec<u64> = Vec::new();
            for generation in 0..final_gen {
                let stale = EvalSnapshot::load(shard_journal_dir(root, shard, generation))?;
                inherited.extend(stale.inherited_cells(fingerprint));
                stale_keys.extend(
                    stale
                        .completed_cells(fingerprint)
                        .into_iter()
                        .map(|(k, _)| k),
                );
            }
            quarantined = stale_keys
                .iter()
                .filter(|key| !inherited.contains(key))
                .count();
        }
        collected.push(ShardCells {
            shard,
            generation: final_gen,
            cells: snap.completed_cells(fingerprint),
            quarantined,
            stats: snap.shard_stats(fingerprint, shard),
        });
    }
    Ok(collected)
}

/// Merges every shard's final-generation journal under `root` into one
/// report. See the module docs for the fencing/quarantine semantics.
pub(crate) fn merge_shard_journals(
    matrix: &CellMatrix,
    root: &Path,
) -> Result<ShardMergeOutcome, ShardMergeError> {
    let cell_keys = &matrix.keys;
    let key_to_index: HashMap<u64, usize> = cell_keys
        .iter()
        .enumerate()
        .map(|(index, &key)| (key, index))
        .collect();
    let mut by_cell: Vec<Option<ProblemTally>> = vec![None; cell_keys.len()];
    let mut shards = Vec::new();
    let mut restored = 0u64;
    let mut evaluated = 0u64;
    for collected in collect_shard_cells(root, matrix.fingerprint)? {
        let mut contributed = 0;
        for (key, tally) in &collected.cells {
            if let Some(&index) = key_to_index.get(key) {
                by_cell[index] = Some(*tally);
                contributed += 1;
            }
        }
        if let Some(stats) = collected.stats {
            restored += stats.restored;
            evaluated += stats.evaluated;
        }
        shards.push(ShardMergeInfo {
            shard: collected.shard,
            generation: collected.generation,
            cells: contributed,
            quarantined: collected.quarantined,
        });
    }
    let missing = by_cell.iter().filter(|cell| cell.is_none()).count();
    if missing > 0 {
        return Err(ShardMergeError::MissingCells {
            missing,
            total: cell_keys.len(),
        });
    }
    let report = matrix.report(&by_cell, None);
    Ok(ShardMergeOutcome {
        report,
        shards,
        restored,
        evaluated,
    })
}

impl Campaign {
    /// Merges the per-shard journals under `root` into a report without
    /// launching any workers — the offline half of a sharded run, also
    /// reachable on its own to combine journals a previous (possibly
    /// crashed) supervisor left behind.
    ///
    /// # Errors
    ///
    /// [`ShardMergeError::MissingCells`] when the journals do not cover
    /// the full matrix; [`ShardMergeError::Io`] on unreadable journals.
    pub fn merge_from_shards(&self, root: &Path) -> Result<ShardMergeOutcome, ShardMergeError> {
        let matrix = CellMatrix::new(&self.problems, &self.providers, &self.config);
        merge_shard_journals(&matrix, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_disjoint_complete_and_balanced() {
        for total in [0, 1, 7, 8, 16, 23] {
            for shards in 1..=8u32 {
                let plan = ShardPlan::partition(total, shards);
                let mut covered = vec![false; total];
                let mut sizes = Vec::new();
                for shard in 0..plan.shards() {
                    let range = plan.cells(shard);
                    sizes.push(range.len());
                    for cell in range {
                        assert!(!covered[cell], "cell {cell} assigned twice");
                        covered[cell] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "total {total} shards {shards}");
                let (min, max) = (
                    sizes.iter().min().copied().unwrap_or(0),
                    sizes.iter().max().copied().unwrap_or(0),
                );
                assert!(max - min <= 1, "unbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn partition_is_stable_and_clamps_degenerate_inputs() {
        assert_eq!(ShardPlan::partition(10, 4), ShardPlan::partition(10, 4));
        // Shard count 0 behaves as 1.
        assert_eq!(ShardPlan::partition(5, 0).shards(), 1);
        assert_eq!(ShardPlan::partition(5, 0).cells(0), 0..5);
        // More shards than cells: one cell per shard, none empty.
        let plan = ShardPlan::partition(3, 8);
        assert_eq!(plan.shards(), 3);
        for shard in 0..3 {
            assert_eq!(plan.cells(shard).len(), 1);
        }
    }

    #[test]
    fn journal_dirs_are_per_shard_per_generation() {
        let root = Path::new("/tmp/x");
        assert_eq!(
            shard_journal_dir(root, 2, 0),
            Path::new("/tmp/x/shard-002/gen-000")
        );
        assert_ne!(shard_journal_dir(root, 1, 0), shard_journal_dir(root, 1, 1));
    }
}
