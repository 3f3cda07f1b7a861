//! The coordinator: the single owner of a campaign's shard journals,
//! driven entirely by `/v1/coord/*` requests.
//!
//! Remote workers never touch the journal filesystem — they ship lease
//! advances and record batches here, and the coordinator applies them
//! to exactly the per-`(shard, generation)` [`EvalStore`] directories a
//! local worker would have written. The supervisor keeps polling those
//! directories read-only, unchanged: from its point of view a remote
//! campaign is indistinguishable from a local one.
//!
//! **Exactly-once appends.** Every batch carries a
//! `(fingerprint, seq)` dedup key. The coordinator applies the batch's
//! records first and the applied marker *after* them (all idempotent
//! puts), so whatever a crash interleaves, a replayed delivery either
//! finds the marker (pure duplicate — dropped) or re-applies idempotent
//! puts over identical keys. The marker set is rebuilt from the journal
//! on restart, so dedup survives a coordinator crash mid-campaign.

use crate::proto::{
    self, AppendOutcome, AppendRequest, CellsRequest, CoordCounters, CoordState, LeaseRequest,
    ProtoError, RecordMsg, ShardStateMsg, StateRequest,
};
use picbench_core::{
    collect_shard_cells, shard_journal_dir, EvalStore, LeaseAdvance, ProblemTally,
};
use picbench_netlist::json::{self, Value};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An HTTP status code plus JSON body. `Coordinator::handle` produces
/// one, transport-agnostic so the loopback transport and the server
/// route share one implementation; [`read_response`](crate::read_response)
/// reads one off the wire for every HTTP client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordReply {
    /// Status code (a coordinator answers 200 applied, 400 malformed,
    /// 404 unknown op, 503 store unavailable).
    pub status: u16,
    /// The body, decoded as UTF-8.
    pub body: String,
}

impl CoordReply {
    /// Parses the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse error message when the body is not JSON.
    pub fn json(&self) -> Result<Value, String> {
        json::parse(&self.body).map_err(|e| e.to_string())
    }
}

struct CoordEntry {
    store: EvalStore,
    /// `(fingerprint, seq)` pairs already applied — the exactly-once
    /// dedup set, rebuilt from the journal's applied markers on open.
    applied: Mutex<HashSet<(u64, u64)>>,
}

/// The journal owner behind the `/v1/coord/*` routes. One per campaign
/// root; cheap to construct (stores open lazily per
/// `(shard, generation)` on first touch, and reload their applied
/// markers — restart safety comes for free from the journal itself).
pub struct Coordinator {
    root: PathBuf,
    entries: Mutex<HashMap<(u32, u32), Arc<CoordEntry>>>,
    claims: AtomicU64,
    renewals: AtomicU64,
    fenced: AtomicU64,
    appends: AtomicU64,
    records: AtomicU64,
    duplicates: AtomicU64,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("root", &self.root)
            .finish()
    }
}

impl Coordinator {
    /// A coordinator over the shard-journal root directory. Nothing is
    /// opened yet; stores open lazily as shards first write.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Coordinator {
            root: root.into(),
            entries: Mutex::new(HashMap::new()),
            claims: AtomicU64::new(0),
            renewals: AtomicU64::new(0),
            fenced: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            records: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// The shard-journal root this coordinator owns.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Cumulative counters since this coordinator instance started
    /// (a restart resets them; the journal, not the counters, is the
    /// durable state).
    pub fn counters(&self) -> CoordCounters {
        CoordCounters {
            claims: self.claims.load(Ordering::Relaxed),
            renewals: self.renewals.load(Ordering::Relaxed),
            fenced: self.fenced.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
        }
    }

    fn entry(&self, shard: u32, generation: u32) -> io::Result<Arc<CoordEntry>> {
        let mut entries = self.entries.lock().expect("entries poisoned");
        if let Some(entry) = entries.get(&(shard, generation)) {
            return Ok(Arc::clone(entry));
        }
        let store = EvalStore::open(shard_journal_dir(&self.root, shard, generation))?;
        let applied = store.applied_records().into_iter().collect();
        let entry = Arc::new(CoordEntry {
            store,
            applied: Mutex::new(applied),
        });
        entries.insert((shard, generation), Arc::clone(&entry));
        Ok(entry)
    }

    /// Handles one coord operation (`lease`, `append`, `cells`,
    /// `state`) with a JSON request body. Never panics on malformed
    /// input — bad bodies get a 400 reply, unknown ops a 404, store
    /// open failures a 503 (transient to the client's retry policy).
    pub fn handle(&self, op: &str, body: &str) -> CoordReply {
        let result = match op {
            "lease" => LeaseRequest::decode(body).map(|req| self.handle_lease(&req)),
            "append" => AppendRequest::decode(body).map(|req| self.handle_append(&req)),
            "cells" => CellsRequest::decode(body).map(|req| self.handle_cells(&req)),
            "state" => StateRequest::decode(body).map(|req| self.handle_state(&req)),
            _ => {
                return CoordReply {
                    status: 404,
                    body: error_body(&format!("unknown coord op `{op}`")),
                }
            }
        };
        match result {
            Ok(reply) => reply,
            Err(ProtoError(msg)) => CoordReply {
                status: 400,
                body: error_body(&msg),
            },
        }
    }

    fn handle_lease(&self, req: &LeaseRequest) -> CoordReply {
        let entry = match self.entry(req.shard, req.lease.generation) {
            Ok(entry) => entry,
            Err(err) => return unavailable(&err),
        };
        let outcome = entry
            .store
            .advance_lease(req.fingerprint, req.shard, &req.lease);
        match outcome {
            LeaseAdvance::Claimed => self.claims.fetch_add(1, Ordering::Relaxed),
            LeaseAdvance::Renewed => self.renewals.fetch_add(1, Ordering::Relaxed),
            LeaseAdvance::Fenced => self.fenced.fetch_add(1, Ordering::Relaxed),
            LeaseAdvance::Degraded => 0,
        };
        CoordReply {
            status: 200,
            body: proto::encode_lease_reply(outcome),
        }
    }

    fn handle_append(&self, req: &AppendRequest) -> CoordReply {
        let entry = match self.entry(req.shard, req.generation) {
            Ok(entry) => entry,
            Err(err) => return unavailable(&err),
        };
        // The applied lock is held across the whole apply so a
        // concurrent duplicate of the same batch cannot interleave —
        // the second delivery sees either nothing or the marker.
        let mut applied = entry.applied.lock().expect("applied poisoned");
        let dedup_key = (req.fingerprint, req.seq);
        if applied.contains(&dedup_key) {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return CoordReply {
                status: 200,
                body: proto::encode_append_reply(AppendOutcome::Duplicate),
            };
        }
        for record in &req.records {
            match record {
                RecordMsg::Cell { cell, tally } => {
                    entry.store.journal_cell(req.fingerprint, *cell, tally);
                }
                RecordMsg::Inherited { cell, tally } => {
                    entry
                        .store
                        .record_inherited_cell(req.fingerprint, *cell, tally);
                }
                RecordMsg::Stats { stats } => {
                    entry
                        .store
                        .record_shard_stats(req.fingerprint, req.shard, stats);
                }
            }
        }
        entry.store.record_applied(req.fingerprint, req.seq);
        if req.sync {
            entry.store.sync();
        }
        let outcome = if entry.store.degraded() {
            // Not marked applied: nothing about this batch is known
            // durable, so a retry must be allowed to try again.
            AppendOutcome::Degraded
        } else {
            applied.insert(dedup_key);
            self.appends.fetch_add(1, Ordering::Relaxed);
            self.records
                .fetch_add(req.records.len() as u64, Ordering::Relaxed);
            AppendOutcome::Applied
        };
        CoordReply {
            status: 200,
            body: proto::encode_append_reply(outcome),
        }
    }

    fn handle_cells(&self, req: &CellsRequest) -> CoordReply {
        let entry = match self.entry(req.shard, req.generation) {
            Ok(entry) => entry,
            Err(err) => return unavailable(&err),
        };
        let cells = entry.store.completed_cells(req.fingerprint);
        CoordReply {
            status: 200,
            body: proto::encode_cells_reply(&cells),
        }
    }

    fn handle_state(&self, req: &StateRequest) -> CoordReply {
        let collected = match collect_shard_cells(&self.root, req.fingerprint) {
            Ok(collected) => collected,
            Err(err) => return unavailable(&err),
        };
        let mut merged: HashMap<u64, ProblemTally> = HashMap::new();
        let mut shards = Vec::with_capacity(collected.len());
        for shard in &collected {
            for (key, tally) in &shard.cells {
                merged.insert(*key, *tally);
            }
            shards.push(ShardStateMsg {
                shard: shard.shard,
                generation: shard.generation,
                cells: shard.cells.len() as u64,
                quarantined: shard.quarantined as u64,
            });
        }
        let mut cells: Vec<(u64, ProblemTally)> = merged.into_iter().collect();
        cells.sort_unstable_by_key(|(key, _)| *key);
        let state = CoordState {
            shards,
            cells,
            counters: self.counters(),
        };
        CoordReply {
            status: 200,
            body: proto::encode_state_reply(&state),
        }
    }
}

fn error_body(msg: &str) -> String {
    json::to_string(&Value::Object(vec![(
        "error".to_string(),
        Value::String(msg.to_string()),
    )]))
}

fn unavailable(err: &io::Error) -> CoordReply {
    CoordReply {
        status: 503,
        body: error_body(&format!("coordinator store unavailable: {err}")),
    }
}
