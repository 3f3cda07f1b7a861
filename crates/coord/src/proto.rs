//! Wire types of the `/v1/coord/*` protocol.
//!
//! Every request is a `POST` with a small JSON body; every reply is a
//! sized JSON object. Numbers that carry 64-bit identifiers
//! (fingerprints, cell keys, seqs) are encoded as [`Value::Uint`] so
//! they round-trip exactly — the same convention as the server's event
//! wire format.
//!
//! The append protocol is **idempotent by construction**: a batch is
//! keyed by `(campaign fingerprint, shard, generation, record seq)` and
//! the coordinator remembers applied `(fingerprint, seq)` pairs
//! durably, so a duplicated, reordered or replayed delivery — including
//! one replayed across a coordinator restart — answers
//! [`AppendOutcome::Duplicate`] instead of double-applying.

use picbench_core::{LeaseAdvance, LeaseRecord, ProblemTally, ShardGenStats};
use picbench_netlist::json::{self, Value};
use std::fmt;

/// A `u64` as a JSON value that round-trips exactly.
pub fn num(v: u64) -> Value {
    Value::Uint(v)
}

/// A malformed protocol body: what was wrong, for the 400 reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed coord request: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn bad(what: &str) -> ProtoError {
    ProtoError(what.to_string())
}

fn parse_body(body: &str) -> Result<Value, ProtoError> {
    json::parse(body).map_err(|err| ProtoError(format!("invalid JSON: {err}")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, ProtoError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| ProtoError(format!("missing or non-integer `{key}`")))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, ProtoError> {
    u32::try_from(u64_field(v, key)?).map_err(|_| ProtoError(format!("`{key}` out of range")))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, ProtoError> {
    usize::try_from(u64_field(v, key)?).map_err(|_| ProtoError(format!("`{key}` out of range")))
}

fn bool_field(v: &Value, key: &str) -> Result<bool, ProtoError> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(ProtoError(format!("missing or non-boolean `{key}`"))),
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, ProtoError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError(format!("missing or non-string `{key}`")))
}

fn tally_fields(v: &Value) -> Result<ProblemTally, ProtoError> {
    Ok(ProblemTally {
        n: usize_field(v, "n")?,
        syntax_passes: usize_field(v, "syntax")?,
        functional_passes: usize_field(v, "functional")?,
    })
}

fn tally_entries(tally: &ProblemTally) -> Vec<(String, Value)> {
    vec![
        ("n".to_string(), num(tally.n as u64)),
        ("syntax".to_string(), num(tally.syntax_passes as u64)),
        (
            "functional".to_string(),
            num(tally.functional_passes as u64),
        ),
    ]
}

// ---------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------

/// One journal record inside an append batch — the wire mirror of
/// [`CellJournal::record_cell`](picbench_core::CellJournal::record_cell)
/// and the [`ShardJournal`](picbench_core::ShardJournal) write operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordMsg {
    /// A freshly evaluated cell.
    Cell {
        /// Cell journal key.
        cell: u64,
        /// The cell's tally.
        tally: ProblemTally,
    },
    /// A cell inherited from a prior generation (cell record plus
    /// inherit mark).
    Inherited {
        /// Cell journal key.
        cell: u64,
        /// The cell's tally.
        tally: ProblemTally,
    },
    /// The generation's completion statistics.
    Stats {
        /// Restored/evaluated counts.
        stats: ShardGenStats,
    },
}

impl RecordMsg {
    /// Encodes the record as a JSON object.
    pub fn to_value(&self) -> Value {
        match self {
            RecordMsg::Cell { cell, tally } => {
                let mut entries = vec![
                    ("kind".to_string(), Value::String("cell".to_string())),
                    ("cell".to_string(), num(*cell)),
                ];
                entries.extend(tally_entries(tally));
                Value::Object(entries)
            }
            RecordMsg::Inherited { cell, tally } => {
                let mut entries = vec![
                    ("kind".to_string(), Value::String("inherit".to_string())),
                    ("cell".to_string(), num(*cell)),
                ];
                entries.extend(tally_entries(tally));
                Value::Object(entries)
            }
            RecordMsg::Stats { stats } => Value::Object(vec![
                ("kind".to_string(), Value::String("stats".to_string())),
                ("restored".to_string(), num(stats.restored)),
                ("evaluated".to_string(), num(stats.evaluated)),
            ]),
        }
    }

    /// Decodes a record object.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on an unknown kind or missing field.
    pub fn from_value(v: &Value) -> Result<RecordMsg, ProtoError> {
        match str_field(v, "kind")? {
            "cell" => Ok(RecordMsg::Cell {
                cell: u64_field(v, "cell")?,
                tally: tally_fields(v)?,
            }),
            "inherit" => Ok(RecordMsg::Inherited {
                cell: u64_field(v, "cell")?,
                tally: tally_fields(v)?,
            }),
            "stats" => Ok(RecordMsg::Stats {
                stats: ShardGenStats {
                    restored: u64_field(v, "restored")?,
                    evaluated: u64_field(v, "evaluated")?,
                },
            }),
            other => Err(ProtoError(format!("unknown record kind `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// `POST /v1/coord/lease` — claim or renew a shard lease.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRequest {
    /// Campaign fingerprint.
    pub fingerprint: u64,
    /// Shard index.
    pub shard: u32,
    /// The lease record to CAS in.
    pub lease: LeaseRecord,
}

impl LeaseRequest {
    /// Encodes the request body.
    pub fn encode(&self) -> String {
        json::to_string(&Value::Object(vec![
            ("fingerprint".to_string(), num(self.fingerprint)),
            ("shard".to_string(), num(u64::from(self.shard))),
            (
                "generation".to_string(),
                num(u64::from(self.lease.generation)),
            ),
            ("worker".to_string(), num(self.lease.worker)),
            ("seq".to_string(), num(self.lease.seq)),
            ("stamp_ms".to_string(), num(self.lease.stamp_ms)),
        ]))
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON or missing fields.
    pub fn decode(body: &str) -> Result<LeaseRequest, ProtoError> {
        let v = parse_body(body)?;
        Ok(LeaseRequest {
            fingerprint: u64_field(&v, "fingerprint")?,
            shard: u32_field(&v, "shard")?,
            lease: LeaseRecord {
                generation: u32_field(&v, "generation")?,
                worker: u64_field(&v, "worker")?,
                seq: u64_field(&v, "seq")?,
                stamp_ms: u64_field(&v, "stamp_ms")?,
            },
        })
    }
}

/// `POST /v1/coord/append` — an idempotent journal-record batch.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendRequest {
    /// Campaign fingerprint.
    pub fingerprint: u64,
    /// Shard index.
    pub shard: u32,
    /// Lease generation the records belong to.
    pub generation: u32,
    /// Strictly increasing per-worker batch sequence number — with the
    /// fingerprint, the exactly-once dedup key.
    pub seq: u64,
    /// Whether the coordinator must fsync after applying the batch.
    pub sync: bool,
    /// The records, applied in order.
    pub records: Vec<RecordMsg>,
}

impl AppendRequest {
    /// Encodes the request body.
    pub fn encode(&self) -> String {
        json::to_string(&Value::Object(vec![
            ("fingerprint".to_string(), num(self.fingerprint)),
            ("shard".to_string(), num(u64::from(self.shard))),
            ("generation".to_string(), num(u64::from(self.generation))),
            ("seq".to_string(), num(self.seq)),
            ("sync".to_string(), Value::Bool(self.sync)),
            (
                "records".to_string(),
                Value::Array(self.records.iter().map(RecordMsg::to_value).collect()),
            ),
        ]))
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON, missing fields or an unknown
    /// record kind.
    pub fn decode(body: &str) -> Result<AppendRequest, ProtoError> {
        let v = parse_body(body)?;
        let records = v
            .get("records")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("missing `records` array"))?
            .iter()
            .map(RecordMsg::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AppendRequest {
            fingerprint: u64_field(&v, "fingerprint")?,
            shard: u32_field(&v, "shard")?,
            generation: u32_field(&v, "generation")?,
            seq: u64_field(&v, "seq")?,
            sync: bool_field(&v, "sync")?,
            records,
        })
    }
}

/// `POST /v1/coord/cells` — the completed cells of one
/// `(shard, generation)` journal, read by takeover workers inheriting
/// prior generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellsRequest {
    /// Campaign fingerprint.
    pub fingerprint: u64,
    /// Shard index.
    pub shard: u32,
    /// Generation whose journal to read.
    pub generation: u32,
}

impl CellsRequest {
    /// Encodes the request body.
    pub fn encode(&self) -> String {
        json::to_string(&Value::Object(vec![
            ("fingerprint".to_string(), num(self.fingerprint)),
            ("shard".to_string(), num(u64::from(self.shard))),
            ("generation".to_string(), num(u64::from(self.generation))),
        ]))
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON or missing fields.
    pub fn decode(body: &str) -> Result<CellsRequest, ProtoError> {
        let v = parse_body(body)?;
        Ok(CellsRequest {
            fingerprint: u64_field(&v, "fingerprint")?,
            shard: u32_field(&v, "shard")?,
            generation: u32_field(&v, "generation")?,
        })
    }
}

/// `POST /v1/coord/state` — merged-state fetch over every shard's final
/// generation, plus the coordinator's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRequest {
    /// Campaign fingerprint.
    pub fingerprint: u64,
}

impl StateRequest {
    /// Encodes the request body.
    pub fn encode(&self) -> String {
        json::to_string(&Value::Object(vec![(
            "fingerprint".to_string(),
            num(self.fingerprint),
        )]))
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed JSON or a missing fingerprint.
    pub fn decode(body: &str) -> Result<StateRequest, ProtoError> {
        let v = parse_body(body)?;
        Ok(StateRequest {
            fingerprint: u64_field(&v, "fingerprint")?,
        })
    }
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

fn lease_token(outcome: LeaseAdvance) -> &'static str {
    match outcome {
        LeaseAdvance::Claimed => "claimed",
        LeaseAdvance::Renewed => "renewed",
        LeaseAdvance::Fenced => "fenced",
        LeaseAdvance::Degraded => "degraded",
    }
}

/// Encodes a lease reply body.
pub fn encode_lease_reply(outcome: LeaseAdvance) -> String {
    json::to_string(&Value::Object(vec![(
        "outcome".to_string(),
        Value::String(lease_token(outcome).to_string()),
    )]))
}

/// Decodes a lease reply body.
///
/// # Errors
///
/// [`ProtoError`] on an unknown outcome token.
pub fn decode_lease_reply(v: &Value) -> Result<LeaseAdvance, ProtoError> {
    match str_field(v, "outcome")? {
        "claimed" => Ok(LeaseAdvance::Claimed),
        "renewed" => Ok(LeaseAdvance::Renewed),
        "fenced" => Ok(LeaseAdvance::Fenced),
        "degraded" => Ok(LeaseAdvance::Degraded),
        other => Err(ProtoError(format!("unknown lease outcome `{other}`"))),
    }
}

/// What the coordinator did with an append batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The batch's records landed (durably, when `sync` was set).
    Applied,
    /// The batch was already applied — a duplicated or replayed
    /// delivery, dropped exactly.
    Duplicate,
    /// The coordinator's store is degraded; the batch did not land.
    Degraded,
}

/// Encodes an append reply body.
pub fn encode_append_reply(outcome: AppendOutcome) -> String {
    let token = match outcome {
        AppendOutcome::Applied => "applied",
        AppendOutcome::Duplicate => "duplicate",
        AppendOutcome::Degraded => "degraded",
    };
    json::to_string(&Value::Object(vec![(
        "outcome".to_string(),
        Value::String(token.to_string()),
    )]))
}

/// Decodes an append reply body.
///
/// # Errors
///
/// [`ProtoError`] on an unknown outcome token.
pub fn decode_append_reply(v: &Value) -> Result<AppendOutcome, ProtoError> {
    match str_field(v, "outcome")? {
        "applied" => Ok(AppendOutcome::Applied),
        "duplicate" => Ok(AppendOutcome::Duplicate),
        "degraded" => Ok(AppendOutcome::Degraded),
        other => Err(ProtoError(format!("unknown append outcome `{other}`"))),
    }
}

/// Encodes a cells reply body.
pub fn encode_cells_reply(cells: &[(u64, ProblemTally)]) -> String {
    let entries = cells
        .iter()
        .map(|(cell, tally)| {
            let mut fields = vec![("cell".to_string(), num(*cell))];
            fields.extend(tally_entries(tally));
            Value::Object(fields)
        })
        .collect();
    json::to_string(&Value::Object(vec![(
        "cells".to_string(),
        Value::Array(entries),
    )]))
}

/// Decodes a cells reply body.
///
/// # Errors
///
/// [`ProtoError`] on a missing or malformed `cells` array.
pub fn decode_cells_reply(v: &Value) -> Result<Vec<(u64, ProblemTally)>, ProtoError> {
    v.get("cells")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing `cells` array"))?
        .iter()
        .map(|entry| Ok((u64_field(entry, "cell")?, tally_fields(entry)?)))
        .collect()
}

/// Cumulative coordinator counters, served by the state route — the
/// drills' assertions about injected faults (dedup hits, fenced
/// leases) read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordCounters {
    /// Lease claims that landed.
    pub claims: u64,
    /// Lease renewals that landed.
    pub renewals: u64,
    /// Lease advances refused by the fence.
    pub fenced: u64,
    /// Append batches applied.
    pub appends: u64,
    /// Journal records applied (cells + inherit marks + stats).
    pub records: u64,
    /// Append batches dropped as already-applied duplicates.
    pub duplicates: u64,
}

/// One shard's contribution in a state reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStateMsg {
    /// Shard index.
    pub shard: u32,
    /// Final (merge-visible) generation.
    pub generation: u32,
    /// Completed cells in the final generation's journal.
    pub cells: u64,
    /// Stale-generation cells quarantined by the fence.
    pub quarantined: u64,
}

/// The merged-state reply: per-shard accounting, the merged cell union
/// over final generations, and the coordinator's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordState {
    /// Per-shard accounting, ascending by shard.
    pub shards: Vec<ShardStateMsg>,
    /// Union of every final generation's completed cells.
    pub cells: Vec<(u64, ProblemTally)>,
    /// Cumulative coordinator counters.
    pub counters: CoordCounters,
}

/// Encodes a state reply body.
pub fn encode_state_reply(state: &CoordState) -> String {
    let shards = state
        .shards
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("shard".to_string(), num(u64::from(s.shard))),
                ("generation".to_string(), num(u64::from(s.generation))),
                ("cells".to_string(), num(s.cells)),
                ("quarantined".to_string(), num(s.quarantined)),
            ])
        })
        .collect();
    let cells = state
        .cells
        .iter()
        .map(|(cell, tally)| {
            let mut fields = vec![("cell".to_string(), num(*cell))];
            fields.extend(tally_entries(tally));
            Value::Object(fields)
        })
        .collect();
    let c = &state.counters;
    json::to_string(&Value::Object(vec![
        ("shards".to_string(), Value::Array(shards)),
        ("cells".to_string(), Value::Array(cells)),
        (
            "counters".to_string(),
            Value::Object(vec![
                ("claims".to_string(), num(c.claims)),
                ("renewals".to_string(), num(c.renewals)),
                ("fenced".to_string(), num(c.fenced)),
                ("appends".to_string(), num(c.appends)),
                ("records".to_string(), num(c.records)),
                ("duplicates".to_string(), num(c.duplicates)),
            ]),
        ),
    ]))
}

/// Decodes a state reply body.
///
/// # Errors
///
/// [`ProtoError`] on missing or malformed sections.
pub fn decode_state_reply(v: &Value) -> Result<CoordState, ProtoError> {
    let shards = v
        .get("shards")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing `shards` array"))?
        .iter()
        .map(|s| {
            Ok(ShardStateMsg {
                shard: u32_field(s, "shard")?,
                generation: u32_field(s, "generation")?,
                cells: u64_field(s, "cells")?,
                quarantined: u64_field(s, "quarantined")?,
            })
        })
        .collect::<Result<Vec<_>, ProtoError>>()?;
    let cells = v
        .get("cells")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing `cells` array"))?
        .iter()
        .map(|entry| Ok((u64_field(entry, "cell")?, tally_fields(entry)?)))
        .collect::<Result<Vec<_>, ProtoError>>()?;
    let c = v.get("counters").ok_or_else(|| bad("missing `counters`"))?;
    Ok(CoordState {
        shards,
        cells,
        counters: CoordCounters {
            claims: u64_field(c, "claims")?,
            renewals: u64_field(c, "renewals")?,
            fenced: u64_field(c, "fenced")?,
            appends: u64_field(c, "appends")?,
            records: u64_field(c, "records")?,
            duplicates: u64_field(c, "duplicates")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(n: usize) -> ProblemTally {
        ProblemTally {
            n,
            syntax_passes: n / 2,
            functional_passes: n / 3,
        }
    }

    #[test]
    fn requests_roundtrip() {
        let lease = LeaseRequest {
            fingerprint: u64::MAX - 3,
            shard: 2,
            lease: LeaseRecord {
                generation: 1,
                worker: u64::MAX / 7,
                seq: 42,
                stamp_ms: 1_700_000_000_123,
            },
        };
        assert_eq!(LeaseRequest::decode(&lease.encode()).unwrap(), lease);

        let append = AppendRequest {
            fingerprint: 0x0123_4567_89ab_cdef,
            shard: 1,
            generation: 3,
            seq: 9,
            sync: true,
            records: vec![
                RecordMsg::Cell {
                    cell: u64::MAX - 1,
                    tally: tally(6),
                },
                RecordMsg::Inherited {
                    cell: 7,
                    tally: tally(2),
                },
                RecordMsg::Stats {
                    stats: ShardGenStats {
                        restored: 4,
                        evaluated: 5,
                    },
                },
            ],
        };
        assert_eq!(AppendRequest::decode(&append.encode()).unwrap(), append);

        let cells = CellsRequest {
            fingerprint: 11,
            shard: 0,
            generation: 2,
        };
        assert_eq!(CellsRequest::decode(&cells.encode()).unwrap(), cells);
        let state = StateRequest { fingerprint: 17 };
        assert_eq!(StateRequest::decode(&state.encode()).unwrap(), state);
    }

    #[test]
    fn replies_roundtrip() {
        for outcome in [
            LeaseAdvance::Claimed,
            LeaseAdvance::Renewed,
            LeaseAdvance::Fenced,
            LeaseAdvance::Degraded,
        ] {
            let body = encode_lease_reply(outcome);
            let v = json::parse(&body).unwrap();
            assert_eq!(decode_lease_reply(&v).unwrap(), outcome);
        }
        for outcome in [
            AppendOutcome::Applied,
            AppendOutcome::Duplicate,
            AppendOutcome::Degraded,
        ] {
            let body = encode_append_reply(outcome);
            let v = json::parse(&body).unwrap();
            assert_eq!(decode_append_reply(&v).unwrap(), outcome);
        }
        let cells = vec![(u64::MAX, tally(3)), (5, tally(1))];
        let v = json::parse(&encode_cells_reply(&cells)).unwrap();
        assert_eq!(decode_cells_reply(&v).unwrap(), cells);

        let state = CoordState {
            shards: vec![ShardStateMsg {
                shard: 0,
                generation: 2,
                cells: 6,
                quarantined: 1,
            }],
            cells,
            counters: CoordCounters {
                claims: 3,
                renewals: 40,
                fenced: 2,
                appends: 12,
                records: 14,
                duplicates: 5,
            },
        };
        let v = json::parse(&encode_state_reply(&state)).unwrap();
        assert_eq!(decode_state_reply(&v).unwrap(), state);
    }

    #[test]
    fn malformed_bodies_are_rejected_not_panicked() {
        assert!(LeaseRequest::decode("not json").is_err());
        assert!(LeaseRequest::decode("{}").is_err());
        assert!(AppendRequest::decode(r#"{"fingerprint":1,"shard":0,"generation":0,"seq":0,"sync":true,"records":[{"kind":"mystery"}]}"#).is_err());
        assert!(CellsRequest::decode(r#"{"fingerprint":1}"#).is_err());
        let v = json::parse(r#"{"outcome":"sideways"}"#).unwrap();
        assert!(decode_lease_reply(&v).is_err());
    }
}
