//! The NDJSON wire format for [`CampaignEvent`] streams.
//!
//! One event per line, one JSON object per event, `"event"` tag first,
//! remaining fields in declaration order. Encoding is deterministic —
//! the same event always produces the same bytes — which is what lets
//! the server promise *byte-identical* streams: the in-process observer
//! sequence encoded through [`encode_event`] equals the bytes a client
//! reads off `GET /v1/campaigns/{id}/events`, and `repro --events
//! ndjson` emits exactly the same lines.
//!
//! Counters ride as JSON numbers built with [`Value::Uint`], which the
//! JSON layer serializes and re-parses exactly over the whole `u64`
//! range — no f64 detour — so [`decode_event`] ∘ [`encode_event`] is
//! the identity for every event, including counters at or beyond 2⁵³.

use picbench_core::{
    CampaignEvent, EvalCacheStats, ProblemTally, ShardLossReason, TransportErrorKind,
};
use picbench_netlist::json::{self, Value};
use std::fmt;

/// Why a wire line failed to decode back into a [`CampaignEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line was not valid JSON.
    Json(String),
    /// The line decoded to JSON but not to an event (unknown tag,
    /// missing or mistyped field).
    Shape(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "invalid JSON: {e}"),
            WireError::Shape(e) => write!(f, "invalid event shape: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

pub(crate) fn num(v: u64) -> Value {
    Value::Uint(v)
}

fn text(v: &str) -> Value {
    Value::String(v.to_string())
}

fn tally_value(tally: &ProblemTally) -> Value {
    Value::Object(vec![
        ("n".into(), num(tally.n as u64)),
        ("syntax_passes".into(), num(tally.syntax_passes as u64)),
        (
            "functional_passes".into(),
            num(tally.functional_passes as u64),
        ),
    ])
}

pub(crate) fn stats_value(stats: &EvalCacheStats) -> Value {
    Value::Object(vec![
        ("response_hits".into(), num(stats.response_hits)),
        // Always 0 (the report level is retired); kept for wire readers.
        ("report_hits".into(), num(stats.report_hits)),
        ("sim_hits".into(), num(stats.sim_hits)),
        ("disk_hits".into(), num(stats.disk_hits)),
        ("misses".into(), num(stats.misses)),
    ])
}

/// The wire token of a transport-failure classification.
pub fn transport_kind_token(kind: TransportErrorKind) -> &'static str {
    match kind {
        TransportErrorKind::RateLimit => "rate_limit",
        TransportErrorKind::TransientIo => "transient_io",
        TransportErrorKind::Timeout => "timeout",
        TransportErrorKind::Garbled => "garbled",
        TransportErrorKind::Fatal => "fatal",
    }
}

fn transport_kind_from_token(token: &str) -> Option<TransportErrorKind> {
    Some(match token {
        "rate_limit" => TransportErrorKind::RateLimit,
        "transient_io" => TransportErrorKind::TransientIo,
        "timeout" => TransportErrorKind::Timeout,
        "garbled" => TransportErrorKind::Garbled,
        "fatal" => TransportErrorKind::Fatal,
        _ => return None,
    })
}

/// Encodes one event as its canonical single-line JSON form (no
/// trailing newline — stream writers append `\n`).
pub fn encode_event(event: &CampaignEvent) -> String {
    let mut fields: Vec<(String, Value)> = Vec::with_capacity(8);
    let tag = match event {
        CampaignEvent::CampaignStarted {
            problems,
            providers,
            cells,
        } => {
            fields.push(("problems".into(), num(*problems as u64)));
            fields.push(("providers".into(), num(*providers as u64)));
            fields.push(("cells".into(), num(*cells as u64)));
            "campaign_started"
        }
        CampaignEvent::CellStarted {
            problem_id,
            model,
            feedback_iters,
        } => {
            fields.push(("problem_id".into(), text(problem_id)));
            fields.push(("model".into(), text(model)));
            fields.push(("feedback_iters".into(), num(*feedback_iters as u64)));
            "cell_started"
        }
        CampaignEvent::CellFinished {
            problem_id,
            model,
            feedback_iters,
            tally,
            completed,
            total,
        } => {
            fields.push(("problem_id".into(), text(problem_id)));
            fields.push(("model".into(), text(model)));
            fields.push(("feedback_iters".into(), num(*feedback_iters as u64)));
            fields.push(("tally".into(), tally_value(tally)));
            fields.push(("completed".into(), num(*completed as u64)));
            fields.push(("total".into(), num(*total as u64)));
            "cell_finished"
        }
        CampaignEvent::CellRestored {
            problem_id,
            model,
            feedback_iters,
            tally,
            completed,
            total,
        } => {
            fields.push(("problem_id".into(), text(problem_id)));
            fields.push(("model".into(), text(model)));
            fields.push(("feedback_iters".into(), num(*feedback_iters as u64)));
            fields.push(("tally".into(), tally_value(tally)));
            fields.push(("completed".into(), num(*completed as u64)));
            fields.push(("total".into(), num(*total as u64)));
            "cell_restored"
        }
        CampaignEvent::SampleRetried {
            model,
            problem_id,
            sample,
            attempt,
            kind,
            backoff_ms,
        } => {
            fields.push(("model".into(), text(model)));
            fields.push(("problem_id".into(), text(problem_id)));
            fields.push(("sample".into(), num(*sample)));
            fields.push(("attempt".into(), num(u64::from(*attempt))));
            fields.push(("kind".into(), text(transport_kind_token(*kind))));
            fields.push(("backoff_ms".into(), num(*backoff_ms)));
            "sample_retried"
        }
        CampaignEvent::SampleDegraded {
            model,
            problem_id,
            sample,
            attempts,
            kind,
        } => {
            fields.push(("model".into(), text(model)));
            fields.push(("problem_id".into(), text(problem_id)));
            fields.push(("sample".into(), num(*sample)));
            fields.push(("attempts".into(), num(u64::from(*attempts))));
            fields.push(("kind".into(), text(transport_kind_token(*kind))));
            "sample_degraded"
        }
        CampaignEvent::StoreDegraded { write_errors } => {
            fields.push(("write_errors".into(), num(*write_errors)));
            "store_degraded"
        }
        CampaignEvent::ShardStarted {
            shard,
            generation,
            cells,
        } => {
            fields.push(("shard".into(), num(u64::from(*shard))));
            fields.push(("generation".into(), num(u64::from(*generation))));
            fields.push(("cells".into(), num(*cells as u64)));
            "shard_started"
        }
        CampaignEvent::ShardHeartbeat {
            shard,
            generation,
            seq,
            cells_done,
        } => {
            fields.push(("shard".into(), num(u64::from(*shard))));
            fields.push(("generation".into(), num(u64::from(*generation))));
            fields.push(("seq".into(), num(*seq)));
            fields.push(("cells_done".into(), num(*cells_done as u64)));
            "shard_heartbeat"
        }
        CampaignEvent::ShardLost {
            shard,
            generation,
            reason,
            cells_done,
        } => {
            fields.push(("shard".into(), num(u64::from(*shard))));
            fields.push(("generation".into(), num(u64::from(*generation))));
            match reason {
                ShardLossReason::LeaseExpired => {
                    fields.push(("reason".into(), text("lease_expired")));
                }
                ShardLossReason::WorkerExited { clean } => {
                    fields.push(("reason".into(), text("worker_exited")));
                    fields.push(("clean".into(), Value::Bool(*clean)));
                }
            }
            fields.push(("cells_done".into(), num(*cells_done as u64)));
            "shard_lost"
        }
        CampaignEvent::ShardReassigned {
            shard,
            from_generation,
            to_generation,
        } => {
            fields.push(("shard".into(), num(u64::from(*shard))));
            fields.push(("from_generation".into(), num(u64::from(*from_generation))));
            fields.push(("to_generation".into(), num(u64::from(*to_generation))));
            "shard_reassigned"
        }
        CampaignEvent::ShardMerged {
            shard,
            generation,
            cells,
            quarantined,
        } => {
            fields.push(("shard".into(), num(u64::from(*shard))));
            fields.push(("generation".into(), num(u64::from(*generation))));
            fields.push(("cells".into(), num(*cells as u64)));
            fields.push(("quarantined".into(), num(*quarantined as u64)));
            "shard_merged"
        }
        CampaignEvent::CacheStats(stats) => {
            fields.push(("stats".into(), stats_value(stats)));
            "cache_stats"
        }
        CampaignEvent::CampaignFinished {
            cells_completed,
            cells_total,
            cancelled,
        } => {
            fields.push(("cells_completed".into(), num(*cells_completed as u64)));
            fields.push(("cells_total".into(), num(*cells_total as u64)));
            fields.push(("cancelled".into(), Value::Bool(*cancelled)));
            "campaign_finished"
        }
    };
    fields.insert(0, ("event".into(), text(tag)));
    json::to_string(&Value::Object(fields))
}

fn shape(msg: impl Into<String>) -> WireError {
    WireError::Shape(msg.into())
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    value
        .get(key)
        .ok_or_else(|| shape(format!("missing {key}")))
}

fn get_u64(value: &Value, key: &str) -> Result<u64, WireError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| shape(format!("{key} must be a non-negative integer")))
}

fn get_usize(value: &Value, key: &str) -> Result<usize, WireError> {
    Ok(get_u64(value, key)? as usize)
}

fn get_u32(value: &Value, key: &str) -> Result<u32, WireError> {
    u32::try_from(get_u64(value, key)?).map_err(|_| shape(format!("{key} out of range")))
}

fn get_str<'a>(value: &'a Value, key: &str) -> Result<&'a str, WireError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| shape(format!("{key} must be a string")))
}

fn get_bool(value: &Value, key: &str) -> Result<bool, WireError> {
    match field(value, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(shape(format!("{key} must be a boolean"))),
    }
}

fn get_tally(value: &Value, key: &str) -> Result<ProblemTally, WireError> {
    let tally = field(value, key)?;
    Ok(ProblemTally {
        n: get_usize(tally, "n")?,
        syntax_passes: get_usize(tally, "syntax_passes")?,
        functional_passes: get_usize(tally, "functional_passes")?,
    })
}

fn get_kind(value: &Value, key: &str) -> Result<TransportErrorKind, WireError> {
    let token = get_str(value, key)?;
    transport_kind_from_token(token)
        .ok_or_else(|| shape(format!("unknown transport kind {token:?}")))
}

/// Decodes one wire line back into a [`CampaignEvent`].
///
/// # Errors
///
/// Returns a [`WireError`] when the line is not JSON or does not carry
/// a well-formed event object.
pub fn decode_event(line: &str) -> Result<CampaignEvent, WireError> {
    let value = json::parse(line).map_err(|e| WireError::Json(e.to_string()))?;
    let tag = get_str(&value, "event")?;
    Ok(match tag {
        "campaign_started" => CampaignEvent::CampaignStarted {
            problems: get_usize(&value, "problems")?,
            providers: get_usize(&value, "providers")?,
            cells: get_usize(&value, "cells")?,
        },
        "cell_started" => CampaignEvent::CellStarted {
            problem_id: get_str(&value, "problem_id")?.to_string(),
            model: get_str(&value, "model")?.to_string(),
            feedback_iters: get_usize(&value, "feedback_iters")?,
        },
        "cell_finished" => CampaignEvent::CellFinished {
            problem_id: get_str(&value, "problem_id")?.to_string(),
            model: get_str(&value, "model")?.to_string(),
            feedback_iters: get_usize(&value, "feedback_iters")?,
            tally: get_tally(&value, "tally")?,
            completed: get_usize(&value, "completed")?,
            total: get_usize(&value, "total")?,
        },
        "cell_restored" => CampaignEvent::CellRestored {
            problem_id: get_str(&value, "problem_id")?.to_string(),
            model: get_str(&value, "model")?.to_string(),
            feedback_iters: get_usize(&value, "feedback_iters")?,
            tally: get_tally(&value, "tally")?,
            completed: get_usize(&value, "completed")?,
            total: get_usize(&value, "total")?,
        },
        "sample_retried" => CampaignEvent::SampleRetried {
            model: get_str(&value, "model")?.to_string(),
            problem_id: get_str(&value, "problem_id")?.to_string(),
            sample: get_u64(&value, "sample")?,
            attempt: get_u32(&value, "attempt")?,
            kind: get_kind(&value, "kind")?,
            backoff_ms: get_u64(&value, "backoff_ms")?,
        },
        "sample_degraded" => CampaignEvent::SampleDegraded {
            model: get_str(&value, "model")?.to_string(),
            problem_id: get_str(&value, "problem_id")?.to_string(),
            sample: get_u64(&value, "sample")?,
            attempts: get_u32(&value, "attempts")?,
            kind: get_kind(&value, "kind")?,
        },
        "store_degraded" => CampaignEvent::StoreDegraded {
            write_errors: get_u64(&value, "write_errors")?,
        },
        "shard_started" => CampaignEvent::ShardStarted {
            shard: get_u32(&value, "shard")?,
            generation: get_u32(&value, "generation")?,
            cells: get_usize(&value, "cells")?,
        },
        "shard_heartbeat" => CampaignEvent::ShardHeartbeat {
            shard: get_u32(&value, "shard")?,
            generation: get_u32(&value, "generation")?,
            seq: get_u64(&value, "seq")?,
            cells_done: get_usize(&value, "cells_done")?,
        },
        "shard_lost" => CampaignEvent::ShardLost {
            shard: get_u32(&value, "shard")?,
            generation: get_u32(&value, "generation")?,
            reason: match get_str(&value, "reason")? {
                "lease_expired" => ShardLossReason::LeaseExpired,
                "worker_exited" => ShardLossReason::WorkerExited {
                    clean: get_bool(&value, "clean")?,
                },
                other => return Err(shape(format!("unknown loss reason {other:?}"))),
            },
            cells_done: get_usize(&value, "cells_done")?,
        },
        "shard_reassigned" => CampaignEvent::ShardReassigned {
            shard: get_u32(&value, "shard")?,
            from_generation: get_u32(&value, "from_generation")?,
            to_generation: get_u32(&value, "to_generation")?,
        },
        "shard_merged" => CampaignEvent::ShardMerged {
            shard: get_u32(&value, "shard")?,
            generation: get_u32(&value, "generation")?,
            cells: get_usize(&value, "cells")?,
            quarantined: get_usize(&value, "quarantined")?,
        },
        "cache_stats" => {
            let stats = field(&value, "stats")?;
            CampaignEvent::CacheStats(EvalCacheStats {
                response_hits: get_u64(stats, "response_hits")?,
                report_hits: get_u64(stats, "report_hits")?,
                sim_hits: get_u64(stats, "sim_hits")?,
                disk_hits: get_u64(stats, "disk_hits")?,
                misses: get_u64(stats, "misses")?,
            })
        }
        "campaign_finished" => CampaignEvent::CampaignFinished {
            cells_completed: get_usize(&value, "cells_completed")?,
            cells_total: get_usize(&value, "cells_total")?,
            cancelled: get_bool(&value, "cancelled")?,
        },
        other => return Err(shape(format!("unknown event tag {other:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::CampaignStarted {
                problems: 3,
                providers: 2,
                cells: 12,
            },
            CampaignEvent::CellStarted {
                problem_id: "mzi-ps".into(),
                model: "GPT-4".into(),
                feedback_iters: 1,
            },
            CampaignEvent::CellFinished {
                problem_id: "mzi-ps".into(),
                model: "GPT-4".into(),
                feedback_iters: 1,
                tally: ProblemTally {
                    n: 5,
                    syntax_passes: 4,
                    functional_passes: 3,
                },
                completed: 1,
                total: 12,
            },
            CampaignEvent::CellRestored {
                problem_id: "mzm".into(),
                model: "Claude 3.5 Sonnet".into(),
                feedback_iters: 0,
                tally: ProblemTally {
                    n: 5,
                    syntax_passes: 5,
                    functional_passes: 5,
                },
                completed: 2,
                total: 12,
            },
            CampaignEvent::SampleRetried {
                model: "GPT-4".into(),
                problem_id: "mzi-ps".into(),
                sample: 3,
                attempt: 2,
                kind: TransportErrorKind::RateLimit,
                backoff_ms: 250,
            },
            CampaignEvent::SampleDegraded {
                model: "GPT-4".into(),
                problem_id: "mzi-ps".into(),
                sample: 3,
                attempts: 4,
                kind: TransportErrorKind::Fatal,
            },
            CampaignEvent::StoreDegraded { write_errors: 1 },
            CampaignEvent::ShardStarted {
                shard: 1,
                generation: 0,
                cells: 6,
            },
            CampaignEvent::ShardHeartbeat {
                shard: 1,
                generation: 0,
                seq: 7,
                cells_done: 3,
            },
            CampaignEvent::ShardLost {
                shard: 1,
                generation: 0,
                reason: ShardLossReason::LeaseExpired,
                cells_done: 3,
            },
            CampaignEvent::ShardLost {
                shard: 2,
                generation: 1,
                reason: ShardLossReason::WorkerExited { clean: false },
                cells_done: 0,
            },
            CampaignEvent::ShardReassigned {
                shard: 1,
                from_generation: 0,
                to_generation: 1,
            },
            CampaignEvent::ShardMerged {
                shard: 1,
                generation: 1,
                cells: 6,
                quarantined: 1,
            },
            CampaignEvent::CacheStats(EvalCacheStats {
                response_hits: 10,
                report_hits: 2,
                sim_hits: 3,
                disk_hits: 1,
                misses: 4,
            }),
            CampaignEvent::CampaignFinished {
                cells_completed: 12,
                cells_total: 12,
                cancelled: false,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for event in samples() {
            let line = encode_event(&event);
            assert!(!line.contains('\n'), "one line per event: {line}");
            let back = decode_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(event, back, "{line}");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        for event in samples() {
            assert_eq!(encode_event(&event), encode_event(&event));
        }
    }

    #[test]
    fn unknown_and_malformed_lines_are_rejected() {
        assert!(matches!(decode_event("not json"), Err(WireError::Json(_))));
        assert!(matches!(
            decode_event(r#"{"event":"nope"}"#),
            Err(WireError::Shape(_))
        ));
        assert!(matches!(
            decode_event(r#"{"event":"campaign_started","problems":1.5,"providers":1,"cells":1}"#),
            Err(WireError::Shape(_))
        ));
        assert!(matches!(
            decode_event(r#"{"problems":1}"#),
            Err(WireError::Shape(_))
        ));
    }

    #[test]
    fn wire_tag_leads_every_line() {
        for event in samples() {
            assert!(encode_event(&event).starts_with(r#"{"event":""#));
        }
    }
}
