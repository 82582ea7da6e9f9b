//! NDJSON wire formatting for the job protocol.
//!
//! Every request and response is one JSON document per line, restricted
//! to the workspace JSON subset (`plurality_telemetry::json`): objects,
//! arrays, strings, unsigned integers.  Booleans are carried as `0`/`1`
//! and fractional values as decimal strings — see the README "Serving"
//! section for the full schema.

use crate::exec::{JobError, JobOutcome, TrialRow};
use plurality_telemetry::json::{escape, Json};

/// A client-chosen job id, echoed verbatim on every response line for
/// that job.  Either wire form (unsigned integer or string) is accepted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JobId {
    /// Numeric id.
    Num(u128),
    /// String id.
    Str(String),
}

impl JobId {
    /// Extract an id from a request's `id` field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Num(n) => Ok(Self::Num(*n)),
            Json::Str(s) => Ok(Self::Str(s.clone())),
            _ => Err("id: expected an unsigned integer or a string".into()),
        }
    }

    /// The id's wire form.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Num(n) => n.to_string(),
            Self::Str(s) => escape(s),
        }
    }
}

/// The `trial` event line for one finished trial.
#[must_use]
pub fn trial_line(id: &JobId, row: &TrialRow) -> String {
    let mut s = format!(
        "{{\"event\":\"trial\",\"id\":{},\"trial\":{},\"rounds\":{},\"converged\":{},\"success\":{}",
        id.render(),
        row.trial,
        row.rounds,
        u8::from(row.converged),
        u8::from(row.success),
    );
    if let Some(w) = row.winner {
        s.push_str(&format!(",\"winner\":{w}"));
    }
    if let Some(g) = &row.gossip {
        s.push_str(&format!(
            ",\"activations\":{},\"messages\":{},\"lost\":{},\"delayed\":{},\
             \"superseded\":{},\"inbox_served\":{},\"starved\":{},\"final_time\":\"{}\"",
            g.activations,
            g.messages,
            g.lost_messages,
            g.delayed_messages,
            g.superseded_commits,
            g.inbox_served,
            g.starved_updates,
            g.final_time,
        ));
    }
    s.push('}');
    s
}

fn lookup_str(l: Option<crate::cache::Lookup>) -> &'static str {
    match l {
        None => "none",
        Some(l) if l.hit => "hit",
        Some(_) => "miss",
    }
}

/// The terminal `done` event line for one job.
#[must_use]
pub fn done_line(id: &JobId, outcome: &JobOutcome) -> String {
    format!(
        "{{\"event\":\"done\",\"id\":{},\"trials\":{},\"converged\":{},\"wins\":{},\
         \"cache\":{{\"topology\":\"{}\",\"rates\":\"{}\",\"edge_table\":\"{}\",\"warm\":{}}},\
         \"build_ns\":{},\"setup_ns\":{},\"run_ns\":{}}}",
        id.render(),
        outcome.trials,
        outcome.converged,
        outcome.wins,
        lookup_str(outcome.cache.topology),
        lookup_str(outcome.cache.rates),
        lookup_str(outcome.cache.edge_table),
        u8::from(outcome.cache.all_hits()),
        outcome.cache.build_ns(),
        outcome.setup_ns,
        outcome.run_ns,
    )
}

/// The terminal `error` line for a job that did not complete.  A
/// timeout is structured — `"kind":"timeout"` plus `limit-ms` and
/// `completed` fields — so clients can distinguish a budget cutoff
/// (partial rows are valid) from a hard failure; a panic in the server
/// is `"kind":"internal"`.  The human-readable `error` field is carried
/// in every case.
#[must_use]
pub fn job_error_line(id: &JobId, err: &JobError) -> String {
    match err {
        JobError::Failed(msg) => error_line(Some(id), msg),
        JobError::Internal(msg) => format!(
            "{{\"event\":\"error\",\"id\":{},\"kind\":\"internal\",\"error\":{}}}",
            id.render(),
            escape(msg),
        ),
        JobError::Timeout {
            limit_ms,
            completed,
        } => format!(
            "{{\"event\":\"error\",\"id\":{},\"kind\":\"timeout\",\"limit-ms\":{limit_ms},\
             \"completed\":{completed},\"error\":{}}}",
            id.render(),
            escape(&err.to_string()),
        ),
    }
}

/// The `error` event line (job-scoped when `id` is known).
#[must_use]
pub fn error_line(id: Option<&JobId>, msg: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"event\":\"error\",\"id\":{},\"error\":{}}}",
            id.render(),
            escape(msg)
        ),
        None => format!("{{\"event\":\"error\",\"error\":{}}}", escape(msg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plurality_telemetry::json;

    #[test]
    fn lines_stay_inside_the_json_subset() {
        let id = JobId::Str("job \"7\"".into());
        let row = TrialRow {
            trial: 3,
            rounds: 41,
            converged: true,
            winner: Some(2),
            success: false,
            gossip: Some(plurality_gossip::GossipStats {
                final_time: 12.375,
                ..Default::default()
            }),
        };
        let line = trial_line(&id, &row);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Json::as_str), Some("trial"));
        assert_eq!(v.get("id").and_then(Json::as_str), Some("job \"7\""));
        assert_eq!(v.get("winner").and_then(Json::as_num), Some(2));
        assert_eq!(v.get("final_time").and_then(Json::as_str), Some("12.375"));
        let err = error_line(None, "bad \"spec\"");
        assert!(json::parse(&err).is_ok(), "error line must parse: {err}");
    }

    #[test]
    fn timeout_error_line_is_structured() {
        let id = JobId::Num(9);
        let line = job_error_line(
            &id,
            &JobError::Timeout {
                limit_ms: 250,
                completed: 3,
            },
        );
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("timeout"));
        assert_eq!(v.get("limit-ms").and_then(Json::as_num), Some(250));
        assert_eq!(v.get("completed").and_then(Json::as_num), Some(3));
        assert!(v.get("error").and_then(Json::as_str).is_some());
        // A plain failure keeps the legacy shape (no "kind").
        let plain = job_error_line(&id, &JobError::Failed("boom".into()));
        let v = json::parse(&plain).unwrap();
        assert!(v.get("kind").is_none());
        assert_eq!(v.get("error").and_then(Json::as_str), Some("boom"));
        let internal = job_error_line(&id, &JobError::Internal("trial 2 panicked".into()));
        let v = json::parse(&internal).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("internal"));
        assert_eq!(
            v.get("error").and_then(Json::as_str),
            Some("trial 2 panicked")
        );
    }
}
