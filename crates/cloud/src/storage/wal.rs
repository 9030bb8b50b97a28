//! The write-ahead log: one record type, one idempotent replay path.
//!
//! Both consumers of request logging — the federation migration WAL
//! ([`crate::topology`]) and the durable storage engine — share this
//! module. A [`WalRecord`] is a per-identity-key sequenced operation:
//! either a replayable mutating [`Request`] (registration plus the
//! `Ingest`-class offloads and syncs) or a [`WalOp::TokenGrant`] capturing
//! a token the instance issued, so a recovered instance can re-adopt the
//! session the client is still holding.
//!
//! Replay is idempotent twice over: [`replay_session`] skips records at or
//! below a caller-supplied sequence watermark (the snapshot the target
//! already holds), and the server-side store watermarks (`absorbed_upto`,
//! per-day profile sequences, places/routes sync sequences) absorb any
//! record that slips through both filters. Queries are never logged: they
//! do not shape user state.

use std::collections::BTreeMap;

use pmware_world::SimTime;
use serde_json::Value;

use crate::api::{Request, Response};
use crate::payload::{Payload, REGISTRATION_PATH};

/// One logged operation under an identity key.
#[derive(Debug, Clone)]
pub(crate) enum WalOp {
    /// A successful mutating request, replayable through `handle`
    /// (boxed: records outnumber grants and a request dwarfs one).
    Request(Box<Request>),
    /// A token the instance issued for this identity (registration or
    /// refresh). Never replayed through `handle` — adoption grafts it
    /// back so the client's live token keeps validating after recovery.
    TokenGrant {
        /// The opaque token string.
        token: String,
        /// Its expiry instant.
        expires_at: SimTime,
    },
}

/// One WAL record: a per-key sequence number and the operation.
#[derive(Debug, Clone)]
pub(crate) struct WalRecord {
    /// 1-based position in this key's log (the dedup watermark unit).
    pub(crate) seq: u64,
    /// The identity key the record belongs to.
    pub(crate) key: String,
    /// The logged operation.
    pub(crate) op: WalOp,
}

impl WalOp {
    /// Wraps a request as a log op (boxing it for the enum).
    pub(crate) fn request(request: Request) -> WalOp {
        WalOp::Request(Box::new(request))
    }

    /// The compact form of an op before it is retained: a logged request
    /// lives as long as the log, so it sheds the caller's cached wire
    /// bytes (the durable append renders them once, when it writes the
    /// record).
    pub(crate) fn compacted(self) -> WalOp {
        match self {
            WalOp::Request(request) => WalOp::request(request.without_wire_cache()),
            grant @ WalOp::TokenGrant { .. } => grant,
        }
    }
}

impl WalRecord {
    /// Whether this record is a registration request (always replayed —
    /// it mints the user — and never compacted away).
    pub(crate) fn is_registration(&self) -> bool {
        matches!(&self.op, WalOp::Request(r) if r.path == REGISTRATION_PATH)
    }

    /// Whether compaction must keep this record even below the snapshot
    /// watermark: registrations and token grants rebuild the auth side,
    /// which snapshots do not capture.
    pub(crate) fn is_compaction_exempt(&self) -> bool {
        self.is_registration() || matches!(self.op, WalOp::TokenGrant { .. })
    }

    /// The on-disk JSONL spelling. The embedded request reuses the pinned
    /// wire format (`Request::to_bytes`), so the WAL format is stable
    /// wherever the wire format is.
    pub(crate) fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("key".to_owned(), Value::String(self.key.clone()));
        map.insert(
            "seq".to_owned(),
            Value::Number(serde_json::Number::PosInt(self.seq)),
        );
        match &self.op {
            WalOp::Request(request) => {
                let wire = String::from_utf8(request.to_bytes().to_vec())
                    .expect("request wire bytes are valid JSON");
                map.insert("kind".to_owned(), Value::String("request".to_owned()));
                map.insert("request".to_owned(), Value::String(wire));
            }
            WalOp::TokenGrant { token, expires_at } => {
                map.insert("kind".to_owned(), Value::String("token".to_owned()));
                map.insert("token".to_owned(), Value::String(token.clone()));
                map.insert(
                    "expires_at_s".to_owned(),
                    Value::Number(serde_json::Number::PosInt(expires_at.as_seconds())),
                );
            }
        }
        Value::Object(map)
    }

    /// Parses one JSONL line back into a record.
    pub(crate) fn from_json(value: &Value) -> Result<WalRecord, String> {
        let key = value["key"]
            .as_str()
            .ok_or("wal record missing key")?
            .to_owned();
        let seq = value["seq"].as_u64().ok_or("wal record missing seq")?;
        let op = match value["kind"].as_str() {
            Some("request") => {
                let wire = value["request"]
                    .as_str()
                    .ok_or("request record missing body")?;
                let request = Request::from_bytes(wire.as_bytes())
                    .map_err(|e| format!("unparseable wal request: {e}"))?;
                WalOp::request(request)
            }
            Some("token") => WalOp::TokenGrant {
                token: value["token"]
                    .as_str()
                    .ok_or("token record missing token")?
                    .to_owned(),
                expires_at: SimTime::from_seconds(
                    value["expires_at_s"]
                        .as_u64()
                        .ok_or("token record missing expiry")?,
                ),
            },
            other => return Err(format!("unknown wal record kind {other:?}")),
        };
        Ok(WalRecord { seq, key, op })
    }
}

/// An in-memory per-key sequenced log — the shared core of both the
/// migration WAL and the durable WAL (which adds file persistence).
#[derive(Debug, Default)]
pub(crate) struct WalLog {
    by_key: BTreeMap<String, Vec<WalRecord>>,
}

impl WalLog {
    /// Appends `op` under `key`, assigning the next per-key sequence
    /// number. Returns a clone of the stored record (for persistence).
    pub(crate) fn append(&mut self, key: &str, op: WalOp) -> WalRecord {
        let log = self.by_key.entry(key.to_owned()).or_default();
        let seq = log.last().map_or(0, |r| r.seq) + 1;
        let record = WalRecord {
            seq,
            key: key.to_owned(),
            op,
        };
        log.push(record.clone());
        record
    }

    /// Inserts an already-sequenced record (durable load path). Records
    /// are re-sorted by sequence once loading finishes.
    pub(crate) fn insert_loaded(&mut self, record: WalRecord) {
        self.by_key
            .entry(record.key.clone())
            .or_default()
            .push(record);
    }

    /// Sorts every key's records by sequence (after a durable load, where
    /// shard files interleave arbitrarily).
    pub(crate) fn sort(&mut self) {
        for log in self.by_key.values_mut() {
            log.sort_by_key(|r| r.seq);
        }
    }

    /// A clone of `key`'s records with `seq > after`, in sequence order.
    pub(crate) fn suffix(&self, key: &str, after: u64) -> Vec<WalRecord> {
        self.by_key
            .get(key)
            .map(|log| log.iter().filter(|r| r.seq > after).cloned().collect())
            .unwrap_or_default()
    }

    /// The highest sequence appended under `key` (0 if none).
    pub(crate) fn last_seq(&self, key: &str) -> u64 {
        self.by_key
            .get(key)
            .and_then(|log| log.last())
            .map_or(0, |r| r.seq)
    }

    /// Number of records held for `key`.
    pub(crate) fn len_of(&self, key: &str) -> usize {
        self.by_key.get(key).map_or(0, Vec::len)
    }

    /// All keys with at least one record, in key order (deterministic
    /// recovery ordering).
    pub(crate) fn keys(&self) -> Vec<String> {
        self.by_key.keys().cloned().collect()
    }

    /// Drops every non-exempt record of `key` at or below `upto` (the
    /// key's snapshot watermark). Registrations and token grants survive:
    /// snapshots capture store state, not the auth registry.
    pub(crate) fn compact(&mut self, key: &str, upto: u64) {
        if let Some(log) = self.by_key.get_mut(key) {
            log.retain(|r| r.seq > upto || r.is_compaction_exempt());
        }
    }

    /// Every record, in (key, seq) order — the durable rewrite path.
    pub(crate) fn all_records(&self) -> impl Iterator<Item = &WalRecord> {
        self.by_key.values().flatten()
    }
}

/// Outcome of one [`replay_session`] pass.
#[derive(Debug, Default)]
pub(crate) struct ReplaySummary {
    /// Requests replayed successfully.
    pub(crate) replayed: usize,
    /// Token grants encountered, in log order (last is the client's live
    /// token; the caller adopts them after replay).
    pub(crate) grants: Vec<(String, SimTime)>,
}

/// The one idempotent replay path, shared by federation migration and
/// crash recovery.
///
/// Registration requests always replay as logged (they mint the user and
/// yield the replay token). Every other request is skipped while `seq ≤
/// after_seq` — the target already holds that history in a snapshot — and
/// otherwise replays under the current replay token, mirroring the token
/// rotations the client's own retries performed. `observe` fires once per
/// replayed request (span recording hook).
pub(crate) fn replay_session(
    records: &[WalRecord],
    mut handle: impl FnMut(&Request) -> Response,
    after_seq: u64,
    mut observe: impl FnMut(&Request, &Response),
) -> ReplaySummary {
    let mut summary = ReplaySummary::default();
    let mut replay_token: Option<String> = None;
    for record in records {
        let request = match &record.op {
            WalOp::TokenGrant { token, expires_at } => {
                summary.grants.push((token.clone(), *expires_at));
                continue;
            }
            WalOp::Request(request) if record.is_registration() => (**request).clone(),
            WalOp::Request(request) => {
                if record.seq <= after_seq {
                    continue;
                }
                match &replay_token {
                    Some(token) => (**request).clone().with_token(token.clone()),
                    None => continue,
                }
            }
        };
        let response = handle(&request);
        observe(&request, &response);
        if response.is_success() {
            summary.replayed += 1;
            if let Payload::Registered { token, .. } = &response.body {
                replay_token = Some(token.clone());
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn records_round_trip_through_json() {
        let record = WalRecord {
            seq: 3,
            key: "imei|mail".to_owned(),
            op: WalOp::request(
                Request::post_json("/api/v1/social/sync", json!({"contacts": []}))
                    .with_token("tok-x"),
            ),
        };
        let back = WalRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back.seq, 3);
        assert_eq!(back.key, "imei|mail");
        match back.op {
            WalOp::Request(r) => {
                assert_eq!(r.path, "/api/v1/social/sync");
                assert_eq!(r.token.as_deref(), Some("tok-x"));
            }
            other => panic!("expected request, got {other:?}"),
        }

        let grant = WalRecord {
            seq: 4,
            key: "imei|mail".to_owned(),
            op: WalOp::TokenGrant {
                token: "tok-y".to_owned(),
                expires_at: SimTime::from_seconds(86_400),
            },
        };
        let back = WalRecord::from_json(&grant.to_json()).unwrap();
        match back.op {
            WalOp::TokenGrant { token, expires_at } => {
                assert_eq!(token, "tok-y");
                assert_eq!(expires_at, SimTime::from_seconds(86_400));
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn append_assigns_per_key_sequences() {
        let mut log = WalLog::default();
        let a1 = log.append("a", WalOp::request(Request::get("/x")));
        let b1 = log.append("b", WalOp::request(Request::get("/y")));
        let a2 = log.append("a", WalOp::request(Request::get("/z")));
        assert_eq!((a1.seq, b1.seq, a2.seq), (1, 1, 2));
        assert_eq!(log.last_seq("a"), 2);
        assert_eq!(log.suffix("a", 1).len(), 1);
        assert_eq!(log.len_of("missing"), 0);
    }

    #[test]
    fn compaction_keeps_registrations_and_grants() {
        let mut log = WalLog::default();
        log.append(
            "a",
            WalOp::request(Request::post_json(
                "/api/v1/registration",
                json!({"imei": "1"}),
            )),
        );
        log.append(
            "a",
            WalOp::TokenGrant {
                token: "tok".into(),
                expires_at: SimTime::EPOCH,
            },
        );
        log.append(
            "a",
            WalOp::request(Request::post_json(
                "/api/v1/places/sync",
                json!({"places": []}),
            )),
        );
        log.append(
            "a",
            WalOp::request(Request::post_json(
                "/api/v1/places/sync",
                json!({"places": []}),
            )),
        );
        log.compact("a", 3);
        let left = log.suffix("a", 0);
        assert_eq!(left.len(), 3, "registration + grant + seq-4 sync survive");
        assert!(left[0].is_registration());
        assert_eq!(left[2].seq, 4);
    }

    #[test]
    fn replay_skips_below_watermark_but_always_registers() {
        let mut log = WalLog::default();
        log.append(
            "a",
            WalOp::request(Request::post_json(
                "/api/v1/registration",
                json!({"imei": "1"}),
            )),
        );
        log.append(
            "a",
            WalOp::request(Request::post_json(
                "/api/v1/places/sync",
                json!({"places": []}),
            )),
        );
        log.append(
            "a",
            WalOp::request(Request::post_json(
                "/api/v1/social/sync",
                json!({"contacts": []}),
            )),
        );
        let records = log.suffix("a", 0);
        let mut seen = Vec::new();
        let summary = replay_session(
            &records,
            |request| {
                seen.push(request.path.clone());
                if request.path == REGISTRATION_PATH {
                    Response::ok(Payload::Registered {
                        user: crate::auth::UserId(0),
                        token: "tok-replay".to_owned(),
                        expires_at: SimTime::EPOCH,
                    })
                } else {
                    assert_eq!(request.token.as_deref(), Some("tok-replay"));
                    Response::ok(Payload::Empty)
                }
            },
            2,
            |_, _| {},
        );
        // Registration (seq 1) replays despite the watermark; the sync at
        // seq 2 is covered by the snapshot; seq 3 replays.
        assert_eq!(seen, vec![REGISTRATION_PATH, "/api/v1/social/sync"]);
        assert_eq!(summary.replayed, 2);
    }
}
