//! The durable storage engine's write-ahead log. A [`WalRecord`] is a
//! per-identity-key sequenced operation: either a replayable mutating
//! [`Request`] (registration plus the `Ingest`-class offloads and syncs)
//! or a [`WalOp::TokenGrant`] capturing a token the instance issued, so a
//! recovered instance can re-adopt the session the client is still
//! holding.
//!
//! Recovery replays only the registrations ([`replay_session`]); a
//! user's store hydrates lazily from its snapshot plus the WAL suffix
//! past the snapshot's sequence watermark, and the server-side store
//! watermarks (`absorbed_upto`, per-day profile sequences, places/routes
//! sync sequences) absorb any record applied twice. Queries are never
//! logged: they do not shape user state.
//!
//! The durable engine writes each record as one binary frame
//! ([`WalRecord::to_frame`]), the only on-disk spelling — appends,
//! compaction rewrites and recovery all use it. All integers are
//! little-endian, and strings are a `u32` byte length plus UTF-8:
//!
//! ```text
//! frame = len:u32 | !len:u32 | fnv1a64(body):u64 | body (len bytes)
//! body  = seq:u64 | key:str | kind:u8 | op
//! op    = kind 0, token grant:  token:str | expires_at_s:u64
//!       | kind 1, request:      Request::to_bytes wire bytes (to the end)
//!       | kind 2, discover:     token:str | start:u64 | ObservationBatch::to_bytes (to the end)
//! ```
//!
//! Kind 2 carries a sequenced, batched `POST /api/v1/places/discover`
//! in the batch's binary column codec, so the largest records are never
//! rendered or parsed as JSON on the durable path; any other discover body
//! (a plain array, or no `start`) is a kind 1 request. The `!len` copy,
//! as in DEFLATE's stored blocks, tells a damaged length from a torn
//! write: a frame the file ends inside is [`FrameError::Torn`], one whose
//! length check or checksum fails is [`FrameError::Corrupt`].

use std::collections::{BTreeMap, HashMap};

use pmware_world::SimTime;

use super::fnv1a;
use crate::api::{Method, Request};
use crate::payload::{DiscoverBody, RequestBody, DISCOVER_PATH, REGISTRATION_PATH};
use crate::wire::{ByteReader, ObservationBatch};

/// One logged operation under an identity key. Equality is wire
/// equality (see [`Request`]'s).
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

    /// The on-disk frame of this record (layout in the module docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the defect when the body would not fit a
    /// frame's `u32` length.
    pub(crate) fn to_frame(&self) -> Result<Vec<u8>, String> {
        let mut frame = vec![0; FRAME_HEADER];
        frame.extend_from_slice(&self.seq.to_le_bytes());
        put_str(&mut frame, &self.key);
        match &self.op {
            WalOp::TokenGrant { token, expires_at } => {
                frame.push(KIND_TOKEN);
                put_str(&mut frame, token);
                frame.extend_from_slice(&expires_at.as_seconds().to_le_bytes());
            }
            WalOp::Request(request) => match batched_discover(request) {
                Some((token, start, batch)) => {
                    frame.push(KIND_DISCOVER);
                    put_str(&mut frame, token);
                    frame.extend_from_slice(&start.to_le_bytes());
                    frame.extend_from_slice(&batch.to_bytes());
                }
                None => {
                    frame.push(KIND_REQUEST);
                    frame.extend_from_slice(&request.to_bytes());
                }
            },
        }
        let body = &frame[FRAME_HEADER..];
        // Every length inside the body is smaller than the body, so when
        // the body fits a `u32` the `as u32` casts in `put_str` were exact.
        let len = u32::try_from(body.len())
            .map_err(|_| format!("wal record body of {} bytes", body.len()))?;
        let checksum = fnv1a(body);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&(!len).to_le_bytes());
        frame[8..FRAME_HEADER].copy_from_slice(&checksum.to_le_bytes());
        Ok(frame)
    }

    /// Decodes the frame at the start of `bytes`, returning the record
    /// and the bytes the frame spans.
    ///
    /// # Errors
    ///
    /// [`FrameError::Torn`] when `bytes` ends inside the frame;
    /// [`FrameError::Corrupt`] when the length check or the checksum
    /// fails, or a checksummed body does not decode. Never panics.
    pub(crate) fn from_frame(bytes: &[u8]) -> Result<(WalRecord, usize), FrameError> {
        let mut header = ByteReader::new(bytes);
        let (Ok(len), Ok(check), Ok(checksum)) = (
            header.take().map(u32::from_le_bytes),
            header.take().map(u32::from_le_bytes),
            header.take().map(u64::from_le_bytes),
        ) else {
            return Err(FrameError::Torn);
        };
        if check != !len {
            return Err(FrameError::Corrupt(format!(
                "length {len} fails its check {check}"
            )));
        }
        let body = header.slice(len as usize).map_err(|_| FrameError::Torn)?;
        if fnv1a(body) != checksum {
            return Err(FrameError::Corrupt(format!(
                "checksum mismatch over {len} body bytes"
            )));
        }
        let record = WalRecord::from_body(body).map_err(FrameError::Corrupt)?;
        Ok((record, FRAME_HEADER + body.len()))
    }

    /// Decodes a checksummed frame body.
    fn from_body(body: &[u8]) -> Result<WalRecord, String> {
        let mut input = ByteReader::new(body);
        let seq = u64::from_le_bytes(input.take()?);
        let key = take_str(&mut input)?.to_owned();
        let [kind] = input.take()?;
        let op = match kind {
            KIND_TOKEN => {
                let token = take_str(&mut input)?.to_owned();
                let expires_at = SimTime::from_seconds(u64::from_le_bytes(input.take()?));
                input.finish()?;
                WalOp::TokenGrant { token, expires_at }
            }
            KIND_REQUEST => {
                let request = Request::from_bytes(input.rest())
                    .map_err(|e| format!("unparseable wal request: {e}"))?;
                WalOp::request(request)
            }
            KIND_DISCOVER => {
                let token = take_str(&mut input)?.to_owned();
                let start = u64::from_le_bytes(input.take()?);
                let batch = ObservationBatch::from_bytes(input.rest())?;
                let body = DiscoverBody {
                    observations: Vec::new(),
                    batch: Some(batch),
                    start: Some(start),
                };
                WalOp::request(Request::post(DISCOVER_PATH, body).with_token(token))
            }
            other => return Err(format!("unknown wal record kind {other}")),
        };
        Ok(WalRecord { seq, key, op })
    }
}

/// Bytes of a frame header: `len`, `!len`, and the body checksum.
pub(crate) const FRAME_HEADER: usize = 4 + 4 + 8;

/// Frame kind byte of a [`WalOp::TokenGrant`].
const KIND_TOKEN: u8 = 0;
/// Frame kind byte of a request logged as its wire bytes.
const KIND_REQUEST: u8 = 1;
/// Frame kind byte of a sequenced, batched discover request.
const KIND_DISCOVER: u8 = 2;

/// Why a frame did not decode.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FrameError {
    /// The bytes end inside the frame: a write cut short by a crash.
    Torn,
    /// A whole frame that fails its length check or checksum, or whose
    /// body does not decode.
    Corrupt(String),
}

/// The parts of a discover request the batched frame kind carries —
/// `(token, start, batch)` — or `None` when the request must be logged as
/// its wire bytes (any other route, a plain-array or unsequenced body, no
/// token, or a ragged batch).
fn batched_discover(request: &Request) -> Option<(&str, u64, &ObservationBatch)> {
    if request.method != Method::Post || request.path != DISCOVER_PATH {
        return None;
    }
    let body = DiscoverBody::from_payload(&request.body)?;
    let batch = body.batch.as_ref().filter(|batch| !batch.is_ragged())?;
    Some((request.token.as_deref()?, body.start?, batch))
}

/// Appends a `u32`-length-prefixed string.
pub(super) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a `u32`-length-prefixed UTF-8 string.
pub(super) fn take_str<'a>(input: &mut ByteReader<'a>) -> Result<&'a str, String> {
    let len = u32::from_le_bytes(input.take()?) as usize;
    std::str::from_utf8(input.slice(len)?).map_err(|e| format!("string: {e}"))
}

/// An in-memory per-key sequenced log, which the durable engine mirrors
/// to its shard files.
#[derive(Debug, Default)]
pub(crate) struct WalLog {
    by_key: BTreeMap<String, Vec<WalRecord>>,
    /// Per key, the highest sequence assigned, loaded or compacted up to.
    /// Compaction can drop a key's newest records, so the next sequence
    /// comes from here and not from the records left: a reused number at
    /// or below a snapshot's watermark would never be replayed.
    high: HashMap<String, u64>,
}

impl WalLog {
    /// Raises `key`'s highest sequence to at least `seq`.
    fn raise(&mut self, key: &str, seq: u64) {
        if let Some(high) = self.high.get_mut(key) {
            *high = (*high).max(seq);
        } else {
            self.high.insert(key.to_owned(), seq);
        }
    }

    /// Appends `op` under `key`, assigning the next per-key sequence
    /// number. Returns a clone of the stored record (for persistence).
    pub(crate) fn append(&mut self, key: &str, op: WalOp) -> WalRecord {
        let seq = self.last_seq(key) + 1;
        self.raise(key, seq);
        let record = WalRecord {
            seq,
            key: key.to_owned(),
            op,
        };
        self.by_key
            .entry(key.to_owned())
            .or_default()
            .push(record.clone());
        record
    }

    /// Inserts an already-sequenced record (durable load path). Records
    /// are re-sorted by sequence once loading finishes.
    pub(crate) fn insert_loaded(&mut self, record: WalRecord) {
        self.raise(&record.key, record.seq);
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

    /// The highest sequence appended under `key` (0 if none), compacted
    /// records included.
    pub(crate) fn last_seq(&self, key: &str) -> u64 {
        self.high.get(key).copied().unwrap_or(0)
    }

    /// All keys with at least one record, in key order (deterministic
    /// recovery ordering).
    pub(crate) fn keys(&self) -> Vec<String> {
        self.by_key.keys().cloned().collect()
    }

    /// Drops every non-exempt record of `key` at or below `upto` (the
    /// key's snapshot watermark). Registrations and token grants survive:
    /// snapshots capture store state, not the auth registry. Returns
    /// whether any record was dropped. Later appends under `key` are
    /// sequenced above `upto`.
    pub(crate) fn compact(&mut self, key: &str, upto: u64) -> bool {
        self.raise(key, upto);
        let Some(log) = self.by_key.get_mut(key) else {
            return false;
        };
        let before = log.len();
        log.retain(|r| r.seq > upto || r.is_compaction_exempt());
        log.len() < before
    }

    /// Every record, in (key, seq) order — the durable rewrite path.
    pub(crate) fn all_records(&self) -> impl Iterator<Item = &WalRecord> {
        self.by_key.values().flatten()
    }
}

/// Crash recovery's replay of one identity key's `records`: every logged
/// registration runs through `handle` as logged (it re-mints the user),
/// and the token grants are returned in log order (the last is the
/// client's live token) for the caller to adopt once every key has
/// replayed. Every other request is left to lazy hydration.
pub(crate) fn replay_session(
    records: &[WalRecord],
    mut handle: impl FnMut(&Request),
) -> Vec<(String, SimTime)> {
    let mut grants = Vec::new();
    for record in records {
        match &record.op {
            WalOp::TokenGrant { token, expires_at } => grants.push((token.clone(), *expires_at)),
            WalOp::Request(request) if record.is_registration() => handle(request),
            WalOp::Request(_) => {}
        }
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::profile::{ContactEntry, MobilityProfile};
    use crate::router::PathSpec;
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn};
    use proptest::prelude::*;
    use serde_json::json;

    fn gsm(minute: u64, cid: u32) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(3_600 + minute * 60),
            cell: CellGlobalId {
                plmn: Plmn { mcc: 404, mnc: 45 },
                lac: Lac(3),
                cell: CellId(cid),
            },
            layer: NetworkLayer::G2,
            rssi_dbm: -71.5,
        }
    }

    fn record(seq: u64, op: WalOp) -> WalRecord {
        WalRecord {
            seq,
            key: "imei-1|u1@example.com".to_owned(),
            op,
        }
    }

    /// One record of every kind the durable engine logs: a request on
    /// every logged route (registration plus each `Ingest` route, the
    /// discover body spelled three ways), and a token grant.
    fn logged_records() -> Vec<WalRecord> {
        let log: Vec<GsmObservation> = (0..40).map(|m| gsm(m, 1 + (m % 3) as u32)).collect();
        let batch = ObservationBatch::encode(&log);
        let contact = ContactEntry {
            contact: "peer-7".into(),
            start: SimTime::from_seconds(60),
            end: SimTime::from_seconds(1_860),
            place: None,
        };
        let requests = [
            Request::post_json(
                REGISTRATION_PATH,
                json!({"imei": "imei-1", "email": "u1@example.com"}),
            ),
            Request::post(
                DISCOVER_PATH,
                DiscoverBody {
                    observations: Vec::new(),
                    batch: Some(batch.clone()),
                    start: Some(80),
                },
            ),
            Request::post_json(DISCOVER_PATH, json!({"observations": log, "start": 40})),
            Request::post_json(DISCOVER_PATH, json!({"batch": batch})),
            Request::post_json("/api/v1/places/sync", json!({"places": [], "seq": 4})),
            Request::post_json("/api/v1/places/label", json!({"place": 2, "label": "gym"})),
            Request::post_json("/api/v1/routes/sync", json!({"routes": [], "seq": 1})),
            Request::post_json(
                "/api/v1/profiles/sync",
                json!({"profile": MobilityProfile::new(3), "seq": 2}),
            ),
            Request::post_json(
                "/api/v1/social/sync",
                json!({"contacts": [contact], "first_seq": 5}),
            ),
        ];
        let mut records: Vec<WalRecord> = requests
            .into_iter()
            .enumerate()
            .map(|(i, request)| record(i as u64 + 1, WalOp::request(request.with_token("tok-x"))))
            .collect();
        records.push(record(
            99,
            WalOp::TokenGrant {
                token: "tok-y".to_owned(),
                expires_at: SimTime::from_seconds(86_400),
            },
        ));
        records
    }

    /// The frame kind byte of a record about `key`.
    fn kind_of(frame: &[u8], key: &str) -> u8 {
        frame[FRAME_HEADER + 8 + 4 + key.len()]
    }

    #[test]
    fn every_logged_record_round_trips_through_its_frame() {
        let records = logged_records();
        let covered: Vec<&str> = records
            .iter()
            .filter_map(|r| match &r.op {
                WalOp::Request(request) => Some(request.path.as_str()),
                WalOp::TokenGrant { .. } => None,
            })
            .collect();
        for route in crate::router::ROUTES {
            let logged = route.rate_class == crate::router::RateClass::Ingest
                || route.path == PathSpec::Exact(REGISTRATION_PATH);
            if let (true, PathSpec::Exact(path)) = (logged, route.path) {
                assert!(covered.contains(&path), "no sample for logged route {path}");
            }
        }
        for record in &records {
            assert!(
                !matches!(&record.op, WalOp::Request(r) if matches!(r.body, Payload::Invalid { .. })),
                "sample {} must decode for its route",
                record.seq
            );
            let frame = record.to_frame().unwrap();
            let (back, len) = WalRecord::from_frame(&frame).unwrap();
            assert_eq!(len, frame.len());
            assert_eq!(&back, record, "record {} changed in its frame", record.seq);
        }
    }

    /// Only a sequenced, batched discover takes the column kind; a plain
    /// array and an unsequenced batch are logged as their wire bytes.
    #[test]
    fn only_sequenced_batched_discovers_take_the_column_kind() {
        let records = logged_records();
        let kinds: Vec<u8> = records
            .iter()
            .map(|r| kind_of(&r.to_frame().unwrap(), &r.key))
            .collect();
        assert_eq!(
            kinds,
            [1, 2, 1, 1, 1, 1, 1, 1, 1, 0],
            "registration, discover (batch + start / array / no start), \
             the four syncs and the label, then the grant"
        );
    }

    #[test]
    fn every_truncated_prefix_is_a_torn_frame() {
        for record in logged_records() {
            let frame = record.to_frame().unwrap();
            for len in 0..frame.len() {
                assert_eq!(
                    WalRecord::from_frame(&frame[..len]).unwrap_err(),
                    FrameError::Torn,
                    "record {} cut at {len}",
                    record.seq
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_corrupt_frame() {
        for record in logged_records() {
            let frame = record.to_frame().unwrap();
            for bit in 0..frame.len() * 8 {
                let mut flipped = frame.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    matches!(WalRecord::from_frame(&flipped), Err(FrameError::Corrupt(_))),
                    "record {} with bit {bit} flipped",
                    record.seq
                );
            }
        }
    }

    /// `body` under a valid frame header.
    fn framed(body: &[u8]) -> Vec<u8> {
        let len = body.len() as u32;
        let mut frame = Vec::new();
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&(!len).to_le_bytes());
        frame.extend_from_slice(&fnv1a(body).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    /// A frame whose checksum holds over a body that does not decode is
    /// corrupt, not a panic.
    #[test]
    fn a_checksummed_but_undecodable_body_is_corrupt() {
        let mut unknown_kind = 1u64.to_le_bytes().to_vec();
        unknown_kind.extend_from_slice(&[1, 0, 0, 0, b'k', 9]);
        let mut bad_request = 1u64.to_le_bytes().to_vec();
        bad_request.extend_from_slice(&[1, 0, 0, 0, b'k', KIND_REQUEST, b'{']);
        for body in [&[][..], &[0; 8], &unknown_kind, &bad_request] {
            assert!(matches!(
                WalRecord::from_frame(&framed(body)),
                Err(FrameError::Corrupt(_))
            ));
        }
    }

    proptest! {
        #[test]
        fn random_bytes_are_rejected_without_a_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..256)
        ) {
            prop_assert!(WalRecord::from_frame(&bytes).is_err());
        }

        #[test]
        fn random_checksummed_bodies_never_panic(
            body in prop::collection::vec(any::<u8>(), 0..256)
        ) {
            let _ = WalRecord::from_frame(&framed(&body));
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
        assert!(log.suffix("missing", 0).is_empty());
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

    /// Compaction that drops a key's newest records does not hand their
    /// sequence numbers out again: a reused number at or below the
    /// snapshot watermark would be skipped by hydration after a crash.
    #[test]
    fn compaction_never_lets_a_sequence_be_reused() {
        let mut log = WalLog::default();
        let grant = || WalOp::TokenGrant {
            token: "tok".into(),
            expires_at: SimTime::EPOCH,
        };
        log.append("a", grant());
        log.append("a", WalOp::request(Request::get("/x")));
        assert!(log.compact("a", 2), "the request goes");
        assert!(!log.compact("a", 2), "nothing left to drop");
        assert_eq!(log.append("a", grant()).seq, 3);
        // A recovered log whose records end below the snapshot watermark.
        let mut loaded = WalLog::default();
        let key = record(1, grant()).key;
        loaded.insert_loaded(record(1, grant()));
        loaded.compact(&key, 9);
        assert_eq!(loaded.append(&key, grant()).seq, 10);
    }

    #[test]
    fn replay_runs_registrations_and_collects_grants() {
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
                token: "tok-1".to_owned(),
                expires_at: SimTime::from_seconds(60),
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
            WalOp::TokenGrant {
                token: "tok-2".to_owned(),
                expires_at: SimTime::from_seconds(120),
            },
        );
        let mut seen = Vec::new();
        let grants = replay_session(&log.suffix("a", 0), |request| {
            seen.push(request.path.clone());
        });
        // The sync is left to lazy hydration.
        assert_eq!(seen, vec![REGISTRATION_PATH]);
        assert_eq!(
            grants,
            vec![
                ("tok-1".to_owned(), SimTime::from_seconds(60)),
                ("tok-2".to_owned(), SimTime::from_seconds(120)),
            ]
        );
    }
}
