//! The durable storage engine's write-ahead log. A [`WalRecord`] is a
//! per-identity-key sequenced [`WalOp`]: one typed op per logged route —
//! the registration and the `Ingest`-class offloads and syncs, each
//! carrying only its typed body — or a [`WalOp::TokenGrant`] capturing a
//! token the instance issued, so a recovered instance can re-adopt the
//! session the client is still holding.
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
//! compaction rewrites and recovery all use it, and recovery decodes
//! frames straight into ops. The body follows the [`crate::codec`]
//! conventions and spells places, routes, profiles and contacts with the
//! snapshot store codec's encoders (`place`, `route`, `profile` and
//! `contact` in [`super::snapshot`]); `opt(x)` is a tag byte, `0` for
//! none or `1` followed by `x`:
//!
//! ```text
//! frame = len:u32 | !len:u32 | checksum(body):u64 | body (len bytes)
//! body  = seq:u64 | key:str | kind:u8 | op
//! op    = kind 0, token grant:   token:str | expires_at_s:u64
//!       | kind 1, registration:  imei:str | email:str
//!       | kind 2, discover:      opt(start:u64) | batched:u8 | block (to the end)
//!       | kind 3, places sync:   count × place | opt(seq:u64)
//!       | kind 4, label:         place:u32 | label:str
//!       | kind 5, routes sync:   count × route | opt(seq:u64)
//!       | kind 6, profiles sync: profile | opt(seq:u64)
//!       | kind 7, social sync:   count × contact | opt(first_seq:u64)
//! ```
//!
//! A discover's `block` is [`ObservationBatch::to_bytes`] of the body's
//! batch (`batched` 1) or of its plain array encoded as one (`batched` 0,
//! decoded back to the array); a batched body's plain array, which no
//! handler reads and the wire never spells, is not kept. The
//! `!len` copy, as in DEFLATE's stored blocks, tells a damaged length
//! from a torn write: a frame the file ends inside is
//! [`FrameError::Torn`], one whose length check or checksum fails, or
//! whose checksummed body does not decode, is [`FrameError::Corrupt`].

use std::collections::{BTreeMap, HashMap};

use pmware_world::SimTime;

use super::snapshot::{StoreWriter, CONTACT_MIN, PLACE_MIN, ROUTE_MIN};
use crate::api::Request;
use crate::codec::{checksum, put_str, ByteReader};
use crate::payload::{
    DiscoverBody, LabelBody, Payload, RegistrationBody, SyncContactsBody, SyncPlacesBody,
    SyncProfileBody, SyncRoutesBody, REGISTRATION_PATH,
};
use crate::wire::ObservationBatch;

/// One logged operation under an identity key: the typed body of a
/// logged route, or a token grant. Bodies are boxed so a record costs
/// what a grant costs: registrations and grants are never compacted, so
/// they are most of a long-lived log.
#[derive(Debug, Clone)]
pub(crate) enum WalOp {
    /// `POST /api/v1/registration`: always replayed (it mints the user)
    /// and never compacted away.
    Register(Box<RegistrationBody>),
    /// `POST /api/v1/places/discover`.
    Discover(Box<DiscoverBody>),
    /// `POST /api/v1/places/sync`.
    PlacesSync(Box<SyncPlacesBody>),
    /// `POST /api/v1/places/label`.
    Label(Box<LabelBody>),
    /// `POST /api/v1/routes/sync`.
    RoutesSync(Box<SyncRoutesBody>),
    /// `POST /api/v1/profiles/sync`.
    ProfilesSync(Box<SyncProfileBody>),
    /// `POST /api/v1/social/sync`.
    SocialSync(Box<SyncContactsBody>),
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
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct WalRecord {
    /// 1-based position in this key's log (the dedup watermark unit).
    pub(crate) seq: u64,
    /// The identity key the record belongs to.
    pub(crate) key: String,
    /// The logged operation.
    pub(crate) op: WalOp,
}

/// Frame kind bytes, one per [`WalOp`] variant (see the module docs).
const KIND_TOKEN: u8 = 0;
const KIND_REGISTER: u8 = 1;
const KIND_DISCOVER: u8 = 2;
const KIND_PLACES: u8 = 3;
const KIND_LABEL: u8 = 4;
const KIND_ROUTES: u8 = 5;
const KIND_PROFILES: u8 = 6;
const KIND_SOCIAL: u8 = 7;

impl WalOp {
    /// The op a successful request on a logged route logs: its typed
    /// body. `None` for a body no logged route takes.
    pub(crate) fn of_request(request: &Request) -> Option<WalOp> {
        Some(match &request.body {
            Payload::Register(body) => WalOp::Register(Box::new(body.clone())),
            Payload::Discover(body) => WalOp::Discover(Box::new(body.clone())),
            Payload::SyncPlaces(body) => WalOp::PlacesSync(Box::new(body.clone())),
            Payload::LabelPlace(body) => WalOp::Label(Box::new(body.clone())),
            Payload::SyncRoutes(body) => WalOp::RoutesSync(Box::new(body.clone())),
            Payload::SyncProfile(body) => WalOp::ProfilesSync(Box::new(body.clone())),
            Payload::SyncContacts(body) => WalOp::SocialSync(Box::new(body.clone())),
            _ => return None,
        })
    }

    /// Writes the op's kind byte and body (layout in the module docs).
    /// Fails only for a ragged discover batch, which no handler accepts.
    fn put(&self, out: &mut StoreWriter) -> Result<(), String> {
        match self {
            WalOp::TokenGrant { token, expires_at } => {
                out.u8(KIND_TOKEN);
                put_str(&mut out.out, token);
                out.time(*expires_at);
            }
            WalOp::Register(body) => {
                out.u8(KIND_REGISTER);
                put_str(&mut out.out, &body.imei);
                put_str(&mut out.out, &body.email);
            }
            WalOp::Discover(body) => {
                out.u8(KIND_DISCOVER);
                out.opt(body.start, StoreWriter::u64);
                let block = match &body.batch {
                    Some(batch) if batch.is_ragged() => return Err("ragged batch".to_owned()),
                    Some(batch) => batch.to_bytes(),
                    None => ObservationBatch::encode(&body.observations).to_bytes(),
                };
                out.u8(u8::from(body.batch.is_some()));
                out.out.extend_from_slice(&block);
            }
            WalOp::PlacesSync(body) => {
                out.u8(KIND_PLACES);
                out.count(body.places.len());
                body.places.iter().for_each(|place| out.place(place));
                out.opt(body.seq, StoreWriter::u64);
            }
            WalOp::Label(body) => {
                out.u8(KIND_LABEL);
                out.u32(body.place.0);
                put_str(&mut out.out, &body.label);
            }
            WalOp::RoutesSync(body) => {
                out.u8(KIND_ROUTES);
                out.count(body.routes.len());
                body.routes.iter().for_each(|route| out.route(route));
                out.opt(body.seq, StoreWriter::u64);
            }
            WalOp::ProfilesSync(body) => {
                out.u8(KIND_PROFILES);
                out.profile(&body.profile);
                out.opt(body.seq, StoreWriter::u64);
            }
            WalOp::SocialSync(body) => {
                out.u8(KIND_SOCIAL);
                out.count(body.contacts.len());
                body.contacts
                    .iter()
                    .for_each(|contact| out.contact(contact));
                out.opt(body.first_seq, StoreWriter::u64);
            }
        }
        Ok(())
    }

    /// Reads an op's kind byte and body, to the end of `input`.
    fn take(input: &mut ByteReader<'_>) -> Result<WalOp, String> {
        Ok(match input.u8()? {
            KIND_TOKEN => WalOp::TokenGrant {
                token: input.str()?,
                expires_at: input.time()?,
            },
            KIND_REGISTER => WalOp::Register(Box::new(RegistrationBody {
                imei: input.str()?,
                email: input.str()?,
            })),
            KIND_DISCOVER => {
                let (start, batched) = (input.opt("sequence", ByteReader::u64)?, input.u8()?);
                let batch = ObservationBatch::from_bytes(input.rest())?;
                let (observations, batch) = match batched {
                    0 => (batch.decode()?, None),
                    1 => (Vec::new(), Some(batch)),
                    tag => return Err(format!("discover batched tag {tag}")),
                };
                WalOp::Discover(Box::new(DiscoverBody {
                    observations,
                    batch,
                    start,
                }))
            }
            KIND_PLACES => WalOp::PlacesSync(Box::new(SyncPlacesBody {
                places: input.list(PLACE_MIN, "place", ByteReader::place)?,
                seq: input.opt("sequence", ByteReader::u64)?,
            })),
            KIND_LABEL => WalOp::Label(Box::new(LabelBody {
                place: input.place_id()?,
                label: input.str()?,
            })),
            KIND_ROUTES => WalOp::RoutesSync(Box::new(SyncRoutesBody {
                routes: input.list(ROUTE_MIN, "route", ByteReader::route)?,
                seq: input.opt("sequence", ByteReader::u64)?,
            })),
            KIND_PROFILES => WalOp::ProfilesSync(Box::new(SyncProfileBody {
                profile: input.profile()?,
                seq: input.opt("sequence", ByteReader::u64)?,
            })),
            KIND_SOCIAL => WalOp::SocialSync(Box::new(SyncContactsBody {
                contacts: input.list(CONTACT_MIN, "contact", ByteReader::contact)?,
                first_seq: input.opt("sequence", ByteReader::u64)?,
            })),
            other => return Err(format!("unknown wal record kind {other}")),
        })
    }
}

impl WalRecord {
    /// Whether compaction must keep this record even below the snapshot
    /// watermark: registrations and token grants rebuild the auth side,
    /// which snapshots do not capture.
    pub(crate) fn is_compaction_exempt(&self) -> bool {
        matches!(self.op, WalOp::Register(_) | WalOp::TokenGrant { .. })
    }

    /// The on-disk frame of this record (layout in the module docs).
    ///
    /// # Errors
    ///
    /// Returns a description of the defect when the body would not fit a
    /// frame's `u32` length, or holds a ragged discover batch.
    pub(crate) fn to_frame(&self) -> Result<Vec<u8>, String> {
        let mut out = StoreWriter::default();
        out.out.resize(FRAME_HEADER, 0);
        out.u64(self.seq);
        put_str(&mut out.out, &self.key);
        self.op.put(&mut out)?;
        let mut frame = out.out;
        let body = &frame[FRAME_HEADER..];
        // Every length inside the body is smaller than the body, so when
        // the body fits a `u32` the `as u32` casts in `put_str` were exact.
        let len = u32::try_from(body.len())
            .map_err(|_| format!("wal record body of {} bytes", body.len()))?;
        let check = checksum(0, body);
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&(!len).to_le_bytes());
        frame[8..FRAME_HEADER].copy_from_slice(&check.to_le_bytes());
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
        let (Ok(len), Ok(check), Ok(sum)) = (header.u32(), header.u32(), header.u64()) else {
            return Err(FrameError::Torn);
        };
        if check != !len {
            return Err(FrameError::Corrupt(format!(
                "length {len} fails its check {check}"
            )));
        }
        let body = header.slice(len as usize).map_err(|_| FrameError::Torn)?;
        if checksum(0, body) != sum {
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
        let seq = input.u64()?;
        let key = input.str()?;
        let op = WalOp::take(&mut input)?;
        input.finish()?;
        Ok(WalRecord { seq, key, op })
    }
}

/// Bytes of a frame header: `len`, `!len`, and the body checksum.
pub(crate) const FRAME_HEADER: usize = 4 + 4 + 8;

/// Why a frame did not decode.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FrameError {
    /// The bytes end inside the frame: a write cut short by a crash.
    Torn,
    /// A whole frame that fails its length check or checksum, or whose
    /// body does not decode.
    Corrupt(String),
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
/// registration runs through `handle` as the request it was (it re-mints
/// the user), and the token grants are returned in log order (the last
/// is the client's live token) for the caller to adopt once every key has
/// replayed. Every other op is left to lazy hydration.
pub(crate) fn replay_session(
    records: &[WalRecord],
    mut handle: impl FnMut(&Request),
) -> Vec<(String, SimTime)> {
    let mut grants = Vec::new();
    for record in records {
        match &record.op {
            WalOp::TokenGrant { token, expires_at } => grants.push((token.clone(), *expires_at)),
            WalOp::Register(body) => handle(&Request::post(REGISTRATION_PATH, (**body).clone())),
            _ => {}
        }
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::take_str;
    use crate::payload::SocialQueryBody;
    use crate::profile::{ContactEntry, MobilityProfile, PlaceEntry};
    use crate::router::{PathSpec, ROUTES};
    use crate::storage::snapshot::tests::{generated_store, Gen};
    use pmware_algorithms::route::{CanonicalRoute, RouteGeometry, RouteId};
    use pmware_algorithms::signature::{
        DiscoveredPlace, DiscoveredPlaceId, DiscoveredVisit, PlaceSignature,
    };
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn};
    use proptest::prelude::*;

    /// Op equality is frame equality: two ops are equal when they encode
    /// to the same bytes, which spell every `f64` by its bits.
    impl PartialEq for WalOp {
        fn eq(&self, other: &WalOp) -> bool {
            let bytes = |op: &WalOp| {
                let mut out = StoreWriter::default();
                op.put(&mut out).map(|()| out.out)
            };
            matches!((bytes(self), bytes(other)), (Ok(a), Ok(b)) if a == b)
        }
    }

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

    fn sync() -> WalOp {
        WalOp::PlacesSync(Box::new(SyncPlacesBody {
            places: Vec::new(),
            seq: None,
        }))
    }

    fn registration_body(imei: &str) -> RegistrationBody {
        RegistrationBody {
            imei: imei.to_owned(),
            email: "u1@example.com".to_owned(),
        }
    }

    fn registration(imei: &str) -> WalOp {
        WalOp::Register(Box::new(registration_body(imei)))
    }

    /// A request on every logged route — the registration and each
    /// `Ingest` route, the discover body in each of its shapes.
    fn logged_requests() -> Vec<Request> {
        let log: Vec<GsmObservation> = (0..40).map(|m| gsm(m, 1 + (m % 3) as u32)).collect();
        let contact = ContactEntry {
            contact: "peer-7".into(),
            start: SimTime::from_seconds(60),
            end: SimTime::from_seconds(1_860),
            place: Some(DiscoveredPlaceId(2)),
        };
        let place = DiscoveredPlace {
            id: DiscoveredPlaceId(2),
            signature: PlaceSignature::Cells(log.iter().map(|o| o.cell).collect()),
            visits: vec![DiscoveredVisit {
                arrival: SimTime::from_seconds(60),
                departure: SimTime::from_seconds(900),
            }],
            label: Some("gym".into()),
        };
        let route = CanonicalRoute {
            id: RouteId(1),
            from: DiscoveredPlaceId(2),
            to: DiscoveredPlaceId(3),
            geometry: RouteGeometry::CellSequence(vec![log[0].cell, log[1].cell]),
            usage_count: 2,
            traversals: vec![SimTime::from_seconds(5), SimTime::from_seconds(9)],
        };
        let mut profile = MobilityProfile::new(3);
        profile.places.push(PlaceEntry {
            place: DiscoveredPlaceId(2),
            arrival: SimTime::from_seconds(60),
            departure: SimTime::from_seconds(900),
        });
        profile.contacts.push(contact.clone());
        let discover = |observations: &[GsmObservation], batch: bool, start| {
            let body = DiscoverBody {
                observations: if batch {
                    Vec::new()
                } else {
                    observations.to_vec()
                },
                batch: batch.then(|| ObservationBatch::encode(observations)),
                start,
            };
            Request::post("/api/v1/places/discover", body)
        };
        [
            Request::post(REGISTRATION_PATH, registration_body("imei-1")),
            discover(&log, true, Some(80)),
            discover(&log, false, Some(40)),
            discover(&log, true, None),
            discover(&log, false, None),
            Request::post(
                "/api/v1/places/sync",
                SyncPlacesBody {
                    places: vec![place],
                    seq: Some(4),
                },
            ),
            Request::post(
                "/api/v1/places/label",
                LabelBody {
                    place: DiscoveredPlaceId(2),
                    label: "gym".into(),
                },
            ),
            Request::post(
                "/api/v1/routes/sync",
                SyncRoutesBody {
                    routes: vec![route],
                    seq: Some(1),
                },
            ),
            Request::post(
                "/api/v1/profiles/sync",
                SyncProfileBody {
                    profile,
                    seq: Some(2),
                },
            ),
            Request::post(
                "/api/v1/social/sync",
                SyncContactsBody {
                    contacts: vec![contact],
                    first_seq: None,
                },
            ),
        ]
        .into_iter()
        .map(|request| request.with_token("tok-x"))
        .collect()
    }

    /// One record of every kind the durable engine logs: the op of every
    /// logged request, then a token grant.
    fn logged_records() -> Vec<WalRecord> {
        let mut records: Vec<WalRecord> = logged_requests()
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let op = WalOp::of_request(request)
                    .unwrap_or_else(|| panic!("{} logs no op", request.path));
                record(i as u64 + 1, op)
            })
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
        let requests = logged_requests();
        for route in ROUTES {
            let logged = route.logged || route.path == PathSpec::Exact(REGISTRATION_PATH);
            if let (true, PathSpec::Exact(path)) = (logged, route.path) {
                assert!(
                    requests.iter().any(|r| r.path == path),
                    "no sample for logged route {path}"
                );
            }
        }
        for record in logged_records() {
            let frame = record.to_frame().unwrap();
            let (back, len) = WalRecord::from_frame(&frame).unwrap();
            assert_eq!(len, frame.len());
            assert_eq!(back, record, "record {} changed in its frame", record.seq);
        }
    }

    /// Each op takes its own kind byte; queries log nothing.
    #[test]
    fn each_op_takes_its_own_kind() {
        let kinds: Vec<u8> = logged_records()
            .iter()
            .map(|r| kind_of(&r.to_frame().unwrap(), &r.key))
            .collect();
        assert_eq!(
            kinds,
            [1, 2, 2, 2, 2, 3, 4, 5, 6, 7, 0],
            "registration, discover (four shapes), the places sync, the \
             label, the routes, profiles and social syncs, then the grant"
        );
        let query = Request::post("/api/v1/social/query", SocialQueryBody { place: None });
        assert!(WalOp::of_request(&query).is_none());
    }

    /// Every discover body shape decodes back to an equal body: the same
    /// `start`, a batch as the same columns, a plain array as the same
    /// observations bit for bit. A batched body's plain array, which no
    /// handler reads, is not kept.
    #[test]
    fn every_discover_shape_round_trips_to_an_equal_body() {
        let log: Vec<GsmObservation> = (0..9).map(|m| gsm(m, 7 - (m % 4) as u32)).collect();
        let mut odd = log.clone();
        odd[3].rssi_dbm = f64::from_bits(0x7ff8_0000_0000_1234);
        odd[4].rssi_dbm = -0.0;
        let bits = |log: &[GsmObservation]| -> Vec<(SimTime, CellGlobalId, u64)> {
            log.iter()
                .map(|o| (o.time, o.cell, o.rssi_dbm.to_bits()))
                .collect()
        };
        for observations in [Vec::new(), log, odd] {
            let batch = ObservationBatch::encode(&observations);
            for start in [None, Some(0), Some(u64::MAX)] {
                let shapes = [
                    (observations.clone(), None),
                    (Vec::new(), Some(batch.clone())),
                    (observations.clone(), Some(batch.clone())),
                ];
                for (plain, batch) in shapes {
                    let body = DiscoverBody {
                        observations: plain,
                        batch,
                        start,
                    };
                    let frame = record(1, WalOp::Discover(Box::new(body.clone())))
                        .to_frame()
                        .unwrap();
                    let (back, _) = WalRecord::from_frame(&frame).unwrap();
                    let WalOp::Discover(back) = back.op else {
                        panic!("a discover decodes as a discover");
                    };
                    assert_eq!(back.start, body.start);
                    assert_eq!(
                        back.batch.as_ref().map(ObservationBatch::to_bytes),
                        body.batch.as_ref().map(ObservationBatch::to_bytes)
                    );
                    let plain = if body.batch.is_some() {
                        Vec::new()
                    } else {
                        bits(&body.observations)
                    };
                    assert_eq!(bits(&back.observations), plain);
                }
            }
        }
        // A ragged batch, which no handler accepts, does not frame.
        let mut ragged = ObservationBatch::encode(&[gsm(1, 1)]);
        ragged.rssi_dbm.clear();
        let body = DiscoverBody {
            observations: Vec::new(),
            batch: Some(ragged),
            start: Some(0),
        };
        assert!(record(1, WalOp::Discover(Box::new(body)))
            .to_frame()
            .is_err());
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
        frame.extend_from_slice(&checksum(0, body).to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    /// Whether `body`, checksummed, is refused as a corrupt frame.
    fn refused(body: &[u8]) -> bool {
        matches!(
            WalRecord::from_frame(&framed(body)),
            Err(FrameError::Corrupt(_))
        )
    }

    /// A frame whose checksum holds over a body that does not decode is
    /// corrupt, not a panic.
    #[test]
    fn a_checksummed_but_undecodable_body_is_corrupt() {
        let mut unknown_kind = 1u64.to_le_bytes().to_vec();
        unknown_kind.extend_from_slice(&[1, 0, 0, 0, b'k', 8]);
        let mut bad_utf8 = 1u64.to_le_bytes().to_vec();
        bad_utf8.extend_from_slice(&[1, 0, 0, 0, 0xff, KIND_TOKEN]);
        for body in [&[][..], &[0; 8], &unknown_kind, &bad_utf8] {
            assert!(refused(body));
        }
    }

    /// Hostile bytes in every op decoder are an error, never a panic: each
    /// record's body, checksummed, cut at every offset and with a byte
    /// appended; every count in it set to `u64::MAX`; every kind byte no
    /// op takes; and an unknown tag where a discover says whether it is
    /// batched and where an op's optional sequence is.
    #[test]
    fn hostile_op_bodies_are_errors_not_panics() {
        for record in logged_records() {
            let frame = record.to_frame().unwrap();
            let body = &frame[FRAME_HEADER..];
            let label = format!("record {}", record.seq);
            for cut in 0..body.len() {
                assert!(refused(&body[..cut]), "{label} cut at {cut}");
            }
            assert!(
                refused(&[body, &[0]].concat()),
                "{label} with a byte appended"
            );

            let mut out = StoreWriter::default();
            out.u64(record.seq);
            put_str(&mut out.out, &record.key);
            record.op.put(&mut out).unwrap();
            assert_eq!(out.out, body, "{label}: the writer spells the frame body");
            for &at in &out.counts {
                let mut hostile = body.to_vec();
                hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                assert!(refused(&hostile), "{label} count at {at}");
            }
            let kind_at = 8 + 4 + record.key.len();
            for kind in 8..=u8::MAX {
                let mut hostile = body.to_vec();
                hostile[kind_at] = kind;
                assert!(refused(&hostile), "{label} as kind {kind}");
            }
            // The tag of a discover's `start` and its batched byte, or the
            // tag of the sequence a sync ends in.
            let tags = match &record.op {
                WalOp::Discover(b) => {
                    vec![kind_at + 1, kind_at + 2 + 8 * b.start.is_some() as usize]
                }
                WalOp::PlacesSync(b) => vec![body.len() - 1 - 8 * b.seq.is_some() as usize],
                WalOp::RoutesSync(b) => vec![body.len() - 1 - 8 * b.seq.is_some() as usize],
                WalOp::ProfilesSync(b) => vec![body.len() - 1 - 8 * b.seq.is_some() as usize],
                WalOp::SocialSync(b) => vec![body.len() - 1 - 8 * b.first_seq.is_some() as usize],
                _ => Vec::new(),
            };
            for at in tags {
                let mut hostile = body.to_vec();
                assert!(hostile[at] <= 1, "{label}: a tag at {at}");
                hostile[at] = 2;
                assert!(refused(&hostile), "{label} tag at {at}");
            }
        }
        // A string length past the body, in every string-led op.
        let mut token = 1u64.to_le_bytes().to_vec();
        put_str(&mut token, "k");
        token.push(KIND_TOKEN);
        token.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(refused(&token));
        assert!(take_str(&mut ByteReader::new(&token[12..])).is_err());
    }

    /// Every op of every logged route, drawn from `seed`: awkward strings,
    /// sequences absent and at the extremes, and the places, routes,
    /// profiles, contacts and observation log of a generated store.
    fn generated_ops(seed: u64) -> Vec<WalOp> {
        let store = generated_store(seed);
        let mut g = Gen(seed ^ 0x5eed);
        let seq = |g: &mut Gen| {
            let value = g.u64();
            g.pick(&[None, Some(value)])
        };
        let log = store
            .gca
            .as_ref()
            .map_or_else(Vec::new, |engine| engine.observations().to_vec());
        let mut ops = vec![
            WalOp::TokenGrant {
                token: g.text(),
                expires_at: g.time(),
            },
            WalOp::Register(Box::new(RegistrationBody {
                imei: g.text(),
                email: g.text(),
            })),
            WalOp::Discover(Box::new(DiscoverBody {
                observations: log.clone(),
                batch: None,
                start: seq(&mut g),
            })),
            WalOp::Discover(Box::new(DiscoverBody {
                observations: Vec::new(),
                batch: Some(ObservationBatch::encode(&log)),
                start: seq(&mut g),
            })),
            WalOp::PlacesSync(Box::new(SyncPlacesBody {
                places: store.places.clone(),
                seq: seq(&mut g),
            })),
            WalOp::Label(Box::new(LabelBody {
                place: DiscoveredPlaceId(g.u32()),
                label: g.text(),
            })),
            WalOp::RoutesSync(Box::new(SyncRoutesBody {
                routes: store.routes.routes().to_vec(),
                seq: seq(&mut g),
            })),
            WalOp::SocialSync(Box::new(SyncContactsBody {
                contacts: store.contacts.clone(),
                first_seq: seq(&mut g),
            })),
        ];
        let profiles = store.history.iter().cloned();
        ops.extend(
            profiles
                .chain([MobilityProfile::new(g.u64())])
                .map(|profile| {
                    WalOp::ProfilesSync(Box::new(SyncProfileBody {
                        profile,
                        seq: seq(&mut g),
                    }))
                }),
        );
        ops
    }

    proptest! {
        /// The op of every logged route round-trips through its frame bit
        /// for bit: the decoded record frames to the same bytes.
        #[test]
        fn generated_ops_round_trip_bit_exact(seed in any::<u64>()) {
            let mut g = Gen(seed);
            for op in generated_ops(seed) {
                let record = WalRecord { seq: g.u64(), key: g.text(), op };
                let frame = record.to_frame().unwrap();
                let (back, len) = WalRecord::from_frame(&frame).unwrap();
                prop_assert_eq!(len, frame.len());
                prop_assert_eq!((back.seq, &back.key), (record.seq, &record.key));
                prop_assert_eq!(back.to_frame().unwrap(), frame);
            }
        }

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
        let a1 = log.append("a", sync());
        let b1 = log.append("b", sync());
        let a2 = log.append("a", sync());
        assert_eq!((a1.seq, b1.seq, a2.seq), (1, 1, 2));
        assert_eq!(log.last_seq("a"), 2);
        assert_eq!(log.suffix("a", 1).len(), 1);
        assert!(log.suffix("missing", 0).is_empty());
    }

    #[test]
    fn compaction_keeps_registrations_and_grants() {
        let mut log = WalLog::default();
        log.append("a", registration("1"));
        log.append(
            "a",
            WalOp::TokenGrant {
                token: "tok".into(),
                expires_at: SimTime::EPOCH,
            },
        );
        log.append("a", sync());
        log.append("a", sync());
        log.compact("a", 3);
        let left = log.suffix("a", 0);
        assert_eq!(left.len(), 3, "registration + grant + seq-4 sync survive");
        assert!(matches!(left[0].op, WalOp::Register(_)));
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
        log.append("a", sync());
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
        log.append("a", registration("1"));
        log.append(
            "a",
            WalOp::TokenGrant {
                token: "tok-1".to_owned(),
                expires_at: SimTime::from_seconds(60),
            },
        );
        log.append("a", sync());
        log.append(
            "a",
            WalOp::TokenGrant {
                token: "tok-2".to_owned(),
                expires_at: SimTime::from_seconds(120),
            },
        );
        let mut seen = Vec::new();
        let grants = replay_session(&log.suffix("a", 0), |request| {
            seen.push((request.path.clone(), request.body.clone()));
        });
        // The registration runs as the request it was; the sync is left
        // to lazy hydration.
        let body = RegistrationBody {
            imei: "1".to_owned(),
            email: "u1@example.com".to_owned(),
        };
        assert_eq!(
            seen,
            vec![(REGISTRATION_PATH.to_owned(), Payload::Register(body))]
        );
        assert_eq!(
            grants,
            vec![
                ("tok-1".to_owned(), SimTime::from_seconds(60)),
                ("tok-2".to_owned(), SimTime::from_seconds(120)),
            ]
        );
    }
}
