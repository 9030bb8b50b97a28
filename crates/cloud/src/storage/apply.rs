//! Pure state-mutation functions for the `Ingest`-class endpoints.
//!
//! Each function is the store-mutating core of one mutating handler,
//! extracted so two callers share one body of logic: the handlers (which
//! add metrics and build wire responses from the returned outcome) and
//! WAL hydration (which re-applies logged ops *directly* to a store
//! being rebuilt — going through `handle` from inside a store acquisition
//! would recurse back into the residency manager).
//!
//! Everything here is deterministic and idempotent by the stores' own
//! sequence watermarks: re-applying an already-absorbed request is a
//! no-op, which is what makes WAL replay safe regardless of how the
//! snapshot watermark and the log tail overlap.

use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
use pmware_algorithms::route::{RouteObservation, RouteStore};
use pmware_algorithms::signature::DiscoveredPlaceId;

use super::wal::WalOp;
use crate::payload::{
    DiscoverBody, LabelBody, SyncContactsBody, SyncPlacesBody, SyncProfileBody, SyncRoutesBody,
};
use crate::state::UserStore;

/// Outcome of a discover offload.
pub(crate) struct DiscoverOutcome {
    /// Whether an already-absorbed prefix was skipped (idempotent replay).
    pub(crate) replayed: bool,
}

/// Outcome of a full-replacement sync (places or routes).
pub(crate) struct SyncOutcome {
    /// Entries stored after the sync.
    pub(crate) stored: usize,
    /// Whether the request was stale (sequence at or below the watermark).
    pub(crate) stale: bool,
}

/// Outcome of a per-day profile upsert.
pub(crate) struct ProfileOutcome {
    /// The day synced.
    pub(crate) day: u64,
    /// Whether the upsert was stale for that day.
    pub(crate) stale: bool,
}

/// Outcome of a social-contact append.
pub(crate) struct ContactsOutcome {
    /// Contacts stored after the append.
    pub(crate) stored: usize,
    /// The acknowledged stream watermark.
    pub(crate) acked_upto: u64,
    /// Whether a re-sent prefix was skipped.
    pub(crate) replayed: bool,
}

/// Folds a GSM observation batch into the store's incremental engine
/// (the `POST /api/v1/places/discover` core). `Err` is the validation
/// failure message for an invalid compressed batch, returned before the
/// store changes.
pub(crate) fn apply_discover(
    store: &mut UserStore,
    config: &GcaConfig,
    body: &DiscoverBody,
) -> Result<DiscoverOutcome, String> {
    // Both spellings feed the engine the same observation sequence. A
    // batch is checked whole, as decoding it would, then absorbed straight
    // from its columns; the plain array is absorbed as it stands.
    if let Some(batch) = &body.batch {
        batch
            .validate()
            .map_err(|e| format!("invalid batch: {e}"))?;
    }
    let (len, first_time) = match &body.batch {
        Some(batch) => (batch.len(), batch.entries().next().map(|entry| entry.time)),
        None => (
            body.observations.len(),
            body.observations.first().map(|obs| obs.time),
        ),
    };
    let absorb = |engine: &mut IncrementalGca, skip: usize| match &body.batch {
        Some(batch) => engine.absorb_coded(&batch.cells, batch.entries().skip(skip)),
        None => engine.absorb(&body.observations[skip..]),
    };
    let mut replayed = false;
    match body.start {
        Some(start) => {
            // Sequenced offload: `start` is the batch's offset in the
            // client's observation stream. A duplicated or retried
            // delivery re-sends a prefix the engine already absorbed —
            // skip it; only the unseen tail is folded in. A start past
            // the watermark means the server lost its engine (config
            // reset): restart from this batch, which is authoritative.
            let len = len as u64;
            if start > store.absorbed_upto || store.gca.is_none() {
                store.gca = Some(IncrementalGca::new(config.clone()));
                store.absorbed_upto = start;
            }
            let skip = (store.absorbed_upto - start) as usize;
            replayed = skip > 0;
            if (skip as u64) < len {
                store.absorbed_upto = start + len;
                let engine = store.gca.as_mut().expect("engine ensured above");
                absorb(engine, skip);
                store.places = engine.discovered_places();
            }
        }
        None => {
            // Legacy unsequenced offload: a batch that rewinds behind the
            // absorbed stream means the client restarted or re-sent
            // history — start over from exactly this batch. Otherwise
            // fold the suffix into the accumulated engine.
            let rewinds = match (&store.gca, first_time) {
                (Some(engine), Some(first)) => engine.last_time().is_some_and(|t| first < t),
                _ => false,
            };
            if rewinds || store.gca.is_none() {
                store.gca = Some(IncrementalGca::new(config.clone()));
                store.absorbed_upto = 0;
            }
            store.absorbed_upto += len as u64;
            let engine = store.gca.as_mut().expect("engine ensured above");
            absorb(engine, 0);
            store.places = engine.discovered_places();
        }
    }
    Ok(DiscoverOutcome { replayed })
}

/// Full replacement of the stored places, sequence-guarded (the
/// `POST /api/v1/places/sync` core).
pub(crate) fn apply_places_sync(store: &mut UserStore, body: &SyncPlacesBody) -> SyncOutcome {
    // A full replacement that was reordered behind a newer one (or
    // delivered twice) must not clobber it.
    let stale = body.seq.is_some_and(|seq| seq <= store.places_seq);
    if !stale {
        store.places = body.places.clone();
        if let Some(seq) = body.seq {
            store.places_seq = seq;
        }
    }
    SyncOutcome {
        stored: store.places.len(),
        stale,
    }
}

/// Attaches a user label to a place (the `POST /api/v1/places/label`
/// core). `None` means the place does not exist.
pub(crate) fn apply_label(store: &mut UserStore, body: &LabelBody) -> Option<DiscoveredPlaceId> {
    let place = store.places.iter_mut().find(|p| p.id == body.place)?;
    place.label = Some(body.label.clone());
    Some(place.id)
}

/// Full replacement of the stored routes, sequence-guarded; the canonical
/// set is rebuilt from the traversals (the `POST /api/v1/routes/sync`
/// core).
pub(crate) fn apply_routes_sync(store: &mut UserStore, body: &SyncRoutesBody) -> SyncOutcome {
    if body.seq.is_some_and(|seq| seq <= store.routes_seq) {
        return SyncOutcome {
            stored: store.routes.routes().len(),
            stale: true,
        };
    }
    let mut fresh = RouteStore::new(0.5);
    for route in &body.routes {
        for start in &route.traversals {
            let _ = fresh.record(RouteObservation {
                from: route.from,
                to: route.to,
                start: *start,
                end: *start,
                geometry: route.geometry.clone(),
            });
        }
    }
    let stored = fresh.routes().len();
    store.routes = fresh;
    if let Some(seq) = body.seq {
        store.routes_seq = seq;
    }
    SyncOutcome {
        stored,
        stale: false,
    }
}

/// Per-day profile upsert with per-day sequence staleness (the
/// `POST /api/v1/profiles/sync` core).
pub(crate) fn apply_profiles_sync(store: &mut UserStore, body: &SyncProfileBody) -> ProfileOutcome {
    let day = body.profile.day;
    // Per-day upsert sequencing: a duplicate delivery or a stale version
    // reordered behind a newer one is acknowledged without re-applying,
    // so the history (and its generation) only moves for new data.
    let stale = body
        .seq
        .is_some_and(|seq| store.profile_seq.get(&day).is_some_and(|&s| seq <= s));
    if !stale {
        store.history.upsert(body.profile.clone());
        if let Some(seq) = body.seq {
            store.profile_seq.insert(day, seq);
        }
    }
    ProfileOutcome { day, stale }
}

/// Appends encounters, deduplicating re-sent prefixes through the stream
/// watermark (the `POST /api/v1/social/sync` core).
pub(crate) fn apply_social_sync(store: &mut UserStore, body: &SyncContactsBody) -> ContactsOutcome {
    let mut replayed = false;
    match body.first_seq {
        Some(first_seq) => {
            // Sequenced sync: skip the prefix already absorbed (a retried
            // buffer re-sends from its unacknowledged base), append only
            // unseen entries, and acknowledge the new watermark so the
            // client can drain its buffer. A base past the watermark
            // means the server lost state — absorb everything and resync.
            let len = body.contacts.len() as u64;
            if first_seq > store.contacts_absorbed {
                store.contacts_absorbed = first_seq;
            }
            let skip = (store.contacts_absorbed - first_seq) as usize;
            replayed = skip > 0;
            if (skip as u64) < len {
                store
                    .contacts
                    .extend(body.contacts.iter().skip(skip).cloned());
                store.contacts_absorbed = first_seq + len;
            }
        }
        None => {
            // Legacy blind extend.
            store.contacts_absorbed += body.contacts.len() as u64;
            store.contacts.extend(body.contacts.iter().cloned());
        }
    }
    ContactsOutcome {
        stored: store.contacts.len(),
        acked_upto: store.contacts_absorbed,
        replayed,
    }
}

/// Re-applies one logged op directly to a store under hydration.
/// Registrations and token grants shape the auth registry, not the
/// store, so they are no-ops here.
pub(crate) fn apply_op(store: &mut UserStore, config: &GcaConfig, op: &WalOp) {
    match op {
        WalOp::Discover(body) => {
            // Every logged discover already succeeded once, so it is valid.
            let _ = apply_discover(store, config, body);
        }
        WalOp::PlacesSync(body) => {
            apply_places_sync(store, body);
        }
        WalOp::Label(body) => {
            apply_label(store, body);
        }
        WalOp::RoutesSync(body) => {
            apply_routes_sync(store, body);
        }
        WalOp::ProfilesSync(body) => {
            apply_profiles_sync(store, body);
        }
        WalOp::SocialSync(body) => {
            apply_social_sync(store, body);
        }
        WalOp::Register(_) | WalOp::TokenGrant { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ContactEntry;
    use crate::storage::snapshot::Parked;
    use crate::wire::ObservationBatch;
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
    use proptest::prelude::*;

    fn contact(name: &str, at_s: u64) -> ContactEntry {
        ContactEntry {
            contact: name.to_owned(),
            start: SimTime::from_seconds(at_s),
            end: SimTime::from_seconds(at_s + 60),
            place: None,
        }
    }

    #[test]
    fn replaying_a_sync_is_idempotent() {
        let mut store = UserStore::default();
        let body = SyncContactsBody {
            contacts: vec![contact("p1", 10), contact("p2", 20)],
            first_seq: Some(0),
        };
        let first = apply_social_sync(&mut store, &body);
        assert_eq!(
            (first.stored, first.acked_upto, first.replayed),
            (2, 2, false)
        );
        let again = apply_social_sync(&mut store, &body);
        assert_eq!(
            (again.stored, again.acked_upto, again.replayed),
            (2, 2, true)
        );
    }

    #[test]
    fn apply_op_dispatches_on_the_op() {
        let mut store = UserStore::default();
        let config = GcaConfig::default();
        let body = SyncContactsBody {
            contacts: vec![contact("p1", 5)],
            first_seq: Some(0),
        };
        apply_op(&mut store, &config, &WalOp::SocialSync(Box::new(body)));
        assert_eq!(store.contacts.len(), 1);
        assert_eq!(store.contacts_absorbed, 1);
    }

    fn gsm(second: u64, id: u32) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(second),
            cell: CellGlobalId {
                plmn: Plmn { mcc: 404, mnc: 45 },
                lac: Lac(1),
                cell: CellId(id),
            },
            layer: if id.is_multiple_of(3) {
                NetworkLayer::G3
            } else {
                NetworkLayer::G2
            },
            rssi_dbm: -60.0 - f64::from(id),
        }
    }

    /// A time-ordered stream over a small cell alphabet, one sample a
    /// minute, with occasional long gaps.
    fn stream() -> impl Strategy<Value = Vec<GsmObservation>> {
        prop::collection::vec((0u32..7, 0u8..20), 20..240).prop_map(|steps| {
            let mut second = 0;
            steps
                .into_iter()
                .map(|(id, gap)| {
                    second += if gap == 0 { 3_600 } else { 60 };
                    gsm(second, id)
                })
                .collect()
        })
    }

    /// One discover request: the stream slice `from..to` and the start it
    /// claims (`None` for the legacy unsequenced spelling).
    #[derive(Debug, Clone)]
    struct Delivery {
        from: usize,
        to: usize,
        start: Option<u64>,
    }

    /// Deliveries as a slice start (a fraction of the stream) and a span.
    /// Sequenced, each claims its true offset, so one that overlaps the
    /// watermark is a replay whose seen prefix is skipped and one past it
    /// a reset; unsequenced, one that starts behind the absorbed stream
    /// is a rewind and any other continues it.
    fn deliveries() -> impl Strategy<Value = Vec<(f64, usize)>> {
        prop::collection::vec((0.0..1.0f64, 0usize..60), 1..10)
    }

    /// The delivery `(at, span)` names in a stream of `len` observations.
    fn delivery(len: usize, (at, span): (f64, usize), sequenced: bool) -> Delivery {
        let from = (len as f64 * at) as usize;
        Delivery {
            from,
            to: (from + span).min(len),
            start: sequenced.then_some(from as u64),
        }
    }

    /// The batch a client might send for `slice`: the encoder's, or one
    /// spelling the same observations otherwise — a reversed dictionary
    /// that also lists a cell no entry names, and a first delta longer
    /// than the sampling period.
    fn batch_of(slice: &[GsmObservation], shuffled: bool) -> ObservationBatch {
        let mut batch = ObservationBatch::encode(slice);
        if shuffled && !slice.is_empty() {
            let last = batch.cells.len() as u32;
            batch.cells.reverse();
            batch.cells.push(gsm(0, 99).cell);
            batch.cell.iter_mut().for_each(|s| *s = last - 1 - *s);
            batch.t0 = batch.t0.wrapping_sub(90);
            batch.dt[0] = 90;
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Absorbing a coded batch straight from its columns leaves the
        /// store exactly as decoding it and absorbing the plain array
        /// does, delivery after delivery: same outcome, same places, same
        /// parked bytes (the engine's export and its column log included).
        #[test]
        fn a_coded_batch_leaves_the_store_as_the_decoded_one(
            stream in stream(),
            deliveries in deliveries(),
            sequenced in any::<bool>(),
            shuffled in any::<bool>(),
        ) {
            let config = GcaConfig::default();
            let (mut coded, mut decoded) = (UserStore::default(), UserStore::default());
            for raw in deliveries {
                let delivery = delivery(stream.len(), raw, sequenced);
                let batch = batch_of(&stream[delivery.from..delivery.to], shuffled);
                let observations = batch.decode().unwrap();
                let coded_body = DiscoverBody {
                    observations: Vec::new(),
                    batch: Some(batch),
                    start: delivery.start,
                };
                let plain_body = DiscoverBody {
                    observations,
                    batch: None,
                    start: delivery.start,
                };
                let a = apply_discover(&mut coded, &config, &coded_body).unwrap();
                let b = apply_discover(&mut decoded, &config, &plain_body).unwrap();
                prop_assert_eq!(a.replayed, b.replayed);
                prop_assert_eq!(coded.absorbed_upto, decoded.absorbed_upto);
                prop_assert_eq!(&coded.places, &decoded.places);
                prop_assert_eq!(Parked::of(&coded), Parked::of(&decoded));
            }
        }
    }

    /// A ragged batch and one naming a symbol outside its dictionary are
    /// refused with the text decoding them gives, before the store
    /// changes, whatever the delivery's start.
    #[test]
    fn invalid_batches_are_refused_before_the_store_changes() {
        let config = GcaConfig::default();
        let log: Vec<GsmObservation> = (0..60).map(|m| gsm(m * 60, (m % 3) as u32)).collect();
        let mut store = UserStore::default();
        let body = DiscoverBody {
            observations: Vec::new(),
            batch: Some(ObservationBatch::encode(&log[..40])),
            start: Some(0),
        };
        apply_discover(&mut store, &config, &body).unwrap();
        let before = Parked::of(&store);

        let mut ragged = ObservationBatch::encode(&log[40..]);
        ragged.layer.pop();
        let mut outside = ObservationBatch::encode(&log[40..]);
        outside.cell[7] = outside.cells.len() as u32;
        for bad in [ragged, outside] {
            let expected = format!("invalid batch: {}", bad.decode().unwrap_err());
            for start in [Some(0), Some(40), Some(45), Some(1_000), None] {
                let body = DiscoverBody {
                    observations: Vec::new(),
                    batch: Some(bad.clone()),
                    start,
                };
                let err = apply_discover(&mut store, &config, &body)
                    .map(|_| ())
                    .unwrap_err();
                assert_eq!(err, expected, "start {start:?}");
                assert_eq!(Parked::of(&store), before, "start {start:?}");
                assert_eq!(store.absorbed_upto, 40);
            }
        }
    }
}
