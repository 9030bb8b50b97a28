//! Compacted per-user snapshots: the binary form an evicted
//! [`UserStore`] parks in, and the store that holds them.
//!
//! A snapshot captures everything hydration needs to rebuild the exact
//! store: the client-visible state, the idempotency watermarks, and the
//! discovery engine — its config, its [`IncrementalGca::export`] and its
//! observation log. Hydration restores the engine
//! ([`IncrementalGca::restore`]) without absorbing the log again, so it
//! does no GCA work per observation. The memoized next-place
//! model is kept only when it was current at snapshot time, and
//! re-tagged to the *rebuilt* history's generation (hydration rebuilds
//! the history via upserts, so the generation counter restarts).
//!
//! A parked store is a [`Parked`] pair: the store bytes, which hold
//! every field but the GCA observation log, and the log, which dominates
//! a long-lived user's state, as the binary column block of
//! [`ObservationBatch::to_bytes`] (empty when the store has no discovery
//! engine). The engine keeps its log in the same columns (time, cell
//! symbol, layer, RSSI; [`pmware_algorithms::gca::LogColumns`]) under a
//! dictionary of every recorded cell in first-seen order, which is the
//! block's own, so parking writes the block straight from the columns
//! (`ObservationBatch::log_bytes`: times become deltas, symbols stay)
//! and hydration hands the block's columns back to the restore without
//! decoding an observation. The engine section therefore stores neither
//! dictionary nor symbols: the engine's graph cells are the block's
//! first cells, one per dwell entry, and its absorbed entries the
//! block's first `absorbed`. The store bytes follow the
//! [`crate::codec`] conventions — the WAL's op bodies reuse the place,
//! route, profile and contact encoders here: integers little-endian, counts
//! `u64`, strings a `u32` byte length plus UTF-8, `f64` values as
//! `to_bits` (so `-0.0` and NaN payloads survive bit for bit), times as
//! seconds, and an `opt(x)` a tag byte, `0` for none or `1` followed by
//! `x`:
//!
//! ```text
//! store     = count × place | routes | count × profile (by day)
//!           | count × contact | opt(engine) | opt(model)
//!           | absorbed_upto:u64 | contacts_absorbed:u64
//!           | count × (day:u64 seq:u64) (profile sequences, by day)
//!           | places_seq:u64 | routes_seq:u64
//! place     = id:u32 | signature | count × (arrival departure) | opt(label:str)
//! signature = 0 | count × cell  /  1 | count × bssid:u64
//!           / 2 | lat:f64 lng:f64 radius:f64
//! cell      = mcc:u16 mnc:u16 lac:u16 cid:u32
//! routes    = match_threshold:f64 | count × route
//! route     = id:u32 from:u32 to:u32 | geometry | usage_count:u32 | count × start
//! geometry  = 0 | count × cell  /  1 | count × (lat:f64 lng:f64)
//! profile   = day:u64 | count × (place:u32 arrival departure)
//!           | count × (route:u32 start end) | count × contact
//!           | moving_s:u64 stationary_s:u64
//! contact   = id:str start end opt(place:u32)
//! engine    = config | absorbed:u64 | count × dwell_s:u64
//!           | count × (a:u32 b:u32 weight:u32) | count × run | opt(run)
//!           | foreign:u32
//! config    = min_bounce_weight:u32 min_stay_s:u64 max_sample_gap_s:u64
//!             run_gap_tolerance:u32 max_signature_cells:u64
//! run       = label:u32 start end
//! model     = count × (from:u32 | count × (to:u32 n:u32))
//! ```
//!
//! Decoding checks every count against the bytes left before it
//! allocates, and every tag, string and coordinate, and rejects trailing
//! bytes; the engine's restore checks its section against the log block.
//! Damaged bytes are an error, never a panic.
//!
//! **Files.** One file per identity key and generation holds a header,
//! then the store bytes, then the log block:
//!
//! ```text
//! header = "PMSN" | version:u32 (2) | wal_seq:u64 | store_len:u64 | log_len:u64
//!        | body_check:u64 | key:str | header_check:u64
//! ```
//!
//! `header_check` covers every header byte before it; `body_check` covers
//! the store bytes, then the log block. Both are
//! [`crate::codec::checksum`], which a flipped bit always changes. The key inside is authoritative (file names are
//! sanitized). A file goes out in one `write_all`.
//!
//! * **Recovery** ([`SnapshotStore::load`]) reads only headers. A header
//!   whose checksum fails, whose magic or version is not this one, whose
//!   key does not match the file name, or whose lengths do not add up to
//!   the file's size, is counted and refused, as is any file of an older
//!   format: a version-1 file, whose store bytes held only the engine's
//!   config, and a file whose first line was a JSON header (its magic
//!   fails).
//! * **Hydration** reads one file whole and checks the header checksum,
//!   the key and watermark it parked under, the size and the body
//!   checksum before it decodes a byte.
//!
//! **Generations.** Each park of a key writes a fresh generation,
//! `snapshots/<safe key>-<fnv>.<gen>.snap`, and never renames over an
//! existing file (ext4 flushes a file renamed over another, which made a
//! park cost ~10× a rename to a fresh name). The bytes go to
//! `<file>.tmp` first, which is then renamed to the new generation's
//! name; generation − 1 is unlinked only after that rename succeeds. A
//! process killed at any point therefore leaves at least one whole
//! `.snap` per parked key:
//!
//! * killed mid-write: a `.tmp` beside generation N — N is used;
//! * killed between rename and unlink: generations N and N + 1 — the
//!   newest wins.
//!
//! WAL shard rewrites follow the same rule, as `wal-NN.<gen>.bin`.
//!
//! Recovery keeps the newest readable generation per key and removes
//! older ones and leftover `.tmp` files. A refused file stays on disk,
//! and the key's next park is numbered above it, so it can never shadow
//! the new one at a later recovery, which then removes it as older. A
//! generation-less `<safe key>-<fnv>.snap`, the name before generations,
//! only ever holds the older format, so its header check refuses it like
//! any other. Nothing is fsynced: the crash model is process death, not
//! power loss.
//!
//! Residency-cap-only mode parks the same pair in memory (bounding the
//! expensive live state — engines, graphs, indexes — not total RSS).
//! With a store directory configured, snapshot bytes go to disk and only
//! the per-key WAL watermark and generation stay resident, which is what
//! keeps capped RSS flat as the population grows. A snapshot whose file
//! could not be written stays resident instead, so hydration still finds
//! it, while the previous generation stays on disk.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use pmware_algorithms::gca::{GcaConfig, GcaExport, GcaState, IncrementalGca, Run};
use pmware_algorithms::route::{CanonicalRoute, RouteGeometry, RouteId, RouteStore};
use pmware_algorithms::signature::{
    DiscoveredPlace, DiscoveredPlaceId, DiscoveredVisit, PlaceSignature,
};
use pmware_geo::{GeoPoint, Meters, Polyline};
use pmware_world::{Bssid, CellGlobalId, SimDuration, SimTime};

use super::{fnv1a, generation_name, parse_generation};
use crate::analytics::ProfileHistory;
use crate::codec::{cell_of, checksum, put_cell, put_str, take_str, ByteReader, CELL_BYTES};
use crate::predict::MarkovPredictor;
use crate::profile::{ActivitySummary, ContactEntry, MobilityProfile, PlaceEntry, RouteEntry};
use crate::state::UserStore;
use crate::wire::ObservationBatch;

/// One parked store: the store bytes and the GCA log block (empty when
/// the store has no discovery engine).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Parked {
    store: Vec<u8>,
    log: Vec<u8>,
}

impl Parked {
    /// Captures a store. The store is not consumed: eviction encodes
    /// under the store mutex, then drops the live entry.
    pub(crate) fn of(store: &UserStore) -> Parked {
        let engine = store.gca.as_ref().map(|engine| (engine, engine.export()));
        let mut out = StoreWriter::default();
        out.store(store, engine.as_ref());
        let log = engine.map_or_else(Vec::new, |(engine, _)| {
            ObservationBatch::log_bytes(engine.log())
        });
        Parked {
            store: out.out,
            log,
        }
    }

    /// Rebuilds the live store, restoring its discovery engine from the
    /// engine section and the log block without absorbing anything.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect when the store bytes do not
    /// decode, the log block does not decode, the two disagree on
    /// whether the store has a discovery engine, or the engine section
    /// does not fit the log (see [`IncrementalGca::restore`]).
    pub(crate) fn to_store(&self) -> Result<UserStore, String> {
        let (mut store, engine) = ByteReader::new(&self.store)
            .store()
            .map_err(|e| format!("store bytes: {e}"))?;
        store.gca = match (engine, self.log.is_empty()) {
            (Some(engine), false) => Some(engine.restore(&self.log)?),
            (None, true) => None,
            (Some(_), true) => return Err("engine without a log block".to_owned()),
            (None, false) => return Err("log block without an engine".to_owned()),
        };
        Ok(store)
    }

    /// The body checksum: the store bytes, then the log block.
    fn body_check(&self) -> u64 {
        checksum(checksum(0, &self.store), &self.log)
    }
}

/// A parked engine section, decoded: everything
/// [`IncrementalGca::restore`] takes but the log and its dictionary,
/// which the log block holds.
struct EngineSection {
    config: GcaConfig,
    /// How many log entries the engine had absorbed.
    absorbed: u64,
    state: GcaState,
}

impl EngineSection {
    /// Restores the engine over the log block `log`, straight from its
    /// columns: the block's dictionary and symbols are the engine's own.
    fn restore(self, log: &[u8]) -> Result<IncrementalGca, String> {
        let (cells, columns) = ObservationBatch::from_bytes(log)?.into_columns();
        let absorbed = usize::try_from(self.absorbed)
            .map_err(|_| format!("{} absorbed of {} logged", self.absorbed, columns.len()))?;
        IncrementalGca::restore(self.config, &cells, columns, absorbed, self.state)
    }
}

/// The fewest bytes each kind of counted item takes, which bounds a
/// count by the bytes left before anything is allocated.
pub(super) const PLACE_MIN: usize = 4 + 1 + 8 + 8 + 1;
const VISIT_BYTES: usize = 16;
const POINT_BYTES: usize = 16;
pub(super) const ROUTE_MIN: usize = 4 + 4 + 4 + 1 + 8 + 4 + 8;
const PROFILE_MIN: usize = 8 + 8 + 8 + 8 + 16;
const ENTRY_BYTES: usize = 4 + 8 + 8;
pub(super) const CONTACT_MIN: usize = 4 + 8 + 8 + 1;
const MODEL_SOURCE_MIN: usize = 4 + 8;
const MODEL_EDGE_BYTES: usize = 4 + 4;
const DWELL_BYTES: usize = 8;
const EDGE_BYTES: usize = 4 + 4 + 4;
const RUN_BYTES: usize = 4 + 8 + 8;
const SEQ_BYTES: usize = 16;

/// Writes a store's bytes (layout in the module docs), and the WAL's
/// op bodies.
#[derive(Default)]
pub(super) struct StoreWriter {
    pub(super) out: Vec<u8>,
    /// The offset of every count written, which the hostile-bytes test
    /// overwrites.
    #[cfg(test)]
    pub(super) counts: Vec<usize>,
    /// The offset of the engine section's `absorbed` field, which the
    /// hostile-bytes test reads the section from.
    #[cfg(test)]
    pub(super) absorbed_at: usize,
}

impl StoreWriter {
    pub(super) fn u8(&mut self, value: u8) {
        self.out.push(value);
    }

    pub(super) fn u32(&mut self, value: u32) {
        self.out.extend_from_slice(&value.to_le_bytes());
    }

    pub(super) fn u64(&mut self, value: u64) {
        self.out.extend_from_slice(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub(super) fn time(&mut self, time: SimTime) {
        self.u64(time.as_seconds());
    }

    pub(super) fn count(&mut self, count: usize) {
        #[cfg(test)]
        self.counts.push(self.out.len());
        self.u64(count as u64);
    }

    pub(super) fn opt<T>(&mut self, value: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match value {
            None => self.u8(0),
            Some(value) => {
                self.u8(1);
                write(self, value);
            }
        }
    }

    fn cell(&mut self, cell: &CellGlobalId) {
        put_cell(&mut self.out, cell);
    }

    fn cells<'a>(&mut self, count: usize, cells: impl Iterator<Item = &'a CellGlobalId>) {
        self.count(count);
        cells.for_each(|cell| self.cell(cell));
    }

    fn point(&mut self, point: GeoPoint) {
        self.f64(point.latitude());
        self.f64(point.longitude());
    }

    pub(super) fn place(&mut self, place: &DiscoveredPlace) {
        self.u32(place.id.0);
        match &place.signature {
            PlaceSignature::Cells(cells) => {
                self.u8(0);
                self.cells(cells.len(), cells.iter());
            }
            PlaceSignature::WifiAps(aps) => {
                self.u8(1);
                self.count(aps.len());
                aps.iter().for_each(|ap| self.u64(ap.0));
            }
            PlaceSignature::Coordinates { center, radius } => {
                self.u8(2);
                self.point(*center);
                self.f64(radius.value());
            }
        }
        self.count(place.visits.len());
        for visit in &place.visits {
            self.time(visit.arrival);
            self.time(visit.departure);
        }
        self.opt(place.label.as_deref(), |out, label| {
            put_str(&mut out.out, label)
        });
    }

    pub(super) fn route(&mut self, route: &CanonicalRoute) {
        self.u32(route.id.0);
        self.u32(route.from.0);
        self.u32(route.to.0);
        match &route.geometry {
            RouteGeometry::CellSequence(cells) => {
                self.u8(0);
                self.cells(cells.len(), cells.iter());
            }
            RouteGeometry::GpsTrace(trace) => {
                self.u8(1);
                self.count(trace.len());
                trace.points().iter().for_each(|point| self.point(*point));
            }
        }
        self.u32(route.usage_count);
        self.count(route.traversals.len());
        route.traversals.iter().for_each(|start| self.time(*start));
    }

    pub(super) fn contact(&mut self, contact: &ContactEntry) {
        put_str(&mut self.out, &contact.contact);
        self.time(contact.start);
        self.time(contact.end);
        self.opt(contact.place, |out, place| out.u32(place.0));
    }

    pub(super) fn profile(&mut self, profile: &MobilityProfile) {
        self.u64(profile.day);
        self.count(profile.places.len());
        for entry in &profile.places {
            self.u32(entry.place.0);
            self.time(entry.arrival);
            self.time(entry.departure);
        }
        self.count(profile.routes.len());
        for entry in &profile.routes {
            self.u32(entry.route.0);
            self.time(entry.start);
            self.time(entry.end);
        }
        self.count(profile.contacts.len());
        profile.contacts.iter().for_each(|c| self.contact(c));
        self.u64(profile.activity.moving_seconds);
        self.u64(profile.activity.stationary_seconds);
    }

    fn config(&mut self, config: &GcaConfig) {
        self.u32(config.min_bounce_weight);
        self.u64(config.min_stay.as_seconds());
        self.u64(config.max_sample_gap.as_seconds());
        self.u32(config.run_gap_tolerance);
        self.u64(config.max_signature_cells as u64);
    }

    fn run(&mut self, run: &Run) {
        self.u32(run.component);
        self.time(run.start);
        self.time(run.end);
    }

    fn engine(&mut self, engine: &IncrementalGca, export: &GcaExport) {
        self.config(engine.config());
        #[cfg(test)]
        {
            self.absorbed_at = self.out.len();
        }
        self.u64(export.absorbed as u64);
        let state = &export.state;
        self.count(state.dwell.len());
        state
            .dwell
            .iter()
            .for_each(|dwell| self.u64(dwell.as_seconds()));
        self.count(state.edges.len());
        for &(a, b, weight) in &state.edges {
            self.u32(a);
            self.u32(b);
            self.u32(weight);
        }
        self.count(state.runs.len());
        state.runs.iter().for_each(|run| self.run(run));
        self.opt(state.open.as_ref(), Self::run);
        self.u32(state.foreign);
    }

    fn model(&mut self, model: &MarkovPredictor) {
        self.count(model.transitions().len());
        for (from, next) in model.transitions() {
            self.u32(from.0);
            self.count(next.len());
            for (to, n) in next {
                self.u32(to.0);
                self.u32(*n);
            }
        }
    }

    /// Writes `store`, whose discovery engine, if any, is given with its
    /// export.
    fn store(&mut self, store: &UserStore, engine: Option<&(&IncrementalGca, GcaExport)>) {
        self.count(store.places.len());
        store.places.iter().for_each(|place| self.place(place));
        self.f64(store.routes.match_threshold());
        self.count(store.routes.routes().len());
        store.routes.routes().iter().for_each(|r| self.route(r));
        self.count(store.history.len());
        store.history.iter().for_each(|p| self.profile(p));
        self.count(store.contacts.len());
        store.contacts.iter().for_each(|c| self.contact(c));
        self.opt(engine, |out, (engine, export)| out.engine(engine, export));
        // Persist the memoized predictor only if it is current — a stale
        // memo would be dropped on the next query anyway.
        let memo = store
            .next_place
            .as_ref()
            .filter(|(generation, _)| *generation == store.history.generation());
        self.opt(memo, |out, (_, model)| out.model(model));
        self.u64(store.absorbed_upto);
        self.u64(store.contacts_absorbed);
        // Sorted for byte-stable output (the live store uses a `HashMap`).
        let seqs: BTreeMap<u64, u64> = store.profile_seq.iter().map(|(k, v)| (*k, *v)).collect();
        self.count(seqs.len());
        for (day, seq) in seqs {
            self.u64(day);
            self.u64(seq);
        }
        self.u64(store.places_seq);
        self.u64(store.routes_seq);
    }
}

/// The store codec's decoders (layout in the module docs), which the
/// WAL's op bodies share.
impl ByteReader<'_> {
    fn f64(&mut self) -> Result<f64, String> {
        self.u64().map(f64::from_bits)
    }

    pub(super) fn time(&mut self) -> Result<SimTime, String> {
        self.u64().map(SimTime::from_seconds)
    }

    pub(super) fn str(&mut self) -> Result<String, String> {
        take_str(self).map(str::to_owned)
    }

    pub(super) fn place_id(&mut self) -> Result<DiscoveredPlaceId, String> {
        self.u32().map(DiscoveredPlaceId)
    }

    pub(super) fn list<T>(
        &mut self,
        item_bytes: usize,
        what: &str,
        mut read: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let count = self.count(item_bytes, what)?;
        #[cfg(test)]
        tests::note_room(count * std::mem::size_of::<T>());
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    pub(super) fn opt<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            tag => Err(format!("{what} tag {tag}")),
        }
    }

    fn cell(&mut self) -> Result<CellGlobalId, String> {
        self.take().map(cell_of)
    }

    fn point(&mut self) -> Result<GeoPoint, String> {
        let (lat, lng) = (self.f64()?, self.f64()?);
        GeoPoint::new(lat, lng).map_err(|e| e.to_string())
    }

    pub(super) fn place(&mut self) -> Result<DiscoveredPlace, String> {
        let id = self.place_id()?;
        let signature = match self.u8()? {
            0 => PlaceSignature::Cells(BTreeSet::from_iter(self.list(
                CELL_BYTES,
                "signature cell",
                Self::cell,
            )?)),
            1 => PlaceSignature::WifiAps(BTreeSet::from_iter(self.list(
                8,
                "access point",
                |input| input.u64().map(Bssid),
            )?)),
            2 => PlaceSignature::Coordinates {
                center: self.point()?,
                radius: Meters::new(self.f64()?),
            },
            tag => return Err(format!("signature tag {tag}")),
        };
        let visits = self.list(VISIT_BYTES, "visit", |input| {
            Ok(DiscoveredVisit {
                arrival: input.time()?,
                departure: input.time()?,
            })
        })?;
        let label = self.opt("label", Self::str)?;
        Ok(DiscoveredPlace {
            id,
            signature,
            visits,
            label,
        })
    }

    pub(super) fn route(&mut self) -> Result<CanonicalRoute, String> {
        let id = RouteId(self.u32()?);
        let (from, to) = (self.place_id()?, self.place_id()?);
        let geometry = match self.u8()? {
            0 => RouteGeometry::CellSequence(self.list(CELL_BYTES, "route cell", Self::cell)?),
            1 => {
                let points = self.list(POINT_BYTES, "trace point", Self::point)?;
                RouteGeometry::GpsTrace(Polyline::new(points).map_err(|e| e.to_string())?)
            }
            tag => return Err(format!("geometry tag {tag}")),
        };
        Ok(CanonicalRoute {
            id,
            from,
            to,
            geometry,
            usage_count: self.u32()?,
            traversals: self.list(8, "traversal", Self::time)?,
        })
    }

    pub(super) fn contact(&mut self) -> Result<ContactEntry, String> {
        Ok(ContactEntry {
            contact: self.str()?,
            start: self.time()?,
            end: self.time()?,
            place: self.opt("contact place", Self::place_id)?,
        })
    }

    pub(super) fn profile(&mut self) -> Result<MobilityProfile, String> {
        Ok(MobilityProfile {
            day: self.u64()?,
            places: self.list(ENTRY_BYTES, "profile place", |input| {
                Ok(PlaceEntry {
                    place: input.place_id()?,
                    arrival: input.time()?,
                    departure: input.time()?,
                })
            })?,
            routes: self.list(ENTRY_BYTES, "profile route", |input| {
                Ok(RouteEntry {
                    route: RouteId(input.u32()?),
                    start: input.time()?,
                    end: input.time()?,
                })
            })?,
            contacts: self.list(CONTACT_MIN, "profile contact", Self::contact)?,
            activity: ActivitySummary {
                moving_seconds: self.u64()?,
                stationary_seconds: self.u64()?,
            },
        })
    }

    fn config(&mut self) -> Result<GcaConfig, String> {
        Ok(GcaConfig {
            min_bounce_weight: self.u32()?,
            min_stay: SimDuration::from_seconds(self.u64()?),
            max_sample_gap: SimDuration::from_seconds(self.u64()?),
            run_gap_tolerance: self.u32()?,
            max_signature_cells: usize::try_from(self.u64()?)
                .map_err(|_| "signature cell cap exceeds usize".to_owned())?,
        })
    }

    fn run(&mut self) -> Result<Run, String> {
        Ok(Run {
            component: self.u32()?,
            start: self.time()?,
            end: self.time()?,
        })
    }

    fn engine(&mut self) -> Result<EngineSection, String> {
        Ok(EngineSection {
            config: self.config()?,
            absorbed: self.u64()?,
            state: GcaState {
                dwell: self.list(DWELL_BYTES, "dwell", |input| {
                    input.u64().map(SimDuration::from_seconds)
                })?,
                edges: self.list(EDGE_BYTES, "edge", |input| {
                    Ok((input.u32()?, input.u32()?, input.u32()?))
                })?,
                runs: self.list(RUN_BYTES, "run", Self::run)?,
                open: self.opt("open run", Self::run)?,
                foreign: self.u32()?,
            },
        })
    }

    fn model(&mut self) -> Result<MarkovPredictor, String> {
        let sources = self.count(MODEL_SOURCE_MIN, "model source")?;
        let mut transitions = BTreeMap::new();
        for _ in 0..sources {
            let from = self.place_id()?;
            let edges = self.count(MODEL_EDGE_BYTES, "model edge")?;
            let mut next = BTreeMap::new();
            for _ in 0..edges {
                next.insert(self.place_id()?, self.u32()?);
            }
            transitions.insert(from, next);
        }
        Ok(MarkovPredictor::from_transitions(transitions))
    }

    /// The whole store, without its discovery engine, and the engine
    /// section: [`Parked::to_store`] restores the engine over the log
    /// block.
    fn store(mut self) -> Result<(UserStore, Option<EngineSection>), String> {
        let places = self.list(PLACE_MIN, "place", Self::place)?;
        let threshold = self.f64()?;
        let routes = self.list(ROUTE_MIN, "route", Self::route)?;
        let routes = RouteStore::from_parts(threshold, routes)
            .ok_or_else(|| format!("route match threshold {threshold}"))?;
        let mut history = ProfileHistory::new();
        for _ in 0..self.count(PROFILE_MIN, "profile")? {
            history.upsert(self.profile()?);
        }
        let contacts = self.list(CONTACT_MIN, "contact", Self::contact)?;
        let gca = self.opt("engine", Self::engine)?;
        // Re-tag the memo with the rebuilt history's generation: the
        // upserts above restart the counter at the profile count rather
        // than the original run's value.
        let next_place = self
            .opt("next-place memo", Self::model)?
            .map(|model| (history.generation(), model));
        let absorbed_upto = self.u64()?;
        let contacts_absorbed = self.u64()?;
        let seqs = self.count(SEQ_BYTES, "profile sequence")?;
        #[cfg(test)]
        tests::note_room(seqs * std::mem::size_of::<(u64, u64)>());
        let mut profile_seq = HashMap::with_capacity(seqs);
        for _ in 0..seqs {
            profile_seq.insert(self.u64()?, self.u64()?);
        }
        let places_seq = self.u64()?;
        let routes_seq = self.u64()?;
        self.finish()?;
        let store = UserStore {
            places,
            routes,
            history,
            contacts,
            gca: None,
            next_place,
            absorbed_upto,
            contacts_absorbed,
            profile_seq,
            places_seq,
            routes_seq,
        };
        Ok((store, gca))
    }
}

/// The first bytes of every snapshot file.
const MAGIC: [u8; 4] = *b"PMSN";
/// The snapshot file format's version.
const VERSION: u32 = 2;
/// Header bytes before the key string: magic, version, watermark, the two
/// lengths and the body checksum.
const HEADER_FIXED: usize = 4 + 4 + 8 + 8 + 8 + 8;

/// A snapshot file's header (layout in the module docs).
#[derive(Debug, PartialEq)]
struct Header {
    key: String,
    wal_seq: u64,
    store_len: u64,
    log_len: u64,
    body_check: u64,
}

impl Header {
    /// Appends the header bytes, ending in the header checksum.
    fn write(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for field in [self.wal_seq, self.store_len, self.log_len, self.body_check] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        put_str(out, &self.key);
        let check = checksum(0, &out[start..]);
        out.extend_from_slice(&check.to_le_bytes());
    }

    /// Bytes of the whole file this header describes; `None` when that
    /// overflows a `u64`.
    fn file_len(&self) -> Option<u64> {
        let header = (HEADER_FIXED + 4 + self.key.len() + 8) as u64;
        header
            .checked_add(self.store_len)?
            .checked_add(self.log_len)
    }

    /// Reads and checks the header at the start of `file`, leaving the
    /// file at the store bytes. Reads no further than the key length
    /// says, and never allocates more than the file holds.
    fn read(file: &mut fs::File) -> Result<Header, String> {
        let mut head = vec![0; HEADER_FIXED + 4];
        file.read_exact(&mut head)
            .map_err(|e| format!("header: {e}"))?;
        if head[..4] != MAGIC || head[4..8] != VERSION.to_le_bytes() {
            return Err("not a snapshot of this format".to_owned());
        }
        let key_len = ByteReader::new(&head[HEADER_FIXED..]).u32()?;
        let rest = u64::from(key_len) + 8;
        let read = file
            .take(rest)
            .read_to_end(&mut head)
            .map_err(|e| format!("header: {e}"))?;
        if read as u64 != rest {
            return Err(format!(
                "header truncated: {read} of {rest} key and check bytes"
            ));
        }
        let (covered, check) = head.split_at(head.len() - 8);
        if checksum(0, covered).to_le_bytes() != check {
            return Err("header checksum mismatch".to_owned());
        }
        let mut input = ByteReader::new(&covered[8..]);
        let (wal_seq, store_len, log_len, body_check) =
            (input.u64()?, input.u64()?, input.u64()?, input.u64()?);
        let key = take_str(&mut input)?.to_owned();
        Ok(Header {
            key,
            wal_seq,
            store_len,
            log_len,
            body_check,
        })
    }
}

/// One parked snapshot. `resident` is `None` when the bytes live on
/// disk (durable mode): only the watermark and generation stay resident.
#[derive(Debug, Clone)]
struct StoredSnapshot {
    /// Highest WAL sequence folded into the snapshot.
    wal_seq: u64,
    /// The generation on disk (durable mode): the file the next park
    /// supersedes. 0 before the key's first successful write.
    gen: u64,
    /// The parked pair — always in cap-only mode, and in durable mode
    /// while the latest file write has failed.
    resident: Option<Parked>,
}

#[derive(Debug)]
struct SnapState {
    by_key: BTreeMap<String, StoredSnapshot>,
    /// Per file stem, the newest generation recovery refused and left on
    /// disk: the key's next park is numbered above it.
    refused: HashMap<String, u64>,
    dir: Option<PathBuf>,
}

/// The snapshot store: per-key parked stores, in memory or on disk.
#[derive(Debug)]
pub(crate) struct SnapshotStore {
    inner: Mutex<SnapState>,
}

/// The extension of snapshot files.
pub(super) const SNAPSHOT_EXT: &str = "snap";

/// A filesystem-safe spelling of an identity key, shared by all its
/// generations: alphanumerics survive, everything else becomes `_`, and
/// an FNV suffix keeps collided sanitizations apart.
pub(super) fn stem_of(key: &str) -> String {
    let safe: String = key
        .chars()
        .take(48)
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{safe}-{:016x}", fnv1a(key.as_bytes()))
}

/// The file name of `key`'s snapshot generation `gen`.
pub(super) fn file_name_of(key: &str, gen: u64) -> String {
    generation_name(&stem_of(key), gen, SNAPSHOT_EXT)
}

/// Writes generation `gen` of `key`'s snapshot — header, store bytes,
/// log block, in one `write_all` — into `<file>.tmp`, then renames it to
/// the generation's name, which does not exist yet.
fn write_file(dir: &Path, key: &str, gen: u64, wal_seq: u64, parked: &Parked) -> io::Result<()> {
    let header = Header {
        key: key.to_owned(),
        wal_seq,
        store_len: parked.store.len() as u64,
        log_len: parked.log.len() as u64,
        body_check: parked.body_check(),
    };
    let mut bytes = Vec::with_capacity(
        HEADER_FIXED + 4 + key.len() + 8 + parked.store.len() + parked.log.len(),
    );
    header.write(&mut bytes);
    bytes.extend_from_slice(&parked.store);
    bytes.extend_from_slice(&parked.log);
    let path = dir.join(file_name_of(key, gen));
    let tmp = path.with_extension(format!("{SNAPSHOT_EXT}.tmp"));
    fs::File::create(&tmp)?.write_all(&bytes)?;
    fs::rename(&tmp, &path)
}

/// Opens a snapshot file and reads its header, checking the header
/// checksum and that the header's lengths add up to the file's size.
fn open_checked(path: &Path) -> Result<(fs::File, Header), String> {
    let mut file = fs::File::open(path).map_err(|e| e.to_string())?;
    let header = Header::read(&mut file)?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    if header.file_len() != Some(len) {
        return Err(format!("{len} bytes on disk disagree with the header"));
    }
    Ok((file, header))
}

/// Reads the next `len` bytes of `file`, which holds at least that many.
fn read_exactly(file: &mut fs::File, len: u64) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::with_capacity(usize::try_from(len).map_err(|e| e.to_string())?);
    file.take(len)
        .read_to_end(&mut bytes)
        .map_err(|e| e.to_string())?;
    if bytes.len() as u64 != len {
        return Err(format!("{} of {len} bytes read", bytes.len()));
    }
    Ok(bytes)
}

/// Reads `key`'s snapshot file whole into its parked pair, checking the
/// header, that it is the snapshot parked for `key` at `wal_seq`, and the
/// body checksum.
fn read_file(path: &Path, key: &str, wal_seq: u64) -> Result<Parked, String> {
    let (mut file, header) = open_checked(path)?;
    if header.key != key || header.wal_seq != wal_seq {
        return Err(format!(
            "holds {:?} at {}, not {key:?} at {wal_seq}",
            header.key, header.wal_seq
        ));
    }
    let parked = Parked {
        store: read_exactly(&mut file, header.store_len)?,
        log: read_exactly(&mut file, header.log_len)?,
    };
    if parked.body_check() != header.body_check {
        return Err("body checksum mismatch".to_owned());
    }
    Ok(parked)
}

impl SnapshotStore {
    /// An empty store, parking on disk under `dir/snapshots/` (created
    /// here) when a durability directory is given, in memory otherwise.
    pub(crate) fn new(dir: Option<&Path>) -> SnapshotStore {
        let dir = dir.map(|d| d.join("snapshots"));
        if let Some(dir) = &dir {
            let _ = fs::create_dir_all(dir);
        }
        SnapshotStore {
            inner: Mutex::new(SnapState {
                by_key: BTreeMap::new(),
                refused: HashMap::new(),
                dir,
            }),
        }
    }

    /// Parks (or refreshes) `key`'s snapshot. In durable mode it goes to
    /// the next generation's file — numbered above the key's file on disk
    /// and above any file of the key recovery refused — and the
    /// superseded generation is unlinked once the new one is in place.
    ///
    /// # Errors
    ///
    /// In durable mode, the error writing the file. The previous
    /// generation then stays on disk, the snapshot is kept resident, so
    /// hydration still finds it, and it is left out of
    /// [`SnapshotStore::watermarks`], so compaction keeps the WAL records
    /// the file on disk does not cover.
    pub(crate) fn put(&self, key: &str, wal_seq: u64, parked: Parked) -> io::Result<()> {
        let mut state = self.inner.lock();
        let on_disk = state.by_key.get(key).map_or(0, |s| s.gen);
        let (gen, resident, written) = match &state.dir {
            Some(dir) => {
                let stem = stem_of(key);
                let refused = state.refused.get(&stem).copied().unwrap_or(0);
                let gen = on_disk.max(refused) + 1;
                match write_file(dir, key, gen, wal_seq, &parked) {
                    Ok(()) => {
                        // A failed unlink leaves an older generation, which
                        // the next recovery removes.
                        if on_disk > 0 {
                            let _ = fs::remove_file(dir.join(file_name_of(key, on_disk)));
                        }
                        state.refused.remove(&stem);
                        (gen, None, Ok(()))
                    }
                    Err(e) => (on_disk, Some(parked), Err(e)),
                }
            }
            None => (0, Some(parked), Ok(())),
        };
        state.by_key.insert(
            key.to_owned(),
            StoredSnapshot {
                wal_seq,
                gen,
                resident,
            },
        );
        written
    }

    /// The parked snapshot for `key` as `(wal watermark, parked pair)`,
    /// reading disk in durable mode. `None` when `key` has no snapshot;
    /// the pair is `None` when its file is missing or fails a check.
    pub(crate) fn get(&self, key: &str) -> Option<(u64, Option<Parked>)> {
        let state = self.inner.lock();
        let snapshot = state.by_key.get(key)?;
        let parked = match (&snapshot.resident, &state.dir) {
            (Some(parked), _) => Some(parked.clone()),
            (None, Some(dir)) => read_file(
                &dir.join(file_name_of(key, snapshot.gen)),
                key,
                snapshot.wal_seq,
            )
            .ok(),
            (None, None) => None,
        };
        Some((snapshot.wal_seq, parked))
    }

    /// Whether `key` has a parked snapshot.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: &str) -> bool {
        self.inner.lock().by_key.contains_key(key)
    }

    /// Snapshot keys currently parked, in key order.
    pub(crate) fn keys(&self) -> Vec<String> {
        self.inner.lock().by_key.keys().cloned().collect()
    }

    /// Per-key WAL watermarks of the snapshots whose durable copy is
    /// current — what compaction may drop.
    pub(crate) fn watermarks(&self) -> HashMap<String, u64> {
        self.inner
            .lock()
            .by_key
            .iter()
            .filter(|(_, s)| s.resident.is_none())
            .map(|(k, s)| (k.clone(), s.wal_seq))
            .collect()
    }

    /// Loads every snapshot found in the store's directory (crash
    /// recovery), reading and checking only headers. Bytes stay on disk;
    /// only watermarks and generations come resident. Per key, the newest
    /// generation whose header passes wins and every older one is
    /// removed, as is every leftover `.tmp` file. Returns the number of
    /// files refused — a header that fails a check, as every older-format
    /// file's does — which are left in place.
    pub(crate) fn load(&self) -> u64 {
        let mut state = self.inner.lock();
        let Some(dir) = state.dir.clone() else {
            return 0;
        };
        let generations = super::generations(
            &dir,
            |name| parse_generation(name, SNAPSHOT_EXT).map(|(stem, gen)| (stem.to_owned(), gen)),
            |_| {},
        );
        let mut refused = 0;
        for (stem, gens) in generations {
            let mut found = false;
            for gen in gens {
                let path = dir.join(generation_name(&stem, gen, SNAPSHOT_EXT));
                if found {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                let header = open_checked(&path)
                    .ok()
                    .filter(|(_, header)| stem_of(&header.key) == stem);
                let Some((_, header)) = header else {
                    refused += 1;
                    let newest = state.refused.entry(stem.clone()).or_default();
                    *newest = (*newest).max(gen);
                    continue;
                };
                found = true;
                state.by_key.insert(
                    header.key,
                    StoredSnapshot {
                        wal_seq: header.wal_seq,
                        gen,
                        resident: None,
                    },
                );
            }
        }
        refused
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::payload::DiscoverBody;
    use crate::storage::apply::apply_discover;
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellId, GsmObservation, Lac, Plmn};
    use proptest::prelude::*;
    use std::cell::Cell;

    fn sample(minute: u64, cid: u32) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(minute * 60),
            cell: CellGlobalId {
                plmn: Plmn { mcc: 404, mnc: 45 },
                lac: Lac(11),
                cell: CellId(cid),
            },
            layer: if cid.is_multiple_of(3) {
                NetworkLayer::G3
            } else {
                NetworkLayer::G2
            },
            rssi_dbm: -60.0 - f64::from(cid % 17) - (minute % 7) as f64 * 0.25,
        }
    }

    /// A store that has offloaded `days` days of one-per-minute samples:
    /// nights bouncing between two home cells, days between two work
    /// cells, an hour of distinct transit cells each way. Each day is its
    /// own sequenced offload, so the log is absorbed incrementally.
    pub(crate) fn multi_day_store(days: u64) -> UserStore {
        let mut store = UserStore::default();
        let config = GcaConfig::default();
        let mut start = 0;
        for day in 0..days {
            let base = day * 1_440;
            let observations: Vec<GsmObservation> = (0..1_440)
                .map(|m| {
                    let cid = match m {
                        0..480 | 1_020.. => 1 + (m / 4 % 2) as u32,
                        480..540 => 100 + (m - 480) as u32 / 6,
                        540..960 => 20 + (m / 3 % 2) as u32,
                        _ => 200 + (m - 960) as u32 / 6,
                    };
                    sample(base + m, cid)
                })
                .collect();
            let body = DiscoverBody {
                observations: Vec::new(),
                batch: Some(ObservationBatch::encode(&observations)),
                start: Some(start),
            };
            apply_discover(&mut store, &config, &body).unwrap();
            start += observations.len() as u64;
        }
        store.contacts_absorbed = 5;
        store.profile_seq = HashMap::from([(0, 3), (1, 4)]);
        store.places_seq = 6;
        store.routes_seq = 7;
        store
    }

    /// Every watermark and the client-visible places of two stores.
    pub(crate) fn assert_same_state(a: &UserStore, b: &UserStore) {
        assert_eq!(a.places, b.places);
        assert_eq!(a.absorbed_upto, b.absorbed_upto);
        assert_eq!(a.contacts_absorbed, b.contacts_absorbed);
        assert_eq!(a.profile_seq, b.profile_seq);
        assert_eq!(a.places_seq, b.places_seq);
        assert_eq!(a.routes_seq, b.routes_seq);
    }

    #[test]
    fn snapshot_round_trips_an_empty_store() {
        let parked = Parked::of(&UserStore::default());
        assert!(parked.log.is_empty(), "no engine, no log block");
        let rebuilt = parked.to_store().unwrap();
        assert!(rebuilt.places.is_empty());
        assert!(rebuilt.gca.is_none());
        assert_eq!(rebuilt.absorbed_upto, 0);
    }

    /// Parking and hydrating a store with a multi-day GCA log rebuilds
    /// the engine over a bit-identical log, with the same places and the
    /// same watermarks; dropping the engine keeps everything else.
    #[test]
    fn parked_multi_day_store_hydrates_with_full_fidelity() {
        let store = multi_day_store(4);
        let engine = store.gca.as_ref().unwrap();
        assert_eq!(engine.observation_count(), 4 * 1_440);
        assert!(!store.places.is_empty(), "the fixture discovers places");

        let parked = Parked::of(&store);
        let rebuilt = parked.to_store().unwrap();
        let back = rebuilt.gca.as_ref().unwrap();
        assert_eq!(back.config(), engine.config());
        let bits = |log: &[GsmObservation]| {
            log.iter()
                .map(|o| (o.time, o.cell, o.layer, o.rssi_dbm.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back.log().to_vec()), bits(&engine.log().to_vec()));
        assert_eq!(back.places().places, engine.places().places);
        assert_same_state(&rebuilt, &store);
    }

    #[test]
    fn mismatched_log_block_is_an_error() {
        let parked = Parked::of(&multi_day_store(1));
        let headless = Parked {
            store: Parked::of(&UserStore::default()).store,
            log: parked.log.clone(),
        };
        assert!(headless.to_store().is_err());
        let logless = Parked {
            store: parked.store.clone(),
            log: Vec::new(),
        };
        assert!(logless.to_store().is_err());
        let truncated = Parked {
            store: parked.store,
            log: parked.log[..parked.log.len() - 1].to_vec(),
        };
        assert!(truncated.to_store().is_err());
    }

    /// A splitmix64 stream: every choice a generated store makes.
    pub(crate) struct Gen(pub(crate) u64);

    impl Gen {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize].clone()
        }

        /// A collection length, often empty.
        fn len(&mut self) -> usize {
            self.pick(&[0, 0, 1, 2, 3, 7])
        }

        fn vec<T>(&mut self, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
            (0..self.len()).map(|_| item(self)).collect()
        }

        pub(crate) fn u32(&mut self) -> u32 {
            let random = self.next() as u32;
            self.pick(&[0, 1, u32::MAX, random])
        }

        pub(crate) fn u64(&mut self) -> u64 {
            let random = self.next();
            self.pick(&[0, 1, u64::MAX, random])
        }

        pub(crate) fn time(&mut self) -> SimTime {
            SimTime::from_seconds(self.u64())
        }

        /// Any `f64` bits: signed zeros, a subnormal, infinities, NaN
        /// payloads, random bits.
        fn f64(&mut self) -> f64 {
            let bits = self.next();
            self.pick(&[
                -0.0,
                0.0,
                5e-324,
                -1.5e-310,
                f64::INFINITY,
                f64::from_bits(0x7ff8_0000_0000_1234),
                f64::from_bits(0xfff0_0000_0000_0001),
                f64::from_bits(bits),
            ])
        }

        /// A fraction in `[0, 1]`, `-0.0` and a subnormal included.
        fn fraction(&mut self) -> f64 {
            let random = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            self.pick(&[-0.0, 0.0, 5e-324, 0.5, 1.0, random])
        }

        fn point(&mut self) -> GeoPoint {
            let lat = self.fraction() * 180.0 - 90.0;
            let random = self.fraction() * 360.0 - 180.0;
            let lng = self.pick(&[-0.0, 180.0, -180.0, random]);
            GeoPoint::new(lat, lng).unwrap()
        }

        pub(crate) fn text(&mut self) -> String {
            self.pick(&[
                String::new(),
                "home".to_owned(),
                "Zürich café".to_owned(),
                "東京駅".to_owned(),
                "🙂 tab\t nul\0 end".to_owned(),
                "ä".repeat(300),
            ])
        }

        fn cell(&mut self) -> CellGlobalId {
            CellGlobalId {
                plmn: Plmn {
                    mcc: self.next() as u16,
                    mnc: self.pick(&[0, u16::MAX, 45]),
                },
                lac: Lac(self.next() as u16),
                cell: CellId(self.u32()),
            }
        }

        fn contact(&mut self) -> ContactEntry {
            let place = Some(DiscoveredPlaceId(self.u32()));
            ContactEntry {
                contact: self.text(),
                start: self.time(),
                end: self.time(),
                place: self.pick(&[None, place]),
            }
        }
    }

    /// A store with every field drawn from `seed`: each signature and
    /// geometry kind, labels absent, empty and non-ASCII, empty and full
    /// collections, awkward `f64` bits, and an engine, a current memo, a
    /// stale memo or none.
    pub(crate) fn generated_store(seed: u64) -> UserStore {
        let mut g = Gen(seed);
        let places = g.vec(|g| DiscoveredPlace {
            id: DiscoveredPlaceId(g.u32()),
            signature: match g.next() % 3 {
                0 => PlaceSignature::Cells(g.vec(Gen::cell).into_iter().collect()),
                1 => PlaceSignature::WifiAps(g.vec(|g| Bssid(g.u64())).into_iter().collect()),
                _ => PlaceSignature::Coordinates {
                    center: g.point(),
                    radius: Meters::new(g.f64()),
                },
            },
            visits: g.vec(|g| DiscoveredVisit {
                arrival: g.time(),
                departure: g.time(),
            }),
            label: match g.next() % 3 {
                0 => None,
                1 => Some(String::new()),
                _ => Some(g.text()),
            },
        });
        let mut store = UserStore {
            places,
            ..UserStore::default()
        };
        let routes = g.vec(|g| CanonicalRoute {
            id: RouteId(g.u32()),
            from: DiscoveredPlaceId(g.u32()),
            to: DiscoveredPlaceId(g.u32()),
            geometry: if g.next().is_multiple_of(2) {
                RouteGeometry::CellSequence(g.vec(Gen::cell))
            } else {
                let extra = g.len();
                RouteGeometry::GpsTrace(
                    Polyline::new((0..2 + extra).map(|_| g.point()).collect()).unwrap(),
                )
            },
            usage_count: g.u32(),
            traversals: g.vec(Gen::time),
        });
        store.routes = RouteStore::from_parts(g.fraction(), routes).unwrap();
        for _ in 0..g.len() {
            store.history.upsert(MobilityProfile {
                day: g.u64(),
                places: g.vec(|g| PlaceEntry {
                    place: DiscoveredPlaceId(g.u32()),
                    arrival: g.time(),
                    departure: g.time(),
                }),
                routes: g.vec(|g| RouteEntry {
                    route: RouteId(g.u32()),
                    start: g.time(),
                    end: g.time(),
                }),
                contacts: g.vec(Gen::contact),
                activity: ActivitySummary {
                    moving_seconds: g.u64(),
                    stationary_seconds: g.u64(),
                },
            });
        }
        store.contacts = g.vec(Gen::contact);
        if !g.next().is_multiple_of(3) {
            let config = GcaConfig {
                min_bounce_weight: g.pick(&[1, 2, u32::MAX]),
                min_stay: SimDuration::from_seconds(g.pick(&[0, 600, u64::MAX])),
                max_sample_gap: SimDuration::from_seconds(g.pick(&[60, 300])),
                run_gap_tolerance: g.pick(&[0, 3]),
                max_signature_cells: g.pick(&[1, 5, usize::MAX]),
            };
            let mut minute = g.next() % 10_000;
            let log: Vec<GsmObservation> = (0..g.len() * 9)
                .map(|_| {
                    minute += g.next() % 3;
                    GsmObservation {
                        time: SimTime::from_seconds(minute * 60),
                        cell: g.cell(),
                        layer: g.pick(&[NetworkLayer::G2, NetworkLayer::G3]),
                        rssi_dbm: g.f64(),
                    }
                })
                .collect();
            let mut engine = IncrementalGca::new(config);
            engine.absorb(&log);
            store.gca = Some(engine);
        }
        let model = if g.next().is_multiple_of(2) {
            MarkovPredictor::train(&store.history)
        } else {
            MarkovPredictor::from_transitions(
                (0..g.len())
                    .map(|_| {
                        let next = (0..g.len())
                            .map(|_| (DiscoveredPlaceId(g.u32()), g.u32()))
                            .collect();
                        (DiscoveredPlaceId(g.u32()), next)
                    })
                    .collect(),
            )
        };
        let generation = store.history.generation();
        store.next_place = g
            .pick(&[None, Some(generation), Some(generation + 1)])
            .map(|tag| (tag, model));
        store.absorbed_upto = g.u64();
        store.contacts_absorbed = g.u64();
        store.profile_seq = (0..g.len()).map(|_| (g.u64(), g.u64())).collect();
        store.places_seq = g.u64();
        store.routes_seq = g.u64();
        store
    }

    proptest! {
        /// Every generated store parks and hydrates bit for bit: encoding
        /// the hydrated store gives back the parked bytes, which spell
        /// every `f64` by its bits, and the fields read back equal.
        #[test]
        fn generated_stores_round_trip_bit_exact(seed in any::<u64>()) {
            let store = generated_store(seed);
            let parked = Parked::of(&store);
            let back = parked.to_store().unwrap();
            prop_assert_eq!(&Parked::of(&back), &parked);

            let labels = |s: &UserStore| s.places.iter().map(|p| p.label.clone()).collect::<Vec<_>>();
            prop_assert_eq!(labels(&back), labels(&store));
            let threshold = |s: &UserStore| s.routes.match_threshold().to_bits();
            prop_assert_eq!(threshold(&back), threshold(&store));
            let traces = |s: &UserStore| {
                s.routes
                    .routes()
                    .iter()
                    .filter_map(|r| match &r.geometry {
                        RouteGeometry::GpsTrace(trace) => Some(
                            trace
                                .points()
                                .iter()
                                .map(|p| (p.latitude().to_bits(), p.longitude().to_bits()))
                                .collect::<Vec<_>>(),
                        ),
                        RouteGeometry::CellSequence(_) => None,
                    })
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(traces(&back), traces(&store));
            prop_assert!(back.history.iter().eq(store.history.iter()));
            // The upserts rebuild the derived arrival index too.
            for entry in store.history.iter().flat_map(|p| &p.places) {
                prop_assert_eq!(back.history.arrivals(entry.place), store.history.arrivals(entry.place));
                prop_assert_eq!(
                    back.history.weekday_histogram(entry.place),
                    store.history.weekday_histogram(entry.place)
                );
            }
            prop_assert_eq!(&back.contacts, &store.contacts);
            let log = |s: &UserStore| {
                s.gca.as_ref().map(|engine| {
                    engine
                        .log()
                        .iter()
                        .map(|o| (o.time, o.cell, o.layer, o.rssi_dbm.to_bits()))
                        .collect::<Vec<_>>()
                })
            };
            prop_assert_eq!(log(&back), log(&store));
            prop_assert_eq!(
                back.gca.as_ref().map(|e| e.config().clone()),
                store.gca.as_ref().map(|e| e.config().clone())
            );
            // Only a current memo is kept, re-tagged current.
            let current = store
                .next_place
                .as_ref()
                .filter(|(generation, _)| *generation == store.history.generation());
            prop_assert_eq!(
                back.next_place.as_ref().map(|(_, model)| model),
                current.map(|(_, model)| model)
            );
            if let Some((generation, _)) = &back.next_place {
                prop_assert_eq!(*generation, back.history.generation());
            }
            prop_assert_eq!(&back.profile_seq, &store.profile_seq);
            prop_assert_eq!(
                (back.absorbed_upto, back.contacts_absorbed, back.places_seq, back.routes_seq),
                (store.absorbed_upto, store.contacts_absorbed, store.places_seq, store.routes_seq)
            );
        }
    }

    proptest! {
        /// The log block parking writes from the engine's column log is
        /// byte for byte the batch spelling of the log, a recorded but
        /// unabsorbed tail included, whose new cells continue the
        /// dictionary. A store parked with such a tail hydrates to an
        /// engine equal to the parked one, which parks to the same bytes.
        #[test]
        fn the_log_block_is_the_batch_spelling(seed in any::<u64>(), absorbed in 0.0..1.0f64) {
            let mut g = Gen(seed);
            let mut minute = 0;
            let log: Vec<GsmObservation> = (0..g.len() * 20)
                .map(|_| {
                    minute += g.next() % 3;
                    sample(minute, (g.next() % 9) as u32)
                })
                .collect();
            let cut = (log.len() as f64 * absorbed) as usize;
            let mut engine = IncrementalGca::new(GcaConfig::default());
            engine.absorb(&log[..cut]);
            engine.record(&log[cut..]);
            prop_assert_eq!(
                ObservationBatch::log_bytes(engine.log()),
                ObservationBatch::encode(&log).to_bytes()
            );

            let store = UserStore {
                gca: Some(engine),
                ..UserStore::default()
            };
            let parked = Parked::of(&store);
            let back = parked.to_store().unwrap();
            let (engine, restored) = (store.gca.as_ref().unwrap(), back.gca.as_ref().unwrap());
            prop_assert_eq!(restored.export(), engine.export());
            prop_assert_eq!(restored.log().to_vec(), engine.log().to_vec());
            prop_assert_eq!(restored.log().cells(), engine.log().cells());
            prop_assert_eq!(Parked::of(&back), parked);
        }
    }

    thread_local! {
        /// The largest collection, in bytes, this thread's decoding
        /// allocated ahead of reading its items since the last reset.
        static LARGEST_ROOM: Cell<usize> = const { Cell::new(0) };
    }

    /// Notes one up-front collection allocation of `bytes`.
    pub(super) fn note_room(bytes: usize) {
        LARGEST_ROOM.with(|largest| largest.set(largest.get().max(bytes)));
    }

    /// A small store with every kind of field filled, for the hostile-
    /// bytes test.
    fn every_field_store() -> UserStore {
        let mut g = Gen(0);
        let mut store = generated_store(0);
        store.places = vec![
            DiscoveredPlace {
                id: DiscoveredPlaceId(1),
                signature: PlaceSignature::Cells((0..3).map(|_| g.cell()).collect()),
                visits: vec![DiscoveredVisit {
                    arrival: SimTime::from_seconds(60),
                    departure: SimTime::from_seconds(600),
                }],
                label: None,
            },
            DiscoveredPlace {
                id: DiscoveredPlaceId(2),
                signature: PlaceSignature::WifiAps([Bssid(7), Bssid(9)].into()),
                visits: Vec::new(),
                label: Some(String::new()),
            },
            DiscoveredPlace {
                id: DiscoveredPlaceId(3),
                signature: PlaceSignature::Coordinates {
                    center: g.point(),
                    radius: Meters::new(-0.0),
                },
                visits: Vec::new(),
                label: Some("東京駅".to_owned()),
            },
        ];
        let trace = Polyline::new(vec![g.point(), g.point()]).unwrap();
        let route = |id, geometry| CanonicalRoute {
            id: RouteId(id),
            from: DiscoveredPlaceId(1),
            to: DiscoveredPlaceId(3),
            geometry,
            usage_count: 2,
            traversals: vec![SimTime::from_seconds(5), SimTime::from_seconds(9)],
        };
        let routes = vec![
            route(0, RouteGeometry::CellSequence(vec![g.cell(), g.cell()])),
            route(1, RouteGeometry::GpsTrace(trace)),
        ];
        store.routes = RouteStore::from_parts(0.5, routes).unwrap();
        let contact = ContactEntry {
            contact: "peer-ü".to_owned(),
            start: SimTime::from_seconds(1),
            end: SimTime::from_seconds(2),
            place: Some(DiscoveredPlaceId(1)),
        };
        store.history = ProfileHistory::new();
        store.history.upsert(MobilityProfile {
            day: 0,
            places: vec![
                PlaceEntry {
                    place: DiscoveredPlaceId(1),
                    arrival: SimTime::from_seconds(60),
                    departure: SimTime::from_seconds(600),
                },
                PlaceEntry {
                    place: DiscoveredPlaceId(3),
                    arrival: SimTime::from_seconds(900),
                    departure: SimTime::from_seconds(990),
                },
            ],
            routes: vec![RouteEntry {
                route: RouteId(1),
                start: SimTime::from_seconds(600),
                end: SimTime::from_seconds(900),
            }],
            contacts: vec![contact.clone()],
            activity: ActivitySummary {
                moving_seconds: 300,
                stationary_seconds: 690,
            },
        });
        store.contacts = vec![contact];
        // A stay bouncing between cells 1 and 2, broken by travel, and a
        // last travel sample: edges, closed runs, an open run and a
        // foreign count in the engine section.
        let log: Vec<GsmObservation> = (0..61)
            .map(|m| match m {
                30..36 | 60 => sample(m, 50 + m as u32),
                _ => sample(m, 1 + u32::from(m % 3 == 1)),
            })
            .collect();
        let mut engine = IncrementalGca::new(GcaConfig::default());
        engine.absorb(&log);
        store.gca = Some(engine);
        store.next_place = Some((
            store.history.generation(),
            MarkovPredictor::train(&store.history),
        ));
        store.profile_seq = HashMap::from([(0, 1), (4, 2)]);
        store
    }

    /// Hostile bytes are an error, never a panic, and never an
    /// allocation the input could not fill: the store bytes and the log
    /// block cut at every offset, every count field set to `u64::MAX`,
    /// and every field of the engine section that names a symbol or a
    /// log entry set out of range. Every collection allocated ahead of
    /// its items holds no more items than the bytes left could spell,
    /// and a decoded item takes at most 8 bytes per byte it is read from
    /// (a place ~4×).
    #[test]
    fn hostile_bytes_are_errors_not_panics() {
        let store = every_field_store();
        let engine = store.gca.as_ref().map(|engine| (engine, engine.export()));
        let mut writer = StoreWriter::default();
        writer.store(&store, engine.as_ref());
        let parked = Parked::of(&store);
        assert_eq!(writer.out, parked.store);
        assert!(parked.to_store().is_ok());
        let (places, routes) = (store.places.len(), store.routes.routes().len());
        assert!(places == 3 && routes == 2 && store.history.len() == 1);

        let decode = |candidate: &Parked| {
            LARGEST_ROOM.with(|largest| largest.set(0));
            let result = candidate.to_store();
            let largest = LARGEST_ROOM.with(Cell::get);
            let input = candidate.store.len() + candidate.log.len();
            assert!(
                largest <= 8 * input,
                "{largest} bytes allocated at once for {input} bytes of input"
            );
            result
        };
        for cut in 0..parked.store.len() {
            let candidate = Parked {
                store: parked.store[..cut].to_vec(),
                log: parked.log.clone(),
            };
            assert!(decode(&candidate).is_err(), "store cut at {cut}");
        }
        for cut in 0..parked.log.len() {
            let candidate = Parked {
                store: parked.store.clone(),
                log: parked.log[..cut].to_vec(),
            };
            assert!(decode(&candidate).is_err(), "log cut at {cut}");
        }
        // Every count in the store, the engine section's three included,
        // then the log block's cell and observation counts.
        assert!(writer.counts.len() >= 18, "{} counts", writer.counts.len());
        let cells = u64::from_le_bytes(parked.log[..8].try_into().unwrap()) as usize;
        let log_counts = [0, 8 + cells * CELL_BYTES + 8];
        for (in_store, at) in (writer.counts.iter().map(|&at| (true, at)))
            .chain(log_counts.iter().map(|&at| (false, at)))
        {
            let mut candidate = parked.clone();
            let bytes = if in_store {
                &mut candidate.store
            } else {
                &mut candidate.log
            };
            bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(
                decode(&candidate).is_err(),
                "count at {at} (store: {in_store})"
            );
        }

        // The engine section: `absorbed`, every edge's symbols and
        // weight, every run label and the foreign count.
        let (_, export) = engine.as_ref().unwrap();
        let state = &export.state;
        assert!(!state.edges.is_empty() && !state.runs.is_empty());
        assert!(state.open.is_some() && state.foreign > 0);
        let absorbed_at = writer.absorbed_at;
        let edges_at = absorbed_at + 8 + 8 + state.dwell.len() * DWELL_BYTES + 8;
        let runs_at = edges_at + state.edges.len() * EDGE_BYTES + 8;
        let open_at = runs_at + state.runs.len() * RUN_BYTES + 1;
        let foreign_at = open_at + RUN_BYTES;
        let mut fields = vec![(absorbed_at, u64::MAX.to_le_bytes().to_vec())];
        for edge in 0..state.edges.len() {
            let at = edges_at + edge * EDGE_BYTES;
            for (field, value) in [(0, u32::MAX), (4, u32::MAX), (4, 0), (8, 0)] {
                fields.push((at + field, value.to_le_bytes().to_vec()));
            }
        }
        for run in (0..state.runs.len())
            .map(|run| runs_at + run * RUN_BYTES)
            .chain([open_at])
        {
            fields.push((run, u32::MAX.to_le_bytes().to_vec()));
        }
        fields.push((foreign_at, u32::MAX.to_le_bytes().to_vec()));
        let u32_at = |at: usize| u32::from_le_bytes(parked.store[at..at + 4].try_into().unwrap());
        assert_eq!(
            (u32_at(edges_at + 4), u32_at(open_at), u32_at(foreign_at)),
            (
                state.edges[0].1,
                state.open.unwrap().component,
                state.foreign
            ),
            "the section's layout"
        );
        for (at, value) in fields {
            let mut candidate = parked.clone();
            candidate.store[at..at + value.len()].copy_from_slice(&value);
            assert!(decode(&candidate).is_err(), "engine field at {at}");
        }
    }

    #[test]
    fn file_names_are_safe_and_distinct() {
        let a = file_name_of("350-1|u1@example.com", 1);
        let b = file_name_of("350-1|u2@example.com", 1);
        assert_ne!(a, b);
        assert!(a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.'));
        // Every generation, the generation-less name included, parses
        // back to its key's stem; nothing else does.
        let stem = stem_of("350-1|u1@example.com");
        for gen in [0, 1, 12] {
            let name = file_name_of("350-1|u1@example.com", gen);
            assert_eq!(
                parse_generation(&name, SNAPSHOT_EXT),
                Some((stem.as_str(), gen))
            );
        }
        for other in [
            "x.0.snap",
            "x.snap.tmp",
            "x.1.snap.tmp",
            "x.y.snap",
            "xsnap",
        ] {
            assert_eq!(parse_generation(other, SNAPSHOT_EXT), None, "{other}");
        }
    }

    #[test]
    fn memory_store_put_get() {
        let store = SnapshotStore::new(None);
        let parked = Parked::of(&UserStore::default());
        store.put("k", 7, parked.clone()).unwrap();
        assert!(store.contains("k"));
        assert_eq!(store.get("k").unwrap(), (7, Some(parked)));
        assert_eq!(store.watermarks().get("k"), None, "no durable copy");
    }

    /// The file layout: a binary header whose lengths split the rest and
    /// whose checksums cover it, read back whole by `get` and header-only
    /// by `load`.
    #[test]
    fn disk_store_writes_header_store_and_log() {
        let dir = std::env::temp_dir().join(format!("pmware-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let parked = Parked::of(&multi_day_store(2));
        let store = SnapshotStore::new(Some(&dir));
        store.put("imei|mail", 9, parked.clone()).unwrap();

        let path = dir.join("snapshots").join(file_name_of("imei|mail", 1));
        let (_, header) = open_checked(&path).unwrap();
        assert_eq!(
            header,
            Header {
                key: "imei|mail".to_owned(),
                wal_seq: 9,
                store_len: parked.store.len() as u64,
                log_len: parked.log.len() as u64,
                body_check: parked.body_check(),
            }
        );
        let bytes = fs::read(&path).unwrap();
        assert_eq!(&bytes[..4], b"PMSN");
        let header_len = HEADER_FIXED + 4 + "imei|mail".len() + 8;
        assert_eq!(
            bytes.len(),
            header_len + parked.store.len() + parked.log.len()
        );
        assert_eq!(
            &bytes[header_len..header_len + parked.store.len()],
            parked.store
        );
        assert_eq!(store.get("imei|mail").unwrap(), (9, Some(parked.clone())));
        assert_eq!(store.watermarks().get("imei|mail"), Some(&9));

        // A leftover temporary file is not a snapshot.
        fs::write(path.with_extension("snap.tmp"), b"{}\n").unwrap();
        let recovered = SnapshotStore::new(Some(&dir));
        assert_eq!(recovered.load(), 0);
        assert_eq!(recovered.keys(), vec!["imei|mail".to_owned()]);
        assert_eq!(recovered.get("imei|mail").unwrap(), (9, Some(parked)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Each park writes the next generation and unlinks the one before,
    /// so one file per key is on disk; a header that fails its checks is
    /// counted at load, the newest readable generation wins, and the
    /// key's next park is numbered above the refused file.
    #[test]
    fn each_park_writes_a_fresh_generation() {
        let dir = std::env::temp_dir().join(format!("pmware-snap-gen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let snapshots = dir.join("snapshots");
        let listing = || {
            let mut names: Vec<String> = fs::read_dir(&snapshots)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let store = SnapshotStore::new(Some(&dir));
        let empty = Parked::of(&UserStore::default());
        for wal_seq in 1..=3 {
            store.put("k", wal_seq, empty.clone()).unwrap();
            assert_eq!(listing(), [file_name_of("k", wal_seq)]);
        }
        assert_eq!(store.get("k").unwrap(), (3, Some(empty.clone())));

        // A damaged newer generation is counted and skipped, not read.
        fs::write(snapshots.join(file_name_of("k", 4)), b"not json\n").unwrap();
        let recovered = SnapshotStore::new(Some(&dir));
        assert_eq!(recovered.load(), 1);
        assert_eq!(recovered.get("k").unwrap(), (3, Some(empty.clone())));
        recovered.put("k", 5, empty).unwrap();
        assert_eq!(listing(), [file_name_of("k", 4), file_name_of("k", 5)]);
        let _ = fs::remove_dir_all(&dir);
    }
}
