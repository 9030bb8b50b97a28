//! SensLoc-style WiFi place discovery (Kim et al., SenSys 2010).
//!
//! §2.2.2 of the paper: *"PMWare uses algorithm described in SenseLoc for
//! place discovery using WiFi data. This algorithm uses tanimoto-coefficient
//! based similarity measure to find unique place signatures as well to
//! detect subsequent arrival and departures from a place."*
//!
//! The detector is an online state machine over WiFi scans:
//!
//! * **Entering.** Consecutive scans that are mutually similar (Tanimoto
//!   coefficient ≥ `enter_threshold`) indicate the user has settled; after
//!   `confirm_scans` such scans the stay becomes a visit candidate.
//! * **At a place.** The place fingerprint is the set of APs seen, with
//!   response rates; scans dissimilar from the fingerprint
//!   (< `depart_threshold`) for `depart_scans` consecutive scans confirm a
//!   departure.
//! * **Recognition.** A finished visit's fingerprint is compared with all
//!   known places; the best match above `match_threshold` merges the visit
//!   into that place, otherwise a new place is created.

use std::collections::{BTreeMap, BTreeSet};

use pmware_world::intern::Interner;
use pmware_world::{Bssid, SimDuration, SimTime, WifiScan};
use serde::{Deserialize, Serialize};

use crate::signature::{DiscoveredPlace, DiscoveredPlaceId, DiscoveredVisit, PlaceSignature};

/// Tanimoto (Jaccard) coefficient between two AP sets.
///
/// Returns 0 for two empty sets (nothing in common rather than identical —
/// an empty scan carries no place evidence).
pub fn tanimoto(a: &BTreeSet<Bssid>, b: &BTreeSet<Bssid>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Tunable parameters of the SensLoc detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensLocConfig {
    /// Similarity between consecutive scans required to begin a stay.
    pub enter_threshold: f64,
    /// Similarity to the current fingerprint below which a scan counts as a
    /// departure strike.
    pub depart_threshold: f64,
    /// Consecutive similar scans to confirm an arrival.
    pub confirm_scans: u32,
    /// Consecutive dissimilar scans to confirm a departure.
    pub depart_scans: u32,
    /// Similarity above which a finished visit matches a known place.
    pub match_threshold: f64,
    /// Minimum confirmed stay to record a visit.
    pub min_stay: SimDuration,
    /// An AP must appear in at least this fraction of a visit's scans to
    /// enter the signature (drops passers-by APs).
    pub min_response_rate: f64,
}

impl Default for SensLocConfig {
    fn default() -> Self {
        SensLocConfig {
            enter_threshold: 0.4,
            depart_threshold: 0.25,
            confirm_scans: 2,
            depart_scans: 2,
            match_threshold: 0.45,
            min_stay: SimDuration::from_minutes(10),
            min_response_rate: 0.3,
        }
    }
}

/// The online SensLoc detector.
///
/// Feed scans in time order with [`update`](SensLocDetector::update); pull
/// accumulated places with [`into_places`](SensLocDetector::into_places)
/// (or inspect them anytime with [`places`](SensLocDetector::places)).
#[derive(Debug, Clone)]
pub struct SensLocDetector {
    config: SensLocConfig,
    places: Vec<DiscoveredPlace>,
    /// BSSID ↔ dense symbol table for the inverted index. Symbols are
    /// process-local; checkpoints serialize the index keyed by raw BSSIDs
    /// (see the custom serde below), so the wire shape is unchanged and
    /// independent of intern order.
    aps: Interner<Bssid>,
    /// Inverted index, indexed by AP symbol: indices into `places` whose
    /// signature contains that AP. Recognition of a finished stay consults
    /// only the places sharing at least one AP with the new signature
    /// instead of scanning every known place.
    signature_index: Vec<Vec<usize>>,
    state: State,
}

/// The on-wire shape of a [`SensLocDetector`] — identical to the old
/// derived form, with the inverted index keyed by raw BSSIDs in ascending
/// order rather than by process-local symbols.
#[derive(Serialize, Deserialize)]
struct SensLocDetectorWire {
    config: SensLocConfig,
    places: Vec<DiscoveredPlace>,
    signature_index: BTreeMap<Bssid, Vec<usize>>,
    state: State,
}

impl Serialize for SensLocDetector {
    fn to_json_value(&self) -> serde::Value {
        let signature_index = self
            .aps
            .values()
            .iter()
            .zip(&self.signature_index)
            .filter(|(_, idxs)| !idxs.is_empty())
            .map(|(ap, idxs)| (*ap, idxs.clone()))
            .collect();
        SensLocDetectorWire {
            config: self.config.clone(),
            places: self.places.clone(),
            signature_index,
            state: self.state.clone(),
        }
        .to_json_value()
    }
}

impl<'de> Deserialize<'de> for SensLocDetector {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let wire = SensLocDetectorWire::from_json_value(value)?;
        let mut aps = Interner::new();
        let mut signature_index = Vec::with_capacity(wire.signature_index.len());
        for (ap, idxs) in wire.signature_index {
            let sym = aps.intern(&ap);
            debug_assert_eq!(sym as usize, signature_index.len());
            signature_index.push(idxs);
        }
        Ok(SensLocDetector {
            config: wire.config,
            places: wire.places,
            aps,
            signature_index,
            state: wire.state,
        })
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum State {
    Away {
        prev_scan: Option<(SimTime, BTreeSet<Bssid>)>,
        streak: u32,
        streak_start: Option<SimTime>,
        accum: BTreeMap<Bssid, u32>,
        scan_count: u32,
    },
    Staying(Stay),
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stay {
    start: SimTime,
    last_inside: SimTime,
    ap_counts: BTreeMap<Bssid, u32>,
    scan_count: u32,
    strikes: u32,
}

impl Stay {
    fn fingerprint(&self) -> BTreeSet<Bssid> {
        self.ap_counts.keys().copied().collect()
    }

    fn signature(&self, min_rate: f64) -> BTreeSet<Bssid> {
        let need = (self.scan_count as f64 * min_rate).ceil() as u32;
        self.ap_counts
            .iter()
            .filter(|(_, n)| **n >= need.max(1))
            .map(|(b, _)| *b)
            .collect()
    }
}

/// Event emitted by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WifiPlaceEvent {
    /// A stay began (reported when confirmed, timestamped at its start).
    Arrival {
        /// Stay start.
        time: SimTime,
    },
    /// A stay ended and was recorded against a place.
    Departure {
        /// The place the stay was attributed to.
        place: DiscoveredPlaceId,
        /// Whether this stay created the place (first visit).
        new_place: bool,
        /// Stay start.
        arrival: SimTime,
        /// Stay end.
        departure: SimTime,
    },
}

impl SensLocDetector {
    /// Creates a detector.
    pub fn new(config: SensLocConfig) -> Self {
        SensLocDetector {
            config,
            places: Vec::new(),
            aps: Interner::new(),
            signature_index: Vec::new(),
            state: State::Away {
                prev_scan: None,
                streak: 0,
                streak_start: None,
                accum: BTreeMap::new(),
                scan_count: 0,
            },
        }
    }

    /// Places discovered so far.
    pub fn places(&self) -> &[DiscoveredPlace] {
        &self.places
    }

    /// Feeds one scan; returns triggered events.
    pub fn update(&mut self, scan: &WifiScan) -> Vec<WifiPlaceEvent> {
        let aps: BTreeSet<Bssid> = scan.bssids().collect();
        let mut events = Vec::new();

        match &mut self.state {
            State::Away {
                prev_scan,
                streak,
                streak_start,
                accum,
                scan_count,
            } => {
                let similar = prev_scan
                    .as_ref()
                    .map(|(_, prev)| tanimoto(prev, &aps) >= self.config.enter_threshold)
                    .unwrap_or(false);
                if similar && !aps.is_empty() {
                    *streak += 1;
                    if streak_start.is_none() {
                        *streak_start = prev_scan.as_ref().map(|(t, _)| *t);
                    }
                    for ap in &aps {
                        *accum.entry(*ap).or_insert(0) += 1;
                    }
                    *scan_count += 1;
                    if *streak >= self.config.confirm_scans {
                        let start = streak_start.unwrap_or(scan.time);
                        let mut ap_counts = std::mem::take(accum);
                        // Include the first scan of the streak.
                        if let Some((_, prev)) = prev_scan {
                            for ap in prev.iter() {
                                *ap_counts.entry(*ap).or_insert(0) += 1;
                            }
                        }
                        let stay = Stay {
                            start,
                            last_inside: scan.time,
                            ap_counts,
                            scan_count: *scan_count + 1,
                            strikes: 0,
                        };
                        events.push(WifiPlaceEvent::Arrival { time: start });
                        self.state = State::Staying(stay);
                        return events;
                    }
                } else {
                    *streak = 0;
                    *streak_start = None;
                    accum.clear();
                    *scan_count = 0;
                }
                *prev_scan = Some((scan.time, aps));
            }
            State::Staying(stay) => {
                let sim = tanimoto(&stay.fingerprint(), &aps);
                if sim >= self.config.depart_threshold && !aps.is_empty() {
                    stay.strikes = 0;
                    stay.last_inside = scan.time;
                    stay.scan_count += 1;
                    for ap in &aps {
                        *stay.ap_counts.entry(*ap).or_insert(0) += 1;
                    }
                } else {
                    stay.strikes += 1;
                    if stay.strikes >= self.config.depart_scans {
                        let finished = stay.clone();
                        self.state = State::Away {
                            prev_scan: Some((scan.time, aps)),
                            streak: 0,
                            streak_start: None,
                            accum: BTreeMap::new(),
                            scan_count: 0,
                        };
                        if let Some(event) = self.finish_stay(finished) {
                            events.push(event);
                        }
                    }
                }
            }
        }
        events
    }

    /// Flushes an in-progress stay at end of stream (device shutdown).
    pub fn finish(&mut self) -> Vec<WifiPlaceEvent> {
        let mut events = Vec::new();
        if let State::Staying(stay) = std::mem::replace(
            &mut self.state,
            State::Away {
                prev_scan: None,
                streak: 0,
                streak_start: None,
                accum: BTreeMap::new(),
                scan_count: 0,
            },
        ) {
            if let Some(e) = self.finish_stay(stay) {
                events.push(e);
            }
        }
        events
    }

    /// Consumes the detector, returning all discovered places.
    pub fn into_places(mut self) -> Vec<DiscoveredPlace> {
        self.finish();
        self.places
    }

    /// The mutable index entry for an AP, interning it on first sight.
    fn index_slot(&mut self, ap: Bssid) -> &mut Vec<usize> {
        let sym = self.aps.intern(&ap) as usize;
        if sym == self.signature_index.len() {
            self.signature_index.push(Vec::new());
        }
        &mut self.signature_index[sym]
    }

    fn finish_stay(&mut self, stay: Stay) -> Option<WifiPlaceEvent> {
        let duration = stay.last_inside.since(stay.start);
        if duration < self.config.min_stay {
            return None;
        }
        let signature = stay.signature(self.config.min_response_rate);
        if signature.is_empty() {
            return None;
        }
        let visit = DiscoveredVisit {
            arrival: stay.start,
            departure: stay.last_inside,
        };

        // Match against known places. Places sharing no AP with the new
        // signature have a Tanimoto of 0 and cannot clear a positive match
        // threshold, so the candidate set comes from the inverted index
        // rather than a scan over every place. A BTreeSet keeps candidates
        // in ascending place order, preserving the earliest-index tie-break
        // of the former linear scan.
        let candidates: BTreeSet<usize> = if self.config.match_threshold > 0.0 {
            signature
                .iter()
                .filter_map(|ap| self.aps.get(ap))
                .flat_map(|sym| &self.signature_index[sym as usize])
                .copied()
                .collect()
        } else {
            (0..self.places.len()).collect()
        };
        let mut best: Option<(usize, f64)> = None;
        for &idx in &candidates {
            if let PlaceSignature::WifiAps(aps) = &self.places[idx].signature {
                let sim = tanimoto(aps, &signature);
                if sim >= self.config.match_threshold && best.is_none_or(|(_, b)| sim > b) {
                    best = Some((idx, sim));
                }
            }
        }
        match best {
            Some((idx, _)) => {
                self.places[idx].visits.push(visit);
                // Refresh the signature with newly seen APs (union keeps
                // recognition robust to AP churn), indexing the additions.
                if let PlaceSignature::WifiAps(aps) = &mut self.places[idx].signature {
                    aps.extend(signature.iter().copied());
                }
                for &ap in &signature {
                    let entry = self.index_slot(ap);
                    if !entry.contains(&idx) {
                        entry.push(idx);
                    }
                }
                Some(WifiPlaceEvent::Departure {
                    place: self.places[idx].id,
                    new_place: false,
                    arrival: visit.arrival,
                    departure: visit.departure,
                })
            }
            None => {
                let idx = self.places.len();
                let id = DiscoveredPlaceId(idx as u32);
                for &ap in &signature {
                    self.index_slot(ap).push(idx);
                }
                self.places.push(DiscoveredPlace::new(
                    id,
                    PlaceSignature::WifiAps(signature),
                    vec![visit],
                ));
                Some(WifiPlaceEvent::Departure {
                    place: id,
                    new_place: true,
                    arrival: visit.arrival,
                    departure: visit.departure,
                })
            }
        }
    }
}

/// Batch driver: runs the detector over a full scan history.
pub fn discover_places(scans: &[WifiScan], config: &SensLocConfig) -> Vec<DiscoveredPlace> {
    let mut detector = SensLocDetector::new(config.clone());
    for scan in scans {
        let _ = detector.update(scan);
    }
    detector.into_places()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_world::WifiReading;

    fn scan(minute: u64, ids: &[u64]) -> WifiScan {
        WifiScan {
            time: SimTime::from_seconds(minute * 60),
            readings: ids
                .iter()
                .map(|&b| WifiReading {
                    bssid: Bssid(b),
                    rssi_dbm: -50.0,
                })
                .collect(),
        }
    }

    #[test]
    fn tanimoto_basics() {
        let a: BTreeSet<Bssid> = [Bssid(1), Bssid(2), Bssid(3)].into_iter().collect();
        let b: BTreeSet<Bssid> = [Bssid(2), Bssid(3), Bssid(4)].into_iter().collect();
        assert!((tanimoto(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(tanimoto(&a, &a), 1.0);
        let empty = BTreeSet::new();
        assert_eq!(tanimoto(&a, &empty), 0.0);
        assert_eq!(tanimoto(&empty, &empty), 0.0);
    }

    /// Scans at "home" with APs {1,2,3} and per-scan dropout of one AP.
    fn home_scans(start_min: u64, count: u64) -> Vec<WifiScan> {
        (0..count)
            .map(|i| {
                let m = start_min + i;
                match m % 3 {
                    0 => scan(m, &[1, 2]),
                    1 => scan(m, &[1, 2, 3]),
                    _ => scan(m, &[2, 3]),
                }
            })
            .collect()
    }

    #[test]
    fn single_stay_discovered() {
        let scans = home_scans(0, 30);
        let places = discover_places(&scans, &SensLocConfig::default());
        assert_eq!(places.len(), 1, "{places:?}");
        let place = &places[0];
        assert_eq!(place.visits.len(), 1);
        assert!(place.visits[0].duration() >= SimDuration::from_minutes(25));
        if let PlaceSignature::WifiAps(aps) = &place.signature {
            assert!(aps.contains(&Bssid(1)));
            assert!(aps.contains(&Bssid(2)));
            assert!(aps.contains(&Bssid(3)));
        } else {
            panic!("expected AP signature");
        }
    }

    #[test]
    fn revisit_matches_same_place() {
        let mut scans = home_scans(0, 30);
        // Travel: disjoint transient APs, one scan each.
        for m in 30..40 {
            scans.push(scan(m, &[100 + m, 200 + m]));
        }
        scans.extend(home_scans(40, 30));
        let places = discover_places(&scans, &SensLocConfig::default());
        assert_eq!(places.len(), 1, "revisit must merge: {places:?}");
        assert_eq!(places[0].visits.len(), 2);
    }

    #[test]
    fn two_distinct_places() {
        let mut scans = home_scans(0, 30);
        for m in 30..35 {
            scans.push(scan(m, &[1_000 + m]));
        }
        // Different AP set at "work".
        for i in 0..30 {
            let m = 35 + i;
            let ids: &[u64] = if m % 2 == 0 { &[7, 8, 9] } else { &[7, 9] };
            scans.push(scan(m, ids));
        }
        let places = discover_places(&scans, &SensLocConfig::default());
        assert_eq!(places.len(), 2, "{places:?}");
    }

    #[test]
    fn short_stay_is_dropped() {
        let scans = home_scans(0, 5); // under min_stay
        let places = discover_places(&scans, &SensLocConfig::default());
        assert!(places.is_empty());
    }

    #[test]
    fn empty_scans_never_confirm_a_stay() {
        let scans: Vec<WifiScan> = (0..30).map(|m| scan(m, &[])).collect();
        let places = discover_places(&scans, &SensLocConfig::default());
        assert!(places.is_empty());
    }

    #[test]
    fn arrival_event_fires_once_per_stay() {
        let scans = home_scans(0, 30);
        let mut det = SensLocDetector::new(SensLocConfig::default());
        let mut arrivals = 0;
        for s in &scans {
            for e in det.update(s) {
                if matches!(e, WifiPlaceEvent::Arrival { .. }) {
                    arrivals += 1;
                }
            }
        }
        assert_eq!(arrivals, 1);
        let events = det.finish();
        assert_eq!(events.len(), 1);
        match events[0] {
            WifiPlaceEvent::Departure { new_place, .. } => assert!(new_place),
            _ => panic!("expected departure"),
        }
    }

    #[test]
    fn departure_strikes_tolerate_one_bad_scan() {
        let mut scans = home_scans(0, 15);
        scans.push(scan(15, &[500])); // one glitch scan
        scans.extend(home_scans(16, 15));
        let places = discover_places(&scans, &SensLocConfig::default());
        assert_eq!(places.len(), 1);
        assert_eq!(places[0].visits.len(), 1, "glitch must not split the stay");
    }
}
