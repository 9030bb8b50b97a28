//! The inference engine (§2.2.2).
//!
//! *"This module is responsible for data collection from different location
//! interfaces and inferring high level location attributes (i.e. places,
//! routes) from the data."*
//!
//! The engine buffers every raw observation for offload, records each GSM
//! sample into a persistent [`IncrementalGca`] (its log doubles as the
//! offload buffer), runs the online SensLoc detector over WiFi scans, and
//! — once place signatures exist — tracks arrivals and departures with the
//! debounced [`CellPlaceTracker`]. Discovery normally runs on the cloud,
//! so a sample is only recorded, not absorbed: the local fallback catches
//! the engine up when it runs, over just the samples recorded since the
//! last fallback.

use pmware_algorithms::gca::{
    CellPlaceTracker, GcaConfig, IncrementalGca, PlaceEvent, TrackerSnapshot,
};
use pmware_algorithms::sensloc::{SensLocConfig, SensLocDetector, WifiPlaceEvent};
use pmware_algorithms::signature::DiscoveredPlace;
use pmware_world::{GpsFix, GsmObservation, WifiScan};
use serde::{Deserialize, Serialize};

/// Inference parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceConfig {
    /// GCA parameters (used for the local fallback when the cloud is
    /// unreachable; the cloud uses its own copy).
    pub gca: GcaConfig,
    /// SensLoc parameters for opportunistic WiFi discovery.
    pub sensloc: SensLocConfig,
    /// Consecutive in-place samples to confirm an arrival.
    pub confirm_in: u32,
    /// Consecutive out-of-place samples to confirm a departure.
    pub confirm_out: u32,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            gca: GcaConfig::default(),
            sensloc: SensLocConfig::default(),
            confirm_in: 2,
            confirm_out: 4,
        }
    }
}

/// The engine.
#[derive(Debug)]
pub struct InferenceEngine {
    config: InferenceConfig,
    gps_log: Vec<GpsFix>,
    gca: IncrementalGca,
    wifi: SensLocDetector,
    tracker: Option<CellPlaceTracker>,
}

impl InferenceEngine {
    /// Creates an engine.
    pub fn new(config: InferenceConfig) -> Self {
        let wifi = SensLocDetector::new(config.sensloc.clone());
        let gca = IncrementalGca::new(config.gca.clone());
        InferenceEngine {
            config,
            gps_log: Vec::new(),
            gca,
            wifi,
            tracker: None,
        }
    }

    /// Feeds one GSM observation; returns confirmed place events (empty
    /// until signatures have been discovered and the tracker rebuilt).
    pub fn on_gsm(&mut self, obs: GsmObservation) -> Vec<PlaceEvent> {
        self.gca.record(std::slice::from_ref(&obs));
        match &mut self.tracker {
            Some(tracker) => tracker.update(&obs),
            None => Vec::new(),
        }
    }

    /// Feeds one WiFi scan into the online SensLoc detector.
    pub fn on_wifi(&mut self, scan: &WifiScan) -> Vec<WifiPlaceEvent> {
        self.wifi.update(scan)
    }

    /// Buffers one GPS fix (route tracing and arrival pinpointing).
    pub fn on_gps(&mut self, fix: GpsFix) {
        self.gps_log.push(fix);
    }

    /// The full GSM log (what gets offloaded to the cloud): the
    /// incremental GCA engine's own observation log, the one copy kept.
    pub fn gsm_log(&self) -> &[GsmObservation] {
        self.gca.observations()
    }

    /// The full GPS log.
    pub fn gps_log(&self) -> &[GpsFix] {
        &self.gps_log
    }

    /// Places found so far by the WiFi detector.
    pub fn wifi_places(&self) -> &[DiscoveredPlace] {
        self.wifi.places()
    }

    /// Local GCA fallback (§2.3.1 notes discovery is normally offloaded;
    /// this runs when the cloud is unreachable). It absorbs the samples
    /// recorded since the last fallback into the persistent incremental
    /// engine, then reads its place view: the cost is proportional to the
    /// new samples and the place/run counts, not to the whole buffered log.
    pub fn local_discover(&mut self) -> Vec<DiscoveredPlace> {
        self.gca.catch_up();
        self.gca.discovered_places()
    }

    /// Rebuilds the online tracker over freshly discovered signatures.
    pub fn rebuild_tracker(&mut self, places: &[DiscoveredPlace]) {
        self.tracker = Some(CellPlaceTracker::new(
            places,
            self.config.confirm_in,
            self.config.confirm_out,
        ));
    }

    /// Whether the tracker currently places the user somewhere.
    pub fn tracked_place(&self) -> Option<pmware_algorithms::signature::DiscoveredPlaceId> {
        self.tracker.as_ref().and_then(|t| t.current_place())
    }

    /// Captures the engine's durable state for a device checkpoint. The
    /// incremental GCA engine is deliberately *not* serialized: its state
    /// is a pure function of the recorded log, so restore records the log
    /// again instead of shipping the (much larger, map-keyed) graph.
    pub fn snapshot(&self) -> InferenceSnapshot {
        InferenceSnapshot {
            gsm_log: self.gsm_log().to_vec(),
            gps_log: self.gps_log.clone(),
            wifi: self.wifi.clone(),
            tracker: self.tracker.as_ref().map(CellPlaceTracker::snapshot),
        }
    }

    /// Rebuilds an engine from a snapshot. `known` must be the same place
    /// list the tracker was last rebuilt over (the registry's live places)
    /// — the cell→place index is reconstructed from it, then the
    /// snapshot's in-flight debounce state is restored on top.
    pub fn restore(
        config: InferenceConfig,
        snapshot: InferenceSnapshot,
        known: &[DiscoveredPlace],
    ) -> Self {
        let mut gca = IncrementalGca::new(config.gca.clone());
        gca.record(&snapshot.gsm_log);
        let tracker = snapshot.tracker.map(|state| {
            CellPlaceTracker::from_snapshot(known, config.confirm_in, config.confirm_out, state)
        });
        InferenceEngine {
            config,
            gps_log: snapshot.gps_log,
            gca,
            wifi: snapshot.wifi,
            tracker,
        }
    }
}

/// The serializable state of an [`InferenceEngine`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InferenceSnapshot {
    gsm_log: Vec<GsmObservation>,
    gps_log: Vec<GpsFix>,
    wifi: SensLocDetector,
    tracker: Option<TrackerSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellGlobalId, CellId, Lac, Plmn, SimTime};

    fn cell(id: u32) -> CellGlobalId {
        CellGlobalId {
            plmn: Plmn { mcc: 404, mnc: 45 },
            lac: Lac(1),
            cell: CellId(id),
        }
    }

    fn obs(minute: u64, c: CellGlobalId) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(minute * 60),
            cell: c,
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        }
    }

    #[test]
    fn no_events_before_signatures_exist() {
        let mut engine = InferenceEngine::new(InferenceConfig::default());
        for m in 0..30 {
            let events = engine.on_gsm(obs(m, if m % 2 == 0 { cell(1) } else { cell(2) }));
            assert!(events.is_empty());
        }
        assert_eq!(engine.gsm_log().len(), 30);
        assert_eq!(engine.tracked_place(), None);
    }

    #[test]
    fn local_discover_then_track() {
        let mut engine = InferenceEngine::new(InferenceConfig::default());
        // A 40-minute oscillating stay builds the log.
        for m in 0..40 {
            let _ = engine.on_gsm(obs(m, if m % 3 == 1 { cell(2) } else { cell(1) }));
        }
        let places = engine.local_discover();
        assert_eq!(places.len(), 1);
        engine.rebuild_tracker(&places);
        // Continue the stay: the tracker confirms an arrival.
        let mut arrivals = 0;
        for m in 40..45 {
            for e in engine.on_gsm(obs(m, cell(1))) {
                if matches!(e, PlaceEvent::Arrival { .. }) {
                    arrivals += 1;
                }
            }
        }
        assert_eq!(arrivals, 1);
        assert!(engine.tracked_place().is_some());
    }

    #[test]
    fn gps_log_accumulates() {
        let mut engine = InferenceEngine::new(InferenceConfig::default());
        engine.on_gps(GpsFix {
            time: SimTime::EPOCH,
            position: pmware_geo::GeoPoint::new(1.0, 2.0).unwrap(),
            accuracy: pmware_geo::Meters::new(5.0),
        });
        assert_eq!(engine.gps_log().len(), 1);
    }
}
