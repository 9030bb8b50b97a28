//! The unified place table.
//!
//! GCA recomputations on the cloud return fresh `DiscoveredPlace` lists
//! whose ids are run-local; the registry gives places a *stable* identity
//! across recomputations by matching signatures, and fuses in WiFi
//! evidence (opportunistic SensLoc stays) and semantic labels (§2.2.5).

use std::collections::BTreeSet;

use pmware_algorithms::matching::{classify_places, GroundTruthVisit, MatchingReport};
use pmware_algorithms::signature::{
    DiscoveredPlace, DiscoveredPlaceId, DiscoveredVisit, PlaceSignature,
};
use pmware_geo::GeoPoint;
use pmware_mobility::Itinerary;
use pmware_world::{Bssid, CellGlobalId, SimTime};
use serde::{Deserialize, Serialize};

/// Stable identifier of a place in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PmPlaceId(pub u32);

impl std::fmt::Display for PmPlaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pm-place:{}", self.0)
    }
}

/// A place as PMWare knows it: fused signatures, label, position estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PmPlace {
    /// Stable id.
    pub id: PmPlaceId,
    /// GSM cell signature (from GCA).
    pub cells: BTreeSet<CellGlobalId>,
    /// WiFi signature (from opportunistic SensLoc stays).
    pub wifi_aps: BTreeSet<Bssid>,
    /// User-provided semantic label.
    pub label: Option<String>,
    /// Approximate position (from the cloud geolocation endpoint).
    pub position: Option<GeoPoint>,
    /// Visits confirmed by the online tracker.
    pub visit_count: u32,
    /// First time the place was discovered.
    pub first_seen: SimTime,
    /// The accumulated visit history from GCA recomputations.
    pub gca_visits: Vec<DiscoveredVisit>,
    /// Set when an authoritative (full-log) recomputation no longer finds
    /// this place: its visits were superseded by a better clustering. A
    /// later match revives it.
    pub retired: bool,
}

/// The share of a discovered place's visit time a diary place must hold
/// to be attributed to it: the paper's §4 analysis corresponds to 0.2
/// (see [`classify_places`]).
pub const DIARY_MIN_SHARE: f64 = 0.2;

/// Scores `places` against `itinerary`'s [`diary`], as every study in the
/// workspace grades a phone: each place becomes a stable-id
/// [`DiscoveredPlace`] (cells, GCA visit history, label), and
/// [`classify_places`] calls it correct, merged or divided at
/// [`DIARY_MIN_SHARE`].
pub fn score_against_diary<'a>(
    places: impl IntoIterator<Item = &'a PmPlace>,
    itinerary: &Itinerary,
) -> MatchingReport {
    let discovered: Vec<DiscoveredPlace> = places
        .into_iter()
        .map(|p| {
            let mut d = DiscoveredPlace::new(
                DiscoveredPlaceId(p.id.0),
                PlaceSignature::Cells(p.cells.clone()),
                p.gca_visits.clone(),
            );
            d.label = p.label.clone();
            d
        })
        .collect();
    classify_places(&discovered, &diary(itinerary), DIARY_MIN_SHARE)
}

/// `itinerary`'s diary: one [`GroundTruthVisit`] per true stay.
pub fn diary(itinerary: &Itinerary) -> Vec<GroundTruthVisit> {
    itinerary
        .visits()
        .iter()
        .map(|v| GroundTruthVisit {
            place: v.place,
            arrival: v.arrival,
            departure: v.departure,
        })
        .collect()
}

/// The registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlaceRegistry {
    places: Vec<PmPlace>,
}

/// Signature-match score between two cell sets: the Jaccard coefficient,
/// upgraded to the containment coefficient when one set is (almost) a
/// subset of the other. Plain Jaccard alone is unstable here because
/// accumulated signatures grow over time — a quiet day may observe only
/// one cell of a known place, and `1/|big|` would fail any threshold even
/// though the evidence is perfectly consistent.
fn cell_overlap(a: &BTreeSet<CellGlobalId>, b: &BTreeSet<CellGlobalId>) -> f64 {
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        return 0.0;
    }
    let jaccard = inter as f64 / union as f64;
    let containment = inter as f64 / a.len().min(b.len()) as f64;
    if containment >= 0.8 {
        jaccard.max(containment)
    } else {
        jaccard
    }
}

impl PlaceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PlaceRegistry::default()
    }

    /// All places ever known, including retired ones (stable-id indexed).
    pub fn places(&self) -> &[PmPlace] {
        &self.places
    }

    /// The live (non-retired) places.
    pub fn active_places(&self) -> impl Iterator<Item = &PmPlace> {
        self.places.iter().filter(|p| !p.retired)
    }

    /// A place by stable id.
    pub fn place(&self, id: PmPlaceId) -> Option<&PmPlace> {
        self.places.get(id.0 as usize)
    }

    /// Mutable access by stable id.
    pub fn place_mut(&mut self, id: PmPlaceId) -> Option<&mut PmPlace> {
        self.places.get_mut(id.0 as usize)
    }

    /// Number of known places.
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// Reconciles a fresh GCA output with the registry. Every output is
    /// authoritative (it covers the full accumulated place set): places
    /// whose cell signature overlaps an existing place (containment
    /// coefficient ≥ `min_overlap`) keep its stable id, the signature
    /// absorbs the new evidence and the visit history is replaced by the
    /// re-clustering; the rest become new places; existing places the run
    /// no longer finds are retired. Returns the ids created, in order.
    ///
    /// # Panics
    ///
    /// Panics if `min_overlap` is outside `[0, 1]`.
    pub fn reconcile(
        &mut self,
        discovered: &[DiscoveredPlace],
        now: SimTime,
        min_overlap: f64,
    ) -> Vec<PmPlaceId> {
        assert!(
            (0.0..=1.0).contains(&min_overlap),
            "min_overlap must be a fraction, got {min_overlap}"
        );
        let mut created = Vec::new();
        let mut matched: Vec<bool> = vec![false; self.places.len()];

        for place in discovered {
            let PlaceSignature::Cells(cells) = &place.signature else {
                // Only GCA outputs enter through reconcile.
                continue;
            };
            // Best existing match by signature overlap.
            let mut best: Option<(usize, f64)> = None;
            for (idx, existing) in self.places.iter().enumerate() {
                let overlap = cell_overlap(&existing.cells, cells);
                if overlap >= min_overlap && best.is_none_or(|(_, b)| overlap > b) {
                    best = Some((idx, overlap));
                }
            }
            match best {
                Some((idx, _)) => {
                    // Fold the new evidence in: the signature grows to the
                    // union of everything ever observed; visits are
                    // replaced by the re-clustering. A retired place seen
                    // again revives.
                    self.places[idx].cells.extend(cells.iter().copied());
                    self.places[idx].gca_visits = place.visits.clone();
                    self.places[idx].retired = false;
                    // Places created earlier in this same run sit past the
                    // pre-run snapshot; they are trivially "matched".
                    if idx < matched.len() {
                        matched[idx] = true;
                    }
                }
                None => {
                    let id = PmPlaceId(self.places.len() as u32);
                    self.places.push(PmPlace {
                        id,
                        cells: cells.clone(),
                        wifi_aps: BTreeSet::new(),
                        label: None,
                        position: None,
                        visit_count: 0,
                        first_seen: now,
                        gca_visits: place.visits.clone(),
                        retired: false,
                    });
                    created.push(id);
                }
            }
        }

        for (idx, was_matched) in matched.iter().enumerate() {
            if !was_matched {
                self.places[idx].retired = true;
            }
        }
        created
    }

    /// Attaches WiFi evidence to the place active at a given moment —
    /// the "opportunistic WiFi sensing" augmentation of §4.
    pub fn augment_with_wifi(&mut self, id: PmPlaceId, aps: impl IntoIterator<Item = Bssid>) {
        if let Some(place) = self.place_mut(id) {
            place.wifi_aps.extend(aps);
        }
    }

    /// Sets a place's semantic label.
    pub fn set_label(&mut self, id: PmPlaceId, label: impl Into<String>) -> bool {
        match self.place_mut(id) {
            Some(place) => {
                place.label = Some(label.into());
                true
            }
            None => false,
        }
    }

    /// Sets a place's estimated position.
    pub fn set_position(&mut self, id: PmPlaceId, position: GeoPoint) {
        if let Some(place) = self.place_mut(id) {
            place.position = Some(position);
        }
    }

    /// Bumps the visit counter; returns the new count (0 if unknown id).
    pub fn record_visit(&mut self, id: PmPlaceId) -> u32 {
        match self.place_mut(id) {
            Some(place) => {
                place.visit_count += 1;
                place.visit_count
            }
            None => 0,
        }
    }

    /// Places the user has labelled (the §4 "tagged" set).
    pub fn labelled(&self) -> impl Iterator<Item = &PmPlace> {
        self.places.iter().filter(|p| p.label.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_algorithms::signature::DiscoveredPlaceId;
    use pmware_world::{CellId, Lac, Plmn};

    fn cell(id: u32) -> CellGlobalId {
        CellGlobalId {
            plmn: Plmn { mcc: 404, mnc: 45 },
            lac: Lac(1),
            cell: CellId(id),
        }
    }

    fn gca_place(id: u32, cells: &[u32]) -> DiscoveredPlace {
        DiscoveredPlace::new(
            DiscoveredPlaceId(id),
            PlaceSignature::Cells(cells.iter().map(|&c| cell(c)).collect()),
            vec![DiscoveredVisit {
                arrival: SimTime::from_seconds(0),
                departure: SimTime::from_seconds(600),
            }],
        )
    }

    #[test]
    fn first_reconcile_creates_everything() {
        let mut reg = PlaceRegistry::new();
        let out = reg.reconcile(
            &[gca_place(0, &[1, 2]), gca_place(1, &[5, 6])],
            SimTime::EPOCH,
            0.4,
        );
        assert_eq!(out, vec![PmPlaceId(0), PmPlaceId(1)]);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn recompute_keeps_stable_ids() {
        let mut reg = PlaceRegistry::new();
        reg.reconcile(&[gca_place(0, &[1, 2, 3])], SimTime::EPOCH, 0.4);
        // The next day's GCA run relabels the same physical place as id 7
        // with a slightly different signature.
        let out = reg.reconcile(
            &[gca_place(7, &[1, 2, 4])],
            SimTime::from_day_time(1, 0, 0, 0),
            0.4,
        );
        assert!(out.is_empty(), "same place must not duplicate");
        assert_eq!(reg.len(), 1);
        // The signature was refreshed.
        assert!(reg.place(PmPlaceId(0)).unwrap().cells.contains(&cell(4)));
    }

    #[test]
    fn disjoint_signature_creates_new_place() {
        let mut reg = PlaceRegistry::new();
        reg.reconcile(&[gca_place(0, &[1, 2])], SimTime::EPOCH, 0.4);
        let out = reg.reconcile(
            &[gca_place(0, &[1, 2]), gca_place(1, &[8, 9])],
            SimTime::EPOCH,
            0.4,
        );
        assert_eq!(out, vec![PmPlaceId(1)]);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn wifi_augmentation_and_labels() {
        let mut reg = PlaceRegistry::new();
        reg.reconcile(&[gca_place(0, &[1, 2])], SimTime::EPOCH, 0.4);
        let id = PmPlaceId(0);
        reg.augment_with_wifi(id, [Bssid(10), Bssid(11)]);
        reg.augment_with_wifi(id, [Bssid(11), Bssid(12)]);
        assert_eq!(reg.place(id).unwrap().wifi_aps.len(), 3);
        assert!(reg.set_label(id, "Office"));
        assert!(!reg.set_label(PmPlaceId(9), "Nope"));
        assert_eq!(reg.labelled().count(), 1);
    }

    #[test]
    fn visits_and_position() {
        let mut reg = PlaceRegistry::new();
        reg.reconcile(&[gca_place(0, &[1])], SimTime::EPOCH, 0.4);
        let id = PmPlaceId(0);
        assert_eq!(reg.record_visit(id), 1);
        assert_eq!(reg.record_visit(id), 2);
        assert_eq!(reg.record_visit(PmPlaceId(5)), 0);
        let pos = GeoPoint::new(1.0, 2.0).unwrap();
        reg.set_position(id, pos);
        assert_eq!(reg.place(id).unwrap().position, Some(pos));
    }

    #[test]
    fn non_cell_signatures_are_skipped() {
        let mut reg = PlaceRegistry::new();
        let wifi_place = DiscoveredPlace::new(
            DiscoveredPlaceId(0),
            PlaceSignature::WifiAps([Bssid(1)].into_iter().collect()),
            vec![],
        );
        let out = reg.reconcile(&[wifi_place], SimTime::EPOCH, 0.4);
        assert!(out.is_empty());
        assert!(reg.is_empty());
    }

    #[test]
    #[should_panic(expected = "min_overlap")]
    fn bad_overlap_rejected() {
        let mut reg = PlaceRegistry::new();
        let _ = reg.reconcile(&[], SimTime::EPOCH, 7.0);
    }
}
