//! Analytics over stored mobility profiles (§2.3.2).
//!
//! *"Mobility profiles and history module stores the long-term human
//! mobility patterns of a given user. These patterns can be used for
//! predicting user's future mobility"* — the analytics engine answers
//! aggregate queries (visit counts, typical arrival times, weekday
//! patterns); [`crate::predict`] builds predictors on top.

use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_world::intern::Interner;
use pmware_world::time::DAY;
use pmware_world::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::profile::MobilityProfile;

/// The per-user long-term profile history.
///
/// Besides the day-keyed profiles themselves, the history maintains a
/// **per-place arrival index** (place → profile day → arrivals, in entry
/// order) so that the query paths — visit counts, weekday histograms,
/// next-visit prediction — walk only the queried place's arrivals instead
/// of scanning (and re-collecting) every profile, and a **generation
/// counter** that [`upsert`](Self::upsert) bumps so derived caches (the
/// memoized Markov model) know when to invalidate.
#[derive(Debug, Clone, Default)]
pub struct ProfileHistory {
    profiles: BTreeMap<u64, MobilityProfile>,
    /// Place ↔ dense symbol table for the arrival index. Symbols are
    /// process-local derived state: they never serialize (the wire carries
    /// only the profiles) and never affect query results.
    place_ids: Interner<DiscoveredPlaceId>,
    /// Per-place arrivals, indexed by place symbol: profile day → arrivals
    /// in entry order. A slot left empty by an un-indexed day reads the
    /// same as an absent place.
    arrival_index: Vec<BTreeMap<u64, Vec<SimTime>>>,
    generation: u64,
}

impl ProfileHistory {
    /// An empty history.
    pub fn new() -> Self {
        ProfileHistory::default()
    }

    /// Stores a day's profile, replacing any previous sync of the same
    /// day, and bumps the [`generation`](Self::generation).
    pub fn upsert(&mut self, profile: MobilityProfile) {
        let day = profile.day;
        if let Some(old) = self.profiles.insert(day, profile) {
            // Un-index the replaced day's entries before re-indexing.
            for entry in &old.places {
                if let Some(sym) = self.place_ids.get(&entry.place) {
                    self.arrival_index[sym as usize].remove(&day);
                }
            }
        }
        for entry in &self.profiles[&day].places {
            let sym = self.place_ids.intern(&entry.place) as usize;
            if sym == self.arrival_index.len() {
                self.arrival_index.push(BTreeMap::new());
            }
            self.arrival_index[sym]
                .entry(day)
                .or_default()
                .push(entry.arrival);
        }
        self.generation += 1;
    }

    /// Monotone counter bumped on every [`upsert`](Self::upsert); equal
    /// generations guarantee an unchanged history, so models derived from
    /// it can be cached against this value.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The profile for a day, if synced.
    pub fn day(&self, day: u64) -> Option<&MobilityProfile> {
        self.profiles.get(&day)
    }

    /// Number of days stored.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when no profile is stored.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Iterates profiles in day order.
    pub fn iter(&self) -> impl Iterator<Item = &MobilityProfile> {
        self.profiles.values()
    }

    /// All arrival instants at a place, in stored order, without
    /// allocating — reads the arrival index (day ascending, entry order
    /// within a day: the same order a scan over the profiles would yield).
    pub fn arrivals_iter(&self, place: DiscoveredPlaceId) -> impl Iterator<Item = SimTime> + '_ {
        self.place_ids
            .get(&place)
            .into_iter()
            .flat_map(|sym| self.arrival_index[sym as usize].values())
            .flatten()
            .copied()
    }

    /// All arrival instants at a place, collected into a vector. Prefer
    /// [`arrivals_iter`](Self::arrivals_iter) on query paths.
    pub fn arrivals(&self, place: DiscoveredPlaceId) -> Vec<SimTime> {
        self.arrivals_iter(place).collect()
    }

    /// Total number of visits to a place (index lookup, no allocation).
    pub fn visit_count(&self, place: DiscoveredPlaceId) -> usize {
        self.place_ids.get(&place).map_or(0, |sym| {
            self.arrival_index[sym as usize]
                .values()
                .map(Vec::len)
                .sum()
        })
    }

    /// Average visits per week ("How frequently user visit shopping
    /// malls?" — §2.3.2 query 3, per place).
    pub fn visits_per_week(&self, place: DiscoveredPlaceId) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        let first = *self.profiles.keys().next().expect("non-empty");
        let last = *self.profiles.keys().last().expect("non-empty");
        let weeks = ((last - first + 1) as f64 / 7.0).max(1.0 / 7.0);
        self.visit_count(place) as f64 / weeks
    }

    /// Median arrival second-of-day at a place, optionally restricted to
    /// arrivals within `[after_hour, before_hour)` — e.g. `(15, 24)` for
    /// "the likely time at which the user typically reaches home in the
    /// evening" (§2.3.2 query 1). Returns `None` with no matching arrivals.
    pub fn typical_arrival_second_of_day(
        &self,
        place: DiscoveredPlaceId,
        window: Option<(u64, u64)>,
    ) -> Option<u64> {
        let mut seconds: Vec<u64> = self
            .arrivals_iter(place)
            .map(|t| t.seconds_of_day())
            .filter(|s| match window {
                Some((lo, hi)) => *s >= lo * 3_600 && *s < hi * 3_600,
                None => true,
            })
            .collect();
        if seconds.is_empty() {
            return None;
        }
        seconds.sort_unstable();
        Some(seconds[seconds.len() / 2])
    }

    /// Visit counts per weekday for a place (Monday first); streams the
    /// arrival index, no allocation.
    pub fn weekday_histogram(&self, place: DiscoveredPlaceId) -> [u32; 7] {
        let mut hist = [0u32; 7];
        for arrival in self.arrivals_iter(place) {
            let idx = (arrival.as_seconds() / DAY % 7) as usize;
            hist[idx] += 1;
        }
        hist
    }

    /// Mean minutes per day classified as moving (§6 activity extension).
    pub fn mean_daily_moving_minutes(&self) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        let total: u64 = self.iter().map(|p| p.activity.moving_seconds).sum();
        total as f64 / 60.0 / self.len() as f64
    }
}

/// Two histories are equal when they store the same profiles: the arrival
/// index is derived data and the generation is a local mutation counter,
/// so neither participates in equality.
impl PartialEq for ProfileHistory {
    fn eq(&self, other: &Self) -> bool {
        self.profiles == other.profiles
    }
}

/// Wire form: only the profiles travel; the arrival index is rebuilt on
/// deserialization (same serialized shape as the pre-index struct).
#[derive(Serialize, Deserialize)]
struct ProfileHistoryWire {
    profiles: BTreeMap<u64, MobilityProfile>,
}

impl Serialize for ProfileHistory {
    fn to_json_value(&self) -> serde::Value {
        ProfileHistoryWire {
            profiles: self.profiles.clone(),
        }
        .to_json_value()
    }
}

impl<'de> Deserialize<'de> for ProfileHistory {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let wire = ProfileHistoryWire::from_json_value(value)?;
        let mut history = ProfileHistory::new();
        for (_, profile) in wire.profiles {
            history.upsert(profile);
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PlaceEntry;
    use pmware_world::Weekday;

    fn entry(place: u32, day: u64, hour: u64, stay_h: u64) -> PlaceEntry {
        PlaceEntry {
            place: DiscoveredPlaceId(place),
            arrival: SimTime::from_day_time(day, hour, 0, 0),
            departure: SimTime::from_day_time(day, hour + stay_h, 0, 0),
        }
    }

    /// Two weeks: home (place 0) arrival every evening ~18–19h, work
    /// (place 1) on weekdays at 9h, mall (place 2) on Saturdays at 11h.
    fn history() -> ProfileHistory {
        let mut h = ProfileHistory::new();
        for day in 0..14 {
            let weekday = SimTime::from_day_time(day, 0, 0, 0).weekday();
            let mut p = MobilityProfile::new(day);
            if !weekday.is_weekend() {
                p.places.push(entry(1, day, 9, 8));
                p.places
                    .push(entry(0, day, if day % 2 == 0 { 18 } else { 19 }, 4));
            } else {
                if weekday == Weekday::Saturday {
                    p.places.push(entry(2, day, 11, 2));
                }
                p.places.push(entry(0, day, 16, 6));
            }
            h.upsert(p);
        }
        h
    }

    #[test]
    fn upsert_replaces_same_day() {
        let mut h = ProfileHistory::new();
        h.upsert(MobilityProfile::new(3));
        let mut p = MobilityProfile::new(3);
        p.places.push(entry(0, 3, 10, 1));
        h.upsert(p);
        assert_eq!(h.len(), 1);
        assert_eq!(h.day(3).unwrap().places.len(), 1);
    }

    #[test]
    fn visit_counts() {
        let h = history();
        assert_eq!(h.visit_count(DiscoveredPlaceId(1)), 10); // 10 weekdays
        assert_eq!(h.visit_count(DiscoveredPlaceId(2)), 2); // 2 saturdays
        assert_eq!(h.visit_count(DiscoveredPlaceId(0)), 14);
        assert_eq!(h.visit_count(DiscoveredPlaceId(9)), 0);
    }

    #[test]
    fn visits_per_week() {
        let h = history();
        assert!((h.visits_per_week(DiscoveredPlaceId(1)) - 5.0).abs() < 1e-9);
        assert!((h.visits_per_week(DiscoveredPlaceId(2)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn typical_evening_home_arrival() {
        let h = history();
        let s = h
            .typical_arrival_second_of_day(DiscoveredPlaceId(0), Some((15, 24)))
            .unwrap();
        // Weekday arrivals at 18/19h, weekend at 16h: median is 18h.
        assert_eq!(s / 3_600, 18);
    }

    #[test]
    fn window_excludes_out_of_range_arrivals() {
        let h = history();
        // Work arrivals are at 9h; an evening window yields nothing.
        assert!(h
            .typical_arrival_second_of_day(DiscoveredPlaceId(1), Some((15, 24)))
            .is_none());
        // Unwindowed: 9h.
        let s = h
            .typical_arrival_second_of_day(DiscoveredPlaceId(1), None)
            .unwrap();
        assert_eq!(s / 3_600, 9);
    }

    #[test]
    fn weekday_histogram() {
        let h = history();
        let hist = h.weekday_histogram(DiscoveredPlaceId(2));
        assert_eq!(hist[5], 2); // Saturday
        assert_eq!(hist.iter().sum::<u32>(), 2);
    }

    #[test]
    fn upsert_bumps_generation_and_reindexes_replaced_day() {
        let mut h = ProfileHistory::new();
        assert_eq!(h.generation(), 0);
        let mut p = MobilityProfile::new(3);
        p.places.push(entry(0, 3, 10, 1));
        p.places.push(entry(1, 3, 14, 1));
        h.upsert(p);
        assert_eq!(h.generation(), 1);
        assert_eq!(h.visit_count(DiscoveredPlaceId(0)), 1);
        // Replacing day 3 drops the old entries from the index: place 1
        // vanishes, place 0 moves to a new arrival hour.
        let mut p = MobilityProfile::new(3);
        p.places.push(entry(0, 3, 12, 1));
        h.upsert(p);
        assert_eq!(h.generation(), 2);
        assert_eq!(h.visit_count(DiscoveredPlaceId(1)), 0);
        assert_eq!(
            h.arrivals(DiscoveredPlaceId(0)),
            vec![SimTime::from_day_time(3, 12, 0, 0)]
        );
    }

    #[test]
    fn indexed_arrivals_match_a_profile_scan() {
        let h = history();
        for place in 0..4u32 {
            let id = DiscoveredPlaceId(place);
            let scanned: Vec<SimTime> = h
                .iter()
                .flat_map(|p| p.places.iter())
                .filter(|e| e.place == id)
                .map(|e| e.arrival)
                .collect();
            assert_eq!(h.arrivals(id), scanned, "place {place}");
            assert_eq!(h.visit_count(id), scanned.len());
        }
    }

    #[test]
    fn serde_roundtrip_rebuilds_the_index() {
        let h = history();
        let value = serde_json::to_value(&h).unwrap();
        // Only the profiles travel on the wire.
        assert!(value.get("profiles").is_some());
        assert!(value.get("arrival_index").is_none());
        let back: ProfileHistory = serde_json::from_value(value).unwrap();
        assert_eq!(back, h);
        for place in 0..4u32 {
            let id = DiscoveredPlaceId(place);
            assert_eq!(back.arrivals(id), h.arrivals(id));
            assert_eq!(back.weekday_histogram(id), h.weekday_histogram(id));
        }
    }

    #[test]
    fn empty_history_defaults() {
        let h = ProfileHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.visits_per_week(DiscoveredPlaceId(0)), 0.0);
        assert!(h
            .typical_arrival_second_of_day(DiscoveredPlaceId(0), None)
            .is_none());
    }
}
