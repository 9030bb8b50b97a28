//! The prediction engine (§2.3.2).
//!
//! Answers the paper's three example queries over a user's stored history:
//!
//! 1. *"What is the likely time at which the user typically reaches home in
//!    the evening?"* → [`predict_arrival_in_window`].
//! 2. *"When will be the next visit of the user for a given place A?"* →
//!    [`predict_next_visit`].
//! 3. *"How frequently user visit shopping malls?"* →
//!    [`ProfileHistory::visits_per_week`] (exposed through the API).
//!
//! plus a first-order Markov [`MarkovPredictor`] over place transitions,
//! the standard substrate for "where next" queries.

use std::collections::BTreeMap;

use pmware_algorithms::signature::DiscoveredPlaceId;
use pmware_world::time::DAY;
use pmware_world::SimTime;
use serde::{Deserialize, Serialize};

use crate::analytics::ProfileHistory;

/// Predicted arrival instant at a place within a time-of-day window.
///
/// Returns `None` when the history holds no arrival in that window.
pub fn predict_arrival_in_window(
    history: &ProfileHistory,
    place: DiscoveredPlaceId,
    window: (u64, u64),
) -> Option<u64> {
    history.typical_arrival_second_of_day(place, Some(window))
}

/// Predicts the next visit to `place` strictly after `now`.
///
/// Uses the weekday pattern: for each of the next 14 days, if the place
/// was historically visited on that weekday, the predicted arrival is the
/// historical median arrival second-of-day; the first such instant after
/// `now` wins. Returns `None` for never-visited places.
pub fn predict_next_visit(
    history: &ProfileHistory,
    place: DiscoveredPlaceId,
    now: SimTime,
) -> Option<SimTime> {
    let hist = history.weekday_histogram(place);
    if hist.iter().all(|&n| n == 0) {
        return None;
    }
    // Median arrival per weekday (falling back to the overall median).
    let overall = history.typical_arrival_second_of_day(place, None)?;
    let mut per_weekday: [Option<u64>; 7] = [None; 7];
    {
        let mut buckets: [Vec<u64>; 7] = Default::default();
        for arrival in history.arrivals_iter(place) {
            let idx = (arrival.as_seconds() / DAY % 7) as usize;
            buckets[idx].push(arrival.seconds_of_day());
        }
        for (idx, mut bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                bucket.sort_unstable();
                per_weekday[idx] = Some(bucket[bucket.len() / 2]);
            }
        }
    }
    for offset in 0..14u64 {
        let day = now.day() + offset;
        let weekday_idx = (day % 7) as usize;
        if hist[weekday_idx] == 0 {
            continue;
        }
        let second = per_weekday[weekday_idx].unwrap_or(overall);
        let candidate = SimTime::from_seconds(day * DAY + second);
        if candidate > now {
            return Some(candidate);
        }
    }
    None
}

/// First-order Markov model over place-to-place transitions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MarkovPredictor {
    transitions: BTreeMap<DiscoveredPlaceId, BTreeMap<DiscoveredPlaceId, u32>>,
}

impl MarkovPredictor {
    /// Trains on the consecutive place pairs of every stored day.
    pub fn train(history: &ProfileHistory) -> MarkovPredictor {
        let mut model = MarkovPredictor::default();
        for profile in history.iter() {
            for w in profile.places.windows(2) {
                *model
                    .transitions
                    .entry(w[0].place)
                    .or_default()
                    .entry(w[1].place)
                    .or_insert(0) += 1;
            }
        }
        model
    }

    /// Successor distribution from `place`, most probable first.
    /// Empty when the place was never a transition source.
    pub fn predict_next(&self, place: DiscoveredPlaceId) -> Vec<(DiscoveredPlaceId, f64)> {
        let Some(next) = self.transitions.get(&place) else {
            return Vec::new();
        };
        let total: u32 = next.values().sum();
        let mut out: Vec<(DiscoveredPlaceId, f64)> = next
            .iter()
            .map(|(p, n)| (*p, *n as f64 / total as f64))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite probabilities"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MobilityProfile, PlaceEntry};

    fn entry(place: u32, day: u64, hour: u64) -> PlaceEntry {
        PlaceEntry {
            place: DiscoveredPlaceId(place),
            arrival: SimTime::from_day_time(day, hour, 0, 0),
            departure: SimTime::from_day_time(day, hour + 1, 0, 0),
        }
    }

    /// Weekday routine home(0) → work(1) → gym(2, Tue/Thu) → home(0);
    /// weekends at home only.
    fn history() -> ProfileHistory {
        let mut h = ProfileHistory::new();
        for day in 0..14 {
            let weekday = SimTime::from_day_time(day, 0, 0, 0).weekday();
            let mut p = MobilityProfile::new(day);
            p.places.push(entry(0, day, 0));
            if !weekday.is_weekend() {
                p.places.push(entry(1, day, 9));
                if day % 7 == 1 || day % 7 == 3 {
                    p.places.push(entry(2, day, 18));
                }
                p.places.push(entry(0, day, 20));
            }
            h.upsert(p);
        }
        h
    }

    #[test]
    fn markov_learns_routine() {
        let h = history();
        let m = MarkovPredictor::train(&h);
        // From home the most likely next place is work (10 weekday
        // transitions vs none to the gym directly).
        assert_eq!(
            m.predict_next(DiscoveredPlaceId(0))[0].0,
            DiscoveredPlaceId(1)
        );
        // From work: gym on 4 days, home on 6 → home wins.
        assert_eq!(
            m.predict_next(DiscoveredPlaceId(1))[0].0,
            DiscoveredPlaceId(0)
        );
        let dist = m.predict_next(DiscoveredPlaceId(1));
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Distribution is sorted descending.
        for w in dist.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn markov_unknown_place_is_empty() {
        let m = MarkovPredictor::train(&history());
        assert!(m.predict_next(DiscoveredPlaceId(99)).is_empty());
    }

    #[test]
    fn next_visit_prediction_respects_weekday_pattern() {
        let h = history();
        // Gym visits happen Tue/Thu at 18h. From Monday noon of week 3 the
        // next gym visit is Tuesday (day 15) 18:00.
        let now = SimTime::from_day_time(14, 12, 0, 0);
        let next = predict_next_visit(&h, DiscoveredPlaceId(2), now).unwrap();
        assert_eq!(next, SimTime::from_day_time(15, 18, 0, 0));
    }

    #[test]
    fn next_visit_later_today_if_time_remains() {
        let h = history();
        // Work visit at 9h; asked at 7h the prediction is today.
        let now = SimTime::from_day_time(14, 7, 0, 0);
        let next = predict_next_visit(&h, DiscoveredPlaceId(1), now).unwrap();
        assert_eq!(next, SimTime::from_day_time(14, 9, 0, 0));
        // Asked at 10h, it is tomorrow.
        let now = SimTime::from_day_time(14, 10, 0, 0);
        let next = predict_next_visit(&h, DiscoveredPlaceId(1), now).unwrap();
        assert_eq!(next, SimTime::from_day_time(15, 9, 0, 0));
    }

    #[test]
    fn never_visited_place_has_no_prediction() {
        let h = history();
        assert!(predict_next_visit(&h, DiscoveredPlaceId(42), SimTime::EPOCH).is_none());
    }

    #[test]
    fn evening_home_arrival_query() {
        let h = history();
        let s = predict_arrival_in_window(&h, DiscoveredPlaceId(0), (15, 24)).unwrap();
        assert_eq!(s / 3_600, 20);
        // No evening arrivals at work.
        assert!(predict_arrival_in_window(&h, DiscoveredPlaceId(1), (15, 24)).is_none());
    }
}
