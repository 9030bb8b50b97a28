//! Agents: the simulated study participants.

use std::collections::BTreeMap;

use pmware_world::{PlaceCategory, PlaceId};
use serde::{Deserialize, Serialize};

/// Identifier of an agent in a [`Population`](crate::Population).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct AgentId(pub u32);

impl std::fmt::Display for AgentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "agent:{}", self.0)
    }
}

/// A simulated participant: their anchor places and movement parameters.
///
/// Agents have a home and a workplace plus a small set of *frequented*
/// places per category; daily schedules draw from these with a bias toward
/// the first (favourite) entry, which concentrates visits the way real
/// mobility does (the paper cites users spending 80–90 % of time in places).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentProfile {
    id: AgentId,
    home: PlaceId,
    workplace: PlaceId,
    frequented: BTreeMap<PlaceCategory, Vec<PlaceId>>,
    /// Travel speed along roads, m/s (walking + transit mix).
    travel_speed_mps: f64,
    /// Probability that the participant tags a discovered place with a
    /// semantic label (§4: 70 % of visited places were tagged).
    tag_probability: f64,
    /// Seed for this agent's private randomness.
    seed: u64,
}

impl AgentProfile {
    /// Creates an agent profile.
    ///
    /// # Panics
    ///
    /// Panics if `travel_speed_mps` is not positive and finite, or if
    /// `tag_probability` is outside `[0, 1]`.
    pub fn new(
        id: AgentId,
        home: PlaceId,
        workplace: PlaceId,
        frequented: BTreeMap<PlaceCategory, Vec<PlaceId>>,
        travel_speed_mps: f64,
        tag_probability: f64,
        seed: u64,
    ) -> Self {
        assert!(
            travel_speed_mps.is_finite() && travel_speed_mps > 0.0,
            "travel speed must be positive, got {travel_speed_mps}"
        );
        assert!(
            (0.0..=1.0).contains(&tag_probability),
            "tag probability must be in [0,1], got {tag_probability}"
        );
        AgentProfile {
            id,
            home,
            workplace,
            frequented,
            travel_speed_mps,
            tag_probability,
            seed,
        }
    }

    /// Agent identifier.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// Home place.
    pub fn home(&self) -> PlaceId {
        self.home
    }

    /// Workplace.
    pub fn workplace(&self) -> PlaceId {
        self.workplace
    }

    /// Frequented places for a category (possibly empty).
    pub fn frequented(&self, category: PlaceCategory) -> &[PlaceId] {
        self.frequented
            .get(&category)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All frequented categories.
    pub fn frequented_categories(&self) -> impl Iterator<Item = PlaceCategory> + '_ {
        self.frequented.keys().copied()
    }

    /// Travel speed in m/s.
    pub fn travel_speed_mps(&self) -> f64 {
        self.travel_speed_mps
    }

    /// Probability of semantically tagging a discovered place.
    pub fn tag_probability(&self) -> f64 {
        self.tag_probability
    }

    /// The agent's private random seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AgentProfile {
        let mut freq = BTreeMap::new();
        freq.insert(PlaceCategory::Shopping, vec![PlaceId(5), PlaceId(6)]);
        freq.insert(PlaceCategory::Restaurant, vec![PlaceId(7)]);
        AgentProfile::new(AgentId(0), PlaceId(1), PlaceId(2), freq, 6.0, 0.7, 42)
    }

    #[test]
    fn frequented_lookup() {
        let p = profile();
        assert_eq!(
            p.frequented(PlaceCategory::Shopping),
            &[PlaceId(5), PlaceId(6)]
        );
        assert!(p.frequented(PlaceCategory::Fitness).is_empty());
    }

    #[test]
    #[should_panic(expected = "travel speed must be positive")]
    fn rejects_bad_speed() {
        let _ = AgentProfile::new(
            AgentId(0),
            PlaceId(0),
            PlaceId(1),
            BTreeMap::new(),
            0.0,
            0.5,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "tag probability")]
    fn rejects_bad_tag_probability() {
        let _ = AgentProfile::new(
            AgentId(0),
            PlaceId(0),
            PlaceId(1),
            BTreeMap::new(),
            5.0,
            1.5,
            1,
        );
    }
}
