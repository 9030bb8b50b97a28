//! Continuous trajectories built from day plans.
//!
//! An [`Itinerary`] is the agent's complete movement over the study: an
//! ordered list of dwell and travel [`Segment`]s covering every instant from
//! the first to the last midnight. The device simulator samples it for
//! positions and motion states; the diary ([`TrueVisit`] list) falls out of
//! the dwell segments.

use pmware_geo::{GeoPoint, Meters, Polyline};
use pmware_world::{MotionState, PlaceId, SimDuration, SimTime, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::agent::AgentProfile;
use crate::schedule::{plan_day, DayPlan};
use crate::visit::TrueVisit;

/// Minimum stay at a place even when the schedule is running late.
const MIN_DWELL: SimDuration = SimDuration::from_seconds(15 * 60);

/// One piece of an itinerary.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// Staying at a place, stationary at `spot`.
    Dwell {
        /// The ground-truth place.
        place: PlaceId,
        /// Exact position inside the place for this stay.
        spot: GeoPoint,
        /// Stay start.
        start: SimTime,
        /// Stay end.
        end: SimTime,
    },
    /// Travelling along a road path.
    Travel {
        /// The path, start point first.
        path: Polyline,
        /// Departure instant.
        start: SimTime,
        /// Arrival instant.
        end: SimTime,
    },
}

impl Segment {
    /// Segment start time.
    pub fn start(&self) -> SimTime {
        match self {
            Segment::Dwell { start, .. } | Segment::Travel { start, .. } => *start,
        }
    }

    /// Segment end time.
    pub fn end(&self) -> SimTime {
        match self {
            Segment::Dwell { end, .. } | Segment::Travel { end, .. } => *end,
        }
    }

    /// Position at time `t`, which must lie within the segment.
    fn position_at(&self, t: SimTime) -> GeoPoint {
        match self {
            Segment::Dwell { spot, .. } => *spot,
            Segment::Travel { path, start, end } => {
                let total = end.since(*start).as_seconds() as f64;
                if total == 0.0 {
                    return path.start();
                }
                let elapsed = t.since(*start).as_seconds() as f64;
                path.point_at_fraction(elapsed / total)
            }
        }
    }
}

/// An agent's complete, gap-free movement over several days.
#[derive(Debug, Clone, PartialEq)]
pub struct Itinerary {
    agent: crate::AgentId,
    segments: Vec<Segment>,
    end: SimTime,
}

impl Itinerary {
    /// Builds an itinerary for `agent` covering `days` days starting at the
    /// epoch. Deterministic: the agent's own seed drives all randomness.
    ///
    /// # Panics
    ///
    /// Panics if `days == 0` or if the agent references places outside
    /// `world`.
    pub fn build(agent: &AgentProfile, world: &World, days: u64) -> Itinerary {
        assert!(days > 0, "itinerary needs at least one day");
        let mut rng = StdRng::seed_from_u64(agent.seed());
        let plans: Vec<DayPlan> = (0..days)
            .map(|d| plan_day(agent, world, d, &mut rng))
            .collect();
        Self::from_plans(agent, world, &plans, &mut rng)
    }

    /// Builds an itinerary from explicit day plans (used by tests and by the
    /// deployment-study harness when it needs custom scenarios).
    pub fn from_plans(
        agent: &AgentProfile,
        world: &World,
        plans: &[DayPlan],
        rng: &mut StdRng,
    ) -> Itinerary {
        assert!(!plans.is_empty(), "at least one day plan required");
        let mut segments: Vec<Segment> = Vec::new();
        let mut clock = SimTime::from_seconds(plans[0].day * pmware_world::time::DAY);
        // Current dwell spot carried between stops.
        let mut current_spot: Option<GeoPoint> = None;

        for plan in plans {
            for stop in &plan.stops {
                let place = world.place(stop.place);
                let spot = sample_spot(place.position(), place.radius(), rng);

                // Travel from the previous spot if we are somewhere else.
                if let Some(prev) = current_spot {
                    if prev != spot {
                        let path = world
                            .roads()
                            .route_between(prev, spot)
                            .and_then(|r| r.to_polyline().ok())
                            .unwrap_or_else(|| {
                                Polyline::new(vec![prev, spot]).expect("two points")
                            });
                        let secs = (path.length().value() / agent.travel_speed_mps()).ceil() as u64;
                        let end = clock + SimDuration::from_seconds(secs.max(60));
                        segments.push(Segment::Travel {
                            path,
                            start: clock,
                            end,
                        });
                        clock = end;
                    }
                }

                // Dwell until the planned departure (or a minimum stay when
                // already late).
                let depart = stop.planned_departure.max(clock + MIN_DWELL);
                segments.push(Segment::Dwell {
                    place: stop.place,
                    spot,
                    start: clock,
                    end: depart,
                });
                clock = depart;
                current_spot = Some(spot);
            }
        }

        // Merge adjacent dwells at the same place (e.g. across midnight).
        let segments = merge_adjacent_dwells(segments);
        let end = segments.last().expect("non-empty").end();
        Itinerary {
            agent: agent.id(),
            segments,
            end,
        }
    }

    /// The agent this itinerary belongs to.
    pub fn agent(&self) -> crate::AgentId {
        self.agent
    }

    /// All segments in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Position at `t`. Before the start the first position is returned; at
    /// or after the end, the last.
    pub fn position_at(&self, t: SimTime) -> GeoPoint {
        match self.segment_at(t) {
            Some(seg) => seg.position_at(t),
            None => {
                if t < self.segments[0].start() {
                    self.segments[0].position_at(self.segments[0].start())
                } else {
                    let last = self.segments.last().expect("non-empty");
                    last.position_at(last.end())
                }
            }
        }
    }

    /// Ground-truth motion state at `t` (dwelling = stationary).
    pub fn motion_at(&self, t: SimTime) -> MotionState {
        match self.segment_at(t) {
            Some(Segment::Travel { .. }) => MotionState::Moving,
            _ => MotionState::Stationary,
        }
    }

    /// The ground-truth place occupied at `t`, if dwelling.
    pub fn place_at(&self, t: SimTime) -> Option<PlaceId> {
        match self.segment_at(t) {
            Some(Segment::Dwell { place, .. }) => Some(*place),
            _ => None,
        }
    }

    fn segment_at(&self, t: SimTime) -> Option<&Segment> {
        let idx = self.segments.partition_point(|s| s.end() <= t);
        self.segments.get(idx).filter(|s| s.start() <= t)
    }

    /// The diary: every dwell as a [`TrueVisit`], in time order.
    pub fn visits(&self) -> Vec<TrueVisit> {
        self.segments
            .iter()
            .filter_map(|s| match s {
                Segment::Dwell {
                    place, start, end, ..
                } => Some(TrueVisit {
                    agent: self.agent,
                    place: *place,
                    arrival: *start,
                    departure: *end,
                }),
                Segment::Travel { .. } => None,
            })
            .collect()
    }

    /// Distinct places visited.
    pub fn visited_places(&self) -> Vec<PlaceId> {
        let mut out: Vec<PlaceId> = self.visits().iter().map(|v| v.place).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Samples a fixed spot inside a place for one stay: within 60 % of the
/// radius so the agent is comfortably inside the extent.
fn sample_spot<R: Rng + ?Sized>(center: GeoPoint, radius: Meters, rng: &mut R) -> GeoPoint {
    let d = rng.gen_range(0.0..radius.value() * 0.6);
    let b = rng.gen_range(0.0..360.0);
    center.destination(b, Meters::new(d))
}

fn merge_adjacent_dwells(segments: Vec<Segment>) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
    for seg in segments {
        if let (
            Some(Segment::Dwell {
                place: p1, end: e1, ..
            }),
            Segment::Dwell {
                place: p2,
                start,
                end,
                ..
            },
        ) = (out.last_mut(), &seg)
        {
            if *p1 == *p2 && *e1 == *start {
                *e1 = *end;
                continue;
            }
        }
        out.push(seg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use pmware_world::builder::{RegionProfile, WorldBuilder};

    fn setup() -> (World, AgentProfile) {
        let world = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(2)
            .build();
        let pop = Population::generate(&world, 3, 5);
        let agent = pop.agents()[0].clone();
        (world, agent)
    }

    #[test]
    fn covers_whole_span_without_gaps() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 7);
        let segs = it.segments();
        assert_eq!(segs[0].start(), SimTime::EPOCH);
        for w in segs.windows(2) {
            assert_eq!(w[0].end(), w[1].start(), "gap between segments");
        }
        let last = segs.last().expect("segments");
        assert!(last.end() >= SimTime::from_day_time(7, 0, 0, 0));
    }

    #[test]
    fn starts_and_ends_at_home() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 3);
        let visits = it.visits();
        assert_eq!(visits.first().unwrap().place, agent.home());
        assert_eq!(visits.last().unwrap().place, agent.home());
    }

    #[test]
    fn dwell_positions_inside_place_extent() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 5);
        for seg in it.segments() {
            if let Segment::Dwell { place, spot, .. } = seg {
                let p = world.place(*place);
                assert!(
                    p.position().equirectangular_distance(*spot) <= p.radius(),
                    "spot outside {}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn position_at_midnight_is_home() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 4);
        let home = world.place(agent.home());
        for day in 0..4 {
            let t = SimTime::from_day_time(day, 3, 0, 0);
            let pos = it.position_at(t);
            assert!(
                home.position().equirectangular_distance(pos).value()
                    <= home.radius().value() + 1.0,
                "not home at {t}"
            );
            assert_eq!(it.place_at(t), Some(agent.home()));
        }
    }

    #[test]
    fn motion_state_matches_segment_kind() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 5);
        let mut travel_seen = false;
        for seg in it.segments() {
            let mid =
                SimTime::from_seconds((seg.start().as_seconds() + seg.end().as_seconds()) / 2);
            match seg {
                Segment::Travel { .. } => {
                    travel_seen = true;
                    assert_eq!(it.motion_at(mid), MotionState::Moving);
                }
                Segment::Dwell { .. } => {
                    assert_eq!(it.motion_at(mid), MotionState::Stationary);
                }
            }
        }
        assert!(travel_seen, "five days should include travel");
    }

    #[test]
    fn travel_interpolates_along_path() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 5);
        let travel = it
            .segments()
            .iter()
            .find_map(|s| match s {
                Segment::Travel { path, start, end } => Some((path.clone(), *start, *end)),
                _ => None,
            })
            .expect("has travel");
        let (path, start, end) = travel;
        let mid = SimTime::from_seconds((start.as_seconds() + end.as_seconds()) / 2);
        let pos = it.position_at(mid);
        assert!(
            path.distance_to(pos).value() < 5.0,
            "mid-travel point off path"
        );
        // Position just before start is path start; at end is path end.
        assert_eq!(it.position_at(start), path.start());
    }

    #[test]
    fn queries_outside_span_clamp() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 2);
        let before = it.position_at(SimTime::EPOCH);
        assert_eq!(before, it.position_at(SimTime::EPOCH));
        let way_after = it.position_at(SimTime::from_day_time(30, 0, 0, 0));
        let last_home = world.place(agent.home());
        assert!(
            last_home
                .position()
                .equirectangular_distance(way_after)
                .value()
                <= last_home.radius().value() + 1.0
        );
    }

    #[test]
    fn visits_are_merged_across_midnight() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 3);
        for w in it.visits().windows(2) {
            // No two adjacent visits to the same place touching in time.
            assert!(
                !(w[0].place == w[1].place && w[0].departure == w[1].arrival),
                "unmerged adjacent dwell"
            );
        }
    }

    #[test]
    fn deterministic() {
        let (world, agent) = setup();
        let a = Itinerary::build(&agent, &world, 4);
        let b = Itinerary::build(&agent, &world, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn min_dwell_respected() {
        let (world, agent) = setup();
        let it = Itinerary::build(&agent, &world, 14);
        for v in it.visits() {
            assert!(
                v.duration() >= MIN_DWELL,
                "visit to {:?} lasted only {}",
                v.place,
                v.duration()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_rejected() {
        let (world, agent) = setup();
        let _ = Itinerary::build(&agent, &world, 0);
    }
}
