//! Daily schedule templates.
//!
//! A schedule is a sequence of *planned stops* — places with intended
//! departure times — starting and ending at home. Weekdays follow a
//! home→work→(errand)→home pattern with stochastic jitter; weekends are
//! leisure-driven. The trajectory builder turns planned stops into actual
//! timed movement, inserting real road travel between them.

use pmware_world::time::{DAY, HOUR, MINUTE};
use pmware_world::{PlaceCategory, PlaceId, SimTime, World};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::agent::AgentProfile;

/// One intended stay at a place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedStop {
    /// Where to stay.
    pub place: PlaceId,
    /// When the agent intends to leave.
    pub planned_departure: SimTime,
}

/// A full day's plan: ordered stops, first and last at home.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DayPlan {
    /// Day index since the simulation epoch.
    pub day: u64,
    /// Stops in visiting order.
    pub stops: Vec<PlannedStop>,
}

/// Picks a place from the agent's frequented list for `category`, favouring
/// the first (favourite) entry. With a small probability the agent
/// *explores*: tries any place of that category in the world (people do
/// visit new restaurants). Returns `None` if no place of the category
/// exists anywhere.
fn pick_place<R: Rng + ?Sized>(
    agent: &AgentProfile,
    world: &World,
    category: PlaceCategory,
    rng: &mut R,
) -> Option<PlaceId> {
    let options = agent.frequented(category);
    let explore = rng.gen_bool(0.22);
    if explore || options.is_empty() {
        let all: Vec<PlaceId> = world
            .places()
            .iter()
            .filter(|p| p.category() == category)
            .map(|p| p.id())
            .collect();
        if all.is_empty() {
            return None;
        }
        if explore {
            return Some(all[rng.gen_range(0..all.len())]);
        }
        return None;
    }
    match options.len() {
        1 => Some(options[0]),
        n => {
            if rng.gen_bool(0.7) {
                Some(options[0])
            } else {
                Some(options[1 + rng.gen_range(0..n - 1)])
            }
        }
    }
}

/// Jittered time-of-day in seconds: `base ± spread`, clamped to the day.
fn jitter<R: Rng + ?Sized>(rng: &mut R, base: u64, spread: u64) -> u64 {
    let lo = base.saturating_sub(spread);
    let hi = (base + spread).min(DAY - 1);
    rng.gen_range(lo..=hi)
}

/// Plans one day for an agent.
///
/// The returned plan always starts at home and ends with a final home stop
/// whose planned departure is the following midnight, so that consecutive
/// days chain into a continuous trajectory.
pub fn plan_day<R: Rng + ?Sized>(
    agent: &AgentProfile,
    world: &World,
    day: u64,
    rng: &mut R,
) -> DayPlan {
    let midnight = day * DAY;
    let next_midnight = SimTime::from_seconds((day + 1) * DAY);
    let weekday = SimTime::from_seconds(midnight).weekday();
    let mut stops = Vec::new();

    if weekday.is_weekend() {
        plan_weekend(agent, world, day, rng, &mut stops);
    } else {
        plan_workday(agent, world, day, rng, &mut stops);
    }

    // Close the day at home.
    stops.push(PlannedStop {
        place: agent.home(),
        planned_departure: next_midnight,
    });

    // Drop stops at places that do not exist in this world (defensive: a
    // profile built for another world would otherwise panic downstream).
    stops.retain(|s| (s.place.0 as usize) < world.places().len());
    debug_assert!(!stops.is_empty());

    DayPlan { day, stops }
}

fn plan_workday<R: Rng + ?Sized>(
    agent: &AgentProfile,
    world: &World,
    day: u64,
    rng: &mut R,
    stops: &mut Vec<PlannedStop>,
) {
    let midnight = day * DAY;
    // ~8 % of weekdays are work-from-home days.
    if rng.gen_bool(0.08) {
        // Maybe a lunchtime errand, otherwise home all day.
        if rng.gen_bool(0.4) {
            let leave_home = midnight + jitter(rng, 12 * HOUR, 45 * MINUTE);
            stops.push(PlannedStop {
                place: agent.home(),
                planned_departure: SimTime::from_seconds(leave_home),
            });
            if let Some(place) = pick_place(agent, world, PlaceCategory::Restaurant, rng)
                .or_else(|| pick_place(agent, world, PlaceCategory::Shopping, rng))
            {
                let depart = leave_home + jitter(rng, HOUR, 30 * MINUTE);
                stops.push(PlannedStop {
                    place,
                    planned_departure: SimTime::from_seconds(depart),
                });
            }
        }
        return;
    }

    let leave_home = midnight + jitter(rng, 8 * HOUR + 15 * MINUTE, 45 * MINUTE);
    stops.push(PlannedStop {
        place: agent.home(),
        planned_departure: SimTime::from_seconds(leave_home),
    });

    let leave_work = midnight + jitter(rng, 17 * HOUR + 30 * MINUTE, HOUR);

    // Lunch outing with probability 0.3: out of the office around 12:30,
    // back for the afternoon.
    if rng.gen_bool(0.3) {
        if let Some(place) = pick_place(agent, world, PlaceCategory::Restaurant, rng) {
            let leave_for_lunch = midnight + jitter(rng, 12 * HOUR + 30 * MINUTE, 20 * MINUTE);
            if leave_for_lunch + HOUR < leave_work {
                stops.push(PlannedStop {
                    place: agent.workplace(),
                    planned_departure: SimTime::from_seconds(leave_for_lunch),
                });
                stops.push(PlannedStop {
                    place,
                    planned_departure: SimTime::from_seconds(
                        leave_for_lunch + jitter(rng, 45 * MINUTE, 15 * MINUTE),
                    ),
                });
            }
        }
    }

    stops.push(PlannedStop {
        place: agent.workplace(),
        planned_departure: SimTime::from_seconds(leave_work),
    });

    // Evening errand with probability 0.55.
    if rng.gen_bool(0.55) {
        let category = match rng.gen_range(0..10) {
            0..=3 => PlaceCategory::Restaurant,
            4..=6 => PlaceCategory::Fitness,
            7..=8 => PlaceCategory::Shopping,
            _ => PlaceCategory::Entertainment,
        };
        if let Some(place) = pick_place(agent, world, category, rng) {
            let dwell = jitter(rng, 90 * MINUTE, 45 * MINUTE);
            stops.push(PlannedStop {
                place,
                planned_departure: SimTime::from_seconds(leave_work + 20 * MINUTE + dwell),
            });
        }
    }
}

fn plan_weekend<R: Rng + ?Sized>(
    agent: &AgentProfile,
    world: &World,
    day: u64,
    rng: &mut R,
    stops: &mut Vec<PlannedStop>,
) {
    let midnight = day * DAY;
    // ~15 % of weekend days are spent entirely at home.
    if rng.gen_bool(0.15) {
        return;
    }
    let mut t = midnight + jitter(rng, 10 * HOUR + 30 * MINUTE, 90 * MINUTE);
    stops.push(PlannedStop {
        place: agent.home(),
        planned_departure: SimTime::from_seconds(t),
    });

    let mut outings = 1;
    if rng.gen_bool(0.65) {
        outings += 1;
    }
    if rng.gen_bool(0.45) {
        outings += 1;
    }
    let leisure = [
        PlaceCategory::Shopping,
        PlaceCategory::Park,
        PlaceCategory::Entertainment,
        PlaceCategory::Restaurant,
        PlaceCategory::Healthcare,
    ];
    for _ in 0..outings {
        let category = leisure[rng.gen_range(0..leisure.len())];
        if let Some(place) = pick_place(agent, world, category, rng) {
            let dwell = jitter(rng, 100 * MINUTE, 60 * MINUTE);
            t += 25 * MINUTE + dwell;
            if t >= (day + 1) * DAY - HOUR {
                break;
            }
            stops.push(PlannedStop {
                place,
                planned_departure: SimTime::from_seconds(t),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use pmware_world::builder::{RegionProfile, WorldBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (World, AgentProfile) {
        let world = WorldBuilder::new(RegionProfile::test_tiny())
            .seed(2)
            .build();
        let pop = Population::generate(&world, 2, 3);
        (world.clone(), pop.agents()[0].clone())
    }

    #[test]
    fn weekday_plan_contains_home_and_work() {
        let (world, agent) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        // Day 1 is a Tuesday. Try several seeds; most weekdays include work.
        let mut saw_work = false;
        for s in 0..20 {
            let mut rng2 = StdRng::seed_from_u64(s);
            let plan = plan_day(&agent, &world, 1, &mut rng2);
            assert_eq!(plan.stops.first().unwrap().place, agent.home());
            assert_eq!(plan.stops.last().unwrap().place, agent.home());
            if plan.stops.iter().any(|s| s.place == agent.workplace()) {
                saw_work = true;
            }
        }
        assert!(saw_work, "no work stop in 20 weekday plans");
        let plan = plan_day(&agent, &world, 1, &mut rng);
        // Departures are non-decreasing.
        for w in plan.stops.windows(2) {
            assert!(w[0].planned_departure <= w[1].planned_departure);
        }
    }

    #[test]
    fn weekend_plan_uses_leisure_places() {
        let (world, agent) = setup();
        let mut any_leisure = false;
        for s in 0..30 {
            let mut rng = StdRng::seed_from_u64(s);
            let plan = plan_day(&agent, &world, 5, &mut rng); // Saturday
            for stop in &plan.stops {
                let place = world.place(stop.place);
                if !matches!(
                    place.category(),
                    PlaceCategory::Home | PlaceCategory::Workplace
                ) {
                    any_leisure = true;
                }
            }
        }
        assert!(any_leisure, "weekends should reach leisure places");
    }

    #[test]
    fn last_stop_departure_is_next_midnight() {
        let (world, agent) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let plan = plan_day(&agent, &world, 3, &mut rng);
        assert_eq!(
            plan.stops.last().unwrap().planned_departure,
            SimTime::from_day_time(4, 0, 0, 0)
        );
    }

    #[test]
    fn home_days_have_single_stop() {
        let (world, agent) = setup();
        let mut found_home_day = false;
        for s in 0..80 {
            let mut rng = StdRng::seed_from_u64(s);
            let plan = plan_day(&agent, &world, 6, &mut rng); // Sunday
            if plan.stops.len() == 1 {
                found_home_day = true;
                assert_eq!(plan.stops[0].place, agent.home());
            }
        }
        assert!(found_home_day, "15% of weekend days should be home days");
    }

    #[test]
    fn deterministic_given_seed() {
        let (world, agent) = setup();
        let a = plan_day(&agent, &world, 2, &mut StdRng::seed_from_u64(7));
        let b = plan_day(&agent, &world, 2, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn pick_place_favours_first() {
        let (world, agent) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        // Use a category with >= 2 options if one exists.
        let cat = PlaceCategory::ALL
            .iter()
            .copied()
            .find(|c| agent.frequented(*c).len() >= 2);
        if let Some(cat) = cat {
            let fav = agent.frequented(cat)[0];
            let n = 500;
            let fav_count = (0..n)
                .filter(|_| pick_place(&agent, &world, cat, &mut rng) == Some(fav))
                .count();
            assert!(fav_count > n / 2, "favourite picked only {fav_count}/{n}");
        }
        // A category with no places anywhere in the world yields None;
        // the tiny world has no transit places, so even exploration fails.
        for _ in 0..50 {
            assert_eq!(
                pick_place(&agent, &world, PlaceCategory::Transit, &mut rng),
                None
            );
        }
    }
}
