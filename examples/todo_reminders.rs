//! The paper's §2.4 walk-through use case: a To-Do application gets
//! workplace arrival/departure alerts at building-level granularity,
//! tracked between 9 AM and 6 PM.
//!
//! ```sh
//! cargo run --release --example todo_reminders
//! ```

use pmware::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(11)
        .build();
    let population = Population::generate(&world, 1, 12);
    let agent = &population.agents()[0];
    let days = 7;
    let itinerary = population.itinerary(&world, agent.id(), days);
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 14));
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(1),
        13,
    )?;

    // §2.4 step 1–2: the To-Do app frames its request (building-level,
    // 9 AM – 6 PM) with its own intent filter, and registers with PMS.
    let rx = pms.register_app("todo", TodoApp::requirement(), TodoApp::filter());
    let mut todo = TodoApp::new();
    todo.add_arrival_note("review the sprint board");
    todo.add_departure_note("pick up groceries");

    // Each morning the user (re-)confirms which discovered place is
    // "work" — in the study this came from the life-logging UI's semantic
    // tag. The heuristic stand-in: the place with the most tracker-
    // confirmed visits whose arrivals cluster in the morning, excluding
    // where the user sleeps.
    let mut reminders = Vec::new();
    for day in 1..=days {
        pms.run(SimTime::from_day_time(day, 0, 0, 0))?;
        let places = pms.places();
        let night = places.iter().max_by_key(|p| {
            p.gca_visits
                .iter()
                .filter(|v| v.arrival.hour_of_day() < 6 || v.arrival.hour_of_day() >= 21)
                .count()
        });
        let work = places
            .iter()
            .filter(|p| Some(p.id) != night.map(|n| n.id))
            .max_by_key(|p| {
                (
                    p.visit_count,
                    p.gca_visits
                        .iter()
                        .filter(|v| (7..12).contains(&v.arrival.hour_of_day()))
                        .count(),
                )
            });
        if let Some(work) = work {
            if todo.workplace() != Some(work.id.0) {
                println!("day {day}: workplace (re)configured to {}", work.id);
                todo.set_workplace(work.id.0);
            }
        }
        for intent in rx.try_iter() {
            reminders.extend(todo.on_intent(&intent));
        }
    }

    // §2.4 steps 4–5: PMS broadcast the alerts; the app turned them into
    // reminders.
    println!("\nreminders fired over the week:");
    for r in &reminders {
        println!(
            "  [{}] {} — {}",
            r.time,
            if r.on_arrival {
                "arrived at work"
            } else {
                "left work"
            },
            r.message
        );
    }
    assert!(
        !reminders.is_empty(),
        "a commuter week must fire workplace reminders"
    );

    // The tracking window matters: no reminder outside 9–18 h... the
    // arrival events around 9 AM and departures around 5–6 PM fall inside.
    let outside = reminders
        .iter()
        .filter(|r| {
            let h = r.time.hour_of_day();
            !(8..=19).contains(&h)
        })
        .count();
    println!(
        "\n{} reminders total, {} outside the commute band",
        reminders.len(),
        outside
    );
    Ok(())
}
