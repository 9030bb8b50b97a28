//! The life-logging application of §3 (Figure 4) plus the cloud analytics
//! of §2.3.2: visit diary, semantic tagging, and the three example
//! prediction queries.
//!
//! ```sh
//! cargo run --release --example lifelog_diary
//! ```

use pmware::algorithms::signature::DiscoveredPlaceId;
use pmware::cloud::{ArrivalBody, NextVisitBody, PlaceOnlyBody};
use pmware::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(31)
        .build();
    let population = Population::generate(&world, 1, 32);
    let agent = &population.agents()[0];
    let days = 14;
    let itinerary = population.itinerary(&world, agent.id(), days);
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 34));
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(3),
        33,
    )?;

    let rx = pms.register_app("lifelog", LifeLogApp::requirement(), LifeLogApp::filter());
    let mut lifelog = LifeLogApp::new(agent.tag_probability(), 35);

    for day in 1..=days {
        pms.run(SimTime::from_day_time(day, 0, 0, 0))?;
        for intent in rx.try_iter() {
            lifelog.on_intent(&intent);
        }
        // Tags decided in the app flow back into PMWare (§2.2.5) and are
        // synced to the cloud at the next maintenance pass.
        for (place, label) in lifelog.take_pending_labels() {
            pms.label_place(pmware::core::registry::PmPlaceId(place), label);
        }
    }

    // Figure 4b/4c: the places list with stay time and visiting days.
    println!("— mobility history (Figure 4 analogue) —");
    print!("{}", lifelog.report());
    println!(
        "tagged {} of {} places",
        lifelog.tagged_count(),
        lifelog.history().len()
    );

    // §2.3.2 analytics — the three example queries, answered by the cloud
    // from the synced mobility profiles.
    let end = SimTime::from_day_time(days, 0, 0, 0);
    // "Home" is the place where nights are spent; find its stable id from
    // PMS's registry by night visits.
    let home = pms
        .places()
        .iter()
        .max_by_key(|p| {
            p.gca_visits
                .iter()
                .filter(|v| v.arrival.hour_of_day() >= 17 || v.arrival.hour_of_day() <= 5)
                .count()
        })
        .expect("places discovered")
        .id;

    println!("\n— cloud analytics (§2.3.2) —");
    let client = pms.cloud_client_mut();

    // Query 1: likely time the user reaches home in the evening.
    let resp = client.call(
        "/api/v1/analytics/arrival",
        ArrivalBody {
            place: DiscoveredPlaceId(home.0),
            window: Some((15, 24)),
        },
        end,
    )?;
    let s = resp.json()["second_of_day"].as_u64().unwrap_or(0);
    println!(
        "1. typical evening home arrival: {:02}:{:02}",
        s / 3600,
        (s % 3600) / 60
    );

    // Query 2: when is the next visit to the most-frequented other place?
    // (Chosen by online-confirmed visits so the cloud's profile history —
    // which the predictor reads — actually contains it.)
    let work = pms
        .places()
        .iter()
        .filter(|p| p.id != home)
        .max_by_key(|p| p.visit_count)
        .expect("multiple places")
        .id;
    match pms.cloud_client_mut().call(
        "/api/v1/analytics/next_visit",
        NextVisitBody {
            place: DiscoveredPlaceId(work.0),
            now: end,
        },
        end,
    ) {
        Ok(resp) => {
            let next: SimTime = serde_json::from_value(resp.json()["time"].clone())?;
            println!("2. next predicted visit to place {}: {next}", work.0);
        }
        Err(e) => println!("2. no visit pattern for place {} yet ({e})", work.0),
    }

    // Query 3: how frequently does the user visit that place?
    let resp = pms.cloud_client_mut().call(
        "/api/v1/analytics/frequency",
        PlaceOnlyBody {
            place: DiscoveredPlaceId(work.0),
        },
        end,
    )?;
    println!(
        "3. visit frequency of place {}: {:.1} visits/week ({} total)",
        work.0,
        resp.json()["visits_per_week"],
        resp.json()["visit_count"]
    );

    // Bonus: the Markov "where next" distribution from home.
    let resp = pms.cloud_client_mut().call(
        "/api/v1/analytics/next_place",
        PlaceOnlyBody {
            place: DiscoveredPlaceId(home.0),
        },
        end,
    )?;
    println!(
        "   after home, the user usually goes to: {}",
        resp.json()["predictions"]
    );
    Ok(())
}
